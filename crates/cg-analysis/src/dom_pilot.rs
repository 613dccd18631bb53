//! The §8 pilot: cross-domain DOM manipulation prevalence.

use cg_instrument::VisitLog;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;

/// DOM-pilot result.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DomPilotStats {
    /// % of sites with ≥1 cross-domain DOM mutation that *applied*.
    pub sites_with_cross_dom_pct: f64,
    /// Cross-domain mutation events that reached the document.
    pub events: usize,
    /// Cross-domain mutation events a DOM guard blocked (zero in
    /// unguarded crawls).
    pub blocked_events: usize,
    /// % of sites where every attempted cross-domain mutation was
    /// blocked (the guard's per-site win rate).
    pub sites_fully_protected_pct: f64,
}

/// The pilot statistic over the complete visits of `logs`: the one table
/// of a DOM-guard crawl, which needs no cookie replay.
pub fn dom_pilot_stats<L: Borrow<VisitLog>>(logs: impl IntoIterator<Item = L>) -> DomPilotStats {
    let (mut pilot, mut sites) = (DomPilot::default(), 0);
    for log in logs.into_iter().filter(|log| log.borrow().complete) {
        pilot.fold(log.borrow());
        sites += 1;
    }
    pilot.stats(sites)
}

/// The pilot's counters. A mutation is cross-domain when the acting
/// script's eTLD+1 is known and differs from the element owner's.
/// Blocked events (DOM-guard crawls) are tallied separately: they never
/// reached the document.
#[derive(Debug, Clone, Default)]
pub(crate) struct DomPilot {
    sites_with: usize,
    events: usize,
    blocked_events: usize,
    sites_fully_protected: usize,
}

impl DomPilot {
    pub(crate) fn fold(&mut self, log: &VisitLog) {
        let cross = log.dom_events.iter().filter(|e| e.is_cross_domain(log));
        let blocked = cross.clone().filter(|e| e.blocked).count();
        let applied = cross.count() - blocked;
        self.sites_with += usize::from(applied > 0);
        self.sites_fully_protected += usize::from(blocked > 0 && applied == 0);
        self.events += applied;
        self.blocked_events += blocked;
    }

    pub(crate) fn merge(&mut self, other: DomPilot) {
        self.sites_with += other.sites_with;
        self.events += other.events;
        self.blocked_events += other.blocked_events;
        self.sites_fully_protected += other.sites_fully_protected;
    }

    /// The pilot statistic over `sites` analyzable sites.
    pub(crate) fn stats(&self, sites: usize) -> DomPilotStats {
        let denom = sites.max(1) as f64;
        DomPilotStats {
            sites_with_cross_dom_pct: 100.0 * self.sites_with as f64 / denom,
            events: self.events,
            blocked_events: self.blocked_events,
            sites_fully_protected_pct: 100.0 * self.sites_fully_protected as f64 / denom,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_instrument::Recorder;

    #[test]
    fn counts_cross_domain_mutations() {
        let mut a = Recorder::new("a.com", 1);
        a.record_dom(Some("ads.net"), "a.com", "Content", false);
        a.record_dom(Some("a.com"), "a.com", "Style", false); // same-domain: ignored
        let mut b = Recorder::new("b.com", 2);
        b.record_dom(None, "b.com", "Content", false); // unattributed: ignored
        let stats = dom_pilot_stats([a.finish(), b.finish()]);
        assert!((stats.sites_with_cross_dom_pct - 50.0).abs() < 1e-9);
        assert_eq!(stats.events, 1);
        assert_eq!(stats.blocked_events, 0);
    }

    #[test]
    fn blocked_mutations_count_toward_protection() {
        let mut a = Recorder::new("a.com", 1);
        a.record_dom(Some("ads.net"), "a.com", "Content", true); // guard blocked it
        let mut b = Recorder::new("b.com", 2);
        b.record_dom(Some("ads.net"), "b.com", "Content", true);
        b.record_dom(Some("other.io"), "b.com", "Remove", false); // one slipped through
        let stats = dom_pilot_stats([a.finish(), b.finish()]);
        // Only b.com still has an applied cross-domain mutation.
        assert!((stats.sites_with_cross_dom_pct - 50.0).abs() < 1e-9);
        assert_eq!(stats.events, 1);
        assert_eq!(stats.blocked_events, 2);
        assert!((stats.sites_fully_protected_pct - 50.0).abs() < 1e-9);
    }
}
