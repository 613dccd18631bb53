//! The §8 pilot: cross-domain DOM manipulation prevalence.

use crate::dataset::Dataset;
use serde::{Deserialize, Serialize};

/// DOM-pilot result.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
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

/// Computes the pilot statistic: a mutation is cross-domain when the
/// acting script's eTLD+1 is known and differs from the element owner's.
/// Blocked events (DOM-guard crawls) are tallied separately — they never
/// reached the document.
pub fn dom_pilot_stats(ds: &Dataset) -> DomPilotStats {
    let mut sites_with = 0usize;
    let mut events = 0usize;
    let mut blocked_events = 0usize;
    let mut sites_fully_protected = 0usize;
    for log in &ds.logs {
        let (mut applied, mut blocked) = (0usize, 0usize);
        for e in log.dom_events.iter().filter(|e| e.is_cross_domain(log)) {
            if e.blocked {
                blocked += 1;
            } else {
                applied += 1;
            }
        }
        if applied > 0 {
            sites_with += 1;
        }
        if blocked > 0 && applied == 0 {
            sites_fully_protected += 1;
        }
        events += applied;
        blocked_events += blocked;
    }
    let denom = ds.site_count().max(1) as f64;
    DomPilotStats {
        sites_with_cross_dom_pct: 100.0 * sites_with as f64 / denom,
        events,
        blocked_events,
        sites_fully_protected_pct: 100.0 * sites_fully_protected as f64 / denom,
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
        let ds = Dataset::from_logs(vec![a.finish(), b.finish()]);
        let stats = dom_pilot_stats(&ds);
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
        let ds = Dataset::from_logs(vec![a.finish(), b.finish()]);
        let stats = dom_pilot_stats(&ds);
        // Only b.com still has an applied cross-domain mutation.
        assert!((stats.sites_with_cross_dom_pct - 50.0).abs() < 1e-9);
        assert_eq!(stats.events, 1);
        assert_eq!(stats.blocked_events, 2);
        assert!((stats.sites_fully_protected_pct - 50.0).abs() < 1e-9);
    }
}
