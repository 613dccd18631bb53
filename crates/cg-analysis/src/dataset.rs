//! Cookie pairs and the per-visit cookie-ownership replay every table
//! reads.

use cg_instrument::{AttrChangeFlags, CookieApi, SetEvent, Sym, VisitLog, WriteKind};
use serde::{Deserialize, Serialize};

/// A unique cookie pair, as the paper defines it (§5.2, footnote 2):
/// the tuple of cookie name and the eTLD+1 of the script that set it —
/// `(_ga, google-analytics.com)` is distinct from
/// `(_ga, googletagmanager.com)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PairKey {
    /// Cookie name.
    pub name: String,
    /// eTLD+1 of the creating script/server.
    pub owner: String,
}

/// One cookie pair as the ownership replay sees it, borrowed from the
/// log it was replayed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairRef<'l> {
    /// Cookie name.
    pub name: &'l str,
    /// eTLD+1 of the creating script/server.
    pub owner: &'l str,
    /// `name` and `owner` as symbols of the log's string table.
    pub syms: (Sym, Sym),
    /// The API of the pair's first write.
    pub api: CookieApi,
    /// Full URL of the script that first wrote the pair, when known.
    pub owner_url: Option<&'l str>,
}

impl PairRef<'_> {
    /// The pair's owned key, for analyses that outlive the log.
    pub fn key(&self) -> PairKey {
        PairKey {
            name: self.name.to_string(),
            owner: self.owner.to_string(),
        }
    }
}

/// A visit's ownership replay (the §4.4 step-1/step-2 rules), borrowed
/// from its log: [`replay`] builds it, and [`StreamStats`](crate::StreamStats)
/// and every [`Census`](crate::Census) table read it. Pairs are referred to by
/// their index in `pairs`.
#[derive(Debug, Clone, Default)]
pub struct OwnershipReplay<'l> {
    /// Every pair, in order of its first write.
    pub pairs: Vec<PairRef<'l>>,
    /// Every value written, with the index of the pair that holds it,
    /// in event order.
    pub values: Vec<(usize, &'l str)>,
    /// Cross-domain overwrites: (pair, acting domain, attr flags).
    pub cross_overwrites: Vec<(usize, &'l str, Option<AttrChangeFlags>)>,
    /// Cross-domain deletes: (pair, acting domain, via which API).
    pub cross_deletes: Vec<(usize, &'l str, CookieApi)>,
}

impl<'l> OwnershipReplay<'l> {
    /// Every value pair `pair` held, in event order.
    pub fn values_of(&self, pair: usize) -> impl Iterator<Item = &'l str> + Clone + '_ {
        self.values
            .iter()
            .filter(move |&&(p, _)| p == pair)
            .map(|&(_, value)| value)
    }
}

/// No pair.
const NONE: u32 = u32::MAX;

/// What the replay knows about one cookie name: the first pair
/// registered under it (the head of its chain in [`Pairs::next`]), the
/// pair most recently written under it, and whether that pair is live
/// (created and not deleted since).
#[derive(Clone, Copy)]
struct NameState {
    first: u32,
    last: u32,
    live: bool,
}

/// The replay's per-name state, and its pairs chained by name.
struct Pairs<'l> {
    log: &'l VisitLog,
    /// Per name symbol.
    names: Vec<NameState>,
    /// Per pair: the next pair of its name.
    next: Vec<u32>,
}

impl<'l> Pairs<'l> {
    /// The index of pair `(ev.name, actor)`, registered on first use
    /// with `ev`'s API and script URL.
    fn pair_of(&mut self, pairs: &mut Vec<PairRef<'l>>, ev: &SetEvent, actor: Sym) -> usize {
        let state = &mut self.names[ev.name as usize];
        let mut at = state.first;
        let mut tail = None;
        while at != NONE {
            if pairs[at as usize].syms.1 == actor {
                return at as usize;
            }
            tail = Some(at);
            at = self.next[at as usize];
        }
        let pair = pairs.len() as u32;
        match tail {
            Some(t) => self.next[t as usize] = pair,
            None => state.first = pair,
        }
        self.next.push(NONE);
        pairs.push(PairRef {
            name: self.log.str(ev.name),
            owner: self.log.str(actor),
            syms: (ev.name, actor),
            api: ev.api,
            owner_url: self.log.opt_str(ev.actor_url),
        });
        pair as usize
    }
}

/// Replays a visit log's unblocked writes into ownership and
/// manipulation events. Inline/unattributed writes count as the site's
/// own (the paper's attribution fallback).
///
/// * A create makes `(name, actor)` the name's live pair.
/// * An overwrite feeds the live pair, whoever writes (ownership is
///   sticky), and is cross-domain when the writer is not its owner.
///   With no live pair — a blind write the jar took as an overwrite of
///   a cookie the log never saw created — it feeds `(name, actor)`,
///   registering that pair if needed, without making it live.
/// * A delete ends the live pair. A delete of a name with no live pair
///   is attributed to the pair most recently written under that name.
///   Either is cross-domain when the deleter is not that pair's owner.
///
/// Names and owners are compared as symbols of the log's string table
/// (equal exactly when the strings are), and per-name state lives in a
/// vector indexed by the name's symbol.
pub fn replay(log: &VisitLog) -> OwnershipReplay<'_> {
    let writes = log.sets.len();
    let mut out = OwnershipReplay {
        pairs: Vec::with_capacity(writes),
        values: Vec::with_capacity(writes),
        ..OwnershipReplay::default()
    };
    if writes == 0 {
        return out;
    }
    let unseen = NameState {
        first: NONE,
        last: NONE,
        live: false,
    };
    let mut pairs = Pairs {
        log,
        names: vec![unseen; log.strings.len()],
        next: Vec::with_capacity(writes),
    };
    for ev in &log.sets {
        if ev.blocked {
            continue; // the operation never reached the jar
        }
        let actor = ev.actor.unwrap_or(log.site_domain);
        let actor_str = log.str(actor);
        let value = log.str(ev.value);
        match ev.kind {
            WriteKind::Create => {
                let pair = pairs.pair_of(&mut out.pairs, ev, actor);
                out.values.push((pair, value));
                let state = &mut pairs.names[ev.name as usize];
                (state.last, state.live) = (pair as u32, true);
            }
            WriteKind::Overwrite => {
                let state = pairs.names[ev.name as usize];
                let pair = if state.live {
                    state.last as usize
                } else {
                    let pair = pairs.pair_of(&mut out.pairs, ev, actor);
                    let state = &mut pairs.names[ev.name as usize];
                    (state.last, state.live) = (pair as u32, false);
                    pair
                };
                if out.pairs[pair].syms.1 != actor {
                    out.cross_overwrites.push((pair, actor_str, ev.changes));
                }
                out.values.push((pair, value));
            }
            WriteKind::Delete => {
                let state = &mut pairs.names[ev.name as usize];
                if state.last != NONE {
                    state.live = false;
                    let pair = state.last;
                    if out.pairs[pair as usize].syms.1 != actor {
                        out.cross_deletes.push((pair as usize, actor_str, ev.api));
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_instrument::{Recorder, VisitLog};

    fn set(r: &mut Recorder, name: &str, value: &str, actor: Option<&str>, kind: WriteKind) {
        r.record_set(
            name,
            value,
            actor,
            None,
            CookieApi::DocumentCookie,
            kind,
            None,
            false,
            0,
        );
    }

    fn log_with(events: impl FnOnce(&mut Recorder)) -> VisitLog {
        let mut r = Recorder::new("site.com", 1);
        events(&mut r);
        r.finish()
    }

    /// The index of pair `(name, owner)` in `replay`, if it was seen.
    fn pair(replay: &OwnershipReplay, name: &str, owner: &str) -> Option<usize> {
        replay
            .pairs
            .iter()
            .position(|p| p.name == name && p.owner == owner)
    }

    #[test]
    fn ownership_follows_first_creator() {
        let log = log_with(|r| {
            set(r, "_ga", "GA1.1.1.2", Some("gtm.com"), WriteKind::Create);
            set(
                r,
                "_ga",
                "GA1.1.9.9",
                Some("other.com"),
                WriteKind::Overwrite,
            );
        });
        let sc = replay(&log);
        let key = pair(&sc, "_ga", "gtm.com").expect("creator owns the pair");
        assert_eq!(sc.cross_overwrites.len(), 1);
        assert_eq!(sc.cross_overwrites[0].1, "other.com");
        // Values accumulate under the original pair.
        assert_eq!(sc.values_of(key).count(), 2);
    }

    #[test]
    fn same_domain_overwrite_not_cross() {
        let log = log_with(|r| {
            set(r, "c", "1", Some("a.com"), WriteKind::Create);
            set(r, "c", "2", Some("a.com"), WriteKind::Overwrite);
        });
        assert!(replay(&log).cross_overwrites.is_empty());
    }

    #[test]
    fn inline_actor_maps_to_site() {
        let log = log_with(|r| {
            set(r, "c", "1", None, WriteKind::Create);
            set(r, "c", "", Some("cm.com"), WriteKind::Delete);
        });
        let sc = replay(&log);
        assert!(pair(&sc, "c", "site.com").is_some());
        assert_eq!(sc.cross_deletes.len(), 1);
    }

    #[test]
    fn blocked_events_ignored() {
        let mut r = Recorder::new("site.com", 1);
        r.record_set(
            "x",
            "1",
            Some("a.com"),
            None,
            CookieApi::DocumentCookie,
            WriteKind::Create,
            None,
            true,
            0,
        );
        let log = r.finish();
        assert!(replay(&log).pairs.is_empty());
    }

    #[test]
    fn recreate_after_delete_makes_new_pair() {
        let log = log_with(|r| {
            set(r, "n", "1", Some("a.com"), WriteKind::Create);
            set(r, "n", "", Some("a.com"), WriteKind::Delete);
            set(r, "n", "2", Some("b.com"), WriteKind::Create);
        });
        let sc = replay(&log);
        assert!(pair(&sc, "n", "a.com").is_some());
        assert!(pair(&sc, "n", "b.com").is_some());
        assert!(sc.cross_deletes.is_empty());
    }

    #[test]
    fn a_delete_with_no_live_pair_goes_to_the_most_recent_pair() {
        // Two owners of `n`: b.com's pair is the one most recently live
        // when the second delete finds nothing live, so that delete is
        // b.com's own, not a cross-domain delete of a.com's cookie.
        let log = log_with(|r| {
            set(r, "n", "1", Some("a.com"), WriteKind::Create);
            set(r, "n", "", Some("a.com"), WriteKind::Delete);
            set(r, "n", "2", Some("b.com"), WriteKind::Create);
            set(r, "n", "", Some("b.com"), WriteKind::Delete);
            set(r, "n", "", Some("b.com"), WriteKind::Delete);
            set(r, "n", "", Some("c.com"), WriteKind::Delete);
        });
        let sc = replay(&log);
        assert_eq!(sc.pairs.len(), 2);
        let b = pair(&sc, "n", "b.com").unwrap();
        assert_eq!(sc.cross_deletes, [(b, "c.com", CookieApi::DocumentCookie)]);
        // A blind overwrite's pair counts as written under the name too.
        let log = log_with(|r| {
            set(r, "n", "1", Some("b.com"), WriteKind::Create);
            set(r, "n", "", Some("b.com"), WriteKind::Delete);
            set(r, "n", "2", Some("a.com"), WriteKind::Overwrite);
            set(r, "n", "", Some("b.com"), WriteKind::Delete);
        });
        let sc = replay(&log);
        let a = pair(&sc, "n", "a.com").unwrap();
        assert_eq!(sc.values_of(a).collect::<Vec<_>>(), ["2"]);
        assert_eq!(sc.cross_deletes, [(a, "b.com", CookieApi::DocumentCookie)]);
        assert!(sc.cross_overwrites.is_empty());
    }

    #[test]
    fn values_of_keeps_each_pairs_event_order() {
        let log = log_with(|r| {
            set(r, "c", "1", Some("a.com"), WriteKind::Create);
            set(r, "d", "3", None, WriteKind::Create);
            set(r, "c", "2", Some("x.com"), WriteKind::Overwrite);
        });
        let sc = replay(&log);
        let c = pair(&sc, "c", "a.com").unwrap();
        let d = pair(&sc, "d", "site.com").unwrap();
        assert_eq!(sc.values_of(c).collect::<Vec<_>>(), ["1", "2"]);
        assert_eq!(sc.values_of(d).collect::<Vec<_>>(), ["3"]);
    }
}
