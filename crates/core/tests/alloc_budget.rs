//! Allocation budgets of the guard's serve path — a session's open, its
//! writes and its `filter_names` reads — counted by
//! [`cg_telemetry::alloc::Counting`], this binary's global allocator.
//!
//! Allocation counts are a pure function of the code on one thread, so
//! they can be gated where a timing cannot. The budgets below are
//! checked in: a change that allocates more fails here, and one that
//! allocates less on purpose lowers them in the same change. Every
//! count is taken on a second pass over the same work, after the
//! process-wide domain interner is warm, so tests running in parallel
//! in this binary cannot shift it.

use cg_entity::EntityMap;
use cg_telemetry::alloc::{counted, Counting};
use cookieguard_core::{Caller, GuardConfig, GuardEngine, GuardSession};
use std::sync::Arc;

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations of a whole session: open, 30 names written by three
/// vendors, 30 reads of all 30 names, close. Measured 45: the 30 read
/// results, plus the metadata store's string table and record vector
/// growing to 30 names. 129 while the store kept a `Box<str>` per name
/// in a `HashMap` and each read's result grew from a capacity of 4.
const SESSION_BUDGET: u64 = 45;

/// Allocations of `engine.session(site)` once the site is interned, on
/// a strict engine with no entity map. Measured 0: the session shares
/// the engine and its metadata store grows on the first write. The
/// entity map compiles into the shared engine, never into the per-visit
/// session, so an engine with a large map opens a session at exactly
/// this count.
const SESSION_OPEN_ALLOCS: u64 = 0;

const SITE: &str = "budget-site.example";

fn engine() -> Arc<GuardEngine> {
    GuardEngine::shared(GuardConfig::strict().with_whitelisted("partner.example"))
}

fn vendor(i: usize) -> Caller {
    Caller::external(["a.example", "b.example", "c.example"][i % 3])
}

/// Every kind of read a caller can make: decided by the caller alone
/// (site owner, whitelisted, strict inline) or per cookie (a vendor).
fn readers() -> [Caller; 4] {
    [
        Caller::external(SITE),
        Caller::external("partner.example"),
        Caller::inline(),
        vendor(1),
    ]
}

#[test]
fn each_filter_names_call_allocates_once() {
    let names: Vec<String> = (0..30).map(|i| format!("c{i}")).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut session: GuardSession = engine().session(SITE);
    for (i, name) in refs.iter().enumerate() {
        assert!(session.authorize_write(&vendor(i), name).is_allow());
    }
    session.grandfather("legacy");
    let mut with_legacy = refs.clone();
    with_legacy.push("legacy");
    let readers = readers();
    for caller in &readers {
        for names in [&refs[..1], &refs[..7], &refs[..], &with_legacy[..]] {
            let (visible, allocs) = counted(|| session.filter_names(caller, names));
            assert_eq!(allocs, 1, "{caller:?} reading {} names", names.len());
            assert!(visible.len() <= names.len());
        }
    }
}

#[test]
fn a_session_stays_within_its_allocation_budget() {
    let engine = engine();
    let names: Vec<String> = (0..30).map(|i| format!("c{i}")).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let callers: Vec<Caller> = (0..30).map(vendor).collect();
    let session = || {
        let mut session = engine.session(SITE);
        for (name, caller) in refs.iter().zip(&callers) {
            session.authorize_write(caller, name);
        }
        let mut kept = 0;
        for caller in &callers {
            kept += session.filter_names(caller, &refs).len();
        }
        kept
    };
    let warm = session();
    let (kept, allocs) = counted(session);
    assert_eq!(kept, warm);
    assert_eq!(kept, 30 * 10, "each vendor sees the 10 names it wrote");
    println!("30-name session: {allocs} allocations");
    assert!(
        allocs <= SESSION_BUDGET,
        "a 30-name session allocates {allocs} times, budget {SESSION_BUDGET}"
    );
}

/// An entity map of `domains` domains spread over 97 organizations.
fn big_entity_map(domains: usize) -> EntityMap {
    let mut map = EntityMap::new();
    for i in 0..domains {
        map.insert(&format!("domain-{i}.example"), &format!("Org-{}", i % 97));
    }
    map
}

#[test]
fn session_open_does_not_grow_with_the_entity_map() {
    for domains in [0, 1_000, 20_000] {
        let config = match domains {
            0 => GuardConfig::strict(),
            n => GuardConfig::strict().with_entity_grouping(big_entity_map(n)),
        };
        let engine = GuardEngine::shared(config);
        let open = || engine.session(SITE);
        drop(open());
        let (session, allocs) = counted(open);
        drop(session);
        println!("session open, {domains}-domain entity map: {allocs} allocations");
        assert_eq!(
            allocs, SESSION_OPEN_ALLOCS,
            "opening a session on an engine with a {domains}-domain entity map"
        );
    }
}
