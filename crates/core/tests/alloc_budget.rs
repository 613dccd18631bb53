//! Allocation budgets of the guard's serve path — a session's writes and
//! `filter_names` reads — counted by this binary's thread-local counting
//! allocator.
//!
//! Allocation counts are a pure function of the code on one thread, so
//! they can be gated where a timing cannot. The budgets below are
//! checked in: a change that allocates more fails here, and one that
//! allocates less on purpose lowers them in the same change. Every
//! count is taken on a second pass over the same work, after the
//! process-wide domain interner is warm, so tests running in parallel
//! in this binary cannot shift it.

use cookieguard_core::{Caller, GuardConfig, GuardEngine, GuardSession};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counts the current thread's allocations (`alloc` and `realloc`).
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping beside it
// touches only a thread-local `Cell` through `try_with`, which neither
// allocates nor panics, even while thread-locals are torn down.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f`, returning its result and the allocations it made.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Allocations of a whole session: open, 30 names written by three
/// vendors, 30 reads of all 30 names, close. Measured 45: the 30 read
/// results, plus the metadata store's string table and record vector
/// growing to 30 names. 129 while the store kept a `Box<str>` per name
/// in a `HashMap` and each read's result grew from a capacity of 4.
const SESSION_BUDGET: u64 = 45;

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
