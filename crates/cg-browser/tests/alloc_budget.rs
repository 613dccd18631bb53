//! Allocation budgets of a visit and of one mediated `document.cookie`
//! read, counted by this binary's thread-local counting allocator.
//!
//! Allocation counts are a pure function of the seed and the code on
//! one thread, so they can be gated where a timing cannot. The budgets
//! below are checked in: a change that allocates more per visit fails
//! here, and one that allocates less on purpose lowers them in the same
//! change. Every count is taken on a second pass over the same work,
//! after process-wide memo tables (domain interning, the suffix list)
//! are warm, so tests running in parallel in this binary cannot shift
//! it.

use cg_browser::{visit_site, VisitConfig};
use cg_cookiejar::CookieJar;
use cg_instrument::Recorder;
use cg_url::Url;
use cg_webgen::{GenConfig, WebGenerator};
use cookieguard_core::{AccessContext, Caller, GuardConfig, GuardEngine, GuardedJar, SetRequest};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// The visits the budgets cover: ranks `1..=RANKS` of
/// `GenConfig::small(2000)` at seed 7, each with the crawler's visit
/// seed.
const RANKS: usize = 60;

/// Allocations per guarded strict visit (mean over [`RANKS`]). Measured
/// 1,087 (1,651 while the page hashed each script's URL to find its
/// identity, copied each script's program per page and per injection,
/// and built a change notice per written cookie with no listener to
/// hear it; 1,662 while the guard's metadata store kept a `Box<str>` per
/// cookie name in a `HashMap`; 1,835 while the recorder kept every logged string as a
/// `String` of its own; 1,870 while the document recomputed its site
/// domain for every element; 10,182 when the cookie-access path still
/// cloned every visible cookie on each read and write). The headroom is
/// under half the ~33 reads a visit makes, so one more allocation per
/// read fails.
const GUARDED_VISIT_BUDGET: u64 = 1_100;

/// Allocations per unguarded (measurement) visit, mean over [`RANKS`].
/// Measured 1,662 (2,264 before script identities were filed by script
/// id and programs borrowed; 2,452 before the recorder's string table; 2,487
/// before the document kept its site domain; 13,096 before the borrowed
/// path). Same headroom rule.
const REGULAR_VISIT_BUDGET: u64 = 1_675;

/// Mean allocations per visit of `cfg` over [`RANKS`], counted on the
/// second of two identical passes.
fn allocs_per_visit(cfg: &VisitConfig) -> u64 {
    let gen = WebGenerator::new(GenConfig::small(2000), 7);
    let blueprints: Vec<_> = (1..=RANKS).map(|rank| gen.blueprint(rank)).collect();
    let pass = || {
        for (rank, site) in (1..=RANKS).zip(&blueprints) {
            visit_site(site, cfg, gen.site_seed(rank) ^ 0x51_7e);
        }
    };
    pass();
    let ((), allocs) = counted(pass);
    allocs / RANKS as u64
}

#[test]
fn guarded_strict_visit_stays_within_its_allocation_budget() {
    let per_visit = allocs_per_visit(&VisitConfig::guarded(GuardConfig::strict()));
    println!("guarded strict visit: {per_visit} allocations");
    assert!(
        per_visit <= GUARDED_VISIT_BUDGET,
        "guarded visit allocates {per_visit} times, budget {GUARDED_VISIT_BUDGET}"
    );
}

#[test]
fn unguarded_visit_stays_within_its_allocation_budget() {
    let per_visit = allocs_per_visit(&VisitConfig::regular());
    println!("unguarded visit: {per_visit} allocations");
    assert!(
        per_visit <= REGULAR_VISIT_BUDGET,
        "unguarded visit allocates {per_visit} times, budget {REGULAR_VISIT_BUDGET}"
    );
}

/// Allocations of one guarded `document.cookie` read by a vendor that
/// owns 2 of the `jar_size` cookies on the page (the second such read,
/// so the recorder already holds both names in its table).
fn read_of_two_among(jar_size: usize) -> (String, u64) {
    let url = Url::parse("https://www.budget-site.example/").unwrap();
    let mut jar = CookieJar::new();
    let mut guard = GuardEngine::shared(GuardConfig::strict()).session("budget-site.example");
    let mut rec = Recorder::new("budget-site.example", 1);
    let mut access = GuardedJar::new(url, &mut jar, Some(&mut guard), &mut rec);
    let ctx = |domain: &str, now_ms: i64| AccessContext {
        caller: Caller::external(domain),
        actor: Some(cg_url::intern(domain)),
        actor_url: None,
        now_ms,
        time_ms: 0,
    };
    for i in 0..jar_size {
        let owner = if i % 15 == 7 && i < 30 {
            "reader.example".to_string()
        } else {
            format!("vendor{}.example", i % 12)
        };
        let raw = format!("cookie_{i}=v{i}");
        let out = access.set(
            &ctx(&owner, i as i64),
            SetRequest::DocumentCookie { raw: &raw },
        );
        assert!(out.applied);
    }
    let reader = ctx("reader.example", 1_000);
    access.document_cookie(&reader);
    counted(|| access.document_cookie(&reader))
}

#[test]
fn withheld_cookies_cost_a_read_nothing() {
    let (small, small_allocs) = read_of_two_among(30);
    let (large, large_allocs) = read_of_two_among(180);
    assert_eq!(small, "cookie_7=v7; cookie_22=v22");
    assert_eq!(large, small);
    // The view and the string: the read event's names and actor are
    // symbols of strings the recorder already holds.
    assert_eq!(small_allocs, 2, "a 2-cookie read among 30");
    assert_eq!(
        large_allocs, small_allocs,
        "the 150 more withheld cookies must cost nothing"
    );
}
