//! The benchmark's own spans, recorded around calls into each layer.
//!
//! Tracing is off until [`set`] turns it on: a span then costs one
//! relaxed atomic load. When on, each span records its name, start,
//! end, parent and thread into a per-thread buffer; [`flush`] moves a
//! thread's buffer into the shared list, and [`take`] hands the whole
//! run's spans back once the run is over. Nothing is written while the
//! run measures.
//!
//! A span's parent is the innermost open span on the same thread. Work
//! that a scope hands to other threads names its parent explicitly with
//! [`span_under`], using the id [`current`] returned on the spawning
//! thread.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static DONE: Mutex<Vec<Record>> = Mutex::new(Vec::new());
static COUNTS: Mutex<BTreeMap<&'static str, f64>> = Mutex::new(BTreeMap::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

struct Local {
    thread: u64,
    stack: Vec<u64>,
    buf: Vec<Record>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        stack: Vec::new(),
        buf: Vec::new(),
    });
}

/// One finished span. Times are nanoseconds since the trace epoch.
#[derive(Debug, Clone)]
pub struct Record {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub thread: u64,
}

impl Record {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Turns span recording on or off. Spans already open finish as they
/// started; switch only between units of work.
pub fn set(on: bool) {
    epoch();
    ON.store(on, Ordering::Relaxed);
}

pub fn on() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Open span guard; the span ends when it is dropped.
pub struct Span {
    open: Option<(u64, u64, &'static str, u64)>,
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

fn open(name: &'static str, parent: Option<u64>) -> Span {
    if !on() {
        return Span { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let parent = parent.unwrap_or_else(|| l.stack.last().copied().unwrap_or(0));
        l.stack.push(id);
        parent
    });
    Span {
        open: Some((id, parent, name, now_ns())),
    }
}

/// Opens a span under the innermost open span of this thread.
pub fn span(name: &'static str) -> Span {
    open(name, None)
}

/// Opens a span under `parent`, an id taken on another thread.
pub fn span_under(name: &'static str, parent: u64) -> Span {
    open(name, Some(parent))
}

/// The innermost open span of this thread (0 when none or tracing is off).
pub fn current() -> u64 {
    if !on() {
        return 0;
    }
    LOCAL.with(|l| l.borrow().stack.last().copied().unwrap_or(0))
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((id, parent, name, start)) = self.open.take() {
            let end = now_ns();
            LOCAL.with(|l| {
                let mut l = l.borrow_mut();
                l.stack.pop();
                let thread = l.thread;
                l.buf.push(Record {
                    id,
                    parent,
                    name,
                    start,
                    end,
                    thread,
                });
            });
        }
    }
}

/// Moves this thread's finished spans into the shared list. Call at the
/// end of every unit of work that ran on a borrowed thread.
pub fn flush() {
    let buf = LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().buf));
    if !buf.is_empty() {
        DONE.lock().expect("span list poisoned").extend(buf);
    }
}

/// Adds `v` to the run's counter `name` (only while tracing is on), for
/// the counts that spans cannot carry: bytes, operations, partials.
pub fn count(name: &'static str, v: f64) {
    if on() {
        *COUNTS
            .lock()
            .expect("counter map poisoned")
            .entry(name)
            .or_insert(0.0) += v;
    }
}

/// The run's counters.
pub fn counts() -> BTreeMap<&'static str, f64> {
    COUNTS.lock().expect("counter map poisoned").clone()
}

/// Spans flushed so far.
pub fn recorded() -> usize {
    DONE.lock().expect("span list poisoned").len()
}

/// Every span flushed so far, sorted by start time.
pub fn take() -> Vec<Record> {
    flush();
    let mut all = std::mem::take(&mut *DONE.lock().expect("span list poisoned"));
    all.sort_by_key(|r| (r.start, r.id));
    all
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (children on other threads may overlap each other, so
/// the covered part is the union of their intervals). Indexed like
/// `spans`.
pub fn self_times(spans: &[Record]) -> Vec<u64> {
    use std::collections::HashMap;
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, r)| (r.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for r in spans {
        if let Some(&p) = index.get(&r.parent) {
            children[p].push((r.start, r.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(r, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, r.start);
            for &(s, e) in kids.iter() {
                let (s, e) = (s.max(reach), e.min(r.end));
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            r.dur().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, start: u64, end: u64) -> Record {
        Record {
            id,
            parent,
            name: "x",
            start,
            end,
            thread: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            rec(1, 0, 0, 100),
            rec(2, 1, 10, 40),
            rec(3, 1, 30, 60), // overlaps 2 (another thread)
            rec(4, 2, 15, 20),
        ];
        assert_eq!(self_times(&spans), vec![50, 25, 30, 5]);
    }
}
