//! The flight recorder: fixed-size per-thread ring buffers of recent
//! span events, dumped on error or on demand.
//!
//! Every thread that closes a span lazily registers one [`Ring`] of
//! [`RING_CAPACITY`] slots in a process-wide list. The ring outlives
//! the thread, so a worker that exited before a crash still contributes
//! its tail; the rings of the newest [`RETIRED_RINGS`] exited threads
//! are kept, older ones dropped, so a process that keeps spawning
//! short-lived workers (a fold per analysis) holds a bounded recorder.
//! Recording is one push under the ring's own mutex — uncontended in
//! steady state because only the owning thread writes, while dumps
//! briefly lock each ring to copy it.
//!
//! A dump merges every ring and sorts by the global close sequence, so
//! the result is the interleaved "last N events per thread" picture a
//! post-mortem needs: what each worker was doing, under which parent
//! span, for how long. [`dump_json`] renders it as a JSON array;
//! [`dump_to_stderr`] is the error-path hook the service and crawl
//! seams call before propagating a failure.

use serde::Serialize;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Events retained per thread. 1024 spans ≈ the last few seconds of
/// coarse-grained work per worker, in ~64 KiB.
pub const RING_CAPACITY: usize = 1024;

/// How many exited threads keep their rings for dumps (the newest).
pub const RETIRED_RINGS: usize = 32;

/// One recorded span close.
#[derive(Debug, Clone, Serialize)]
pub struct Event {
    /// Global close-order sequence number (dump sort key).
    pub seq: u64,
    /// Span id (process-unique, never 0).
    pub id: u64,
    /// Parent span id; 0 when the span was a root on its thread.
    pub parent: u64,
    /// Span name (`"visit"`, `"segment_append"`, …).
    pub name: &'static str,
    /// The span's one numeric attribute (rank, segment, tenant — 0 when
    /// unused).
    pub attr: u64,
    /// Open time, nanoseconds since the process telemetry epoch.
    pub start_ns: u64,
    /// Close minus open, nanoseconds.
    pub duration_ns: u64,
}

/// A fixed-capacity overwrite-oldest buffer of [`Event`]s.
pub struct Ring {
    slots: Vec<Event>,
    /// Next slot to overwrite once full.
    head: usize,
    capacity: usize,
}

impl Ring {
    /// An empty ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> Ring {
        Ring {
            slots: Vec::with_capacity(capacity.min(1024)),
            head: 0,
            capacity: capacity.max(1),
        }
    }

    /// Appends `event`, overwriting the oldest once full.
    pub fn push(&mut self, event: Event) {
        if self.slots.len() < self.capacity {
            self.slots.push(event);
        } else {
            self.slots[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.slots.len());
        if self.slots.len() < self.capacity {
            out.extend(self.slots.iter().cloned());
        } else {
            out.extend(self.slots[self.head..].iter().cloned());
            out.extend(self.slots[..self.head].iter().cloned());
        }
        out
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

type SharedRing = Arc<Mutex<Ring>>;

/// Every registered ring: those of running threads, then those of the
/// newest exited ones, oldest first.
#[derive(Default)]
struct Rings {
    live: Vec<SharedRing>,
    retired: VecDeque<SharedRing>,
}

impl Rings {
    fn iter(&self) -> impl Iterator<Item = &SharedRing> {
        self.live.iter().chain(&self.retired)
    }
}

fn rings() -> &'static Mutex<Rings> {
    static RINGS: OnceLock<Mutex<Rings>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Rings::default()))
}

/// A thread's ring; the thread's exit moves it to the retired list.
struct ThreadRing(SharedRing);

impl Drop for ThreadRing {
    fn drop(&mut self) {
        let Ok(mut rings) = rings().lock() else {
            return;
        };
        rings.live.retain(|r| !Arc::ptr_eq(r, &self.0));
        rings.retired.push_back(Arc::clone(&self.0));
        if rings.retired.len() > RETIRED_RINGS {
            rings.retired.pop_front();
        }
    }
}

thread_local! {
    /// This thread's ring, registered in the global list at first use.
    static THREAD_RING: ThreadRing = {
        let ring = Arc::new(Mutex::new(Ring::new(RING_CAPACITY)));
        rings()
            .lock()
            .expect("flight recorder list poisoned")
            .live
            .push(Arc::clone(&ring));
        ThreadRing(ring)
    };
}

/// Global close-order sequence (the merge sort key across rings).
static NEXT_SEQ: AtomicU64 = AtomicU64::new(1);

/// Records one event into the calling thread's ring, stamping its
/// global sequence number. Called by [`Span`](crate::Span) on drop.
pub fn record(mut event: Event) {
    event.seq = NEXT_SEQ.fetch_add(1, Ordering::Relaxed);
    THREAD_RING.with(|ring| {
        ring.0
            .lock()
            .expect("flight recorder ring poisoned")
            .push(event);
    });
}

/// Merges every thread's retained events, sorted by close sequence
/// (oldest first).
pub fn dump() -> Vec<Event> {
    let list = rings().lock().expect("flight recorder list poisoned");
    let mut all: Vec<Event> = Vec::new();
    for ring in list.iter() {
        all.extend(ring.lock().expect("flight recorder ring poisoned").events());
    }
    drop(list);
    all.sort_by_key(|e| e.seq);
    all
}

/// Discards every retained event (rings stay registered). A harness
/// API, mirroring [`Registry::reset`](crate::Registry::reset).
pub fn clear() {
    let list = rings().lock().expect("flight recorder list poisoned");
    for ring in list.iter() {
        let mut ring = ring.lock().expect("flight recorder ring poisoned");
        *ring = Ring::new(RING_CAPACITY);
    }
}

/// The merged dump as a JSON array (one object per event, oldest
/// first). Timings inside are non-deterministic by construction; the
/// dump is a post-mortem artifact, never a compared surface.
pub fn dump_json() -> String {
    serde_json::to_string(&dump()).expect("serialize flight recorder dump")
}

/// Error-path hook: prints the last `limit` merged events to stderr
/// with a context header. The service and crawl seams call this before
/// propagating a failure so the operator sees what every worker was
/// doing when things went wrong.
pub fn dump_to_stderr(context: &str, limit: usize) {
    let all = dump();
    let tail = &all[all.len().saturating_sub(limit)..];
    eprintln!(
        "[telemetry] flight recorder ({context}): last {} of {} events",
        tail.len(),
        all.len()
    );
    for e in tail {
        eprintln!(
            "[telemetry]   #{:<8} {:<16} attr={:<8} parent={:<8} {:>10} ns",
            e.seq, e.name, e.attr, e.parent, e.duration_ns
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64) -> Event {
        Event {
            seq,
            id: seq,
            parent: 0,
            name: "t",
            attr: seq,
            start_ns: 0,
            duration_ns: 1,
        }
    }

    #[test]
    fn ring_keeps_newest_when_wrapping() {
        let mut ring = Ring::new(4);
        for i in 1..=10 {
            ring.push(ev(i));
        }
        let kept: Vec<u64> = ring.events().iter().map(|e| e.seq).collect();
        assert_eq!(kept, vec![7, 8, 9, 10]);
        assert_eq!(ring.len(), 4);
    }

    #[test]
    fn ring_below_capacity_keeps_everything_in_order() {
        let mut ring = Ring::new(8);
        for i in 1..=3 {
            ring.push(ev(i));
        }
        let kept: Vec<u64> = ring.events().iter().map(|e| e.seq).collect();
        assert_eq!(kept, vec![1, 2, 3]);
    }

    #[test]
    fn span_close_lands_in_dump_with_parent_link() {
        // Other tests in this binary may be recording concurrently;
        // filter on names unique to this test.
        let (outer_id, inner_id) = {
            let outer = crate::span!("rec_test_outer", 7);
            let outer_id = outer.id();
            let inner = crate::span!("rec_test_inner", 8);
            (outer_id, inner.id())
        };
        let all = dump();
        let inner = all
            .iter()
            .find(|e| e.name == "rec_test_inner")
            .expect("inner span recorded");
        assert_eq!(inner.parent, outer_id);
        assert_eq!(inner.id, inner_id);
        assert_eq!(inner.attr, 8);
        let outer = all
            .iter()
            .find(|e| e.name == "rec_test_outer")
            .expect("outer span recorded");
        assert_eq!(outer.attr, 7);
        // Inner closed first, so its sequence is lower.
        assert!(inner.seq < outer.seq);
    }

    #[test]
    fn exited_threads_leave_a_bounded_number_of_rings() {
        for i in 0..2 * RETIRED_RINGS as u64 {
            std::thread::spawn(move || drop(crate::span!("rec_test_worker", 1000 + i)))
                .join()
                .unwrap();
        }
        let retired = rings().lock().unwrap().retired.len();
        assert!(retired <= RETIRED_RINGS, "{retired} retired rings kept");
        // The newest exited worker's tail is still in the dump; the
        // oldest ones' rings are gone.
        let attrs: Vec<u64> = dump()
            .iter()
            .filter(|e| e.name == "rec_test_worker")
            .map(|e| e.attr)
            .collect();
        assert!(attrs.contains(&(1000 + 2 * RETIRED_RINGS as u64 - 1)));
        assert!(!attrs.contains(&1000));
    }
}
