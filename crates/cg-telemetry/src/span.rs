//! Structured spans: RAII guards with monotonic-clock timings and
//! parent links, recorded into the per-thread flight-recorder rings.
//!
//! A span is opened with the [`span!`](crate::span!) macro (or
//! [`Span::enter`]) and closed by drop. On close it appends one
//! [`Event`] — name, one `u64` attribute,
//! start offset, duration, parent span id — to the calling thread's
//! ring buffer. Spans cover *coarse* units (a visit, a segment append
//! batch, a fold shard, a session, an engine swap), never per-decision
//! work: one uncontended mutex push per close is cheap at that
//! granularity and keeps the decision hot path atomic-free.
//!
//! Parent links come from a per-thread stack (a single `Cell`): the
//! span open while another opens becomes its parent, giving the flight
//! recorder a tree per thread without any allocation on open.
//!
//! Timings are offsets from a process-wide monotonic epoch
//! ([`now_ns`]), so events from different threads order consistently
//! and no wall-clock ever enters the telemetry stream.

use crate::metrics::global;
use crate::recorder::{self, Event};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the process's telemetry epoch (the first call).
/// Monotonic; never wall-clock.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Span ids: process-unique, never 0 (0 means "no parent").
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The innermost open span on this thread (0 when none).
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// An open span. Closing (dropping) it records one event into the
/// flight recorder; see the module docs for granularity guidance.
#[must_use = "a span records on drop; binding it to _ closes it immediately"]
pub struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    attr: u64,
    start_ns: u64,
    /// False when telemetry was disabled at open: drop is then a no-op,
    /// so a disable mid-span loses that span rather than recording a
    /// half-timed event.
    active: bool,
}

impl Span {
    /// Opens a span named `name` carrying one numeric attribute
    /// (a rank, a tenant id, a segment number — 0 when nothing fits).
    pub fn enter(name: &'static str, attr: u64) -> Span {
        if !global().enabled() {
            return Span {
                id: 0,
                parent: 0,
                name,
                attr,
                start_ns: 0,
                active: false,
            };
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT.with(|c| c.replace(id));
        Span {
            id,
            parent,
            name,
            attr,
            start_ns: now_ns(),
            active: true,
        }
    }

    /// This span's id (0 for an inactive span).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        CURRENT.with(|c| c.set(self.parent));
        let end = now_ns();
        recorder::record(Event {
            seq: 0, // assigned by the recorder
            id: self.id,
            parent: self.parent,
            name: self.name,
            attr: self.attr,
            start_ns: self.start_ns,
            duration_ns: end.saturating_sub(self.start_ns),
        });
    }
}

/// Opens a [`Span`]: `span!("visit")` or `span!("visit", rank)`. The
/// attribute is any expression convertible to `u64` with `as`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Span::enter($name, 0)
    };
    ($name:expr, $attr:expr) => {
        $crate::Span::enter($name, $attr as u64)
    };
}

/// A monotonic stopwatch plus the one shared way to render elapsed
/// time, consolidating the `elapsed().as_millis().max(1)` pattern that
/// used to be duplicated across the experiment subcommands.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Elapsed whole milliseconds, floored at 1 so rates derived from
    /// it never divide by zero.
    pub fn elapsed_ms(&self) -> u64 {
        (self.started.elapsed().as_millis() as u64).max(1)
    }

    /// `n` items over the elapsed time, per second.
    pub fn per_sec(&self, n: u64) -> f64 {
        per_sec(n, self.elapsed_ms())
    }
}

/// `n` items over `elapsed_ms` milliseconds, per second — the one rate
/// helper behind every "visits/s" figure the benches print. A zero
/// elapsed time is floored at 1 ms, so a sub-millisecond run yields a
/// lower bound instead of a division by zero.
pub fn per_sec(n: u64, elapsed_ms: u64) -> f64 {
    n as f64 * 1000.0 / elapsed_ms.max(1) as f64
}

/// Renders an elapsed-milliseconds figure the one canonical way
/// (`"1234 ms"`), so progress lines across subcommands stay uniform.
pub fn render_ms(ms: u64) -> String {
    format!("{ms} ms")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn stopwatch_floors_at_one_ms() {
        let w = Stopwatch::start();
        assert!(w.elapsed_ms() >= 1);
        assert!(w.per_sec(1000) > 0.0);
    }

    #[test]
    fn render_ms_is_stable() {
        assert_eq!(render_ms(42), "42 ms");
    }
}
