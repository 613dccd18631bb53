//! The lock-free metrics registry: sharded counters, gauges, and
//! atomic histograms, merged on snapshot.
//!
//! # Handle model
//!
//! A subsystem registers each metric once (typically inside a
//! `OnceLock`-initialized handle struct, so every metric of the group
//! appears in the snapshot schema together — even the ones that never
//! fire) and then increments through the returned handle. Handles are
//! cheap `Arc` clones; the registry's interior `Mutex` is touched only
//! at registration and snapshot time, never on an increment.
//!
//! # Determinism classes
//!
//! Every counter and gauge declares a [`Class`]:
//!
//! * [`Class::Workload`] — a pure function of the work performed
//!   (visits crawled, records written, decisions made). Snapshots place
//!   these in a `workload` section that must be byte-identical across
//!   worker counts for the same job.
//! * [`Class::Runtime`] — anything scheduling-dependent (fsync batches,
//!   segments opened, live-session high-water marks, latencies).
//!   Snapshots place these under `runtime`, which carries a
//!   `deterministic: false` marker and is nulled by
//!   `cg_experiments::determinism` masking.
//!
//! Histograms record latencies, so they are always `Runtime`.
//!
//! # Concurrency
//!
//! Counters are striped across cache-line-padded `AtomicU64` cells
//! indexed by a per-thread slot, so concurrent workers rarely contend
//! on a line; `value()` sums the stripes. All atomics use `Relaxed`
//! ordering — metrics observe no cross-variable invariants, and
//! snapshot totals taken after worker joins are exact because the join
//! itself synchronizes.

use crate::hist::{bucket_of, LatencyHistogram, BUCKETS};
use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Stripes per counter. A power of two comfortably above typical worker
/// counts; 16 × 64 B = 1 KiB per counter.
const STRIPES: usize = 16;

/// One cache-line-padded counter cell, so two stripes never share a
/// line.
#[repr(align(64))]
#[derive(Default)]
struct Stripe(AtomicU64);

/// The per-thread stripe slot, assigned round-robin at first use.
fn stripe_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    SLOT.with(|s| *s)
}

/// Determinism class of a counter or gauge — decides which snapshot
/// section (and therefore which masking rule) the metric lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Pure function of the work performed; byte-identical across
    /// worker counts.
    Workload,
    /// Scheduling/timing dependent; masked by determinism checks.
    Runtime,
}

/// Shared per-registry state every handle needs on the hot path.
struct Shared {
    enabled: AtomicBool,
}

struct CounterInner {
    shared: Arc<Shared>,
    stripes: [Stripe; STRIPES],
}

/// A monotonically increasing `u64` metric, striped across threads.
#[derive(Clone)]
pub struct Counter(Arc<CounterInner>);

impl Counter {
    /// Adds `n`. A single `Relaxed` fetch-add on a thread-local stripe
    /// when telemetry is enabled; one relaxed load when disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.0.shared.enabled.load(Ordering::Relaxed) {
            self.0.stripes[stripe_index()]
                .0
                .fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The summed value across stripes.
    pub fn value(&self) -> u64 {
        self.0
            .stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    fn reset(&self) {
        for s in &self.0.stripes {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

struct GaugeInner {
    shared: Arc<Shared>,
    value: AtomicI64,
}

/// A point-in-time `i64` metric (live sessions, undrained engines).
#[derive(Clone)]
pub struct Gauge(Arc<GaugeInner>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        if self.0.shared.enabled.load(Ordering::Relaxed) {
            self.0.value.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        if self.0.shared.enabled.load(Ordering::Relaxed) {
            self.0.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Adds 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Subtracts 1.
    #[inline]
    pub fn decr(&self) {
        self.add(-1);
    }

    /// The current value.
    pub fn value(&self) -> i64 {
        self.0.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.value.store(0, Ordering::Relaxed);
    }
}

struct HistogramInner {
    shared: Arc<Shared>,
    buckets: Vec<AtomicU64>,
    total: AtomicU64,
    max_ns: AtomicU64,
}

/// A shared atomic histogram handle over the same log-scaled buckets as
/// [`LatencyHistogram`]. Use where per-worker plain histograms are
/// impractical (events recorded from arbitrary threads, e.g. swap
/// installs); hot per-worker paths should keep private
/// [`LatencyHistogram`]s and stay atomic-free.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// Records one nanosecond observation.
    #[inline]
    pub fn record(&self, ns: u64) {
        if self.0.shared.enabled.load(Ordering::Relaxed) {
            self.0.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
            self.0.total.fetch_add(1, Ordering::Relaxed);
            self.0.max_ns.fetch_max(ns, Ordering::Relaxed);
        }
    }

    /// A plain-histogram snapshot of the current bucket state.
    pub fn to_latency_histogram(&self) -> LatencyHistogram {
        let counts: Box<[u64]> = self
            .0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        LatencyHistogram::from_parts(
            counts,
            self.0.total.load(Ordering::Relaxed),
            self.0.max_ns.load(Ordering::Relaxed),
        )
    }

    fn reset(&self) {
        for b in &self.0.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.0.total.store(0, Ordering::Relaxed);
        self.0.max_ns.store(0, Ordering::Relaxed);
    }
}

/// One registered metric, as stored in the registry map.
enum Metric {
    Counter(Counter, Class),
    Gauge(Gauge, Class),
    Histogram(Histogram),
}

/// A metrics registry: a named set of counters/gauges/histograms with
/// one runtime kill switch. Most code uses the process-wide
/// [`global()`] registry; tests construct private instances.
pub struct Registry {
    shared: Arc<Shared>,
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    /// An empty, enabled registry.
    pub fn new() -> Registry {
        Registry {
            shared: Arc::new(Shared {
                enabled: AtomicBool::new(true),
            }),
            metrics: Mutex::new(BTreeMap::new()),
        }
    }

    /// Runtime kill switch: when disabled, every handle's increment is
    /// a single relaxed load and no state changes. Always-compiled,
    /// toggleable — the overhead bench measures exactly this delta.
    pub fn set_enabled(&self, enabled: bool) {
        self.shared.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether increments are currently recorded.
    pub fn enabled(&self) -> bool {
        self.shared.enabled.load(Ordering::Relaxed)
    }

    /// Registers (or retrieves) the counter `name`. Panics if `name` is
    /// already registered as a different kind or class — metric names
    /// are a global namespace and a mismatch is a programming error.
    pub fn counter(&self, name: &str, class: Class) -> Counter {
        assert_ne!(name, "deterministic", "reserved snapshot marker key");
        let mut map = self.metrics.lock().expect("metrics registry poisoned");
        match map.get(name) {
            Some(Metric::Counter(c, existing)) => {
                assert_eq!(
                    *existing, class,
                    "counter {name} re-registered as {class:?}"
                );
                c.clone()
            }
            Some(_) => panic!("metric {name} already registered as a different kind"),
            None => {
                let c = Counter(Arc::new(CounterInner {
                    shared: self.shared.clone(),
                    stripes: Default::default(),
                }));
                map.insert(name.to_string(), Metric::Counter(c.clone(), class));
                c
            }
        }
    }

    /// Registers (or retrieves) the gauge `name`.
    pub fn gauge(&self, name: &str, class: Class) -> Gauge {
        assert_ne!(name, "deterministic", "reserved snapshot marker key");
        let mut map = self.metrics.lock().expect("metrics registry poisoned");
        match map.get(name) {
            Some(Metric::Gauge(g, existing)) => {
                assert_eq!(*existing, class, "gauge {name} re-registered as {class:?}");
                g.clone()
            }
            Some(_) => panic!("metric {name} already registered as a different kind"),
            None => {
                let g = Gauge(Arc::new(GaugeInner {
                    shared: self.shared.clone(),
                    value: AtomicI64::new(0),
                }));
                map.insert(name.to_string(), Metric::Gauge(g.clone(), class));
                g
            }
        }
    }

    /// Registers (or retrieves) the histogram `name` (always
    /// [`Class::Runtime`] — histograms hold latencies).
    pub fn histogram(&self, name: &str) -> Histogram {
        assert_ne!(name, "deterministic", "reserved snapshot marker key");
        let mut map = self.metrics.lock().expect("metrics registry poisoned");
        match map.get(name) {
            Some(Metric::Histogram(h)) => h.clone(),
            Some(_) => panic!("metric {name} already registered as a different kind"),
            None => {
                let h = Histogram(Arc::new(HistogramInner {
                    shared: self.shared.clone(),
                    buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
                    total: AtomicU64::new(0),
                    max_ns: AtomicU64::new(0),
                }));
                map.insert(name.to_string(), Metric::Histogram(h.clone()));
                h
            }
        }
    }

    /// Zeroes every registered value, keeping registrations (and
    /// outstanding handles) intact. A harness API: the serve smoke and
    /// its tests reset between runs so per-run snapshots are comparable.
    pub fn reset(&self) {
        let map = self.metrics.lock().expect("metrics registry poisoned");
        for metric in map.values() {
            match metric {
                Metric::Counter(c, _) => c.reset(),
                Metric::Gauge(g, _) => g.reset(),
                Metric::Histogram(h) => h.reset(),
            }
        }
    }

    /// The snapshot document: `workload` (deterministic across worker
    /// counts) and `runtime` (marked `deterministic: false`; masked by
    /// the determinism surface). Keys within each section are sorted,
    /// so two snapshots of the same registry state are byte-identical.
    pub fn snapshot(&self) -> Value {
        let map = self.metrics.lock().expect("metrics registry poisoned");
        let mut workload = serde_json::Map::new();
        let mut runtime = serde_json::Map::new();
        runtime.insert("deterministic".to_string(), Value::Bool(false));
        for (name, metric) in map.iter() {
            let (section, value) = match metric {
                Metric::Counter(c, Class::Workload) => (&mut workload, num_u64(c.value())),
                Metric::Counter(c, Class::Runtime) => (&mut runtime, num_u64(c.value())),
                Metric::Gauge(g, Class::Workload) => (&mut workload, num_i64(g.value())),
                Metric::Gauge(g, Class::Runtime) => (&mut runtime, num_i64(g.value())),
                Metric::Histogram(h) => {
                    let s = h.to_latency_histogram().summary();
                    (
                        &mut runtime,
                        serde_json::to_value(s).expect("serialize latency summary"),
                    )
                }
            };
            section.insert(name.clone(), value);
        }
        let mut root = serde_json::Map::new();
        root.insert("workload".to_string(), Value::Object(workload));
        root.insert("runtime".to_string(), Value::Object(runtime));
        Value::Object(root)
    }

    /// Per-metric iteration for the Prometheus exporter.
    pub(crate) fn for_each(&self, mut f: impl FnMut(&str, MetricView<'_>)) {
        let map = self.metrics.lock().expect("metrics registry poisoned");
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c, class) => f(name, MetricView::Counter(c.value(), *class)),
                Metric::Gauge(g, class) => f(name, MetricView::Gauge(g.value(), *class)),
                Metric::Histogram(h) => f(name, MetricView::Histogram(h.to_latency_histogram())),
            }
        }
    }
}

/// A borrowed view of one metric's current value, for exporters.
pub(crate) enum MetricView<'a> {
    Counter(u64, Class),
    Gauge(i64, Class),
    Histogram(LatencyHistogram),
    #[allow(dead_code)]
    Phantom(&'a ()),
}

fn num_u64(v: u64) -> Value {
    serde_json::to_value(v).expect("serialize u64")
}

fn num_i64(v: i64) -> Value {
    serde_json::to_value(v).expect("serialize i64")
}

/// The process-wide registry almost all instrumentation records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        let reg = Registry::new();
        let c = reg.counter("t.ops", Class::Workload);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.value(), 4000);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = Registry::new();
        let c = reg.counter("t.ops", Class::Workload);
        let g = reg.gauge("t.live", Class::Runtime);
        let h = reg.histogram("t.lat");
        reg.set_enabled(false);
        c.add(5);
        g.set(9);
        h.record(123);
        assert_eq!(c.value(), 0);
        assert_eq!(g.value(), 0);
        assert_eq!(h.to_latency_histogram().count(), 0);
        reg.set_enabled(true);
        c.add(5);
        assert_eq!(c.value(), 5);
    }

    #[test]
    fn registration_is_idempotent_and_kind_checked() {
        let reg = Registry::new();
        let a = reg.counter("t.ops", Class::Workload);
        let b = reg.counter("t.ops", Class::Workload);
        a.add(2);
        b.add(3);
        assert_eq!(a.value(), 5);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reg.gauge("t.ops", Class::Runtime)
        }));
        assert!(err.is_err(), "kind mismatch must panic");
    }

    #[test]
    fn snapshot_sections_follow_class() {
        let reg = Registry::new();
        reg.counter("w.records", Class::Workload).add(7);
        reg.counter("r.fsyncs", Class::Runtime).add(3);
        reg.gauge("r.live", Class::Runtime).set(2);
        reg.histogram("r.lat").record(500);
        let snap = reg.snapshot();
        assert_eq!(snap["workload"]["w.records"].as_u64(), Some(7));
        assert_eq!(snap["runtime"]["deterministic"].as_bool(), Some(false));
        assert_eq!(snap["runtime"]["r.fsyncs"].as_u64(), Some(3));
        assert_eq!(snap["runtime"]["r.live"].as_i64(), Some(2));
        assert_eq!(snap["runtime"]["r.lat"]["count"].as_u64(), Some(1));
        assert!(snap["workload"].get("r.fsyncs").is_none());
    }

    #[test]
    fn reset_zeroes_but_keeps_registrations() {
        let reg = Registry::new();
        let c = reg.counter("t.ops", Class::Workload);
        let h = reg.histogram("t.lat");
        c.add(9);
        h.record(10);
        reg.reset();
        assert_eq!(c.value(), 0);
        assert_eq!(h.to_latency_histogram().count(), 0);
        // The key survives the reset (schema stability).
        assert!(reg.snapshot()["workload"].get("t.ops").is_some());
        c.add(1);
        assert_eq!(c.value(), 1);
    }

    #[test]
    fn histogram_handle_matches_plain_histogram() {
        let reg = Registry::new();
        let h = reg.histogram("t.lat");
        let mut plain = LatencyHistogram::new();
        for v in [3u64, 77, 500, 12_345, 1_000_000] {
            h.record(v);
            plain.record(v);
        }
        let snap = h.to_latency_histogram();
        assert_eq!(snap.count(), plain.count());
        for q in [0.5, 0.99, 0.999] {
            assert_eq!(snap.quantile(q), plain.quantile(q));
        }
    }
}
