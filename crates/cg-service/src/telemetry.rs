//! Serving-layer handles into the global [`cg_telemetry`] registry.
//!
//! Registered eagerly on first use so a telemetry snapshot taken before
//! any traffic still carries every `service.*` key (CI diffs the
//! flattened key schema). The replayer adds its merged totals to the
//! Workload-class counters once per run; per visit it touches only the
//! `sessions_live` gauges, and the per-decision path stays atomic-free.

use cg_telemetry::{global, Class, Counter, Gauge, Histogram};
use std::sync::OnceLock;

/// All serving-layer metric handles.
pub(crate) struct ServiceMetrics {
    /// Visits replayed (Workload — pure function of store × passes).
    pub visits: Counter,
    /// Guard sessions opened (Workload).
    pub sessions_opened: Counter,
    /// Policy decisions executed (Workload).
    pub decisions: Counter,
    /// Sessions currently open (Runtime — depends on interleaving).
    pub sessions_live: Gauge,
    /// Retired engines still pinned by live sessions (Runtime).
    pub engines_undrained: Gauge,
    /// Policy hot-swaps performed (Runtime — a swap can miss its
    /// threshold if the workload drains first).
    pub swaps: Counter,
    /// Nanoseconds compiling a replacement engine, per swap.
    pub swap_compile: Histogram,
    /// Nanoseconds holding the write lock to install it, per swap.
    pub swap_install: Histogram,
}

/// The process-wide serving metrics, registered once.
pub(crate) fn metrics() -> &'static ServiceMetrics {
    static METRICS: OnceLock<ServiceMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = global();
        ServiceMetrics {
            visits: reg.counter("service.visits", Class::Workload),
            sessions_opened: reg.counter("service.sessions_opened", Class::Workload),
            decisions: reg.counter("service.decisions", Class::Workload),
            sessions_live: reg.gauge("service.sessions_live", Class::Runtime),
            engines_undrained: reg.gauge("service.engines_undrained", Class::Runtime),
            swaps: reg.counter("service.swaps", Class::Runtime),
            swap_compile: reg.histogram("service.swap_compile_ns"),
            swap_install: reg.histogram("service.swap_install_ns"),
        }
    })
}
