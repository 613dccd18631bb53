//! **Runtime telemetry** — the observability layer threaded through
//! crawl, analysis, and serving: a lock-free metrics registry,
//! structured spans, and a per-thread flight recorder.
//!
//! The paper's §4.1 instrumentation gives epistemic visibility into
//! *cookie events*; this crate gives operational visibility into the
//! *system* moving them — how many bytes the crawl store fsynced, how
//! long a policy swap took to install, how many sessions a tenant has
//! live — without ever touching a deterministic surface.
//!
//! Three pieces:
//!
//! * **Metrics** ([`Registry`], [`Counter`], [`Gauge`], [`Histogram`]):
//!   named values registered once and incremented from any thread.
//!   Counters stripe across cache-padded atomic cells; everything is
//!   `Relaxed`; a global kill switch ([`Registry::set_enabled`]) turns
//!   every increment into one relaxed load. Snapshots split metrics by
//!   declared [`Class`] into a `workload` section (byte-identical
//!   across worker counts) and a `runtime` section carrying a
//!   `deterministic: false` marker, which the determinism harness
//!   masks.
//! * **Spans** ([`Span`], [`span!`]): RAII guards timing coarse work
//!   units (a visit, a segment batch, a fold shard, a session, an
//!   engine swap) on the monotonic clock, with parent links from a
//!   per-thread stack.
//! * **Flight recorder** ([`recorder`]): each thread keeps its last
//!   [`recorder::RING_CAPACITY`] span events in a ring; on error or on
//!   demand the rings merge into one sequenced post-mortem dump
//!   ([`recorder::dump_json`], [`recorder::dump_to_stderr`]).
//!
//! **Layer:** infrastructure — below every instrumented crate
//! (`cg-crawlstore`, `cg-browser`, `cg-analysis`, `cg-service`),
//! depending only on the serde facade. **Invariants:** telemetry never
//! appears on any wire or deterministic surface (store bytes,
//! `VisitLog`s, counter reports are unchanged whether telemetry is on
//! or off); the `workload` snapshot section is byte-identical across
//! worker counts for the same job; the decision hot path stays
//! atomic-free (per-worker state, merged after join);
//! disabled telemetry costs one relaxed load per site. **Entry
//! points:** [`global()`], [`span!`], [`Registry::snapshot`],
//! [`recorder::dump_json`], [`Stopwatch`].

#![warn(missing_docs)]

pub mod export;
pub mod hist;
pub mod metrics;
pub mod recorder;
pub mod span;

pub use export::{prometheus_text, snapshot_json};
pub use hist::{LatencyHistogram, LatencySummary};
pub use metrics::{global, Class, Counter, Gauge, Histogram, Registry};
pub use span::{now_ns, per_sec, render_ms, Span, Stopwatch};
