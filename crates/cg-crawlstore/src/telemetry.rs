//! The store's metric handles, registered together on first use.
//!
//! One `OnceLock` struct per subsystem keeps the snapshot schema
//! stable: touching *any* store metric registers *all* of them, so a
//! run that never fsynced still exports `store.fsyncs = 0` instead of
//! omitting the key.
//!
//! Class assignments are the contract here. Totals that are pure
//! functions of the records moved (`records_written`, `bytes_written`,
//! `records_replayed`, `bytes_replayed`, `torn_tail_recoveries` — a
//! function of the on-disk state being recovered) are `Workload` and
//! must stay byte-identical across worker counts: every record's
//! encoded size is independent of which worker wrote it. Anything
//! shaped by scheduling — fsync batch boundaries, how many segment
//! files a crawl's worker count produced, fold shard claims, how many
//! partials a fold's steals created — is `Runtime` and gets masked by
//! determinism checks.

use cg_telemetry::{global, Class, Counter};
use std::sync::OnceLock;

/// The crawl store's registered metric handles.
pub(crate) struct StoreMetrics {
    /// Records appended (durable or pending).
    pub records_written: Counter,
    /// Encoded bytes appended (frame bytes incl. headers).
    pub bytes_written: Counter,
    /// Records decoded back out of chunks (reader merge, folds, replay).
    pub records_replayed: Counter,
    /// Encoded bytes streamed back out.
    pub bytes_replayed: Counter,
    /// Torn tails truncated away during recovery scans.
    pub torn_tail_recoveries: Counter,
    /// Bytes decoded through mmap'd chunk windows (0 when the mapped
    /// backend is unused or unavailable; a pure function of the chunk
    /// plan otherwise — worker-count independent).
    pub mmap_bytes: Counter,
    /// Chunk opens across reader merges, folds and replay passes — the
    /// plan's chunk count times the passes over it, independent of who
    /// claims which chunk.
    pub chunks_claimed: Counter,
    /// fsync + manifest checkpoints (batch boundaries — worker-count
    /// dependent).
    pub fsyncs: Counter,
    /// Fresh segment files opened for append.
    pub segments_opened: Counter,
    /// Chunks folded by [`fold_store`](crate::fold_store).
    pub fold_shards: Counter,
    /// Accumulators a fold created and merged: one per fold at one
    /// thread, `threads + steals` beyond (scheduling-dependent).
    pub fold_partials: Counter,
}

/// The store's handles in the global registry (registered on first
/// call).
pub(crate) fn metrics() -> &'static StoreMetrics {
    static METRICS: OnceLock<StoreMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = global();
        StoreMetrics {
            records_written: reg.counter("store.records_written", Class::Workload),
            bytes_written: reg.counter("store.bytes_written", Class::Workload),
            records_replayed: reg.counter("store.records_replayed", Class::Workload),
            bytes_replayed: reg.counter("store.bytes_replayed", Class::Workload),
            torn_tail_recoveries: reg.counter("store.torn_tail_recoveries", Class::Workload),
            mmap_bytes: reg.counter("store.mmap_bytes", Class::Workload),
            chunks_claimed: reg.counter("store.chunks_claimed", Class::Workload),
            fsyncs: reg.counter("store.fsyncs", Class::Runtime),
            segments_opened: reg.counter("store.segments_opened", Class::Runtime),
            fold_shards: reg.counter("store.fold_shards", Class::Runtime),
            fold_partials: reg.counter("store.fold_partials", Class::Runtime),
        }
    })
}
