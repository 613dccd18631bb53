//! Guard-service microbenchmarks: the serving-layer costs `cg-service`
//! adds on top of the engine's 77 ns decision — the cached session-open
//! fast path, the slot read after a swap, the hot-swap itself (compile
//! vs install), and the per-op replay path.

use cg_service::{EngineCache, EpochSlot, GuardService};
use cookieguard_core::{Caller, GuardConfig};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_session_open(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_session_open");
    let mut svc = GuardService::new();
    let tenant = svc.register("bench", GuardConfig::strict());

    group.bench_function("cached_fast_path", |b| {
        // Steady state: epoch unchanged, so each open is one atomic
        // load + one Arc clone + session init.
        let mut cache = EngineCache::new(svc.slot(tenant));
        b.iter(|| black_box(svc.open_session_cached(tenant, &mut cache, "site.com")));
    });

    group.bench_function("uncached_slot_read", |b| {
        // Every open goes through the RwLock read path.
        b.iter(|| black_box(svc.open_session(tenant, "site.com")));
    });
    group.finish();
}

fn bench_hot_swap(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_hot_swap");
    group.bench_function("swap_strict", |b| {
        let slot = EpochSlot::new(GuardConfig::strict());
        b.iter(|| black_box(slot.swap(GuardConfig::strict())));
        // Nothing pinned the retired engines: all freed.
        assert!(slot.undrained().is_empty());
    });
    group.bench_function("swap_entity_grouped", |b| {
        // The expensive compile: a full entity map lowered to interned
        // ids, still entirely outside the install lock.
        let slot = EpochSlot::new(GuardConfig::strict());
        b.iter(|| {
            black_box(
                slot.swap(
                    GuardConfig::strict().with_entity_grouping(cg_entity::builtin_entity_map()),
                ),
            )
        });
    });
    group.finish();
}

fn bench_decision_under_service(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_decision");
    let mut svc = GuardService::new();
    let tenant = svc.register("bench", GuardConfig::strict());
    let mut cache = EngineCache::new(svc.slot(tenant));

    group.bench_function("open_write_read_close", |b| {
        // The whole per-visit service path for a two-op visit.
        let writer = Caller::external("vendor3.com");
        b.iter(|| {
            let mut session = svc.open_session_cached(tenant, &mut cache, "site.com");
            session.authorize_write(&writer, "c");
            black_box(session.filter_names(&writer, &["c"]));
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_session_open,
    bench_hot_swap,
    bench_decision_under_service
);
criterion_main!(benches);
