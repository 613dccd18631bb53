//! End-to-end replayer tests against a real crawl store: the
//! deterministic-counters contract across worker counts and sources,
//! swap-under-load, the zero-dropped-decisions drain proof, and the
//! abort on a damaged store.

use cg_browser::VisitConfig;
use cg_crawlstore::{crawl_to_store, StoreError};
use cg_service::{replay, GuardService, ReplayOptions, ReplaySource, SwapPoint, TenantId};
use cookieguard_core::GuardConfig;
use std::path::PathBuf;

const SITES: usize = 120;

fn build_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cg-service-replay-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let gen = cg_webgen::WebGenerator::new(cg_webgen::GenConfig::small(SITES), 0x5E11CE);
    crawl_to_store(&dir, &gen, &VisitConfig::regular(), 1, SITES, 4, |_| {})
        .expect("build replay store");
    dir
}

fn two_tenant_service() -> (GuardService, TenantId, TenantId) {
    let mut svc = GuardService::new();
    let strict = svc.register("strict", GuardConfig::strict());
    let grouped = svc.register(
        "entity-grouped",
        GuardConfig::strict().with_entity_grouping(cg_entity::builtin_entity_map()),
    );
    (svc, strict, grouped)
}

#[test]
fn counters_are_identical_across_worker_counts_and_sources() {
    let dir = build_store("det");
    let mut baseline = None;
    for (workers, source) in [
        (1, ReplaySource::Resident),
        (4, ReplaySource::Resident),
        (1, ReplaySource::Stream),
        (3, ReplaySource::Stream),
    ] {
        let (svc, _, _) = two_tenant_service();
        let report = replay(
            &svc,
            &dir,
            &ReplayOptions {
                workers,
                passes: 2,
                source,
                ..ReplayOptions::default()
            },
        )
        .expect("replay");
        assert_eq!(report.counters.visits, (SITES * 2) as u64);
        assert!(
            report.counters.drained(),
            "dropped decisions at {workers} workers"
        );
        assert_eq!(report.undrained_epochs, 0);
        match &baseline {
            None => baseline = Some((report.counters, report.per_tenant)),
            Some((counters, per_tenant)) => {
                assert_eq!(
                    &report.counters, counters,
                    "counters diverged at {workers} workers ({source:?})"
                );
                assert_eq!(
                    &report.per_tenant, per_tenant,
                    "per-tenant counters diverged at {workers} workers ({source:?})"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn swaps_under_load_drop_nothing_and_leave_counters_deterministic() {
    let dir = build_store("swap");
    let (plain_svc, _, _) = two_tenant_service();
    let plain = replay(
        &plain_svc,
        &dir,
        &ReplayOptions {
            workers: 4,
            passes: 2,
            ..ReplayOptions::default()
        },
    )
    .expect("plain replay");

    let (svc, strict, grouped) = two_tenant_service();
    let swapped = replay(
        &svc,
        &dir,
        &ReplayOptions {
            workers: 4,
            passes: 2,
            swaps: vec![
                SwapPoint {
                    after_visits: 40,
                    tenant: strict,
                    config: GuardConfig::strict().with_whitelisted("cdn.probe"),
                },
                SwapPoint {
                    after_visits: 120,
                    tenant: grouped,
                    config: GuardConfig::relaxed(),
                },
            ],
            ..ReplayOptions::default()
        },
    )
    .expect("swapped replay");

    // Both mid-run swaps fired, gaplessly per tenant.
    assert_eq!(swapped.swaps.len(), 2);
    for swap in &swapped.swaps {
        assert_eq!(swap.to_epoch, swap.from_epoch + 1);
    }
    // Op totals are a pure function of the workload — swap timing and
    // the allow/block split may differ, the counters may not.
    assert_eq!(swapped.counters, plain.counters);
    assert!(swapped.counters.drained());
    // Zero dropped in-flight sessions, and every retired engine freed.
    assert_eq!(swapped.undrained_epochs, 0);
    // Sessions really did straddle epochs on the swapped tenants.
    let epochs: u64 = swapped
        .outcomes
        .sessions_by_epoch
        .iter()
        .map(|e| e.sessions)
        .sum();
    assert_eq!(epochs, swapped.counters.sessions_opened);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_damaged_segment_aborts_the_replay_with_a_store_error() {
    let dir = build_store("damage");
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "bin") {
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xff;
            std::fs::write(&path, &bytes).unwrap();
        }
    }
    for source in [ReplaySource::Resident, ReplaySource::Stream] {
        let (svc, _, _) = two_tenant_service();
        let result = replay(
            &svc,
            &dir,
            &ReplayOptions {
                workers: 3,
                passes: 2,
                source,
                ..ReplayOptions::default()
            },
        );
        assert!(
            matches!(result, Err(StoreError::Corrupt { .. })),
            "{source:?} replayed past a damaged segment"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
