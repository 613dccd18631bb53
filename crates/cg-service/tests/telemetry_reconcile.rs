//! The Workload telemetry counters and the replay report count the same
//! visits once: after a replay, the `service.*` snapshot totals must
//! equal the report's `counters`, and `per_tenant` must sum to them.
//!
//! A test binary of its own with a single test, because it resets the
//! process-global registry: no sibling test may record into it between
//! the reset and the snapshot.

use cg_browser::VisitConfig;
use cg_crawlstore::crawl_to_store;
use cg_service::{replay, GuardService, ReplayOptions, ReplaySource};
use cookieguard_core::GuardConfig;

const SITES: usize = 120;

fn workload_counter(snapshot: &serde_json::Value, key: &str) -> u64 {
    snapshot["workload"][key]
        .as_u64()
        .unwrap_or_else(|| panic!("snapshot lacks workload counter {key}"))
}

#[test]
fn service_telemetry_equals_the_replay_tally() {
    let dir = std::env::temp_dir().join(format!("cg-service-reconcile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let gen = cg_webgen::WebGenerator::new(cg_webgen::GenConfig::small(SITES), 0x5E11CE);
    crawl_to_store(&dir, &gen, &VisitConfig::regular(), 1, SITES, 4, |_| {})
        .expect("build replay store");

    let reg = cg_telemetry::global();
    for source in [ReplaySource::Resident, ReplaySource::Stream] {
        let mut svc = GuardService::new();
        svc.register("strict", GuardConfig::strict());
        svc.register(
            "entity-grouped",
            GuardConfig::strict().with_entity_grouping(cg_entity::builtin_entity_map()),
        );
        reg.reset();
        let report = replay(
            &svc,
            &dir,
            &ReplayOptions {
                workers: 3,
                passes: 2,
                source,
                ..ReplayOptions::default()
            },
        )
        .expect("replay");
        let snapshot = reg.snapshot();

        let c = report.counters;
        assert_eq!(c.visits, (SITES * 2) as u64, "{source:?}");
        assert_eq!(
            workload_counter(&snapshot, "service.visits"),
            c.visits,
            "{source:?}"
        );
        assert_eq!(
            workload_counter(&snapshot, "service.sessions_opened"),
            c.sessions_opened,
            "{source:?}"
        );
        assert_eq!(
            workload_counter(&snapshot, "service.decisions"),
            c.decisions,
            "{source:?}"
        );

        assert_eq!(report.per_tenant.len(), 2);
        let sum = |f: fn(&cg_instrument::TenantCounters) -> u64| -> u64 {
            report.per_tenant.iter().map(f).sum()
        };
        assert_eq!(sum(|t| t.visits), c.visits, "{source:?}");
        assert_eq!(sum(|t| t.sessions), c.sessions_opened, "{source:?}");
        assert_eq!(sum(|t| t.decisions), c.decisions, "{source:?}");
        for tenant in &report.per_tenant {
            assert_eq!(tenant.sessions, tenant.visits, "{}", tenant.name);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
