//! `serve` end to end on a small store. It resets and snapshots the
//! process-global telemetry registry, so it lives in a test binary of
//! its own: no sibling test can bump a counter between the reset and the
//! snapshot.

use cg_experiments::{run_serve, ServeOptions, TELEMETRY_BUDGET_PCT};

#[test]
fn serve_smoke_small_store() {
    let opts = ServeOptions {
        sites: 150,
        passes: 2,
        worker_counts: vec![1, 3],
        ..ServeOptions::default()
    };
    let report = run_serve(&opts);
    assert_eq!(report.runs.len(), 2);
    assert_eq!(report.tenants.len(), 2);
    assert!(report.counters_identical_across_worker_counts);
    assert_eq!(report.runs[0].counters.visits, 300);
    assert_eq!(report.stream_run.source, "stream");
    assert!(report.telemetry_snapshots_identical);
    assert_eq!(report.telemetry_overhead.budget_pct, TELEMETRY_BUDGET_PCT);
    assert!(report.telemetry_overhead.on_decisions_per_sec > 0.0);
    // The per-tenant breakdown is part of the deterministic surface.
    let per_tenant = &report.runs[0].per_tenant;
    assert_eq!(per_tenant.len(), 2);
    assert_eq!(
        per_tenant.iter().map(|t| t.visits).sum::<u64>(),
        report.runs[0].counters.visits
    );
    assert_eq!(
        per_tenant.iter().map(|t| t.decisions).sum::<u64>(),
        report.runs[0].counters.decisions
    );
    // Required metric set for the bench contract.
    let json = serde_json::to_value(&report).unwrap();
    for key in [
        "sites",
        "tenants",
        "runs",
        "stream_run",
        "telemetry_overhead",
        "peak_rss_bytes",
    ] {
        assert!(json.get(key).is_some(), "missing report key {key}");
    }
}
