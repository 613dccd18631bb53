//! `cg-experiments serve`: the guard-as-a-service smoke behind
//! `BENCH_service.json`.
//!
//! Builds (or resumes) a binary crawl store, registers two tenants with
//! different policy presets, then replays the store through the
//! `cg-service` worker pool at each requested worker count with two
//! mid-run policy hot-swaps racing the traffic. Asserts the serving
//! invariants on every run — zero dropped decisions, every retired
//! engine freed — and that the deterministic report surface is
//! byte-identical across worker counts (see [`crate::determinism`]).
//! A final streaming-source run replays the same store through
//! mmap'd frame-index chunks to pin that both traffic sources execute
//! the same operation stream.
//!
//! Telemetry rides along: each worker-count run starts from a reset
//! `cg-telemetry` registry and its masked snapshot (workload section
//! only — the `runtime` section is nulled by [`crate::determinism`])
//! must be byte-identical across worker counts. A final interleaved
//! on/off comparison measures the telemetry overhead against a
//! documented ≤[`TELEMETRY_BUDGET_PCT`]% decisions/s budget. That gate
//! is the only reason the report carries throughput; the service's
//! per-layer costs are measured by `perfbench/`.

use crate::determinism::deterministic_surface;
use cg_analysis::stats::median;
use cg_browser::VisitConfig;
use cg_crawlstore::crawl_to_store;
use cg_service::{
    replay, GuardService, ReplayOptions, ReplayReport, ReplaySource, SwapPoint, TenantId,
};
use cg_webgen::{GenConfig, WebGenerator};
use cookieguard_core::GuardConfig;
use serde::Serialize;
use std::path::PathBuf;

/// Options for the `serve` subcommand.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Visits in the backing binary store.
    pub sites: usize,
    /// Master seed for the generated ecosystem.
    pub seed: u64,
    /// Full passes over the store per run.
    pub passes: u32,
    /// Worker counts to replay at (≥2 for the determinism check).
    pub worker_counts: Vec<usize>,
    /// Store directory (kept across runs — resumes); temp dir if unset.
    pub store: Option<PathBuf>,
    /// Where to write the machine-readable report, if anywhere.
    pub bench_json: Option<PathBuf>,
    /// Write the final telemetry snapshot here (JSON; a Prometheus text
    /// rendering lands alongside with a `.prom` extension), if set.
    pub telemetry_snapshot: Option<PathBuf>,
    /// Write the flight-recorder dump (JSON event list) here, if set.
    pub telemetry_dump: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            sites: 10_000,
            seed: 0xC00C1E,
            passes: 1,
            worker_counts: vec![2, 8],
            store: None,
            bench_json: None,
            telemetry_snapshot: None,
            telemetry_dump: None,
        }
    }
}

/// Documented ceiling on the telemetry tax: enabling the registry may
/// cost at most this share of the replay's decisions/s. CI greps the
/// bench output for the within-budget line.
pub const TELEMETRY_BUDGET_PCT: f64 = 3.0;

/// On/off pairs the telemetry-overhead gate takes the median over. Ten
/// runs of the gate on a 2-core VM read 0–1.2% with 16 pairs, against
/// 0–2.6% for the best of 3 runs per side.
pub const TELEMETRY_PAIRS: usize = 16;

/// The telemetry-on vs telemetry-off throughput comparison: the same
/// resident-source replay at the highest worker count, in
/// [`TELEMETRY_PAIRS`] interleaved on/off pairs whose order alternates
/// (interleaving cancels thermal and cache drift; alternating cancels
/// a bias of the first or second run of a pair).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct TelemetryOverhead {
    /// Median decisions/s with the registry recording (the default).
    pub on_decisions_per_sec: f64,
    /// Median decisions/s with the registry kill switch thrown.
    pub off_decisions_per_sec: f64,
    /// Throughput cost of telemetry, percent: the median over the pairs
    /// of each pair's cost, clamped at 0 (noise can make the
    /// instrumented run the faster one).
    pub overhead_pct: f64,
    /// The documented budget ([`TELEMETRY_BUDGET_PCT`]).
    pub budget_pct: f64,
    /// `overhead_pct <= budget_pct`.
    pub within_budget: bool,
}

/// One registered tenant, as serialized into the report.
#[derive(Debug, Clone, Serialize)]
pub struct TenantDesc {
    /// Registration name.
    pub name: String,
    /// Human description of the epoch-0 policy.
    pub policy: String,
    /// Human description of the policy hot-swapped in mid-run.
    pub swapped_to: String,
}

/// The machine-readable report (`BENCH_service.json`).
#[derive(Debug, Clone, Serialize)]
pub struct BenchServiceReport {
    /// Visits in the backing store.
    pub sites: u64,
    /// Passes per run.
    pub passes: u64,
    /// The tenant roster (≥2).
    pub tenants: Vec<TenantDesc>,
    /// One resident-source run per worker count, each with two mid-run
    /// hot-swaps.
    pub runs: Vec<ReplayReport>,
    /// A streaming-source (mmap chunks) run at the highest worker
    /// count — same operation stream, bounded memory.
    pub stream_run: ReplayReport,
    /// Pinned true by the cross-worker-count byte-equality assertion.
    pub counters_identical_across_worker_counts: bool,
    /// Pinned true by the masked-telemetry-snapshot byte-equality
    /// assertion across worker counts.
    pub telemetry_snapshots_identical: bool,
    /// The telemetry-on vs telemetry-off throughput comparison.
    pub telemetry_overhead: TelemetryOverhead,
}

/// The two-tenant roster every `serve` run uses: the paper's strict
/// evaluation policy, and the §7.2 entity-grouped refinement.
fn build_service() -> (GuardService, TenantId, TenantId) {
    let mut svc = GuardService::new();
    let strict = svc.register("strict", GuardConfig::strict());
    let grouped = svc.register(
        "entity-grouped",
        GuardConfig::strict().with_entity_grouping(cg_entity::builtin_entity_map()),
    );
    (svc, strict, grouped)
}

/// The two mid-run swaps: the strict tenant gains a whitelist entry
/// (an operator shipping a site fix), the grouped tenant gets a freshly
/// "retrained" relaxed policy — both recompiled and installed under
/// load.
fn swap_points(total_visits: u64, strict: TenantId, grouped: TenantId) -> Vec<SwapPoint> {
    vec![
        SwapPoint {
            after_visits: total_visits / 4,
            tenant: strict,
            config: GuardConfig::strict().with_whitelisted("cdn.swap-probe"),
        },
        SwapPoint {
            after_visits: total_visits / 2,
            tenant: grouped,
            config: GuardConfig::relaxed(),
        },
    ]
}

fn run_one(
    dir: &std::path::Path,
    opts: &ServeOptions,
    workers: usize,
    source: ReplaySource,
) -> ReplayReport {
    let (svc, strict, grouped) = build_service();
    let total = (opts.sites as u64) * opts.passes as u64;
    let report = replay(
        &svc,
        dir,
        &ReplayOptions {
            workers,
            passes: opts.passes,
            source,
            swaps: swap_points(total, strict, grouped),
        },
    )
    .unwrap_or_else(|e| panic!("serve replay ({workers} workers): {e}"));

    // The serving invariants, asserted on every run.
    assert_eq!(
        report.counters.visits, total,
        "visits lost at {workers} workers"
    );
    assert!(
        report.counters.drained(),
        "dropped decisions at {workers} workers: {:?}",
        report.counters
    );
    assert_eq!(
        report.undrained_epochs, 0,
        "retired engines not freed at {workers} workers"
    );
    assert_eq!(report.swaps.len(), 2, "a scheduled hot-swap never fired");
    for swap in &report.swaps {
        assert_eq!(swap.to_epoch, swap.from_epoch + 1, "epoch sequence gap");
    }
    report
}

/// Runs the service benchmark/smoke. Panics (non-zero exit) on any
/// violated invariant, including counter divergence across worker
/// counts.
pub fn run_serve(opts: &ServeOptions) -> BenchServiceReport {
    assert!(
        opts.worker_counts.len() >= 2,
        "need ≥2 worker counts for the determinism check"
    );
    let (base, ephemeral) = match &opts.store {
        Some(dir) => (dir.clone(), false),
        None => (
            std::env::temp_dir().join(format!("cg-serve-{}", std::process::id())),
            true,
        ),
    };

    eprintln!(
        "[serve] building/resuming {}-visit binary store…",
        opts.sites
    );
    let gen = WebGenerator::new(GenConfig::small(opts.sites), opts.seed);
    crawl_to_store(
        &base,
        &gen,
        &VisitConfig::regular(),
        1,
        opts.sites,
        8,
        |_| {},
    )
    .unwrap_or_else(|e| panic!("serve store build: {e}"));

    let reg = cg_telemetry::global();
    let mut runs = Vec::new();
    let mut masked_snapshots = Vec::new();
    for &workers in &opts.worker_counts {
        eprintln!(
            "[serve] replaying through 2 tenants at {workers} workers (2 hot-swaps mid-run)…"
        );
        // Each run starts from a zeroed registry so its snapshot is a
        // pure function of that run's work, not of run order.
        reg.reset();
        runs.push(run_one(&base, opts, workers, ReplaySource::Resident));
        masked_snapshots.push(deterministic_surface(&reg.snapshot(), &[]));
    }

    // Deterministic surface: everything except timing and the
    // epoch-sensitive blocks must be byte-identical across worker
    // counts. `workers` itself is the one intentional difference.
    let masked: Vec<String> = runs
        .iter()
        .map(|r| deterministic_surface(r, &["outcomes", "workers"]))
        .collect();
    for (i, m) in masked.iter().enumerate().skip(1) {
        assert_eq!(
            m, &masked[0],
            "deterministic surface diverged between {} and {} workers",
            opts.worker_counts[0], opts.worker_counts[i]
        );
    }
    // Belt and braces: the raw counter structs must match exactly too.
    for run in &runs[1..] {
        assert_eq!(run.counters, runs[0].counters, "counter totals diverged");
    }
    // Same contract for the telemetry registry: with the runtime
    // section masked, the snapshot is workload-only and must not see
    // the worker count.
    for (i, m) in masked_snapshots.iter().enumerate().skip(1) {
        assert_eq!(
            m, &masked_snapshots[0],
            "masked telemetry snapshot diverged between {} and {} workers",
            opts.worker_counts[0], opts.worker_counts[i]
        );
    }

    let max_workers = opts.worker_counts.iter().copied().max().unwrap_or(1);
    eprintln!("[serve] streaming-source run at {max_workers} workers (mmap chunks)…");
    let stream_run = run_one(&base, opts, max_workers, ReplaySource::Stream);
    assert_eq!(
        stream_run.counters, runs[0].counters,
        "streaming source executed a different op stream than resident"
    );

    eprintln!(
        "[serve] telemetry overhead: {TELEMETRY_PAIRS} interleaved on/off pairs at {max_workers} workers…"
    );
    let (mut on, mut off, mut costs) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..TELEMETRY_PAIRS {
        let rate = |enabled: bool| {
            reg.set_enabled(enabled);
            run_one(&base, opts, max_workers, ReplaySource::Resident)
                .timing
                .decisions_per_sec
        };
        let (on_rate, off_rate) = if pair % 2 == 0 {
            let on_rate = rate(true);
            (on_rate, rate(false))
        } else {
            let off_rate = rate(false);
            (rate(true), off_rate)
        };
        on.push(on_rate);
        off.push(off_rate);
        if off_rate > 0.0 {
            costs.push((off_rate - on_rate) / off_rate * 100.0);
        }
    }
    reg.set_enabled(true);
    let overhead_pct = median(&costs).max(0.0);
    let telemetry_overhead = TelemetryOverhead {
        on_decisions_per_sec: median(&on),
        off_decisions_per_sec: median(&off),
        overhead_pct,
        budget_pct: TELEMETRY_BUDGET_PCT,
        within_budget: overhead_pct <= TELEMETRY_BUDGET_PCT,
    };

    if let Some(path) = &opts.telemetry_snapshot {
        let prom = path.with_extension("prom");
        std::fs::write(path, cg_telemetry::snapshot_json(reg))
            .unwrap_or_else(|e| panic!("writing telemetry snapshot {}: {e}", path.display()));
        std::fs::write(&prom, cg_telemetry::prometheus_text(reg))
            .unwrap_or_else(|e| panic!("writing telemetry snapshot {}: {e}", prom.display()));
        eprintln!(
            "[serve] telemetry snapshot written to {} (+ {})",
            path.display(),
            prom.display()
        );
    }
    if let Some(path) = &opts.telemetry_dump {
        std::fs::write(path, cg_telemetry::recorder::dump_json())
            .unwrap_or_else(|e| panic!("writing flight-recorder dump {}: {e}", path.display()));
        eprintln!("[serve] flight-recorder dump written to {}", path.display());
    }

    if ephemeral {
        let _ = std::fs::remove_dir_all(&base);
    }

    BenchServiceReport {
        sites: opts.sites as u64,
        passes: opts.passes as u64,
        tenants: vec![
            TenantDesc {
                name: "strict".into(),
                policy: "strict inline, no grouping (paper §6.1 evaluation mode)".into(),
                swapped_to: "strict + whitelisted cdn.swap-probe".into(),
            },
            TenantDesc {
                name: "entity-grouped".into(),
                policy: "strict + builtin entity map (§7.2 refinement)".into(),
                swapped_to: "relaxed inline policy".into(),
            },
        ],
        runs,
        stream_run,
        counters_identical_across_worker_counts: true,
        telemetry_snapshots_identical: true,
        telemetry_overhead,
    }
}

/// Prints the human-readable side of the report, including the lines
/// the CI smoke greps for.
pub fn print_serve(r: &BenchServiceReport) {
    println!(
        "\n== guard service ({} visits × {} passes, {} tenants) ==",
        r.sites,
        r.passes,
        r.tenants.len()
    );
    for run in &r.runs {
        println!(
            "  {:>2} workers: {:>9.0} decisions/s  {:>8.0} visits/s  ({} swaps)",
            run.workers,
            run.timing.decisions_per_sec,
            run.timing.visits_per_sec,
            run.swaps.len()
        );
    }
    let s = &r.stream_run;
    println!(
        "  stream({}w): {:>9.0} decisions/s via mmap chunks",
        s.workers, s.timing.decisions_per_sec
    );
    for run in r.runs.iter().take(1) {
        for swap in &run.swaps {
            println!(
                "  swap {}→{}: compile {:.1} µs, install {:.1} µs",
                swap.from_epoch,
                swap.to_epoch,
                swap.compile_ns as f64 / 1e3,
                swap.install_ns as f64 / 1e3
            );
        }
        // Sessions opened before a swap finish on the old epoch's
        // engine, sessions opened after it on the new one.
        println!("  sessions by (tenant, epoch):");
        for e in &run.outcomes.sessions_by_epoch {
            let name = r
                .tenants
                .get(e.tenant as usize)
                .map_or("?", |t| t.name.as_str());
            println!(
                "  {:>16} epoch {}: {:>7} sessions",
                name, e.epoch, e.sessions
            );
        }
    }
    let o = &r.telemetry_overhead;
    println!(
        "  telemetry: on {:.0} decisions/s, off {:.0} decisions/s → {:.2}% overhead (budget {:.0}%)",
        o.on_decisions_per_sec, o.off_decisions_per_sec, o.overhead_pct, o.budget_pct
    );
    // CI grep anchors — keep the wording stable.
    println!("  counters byte-identical across worker counts: ok");
    println!("  telemetry snapshots byte-identical across worker counts (masked): ok");
    if o.within_budget {
        println!("  telemetry overhead within budget: ok");
    } else {
        println!(
            "  telemetry overhead EXCEEDS budget: {:.2}% > {:.0}%",
            o.overhead_pct, o.budget_pct
        );
    }
    println!("  zero dropped decisions: ok (all sessions drained, all epochs freed)");
}
