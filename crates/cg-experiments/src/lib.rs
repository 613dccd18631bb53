//! The experiment harness: one entry point per table and figure of the
//! paper, each printing the measured result next to the published value.
//!
//! Run `cg-experiments --exp all` for the full reproduction, or pick one
//! of: `sec5_1`, `sec5_2`, `table1`, `table2`, `fig2`, `sec5_5`,
//! `table5`, `fig8`, `sec5_6`, `sec8_dom`, `fig5`, `table3`, `table4`,
//! `fig6`, `fig7`, `fig9`, `fig10`, `sec5_7`, `domguard`, plus the
//! explicit-only `ablation`, `rollout`, `baselines` (the defense
//! matrix: blocklist ± evasion, partitioning, CookieGraph-lite,
//! CookieGuard), `csp` (the §2.1 CSP gap), and `stream` (the
//! bounded-memory fold over a `--store`). Scale with `--sites N`
//! (default 20,000) and `--threads T`. Four subcommands ride
//! alongside: `scenarios` (the adversarial catalog), `serve` (the
//! multi-tenant guard-service smoke behind `BENCH_service.json`),
//! `detect` (the tracking-cookie detector scored against generator
//! ground truth, behind `BENCH_detect.json`), and `export` (a crawl
//! store as JSON lines). The repository's benchmark is `perfbench/`:
//! the subcommands report correctness, and the throughput `serve`
//! still records exists only for its telemetry-overhead gate.
//!
//! **Layer:** orchestration (the CLI over every other crate).
//! **Invariant:** experiment output is deterministic for a given
//! (seed, sites) at any thread count — and [`determinism`] is the one
//! module that knows which report fields (timing, throughput) are
//! exempt. **Entry points:** the `cg-experiments` binary,
//! `CrawlContext`, `run_scenarios`, `run_serve`, and the per-table
//! `run_*` functions.

pub mod ablation;
pub mod baselines;
pub mod context;
pub mod detect;
pub mod determinism;
pub mod evaluation;
pub mod expectations;
pub mod export;
pub mod extensions;
pub mod measurement;
pub mod render;
pub mod scenarios;
pub mod service;
pub mod stream;

pub use ablation::run_ablation;
pub use baselines::{run_baselines, run_csp_gap_exp};
pub use context::{CrawlContext, ExperimentOptions};
pub use detect::{run_detect, DetectBenchReport, DetectOptions};
pub use determinism::{
    deterministic_surface, is_nondeterministic_key, mask_keys, mask_nondeterministic,
};
pub use evaluation::{run_fig5, run_table3, run_table4_and_figs};
pub use export::export_jsonl;
pub use extensions::{run_domguard, run_rollout, run_sec5_7};
pub use measurement::run_measurement_experiments;
pub use scenarios::{run_scenarios, ScenarioOptions};
pub use service::{
    print_serve, run_serve, BenchServiceReport, ServeOptions, TelemetryOverhead,
    TELEMETRY_BUDGET_PCT,
};
pub use stream::run_stream;
