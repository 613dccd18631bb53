//! The `detect` subcommand: score the first-party tracking-cookie
//! detector against generator ground truth on a fresh crawl.
//!
//! One CNAME-resolving measurement crawl is written through a binary
//! crawl store, then classified two ways — the resident full pipeline
//! and the streaming parallel fold — and the run asserts the
//! pipeline's contracts in-process:
//!
//! * the streaming report is byte-identical to the resident report at
//!   every probed thread count and read backend;
//! * instance-weighted precision and recall clear the paper-grade
//!   floors (0.95 / 0.90) against `cg_webgen::CookieLabels` ground
//!   truth.
//!
//! Violations exit non-zero, so CI can run this as a smoke test and
//! grep the anchor lines. `--bench-json` writes the scores and the
//! identity-check count and the host it ran on, and no timings: the
//! detect fold's cost is measured by `perfbench/`.

use cg_browser::VisitConfig;
use cg_crawlstore::{crawl_to_store, CrawlReader, ReadBackend};
use cg_detect::{DetectConfig, DetectEngine, DetectReport, DetectStats, Stages};
use cg_instrument::VisitLog;
use cg_webgen::{CookieLabels, GenConfig, WebGenerator};
use serde::Serialize;
use std::path::PathBuf;

/// Instance-weighted score floors the run enforces (the repo's
/// acceptance bar for the detector on a ≥10k-visit crawl).
pub const PRECISION_FLOOR: f64 = 0.95;
/// See [`PRECISION_FLOOR`].
pub const RECALL_FLOOR: f64 = 0.90;

/// Options for `cg-experiments detect`.
#[derive(Debug, Clone)]
pub struct DetectOptions {
    /// Sites to generate and crawl (`--sites N`).
    pub sites: usize,
    /// Master seed (`--seed S`).
    pub seed: u64,
    /// Fold workers for the streaming identity checks (`--threads T`).
    pub threads: usize,
    /// Store directory (`--store DIR`); a scratch directory under the
    /// system temp dir when unset (removed on success).
    pub store: Option<PathBuf>,
    /// Write the bench report here (`--bench-json PATH`).
    pub bench_json: Option<PathBuf>,
    /// Write the full detection report here (`--report-json PATH`).
    pub report_json: Option<PathBuf>,
}

impl Default for DetectOptions {
    fn default() -> DetectOptions {
        DetectOptions {
            sites: 10_000,
            seed: 0xC00C1E,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            store: None,
            bench_json: None,
            report_json: None,
        }
    }
}

/// The machine a bench report was produced on.
#[derive(Debug, Clone, Serialize)]
pub struct Host {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// CPU model (`model name` in `/proc/cpuinfo`; `unknown` where
    /// there is none).
    pub cpu: String,
    /// Kernel release (`unknown` off Linux).
    pub kernel: String,
}

impl Host {
    /// Reads the running machine's description.
    pub fn current() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            kernel,
        }
    }
}

/// Machine-readable output of a `detect` run (`--bench-json`).
#[derive(Debug, Clone, Serialize)]
pub struct DetectBenchReport {
    /// The machine the run was made on.
    pub host: Host,
    /// Sites crawled.
    pub sites: usize,
    /// Complete visits scored.
    pub complete: u64,
    /// Scored (cookie, owner) keys.
    pub keys_scored: usize,
    /// Keys the detector flagged.
    pub keys_flagged: usize,
    /// Key-level confusion scores.
    pub key_scores: cg_detect::Scores,
    /// Instance-weighted confusion scores (the floor metric).
    pub instance_scores: cg_detect::Scores,
    /// Streaming fold workers.
    pub threads: usize,
    /// Thread-count × backend combinations whose serialized reports
    /// were byte-compared against the resident report (all must match
    /// for the run to succeed).
    pub identity_checks: usize,
}

/// Runs the detection smoke: crawl, classify, assert the contracts.
/// Panics (non-zero exit) on any violated invariant or missed floor.
pub fn run_detect(opts: &DetectOptions) -> DetectBenchReport {
    let gen = WebGenerator::new(GenConfig::small(opts.sites), opts.seed);
    // CNAME-resolving crawl: setter identity is a detection feature, so
    // the measurement pipeline runs with the §8 uncloaking defense on.
    let visit_cfg = VisitConfig {
        resolve_cnames: true,
        ..VisitConfig::regular()
    };
    let scratch;
    let dir = match &opts.store {
        Some(dir) => dir.clone(),
        None => {
            scratch = std::env::temp_dir().join(format!("cg-detect-exp-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&scratch);
            scratch.clone()
        }
    };
    eprintln!(
        "[detect] crawling {} sites into {}",
        opts.sites,
        dir.display()
    );
    let run = crawl_to_store(&dir, &gen, &visit_cfg, 1, opts.sites, opts.threads, |_| {})
        .unwrap_or_else(|e| panic!("crawl store {}: {e}", dir.display()));
    eprintln!(
        "[detect] store: {} records, {} bytes",
        run.stats.records, run.stats.bytes
    );

    let engine = DetectEngine::compile(
        &CookieLabels::derive(gen.registry()),
        cg_entity::builtin_entity_map(),
        DetectConfig::default(),
    );

    // Resident copy, in rank order.
    let logs: Vec<VisitLog> = CrawlReader::open(&dir)
        .and_then(|reader| reader.collect())
        .unwrap_or_else(|e| panic!("store drain: {e}"));
    let resident = DetectStats::from_logs(&engine, Stages::Full, logs.iter());
    drop(logs);
    let report = DetectReport::from_stats(&resident);
    let resident_json = report.to_json();

    // Streaming ≡ resident, at every probed thread count and backend.
    let mut identity_checks = 0;
    for backend in [ReadBackend::Mmap, ReadBackend::Pread] {
        for threads in [1, opts.threads.max(2)] {
            let stats = DetectStats::from_store_with(&engine, Stages::Full, &dir, threads, backend)
                .unwrap_or_else(|e| panic!("streaming fold: {e}"));
            let streamed = DetectReport::from_stats(&stats).to_json();
            assert_eq!(
                streamed, resident_json,
                "streaming {backend:?} x{threads} diverged from the resident report"
            );
            identity_checks += 1;
        }
    }
    println!(
        "detect reports byte-identical across thread counts and backends: ok \
         ({identity_checks} combinations)"
    );

    println!("{}", report.render());

    let p = report.instance_scores.precision;
    let r = report.instance_scores.recall;
    assert!(
        p >= PRECISION_FLOOR,
        "instance precision {p:.4} below the {PRECISION_FLOOR} floor"
    );
    println!("detect precision floor: ok ({p:.4} >= {PRECISION_FLOOR})");
    assert!(
        r >= RECALL_FLOOR,
        "instance recall {r:.4} below the {RECALL_FLOOR} floor"
    );
    println!("detect recall floor: ok ({r:.4} >= {RECALL_FLOOR})");

    if let Some(path) = &opts.report_json {
        std::fs::write(path, &resident_json)
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("detection report written to {}", path.display());
    }
    if opts.store.is_none() {
        let _ = std::fs::remove_dir_all(&dir);
    }

    DetectBenchReport {
        host: Host::current(),
        sites: opts.sites,
        complete: report.complete,
        keys_scored: report.keys.len(),
        keys_flagged: report.keys.iter().filter(|k| k.flagged).count(),
        key_scores: report.key_scores,
        instance_scores: report.instance_scores,
        threads: opts.threads.max(2),
        identity_checks,
    }
}
