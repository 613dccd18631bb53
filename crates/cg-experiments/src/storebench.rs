//! `--exp storebench`: the crawl-store throughput report behind
//! `BENCH_crawlstore.json`.
//!
//! One crawl written through the store, then replayed and folded under
//! timing: visits/s written, MB/s + visits/s replayed (the rank-ordered
//! `CrawlReader` merge and a 1-thread chunked mmap drain),
//! chunk-granular parallel-fold wall time at 1 and 8 threads through
//! the mmap and pread backends, the process peak RSS, and the host the
//! numbers were taken on. The fold benchmark runs
//! over a store of at least [`FOLD_SITES_FLOOR`] visits (its own crawl
//! when `--sites` is smaller, overridable with `--fold-sites`) —
//! speedups measured on stores that fold in single-digit milliseconds
//! are noise. The numbers vary run to run; the *keys* are a schema CI
//! diffs against `ci/bench_crawlstore_keys.txt`, so the report cannot
//! silently drop a metric.

use crate::context::ExperimentOptions;
use cg_analysis::{StreamStats, StreamSummary};
use cg_browser::VisitConfig;
use cg_crawlstore::{crawl_to_store, plan_chunks, CrawlReader, ReadBackend};
use cg_telemetry::{per_sec, render_ms, Stopwatch};
use cg_webgen::{GenConfig, WebGenerator};
use serde::Serialize;
use std::path::Path;

/// Minimum visits in the fold-benchmark store (see module docs).
pub const FOLD_SITES_FLOOR: usize = 10_000;

/// Peak resident set size of this process, from `/proc/self/status`
/// `VmHWM` (Linux only; `None` elsewhere). This is a *high-water mark*:
/// it proves bounded-memory claims only when the bounded phase is the
/// biggest thing the process ever did.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .strip_prefix("VmHWM:")?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// The machine a report was measured on.
#[derive(Debug, Clone, Serialize)]
pub struct Host {
    /// Logical CPUs available to the process.
    pub nproc: u64,
    /// CPU model name (`/proc/cpuinfo`; "unknown" elsewhere).
    pub cpu: String,
    /// Kernel release (`/proc/sys/kernel/osrelease`; "unknown" elsewhere).
    pub kernel: String,
}

impl Host {
    /// Describes the current machine.
    pub fn current() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|k| k.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            cpu,
            kernel,
        }
    }
}

/// Write-side measurements.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct WriteSide {
    /// Visits written this run.
    pub visits: u64,
    /// Wall-clock milliseconds of the crawl loop.
    pub elapsed_ms: u64,
    /// Visits per second written through the store.
    pub visits_per_sec: f64,
    /// Segment bytes on disk afterwards.
    pub bytes: u64,
    /// Average stored bytes per visit.
    pub bytes_per_visit: f64,
}

/// Replay-side measurements (one full drain of the store).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ReplaySide {
    /// Visits decoded.
    pub visits: u64,
    /// Segment bytes read.
    pub bytes: u64,
    /// Wall-clock milliseconds for the full drain.
    pub elapsed_ms: u64,
    /// Visits per second replayed.
    pub visits_per_sec: f64,
    /// Megabytes per second replayed.
    pub mb_per_sec: f64,
}

/// One read backend's fold wall times.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct BackendFold {
    /// Sequential (1-thread) streaming fold, milliseconds.
    pub threads_1_ms: u64,
    /// 8-thread streaming fold, milliseconds.
    pub threads_8_ms: u64,
    /// `threads_1_ms / threads_8_ms`.
    pub speedup: f64,
}

/// Chunk-granular parallel-fold measurements over the fold store.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct FoldSide {
    /// Visits in the fold store (≥ [`FOLD_SITES_FLOOR`] unless
    /// overridden).
    pub visits: u64,
    /// Segment files the store holds.
    pub segments: u64,
    /// Chunks the frame index cut those segments into — the unit of
    /// fold parallelism.
    pub chunks: u64,
    /// Default-backend (mmap) 1-thread fold, milliseconds.
    pub threads_1_ms: u64,
    /// Default-backend (mmap) 8-thread fold, milliseconds.
    pub threads_8_ms: u64,
    /// `threads_1_ms / threads_8_ms`.
    pub speedup: f64,
    /// The mmap backend's timings (same numbers as the top level —
    /// mmap is the default — kept per-backend for the schema).
    pub mmap: BackendFold,
    /// The pread backend's timings.
    pub pread: BackendFold,
}

/// The full machine-readable report (`BENCH_crawlstore.json`).
#[derive(Debug, Clone, Serialize)]
pub struct StoreBenchReport {
    /// The machine the numbers were measured on.
    pub host: Host,
    /// Sites crawled.
    pub sites: u64,
    /// Crawl worker threads.
    pub threads: u64,
    /// Write side.
    pub write_binary: WriteSide,
    /// Rank-ordered replay: the `CrawlReader` k-way merge over each
    /// segment's chunks.
    pub replay_binary: ReplaySide,
    /// Store-ordered replay: a 1-thread chunked drain through mmap'd
    /// windows, no merge.
    pub replay_binary_mmap: ReplaySide,
    /// Chunk-granular parallel-fold measurements.
    pub fold: FoldSide,
    /// Process peak RSS after everything above (bytes; 0 if unknown).
    pub peak_rss_bytes: u64,
    /// The streaming aggregates of the crawl — gives the numbers
    /// context.
    pub stream_summary: StreamSummary,
}

fn crawl_one(
    dir: &Path,
    gen: &WebGenerator,
    cfg: &VisitConfig,
    sites: usize,
    threads: usize,
) -> WriteSide {
    let run = crawl_to_store(dir, gen, cfg, 1, sites, threads, |_| {})
        .unwrap_or_else(|e| panic!("storebench crawl: {e}"));
    let visits = run.summary.visited as u64;
    WriteSide {
        visits,
        elapsed_ms: run.summary.elapsed_ms,
        visits_per_sec: run.summary.visits_per_sec(),
        bytes: run.stats.bytes,
        bytes_per_visit: if visits == 0 {
            0.0
        } else {
            run.stats.bytes as f64 / visits as f64
        },
    }
}

fn replay_one(dir: &Path, bytes: u64) -> ReplaySide {
    let _span = cg_telemetry::span!("storebench_replay");
    let watch = Stopwatch::start();
    let mut visits = 0u64;
    for log in CrawlReader::open(dir).unwrap_or_else(|e| panic!("storebench replay open: {e}")) {
        log.unwrap_or_else(|e| panic!("storebench replay: {e}"));
        visits += 1;
    }
    let elapsed_ms = watch.elapsed_ms();
    ReplaySide {
        visits,
        bytes,
        elapsed_ms,
        visits_per_sec: per_sec(visits, elapsed_ms),
        mb_per_sec: per_sec(bytes, elapsed_ms) / 1e6,
    }
}

/// A full 1-thread decode of the store through mmap'd chunk windows in
/// store order — [`replay_one`]'s drain without the merge.
fn replay_one_mmap(dir: &Path, bytes: u64) -> ReplaySide {
    let _span = cg_telemetry::span!("storebench_replay_mmap");
    let watch = Stopwatch::start();
    let counts = cg_crawlstore::par_fold_with(dir, 1, ReadBackend::Mmap, |chunk| {
        let mut n = 0u64;
        for log in chunk {
            log?;
            n += 1;
        }
        Ok(n)
    })
    .unwrap_or_else(|e| panic!("storebench mmap replay: {e}"));
    let elapsed_ms = watch.elapsed_ms();
    let visits = counts.iter().sum();
    ReplaySide {
        visits,
        bytes,
        elapsed_ms,
        visits_per_sec: per_sec(visits, elapsed_ms),
        mb_per_sec: per_sec(bytes, elapsed_ms) / 1e6,
    }
}

/// Times `StreamStats::from_store_with` at 1 and 8 threads through one
/// backend, asserting the two folds serialize identically.
fn fold_backend(dir: &Path, backend: ReadBackend) -> (BackendFold, StreamStats) {
    let t1 = Stopwatch::start();
    let seq = StreamStats::from_store_with(dir, 1, backend)
        .unwrap_or_else(|e| panic!("storebench fold ({backend}): {e}"));
    let threads_1_ms = t1.elapsed_ms();
    let t8 = Stopwatch::start();
    let par = StreamStats::from_store_with(dir, 8, backend)
        .unwrap_or_else(|e| panic!("storebench fold ({backend}): {e}"));
    let threads_8_ms = t8.elapsed_ms();
    assert_eq!(
        serde_json::to_string(&seq).expect("serialize stats"),
        serde_json::to_string(&par).expect("serialize stats"),
        "parallel {backend} fold diverged from sequential — determinism bug"
    );
    (
        BackendFold {
            threads_1_ms,
            threads_8_ms,
            speedup: if threads_8_ms == 0 {
                0.0
            } else {
                threads_1_ms as f64 / threads_8_ms as f64
            },
        },
        seq,
    )
}

/// Runs the crawl-store benchmark. The store directories live under
/// `opts.store` when set (kept afterwards — reruns resume) or a
/// temporary directory (removed afterwards).
pub fn run_storebench(opts: &ExperimentOptions) -> StoreBenchReport {
    let (base, ephemeral) = match &opts.store {
        Some(dir) => (dir.clone(), false),
        None => (
            std::env::temp_dir().join(format!("cg-storebench-{}", std::process::id())),
            true,
        ),
    };
    let gen = opts.generator();
    let cfg = VisitConfig::regular();
    let dir_b = base.join("binary");

    eprintln!("[storebench] crawling {} sites → store…", opts.sites);
    let write_binary = crawl_one(&dir_b, &gen, &cfg, opts.sites, opts.threads);

    eprintln!("[storebench] replaying the store…");
    let replay_binary = replay_one(&dir_b, write_binary.bytes);
    let replay_binary_mmap = replay_one_mmap(&dir_b, write_binary.bytes);

    // The fold benchmark needs a store large enough that per-chunk
    // dispatch is amortized; reuse the main store when it qualifies,
    // otherwise crawl a dedicated one.
    let fold_sites = opts.fold_sites.unwrap_or(opts.sites.max(FOLD_SITES_FLOOR));
    let dir_f = if fold_sites == opts.sites {
        dir_b.clone()
    } else {
        let dir_f = base.join("fold");
        eprintln!("[storebench] crawling {fold_sites} sites → fold-bench store…");
        let fold_gen = WebGenerator::new(GenConfig::small(fold_sites), opts.seed);
        crawl_one(&dir_f, &fold_gen, &cfg, fold_sites, opts.threads);
        dir_f
    };
    let plan = plan_chunks(&dir_f).unwrap_or_else(|e| panic!("storebench chunk plan: {e}"));
    let (segments, chunks) = (plan.segments() as u64, plan.len() as u64);
    drop(plan);

    eprintln!("[storebench] chunked folds at 1 and 8 threads (mmap, pread)…");
    let (mmap, mmap_stats) = fold_backend(&dir_f, ReadBackend::Mmap);
    let (pread, pread_stats) = fold_backend(&dir_f, ReadBackend::Pread);
    assert_eq!(
        serde_json::to_string(&mmap_stats).expect("serialize stats"),
        serde_json::to_string(&pread_stats).expect("serialize stats"),
        "mmap fold diverged from pread — backend differential bug"
    );
    // The summary pins the *measured* crawl, not the fold-bench store.
    let seq = StreamStats::from_store(&dir_b, 1).unwrap_or_else(|e| panic!("storebench fold: {e}"));

    if ephemeral {
        let _ = std::fs::remove_dir_all(&base);
    }

    StoreBenchReport {
        host: Host::current(),
        sites: opts.sites as u64,
        threads: opts.threads as u64,
        write_binary,
        replay_binary,
        replay_binary_mmap,
        fold: FoldSide {
            visits: fold_sites as u64,
            segments,
            chunks,
            threads_1_ms: mmap.threads_1_ms,
            threads_8_ms: mmap.threads_8_ms,
            speedup: mmap.speedup,
            mmap,
            pread,
        },
        peak_rss_bytes: peak_rss_bytes().unwrap_or(0),
        stream_summary: seq.summary(),
    }
}

/// Prints the human-readable side of the report.
pub fn print_storebench(r: &StoreBenchReport) {
    println!(
        "\n== crawl store throughput ({} sites; {} cpus, {}, kernel {}) ==",
        r.sites, r.host.nproc, r.host.cpu, r.host.kernel
    );
    println!(
        "  write        : {:>9.0} visits/s  {:>7.0} B/visit  ({})",
        r.write_binary.visits_per_sec,
        r.write_binary.bytes_per_visit,
        render_ms(r.write_binary.elapsed_ms)
    );
    println!(
        "  replay merge : {:>9.0} visits/s  {:>7.1} MB/s     ({})  — rank order",
        r.replay_binary.visits_per_sec,
        r.replay_binary.mb_per_sec,
        render_ms(r.replay_binary.elapsed_ms),
    );
    println!(
        "  replay chunks: {:>9.0} visits/s  {:>7.1} MB/s     ({})  — store order",
        r.replay_binary_mmap.visits_per_sec,
        r.replay_binary_mmap.mb_per_sec,
        render_ms(r.replay_binary_mmap.elapsed_ms),
    );
    println!(
        "  fold store   : {} visits, {} segments cut into {} chunks",
        r.fold.visits, r.fold.segments, r.fold.chunks
    );
    println!(
        "  fold mmap    : 1 thr {}    8 thr {}   ({:.2}× speedup)",
        render_ms(r.fold.mmap.threads_1_ms),
        render_ms(r.fold.mmap.threads_8_ms),
        r.fold.mmap.speedup
    );
    println!(
        "  fold pread   : 1 thr {}    8 thr {}   ({:.2}× speedup)",
        render_ms(r.fold.pread.threads_1_ms),
        render_ms(r.fold.pread.threads_8_ms),
        r.fold.pread.speedup
    );
    println!(
        "  peak RSS     : {:.1} MB",
        r.peak_rss_bytes as f64 / (1024.0 * 1024.0)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_reads_proc_on_linux() {
        // On Linux this must parse; elsewhere None is the contract.
        if cfg!(target_os = "linux") {
            assert!(peak_rss_bytes().unwrap() > 0);
        }
    }

    #[test]
    fn storebench_report_has_stable_keys() {
        let opts = ExperimentOptions {
            sites: 30,
            seed: 7,
            threads: 2,
            fold_sites: Some(40), // keep the unit test off the 10k floor
            ..ExperimentOptions::default()
        };
        let report = run_storebench(&opts);
        assert_eq!(report.sites, 30);
        assert_eq!(report.replay_binary.visits, 30);
        assert_eq!(
            report.replay_binary_mmap.visits,
            report.replay_binary.visits
        );
        assert!(report.host.nproc >= 1);
        assert_eq!(report.fold.visits, 40);
        assert!(report.fold.chunks >= report.fold.segments);
        let json = serde_json::to_value(&report).unwrap();
        for key in [
            "host",
            "write_binary",
            "replay_binary",
            "replay_binary_mmap",
            "fold",
            "peak_rss_bytes",
            "stream_summary",
        ] {
            assert!(json.get(key).is_some(), "missing report key {key}");
        }
        for key in ["visits", "segments", "chunks", "mmap", "pread"] {
            assert!(
                json["fold"].get(key).is_some(),
                "missing fold report key {key}"
            );
        }
    }
}
