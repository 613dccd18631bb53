//! Streaming detection's peak memory follows its one crawl-dependent
//! table, the exact per-(key, organization) co-presence counts, and
//! nothing else.
//!
//! Every other part of the fold state is fixed-size per key or per
//! organization (integer counters, K-bounded sketches). The
//! foreign-harvest rate needs the exact co-presence count of every
//! (key, organization) pair that ever met, so that table grows until
//! every pair the web can produce has occurred — bounded by keys ×
//! organizations, not by visits. On one generated web, ranks 1..=10,000
//! and a crawl of ≥ 40,000 ranks, the test asserts at 1 and 2 fold
//! threads that
//!
//! * peak memory grows by at most 1.2× the growth of that table, and
//! * peak memory stays within 16 MiB plus 32 bytes per pair per fold
//!   worker (a string-keyed table costs ~100 bytes per pair).
//!
//! Each fold runs in a child process (this test binary, re-run with
//! `CG_DETECT_HWM_CHILD` set) that compiles the engine, streams the
//! store over mmap and reports its `VmHWM`.
//!
//! Release-mode and slow (it crawls 50k visits unless given a store),
//! so it is ignored by default and run by name:
//!
//! ```sh
//! cargo test --release -p cg-detect --test bounded_state -- --ignored --exact \
//!     streaming_detect_memory_follows_the_co_presence_table
//! ```
//!
//! `CG_DETECT_HWM_LARGE=DIR` reuses a store crawled by
//! `cg-experiments --exp stream --store DIR --sites N` (default seed),
//! with `CG_DETECT_HWM_SITES=N` (default 40000); the 10k store is
//! always crawled here, from the same web.
#![cfg(target_os = "linux")]

use cg_browser::VisitConfig;
use cg_crawlstore::{crawl_to_store, ReadBackend};
use cg_detect::{DetectConfig, DetectEngine, DetectReport, DetectStats, Stages};
use cg_webgen::{CookieLabels, GenConfig, WebGenerator};
use std::path::{Path, PathBuf};
use std::process::Command;

const TEST: &str = "streaming_detect_memory_follows_the_co_presence_table";
/// The seed `cg-experiments` crawls with by default.
const SEED: u64 = 0xC00C1E;
const SMALL: usize = 10_000;
/// Largest allowed `HWM(large) / HWM(small)`, as a multiple of the
/// co-presence table's own growth.
const MAX_GROWTH: f64 = 1.2;
/// Peak memory allowed besides the co-presence table.
const BASE_KB: u64 = 16 * 1024;
/// Bytes allowed per co-presence pair per fold worker.
const PAIR_BYTES: u64 = 32;

fn web(sites: usize) -> WebGenerator {
    WebGenerator::new(GenConfig::small(sites), SEED)
}

fn vm_hwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line")
}

/// The child's half: fold `dir` and print the peak.
fn fold_and_report(spec: &str) {
    let mut parts = spec.split(';');
    let dir = parts.next().expect("dir");
    let sites: usize = parts.next().and_then(|s| s.parse().ok()).expect("sites");
    let threads: usize = parts.next().and_then(|s| s.parse().ok()).expect("threads");
    let engine = DetectEngine::compile(
        &CookieLabels::derive(web(sites).registry()),
        cg_entity::builtin_entity_map(),
        DetectConfig::default(),
    );
    let stats =
        DetectStats::from_store_with(&engine, Stages::Full, dir, threads, ReadBackend::Mmap)
            .expect("streaming fold");
    let report = DetectReport::from_stats(&stats);
    let pairs: usize = stats.keys.iter().map(|agg| agg.foreign.len()).sum();
    println!(
        "hwm_kb={} pairs={pairs} visits={} keys={}",
        vm_hwm_kb(),
        report.crawled,
        report.keys.len()
    );
}

/// Runs one fold in a child process and returns its `VmHWM` in kB and
/// its co-presence pairs.
fn child_hwm(dir: &Path, sites: usize, threads: usize, visits: usize) -> (u64, u64) {
    let out = Command::new(std::env::current_exe().expect("test binary"))
        .args([
            TEST,
            "--exact",
            "--ignored",
            "--nocapture",
            "--test-threads",
            "1",
        ])
        .env(
            "CG_DETECT_HWM_CHILD",
            format!("{};{sites};{threads}", dir.display()),
        )
        .output()
        .expect("spawn fold child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "fold child failed:\n{stdout}");
    // libtest prints the test's name on the same line, first
    let line = stdout
        .lines()
        .find_map(|l| l.find("hwm_kb=").map(|at| &l[at..]))
        .unwrap_or_else(|| panic!("no hwm line in child output:\n{stdout}"));
    eprintln!("  {} x{threads}: {line}", dir.display());
    assert!(
        line.contains(&format!(" visits={visits} ")),
        "child folded the wrong store: {line}"
    );
    let field = |name: &str| -> u64 {
        line.split_whitespace()
            .find_map(|f| f.strip_prefix(name))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no {name} in {line}"))
    };
    (field("hwm_kb="), field("pairs="))
}

fn crawl(dir: &Path, gen: &WebGenerator, to: usize) {
    crawl_to_store(dir, gen, &VisitConfig::regular(), 1, to, 2, |_| {})
        .unwrap_or_else(|e| panic!("crawl {}: {e}", dir.display()));
}

#[test]
#[ignore = "release-mode memory probe over 50k crawled visits; run by name"]
fn streaming_detect_memory_follows_the_co_presence_table() {
    if let Ok(spec) = std::env::var("CG_DETECT_HWM_CHILD") {
        fold_and_report(&spec);
        return;
    }
    let sites: usize = std::env::var("CG_DETECT_HWM_SITES")
        .map(|s| s.parse().expect("CG_DETECT_HWM_SITES is a number"))
        .unwrap_or(40_000);
    assert!(
        sites >= 4 * SMALL,
        "the large crawl must be ≥ 4× the small one"
    );
    let work = std::env::temp_dir().join(format!("cg-detect-hwm-{}", std::process::id()));
    let gen = web(sites);
    let small = work.join("small");
    crawl(&small, &gen, SMALL);
    let large = match std::env::var("CG_DETECT_HWM_LARGE") {
        Ok(dir) => PathBuf::from(dir),
        Err(_) => {
            let dir = work.join("large");
            crawl(&dir, &gen, sites);
            dir
        }
    };
    drop(gen);

    for threads in [1, 2] {
        let (small_kb, small_pairs) = child_hwm(&small, sites, threads, SMALL);
        let (large_kb, large_pairs) = child_hwm(&large, sites, threads, sites);
        let growth = large_kb as f64 / small_kb as f64;
        let table_growth = large_pairs as f64 / small_pairs as f64;
        eprintln!(
            "  x{threads}: {sites} / {SMALL} visits: HWM {growth:.2}x, co-presence pairs \
             {table_growth:.2}x"
        );
        assert!(
            growth <= MAX_GROWTH * table_growth,
            "x{threads}: detect HWM grew {growth:.2}x ({small_kb} kB at {SMALL} visits, \
             {large_kb} kB at {sites}) while the co-presence table grew {table_growth:.2}x"
        );
        for (kb, pairs) in [(small_kb, small_pairs), (large_kb, large_pairs)] {
            let allowed = BASE_KB + threads as u64 * PAIR_BYTES * pairs / 1024;
            assert!(
                kb <= allowed,
                "x{threads}: HWM {kb} kB exceeds {allowed} kB for {pairs} co-presence pairs"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&work);
}
