//! `--exp stream`: the bounded-memory streaming fold over a durable
//! crawl store — the mode that takes a million-visit store.
//!
//! Crawls (or resumes) the measurement crawl into `--store DIR`, then
//! folds the store with [`StreamStats`] through the chosen read backend
//! in one chunk-granular parallel pass, retaining nothing per visit.
//! The printed `-- streaming summary` block is a pure function of
//! (seed, sites): byte-identical across thread counts, backends, and a
//! killed-and-resumed store. Everything above it (throughput, peak RSS,
//! the `fold_ms=` anchor line) is timing.

use crate::context::{crawl_store, peak_rss_bytes, ExperimentOptions};
use cg_analysis::{StreamStats, StreamSummary};
use cg_crawlstore::StoreError;
use cg_telemetry::{per_sec, render_ms, Stopwatch};
use std::path::Path;

/// Crawls the measurement crawl into `dir` (resuming), folds it with
/// [`StreamStats::from_store_with`], prints the fold timing and the
/// streaming summary, and returns the summary.
pub fn run_stream(opts: &ExperimentOptions, dir: &Path) -> Result<StreamSummary, StoreError> {
    let run = crawl_store(dir, &opts.generator(), opts)?;
    let (threads, backend) = (opts.threads, opts.read_backend);
    let watch = Stopwatch::start();
    let stats = StreamStats::from_store_with(dir, threads, backend)?;
    let fold_ms = watch.elapsed_ms();
    let s = stats.summary();
    println!(
        "  streaming fold ({threads} threads, {backend}): \
         {:.0} visits/s, {:.1} MB/s ({}); peak RSS {:.1} MB",
        per_sec(s.crawled, fold_ms),
        per_sec(run.stats.bytes, fold_ms) / 1e6,
        render_ms(fold_ms),
        peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0)
    );
    // Machine-readable anchor for fold-speedup checks, kept above the
    // summary marker so summary diffs never see wall times.
    println!(
        "  fold_ms={fold_ms} backend={backend} threads={threads} visits={}",
        s.crawled
    );
    print_summary(&s);
    Ok(s)
}

fn print_summary(s: &StreamSummary) {
    println!("\n-- streaming summary ({} visits) --", s.crawled);
    println!("  complete visits:         {}", s.complete);
    println!(
        "  cookie writes:           {} ({} blocked)",
        s.creates + s.overwrites + s.deletes,
        s.blocked_sets
    );
    println!("  cookie reads:            {}", s.reads);
    println!("  requests:                {}", s.requests);
    println!("  3p-script sites:         {}", s.third_party_script_sites);
    println!(
        "  document.cookie sites:   {} (~{} distinct pairs)",
        s.doc_cookie_sites, s.doc_cookie_pairs
    );
    println!(
        "  cookieStore sites:       {} (~{} distinct pairs)",
        s.cookie_store_sites, s.cookie_store_pairs
    );
    println!(
        "  cross-domain overwrites: {} events on {} sites",
        s.cross_overwrite_events, s.cross_overwrite_sites
    );
    println!(
        "  cross-domain deletes:    {} events on {} sites",
        s.cross_delete_events, s.cross_delete_sites
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_summary_matches_across_threads_and_resume() {
        let dir = std::env::temp_dir().join(format!("cg-stream-exp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ExperimentOptions {
            sites: 60,
            seed: 5,
            threads: 2,
            ..ExperimentOptions::default()
        };
        let first = run_stream(&opts, &dir).unwrap();
        assert_eq!(first.crawled, 60);
        // The rerun resumes the full store and folds it at one thread
        // through the other backend: same summary.
        let again = run_stream(
            &ExperimentOptions {
                threads: 1,
                read_backend: cg_crawlstore::ReadBackend::Pread,
                ..opts
            },
            &dir,
        )
        .unwrap();
        assert_eq!(first, again);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
