//! Shared experiment context: one crawl, many analyses.

use cg_analysis::Dataset;
use cg_browser::{crawl_range, VisitConfig};
use cg_crawlstore::{crawl_to_store, ReadBackend, StoreCrawl, StoreError};
use cg_entity::EntityMap;
use cg_filterlist::FilterEngine;
use cg_webgen::{GenConfig, WebGenerator};
use std::path::Path;

/// Command-line-shaped options for the harness.
#[derive(Debug, Clone)]
pub struct ExperimentOptions {
    /// Number of ranked sites to generate/crawl.
    pub sites: usize,
    /// Master seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// When set, the measurement crawl writes through a durable
    /// `cg_crawlstore` store at this directory and resumes from it when
    /// it already holds completed ranks (`--store DIR`).
    pub store: Option<std::path::PathBuf>,
    /// How store replays and folds read segment bytes
    /// (`--read-backend mmap|pread`). Both backends produce
    /// byte-identical results; mmap is the zero-copy default.
    pub read_backend: ReadBackend,
}

impl Default for ExperimentOptions {
    fn default() -> ExperimentOptions {
        ExperimentOptions {
            sites: 20_000,
            seed: 0xC00C1E,
            threads: num_threads(),
            store: None,
            read_backend: ReadBackend::default(),
        }
    }
}

impl ExperimentOptions {
    /// The seeded generator for a `sites`-site web. `GenConfig::small`
    /// scales the long tail with the site count and equals the
    /// paper-scale default at 20,000 sites.
    pub fn generator(&self) -> WebGenerator {
        WebGenerator::new(GenConfig::small(self.sites), self.seed)
    }
}

fn num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Peak resident set size of this process, from `/proc/self/status`
/// `VmHWM` (Linux only; `None` elsewhere). This is a *high-water mark*:
/// it proves bounded-memory claims only when the bounded phase is the
/// biggest thing the process ever did.
pub(crate) fn peak_rss_bytes() -> Option<u64> {
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

/// The products of the §4 data-collection pipeline, shared by all §5
/// experiments.
pub struct CrawlContext {
    /// The generator (registry, seeds).
    pub gen: WebGenerator,
    /// The analyzable dataset (complete visits only).
    pub dataset: Dataset,
    /// Entity map for aggregation.
    pub entities: EntityMap,
    /// Filter engine for ad/tracking classification.
    pub engine: FilterEngine,
    /// Visits attempted.
    pub crawled: usize,
}

impl CrawlContext {
    /// Generates the ecosystem and performs the regular (no-guard)
    /// crawl — in memory by default, or through a durable, resumable
    /// crawl store when `opts.store` is set.
    pub fn collect(opts: &ExperimentOptions) -> CrawlContext {
        let gen = opts.generator();
        let engine = cg_analysis::build_filter_engine(gen.registry());
        let entities = cg_entity::builtin_entity_map();
        let (dataset, crawled) = match &opts.store {
            None => {
                let (outcomes, summary) =
                    crawl_range(&gen, &VisitConfig::regular(), 1, opts.sites, opts.threads);
                let dataset = Dataset::from_logs(outcomes.into_iter().map(|o| o.log).collect());
                (dataset, summary.visited)
            }
            Some(dir) => {
                // Durable path: write-through store, resumed when the
                // directory already holds this crawl's fingerprint, then
                // a streaming rank-ordered replay into the dataset.
                let run = crawl_store(dir, &gen, opts)
                    .unwrap_or_else(|e| panic!("crawl store {}: {e}", dir.display()));
                let watch = cg_telemetry::Stopwatch::start();
                // Chunk-granular parallel replay through the chosen read
                // backend — byte-identical to a sequential CrawlReader
                // drain at any thread count.
                let dataset = Dataset::from_store_with(dir, opts.threads, opts.read_backend)
                    .unwrap_or_else(|e| panic!("replaying crawl store {}: {e}", dir.display()));
                let replay_ms = watch.elapsed_ms();
                eprintln!(
                    "[store] replayed {} visits via {} in {} \
                     ({:.0} visits/s, {:.1} MB/s); peak RSS {:.1} MB",
                    dataset.crawled,
                    opts.read_backend,
                    cg_telemetry::render_ms(replay_ms),
                    cg_telemetry::per_sec(dataset.crawled as u64, replay_ms),
                    cg_telemetry::per_sec(run.stats.bytes, replay_ms) / 1e6,
                    peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0),
                );
                let crawled = dataset.crawled;
                (dataset, crawled)
            }
        };
        CrawlContext {
            gen,
            dataset,
            entities,
            engine,
            crawled,
        }
    }
}

/// Crawls ranks `1..=opts.sites` of `gen` (regular visits) through the
/// durable store at `dir`, resuming from whatever ranks it already
/// holds. Prints the resume notice and the run's visit and store totals
/// to stderr.
pub fn crawl_store(
    dir: &Path,
    gen: &WebGenerator,
    opts: &ExperimentOptions,
) -> Result<StoreCrawl, StoreError> {
    let run = crawl_to_store(
        dir,
        gen,
        &VisitConfig::regular(),
        1,
        opts.sites,
        opts.threads,
        |store| {
            let resumed = store.done_ranks().len();
            if resumed > 0 {
                eprintln!("[crawl] resuming: {resumed} ranks already durable in the store");
            }
        },
    )?;
    eprintln!(
        "[crawl] visited {} sites this run, {} with complete data, {} failed ({:.0} visits/s)",
        run.summary.visited,
        run.summary.complete,
        run.summary.failed,
        run.summary.visits_per_sec(),
    );
    eprintln!(
        "[store] {} records across {} segments, {} bytes on disk",
        run.stats.records, run.stats.segments, run.stats.bytes
    );
    Ok(run)
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
    fn context_collects_small_crawl() {
        let ctx = CrawlContext::collect(&ExperimentOptions {
            sites: 50,
            seed: 1,
            threads: 2,
            ..ExperimentOptions::default()
        });
        assert_eq!(ctx.crawled, 50);
        assert!(ctx.dataset.site_count() > 20);
        assert!(ctx.dataset.site_count() < 50);
    }

    #[test]
    fn store_backed_context_matches_in_memory() {
        let dir = std::env::temp_dir().join(format!("cg-ctx-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ExperimentOptions {
            sites: 40,
            seed: 2,
            threads: 2,
            ..ExperimentOptions::default()
        };
        let mem = CrawlContext::collect(&opts);
        let durable = CrawlContext::collect(&ExperimentOptions {
            store: Some(dir.clone()),
            ..opts.clone()
        });
        assert_eq!(mem.crawled, durable.crawled);
        assert_eq!(mem.dataset.site_count(), durable.dataset.site_count());
        assert_eq!(
            serde_json::to_string(&mem.dataset.logs).unwrap(),
            serde_json::to_string(&durable.dataset.logs).unwrap()
        );
        // Collecting again resumes (no re-visit) and yields the same data.
        let resumed = CrawlContext::collect(&ExperimentOptions {
            store: Some(dir.clone()),
            ..opts
        });
        assert_eq!(resumed.dataset.site_count(), mem.dataset.site_count());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
