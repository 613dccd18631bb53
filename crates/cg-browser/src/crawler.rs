//! The crawler: visits many sites in parallel, deterministically.
//!
//! Each site's result depends only on (master seed, rank, visit config),
//! so the crawl parallelizes over worker threads without changing any
//! outcome. Work distribution is an atomic rank counter; results flow
//! through a [`VisitSink`], which hands every worker its own
//! [`SinkWorker`] handle — the hot path takes no cross-worker lock, and
//! per-worker results are merged once, after the worker drains.
//!
//! Two sinks matter in practice:
//!
//! * [`VecCollector`] — in-memory, backs [`crawl_range`] (the original
//!   API: outcomes sorted by rank);
//! * `cg_crawlstore::CrawlWriter` — durable per-worker segment files
//!   with checkpoint/resume, for crawls that must survive process death
//!   or outgrow RAM.

use crate::visit::{visit_site, VisitConfig, VisitOutcome};
use cg_telemetry::{global, Class, Counter};
use cg_webgen::WebGenerator;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// The crawler's registered metric handles (see `cg-telemetry`): both
/// totals are pure functions of the crawled rank range, hence
/// `Workload`-class (byte-identical across worker counts).
struct CrawlMetrics {
    visits: Counter,
    visits_complete: Counter,
}

fn crawl_metrics() -> &'static CrawlMetrics {
    static METRICS: OnceLock<CrawlMetrics> = OnceLock::new();
    METRICS.get_or_init(|| CrawlMetrics {
        visits: global().counter("crawl.visits", Class::Workload),
        visits_complete: global().counter("crawl.visits_complete", Class::Workload),
    })
}

/// Aggregate facts about a crawl (cheap to keep even when per-site
/// outcomes are discarded).
#[derive(Debug, Clone, Default)]
pub struct CrawlSummary {
    /// Sites visited (in this run — a resumed crawl skips ranks its
    /// sink already holds).
    pub visited: usize,
    /// Sites with complete data (the analysis population).
    pub complete: usize,
    /// Sites whose visit produced incomplete data (`visited − complete`);
    /// the §4.2 filter drops them from analysis.
    pub failed: usize,
    /// Wall-clock milliseconds the crawl loop ran (workers spawned →
    /// sink merged). Throughput reporting only — *not* part of the
    /// deterministic output, so never fold it into fingerprints or
    /// byte-compared artifacts.
    pub elapsed_ms: u64,
}

impl CrawlSummary {
    /// Visits per wall-clock second (0.0 when nothing was visited or
    /// the crawl was too fast to time).
    pub fn visits_per_sec(&self) -> f64 {
        if self.visited == 0 || self.elapsed_ms == 0 {
            return 0.0;
        }
        self.visited as f64 * 1000.0 / self.elapsed_ms as f64
    }
}

/// A per-worker result handle: receives every outcome one crawl worker
/// produces, with no synchronization against other workers.
pub trait SinkWorker: Send {
    /// Accepts one visit outcome. Durable sinks may buffer and fsync in
    /// batches; errors abort that worker's crawl loop.
    fn record(&mut self, outcome: VisitOutcome) -> std::io::Result<()>;
}

/// Where a crawl delivers its outcomes.
///
/// The sink is shared read-only across workers; all mutation happens
/// through the per-worker [`SinkWorker`] handles it issues, merged back
/// one at a time after the crawl scope ends. A sink that already holds
/// some ranks durably (a resumed crawl store) reports them via
/// [`VisitSink::is_done`] and the crawl skips them.
pub trait VisitSink: Sync {
    /// The per-worker handle type.
    type Worker: SinkWorker;

    /// True when `rank` is already durably recorded — the crawl will
    /// not re-visit it. Defaults to `false` (nothing stored yet).
    fn is_done(&self, _rank: usize) -> bool {
        false
    }

    /// Opens the handle for worker `index` (0-based).
    fn worker(&self, index: usize) -> std::io::Result<Self::Worker>;

    /// Merges one drained worker handle back into the sink (flush,
    /// fsync, or append to the collected set). Called once per worker,
    /// outside the parallel section.
    fn merge(&self, worker: Self::Worker) -> std::io::Result<()>;
}

/// The in-memory sink: per-worker `Vec` buffers, merged under one lock
/// acquisition per *worker* (not per visit). [`crawl_range`] is this
/// sink plus a final sort by rank.
#[derive(Debug, Default)]
pub struct VecCollector {
    outcomes: Mutex<Vec<VisitOutcome>>,
}

impl VecCollector {
    /// A fresh, empty collector.
    pub fn new() -> VecCollector {
        VecCollector::default()
    }

    /// The collected outcomes, unsorted (merge order is worker order).
    pub fn into_outcomes(self) -> Vec<VisitOutcome> {
        self.outcomes.into_inner().expect("collector lock poisoned")
    }
}

impl SinkWorker for Vec<VisitOutcome> {
    fn record(&mut self, outcome: VisitOutcome) -> std::io::Result<()> {
        self.push(outcome);
        Ok(())
    }
}

impl VisitSink for VecCollector {
    type Worker = Vec<VisitOutcome>;

    fn worker(&self, _index: usize) -> std::io::Result<Vec<VisitOutcome>> {
        Ok(Vec::new())
    }

    fn merge(&self, worker: Vec<VisitOutcome>) -> std::io::Result<()> {
        self.outcomes
            .lock()
            .expect("collector lock poisoned")
            .extend(worker);
        Ok(())
    }
}

/// Crawls ranks `[from, to]` (inclusive, 1-based) with `threads`
/// workers, delivering every outcome to `sink`. Ranks the sink already
/// holds ([`VisitSink::is_done`]) are skipped, which is what turns a
/// crawl store into a checkpoint: rerunning the same range over a
/// partially-filled store finishes exactly the missing work.
///
/// The summary counts only this run's visits; a sink that persists
/// across runs knows its own totals.
pub fn crawl_into<S: VisitSink>(
    gen: &WebGenerator,
    cfg: &VisitConfig,
    from: usize,
    to: usize,
    threads: usize,
    sink: &S,
) -> std::io::Result<CrawlSummary> {
    let threads = threads.max(1);
    let started = std::time::Instant::now();
    let next = AtomicUsize::new(from);
    let visited = AtomicUsize::new(0);
    let complete = AtomicUsize::new(0);

    let workers: Vec<std::io::Result<S::Worker>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|index| {
                let next = &next;
                let visited = &visited;
                let complete = &complete;
                s.spawn(move || -> std::io::Result<S::Worker> {
                    let mut worker = sink.worker(index)?;
                    loop {
                        let rank = next.fetch_add(1, Ordering::Relaxed);
                        if rank > to {
                            break;
                        }
                        if sink.is_done(rank) {
                            continue;
                        }
                        let outcome = {
                            let _span = cg_telemetry::span!("visit", rank);
                            let blueprint = gen.blueprint(rank);
                            visit_site(&blueprint, cfg, gen.site_seed(rank) ^ 0x51_7e)
                        };
                        let tele = crawl_metrics();
                        tele.visits.incr();
                        visited.fetch_add(1, Ordering::Relaxed);
                        if outcome.log.complete {
                            tele.visits_complete.incr();
                            complete.fetch_add(1, Ordering::Relaxed);
                        }
                        worker.record(outcome)?;
                    }
                    Ok(worker)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("crawler worker panicked"))
            .collect()
    });

    // Merge every surviving worker before reporting a failure: a durable
    // sink flushes its buffered tail in merge(), and work other workers
    // completed should not be discarded because one of them errored.
    let mut first_err = None;
    for worker in workers {
        match worker {
            Ok(w) => {
                if let Err(e) = sink.merge(w) {
                    first_err.get_or_insert(e);
                }
            }
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }

    let visited = visited.load(Ordering::Relaxed);
    let complete = complete.load(Ordering::Relaxed);
    Ok(CrawlSummary {
        visited,
        complete,
        failed: visited - complete,
        elapsed_ms: started.elapsed().as_millis() as u64,
    })
}

/// Crawls ranks `[from, to]` (inclusive, 1-based) with `threads`
/// workers. Returns outcomes sorted by rank.
pub fn crawl_range(
    gen: &WebGenerator,
    cfg: &VisitConfig,
    from: usize,
    to: usize,
    threads: usize,
) -> (Vec<VisitOutcome>, CrawlSummary) {
    let sink = VecCollector::new();
    let summary =
        crawl_into(gen, cfg, from, to, threads, &sink).expect("in-memory sink cannot fail");
    let mut outcomes = sink.into_outcomes();
    outcomes.sort_by_key(|o| o.spec.rank);
    (outcomes, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_webgen::GenConfig;
    use std::collections::HashSet;

    #[test]
    fn parallel_crawl_matches_serial() {
        let gen = WebGenerator::new(GenConfig::small(60), 0xABCD);
        let cfg = VisitConfig::regular();
        let (serial, _) = crawl_range(&gen, &cfg, 1, 60, 1);
        let (parallel, _) = crawl_range(&gen, &cfg, 1, 60, 4);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.spec.rank, b.spec.rank);
            assert_eq!(
                crate::events_json(&a.log, "sets"),
                crate::events_json(&b.log, "sets"),
                "rank {}",
                a.spec.rank
            );
            assert_eq!(a.log.requests.len(), b.log.requests.len());
        }
    }

    #[test]
    fn summary_counts_completeness() {
        let gen = WebGenerator::new(GenConfig::small(100), 0xABCD);
        let (outcomes, summary) = crawl_range(&gen, &VisitConfig::regular(), 1, 100, 4);
        assert_eq!(summary.visited, 100);
        assert!(summary.complete < 100, "some crawls must fail");
        assert!(summary.complete > 50);
        assert_eq!(summary.failed, summary.visited - summary.complete);
        assert_eq!(outcomes.len(), 100);
    }

    /// A sink that pretends half the range is already stored.
    struct SkipHalf {
        seen: Mutex<Vec<usize>>,
    }

    impl SinkWorker for Vec<usize> {
        fn record(&mut self, outcome: VisitOutcome) -> std::io::Result<()> {
            self.push(outcome.spec.rank);
            Ok(())
        }
    }

    impl VisitSink for SkipHalf {
        type Worker = Vec<usize>;
        fn is_done(&self, rank: usize) -> bool {
            rank.is_multiple_of(2)
        }
        fn worker(&self, _index: usize) -> std::io::Result<Vec<usize>> {
            Ok(Vec::new())
        }
        fn merge(&self, worker: Vec<usize>) -> std::io::Result<()> {
            self.seen.lock().unwrap().extend(worker);
            Ok(())
        }
    }

    #[test]
    fn done_ranks_are_skipped() {
        let gen = WebGenerator::new(GenConfig::small(40), 0xABCD);
        let sink = SkipHalf {
            seen: Mutex::new(Vec::new()),
        };
        let summary = crawl_into(&gen, &VisitConfig::regular(), 1, 40, 3, &sink).unwrap();
        let seen: HashSet<usize> = sink.seen.into_inner().unwrap().into_iter().collect();
        assert_eq!(summary.visited, 20);
        assert_eq!(seen.len(), 20);
        assert!(seen.iter().all(|r| r % 2 == 1));
    }

    /// A sink whose workers fail after a few records.
    struct Flaky;

    struct FlakyWorker(usize);

    impl SinkWorker for FlakyWorker {
        fn record(&mut self, _outcome: VisitOutcome) -> std::io::Result<()> {
            self.0 += 1;
            if self.0 > 3 {
                return Err(std::io::Error::other("disk full"));
            }
            Ok(())
        }
    }

    impl VisitSink for Flaky {
        type Worker = FlakyWorker;
        fn worker(&self, _index: usize) -> std::io::Result<FlakyWorker> {
            Ok(FlakyWorker(0))
        }
        fn merge(&self, _worker: FlakyWorker) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn sink_errors_surface() {
        let gen = WebGenerator::new(GenConfig::small(30), 0xABCD);
        let err = crawl_into(&gen, &VisitConfig::regular(), 1, 30, 2, &Flaky).unwrap_err();
        assert_eq!(err.to_string(), "disk full");
    }
}
