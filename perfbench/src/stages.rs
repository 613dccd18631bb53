//! The pipeline's stages, each driven only through its layer's public
//! functions: crawl into a store, fold the store into crawl statistics
//! or detection aggregates, lower it into replay scripts, and replay the
//! scripts through a two-tenant guard service.
//!
//! Every stage opens a span around each call into a layer. With tracing
//! off the spans cost one atomic load each, and the folds call the
//! layers' own `from_store_with` entry points; with tracing on the folds
//! take the same route one level down (`par_fold_with` + `fold` +
//! `merge`), so the decode and fold of every visit get spans of their
//! own.

use crate::trace::{self, count, span, span_under};
use cg_analysis::StreamStats;
use cg_browser::{crawl_into, visit_site, SinkWorker, VisitConfig, VisitOutcome, VisitSink};
use cg_crawlstore::{
    open_store_with, par_fold_with, plan_chunks, ChunkStream, CrawlReader, CrawlWriter,
    ReadBackend, SegmentFormat, SegmentWriter, StoreError,
};
use cg_detect::{DetectEngine, DetectReport, DetectStats, Stages};
use cg_instrument::{ServiceCounters, VisitLog};
use cg_service::{extract_script, GuardService, ReplayOp, SwapReport, TenantId, VisitScript};
use cg_webgen::WebGenerator;
use cookieguard_core::{Caller, GuardConfig, GuardSession};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub type Result<T> = std::result::Result<T, String>;

fn store_err(what: &str) -> impl Fn(StoreError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// A finished crawl store.
#[derive(Debug, Clone)]
pub struct Store {
    pub dir: PathBuf,
    pub visits: u64,
    pub bytes: u64,
}

/// What one crawl did, beyond the store it left.
#[derive(Debug, Default)]
pub struct CrawlTally {
    pub visits: u64,
    pub complete: u64,
    /// In-page guard decisions (allowed and blocked writes, blocked
    /// deletes, clean and filtered reads), from each visit's guard stats.
    pub guard_decisions: u64,
    /// Cookie API operations the pages issued.
    pub cookie_ops: u64,
    /// Per-visit page latency, blueprint → visit, keyed by rank. The
    /// store append is left out: every 64th one pays an fsync, which
    /// would put disk latency rather than page cost at the 99th
    /// percentile. The append still counts in the crawl's throughput.
    pub latency: Vec<Sample>,
}

/// One latency sample: the item it times (a site's rank, a script's
/// index) and its nanoseconds, saturated at `u32::MAX`.
pub type Sample = (u32, u32);

/// The sample of `item`, timed from `since` to now.
pub fn sample(item: usize, since: Instant) -> Sample {
    let ns = u32::try_from(since.elapsed().as_nanos()).unwrap_or(u32::MAX);
    (item as u32, ns)
}

impl CrawlTally {
    fn add(&mut self, outcome: &VisitOutcome) {
        self.visits += 1;
        self.complete += u64::from(outcome.log.complete);
        self.cookie_ops += outcome.cookie_ops as u64;
        if let Some(g) = &outcome.guard_stats {
            self.guard_decisions += g.writes_allowed
                + g.writes_blocked
                + g.deletes_blocked
                + g.reads_clean
                + g.reads_filtered;
        }
    }

    fn merge(&mut self, other: CrawlTally) {
        self.visits += other.visits;
        self.complete += other.complete;
        self.guard_decisions += other.guard_decisions;
        self.cookie_ops += other.cookie_ops;
        self.latency.extend(other.latency);
    }
}

/// The store's own sink, with each visit timed and tallied on its way
/// in. A worker's clock runs from the end of its previous append to the
/// start of the next, so a visit's latency is everything the library's
/// crawl loop does for it except the append.
struct TimedSink<'a> {
    store: &'a CrawlWriter,
    tally: Mutex<CrawlTally>,
}

struct TimedWorker {
    seg: SegmentWriter,
    since: Instant,
    tally: CrawlTally,
}

impl SinkWorker for TimedWorker {
    fn record(&mut self, outcome: VisitOutcome) -> std::io::Result<()> {
        self.tally
            .latency
            .push(sample(outcome.log.rank, self.since));
        self.tally.add(&outcome);
        let appended = SinkWorker::record(&mut self.seg, outcome);
        self.since = Instant::now();
        appended
    }
}

impl VisitSink for TimedSink<'_> {
    type Worker = TimedWorker;

    fn is_done(&self, rank: usize) -> bool {
        self.store.is_done(rank)
    }

    fn worker(&self, index: usize) -> std::io::Result<TimedWorker> {
        Ok(TimedWorker {
            seg: self.store.worker(index)?,
            since: Instant::now(),
            tally: CrawlTally::default(),
        })
    }

    fn merge(&self, worker: TimedWorker) -> std::io::Result<()> {
        self.tally
            .lock()
            .expect("tally poisoned")
            .merge(worker.tally);
        self.store.merge(worker.seg)
    }
}

/// Crawls ranks `1..=sites` of `gen` under `cfg` into a new binary
/// store at `dir` (which must not hold one yet) with `threads` workers.
/// Untraced, this is the program's own crawl (`open_store_with` +
/// `cg_browser::crawl_into`, the body of `crawl_to_store_with`). Traced,
/// the same loop is spelled out here (same per-visit seed) so that
/// `WebGenerator::blueprint`, `visit_site` and `SegmentWriter::record`
/// each get a span.
pub fn crawl(
    dir: &Path,
    gen: &WebGenerator,
    cfg: &VisitConfig,
    sites: usize,
    threads: usize,
) -> Result<(Store, CrawlTally)> {
    let store = {
        let _s = span("crawlstore.open");
        open_store_with(dir, gen, cfg, 1, sites, SegmentFormat::Binary)
            .map_err(store_err("open store"))?
    };
    let tally = if trace::on() {
        traced_crawl(&store, gen, cfg, sites, threads)?
    } else {
        let sink = TimedSink {
            store: &store,
            tally: Mutex::new(CrawlTally::default()),
        };
        crawl_into(gen, cfg, 1, sites, threads, &sink).map_err(|e| format!("crawl: {e}"))?;
        sink.tally.into_inner().expect("tally poisoned")
    };
    let stats = store.stats().map_err(store_err("store stats"))?;
    count("crawl.runs", 1.0);
    count("crawl.visits", tally.visits as f64);
    count("crawl.cookie_ops", tally.cookie_ops as f64);
    count("crawl.bytes", stats.bytes as f64);
    Ok((
        Store {
            dir: dir.to_path_buf(),
            visits: stats.records,
            bytes: stats.bytes,
        },
        tally,
    ))
}

fn traced_crawl(
    store: &CrawlWriter,
    gen: &WebGenerator,
    cfg: &VisitConfig,
    sites: usize,
    threads: usize,
) -> Result<CrawlTally> {
    let next = AtomicUsize::new(1);
    let parent = trace::current();
    let workers: Vec<Result<_>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| {
                s.spawn(|| -> Result<_> {
                    let root = span_under("crawl.worker", parent);
                    let mut seg = store.segment().map_err(store_err("open segment"))?;
                    let mut tally = CrawlTally::default();
                    loop {
                        let rank = next.fetch_add(1, Ordering::Relaxed);
                        if rank > sites {
                            break;
                        }
                        let t0 = Instant::now();
                        let blueprint = {
                            let _s = span("webgen.blueprint");
                            gen.blueprint(rank)
                        };
                        let outcome = {
                            let _s = span("browser.visit");
                            visit_site(&blueprint, cfg, gen.site_seed(rank) ^ 0x51_7e)
                        };
                        tally.latency.push(sample(rank, t0));
                        {
                            let _s = span("crawlstore.record");
                            seg.record(&outcome.log).map_err(store_err("record"))?;
                        }
                        tally.add(&outcome);
                    }
                    drop(root);
                    trace::flush();
                    Ok((seg, tally))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("crawl worker panicked"))
            .collect()
    });
    let mut tally = CrawlTally::default();
    for worker in workers {
        let (seg, t) = worker?;
        let _s = span("crawlstore.merge");
        store
            .merge(seg)
            .map_err(|e| format!("merge segment: {e}"))?;
        tally.merge(t);
    }
    Ok(tally)
}

/// Decodes every frame of `chunk`, handing each visit to `fold` inside
/// its own span. Used only by the traced folds.
fn fold_chunk<T>(
    parent: u64,
    mut chunk: ChunkStream,
    mut acc: T,
    fold_name: &'static str,
    fold: impl Fn(&mut T, &VisitLog),
) -> std::result::Result<T, StoreError> {
    let root = span_under("fold.chunk", parent);
    loop {
        let log = {
            let _s = span("crawlstore.decode");
            chunk.next_log()?
        };
        let Some(log) = log else { break };
        let _s = span(fold_name);
        fold(&mut acc, &log);
    }
    drop(root);
    trace::flush();
    Ok(acc)
}

/// The traced form of a layer's `from_store_with`: `par_fold_with` over
/// mmap with `fold` per visit, partials then merged in order.
fn traced_fold<T: Send>(
    store: &Store,
    threads: usize,
    fold_name: &'static str,
    init: impl Fn() -> T + Sync,
    fold: impl Fn(&mut T, &VisitLog) + Sync,
    merge_name: &'static str,
    merge: impl Fn(T, T) -> T,
) -> std::result::Result<T, StoreError> {
    let partials = {
        let _s = span("fold.par");
        let parent = trace::current();
        par_fold_with(&store.dir, threads, ReadBackend::Mmap, |chunk| {
            fold_chunk(parent, chunk, init(), fold_name, &fold)
        })?
    };
    count("fold.calls", 1.0);
    count("fold.partials", partials.len() as f64);
    count("fold.bytes", store.bytes as f64);
    let _m = span(merge_name);
    Ok(partials.into_iter().fold(init(), merge))
}

/// Folds the store into crawl statistics at `threads` over mmap.
pub fn stream_stats(store: &Store, threads: usize) -> Result<StreamStats> {
    let _s = span("analysis.pass");
    if trace::on() {
        traced_fold(
            store,
            threads,
            "analysis.fold",
            StreamStats::default,
            StreamStats::fold,
            "analysis.merge",
            StreamStats::merge,
        )
    } else {
        StreamStats::from_store_with(&store.dir, threads, ReadBackend::Mmap)
    }
    .map_err(store_err("stream stats"))
}

/// Folds the store into detection aggregates (full pipeline) at
/// `threads` over mmap, then scores them.
pub fn detect(store: &Store, engine: &DetectEngine, threads: usize) -> Result<DetectReport> {
    let stats = {
        let _s = span("detect.pass");
        if trace::on() {
            traced_fold(
                store,
                threads,
                "detect.fold",
                || DetectStats::new(engine, Stages::Full),
                DetectStats::fold,
                "detect.merge",
                DetectStats::merge,
            )
        } else {
            DetectStats::from_store_with(
                engine,
                Stages::Full,
                &store.dir,
                threads,
                ReadBackend::Mmap,
            )
        }
        .map_err(store_err("detect"))?
    };
    let _s = span("detect.report");
    Ok(DetectReport::from_stats(&stats))
}

/// One analysis of a stored crawl (§5 measurement plus detection): the
/// crawl statistics, then the detection report.
pub fn analyze(
    store: &Store,
    engine: &DetectEngine,
    threads: usize,
) -> Result<(StreamStats, DetectReport)> {
    let _s = span("analyze.job");
    count("analyze.job_visits", store.visits as f64);
    let stats = stream_stats(store, threads)?;
    let report = detect(store, engine, threads)?;
    Ok((stats, report))
}

/// The reference for the folds' output checks: crawl statistics and,
/// given an engine, the detection report, folded one visit at a time on
/// one thread through `CrawlReader`.
pub fn sequential(
    store: &Store,
    engine: Option<&DetectEngine>,
) -> Result<(StreamStats, Option<DetectReport>)> {
    let open = || CrawlReader::open(&store.dir).map_err(store_err("open reader"));
    let stats = StreamStats::from_reader(open()?).map_err(store_err("sequential stats"))?;
    let report = match engine {
        Some(engine) => Some(DetectReport::from_stats(
            &DetectStats::from_reader(engine, Stages::Full, open()?)
                .map_err(store_err("sequential detect"))?,
        )),
        None => None,
    };
    Ok((stats, report))
}

/// Frame-index chunks the folds cut the store into.
pub fn chunk_count(store: &Store) -> Result<usize> {
    Ok(plan_chunks(&store.dir)
        .map_err(store_err("plan chunks"))?
        .len())
}

/// Lowers every visit of the store to its replay script, in rank order.
pub fn extract(store: &Store) -> Result<Vec<VisitScript>> {
    let reader = CrawlReader::open(&store.dir).map_err(store_err("open reader"))?;
    let mut scripts = Vec::with_capacity(store.visits as usize);
    let mut logs = reader.into_iter();
    loop {
        let log = {
            let _s = span("crawlstore.read");
            logs.next()
        };
        let Some(log) = log else { break };
        let log = log.map_err(store_err("read store"))?;
        let _s = span("service.extract");
        scripts.push(extract_script(&log));
    }
    Ok(scripts)
}

/// One replay operation with its names borrowed from the owning script,
/// reads already holding their name slice.
pub enum Op<'a> {
    Write(&'a Caller, &'a str),
    Delete(&'a Caller, &'a str),
    Header(&'a str, &'a str),
    Read(&'a Caller, Vec<&'a str>),
}

pub struct Prepared<'a> {
    pub site: &'a str,
    pub rank: u64,
    pub ops: Vec<Op<'a>>,
}

pub fn prepare(scripts: &[VisitScript]) -> Vec<Prepared<'_>> {
    scripts
        .iter()
        .map(|s| Prepared {
            site: &s.site,
            rank: s.rank,
            ops: s
                .ops
                .iter()
                .map(|op| match op {
                    ReplayOp::Write { caller, name } => Op::Write(caller, name),
                    ReplayOp::Delete { caller, name } => Op::Delete(caller, name),
                    ReplayOp::HeaderSet { name, domain } => Op::Header(name, domain),
                    ReplayOp::Read { caller, names } => {
                        Op::Read(caller, names.iter().map(String::as_str).collect())
                    }
                })
                .collect(),
        })
        .collect()
}

/// The two-tenant roster of `cg-experiments serve`: the paper's strict
/// policy, and strict with the built-in entity map.
pub fn service() -> (GuardService, [TenantId; 2]) {
    let mut svc = GuardService::new();
    let strict = svc.register("strict", GuardConfig::strict());
    let grouped = svc.register(
        "entity-grouped",
        GuardConfig::strict().with_entity_grouping(cg_entity::builtin_entity_map()),
    );
    (svc, [strict, grouped])
}

/// The two hot-swaps of `cg-experiments serve`, as (after how many
/// visits, tenant, new policy).
pub fn swap_points(total_visits: u64, tenants: [TenantId; 2]) -> Vec<(u64, TenantId, GuardConfig)> {
    vec![
        (
            total_visits / 4,
            tenants[0],
            GuardConfig::strict().with_whitelisted("cdn.swap-probe"),
        ),
        (total_visits / 2, tenants[1], GuardConfig::relaxed()),
    ]
}

/// What one session decided.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Decided {
    pub writes_allowed: u64,
    pub writes_blocked: u64,
    pub deletes_allowed: u64,
    pub deletes_blocked: u64,
    pub reads: u64,
    pub names_kept: u64,
    pub names_filtered: u64,
    pub headers: u64,
}

impl Decided {
    fn add(&mut self, o: &Decided) {
        self.writes_allowed += o.writes_allowed;
        self.writes_blocked += o.writes_blocked;
        self.deletes_allowed += o.deletes_allowed;
        self.deletes_blocked += o.deletes_blocked;
        self.reads += o.reads;
        self.names_kept += o.names_kept;
        self.names_filtered += o.names_filtered;
        self.headers += o.headers;
    }
}

/// Runs every op of `script` on `session` and tallies the decisions.
fn decide(session: &mut GuardSession, script: &Prepared<'_>) -> Decided {
    let mut d = Decided::default();
    for op in &script.ops {
        match op {
            Op::Write(caller, name) => {
                let _s = span("core.decide");
                if session.authorize_write(caller, name).is_allow() {
                    d.writes_allowed += 1;
                } else {
                    d.writes_blocked += 1;
                }
            }
            Op::Delete(caller, name) => {
                let _s = span("core.decide");
                if session.authorize_delete(caller, name).is_allow() {
                    d.deletes_allowed += 1;
                } else {
                    d.deletes_blocked += 1;
                }
            }
            Op::Header(name, domain) => {
                let _s = span("core.record");
                session.record_http_set_cookie(name, domain);
                d.headers += 1;
            }
            Op::Read(caller, names) => {
                let kept = {
                    let _s = span("core.decide");
                    session.filter_names(caller, names).len() as u64
                };
                d.reads += 1;
                d.names_kept += kept;
                d.names_filtered += names.len() as u64 - kept;
            }
        }
    }
    d
}

/// The decisions each script must get from an engine of either epoch
/// (indexed by epoch) of the tenant it routes to: every script run
/// alone, one thread, on sessions opened straight on that epoch's
/// engine, with no service, cache or swap in between.
pub fn reference_decisions(scripts: &[Prepared<'_>]) -> Vec<[Decided; 2]> {
    let (svc, tenants) = service();
    let engines = |svc: &GuardService| tenants.map(|t| svc.slot(t).current());
    let before = engines(&svc);
    for (_, tenant, config) in swap_points(0, tenants) {
        svc.swap_policy(tenant, config);
    }
    let after = engines(&svc);
    scripts
        .iter()
        .map(|s| {
            let t = svc.route(s.rank).index();
            [&before[t], &after[t]]
                .map(|engine| decide(&mut GuardSession::new(engine.clone(), s.site), s))
        })
        .collect()
}

/// What one replay did.
#[derive(Debug, Default)]
pub struct Served {
    pub totals: ServiceCounters,
    pub decided: Decided,
    /// Sessions whose decisions differ from the reference for their
    /// script and epoch.
    pub mismatched: u64,
    pub swaps: Vec<SwapReport>,
    /// Retired engines still alive after the replay drained.
    pub undrained: usize,
    /// Per-session latency, route → open → all ops → close, keyed by
    /// script index.
    pub latency: Vec<Sample>,
    /// Wall time of the replay itself, seconds.
    pub wall_s: f64,
}

/// Replays `scripts` `passes` times through a fresh two-tenant service
/// at `workers` closed-loop workers. The worker whose visit crosses a
/// swap threshold performs that swap, so swaps race live traffic with no
/// poller thread. Every session's decisions are checked against
/// `expected` (see [`reference_decisions`]) for its script and epoch.
pub fn serve(
    scripts: &[Prepared<'_>],
    expected: &[[Decided; 2]],
    passes: u32,
    workers: usize,
) -> Served {
    let (svc, tenants) = service();
    let total = scripts.len() as u64 * u64::from(passes);
    let swaps = swap_points(total, tenants);
    let done = AtomicU64::new(0);
    let fired = Mutex::new(Vec::new());
    let cursors: Vec<AtomicUsize> = (0..passes).map(|_| AtomicUsize::new(0)).collect();
    let replay = span("serve.replay");
    let parent = trace::current();
    let start = Instant::now();
    let results: Vec<(ServiceCounters, Decided, u64, Vec<Sample>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|_| {
                s.spawn(|| {
                    let root = span_under("serve.worker", parent);
                    let mut caches: Vec<_> = svc
                        .tenants()
                        .map(|(_, t)| cg_service::EngineCache::new(t.slot()))
                        .collect();
                    let mut t = ServiceCounters::default();
                    let (mut decided, mut mismatched) = (Decided::default(), 0);
                    let mut latency = Vec::new();
                    for cursor in &cursors {
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(script) = scripts.get(i) else { break };
                            let t0 = Instant::now();
                            let (epoch, d) = session(&svc, &mut caches, script, &mut t);
                            latency.push(sample(i, t0));
                            let want = expected.get(i).and_then(|e| e.get(epoch as usize));
                            mismatched += u64::from(want != Some(&d));
                            decided.add(&d);
                            let n = done.fetch_add(1, Ordering::AcqRel) + 1;
                            for (after, tenant, config) in &swaps {
                                if n == *after {
                                    let _s = span("service.swap");
                                    let report = svc.swap_policy(*tenant, config.clone());
                                    fired.lock().expect("swap list poisoned").push(report);
                                }
                            }
                        }
                    }
                    drop(root);
                    trace::flush();
                    (t, decided, mismatched, latency)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("serve worker panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    drop(replay);
    let mut served = Served {
        wall_s,
        swaps: fired.into_inner().expect("swap list poisoned"),
        undrained: svc.undrained().len(),
        ..Served::default()
    };
    served.swaps.sort_by_key(|r| r.to_epoch);
    for (t, decided, mismatched, latency) in results {
        served.totals = served.totals.merge(&t);
        served.decided.add(&decided);
        served.mismatched += mismatched;
        served.latency.extend(latency);
    }
    count("serve.read_ops", served.totals.read_ops as f64);
    count(
        "serve.cookies_presented",
        served.totals.cookies_presented as f64,
    );
    for swap in &served.swaps {
        count("serve.swaps", 1.0);
        count("serve.swap_compile_ns", swap.compile_ns as f64);
        count("serve.swap_install_ns", swap.install_ns as f64);
    }
    served
}

/// One visit through the service: route, open, every op, close. Returns
/// the epoch the session opened on and what it decided.
fn session(
    svc: &GuardService,
    caches: &mut [cg_service::EngineCache],
    script: &Prepared<'_>,
    t: &mut ServiceCounters,
) -> (u64, Decided) {
    let _s = span("serve.session");
    let tenant = svc.route(script.rank);
    let mut session = {
        let _s = span("service.open");
        svc.open_session_cached(tenant, &mut caches[tenant.index()], script.site)
    };
    t.sessions_opened += 1;
    let d = decide(&mut session, script);
    let epoch = session.policy_epoch();
    {
        let _s = span("service.close");
        drop(session);
    }
    let (writes, deletes) = (
        d.writes_allowed + d.writes_blocked,
        d.deletes_allowed + d.deletes_blocked,
    );
    t.write_ops += writes;
    t.delete_ops += deletes;
    t.read_ops += d.reads;
    t.header_sets += d.headers;
    t.decisions += writes + deletes + d.reads;
    t.cookies_presented += d.names_kept + d.names_filtered;
    t.sessions_closed += 1;
    t.visits += 1;
    (epoch, d)
}
