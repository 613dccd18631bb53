//! `perfbench`: the repository's seeded benchmark.
//!
//! ```text
//! perfbench --workload crawl|analyze|serve --seed N --seconds S --trace 0|1
//!           [--sites N]
//! ```
//!
//! Each workload sets up its inputs from the seed (several times; the
//! median is `setup_s`), then repeats its unit of work for `--seconds`
//! in a closed loop at `nproc` threads, checks every output, and prints
//! its metrics. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones, from spans this program records around each call
//! into a layer (see `trace.rs`). The spans and a self-time table are
//! written under `.bench_work/` once the run is over. The process exits
//! 1 when any output check fails and 2 on bad arguments.

mod report;
mod stages;
mod trace;

use report::{median, quantile, Metric};
use stages::{Prepared, Sample, Store};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// An untraced run sets up at least [`SETUP_REPS`] times and until
/// [`SETUP_MIN_S`] seconds have gone by; `setup_s` is the median.
const SETUP_REPS: usize = 3;
const SETUP_MIN_S: f64 = 1.0;
/// Passes `serve` makes over its scripts per unit of work.
const SERVE_PASSES: u32 = 2;
/// The detector's acceptance floors (instance precision and recall).
/// They are a claim about crawls of at least [`MIN_SCORED_VISITS`]
/// visits: on the 2000-visit `analyze` store the scores scatter by seed
/// (recall as low as 0.80), so smaller stores report the scores without
/// gating on them.
const PRECISION_FLOOR: f64 = 0.95;
const RECALL_FLOOR: f64 = 0.90;
const MIN_SCORED_VISITS: u64 = 10_000;

#[derive(Clone, Copy)]
enum Workload {
    Crawl,
    Analyze,
    Serve,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Crawl => "crawl",
            Workload::Analyze => "analyze",
            Workload::Serve => "serve",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    sites: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut sites = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "crawl" => Workload::Crawl,
                    "analyze" => Workload::Analyze,
                    "serve" => Workload::Serve,
                    _ => {
                        return Err(format!(
                            "unknown workload {value:?} (crawl, analyze, serve)"
                        ))
                    }
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            "--sites" => sites = Some(value.parse::<usize>().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    if sites.is_some_and(|n| n < 8) {
        return Err("--sites must be at least 8".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: traced.ok_or("--trace is required")?,
        sites,
    })
}

/// Input sizes. On a 2-core host the defaults make one unit of work
/// take about 0.1 s (serve) to 2 s (crawl), so a 30 s run repeats it
/// 15 to 300 times.
struct Sizes {
    sites: usize,
    passes: u32,
    threads: usize,
}

fn sizes(args: &Args) -> Sizes {
    let (sites, passes) = match args.workload {
        Workload::Crawl => (2000, 1),
        Workload::Analyze => (2000, 1),
        Workload::Serve => (2000, SERVE_PASSES),
    };
    Sizes {
        sites: args.sites.unwrap_or(sites),
        passes,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// What one unit of work produced.
struct Iter {
    wall_s: f64,
    /// Visits carried from input to result.
    visits: u64,
    decisions: u64,
    /// One latency sample per visit (crawl, serve); none for analyze,
    /// whose latency is the unit's own wall time.
    latency: Vec<Sample>,
    /// Digest of the deterministic output; must equal the workload's
    /// reference digest.
    digest: String,
    /// Output checks this unit failed.
    errors: Vec<String>,
}

impl Iter {
    fn failed(wall_s: f64, visits: u64, error: String) -> Iter {
        Iter {
            wall_s,
            visits,
            decisions: 0,
            latency: Vec::new(),
            digest: String::new(),
            errors: vec![error],
        }
    }
}

fn digest(parts: &[&str]) -> String {
    cg_hash::sha1_hex(parts.concat().as_bytes())
}

/// Spans a traced run keeps at most (about 25 MB in memory); once they
/// are used up, the rest of the timed phase runs untraced.
const SPAN_BUDGET: usize = 500_000;

/// Untimed units of work run for at least this long, and at least once,
/// before the timed phase: a host that sat idle runs slow for its first
/// seconds of load.
const WARMUP_S: f64 = 2.0;

/// Every unit of work of the timed phase, after the untimed warm-up
/// units. In a traced run, odd units run traced and even ones untraced,
/// for the tracing overhead.
#[derive(Default)]
struct Timed {
    warmup: Vec<Iter>,
    untraced: Vec<Iter>,
    traced: Vec<Iter>,
    peak_rss_mb: f64,
}

fn timed(seconds: f64, traced: bool, mut unit: impl FnMut() -> Iter) -> Timed {
    // Warm-up units pay for cold caches and first-touch page faults;
    // their outputs are checked like every other unit's.
    let mut out = Timed::default();
    let warm = Instant::now();
    while out.warmup.is_empty() || warm.elapsed().as_secs_f64() < WARMUP_S {
        out.warmup.push(unit());
    }
    report::reset_peak_rss();
    let start = Instant::now();
    for k in 0.. {
        let on = traced && k % 2 == 1 && trace::recorded() < SPAN_BUDGET;
        trace::set(on);
        let it = {
            let _s = trace::span("iter");
            unit()
        };
        trace::set(false);
        if on {
            out.traced.push(it);
        } else {
            out.untraced.push(it);
        }
        if start.elapsed().as_secs_f64() >= seconds && (!traced || !out.traced.is_empty()) {
            break;
        }
    }
    out.peak_rss_mb = report::peak_rss_mb();
    out
}

/// Runs `f` at least [`SETUP_REPS`] times and for at least
/// [`SETUP_MIN_S`] (once when traced) and returns the last result with
/// the median time.
fn set_up<T>(traced: bool, mut f: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.is_empty()
        || (!traced && (times.len() < SETUP_REPS || start.elapsed().as_secs_f64() < SETUP_MIN_S))
    {
        trace::set(traced);
        let t0 = Instant::now();
        let value = {
            let _s = trace::span("setup");
            f()?
        };
        times.push(t0.elapsed().as_secs_f64());
        trace::set(false);
        last = Some(value);
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

/// Runs the traced run's tail: the pipeline stages the workload's own
/// phase does not reach, once, so every layer is measured.
fn tail(f: impl FnOnce() -> Result<(), String>) -> Result<(), String> {
    trace::set(true);
    let result = {
        let _s = trace::span("tail");
        f()
    };
    trace::set(false);
    result
}

fn fresh(dir: &Path) -> PathBuf {
    let _ = std::fs::remove_dir_all(dir);
    dir.to_path_buf()
}

fn detect_engine(gen: &cg_webgen::WebGenerator) -> cg_detect::DetectEngine {
    cg_detect::DetectEngine::compile(
        &cg_webgen::CookieLabels::derive(gen.registry()),
        cg_entity::builtin_entity_map(),
        cg_detect::DetectConfig::default(),
    )
}

/// The measurement crawl's visit configuration: unguarded, CNAMEs
/// resolved (setter identity is a detection feature).
fn measurement_config() -> cg_browser::VisitConfig {
    cg_browser::VisitConfig {
        resolve_cnames: true,
        ..cg_browser::VisitConfig::regular()
    }
}

/// Everything a workload hands back for reporting.
struct Outcome {
    setup_s: f64,
    timed: Timed,
    /// The store the run analyzed last, for the chunk count.
    store: Store,
    /// Digest of the same output computed another way, untimed: every
    /// unit's digest must equal it.
    reference: String,
}

fn run_crawl(args: &Args, sz: &Sizes, work: &Path) -> Result<Outcome, String> {
    let ((gen, cfg), setup_s) = set_up(args.trace, || {
        let gen = cg_webgen::WebGenerator::new(cg_webgen::GenConfig::small(sz.sites), args.seed);
        let cfg = cg_browser::VisitConfig::guarded(cookieguard_core::GuardConfig::strict());
        Ok((gen, cfg))
    })?;
    let dir = work.join("store");
    let mut last = None;
    let timed = timed(args.seconds, args.trace, || {
        let dir = fresh(&dir);
        let t0 = Instant::now();
        let result =
            stages::crawl(&dir, &gen, &cfg, sz.sites, sz.threads).and_then(|(store, tally)| {
                let stats = stages::stream_stats(&store, sz.threads)?;
                Ok((store, tally, stats))
            });
        let wall_s = t0.elapsed().as_secs_f64();
        let (store, tally, stats) = match result {
            Ok(r) => r,
            Err(e) => return Iter::failed(wall_s, sz.sites as u64, e),
        };
        let mut errors = Vec::new();
        if tally.visits != sz.sites as u64 || store.visits != tally.visits {
            errors.push(format!(
                "crawl visited {} and stored {} of {} sites",
                tally.visits, store.visits, sz.sites
            ));
        }
        last = Some(store);
        Iter {
            wall_s,
            visits: tally.visits,
            decisions: tally.guard_decisions,
            latency: tally.latency,
            digest: summary_digest(&stats),
            errors,
        }
    });
    let store = last.ok_or("no crawl finished")?;
    let (sequential, _) = stages::sequential(&store, None)?;
    if args.trace {
        tail(|| {
            let engine = detect_engine(&gen);
            stages::analyze(&store, &engine, sz.threads)?;
            let scripts = stages::extract(&store)?;
            let prepared = stages::prepare(&scripts);
            let expected = stages::reference_decisions(&prepared);
            stages::serve(&prepared, &expected, 1, sz.threads);
            Ok(())
        })?;
    }
    Ok(Outcome {
        setup_s,
        timed,
        reference: summary_digest(&sequential),
        store,
    })
}

/// The crawl's output: its `StreamStats` summary.
fn summary_digest(stats: &cg_analysis::StreamStats) -> String {
    digest(&[&serde_json::to_string(&stats.summary()).expect("summary serializes")])
}

/// The analysis's output: the full `StreamStats` and the report.
fn analysis_digest(stats: &cg_analysis::StreamStats, report: &cg_detect::DetectReport) -> String {
    let stats = serde_json::to_string(stats).expect("stats serialize");
    digest(&[&stats, &report.to_json()])
}

fn run_analyze(args: &Args, sz: &Sizes, work: &Path) -> Result<Outcome, String> {
    let dir = work.join("store");
    let ((gen, store, engine), setup_s) = set_up(args.trace, || {
        let gen = cg_webgen::WebGenerator::new(cg_webgen::GenConfig::small(sz.sites), args.seed);
        let (store, _) = stages::crawl(
            &fresh(&dir),
            &gen,
            &measurement_config(),
            sz.sites,
            sz.threads,
        )?;
        let engine = {
            let _s = trace::span("detect.compile");
            detect_engine(&gen)
        };
        Ok((gen, store, engine))
    })?;
    let mut scores = None;
    let timed = timed(args.seconds, args.trace, || {
        let t0 = Instant::now();
        let result = stages::analyze(&store, &engine, sz.threads);
        let wall_s = t0.elapsed().as_secs_f64();
        let (stats, report) = match result {
            Ok(r) => r,
            Err(e) => return Iter::failed(wall_s, store.visits, e),
        };
        let mut errors = Vec::new();
        let s = report.instance_scores;
        scores = Some(s);
        if store.visits >= MIN_SCORED_VISITS
            && (s.precision < PRECISION_FLOOR || s.recall < RECALL_FLOOR)
        {
            errors.push(format!(
                "instance precision {:.4} / recall {:.4} below {PRECISION_FLOOR} / {RECALL_FLOOR}",
                s.precision, s.recall
            ));
        }
        Iter {
            wall_s,
            visits: store.visits,
            decisions: s.tp + s.fp + s.fn_ + s.tn,
            latency: Vec::new(),
            digest: analysis_digest(&stats, &report),
            errors,
        }
    });
    if let Some(s) = scores {
        println!(
            "detect instance precision {:.4} recall {:.4} (floors {PRECISION_FLOOR} / \
             {RECALL_FLOOR} checked from {MIN_SCORED_VISITS} visits)",
            s.precision, s.recall
        );
    }
    let (stats, report) = stages::sequential(&store, Some(&engine))?;
    let reference = analysis_digest(&stats, &report.expect("detection requested"));
    if args.trace {
        tail(|| {
            let scripts = stages::extract(&store)?;
            let prepared = stages::prepare(&scripts);
            let expected = stages::reference_decisions(&prepared);
            stages::serve(&prepared, &expected, 1, sz.threads);
            Ok(())
        })?;
    }
    drop(gen);
    Ok(Outcome {
        setup_s,
        timed,
        store,
        reference,
    })
}

fn serve_checks(served: &stages::Served) -> Vec<String> {
    let mut errors = Vec::new();
    let t = &served.totals;
    if !t.drained() {
        errors.push(format!(
            "{} sessions opened, {} closed",
            t.sessions_opened, t.sessions_closed
        ));
    }
    if served.undrained != 0 {
        errors.push(format!("{} retired engines not drained", served.undrained));
    }
    if served.mismatched != 0 {
        errors.push(format!(
            "{} sessions decided otherwise than their script does alone on the same epoch",
            served.mismatched
        ));
    }
    // Every tenant's policy is strict or relaxed: each blocks some
    // writes and hides some names on this web, so a guard that lets
    // everything through fails here even if its reference does too.
    let d = &served.decided;
    if d.writes_blocked == 0 || d.names_filtered == 0 || d.writes_allowed == 0 || d.names_kept == 0
    {
        errors.push(format!("degenerate decisions: {d:?}"));
    }
    let gapless = served.swaps.len() == 2
        && served
            .swaps
            .iter()
            .all(|s| s.to_epoch == s.from_epoch + 1 && s.from_epoch == 0);
    if !gapless {
        errors.push(format!("swaps not gapless: {:?}", served.swaps));
    }
    errors
}

fn run_serve(args: &Args, sz: &Sizes, work: &Path) -> Result<Outcome, String> {
    let dir = work.join("store");
    let ((gen, store, scripts), crawl_s) = set_up(args.trace, || {
        let gen = cg_webgen::WebGenerator::new(cg_webgen::GenConfig::small(sz.sites), args.seed);
        let cfg = cg_browser::VisitConfig::regular();
        let (store, _) = stages::crawl(&fresh(&dir), &gen, &cfg, sz.sites, sz.threads)?;
        let scripts = stages::extract(&store)?;
        Ok((gen, store, scripts))
    })?;
    // Lowering reads into name slices borrows the scripts, so it is
    // timed on its own and added to the set-up time.
    let t0 = Instant::now();
    let prepared: Vec<Prepared<'_>> = stages::prepare(&scripts);
    let prepare_s = t0.elapsed().as_secs_f64();
    let expected = stages::reference_decisions(&prepared);
    let timed = timed(args.seconds, args.trace, || {
        let served = stages::serve(&prepared, &expected, sz.passes, sz.threads);
        Iter {
            wall_s: served.wall_s,
            visits: served.totals.visits,
            decisions: served.totals.decisions,
            digest: counters_digest(&served.totals),
            errors: serve_checks(&served),
            latency: served.latency,
        }
    });
    // The reference is the library's own replayer over the same store.
    let (svc, tenants) = stages::service();
    let total = store.visits * u64::from(sz.passes);
    let reference = cg_service::replay(
        &svc,
        &store.dir,
        &cg_service::ReplayOptions {
            workers: sz.threads,
            passes: sz.passes,
            source: cg_service::ReplaySource::Resident,
            swaps: stages::swap_points(total, tenants)
                .into_iter()
                .map(|(after_visits, tenant, config)| cg_service::SwapPoint {
                    after_visits,
                    tenant,
                    config,
                })
                .collect(),
            ..cg_service::ReplayOptions::default()
        },
    )
    .map_err(|e| format!("reference replay: {e}"))?;
    if args.trace {
        tail(|| {
            let engine = detect_engine(&gen);
            stages::analyze(&store, &engine, sz.threads)?;
            Ok(())
        })?;
    }
    Ok(Outcome {
        setup_s: crawl_s + prepare_s,
        timed,
        store,
        reference: counters_digest(&reference.counters),
    })
}

/// The replay's output: its operation totals.
fn counters_digest(counters: &cg_instrument::ServiceCounters) -> String {
    serde_json::to_string(counters).expect("counters serialize")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let sz = sizes(&args);
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(1);
    }
    report::print_host(
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        &sz,
    );

    let outcome = match args.workload {
        Workload::Crawl => run_crawl(&args, &sz, &work),
        Workload::Analyze => run_analyze(&args, &sz, &work),
        Workload::Serve => run_serve(&args, &sz, &work),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            let _ = std::fs::remove_dir_all(&work);
            eprintln!("perfbench: {e}");
            println!(r#"{{"correct": false, "attempted": 1, "failed": 1, "metrics": {{}}}}"#);
            std::process::exit(1);
        }
    };

    // Output checks: each unit's own, and its output against the
    // reference computed another way.
    let mut errors = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let timed = &outcome.timed;
    for it in timed
        .warmup
        .iter()
        .chain(&timed.untraced)
        .chain(&timed.traced)
    {
        attempted += it.visits.max(1);
        let diverged = it.digest != outcome.reference;
        if !it.errors.is_empty() || diverged {
            failed += it.visits.max(1);
            errors.extend(it.errors.iter().cloned());
            if diverged {
                errors.push(format!(
                    "{} output differs from its reference",
                    args.workload.name()
                ));
            }
        }
    }

    let metrics = if args.trace {
        let spans = trace::take();
        let counts = trace::counts();
        let chunks = stages::chunk_count(&outcome.store).unwrap_or_else(|e| {
            errors.push(e);
            0
        });
        let walls = |v: &[Iter]| median(&v.iter().map(|i| i.wall_s).collect::<Vec<_>>());
        let overhead = walls(&outcome.timed.traced) / walls(&outcome.timed.untraced) - 1.0;
        let table = report::self_time_table(&spans);
        print!("{table}");
        let name = args.workload.name();
        if let Err(e) = report::write_trace(&spans, &table, name) {
            errors.push(format!("writing trace: {e}"));
        }
        report::per_layer(&spans, &counts, sz.threads, chunks as f64, overhead)
    } else {
        end_to_end(&outcome)
    };
    let _ = std::fs::remove_dir_all(&work);

    errors.sort();
    errors.dedup();
    for e in &errors {
        eprintln!("check failed: {e}");
    }
    let correct = errors.is_empty() && metrics.iter().all(|m| m.value.is_finite());
    println!(
        "failed_frac {:.6} ratio ({failed} of {attempted} visits)",
        failed as f64 / attempted.max(1) as f64
    );
    println!(
        "{}",
        report::result_json(correct, attempted, failed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

/// The end-to-end metrics of an untraced run.
///
/// Time metrics take the best the run saw: the rates of its fastest unit
/// and each visit's fastest latency. This host's speed swings by a third
/// within seconds as its neighbours come and go, and they only ever slow
/// a unit down, so the best of a run tracks the program and a median
/// tracks the neighbours.
fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let units = &o.timed.untraced;
    let rate = |f: fn(&Iter) -> u64| {
        units
            .iter()
            .map(|i| f(i) as f64 / i.wall_s.max(1e-9))
            .fold(f64::NAN, f64::max)
    };
    let latency_us = item_latency_us(units);
    println!(
        "units {}, latency samples {}, items {}",
        units.len(),
        units.iter().map(|u| u.latency.len()).sum::<usize>(),
        latency_us.len()
    );
    let latency = |q: f64| quantile(&latency_us, q);
    vec![
        Metric::new("setup_s", o.setup_s, "s"),
        Metric::new("visits_per_s", rate(|i| i.visits), "visits/s"),
        Metric::new("decisions_per_s", rate(|i| i.decisions), "1/s"),
        Metric::new("session_p50_us", latency(0.50), "us"),
        Metric::new("session_p99_us", latency(0.99), "us"),
        Metric::new("peak_rss_mb", o.timed.peak_rss_mb, "MB"),
    ]
}

/// Sorted latencies, microseconds, one per item: every visit (site or
/// script) is timed once per unit, and its latency is its fastest sample
/// over the run. The 50th and 99th percentiles are taken over the items
/// (2000 by default: 20 beyond the 99th), so the 99th is the cost of the
/// heaviest visits, not of the host's stalls. Analyze has no per-visit
/// samples: the whole run is one item, the fastest analysis.
fn item_latency_us(units: &[Iter]) -> Vec<f64> {
    let mut best: Vec<u32> = Vec::new();
    for u in units {
        for &(item, ns) in &u.latency {
            let item = item as usize;
            if best.len() <= item {
                best.resize(item + 1, u32::MAX);
            }
            best[item] = best[item].min(ns);
        }
    }
    let mut us: Vec<f64> = if best.is_empty() {
        let fastest = units.iter().map(|u| u.wall_s).fold(f64::NAN, f64::min);
        vec![fastest * 1e6]
    } else {
        best.iter()
            .filter(|&&ns| ns != u32::MAX)
            .map(|&ns| f64::from(ns) / 1e3)
            .collect()
    };
    us.sort_by(f64::total_cmp);
    us
}
