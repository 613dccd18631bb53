//! Turning a run into numbers: quantiles, peak RSS, the host block, the
//! per-layer metrics and self-time table of a traced run, and the final
//! JSON line.

use crate::trace::{self, Record};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io::Write as _;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Linear-interpolated quantile of sorted values (NaN when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Resets the process's RSS high-water mark (`VmHWM`), so the next
/// reading covers only what runs after this call.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` in MB (NaN where the kernel does not report it).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Prints the host block and the input sizes.
pub fn print_host(workload: &str, seed: u64, seconds: f64, traced: bool, sz: &crate::Sizes) {
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
    println!("host nproc={} cpu=\"{cpu}\" kernel={kernel}", sz.threads);
    println!(
        "input workload={workload} sites={} passes={} threads={} seed={seed} seconds={seconds} trace={}",
        sz.sites,
        sz.passes,
        sz.threads,
        u8::from(traced)
    );
}

/// Structural spans: the benchmark's own loops, not a layer's work.
/// Their self time is what the trace leaves unattributed.
const STRUCTURAL: [&str; 11] = [
    "iter",
    "setup",
    "tail",
    "crawl.worker",
    "fold.par",
    "fold.chunk",
    "analysis.pass",
    "detect.pass",
    "analyze.job",
    "serve.replay",
    "serve.worker",
];

/// The per-layer metrics of a traced run.
pub fn per_layer(
    spans: &[Record],
    counts: &BTreeMap<&'static str, f64>,
    threads: usize,
    chunks: f64,
    overhead: f64,
) -> Vec<Metric> {
    let selfs = trace::self_times(spans);
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, r)| (r.id, i)).collect();
    let mut durs: HashMap<&str, Vec<f64>> = HashMap::new();
    for r in spans {
        durs.entry(r.name).or_default().push(r.dur() as f64);
    }
    for v in durs.values_mut() {
        v.sort_by(f64::total_cmp);
    }
    let none = Vec::new();
    let d = |name: &str| durs.get(name).unwrap_or(&none);
    let mean = |name: &str| d(name).iter().sum::<f64>() / d(name).len() as f64;
    let sum = |name: &str| d(name).iter().sum::<f64>();
    let q = |name: &str, p: f64| quantile(d(name), p);
    let c = |key: &str| counts.get(key).copied().unwrap_or(f64::NAN);
    let ancestors = |i: usize| {
        std::iter::successors(index.get(&spans[i].parent).copied(), |&j| {
            index.get(&spans[j].parent).copied()
        })
    };

    // Unattributed share of the traced units of work.
    let (mut structural, mut all) = (0u64, 0u64);
    for (i, r) in spans.iter().enumerate() {
        let root = ancestors(i).last().map_or(r.name, |j| spans[j].name);
        if root == "iter" {
            all += selfs[i];
            if STRUCTURAL.contains(&r.name) {
                structural += selfs[i];
            }
        }
    }

    // Fold workers: chunk time over (fold wall × workers that had work).
    let mut per_fold: HashMap<usize, (f64, usize)> = HashMap::new();
    for r in spans.iter().filter(|r| r.name == "fold.chunk") {
        if let Some(&p) = index.get(&r.parent) {
            let e = per_fold.entry(p).or_default();
            e.0 += r.dur() as f64;
            e.1 += 1;
        }
    }
    let (busy, capacity) = per_fold.iter().fold((0.0, 0.0), |(b, cap), (&p, &(t, n))| {
        (b + t, cap + spans[p].dur() as f64 * n.min(threads) as f64)
    });

    let decoded_in_jobs = spans
        .iter()
        .enumerate()
        .filter(|(_, r)| r.name == "analysis.fold" || r.name == "detect.fold")
        .filter(|&(i, _)| ancestors(i).any(|j| spans[j].name == "analyze.job"))
        .count() as f64;

    vec![
        Metric::new("webgen.blueprint_us", mean("webgen.blueprint") / 1e3, "us"),
        Metric::new("browser.visit_us", mean("browser.visit") / 1e3, "us"),
        Metric::new("browser.visit_p99_us", q("browser.visit", 0.99) / 1e3, "us"),
        Metric::new(
            "browser.ops_per_visit",
            c("crawl.cookie_ops") / c("crawl.visits"),
            "count",
        ),
        Metric::new(
            "crawlstore.record_us",
            mean("crawlstore.record") / 1e3,
            "us",
        ),
        Metric::new(
            "crawlstore.record_p99_us",
            q("crawlstore.record", 0.99) / 1e3,
            "us",
        ),
        Metric::new(
            "crawlstore.merge_ms",
            sum("crawlstore.merge") / c("crawl.runs") / 1e6,
            "ms",
        ),
        Metric::new(
            "crawlstore.bytes_per_visit",
            c("crawl.bytes") / c("crawl.visits"),
            "bytes",
        ),
        Metric::new(
            "crawlstore.decode_us",
            mean("crawlstore.decode") / 1e3,
            "us",
        ),
        Metric::new(
            "crawlstore.decode_mb_per_s",
            c("fold.bytes") / 1e6 / (sum("crawlstore.decode") / 1e9),
            "MB/s",
        ),
        Metric::new(
            "crawlstore.decodes_per_visit",
            decoded_in_jobs / c("analyze.job_visits"),
            "ratio",
        ),
        Metric::new("crawlstore.chunks", chunks, "count"),
        Metric::new(
            "fold.partials",
            c("fold.partials") / c("fold.calls"),
            "count",
        ),
        Metric::new("fold.worker_idle_frac", 1.0 - busy / capacity, "ratio"),
        Metric::new("analysis.fold_us", mean("analysis.fold") / 1e3, "us"),
        Metric::new("analysis.merge_ms", mean("analysis.merge") / 1e6, "ms"),
        Metric::new("detect.fold_us", mean("detect.fold") / 1e3, "us"),
        Metric::new("detect.merge_ms", mean("detect.merge") / 1e6, "ms"),
        Metric::new("detect.report_ms", mean("detect.report") / 1e6, "ms"),
        Metric::new("service.open_ns", mean("service.open"), "ns"),
        Metric::new("service.close_ns", mean("service.close"), "ns"),
        Metric::new(
            "service.swap_compile_us",
            c("serve.swap_compile_ns") / c("serve.swaps") / 1e3,
            "us",
        ),
        Metric::new(
            "service.swap_install_ns",
            c("serve.swap_install_ns") / c("serve.swaps"),
            "ns",
        ),
        Metric::new("service.extract_us", mean("service.extract") / 1e3, "us"),
        Metric::new(
            "serve.worker_idle_frac",
            1.0 - sum("serve.session") / (sum("serve.replay") * threads as f64),
            "ratio",
        ),
        Metric::new("core.decide_p50_ns", q("core.decide", 0.50), "ns"),
        Metric::new("core.decide_p99_ns", q("core.decide", 0.99), "ns"),
        Metric::new(
            "core.names_per_read",
            c("serve.cookies_presented") / c("serve.read_ops"),
            "count",
        ),
        Metric::new(
            "trace.untraced_frac",
            structural as f64 / all as f64,
            "ratio",
        ),
        Metric::new("trace.overhead_frac", overhead, "ratio"),
    ]
}

/// Per span name: count, total and self time, sorted by self time.
pub fn self_time_table(spans: &[Record]) -> String {
    let selfs = trace::self_times(spans);
    let mut rows: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (r, s) in spans.iter().zip(&selfs) {
        let row = rows.entry(r.name).or_default();
        row.0 += 1;
        row.1 += r.dur();
        row.2 += s;
    }
    let total_self: u64 = selfs.iter().sum();
    let mut rows: Vec<_> = rows.into_iter().collect();
    rows.sort_by_key(|(name, (_, _, s))| (std::cmp::Reverse(*s), *name));
    let mut out = format!(
        "{:<22} {:>9} {:>12} {:>12} {:>7} {:>11}\n",
        "span", "count", "total_ms", "self_ms", "self%", "mean_us"
    );
    for (name, (n, total, own)) in rows {
        let _ = writeln!(
            out,
            "{:<22} {:>9} {:>12.3} {:>12.3} {:>7.2} {:>11.3}",
            name,
            n,
            total as f64 / 1e6,
            own as f64 / 1e6,
            100.0 * own as f64 / total_self.max(1) as f64,
            total as f64 / n as f64 / 1e3
        );
    }
    out
}

/// Writes the spans (one per line: id, parent, name, thread, start and
/// end in ns since the trace epoch) and the self-time table under
/// `.bench_work/`.
pub fn write_trace(spans: &[Record], table: &str, workload: &str) -> std::io::Result<()> {
    let dir = std::path::Path::new(".bench_work");
    let file = std::fs::File::create(dir.join(format!("trace-{workload}.tsv")))?;
    let mut w = std::io::BufWriter::new(file);
    writeln!(w, "id\tparent\tname\tthread\tstart_ns\tend_ns")?;
    for r in spans {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}",
            r.id, r.parent, r.name, r.thread, r.start, r.end
        )?;
    }
    w.flush()?;
    std::fs::write(dir.join(format!("trace-{workload}-selftime.txt")), table)
}

/// The last line of output. Metrics print one per line before it, for
/// people.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut body = Vec::new();
    for m in metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        body.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
