//! CLI entry point: regenerate the paper's tables and figures.
//!
//! ```text
//! cg-experiments --exp all --sites 20000 --threads 8 --seed 12648430
//! cg-experiments --exp table1,fig2
//! cg-experiments --exp table4 --sites 20000 --json out.json
//! ```

use cg_experiments::{
    run_domguard, run_fig5, run_measurement_experiments, run_rollout, run_sec5_7, run_table3,
    run_table4_and_figs, CrawlContext, ExperimentOptions,
};

const MEASUREMENT_EXPERIMENTS: &[&str] = &[
    "crawl", "sec5_1", "sec5_2", "table1", "table2", "fig2", "sec5_5", "table5", "fig8", "sec5_6",
    "sec8_dom",
];
const EVALUATION_EXPERIMENTS: &[&str] = &[
    "fig5",
    "table3",
    "table4",
    "fig6",
    "fig7",
    "fig9",
    "fig10",
    "ablation",
    "sec5_7",
    "domguard",
    "rollout",
    "baselines",
    "csp",
    "stream",
];

/// Parses a numeric option value, exiting with a clear message instead
/// of silently falling back to the default (a typo'd `--sites` must not
/// quietly launch a full-size crawl).
fn parse_numeric_arg<T: std::str::FromStr>(value: Option<&String>, flag: &str) -> T {
    match value {
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("{flag} requires a number, got {s:?}; see --help");
            std::process::exit(2);
        }),
        None => {
            eprintln!("{flag} requires a value; see --help");
            std::process::exit(2);
        }
    }
}

/// Parses a path option value, exiting with a clear message when the
/// value is missing.
fn parse_path_arg(value: Option<&String>, flag: &str) -> std::path::PathBuf {
    match value {
        Some(p) => std::path::PathBuf::from(p),
        None => {
            eprintln!("{flag} requires a path; see --help");
            std::process::exit(2);
        }
    }
}

/// Parses and runs `cg-experiments scenarios [--seed S] [--threads T]
/// [--json PATH] [--golden PATH]` — the adversarial scenario catalog.
fn run_scenarios_cli(args: &[String]) -> ! {
    let mut opts = cg_experiments::ScenarioOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                i += 1;
                opts.seed = parse_numeric_arg(args.get(i), "--seed");
            }
            "--threads" => {
                i += 1;
                opts.threads = parse_numeric_arg(args.get(i), "--threads");
            }
            "--json" => {
                i += 1;
                opts.json = Some(parse_path_arg(args.get(i), "--json"));
            }
            "--golden" => {
                i += 1;
                opts.golden = Some(parse_path_arg(args.get(i), "--golden"));
            }
            other => {
                eprintln!("unknown scenarios argument {other:?}; see --help");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    match cg_experiments::run_scenarios(&opts) {
        Ok(_) => std::process::exit(0),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}

/// Parses and runs `cg-experiments serve [--sites N] [--seed S]
/// [--passes P] [--workers LIST] [--store DIR] [--bench-json PATH]
/// [--telemetry-snapshot PATH] [--telemetry-dump PATH]` — the
/// multi-tenant guard-service smoke.
fn run_serve_cli(args: &[String]) -> ! {
    let mut opts = cg_experiments::ServeOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--sites" => {
                i += 1;
                opts.sites = parse_numeric_arg(args.get(i), "--sites");
            }
            "--seed" => {
                i += 1;
                opts.seed = parse_numeric_arg(args.get(i), "--seed");
            }
            "--passes" => {
                i += 1;
                opts.passes = parse_numeric_arg(args.get(i), "--passes");
            }
            "--workers" => {
                i += 1;
                opts.worker_counts = match args.get(i) {
                    Some(list) => list
                        .split(',')
                        .map(|w| {
                            w.parse().unwrap_or_else(|_| {
                                eprintln!("--workers takes a comma-separated list, got {list:?}");
                                std::process::exit(2);
                            })
                        })
                        .collect(),
                    None => {
                        eprintln!("--workers requires a list (e.g. 2,8); see --help");
                        std::process::exit(2);
                    }
                };
            }
            "--store" => {
                i += 1;
                opts.store = Some(parse_path_arg(args.get(i), "--store"));
            }
            "--bench-json" => {
                i += 1;
                opts.bench_json = Some(parse_path_arg(args.get(i), "--bench-json"));
            }
            "--telemetry-snapshot" => {
                i += 1;
                opts.telemetry_snapshot = Some(parse_path_arg(args.get(i), "--telemetry-snapshot"));
            }
            "--telemetry-dump" => {
                i += 1;
                opts.telemetry_dump = Some(parse_path_arg(args.get(i), "--telemetry-dump"));
            }
            other => {
                eprintln!("unknown serve argument {other:?}; see --help");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let report = cg_experiments::run_serve(&opts);
    cg_experiments::print_serve(&report);
    if let Some(path) = &opts.bench_json {
        let json = serde_json::to_string_pretty(&serde_json::to_value(&report).expect("serialize"))
            .expect("serialize");
        match std::fs::write(path, json) {
            Ok(()) => println!("\nbench report written to {}", path.display()),
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    std::process::exit(0);
}

/// Parses and runs `cg-experiments detect [--sites N] [--seed S]
/// [--threads T] [--store DIR] [--bench-json PATH]
/// [--report-json PATH]` — the tracking-cookie detection smoke.
fn run_detect_cli(args: &[String]) -> ! {
    let mut opts = cg_experiments::DetectOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--sites" => {
                i += 1;
                opts.sites = parse_numeric_arg(args.get(i), "--sites");
            }
            "--seed" => {
                i += 1;
                opts.seed = parse_numeric_arg(args.get(i), "--seed");
            }
            "--threads" => {
                i += 1;
                opts.threads = parse_numeric_arg(args.get(i), "--threads");
            }
            "--store" => {
                i += 1;
                opts.store = Some(parse_path_arg(args.get(i), "--store"));
            }
            "--bench-json" => {
                i += 1;
                opts.bench_json = Some(parse_path_arg(args.get(i), "--bench-json"));
            }
            "--report-json" => {
                i += 1;
                opts.report_json = Some(parse_path_arg(args.get(i), "--report-json"));
            }
            other => {
                eprintln!("unknown detect argument {other:?}; see --help");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let report = cg_experiments::run_detect(&opts);
    if let Some(path) = &opts.bench_json {
        let json = serde_json::to_string_pretty(&serde_json::to_value(&report).expect("serialize"))
            .expect("serialize");
        match std::fs::write(path, json) {
            Ok(()) => println!("bench report written to {}", path.display()),
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    std::process::exit(0);
}

/// Parses and runs `cg-experiments export --jsonl DIR`: the store at DIR
/// as one JSON line per visit, in rank order, on stdout.
fn run_export_cli(args: &[String]) -> ! {
    let dir = match args {
        [flag, dir] if flag == "--jsonl" => std::path::PathBuf::from(dir),
        _ => {
            eprintln!("usage: cg-experiments export --jsonl DIR; see --help");
            std::process::exit(2);
        }
    };
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    match cg_experiments::export_jsonl(&dir, &mut out) {
        Ok(visits) => {
            eprintln!("[export] {visits} visits from {}", dir.display());
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("export {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("export") {
        run_export_cli(&args[2..]);
    }
    if args.get(1).map(String::as_str) == Some("scenarios") {
        run_scenarios_cli(&args[2..]);
    }
    if args.get(1).map(String::as_str) == Some("serve") {
        run_serve_cli(&args[2..]);
    }
    if args.get(1).map(String::as_str) == Some("detect") {
        run_detect_cli(&args[2..]);
    }
    let mut opts = ExperimentOptions::default();
    let mut exps: Vec<String> = vec!["all".to_string()];
    let mut json_path: Option<std::path::PathBuf> = None;

    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--exp" => {
                i += 1;
                exps = args
                    .get(i)
                    .map(|s| s.split(',').map(str::to_string).collect())
                    .unwrap_or_default();
            }
            "--sites" => {
                i += 1;
                opts.sites = parse_numeric_arg(args.get(i), "--sites");
            }
            "--seed" => {
                i += 1;
                opts.seed = parse_numeric_arg(args.get(i), "--seed");
            }
            "--threads" => {
                i += 1;
                opts.threads = parse_numeric_arg(args.get(i), "--threads");
            }
            "--json" => {
                i += 1;
                json_path = Some(parse_path_arg(args.get(i), "--json"));
            }
            "--store" => {
                i += 1;
                opts.store = Some(parse_path_arg(args.get(i), "--store"));
            }
            "--read-backend" => {
                i += 1;
                opts.read_backend = match args.get(i) {
                    Some(name) => name.parse().unwrap_or_else(|e| {
                        eprintln!("{e}; see --help");
                        std::process::exit(2);
                    }),
                    None => {
                        eprintln!("--read-backend requires mmap or pread; see --help");
                        std::process::exit(2);
                    }
                };
            }
            "--help" | "-h" => {
                print_help();
                return;
            }
            other => {
                eprintln!("unknown argument {other:?}; see --help");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let wanted: Vec<&str> = exps.iter().map(String::as_str).collect();
    let all = wanted.contains(&"all");
    let wants_measurement = all || wanted.iter().any(|e| MEASUREMENT_EXPERIMENTS.contains(e));
    let wants = |name: &str| all || wanted.contains(&name);

    for e in &wanted {
        if *e != "all"
            && !MEASUREMENT_EXPERIMENTS.contains(e)
            && !EVALUATION_EXPERIMENTS.contains(e)
        {
            eprintln!("unknown experiment {e:?}; see --help");
            std::process::exit(2);
        }
    }
    if wanted.contains(&"stream") && opts.store.is_none() {
        eprintln!("--exp stream requires --store DIR; see --help");
        std::process::exit(2);
    }

    println!(
        "CookieGuard reproduction — sites={} seed={:#x} threads={}",
        opts.sites, opts.seed, opts.threads
    );

    let mut json = serde_json::Map::new();

    if wants_measurement {
        eprintln!(
            "[crawl] generating ecosystem and crawling {} sites…",
            opts.sites
        );
        let ctx = CrawlContext::collect(&opts);
        let results = run_measurement_experiments(&ctx, &wanted);
        let mut v = serde_json::to_value(&results).expect("serialize");
        // The per-event intent findings are bulky; store the summary only.
        if let Some(obj) = v.get_mut("intents").and_then(|i| i.as_object_mut()) {
            obj.remove("findings");
        }
        json.insert("measurement".into(), v);
    }

    if wants("fig5") {
        eprintln!("[fig5] paired guarded/unguarded crawl…");
        let r = run_fig5(&opts);
        json.insert("fig5".into(), serde_json::to_value(&r).expect("serialize"));
    }

    if wants("ablation") && !wanted.contains(&"all") {
        // Not part of --exp all (it is 5 extra crawls); run explicitly.
        eprintln!("[ablation] five policy-variant crawls…");
        let rows = cg_experiments::run_ablation(&opts);
        json.insert(
            "ablation".into(),
            serde_json::to_value(&rows).expect("serialize"),
        );
    }

    if wants("sec5_7") {
        eprintln!("[sec5_7] server-side tracking, paired crawl…");
        let r = run_sec5_7(&opts);
        json.insert(
            "sec5_7".into(),
            serde_json::to_value(&r).expect("serialize"),
        );
    }

    if wants("domguard") {
        eprintln!("[domguard] DOM-isolation evaluation, three crawls…");
        let r = run_domguard(&opts);
        json.insert(
            "domguard".into(),
            serde_json::to_value(&r).expect("serialize"),
        );
    }

    if wants("baselines") && !wanted.contains(&"all") {
        // Explicit-only: the matrix performs seven extra crawls.
        eprintln!("[baselines] defense matrix (blocklist, partitioning, ML, guard)…");
        let r = cg_experiments::run_baselines(&opts);
        json.insert(
            "baselines".into(),
            serde_json::to_value(&r).expect("serialize"),
        );
    }

    if wants("csp") && !wanted.contains(&"all") {
        // Explicit-only: four extra crawls.
        eprintln!("[csp] §2.1 CSP-gap experiment…");
        let r = cg_experiments::run_csp_gap_exp(&opts);
        json.insert("csp".into(), serde_json::to_value(&r).expect("serialize"));
    }

    if wants("rollout") && !wanted.contains(&"all") {
        // Not part of --exp all (several extra crawls); run explicitly.
        eprintln!("[rollout] deployment ladder + preset frontier…");
        let r = run_rollout(&opts);
        json.insert(
            "rollout".into(),
            serde_json::to_value(&r).expect("serialize"),
        );
    }

    if wants("table3") {
        eprintln!("[table3] breakage evaluation…");
        let r = run_table3(&opts);
        json.insert(
            "table3".into(),
            serde_json::to_value(&r).expect("serialize"),
        );
    }

    if wants("table4") || wants("fig6") || wants("fig7") || wants("fig9") || wants("fig10") {
        eprintln!("[perf] paired timing measurement…");
        let r = run_table4_and_figs(&opts, &wanted);
        // The raw pair list is large; store the summaries only.
        let mut v = serde_json::to_value(&r).expect("serialize");
        if let Some(obj) = v.get_mut("report").and_then(|r| r.as_object_mut()) {
            obj.remove("pairs");
        }
        json.insert("performance".into(), v);
    }

    if wanted.contains(&"stream") {
        // Explicit-only: a store crawl plus a timed streaming fold
        // (`--store` was checked above).
        let dir = opts
            .store
            .as_deref()
            .expect("--exp stream requires --store");
        eprintln!("[stream] bounded-memory fold over the crawl store…");
        let s = cg_experiments::run_stream(&opts, dir).unwrap_or_else(|e| {
            eprintln!("crawl store {}: {e}", dir.display());
            std::process::exit(1);
        });
        json.insert("stream".into(), serde_json::to_value(s).expect("serialize"));
    }

    if let Some(path) = json_path {
        let out =
            serde_json::to_string_pretty(&serde_json::Value::Object(json)).expect("serialize");
        match std::fs::write(&path, out) {
            Ok(()) => println!("\nresults written to {}", path.display()),
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}

fn print_help() {
    println!("cg-experiments — regenerate the CookieGuard paper's tables and figures");
    println!();
    println!(
        "USAGE: cg-experiments [--exp LIST] [--sites N] [--seed S] [--threads T] [--json PATH] \
         [--store DIR] [--read-backend mmap|pread]"
    );
    println!(
        "       cg-experiments scenarios [--seed S] [--threads T] [--json PATH] [--golden PATH]"
    );
    println!(
        "       cg-experiments serve [--sites N] [--seed S] [--passes P] [--workers LIST] \
         [--store DIR] [--bench-json PATH] [--telemetry-snapshot PATH] [--telemetry-dump PATH]"
    );
    println!(
        "       cg-experiments detect [--sites N] [--seed S] [--threads T] [--store DIR] \
         [--bench-json PATH] [--report-json PATH]"
    );
    println!("       cg-experiments export --jsonl DIR");
    println!();
    println!("The `scenarios` subcommand runs the adversarial scenario catalog");
    println!("(crate cg-scenarios) under vanilla + CookieGuard variants + baseline");
    println!("defenses and emits a deterministic matrix; --golden diffs the JSON");
    println!("against a checked-in file and exits 1 on mismatch.");
    println!();
    println!("The `serve` subcommand smoke-tests the multi-tenant guard service");
    println!("(crate cg-service): it replays a binary crawl store through two");
    println!("policy tenants at each worker count in LIST (default 2,8), hot-swaps");
    println!("both tenants' policies mid-run, asserts zero dropped decisions and");
    println!("byte-identical counters across worker counts, and with --bench-json");
    println!("writes the machine-readable report (BENCH_service.json). It also");
    println!("gates the telemetry overhead (on vs off, ≤3% of decisions/s);");
    println!("--telemetry-snapshot writes the final registry snapshot as JSON");
    println!("plus a .prom Prometheus rendering, and --telemetry-dump writes");
    println!("the flight-recorder event dump.");
    println!();
    println!("The `detect` subcommand scores the first-party tracking-cookie");
    println!("detector (crate cg-detect) against generator ground truth on a");
    println!("fresh CNAME-resolving crawl written through a binary store: it");
    println!("asserts streaming/resident reports byte-identical across thread");
    println!("counts and read backends, enforces the precision/recall floors");
    println!("(0.95/0.90, instance-weighted), prints the scoring table and the");
    println!("guard-vs-detector matrix, and with --bench-json writes the");
    println!("machine-readable scores (BENCH_detect.json).");
    println!();
    println!("The `export` subcommand prints the crawl store at DIR as one");
    println!("compact JSON line per visit, in rank order: greppable, and");
    println!("byte-identical for any two stores of the same crawl (a resumed");
    println!("store and an uninterrupted one compare equal with cmp).");
    println!();
    println!("Experiments (comma-separated, default 'all'):");
    println!("  measurement: {}", MEASUREMENT_EXPERIMENTS.join(", "));
    println!("  evaluation:  {}", EVALUATION_EXPERIMENTS.join(", "));
    println!();
    println!("--store DIR writes the measurement crawl through a durable,");
    println!("segmented on-disk store (checkpoint/resume: a killed crawl");
    println!("rerun with the same seed/sites finishes only the missing ranks).");
    println!("--read-backend picks how replays and folds read segment bytes:");
    println!("mmap (zero-copy chunk windows, the default) or pread — both");
    println!("produce byte-identical results.");
    println!();
    println!("--exp stream (requires --store) crawls or resumes the store, then");
    println!("folds it in bounded memory (one chunk-granular parallel pass, nothing");
    println!("retained per visit) and prints the streaming summary: byte-identical");
    println!("across --threads, --read-backend, and a killed-and-resumed store.");
}
