//! Allocation budgets of the crawl store's codec and the analysis
//! path, per stored visit: the encode and the decode of one format-v2
//! payload, one `StreamStats::fold` and one `DetectStats::fold`, counted
//! by [`cg_telemetry::alloc::Counting`], this binary's global allocator.
//!
//! Allocation counts are a pure function of the seed and the code on
//! one thread, so they can be gated where a timing cannot. The budgets
//! below are checked in: a change that allocates more per visit fails
//! here, and one that allocates less on purpose lowers them in the same
//! change. Every count is taken on the test's own thread, on a second
//! pass over the same payloads, after the process-wide memo tables
//! (domain interning, the suffix list, the detector's organization and
//! key tables, the metric registry) are warm, so tests running in
//! parallel in this binary cannot shift it.

use cg_analysis::StreamStats;
use cg_browser::{crawl_range, VisitConfig};
use cg_crawlstore::codec::{decode_visit_log, encode_visit_log};
use cg_detect::{DetectConfig, DetectEngine, DetectStats, Stages};
use cg_instrument::VisitLog;
use cg_telemetry::alloc::{counted, Counting};
use cg_webgen::{CookieLabels, GenConfig, WebGenerator};
use std::sync::OnceLock;

#[global_allocator]
static ALLOC: Counting = Counting;

/// The visits the budgets cover: ranks `1..=RANKS` of
/// `GenConfig::small(2000)` at seed 7, crawled as the measurement crawl
/// (unguarded, CNAMEs resolved) that `perfbench --workload analyze`
/// stores and folds.
const RANKS: usize = 150;

/// Allocations per `encode_visit_log` into a fresh buffer. Measured
/// 17.6: the encoder's symbol map, and the doubling growth
/// of its table section, its body and the output (23.6 while
/// the encoder re-interned every string through a hash index).
const ENCODE_BUDGET: f64 = 18.0;

/// Allocations per decoded visit. Measured 7.1: the string table's
/// arena, offsets and index, and one `Vec` per non-empty event sequence
/// and for the reads' names. 265.7 while every string field was a
/// `String` of its own and every read had its own `Vec` of names.
const DECODE_BUDGET: f64 = 8.0;

/// Allocations per `StreamStats::fold`. Measured 3.5; 189.4 while the
/// fold replayed ownership into owned pairs, values and URLs.
const STREAM_FOLD_BUDGET: f64 = 16.0;

/// Allocations per `DetectStats::fold`. Measured 81.3, with every
/// encoded form of a visit in one `FormSet` arena: 138.1 while each
/// identifier segment's forms were up to four `String`s, 256.7 while
/// the set replay kept string-keyed maps, each MD5 and SHA-1 digest
/// padded a heap copy of its input and every foreign script URL was
/// parsed to test it for the site's domain, and 419.4 before visits with no
/// off-site request skipped encoded forms, digests were gated on hex
/// runs, owner classes were memoized per script URL and value segments
/// were streamed.
const DETECT_FOLD_BUDGET: f64 = 82.0;

/// The payloads of the covered visits, encoded once per process.
fn payloads() -> &'static [Vec<u8>] {
    static PAYLOADS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    PAYLOADS.get_or_init(|| {
        let gen = WebGenerator::new(GenConfig::small(2000), 7);
        let cfg = VisitConfig {
            resolve_cnames: true,
            ..VisitConfig::regular()
        };
        let (outcomes, _) = crawl_range(&gen, &cfg, 1, RANKS, 1);
        outcomes
            .iter()
            .map(|o| {
                let mut payload = Vec::new();
                encode_visit_log(&o.log, &mut payload);
                payload
            })
            .collect()
    })
}

fn decoded() -> Vec<VisitLog> {
    payloads()
        .iter()
        .map(|p| decode_visit_log(p).expect("decode"))
        .collect()
}

/// Mean allocations per visit of `pass` over the decoded visits,
/// counted on the second of two passes.
fn per_visit(mut pass: impl FnMut(&[VisitLog])) -> f64 {
    let logs = decoded();
    pass(&logs);
    let ((), allocs) = counted(|| pass(&logs));
    allocs as f64 / logs.len() as f64
}

fn within(what: &str, per_visit: f64, budget: f64) {
    println!("{what}: {per_visit:.1} allocations per visit (budget {budget})");
    assert!(
        per_visit <= budget,
        "{what} allocates {per_visit:.1} times per visit, budget {budget}"
    );
}

#[test]
fn encode_stays_within_its_allocation_budget() {
    let logs = decoded();
    let encode_all = || {
        for log in &logs {
            let mut payload = Vec::new();
            encode_visit_log(log, &mut payload);
        }
    };
    encode_all();
    let ((), allocs) = counted(encode_all);
    within(
        "encode_visit_log",
        allocs as f64 / logs.len() as f64,
        ENCODE_BUDGET,
    );
}

#[test]
fn decode_stays_within_its_allocation_budget() {
    let payloads = payloads();
    let decode_all = || {
        for p in payloads {
            drop(decode_visit_log(p).expect("decode"));
        }
    };
    decode_all();
    let ((), allocs) = counted(decode_all);
    within(
        "decode_visit_log",
        allocs as f64 / payloads.len() as f64,
        DECODE_BUDGET,
    );
}

#[test]
fn stream_stats_fold_stays_within_its_allocation_budget() {
    let per_visit = per_visit(|logs| {
        let mut stats = StreamStats::default();
        for log in logs {
            stats.fold(log);
        }
        assert!(stats.cross_overwrite_events > 0, "want cross-domain writes");
    });
    within("StreamStats::fold", per_visit, STREAM_FOLD_BUDGET);
}

#[test]
fn detect_stats_fold_stays_within_its_allocation_budget() {
    let gen = WebGenerator::new(GenConfig::small(2000), 7);
    let engine = DetectEngine::compile(
        &CookieLabels::derive(gen.registry()),
        cg_entity::builtin_entity_map(),
        DetectConfig::default(),
    );
    let per_visit = per_visit(|logs| {
        let mut stats = DetectStats::new(&engine, Stages::Full);
        for log in logs {
            stats.fold(log);
        }
        assert!(stats.complete > 0);
    });
    within("DetectStats::fold", per_visit, DETECT_FOLD_BUDGET);
}
