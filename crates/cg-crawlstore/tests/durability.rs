//! End-to-end durability: the write → kill → resume → analyze loop.
//!
//! The store's contract is that a crawl killed mid-range and resumed
//! converges to *byte-identical* output versus an uninterrupted run —
//! regardless of worker count, batch size, or how the death mangled the
//! tail of a segment — and that streaming analysis over the store
//! equals in-memory analysis over the same crawl.

use cg_analysis::Census;
use cg_browser::{crawl_into, crawl_range, VisitConfig};
use cg_crawlstore::{codec, CrawlReader, CrawlWriter, Fingerprint, StoreError, MANIFEST_FILE};
use cg_instrument::VisitLog;
use cg_webgen::{GenConfig, WebGenerator};
use std::io::Write as _;
use std::path::PathBuf;

const SEED: u64 = 0xC00C1E;
const SITES: usize = 60;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cg-durability-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn generator() -> WebGenerator {
    WebGenerator::new(GenConfig::small(SITES), SEED)
}

fn fingerprint(cfg: &VisitConfig) -> Fingerprint {
    Fingerprint::new(SEED, 1, SITES, cfg, &GenConfig::small(SITES))
}

/// The store's canonical content: one JSON line per visit, rank order.
fn merged_stream(dir: &PathBuf) -> String {
    let mut out = String::new();
    for log in CrawlReader::open(dir).expect("open for merge") {
        out.push_str(&serde_json::to_string(&log.expect("merge record")).unwrap());
        out.push('\n');
    }
    out
}

#[test]
fn resumed_store_is_byte_identical_to_uninterrupted() {
    let gen = generator();
    let cfg = VisitConfig::regular();

    // Reference: one uninterrupted crawl.
    let dir_a = tmp_dir("uninterrupted");
    let store_a = CrawlWriter::open(&dir_a, fingerprint(&cfg))
        .unwrap()
        .with_batch(7);
    crawl_into(&gen, &cfg, 1, SITES, 3, &store_a).unwrap();

    // Victim: the same crawl "killed" partway — leaving a HOLE below
    // the store's max rank (ranks 21..29 missing while 30..40 are
    // durable), the shape a real kill -9 produces when one worker's
    // unsynced batch dies while another worker was further ahead…
    let dir_b = tmp_dir("killed");
    let store_b = CrawlWriter::open(&dir_b, fingerprint(&cfg))
        .unwrap()
        .with_batch(4);
    crawl_into(&gen, &cfg, 1, 20, 2, &store_b).unwrap();
    crawl_into(&gen, &cfg, 30, 40, 2, &store_b).unwrap();
    drop(store_b);
    // …with the crash leaving half a frame at the end of a segment.
    let mut frame = Vec::new();
    codec::write_frame(&mut frame, 999, b"a payload the crash cut short");
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(dir_b.join("seg-0.bin"))
        .unwrap();
    f.write_all(&frame[..frame.len() - 9]).unwrap();
    drop(f);

    // Resume with a *different* worker count: recovery truncates the
    // torn tail, reports the completed prefix, and the crawl finishes
    // only the missing ranks.
    let store_b = CrawlWriter::open(&dir_b, fingerprint(&cfg)).unwrap();
    let done_before = store_b.done_ranks().len();
    assert!(
        done_before > 0,
        "prefix run must have produced durable ranks"
    );
    assert!(!store_b.done_ranks().contains(&999));
    let summary = crawl_into(&gen, &cfg, 1, SITES, 4, &store_b).unwrap();
    assert_eq!(
        summary.visited,
        SITES - done_before,
        "resume must skip done ranks"
    );

    // The two stores' rank-ordered record streams are byte-identical.
    let a = merged_stream(&dir_a);
    let b = merged_stream(&dir_b);
    assert!(!a.is_empty());
    assert_eq!(a, b, "resumed store diverged from uninterrupted store");

    std::fs::remove_dir_all(&dir_a).unwrap();
    std::fs::remove_dir_all(&dir_b).unwrap();
}

#[test]
fn torn_tail_truncation_restores_watermark() {
    let gen = generator();
    let cfg = VisitConfig::regular();
    let dir = tmp_dir("torn-watermark");
    let store = CrawlWriter::open(&dir, fingerprint(&cfg))
        .unwrap()
        .with_batch(3);
    crawl_into(&gen, &cfg, 1, 10, 1, &store).unwrap();
    drop(store);

    let seg = dir.join("seg-0.bin");
    let clean_len = std::fs::metadata(&seg).unwrap().len();
    let mut f = std::fs::OpenOptions::new().append(true).open(&seg).unwrap();
    f.write_all(b"garbage after the last frame").unwrap();
    drop(f);

    let store = CrawlWriter::open(&dir, fingerprint(&cfg)).unwrap();
    assert_eq!(
        std::fs::metadata(&seg).unwrap().len(),
        clean_len,
        "torn tail must be truncated back to the last good record"
    );
    assert_eq!(store.done_ranks().len(), 10);
    drop(store);

    // The manifest watermark agrees with the surviving records.
    let manifest: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap()).unwrap();
    let synced: u64 = manifest
        .get("segments")
        .and_then(|s| s.as_array().cloned())
        .unwrap()
        .iter()
        .map(|s| s.get("synced_records").and_then(|v| v.as_u64()).unwrap())
        .sum();
    assert_eq!(synced, 10);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn streaming_analysis_equals_in_memory_analysis() {
    let gen = generator();
    let cfg = VisitConfig::regular();

    // In-memory reference crawl.
    let (outcomes, summary) = crawl_range(&gen, &cfg, 1, SITES, 4);
    let logs_mem: Vec<VisitLog> = outcomes.into_iter().map(|o| o.log).collect();
    assert_eq!(summary.failed, summary.visited - summary.complete);

    // Store-backed crawl, read back in rank order.
    let dir = tmp_dir("analysis");
    let store = CrawlWriter::open(&dir, fingerprint(&cfg)).unwrap();
    crawl_into(&gen, &cfg, 1, SITES, 3, &store).unwrap();
    let logs_store: Vec<VisitLog> = CrawlReader::open(&dir)
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap();

    // Identical population…
    assert_eq!(
        serde_json::to_string(&logs_mem).unwrap(),
        serde_json::to_string(&logs_store).unwrap()
    );

    // …and every table agrees, folded from memory or from the store.
    let engine = cg_analysis::build_filter_engine(gen.registry());
    let entities = cg_entity::builtin_entity_map();
    let mem = Census::of_logs(logs_mem, &entities, &engine).finish();
    assert_eq!(mem.stream.crawled, SITES as u64);
    assert_eq!(mem.stream.complete, summary.complete as u64);
    let store = Census::from_reader(CrawlReader::open(&dir).unwrap(), &entities, &engine)
        .unwrap()
        .finish();
    assert!(mem == store, "store-backed tables differ");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn reused_writer_does_not_duplicate_ranks() {
    let gen = generator();
    let cfg = VisitConfig::regular();
    let dir = tmp_dir("reuse");
    let store = CrawlWriter::open(&dir, fingerprint(&cfg)).unwrap();
    // Two crawl_into calls over overlapping ranges on ONE open store:
    // the second must skip everything the first committed.
    let first = crawl_into(&gen, &cfg, 1, 30, 2, &store).unwrap();
    assert_eq!(first.visited, 30);
    let second = crawl_into(&gen, &cfg, 1, SITES, 3, &store).unwrap();
    assert_eq!(second.visited, SITES - 30);
    let ranks: Vec<usize> = CrawlReader::open(&dir)
        .unwrap()
        .map(|l| l.unwrap().rank)
        .collect();
    assert_eq!(ranks, (1..=SITES).collect::<Vec<_>>(), "no duplicates");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn second_live_writer_is_locked_out() {
    let cfg = VisitConfig::regular();
    let dir = tmp_dir("lock");
    let store = CrawlWriter::open(&dir, fingerprint(&cfg)).unwrap();
    let Err(err) = CrawlWriter::open(&dir, fingerprint(&cfg)) else {
        panic!("second writer must be refused while the first lives");
    };
    assert!(matches!(err, StoreError::Locked { .. }));
    // Readers are not excluded…
    assert!(CrawlReader::open(&dir).is_ok());
    // …and dropping the writer releases the lock.
    drop(store);
    assert!(CrawlWriter::open(&dir, fingerprint(&cfg)).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn reader_refuses_foreign_fingerprint_via_writer() {
    let cfg = VisitConfig::regular();
    let dir = tmp_dir("foreign");
    let store = CrawlWriter::open(&dir, fingerprint(&cfg)).unwrap();
    drop(store);
    // A crawl with a different visit config may not resume here.
    let other = VisitConfig {
        interact: false,
        ..VisitConfig::regular()
    };
    let Err(err) = CrawlWriter::open(&dir, fingerprint(&other)) else {
        panic!("foreign fingerprint must be refused");
    };
    assert!(matches!(err, StoreError::FingerprintMismatch { .. }));
    // The reader reports whose crawl the store holds.
    let reader = CrawlReader::open(&dir).unwrap();
    assert_eq!(reader.fingerprint().visit_config, cfg.fingerprint());
    std::fs::remove_dir_all(&dir).unwrap();
}
