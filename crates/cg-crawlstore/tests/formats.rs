//! Cross-format differential tests: the binary segment format must be
//! an *invisible* substitution for JSONL — same crawl in, same
//! statistics out, same recovery behaviour under a kill — and the
//! parallel per-segment fold must be an invisible substitution for the
//! sequential one.

use cg_analysis::{Dataset, StreamStats};
use cg_browser::VisitConfig;
use cg_crawlstore::{
    crawl_to_store_with, open_store_with, CrawlReader, ReadBackend, SegmentFormat, StoreError,
};
use cg_webgen::{GenConfig, WebGenerator};
use std::path::PathBuf;

const SEED: u64 = 0xC00C1E;
const SITES: usize = 80;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cg-formats-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn generator() -> WebGenerator {
    WebGenerator::new(GenConfig::small(SITES), SEED)
}

fn crawl(dir: &PathBuf, format: SegmentFormat, threads: usize) {
    let gen = generator();
    let cfg = VisitConfig::regular();
    crawl_to_store_with(dir, &gen, &cfg, 1, SITES, threads, format, |_| {}).unwrap();
}

/// The same crawl stored in both formats replays identically: same
/// rank stream, same reserialized JSON lines, same retained-dataset
/// and streaming statistics, byte for byte.
#[test]
fn binary_and_jsonl_stores_are_equivalent() {
    let dir_j = tmp_dir("equiv-jsonl");
    let dir_b = tmp_dir("equiv-bin");
    crawl(&dir_j, SegmentFormat::Jsonl, 3);
    crawl(&dir_b, SegmentFormat::Binary, 4);

    // Rank streams agree.
    let ranks = |dir: &PathBuf| {
        CrawlReader::open(dir)
            .unwrap()
            .map(|r| r.unwrap().rank)
            .collect::<Vec<_>>()
    };
    assert_eq!(ranks(&dir_j), ranks(&dir_b));
    assert_eq!(ranks(&dir_j), (1..=SITES).collect::<Vec<_>>());

    // Canonical JSONL reprints agree line-for-line (binary decodes and
    // reserializes through the same serde path).
    let lines = |dir: &PathBuf| {
        CrawlReader::open(dir)
            .unwrap()
            .raw_lines()
            .map(|l| l.unwrap())
            .collect::<Vec<_>>()
    };
    assert_eq!(lines(&dir_j), lines(&dir_b));

    // Retained datasets and streaming aggregates agree byte-for-byte.
    let ds_j = Dataset::from_reader(CrawlReader::open(&dir_j).unwrap()).unwrap();
    let ds_b = Dataset::from_reader(CrawlReader::open(&dir_b).unwrap()).unwrap();
    assert_eq!(ds_j.crawled, ds_b.crawled);
    assert_eq!(
        serde_json::to_string(&ds_j.logs).unwrap(),
        serde_json::to_string(&ds_b.logs).unwrap()
    );
    let ss_j = StreamStats::from_store(&dir_j, 1).unwrap();
    let ss_b = StreamStats::from_store(&dir_b, 1).unwrap();
    assert_eq!(
        serde_json::to_string(&ss_j).unwrap(),
        serde_json::to_string(&ss_b).unwrap()
    );

    // Binary stores the same crawl in fewer bytes.
    let bytes = |dir: &PathBuf, ext: &str| {
        std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(ext))
            .map(|e| e.metadata().unwrap().len())
            .sum::<u64>()
    };
    assert!(bytes(&dir_b, ".bin") < bytes(&dir_j, ".jsonl"));

    std::fs::remove_dir_all(&dir_j).unwrap();
    std::fs::remove_dir_all(&dir_b).unwrap();
}

/// A binary store killed mid-crawl (torn trailing frame) resumes to the
/// same merged stream as an uninterrupted binary crawl — the JSONL
/// durability contract, verbatim.
#[test]
fn binary_store_survives_kill_and_resume() {
    let gen = generator();
    let cfg = VisitConfig::regular();

    let dir_ref = tmp_dir("kill-ref");
    crawl(&dir_ref, SegmentFormat::Binary, 2);

    // Victim: crawl a prefix, then tear the tail of a segment the way a
    // kill -9 between write() and fsync does.
    let dir = tmp_dir("kill-victim");
    {
        let store = open_store_with(&dir, &gen, &cfg, 1, SITES, SegmentFormat::Binary).unwrap();
        cg_browser::crawl_into(&gen, &cfg, 1, SITES / 2, 2, &store).unwrap();
    }
    let seg = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .find(|e| e.file_name().to_string_lossy().ends_with(".bin"))
        .expect("a binary segment exists")
        .path();
    let mut bytes = std::fs::read(&seg).unwrap();
    let torn_len = bytes.len() - 7; // mid-frame: not even a full header boundary
    bytes.truncate(torn_len);
    // Append garbage past the watermark too — both shapes must vanish.
    bytes.extend_from_slice(&[0xde, 0xad]);
    std::fs::write(&seg, &bytes).unwrap();

    // Resume with a different worker count and finish the range.
    let store = open_store_with(&dir, &gen, &cfg, 1, SITES, SegmentFormat::Binary).unwrap();
    let done = store.done_ranks().len();
    assert!(done < SITES, "the kill lost work to redo");
    cg_browser::crawl_into(&gen, &cfg, 1, SITES, 5, &store).unwrap();
    drop(store);

    let merged = |d: &PathBuf| {
        CrawlReader::open(d)
            .unwrap()
            .raw_lines()
            .map(|l| l.unwrap())
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(merged(&dir), merged(&dir_ref));

    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&dir_ref).unwrap();
}

/// Opening a binary store with a JSONL fingerprint (or vice versa) is a
/// fingerprint mismatch, not silent mixed-format corruption.
#[test]
fn cross_format_resume_is_refused() {
    let dir = tmp_dir("cross");
    crawl(&dir, SegmentFormat::Binary, 2);
    let gen = generator();
    let cfg = VisitConfig::regular();
    let Err(err) = open_store_with(&dir, &gen, &cfg, 1, SITES, SegmentFormat::Jsonl) else {
        panic!("cross-format resume must be refused");
    };
    assert!(matches!(err, StoreError::FingerprintMismatch { .. }));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Parallel per-segment folds are byte-identical to sequential ones at
/// every thread count, through every read backend, for both the
/// streaming and the retained mode.
#[test]
fn parallel_fold_equals_sequential_fold() {
    let dir = tmp_dir("parfold");
    crawl(&dir, SegmentFormat::Binary, 6); // several segments

    let seq_stats = serde_json::to_string(&StreamStats::from_store(&dir, 1).unwrap()).unwrap();
    let seq_ds = Dataset::from_store(&dir, 1).unwrap();
    let seq_logs = serde_json::to_string(&seq_ds.logs).unwrap();

    // A one-thread store fold equals a plain reader fold.
    let reader_ds = Dataset::from_reader(CrawlReader::open(&dir).unwrap()).unwrap();
    assert_eq!(seq_logs, serde_json::to_string(&reader_ds.logs).unwrap());
    assert_eq!(seq_ds.crawled, reader_ds.crawled);

    let backends = [ReadBackend::Mmap, ReadBackend::Pread, ReadBackend::Buffered];
    for backend in backends {
        for threads in [1, 2, 8] {
            let par_stats = serde_json::to_string(
                &StreamStats::from_store_with(&dir, threads, backend).unwrap(),
            )
            .unwrap();
            assert_eq!(
                par_stats, seq_stats,
                "StreamStats via {backend} at {threads} threads"
            );
            let par_ds = Dataset::from_store_with(&dir, threads, backend).unwrap();
            assert_eq!(
                serde_json::to_string(&par_ds.logs).unwrap(),
                seq_logs,
                "Dataset via {backend} at {threads} threads"
            );
            assert_eq!(par_ds.crawled, seq_ds.crawled);
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
