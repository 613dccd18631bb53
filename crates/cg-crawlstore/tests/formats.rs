//! Differential tests over whole stores: how a crawl was written (worker
//! count, a kill and a resume) must be invisible to what reads it back —
//! same crawl in, same statistics out — and the parallel chunked fold
//! must be an invisible substitution for the sequential one.

use cg_analysis::{Census, StreamStats, Tables};
use cg_browser::VisitConfig;
use cg_crawlstore::{crawl_to_store, open_store, CrawlReader, ReadBackend};
use cg_instrument::VisitLog;
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

fn crawl(dir: &PathBuf, threads: usize) {
    let gen = generator();
    let cfg = VisitConfig::regular();
    crawl_to_store(dir, &gen, &cfg, 1, SITES, threads, |_| {}).unwrap();
}

/// The canonical content of a store: one JSON line per visit, rank order.
fn json_lines(dir: &PathBuf) -> Vec<String> {
    CrawlReader::open(dir)
        .unwrap()
        .map(|l| serde_json::to_string(&l.unwrap()).unwrap())
        .collect()
}

/// The store's visits, in rank order.
fn logs(dir: &PathBuf) -> Vec<VisitLog> {
    CrawlReader::open(dir)
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap()
}

/// The census of `logs`, finished.
fn tables(logs: Vec<VisitLog>) -> Tables {
    let engine = cg_analysis::build_filter_engine(generator().registry());
    Census::of_logs(logs, &cg_entity::builtin_entity_map(), &engine).finish()
}

/// The same crawl written by different worker counts (so cut into
/// different segments) replays identically: same rank stream, same
/// reserialized JSON lines, same census tables and streaming
/// statistics.
#[test]
fn stores_written_at_different_worker_counts_are_equivalent() {
    let dir_j = tmp_dir("equiv-3");
    let dir_b = tmp_dir("equiv-4");
    crawl(&dir_j, 3);
    crawl(&dir_b, 4);

    // Rank streams agree.
    let ranks = |dir: &PathBuf| {
        CrawlReader::open(dir)
            .unwrap()
            .map(|r| r.unwrap().rank)
            .collect::<Vec<_>>()
    };
    assert_eq!(ranks(&dir_j), ranks(&dir_b));
    assert_eq!(ranks(&dir_j), (1..=SITES).collect::<Vec<_>>());

    // Canonical JSON reprints agree line-for-line.
    assert_eq!(json_lines(&dir_j), json_lines(&dir_b));

    // The logs, the census tables and the streaming aggregates agree.
    assert_eq!(
        serde_json::to_string(&logs(&dir_j)).unwrap(),
        serde_json::to_string(&logs(&dir_b)).unwrap()
    );
    assert!(tables(logs(&dir_j)) == tables(logs(&dir_b)));
    let ss_j = StreamStats::from_store(&dir_j, 1).unwrap();
    let ss_b = StreamStats::from_store(&dir_b, 1).unwrap();
    assert_eq!(
        serde_json::to_string(&ss_j).unwrap(),
        serde_json::to_string(&ss_b).unwrap()
    );

    // Frames are a pure function of the visit: however the crawl was
    // cut into segments, it occupies the same segment bytes.
    let bytes = |dir: &PathBuf| {
        std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".bin"))
            .map(|e| e.metadata().unwrap().len())
            .sum::<u64>()
    };
    assert_eq!(bytes(&dir_b), bytes(&dir_j));

    std::fs::remove_dir_all(&dir_j).unwrap();
    std::fs::remove_dir_all(&dir_b).unwrap();
}

/// A store killed mid-crawl (torn trailing frame) resumes to the same
/// merged stream as an uninterrupted crawl.
#[test]
fn binary_store_survives_kill_and_resume() {
    let gen = generator();
    let cfg = VisitConfig::regular();

    let dir_ref = tmp_dir("kill-ref");
    crawl(&dir_ref, 2);

    // Victim: crawl a prefix, then tear the tail of a segment the way a
    // kill -9 between write() and fsync does.
    let dir = tmp_dir("kill-victim");
    {
        let store = open_store(&dir, &gen, &cfg, 1, SITES).unwrap();
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
    let store = open_store(&dir, &gen, &cfg, 1, SITES).unwrap();
    let done = store.done_ranks().len();
    assert!(done < SITES, "the kill lost work to redo");
    cg_browser::crawl_into(&gen, &cfg, 1, SITES, 5, &store).unwrap();
    drop(store);

    assert_eq!(json_lines(&dir), json_lines(&dir_ref));

    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&dir_ref).unwrap();
}

/// Parallel per-segment folds equal sequential ones at every thread
/// count, through every read backend, for the streaming counters and for
/// the census.
#[test]
fn parallel_fold_equals_sequential_fold() {
    let dir = tmp_dir("parfold");
    crawl(&dir, 6); // several segments

    let seq_stats = serde_json::to_string(&StreamStats::from_store(&dir, 1).unwrap()).unwrap();
    let engine = cg_analysis::build_filter_engine(generator().registry());
    let entities = cg_entity::builtin_entity_map();
    let census = |threads, backend| {
        Census::from_store_with(&dir, threads, backend, &entities, &engine)
            .unwrap()
            .finish()
    };

    // A one-thread store fold equals a plain in-memory fold.
    let seq = census(1, ReadBackend::Mmap);
    assert!(seq == tables(logs(&dir)));

    let backends = [ReadBackend::Mmap, ReadBackend::Pread];
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
            assert!(
                census(threads, backend) == seq,
                "Census via {backend} at {threads} threads"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
