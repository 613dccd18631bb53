//! The fold scheduler's contract: [`fold_store`] reduces in store order
//! for any associative merge (commutative or not) at every thread count
//! and read backend; the partials it holds
//! at once do not grow with the chunk count; and errors surface without
//! leaking a partial.

use cg_crawlstore::{
    fold_store, plan_chunks, ChunkStream, CrawlWriter, Fingerprint, ReadBackend, SegmentFormat,
    StoreError,
};
use cg_instrument::VisitLog;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cg-foldstore-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fp() -> Fingerprint {
    Fingerprint {
        master_seed: 1,
        from: 1,
        to: 10_000,
        visit_config: "cfg".into(),
        generator: "gen".into(),
        format: SegmentFormat::Binary,
    }
}

fn log(rank: usize) -> VisitLog {
    VisitLog {
        site_domain: format!("site{rank}.com"),
        rank,
        complete: true,
        ..VisitLog::default()
    }
}

/// Writes ranks `1..=ranks` striped over `segments` segment files
/// (rank `r` lands in segment `r % segments`).
fn fill(dir: &Path, segments: usize, ranks: usize) {
    let store = CrawlWriter::open(dir, fp()).unwrap();
    let mut segs: Vec<_> = (0..segments).map(|_| store.segment().unwrap()).collect();
    for rank in 1..=ranks {
        segs[rank % segments].record(&log(rank)).unwrap();
    }
    for seg in segs {
        seg.finish().unwrap();
    }
}

const BACKENDS: [ReadBackend; 2] = [ReadBackend::Mmap, ReadBackend::Pread];

/// The sequential rank stream: every chunk's ranks, in (segment, chunk)
/// order.
fn sequential_ranks(dir: &Path) -> Vec<usize> {
    let plan = plan_chunks(dir).unwrap();
    (0..plan.len())
        .flat_map(|i| plan.open_chunk(i, ReadBackend::Pread).unwrap())
        .map(|log| log.unwrap().rank)
        .collect()
}

fn concat(mut earlier: Vec<usize>, mut later: Vec<usize>) -> Vec<usize> {
    earlier.append(&mut later);
    earlier
}

#[test]
fn non_commutative_merge_equals_the_sequential_rank_stream() {
    let dir = tmp_dir("order");
    fill(&dir, 4, 1000);
    let expected = sequential_ranks(&dir);
    assert_eq!(expected.len(), 1000);
    let units = plan_chunks(&dir).unwrap().len();
    for backend in BACKENDS {
        for threads in [1, 2, 3, 8] {
            // Workers start on even splits, so the first worker's
            // range holds `units / threads` units. When it holds two
            // or more, the first unit waits for a steal: the others
            // run dry while units behind it are still unclaimed.
            let forced_steal = threads > 1 && units / threads >= 2;
            let partials = AtomicUsize::new(0);
            let ranks = fold_store(
                &dir,
                threads,
                backend,
                || {
                    partials.fetch_add(1, Ordering::SeqCst);
                    Vec::new()
                },
                |ranks: &mut Vec<usize>, chunk: ChunkStream| {
                    let first = ranks.len();
                    for log in chunk {
                        ranks.push(log?.rank);
                    }
                    if forced_steal && first == 0 && ranks.first() == expected.first() {
                        wait_until(|| partials.load(Ordering::SeqCst) > threads);
                    }
                    Ok(())
                },
                concat,
            )
            .unwrap();
            assert_eq!(ranks, expected, "via {backend} at {threads} threads");
            let partials = partials.into_inner();
            if threads == 1 {
                assert_eq!(partials, 1, "one thread folds into one accumulator");
            } else if forced_steal {
                assert!(partials > threads, "no steal at {threads} threads");
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Polls `done` until it holds, failing the test after a minute.
fn wait_until(done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !done() {
        assert!(Instant::now() < deadline, "condition never held");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Counts live accumulators: created minus dropped, and the peak.
#[derive(Default)]
struct Census {
    created: AtomicUsize,
    dropped: AtomicUsize,
    peak: AtomicUsize,
}

impl Census {
    fn live(&self) -> usize {
        self.created.load(Ordering::SeqCst) - self.dropped.load(Ordering::SeqCst)
    }
}

struct Tracked {
    census: Arc<Census>,
    ranks: Vec<usize>,
}

impl Tracked {
    fn new(census: &Arc<Census>) -> Tracked {
        census.created.fetch_add(1, Ordering::SeqCst);
        census.peak.fetch_max(census.live(), Ordering::SeqCst);
        Tracked {
            census: Arc::clone(census),
            ranks: Vec::new(),
        }
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        self.census.dropped.fetch_add(1, Ordering::SeqCst);
    }
}

/// Folds `dir` into [`Tracked`] accumulators; returns the result and
/// the census once the fold has returned.
fn tracked_fold(
    dir: &Path,
    threads: usize,
    backend: ReadBackend,
) -> (Result<Vec<usize>, StoreError>, Arc<Census>) {
    let census = Arc::new(Census::default());
    let result = fold_store(
        dir,
        threads,
        backend,
        || Tracked::new(&census),
        |acc, chunk| {
            for log in chunk {
                acc.ranks.push(log?.rank);
            }
            Ok(())
        },
        |mut earlier, mut later| {
            earlier.ranks.append(&mut later.ranks);
            earlier
        },
    )
    .map(|mut acc| std::mem::take(&mut acc.ranks));
    (result, census)
}

#[test]
fn live_partials_do_not_grow_with_the_chunk_count() {
    let small = tmp_dir("census-small");
    let large = tmp_dir("census-large");
    fill(&small, 1, 4 * 32);
    fill(&large, 1, 200 * 32);
    assert_eq!(plan_chunks(&small).unwrap().len(), 4);
    assert_eq!(plan_chunks(&large).unwrap().len(), 200);
    for threads in [1, 2, 4] {
        let peaks: Vec<usize> = [&small, &large]
            .into_iter()
            .map(|dir| {
                let (result, census) = tracked_fold(dir, threads, ReadBackend::Mmap);
                assert_eq!(result.unwrap(), sequential_ranks(dir));
                assert_eq!(census.live(), 0, "every created partial is dropped");
                census.peak.load(Ordering::SeqCst)
            })
            .collect();
        if threads == 1 {
            assert_eq!(peaks, vec![1, 1], "one accumulator at one thread");
        }
        // Finished runs never sit side by side, so at most threads + 1
        // of them wait beside the threads runs still folding.
        for peak in peaks {
            assert!(
                peak <= 2 * threads + 1,
                "{peak} live partials at {threads} threads"
            );
        }
    }
    std::fs::remove_dir_all(&small).unwrap();
    std::fs::remove_dir_all(&large).unwrap();
}

#[test]
fn corrupt_mid_file_frame_surfaces_and_leaks_no_partial() {
    let dir = tmp_dir("corrupt");
    fill(&dir, 3, 900);
    // Damage one segment mid-file after the store is closed.
    let path = dir.join("seg-1.bin");
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();
    for backend in BACKENDS {
        for threads in [1, 2, 4] {
            let (result, census) = tracked_fold(&dir, threads, backend);
            assert!(
                matches!(result, Err(StoreError::Corrupt { .. })),
                "{backend} at {threads} threads streamed past mid-file damage"
            );
            assert!(census.created.load(Ordering::SeqCst) >= 1);
            assert_eq!(census.live(), 0, "a partial outlived the failed fold");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn empty_store_folds_to_the_identity() {
    let dir = tmp_dir("empty");
    drop(CrawlWriter::open(&dir, fp()).unwrap());
    for threads in [1, 8] {
        let folded = fold_store(
            &dir,
            threads,
            ReadBackend::Mmap,
            || vec![0usize],
            |_, _| panic!("an empty store has no units"),
            concat,
        )
        .unwrap();
        assert_eq!(folded, vec![0]);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
