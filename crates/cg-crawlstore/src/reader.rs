//! The rank-ordered read path: [`CrawlReader`], a k-way merge over each
//! segment's chunk streams.
//!
//! Every segment is an internally rank-sorted run, cut by the
//! [`ChunkPlan`] into chunks whose rank ranges ascend. The reader walks
//! each segment's chunks in order through a mapped window
//! ([`ReadBackend::Mmap`], falling back to `pread`) and keeps one
//! decoded [`VisitLog`] per segment on a `(rank, segment)` heap. Frames
//! pass through the same decoder as every fold, so checksums,
//! watermarks and the sorted-run invariant are verified once, in one
//! place. Memory is one chunk window plus one visit per segment,
//! independent of crawl size.

use crate::chunk::{ChunkPlan, ChunkStream, ReadBackend};
use crate::manifest::{Fingerprint, Manifest};
use crate::StoreError;
use cg_instrument::VisitLog;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::path::Path;

/// One decoded visit: the head of one segment's stream.
struct Head {
    rank: usize,
    seg: usize,
    log: VisitLog,
}

impl PartialEq for Head {
    fn eq(&self, other: &Head) -> bool {
        (self.rank, self.seg) == (other.rank, other.seg)
    }
}
impl Eq for Head {}
impl PartialOrd for Head {
    fn partial_cmp(&self, other: &Head) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Head {
    fn cmp(&self, other: &Head) -> std::cmp::Ordering {
        (self.rank, self.seg).cmp(&(other.rank, other.seg))
    }
}

/// One segment's read position: its open chunk and the chunks after it.
struct Cursor {
    stream: Option<ChunkStream>,
    rest: Range<usize>,
}

/// Streams a store's [`VisitLog`]s back in rank order without
/// materializing the crawl: a k-way merge whose footprint is one chunk
/// window and one visit per segment, independent of crawl size.
///
/// ```no_run
/// use cg_crawlstore::CrawlReader;
///
/// let reader = CrawlReader::open("crawl-dir").unwrap();
/// for log in reader {
///     let log = log.unwrap(); // rank-ordered
///     if log.complete {
///         // feed an incremental analysis…
///     }
/// }
/// ```
pub struct CrawlReader {
    fingerprint: Fingerprint,
    plan: ChunkPlan,
    cursors: Vec<Cursor>,
    heap: BinaryHeap<Reverse<Head>>,
    /// Set once a segment errors; the iterator then fuses.
    failed: bool,
}

impl CrawlReader {
    /// Opens the store at `dir` for streaming. Requires a manifest (the
    /// store must have been created by [`CrawlWriter`](crate::CrawlWriter)),
    /// and reads exactly the manifest's durable watermark of every
    /// listed segment: anything short of it is corruption (an error,
    /// never a silently smaller dataset), anything past it — e.g. a
    /// live writer's in-flight batch — is not yet durable and is left
    /// alone. Re-open after the next checkpoint to see more.
    pub fn open(dir: impl AsRef<Path>) -> Result<CrawlReader, StoreError> {
        let dir = dir.as_ref();
        let manifest = Manifest::require(dir)?;
        let plan = ChunkPlan::new(dir, &manifest)?;
        // Chunks come in (segment, chunk) order: one cursor per
        // segment's run of chunks.
        let mut start = 0;
        let cursors = plan
            .chunks()
            .chunk_by(|a, b| a.segment == b.segment)
            .map(|run| {
                let rest = start..start + run.len();
                start = rest.end;
                Cursor { stream: None, rest }
            })
            .collect();
        let mut reader = CrawlReader {
            fingerprint: manifest.fingerprint,
            plan,
            cursors,
            heap: BinaryHeap::new(),
            failed: false,
        };
        for seg in 0..reader.cursors.len() {
            if let Some(head) = reader.pull(seg)? {
                reader.heap.push(Reverse(head));
            }
        }
        Ok(reader)
    }

    /// The crawl this store belongs to.
    pub fn fingerprint(&self) -> &Fingerprint {
        &self.fingerprint
    }

    /// Decodes the next visit of segment `seg`, opening its next chunk
    /// when the current one is spent.
    fn pull(&mut self, seg: usize) -> Result<Option<Head>, StoreError> {
        let cursor = &mut self.cursors[seg];
        loop {
            if let Some(stream) = &mut cursor.stream {
                if let Some(log) = stream.next_log()? {
                    return Ok(Some(Head {
                        rank: log.rank,
                        seg,
                        log,
                    }));
                }
                // Release the spent window before mapping the next.
                cursor.stream = None;
            }
            let Some(chunk) = cursor.rest.next() else {
                return Ok(None);
            };
            cursor.stream = Some(self.plan.open_chunk(chunk, ReadBackend::Mmap)?);
        }
    }
}

impl Iterator for CrawlReader {
    type Item = Result<VisitLog, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let Reverse(head) = self.heap.pop()?;
        match self.pull(head.seg) {
            Ok(Some(next)) => self.heap.push(Reverse(next)),
            Ok(None) => {}
            Err(e) => {
                self.failed = true;
                return Some(Err(e));
            }
        }
        Some(Ok(head.log))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{self, SegmentFormat};
    use crate::writer::CrawlWriter;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cg-reader-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fp() -> Fingerprint {
        Fingerprint {
            master_seed: 1,
            from: 1,
            to: 100,
            visit_config: "cfg".into(),
            generator: "gen".into(),
            format: SegmentFormat::Binary,
        }
    }

    fn log(rank: usize) -> VisitLog {
        VisitLog {
            complete: !rank.is_multiple_of(3),
            ..VisitLog::new(&format!("site{rank}.com"), rank)
        }
    }

    fn ranks(dir: &Path) -> Vec<usize> {
        CrawlReader::open(dir)
            .unwrap()
            .map(|l| l.unwrap().rank)
            .collect()
    }

    #[test]
    fn merge_is_rank_ordered_across_segments() {
        let dir = tmp_dir("merge");
        let store = CrawlWriter::open(&dir, fp()).unwrap();
        // Interleave ranks across three segments, none sorted globally,
        // each long enough to span several chunks.
        let mut segs = [
            store.segment().unwrap(),
            store.segment().unwrap(),
            store.segment().unwrap(),
        ];
        for rank in 1..=300usize {
            segs[rank % 3].record(&log(rank)).unwrap();
        }
        for seg in segs {
            seg.finish().unwrap();
        }
        assert!(crate::plan_chunks(&dir).unwrap().len() > 3);
        assert_eq!(ranks(&dir), (1..=300).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_backfilled_lower_ranks_merge_in_order() {
        let dir = tmp_dir("backfill");
        let store = CrawlWriter::open(&dir, fp()).unwrap();
        let mut a = store.segment().unwrap();
        for r in [1usize, 3, 5] {
            a.record(&log(r)).unwrap();
        }
        a.finish().unwrap();
        let mut b = store.segment().unwrap();
        for r in [4usize, 6] {
            b.record(&log(r)).unwrap();
        }
        b.finish().unwrap();
        drop(store);
        // Resume back-fills the hole (rank 2, below every segment's max
        // rank) — it lands in a fresh segment, so the merge stays
        // correct instead of burying 2 behind 5.
        let store = CrawlWriter::open(&dir, fp()).unwrap();
        assert!(!store.done_ranks().contains(&2));
        let mut c = store.segment().unwrap();
        c.record(&log(2)).unwrap();
        c.finish().unwrap();
        drop(store);
        assert_eq!(ranks(&dir), vec![1, 2, 3, 4, 5, 6]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unsorted_segment_is_refused_not_misordered() {
        let dir = tmp_dir("unsorted");
        std::fs::create_dir_all(&dir).unwrap();
        // A hand-written store (as a foreign writer might leave) whose
        // segment violates the sorted-run invariant but whose manifest
        // claims it durable.
        let mut bytes = Vec::new();
        for rank in [5usize, 2] {
            let mut payload = Vec::new();
            codec::encode_visit_log(&log(rank), &mut payload);
            codec::write_frame(&mut bytes, rank as u64, &payload);
        }
        std::fs::write(dir.join("seg-7.bin"), &bytes).unwrap();
        let mut m = Manifest::new(fp());
        let meta = m.segment_mut("seg-7.bin");
        meta.synced_records = 2;
        meta.max_rank = 5;
        m.store(&dir).unwrap();
        // The reader surfaces the violation instead of emitting records
        // out of rank order…
        let results: Vec<_> = match CrawlReader::open(&dir) {
            Ok(r) => r.collect(),
            Err(e) => vec![Err(e)],
        };
        assert!(
            results.iter().any(|r| matches!(
                r,
                Err(StoreError::Corrupt { detail, .. }) if detail.contains("not rank-sorted")
            )),
            "descending rank must surface as corruption, got {results:?}"
        );
        // …and writer recovery refuses to adopt the store at all.
        assert!(matches!(
            CrawlWriter::open(&dir, fp()),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writer_refuses_descending_ranks() {
        let dir = tmp_dir("descend");
        let store = CrawlWriter::open(&dir, fp()).unwrap();
        let mut seg = store.segment().unwrap();
        seg.record(&log(5)).unwrap();
        assert!(matches!(
            seg.record(&log(2)),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_is_refused() {
        let dir = tmp_dir("nomani");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            CrawlReader::open(&dir),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Appends `tail` to the store's only segment after a one-record
    /// crawl, then checks the reader still sees exactly that record.
    fn torn_tail_is_invisible(tag: &str, tail: &[u8]) {
        let dir = tmp_dir(tag);
        let store = CrawlWriter::open(&dir, fp()).unwrap();
        let mut seg = store.segment().unwrap();
        seg.record(&log(1)).unwrap();
        seg.finish().unwrap();
        drop(store);
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("seg-0.bin"))
            .unwrap();
        f.write_all(tail).unwrap();
        drop(f);
        assert_eq!(ranks(&dir), vec![1]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_ignored_when_reading() {
        // A whole frame header whose payload never reached the disk.
        let mut frame = Vec::new();
        codec::write_frame(&mut frame, 2, b"payload that was cut off");
        torn_tail_is_invisible("torntail", &frame[..codec::FRAME_HEADER + 4]);
    }

    #[test]
    fn binary_torn_tail_is_ignored_when_reading() {
        torn_tail_is_invisible("bin-torntail", b"\x99\x00\x00"); // half a header
    }

    #[test]
    fn binary_watermark_shortfall_is_corrupt() {
        let dir = tmp_dir("bin-short");
        let store = CrawlWriter::open(&dir, fp()).unwrap();
        let mut seg = store.segment().unwrap();
        seg.record(&log(1)).unwrap();
        seg.record(&log(2)).unwrap();
        seg.finish().unwrap();
        drop(store);
        // Chop the final frame off WITHOUT updating the manifest: the
        // reader must refuse the silently smaller dataset.
        let path = dir.join("seg-0.bin");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        let results: Vec<_> = match CrawlReader::open(&dir) {
            Ok(r) => r.collect(),
            Err(e) => vec![Err(e)],
        };
        assert!(
            results.iter().any(|r| matches!(
                r,
                Err(StoreError::Corrupt { detail, .. })
                    if detail.contains("short of its manifest watermark")
                        || detail.contains("checksum mismatch")
            )),
            "watermark shortfall must surface as corruption, got {results:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_chunks_cover_the_store_disjointly() {
        let dir = tmp_dir("streams");
        let store = CrawlWriter::open(&dir, fp()).unwrap();
        let mut a = store.segment().unwrap();
        let mut b = store.segment().unwrap();
        for rank in 1..=100usize {
            if rank % 2 == 0 { &mut a } else { &mut b }
                .record(&log(rank))
                .unwrap();
        }
        a.finish().unwrap();
        b.finish().unwrap();
        drop(store);
        let plan = crate::plan_chunks(&dir).unwrap();
        let mut per_segment = vec![Vec::new(); plan.segments()];
        for (i, spec) in plan.chunks().iter().enumerate() {
            for log in plan.open_chunk(i, ReadBackend::Pread).unwrap() {
                per_segment[spec.segment].push(log.unwrap().rank);
            }
        }
        let mut all: Vec<usize> = Vec::new();
        for ranks in per_segment {
            // Each segment's chunks, in order, are one sorted run…
            assert!(ranks.windows(2).all(|w| w[0] < w[1]));
            all.extend(ranks);
        }
        // …and together they cover the store exactly once.
        all.sort_unstable();
        assert_eq!(all, (1..=100).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
