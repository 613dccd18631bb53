//! The streaming read path: a rank-ordered k-way merge over segment
//! files, holding one record per segment in memory — plus per-segment
//! streams ([`SegmentStream`]), the unit a fold takes from a JSONL store.

use crate::codec::{self, SegmentFormat, FRAME_HEADER};
use crate::manifest::{Fingerprint, Manifest, SegmentMeta};
use crate::StoreError;
use cg_instrument::VisitLog;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs::File;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};

/// One record's undecoded body, as pulled from a segment.
enum Body {
    /// A JSONL line (newline stripped) and its parsed value tree.
    Json {
        raw: String,
        value: serde_json::Value,
    },
    /// A binary frame's payload, checksum already verified. Decoding
    /// to a [`VisitLog`] happens only when the record is consumed — no
    /// text is ever parsed on this path.
    Bin { payload: Vec<u8> },
}

impl Body {
    /// Decodes the record into a [`VisitLog`].
    fn into_log(self, file: &str) -> Result<VisitLog, StoreError> {
        match self {
            Body::Json { value, .. } => {
                serde_json::from_value(value).map_err(|e| StoreError::Corrupt {
                    file: file.to_string(),
                    detail: e.to_string(),
                })
            }
            Body::Bin { payload } => {
                // The specialized decoder: bytes straight to the log,
                // no intermediate `Content` tree. Its agreement with
                // the generic path is pinned by codec unit tests and
                // the cross-format differential tests.
                codec::decode_visit_log(&payload).map_err(|e| StoreError::Corrupt {
                    file: file.to_string(),
                    detail: e,
                })
            }
        }
    }

    /// The record as the compact JSON line a JSONL segment stores —
    /// the format-independent equivalence oracle.
    fn into_json_line(self, file: &str) -> Result<String, StoreError> {
        match self {
            Body::Json { raw, .. } => Ok(raw),
            Body::Bin { payload } => {
                let content = codec::decode_content(&payload).map_err(|e| StoreError::Corrupt {
                    file: file.to_string(),
                    detail: e,
                })?;
                Ok(codec::content_to_json_line(&content))
            }
        }
    }
}

/// One buffered record: the head of one segment's stream.
struct Head {
    rank: u64,
    seg: usize,
    body: Body,
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

/// Per-segment read state: a buffered file cursor bounded by the
/// manifest's durability watermark, enforcing the sorted-run invariant.
struct Segment {
    name: String,
    format: SegmentFormat,
    file: BufReader<File>,
    /// Durable records per the manifest watermark — the read bound.
    /// Bytes past it (a mid-flush batch of a live writer, a torn tail
    /// after a crash) are not yet part of the store's durable content.
    remaining: u64,
    /// Last rank pulled: the k-way merge is only correct over
    /// internally sorted runs, so a descending rank inside one segment
    /// is store corruption, not something to silently misorder.
    last_rank: Option<u64>,
}

impl Segment {
    /// Opens one manifest-listed segment for streaming.
    fn open(dir: &Path, meta: &SegmentMeta) -> Result<Segment, StoreError> {
        let format = SegmentFormat::of_file(&meta.file).ok_or_else(|| StoreError::Corrupt {
            file: meta.file.clone(),
            detail: "segment file has no recognized format extension".to_string(),
        })?;
        let file = File::open(dir.join(&meta.file)).map_err(|e| StoreError::Corrupt {
            file: meta.file.clone(),
            detail: format!("manifest lists segment but it cannot be opened: {e}"),
        })?;
        Ok(Segment {
            name: meta.file.clone(),
            format,
            file: BufReader::new(file),
            remaining: meta.synced_records,
            last_rank: None,
        })
    }

    /// An EOF (or torn record) *below* the durable watermark: records
    /// the manifest promises are missing.
    fn short_of_watermark(&self) -> StoreError {
        StoreError::Corrupt {
            file: self.name.clone(),
            detail: format!(
                "segment ends {} records short of its manifest watermark",
                self.remaining
            ),
        }
    }

    /// Reads the next durable record; `Ok(None)` once the manifest
    /// watermark is exhausted. Anything less than the watermark's worth
    /// of complete records is corruption.
    fn next_record(&mut self) -> Result<Option<(u64, Body)>, StoreError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let tele = crate::telemetry::metrics();
        let (rank, body) = match self.format {
            SegmentFormat::Jsonl => {
                let mut raw = String::new();
                let n = self.file.read_line(&mut raw)?;
                if n == 0 || !raw.ends_with('\n') {
                    return Err(self.short_of_watermark());
                }
                tele.bytes_replayed.add(n as u64);
                raw.pop();
                let value: serde_json::Value =
                    serde_json::from_str(&raw).map_err(|e| StoreError::Corrupt {
                        file: self.name.clone(),
                        detail: e.to_string(),
                    })?;
                let rank = value.get("rank").and_then(|r| r.as_u64()).ok_or_else(|| {
                    StoreError::Corrupt {
                        file: self.name.clone(),
                        detail: "record without a rank".to_string(),
                    }
                })?;
                (rank, Body::Json { raw, value })
            }
            SegmentFormat::Binary => {
                let mut header = [0u8; FRAME_HEADER];
                read_frame_bytes(&mut self.file, &mut header)?
                    .then_some(())
                    .ok_or_else(|| self.short_of_watermark())?;
                let header = codec::parse_header(&header);
                let mut payload = vec![0u8; header.len];
                read_frame_bytes(&mut self.file, &mut payload)?
                    .then_some(())
                    .ok_or_else(|| self.short_of_watermark())?;
                if codec::frame_check(header.rank, &payload) != header.check {
                    return Err(StoreError::Corrupt {
                        file: self.name.clone(),
                        detail: "frame checksum mismatch below the manifest watermark".to_string(),
                    });
                }
                tele.bytes_replayed
                    .add((FRAME_HEADER + payload.len()) as u64);
                (header.rank, Body::Bin { payload })
            }
        };
        tele.records_replayed.incr();
        self.remaining -= 1;
        if let Some(prev) = self.last_rank {
            if rank <= prev {
                // The k-way merge is only correct over internally
                // sorted runs; the writer guarantees this by giving
                // every handle a fresh file. A descending rank means
                // the store was written some other way — refuse rather
                // than silently emit out of order.
                return Err(StoreError::Corrupt {
                    file: self.name.clone(),
                    detail: format!("segment not rank-sorted (rank {rank} after {prev})"),
                });
            }
        }
        self.last_rank = Some(rank);
        Ok(Some((rank, body)))
    }
}

/// `read_exact` that reports a clean-or-torn EOF as `Ok(false)` instead
/// of conflating it with real I/O failure.
fn read_frame_bytes(file: &mut BufReader<File>, buf: &mut [u8]) -> Result<bool, StoreError> {
    match file.read_exact(buf) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(StoreError::Io(e)),
    }
}

/// Streams a store's [`VisitLog`]s back in rank order without
/// materializing the crawl: a k-way merge whose memory footprint is one
/// record per segment, independent of crawl size.
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
    segments: Vec<Segment>,
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
        let dir: PathBuf = dir.as_ref().to_path_buf();
        let manifest = load_manifest(&dir)?;
        let mut segments = Vec::new();
        for meta in &manifest.segments {
            segments.push(Segment::open(&dir, meta)?);
        }
        let mut reader = CrawlReader {
            fingerprint: manifest.fingerprint,
            segments,
            heap: BinaryHeap::new(),
            failed: false,
        };
        for i in 0..reader.segments.len() {
            if let Some(head) = reader.pull(i)? {
                reader.heap.push(Reverse(head));
            }
        }
        Ok(reader)
    }

    /// The crawl this store belongs to.
    pub fn fingerprint(&self) -> &Fingerprint {
        &self.fingerprint
    }

    /// Reads the next durable record of segment `seg` into a merge head.
    fn pull(&mut self, seg: usize) -> Result<Option<Head>, StoreError> {
        Ok(self.segments[seg]
            .next_record()?
            .map(|(rank, body)| Head { rank, seg, body }))
    }

    /// Pops the lowest-rank head and refills from its segment.
    fn pop_head(&mut self) -> Option<Result<Head, StoreError>> {
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
        Some(Ok(head))
    }

    /// The rank-ordered stream as compact JSON lines. For JSONL stores
    /// these are the raw on-disk lines (newlines stripped); for binary
    /// stores each frame is decoded and reprinted — byte-identical to
    /// what a JSONL store of the same crawl holds. Two stores of the
    /// same crawl are equivalent iff these streams are byte-identical —
    /// the durability and cross-format tests' oracle.
    pub fn raw_lines(self) -> RawLines {
        RawLines(self)
    }
}

impl Iterator for CrawlReader {
    type Item = Result<VisitLog, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        let head = match self.pop_head()? {
            Ok(h) => h,
            Err(e) => return Some(Err(e)),
        };
        Some(head.body.into_log(&self.segments[head.seg].name))
    }
}

/// Iterator over a store's merged records as compact JSON lines (see
/// [`CrawlReader::raw_lines`]).
pub struct RawLines(CrawlReader);

impl Iterator for RawLines {
    type Item = Result<String, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        let head = match self.0.pop_head()? {
            Ok(h) => h,
            Err(e) => return Some(Err(e)),
        };
        Some(head.body.into_json_line(&self.0.segments[head.seg].name))
    }
}

/// One segment's records in file order — each segment is an internally
/// rank-sorted run, so this is also rank order *within* the segment.
/// [`fold_store`](crate::fold_store) folds each JSONL segment as one
/// unit through this stream.
pub struct SegmentStream {
    segment: Segment,
    failed: bool,
}

impl SegmentStream {
    /// The segment's file name (relative to the store directory).
    pub fn name(&self) -> &str {
        &self.segment.name
    }
}

impl Iterator for SegmentStream {
    type Item = Result<VisitLog, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let result = match self.segment.next_record() {
            Ok(Some((_, body))) => body.into_log(&self.segment.name),
            Ok(None) => return None,
            Err(e) => Err(e),
        };
        if result.is_err() {
            self.failed = true;
        }
        Some(result)
    }
}

/// Opens every manifest-listed segment of the store at `dir` as an
/// independent stream, in manifest order (sorted by file name).
pub fn segment_streams(dir: impl AsRef<Path>) -> Result<Vec<SegmentStream>, StoreError> {
    let dir = dir.as_ref();
    let manifest = load_manifest(dir)?;
    manifest
        .segments
        .iter()
        .map(|meta| open_segment_stream(dir, meta))
        .collect()
}

/// Opens one manifest-listed segment as a stream.
pub(crate) fn open_segment_stream(
    dir: &Path,
    meta: &SegmentMeta,
) -> Result<SegmentStream, StoreError> {
    Segment::open(dir, meta).map(|segment| SegmentStream {
        segment,
        failed: false,
    })
}

/// Loads the manifest, refusing a directory that has none.
fn load_manifest(dir: &Path) -> Result<Manifest, StoreError> {
    Manifest::load(dir)?.ok_or_else(|| StoreError::Corrupt {
        file: crate::MANIFEST_FILE.to_string(),
        detail: format!("no manifest in {}", dir.display()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::CrawlWriter;

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
            format: SegmentFormat::Jsonl,
        }
    }

    fn fp_bin() -> Fingerprint {
        fp().with_format(SegmentFormat::Binary)
    }

    fn log(rank: usize) -> VisitLog {
        VisitLog {
            site_domain: format!("site{rank}.com"),
            rank,
            complete: !rank.is_multiple_of(3),
            ..VisitLog::default()
        }
    }

    #[test]
    fn merge_is_rank_ordered_across_segments() {
        for fingerprint in [fp(), fp_bin()] {
            let dir = tmp_dir(&format!("merge-{}", fingerprint.format));
            let store = CrawlWriter::open(&dir, fingerprint).unwrap();
            // Interleave ranks across three segments, none sorted globally.
            let mut segs = [
                store.segment().unwrap(),
                store.segment().unwrap(),
                store.segment().unwrap(),
            ];
            for rank in 1..=30usize {
                segs[rank % 3].record(&log(rank)).unwrap();
            }
            for seg in segs {
                seg.finish().unwrap();
            }
            let ranks: Vec<usize> = CrawlReader::open(&dir)
                .unwrap()
                .map(|l| l.unwrap().rank)
                .collect();
            assert_eq!(ranks, (1..=30).collect::<Vec<_>>());
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn raw_lines_match_reserialized_logs() {
        for fingerprint in [fp(), fp_bin()] {
            let dir = tmp_dir(&format!("raw-{}", fingerprint.format));
            let store = CrawlWriter::open(&dir, fingerprint).unwrap();
            let mut seg = store.segment().unwrap();
            for rank in [5usize, 7, 9] {
                seg.record(&log(rank)).unwrap();
            }
            seg.finish().unwrap();
            let raw: Vec<String> = CrawlReader::open(&dir)
                .unwrap()
                .raw_lines()
                .map(|l| l.unwrap())
                .collect();
            let reser: Vec<String> = CrawlReader::open(&dir)
                .unwrap()
                .map(|l| serde_json::to_string(&l.unwrap()).unwrap())
                .collect();
            assert_eq!(raw, reser);
            std::fs::remove_dir_all(&dir).unwrap();
        }
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
        let ranks: Vec<usize> = CrawlReader::open(&dir)
            .unwrap()
            .map(|l| l.unwrap().rank)
            .collect();
        assert_eq!(ranks, vec![1, 2, 3, 4, 5, 6]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unsorted_segment_is_refused_not_misordered() {
        let dir = tmp_dir("unsorted");
        std::fs::create_dir_all(&dir).unwrap();
        // A hand-written store (as an older or foreign writer might
        // leave) whose segment violates the sorted-run invariant but
        // whose manifest claims it durable.
        std::fs::write(
            dir.join("seg-7.jsonl"),
            "{\"rank\":5,\"site_domain\":\"a\",\"complete\":true}\n\
             {\"rank\":2,\"site_domain\":\"b\",\"complete\":true}\n",
        )
        .unwrap();
        let mut m = Manifest::new(fp());
        m.segment_mut("seg-7.jsonl").synced_records = 2;
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

    #[test]
    fn torn_tail_is_ignored_when_reading() {
        let dir = tmp_dir("torntail");
        let store = CrawlWriter::open(&dir, fp()).unwrap();
        let mut seg = store.segment().unwrap();
        seg.record(&log(1)).unwrap();
        seg.finish().unwrap();
        drop(store);
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("seg-0.jsonl"))
            .unwrap();
        f.write_all(b"{\"half").unwrap();
        drop(f);
        let ranks: Vec<usize> = CrawlReader::open(&dir)
            .unwrap()
            .map(|l| l.unwrap().rank)
            .collect();
        assert_eq!(ranks, vec![1]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn binary_torn_tail_is_ignored_when_reading() {
        let dir = tmp_dir("bin-torntail");
        let store = CrawlWriter::open(&dir, fp_bin()).unwrap();
        let mut seg = store.segment().unwrap();
        seg.record(&log(1)).unwrap();
        seg.finish().unwrap();
        drop(store);
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("seg-0.bin"))
            .unwrap();
        f.write_all(b"\x99\x00\x00").unwrap(); // half a frame header
        drop(f);
        let ranks: Vec<usize> = CrawlReader::open(&dir)
            .unwrap()
            .map(|l| l.unwrap().rank)
            .collect();
        assert_eq!(ranks, vec![1]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn binary_watermark_shortfall_is_corrupt() {
        let dir = tmp_dir("bin-short");
        let store = CrawlWriter::open(&dir, fp_bin()).unwrap();
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
        let results: Vec<_> = CrawlReader::open(&dir).unwrap().collect();
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
    fn segment_streams_cover_the_store_disjointly() {
        let dir = tmp_dir("streams");
        let store = CrawlWriter::open(&dir, fp_bin()).unwrap();
        let mut a = store.segment().unwrap();
        let mut b = store.segment().unwrap();
        for rank in 1..=10usize {
            if rank % 2 == 0 { &mut a } else { &mut b }
                .record(&log(rank))
                .unwrap();
        }
        a.finish().unwrap();
        b.finish().unwrap();
        drop(store);
        let mut all: Vec<usize> = Vec::new();
        for stream in segment_streams(&dir).unwrap() {
            let ranks: Vec<usize> = stream.map(|l| l.unwrap().rank).collect();
            // Each stream is internally rank-sorted…
            assert!(ranks.windows(2).all(|w| w[0] < w[1]));
            all.extend(ranks);
        }
        // …and together they cover the store exactly once.
        all.sort_unstable();
        assert_eq!(all, (1..=10).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
