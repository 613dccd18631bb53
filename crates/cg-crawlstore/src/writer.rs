//! The durable write path: per-worker segment files, fsync'd batches,
//! crash recovery, and resume.
//!
//! Every [`SegmentWriter`] gets a **fresh** segment file (`seg-<n>.bin`,
//! `n` strictly increasing across the store's lifetime, crash-resumes
//! included). Within one crawl a worker's ranks are monotonically
//! increasing (workers pull from a shared atomic counter), so every
//! segment file is an internally rank-sorted run — the invariant the
//! reader's k-way merge depends on. Appending resumed ranks into an old
//! segment would bury low ranks behind high ones and break the merge.

use crate::codec::{self, SegmentFormat, FRAME_HEADER};
use crate::index::{self, IndexEntry, INDEX_STRIDE};
use crate::manifest::{Fingerprint, Manifest};
use crate::StoreError;
use cg_browser::{SinkWorker, VisitConfig, VisitOutcome, VisitSink};
use cg_instrument::VisitLog;
use cg_webgen::WebGenerator;
use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Records to buffer between fsync + manifest checkpoints.
const DEFAULT_BATCH: usize = 64;

/// Writer-exclusion lock file inside a store directory.
const LOCK_FILE: &str = ".lock";

/// Shared store state: the directory plus the checkpoint record every
/// segment writer updates when it makes a batch durable.
struct StoreShared {
    dir: PathBuf,
    manifest: Mutex<Manifest>,
    batch: usize,
    /// Next unused segment number (seeded past every file on disk), so
    /// each [`SegmentWriter`] opens a fresh, exclusively-owned file.
    next_seg: AtomicUsize,
    /// OS advisory lock on `.lock`, held for the life of the store (and
    /// of every [`SegmentWriter`] via this `Arc`); released by the OS
    /// even on `kill -9`.
    _lock: File,
}

impl StoreShared {
    /// Marks `records`/`max_rank` of `file` durable and persists the
    /// manifest. Called only after the segment bytes are fsync'd.
    fn checkpoint(&self, file: &str, records: u64, max_rank: u64) -> Result<(), StoreError> {
        let mut m = self.manifest.lock().expect("manifest lock poisoned");
        let seg = m.segment_mut(file);
        seg.synced_records = records;
        seg.max_rank = seg.max_rank.max(max_rank);
        m.store(&self.dir)
    }
}

/// Aggregate size of a store on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Segment files present.
    pub segments: usize,
    /// Visit records known durable across all segments.
    pub records: u64,
    /// Total segment bytes on disk.
    pub bytes: u64,
}

/// The append side of a crawl store.
///
/// Opening a directory that already holds a crawl with the same
/// [`Fingerprint`] turns the store into a checkpoint: torn trailing
/// frames are truncated away, watermarks are re-derived from the
/// surviving records, and [`CrawlWriter::done_ranks`] reports which
/// ranks need no re-visit. Used as a
/// [`VisitSink`], the store skips those ranks automatically — including
/// ranks committed earlier through the *same* open store, so sequential
/// `crawl_into` calls compose. Run crawls one at a time per open store:
/// a process-level `.lock` excludes other processes, and concurrent
/// same-store crawls in one process have no sane interleaving (each
/// would race the other's not-yet-merged ranks).
///
/// ```no_run
/// use cg_browser::{crawl_into, VisitConfig};
/// use cg_crawlstore::{CrawlWriter, Fingerprint};
/// use cg_webgen::{GenConfig, WebGenerator};
///
/// let gen = WebGenerator::new(GenConfig::small(500), 1);
/// let cfg = VisitConfig::regular();
/// let fp = Fingerprint::new(gen.master_seed(), 1, 500, &cfg, gen.config());
/// let store = CrawlWriter::open("crawl-dir", fp).unwrap();
/// println!("{} ranks already durable", store.done_ranks().len());
/// crawl_into(&gen, &cfg, 1, 500, 4, &store).unwrap(); // resumes
/// ```
pub struct CrawlWriter {
    shared: Arc<StoreShared>,
    /// Ranks durable when the store was opened.
    done: HashSet<usize>,
    /// Ranks committed through this writer since open (updated as
    /// worker segments merge), so a second `crawl_into` over the same
    /// open store skips them instead of appending duplicates.
    session_done: RwLock<HashSet<usize>>,
}

impl CrawlWriter {
    /// Opens (creating or resuming) the store at `dir` for the crawl
    /// identified by `fingerprint`.
    ///
    /// * A missing/empty directory becomes a fresh store.
    /// * An existing store with the same fingerprint is recovered: each
    ///   segment is scanned, a torn trailing frame (a crash mid-append)
    ///   is truncated off, and every surviving record's rank lands in
    ///   [`CrawlWriter::done_ranks`].
    /// * An existing store with a different fingerprint is refused
    ///   ([`StoreError::FingerprintMismatch`]) — its records would not
    ///   match this crawl's visits.
    pub fn open(
        dir: impl AsRef<Path>,
        fingerprint: Fingerprint,
    ) -> Result<CrawlWriter, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        // Writer exclusion: two appenders interleaving batches into the
        // same segment files would corrupt them beyond truncation
        // repair. The advisory lock dies with the process, so a crashed
        // crawl never wedges its store.
        let lock = File::create(dir.join(LOCK_FILE))?;
        match lock.try_lock() {
            Ok(()) => {}
            Err(std::fs::TryLockError::WouldBlock) => {
                return Err(StoreError::Locked { dir });
            }
            Err(std::fs::TryLockError::Error(e)) => return Err(StoreError::Io(e)),
        }
        let mut manifest = match Manifest::load(&dir)? {
            Some(m) => {
                if m.fingerprint != fingerprint {
                    return Err(StoreError::FingerprintMismatch {
                        found: Box::new(m.fingerprint),
                        expected: Box::new(fingerprint),
                    });
                }
                m
            }
            None => Manifest::new(fingerprint),
        };

        // Recovery scan: every segment file on disk (the manifest may
        // lag behind a crash), truncating torn tails and collecting the
        // completed-rank set. New writers always get fresh file numbers
        // past everything seen here.
        let mut done = HashSet::new();
        let mut next_seg = 0usize;
        manifest.segments.clear();
        for file in segment_files(&dir)? {
            let path = dir.join(&file);
            let scan = recover_segment(&path, &file)?;
            if let Some(n) = segment_number(&file) {
                next_seg = next_seg.max(n + 1);
            }
            if scan.ranks.is_empty() {
                // Nothing durable survived (a crash before the first
                // commit): drop the empty file rather than carry it.
                std::fs::remove_file(&path)?;
                index::remove_index(&dir, &file);
                continue;
            }
            for r in &scan.ranks {
                done.insert(*r);
            }
            // The recovery scan just walked every surviving frame;
            // rewriting the sidecar from it costs nothing extra and
            // upgrades index-less stores from older writers.
            let _ = index::write_index(&dir, &file, &scan.index);
            let seg = manifest.segment_mut(&file);
            seg.synced_records = scan.ranks.len() as u64;
            seg.max_rank = scan.ranks.iter().copied().max().unwrap_or(0) as u64;
        }
        manifest.store(&dir)?;

        Ok(CrawlWriter {
            shared: Arc::new(StoreShared {
                dir,
                manifest: Mutex::new(manifest),
                batch: DEFAULT_BATCH,
                next_seg: AtomicUsize::new(next_seg),
                _lock: lock,
            }),
            done,
            session_done: RwLock::new(HashSet::new()),
        })
    }

    /// Sets the fsync batch size (records buffered between durability
    /// checkpoints; default 64). A batch of 1 fsyncs every record.
    pub fn with_batch(mut self, batch: usize) -> CrawlWriter {
        Arc::get_mut(&mut self.shared)
            .expect("with_batch must be called before opening segments")
            .batch = batch.max(1);
        self
    }

    /// Ranks already durable in this store — a resumed crawl skips them.
    pub fn done_ranks(&self) -> &HashSet<usize> {
        &self.done
    }

    /// The crawl this store belongs to.
    pub fn fingerprint(&self) -> Fingerprint {
        self.shared
            .manifest
            .lock()
            .expect("manifest lock poisoned")
            .fingerprint
            .clone()
    }

    /// Opens an append handle on a **fresh** segment file
    /// (`seg-<n>.bin`, `n` never reused — not even across crash
    /// resumes). Each handle owns its file exclusively and appends take
    /// no cross-worker lock (the shared manifest is touched only at
    /// batch checkpoints). Fresh
    /// files are what keep every segment an internally rank-sorted run
    /// when a resume back-fills ranks lower than anything already
    /// stored.
    pub fn segment(&self) -> Result<SegmentWriter, StoreError> {
        crate::telemetry::metrics().segments_opened.incr();
        let n = self.shared.next_seg.fetch_add(1, Ordering::Relaxed);
        let file_name = format!("seg-{n}.bin");
        let path = self.shared.dir.join(&file_name);
        let file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(path)?;
        Ok(SegmentWriter {
            shared: Arc::clone(&self.shared),
            file_name,
            file,
            buf: Vec::new(),
            encoder: codec::VisitEncoder::default(),
            scratch: Vec::new(),
            pending: 0,
            records: 0,
            durable_bytes: 0,
            max_rank: 0,
            session_ranks: Vec::new(),
            index: Vec::new(),
        })
    }

    /// Segment/record/byte totals (durable records only).
    pub fn stats(&self) -> Result<StoreStats, StoreError> {
        let m = self.shared.manifest.lock().expect("manifest lock poisoned");
        let mut stats = StoreStats {
            segments: m.segments.len(),
            records: m.segments.iter().map(|s| s.synced_records).sum(),
            bytes: 0,
        };
        for seg in &m.segments {
            stats.bytes += std::fs::metadata(self.shared.dir.join(&seg.file))?.len();
        }
        Ok(stats)
    }
}

/// The exclusive append handle for one segment file. Dropping a writer
/// without [`SegmentWriter::finish`] loses at most the unsynced tail of
/// the current batch — exactly what a crash loses.
pub struct SegmentWriter {
    shared: Arc<StoreShared>,
    file_name: String,
    file: File,
    /// Serialized records not yet written+fsync'd.
    buf: Vec<u8>,
    /// The payload encoder, its string table reused across records.
    encoder: codec::VisitEncoder,
    /// Reusable payload buffer.
    scratch: Vec<u8>,
    /// Records currently in `buf`.
    pending: u64,
    /// Records durable in this segment (recovered + committed).
    records: u64,
    /// Bytes committed (written + fsync'd) to the file so far — the
    /// base offset of the in-memory batch, for frame-index entries.
    durable_bytes: u64,
    /// Highest rank seen in this run's batches.
    max_rank: u64,
    /// Ranks recorded through this handle (fed back into the store's
    /// session-done set when the handle merges).
    session_ranks: Vec<usize>,
    /// Frame-index entries: `(rank, offset)` of every
    /// [`INDEX_STRIDE`]-th frame, flushed to the `seg-<n>.idx` sidecar
    /// at each commit.
    index: Vec<IndexEntry>,
}

impl SegmentWriter {
    /// Appends one visit log as a frame. The record becomes durable at
    /// the next batch boundary or [`SegmentWriter::finish`].
    pub fn record(&mut self, log: &VisitLog) -> Result<(), StoreError> {
        // Each segment must stay an internally rank-sorted run or the
        // reader's k-way merge emits records out of order. Crawl
        // workers satisfy this naturally (ranks come from a monotonic
        // counter); refuse rather than write a store the reader will
        // reject.
        if log.rank as u64 <= self.max_rank {
            return Err(StoreError::Corrupt {
                file: self.file_name.clone(),
                detail: format!(
                    "ranks must be appended in ascending order (rank {} after {})",
                    log.rank, self.max_rank
                ),
            });
        }
        let buffered = self.buf.len();
        // Straight from the borrowed log to payload bytes: no JSON text
        // and no intermediate tree is built on the write path.
        self.scratch.clear();
        self.encoder.encode(log, &mut self.scratch);
        // Every STRIDE-th frame lands in the sidecar index, so chunked
        // readers can cut this segment without a scan.
        if (self.records + self.pending).is_multiple_of(u64::from(INDEX_STRIDE)) {
            self.index.push(IndexEntry {
                rank: log.rank as u64,
                offset: self.durable_bytes + buffered as u64,
            });
        }
        codec::write_frame(&mut self.buf, log.rank as u64, &self.scratch);
        let tele = crate::telemetry::metrics();
        tele.records_written.incr();
        tele.bytes_written.add((self.buf.len() - buffered) as u64);
        self.pending += 1;
        self.max_rank = self.max_rank.max(log.rank as u64);
        self.session_ranks.push(log.rank);
        if self.pending >= self.shared.batch as u64 {
            self.commit()?;
        }
        Ok(())
    }

    /// Writes and fsyncs the pending batch, then checkpoints the
    /// manifest watermark.
    fn commit(&mut self) -> Result<(), StoreError> {
        if self.pending == 0 {
            return Ok(());
        }
        let _span = cg_telemetry::span!("segment_commit", self.pending);
        self.file.write_all(&self.buf)?;
        self.file.sync_data()?;
        crate::telemetry::metrics().fsyncs.incr();
        self.records += self.pending;
        self.durable_bytes += self.buf.len() as u64;
        self.buf.clear();
        self.pending = 0;
        self.shared
            .checkpoint(&self.file_name, self.records, self.max_rank)?;
        // Refresh the sidecar index to cover everything just made
        // durable. Advisory: readers validate it and rescan on any
        // doubt, so its write is not fsync'd and may not fail the
        // commit path for data that *is* durable.
        let _ = index::write_index(&self.shared.dir, &self.file_name, &self.index);
        Ok(())
    }

    /// Flushes the final batch and checkpoints. Consumes the writer. A
    /// handle that never recorded anything removes its (empty) file, so
    /// no-op resumes do not litter the store with zero-byte segments.
    pub fn finish(mut self) -> Result<(), StoreError> {
        self.commit()?;
        if self.records == 0 {
            std::fs::remove_file(self.shared.dir.join(&self.file_name))?;
            index::remove_index(&self.shared.dir, &self.file_name);
        }
        Ok(())
    }
}

impl SinkWorker for SegmentWriter {
    fn record(&mut self, outcome: VisitOutcome) -> std::io::Result<()> {
        SegmentWriter::record(self, &outcome.log).map_err(std::io::Error::from)
    }
}

impl VisitSink for CrawlWriter {
    type Worker = SegmentWriter;

    fn is_done(&self, rank: usize) -> bool {
        self.done.contains(&rank)
            || self
                .session_done
                .read()
                .expect("session lock poisoned")
                .contains(&rank)
    }

    fn worker(&self, _index: usize) -> std::io::Result<SegmentWriter> {
        // The worker index is irrelevant to naming: every handle gets a
        // fresh file so each crawl's sorted runs stay separate.
        self.segment().map_err(std::io::Error::from)
    }

    fn merge(&self, mut worker: SegmentWriter) -> std::io::Result<()> {
        let ranks = std::mem::take(&mut worker.session_ranks);
        worker.finish().map_err(std::io::Error::from)?;
        self.session_done
            .write()
            .expect("session lock poisoned")
            .extend(ranks);
        Ok(())
    }
}

/// Opens (or resumes) the store at `dir` for the crawl defined by `gen`
/// and `cfg` over ranks `[from, to]`. The [`Fingerprint`] — master
/// seed, rank range, visit-config digest, generator-config digest — is
/// derived here, so every surface (experiments CLI, examples, tests)
/// validates resume compatibility identically instead of each
/// assembling its own.
pub fn open_store(
    dir: impl AsRef<Path>,
    gen: &WebGenerator,
    cfg: &VisitConfig,
    from: usize,
    to: usize,
) -> Result<CrawlWriter, StoreError> {
    open_store_with(dir, gen, cfg, from, to, SegmentFormat::Binary)
}

/// [`open_store`], with the segment format named explicitly. Binary is
/// the only format; it is recorded in the fingerprint.
pub fn open_store_with(
    dir: impl AsRef<Path>,
    gen: &WebGenerator,
    cfg: &VisitConfig,
    from: usize,
    to: usize,
    format: SegmentFormat,
) -> Result<CrawlWriter, StoreError> {
    let fp = Fingerprint {
        format,
        ..Fingerprint::new(gen.master_seed(), from, to, cfg, gen.config())
    };
    CrawlWriter::open(dir, fp)
}

/// The outcome of one durable crawl session (see [`crawl_to_store`]).
#[derive(Debug, Clone)]
pub struct StoreCrawl {
    /// Ranks already durable when the store was opened (skipped).
    pub resumed: usize,
    /// This run's visit counts (resumed ranks not included).
    pub summary: cg_browser::CrawlSummary,
    /// Store totals after the crawl.
    pub stats: StoreStats,
}

/// The shared `--store` orchestration every surface uses: open or
/// resume the store at `dir` ([`open_store`]), report the just-opened
/// store through `on_open` (print a resume notice, inspect
/// [`CrawlWriter::done_ranks`]), crawl the missing ranks, and return
/// the session totals. Reading the result back is the analysis
/// layer's job — the store layer stays below it: `cg_analysis`'s
/// `Census::from_store_with` folds every §5 table and
/// `StreamStats::from_store` the crawl-wide counters; neither keeps a
/// log.
pub fn crawl_to_store(
    dir: impl AsRef<Path>,
    gen: &WebGenerator,
    cfg: &VisitConfig,
    from: usize,
    to: usize,
    threads: usize,
    on_open: impl FnOnce(&CrawlWriter),
) -> Result<StoreCrawl, StoreError> {
    let store = open_store(dir, gen, cfg, from, to)?;
    on_open(&store);
    let resumed = store.done_ranks().len();
    let summary = cg_browser::crawl_into(gen, cfg, from, to, threads, &store)?;
    let stats = store.stats()?;
    Ok(StoreCrawl {
        resumed,
        summary,
        stats,
    })
}

/// Segment file names (`seg-*.bin`) in `dir`, sorted. A `seg-*.jsonl`
/// file is a leftover of a store from before binary-only segments:
/// refused like any other damage a resume cannot repair.
pub(crate) fn segment_files(dir: &Path) -> Result<Vec<String>, StoreError> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy().into_owned();
        if !name.starts_with("seg-") {
            continue;
        }
        if name.ends_with(".jsonl") {
            return Err(StoreError::Corrupt {
                file: name,
                detail: "JSONL segment in the store directory: only binary segments are supported"
                    .to_string(),
            });
        }
        if name.ends_with(".bin") {
            out.push(name);
        }
    }
    out.sort();
    Ok(out)
}

/// The `<n>` of a `seg-<n>.bin` file name.
fn segment_number(file_name: &str) -> Option<usize> {
    file_name
        .strip_prefix("seg-")?
        .strip_suffix(".bin")?
        .parse()
        .ok()
}

struct SegmentScan {
    /// Ranks of every surviving (complete, checksummed) frame.
    ranks: Vec<usize>,
    /// Frame-index entries for the surviving frames, rebuilt as a free
    /// byproduct of the scan.
    index: Vec<IndexEntry>,
}

/// Scans one segment, truncating a torn trailing frame in place:
///
/// * fewer than a header's worth of bytes left, or a declared payload
///   running past EOF → torn (a crash mid-append): truncate;
/// * a checksum-mismatched *final* frame → torn at the record level:
///   truncate;
/// * a checksum mismatch with complete frames after it → real
///   corruption: error.
///
/// The rank lives in the frame header and the checksum vouches for the
/// payload bytes, so recovery never decodes a payload — scanning is a
/// header read plus a checksum per record.
fn recover_segment(path: &Path, file_name: &str) -> Result<SegmentScan, StoreError> {
    let _span = cg_telemetry::span!("segment_recover");
    let file_len = std::fs::metadata(path)?.len();
    let mut reader = BufReader::new(File::open(path)?);
    let mut ranks = Vec::new();
    let mut index = Vec::new();
    let mut payload = Vec::new();
    let mut pos = 0u64;
    let mut keep_until = 0u64;
    loop {
        if file_len - pos < FRAME_HEADER as u64 {
            break; // clean EOF (0 left) or a torn header: truncate covers both
        }
        let mut header = [0u8; FRAME_HEADER];
        reader.read_exact(&mut header)?;
        let header = codec::parse_header(&header);
        let end = pos + FRAME_HEADER as u64 + header.len as u64;
        if end > file_len {
            break; // payload torn off by the crash
        }
        payload.clear();
        payload.resize(header.len, 0);
        reader.read_exact(&mut payload)?;
        if codec::frame_check(header.rank, &payload) != header.check {
            if end == file_len {
                break; // a torn final frame: truncate
            }
            // Complete frames follow the damage: truncation repair
            // would silently drop durable records — refuse instead.
            return Err(StoreError::Corrupt {
                file: file_name.to_string(),
                detail: format!("frame checksum mismatch at byte {pos}"),
            });
        }
        let rank = header.rank as usize;
        if ranks.last().is_some_and(|&prev| rank <= prev) {
            return Err(StoreError::Corrupt {
                file: file_name.to_string(),
                detail: format!("segment not rank-sorted at byte {pos}"),
            });
        }
        if (ranks.len() as u64).is_multiple_of(u64::from(INDEX_STRIDE)) {
            index.push(IndexEntry {
                rank: header.rank,
                offset: pos,
            });
        }
        ranks.push(rank);
        pos = end;
        keep_until = end;
    }
    if keep_until < file_len {
        crate::telemetry::metrics().torn_tail_recoveries.incr();
        let f = OpenOptions::new().write(true).open(path)?;
        f.set_len(keep_until)?;
        f.sync_data()?;
    }
    Ok(SegmentScan { ranks, index })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::MANIFEST_FILE;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cg-writer-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fp() -> Fingerprint {
        Fingerprint {
            master_seed: 1,
            from: 1,
            to: 10,
            visit_config: "cfg".into(),
            generator: "gen".into(),
            format: SegmentFormat::Binary,
        }
    }

    fn log(rank: usize) -> VisitLog {
        VisitLog {
            complete: true,
            ..VisitLog::new(&format!("site{rank}.com"), rank)
        }
    }

    #[test]
    fn fresh_store_appends_and_checkpoints() {
        let dir = tmp_dir("fresh");
        let store = CrawlWriter::open(&dir, fp()).unwrap().with_batch(2);
        let mut seg = store.segment().unwrap();
        for r in 1..=5 {
            seg.record(&log(r)).unwrap();
        }
        seg.finish().unwrap();
        let stats = store.stats().unwrap();
        assert_eq!(stats.segments, 1);
        assert_eq!(stats.records, 5);
        assert!(stats.bytes > 0);
        // Reopen: all five ranks are done.
        drop(store);
        let store = CrawlWriter::open(&dir, fp()).unwrap();
        let mut done: Vec<_> = store.done_ranks().iter().copied().collect();
        done.sort_unstable();
        assert_eq!(done, vec![1, 2, 3, 4, 5]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unsynced_batch_tail_is_lost_but_synced_records_survive() {
        let dir = tmp_dir("tail");
        let store = CrawlWriter::open(&dir, fp()).unwrap().with_batch(3);
        let mut seg = store.segment().unwrap();
        for r in 1..=4 {
            seg.record(&log(r)).unwrap();
        }
        // Drop without finish: the fourth record was never written.
        drop(seg);
        drop(store);
        let store = CrawlWriter::open(&dir, fp()).unwrap();
        assert_eq!(store.done_ranks().len(), 3);
        assert!(!store.done_ranks().contains(&4));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_handle_gets_a_fresh_file_even_across_resume() {
        let dir = tmp_dir("fresh-files");
        let store = CrawlWriter::open(&dir, fp()).unwrap();
        let mut a = store.segment().unwrap();
        let mut b = store.segment().unwrap();
        a.record(&log(1)).unwrap();
        b.record(&log(2)).unwrap();
        a.finish().unwrap();
        b.finish().unwrap();
        drop(store);
        // A resume never appends to old files: back-filled (lower)
        // ranks land in a new segment, keeping every file a sorted run.
        let store = CrawlWriter::open(&dir, fp()).unwrap();
        let mut c = store.segment().unwrap();
        c.record(&log(3)).unwrap();
        c.finish().unwrap();
        assert_eq!(
            segment_files(&dir).unwrap(),
            vec!["seg-0.bin", "seg-1.bin", "seg-2.bin"]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_handles_leave_no_files_behind() {
        let dir = tmp_dir("empty");
        let store = CrawlWriter::open(&dir, fp()).unwrap();
        let seg = store.segment().unwrap();
        seg.finish().unwrap();
        assert!(segment_files(&dir).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_mismatch_is_refused() {
        let dir = tmp_dir("mismatch");
        let store = CrawlWriter::open(&dir, fp()).unwrap();
        drop(store);
        let other = Fingerprint {
            master_seed: 2,
            ..fp()
        };
        assert!(matches!(
            CrawlWriter::open(&dir, other),
            Err(StoreError::FingerprintMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = tmp_dir("torn");
        let store = CrawlWriter::open(&dir, fp()).unwrap().with_batch(1);
        let mut seg = store.segment().unwrap();
        seg.record(&log(1)).unwrap();
        seg.record(&log(2)).unwrap();
        seg.finish().unwrap();
        drop(store);
        let path = dir.join("seg-0.bin");
        let clean_len = std::fs::metadata(&path).unwrap().len();
        // Simulate a crash mid-append: a real next frame, cut short.
        let mut payload = Vec::new();
        codec::encode_visit_log(&log(3), &mut payload);
        let mut frame = Vec::new();
        codec::write_frame(&mut frame, 3, &payload);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&frame[..frame.len() / 2]).unwrap();
        drop(f);
        let store = CrawlWriter::open(&dir, fp()).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        assert_eq!(store.done_ranks().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_file_damage_is_an_error() {
        let dir = tmp_dir("damage");
        std::fs::create_dir_all(&dir).unwrap();
        // Garbage that checksums as nothing, followed by a complete,
        // valid frame: truncation would drop a durable record.
        let mut bytes = Vec::new();
        codec::write_frame(&mut bytes, 1, b"not a visit");
        bytes[FRAME_HEADER] ^= 0x01;
        let mut payload = Vec::new();
        codec::encode_visit_log(&log(2), &mut payload);
        codec::write_frame(&mut bytes, 2, &payload);
        std::fs::write(dir.join("seg-0.bin"), &bytes).unwrap();
        assert!(matches!(
            CrawlWriter::open(&dir, fp()),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn binary_store_appends_and_recovers() {
        let dir = tmp_dir("bin-fresh");
        let store = CrawlWriter::open(&dir, fp()).unwrap().with_batch(2);
        let mut seg = store.segment().unwrap();
        for r in 1..=5 {
            seg.record(&log(r)).unwrap();
        }
        seg.finish().unwrap();
        assert_eq!(segment_files(&dir).unwrap(), vec!["seg-0.bin"]);
        drop(store);
        let store = CrawlWriter::open(&dir, fp()).unwrap();
        let mut done: Vec<_> = store.done_ranks().iter().copied().collect();
        done.sort_unstable();
        assert_eq!(done, vec![1, 2, 3, 4, 5]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn binary_torn_tail_is_truncated_on_open() {
        let dir = tmp_dir("bin-torn");
        let store = CrawlWriter::open(&dir, fp()).unwrap().with_batch(1);
        let mut seg = store.segment().unwrap();
        seg.record(&log(1)).unwrap();
        seg.record(&log(2)).unwrap();
        seg.finish().unwrap();
        drop(store);
        let path = dir.join("seg-0.bin");
        let clean_len = std::fs::metadata(&path).unwrap().len();
        // A crash mid-append: half a frame header, then (second case) a
        // full header whose payload never hit the disk.
        for torn in [
            &b"\x40\x00"[..],
            &b"\x40\x00\x00\x00AAAAAAAA\x00\x00\x00\x00half"[..],
        ] {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(torn).unwrap();
            drop(f);
            let store = CrawlWriter::open(&dir, fp()).unwrap();
            assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
            assert_eq!(store.done_ranks().len(), 2);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn binary_mid_file_damage_is_an_error() {
        let dir = tmp_dir("bin-damage");
        let store = CrawlWriter::open(&dir, fp()).unwrap().with_batch(1);
        let mut seg = store.segment().unwrap();
        for r in 1..=3 {
            seg.record(&log(r)).unwrap();
        }
        seg.finish().unwrap();
        drop(store);
        // Flip one payload byte of the FIRST frame: complete frames
        // follow it, so truncation repair would lose durable records.
        let path = dir.join("seg-0.bin");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[FRAME_HEADER + 1] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            CrawlWriter::open(&dir, fp()),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn binary_checksum_bad_final_frame_is_truncated() {
        let dir = tmp_dir("bin-badtail");
        let store = CrawlWriter::open(&dir, fp()).unwrap().with_batch(1);
        let mut seg = store.segment().unwrap();
        seg.record(&log(1)).unwrap();
        seg.record(&log(2)).unwrap();
        seg.finish().unwrap();
        drop(store);
        // Flip a byte in the LAST frame's payload: torn at the record
        // level, truncate back to rank 1.
        let path = dir.join("seg-0.bin");
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let store = CrawlWriter::open(&dir, fp()).unwrap();
        assert_eq!(store.done_ranks().len(), 1);
        assert!(store.done_ranks().contains(&1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pre_binary_store_is_refused() {
        let dir = tmp_dir("legacy");
        drop(CrawlWriter::open(&dir, fp()).unwrap());
        // The same store as an older writer recorded it: the manifest
        // names JSONL segments, or binary frames of v1 payloads.
        // Resuming into either is refused, naming the format found.
        let path = dir.join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        for old in ["\"jsonl\"", "\"binary\""] {
            std::fs::write(&path, text.replace("\"binary-v2\"", old)).unwrap();
            assert!(matches!(
                CrawlWriter::open(&dir, fp()),
                Err(StoreError::Corrupt { detail, .. }) if detail.contains(old)
            ));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_format_segment_file_is_refused() {
        let dir = tmp_dir("mixed");
        let store = CrawlWriter::open(&dir, fp()).unwrap();
        let mut seg = store.segment().unwrap();
        seg.record(&log(1)).unwrap();
        seg.finish().unwrap();
        drop(store);
        // A stray JSONL segment beside the binary ones (a directory a
        // pre-binary writer also used, its manifest since replaced).
        std::fs::write(dir.join("seg-9.jsonl"), b"{}\n").unwrap();
        assert!(matches!(
            CrawlWriter::open(&dir, fp()),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_is_atomic_on_disk() {
        let dir = tmp_dir("atomic");
        let store = CrawlWriter::open(&dir, fp()).unwrap();
        drop(store);
        assert!(dir.join(MANIFEST_FILE).exists());
        assert!(!dir.join(format!("{MANIFEST_FILE}.tmp")).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
