//! Positioned, page-cache-friendly reads over binary segments: the
//! traffic-replayer read path.
//!
//! [`CrawlReader`](crate::CrawlReader) and
//! [`SegmentStream`](crate::SegmentStream) stream a store **once**,
//! front to back, through a `BufReader` each — exactly right for
//! analysis folds. A traffic replayer has a different access pattern:
//! it loops over the same store for many passes, and re-opening every
//! segment per pass would re-allocate a fresh read buffer and re-issue
//! sequential `read(2)` calls each time. A [`FrameCursor`] instead
//! opens the file **once**, reads every frame with a positioned read
//! (`pread(2)` on Unix — no shared file offset, no userspace
//! re-buffering of segment bytes), decodes payloads into **one
//! reusable buffer**, and [`FrameCursor::rewind`]s in O(1) to start
//! the next pass. After the first pass the segment bytes are warm in
//! the OS page cache, so subsequent passes are memory-speed copies
//! into the same buffer — per-pass allocation is zero.
//!
//! Only binary segments are supported: the replayer's store format is
//! `SegmentFormat::Binary` by design (frames are length-prefixed, so a
//! positioned reader needs no line scanning), and a JSONL store is
//! refused up front rather than silently read the slow way.

use crate::codec::{self, SegmentFormat, FRAME_HEADER};
use crate::manifest::{Manifest, SegmentMeta};
use crate::StoreError;
use cg_instrument::VisitLog;
use std::fs::File;
use std::path::Path;

/// Reads exactly `buf.len()` bytes at `offset` without touching any
/// shared file cursor. `Ok(false)` is a clean or torn EOF (the frame is
/// not there in full), distinct from real I/O failure.
#[cfg(unix)]
pub(crate) fn pread_exact(file: &File, buf: &mut [u8], offset: u64) -> Result<bool, StoreError> {
    Ok(pread_upto(file, buf, offset)? == buf.len())
}

/// Reads up to `buf.len()` bytes at `offset`, stopping early only at
/// EOF; returns the bytes read. The speculative frame read wants "as
/// much as is there", where [`pread_exact`]'s all-or-nothing contract
/// would misread a short tail as absence.
#[cfg(unix)]
pub(crate) fn pread_upto(file: &File, buf: &mut [u8], offset: u64) -> Result<usize, StoreError> {
    use std::os::unix::fs::FileExt;
    let mut done = 0usize;
    while done < buf.len() {
        match file.read_at(&mut buf[done..], offset + done as u64) {
            Ok(0) => break,
            Ok(n) => done += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(StoreError::Io(e)),
        }
    }
    Ok(done)
}

/// Portable fallback: positioned read via `seek + read` (the file's
/// cursor is private to this handle, so semantics match `pread`).
#[cfg(not(unix))]
pub(crate) fn pread_exact(file: &File, buf: &mut [u8], offset: u64) -> Result<bool, StoreError> {
    Ok(pread_upto(file, buf, offset)? == buf.len())
}

/// See the Unix [`pread_upto`]; same contract over `seek + read`.
#[cfg(not(unix))]
pub(crate) fn pread_upto(file: &File, buf: &mut [u8], offset: u64) -> Result<usize, StoreError> {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = file;
    f.seek(SeekFrom::Start(offset)).map_err(StoreError::Io)?;
    let mut done = 0usize;
    while done < buf.len() {
        match f.read(&mut buf[done..]) {
            Ok(0) => break,
            Ok(n) => done += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(StoreError::Io(e)),
        }
    }
    Ok(done)
}

/// A rewindable positioned-read cursor over one binary segment's
/// durable frames.
///
/// The cursor yields `(rank, payload)` pairs in file order (each
/// segment is an internally rank-sorted run), verifying every frame's
/// checksum, and stops at the manifest's durability watermark exactly
/// like [`SegmentStream`](crate::SegmentStream). Payload bytes are
/// returned as a borrow of the cursor's internal buffer — valid until
/// the next [`FrameCursor::next_frame`] call — so a loop that decodes
/// and drops each visit never allocates for segment bytes.
///
/// ```no_run
/// use cg_crawlstore::frame_cursors;
///
/// let mut cursors = frame_cursors("crawl-dir").unwrap();
/// for pass in 0..3 {
///     for cur in &mut cursors {
///         while let Some((rank, payload)) = cur.next_frame().unwrap() {
///             let log = cg_crawlstore::codec::decode_visit_log(payload).unwrap();
///             assert_eq!(log.rank as u64, rank);
///         }
///         cur.rewind(); // O(1): next pass re-reads from the page cache
///     }
///     let _ = pass;
/// }
/// ```
pub struct FrameCursor {
    file: File,
    name: String,
    /// Byte offset of the next unread frame header.
    offset: u64,
    /// Durable records per the manifest watermark (the per-pass total).
    records: u64,
    /// Records left in the current pass.
    remaining: u64,
    /// Reused frame buffer (header + payload) — grows to the largest
    /// frame once, then stays.
    buf: Vec<u8>,
    /// Largest payload seen so far: the speculative read size. One
    /// `pread` fetches header *and* payload whenever the next frame is
    /// no larger than any frame before it — after the first pass,
    /// that's every frame.
    high_water: usize,
    /// Sorted-run enforcement, reset per pass.
    last_rank: Option<u64>,
}

/// Initial speculative payload size: covers typical frames so even the
/// first pass mostly takes one syscall per frame.
const SPECULATIVE_PAYLOAD: usize = 4096;

impl FrameCursor {
    /// Opens one manifest-listed binary segment for positioned reads.
    fn open(dir: &Path, meta: &SegmentMeta) -> Result<FrameCursor, StoreError> {
        let file = File::open(dir.join(&meta.file)).map_err(|e| StoreError::Corrupt {
            file: meta.file.clone(),
            detail: format!("manifest lists segment but it cannot be opened: {e}"),
        })?;
        Ok(FrameCursor {
            file,
            name: meta.file.clone(),
            offset: 0,
            records: meta.synced_records,
            remaining: meta.synced_records,
            buf: Vec::new(),
            high_water: SPECULATIVE_PAYLOAD,
            last_rank: None,
        })
    }

    /// The segment's file name (relative to the store directory).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Durable records this cursor yields per pass.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Restarts the cursor at the segment's first frame. O(1): no file
    /// reopen, no buffer re-allocation — the next pass reads the same
    /// (page-cached) bytes into the same buffer.
    pub fn rewind(&mut self) {
        self.offset = 0;
        self.remaining = self.records;
        self.last_rank = None;
    }

    /// Reads the next durable frame; `Ok(None)` once the watermark is
    /// exhausted (call [`FrameCursor::rewind`] to loop). The payload
    /// borrow is valid until the next call.
    pub fn next_frame(&mut self) -> Result<Option<(u64, &[u8])>, StoreError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        // Speculative coalesced read: header plus up to the largest
        // payload seen, in ONE positioned read. Only a frame bigger
        // than every one before it needs a second read for its tail.
        self.buf.resize(FRAME_HEADER + self.high_water, 0);
        let got = pread_upto(&self.file, &mut self.buf, self.offset)?;
        if got < FRAME_HEADER {
            return Err(self.short_of_watermark());
        }
        let header: &[u8; FRAME_HEADER] = self.buf[..FRAME_HEADER]
            .try_into()
            .expect("FRAME_HEADER bytes");
        let header = codec::parse_header(header);
        let total = FRAME_HEADER + header.len;
        self.high_water = self.high_water.max(header.len);
        if got < total {
            self.buf.resize(total, 0);
            if !pread_exact(
                &self.file,
                &mut self.buf[got..total],
                self.offset + got as u64,
            )? {
                return Err(self.short_of_watermark());
            }
        }
        if codec::frame_check(header.rank, &self.buf[FRAME_HEADER..total]) != header.check {
            return Err(StoreError::Corrupt {
                file: self.name.clone(),
                detail: "frame checksum mismatch below the manifest watermark".to_string(),
            });
        }
        if let Some(prev) = self.last_rank {
            if header.rank <= prev {
                return Err(StoreError::Corrupt {
                    file: self.name.clone(),
                    detail: format!(
                        "segment not rank-sorted (rank {} after {prev})",
                        header.rank
                    ),
                });
            }
        }
        self.last_rank = Some(header.rank);
        self.offset += total as u64;
        self.remaining -= 1;
        let tele = crate::telemetry::metrics();
        tele.records_replayed.incr();
        tele.bytes_replayed.add(total as u64);
        Ok(Some((header.rank, &self.buf[FRAME_HEADER..total])))
    }

    /// Decodes the next durable frame straight to a [`VisitLog`];
    /// `Ok(None)` at the watermark.
    pub fn next_log(&mut self) -> Result<Option<VisitLog>, StoreError> {
        let name = self.name.clone();
        match self.next_frame()? {
            None => Ok(None),
            Some((_, payload)) => {
                codec::decode_visit_log(payload)
                    .map(Some)
                    .map_err(|e| StoreError::Corrupt {
                        file: name,
                        detail: e,
                    })
            }
        }
    }

    fn short_of_watermark(&self) -> StoreError {
        StoreError::Corrupt {
            file: self.name.clone(),
            detail: format!(
                "segment ends {} records short of its manifest watermark",
                self.remaining
            ),
        }
    }
}

/// Opens every manifest-listed segment of the **binary** store at `dir`
/// as a rewindable [`FrameCursor`], in manifest (file-name-sorted)
/// order — the same fixed order [`fold_store`](crate::fold_store) uses.
/// Refuses JSONL stores: positioned frame reads are a binary-format
/// contract, and the replayer's hot loop must not fall back to line
/// scanning silently.
pub fn frame_cursors(dir: impl AsRef<Path>) -> Result<Vec<FrameCursor>, StoreError> {
    let dir = dir.as_ref();
    let manifest = Manifest::load(dir)?.ok_or_else(|| StoreError::Corrupt {
        file: crate::MANIFEST_FILE.to_string(),
        detail: format!("no manifest in {}", dir.display()),
    })?;
    if manifest.fingerprint.format != SegmentFormat::Binary {
        return Err(StoreError::Corrupt {
            file: crate::MANIFEST_FILE.to_string(),
            detail: format!(
                "frame cursors require a binary store, found {}",
                manifest.fingerprint.format
            ),
        });
    }
    manifest
        .segments
        .iter()
        .map(|meta| FrameCursor::open(dir, meta))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::Fingerprint;
    use crate::writer::CrawlWriter;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cg-pread-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fp(format: SegmentFormat) -> Fingerprint {
        Fingerprint {
            master_seed: 1,
            from: 1,
            to: 100,
            visit_config: "cfg".into(),
            generator: "gen".into(),
            format,
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

    fn fill(dir: &Path, segments: usize, ranks: usize) {
        let store = CrawlWriter::open(dir, fp(SegmentFormat::Binary)).unwrap();
        let mut segs: Vec<_> = (0..segments).map(|_| store.segment().unwrap()).collect();
        for rank in 1..=ranks {
            segs[rank % segments].record(&log(rank)).unwrap();
        }
        for seg in segs {
            seg.finish().unwrap();
        }
    }

    #[test]
    fn cursors_match_segment_streams() {
        let dir = tmp_dir("match");
        fill(&dir, 3, 30);
        let via_streams: Vec<Vec<usize>> = crate::segment_streams(&dir)
            .unwrap()
            .into_iter()
            .map(|s| s.map(|l| l.unwrap().rank).collect())
            .collect();
        let via_cursors: Vec<Vec<usize>> = frame_cursors(&dir)
            .unwrap()
            .into_iter()
            .map(|mut c| {
                let mut ranks = Vec::new();
                while let Some(l) = c.next_log().unwrap() {
                    ranks.push(l.rank);
                }
                ranks
            })
            .collect();
        assert_eq!(via_streams, via_cursors);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewind_replays_identically_without_growing_buffers() {
        let dir = tmp_dir("rewind");
        fill(&dir, 2, 40);
        for mut cur in frame_cursors(&dir).unwrap() {
            let first: Vec<u64> = {
                let mut v = Vec::new();
                while let Some((rank, _)) = cur.next_frame().unwrap() {
                    v.push(rank);
                }
                v
            };
            let cap_after_first = cur.buf.capacity();
            for _ in 0..3 {
                cur.rewind();
                let mut again = Vec::new();
                while let Some((rank, _)) = cur.next_frame().unwrap() {
                    again.push(rank);
                }
                assert_eq!(first, again);
            }
            // The reusable buffer reached its high-water mark on pass 1
            // and never grew again — no per-pass re-buffering.
            assert_eq!(cur.buf.capacity(), cap_after_first);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn jsonl_store_is_refused() {
        let dir = tmp_dir("jsonl");
        let store = CrawlWriter::open(&dir, fp(SegmentFormat::Jsonl)).unwrap();
        let mut seg = store.segment().unwrap();
        seg.record(&log(1)).unwrap();
        seg.finish().unwrap();
        drop(store);
        assert!(matches!(
            frame_cursors(&dir),
            Err(StoreError::Corrupt { detail, .. }) if detail.contains("binary store")
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_frame_surfaces_on_every_pass() {
        let dir = tmp_dir("corrupt");
        fill(&dir, 1, 10);
        let path = dir.join("seg-0.bin");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let mut cur = frame_cursors(&dir).unwrap().into_iter().next().unwrap();
        for _ in 0..2 {
            let mut saw_err = false;
            loop {
                match cur.next_frame() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(StoreError::Corrupt { .. }) => {
                        saw_err = true;
                        break;
                    }
                    Err(e) => panic!("unexpected error {e}"),
                }
            }
            assert!(saw_err, "damage must surface, not stream past");
            cur.rewind();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn watermark_shortfall_is_corrupt() {
        let dir = tmp_dir("short");
        fill(&dir, 1, 5);
        let path = dir.join("seg-0.bin");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        let mut cur = frame_cursors(&dir).unwrap().into_iter().next().unwrap();
        let mut result = Ok(());
        loop {
            match cur.next_frame() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        assert!(matches!(
            result,
            Err(StoreError::Corrupt { detail, .. })
                if detail.contains("short of its manifest watermark")
                    || detail.contains("checksum mismatch")
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
