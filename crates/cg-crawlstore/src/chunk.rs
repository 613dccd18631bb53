//! Chunked segment reads: the store's one read path.
//!
//! A [`ChunkPlan`] cuts every segment at its sidecar-index stride
//! boundaries (rebuilt by a header scan when the sidecar is missing or
//! refused) into [`ChunkSpec`]s — independently decodable byte ranges.
//! [`fold_store`](crate::fold_store) hands them out in contiguous runs,
//! the service replayer claims them one by one, and
//! [`CrawlReader`](crate::CrawlReader) merges each segment's chunks in
//! rank order. Chunk boundaries carry the planned first rank and an
//! inclusive rank bound, so a decode that drifts across a boundary (a
//! stale plan, a damaged file) is an error — never a silently wrong
//! result. The planner derives each segment's end from the manifest
//! watermark and refuses one that runs past the file, so bytes past the
//! durable prefix are never part of any decode window, and no window is
//! larger than the segment it reads.
//!
//! Two backends supply a chunk's bytes: `Mmap` (a zero-copy window over
//! the page cache via [`Mmap`], falling back to `Pread` whenever a map
//! fails) and `Pread` (one positioned read into an owned buffer — the
//! fallback and the differential oracle). Either way the bytes go
//! through [`decode_frame`], the one function that turns a frame into a
//! [`VisitLog`]: it verifies the frame checksum, and [`ChunkStream`]
//! adds the rank-sorted run invariant and the planned boundaries.
//!
//! **Layer:** persistence (between the segment files and every
//! reader). **Invariants:** chunks partition each segment's durable
//! byte range exactly; each chunk's frames are rank-ascending, start at
//! the planned first rank, and stay within the planned bound; both
//! backends yield byte-identical [`VisitLog`] streams or fail. **Entry
//! points:** [`plan_chunks`], [`ChunkPlan::open_chunk`],
//! [`decode_frame`], [`ReadBackend`].

use crate::codec::{self, FRAME_HEADER};
use crate::index::{self, INDEX_STRIDE};
use crate::manifest::Manifest;
use crate::mmap::Mmap;
use crate::pread::pread_exact;
use crate::StoreError;
use cg_instrument::VisitLog;
use std::fs::File;
use std::path::Path;

/// How chunk bytes reach the decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadBackend {
    /// Zero-copy `mmap(2)` windows (the default); any map failure
    /// falls back to `Pread` for that chunk.
    #[default]
    Mmap,
    /// One positioned read per chunk into an owned buffer.
    Pread,
}

impl std::fmt::Display for ReadBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ReadBackend::Mmap => "mmap",
            ReadBackend::Pread => "pread",
        })
    }
}

impl std::str::FromStr for ReadBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<ReadBackend, String> {
        match s {
            "mmap" => Ok(ReadBackend::Mmap),
            "pread" => Ok(ReadBackend::Pread),
            other => Err(format!(
                "unknown read backend {other:?} (expected mmap or pread)"
            )),
        }
    }
}

/// One independently decodable byte range of one segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkSpec {
    /// Manifest index of the owning segment.
    pub segment: usize,
    /// Chunk ordinal within the segment.
    pub chunk: usize,
    /// Segment file name (relative to the store directory).
    pub file: String,
    /// First byte of the chunk (a frame-header offset).
    pub start: u64,
    /// One past the chunk's last byte.
    pub end: u64,
    /// Frames the chunk must decode — exactly.
    pub frames: u64,
    /// Rank of the chunk's first frame (pinned by the index probe).
    pub first_rank: u64,
    /// Inclusive upper bound on ranks in this chunk (the next chunk's
    /// first rank minus one, or the segment's max rank).
    pub rank_bound: u64,
}

/// The chunk decomposition of a store: every segment cut at its index
/// stride boundaries, plus one shared read-only handle per segment.
pub struct ChunkPlan {
    files: Vec<File>,
    chunks: Vec<ChunkSpec>,
}

/// Builds the chunk plan for the store at `dir`, loading each segment's
/// validated sidecar index or rebuilding it with a header scan.
pub fn plan_chunks(dir: impl AsRef<Path>) -> Result<ChunkPlan, StoreError> {
    let dir = dir.as_ref();
    ChunkPlan::new(dir, &Manifest::require(dir)?)
}

impl ChunkPlan {
    /// Plans the segments `manifest` lists under `dir`. Every chunk must
    /// end inside its segment file: a frame header whose length runs
    /// past the end is corruption, refused here before any window is
    /// mapped or allocated.
    pub(crate) fn new(dir: &Path, manifest: &Manifest) -> Result<ChunkPlan, StoreError> {
        let _span = cg_telemetry::span!("chunk_plan");
        let mut files = Vec::with_capacity(manifest.segments.len());
        let mut chunks = Vec::new();
        for (si, meta) in manifest.segments.iter().enumerate() {
            let file = File::open(dir.join(&meta.file)).map_err(|e| StoreError::Corrupt {
                file: meta.file.clone(),
                detail: format!("manifest lists segment but it cannot be opened: {e}"),
            })?;
            if meta.synced_records > 0 {
                let (idx, end) = match index::load_index(&file, dir, meta) {
                    Some(idx) => {
                        let end = index::durable_end(&file, &meta.file, &idx, meta.synced_records)?;
                        (idx, end)
                    }
                    // Missing/corrupt/stale sidecar: rebuild from the
                    // segment itself — slower, never wrong.
                    None => {
                        index::scan_index(&file, &meta.file, meta.synced_records, INDEX_STRIDE)?
                    }
                };
                let file_len = file.metadata()?.len();
                let stride = u64::from(idx.stride);
                for (ci, entry) in idx.entries.iter().enumerate() {
                    let next = idx.entries.get(ci + 1);
                    let chunk_end = next.map_or(end, |n| n.offset);
                    if chunk_end > file_len {
                        return Err(StoreError::Corrupt {
                            file: meta.file.clone(),
                            detail: format!(
                                "segment ends short of its manifest watermark: frames run to \
                                 byte {chunk_end} of a {file_len}-byte file"
                            ),
                        });
                    }
                    chunks.push(ChunkSpec {
                        segment: si,
                        chunk: ci,
                        file: meta.file.clone(),
                        start: entry.offset,
                        end: chunk_end,
                        frames: next.map_or(meta.synced_records - ci as u64 * stride, |_| stride),
                        first_rank: entry.rank,
                        rank_bound: next.map_or(meta.max_rank, |n| n.rank.saturating_sub(1)),
                    });
                }
            }
            files.push(file);
        }
        Ok(ChunkPlan { files, chunks })
    }

    /// Chunks in (segment, chunk) order — the fixed reduce order.
    pub fn chunks(&self) -> &[ChunkSpec] {
        &self.chunks
    }

    /// Total chunk count.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// Whether the store has no durable frames at all.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Segments covered by the plan.
    pub fn segments(&self) -> usize {
        self.files.len()
    }

    /// Opens chunk `i` for decoding through `backend`. Each open claims
    /// the chunk in telemetry; an mmap failure silently downgrades that
    /// chunk to the positioned-read path.
    pub fn open_chunk(&self, i: usize, backend: ReadBackend) -> Result<ChunkStream, StoreError> {
        let spec = &self.chunks[i];
        let tele = crate::telemetry::metrics();
        tele.chunks_claimed.incr();
        let len = (spec.end - spec.start) as usize;
        let file = &self.files[spec.segment];
        let window = match backend {
            ReadBackend::Mmap => {
                let _span = cg_telemetry::span!("chunk_map", len);
                match Mmap::map_range(file, spec.start, len) {
                    Ok(map) => {
                        tele.mmap_bytes.add(len as u64);
                        Window::Mapped(map)
                    }
                    Err(_) => Window::Owned(read_chunk(file, spec, len)?),
                }
            }
            ReadBackend::Pread => Window::Owned(read_chunk(file, spec, len)?),
        };
        Ok(ChunkStream {
            file_name: spec.file.clone(),
            frames: spec.frames,
            first_rank: spec.first_rank,
            rank_bound: spec.rank_bound,
            done: 0,
            pos: 0,
            last_rank: None,
            failed: false,
            _span: cg_telemetry::span!("chunk_decode", spec.frames),
            window,
        })
    }
}

/// One positioned read covering the whole chunk.
fn read_chunk(file: &File, spec: &ChunkSpec, len: usize) -> Result<Vec<u8>, StoreError> {
    let mut bytes = vec![0u8; len];
    if !pread_exact(file, &mut bytes, spec.start)? {
        return Err(StoreError::Corrupt {
            file: spec.file.clone(),
            detail: "segment ends inside a planned chunk (short of its manifest watermark)"
                .to_string(),
        });
    }
    Ok(bytes)
}

/// A chunk's bytes, from either backend.
enum Window {
    /// Zero-copy window over the page cache.
    Mapped(Mmap),
    /// Whole chunk in an owned buffer (pread backend, or mmap
    /// fallback).
    Owned(Vec<u8>),
}

impl Window {
    fn bytes(&self) -> &[u8] {
        match self {
            Window::Mapped(map) => map.bytes(),
            Window::Owned(bytes) => bytes,
        }
    }
}

/// Decodes the frame that starts at byte `pos` of `window`: checks its
/// checksum and decodes the payload to a [`VisitLog`]. Returns the
/// frame's header rank, the log, and the frame's total length (header
/// included); `Ok(None)` when fewer bytes remain than the frame needs,
/// so a decoded frame never extends past the window. This is the one
/// function in the store that turns frame bytes into a visit; every
/// reader goes through it.
pub fn decode_frame(window: &[u8], pos: usize) -> Result<Option<(u64, VisitLog, usize)>, String> {
    let rest = window.get(pos..).unwrap_or_default();
    let Some(header) = rest.first_chunk::<FRAME_HEADER>() else {
        return Ok(None);
    };
    let header = codec::parse_header(header);
    let total = FRAME_HEADER + header.len;
    let Some(payload) = rest.get(FRAME_HEADER..total) else {
        return Ok(None);
    };
    if codec::frame_check(header.rank, payload) != header.check {
        return Err("frame checksum mismatch below the manifest watermark".to_string());
    }
    let log = codec::decode_visit_log(payload)?;
    // The header rank is what the chunk checks order on; the payload
    // rank is what readers merge on. They must be the same number.
    if log.rank as u64 != header.rank {
        return Err(format!(
            "frame header says rank {}, its payload rank {}",
            header.rank, log.rank
        ));
    }
    Ok(Some((header.rank, log, total)))
}

/// Decodes one chunk's frames to [`VisitLog`]s, verifying checksums,
/// the rank-sorted run invariant, and the planned chunk boundaries.
/// The first error is yielded once, then the stream fuses.
pub struct ChunkStream {
    file_name: String,
    frames: u64,
    first_rank: u64,
    rank_bound: u64,
    done: u64,
    pos: usize,
    last_rank: Option<u64>,
    failed: bool,
    _span: cg_telemetry::Span,
    window: Window,
}

impl ChunkStream {
    fn corrupt(&self, detail: String) -> StoreError {
        StoreError::Corrupt {
            file: self.file_name.clone(),
            detail,
        }
    }

    /// Boundary checks: ascending ranks, the planned first rank, and
    /// the inclusive rank bound. A violation means the plan and the
    /// bytes disagree — surfaced, never papered over.
    fn check_rank(&mut self, rank: u64) -> Result<(), StoreError> {
        if self.done == 0 && rank != self.first_rank {
            return Err(self.corrupt(format!(
                "chunk starts at rank {rank}, planned {} — segment and index disagree",
                self.first_rank
            )));
        }
        if let Some(prev) = self.last_rank {
            if rank <= prev {
                return Err(self.corrupt(format!(
                    "segment not rank-sorted (rank {rank} after {prev})"
                )));
            }
        }
        if rank > self.rank_bound {
            return Err(self.corrupt(format!(
                "rank {rank} beyond the chunk bound {} — segment and index disagree",
                self.rank_bound
            )));
        }
        self.last_rank = Some(rank);
        Ok(())
    }

    /// Decodes the next frame of the chunk; `Ok(None)` once every
    /// planned frame is out (after verifying the planned byte range was
    /// consumed exactly). The `Iterator` impl wraps this with an error
    /// fuse; callers that want explicit control (e.g. the service
    /// replayer's claim loop) call it directly.
    pub fn next_log(&mut self) -> Result<Option<VisitLog>, StoreError> {
        let window = self.window.bytes();
        if self.done == self.frames {
            // Exhausted: the planned byte range must be consumed
            // exactly, or the plan mis-cut the segment.
            if self.pos != window.len() {
                return Err(self.corrupt(format!(
                    "chunk decoded {} of {} planned bytes — segment and index disagree",
                    self.pos,
                    window.len()
                )));
            }
            return Ok(None);
        }
        let Some((rank, log, total)) =
            decode_frame(window, self.pos).map_err(|detail| self.corrupt(detail))?
        else {
            return Err(self.corrupt(format!(
                "chunk ends {} frames short of its planned byte range",
                self.frames - self.done
            )));
        };
        self.check_rank(rank)?;
        self.pos += total;
        self.done += 1;
        let tele = crate::telemetry::metrics();
        tele.records_replayed.incr();
        tele.bytes_replayed.add(total as u64);
        Ok(Some(log))
    }
}

impl Iterator for ChunkStream {
    type Item = Result<VisitLog, StoreError>;

    fn next(&mut self) -> Option<Result<VisitLog, StoreError>> {
        if self.failed {
            return None;
        }
        match self.next_log() {
            Ok(Some(log)) => Some(Ok(log)),
            Ok(None) => None,
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}
