//! Chunked segment reads: split each binary segment at frame-index
//! boundaries into independently decodable byte ranges, decoded through
//! a caller-chosen [`ReadBackend`].
//!
//! The store's parallelism used to be segment-granular — a store
//! written by few workers left fold threads idle. A [`ChunkPlan`]
//! instead cuts every segment at its sidecar-index stride boundaries
//! (rebuilt by a header scan when the sidecar is missing or refused),
//! producing tens to thousands of [`ChunkSpec`]s that
//! [`fold_store`](crate::fold_store) hands out in contiguous runs.
//! Chunk boundaries carry the planned first rank and an inclusive rank
//! bound, so a decode that drifts across a
//! boundary (a stale plan, a damaged file) is an error — never a
//! silently wrong result.
//!
//! Three backends decode the same bytes: `Mmap` (zero-copy windows over
//! the page cache via [`Mmap`], falling back to `Pread` whenever a map
//! fails), `Pread` (one positioned read per chunk into an owned
//! buffer), and `Buffered` (a seeked `BufReader`, the portable
//! baseline). All three verify every frame checksum and the rank-sorted
//! run invariant, and stop at the planned chunk end — which the planner
//! derives from the manifest watermark, so bytes past the durable
//! prefix are never part of any decode window.
//!
//! **Layer:** persistence (between the segment files and
//! [`fold_store`](crate::fold_store)). **Invariants:** chunks
//! partition each segment's durable byte range exactly; each chunk's
//! frames are rank-ascending, start at the planned first rank, and stay
//! within the planned bound; all backends yield byte-identical
//! [`VisitLog`] streams or fail. **Entry points:** [`plan_chunks`],
//! [`ChunkPlan::open_chunk`], [`ReadBackend`].

use crate::codec::{self, SegmentFormat, FRAME_HEADER};
use crate::index::{self, INDEX_STRIDE};
use crate::manifest::Manifest;
use crate::mmap::Mmap;
use crate::pread::pread_exact;
use crate::reader::SegmentStream;
use crate::StoreError;
use cg_instrument::VisitLog;
use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// How chunk bytes reach the decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadBackend {
    /// Zero-copy `mmap(2)` windows (the default); any map failure
    /// falls back to `Pread` for that chunk.
    #[default]
    Mmap,
    /// One positioned read per chunk into an owned buffer.
    Pread,
    /// A seeked `BufReader` streaming frame by frame — the portable
    /// baseline.
    Buffered,
}

impl std::fmt::Display for ReadBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ReadBackend::Mmap => "mmap",
            ReadBackend::Pread => "pread",
            ReadBackend::Buffered => "buffered",
        })
    }
}

impl std::str::FromStr for ReadBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<ReadBackend, String> {
        match s {
            "mmap" => Ok(ReadBackend::Mmap),
            "pread" => Ok(ReadBackend::Pread),
            "buffered" => Ok(ReadBackend::Buffered),
            other => Err(format!(
                "unknown read backend {other:?} (expected mmap, pread, or buffered)"
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

/// The chunk decomposition of a binary store: every segment cut at its
/// index stride boundaries, plus one shared read-only handle per
/// segment for the positioned/mapped backends.
pub struct ChunkPlan {
    dir: PathBuf,
    files: Vec<File>,
    chunks: Vec<ChunkSpec>,
}

/// Builds the chunk plan for the **binary** store at `dir`, loading
/// each segment's validated sidecar index or rebuilding it with a
/// header scan. Refuses JSONL stores (line-oriented segments have no
/// frame offsets); [`fold_store`](crate::fold_store) treats a JSONL
/// segment as a single unit instead.
pub fn plan_chunks(dir: impl AsRef<Path>) -> Result<ChunkPlan, StoreError> {
    let dir = dir.as_ref();
    let _span = cg_telemetry::span!("chunk_plan");
    let manifest = Manifest::load(dir)?.ok_or_else(|| StoreError::Corrupt {
        file: crate::MANIFEST_FILE.to_string(),
        detail: format!("no manifest in {}", dir.display()),
    })?;
    if manifest.fingerprint.format != SegmentFormat::Binary {
        return Err(StoreError::Corrupt {
            file: crate::MANIFEST_FILE.to_string(),
            detail: format!(
                "chunked reads require a binary store, found {}",
                manifest.fingerprint.format
            ),
        });
    }
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
                None => index::scan_index(&file, &meta.file, meta.synced_records, INDEX_STRIDE)?,
            };
            let stride = u64::from(idx.stride);
            for (ci, entry) in idx.entries.iter().enumerate() {
                let next = idx.entries.get(ci + 1);
                chunks.push(ChunkSpec {
                    segment: si,
                    chunk: ci,
                    file: meta.file.clone(),
                    start: entry.offset,
                    end: next.map_or(end, |n| n.offset),
                    frames: next.map_or(meta.synced_records - ci as u64 * stride, |_| stride),
                    first_rank: entry.rank,
                    rank_bound: next.map_or(meta.max_rank, |n| n.rank - 1),
                });
            }
        }
        files.push(file);
    }
    Ok(ChunkPlan {
        dir: dir.to_path_buf(),
        files,
        chunks,
    })
}

impl ChunkPlan {
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
        let src = match backend {
            ReadBackend::Mmap => {
                let _span = cg_telemetry::span!("chunk_map", len);
                match Mmap::map_range(file, spec.start, len) {
                    Ok(map) => {
                        tele.mmap_bytes.add(len as u64);
                        Src::Mapped(map)
                    }
                    Err(_) => Src::Owned(read_chunk(file, spec, len)?),
                }
            }
            ReadBackend::Pread => Src::Owned(read_chunk(file, spec, len)?),
            ReadBackend::Buffered => {
                let mut f =
                    File::open(self.dir.join(&spec.file)).map_err(|e| StoreError::Corrupt {
                        file: spec.file.clone(),
                        detail: format!("manifest lists segment but it cannot be opened: {e}"),
                    })?;
                f.seek(SeekFrom::Start(spec.start))?;
                Src::Streamed {
                    reader: BufReader::new(f),
                    buf: Vec::new(),
                    consumed: 0,
                }
            }
        };
        Ok(ChunkStream {
            file_name: spec.file.clone(),
            frames: spec.frames,
            first_rank: spec.first_rank,
            rank_bound: spec.rank_bound,
            chunk_len: len,
            done: 0,
            pos: 0,
            last_rank: None,
            failed: false,
            _span: cg_telemetry::span!("chunk_decode", spec.frames),
            src,
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

enum Src {
    /// Zero-copy window over the page cache.
    Mapped(Mmap),
    /// Whole chunk in an owned buffer (pread backend, or mmap
    /// fallback).
    Owned(Vec<u8>),
    /// Frame-by-frame buffered reads.
    Streamed {
        reader: BufReader<File>,
        buf: Vec<u8>,
        consumed: usize,
    },
    /// A whole JSONL segment wrapped as one chunk (see
    /// [`ChunkStream::from_segment`]).
    Segment(SegmentStream),
}

/// Decodes one chunk's frames to [`VisitLog`]s, verifying checksums,
/// the rank-sorted run invariant, and the planned chunk boundaries.
/// The first error is yielded once, then the stream fuses.
pub struct ChunkStream {
    file_name: String,
    frames: u64,
    first_rank: u64,
    rank_bound: u64,
    chunk_len: usize,
    done: u64,
    pos: usize,
    last_rank: Option<u64>,
    failed: bool,
    _span: cg_telemetry::Span,
    src: Src,
}

impl ChunkStream {
    /// Wraps one whole JSONL segment stream as a single chunk, so
    /// [`fold_store`](crate::fold_store) covers both formats with one
    /// closure signature. Rank-order and parse checks are the stream's
    /// own.
    pub fn from_segment(stream: SegmentStream) -> ChunkStream {
        crate::telemetry::metrics().chunks_claimed.incr();
        ChunkStream {
            file_name: String::new(),
            frames: 0,
            first_rank: 0,
            rank_bound: 0,
            chunk_len: 0,
            done: 0,
            pos: 0,
            last_rank: None,
            failed: false,
            _span: cg_telemetry::span!("chunk_decode"),
            src: Src::Segment(stream),
        }
    }

    fn short(&self) -> StoreError {
        StoreError::Corrupt {
            file: self.file_name.clone(),
            detail: format!(
                "chunk ends {} frames short of its planned byte range",
                self.frames - self.done
            ),
        }
    }

    /// Boundary checks shared by every backend: ascending ranks, the
    /// planned first rank, and the inclusive rank bound. A violation
    /// means the plan and the bytes disagree — surfaced, never papered
    /// over.
    fn check_rank(&mut self, rank: u64) -> Result<(), StoreError> {
        if self.done == 0 && rank != self.first_rank {
            return Err(StoreError::Corrupt {
                file: self.file_name.clone(),
                detail: format!(
                    "chunk starts at rank {rank}, planned {} — segment and index disagree",
                    self.first_rank
                ),
            });
        }
        if let Some(prev) = self.last_rank {
            if rank <= prev {
                return Err(StoreError::Corrupt {
                    file: self.file_name.clone(),
                    detail: format!("segment not rank-sorted (rank {rank} after {prev})"),
                });
            }
        }
        if rank > self.rank_bound {
            return Err(StoreError::Corrupt {
                file: self.file_name.clone(),
                detail: format!(
                    "rank {rank} beyond the chunk bound {} — segment and index disagree",
                    self.rank_bound
                ),
            });
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
        if self.done == self.frames {
            // Exhausted: the planned byte range must be consumed
            // exactly, or the plan mis-cut the segment.
            let consumed = match &self.src {
                Src::Mapped(_) | Src::Owned(_) => self.pos,
                Src::Streamed { consumed, .. } => *consumed,
                Src::Segment(_) => unreachable!("segment chunks bypass next_log"),
            };
            if consumed != self.chunk_len {
                return Err(StoreError::Corrupt {
                    file: self.file_name.clone(),
                    detail: format!(
                        "chunk decoded {} of {} planned bytes — segment and index disagree",
                        consumed, self.chunk_len
                    ),
                });
            }
            return Ok(None);
        }
        let frame = match &mut self.src {
            Src::Mapped(map) => decode_frame_at(map.bytes(), &mut self.pos, &self.file_name)?,
            Src::Owned(bytes) => decode_frame_at(bytes, &mut self.pos, &self.file_name)?,
            Src::Streamed {
                reader,
                buf,
                consumed,
            } => {
                let left = self.chunk_len - *consumed;
                let frame = decode_frame_streamed(reader, buf, left, &self.file_name)?;
                if let Some((_, _, total)) = &frame {
                    *consumed += total;
                }
                frame
            }
            Src::Segment(_) => unreachable!("segment chunks bypass next_log"),
        };
        let Some((rank, log, total)) = frame else {
            return Err(self.short());
        };
        self.check_rank(rank)?;
        self.done += 1;
        let tele = crate::telemetry::metrics();
        tele.records_replayed.incr();
        tele.bytes_replayed.add(total as u64);
        Ok(Some(log))
    }
}

/// Decodes the frame at `*pos` of an in-memory window; `Ok(None)` when
/// fewer bytes remain than the frame needs (the caller's planned-range
/// error applies).
fn decode_frame_at(
    window: &[u8],
    pos: &mut usize,
    file: &str,
) -> Result<Option<(u64, VisitLog, usize)>, StoreError> {
    if window.len() - *pos < FRAME_HEADER {
        return Ok(None);
    }
    let header: &[u8; FRAME_HEADER] = window[*pos..*pos + FRAME_HEADER]
        .try_into()
        .expect("FRAME_HEADER bytes");
    let header = codec::parse_header(header);
    let total = FRAME_HEADER + header.len;
    if window.len() - *pos < total {
        return Ok(None);
    }
    let payload = &window[*pos + FRAME_HEADER..*pos + total];
    let log = checked_decode(header.rank, header.check, payload, file)?;
    *pos += total;
    Ok(Some((header.rank, log, total)))
}

/// Streamed-backend frame decode: header then payload through the
/// `BufReader`, bounded by the chunk's remaining byte budget.
fn decode_frame_streamed(
    reader: &mut BufReader<File>,
    buf: &mut Vec<u8>,
    left: usize,
    file: &str,
) -> Result<Option<(u64, VisitLog, usize)>, StoreError> {
    if left < FRAME_HEADER {
        return Ok(None);
    }
    let mut header = [0u8; FRAME_HEADER];
    if !read_frame_exact(reader, &mut header)? {
        return Ok(None);
    }
    let header = codec::parse_header(&header);
    let total = FRAME_HEADER + header.len;
    if left < total {
        return Ok(None);
    }
    buf.resize(header.len, 0);
    if !read_frame_exact(reader, buf)? {
        return Ok(None);
    }
    let log = checked_decode(header.rank, header.check, buf, file)?;
    Ok(Some((header.rank, log, total)))
}

/// `read_exact` with a clean-EOF signal (`Ok(false)`) instead of an
/// error, matching the positioned readers.
fn read_frame_exact(reader: &mut BufReader<File>, buf: &mut [u8]) -> Result<bool, StoreError> {
    match reader.read_exact(buf) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(StoreError::Io(e)),
    }
}

/// Checksum gate + payload decode, with the reader's error wording.
fn checked_decode(
    rank: u64,
    check: u32,
    payload: &[u8],
    file: &str,
) -> Result<VisitLog, StoreError> {
    if codec::frame_check(rank, payload) != check {
        return Err(StoreError::Corrupt {
            file: file.to_string(),
            detail: "frame checksum mismatch below the manifest watermark".to_string(),
        });
    }
    codec::decode_visit_log(payload).map_err(|e| StoreError::Corrupt {
        file: file.to_string(),
        detail: e,
    })
}

impl Iterator for ChunkStream {
    type Item = Result<VisitLog, StoreError>;

    fn next(&mut self) -> Option<Result<VisitLog, StoreError>> {
        if self.failed {
            return None;
        }
        if let Src::Segment(stream) = &mut self.src {
            return stream.next();
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
