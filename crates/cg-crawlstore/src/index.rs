//! Per-segment frame-index sidecars (`seg-<n>.idx`): the byte offsets
//! that let a fold split one binary segment into independently
//! decodable chunks.
//!
//! A binary segment is a run of length-prefixed frames — random access
//! requires knowing where frames start. The sidecar records `(rank,
//! byte offset)` for every [`INDEX_STRIDE`]-th frame as LEB128 deltas,
//! so chunk planning seeks straight to stride boundaries instead of
//! scanning headers from byte 0. The index is **advisory, never
//! trusted**: it is rewritten wholesale at every commit (plain
//! tmp+rename, no fsync — losing it costs a rescan, not data), every
//! loaded entry is probed against the segment's real frame headers, and
//! any mismatch, damage, or staleness makes the loader report "no
//! index", which sends the planner down the sequential header scan
//! ([`scan_index`]) that also serves bare segments from older stores.
//! Wrong results are structurally impossible; a bad sidecar can only
//! cost time.
//!
//! **Layer:** persistence (sidecar metadata beside the segment files).
//! **Invariants:** entry `i` names frame `i × stride` of the segment's
//! durable prefix; offsets and ranks are strictly increasing; entries
//! past the manifest watermark are discarded at load. **Entry points:**
//! [`load_index`], [`scan_index`], [`durable_end`], [`write_index`]
//! (writer side).

use crate::codec::{self, FRAME_HEADER};
use crate::manifest::SegmentMeta;
use crate::pread::pread_exact;
use crate::StoreError;
use cg_hash::fnv1a32w;
use std::fs::File;
use std::path::Path;

/// Frames between indexed offsets. Small enough that a 50k-frame
/// segment yields ~1.5k chunks for work stealing; large enough that a
/// chunk amortizes its claim and map cost over dozens of decodes.
pub const INDEX_STRIDE: u32 = 32;

/// Sidecar magic, followed by a format version.
const INDEX_MAGIC: &[u8; 4] = b"CGIX";
const INDEX_VERSION: u32 = 1;

/// One indexed frame: the rank and byte offset of frame
/// `i × stride`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEntry {
    /// The frame's rank (readable from its header — the probe target).
    pub rank: u64,
    /// Byte offset of the frame header within the segment.
    pub offset: u64,
}

/// A decoded (or rebuilt) frame index for one binary segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameIndex {
    /// Frames between entries.
    pub stride: u32,
    /// Entries for frames `0, stride, 2×stride, …` of the durable
    /// prefix.
    pub entries: Vec<IndexEntry>,
}

/// The sidecar file name for a binary segment (`seg-3.bin` →
/// `seg-3.idx`); `None` for non-binary segment names.
pub fn index_file_name(segment_file: &str) -> Option<String> {
    segment_file
        .strip_suffix(".bin")
        .map(|stem| format!("{stem}.idx"))
}

fn write_uv(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

fn read_uv(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Encodes an index: magic, version, stride, entry count, LEB128
/// deltas (first entry absolute), and a checksum over the delta bytes.
pub fn encode_index(stride: u32, entries: &[IndexEntry]) -> Vec<u8> {
    let mut body = Vec::new();
    let mut prev = IndexEntry { rank: 0, offset: 0 };
    for e in entries {
        write_uv(&mut body, e.rank - prev.rank);
        write_uv(&mut body, e.offset - prev.offset);
        prev = *e;
    }
    let mut out = Vec::with_capacity(16 + body.len() + 4);
    out.extend_from_slice(INDEX_MAGIC);
    out.extend_from_slice(&INDEX_VERSION.to_le_bytes());
    out.extend_from_slice(&stride.to_le_bytes());
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    let check = fnv1a32w(index_check_prefix(stride, entries.len()), &body);
    out.extend_from_slice(&body);
    out.extend_from_slice(&check.to_le_bytes());
    out
}

/// The checksum prefix binds the header fields the deltas depend on.
fn index_check_prefix(stride: u32, count: usize) -> u64 {
    (u64::from(stride) << 32) | count as u64
}

/// Decodes a sidecar; any structural problem is an `Err` (the caller
/// treats it as "no index" and rescans).
pub fn decode_index(bytes: &[u8]) -> Result<FrameIndex, String> {
    if bytes.len() < 20 {
        return Err("index shorter than its fixed header".into());
    }
    if &bytes[0..4] != INDEX_MAGIC {
        return Err("bad index magic".into());
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != INDEX_VERSION {
        return Err(format!("unsupported index version {version}"));
    }
    let stride = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    let count = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
    if stride == 0 {
        return Err("index stride is zero".into());
    }
    let body = &bytes[16..bytes.len() - 4];
    let check = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
    if fnv1a32w(index_check_prefix(stride, count), body) != check {
        return Err("index checksum mismatch".into());
    }
    // Every entry is at least two varint bytes: the body bounds the
    // allocation, whatever count the header claims.
    let mut entries = Vec::with_capacity(count.min(body.len() / 2));
    let mut pos = 0usize;
    let mut prev = IndexEntry { rank: 0, offset: 0 };
    for i in 0..count {
        let d_rank = read_uv(body, &mut pos).ok_or("index entry truncated")?;
        let d_off = read_uv(body, &mut pos).ok_or("index entry truncated")?;
        if i > 0 && (d_rank == 0 || d_off == 0) {
            return Err("index entries not strictly increasing".into());
        }
        prev = IndexEntry {
            rank: prev
                .rank
                .checked_add(d_rank)
                .ok_or("index rank overflows")?,
            offset: prev
                .offset
                .checked_add(d_off)
                .ok_or("index offset overflows")?,
        };
        entries.push(prev);
    }
    if pos != body.len() {
        return Err("index has trailing bytes".into());
    }
    Ok(FrameIndex { stride, entries })
}

/// Writes (replaces) the sidecar for `segment_file` via tmp+rename.
/// No fsync: the index is rebuildable, so durability buys nothing.
pub fn write_index(
    dir: &Path,
    segment_file: &str,
    entries: &[IndexEntry],
) -> Result<(), StoreError> {
    let Some(name) = index_file_name(segment_file) else {
        return Ok(());
    };
    let bytes = encode_index(INDEX_STRIDE, entries);
    let tmp = dir.join(format!("{name}.tmp"));
    std::fs::write(&tmp, &bytes)?;
    std::fs::rename(&tmp, dir.join(name))?;
    Ok(())
}

/// Removes the sidecar of `segment_file` if present (used when an
/// empty segment file is dropped).
pub fn remove_index(dir: &Path, segment_file: &str) {
    if let Some(name) = index_file_name(segment_file) {
        let _ = std::fs::remove_file(dir.join(name));
    }
}

/// Loads and validates the sidecar for one manifest-listed binary
/// segment. `None` means "no usable index" — missing, corrupt, stale,
/// or failing its header probes — and the caller falls back to
/// [`scan_index`]. Entries past the manifest watermark are trimmed
/// (the sidecar may outlive a torn-tail truncation).
pub fn load_index(file: &File, dir: &Path, meta: &SegmentMeta) -> Option<FrameIndex> {
    let name = index_file_name(&meta.file)?;
    let bytes = std::fs::read(dir.join(name)).ok()?;
    let mut idx = decode_index(&bytes).ok()?;
    let stride = u64::from(idx.stride);
    let keep = idx
        .entries
        .iter()
        .enumerate()
        .take_while(|(i, _)| (*i as u64) * stride < meta.synced_records)
        .count();
    idx.entries.truncate(keep);
    if idx.entries.is_empty() || idx.entries[0].offset != 0 {
        return None;
    }
    // Probe every entry against the segment itself: the offset must
    // hold a frame header carrying exactly the indexed rank. A stale
    // or damaged sidecar fails here and costs a rescan — it can never
    // mis-chunk a decode.
    for e in &idx.entries {
        let mut header = [0u8; FRAME_HEADER];
        match pread_exact(file, &mut header, e.offset) {
            Ok(true) => {}
            _ => return None,
        }
        if codec::parse_header(&header).rank != e.rank {
            return None;
        }
    }
    Some(idx)
}

/// Walks frame headers from `offset` for frames `[from, records)` and
/// returns the byte offset just past the last durable frame. Errors
/// mirror the readers' watermark contract: a file that ends early is
/// `Corrupt`.
fn scan_tail(
    file: &File,
    name: &str,
    mut offset: u64,
    from: u64,
    records: u64,
    mut on_frame: impl FnMut(u64, u64, u64),
) -> Result<u64, StoreError> {
    for frame in from..records {
        let mut header = [0u8; FRAME_HEADER];
        if !pread_exact(file, &mut header, offset)? {
            return Err(StoreError::Corrupt {
                file: name.to_string(),
                detail: format!(
                    "segment ends {} records short of its manifest watermark",
                    records - frame
                ),
            });
        }
        let h = codec::parse_header(&header);
        on_frame(frame, h.rank, offset);
        offset += (FRAME_HEADER + h.len) as u64;
    }
    Ok(offset)
}

/// Rebuilds the index for a bare (or index-less) segment by scanning
/// every frame header of the durable prefix. Also yields the durable
/// byte end. Headers only — payload bytes are validated by the decode
/// path, exactly as in the streaming readers.
pub fn scan_index(
    file: &File,
    name: &str,
    records: u64,
    stride: u32,
) -> Result<(FrameIndex, u64), StoreError> {
    let mut entries = Vec::new();
    let end = scan_tail(file, name, 0, 0, records, |frame, rank, offset| {
        if frame % u64::from(stride) == 0 {
            entries.push(IndexEntry { rank, offset });
        }
    })?;
    Ok((FrameIndex { stride, entries }, end))
}

/// The byte offset just past the last durable frame, computed from a
/// validated index by scanning at most one stride of trailing headers.
pub fn durable_end(
    file: &File,
    name: &str,
    idx: &FrameIndex,
    records: u64,
) -> Result<u64, StoreError> {
    let last = idx.entries.last().expect("validated index is non-empty");
    let from = (idx.entries.len() as u64 - 1) * u64::from(idx.stride);
    scan_tail(file, name, last.offset, from, records, |_, _, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(n: u64) -> Vec<IndexEntry> {
        (0..n)
            .map(|i| IndexEntry {
                rank: 1 + i * 3,
                offset: i * 100,
            })
            .collect()
    }

    #[test]
    fn encode_decode_round_trip() {
        for n in [0u64, 1, 2, 7, 100] {
            let e = entries(n);
            let bytes = encode_index(INDEX_STRIDE, &e);
            let idx = decode_index(&bytes).unwrap();
            assert_eq!(idx.stride, INDEX_STRIDE);
            assert_eq!(idx.entries, e);
        }
    }

    #[test]
    fn damage_is_refused_structurally() {
        let bytes = encode_index(INDEX_STRIDE, &entries(5));
        // Any single flipped byte must fail decoding, not mis-parse.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x41;
            assert!(
                decode_index(&bad).is_err(),
                "flipping byte {i} went unnoticed"
            );
        }
        assert!(decode_index(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode_index(b"CGIX").is_err());
    }

    /// A sidecar with a valid checksum over hostile fields.
    fn crafted(stride: u32, count: u32, body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(INDEX_MAGIC);
        out.extend_from_slice(&INDEX_VERSION.to_le_bytes());
        out.extend_from_slice(&stride.to_le_bytes());
        out.extend_from_slice(&count.to_le_bytes());
        out.extend_from_slice(body);
        let check = fnv1a32w(index_check_prefix(stride, count as usize), body);
        out.extend_from_slice(&check.to_le_bytes());
        out
    }

    #[test]
    fn hostile_counts_and_deltas_are_refused_without_panic() {
        let body = |values: [u64; 4]| {
            let mut body = Vec::new();
            for v in values {
                write_uv(&mut body, v);
            }
            body
        };
        // A checksummed u32::MAX count over a two-entry body: refused
        // once the body runs out, after allocating for at most
        // body.len() / 2 entries.
        assert_eq!(
            decode_index(&crafted(INDEX_STRIDE, u32::MAX, &body([1, 0, 2, 2]))),
            Err("index entry truncated".to_string())
        );
        // Deltas that carry the running rank, then the offset, past u64.
        assert_eq!(
            decode_index(&crafted(INDEX_STRIDE, 2, &body([u64::MAX, 0, 1, 1]))),
            Err("index rank overflows".to_string())
        );
        assert_eq!(
            decode_index(&crafted(INDEX_STRIDE, 2, &body([1, u64::MAX, 1, 1]))),
            Err("index offset overflows".to_string())
        );
    }

    #[test]
    fn index_file_names_follow_segments() {
        assert_eq!(index_file_name("seg-0.bin").as_deref(), Some("seg-0.idx"));
        assert_eq!(index_file_name("seg-12.bin").as_deref(), Some("seg-12.idx"));
        assert_eq!(index_file_name("seg-0.jsonl"), None);
    }
}
