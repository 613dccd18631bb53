//! The segment codec: a compact, length-prefixed frame format for
//! [`VisitLog`] records.
//!
//! A segment stores each record as one frame whose payload is the
//! visit's format-v2 encoding ([`encode_visit_log`]), so replay is a
//! frame read plus one direct decode ([`decode_visit_log`]), with the
//! record's rank available in the frame header *before* any payload
//! work (the reader's k-way merge orders on it).
//!
//! ## Frame layout
//!
//! ```text
//! ┌────────────────┬──────────────┬───────────────┬───────────────┐
//! │ payload_len u32│   rank u64   │   check u32   │ payload bytes │
//! │       LE       │      LE      │ FNV-1a folded │  (format v2)  │
//! └────────────────┴──────────────┴───────────────┴───────────────┘
//!   16-byte header, then exactly `payload_len` bytes.
//! ```
//!
//! `check` is word-at-a-time FNV-1a ([`cg_hash::fnv1a32w`]) absorbing
//! the rank, the payload, and the payload length, so a frame vouches
//! for its own ordering key as well as its body. Recovery rules (see
//! [`crate::writer`]):
//!
//! * fewer than 16 bytes left, or a declared payload running past EOF
//!   → a crash mid-append: **truncate** back to the last good frame;
//! * a checksum-mismatched frame that is the *final* frame → torn at
//!   the record level: **truncate**;
//! * a checksum mismatch with complete frames after it → mid-file
//!   damage truncation cannot repair: **corrupt**;
//! * ranks must be strictly ascending within a segment (sorted-run
//!   invariant).
//!
//! ## Payload encoding (format v2)
//!
//! ```text
//! payload := table log
//! table   := count:varint { len:varint utf8[len] }×count
//! log     := site_domain:str rank:varint complete:bool
//!            sets:seq(SetEvent) reads:seq(ReadEvent)
//!            requests:seq(RequestEvent) probes:seq(ProbeEvent)
//!            dom_events:seq(DomEvent) inclusions:seq(ScriptInclusion)
//! ```
//!
//! * **String table.** The payload opens with the visit's distinct
//!   strings, each once, in order of first use. Every string field —
//!   each read's cookie names included — is a varint index into that
//!   table. The first reference to an entry is always the next unused
//!   index, so the table holds no duplicates and no unused entries.
//!   Indices are local to the frame; interner ids never reach the disk.
//! * **Positional fields.** A struct is its fields in declaration order
//!   with no keys. A sequence is a varint count, then its items. An
//!   `Option` is a presence byte (0 or 1), then the value when present.
//!   A `bool` is one byte, 0 or 1. An enum is one byte, its variant's
//!   declaration index.
//! * **Integers** are LEB128 varints in their shortest form (zigzag for
//!   the signed `max_age_s`).
//!
//! Every choice above has exactly one spelling, so the encoding is
//! canonical: a payload the decoder accepts re-encodes to the same
//! bytes, and a decoded record re-serializes to JSON byte-identically
//! to `serde_json::to_string` of the record that was written.
//!
//! The in-memory [`VisitLog`] has the same shape: one string table
//! ([`cg_instrument::StrTable`]: one arena `String` plus end offsets),
//! every string field a symbol into it, and every read's names a range
//! of one flat list ([`VisitLog::read_names`]). The decoder copies the
//! payload's table into the log's table as it is (a payload index *is*
//! the decoded symbol, since the table is in first-use order) and fills
//! the event vectors directly, so a decode allocates once per table
//! part and once per non-empty event sequence, never per string.
//!
//! The decoder's hot path is built for valid payloads:
//!
//! * the table's entries are copied back to back into one arena (sized
//!   exactly by a first pass over their lengths), the arena is
//!   validated as UTF-8 once, and
//!   [`StrTable::from_parts`] indexes it, checking that every entry
//!   ends on a char boundary and that no string appears twice. Only a
//!   table that fails is walked again entry by entry, to name the first
//!   bad entry;
//! * a varint below 128 (most indices, counts and lengths) is read
//!   without entering the multi-byte loop;
//! * an error is a boxed message built out of line (`#[cold]`), so the
//!   `Result` of each field read stays two words and returns in
//!   registers. The public [`decode_visit_log`] still returns the
//!   message as a `String`, worded as it always was.
//!
//! The recorder numbers strings in the order the visit meets them, so the
//! encoder maps the log's symbols to payload indices through a flat
//! vector, assigning each on first use; for a decoded log that map is
//! the identity. Decoding charges everything it allocates against a
//! budget of [`MAX_EXPANSION`] bytes per payload byte, so no declared
//! count, length or repetition can make it allocate out of proportion
//! to the frame.

use cg_hash::{fnv1a32w, StrIndex};
use cg_http::RequestKind;
use cg_instrument::{
    AttrChangeFlags, CookieApi, DomEvent, ProbeEvent, ReadEvent, RequestEvent, ScriptInclusion,
    SetEvent, StrTable, Sym, VisitLog, WriteKind,
};
use serde::{Content, Deserialize, Serialize};

/// On-disk representation of a store's segments, recorded in the
/// manifest fingerprint. Binary frames of format-v2 payloads are the
/// only format; the tag stays in the fingerprint so a manifest names
/// what it holds, and an older store (`"binary"` v1 payloads,
/// `"jsonl"`, or no format at all) is refused rather than misread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentFormat {
    /// Length-prefixed binary frames (`seg-<n>.bin`) of format-v2
    /// payloads.
    Binary,
}

impl SegmentFormat {
    /// The manifest tag of this format.
    pub(crate) fn tag(self) -> &'static str {
        match self {
            SegmentFormat::Binary => "binary-v2",
        }
    }
}

// Serialized as a plain string so the manifest stays greppable.
impl Serialize for SegmentFormat {
    fn to_content(&self) -> Content {
        Content::Str(self.tag().to_string())
    }
}

impl<'de> Deserialize<'de> for SegmentFormat {
    fn from_content(content: &Content) -> Result<Self, serde::DeError> {
        let want = SegmentFormat::Binary.tag();
        match content {
            Content::Str(s) if s == want => Ok(SegmentFormat::Binary),
            other => Err(serde::DeError(format!(
                "unsupported segment format {other:?} (expected \"{want}\")"
            ))),
        }
    }
}

/// Frame header size: payload length (u32) + rank (u64) + check (u32).
pub const FRAME_HEADER: usize = 16;

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

/// Appends one framed record — header then `payload` — to `out`.
pub fn write_frame(out: &mut Vec<u8>, rank: u64, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&rank.to_le_bytes());
    out.extend_from_slice(&frame_check(rank, payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// The frame checksum: word-at-a-time FNV-1a ([`cg_hash::fnv1a32w`])
/// absorbing the rank, the payload, and the payload length — computed
/// directly over the payload slice, no staging copy. Every frame is
/// checked on replay, so the checksum pass is on the hot path.
pub fn frame_check(rank: u64, payload: &[u8]) -> u32 {
    fnv1a32w(rank, payload)
}

/// A decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Payload byte length.
    pub len: usize,
    /// The record's rank (the merge key), readable without decoding.
    pub rank: u64,
    /// Expected [`frame_check`] of the payload.
    pub check: u32,
}

/// Parses the 16 header bytes of a frame.
pub fn parse_header(bytes: &[u8; FRAME_HEADER]) -> FrameHeader {
    FrameHeader {
        len: u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes")) as usize,
        rank: u64::from_le_bytes(bytes[4..12].try_into().expect("8 bytes")),
        check: u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")),
    }
}

// ---------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn cookie_api_byte(api: CookieApi) -> u8 {
    match api {
        CookieApi::DocumentCookie => 0,
        CookieApi::CookieStore => 1,
        CookieApi::HttpHeader => 2,
    }
}

fn write_kind_byte(kind: WriteKind) -> u8 {
    match kind {
        WriteKind::Create => 0,
        WriteKind::Overwrite => 1,
        WriteKind::Delete => 2,
    }
}

fn request_kind_byte(kind: RequestKind) -> u8 {
    match kind {
        RequestKind::Document => 0,
        RequestKind::Script => 1,
        RequestKind::Image => 2,
        RequestKind::Xhr => 3,
        RequestKind::Beacon => 4,
        RequestKind::Subframe => 5,
        RequestKind::Other => 6,
    }
}

// ---------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------

/// Encodes `log` as one format-v2 payload onto `out` (appends; does not
/// clear). See the module docs for the layout.
pub fn encode_visit_log(log: &VisitLog, out: &mut Vec<u8>) {
    VisitEncoder::default().encode(log, out);
}

/// The encoder behind [`encode_visit_log`]. It keeps its symbol map,
/// table section and body buffer between records, so a segment
/// writer's steady state encodes a visit without allocating.
#[derive(Debug, Default)]
pub(crate) struct VisitEncoder {
    /// The payload index of each of the log's symbols, once used
    /// ([`UNUSED`] before).
    indices: Vec<u32>,
    /// The table section's entries as they will be written.
    table: Vec<u8>,
    /// Entries in `table`.
    entries: u32,
    body: Vec<u8>,
}

/// A symbol the payload does not reference yet.
const UNUSED: u32 = u32::MAX;

impl VisitEncoder {
    /// Encodes `log` onto `out` (appends; does not clear). Produces the
    /// same bytes as [`encode_visit_log`].
    pub(crate) fn encode(&mut self, log: &VisitLog, out: &mut Vec<u8>) {
        self.indices.clear();
        self.indices.resize(log.strings.len(), UNUSED);
        self.table.clear();
        self.entries = 0;
        self.body.clear();
        Enc { log, enc: self }.visit_log();
        write_varint(out, u64::from(self.entries));
        out.extend_from_slice(&self.table);
        out.extend_from_slice(&self.body);
    }
}

struct Enc<'e> {
    log: &'e VisitLog,
    enc: &'e mut VisitEncoder,
}

impl Enc<'_> {
    fn varint(&mut self, v: u64) {
        write_varint(&mut self.enc.body, v);
    }

    fn byte(&mut self, b: u8) {
        self.enc.body.push(b);
    }

    fn flag(&mut self, b: bool) {
        self.enc.body.push(u8::from(b));
    }

    /// Symbol `sym` as its string-table index, the string joining the
    /// table on its first use.
    fn str(&mut self, sym: Sym) {
        let enc = &mut *self.enc;
        let slot = &mut enc.indices[sym as usize];
        if *slot == UNUSED {
            *slot = enc.entries;
            enc.entries += 1;
            let s = self.log.str(sym);
            write_varint(&mut enc.table, s.len() as u64);
            enc.table.extend_from_slice(s.as_bytes());
        }
        let index = *slot;
        self.varint(u64::from(index));
    }

    fn opt_str(&mut self, sym: Option<Sym>) {
        self.flag(sym.is_some());
        if let Some(sym) = sym {
            self.str(sym);
        }
    }

    fn seq<T>(&mut self, items: &[T], mut item: impl FnMut(&mut Self, &T)) {
        self.varint(items.len() as u64);
        for x in items {
            item(self, x);
        }
    }

    fn set_event(&mut self, e: &SetEvent) {
        self.str(e.name);
        self.str(e.value);
        self.opt_str(e.actor);
        self.opt_str(e.actor_url);
        self.byte(cookie_api_byte(e.api));
        self.byte(write_kind_byte(e.kind));
        self.flag(e.max_age_s.is_some());
        if let Some(s) = e.max_age_s {
            self.varint(zigzag(s));
        }
        self.flag(e.changes.is_some());
        if let Some(c) = e.changes {
            self.flag(c.value);
            self.flag(c.expires);
            self.flag(c.domain);
            self.flag(c.path);
        }
        self.flag(e.blocked);
        self.varint(e.time_ms);
    }

    fn read_event(&mut self, e: &ReadEvent) {
        self.opt_str(e.actor);
        self.byte(cookie_api_byte(e.api));
        let log = self.log;
        self.seq(log.name_syms(e), |enc, &name| enc.str(name));
        self.varint(e.filtered_count as u64);
        self.varint(e.time_ms);
    }

    fn request_event(&mut self, e: &RequestEvent) {
        self.str(e.url);
        self.opt_str(e.dest_domain);
        self.byte(request_kind_byte(e.kind));
        self.opt_str(e.initiator);
        self.opt_str(e.initiator_url);
        self.str(e.first_party);
        self.opt_str(e.cookie_header);
        self.varint(e.time_ms);
    }

    fn probe_event(&mut self, e: &ProbeEvent) {
        self.str(e.feature);
        self.str(e.cookie);
        self.flag(e.ok);
        self.opt_str(e.actor);
    }

    fn dom_event(&mut self, e: &DomEvent) {
        self.opt_str(e.actor);
        self.str(e.owner);
        self.str(e.kind);
        self.flag(e.blocked);
    }

    fn inclusion(&mut self, e: &ScriptInclusion) {
        self.str(e.url);
        self.opt_str(e.domain);
        self.flag(e.direct);
    }

    fn visit_log(&mut self) {
        let log = self.log;
        self.str(log.site_domain);
        self.varint(log.rank as u64);
        self.flag(log.complete);
        self.seq(&log.sets, Self::set_event);
        self.seq(&log.reads, Self::read_event);
        self.seq(&log.requests, Self::request_event);
        self.seq(&log.probes, Self::probe_event);
        self.seq(&log.dom_events, Self::dom_event);
        self.seq(&log.inclusions, Self::inclusion);
    }
}

// ---------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------

/// Decoding allocates at most this many bytes per payload byte: every
/// table entry, sequence, and string copy is charged against
/// `MAX_EXPANSION × payload length` before it is allocated, and a
/// payload whose decoded form would exceed that is refused. Real visits
/// decode to a small fraction of the budget.
pub const MAX_EXPANSION: usize = 64;

/// Decodes one format-v2 payload (see the module docs) into a
/// [`VisitLog`]. Every byte must be consumed and every table entry
/// referenced; any deviation — an index out of range or out of
/// first-use order, a duplicate entry, an unknown enum or presence
/// byte, an overlong varint, trailing bytes — is an error, never a
/// silent partial record.
pub fn decode_visit_log(payload: &[u8]) -> Result<VisitLog, String> {
    let mut d = Dec {
        bytes: payload,
        pos: 0,
        strings: StrTable::default(),
        read_names: Vec::new(),
        next_new: 0,
        budget: payload.len().saturating_mul(MAX_EXPANSION),
    };
    let decoded = d.table().and_then(|()| d.visit_log());
    let log = decoded.map_err(|e| *e.0)?;
    if d.pos != payload.len() {
        return Err(format!(
            "{} trailing bytes after the visit log",
            payload.len() - d.pos
        ));
    }
    if d.next_new != log.strings.len() {
        return Err(format!(
            "{} string table entries are never referenced",
            log.strings.len() - d.next_new
        ));
    }
    Ok(log)
}

/// Why a decode failed: the message, boxed so that the `Result` of
/// every hot [`Dec`] method stays two words and returns in registers.
// A `String` is three words and a `Box<str>` two; the extra allocation
// is paid only on failure.
#[allow(clippy::box_collection)]
struct DecodeError(Box<String>);

type Decoded<T> = Result<T, DecodeError>;

/// Builds a [`DecodeError`]; out of line, since valid payloads never
/// fail.
#[cold]
#[inline(never)]
fn error(message: std::fmt::Arguments<'_>) -> DecodeError {
    DecodeError(Box::new(message.to_string()))
}

/// The error for a read past the payload's end at byte `at`.
#[cold]
#[inline(never)]
fn truncated(at: usize) -> DecodeError {
    error(format_args!("payload truncated at byte {at}"))
}

struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// The log's string table: the payload's, entry for entry.
    strings: StrTable,
    /// The log's read names, read after read.
    read_names: Vec<Sym>,
    /// The first table index not yet referenced.
    next_new: usize,
    /// Bytes this decode may still allocate.
    budget: usize,
}

impl<'a> Dec<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Charges `bytes` of allocation against the budget.
    fn charge(&mut self, bytes: usize) -> Decoded<()> {
        self.budget = self.budget.checked_sub(bytes).ok_or_else(|| {
            error(format_args!(
                "the decoded visit would exceed {MAX_EXPANSION} bytes per payload byte"
            ))
        })?;
        Ok(())
    }

    fn byte(&mut self) -> Decoded<u8> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| truncated(self.pos))?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize) -> Decoded<&'a [u8]> {
        let bytes = self.bytes;
        let slice = bytes
            .get(self.pos..)
            .and_then(|rest| rest.get(..n))
            .ok_or_else(|| truncated(self.pos))?;
        self.pos += n;
        Ok(slice)
    }

    /// A LEB128 varint in its shortest form. Most are one byte (every
    /// string index below 128, counts, lengths, small times), so that
    /// case returns without entering the loop.
    #[inline]
    fn varint(&mut self) -> Decoded<u64> {
        match self.bytes.get(self.pos) {
            Some(&b) if b < 0x80 => {
                self.pos += 1;
                Ok(u64::from(b))
            }
            _ => self.long_varint(),
        }
    }

    fn long_varint(&mut self) -> Decoded<u64> {
        let start = self.pos;
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let byte = self.byte()?;
            if shift == 63 && byte > 1 {
                return Err(error(format_args!(
                    "varint at byte {start} overflows 64 bits"
                )));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                if byte == 0 && shift > 0 {
                    return Err(error(format_args!("overlong varint at byte {start}")));
                }
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn usize_val(&mut self) -> Decoded<usize> {
        let at = self.pos;
        usize::try_from(self.varint()?)
            .map_err(|_| error(format_args!("integer at byte {at} overflows usize")))
    }

    /// A declared count of items that each take at least `min_bytes`,
    /// refused when the rest of the payload cannot hold them.
    fn count(&mut self, min_bytes: usize, what: &str) -> Decoded<usize> {
        let at = self.pos;
        let n = self.varint()?;
        if n > (self.remaining() / min_bytes) as u64 {
            return Err(error(format_args!(
                "{n} {what} declared at byte {at}, but only {} bytes remain",
                self.remaining()
            )));
        }
        Ok(n as usize)
    }

    /// A presence or `bool` byte: 0 or 1.
    fn flag(&mut self) -> Decoded<bool> {
        match self.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(error(format_args!(
                "flag byte {b} at byte {} (expected 0 or 1)",
                self.pos - 1
            ))),
        }
    }

    /// The string table. A first pass over the entry lengths finds the
    /// table's size; a second copies every entry into one arena sized
    /// exactly, which is validated as UTF-8 once and then indexed by
    /// [`StrTable::from_parts`], which checks that each entry ends on a
    /// char boundary (so each is UTF-8 on its own) and names no string
    /// twice. A table that fails either check is decoded again entry by
    /// entry, so the error names the first bad entry as it always has.
    fn table(&mut self) -> Decoded<()> {
        let n = self.count(1, "string table entries")?;
        let entries = self.pos;
        let mut bytes = 0;
        for _ in 0..n {
            let len = self.usize_val()?;
            self.take(len)?;
            bytes += len;
        }
        self.pos = entries;
        self.charge(
            bytes
                + n * std::mem::size_of::<u32>()
                + StrIndex::slot_count(n) * std::mem::size_of::<u32>(),
        )?;
        let mut arena = Vec::with_capacity(bytes);
        let mut ends = Vec::with_capacity(n);
        for _ in 0..n {
            let len = self.usize_val()?;
            arena.extend_from_slice(self.take(len)?);
            ends.push(arena.len() as u32);
        }
        let table = String::from_utf8(arena)
            .ok()
            .and_then(|arena| StrTable::from_parts(arena, ends).ok());
        self.strings = match table {
            Some(table) => table,
            None => {
                self.pos = entries;
                self.table_entry_by_entry(n, bytes)?
            }
        };
        Ok(())
    }

    /// The string table at `pos`, checked and interned one entry at a
    /// time: the first entry that is not UTF-8 or repeats an earlier
    /// one is the error.
    #[cold]
    #[inline(never)]
    fn table_entry_by_entry(&mut self, n: usize, bytes: usize) -> Decoded<StrTable> {
        let mut strings = StrTable::with_capacity(n, bytes);
        for i in 0..n {
            let at = self.pos;
            let len = self.usize_val()?;
            let s = std::str::from_utf8(self.take(len)?)
                .map_err(|e| error(format_args!("invalid UTF-8 in string table entry {i}: {e}")))?;
            if strings.insert(s).is_err() {
                return Err(error(format_args!(
                    "duplicate string table entry {i} at byte {at}"
                )));
            }
        }
        Ok(strings)
    }

    /// A string: its table index, which is its symbol. An existing
    /// entry, or the next unused one.
    fn string(&mut self) -> Decoded<Sym> {
        let at = self.pos;
        let i = self.varint()?;
        if i < self.next_new as u64 {
            return Ok(i as Sym);
        }
        if i == self.next_new as u64 && self.next_new < self.strings.len() {
            self.next_new += 1;
            return Ok(i as Sym);
        }
        Err(self.bad_index(i, at))
    }

    /// The error for index `i` read at byte `at`, which names neither
    /// an existing entry nor the next unused one.
    #[cold]
    #[inline(never)]
    fn bad_index(&self, i: u64, at: usize) -> DecodeError {
        if i >= self.strings.len() as u64 {
            error(format_args!(
                "string index {i} at byte {at} is out of range ({} entries)",
                self.strings.len()
            ))
        } else {
            error(format_args!(
                "string index {i} at byte {at} skips unused entry {}",
                self.next_new
            ))
        }
    }

    fn opt_string(&mut self) -> Decoded<Option<Sym>> {
        if self.flag()? {
            self.string().map(Some)
        } else {
            Ok(None)
        }
    }

    /// A read's names, appended to `read_names`: their range there.
    fn read_names(&mut self) -> Decoded<std::ops::Range<u32>> {
        let n = self.count(1, "read names")?;
        if self.read_names.capacity() == 0 && n > 0 {
            // Every name takes at least a byte, so what is left of the
            // payload bounds the visit's names; the surplus is returned
            // once the reads are decoded.
            let bound = self.remaining();
            self.charge(bound * std::mem::size_of::<Sym>())?;
            self.read_names.reserve_exact(bound);
        }
        let start = self.read_names.len() as u32;
        for _ in 0..n {
            let name = self.string()?;
            self.read_names.push(name);
        }
        Ok(start..self.read_names.len() as u32)
    }

    /// A sequence of items that each encode to at least `min_bytes`.
    fn seq<T>(
        &mut self,
        min_bytes: usize,
        what: &str,
        item: impl Fn(&mut Dec<'a>) -> Decoded<T>,
    ) -> Decoded<Vec<T>> {
        let n = self.count(min_bytes, what)?;
        self.charge(n * std::mem::size_of::<T>())?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    fn enum_byte(&mut self, variants: u8, what: &str) -> Decoded<u8> {
        let b = self.byte()?;
        if b >= variants {
            return Err(error(format_args!(
                "unknown {what} byte {b} at byte {}",
                self.pos - 1
            )));
        }
        Ok(b)
    }

    fn cookie_api(&mut self) -> Decoded<CookieApi> {
        Ok(match self.enum_byte(3, "CookieApi")? {
            0 => CookieApi::DocumentCookie,
            1 => CookieApi::CookieStore,
            _ => CookieApi::HttpHeader,
        })
    }

    fn write_kind(&mut self) -> Decoded<WriteKind> {
        Ok(match self.enum_byte(3, "WriteKind")? {
            0 => WriteKind::Create,
            1 => WriteKind::Overwrite,
            _ => WriteKind::Delete,
        })
    }

    fn request_kind(&mut self) -> Decoded<RequestKind> {
        Ok(match self.enum_byte(7, "RequestKind")? {
            0 => RequestKind::Document,
            1 => RequestKind::Script,
            2 => RequestKind::Image,
            3 => RequestKind::Xhr,
            4 => RequestKind::Beacon,
            5 => RequestKind::Subframe,
            _ => RequestKind::Other,
        })
    }

    fn set_event(&mut self) -> Decoded<SetEvent> {
        let name = self.string()?;
        let value = self.string()?;
        let actor = self.opt_string()?;
        let actor_url = self.opt_string()?;
        let api = self.cookie_api()?;
        let kind = self.write_kind()?;
        let max_age_s = if self.flag()? {
            Some(unzigzag(self.varint()?))
        } else {
            None
        };
        let changes = if self.flag()? {
            Some(AttrChangeFlags {
                value: self.flag()?,
                expires: self.flag()?,
                domain: self.flag()?,
                path: self.flag()?,
            })
        } else {
            None
        };
        let blocked = self.flag()?;
        let time_ms = self.varint()?;
        Ok(SetEvent {
            name,
            value,
            actor,
            actor_url,
            api,
            kind,
            max_age_s,
            changes,
            blocked,
            time_ms,
        })
    }

    fn read_event(&mut self) -> Decoded<ReadEvent> {
        let actor = self.opt_string()?;
        let api = self.cookie_api()?;
        let names = self.read_names()?;
        let filtered_count = self.usize_val()?;
        let time_ms = self.varint()?;
        Ok(ReadEvent {
            actor,
            api,
            names,
            filtered_count,
            time_ms,
        })
    }

    fn request_event(&mut self) -> Decoded<RequestEvent> {
        let url = self.string()?;
        let dest_domain = self.opt_string()?;
        let kind = self.request_kind()?;
        let initiator = self.opt_string()?;
        let initiator_url = self.opt_string()?;
        let first_party = self.string()?;
        let cookie_header = self.opt_string()?;
        let time_ms = self.varint()?;
        Ok(RequestEvent {
            url,
            dest_domain,
            kind,
            initiator,
            initiator_url,
            first_party,
            cookie_header,
            time_ms,
        })
    }

    fn probe_event(&mut self) -> Decoded<ProbeEvent> {
        let feature = self.string()?;
        let cookie = self.string()?;
        let ok = self.flag()?;
        let actor = self.opt_string()?;
        Ok(ProbeEvent {
            feature,
            cookie,
            ok,
            actor,
        })
    }

    fn dom_event(&mut self) -> Decoded<DomEvent> {
        let actor = self.opt_string()?;
        let owner = self.string()?;
        let kind = self.string()?;
        let blocked = self.flag()?;
        Ok(DomEvent {
            actor,
            owner,
            kind,
            blocked,
        })
    }

    fn inclusion(&mut self) -> Decoded<ScriptInclusion> {
        let url = self.string()?;
        let domain = self.opt_string()?;
        let direct = self.flag()?;
        Ok(ScriptInclusion {
            url,
            domain,
            direct,
        })
    }

    // The minimum byte counts below are each item's encoding with every
    // string index one byte, every option absent and every integer 0.
    fn visit_log(&mut self) -> Decoded<VisitLog> {
        let site_domain = self.string()?;
        let rank = self.usize_val()?;
        let complete = self.flag()?;
        let sets = self.seq(10, "set events", Dec::set_event)?;
        let reads = self.seq(5, "read events", Dec::read_event)?;
        self.read_names.shrink_to_fit();
        let requests = self.seq(8, "request events", Dec::request_event)?;
        let probes = self.seq(4, "probe events", Dec::probe_event)?;
        let dom_events = self.seq(4, "DOM events", Dec::dom_event)?;
        let inclusions = self.seq(3, "inclusions", Dec::inclusion)?;
        Ok(VisitLog {
            site_domain,
            rank,
            complete,
            sets,
            reads,
            read_names: std::mem::take(&mut self.read_names),
            requests,
            probes,
            dom_events,
            inclusions,
            strings: std::mem::take(&mut self.strings),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(log: &VisitLog) -> Vec<u8> {
        let mut out = Vec::new();
        encode_visit_log(log, &mut out);
        out
    }

    fn json(log: &VisitLog) -> String {
        serde_json::to_string(log).unwrap()
    }

    /// Logs of a real crawl, complete (event-rich) ones included.
    fn crawl_logs() -> Vec<VisitLog> {
        use cg_browser::{crawl_range, VisitConfig};
        use cg_webgen::{GenConfig, WebGenerator};
        let gen = WebGenerator::new(GenConfig::small(24), 0xC00C1E);
        let (outcomes, _) = crawl_range(&gen, &VisitConfig::regular(), 1, 24, 2);
        let logs: Vec<VisitLog> = outcomes.into_iter().map(|o| o.log).collect();
        assert!(logs.iter().any(|l| l.complete && !l.reads.is_empty()));
        logs
    }

    #[test]
    fn real_visits_round_trip_to_the_same_json_and_the_same_bytes() {
        let mut encoder = VisitEncoder::default();
        for log in crawl_logs() {
            let payload = encode(&log);
            let back = decode_visit_log(&payload).expect("decode");
            // The export's equivalence oracle: the decoded record
            // reprints to the exact JSON line of the record written.
            assert_eq!(json(&back), json(&log));
            // Canonical: what decodes re-encodes to the same bytes, and
            // a reused encoder writes what a fresh one does.
            assert_eq!(encode(&back), payload);
            let mut reused = Vec::new();
            encoder.encode(&log, &mut reused);
            assert_eq!(reused, payload);
        }
    }

    #[test]
    fn a_decoded_table_is_the_payloads_in_first_use_order() {
        let log = crawl_logs()
            .into_iter()
            .max_by_key(|l| l.reads.len())
            .unwrap();
        let back = decode_visit_log(&encode(&log)).unwrap();
        // Each distinct string is one table entry.
        let mut distinct: Vec<&str> = back.strings.iter().collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), back.strings.len(), "a string decoded twice");
        assert_eq!(back.site_domain, 0, "the site's domain is used first");
        // Every read of a name holds that entry's symbol, and the reads'
        // ranges tile the flat name list in order.
        let mut end = 0;
        for read in &back.reads {
            assert_eq!(read.names.start, end);
            end = read.names.end;
        }
        assert_eq!(end as usize, back.read_names.len());
        let mut names = back.read_names.clone();
        names.sort_unstable();
        names.dedup();
        assert!(
            names.len() < back.read_names.len(),
            "want a name read twice"
        );
    }

    #[test]
    fn strings_are_stored_once_per_payload() {
        let url = "https://cdn.tracker.example/t.js";
        let mut log = VisitLog::new("site.example", 3);
        for t in 0..4 {
            let inclusion = ScriptInclusion {
                url: log.intern(url),
                domain: Some(log.intern("tracker.example")),
                direct: t == 0,
            };
            log.inclusions.push(inclusion);
        }
        let payload = encode(&log);
        let text = String::from_utf8_lossy(&payload);
        assert_eq!(text.matches(url).count(), 1);
        assert_eq!(json(&decode_visit_log(&payload).unwrap()), json(&log));
    }

    #[test]
    fn strings_are_written_in_first_use_order_whatever_the_logs_order() {
        // The recorder numbers strings as the visit meets them; the
        // payload numbers them as the encoding does.
        let mut log = VisitLog::new("site.example", 1);
        let (late, early) = (log.intern("late"), log.intern("early"));
        log.probes.push(ProbeEvent {
            feature: late,
            cookie: late,
            ok: true,
            actor: None,
        });
        let one = log.intern("1");
        log.sets.push(SetEvent {
            name: early,
            value: one,
            actor: None,
            actor_url: None,
            api: CookieApi::DocumentCookie,
            kind: WriteKind::Create,
            max_age_s: None,
            changes: None,
            blocked: false,
            time_ms: 0,
        });
        let unused = log.intern("never written");
        assert_eq!(unused, 4);
        let back = decode_visit_log(&encode(&log)).unwrap();
        assert_eq!(
            back.strings.iter().collect::<Vec<_>>(),
            ["site.example", "early", "1", "late"]
        );
        assert_eq!(json(&back), json(&log));
    }

    #[test]
    fn frame_check_covers_rank_and_payload() {
        let payload = b"payload";
        let base = frame_check(7, payload);
        assert_ne!(base, frame_check(8, payload), "rank is covered");
        assert_ne!(base, frame_check(7, b"payloae"), "payload is covered");
    }

    #[test]
    fn header_roundtrip() {
        let mut out = Vec::new();
        write_frame(&mut out, 0xDEAD_BEEF, b"abc");
        assert_eq!(out.len(), FRAME_HEADER + 3);
        let header = parse_header(out[..FRAME_HEADER].try_into().unwrap());
        assert_eq!(header.len, 3);
        assert_eq!(header.rank, 0xDEAD_BEEF);
        assert_eq!(header.check, frame_check(0xDEAD_BEEF, b"abc"));
    }

    #[test]
    fn format_serializes_as_string() {
        assert_eq!(
            serde_json::to_string(&SegmentFormat::Binary).unwrap(),
            "\"binary-v2\""
        );
        let back: SegmentFormat = serde_json::from_str("\"binary-v2\"").unwrap();
        assert_eq!(back, SegmentFormat::Binary);
        for retired in ["\"binary\"", "\"jsonl\"", "\"cbor\"", "null"] {
            assert!(serde_json::from_str::<SegmentFormat>(retired).is_err());
        }
    }
}
