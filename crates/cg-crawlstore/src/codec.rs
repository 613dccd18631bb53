//! The segment codec: a compact, length-prefixed frame format for
//! [`VisitLog`] records.
//!
//! A segment stores each record's [`Content`] tree directly — tagged
//! values with varint lengths — so replay is a frame read plus one
//! direct decode, with the record's rank available in the frame header
//! *before* any payload work (the reader's k-way merge orders on it).
//!
//! ## Frame layout
//!
//! ```text
//! ┌────────────────┬──────────────┬───────────────┬───────────────┐
//! │ payload_len u32│   rank u64   │   check u32   │ payload bytes │
//! │       LE       │      LE      │ FNV-1a folded │  (tagged tree)│
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
//! ## Payload encoding
//!
//! A tagged pre-order walk of the content tree: one tag byte, then the
//! node's data. Integers are LEB128 varints (zigzag for signed), `f64`
//! is 8 raw little-endian bytes (exact round-trip, no decimal detour),
//! strings are varint-length-prefixed UTF-8, and sequences/maps are
//! varint counts followed by their elements in order. Map entry order
//! is preserved byte-for-byte, so a decoded record re-serializes to
//! JSON **byte-identically** to `serde_json::to_string` of the record
//! that was written.

use cg_hash::fnv1a32w;
use serde::{Content, Deserialize, Serialize};

/// On-disk representation of a store's segments, recorded in the
/// manifest fingerprint. Binary frames are the only format; the tag
/// stays in the fingerprint so a manifest names what it holds, and a
/// store from before binary-only segments (`"jsonl"`, or no format at
/// all) is refused rather than misread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentFormat {
    /// Length-prefixed binary frames (`seg-<n>.bin`).
    Binary,
}

// Serialized as a plain string so the manifest stays greppable.
impl Serialize for SegmentFormat {
    fn to_content(&self) -> Content {
        Content::Str("binary".to_string())
    }
}

impl<'de> Deserialize<'de> for SegmentFormat {
    fn from_content(content: &Content) -> Result<Self, serde::DeError> {
        match content {
            Content::Str(s) if s == "binary" => Ok(SegmentFormat::Binary),
            other => Err(serde::DeError(format!(
                "unsupported segment format {other:?} (expected \"binary\")"
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
/// directly over the payload slice, no staging copy. Frames are tens
/// of KB, so the checksum pass is on the replay hot path.
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
// Content payloads
// ---------------------------------------------------------------------

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_I64: u8 = 3;
const TAG_U64: u8 = 4;
const TAG_F64: u8 = 5;
const TAG_STR: u8 = 6;
const TAG_SEQ: u8 = 7;
const TAG_MAP: u8 = 8;

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

/// Encodes a content tree onto `out` (appends; does not clear).
pub fn encode_content(content: &Content, out: &mut Vec<u8>) {
    match content {
        Content::Null => out.push(TAG_NULL),
        Content::Bool(false) => out.push(TAG_FALSE),
        Content::Bool(true) => out.push(TAG_TRUE),
        Content::I64(v) => {
            out.push(TAG_I64);
            write_varint(out, zigzag(*v));
        }
        Content::U64(v) => {
            out.push(TAG_U64);
            write_varint(out, *v);
        }
        Content::F64(v) => {
            out.push(TAG_F64);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Content::Str(s) => {
            out.push(TAG_STR);
            write_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        Content::Seq(items) => {
            out.push(TAG_SEQ);
            write_varint(out, items.len() as u64);
            for item in items {
                encode_content(item, out);
            }
        }
        Content::Map(entries) => {
            out.push(TAG_MAP);
            write_varint(out, entries.len() as u64);
            for (k, v) in entries {
                encode_content(k, out);
                encode_content(v, out);
            }
        }
    }
}

/// Decodes a payload produced by [`encode_content`]. Every byte must be
/// consumed — trailing garbage means the payload was not a single
/// well-formed tree.
pub fn decode_content(payload: &[u8]) -> Result<Content, String> {
    let mut cursor = Cursor {
        bytes: payload,
        pos: 0,
    };
    let content = cursor.value(0)?;
    if cursor.pos != payload.len() {
        return Err(format!(
            "{} trailing bytes after the content tree",
            payload.len() - cursor.pos
        ));
    }
    Ok(content)
}

/// Nesting ceiling for decode: no [`VisitLog`]
/// comes close, so hitting it means the payload is garbage that
/// happened to checksum (or a different schema entirely).
const MAX_DEPTH: usize = 64;

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn byte(&mut self) -> Result<u8, String> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| format!("payload truncated at byte {}", self.pos))?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize) -> Result<&[u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| format!("payload truncated at byte {}", self.pos))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn varint(&mut self) -> Result<u64, String> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.byte()?;
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(format!("varint longer than 10 bytes at {}", self.pos))
    }

    fn value(&mut self, depth: usize) -> Result<Content, String> {
        if depth > MAX_DEPTH {
            return Err(format!("content nested deeper than {MAX_DEPTH}"));
        }
        Ok(match self.byte()? {
            TAG_NULL => Content::Null,
            TAG_FALSE => Content::Bool(false),
            TAG_TRUE => Content::Bool(true),
            TAG_I64 => Content::I64(unzigzag(self.varint()?)),
            TAG_U64 => Content::U64(self.varint()?),
            TAG_F64 => Content::F64(f64::from_le_bytes(
                self.take(8)?.try_into().expect("8 bytes"),
            )),
            TAG_STR => {
                let len = self.varint()? as usize;
                let bytes = self.take(len)?.to_vec();
                Content::Str(
                    String::from_utf8(bytes)
                        .map_err(|e| format!("invalid UTF-8 in string: {e}"))?,
                )
            }
            TAG_SEQ => {
                let count = self.varint()? as usize;
                // Every element takes at least one byte: the payload, not
                // the claimed count, bounds the allocation.
                let mut items = Vec::with_capacity(count.min(self.bytes.len() - self.pos));
                for _ in 0..count {
                    items.push(self.value(depth + 1)?);
                }
                Content::Seq(items)
            }
            TAG_MAP => {
                let count = self.varint()? as usize;
                let mut entries = Vec::with_capacity(count.min(self.bytes.len() - self.pos));
                for _ in 0..count {
                    let k = self.value(depth + 1)?;
                    let v = self.value(depth + 1)?;
                    entries.push((k, v));
                }
                Content::Map(entries)
            }
            tag => {
                return Err(format!(
                    "unknown content tag {tag} at byte {}",
                    self.pos - 1
                ))
            }
        })
    }
}

// ---------------------------------------------------------------------
// Specialized VisitLog decoder: the replay fast path
// ---------------------------------------------------------------------

/// Decodes a binary payload straight into a
/// [`VisitLog`], skipping the intermediate
/// [`Content`] tree the generic path builds. Map keys are compared as
/// borrowed byte slices (zero allocation per key) and only the final
/// owned fields allocate.
///
/// The decoder is *positional*: it expects exactly the field sequence
/// the derive-generated `to_content` emits (declaration order — the
/// only thing [`crate::writer`] ever writes). Any deviation is an
/// error, never a silent partial record; the codec tests pin its
/// agreement with the generic `decode_content` + `from_content` path on
/// every record of a crawl.
pub fn decode_visit_log(payload: &[u8]) -> Result<VisitLog, String> {
    let mut d = Dec {
        bytes: payload,
        pos: 0,
    };
    let log = d.visit_log()?;
    if d.pos != payload.len() {
        return Err(format!(
            "{} trailing bytes after the visit log",
            payload.len() - d.pos
        ));
    }
    Ok(log)
}

use cg_http::RequestKind;
use cg_instrument::{
    AttrChangeFlags, CookieApi, DomEvent, ProbeEvent, ReadEvent, RequestEvent, ScriptInclusion,
    SetEvent, VisitLog, WriteKind,
};

struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn byte(&mut self) -> Result<u8, String> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| format!("payload truncated at byte {}", self.pos))?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| format!("payload truncated at byte {}", self.pos))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn varint(&mut self) -> Result<u64, String> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.byte()?;
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(format!("varint longer than 10 bytes at {}", self.pos))
    }

    fn expect_tag(&mut self, want: u8, what: &str) -> Result<(), String> {
        let got = self.byte()?;
        if got != want {
            return Err(format!(
                "expected {what} (tag {want}) at byte {}, found tag {got}",
                self.pos - 1
            ));
        }
        Ok(())
    }

    /// A borrowed string value (`TAG_STR`): zero-copy.
    fn str_slice(&mut self) -> Result<&'a str, String> {
        self.expect_tag(TAG_STR, "a string")?;
        let len = self.varint()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|e| format!("invalid UTF-8 in string: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.str_slice().map(str::to_owned)
    }

    fn opt_string(&mut self) -> Result<Option<String>, String> {
        if self.bytes.get(self.pos) == Some(&TAG_NULL) {
            self.pos += 1;
            return Ok(None);
        }
        self.string().map(Some)
    }

    fn bool_val(&mut self) -> Result<bool, String> {
        match self.byte()? {
            TAG_FALSE => Ok(false),
            TAG_TRUE => Ok(true),
            tag => Err(format!(
                "expected a bool at byte {}, tag {tag}",
                self.pos - 1
            )),
        }
    }

    fn u64_val(&mut self) -> Result<u64, String> {
        self.expect_tag(TAG_U64, "an unsigned integer")?;
        self.varint()
    }

    fn opt_i64(&mut self) -> Result<Option<i64>, String> {
        if self.bytes.get(self.pos) == Some(&TAG_NULL) {
            self.pos += 1;
            return Ok(None);
        }
        self.expect_tag(TAG_I64, "a signed integer")?;
        self.varint().map(|v| Some(unzigzag(v)))
    }

    /// A struct header: `TAG_MAP` with exactly `fields` entries.
    fn struct_header(&mut self, fields: u64, what: &str) -> Result<(), String> {
        self.expect_tag(TAG_MAP, what)?;
        let count = self.varint()?;
        if count != fields {
            return Err(format!("{what} has {count} fields, expected {fields}"));
        }
        Ok(())
    }

    /// A map key, verified against the declaration-order field name.
    fn key(&mut self, name: &str) -> Result<(), String> {
        let got = self.str_slice()?;
        if got != name {
            return Err(format!("expected field \"{name}\", found \"{got}\""));
        }
        Ok(())
    }

    fn seq<T>(
        &mut self,
        item: impl Fn(&mut Dec<'a>) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.expect_tag(TAG_SEQ, "a sequence")?;
        let count = self.varint()? as usize;
        // Every item takes at least one byte (see `Cursor::value`).
        let mut out = Vec::with_capacity(count.min(self.bytes.len() - self.pos));
        for _ in 0..count {
            out.push(item(self)?);
        }
        Ok(out)
    }

    fn cookie_api(&mut self) -> Result<CookieApi, String> {
        match self.str_slice()? {
            "DocumentCookie" => Ok(CookieApi::DocumentCookie),
            "CookieStore" => Ok(CookieApi::CookieStore),
            "HttpHeader" => Ok(CookieApi::HttpHeader),
            other => Err(format!("unknown CookieApi variant \"{other}\"")),
        }
    }

    fn write_kind(&mut self) -> Result<WriteKind, String> {
        match self.str_slice()? {
            "Create" => Ok(WriteKind::Create),
            "Overwrite" => Ok(WriteKind::Overwrite),
            "Delete" => Ok(WriteKind::Delete),
            other => Err(format!("unknown WriteKind variant \"{other}\"")),
        }
    }

    fn request_kind(&mut self) -> Result<RequestKind, String> {
        match self.str_slice()? {
            "Document" => Ok(RequestKind::Document),
            "Script" => Ok(RequestKind::Script),
            "Image" => Ok(RequestKind::Image),
            "Xhr" => Ok(RequestKind::Xhr),
            "Beacon" => Ok(RequestKind::Beacon),
            "Subframe" => Ok(RequestKind::Subframe),
            "Other" => Ok(RequestKind::Other),
            other => Err(format!("unknown RequestKind variant \"{other}\"")),
        }
    }

    fn attr_changes(&mut self) -> Result<Option<AttrChangeFlags>, String> {
        if self.bytes.get(self.pos) == Some(&TAG_NULL) {
            self.pos += 1;
            return Ok(None);
        }
        self.struct_header(4, "AttrChangeFlags")?;
        self.key("value")?;
        let value = self.bool_val()?;
        self.key("expires")?;
        let expires = self.bool_val()?;
        self.key("domain")?;
        let domain = self.bool_val()?;
        self.key("path")?;
        let path = self.bool_val()?;
        Ok(Some(AttrChangeFlags {
            value,
            expires,
            domain,
            path,
        }))
    }

    fn set_event(&mut self) -> Result<SetEvent, String> {
        self.struct_header(10, "SetEvent")?;
        self.key("name")?;
        let name = self.string()?;
        self.key("value")?;
        let value = self.string()?;
        self.key("actor")?;
        let actor = self.opt_string()?;
        self.key("actor_url")?;
        let actor_url = self.opt_string()?;
        self.key("api")?;
        let api = self.cookie_api()?;
        self.key("kind")?;
        let kind = self.write_kind()?;
        self.key("max_age_s")?;
        let max_age_s = self.opt_i64()?;
        self.key("changes")?;
        let changes = self.attr_changes()?;
        self.key("blocked")?;
        let blocked = self.bool_val()?;
        self.key("time_ms")?;
        let time_ms = self.u64_val()?;
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

    fn read_event(&mut self) -> Result<ReadEvent, String> {
        self.struct_header(5, "ReadEvent")?;
        self.key("actor")?;
        let actor = self.opt_string()?;
        self.key("api")?;
        let api = self.cookie_api()?;
        self.key("cookies")?;
        let cookies = self.seq(|d| {
            d.expect_tag(TAG_SEQ, "a (name, value) pair")?;
            let len = d.varint()?;
            if len != 2 {
                return Err(format!("cookie pair of length {len}"));
            }
            Ok((d.string()?, d.string()?))
        })?;
        self.key("filtered_count")?;
        let filtered_count = self.u64_val()? as usize;
        self.key("time_ms")?;
        let time_ms = self.u64_val()?;
        Ok(ReadEvent {
            actor,
            api,
            cookies,
            filtered_count,
            time_ms,
        })
    }

    fn request_event(&mut self) -> Result<RequestEvent, String> {
        self.struct_header(8, "RequestEvent")?;
        self.key("url")?;
        let url = self.string()?;
        self.key("dest_domain")?;
        let dest_domain = self.opt_string()?;
        self.key("kind")?;
        let kind = self.request_kind()?;
        self.key("initiator")?;
        let initiator = self.opt_string()?;
        self.key("initiator_url")?;
        let initiator_url = self.opt_string()?;
        self.key("first_party")?;
        let first_party = self.string()?;
        self.key("cookie_header")?;
        let cookie_header = self.opt_string()?;
        self.key("time_ms")?;
        let time_ms = self.u64_val()?;
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

    fn probe_event(&mut self) -> Result<ProbeEvent, String> {
        self.struct_header(4, "ProbeEvent")?;
        self.key("feature")?;
        let feature = self.string()?;
        self.key("cookie")?;
        let cookie = self.string()?;
        self.key("ok")?;
        let ok = self.bool_val()?;
        self.key("actor")?;
        let actor = self.opt_string()?;
        Ok(ProbeEvent {
            feature,
            cookie,
            ok,
            actor,
        })
    }

    fn dom_event(&mut self) -> Result<DomEvent, String> {
        self.struct_header(4, "DomEvent")?;
        self.key("actor")?;
        let actor = self.opt_string()?;
        self.key("owner")?;
        let owner = self.string()?;
        self.key("kind")?;
        let kind = self.string()?;
        self.key("blocked")?;
        let blocked = self.bool_val()?;
        Ok(DomEvent {
            actor,
            owner,
            kind,
            blocked,
        })
    }

    fn inclusion(&mut self) -> Result<ScriptInclusion, String> {
        self.struct_header(3, "ScriptInclusion")?;
        self.key("url")?;
        let url = self.string()?;
        self.key("domain")?;
        let domain = self.opt_string()?;
        self.key("direct")?;
        let direct = self.bool_val()?;
        Ok(ScriptInclusion {
            url,
            domain,
            direct,
        })
    }

    fn visit_log(&mut self) -> Result<VisitLog, String> {
        self.struct_header(9, "VisitLog")?;
        self.key("site_domain")?;
        let site_domain = self.string()?;
        self.key("rank")?;
        let rank = self.u64_val()? as usize;
        self.key("complete")?;
        let complete = self.bool_val()?;
        self.key("sets")?;
        let sets = self.seq(Dec::set_event)?;
        self.key("reads")?;
        let reads = self.seq(Dec::read_event)?;
        self.key("requests")?;
        let requests = self.seq(Dec::request_event)?;
        self.key("probes")?;
        let probes = self.seq(Dec::probe_event)?;
        self.key("dom_events")?;
        let dom_events = self.seq(Dec::dom_event)?;
        self.key("inclusions")?;
        let inclusions = self.seq(Dec::inclusion)?;
        Ok(VisitLog {
            site_domain,
            rank,
            complete,
            sets,
            reads,
            requests,
            probes,
            dom_events,
            inclusions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_instrument::VisitLog;

    fn roundtrip(c: &Content) -> Content {
        let mut buf = Vec::new();
        encode_content(c, &mut buf);
        decode_content(&buf).expect("decode")
    }

    #[test]
    fn scalar_roundtrips_are_exact() {
        for c in [
            Content::Null,
            Content::Bool(true),
            Content::Bool(false),
            Content::I64(0),
            Content::I64(-1),
            Content::I64(i64::MIN),
            Content::I64(i64::MAX),
            Content::U64(0),
            Content::U64(u64::MAX),
            Content::F64(0.25),
            Content::F64(-0.0),
            Content::F64(f64::MAX),
            Content::Str(String::new()),
            Content::Str("cookie=\u{1F36A}; path=/".into()),
        ] {
            let back = roundtrip(&c);
            // Compare through Debug: Content has no PartialEq, and
            // Debug is exact for every variant (including -0.0).
            assert_eq!(format!("{back:?}"), format!("{c:?}"));
        }
    }

    #[test]
    fn visit_log_payload_reprints_identically() {
        let log = VisitLog {
            site_domain: "site42.example".into(),
            rank: 42,
            complete: true,
            ..VisitLog::default()
        };
        let back = VisitLog::from_content(&roundtrip(&log.to_content())).unwrap();
        // The decoded record must reprint to the exact JSON line of the
        // record that was written — the export's equivalence oracle.
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&log).unwrap()
        );
    }

    #[test]
    fn specialized_decoder_matches_generic_path_on_real_visits() {
        use cg_browser::{crawl_range, VisitConfig};
        use cg_webgen::{GenConfig, WebGenerator};
        let gen = WebGenerator::new(GenConfig::small(24), 0xC00C1E);
        let (outcomes, _) = crawl_range(&gen, &VisitConfig::regular(), 1, 24, 2);
        let mut complete = 0usize;
        for outcome in outcomes {
            let mut payload = Vec::new();
            encode_content(&outcome.log.to_content(), &mut payload);
            let generic =
                VisitLog::from_content(&decode_content(&payload).expect("generic decode"))
                    .expect("from_content");
            let fast = decode_visit_log(&payload).expect("specialized decode");
            assert_eq!(
                serde_json::to_string(&fast).unwrap(),
                serde_json::to_string(&generic).unwrap()
            );
            complete += usize::from(outcome.log.complete);
        }
        assert!(complete > 0, "want at least one complete (event-rich) log");
    }

    #[test]
    fn specialized_decoder_refuses_truncation_and_trailing_bytes() {
        let log = VisitLog {
            site_domain: "site7.example".into(),
            rank: 7,
            complete: false,
            ..VisitLog::default()
        };
        let mut payload = Vec::new();
        encode_content(&log.to_content(), &mut payload);
        assert!(decode_visit_log(&payload).is_ok());
        assert!(decode_visit_log(&payload[..payload.len() - 1]).is_err());
        let mut trailing = payload.clone();
        trailing.push(TAG_NULL);
        assert!(decode_visit_log(&trailing).is_err());
        // A payload that is valid Content but not a VisitLog.
        let mut not_a_log = Vec::new();
        encode_content(&Content::Str("hello".into()), &mut not_a_log);
        assert!(decode_visit_log(&not_a_log).is_err());
    }

    #[test]
    fn truncated_and_trailing_payloads_are_refused() {
        let mut buf = Vec::new();
        encode_content(&Content::Str("hello".into()), &mut buf);
        assert!(decode_content(&buf[..buf.len() - 1]).is_err(), "truncated");
        buf.push(TAG_NULL);
        assert!(decode_content(&buf).is_err(), "trailing bytes");
        assert!(decode_content(&[99]).is_err(), "unknown tag");
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
            "\"binary\""
        );
        let back: SegmentFormat = serde_json::from_str("\"binary\"").unwrap();
        assert_eq!(back, SegmentFormat::Binary);
        for retired in ["\"jsonl\"", "\"cbor\"", "null"] {
            assert!(serde_json::from_str::<SegmentFormat>(retired).is_err());
        }
    }
}
