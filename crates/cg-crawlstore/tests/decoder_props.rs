//! Property tests for every decoder of on-disk bytes: frames, visit
//! payloads, index sidecars and manifests. Arbitrary and bit-flipped
//! input must yield an error or a value — never a panic — and a decoded
//! frame never extends past the window it was decoded from. Malformed
//! format-v2 payloads must be errors, and no payload may make the
//! decoder allocate more than [`codec::MAX_EXPANSION`] bytes per
//! payload byte (measured by [`cg_telemetry::alloc::Counting`], this
//! binary's global allocator).

use cg_browser::{crawl_range, VisitConfig};
use cg_crawlstore::codec::{self, FRAME_HEADER};
use cg_crawlstore::index::{decode_index, encode_index, IndexEntry, INDEX_STRIDE};
use cg_crawlstore::{decode_frame, Fingerprint, Manifest, SegmentFormat, MANIFEST_FILE};
use cg_instrument::VisitLog;
use cg_telemetry::alloc::{peak_bytes, Counting};
use cg_webgen::{GenConfig, WebGenerator};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

#[global_allocator]
static ALLOC: Counting = Counting;

/// Heap bytes an error message may add beyond the decoder's budget.
const MESSAGE_SLACK: usize = 1024;

/// Decodes `payload`, asserting the decode's peak heap stays within
/// [`codec::MAX_EXPANSION`] bytes per payload byte.
fn decode_bounded(payload: &[u8]) -> Result<Result<VisitLog, String>, TestCaseError> {
    let (decoded, peak) = peak_bytes(|| codec::decode_visit_log(payload));
    let bound = codec::MAX_EXPANSION * payload.len() + MESSAGE_SLACK;
    prop_assert!(
        peak <= bound,
        "decoding {} bytes peaked at {peak} heap bytes (bound {bound})",
        payload.len()
    );
    Ok(decoded)
}

/// Decodes `payload`, which must be refused with an error mentioning
/// `why`, within the allocation bound.
fn refused(payload: &[u8], why: &str) -> Result<(), TestCaseError> {
    match decode_bounded(payload)? {
        Ok(log) => Err(TestCaseError::Fail(format!(
            "decoded a malformed payload to {log:?}"
        ))),
        Err(e) => {
            prop_assert!(e.contains(why), "error {e:?} does not say {why:?}");
            Ok(())
        }
    }
}

fn varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// A format-v2 string table of `strings`, as the encoder writes it.
fn table(strings: &[&str]) -> Vec<u8> {
    let mut out = Vec::new();
    varint(&mut out, strings.len() as u64);
    for s in strings {
        varint(&mut out, s.len() as u64);
        out.extend_from_slice(s.as_bytes());
    }
    out
}

/// A hand-built payload: table `["site.example", "uid"]`, then a log of
/// rank 1 whose only event is one read by `api`, its actor presence
/// byte `presence` (a present actor is the site), returning `uid`.
fn one_read(api: u8, presence: u8) -> Vec<u8> {
    let mut p = table(&["site.example", "uid"]);
    p.extend_from_slice(&[0, 1, 1]); // site_domain, rank, complete
    p.push(0); // no sets
    p.push(1); // one read:
    p.push(presence);
    if presence == 1 {
        p.push(0); // actor: the site
    }
    p.extend_from_slice(&[api, 1, 1, 0, 0]); // api, [uid], filtered, time
    p.extend_from_slice(&[0, 0, 0, 0]); // no requests, probes, DOM events, inclusions
    p
}

/// Encoded payloads of a few real visits (complete ones carry events).
fn payloads() -> &'static [Vec<u8>] {
    static PAYLOADS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    PAYLOADS.get_or_init(|| {
        let gen = WebGenerator::new(GenConfig::small(6), 0xC00C1E);
        let (outcomes, _) = crawl_range(&gen, &VisitConfig::regular(), 1, 6, 1);
        outcomes
            .iter()
            .map(|o| {
                let mut payload = Vec::new();
                codec::encode_visit_log(&o.log, &mut payload);
                payload
            })
            .collect()
    })
}

/// Those visits as one run of frames, the way a segment holds them.
fn window() -> Vec<u8> {
    let mut out = Vec::new();
    for (rank, payload) in payloads().iter().enumerate() {
        codec::write_frame(&mut out, rank as u64 + 1, payload);
    }
    out
}

/// Flips bit `bit` of byte `at % len` for every (at, bit) pair.
fn flip(mut bytes: Vec<u8>, flips: &[(usize, u8)]) -> Vec<u8> {
    let len = bytes.len();
    for &(at, bit) in flips {
        bytes[at % len] ^= 1 << bit;
    }
    bytes
}

/// Decodes frames from `pos` until the window runs out or a frame
/// fails, asserting each decoded frame lies inside the window.
fn walk(window: &[u8], mut pos: usize) -> Result<(), TestCaseError> {
    while let Ok(Some((_, _, total))) = decode_frame(window, pos) {
        prop_assert!(total >= FRAME_HEADER);
        prop_assert!(pos + total <= window.len(), "frame past its window");
        pos += total;
    }
    Ok(())
}

fn bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..=255, 0..max)
}

fn flips() -> impl Strategy<Value = Vec<(usize, u8)>> {
    prop::collection::vec((0usize..1 << 20, 0u8..8), 1..4)
}

proptest! {
    #[test]
    fn decode_frame_never_panics_on_arbitrary_bytes(b in bytes(96), pos in 0usize..128) {
        walk(&b, pos)?;
    }

    #[test]
    fn decode_frame_refuses_checksummed_garbage(b in bytes(256), rank in any::<u64>()) {
        // A valid frame around an arbitrary payload: the checksum holds,
        // so the payload decoder itself must refuse it or decode it.
        let mut frame = Vec::new();
        codec::write_frame(&mut frame, rank, &b);
        walk(&frame, 0)?;
    }

    #[test]
    fn decode_frame_survives_bit_flips(f in flips(), pos in 0usize..64) {
        let window = flip(window(), &f);
        walk(&window, 0)?;
        walk(&window, pos)?;
    }

    #[test]
    fn decode_frame_survives_truncation(cut in 0usize..1 << 20) {
        let mut window = window();
        window.truncate(cut % (window.len() + 1));
        walk(&window, 0)?;
    }

    #[test]
    fn decode_visit_log_never_panics(b in bytes(256)) {
        let _ = decode_bounded(&b)?;
    }

    #[test]
    fn decode_visit_log_survives_bit_flips(which in 0usize..6, f in flips()) {
        let payloads = payloads();
        let payload = flip(payloads[which % payloads.len()].clone(), &f);
        // Whatever still decodes is canonical: it re-encodes to the
        // very bytes it came from.
        if let Ok(log) = decode_bounded(&payload)? {
            let mut again = Vec::new();
            codec::encode_visit_log(&log, &mut again);
            prop_assert!(again == payload, "accepted a non-canonical payload");
        }
    }

    #[test]
    fn decode_visit_log_refuses_every_truncation(which in 0usize..6, cut in 0usize..1 << 20) {
        let payloads = payloads();
        let payload = &payloads[which % payloads.len()];
        let cut = cut % payload.len();
        prop_assert!(decode_bounded(&payload[..cut])?.is_err());
    }

    #[test]
    fn decode_visit_log_refuses_trailing_bytes(which in 0usize..6, tail in prop::collection::vec(0u8..=255, 1..16)) {
        let payloads = payloads();
        let mut payload = payloads[which % payloads.len()].clone();
        payload.extend_from_slice(&tail);
        refused(&payload, "trailing bytes")?;
    }

    #[test]
    fn out_of_range_string_index_is_an_error(n in 1usize..20, past in 0u64..1 << 40) {
        let names: Vec<String> = (0..n).map(|i| format!("s{i}")).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut p = table(&names);
        varint(&mut p, n as u64 + past); // site_domain
        p.extend_from_slice(&[1, 1, 0, 0, 0, 0, 0, 0]);
        refused(&p, "out of range")?;
    }

    #[test]
    fn string_table_past_the_frame_is_an_error(count in 1u64..u64::MAX, len in 4u64..1 << 40, at in 0usize..3) {
        // A count no frame this size can hold, or an entry (first,
        // middle or last) whose length runs past the end.
        let mut p = Vec::new();
        varint(&mut p, count);
        refused(&p, "declared")?;
        let mut p = table(&["a", "b", "c"]);
        let mut long = Vec::new();
        varint(&mut long, len);
        let entry = 1 + 2 * at; // offset of entry `at`'s length byte
        p.splice(entry..entry + 1, long);
        refused(&p, "truncated")?;
    }

    #[test]
    fn duplicate_string_table_entries_are_an_error(s in "[a-z_]{0,12}", other in "[A-Z]{1,4}", first in any::<bool>()) {
        let strings = if first { [s.as_str(), s.as_str(), &other] } else { [&other, s.as_str(), s.as_str()] };
        let mut p = table(&strings);
        p.extend_from_slice(&[0, 1, 1, 0, 0, 0, 0, 0, 3]); // three inclusions
        for i in 0..3 {
            p.extend_from_slice(&[i, 0, 1]);
        }
        refused(&p, "duplicate")?;
    }

    #[test]
    fn unknown_enum_and_presence_bytes_are_errors(api in 0u8..=255, presence in 0u8..=255) {
        match (api, presence) {
            (0..=2, 0..=1) => prop_assert!(decode_bounded(&one_read(api, presence))?.is_ok()),
            (0..=2, _) => refused(&one_read(api, presence), "flag byte")?,
            (_, 0..=1) => refused(&one_read(api, presence), "unknown CookieApi")?,
            _ => prop_assert!(decode_bounded(&one_read(api, presence))?.is_err()),
        }
    }

    #[test]
    fn decode_index_never_panics(b in bytes(96)) {
        let _ = decode_index(&b);
    }

    #[test]
    fn decode_index_survives_checksummed_garbage(stride in any::<u32>(), count in any::<u32>(), body in bytes(64)) {
        // Header fields and body chosen freely, checksum made to match:
        // only the structural checks stand between this and a value.
        let mut b = Vec::new();
        b.extend_from_slice(b"CGIX");
        b.extend_from_slice(&1u32.to_le_bytes());
        b.extend_from_slice(&stride.to_le_bytes());
        b.extend_from_slice(&count.to_le_bytes());
        b.extend_from_slice(&body);
        let prefix = (u64::from(stride) << 32) | u64::from(count);
        b.extend_from_slice(&cg_hash::fnv1a32w(prefix, &body).to_le_bytes());
        if let Ok(idx) = decode_index(&b) {
            prop_assert!(idx.entries.len() <= body.len() / 2);
        }
    }

    #[test]
    fn decode_index_survives_bit_flips(f in flips(), n in 0u64..40) {
        let entries: Vec<IndexEntry> = (0..n)
            .map(|i| IndexEntry { rank: 1 + i * 32, offset: i * 40_000 })
            .collect();
        let _ = decode_index(&flip(encode_index(INDEX_STRIDE, &entries), &f));
    }

    #[test]
    fn manifest_load_never_panics(b in bytes(96)) {
        let dir = manifest_dir("arbitrary");
        std::fs::write(dir.join(MANIFEST_FILE), &b).unwrap();
        let _ = Manifest::load(&dir);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_load_survives_bit_flips(f in flips()) {
        let dir = manifest_dir("flipped");
        let mut m = Manifest::new(Fingerprint {
            master_seed: 7,
            from: 1,
            to: 100,
            visit_config: "cfg".into(),
            generator: "gen".into(),
            format: SegmentFormat::Binary,
        });
        m.segment_mut("seg-0.bin").synced_records = 40;
        m.store(&dir).unwrap();
        let good = std::fs::read(dir.join(MANIFEST_FILE)).unwrap();
        std::fs::write(dir.join(MANIFEST_FILE), flip(good, &f)).unwrap();
        let _ = Manifest::load(&dir);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A fresh scratch store directory for one case of a property.
fn manifest_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cg-props-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A frame that checksums but whose header rank differs from its
/// payload's is refused: readers order on one and merge on the other.
#[test]
fn decode_frame_refuses_a_header_rank_its_payload_disagrees_with() {
    let mut frame = Vec::new();
    codec::write_frame(&mut frame, 2, &payloads()[0]);
    assert!(decode_frame(&frame, 0).is_err());
    let mut frame = Vec::new();
    codec::write_frame(&mut frame, 1, &payloads()[0]);
    assert!(matches!(decode_frame(&frame, 0), Ok(Some((1, _, _)))));
}

/// A manifest nested far deeper than any real one (the parser refuses
/// JSON beyond 128 levels) loads as `Corrupt` instead of overflowing the
/// stack and aborting the process.
#[test]
fn deeply_nested_manifest_is_corrupt_not_a_stack_overflow() {
    let dir = manifest_dir("nested");
    let depth = 100_000;
    let text = format!(
        r#"{{"fingerprint":{}{}}}"#,
        "[".repeat(depth),
        "]".repeat(depth)
    );
    std::fs::write(dir.join(MANIFEST_FILE), text).unwrap();
    let loaded = Manifest::load(&dir);
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(
        matches!(loaded, Err(cg_crawlstore::StoreError::Corrupt { .. })),
        "{loaded:?}"
    );
}

/// A long string referenced from every event decodes once, into the
/// log's string table, so repeating it cannot amplify a frame: 10,000
/// references to 4 KiB decode within the allocation bound, every one
/// the same symbol.
#[test]
fn repeated_long_strings_decode_once() {
    let long = "x".repeat(4096);
    let mut p = table(&[&long]);
    p.extend_from_slice(&[0, 1, 1, 0, 0, 0, 0, 0]);
    let n = 10_000u64;
    varint(&mut p, n);
    for _ in 0..n {
        p.extend_from_slice(&[0, 0, 1]); // url, no domain, direct
    }
    let log = decode_bounded(&p).unwrap().unwrap();
    assert_eq!(log.strings.len(), 1);
    assert_eq!(log.inclusions.len(), n as usize);
    assert!(log.inclusions.iter().all(|i| i.url == 0));
    assert_eq!(log.str(log.inclusions[9_999].url), long);
}

/// A read name decodes once, into the log's string table, however
/// many reads return it; every read's range of the flat name list holds
/// that entry's symbol.
#[test]
fn repeated_read_names_share_their_entry() {
    let mut p = table(&["site.example", "uid"]);
    p.extend_from_slice(&[0, 1, 1, 0]);
    p.push(3);
    for _ in 0..3 {
        p.extend_from_slice(&[0, 0, 2, 1, 1, 0, 0]); // [uid, uid]
    }
    p.extend_from_slice(&[0, 0, 0, 0]);
    let log = codec::decode_visit_log(&p).unwrap();
    assert_eq!(
        log.strings.iter().collect::<Vec<_>>(),
        ["site.example", "uid"]
    );
    assert_eq!(log.read_names, [1; 6]);
    for (i, read) in log.reads.iter().enumerate() {
        assert_eq!(read.names, 2 * i as u32..2 * i as u32 + 2);
    }
    assert_eq!(
        log.names_of(&log.reads[2]).collect::<Vec<_>>(),
        ["uid", "uid"]
    );
}
