//! Property tests for every decoder of on-disk bytes: frames, visit
//! payloads, index sidecars and manifests. Arbitrary and bit-flipped
//! input must yield an error or a value — never a panic — and a decoded
//! frame never extends past the window it was decoded from.

use cg_browser::{crawl_range, VisitConfig};
use cg_crawlstore::codec::{self, FRAME_HEADER};
use cg_crawlstore::index::{decode_index, encode_index, IndexEntry, INDEX_STRIDE};
use cg_crawlstore::{decode_frame, Fingerprint, Manifest, SegmentFormat, MANIFEST_FILE};
use cg_webgen::{GenConfig, WebGenerator};
use proptest::prelude::*;
use serde::Serialize as _;
use std::path::PathBuf;
use std::sync::OnceLock;

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
                codec::encode_content(&o.log.to_content(), &mut payload);
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
        let _ = codec::decode_visit_log(&b);
        let _ = codec::decode_content(&b);
    }

    #[test]
    fn decode_visit_log_survives_bit_flips(which in 0usize..6, f in flips()) {
        let payloads = payloads();
        let payload = flip(payloads[which % payloads.len()].clone(), &f);
        let _ = codec::decode_visit_log(&payload);
        let _ = codec::decode_content(&payload);
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
