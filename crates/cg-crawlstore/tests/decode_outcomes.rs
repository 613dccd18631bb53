//! Pins every outcome of `decode_visit_log` on damaged real payloads.
//!
//! The payloads are the encoded visits of a real measurement crawl. Each
//! is decoded whole, cut at every length short of whole, and changed at
//! a seeded set of single bytes (each chosen byte once with its low bit
//! flipped, once one higher and once random). Every outcome is hashed:
//! a decoded log as its export line (`serde_json::to_string`, what
//! `cg-experiments export --jsonl` prints), a refusal as its message.
//! The SHA-1 of those hashes, in order, is pinned, so a rewrite of the
//! decoder that accepts, refuses or words anything differently on any of
//! these inputs fails here. A second test checks that the inputs reach
//! each of the decoder's refusals, the duplicate-entry check among them,
//! so the pin covers them.

use cg_browser::{crawl_range, VisitConfig};
use cg_crawlstore::codec::{decode_visit_log, encode_visit_log};
use cg_webgen::{GenConfig, WebGenerator};
use std::sync::OnceLock;

/// Ranks `1..=RANKS` of `GenConfig::small(2000)` at seed 7, crawled as
/// the measurement crawl (unguarded, CNAMEs resolved).
const RANKS: usize = 10;

/// Single-byte positions changed per payload.
const POSITIONS: usize = 300;

/// SHA-1 over the hex SHA-1 of every outcome, in the order
/// [`outcomes`] produces them.
const PINNED: &str = "ab5819b399c3a67991c369bd272ae48f80ea96fb";

fn payloads() -> &'static [Vec<u8>] {
    static PAYLOADS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    PAYLOADS.get_or_init(|| {
        let gen = WebGenerator::new(GenConfig::small(2000), 7);
        let cfg = VisitConfig {
            resolve_cnames: true,
            ..VisitConfig::regular()
        };
        let (outcomes, _) = crawl_range(&gen, &cfg, 1, RANKS, 1);
        outcomes
            .iter()
            .map(|o| {
                let mut payload = Vec::new();
                encode_visit_log(&o.log, &mut payload);
                payload
            })
            .collect()
    })
}

/// SplitMix64: a seeded stream of positions and byte values.
struct Seeded(u64);

impl Seeded {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Calls `f` on every input the pin covers, in a fixed order: per
/// payload, the payload itself, every truncation, then the single-byte
/// changes.
fn inputs(mut f: impl FnMut(&[u8])) {
    let mut rng = Seeded(0xDEC0_DE07);
    for payload in payloads() {
        f(payload);
        for cut in 0..payload.len() {
            f(&payload[..cut]);
        }
        let mut changed = payload.clone();
        for _ in 0..POSITIONS {
            let at = (rng.next() % payload.len() as u64) as usize;
            let original = payload[at];
            let random = rng.next() as u8;
            for byte in [original ^ 1, original.wrapping_add(1), random] {
                if byte != original {
                    changed[at] = byte;
                    f(&changed);
                }
            }
            changed[at] = original;
        }
    }
}

/// Every outcome's text: the export line of a decoded log, or the
/// message of a refusal (marked so the two cannot collide).
fn outcomes(mut f: impl FnMut(&str)) {
    inputs(|bytes| match decode_visit_log(bytes) {
        Ok(log) => f(&serde_json::to_string(&log).expect("a decoded log serializes")),
        Err(message) => f(&format!("error: {message}")),
    });
}

#[test]
fn decode_outcomes_match_their_pinned_digest() {
    let mut digests = String::new();
    let mut count = 0;
    outcomes(|text| {
        digests.push_str(&cg_hash::sha1_hex(text.as_bytes()));
        count += 1;
    });
    let digest = cg_hash::sha1_hex(digests.as_bytes());
    assert_eq!(
        digest, PINNED,
        "the decoder's outcomes on {count} inputs changed"
    );
}

#[test]
fn the_damaged_inputs_reach_every_refusal_the_pin_covers() {
    let mut seen = [0usize; 7];
    let kinds = [
        "payload truncated at byte",
        "duplicate string table entry",
        "invalid UTF-8 in string table entry",
        "flag byte",
        "out of range",
        "skips unused entry",
        "trailing bytes after the visit log",
    ];
    let mut decoded = 0;
    outcomes(|text| match text.strip_prefix("error: ") {
        Some(message) => {
            if let Some(k) = kinds.iter().position(|k| message.contains(k)) {
                seen[k] += 1;
            }
        }
        None => decoded += 1,
    });
    for (kind, n) in kinds.iter().zip(seen) {
        assert!(n > 0, "no input was refused with {kind:?}");
    }
    assert!(decoded > RANKS, "some changed payloads still decode");
}
