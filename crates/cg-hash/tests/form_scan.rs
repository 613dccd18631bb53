//! Differential test of the one-pass matcher: for random URLs carrying
//! zero to three embedded encoded identifiers, the [`FormScanner`] of a
//! [`FormSet`] reports exactly the identifiers whose
//! [`EncodedForms::appears_in`] (the reference semantics) is true.
//!
//! The generated cases cover what a prefix-table scan could get wrong:
//! identifiers that nest inside each other, forms that overlap in the
//! URL, a form that ends exactly at the URL's last byte, near misses
//! that share a form's first 8 bytes, and repeated identifiers.
//!
//! A second property covers digest gating: a set built under the
//! [`DigestGate`] of the URLs it is matched against reports exactly
//! what the ungated reference forms report, around the 32- and
//! 40-character hex-run thresholds.

use cg_hash::{b64encode, md5_hex, sha1_hex, DigestGate, EncodedForms, FormScanner, FormSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIGITS: &[u8] = b"0123456789";
const HEX: &[u8] = b"0123456789abcdef";
const ALNUM: &[u8] = b"0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
/// URL filler: alphanumerics plus the delimiters real query strings use.
const FILLER: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789ABCDEF=&?/._-%+";

fn pick(rng: &mut StdRng, alphabet: &[u8], len: usize) -> String {
    (0..len)
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())] as char)
        .collect()
}

/// An identifier of at least 8 bytes: decimal, hex or alphanumeric.
fn identifier(rng: &mut StdRng) -> String {
    let len = rng.gen_range(8..25);
    match rng.gen_range(0..3) {
        0 => pick(rng, DIGITS, len),
        1 => pick(rng, HEX, len),
        _ => pick(rng, ALNUM, len),
    }
}

/// 1–6 identifiers, some derived from earlier ones so that forms nest
/// (a substring of another id) or chain (an id that starts with the
/// tail of another, so their embeddings can overlap).
fn identifiers(rng: &mut StdRng) -> Vec<String> {
    let mut ids: Vec<String> = Vec::new();
    for _ in 0..rng.gen_range(1..7) {
        let id = match (ids.last(), rng.gen_range(0..4)) {
            (Some(prev), 0) if prev.len() > 8 => {
                let start = rng.gen_range(0..prev.len() - 8);
                prev[start..start + rng.gen_range(8..=prev.len() - start)].to_string()
            }
            (Some(prev), 1) => {
                let tail = rng.gen_range(1..8usize);
                format!("{}{}", &prev[prev.len() - tail..], identifier(rng))
            }
            (Some(prev), 2) => prev.clone(),
            _ => identifier(rng),
        };
        ids.push(id);
    }
    ids
}

/// One encoding of `id` as a tracker would put it in a URL.
fn encoding(rng: &mut StdRng, id: &str) -> String {
    match rng.gen_range(0..5) {
        0 => id.to_string(),
        1 => b64encode(id.as_bytes()),
        2 => b64encode(id.as_bytes()).trim_end_matches('=').to_string(),
        3 => md5_hex(id.as_bytes()),
        _ => sha1_hex(id.as_bytes()),
    }
}

/// A URL of random filler with 0–3 embedded forms, sometimes overlapping
/// the previous embedding, sometimes truncated to a near miss, and
/// sometimes ending the URL.
fn url(rng: &mut StdRng, ids: &[String]) -> String {
    let mut url = format!("https://{}.example/p?", pick(rng, HEX, 6));
    for _ in 0..rng.gen_range(0..4) {
        let filler = rng.gen_range(0..12);
        url.push_str(&pick(rng, FILLER, filler));
        let id = &ids[rng.gen_range(0..ids.len())];
        let mut form = encoding(rng, id);
        if rng.gen_bool(0.2) {
            // Near miss: keep the first 8 bytes, drop the last one.
            form.pop();
        }
        if rng.gen_bool(0.3) && !url.is_empty() {
            // Overlap: let the form start inside the previous bytes when
            // they agree, by trimming the common part off the URL.
            let k = (1..form.len().min(url.len()))
                .rev()
                .find(|&k| url.ends_with(&form[..k]))
                .unwrap_or(0);
            url.truncate(url.len() - k);
        }
        url.push_str(&form);
    }
    if rng.gen_bool(0.5) {
        let filler = rng.gen_range(0..6);
        url.push_str(&pick(rng, FILLER, filler));
    }
    url
}

/// The set of `ids` under `gate`, pushed in order.
fn form_set(ids: &[&str], gate: DigestGate) -> FormSet {
    let mut set = FormSet::new(gate);
    for id in ids {
        set.push(id);
    }
    set
}

fn oracle(forms: &[EncodedForms], haystack: &str) -> Vec<usize> {
    (0..forms.len())
        .filter(|&i| forms[i].appears_in(haystack))
        .collect()
}

proptest! {
    #[test]
    fn one_pass_scan_reports_exactly_what_appears_in_reports(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ids = identifiers(&mut rng);
        let forms: Vec<EncodedForms> = ids.iter().map(|id| EncodedForms::of(id)).collect();
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        let set = form_set(&refs, DigestGate::ALL);
        let scanner = set.scanner();
        let mut hits = Vec::new();
        for _ in 0..32 {
            let url = url(&mut rng, &ids);
            scanner.scan(&url, &mut hits);
            prop_assert_eq!(&hits, &oracle(&forms, &url), "url {} ids {:?}", url, ids);
        }
    }
}

/// A URL of filler with a hex run of 31, 32, 39 or 40 characters —
/// each threshold and one short of it — and, sometimes, one form of an
/// identifier planted plain, in Base64, or as an MD5 or SHA-1 digest.
fn gated_url(rng: &mut StdRng, ids: &[String]) -> String {
    let mut url = format!("https://{}.example/p?", pick(rng, FILLER, 5));
    let run = [31, 32, 39, 40][rng.gen_range(0..4usize)];
    let hex_run = pick(rng, HEX, run);
    let id = &ids[rng.gen_range(0..ids.len())];
    let planted = match rng.gen_range(0..6) {
        0 => id.to_string(),
        1 => b64encode(id.as_bytes()).trim_end_matches('=').to_string(),
        2 => md5_hex(id.as_bytes()),
        3 => sha1_hex(id.as_bytes()),
        _ => String::new(),
    };
    let filler = rng.gen_range(0..4);
    url.push_str(&pick(rng, FILLER, filler));
    if rng.gen_bool(0.5) {
        url.push_str(&hex_run);
        url.push('&');
        url.push_str(&planted);
    } else {
        url.push_str(&planted);
        url.push('/');
        url.push_str(&hex_run);
    }
    url
}

proptest! {
    #[test]
    fn gated_forms_report_exactly_what_ungated_forms_report(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ids = identifiers(&mut rng);
        let full: Vec<EncodedForms> = ids.iter().map(|id| EncodedForms::of(id)).collect();
        // One gate over several haystacks, as a visit's requests share one.
        let urls: Vec<String> = (0..rng.gen_range(1..5)).map(|_| gated_url(&mut rng, &ids)).collect();
        let gate = DigestGate::of(urls.iter().map(String::as_str));
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        let set = form_set(&refs, gate);
        let scanner = set.scanner();
        let mut hits = Vec::new();
        for url in &urls {
            scanner.scan(url, &mut hits);
            prop_assert_eq!(&hits, &oracle(&full, url), "url {} ids {:?}", url, ids);
        }
    }
}

#[test]
fn a_form_ending_the_url_is_found() {
    let set = form_set(&["444332364", "868308499845957651"], DigestGate::ALL);
    let scanner = set.scanner();
    let mut hits = Vec::new();
    let sha = sha1_hex(b"868308499845957651");
    scanner.scan(&format!("https://t.example/?x={sha}"), &mut hits);
    assert_eq!(hits, [1]);
    scanner.scan("444332364", &mut hits);
    assert_eq!(hits, [0], "a haystack that is exactly one form");
    scanner.scan("44433236", &mut hits);
    assert!(hits.is_empty(), "one byte short is a miss");
}

#[test]
fn short_patterns_fall_back_to_substring_search() {
    // Below the 8-byte prefix the scanner cannot hash; it must still
    // agree with `appears_in`, empty identifier included.
    let ids = ["abc", "", "xyzw1234"];
    let forms: Vec<EncodedForms> = ids.iter().map(|id| EncodedForms::of(id)).collect();
    let set = form_set(&ids, DigestGate::ALL);
    let scanner = set.scanner();
    let mut hits = Vec::new();
    for url in ["", "abc", "zzabczz", "YWJj", "xyzw1234", "xyzw123"] {
        scanner.scan(url, &mut hits);
        assert_eq!(hits, oracle(&forms, url), "url {url:?}");
    }
}

#[test]
fn no_forms_never_match() {
    let set = FormSet::new(DigestGate::ALL);
    let scanner: FormScanner = set.scanner();
    let mut hits = vec![7];
    scanner.scan("https://x.example/?id=444332364", &mut hits);
    assert!(hits.is_empty());
}
