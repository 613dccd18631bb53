//! From-scratch MD5, SHA-1 and Base64 implementations, and the
//! encoded-form matcher the exfiltration detectors build on them.
//!
//! The paper's exfiltration-detection pipeline (§4.4) computes three encoded
//! forms of every candidate identifier extracted from a cookie value —
//! Base64, MD5 and SHA-1 — and searches outbound request URLs for any of
//! them. Matching real tracker behaviour requires byte-identical digests, so
//! these are complete implementations of the real algorithms (RFC 1321,
//! RFC 3174, RFC 4648), validated against the official test vectors.
//!
//! **Kernels.** MD5 and SHA-1 compress each block with every step
//! written out (constant message indices and rotations, the state in
//! registers) and pad on the stack; the hex digests are written into
//! stack buffers. The per-step loops they replaced are kept in the
//! tests as oracles, and the kernels are checked against them at every
//! length across the one- and two-block padding tails and on seeded
//! random inputs.
//!
//! **Form sets.** [`FormSet`] writes every identifier's forms — itself,
//! its unpadded Base64 and the hex digests a [`DigestGate`] admits —
//! back to back into one reusable byte arena, and compiles a
//! [`FormScanner`] over that arena, which reports every identifier
//! with a form in a haystack in one left-to-right pass. Building a
//! visit's forms allocates per arena growth, not per form.
//! [`EncodedForms`] (one `String` per form) and its
//! [`EncodedForms::appears_in`] are the reference semantics the
//! scanner is tested against; no detector builds them.
//!
//! The crate also hosts FNV-1a (`fnv1a64`/`fnv1a32`) plus the
//! word-at-a-time `fnv1a32w` variant — the non-cryptographic checksum
//! the binary crawl-store frames use for torn-tail detection (word-wise
//! because frames are tens of KB and checksum verification sits on the
//! replay hot path), and [`StrIndex`], the FNV-hashed open-addressing
//! index that numbers a visit's distinct strings for the crawl-store
//! codec and the instrumentation recorder.
//!
//! **Layer:** foundation (no workspace dependencies). **Invariant:**
//! digests are byte-identical to the reference algorithms (RFC 1321 /
//! 3174 / 4648, checked against official vectors) — the exfiltration
//! detector's encoded-identifier matching depends on it. **Entry
//! points:** `md5_hex`, `sha1_hex`, `b64encode_no_pad`, `fnv1a32`,
//! `FormSet`, `FormScanner`, `DigestGate`, `StrIndex`.

pub mod base64;
pub mod fnv;
pub mod index;
pub mod md5;
mod pad;
pub mod sha1;

pub use base64::{b64decode, b64encode, b64encode_no_pad};
pub use fnv::{fnv1a32, fnv1a32w, fnv1a64};
pub use index::{StrIndex, Vacant};
pub use md5::md5_hex;
pub use sha1::sha1_hex;

/// Hex digits, lowercase.
const HEX: &[u8; 16] = b"0123456789abcdef";

/// Writes `bytes` as lowercase hex into `out`, two digits a byte.
pub(crate) fn write_hex(bytes: &[u8], out: &mut [u8]) {
    debug_assert_eq!(out.len(), 2 * bytes.len());
    for (digits, b) in out.chunks_exact_mut(2).zip(bytes) {
        digits[0] = HEX[usize::from(b >> 4)];
        digits[1] = HEX[usize::from(b & 0xf)];
    }
}

/// Hex digits [`write_hex`] wrote, as text.
pub(crate) fn hex_str(hex: &[u8]) -> &str {
    std::str::from_utf8(hex).expect("hex digits are ASCII")
}

/// All encoded forms of an identifier that the detection pipeline matches
/// against outbound URLs: the identifier itself, its Base64 encoding
/// without `=` padding (trackers strip padding in URLs, and the unpadded
/// form is a prefix of the padded one, so it matches wherever that
/// does), and its MD5/SHA-1 hex digests. A digest a [`DigestGate`] rules
/// out is not computed.
///
/// This is the reference semantics of [`FormSet`] and [`FormScanner`]:
/// one `String` per form, matched one `str::contains` at a time. The
/// detectors build their forms with [`FormSet`] instead; tests compare
/// the two.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedForms {
    /// The raw identifier.
    pub plain: String,
    /// Base64 without trailing `=` padding (common in query strings).
    pub base64_no_pad: String,
    /// Lowercase MD5 hex digest, unless the gate ruled it out.
    pub md5: Option<String>,
    /// Lowercase SHA-1 hex digest, unless the gate ruled it out.
    pub sha1: Option<String>,
}

impl EncodedForms {
    /// Computes every encoded form of `identifier`.
    pub fn of(identifier: &str) -> EncodedForms {
        EncodedForms::gated(identifier, DigestGate::ALL)
    }

    /// The forms of `identifier` that can appear in the haystacks `gate`
    /// was built from. Matching them against those haystacks reports
    /// exactly what matching [`EncodedForms::of`] would.
    pub fn gated(identifier: &str, gate: DigestGate) -> EncodedForms {
        let mut base64_no_pad = b64encode(identifier.as_bytes());
        base64_no_pad.truncate(base64_no_pad.trim_end_matches('=').len());
        EncodedForms {
            plain: identifier.to_string(),
            base64_no_pad,
            md5: gate.md5().then(|| md5_hex(identifier.as_bytes())),
            sha1: gate.sha1().then(|| sha1_hex(identifier.as_bytes())),
        }
    }

    /// True when `haystack` contains any encoded form of the identifier.
    /// The reference semantics of [`FormScanner`], which answers the
    /// same question for many identifiers in one pass.
    pub fn appears_in(&self, haystack: &str) -> bool {
        self.patterns().any(|p| haystack.contains(p))
    }

    /// The forms a haystack is searched for.
    fn patterns(&self) -> impl Iterator<Item = &str> {
        [
            Some(self.plain.as_str()),
            Some(self.base64_no_pad.as_str()),
            self.md5.as_deref(),
            self.sha1.as_deref(),
        ]
        .into_iter()
        .flatten()
    }
}

/// Hex characters in a lowercase MD5 digest.
const MD5_HEX_LEN: usize = 32;
/// Hex characters in a lowercase SHA-1 digest.
const SHA1_HEX_LEN: usize = 40;

/// Which hex digests a set of haystacks can contain.
///
/// A lowercase MD5 (SHA-1) hex digest is a run of 32 (40) `[0-9a-f]`
/// bytes, so a haystack can contain one only where such a run is. The
/// gate records the longest run over its haystacks, and
/// [`FormSet`] skips a digest no run is long enough to
/// hold: hashing is the costly part of building forms, and most
/// request URLs carry no long hex run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DigestGate {
    longest_hex_run: usize,
}

impl DigestGate {
    /// Lets every digest through.
    pub const ALL: DigestGate = DigestGate {
        longest_hex_run: usize::MAX,
    };

    /// The gate for matching against every one of `haystacks`.
    pub fn of<'h>(haystacks: impl IntoIterator<Item = &'h str>) -> DigestGate {
        let mut gate = DigestGate::default();
        for haystack in haystacks {
            gate.observe(haystack);
        }
        gate
    }

    /// Widens the gate to admit what `haystack` can contain.
    pub fn observe(&mut self, haystack: &str) {
        let mut run = 0;
        for &b in haystack.as_bytes() {
            if self.longest_hex_run >= SHA1_HEX_LEN {
                return;
            }
            run = if matches!(b, b'0'..=b'9' | b'a'..=b'f') {
                run + 1
            } else {
                0
            };
            self.longest_hex_run = self.longest_hex_run.max(run);
        }
    }

    /// Whether an MD5 hex digest can appear.
    pub fn md5(self) -> bool {
        self.longest_hex_run >= MD5_HEX_LEN
    }

    /// Whether a SHA-1 hex digest can appear.
    pub fn sha1(self) -> bool {
        self.longest_hex_run >= SHA1_HEX_LEN
    }
}

/// Every identifier's encoded forms, written back to back into one byte
/// arena and compiled into a [`FormScanner`] over it.
///
/// [`FormSet::push`] appends an identifier's forms — itself, its Base64
/// without `=` padding, and the MD5 and SHA-1 hex digests the set's
/// [`DigestGate`] admits — straight into the arena: the Base64 and the
/// hex are written there, not built as strings first. A set is reused
/// through [`FormSet::reset`], which keeps the arena's allocation. The
/// forms of an identifier are exactly [`EncodedForms::gated`]'s.
#[derive(Debug, Clone, Default)]
pub struct FormSet {
    gate: DigestGate,
    /// Every form's bytes, back to back.
    arena: Vec<u8>,
    /// Per form: where it ends in `arena` (it starts where the previous
    /// one ends) and the identifier it encodes.
    forms: Vec<(u32, u32)>,
    /// Identifiers pushed.
    identifiers: u32,
}

impl FormSet {
    /// An empty set whose digests `gate` gates.
    pub fn new(gate: DigestGate) -> FormSet {
        FormSet {
            gate,
            ..FormSet::default()
        }
    }

    /// Empties the set for identifiers gated by `gate`, keeping its
    /// allocations.
    pub fn reset(&mut self, gate: DigestGate) {
        self.gate = gate;
        self.arena.clear();
        self.forms.clear();
        self.identifiers = 0;
    }

    /// True when no identifier was pushed.
    pub fn is_empty(&self) -> bool {
        self.identifiers == 0
    }

    /// Adds `identifier`'s forms; returns the index scans report it by
    /// (identifiers are numbered in push order, repeats included).
    pub fn push(&mut self, identifier: &str) -> usize {
        let id = self.identifiers;
        self.identifiers = id.checked_add(1).expect("fewer than 2^32 identifiers");
        let data = identifier.as_bytes();
        self.arena
            .reserve(data.len() + data.len().div_ceil(3) * 4 + MD5_HEX_LEN + SHA1_HEX_LEN);
        self.arena.extend_from_slice(data);
        self.end_form(id);
        base64::encode_into(data, false, &mut self.arena);
        self.end_form(id);
        if self.gate.md5() {
            self.push_hex(&md5::md5(data), id);
        }
        if self.gate.sha1() {
            self.push_hex(&sha1::sha1(data), id);
        }
        id as usize
    }

    fn push_hex(&mut self, digest: &[u8], id: u32) {
        let at = self.arena.len();
        self.arena.resize(at + 2 * digest.len(), 0);
        write_hex(digest, &mut self.arena[at..]);
        self.end_form(id);
    }

    /// Closes the form that ends at the arena's end.
    fn end_form(&mut self, id: u32) {
        let end = u32::try_from(self.arena.len()).expect("a set's forms fit in 4 GiB");
        self.forms.push((end, id));
    }

    /// Every form's bytes with the identifier it encodes, in push order.
    fn texts(&self) -> impl Iterator<Item = (&[u8], u32)> + '_ {
        let mut start = 0;
        self.forms.iter().map(move |&(end, id)| {
            let text = &self.arena[start..end as usize];
            start = end as usize;
            (text, id)
        })
    }

    /// Compiles the set for matching; hits are reported by identifier
    /// index.
    pub fn scanner(&self) -> FormScanner<'_> {
        let mut patterns = Vec::with_capacity(self.forms.len());
        let mut short = Vec::new();
        for (text, form) in self.texts() {
            match window(text, 0) {
                Some(prefix) => patterns.push(Pattern {
                    prefix,
                    text,
                    form,
                    next: u32::MAX,
                }),
                None => short.push((text, form)),
            }
        }
        let bits = (patterns.len() * 4)
            .next_power_of_two()
            .max(16)
            .trailing_zeros();
        let shift = 64 - bits;
        let mut slots = vec![u32::MAX; 1 << bits];
        for (i, p) in patterns.iter_mut().enumerate() {
            let slot = &mut slots[slot_of(p.prefix, shift)];
            p.next = *slot;
            *slot = i as u32;
        }
        FormScanner {
            patterns,
            slots,
            shift,
            short,
        }
    }
}

/// Bytes of a pattern's prefix the scanner hashes on.
const PREFIX: usize = 8;

/// One searched-for form: its first [`PREFIX`] bytes as an integer,
/// its bytes in the [`FormSet`]'s arena, the identifier it belongs to,
/// and the next pattern in its hash slot (`u32::MAX` ends the chain).
#[derive(Debug)]
struct Pattern<'f> {
    prefix: u64,
    text: &'f [u8],
    form: u32,
    next: u32,
}

/// A [`FormSet`] compiled for matching a haystack against all of its
/// identifiers in one left-to-right pass.
///
/// Calling [`EncodedForms::appears_in`] for `n` identifiers reads the
/// haystack `4n` times. The scanner instead reads each 8-byte window
/// once, looks it up in a hash table of every pattern's first 8 bytes,
/// and confirms a hit with `starts_with`. Every form the detectors
/// build is at least 8 bytes (identifier segments are, and so are their
/// encodings); a shorter pattern falls back to a substring search, so
/// the reported set equals `appears_in`'s for any input.
#[derive(Debug)]
pub struct FormScanner<'f> {
    patterns: Vec<Pattern<'f>>,
    /// Head of each slot's chain (`u32::MAX` = empty); power-of-two
    /// length, at most a quarter full.
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: multiplicative hashing keeps the top
    /// bits.
    shift: u32,
    /// Patterns shorter than [`PREFIX`], with their identifier index.
    short: Vec<(&'f [u8], u32)>,
}

impl FormScanner<'_> {
    /// Replaces `hits` with the index of every identifier with a form
    /// in `haystack`, ascending and without repeats: exactly the
    /// identifiers whose [`EncodedForms::appears_in`] is true.
    pub fn scan(&self, haystack: &str, hits: &mut Vec<usize>) {
        hits.clear();
        let bytes = haystack.as_bytes();
        if !self.patterns.is_empty() {
            let mut at = 0;
            while let Some(w) = window(bytes, at) {
                let mut i = self.slots[slot_of(w, self.shift)];
                while let Some(p) = self.patterns.get(i as usize) {
                    if p.prefix == w && bytes[at..].starts_with(p.text) {
                        hits.push(p.form as usize);
                    }
                    i = p.next;
                }
                at += 1;
            }
        }
        for &(text, form) in &self.short {
            if text.is_empty() || bytes.windows(text.len()).any(|w| w == text) {
                hits.push(form as usize);
            }
        }
        hits.sort_unstable();
        hits.dedup();
    }
}

/// The [`PREFIX`] bytes at `at` as an integer, if that many remain.
fn window(bytes: &[u8], at: usize) -> Option<u64> {
    let w = bytes.get(at..at + PREFIX)?;
    Some(u64::from_le_bytes(w.try_into().expect("PREFIX bytes")))
}

fn slot_of(prefix: u64, shift: u32) -> usize {
    (prefix.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> shift) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forms_cover_all_encodings() {
        let f = EncodedForms::of("444332364");
        assert!(f.appears_in("https://x.com/?ga=444332364"));
        assert!(f.appears_in(&format!("https://x.com/?b={}", b64encode(b"444332364"))));
        assert!(f.appears_in(&format!("https://x.com/?m={}", md5_hex(b"444332364"))));
        assert!(f.appears_in(&format!("https://x.com/?s={}", sha1_hex(b"444332364"))));
        assert!(!f.appears_in("https://x.com/?ga=nothing"));
    }

    #[test]
    fn the_gate_admits_a_digest_only_where_a_hex_run_can_hold_it() {
        let run = |n: usize| format!("https://x.com/?h={}&z", "0a".repeat(n).split_at(n).0);
        for (n, md5, sha1) in [
            (31, false, false),
            (32, true, false),
            (39, true, false),
            (40, true, true),
        ] {
            let gate = DigestGate::of([run(n).as_str()]);
            assert_eq!((gate.md5(), gate.sha1()), (md5, sha1), "run of {n}");
        }
        // Uppercase hex cannot be a lowercase digest.
        assert!(!DigestGate::of([&*"A".repeat(64)]).md5());
        let f = EncodedForms::gated("444332364", DigestGate::default());
        assert_eq!((f.md5, f.sha1), (None, None));
        assert_eq!(f.base64_no_pad, "NDQ0MzMyMzY0");
    }

    #[test]
    fn a_form_set_holds_exactly_the_reference_forms() {
        let ids = [
            "444332364",
            "",
            "ab",
            "uid_444332364_tail",
            "é€𝄞 wide",
            "0123456789abcdef",
        ];
        let gates = [
            DigestGate::default(),
            DigestGate::of([&*"0a".repeat(16)]),
            DigestGate::ALL,
        ];
        let mut set = FormSet::default();
        for gate in gates {
            set.reset(gate);
            for (i, id) in ids.iter().enumerate() {
                assert_eq!(set.push(id), i);
            }
            for (i, id) in ids.iter().enumerate() {
                let got: Vec<&[u8]> = set
                    .texts()
                    .filter(|&(_, form)| form as usize == i)
                    .map(|(text, _)| text)
                    .collect();
                let reference = EncodedForms::gated(id, gate);
                let want: Vec<&[u8]> = reference.patterns().map(str::as_bytes).collect();
                assert_eq!(got, want, "{id:?} under {gate:?}");
            }
        }
    }

    #[test]
    fn paper_linkedin_example_base64() {
        // §5.4 case study: the _ga segment 444332364 encodes to NDQ0MzMyMzY0.
        assert_eq!(b64encode(b"444332364"), "NDQ0MzMyMzY0");
    }
}
