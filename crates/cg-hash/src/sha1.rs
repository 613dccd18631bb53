//! SHA-1 (RFC 3174 / FIPS 180-1).
//!
//! The 80 rounds are written out in groups of five, renaming the state
//! words instead of shifting them, and the message schedule is a
//! 16-word ring computed as the rounds consume it; every index is a
//! constant, so the state stays in registers. The per-round loop over
//! an 80-word schedule that this replaced survives in the tests as the
//! reference the kernel is checked against.

/// The initial state (FIPS 180-1 §7).
const INIT: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];

const K0: u32 = 0x5A827999;
const K1: u32 = 0x6ED9EBA1;
const K2: u32 = 0x8F1BBCDC;
const K3: u32 = 0xCA62C1D6;

fn choose(b: u32, c: u32, d: u32) -> u32 {
    d ^ (b & (c ^ d))
}

fn parity(b: u32, c: u32, d: u32) -> u32 {
    b ^ c ^ d
}

fn majority(b: u32, c: u32, d: u32) -> u32 {
    (b & c) | (d & (b | c))
}

/// Schedule word `t`: a block word for the first 16 rounds, then the
/// expansion, written over the ring slot it no longer needs.
#[inline(always)]
fn word(w: &mut [u32; 16], t: usize) -> u32 {
    if t >= 16 {
        w[t & 15] =
            (w[(t - 3) & 15] ^ w[(t - 8) & 15] ^ w[(t - 14) & 15] ^ w[t & 15]).rotate_left(1);
    }
    w[t & 15]
}

/// One round with the state words in the roles `a b c d e`: the new
/// `a` lands in `e`'s variable and `b` is rotated in place, so the next
/// round names the same variables as `e a b c d`.
macro_rules! round {
    ($fun:ident, $k:expr, $w:expr, $a:ident, $b:ident, $c:ident, $d:ident, $e:ident) => {
        $e = $e
            .wrapping_add($a.rotate_left(5))
            .wrapping_add($fun($b, $c, $d))
            .wrapping_add($k)
            .wrapping_add($w);
        $b = $b.rotate_left(30);
    };
}

/// Rounds `t..t + 5`, which bring the roles back where they started.
macro_rules! five {
    ($fun:ident, $k:expr, $w:ident, $t:expr, $a:ident, $b:ident, $c:ident, $d:ident, $e:ident) => {
        round!($fun, $k, word(&mut $w, $t), $a, $b, $c, $d, $e);
        round!($fun, $k, word(&mut $w, $t + 1), $e, $a, $b, $c, $d);
        round!($fun, $k, word(&mut $w, $t + 2), $d, $e, $a, $b, $c);
        round!($fun, $k, word(&mut $w, $t + 3), $c, $d, $e, $a, $b);
        round!($fun, $k, word(&mut $w, $t + 4), $b, $c, $d, $e, $a);
    };
}

/// Absorbs one 64-byte block into `state`.
fn compress(state: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes(bytes.try_into().expect("4 bytes"));
    }
    let [mut a, mut b, mut c, mut d, mut e] = *state;
    five!(choose, K0, w, 0, a, b, c, d, e);
    five!(choose, K0, w, 5, a, b, c, d, e);
    five!(choose, K0, w, 10, a, b, c, d, e);
    five!(choose, K0, w, 15, a, b, c, d, e);
    five!(parity, K1, w, 20, a, b, c, d, e);
    five!(parity, K1, w, 25, a, b, c, d, e);
    five!(parity, K1, w, 30, a, b, c, d, e);
    five!(parity, K1, w, 35, a, b, c, d, e);
    five!(majority, K2, w, 40, a, b, c, d, e);
    five!(majority, K2, w, 45, a, b, c, d, e);
    five!(majority, K2, w, 50, a, b, c, d, e);
    five!(majority, K2, w, 55, a, b, c, d, e);
    five!(parity, K3, w, 60, a, b, c, d, e);
    five!(parity, K3, w, 65, a, b, c, d, e);
    five!(parity, K3, w, 70, a, b, c, d, e);
    five!(parity, K3, w, 75, a, b, c, d, e);
    for (s, v) in state.iter_mut().zip([a, b, c, d, e]) {
        *s = s.wrapping_add(v);
    }
}

/// Computes the SHA-1 digest of `data`.
pub fn sha1(data: &[u8]) -> [u8; 20] {
    let mut state = INIT;
    // Padding: 0x80, zeros, then the 64-bit big-endian bit length.
    let bit_len = (data.len() as u64).wrapping_mul(8);
    crate::pad::padded_blocks(data, bit_len.to_be_bytes(), |block| {
        compress(&mut state, block)
    });
    let mut out = [0u8; 20];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Lowercase hex SHA-1 digest.
pub fn sha1_hex(data: &[u8]) -> String {
    let mut hex = [0u8; 40];
    crate::write_hex(&sha1(data), &mut hex);
    crate::hex_str(&hex).to_string()
}

#[cfg(test)]
pub(crate) mod reference {
    //! The per-round loop the unrolled kernel replaced, kept as its
    //! oracle.

    use super::INIT;

    pub(crate) fn sha1(data: &[u8]) -> [u8; 20] {
        let mut h = INIT;
        let bit_len = (data.len() as u64).wrapping_mul(8);
        crate::pad::padded_blocks(data, bit_len.to_be_bytes(), |block| {
            let mut w = [0u32; 80];
            for (i, word) in block.chunks_exact(4).enumerate() {
                w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
            }
            for i in 16..80 {
                w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
            }
            let (mut a, mut b, mut c, mut d, mut e) = (h[0], h[1], h[2], h[3], h[4]);
            for (i, &wi) in w.iter().enumerate() {
                let (f, k) = match i {
                    0..=19 => ((b & c) | (!b & d), 0x5A827999u32),
                    20..=39 => (b ^ c ^ d, 0x6ED9EBA1),
                    40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1BBCDC),
                    _ => (b ^ c ^ d, 0xCA62C1D6),
                };
                let temp = a
                    .rotate_left(5)
                    .wrapping_add(f)
                    .wrapping_add(e)
                    .wrapping_add(k)
                    .wrapping_add(wi);
                e = d;
                d = c;
                c = b.rotate_left(30);
                b = a;
                a = temp;
            }
            h[0] = h[0].wrapping_add(a);
            h[1] = h[1].wrapping_add(b);
            h[2] = h[2].wrapping_add(c);
            h[3] = h[3].wrapping_add(d);
            h[4] = h[4].wrapping_add(e);
        });
        let mut out = [0u8; 20];
        for (i, word) in h.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // FIPS 180-1 / RFC 3174 test vectors.
    #[test]
    fn fips_vectors() {
        let cases = [
            ("abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
            (
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
            ),
            ("", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
            (
                "The quick brown fox jumps over the lazy dog",
                "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12",
            ),
        ];
        for (input, want) in cases {
            assert_eq!(sha1_hex(input.as_bytes()), want, "sha1({input:?})");
        }
    }

    #[test]
    fn million_a() {
        // The classic 1,000,000 x 'a' vector.
        let data = vec![b'a'; 1_000_000];
        assert_eq!(sha1_hex(&data), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    }

    /// The unrolled kernel against the loop it replaced: every length
    /// through four blocks (each one- and two-block padding tail), then
    /// 2,000 seeded random inputs of up to 1 KiB.
    #[test]
    fn unrolled_kernel_matches_the_reference_loop() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for len in 0..=300usize {
            let data: Vec<u8> = (0..len).map(|i| (i * 131 + len) as u8).collect();
            assert_eq!(sha1(&data), reference::sha1(&data), "length {len}");
        }
        let mut rng = StdRng::seed_from_u64(0x5A1_D1FF);
        for case in 0..2_000 {
            let len = rng.gen_range(0..1024usize);
            let data: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u8)).collect();
            assert_eq!(
                sha1(&data),
                reference::sha1(&data),
                "case {case}, length {len}"
            );
        }
    }

    #[test]
    fn block_boundary_lengths() {
        for len in [55, 56, 57, 63, 64, 65] {
            let data = vec![b'q'; len];
            assert_ne!(sha1(&data), sha1(&data[..len - 1]), "len {len}");
        }
    }
}
