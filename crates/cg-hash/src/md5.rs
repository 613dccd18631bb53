//! MD5 (RFC 1321).
//!
//! MD5 is cryptographically broken, but the exfiltration pipeline is not
//! using it for security: trackers hash identifiers with MD5 before putting
//! them in URLs, so the detector must compute the same digest.
//!
//! The compression function is written out step by step, as RFC 1321
//! §3.4 lists it: every message-word index and rotation is a constant,
//! so the state stays in registers. The per-step loop it replaced
//! survives in the tests as the reference the kernel is checked
//! against.

const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// The initial state (RFC 1321 §3.3).
const INIT: [u32; 4] = [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476];

fn f(b: u32, c: u32, d: u32) -> u32 {
    d ^ (b & (c ^ d))
}

fn g(b: u32, c: u32, d: u32) -> u32 {
    c ^ (d & (b ^ c))
}

fn h(b: u32, c: u32, d: u32) -> u32 {
    b ^ c ^ d
}

fn i(b: u32, c: u32, d: u32) -> u32 {
    c ^ (b | !d)
}

/// One step: `a = b + ((a + fun(b, c, d) + m + k) <<< s)`, with
/// `a + m + k` summed first: it does not wait on the previous step.
macro_rules! step {
    ($fun:ident, $a:ident, $b:ident, $c:ident, $d:ident, $m:expr, $k:expr, $s:expr) => {
        $a = $b.wrapping_add(
            $a.wrapping_add($m)
                .wrapping_add($k)
                .wrapping_add($fun($b, $c, $d))
                .rotate_left($s),
        );
    };
}

/// Four steps of one round, rotating the roles of the state words as
/// RFC 1321 does: message words `w`, constants `K[k..k + 4]`,
/// rotations `s`.
macro_rules! quad {
    ($fun:ident, $m:ident, $k:expr, [$w0:expr, $w1:expr, $w2:expr, $w3:expr],
     [$s0:expr, $s1:expr, $s2:expr, $s3:expr], $a:ident, $b:ident, $c:ident, $d:ident) => {
        step!($fun, $a, $b, $c, $d, $m[$w0], K[$k], $s0);
        step!($fun, $d, $a, $b, $c, $m[$w1], K[$k + 1], $s1);
        step!($fun, $c, $d, $a, $b, $m[$w2], K[$k + 2], $s2);
        step!($fun, $b, $c, $d, $a, $m[$w3], K[$k + 3], $s3);
    };
}

/// Absorbs one 64-byte block into `state`.
fn compress(state: &mut [u32; 4], block: &[u8; 64]) {
    let mut m = [0u32; 16];
    for (word, bytes) in m.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_le_bytes(bytes.try_into().expect("4 bytes"));
    }
    let [mut a, mut b, mut c, mut d] = *state;
    quad!(f, m, 0, [0, 1, 2, 3], [7, 12, 17, 22], a, b, c, d);
    quad!(f, m, 4, [4, 5, 6, 7], [7, 12, 17, 22], a, b, c, d);
    quad!(f, m, 8, [8, 9, 10, 11], [7, 12, 17, 22], a, b, c, d);
    quad!(f, m, 12, [12, 13, 14, 15], [7, 12, 17, 22], a, b, c, d);
    quad!(g, m, 16, [1, 6, 11, 0], [5, 9, 14, 20], a, b, c, d);
    quad!(g, m, 20, [5, 10, 15, 4], [5, 9, 14, 20], a, b, c, d);
    quad!(g, m, 24, [9, 14, 3, 8], [5, 9, 14, 20], a, b, c, d);
    quad!(g, m, 28, [13, 2, 7, 12], [5, 9, 14, 20], a, b, c, d);
    quad!(h, m, 32, [5, 8, 11, 14], [4, 11, 16, 23], a, b, c, d);
    quad!(h, m, 36, [1, 4, 7, 10], [4, 11, 16, 23], a, b, c, d);
    quad!(h, m, 40, [13, 0, 3, 6], [4, 11, 16, 23], a, b, c, d);
    quad!(h, m, 44, [9, 12, 15, 2], [4, 11, 16, 23], a, b, c, d);
    quad!(i, m, 48, [0, 7, 14, 5], [6, 10, 15, 21], a, b, c, d);
    quad!(i, m, 52, [12, 3, 10, 1], [6, 10, 15, 21], a, b, c, d);
    quad!(i, m, 56, [8, 15, 6, 13], [6, 10, 15, 21], a, b, c, d);
    quad!(i, m, 60, [4, 11, 2, 9], [6, 10, 15, 21], a, b, c, d);
    for (s, v) in state.iter_mut().zip([a, b, c, d]) {
        *s = s.wrapping_add(v);
    }
}

/// Computes the MD5 digest of `data`.
pub fn md5(data: &[u8]) -> [u8; 16] {
    let mut state = INIT;
    // Padding: 0x80, zeros, then the 64-bit little-endian bit length.
    let bit_len = (data.len() as u64).wrapping_mul(8);
    crate::pad::padded_blocks(data, bit_len.to_le_bytes(), |block| {
        compress(&mut state, block)
    });
    let mut out = [0u8; 16];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// Lowercase hex MD5 digest.
pub fn md5_hex(data: &[u8]) -> String {
    let mut hex = [0u8; 32];
    crate::write_hex(&md5(data), &mut hex);
    crate::hex_str(&hex).to_string()
}

#[cfg(test)]
pub(crate) mod reference {
    //! The per-step loop the unrolled kernel replaced, kept as its
    //! oracle.

    use super::{INIT, K};

    const S: [u32; 64] = [
        7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
        5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
        4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
        6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
    ];

    pub(crate) fn md5(data: &[u8]) -> [u8; 16] {
        let [mut a0, mut b0, mut c0, mut d0] = INIT;
        let bit_len = (data.len() as u64).wrapping_mul(8);
        crate::pad::padded_blocks(data, bit_len.to_le_bytes(), |block| {
            let mut m = [0u32; 16];
            for (i, w) in block.chunks_exact(4).enumerate() {
                m[i] = u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            }
            let (mut a, mut b, mut c, mut d) = (a0, b0, c0, d0);
            for i in 0..64 {
                let (f, g) = match i {
                    0..=15 => ((b & c) | (!b & d), i),
                    16..=31 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                    32..=47 => (b ^ c ^ d, (3 * i + 5) % 16),
                    _ => (c ^ (b | !d), (7 * i) % 16),
                };
                let f = f.wrapping_add(a).wrapping_add(K[i]).wrapping_add(m[g]);
                a = d;
                d = c;
                c = b;
                b = b.wrapping_add(f.rotate_left(S[i]));
            }
            a0 = a0.wrapping_add(a);
            b0 = b0.wrapping_add(b);
            c0 = c0.wrapping_add(c);
            d0 = d0.wrapping_add(d);
        });
        let mut out = [0u8; 16];
        out[0..4].copy_from_slice(&a0.to_le_bytes());
        out[4..8].copy_from_slice(&b0.to_le_bytes());
        out[8..12].copy_from_slice(&c0.to_le_bytes());
        out[12..16].copy_from_slice(&d0.to_le_bytes());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_vectors() {
        let cases = [
            ("", "d41d8cd98f00b204e9800998ecf8427e"),
            ("a", "0cc175b9c0f1b6a831c399e269772661"),
            ("abc", "900150983cd24fb0d6963f7d28e17f72"),
            ("message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                "abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, want) in cases {
            assert_eq!(md5_hex(input.as_bytes()), want, "md5({input:?})");
        }
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
            assert_eq!(md5(&data), reference::md5(&data), "length {len}");
        }
        let mut rng = StdRng::seed_from_u64(0x3D5_D1FF);
        for case in 0..2_000 {
            let len = rng.gen_range(0..1024usize);
            let data: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u8)).collect();
            assert_eq!(
                md5(&data),
                reference::md5(&data),
                "case {case}, length {len}"
            );
        }
    }

    #[test]
    fn block_boundary_lengths() {
        // Lengths straddling the 56-byte padding boundary and the 64-byte block.
        for len in [55, 56, 57, 63, 64, 65, 127, 128] {
            let data = vec![b'x'; len];
            let d = md5(&data);
            assert_eq!(d.len(), 16);
            // Digest must differ from the digest of one fewer byte.
            let d2 = md5(&data[..len - 1]);
            assert_ne!(d, d2, "len {len}");
        }
    }
}
