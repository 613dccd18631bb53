//! Base64 (RFC 4648, standard alphabet) encode/decode.

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Encodes `data` as standard Base64 with `=` padding.
pub fn b64encode(data: &[u8]) -> String {
    encoded(data, true)
}

/// Encodes without trailing padding (the form trackers put in URLs).
pub fn b64encode_no_pad(data: &[u8]) -> String {
    encoded(data, false)
}

fn encoded(data: &[u8], pad: bool) -> String {
    let mut out = Vec::with_capacity(data.len().div_ceil(3) * 4);
    encode_into(data, pad, &mut out);
    String::from_utf8(out).expect("Base64 is ASCII")
}

/// Appends the Base64 of `data` to `out`, with `=` padding when `pad`.
pub(crate) fn encode_into(data: &[u8], pad: bool, out: &mut Vec<u8>) {
    let sextet = |triple: u32, shift: u32| ALPHABET[(triple >> shift) as usize & 0x3f];
    let mut chunks = data.chunks_exact(3);
    for chunk in &mut chunks {
        let triple = u32::from(chunk[0]) << 16 | u32::from(chunk[1]) << 8 | u32::from(chunk[2]);
        out.extend_from_slice(&[
            sextet(triple, 18),
            sextet(triple, 12),
            sextet(triple, 6),
            sextet(triple, 0),
        ]);
    }
    match *chunks.remainder() {
        [b0] => {
            let triple = u32::from(b0) << 16;
            out.extend_from_slice(&[sextet(triple, 18), sextet(triple, 12)]);
            if pad {
                out.extend_from_slice(b"==");
            }
        }
        [b0, b1] => {
            let triple = u32::from(b0) << 16 | u32::from(b1) << 8;
            out.extend_from_slice(&[sextet(triple, 18), sextet(triple, 12), sextet(triple, 6)]);
            if pad {
                out.push(b'=');
            }
        }
        _ => {}
    }
}

/// Decodes standard Base64; padding optional. Returns `None` on any
/// character outside the alphabet or an impossible length.
pub fn b64decode(input: &str) -> Option<Vec<u8>> {
    let trimmed = input.trim_end_matches('=');
    let mut out = Vec::with_capacity(trimmed.len() * 3 / 4);
    let mut buf: u32 = 0;
    let mut bits = 0u32;
    for c in trimmed.bytes() {
        let v = decode_char(c)?;
        buf = (buf << 6) | v as u32;
        bits += 6;
        if bits >= 8 {
            bits -= 8;
            out.push((buf >> bits) as u8);
        }
    }
    // A single leftover sextet (len % 4 == 1) is impossible.
    if trimmed.len() % 4 == 1 {
        return None;
    }
    Some(out)
}

fn decode_char(c: u8) -> Option<u8> {
    match c {
        b'A'..=b'Z' => Some(c - b'A'),
        b'a'..=b'z' => Some(c - b'a' + 26),
        b'0'..=b'9' => Some(c - b'0' + 52),
        b'+' => Some(62),
        b'/' => Some(63),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 4648 §10 test vectors.
    #[test]
    fn rfc4648_vectors() {
        let cases = [
            ("", ""),
            ("f", "Zg=="),
            ("fo", "Zm8="),
            ("foo", "Zm9v"),
            ("foob", "Zm9vYg=="),
            ("fooba", "Zm9vYmE="),
            ("foobar", "Zm9vYmFy"),
        ];
        for (plain, enc) in cases {
            assert_eq!(b64encode(plain.as_bytes()), enc, "encode {plain:?}");
            assert_eq!(b64decode(enc).unwrap(), plain.as_bytes(), "decode {enc:?}");
        }
    }

    #[test]
    fn no_pad_round_trip() {
        assert_eq!(b64encode_no_pad(b"f"), "Zg");
        assert_eq!(b64decode("Zg").unwrap(), b"f");
        assert_eq!(b64decode("Zm9vYg").unwrap(), b"foob");
    }

    #[test]
    fn rejects_bad_input() {
        assert_eq!(b64decode("a"), None); // impossible length
        assert_eq!(b64decode("ab!d"), None); // bad character
    }

    #[test]
    fn no_pad_is_the_padded_form_trimmed_at_every_tail() {
        for n in 0..40usize {
            let data: Vec<u8> = (0..n).map(|i| (i * 37 + 11) as u8).collect();
            let padded = b64encode(&data);
            assert_eq!(
                b64encode_no_pad(&data),
                padded.trim_end_matches('='),
                "length {n}"
            );
            assert_eq!(padded.len(), n.div_ceil(3) * 4);
        }
    }

    #[test]
    fn binary_round_trip() {
        let data: Vec<u8> = (0u8..=255).collect();
        assert_eq!(b64decode(&b64encode(&data)).unwrap(), data);
    }
}
