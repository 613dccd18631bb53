//! Query-string percent-encoding.
//!
//! Scripts that ship cookie values in request URLs encode them with
//! [`percent_encode`]; [`percent_decode`] is its inverse.

/// Percent-encodes everything outside the query-safe set
/// (alphanumerics and `-._~*`), mirroring `encodeURIComponent` closely
/// enough for identifier-matching purposes.
pub fn percent_encode(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    for b in input.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'.' | b'_' | b'~' | b'*' => {
                out.push(b as char)
            }
            _ => {
                out.push('%');
                out.push(hex_digit(b >> 4));
                out.push(hex_digit(b & 0xf));
            }
        }
    }
    out
}

/// Percent-decodes `%XX` escapes and `+`-as-space. Malformed escapes are
/// passed through verbatim (lenient, like browsers).
pub fn percent_decode(input: &str) -> String {
    let bytes = input.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                // Need two hex digits after '%'; otherwise the '%' is literal.
                if i + 2 < bytes.len() {
                    if let (Some(h), Some(l)) = (from_hex(bytes[i + 1]), from_hex(bytes[i + 2])) {
                        out.push((h << 4) | l);
                        i += 3;
                        continue;
                    }
                }
                out.push(b'%');
                i += 1;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn hex_digit(n: u8) -> char {
    char::from_digit(n as u32, 16).unwrap().to_ascii_uppercase()
}

fn from_hex(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_escapes() {
        assert_eq!(
            percent_encode("{\"fbp\":\"fb.1\"}"),
            "%7B%22fbp%22%3A%22fb.1%22%7D"
        );
    }

    #[test]
    fn decode_escapes() {
        assert_eq!(percent_decode("a%20b"), "a b");
        assert_eq!(percent_decode("a+b"), "a b");
        assert_eq!(percent_decode("%7B%22k%22%3A1%7D"), "{\"k\":1}");
        // malformed escapes pass through
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
    }

    #[test]
    fn encode_decode_round_trip() {
        let original = "fb.1.1746746266109.868308499845957651 {} &=+";
        assert_eq!(percent_decode(&percent_encode(original)), original);
    }
}
