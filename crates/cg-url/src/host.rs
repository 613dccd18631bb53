//! Host representation: registered names and IP addresses.

use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;

/// A parsed host component of a URL.
///
/// The simulator only needs two shapes: DNS registered names (the common
/// case for every website and vendor in the ecosystem) and IPv4 literals
/// (which have no registrable domain and therefore get exact-match cookie
/// and isolation semantics).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Host {
    /// A DNS registered name, already lowercased (`www.example.com`).
    Name(String),
    /// An IPv4 address literal (`127.0.0.1`), stored as octets.
    Ipv4([u8; 4]),
}

impl Host {
    /// Parses a host string. Names are lowercased; dotted-quad strings whose
    /// four parts are all valid `u8`s parse as IPv4.
    pub fn parse(raw: &str) -> Option<Host> {
        if raw.is_empty() {
            return None;
        }
        if let Some(ip) = parse_ipv4(raw) {
            return Some(Host::Ipv4(ip));
        }
        // A registered name: letters, digits, hyphens and dots, with
        // non-empty labels that neither start nor end with a hyphen.
        let lower = raw.to_ascii_lowercase();
        let mut labels = 0usize;
        for label in lower.split('.') {
            if label.is_empty() || label.len() > 63 {
                return None;
            }
            if label.starts_with('-') || label.ends_with('-') {
                return None;
            }
            if !label
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
            {
                return None;
            }
            labels += 1;
        }
        if labels == 0 || lower.len() > 253 {
            return None;
        }
        Some(Host::Name(lower))
    }

    /// The textual form used in cookie domain matching and logs.
    /// Borrowed for registered names (the common case); IPv4 literals,
    /// which store octets, format on demand.
    pub fn as_str(&self) -> Cow<'_, str> {
        match self {
            Host::Name(n) => Cow::Borrowed(n),
            Host::Ipv4(_) => Cow::Owned(self.to_string()),
        }
    }

    /// The labels of a registered name, from leftmost to rightmost;
    /// empty for IP addresses.
    pub fn labels(&self) -> Vec<&str> {
        match self {
            Host::Name(n) => n.split('.').collect(),
            Host::Ipv4(_) => Vec::new(),
        }
    }
}

impl fmt::Display for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Host::Name(n) => f.write_str(n),
            Host::Ipv4([a, b, c, d]) => write!(f, "{a}.{b}.{c}.{d}"),
        }
    }
}

fn parse_ipv4(raw: &str) -> Option<[u8; 4]> {
    let mut parts = [0u8; 4];
    let mut n = 0;
    for seg in raw.split('.') {
        if n == 4 {
            return None;
        }
        if seg.is_empty() || seg.len() > 3 || !seg.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        parts[n] = seg.parse().ok()?;
        n += 1;
    }
    if n == 4 {
        Some(parts)
    } else {
        None
    }
}

/// Host-suffix matching per RFC 6265 §5.1.3 ("domain-matching"): `host`
/// domain-matches `domain` when they are identical or `host` ends with
/// `.domain` and `host` is a registered name.
pub fn domain_match(host: &str, domain: &str) -> bool {
    // Compared case-insensitively in place: this runs per cookie per
    // document read, so it must not allocate.
    let domain = domain.trim_start_matches('.');
    if host.eq_ignore_ascii_case(domain) {
        return true;
    }
    if parse_ipv4(host).is_some() {
        return false;
    }
    let (h, d) = (host.as_bytes(), domain.as_bytes());
    h.len() > d.len()
        && h[h.len() - d.len()..].eq_ignore_ascii_case(d)
        && h[h.len() - d.len() - 1] == b'.'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_names_lowercased() {
        assert_eq!(
            Host::parse("WWW.Example.COM"),
            Some(Host::Name("www.example.com".into()))
        );
    }

    #[test]
    fn parses_ipv4() {
        assert_eq!(
            Host::parse("192.168.0.1"),
            Some(Host::Ipv4([192, 168, 0, 1]))
        );
        // Out-of-range octet falls back to name rules and fails (leading digit ok but 999 > 255)
        assert_eq!(
            Host::parse("999.1.1.1"),
            Some(Host::Name("999.1.1.1".into()))
        );
    }

    #[test]
    fn rejects_bad_names() {
        assert_eq!(Host::parse(""), None);
        assert_eq!(Host::parse("exa mple.com"), None);
        assert_eq!(Host::parse("-bad.com"), None);
        assert_eq!(Host::parse("bad-.com"), None);
        assert_eq!(Host::parse("a..b"), None);
    }

    #[test]
    fn display_round_trips() {
        for h in ["example.com", "10.0.0.1", "a.b.c.d.e"] {
            assert_eq!(Host::parse(h).unwrap().to_string(), h);
        }
    }

    #[test]
    fn domain_match_rfc6265() {
        assert!(domain_match("www.example.com", "example.com"));
        assert!(domain_match("example.com", "example.com"));
        assert!(domain_match("a.b.example.com", ".example.com"));
        assert!(!domain_match("example.com", "www.example.com"));
        assert!(!domain_match("badexample.com", "example.com"));
        assert!(!domain_match("1.2.3.4", "3.4"));
        // Case-insensitive on both sides, without lowercasing copies.
        assert!(domain_match("WWW.Example.com", ".example.COM"));
        assert!(domain_match("Example.COM", "example.com"));
        assert!(!domain_match("BadExample.com", "EXAMPLE.com"));
    }

    #[test]
    fn labels_split() {
        let h = Host::parse("a.b.example.com").unwrap();
        assert_eq!(h.labels(), vec!["a", "b", "example", "com"]);
        assert!(Host::parse("1.2.3.4").unwrap().labels().is_empty());
    }
}
