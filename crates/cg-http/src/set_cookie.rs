//! `Set-Cookie` header parsing per RFC 6265 §5.2.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The `SameSite` cookie attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SameSite {
    /// `SameSite=Strict`
    Strict,
    /// `SameSite=Lax` (the modern browser default)
    Lax,
    /// `SameSite=None` (requires `Secure` in real browsers)
    None,
}

impl fmt::Display for SameSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SameSite::Strict => "Strict",
            SameSite::Lax => "Lax",
            SameSite::None => "None",
        })
    }
}

/// A parsed `Set-Cookie` header: the name/value pair plus every attribute
/// the study cares about. Attributes the parser does not model are
/// ignored, exactly like a real user agent.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SetCookie {
    /// Cookie name (may be empty for nameless `=value` cookies, which
    /// browsers accept; we keep them since trackers occasionally emit them).
    pub name: String,
    /// Cookie value, with surrounding double quotes stripped.
    pub value: String,
    /// `Domain` attribute, lowercased, leading dot removed.
    pub domain: Option<String>,
    /// `Path` attribute.
    pub path: Option<String>,
    /// `Expires` attribute converted to a unix-epoch millisecond timestamp.
    pub expires_ms: Option<i64>,
    /// `Max-Age` attribute in seconds (takes precedence over `Expires`).
    pub max_age_s: Option<i64>,
    /// `Secure` flag.
    pub secure: bool,
    /// `HttpOnly` flag — cookies with it are invisible to scripts and
    /// therefore out of scope for the measurement (paper §2.3, §8).
    pub http_only: bool,
    /// `SameSite` attribute.
    pub same_site: Option<SameSite>,
}

impl SetCookie {
    /// Builds a plain session cookie with no attributes.
    pub fn new(name: &str, value: &str) -> SetCookie {
        SetCookie {
            name: name.to_string(),
            value: value.to_string(),
            domain: None,
            path: None,
            expires_ms: None,
            max_age_s: None,
            secure: false,
            http_only: false,
            same_site: None,
        }
    }

    /// Serializes back to a `Set-Cookie` header value.
    pub fn to_header_value(&self) -> String {
        let mut s = format!("{}={}", self.name, self.value);
        if let Some(d) = &self.domain {
            s.push_str("; Domain=");
            s.push_str(d);
        }
        if let Some(p) = &self.path {
            s.push_str("; Path=");
            s.push_str(p);
        }
        if let Some(ms) = self.expires_ms {
            s.push_str(&format!("; Expires=@{ms}"));
        }
        if let Some(ma) = self.max_age_s {
            s.push_str(&format!("; Max-Age={ma}"));
        }
        if self.secure {
            s.push_str("; Secure");
        }
        if self.http_only {
            s.push_str("; HttpOnly");
        }
        if let Some(ss) = self.same_site {
            s.push_str(&format!("; SameSite={ss}"));
        }
        s
    }
}

/// Parses a `Set-Cookie` header value. Returns `None` for strings a
/// browser would discard outright (no `=` anywhere and empty name+value).
///
/// Date handling: real `Expires` values are RFC 1123 dates; the simulator
/// writes them in a compact `@<unix-ms>` form which this parser accepts
/// alongside a small subset of the RFC 1123 grammar.
pub fn parse_set_cookie(raw: &str) -> Option<SetCookie> {
    let mut parts = raw.split(';');
    let nv = parts.next()?.trim();
    let (name, value) = match nv.split_once('=') {
        Some((n, v)) => (n.trim(), v.trim()),
        None => {
            if nv.is_empty() {
                return None;
            }
            // `Set-Cookie: foo` — browsers treat it as a nameless value.
            ("", nv)
        }
    };
    if name.is_empty() && value.is_empty() {
        return None;
    }
    let value = value.trim_matches('"');

    let mut cookie = SetCookie::new(name, value);
    for attr in parts {
        let attr = attr.trim();
        let (key, val) = match attr.split_once('=') {
            Some((k, v)) => (k.trim(), v.trim()),
            None => (attr, ""),
        };
        // Attribute names and `SameSite` values are case-insensitive;
        // compare in place rather than lowercasing a copy of each.
        let is = |name: &str| key.eq_ignore_ascii_case(name);
        if is("domain") {
            let d = val.trim_start_matches('.').to_ascii_lowercase();
            if !d.is_empty() {
                cookie.domain = Some(d);
            }
        } else if is("path") {
            if val.starts_with('/') {
                cookie.path = Some(val.to_string());
            }
        } else if is("expires") {
            cookie.expires_ms = parse_expires(val);
        } else if is("max-age") {
            cookie.max_age_s = val.parse::<i64>().ok();
        } else if is("secure") {
            cookie.secure = true;
        } else if is("httponly") {
            cookie.http_only = true;
        } else if is("samesite") {
            cookie.same_site = [
                ("strict", SameSite::Strict),
                ("lax", SameSite::Lax),
                ("none", SameSite::None),
            ]
            .into_iter()
            .find(|(v, _)| val.eq_ignore_ascii_case(v))
            .map(|(_, s)| s);
        }
        // Unknown attributes are ignored.
    }
    Some(cookie)
}

/// Accepts `@<unix-ms>` (simulator form) or a minimal RFC 1123 subset
/// (`Wdy, DD Mon YYYY HH:MM:SS GMT`). Returns epoch milliseconds.
fn parse_expires(val: &str) -> Option<i64> {
    if let Some(ms) = val.strip_prefix('@') {
        return ms.parse().ok();
    }
    // "Wed, 21 Oct 2026 07:28:00 GMT"
    let tokens: Vec<&str> = val.split([' ', ',']).filter(|t| !t.is_empty()).collect();
    if tokens.len() < 5 {
        return None;
    }
    let day: i64 = tokens[1].parse().ok()?;
    let month = match &*tokens[2].to_ascii_lowercase() {
        "jan" => 0,
        "feb" => 1,
        "mar" => 2,
        "apr" => 3,
        "may" => 4,
        "jun" => 5,
        "jul" => 6,
        "aug" => 7,
        "sep" => 8,
        "oct" => 9,
        "nov" => 10,
        "dec" => 11,
        _ => return None,
    };
    let year: i64 = tokens[3].parse().ok()?;
    let hms: Vec<&str> = tokens[4].split(':').collect();
    if hms.len() != 3 {
        return None;
    }
    let (h, m, s): (i64, i64, i64) = (
        hms[0].parse().ok()?,
        hms[1].parse().ok()?,
        hms[2].parse().ok()?,
    );
    // Days since epoch via the civil-from-days inverse (Howard Hinnant's algorithm).
    let days = days_from_civil(year, month + 1, day);
    Some((days * 86_400 + h * 3600 + m * 60 + s) * 1000)
}

/// Days since 1970-01-01 for a proleptic Gregorian date.
fn days_from_civil(y: i64, m: i64, d: i64) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = (m + 9) % 12;
    let doy = (153 * mp + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_pair() {
        let c = parse_set_cookie("sessionid=abc123").unwrap();
        assert_eq!(c.name, "sessionid");
        assert_eq!(c.value, "abc123");
        assert!(!c.http_only && !c.secure);
    }

    #[test]
    fn parses_all_attributes() {
        let c = parse_set_cookie(
            "_ga=GA1.1.444332364.1746838827; Domain=.example.com; Path=/; Max-Age=63072000; Secure; SameSite=Lax",
        )
        .unwrap();
        assert_eq!(c.name, "_ga");
        assert_eq!(c.value, "GA1.1.444332364.1746838827");
        assert_eq!(c.domain.as_deref(), Some("example.com"));
        assert_eq!(c.path.as_deref(), Some("/"));
        assert_eq!(c.max_age_s, Some(63_072_000));
        assert!(c.secure);
        assert_eq!(c.same_site, Some(SameSite::Lax));
    }

    #[test]
    fn httponly_flag() {
        let c = parse_set_cookie("sid=s3cr3t; HttpOnly; Secure").unwrap();
        assert!(c.http_only);
    }

    #[test]
    fn quoted_value_unwrapped() {
        let c = parse_set_cookie("k=\"quoted value\"").unwrap();
        assert_eq!(c.value, "quoted value");
    }

    #[test]
    fn nameless_cookie_kept() {
        let c = parse_set_cookie("justavalue").unwrap();
        assert_eq!(c.name, "");
        assert_eq!(c.value, "justavalue");
    }

    #[test]
    fn empty_rejected() {
        assert!(parse_set_cookie("").is_none());
        assert!(parse_set_cookie("=").is_none());
    }

    #[test]
    fn expires_unix_ms_form() {
        let c = parse_set_cookie("a=1; Expires=@1746838827000").unwrap();
        assert_eq!(c.expires_ms, Some(1_746_838_827_000));
    }

    #[test]
    fn expires_rfc1123() {
        // 2026-06-08 00:00:00 UTC == 1780876800
        let c = parse_set_cookie("a=1; Expires=Mon, 08 Jun 2026 00:00:00 GMT").unwrap();
        assert_eq!(c.expires_ms, Some(1_780_876_800_000));
    }

    #[test]
    fn epoch_date_math() {
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(days_from_civil(1970, 1, 2), 1);
        assert_eq!(days_from_civil(2000, 3, 1), 11017);
    }

    #[test]
    fn unknown_attrs_ignored() {
        let c = parse_set_cookie("a=1; Priority=High; Partitioned").unwrap();
        assert_eq!(c.name, "a");
    }

    #[test]
    fn round_trip_header_value() {
        let raw = "_fbp=fb.1.1746746266109.868308499845957651; Domain=shop.example; Path=/; Max-Age=7776000; Secure; SameSite=None";
        let c = parse_set_cookie(raw).unwrap();
        let re = parse_set_cookie(&c.to_header_value()).unwrap();
        assert_eq!(c, re);
    }

    #[test]
    fn attribute_names_and_samesite_match_in_any_case() {
        let c = parse_set_cookie(
            "a=1; dOmAiN=Shop.Example; PATH=/x; mAx-AgE=60; EXPIRES=@5; sEcUrE; HTTPONLY; SameSite=nOnE",
        )
        .unwrap();
        assert_eq!(c.domain.as_deref(), Some("shop.example"));
        assert_eq!(c.path.as_deref(), Some("/x"));
        assert_eq!(c.max_age_s, Some(60));
        assert_eq!(c.expires_ms, Some(5));
        assert!(c.secure && c.http_only);
        assert_eq!(c.same_site, Some(SameSite::None));
        for (raw, want) in [
            ("a=1; samesite=STRICT", Some(SameSite::Strict)),
            ("a=1; SAMESITE=Lax", Some(SameSite::Lax)),
            ("a=1; SameSite=laxx", None),
        ] {
            assert_eq!(parse_set_cookie(raw).unwrap().same_site, want, "{raw}");
        }
        // A path that is not absolute is still ignored, in any case.
        assert_eq!(parse_set_cookie("a=1; PATH=rel").unwrap().path, None);
    }

    #[test]
    fn domain_leading_dot_stripped() {
        let c = parse_set_cookie("a=1; Domain=.Example.COM").unwrap();
        assert_eq!(c.domain.as_deref(), Some("example.com"));
    }
}
