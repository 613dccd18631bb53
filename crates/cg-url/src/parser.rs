//! A small, strict URL parser covering the subset of WHATWG URLs the
//! simulator produces: absolute `http(s)` URLs with host, optional port,
//! path, query, and fragment.

use crate::host::Host;
use crate::origin::Origin;
use crate::psl;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors produced by [`Url::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The scheme is missing or not `http`/`https`.
    BadScheme,
    /// The host is missing or syntactically invalid.
    BadHost,
    /// The port is present but not a valid `u16`.
    BadPort,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::BadScheme => write!(f, "missing or unsupported scheme"),
            ParseError::BadHost => write!(f, "missing or invalid host"),
            ParseError::BadPort => write!(f, "invalid port"),
        }
    }
}

impl std::error::Error for ParseError {}

/// An absolute `http(s)` URL.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Url {
    /// `http` or `https`.
    pub scheme: String,
    /// The parsed host.
    pub host: Host,
    /// Explicit port, when one appeared in the URL.
    pub port: Option<u16>,
    /// The path, always beginning with `/`.
    pub path: String,
    /// The raw query string, without the leading `?`; empty when absent.
    pub query: String,
    /// The fragment, without the leading `#`; empty when absent.
    pub fragment: String,
}

impl Url {
    /// Parses an absolute URL. Only `http` and `https` are accepted —
    /// everything the simulated web serves is one of the two.
    pub fn parse(input: &str) -> Result<Url, ParseError> {
        let input = input.trim();
        let (scheme, rest) = input.split_once("://").ok_or(ParseError::BadScheme)?;
        let scheme = scheme.to_ascii_lowercase();
        if scheme != "http" && scheme != "https" {
            return Err(ParseError::BadScheme);
        }
        // Split off fragment, then query, then path.
        let (rest, fragment) = match rest.split_once('#') {
            Some((r, f)) => (r, f.to_string()),
            None => (rest, String::new()),
        };
        let (rest, query) = match rest.split_once('?') {
            Some((r, q)) => (r, q.to_string()),
            None => (rest, String::new()),
        };
        let (authority, path) = match rest.find('/') {
            Some(i) => (&rest[..i], rest[i..].to_string()),
            None => (rest, "/".to_string()),
        };
        // We don't model userinfo; reject it to keep the grammar strict.
        if authority.contains('@') {
            return Err(ParseError::BadHost);
        }
        let (host_str, port) = match authority.rsplit_once(':') {
            Some((h, p)) => {
                let port: u16 = p.parse().map_err(|_| ParseError::BadPort)?;
                (h, Some(port))
            }
            None => (authority, None),
        };
        let host = Host::parse(host_str).ok_or(ParseError::BadHost)?;
        Ok(Url {
            scheme,
            host,
            port,
            path,
            query,
            fragment,
        })
    }

    /// The effective port: explicit, or the scheme default (80/443).
    pub fn effective_port(&self) -> u16 {
        self.port
            .unwrap_or(if self.scheme == "https" { 443 } else { 80 })
    }

    /// The origin (scheme, host, effective port) of this URL — SOP's unit
    /// of isolation.
    pub fn origin(&self) -> Origin {
        Origin::new(&self.scheme, self.host.clone(), self.effective_port())
    }

    /// The host as a string — borrowed for registered names, so the
    /// per-operation paths (shard pinning, CSP host checks, caller
    /// attribution) don't allocate.
    pub fn host_str(&self) -> std::borrow::Cow<'_, str> {
        self.host.as_str()
    }

    /// The registrable domain (eTLD+1) of the host — the paper's unit of
    /// cross-domain analysis and CookieGuard's unit of enforcement.
    pub fn registrable_domain(&self) -> Option<String> {
        psl::registrable_domain(&self.host_str())
    }

    /// Returns a copy with a different path (used by the site generator to
    /// mint internal links).
    pub fn with_path(&self, path: &str) -> Url {
        let mut u = self.clone();
        u.path = if path.starts_with('/') {
            path.to_string()
        } else {
            format!("/{path}")
        };
        u
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}://{}", self.scheme, self.host)?;
        if let Some(p) = self.port {
            write!(f, ":{p}")?;
        }
        f.write_str(&self.path)?;
        if !self.query.is_empty() {
            write!(f, "?{}", self.query)?;
        }
        if !self.fragment.is_empty() {
            write!(f, "#{}", self.fragment)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_url() {
        let u = Url::parse("https://www.example.com:8443/a/b?x=1&y=2#frag").unwrap();
        assert_eq!(u.scheme, "https");
        assert_eq!(u.host_str(), "www.example.com");
        assert_eq!(u.port, Some(8443));
        assert_eq!(u.path, "/a/b");
        assert_eq!(u.query, "x=1&y=2");
        assert_eq!(u.fragment, "frag");
    }

    #[test]
    fn default_ports() {
        assert_eq!(Url::parse("http://a.com").unwrap().effective_port(), 80);
        assert_eq!(Url::parse("https://a.com").unwrap().effective_port(), 443);
    }

    #[test]
    fn missing_path_becomes_root() {
        assert_eq!(Url::parse("https://a.com").unwrap().path, "/");
    }

    #[test]
    fn rejects_bad_inputs() {
        assert_eq!(Url::parse("ftp://a.com"), Err(ParseError::BadScheme));
        assert_eq!(Url::parse("no-scheme.com/x"), Err(ParseError::BadScheme));
        assert_eq!(Url::parse("https://"), Err(ParseError::BadHost));
        assert_eq!(
            Url::parse("https://user@host.com"),
            Err(ParseError::BadHost)
        );
        assert_eq!(
            Url::parse("https://a.com:notaport/"),
            Err(ParseError::BadPort)
        );
    }

    #[test]
    fn display_round_trips() {
        for s in [
            "https://www.example.com/a/b?x=1#f",
            "http://tracker.io/pixel.gif?id=abc",
            "https://a.co.uk:444/",
        ] {
            assert_eq!(Url::parse(s).unwrap().to_string(), s);
        }
    }

    #[test]
    fn origin_and_domain() {
        let u = Url::parse("https://cdn.shop.example.co.uk/lib.js").unwrap();
        assert_eq!(u.registrable_domain().as_deref(), Some("example.co.uk"));
        assert_eq!(u.origin().to_string(), "https://cdn.shop.example.co.uk:443");
    }

    #[test]
    fn with_path_normalizes() {
        let u = Url::parse("https://a.com/x").unwrap();
        assert_eq!(u.with_path("y/z").path, "/y/z");
        assert_eq!(u.with_path("/y").path, "/y");
    }
}
