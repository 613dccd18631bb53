//! URL parsing, origin computation, and registrable-domain (eTLD+1) logic.
//!
//! This crate is the foundation of the CookieGuard reproduction: every
//! measurement and every enforcement decision in the paper is keyed on the
//! *domain* (eTLD+1) of a script or a cookie creator, while the browser's
//! Same-Origin Policy is keyed on the full *origin* (scheme, host, port).
//! The paper (§2.1) is explicit about distinguishing *cross-origin* (SOP's
//! strict notion) from *cross-domain* (different eTLD+1 inside the same
//! main-frame origin); this crate provides both notions.
//!
//! The public-suffix data is an embedded snapshot of the rule classes needed
//! by the simulated ecosystem (ICANN TLDs plus the multi-label suffixes and
//! wildcard/exception rules that appear in the wild), not the full Mozilla
//! list; see [`psl`] for the rule semantics, which follow the real algorithm.
//!
//! **Layer:** foundation (every other crate sits on it).
//! **Invariants:** interning is process-wide and append-only —
//! `DomainId`s are dense, stable, and never serialized; normalized
//! inputs take an allocation-free fast path; `host_site` answers what
//! `registrable_domain` and `is_public_suffix` answer, once per host.
//! **Entry points:** `Url`, `registrable_domain`, `intern`/`name`,
//! `host_site`, `CnameMap`.

#![warn(missing_docs)]

pub mod cname;
pub mod host;
pub mod intern;
pub mod origin;
pub mod parser;
pub mod psl;
pub mod query;

pub use cname::CnameMap;
pub use host::Host;
pub use intern::{host_site, intern, lookup, name, shard_id_for_host, DomainId, HostSite};
pub use origin::Origin;
pub use parser::{ParseError, Url};
pub use psl::{is_public_suffix, registrable_domain};

/// Returns `true` when two hosts belong to the same registrable domain
/// (eTLD+1). This is the paper's *same-domain* relation: the relation that
/// CookieGuard enforces and that the measurement pipeline uses to label an
/// interaction as cross-domain.
///
/// Hosts that have no registrable domain (IP addresses, bare TLDs) compare
/// by exact equality, which is the conservative choice for enforcement.
pub fn same_site(a: &str, b: &str) -> bool {
    match (registrable_domain(a), registrable_domain(b)) {
        (Some(da), Some(db)) => da == db,
        _ => a.eq_ignore_ascii_case(b),
    }
}

/// Convenience: the registrable domain of a full URL string, if it parses.
pub fn url_domain(url: &str) -> Option<String> {
    Url::parse(url).ok().and_then(|u| u.registrable_domain())
}

/// Whether `url`'s registrable domain is `domain`, ASCII
/// case-insensitively. A registrable domain is part of its URL's host,
/// so a URL that does not contain `domain` is answered without being
/// parsed.
pub fn url_on_domain(url: &str, domain: &str) -> bool {
    let d = domain.as_bytes();
    !d.is_empty()
        && url
            .as_bytes()
            .windows(d.len())
            .any(|w| w.eq_ignore_ascii_case(d))
        && url_domain(url).is_some_and(|u| u.eq_ignore_ascii_case(domain))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_on_domain_matches_url_domain() {
        for (url, domain, want) in [
            ("https://cdn.Site.com/a.js", "site.com", true),
            ("https://site.com:8443/", "SITE.com", true),
            ("https://site.com.evil.io/a.js", "site.com", false),
            ("https://evil.io/?ref=site.com", "site.com", false),
            ("https://other.io/a.js", "site.com", false),
            ("https://10.0.0.1/a.js", "0.0.1", false),
            ("not a url site.com", "site.com", false),
            ("https://site.com/", "", false),
        ] {
            assert_eq!(url_on_domain(url, domain), want, "{url} on {domain}");
            let reference = url_domain(url).is_some_and(|d| d.eq_ignore_ascii_case(domain));
            assert_eq!(url_on_domain(url, domain), reference, "{url} on {domain}");
        }
    }

    #[test]
    fn same_site_basic() {
        assert!(same_site("www.example.com", "cdn.example.com"));
        assert!(same_site("example.com", "example.com"));
        assert!(!same_site("example.com", "example.org"));
    }

    #[test]
    fn same_site_multi_label_suffix() {
        assert!(same_site("a.example.co.uk", "b.example.co.uk"));
        assert!(!same_site("one.co.uk", "two.co.uk"));
    }

    #[test]
    fn same_site_ip_exact() {
        assert!(same_site("127.0.0.1", "127.0.0.1"));
        assert!(!same_site("127.0.0.1", "127.0.0.2"));
    }

    #[test]
    fn url_domain_extracts() {
        assert_eq!(
            url_domain("https://static.tracker.example.com/a.js"),
            Some("example.com".to_string())
        );
        assert_eq!(url_domain("not a url"), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The URL parser is total: arbitrary printable input never
        /// panics — it parses or reports a ParseError.
        #[test]
        fn url_parse_never_panics(raw in "\\PC{0,120}") {
            let _ = Url::parse(&raw);
        }

        /// Display round trip: a parsed URL's string form re-parses to
        /// the same scheme / host / path / query.
        #[test]
        fn url_display_round_trips(
            scheme in prop::sample::select(vec!["http", "https"]),
            host in "[a-z]{1,8}(\\.[a-z]{1,8}){1,3}",
            path in "(/[a-z0-9._-]{0,8}){0,4}",
            query in proptest::option::of("[a-z]{1,5}=[a-z0-9]{0,8}(&[a-z]{1,5}=[a-z0-9]{0,8}){0,3}"),
        ) {
            let mut raw = format!("{scheme}://{host}{path}");
            if let Some(q) = &query {
                raw.push('?');
                raw.push_str(q);
            }
            let url = Url::parse(&raw).expect("well-formed URL");
            let re = Url::parse(&url.to_string()).expect("round trip");
            prop_assert_eq!(&url.scheme, &re.scheme);
            prop_assert_eq!(url.host_str(), re.host_str());
            prop_assert_eq!(&url.path, &re.path);
            prop_assert_eq!(&url.query, &re.query);
        }

        /// The registrable domain is always a suffix of the host, is
        /// itself registrable (idempotence), and is never a bare public
        /// suffix.
        #[test]
        fn registrable_domain_invariants(host in "[a-z]{1,8}(\\.[a-z]{1,8}){0,3}\\.(com|org|net|co\\.uk|io)") {
            if let Some(rd) = registrable_domain(&host) {
                prop_assert!(host.ends_with(&rd), "{} not a suffix of {}", rd, host);
                prop_assert!(!is_public_suffix(&rd), "{} is a public suffix", rd);
                prop_assert_eq!(registrable_domain(&rd), Some(rd.clone()));
            }
        }

        /// Domain matching is reflexive and respects the subdomain
        /// relation: `a.b` domain-matches `b` but never the reverse
        /// (for proper subdomains).
        #[test]
        fn domain_match_laws(parent in "[a-z]{2,8}\\.(com|net)", label in "[a-z]{1,8}") {
            let child = format!("{label}.{parent}");
            prop_assert!(host::domain_match(&parent, &parent));
            prop_assert!(host::domain_match(&child, &parent));
            prop_assert!(!host::domain_match(&parent, &child));
        }
    }
}
