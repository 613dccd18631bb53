//! Public-suffix rules and registrable-domain (eTLD+1) computation.
//!
//! Implements the public-suffix algorithm used by real browsers:
//! the longest matching rule wins, exception rules (`!`) beat wildcard
//! rules (`*`), and the registrable domain is the public suffix plus one
//! more label. The embedded rule snapshot covers the generic TLDs, the
//! country-code TLDs, and the multi-label / wildcard / exception rule
//! shapes that the synthetic ecosystem and the paper's examples exercise
//! (`co.uk`, `com.au`, `github.io`, `*.ck` with `!www.ck`, …).

use std::borrow::Cow;
use std::collections::HashSet;
use std::sync::OnceLock;

/// Embedded public-suffix snapshot. One rule per entry, in the syntax of
/// the real list: plain rules, `*.` wildcard rules, and `!` exceptions.
const RULES: &[&str] = &[
    // Generic TLDs.
    "com",
    "org",
    "net",
    "edu",
    "gov",
    "mil",
    "int",
    "info",
    "biz",
    "name",
    "io",
    "co",
    "ai",
    "app",
    "dev",
    "xyz",
    "site",
    "online",
    "store",
    "tech",
    "blog",
    "cloud",
    "club",
    "shop",
    "media",
    "news",
    "live",
    "life",
    "world",
    "agency",
    "digital",
    "network",
    "solutions",
    "systems",
    "tools",
    "zone",
    "email",
    "exposed",
    "expert",
    "academy",
    "marketing",
    "software",
    "social",
    "ventures",
    "partners",
    "capital",
    "finance",
    "fund",
    "money",
    "tv",
    "fm",
    "am",
    "ws",
    "cc",
    "me",
    "ly",
    "gg",
    "sh",
    "ac",
    // Country codes used by the vendor registry and site generator.
    "us",
    "uk",
    "de",
    "fr",
    "nl",
    "es",
    "it",
    "pt",
    "pl",
    "cz",
    "ru",
    "ua",
    "jp",
    "cn",
    "kr",
    "in",
    "au",
    "nz",
    "br",
    "mx",
    "ar",
    "cl",
    "ca",
    "ch",
    "at",
    "be",
    "dk",
    "se",
    "no",
    "fi",
    "ie",
    "il",
    "tr",
    "gr",
    "hu",
    "ro",
    "sk",
    "si",
    "hr",
    "rs",
    "bg",
    "lt",
    "lv",
    "ee",
    "is",
    "za",
    "eg",
    "ng",
    "ke",
    "ma",
    "sa",
    "ae",
    "ir",
    "pk",
    "bd",
    "lk",
    "th",
    "vn",
    "my",
    "sg",
    "ph",
    "id",
    "tw",
    "hk",
    "mo",
    // Multi-label country suffixes.
    "co.uk",
    "org.uk",
    "me.uk",
    "ac.uk",
    "gov.uk",
    "net.uk",
    "sch.uk",
    "com.au",
    "net.au",
    "org.au",
    "edu.au",
    "gov.au",
    "co.nz",
    "net.nz",
    "org.nz",
    "govt.nz",
    "co.jp",
    "ne.jp",
    "or.jp",
    "ac.jp",
    "go.jp",
    "co.kr",
    "or.kr",
    "go.kr",
    "com.br",
    "net.br",
    "org.br",
    "gov.br",
    "com.mx",
    "org.mx",
    "gob.mx",
    "com.ar",
    "com.cn",
    "net.cn",
    "org.cn",
    "gov.cn",
    "co.in",
    "net.in",
    "org.in",
    "gov.in",
    "ac.in",
    "co.za",
    "org.za",
    "web.za",
    "com.sg",
    "com.my",
    "com.ph",
    "com.vn",
    "com.tr",
    "com.hk",
    "com.tw",
    "co.il",
    "org.il",
    "co.th",
    "in.th",
    "com.eg",
    "com.sa",
    "com.pk",
    // Private-domain suffixes relevant to script hosting.
    "github.io",
    "gitlab.io",
    "herokuapp.com",
    "netlify.app",
    "vercel.app",
    "web.app",
    "firebaseapp.com",
    "azurewebsites.net",
    "cloudfront.net",
    "amazonaws.com",
    "s3.amazonaws.com",
    "blogspot.com",
    "wordpress.com",
    "tumblr.com",
    "fastly.net",
    "akamaized.net",
    "pages.dev",
    "workers.dev",
    // Wildcard and exception rules (the interesting algorithmic cases).
    "*.ck",
    "!www.ck",
    "*.bn",
    "*.kw",
    "*.compute.amazonaws.com",
];

struct RuleSet {
    plain: HashSet<&'static str>,
    wildcard: HashSet<&'static str>, // stored without the leading "*."
    exception: HashSet<&'static str>, // stored without the leading "!"
}

fn rules() -> &'static RuleSet {
    static SET: OnceLock<RuleSet> = OnceLock::new();
    SET.get_or_init(|| {
        let mut plain = HashSet::new();
        let mut wildcard = HashSet::new();
        let mut exception = HashSet::new();
        for r in RULES {
            if let Some(rest) = r.strip_prefix("*.") {
                wildcard.insert(rest);
            } else if let Some(rest) = r.strip_prefix('!') {
                exception.insert(rest);
            } else {
                plain.insert(*r);
            }
        }
        RuleSet {
            plain,
            wildcard,
            exception,
        }
    })
}

/// Number of labels in the public suffix of `host` (lowercase, `n`
/// labels, none empty), or 0 when no rule matches (per the algorithm, an
/// unmatched host uses the implicit `*` rule: the last label is the
/// suffix — we treat that as suffix length 1). Each candidate suffix is
/// a label-aligned tail of `host`, borrowed rather than joined.
fn suffix_label_count(host: &str, n: usize) -> usize {
    let rs = rules();
    let mut best = 1; // implicit "*" rule
    let mut at = Some(0);
    let mut start = 0;
    while let Some(off) = at {
        let candidate = &host[off..];
        // Exception rule: the public suffix is the candidate minus its
        // first label.
        if rs.exception.contains(candidate) {
            return n - start - 1;
        }
        if rs.plain.contains(candidate) {
            best = best.max(n - start);
        }
        // Wildcard: "*.ck" means any "<label>.ck" is a suffix. The stored
        // key is the part after "*.", so a candidate matches when its
        // tail (after the first label) is a wildcard key.
        at = candidate.find('.').map(|i| off + i + 1);
        if let Some(next) = at {
            if rs.wildcard.contains(&host[next..]) {
                best = best.max(n - start);
            }
        }
        start += 1;
    }
    best
}

/// `host` without surrounding dots, lowercased (borrowed when it already
/// is), with its label count; `None` when empty or a label is empty.
fn normalized(host: &str) -> Option<(Cow<'_, str>, usize)> {
    let host = host.trim_matches('.');
    // Trimmed of outer dots, an empty label can only be an inner "..".
    if host.is_empty() || host.contains("..") {
        return None;
    }
    let labels = host.split('.').count();
    let host = if host.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(host.to_ascii_lowercase())
    } else {
        Cow::Borrowed(host)
    };
    Some((host, labels))
}

/// Returns `true` when `host` is itself a public suffix (e.g. `co.uk`).
pub fn is_public_suffix(host: &str) -> bool {
    match normalized(host) {
        Some((host, n)) => suffix_label_count(&host, n) >= n,
        None => false,
    }
}

/// The registrable domain (eTLD+1) of `host`: the public suffix plus one
/// label. `None` for IP literals, bare public suffixes, and hosts with
/// fewer labels than the matched suffix.
pub fn registrable_domain(host: &str) -> Option<String> {
    let (host, n) = normalized(host)?;
    // IPv4 literals have no registrable domain.
    if n == 4 && host.split('.').all(|l| l.parse::<u8>().is_ok()) {
        return None;
    }
    let suffix = suffix_label_count(&host, n);
    if n <= suffix {
        return None;
    }
    // The domain starts at label `n - suffix - 1`.
    let skip = n - suffix - 1;
    let off = match skip {
        0 => 0,
        k => host.match_indices('.').nth(k - 1).map_or(0, |(i, _)| i + 1),
    };
    Some(host[off..].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_tld() {
        assert_eq!(
            registrable_domain("www.example.com").as_deref(),
            Some("example.com")
        );
        assert_eq!(
            registrable_domain("example.com").as_deref(),
            Some("example.com")
        );
        assert_eq!(registrable_domain("com"), None);
    }

    #[test]
    fn multi_label_suffix() {
        assert_eq!(
            registrable_domain("www.bbc.co.uk").as_deref(),
            Some("bbc.co.uk")
        );
        assert_eq!(registrable_domain("co.uk"), None);
        assert_eq!(
            registrable_domain("deep.sub.shop.com.au").as_deref(),
            Some("shop.com.au")
        );
    }

    #[test]
    fn private_suffixes() {
        assert_eq!(
            registrable_domain("user.github.io").as_deref(),
            Some("user.github.io")
        );
        assert_eq!(
            registrable_domain("d111.cloudfront.net").as_deref(),
            Some("d111.cloudfront.net")
        );
        assert_eq!(registrable_domain("github.io"), None);
    }

    #[test]
    fn wildcard_and_exception() {
        // *.ck: anything.ck is a suffix, so foo.bar.ck registers bar-level+1.
        assert_eq!(
            registrable_domain("a.b.foo.ck").as_deref(),
            Some("b.foo.ck")
        );
        assert_eq!(registrable_domain("foo.ck"), None);
        // !www.ck: exception — www.ck itself is registrable.
        assert_eq!(registrable_domain("www.ck").as_deref(), Some("www.ck"));
        assert_eq!(registrable_domain("sub.www.ck").as_deref(), Some("www.ck"));
    }

    #[test]
    fn unknown_tld_uses_implicit_star() {
        assert_eq!(
            registrable_domain("foo.unknowntld").as_deref(),
            Some("foo.unknowntld")
        );
        assert_eq!(registrable_domain("unknowntld"), None);
    }

    #[test]
    fn ip_has_no_domain() {
        assert_eq!(registrable_domain("192.168.1.1"), None);
    }

    #[test]
    fn is_public_suffix_checks() {
        assert!(is_public_suffix("com"));
        assert!(is_public_suffix("co.uk"));
        assert!(is_public_suffix("github.io"));
        assert!(is_public_suffix("anything.ck"));
        assert!(!is_public_suffix("www.ck"));
        assert!(!is_public_suffix("example.com"));
    }

    /// The label-joining form of the algorithm the borrowed-tail
    /// implementation replaced, kept as the oracle it must match.
    fn joined_reference(host: &str) -> Option<String> {
        let host = host.trim_matches('.').to_ascii_lowercase();
        let labels: Vec<&str> = host.split('.').collect();
        if host.is_empty() || labels.iter().any(|l| l.is_empty()) {
            return None;
        }
        if labels.len() == 4 && labels.iter().all(|l| l.parse::<u8>().is_ok()) {
            return None;
        }
        let (rs, n) = (rules(), labels.len());
        let mut suffix = 1;
        for start in 0..n {
            let candidate = labels[start..].join(".");
            if rs.exception.contains(candidate.as_str()) {
                suffix = n - start - 1;
                break;
            }
            if rs.plain.contains(candidate.as_str())
                || (start + 1 < n && rs.wildcard.contains(labels[start + 1..].join(".").as_str()))
            {
                suffix = suffix.max(n - start);
            }
        }
        (n > suffix).then(|| labels[n - suffix - 1..].join("."))
    }

    #[test]
    fn borrowed_tails_match_the_joined_reference() {
        for rule in RULES {
            let rule = rule.trim_start_matches("*.").trim_start_matches('!');
            for prefix in [
                "",
                "a.",
                "x.a.",
                "WWW.Shop.",
                "1.2.3.",
                ".",
                "b..",
                "255.255.255.",
            ] {
                for host in [format!("{prefix}{rule}"), format!("{prefix}{rule}.")] {
                    assert_eq!(registrable_domain(&host), joined_reference(&host), "{host}");
                }
            }
        }
        for host in [
            "",
            ".",
            "1.2.3.4",
            "300.1.1.1",
            "foo",
            "a.b.foo.ck",
            "sub.www.ck",
        ] {
            assert_eq!(registrable_domain(host), joined_reference(host), "{host}");
        }
    }

    #[test]
    fn case_and_dots_normalized() {
        assert_eq!(
            registrable_domain("WWW.Example.COM.").as_deref(),
            Some("example.com")
        );
    }
}
