//! Parsing of individual Adblock-Plus filter rules.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Resource types supported in `$` options (the subset the measurement
/// exercises; unknown types cause the rule to be skipped, like real
/// parsers do for unsupported options).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ResourceType {
    /// `$script`
    Script,
    /// `$image`
    Image,
    /// `$xmlhttprequest`
    Xhr,
    /// `$subdocument`
    Subdocument,
    /// `$ping` (beacons)
    Ping,
    /// `$document`
    Document,
    /// `$other`
    Other,
}

impl ResourceType {
    fn from_option(s: &str) -> Option<ResourceType> {
        Some(match s {
            "script" => ResourceType::Script,
            "image" => ResourceType::Image,
            "xmlhttprequest" => ResourceType::Xhr,
            "subdocument" => ResourceType::Subdocument,
            "ping" => ResourceType::Ping,
            "document" => ResourceType::Document,
            "other" => ResourceType::Other,
            _ => return None,
        })
    }
}

/// How the pattern anchors to the URL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Anchor {
    /// No anchor: substring match anywhere.
    None,
    /// `||` host anchor: pattern must start at a host-label boundary.
    Host,
    /// `|` at the start: pattern matches from the beginning of the URL.
    Start,
}

/// Why a rule failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleParseError {
    /// Comments (`!`), cosmetic rules (`##`), and empty lines.
    NotANetworkRule,
    /// The rule uses an option we do not support (real engines skip these).
    UnsupportedOption(String),
    /// Rule was only an anchor or otherwise empty.
    EmptyPattern,
}

impl fmt::Display for RuleParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleParseError::NotANetworkRule => write!(f, "not a network rule"),
            RuleParseError::UnsupportedOption(o) => write!(f, "unsupported option {o:?}"),
            RuleParseError::EmptyPattern => write!(f, "empty pattern"),
        }
    }
}

impl std::error::Error for RuleParseError {}

/// One parsed network filter rule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilterRule {
    /// The raw text the rule was parsed from (for reporting).
    pub raw: String,
    /// `@@` exception rule (allowlist).
    pub exception: bool,
    /// Anchoring mode.
    pub anchor: Anchor,
    /// `|` at the end: pattern must reach the end of the URL.
    pub end_anchor: bool,
    /// Pattern split on `*` wildcards; parts must appear in order.
    /// `^` separator placeholders are kept verbatim within parts and
    /// handled by the matcher.
    pub parts: Vec<String>,
    /// Resource-type restrictions (empty = any type).
    pub types: Vec<ResourceType>,
    /// `third-party` / `~third-party` restriction.
    pub third_party: Option<bool>,
    /// `domain=` include list (empty = any context domain).
    pub include_domains: Vec<String>,
    /// `domain=` exclude list (`~`-prefixed entries).
    pub exclude_domains: Vec<String>,
}

impl FilterRule {
    /// Parses one line of a filter list.
    pub fn parse(line: &str) -> Result<FilterRule, RuleParseError> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('!') || line.starts_with('[') {
            return Err(RuleParseError::NotANetworkRule);
        }
        // Cosmetic rules contain "##" or "#@#" or "#?#".
        if line.contains("##") || line.contains("#@#") || line.contains("#?#") {
            return Err(RuleParseError::NotANetworkRule);
        }

        let (mut pattern, exception) = match line.strip_prefix("@@") {
            Some(rest) => (rest, true),
            None => (line, false),
        };

        // Split off options at the last '$' that is followed by known
        // option syntax. Simplification: lists we generate always put
        // options after the final '$'.
        let mut types = Vec::new();
        let mut third_party = None;
        let mut include_domains = Vec::new();
        let mut exclude_domains = Vec::new();
        if let Some(idx) = pattern.rfind('$') {
            let (pat, opts) = pattern.split_at(idx);
            let opts = &opts[1..];
            // Heuristic like real parsers: only treat as options when the
            // remainder looks like a comma-separated option list.
            if !opts.is_empty() && opts.split(',').all(looks_like_option) {
                pattern = pat;
                for opt in opts.split(',') {
                    let opt = opt.trim();
                    if let Some(rt) = ResourceType::from_option(opt) {
                        types.push(rt);
                    } else if opt == "third-party" || opt == "3p" {
                        third_party = Some(true);
                    } else if opt == "~third-party" || opt == "1p" {
                        third_party = Some(false);
                    } else if let Some(domains) = opt.strip_prefix("domain=") {
                        for d in domains.split('|') {
                            if let Some(ex) = d.strip_prefix('~') {
                                exclude_domains.push(ex.to_ascii_lowercase());
                            } else if !d.is_empty() {
                                include_domains.push(d.to_ascii_lowercase());
                            }
                        }
                    } else {
                        return Err(RuleParseError::UnsupportedOption(opt.to_string()));
                    }
                }
            }
        }

        let (anchor, rest) = if let Some(rest) = pattern.strip_prefix("||") {
            (Anchor::Host, rest)
        } else if let Some(rest) = pattern.strip_prefix('|') {
            (Anchor::Start, rest)
        } else {
            (Anchor::None, pattern)
        };
        let (end_anchor, rest) = match rest.strip_suffix('|') {
            Some(r) => (true, r),
            None => (false, rest),
        };
        let parts: Vec<String> = rest.split('*').map(|s| s.to_ascii_lowercase()).collect();
        if parts.iter().all(|p| p.is_empty()) {
            return Err(RuleParseError::EmptyPattern);
        }
        Ok(FilterRule {
            raw: line.to_string(),
            exception,
            anchor,
            end_anchor,
            parts,
            types,
            third_party,
            include_domains,
            exclude_domains,
        })
    }

    /// The longest literal token of the rule (used for the engine's
    /// token index). Tokens are maximal runs of `[a-z0-9_-]` at least
    /// 3 bytes long; returns `None` for rules too generic to index.
    pub fn index_token(&self) -> Option<String> {
        self.parts
            .iter()
            .flat_map(|p| {
                p.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '-'))
                    .filter(|t| t.len() >= 3)
                    .map(str::to_string)
            })
            .max_by_key(String::len)
    }

    /// Whether the rule's pattern matches `url` (lowercased by caller).
    /// Options are checked separately by the engine.
    pub fn pattern_matches(&self, url: &str) -> bool {
        debug_assert_eq!(url, url.to_ascii_lowercase());
        let mut positions: Vec<usize> = match self.anchor {
            Anchor::Start => vec![0],
            Anchor::None => vec![], // any position — handled below
            Anchor::Host => host_anchor_positions(url),
        };
        if self.anchor == Anchor::None {
            // Any starting position is allowed.
            positions = (0..=url.len()).collect();
        }
        'pos: for start in positions {
            let mut cursor = start;
            for (i, part) in self.parts.iter().enumerate() {
                if part.is_empty() {
                    continue;
                }
                let found = if i == 0 {
                    if part_matches_at(url, cursor, part) {
                        Some(cursor)
                    } else {
                        None
                    }
                } else {
                    find_part_from(url, cursor, part)
                };
                match found {
                    // Clamp: a trailing '^' may match the end of the URL and
                    // would otherwise push the cursor one past it.
                    Some(pos) => cursor = (pos + part_len(part)).min(url.len()),
                    None => continue 'pos,
                }
            }
            if self.end_anchor {
                // The last matched position must consume to the end
                // (a trailing `^` may also match end-of-input, which
                // part_len already accounted for only when a char was
                // consumed — accept equality or one-past for '^'-at-end).
                if cursor == url.len() {
                    return true;
                }
                continue 'pos;
            }
            return true;
        }
        false
    }
}

fn looks_like_option(opt: &str) -> bool {
    let opt = opt.trim();
    opt == "third-party"
        || opt == "~third-party"
        || opt == "3p"
        || opt == "1p"
        || opt.starts_with("domain=")
        || ResourceType::from_option(opt).is_some()
        // Unknown-but-option-shaped (letters/tildes only) so we can report
        // UnsupportedOption instead of treating "$" as part of the pattern.
        || opt.chars().all(|c| c.is_ascii_alphabetic() || c == '~' || c == '-')
}

/// Positions in `url` where a `||` host-anchored pattern may begin: the
/// start of the host, and after each `.` within the host.
fn host_anchor_positions(url: &str) -> Vec<usize> {
    let host_start = match url.find("://") {
        Some(i) => i + 3,
        None => 0,
    };
    let host_end = url[host_start..]
        .find(['/', '?', '#', ':'])
        .map(|i| host_start + i)
        .unwrap_or(url.len());
    let mut positions = vec![host_start];
    for (i, b) in url[host_start..host_end].bytes().enumerate() {
        if b == b'.' {
            positions.push(host_start + i + 1);
        }
    }
    positions
}

/// Byte length a part consumes when matched (parts are ASCII patterns).
fn part_len(part: &str) -> usize {
    part.len()
}

/// Does `part` (which may contain `^` separators) match at `pos`?
fn part_matches_at(url: &str, pos: usize, part: &str) -> bool {
    let bytes = url.as_bytes();
    let pbytes = part.as_bytes();
    if pos + pbytes.len() > bytes.len() + 1 {
        return false;
    }
    for (i, &pc) in pbytes.iter().enumerate() {
        let ui = pos + i;
        if pc == b'^' {
            match bytes.get(ui) {
                None => return i == pbytes.len() - 1, // '^' may match end of URL
                Some(&ub) => {
                    if is_separator(ub) {
                        continue;
                    }
                    return false;
                }
            }
        }
        match bytes.get(ui) {
            Some(&ub) if ub.eq_ignore_ascii_case(&pc) => continue,
            _ => return false,
        }
    }
    true
}

/// First position ≥ `from` where `part` matches.
fn find_part_from(url: &str, from: usize, part: &str) -> Option<usize> {
    (from..=url.len()).find(|&pos| part_matches_at(url, pos, part))
}

/// Adblock separator class: anything that is not a letter, digit, or one
/// of `_ - . %`.
fn is_separator(b: u8) -> bool {
    !(b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.' || b == b'%')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(s: &str) -> FilterRule {
        FilterRule::parse(s).unwrap()
    }

    #[test]
    fn host_anchor_matches_domain_and_subdomains() {
        let r = rule("||ads.example.com^");
        assert!(r.pattern_matches("https://ads.example.com/x.js"));
        assert!(r.pattern_matches("https://sub.ads.example.com/x.js"));
        assert!(!r.pattern_matches("https://badads.example.com.evil.net/"));
        assert!(!r.pattern_matches("https://example.com/ads.example.com"));
    }

    #[test]
    fn separator_matches_boundary_or_end() {
        let r = rule("||tracker.io^");
        assert!(r.pattern_matches("https://tracker.io/"));
        assert!(r.pattern_matches("https://tracker.io"));
        assert!(r.pattern_matches("https://tracker.io:8443/a"));
        assert!(!r.pattern_matches("https://tracker.iox/"));
    }

    #[test]
    fn substring_rule() {
        let r = rule("/analytics.js");
        assert!(r.pattern_matches("https://cdn.site.com/analytics.js?x=1"));
        assert!(!r.pattern_matches("https://cdn.site.com/analytics.css"));
    }

    #[test]
    fn wildcard_rule() {
        let r = rule("||cdn.*/pixel^");
        assert!(r.pattern_matches("https://cdn.tracker.com/pixel?id=1"));
        assert!(!r.pattern_matches("https://cdn.tracker.com/img"));
    }

    #[test]
    fn start_and_end_anchor() {
        let r = rule("|https://exact.com/path|");
        assert!(r.pattern_matches("https://exact.com/path"));
        assert!(!r.pattern_matches("https://exact.com/path/more"));
        assert!(!r.pattern_matches("https://prefix.com/https://exact.com/path"));
    }

    #[test]
    fn exception_flag() {
        let r = rule("@@||goodcdn.com^$script");
        assert!(r.exception);
        assert_eq!(r.types, vec![ResourceType::Script]);
    }

    #[test]
    fn options_parse() {
        let r = rule("||adnet.com^$script,third-party,domain=news.com|~shop.com");
        assert_eq!(r.third_party, Some(true));
        assert_eq!(r.include_domains, vec!["news.com"]);
        assert_eq!(r.exclude_domains, vec!["shop.com"]);
    }

    #[test]
    fn comments_and_cosmetics_rejected() {
        assert_eq!(
            FilterRule::parse("! comment").unwrap_err(),
            RuleParseError::NotANetworkRule
        );
        assert_eq!(
            FilterRule::parse("example.com##.ad").unwrap_err(),
            RuleParseError::NotANetworkRule
        );
        assert_eq!(
            FilterRule::parse("").unwrap_err(),
            RuleParseError::NotANetworkRule
        );
        assert_eq!(
            FilterRule::parse("[Adblock Plus 2.0]").unwrap_err(),
            RuleParseError::NotANetworkRule
        );
    }

    #[test]
    fn unsupported_option_rejected() {
        assert!(matches!(
            FilterRule::parse("||x.com^$websocket").unwrap_err(),
            RuleParseError::UnsupportedOption(_)
        ));
    }

    #[test]
    fn index_token_prefers_longest() {
        let r = rule("||googletagmanager.com^/gtm.js");
        assert_eq!(r.index_token().as_deref(), Some("googletagmanager"));
    }

    #[test]
    fn dollar_in_path_not_treated_as_options() {
        // "$" followed by non-option-shaped text stays part of the pattern…
        let r = rule("/checkout$49.99");
        assert!(r.pattern_matches("https://x.com/checkout$49.99"));
        // …while "$" followed by an option-shaped word is an (unsupported)
        // option, so the whole rule is skipped — like real parsers.
        assert!(matches!(
            FilterRule::parse("/checkout$price").unwrap_err(),
            RuleParseError::UnsupportedOption(_)
        ));
    }

    #[test]
    fn case_insensitive_matching() {
        let r = rule("||Tracker.COM^");
        assert!(r.pattern_matches("https://tracker.com/"));
    }
}
