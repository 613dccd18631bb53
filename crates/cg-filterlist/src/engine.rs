//! The filter engine: many rules, one fast classification query.

use crate::rule::{FilterRule, ResourceType};
use std::collections::HashMap;

/// The request context a classification runs in — mirrors what
/// `adblockparser` receives: the URL, the resource type, and whether the
/// request is third-party relative to the page.
#[derive(Debug, Clone)]
pub struct MatchContext {
    /// The page's registrable domain (for `domain=` options).
    pub page_domain: String,
    /// The resource type of the fetch.
    pub resource: ResourceType,
    /// Whether the URL's domain differs from the page's.
    pub third_party: bool,
}

/// The outcome of a classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// A blocking rule matched (the URL is advertising/tracking).
    Blocked {
        /// The raw text of the rule that matched.
        rule: String,
    },
    /// An exception (`@@`) rule overrode blocking rules.
    Allowed {
        /// The raw text of the exception rule.
        rule: String,
    },
    /// No rule matched.
    NoMatch,
}

impl Verdict {
    /// True when the URL would be classified advertising/tracking —
    /// the binary label the measurement pipeline uses (§4.3).
    pub fn is_tracking(&self) -> bool {
        matches!(self, Verdict::Blocked { .. })
    }
}

/// A compiled set of filter rules with a token prefilter.
///
/// Rules with a distinctive literal token ≥3 bytes are indexed under that
/// token; a query only evaluates rules whose token occurs in the URL,
/// plus the small set of un-indexable rules. This is the standard design
/// of production adblock engines, scaled down.
#[derive(Debug, Default)]
pub struct FilterEngine {
    block_by_token: HashMap<String, Vec<FilterRule>>,
    block_generic: Vec<FilterRule>,
    except_by_token: HashMap<String, Vec<FilterRule>>,
    except_generic: Vec<FilterRule>,
    rule_count: usize,
}

impl FilterEngine {
    /// An empty engine.
    pub fn new() -> FilterEngine {
        FilterEngine::default()
    }

    /// Compiles an engine from raw list text(s); unparseable lines are
    /// skipped (counted by the second return value), as real consumers do.
    pub fn from_lists<'a>(lists: impl IntoIterator<Item = &'a str>) -> (FilterEngine, usize) {
        let mut engine = FilterEngine::new();
        let mut skipped = 0;
        for list in lists {
            for line in list.lines() {
                match FilterRule::parse(line) {
                    Ok(rule) => engine.add(rule),
                    Err(_) => skipped += 1,
                }
            }
        }
        (engine, skipped)
    }

    /// Adds a single compiled rule.
    pub fn add(&mut self, rule: FilterRule) {
        self.rule_count += 1;
        let token = rule.index_token();
        let (by_token, generic) = if rule.exception {
            (&mut self.except_by_token, &mut self.except_generic)
        } else {
            (&mut self.block_by_token, &mut self.block_generic)
        };
        match token {
            Some(t) => by_token.entry(t).or_default().push(rule),
            None => generic.push(rule),
        }
    }

    /// Number of compiled rules.
    pub fn len(&self) -> usize {
        self.rule_count
    }

    /// True when no rules are loaded.
    pub fn is_empty(&self) -> bool {
        self.rule_count == 0
    }

    /// Classifies a URL in context. Exceptions override blocks, as in the
    /// Adblock semantics.
    pub fn classify(&self, url: &str, ctx: &MatchContext) -> Verdict {
        match self.deciding_rule(url, ctx) {
            Some((rule, true)) => Verdict::Blocked {
                rule: rule.raw.clone(),
            },
            Some((rule, false)) => Verdict::Allowed {
                rule: rule.raw.clone(),
            },
            None => Verdict::NoMatch,
        }
    }

    /// Convenience wrapper: is this URL advertising/tracking in context?
    pub fn is_tracking(&self, url: &str, ctx: &MatchContext) -> bool {
        matches!(self.deciding_rule(url, ctx), Some((_, true)))
    }

    /// The rule that decides `url` in context, and whether it blocks.
    fn deciding_rule(&self, url: &str, ctx: &MatchContext) -> Option<(&FilterRule, bool)> {
        let url = url.to_ascii_lowercase();
        let tokens = url_tokens(&url);
        let (except, block) = (&self.except_by_token, &self.block_by_token);
        if let Some(rule) = self.first_match(except, &self.except_generic, &url, &tokens, ctx) {
            return Some((rule, false));
        }
        self.first_match(block, &self.block_generic, &url, &tokens, ctx)
            .map(|rule| (rule, true))
    }

    fn first_match<'e>(
        &self,
        by_token: &'e HashMap<String, Vec<FilterRule>>,
        generic: &'e [FilterRule],
        url: &str,
        tokens: &[&str],
        ctx: &MatchContext,
    ) -> Option<&'e FilterRule> {
        for &t in tokens {
            if let Some(rules) = by_token.get(t) {
                if let Some(r) = rules.iter().find(|r| rule_applies(r, url, ctx)) {
                    return Some(r);
                }
            }
        }
        generic.iter().find(|r| rule_applies(r, url, ctx))
    }
}

fn rule_applies(rule: &FilterRule, url: &str, ctx: &MatchContext) -> bool {
    if !rule.types.is_empty() && !rule.types.contains(&ctx.resource) {
        return false;
    }
    if let Some(tp) = rule.third_party {
        if tp != ctx.third_party {
            return false;
        }
    }
    if !rule.include_domains.is_empty()
        && !rule
            .include_domains
            .iter()
            .any(|d| domain_covers(d, &ctx.page_domain))
    {
        return false;
    }
    if rule
        .exclude_domains
        .iter()
        .any(|d| domain_covers(d, &ctx.page_domain))
    {
        return false;
    }
    rule.pattern_matches(url)
}

fn domain_covers(rule_domain: &str, page_domain: &str) -> bool {
    page_domain == rule_domain
        || (page_domain.len() > rule_domain.len()
            && page_domain.ends_with(rule_domain)
            && page_domain.as_bytes()[page_domain.len() - rule_domain.len() - 1] == b'.')
}

/// Tokens of a URL for index lookup: maximal `[a-z0-9_-]` runs ≥3 bytes.
fn url_tokens(url: &str) -> Vec<&str> {
    url.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '-'))
        .filter(|t| t.len() >= 3)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(rules: &[&str]) -> FilterEngine {
        let text = rules.join("\n");
        let (e, _) = FilterEngine::from_lists([text.as_str()]);
        e
    }

    fn ctx(page: &str, res: ResourceType, tp: bool) -> MatchContext {
        MatchContext {
            page_domain: page.into(),
            resource: res,
            third_party: tp,
        }
    }

    #[test]
    fn blocks_tracker_script() {
        let e = engine(&["||google-analytics.com^$script"]);
        let c = ctx("news.com", ResourceType::Script, true);
        assert!(e.is_tracking("https://www.google-analytics.com/analytics.js", &c));
        assert!(!e.is_tracking("https://www.google.com/maps.js", &c));
    }

    #[test]
    fn resource_type_restriction() {
        let e = engine(&["||pixel.net^$image"]);
        assert!(e.is_tracking(
            "https://pixel.net/1.gif",
            &ctx("a.com", ResourceType::Image, true)
        ));
        assert!(!e.is_tracking(
            "https://pixel.net/1.js",
            &ctx("a.com", ResourceType::Script, true)
        ));
    }

    #[test]
    fn third_party_restriction() {
        let e = engine(&["||cdn.com^$third-party"]);
        assert!(e.is_tracking(
            "https://cdn.com/x",
            &ctx("a.com", ResourceType::Script, true)
        ));
        assert!(!e.is_tracking(
            "https://cdn.com/x",
            &ctx("cdn.com", ResourceType::Script, false)
        ));
    }

    #[test]
    fn exception_overrides_block() {
        let e = engine(&["||ads.com^", "@@||ads.com/allowed^"]);
        let c = ctx("a.com", ResourceType::Script, true);
        assert!(e.is_tracking("https://ads.com/banner.js", &c));
        let v = e.classify("https://ads.com/allowed/lib.js", &c);
        assert!(matches!(v, Verdict::Allowed { .. }));
    }

    #[test]
    fn domain_option_scopes_to_page() {
        let e = engine(&["||widget.io^$domain=news.com"]);
        assert!(e.is_tracking(
            "https://widget.io/w.js",
            &ctx("news.com", ResourceType::Script, true)
        ));
        assert!(e.is_tracking(
            "https://widget.io/w.js",
            &ctx("sub.news.com", ResourceType::Script, true)
        ));
        assert!(!e.is_tracking(
            "https://widget.io/w.js",
            &ctx("shop.com", ResourceType::Script, true)
        ));
    }

    #[test]
    fn excluded_domain_suppresses() {
        let e = engine(&["||widget.io^$domain=~shop.com"]);
        assert!(e.is_tracking(
            "https://widget.io/w.js",
            &ctx("news.com", ResourceType::Script, true)
        ));
        assert!(!e.is_tracking(
            "https://widget.io/w.js",
            &ctx("shop.com", ResourceType::Script, true)
        ));
    }

    #[test]
    fn skips_bad_lines_counts_them() {
        let (e, skipped) = FilterEngine::from_lists(["! comment\n||good.com^\nbad##cosmetic\n\n"]);
        assert_eq!(e.len(), 1);
        assert_eq!(skipped, 3);
    }

    #[test]
    fn generic_substring_rules_still_match() {
        // "/ads/" has a token "ads" — craft one with only short tokens.
        let e = engine(&["/a1/"]);
        assert!(e.is_tracking(
            "https://x.com/a1/z",
            &ctx("a.com", ResourceType::Other, true)
        ));
    }

    #[test]
    fn no_match_verdict() {
        let e = engine(&["||tracker.com^"]);
        assert_eq!(
            e.classify(
                "https://benign.org/app.js",
                &ctx("a.com", ResourceType::Script, true)
            ),
            Verdict::NoMatch
        );
    }
}
