//! Prevalence statistics: §5.1 (third-party scripts), §5.2 (cookie API
//! usage), §5.6 (inclusion paths).

use crate::census::merge_map;
use crate::dataset::{OwnershipReplay, PairKey};
use cg_filterlist::{synthetic_lists, FilterEngine, ListInputs, MatchContext, ResourceType};
use cg_instrument::{CookieApi, VisitLog};
use cg_webgen::VendorRegistry;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Builds the nine-list filter engine from the vendor registry — the
/// §4.3 classification setup.
pub fn build_filter_engine(registry: &VendorRegistry) -> FilterEngine {
    let like = registry.filter_list_inputs();
    let inputs = ListInputs {
        ad_domains: like.ads,
        tracking_domains: like.tracking,
        social_domains: like.social,
        annoyance_domains: like.annoyance,
        allowlisted: Vec::new(),
    };
    let lists = synthetic_lists(&inputs);
    let (engine, _skipped) = FilterEngine::from_lists(lists.iter().map(|l| l.text.as_str()));
    engine
}

/// §5.1's headline statistics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PrevalenceStats {
    /// Analyzable sites.
    pub sites: usize,
    /// % of sites with ≥1 third-party script in the main frame.
    pub sites_with_third_party_pct: f64,
    /// Mean distinct third-party script URLs per site.
    pub avg_third_party_scripts: f64,
    /// % of third-party script occurrences classified ad/tracking.
    pub ad_tracking_share_pct: f64,
    /// Mean cookies set by third-party scripts per site.
    pub avg_cookies_third_party: f64,
    /// Mean cookies set by first-party scripts per site.
    pub avg_cookies_first_party: f64,
}

/// §5.6's inclusion-path statistics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct InclusionStats {
    /// Direct third-party inclusions (occurrences).
    pub direct: usize,
    /// Indirect (injected) third-party inclusions.
    pub indirect: usize,
    /// indirect / direct.
    pub indirect_to_direct_ratio: f64,
    /// % of indirect inclusions classified ad/tracking.
    pub indirect_tracking_pct: f64,
}

/// The §5.1 and §5.6 counters. Both read the ad/tracking class of each
/// third-party inclusion, so one fold classifies each inclusion once.
#[derive(Debug, Clone, Default)]
pub(crate) struct Prevalence {
    with_third_party: usize,
    third_party_scripts: usize,
    direct: usize,
    direct_tracking: usize,
    indirect: usize,
    indirect_tracking: usize,
    third_party_cookies: usize,
    first_party_cookies: usize,
}

impl Prevalence {
    pub(crate) fn fold(&mut self, log: &VisitLog, site: &OwnershipReplay, engine: &FilterEngine) {
        let ctx = MatchContext {
            page_domain: log.site().to_string(),
            resource: ResourceType::Script,
            third_party: true,
        };
        let mut urls: HashSet<&str> = HashSet::new();
        for inc in log.third_party_inclusions() {
            let url = log.str(inc.url);
            urls.insert(url);
            let tracking = usize::from(engine.is_tracking(url, &ctx));
            if inc.direct {
                self.direct += 1;
                self.direct_tracking += tracking;
            } else {
                self.indirect += 1;
                self.indirect_tracking += tracking;
            }
        }
        self.with_third_party += usize::from(!urls.is_empty());
        self.third_party_scripts += urls.len();

        // Script-set cookies only (document.cookie + CookieStore).
        let mut third_party: HashSet<&str> = HashSet::new();
        let mut first_party: HashSet<&str> = HashSet::new();
        for pair in &site.pairs {
            if pair.api == CookieApi::HttpHeader {
                continue;
            }
            if pair.owner.eq_ignore_ascii_case(log.site()) {
                first_party.insert(pair.name);
            } else {
                third_party.insert(pair.name);
            }
        }
        self.third_party_cookies += third_party.len();
        self.first_party_cookies += first_party.len();
    }

    pub(crate) fn merge(&mut self, other: Prevalence) {
        self.with_third_party += other.with_third_party;
        self.third_party_scripts += other.third_party_scripts;
        self.direct += other.direct;
        self.direct_tracking += other.direct_tracking;
        self.indirect += other.indirect;
        self.indirect_tracking += other.indirect_tracking;
        self.third_party_cookies += other.third_party_cookies;
        self.first_party_cookies += other.first_party_cookies;
    }

    /// §5.1 over `sites` analyzable sites.
    pub(crate) fn stats(&self, sites: usize) -> PrevalenceStats {
        let n = sites.max(1) as f64;
        let occurrences = self.direct + self.indirect;
        let tracking = self.direct_tracking + self.indirect_tracking;
        PrevalenceStats {
            sites,
            sites_with_third_party_pct: 100.0 * self.with_third_party as f64 / n,
            avg_third_party_scripts: self.third_party_scripts as f64 / n,
            ad_tracking_share_pct: share(tracking, occurrences),
            avg_cookies_third_party: self.third_party_cookies as f64 / n,
            avg_cookies_first_party: self.first_party_cookies as f64 / n,
        }
    }

    /// §5.6.
    pub(crate) fn inclusion(&self) -> InclusionStats {
        InclusionStats {
            direct: self.direct,
            indirect: self.indirect,
            indirect_to_direct_ratio: if self.direct == 0 {
                0.0
            } else {
                self.indirect as f64 / self.direct as f64
            },
            indirect_tracking_pct: share(self.indirect_tracking, self.indirect),
        }
    }
}

/// `part` as a percentage of `whole`, 0 for an empty whole.
fn share(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// §5.2's API-usage statistics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ApiUsageStats {
    /// % of sites where `document.cookie` is invoked.
    pub doc_cookie_sites_pct: f64,
    /// Unique (name, setter-domain) pairs created via `document.cookie`.
    pub doc_cookie_pairs: usize,
    /// Distinct setter script URLs (document.cookie).
    pub doc_cookie_setter_scripts: usize,
    /// Distinct setter domains (document.cookie).
    pub doc_cookie_setter_domains: usize,
    /// % of sites using the CookieStore API.
    pub cookie_store_sites_pct: f64,
    /// Unique pairs created via CookieStore.
    pub cookie_store_pairs: usize,
    /// Distinct CookieStore cookie names.
    pub cookie_store_names: usize,
    /// Share of CookieStore sets carried by the top-2 names.
    pub cookie_store_top2_share_pct: f64,
}

/// The §5.2 counters, with exact unique-pair sets (§5.2, footnote 2),
/// one per API that created the pair.
#[derive(Debug, Clone, Default)]
pub(crate) struct ApiUsage {
    pub(crate) doc_pairs: HashSet<PairKey>,
    pub(crate) store_pairs: HashSet<PairKey>,
    pub(crate) http_pairs: HashSet<PairKey>,
    doc_sites: usize,
    store_sites: usize,
    setter_urls: HashSet<String>,
    setter_domains: HashSet<String>,
    store_name_counts: HashMap<String, usize>,
}

impl ApiUsage {
    pub(crate) fn fold(&mut self, log: &VisitLog, site: &OwnershipReplay) {
        let uses =
            |api| log.reads.iter().any(|r| r.api == api) || log.sets.iter().any(|s| s.api == api);
        self.doc_sites += usize::from(uses(CookieApi::DocumentCookie));
        self.store_sites += usize::from(uses(CookieApi::CookieStore));
        for pair in &site.pairs {
            match pair.api {
                CookieApi::DocumentCookie => {
                    self.doc_pairs.insert(pair.key());
                    if let Some(url) = pair.owner_url {
                        insert_str(&mut self.setter_urls, url);
                    }
                    insert_str(&mut self.setter_domains, pair.owner);
                }
                CookieApi::CookieStore => {
                    self.store_pairs.insert(pair.key());
                    *self
                        .store_name_counts
                        .entry(pair.name.to_string())
                        .or_insert(0) += 1;
                }
                CookieApi::HttpHeader => {
                    self.http_pairs.insert(pair.key());
                }
            }
        }
    }

    pub(crate) fn merge(&mut self, other: ApiUsage) {
        self.doc_pairs.extend(other.doc_pairs);
        self.store_pairs.extend(other.store_pairs);
        self.http_pairs.extend(other.http_pairs);
        self.doc_sites += other.doc_sites;
        self.store_sites += other.store_sites;
        self.setter_urls.extend(other.setter_urls);
        self.setter_domains.extend(other.setter_domains);
        merge_map(
            &mut self.store_name_counts,
            other.store_name_counts,
            |a, b| *a += b,
        );
    }

    /// §5.2 over `sites` analyzable sites.
    pub(crate) fn stats(&self, sites: usize) -> ApiUsageStats {
        let total_store_sets: usize = self.store_name_counts.values().sum();
        let mut counts: Vec<usize> = self.store_name_counts.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top2: usize = counts.iter().take(2).sum();
        let n = sites.max(1) as f64;
        ApiUsageStats {
            doc_cookie_sites_pct: 100.0 * self.doc_sites as f64 / n,
            doc_cookie_pairs: self.doc_pairs.len(),
            doc_cookie_setter_scripts: self.setter_urls.len(),
            doc_cookie_setter_domains: self.setter_domains.len(),
            cookie_store_sites_pct: 100.0 * self.store_sites as f64 / n,
            cookie_store_pairs: self.store_pairs.len(),
            cookie_store_names: self.store_name_counts.len(),
            cookie_store_top2_share_pct: share(top2, total_store_sets),
        }
    }
}

/// Inserts `value` into `set`, allocating only when it is new.
fn insert_str(set: &mut HashSet<String>, value: &str) {
    if !set.contains(value) {
        set.insert(value.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_instrument::{Recorder, WriteKind};
    use cg_webgen::VendorRegistry;

    /// The census tables of `logs`, classified by the nine-list engine.
    fn tables(logs: Vec<VisitLog>) -> crate::Tables {
        let engine = build_filter_engine(&VendorRegistry::new(Vec::new()));
        crate::Census::of_logs(logs, &cg_entity::builtin_entity_map(), &engine).finish()
    }

    fn make_log(site: &str, tp_scripts: &[(&str, bool)]) -> VisitLog {
        let mut r = Recorder::new(site, 1);
        r.record_inclusion(Some(&format!("https://www.{site}/app.js")), true);
        for (url, direct) in tp_scripts {
            r.record_inclusion(Some(url), *direct);
        }
        r.record_set(
            "own",
            "abcdefgh1234",
            Some(site),
            None,
            CookieApi::DocumentCookie,
            WriteKind::Create,
            None,
            false,
            0,
        );
        r.record_set(
            "_ga",
            "GA1.1.123456789.99",
            Some("googletagmanager.com"),
            Some("https://www.googletagmanager.com/gtm.js"),
            CookieApi::DocumentCookie,
            WriteKind::Create,
            None,
            false,
            1,
        );
        r.finish()
    }

    #[test]
    fn prevalence_counts_third_party() {
        let stats = tables(vec![
            make_log(
                "a-site.com",
                &[
                    ("https://www.googletagmanager.com/gtm.js", true),
                    ("https://www.google-analytics.com/analytics.js", false),
                ],
            ),
            make_log("b-site.com", &[]),
        ])
        .prevalence;
        assert_eq!(stats.sites, 2);
        assert!((stats.sites_with_third_party_pct - 50.0).abs() < 1e-9);
        assert!((stats.avg_third_party_scripts - 1.0).abs() < 1e-9);
        // Both tp scripts are tracking (gtm + ga).
        assert!((stats.ad_tracking_share_pct - 100.0).abs() < 1e-9);
        assert!((stats.avg_cookies_third_party - 1.0).abs() < 1e-9);
        assert!((stats.avg_cookies_first_party - 1.0).abs() < 1e-9);
    }

    #[test]
    fn api_usage_pairs_and_sites() {
        let usage = tables(vec![make_log("a-site.com", &[])]).api_usage;
        assert!((usage.doc_cookie_sites_pct - 100.0).abs() < 1e-9);
        assert_eq!(usage.doc_cookie_pairs, 2);
        assert_eq!(usage.doc_cookie_setter_domains, 2);
        assert_eq!(usage.doc_cookie_setter_scripts, 1); // only gtm had a URL
        assert_eq!(usage.cookie_store_pairs, 0);
        assert!((usage.cookie_store_sites_pct - 0.0).abs() < 1e-9);
    }

    #[test]
    fn inclusion_ratio() {
        let stats = tables(vec![make_log(
            "a-site.com",
            &[
                ("https://www.googletagmanager.com/gtm.js", true),
                ("https://www.google-analytics.com/analytics.js", false),
                (
                    "https://securepubads.g.doubleclick.net/tag/js/gpt.js",
                    false,
                ),
            ],
        )])
        .inclusion;
        assert_eq!(stats.direct, 1);
        assert_eq!(stats.indirect, 2);
        assert!((stats.indirect_to_direct_ratio - 2.0).abs() < 1e-9);
        assert!(stats.indirect_tracking_pct > 99.0);
    }
}
