//! Prevalence statistics: §5.1 (third-party scripts), §5.2 (cookie API
//! usage), §5.6 (inclusion paths).

use crate::dataset::{replay, Dataset};
use cg_filterlist::{synthetic_lists, FilterEngine, ListInputs, MatchContext, ResourceType};
use cg_instrument::CookieApi;
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
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
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

/// Computes §5.1.
pub fn prevalence_stats(ds: &Dataset, engine: &FilterEngine) -> PrevalenceStats {
    let mut with_tp = 0usize;
    let mut tp_script_counts = 0usize;
    let mut tp_occurrences = 0usize;
    let mut tracking_occurrences = 0usize;
    let mut tp_cookie_total = 0usize;
    let mut fp_cookie_total = 0usize;

    for log in &ds.logs {
        let mut tp_urls: HashSet<&str> = HashSet::new();
        for inc in log.third_party_inclusions() {
            tp_urls.insert(log.str(inc.url));
            tp_occurrences += 1;
            let ctx = MatchContext {
                page_domain: log.site().to_string(),
                resource: ResourceType::Script,
                third_party: true,
            };
            if engine.is_tracking(log.str(inc.url), &ctx) {
                tracking_occurrences += 1;
            }
        }
        if !tp_urls.is_empty() {
            with_tp += 1;
        }
        tp_script_counts += tp_urls.len();

        // Script-set cookies only (document.cookie + CookieStore).
        let mut tp_names: HashSet<&str> = HashSet::new();
        let mut fp_names: HashSet<&str> = HashSet::new();
        for pair in replay(log).pairs {
            if pair.api == CookieApi::HttpHeader {
                continue;
            }
            if pair.owner.eq_ignore_ascii_case(log.site()) {
                fp_names.insert(pair.name);
            } else {
                tp_names.insert(pair.name);
            }
        }
        tp_cookie_total += tp_names.len();
        fp_cookie_total += fp_names.len();
    }

    let n = ds.site_count().max(1) as f64;
    PrevalenceStats {
        sites: ds.site_count(),
        sites_with_third_party_pct: 100.0 * with_tp as f64 / n,
        avg_third_party_scripts: tp_script_counts as f64 / n,
        ad_tracking_share_pct: if tp_occurrences == 0 {
            0.0
        } else {
            100.0 * tracking_occurrences as f64 / tp_occurrences as f64
        },
        avg_cookies_third_party: tp_cookie_total as f64 / n,
        avg_cookies_first_party: fp_cookie_total as f64 / n,
    }
}

/// §5.2's API-usage statistics.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
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

/// Computes §5.2.
pub fn api_usage(ds: &Dataset) -> ApiUsageStats {
    let mut doc_sites = 0usize;
    let mut store_sites = 0usize;
    let mut setter_urls: HashSet<&str> = HashSet::new();
    let mut setter_domains: HashSet<&str> = HashSet::new();
    let mut store_name_counts: HashMap<&str, usize> = HashMap::new();

    for log in &ds.logs {
        let uses_doc = log.reads.iter().any(|r| r.api == CookieApi::DocumentCookie)
            || log.sets.iter().any(|s| s.api == CookieApi::DocumentCookie);
        if uses_doc {
            doc_sites += 1;
        }
        let uses_store = log.reads.iter().any(|r| r.api == CookieApi::CookieStore)
            || log.sets.iter().any(|s| s.api == CookieApi::CookieStore);
        if uses_store {
            store_sites += 1;
        }
        for pair in replay(log).pairs {
            match pair.api {
                CookieApi::DocumentCookie => {
                    setter_urls.extend(pair.owner_url);
                    setter_domains.insert(pair.owner);
                }
                CookieApi::CookieStore => {
                    *store_name_counts.entry(pair.name).or_insert(0) += 1;
                }
                CookieApi::HttpHeader => {}
            }
        }
    }

    let doc_pairs = ds.unique_pairs(CookieApi::DocumentCookie).len();
    let store_pairs = ds.unique_pairs(CookieApi::CookieStore).len();
    let total_store_sets: usize = store_name_counts.values().sum();
    let mut counts: Vec<usize> = store_name_counts.values().copied().collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let top2: usize = counts.iter().take(2).sum();

    let n = ds.site_count().max(1) as f64;
    ApiUsageStats {
        doc_cookie_sites_pct: 100.0 * doc_sites as f64 / n,
        doc_cookie_pairs: doc_pairs,
        doc_cookie_setter_scripts: setter_urls.len(),
        doc_cookie_setter_domains: setter_domains.len(),
        cookie_store_sites_pct: 100.0 * store_sites as f64 / n,
        cookie_store_pairs: store_pairs,
        cookie_store_names: store_name_counts.len(),
        cookie_store_top2_share_pct: if total_store_sets == 0 {
            0.0
        } else {
            100.0 * top2 as f64 / total_store_sets as f64
        },
    }
}

/// §5.6's inclusion-path statistics.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
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

/// Computes §5.6.
pub fn inclusion_stats(ds: &Dataset, engine: &FilterEngine) -> InclusionStats {
    let mut direct = 0usize;
    let mut indirect = 0usize;
    let mut indirect_tracking = 0usize;
    for log in &ds.logs {
        for inc in log.third_party_inclusions() {
            if inc.direct {
                direct += 1;
            } else {
                indirect += 1;
                let ctx = MatchContext {
                    page_domain: log.site().to_string(),
                    resource: ResourceType::Script,
                    third_party: true,
                };
                if engine.is_tracking(log.str(inc.url), &ctx) {
                    indirect_tracking += 1;
                }
            }
        }
    }
    InclusionStats {
        direct,
        indirect,
        indirect_to_direct_ratio: if direct == 0 {
            0.0
        } else {
            indirect as f64 / direct as f64
        },
        indirect_tracking_pct: if indirect == 0 {
            0.0
        } else {
            100.0 * indirect_tracking as f64 / indirect as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_instrument::{Recorder, WriteKind};
    use cg_webgen::VendorRegistry;

    fn engine() -> FilterEngine {
        build_filter_engine(&VendorRegistry::new(Vec::new()))
    }

    fn make_log(site: &str, tp_scripts: &[(&str, bool)]) -> cg_instrument::VisitLog {
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
        let ds = Dataset::from_logs(vec![
            make_log(
                "a-site.com",
                &[
                    ("https://www.googletagmanager.com/gtm.js", true),
                    ("https://www.google-analytics.com/analytics.js", false),
                ],
            ),
            make_log("b-site.com", &[]),
        ]);
        let stats = prevalence_stats(&ds, &engine());
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
        let ds = Dataset::from_logs(vec![make_log("a-site.com", &[])]);
        let usage = api_usage(&ds);
        assert!((usage.doc_cookie_sites_pct - 100.0).abs() < 1e-9);
        assert_eq!(usage.doc_cookie_pairs, 2);
        assert_eq!(usage.doc_cookie_setter_domains, 2);
        assert_eq!(usage.doc_cookie_setter_scripts, 1); // only gtm had a URL
        assert_eq!(usage.cookie_store_pairs, 0);
        assert!((usage.cookie_store_sites_pct - 0.0).abs() < 1e-9);
    }

    #[test]
    fn inclusion_ratio() {
        let ds = Dataset::from_logs(vec![make_log(
            "a-site.com",
            &[
                ("https://www.googletagmanager.com/gtm.js", true),
                ("https://www.google-analytics.com/analytics.js", false),
                (
                    "https://securepubads.g.doubleclick.net/tag/js/gpt.js",
                    false,
                ),
            ],
        )]);
        let stats = inclusion_stats(&ds, &engine());
        assert_eq!(stats.direct, 1);
        assert_eq!(stats.indirect, 2);
        assert!((stats.indirect_to_direct_ratio - 2.0).abs() < 1e-9);
        assert!(stats.indirect_tracking_pct > 99.0);
    }
}
