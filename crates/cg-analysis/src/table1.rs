//! Table 1: prevalence of cross-domain cookie actions across websites
//! and affected cookies, per API.

use crate::census::merge_map;
use crate::dataset::PairKey;
use crate::exfiltration::ExfilAnalysis;
use crate::manipulation::ManipulationAnalysis;
use cg_instrument::CookieApi;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// One Table 1 row: an action on one API's cookies.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ActionRow {
    /// % of sites with ≥1 such cross-domain action.
    pub sites_pct: f64,
    /// % of that API's unique pairs affected.
    pub cookies_pct: f64,
    /// Absolute number of affected pairs.
    pub cookies_count: usize,
}

/// The whole of Table 1.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CrossDomainSummary {
    /// Total analyzable sites.
    pub sites: usize,
    /// Unique `document.cookie` pairs in the dataset.
    pub doc_pairs_total: usize,
    /// Unique CookieStore pairs in the dataset.
    pub store_pairs_total: usize,
    /// document.cookie: exfiltration.
    pub doc_exfiltration: ActionRow,
    /// document.cookie: overwriting.
    pub doc_overwriting: ActionRow,
    /// document.cookie: deleting.
    pub doc_deleting: ActionRow,
    /// CookieStore: exfiltration.
    pub store_exfiltration: ActionRow,
    /// CookieStore: overwriting.
    pub store_overwriting: ActionRow,
    /// CookieStore: deleting.
    pub store_deleting: ActionRow,
}

impl CrossDomainSummary {
    /// Assembles Table 1 over `sites` analyzable sites from the two
    /// analyses and the unique-pair totals: `doc_total` counts
    /// `document.cookie` and HTTP pairs, `store_total` CookieStore pairs.
    pub(crate) fn new(
        sites: usize,
        doc_total: usize,
        store_total: usize,
        exfil: &ExfilAnalysis,
        manip: &ManipulationAnalysis,
    ) -> CrossDomainSummary {
        let n = sites.max(1) as f64;
        let row = |sites: &HashSet<String>, pairs: &HashSet<PairKey>, total: usize| ActionRow {
            sites_pct: 100.0 * sites.len() as f64 / n,
            cookies_pct: if total == 0 {
                0.0
            } else {
                100.0 * pairs.len() as f64 / total as f64
            },
            cookies_count: pairs.len(),
        };
        let doc = |a: &CrossActions| row(&a.sites_doc, &a.pairs_doc, doc_total);
        let store = |a: &CrossActions| row(&a.sites_store, &a.pairs_store, store_total);
        let (ex, ow, del) = (&exfil.cross, &manip.overwrites, &manip.deletes);
        CrossDomainSummary {
            sites,
            doc_pairs_total: doc_total,
            store_pairs_total: store_total,
            doc_exfiltration: doc(ex),
            doc_overwriting: doc(ow),
            doc_deleting: doc(del),
            store_exfiltration: store(ex),
            store_overwriting: store(ow),
            store_deleting: store(del),
        }
    }
}

/// One kind of cross-domain action (exfiltration, overwriting or
/// deleting) over a crawl: where it happened, split by the API of the
/// pair acted on (Table 1), who did it to which pair (Table 2, Table 5),
/// and which script domains did it (Fig. 2, Fig. 8).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CrossActions {
    /// Sites with ≥1 such action on a `document.cookie` or HTTP pair.
    pub sites_doc: HashSet<String>,
    /// Sites with ≥1 such action on a CookieStore pair.
    pub sites_store: HashSet<String>,
    /// `document.cookie` and HTTP pairs acted on.
    pub pairs_doc: HashSet<PairKey>,
    /// CookieStore pairs acted on.
    pub pairs_store: HashSet<PairKey>,
    /// Per pair: acting organization → number of actions.
    pub per_pair: HashMap<PairKey, HashMap<String, usize>>,
    /// Acting script domain → unique pairs it acted on.
    pub per_domain: HashMap<String, HashSet<PairKey>>,
}

impl CrossActions {
    /// Records `actor`'s action on `pair` on `site`: `api` is the API of
    /// the pair (or of the delete), and `entity` the actor's organization,
    /// `None` when the action does not count against the pair's owner.
    pub(crate) fn record(
        &mut self,
        site: &str,
        pair: &PairKey,
        api: CookieApi,
        actor: &str,
        entity: Option<String>,
    ) {
        let (sites, pairs) = match api {
            CookieApi::CookieStore => (&mut self.sites_store, &mut self.pairs_store),
            _ => (&mut self.sites_doc, &mut self.pairs_doc),
        };
        sites.insert(site.to_string());
        pairs.insert(pair.clone());
        if let Some(entity) = entity {
            let counts = self.per_pair.entry(pair.clone()).or_default();
            *counts.entry(entity).or_insert(0) += 1;
        }
        self.per_domain
            .entry(actor.to_string())
            .or_default()
            .insert(pair.clone());
    }

    pub(crate) fn merge(&mut self, other: CrossActions) {
        self.sites_doc.extend(other.sites_doc);
        self.sites_store.extend(other.sites_store);
        self.pairs_doc.extend(other.pairs_doc);
        self.pairs_store.extend(other.pairs_store);
        merge_map(&mut self.per_pair, other.per_pair, add_counts);
        merge_map(&mut self.per_domain, other.per_domain, |a, b| a.extend(b));
    }

    /// Fig. 2 / Fig. 8: the top `n` acting script domains by unique pairs,
    /// with their share of `total_pairs`.
    pub fn top_domains(&self, n: usize, total_pairs: usize) -> Vec<(String, usize, f64)> {
        let mut rows: Vec<(String, usize)> = self
            .per_domain
            .iter()
            .map(|(d, pairs)| (d.clone(), pairs.len()))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows.truncate(n);
        rows.into_iter()
            .map(|(d, c)| {
                let share = if total_pairs == 0 {
                    0.0
                } else {
                    100.0 * c as f64 / total_pairs as f64
                };
                (d, c, share)
            })
            .collect()
    }
}

/// Adds `more`'s counts into `counts`.
pub(crate) fn add_counts(counts: &mut HashMap<String, usize>, more: HashMap<String, usize>) {
    merge_map(counts, more, |a, b| *a += b);
}

/// The `k` most frequent keys of `counts`, ties broken by name.
pub(crate) fn top_k(counts: &HashMap<String, usize>, k: usize) -> Vec<String> {
    let mut v: Vec<(&String, &usize)> = counts.iter().collect();
    v.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    v.into_iter()
        .take(k)
        .map(|(name, _)| name.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::Census;
    use cg_instrument::{CookieApi, Recorder, WriteKind};

    #[test]
    fn summary_assembles() {
        let mut r = Recorder::new("site.com", 1);
        r.record_set(
            "_ga",
            "GA1.1.444332364.17468",
            Some("gtm.com"),
            None,
            CookieApi::DocumentCookie,
            WriteKind::Create,
            None,
            false,
            0,
        );
        r.record_set(
            "_ga",
            "GA1.1.999999999.17468",
            Some("evil.com"),
            None,
            CookieApi::DocumentCookie,
            WriteKind::Overwrite,
            None,
            false,
            1,
        );
        let script = cg_url::Url::parse("https://evil.com/e.js").unwrap();
        r.record_request(
            "https://sink.evil.com/c?id=444332364",
            cg_http::RequestKind::Image,
            Some(&script),
            "site.com",
            None,
            2,
        );
        let summary = Census::of_logs(
            [r.finish()],
            &cg_entity::builtin_entity_map(),
            &cg_filterlist::FilterEngine::new(),
        )
        .finish()
        .table1;

        assert_eq!(summary.sites, 1);
        assert_eq!(summary.doc_pairs_total, 1);
        assert!((summary.doc_exfiltration.sites_pct - 100.0).abs() < 1e-9);
        assert!((summary.doc_overwriting.sites_pct - 100.0).abs() < 1e-9);
        assert!((summary.doc_deleting.sites_pct - 0.0).abs() < 1e-9);
        assert_eq!(summary.doc_exfiltration.cookies_count, 1);
        assert_eq!(summary.store_pairs_total, 0);
    }
}
