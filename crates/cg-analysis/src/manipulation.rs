//! Cross-domain manipulation analysis: overwrites and deletions (§5.5,
//! Table 5, Fig. 8).

use crate::dataset::{replay, Dataset, PairKey};
use cg_entity::EntityMap;
use cg_instrument::CookieApi;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Per-pair manipulation aggregate (one side of Table 5).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PairManipAggregate {
    /// Distinct manipulating entities.
    pub entities: HashSet<String>,
    /// Entity → event count (for top-3 reporting).
    pub entity_counts: HashMap<String, usize>,
    /// Sites where the manipulation occurred.
    pub sites: HashSet<String>,
}

/// §5.5's attribute-change shares over cross-domain overwrites.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct AttrChangeShares {
    /// % of overwrites changing the value.
    pub value_pct: f64,
    /// % changing the expiry.
    pub expires_pct: f64,
    /// % changing the domain attribute.
    pub domain_pct: f64,
    /// % changing the path.
    pub path_pct: f64,
    /// Overwrite events with attribute data.
    pub events: usize,
}

/// The manipulation analysis result.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ManipulationAnalysis {
    /// Sites with ≥1 cross-domain overwrite (document.cookie pairs).
    pub sites_with_overwrite_doc: HashSet<String>,
    /// Sites with ≥1 cross-domain delete (document.cookie pairs).
    pub sites_with_delete_doc: HashSet<String>,
    /// Sites with ≥1 cross-domain overwrite of a CookieStore pair.
    pub sites_with_overwrite_store: HashSet<String>,
    /// Sites with ≥1 cross-domain delete of a CookieStore pair.
    pub sites_with_delete_store: HashSet<String>,
    /// Pairs overwritten cross-domain (document.cookie).
    pub overwritten_pairs_doc: HashSet<PairKey>,
    /// Pairs deleted cross-domain (document.cookie).
    pub deleted_pairs_doc: HashSet<PairKey>,
    /// Pairs overwritten cross-domain (CookieStore).
    pub overwritten_pairs_store: HashSet<PairKey>,
    /// Pairs deleted cross-domain (CookieStore).
    pub deleted_pairs_store: HashSet<PairKey>,
    /// Table 5 (top): per-pair overwrite aggregates.
    pub overwrites_per_pair: HashMap<PairKey, PairManipAggregate>,
    /// Table 5 (bottom): per-pair delete aggregates.
    pub deletes_per_pair: HashMap<PairKey, PairManipAggregate>,
    /// Fig. 8a: overwriting script domain → unique pairs overwritten.
    pub per_overwriter_domain: HashMap<String, HashSet<PairKey>>,
    /// Fig. 8b: deleting script domain → unique pairs deleted.
    pub per_deleter_domain: HashMap<String, HashSet<PairKey>>,
    /// §5.5 attribute-change shares.
    pub attr_changes: AttrChangeShares,
}

/// Runs the manipulation analysis.
pub fn detect_manipulation(ds: &Dataset, entities: &EntityMap) -> ManipulationAnalysis {
    let mut out = ManipulationAnalysis::default();
    let mut attr_totals = (0usize, 0usize, 0usize, 0usize, 0usize); // value, expires, domain, path, n

    for log in &ds.logs {
        let site = log.site();
        let replay = replay(log);
        for &(pair, actor, changes) in &replay.cross_overwrites {
            let key = replay.pairs[pair].key();
            match replay.pairs[pair].api {
                CookieApi::CookieStore => {
                    out.sites_with_overwrite_store.insert(site.to_string());
                    out.overwritten_pairs_store.insert(key.clone());
                }
                _ => {
                    out.sites_with_overwrite_doc.insert(site.to_string());
                    out.overwritten_pairs_doc.insert(key.clone());
                }
            }
            let agg = out.overwrites_per_pair.entry(key.clone()).or_default();
            let entity = entities.entity_of(actor);
            agg.entities.insert(entity.clone());
            *agg.entity_counts.entry(entity).or_insert(0) += 1;
            agg.sites.insert(site.to_string());
            out.per_overwriter_domain
                .entry(actor.to_string())
                .or_default()
                .insert(key);
            if let Some(c) = changes {
                attr_totals.0 += c.value as usize;
                attr_totals.1 += c.expires as usize;
                attr_totals.2 += c.domain as usize;
                attr_totals.3 += c.path as usize;
                attr_totals.4 += 1;
            }
        }
        for &(pair, actor, api) in &replay.cross_deletes {
            let key = replay.pairs[pair].key();
            match api {
                CookieApi::CookieStore => {
                    out.sites_with_delete_store.insert(site.to_string());
                    out.deleted_pairs_store.insert(key.clone());
                }
                _ => {
                    out.sites_with_delete_doc.insert(site.to_string());
                    out.deleted_pairs_doc.insert(key.clone());
                }
            }
            let agg = out.deletes_per_pair.entry(key.clone()).or_default();
            let entity = entities.entity_of(actor);
            agg.entities.insert(entity.clone());
            *agg.entity_counts.entry(entity).or_insert(0) += 1;
            agg.sites.insert(site.to_string());
            out.per_deleter_domain
                .entry(actor.to_string())
                .or_default()
                .insert(key);
        }
    }

    if attr_totals.4 > 0 {
        let n = attr_totals.4 as f64;
        out.attr_changes = AttrChangeShares {
            value_pct: 100.0 * attr_totals.0 as f64 / n,
            expires_pct: 100.0 * attr_totals.1 as f64 / n,
            domain_pct: 100.0 * attr_totals.2 as f64 / n,
            path_pct: 100.0 * attr_totals.3 as f64 / n,
            events: attr_totals.4,
        };
    }
    out
}

/// One Table 5 row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table5Row {
    /// Cookie name.
    pub cookie: String,
    /// Creating domain.
    pub owner: String,
    /// Distinct manipulating entities.
    pub manipulator_entities: usize,
    /// Most frequent manipulating entities.
    pub top_manipulators: Vec<String>,
}

impl ManipulationAnalysis {
    /// Table 5: top `n` overwritten (or deleted) pairs by entity count.
    pub fn table5(&self, deletes: bool, n: usize) -> Vec<Table5Row> {
        let src = if deletes {
            &self.deletes_per_pair
        } else {
            &self.overwrites_per_pair
        };
        let mut rows: Vec<Table5Row> = src
            .iter()
            .map(|(key, agg)| {
                let mut ranked: Vec<(&String, &usize)> = agg.entity_counts.iter().collect();
                ranked.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
                Table5Row {
                    cookie: key.name.clone(),
                    owner: key.owner.clone(),
                    manipulator_entities: agg.entities.len(),
                    top_manipulators: ranked.into_iter().take(3).map(|(e, _)| e.clone()).collect(),
                }
            })
            .collect();
        rows.sort_by(|a, b| {
            b.manipulator_entities
                .cmp(&a.manipulator_entities)
                .then(a.cookie.cmp(&b.cookie))
                // Same name + same count happens across owners (many
                // sites' `_ga`): tie-break on owner too, or the order
                // is HashMap-iteration noise and runs stop being
                // byte-reproducible.
                .then(a.owner.cmp(&b.owner))
        });
        rows.truncate(n);
        rows
    }

    /// Fig. 8: top `n` manipulating script domains by unique pairs.
    pub fn fig8(&self, deletes: bool, n: usize, total_pairs: usize) -> Vec<(String, usize, f64)> {
        let src = if deletes {
            &self.per_deleter_domain
        } else {
            &self.per_overwriter_domain
        };
        let mut rows: Vec<(String, usize)> =
            src.iter().map(|(d, p)| (d.clone(), p.len())).collect();
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

#[cfg(test)]
mod tests {
    use super::*;
    use cg_instrument::{AttrChangeFlags, Recorder, WriteKind};

    fn dataset() -> Dataset {
        let mut r = Recorder::new("site.com", 1);
        r.record_set(
            "cto_bundle",
            "a".repeat(194).as_str(),
            Some("criteo.com"),
            None,
            CookieApi::DocumentCookie,
            WriteKind::Create,
            None,
            false,
            0,
        );
        r.record_set(
            "cto_bundle",
            "b".repeat(258).as_str(),
            Some("pubmatic.com"),
            None,
            CookieApi::DocumentCookie,
            WriteKind::Overwrite,
            Some(AttrChangeFlags {
                value: true,
                expires: true,
                domain: false,
                path: false,
            }),
            false,
            5,
        );
        r.record_set(
            "_uetvid",
            "x".repeat(32).as_str(),
            Some("bing.com"),
            None,
            CookieApi::DocumentCookie,
            WriteKind::Create,
            None,
            false,
            6,
        );
        r.record_set(
            "_uetvid",
            "",
            Some("cookie-script.com"),
            None,
            CookieApi::DocumentCookie,
            WriteKind::Delete,
            None,
            false,
            9,
        );
        Dataset::from_logs(vec![r.finish()])
    }

    #[test]
    fn pubmatic_criteo_case_study() {
        let analysis = detect_manipulation(&dataset(), &cg_entity::builtin_entity_map());
        assert_eq!(analysis.sites_with_overwrite_doc.len(), 1);
        let rows = analysis.table5(false, 10);
        assert_eq!(rows[0].cookie, "cto_bundle");
        assert_eq!(rows[0].owner, "criteo.com");
        assert_eq!(rows[0].top_manipulators, vec!["PubMatic".to_string()]);
    }

    #[test]
    fn consent_manager_delete_detected() {
        let analysis = detect_manipulation(&dataset(), &cg_entity::builtin_entity_map());
        assert_eq!(analysis.sites_with_delete_doc.len(), 1);
        let rows = analysis.table5(true, 10);
        assert_eq!(rows[0].cookie, "_uetvid");
        assert_eq!(rows[0].top_manipulators, vec!["Cookie-Script".to_string()]);
    }

    #[test]
    fn attr_change_shares_computed() {
        let analysis = detect_manipulation(&dataset(), &cg_entity::builtin_entity_map());
        let a = analysis.attr_changes;
        assert_eq!(a.events, 1);
        assert_eq!(a.value_pct, 100.0);
        assert_eq!(a.expires_pct, 100.0);
        assert_eq!(a.domain_pct, 0.0);
    }

    #[test]
    fn fig8_ranks_domains() {
        let analysis = detect_manipulation(&dataset(), &cg_entity::builtin_entity_map());
        let ow = analysis.fig8(false, 5, 100);
        assert_eq!(ow[0].0, "pubmatic.com");
        assert_eq!(ow[0].1, 1);
        let del = analysis.fig8(true, 5, 100);
        assert_eq!(del[0].0, "cookie-script.com");
    }
}
