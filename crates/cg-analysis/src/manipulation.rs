//! Cross-domain manipulation analysis: overwrites and deletions (§5.5,
//! Table 5, Fig. 8).

use crate::dataset::OwnershipReplay;
use crate::table1::{top_k, CrossActions};
use cg_entity::EntityMap;
use cg_instrument::VisitLog;
use serde::{Deserialize, Serialize};

/// §5.5's attribute-change shares over cross-domain overwrites.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ManipulationAnalysis {
    /// Cross-domain overwrites: Table 5 (top), Fig. 8a.
    pub overwrites: CrossActions,
    /// Cross-domain deletes: Table 5 (bottom), Fig. 8b.
    pub deletes: CrossActions,
    /// Overwrites with attribute data changing the value, expiry, domain
    /// and path, then the number of such overwrites.
    attr_totals: [usize; 5],
}

impl ManipulationAnalysis {
    /// Folds one complete visit's cross-domain overwrites and deletes,
    /// replayed as `site`.
    pub(crate) fn fold(&mut self, log: &VisitLog, site: &OwnershipReplay, entities: &EntityMap) {
        let entity = |actor| Some(entities.entity_of(actor));
        for &(pair, actor, changes) in &site.cross_overwrites {
            let owned = &site.pairs[pair];
            self.overwrites
                .record(log.site(), &owned.key(), owned.api, actor, entity(actor));
            if let Some(c) = changes {
                for (total, changed) in self
                    .attr_totals
                    .iter_mut()
                    .zip([c.value, c.expires, c.domain, c.path, true])
                {
                    *total += usize::from(changed);
                }
            }
        }
        for &(pair, actor, api) in &site.cross_deletes {
            let key = site.pairs[pair].key();
            self.deletes
                .record(log.site(), &key, api, actor, entity(actor));
        }
    }

    /// Joins the analysis of the ranks after `self`'s.
    pub(crate) fn merge(&mut self, other: ManipulationAnalysis) {
        self.overwrites.merge(other.overwrites);
        self.deletes.merge(other.deletes);
        for (total, more) in self.attr_totals.iter_mut().zip(other.attr_totals) {
            *total += more;
        }
    }

    /// §5.5 attribute-change shares.
    pub fn attr_changes(&self) -> AttrChangeShares {
        let [value, expires, domain, path, events] = self.attr_totals;
        if events == 0 {
            return AttrChangeShares::default();
        }
        let n = events as f64;
        AttrChangeShares {
            value_pct: 100.0 * value as f64 / n,
            expires_pct: 100.0 * expires as f64 / n,
            domain_pct: 100.0 * domain as f64 / n,
            path_pct: 100.0 * path as f64 / n,
            events,
        }
    }
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
        let side = if deletes {
            &self.deletes
        } else {
            &self.overwrites
        };
        let mut rows: Vec<Table5Row> = side
            .per_pair
            .iter()
            .map(|(key, counts)| Table5Row {
                cookie: key.name.clone(),
                owner: key.owner.clone(),
                manipulator_entities: counts.len(),
                top_manipulators: top_k(counts, 3),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_instrument::{AttrChangeFlags, CookieApi, Recorder, WriteKind};

    fn analysis() -> ManipulationAnalysis {
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
        let entities = cg_entity::builtin_entity_map();
        crate::Census::of_logs([r.finish()], &entities, &cg_filterlist::FilterEngine::new())
            .finish()
            .manip
    }

    #[test]
    fn pubmatic_criteo_case_study() {
        let analysis = analysis();
        assert_eq!(analysis.overwrites.sites_doc.len(), 1);
        let rows = analysis.table5(false, 10);
        assert_eq!(rows[0].cookie, "cto_bundle");
        assert_eq!(rows[0].owner, "criteo.com");
        assert_eq!(rows[0].top_manipulators, vec!["PubMatic".to_string()]);
    }

    #[test]
    fn consent_manager_delete_detected() {
        let analysis = analysis();
        assert_eq!(analysis.deletes.sites_doc.len(), 1);
        let rows = analysis.table5(true, 10);
        assert_eq!(rows[0].cookie, "_uetvid");
        assert_eq!(rows[0].top_manipulators, vec!["Cookie-Script".to_string()]);
    }

    #[test]
    fn attr_change_shares_computed() {
        let analysis = analysis();
        let a = analysis.attr_changes();
        assert_eq!(a.events, 1);
        assert_eq!(a.value_pct, 100.0);
        assert_eq!(a.expires_pct, 100.0);
        assert_eq!(a.domain_pct, 0.0);
    }

    #[test]
    fn fig8_ranks_domains() {
        let analysis = analysis();
        let ow = analysis.overwrites.top_domains(5, 100);
        assert_eq!(ow[0].0, "pubmatic.com");
        assert_eq!(ow[0].1, 1);
        let del = analysis.deletes.top_domains(5, 100);
        assert_eq!(del[0].0, "cookie-script.com");
    }
}
