//! The compiled detector: thresholds plus the lookup tables every
//! visit consults.
//!
//! Mirrors the `GuardEngine` compile-once pattern: all string-keyed
//! registry state (ground-truth labels, entity grouping) is flattened
//! into hash tables at [`DetectEngine::compile`] time, so the per-visit
//! fold does name-keyed lookups without rebuilding anything. The
//! entity map is additionally compiled to the interned
//! `DomainId → EntityId` table (`cg_entity::CompiledEntityMap`) for the
//! same-organization checks on the hot path.

use cg_entity::{CompiledEntityMap, EntityMap};
use cg_webgen::{CookieLabel, CookieLabels};
use serde::Serialize;
use std::collections::HashMap;

/// Detection thresholds. All knobs that decide a verdict live here so
/// tests (and the scenario hard cases, which run on single visits) can
/// pin them explicitly.
#[derive(Debug, Clone, Serialize)]
pub struct DetectConfig {
    /// Requested lifetime (seconds) at or above which a write counts
    /// as persistent. Matches the ground-truth cutoff
    /// (`cg_webgen::labels::PERSIST_CUTOFF_S`).
    pub persist_cutoff_s: i64,
    /// Fraction of a key's sites that must carry an identifier-shaped
    /// value.
    pub id_ratio_min: f64,
    /// Fraction of a key's sites on which a persistent lifetime was
    /// requested.
    pub persistent_ratio_min: f64,
    /// Self-ship rate floor: fraction of the key's sites on which its
    /// own owner shipped the value off-site. Calibrated below the
    /// long-tail deliberate-exfil rate (~0.24 conditional: 0.30 fire
    /// probability × the plain-encoding share) with margin for
    /// binomial noise, and above the bulk-sampler own-cookie rate
    /// (~0.10).
    pub theta_self: f64,
    /// Foreign-harvest rate floor: the conditional rate at which some
    /// single foreign entity ships the value when co-present. Only
    /// entities that are not broad shippers (see
    /// [`DetectConfig::broad_shipper_names`]) count.
    pub theta_foreign: f64,
    /// Minimum site support before a rate is trusted (respawn evidence
    /// is exempt — one observed respawn is already deliberate).
    pub min_support: u64,
    /// A request URL carrying identifier segments of at least this many
    /// distinct cookies is a bulk beacon: it is discounted as
    /// *foreign* harvest evidence (indiscriminate payload stuffing),
    /// though it still counts as a self-ship.
    pub bulk_distinct_keys: usize,
    /// A request is also bulk when it carries at least this fraction of
    /// the visit's identifier-bearing keys (and at least two) — the
    /// absolute threshold misses jar-emptying samplers on small jars.
    pub bulk_jar_fraction: f64,
    /// An organization that ships more than this many *distinct* cookie
    /// names across the crawl is a broad shipper: its per-request picks
    /// may be few, but globally it harvests whatever exists, which is
    /// bulk behaviour — its foreign-harvest evidence is discounted.
    /// Deliberate harvesters ship small fixed name lists everywhere.
    pub broad_shipper_names: u64,
}

impl Default for DetectConfig {
    fn default() -> DetectConfig {
        DetectConfig {
            persist_cutoff_s: cg_webgen::labels::PERSIST_CUTOFF_S,
            id_ratio_min: 0.5,
            persistent_ratio_min: 0.5,
            theta_self: 0.18,
            theta_foreign: 0.18,
            min_support: 4,
            bulk_distinct_keys: 4,
            bulk_jar_fraction: 0.6,
            broad_shipper_names: 16,
        }
    }
}

/// The compiled detector. Build once ([`DetectEngine::compile`]), share
/// across fold workers (`Sync`), apply per visit.
pub struct DetectEngine {
    config: DetectConfig,
    entities: EntityMap,
    compiled_entities: CompiledEntityMap,
    /// name → [(owner vendor domain, label)] — the registry table,
    /// re-keyed by name so hot-path lookups never allocate a tuple key.
    by_name: HashMap<String, Vec<(String, CookieLabel)>>,
    /// Site-builder synthetics, labeled by name alone.
    overrides: HashMap<String, CookieLabel>,
}

impl DetectEngine {
    /// Flattens the ground truth and entity map into the hot-path
    /// tables. Deterministic for a given input.
    pub fn compile(
        labels: &CookieLabels,
        entities: EntityMap,
        config: DetectConfig,
    ) -> DetectEngine {
        let mut by_name: HashMap<String, Vec<(String, CookieLabel)>> = HashMap::new();
        for (name, owner, label) in labels.pairs() {
            by_name
                .entry(name.to_string())
                .or_default()
                .push((owner.to_string(), label));
        }
        let overrides: HashMap<String, CookieLabel> = labels
            .name_overrides()
            .map(|(n, l)| (n.to_string(), l))
            .collect();
        let compiled_entities = CompiledEntityMap::compile(&entities);
        DetectEngine {
            config,
            entities,
            compiled_entities,
            by_name,
            overrides,
        }
    }

    /// The thresholds this engine applies.
    pub fn config(&self) -> &DetectConfig {
        &self.config
    }

    /// The string-level entity map (aggregation keys are entity names).
    pub fn entities(&self) -> &EntityMap {
        &self.entities
    }

    /// The ground-truth label for cookie `name` as written by
    /// `actor_domain`, or `None` when the pair is outside the scored
    /// universe.
    pub fn label_for(&self, name: &str, actor_domain: &str) -> Option<CookieLabel> {
        if let Some(&l) = self.overrides.get(name) {
            return Some(l);
        }
        self.by_name.get(name).and_then(|owners| {
            owners
                .iter()
                .find(|(o, _)| o.eq_ignore_ascii_case(actor_domain))
                .map(|&(_, l)| l)
        })
    }

    /// Same-organization check through the interned
    /// `DomainId → EntityId` table, with the guard's convention for
    /// unknown domains: identity is plain domain equality, grouping
    /// only applies to mapped domains.
    pub fn same_entity(&self, a: &str, b: &str) -> bool {
        a.eq_ignore_ascii_case(b)
            || self
                .compiled_entities
                .same_entity(cg_url::intern(a), cg_url::intern(b))
    }

    /// Canonical entity name for aggregation keys (the domain itself
    /// when unmapped).
    pub fn entity_of(&self, domain: &str) -> String {
        self.entities.entity_of(domain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_webgen::{GenConfig, WebGenerator};

    fn engine() -> DetectEngine {
        let gen = WebGenerator::new(GenConfig::small(100), 3);
        let labels = CookieLabels::derive(gen.registry());
        DetectEngine::compile(
            &labels,
            cg_entity::builtin_entity_map(),
            DetectConfig::default(),
        )
    }

    #[test]
    fn compiled_lookup_matches_registry_labels() {
        let e = engine();
        assert_eq!(
            e.label_for("_fbp", "facebook.net"),
            Some(CookieLabel::Tracker)
        );
        assert_eq!(
            e.label_for("OptanonConsent", "cookielaw.org"),
            Some(CookieLabel::Functional)
        );
        assert_eq!(e.label_for("_fbp", "unrelated.example"), None);
        // Overrides resolve regardless of owner.
        assert_eq!(
            e.label_for("_cloaked_uid", "whatever.example"),
            Some(CookieLabel::Tracker)
        );
    }

    #[test]
    fn entity_grouping_follows_builtin_map() {
        let e = engine();
        assert!(e.same_entity("facebook.net", "fbcdn.net"));
        assert!(e.same_entity("nobody.example", "nobody.example"));
        assert!(!e.same_entity("nobody-a.example", "nobody-b.example"));
    }
}
