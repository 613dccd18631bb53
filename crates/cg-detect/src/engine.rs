//! The compiled detector: thresholds plus the lookup tables every
//! visit consults.
//!
//! Mirrors the `GuardEngine` compile-once pattern: all string-keyed
//! registry state (ground-truth labels, entity grouping) is flattened
//! at [`DetectEngine::compile`] time into dense ids, so the per-visit
//! fold compares and aggregates integers:
//!
//! * every labeled cookie name gets a [`NameId`];
//! * every organization gets an [`OrgId`]: mapped domains through the
//!   interned `DomainId → EntityId` table (`cg_entity::CompiledEntityMap`),
//!   unmapped domains (which stand for themselves) through their
//!   `cg_url::intern` id;
//! * every `(name, owner class)` key the label table can produce gets a
//!   dense [`KeyId`]. Name-keyed labels apply under any owner, so a key
//!   the table cannot enumerate gets its id the first time a fold meets
//!   it.
//!
//! Ids are process-local handles, like `DomainId`: the interner's and
//! the late keys' ids depend on thread timing, so nothing may be
//! ordered by an id. Names are resolved, and output sorted by them,
//! only when the report renders.

use crate::features::{DetectKey, Owner};
use cg_entity::{CompiledEntityMap, EntityMap};
use cg_url::DomainId;
use cg_webgen::{CookieLabel, CookieLabels};
use serde::Serialize;
use std::collections::HashMap;
use std::sync::RwLock;

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
    /// Decided exactly up to `SKETCH_K - 2` (see `crate::stats`).
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

/// A labeled cookie name, dense in compile order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NameId(u32);

/// An organization: an entity of the map, or an unmapped domain
/// standing for itself (the `EntityMap::entity_of` convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OrgId(u32);

impl OrgId {
    /// An id no organization gets.
    pub(crate) const MAX: OrgId = OrgId(u32::MAX);
}

/// A scored `(name, owner class)` key; indexes
/// [`DetectStats::keys`](crate::DetectStats::keys).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeyId(u32);

impl KeyId {
    /// The dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    pub(crate) fn from_index(index: usize) -> KeyId {
        KeyId(index as u32)
    }
}

/// Everything the label table says about one cookie name.
struct NameEntry {
    name: String,
    /// `cg_analysis::sketch::key_hash` of the name, the shipper
    /// sketches' key.
    hash: u64,
    /// Label under any owner (site-builder synthetics).
    any_owner: Option<CookieLabel>,
    /// `(owner vendor domain, label)` pairs.
    owners: Vec<(String, CookieLabel)>,
}

/// Key ids in both directions.
#[derive(Default)]
struct KeyTable {
    ids: HashMap<DetectKey, KeyId>,
    keys: Vec<DetectKey>,
}

impl KeyTable {
    fn insert(&mut self, key: DetectKey) -> KeyId {
        let next = KeyId(u32::try_from(self.keys.len()).expect("fewer than 2^32 keys"));
        *self.ids.entry(key).or_insert_with(|| {
            self.keys.push(key);
            next
        })
    }
}

/// The compiled detector. Build once ([`DetectEngine::compile`]), share
/// across fold workers (`Sync`), apply per visit.
pub struct DetectEngine {
    config: DetectConfig,
    entities: CompiledEntityMap,
    /// Entity names, by `EntityId` index.
    entity_names: Vec<String>,
    names: Vec<NameEntry>,
    name_ids: HashMap<String, NameId>,
    /// Every key the label table enumerates; read without a lock.
    keys: KeyTable,
    /// Keys met while folding that the table could not enumerate,
    /// numbered after `keys`.
    late_keys: RwLock<KeyTable>,
}

impl DetectEngine {
    /// Flattens the ground truth and entity map into the hot-path
    /// tables. Deterministic for a given input (late keys aside).
    pub fn compile(
        labels: &CookieLabels,
        entities: EntityMap,
        config: DetectConfig,
    ) -> DetectEngine {
        let compiled = CompiledEntityMap::compile(&entities);
        let mut entity_names = vec![String::new(); compiled.entity_count()];
        for (domain, entity) in entities.iter() {
            if let Some(e) = compiled.entity_of(cg_url::intern(domain)) {
                entity_names[e.index() as usize] = entity.to_string();
            }
        }
        let mut engine = DetectEngine {
            config,
            entities: compiled,
            entity_names,
            names: Vec::new(),
            name_ids: HashMap::new(),
            keys: KeyTable::default(),
            late_keys: RwLock::new(KeyTable::default()),
        };
        for (name, label) in labels.name_overrides() {
            let id = engine.name_entry(name);
            engine.names[id.0 as usize].any_owner = Some(label);
        }
        for (name, owner, label) in labels.pairs() {
            let id = engine.name_entry(name);
            engine.names[id.0 as usize]
                .owners
                .push((owner.to_string(), label));
        }
        for i in 0..engine.names.len() {
            let name = NameId(i as u32);
            for owner in [Owner::Site, Owner::Cloaked] {
                engine.keys.insert(DetectKey { name, owner });
            }
            for o in 0..engine.names[i].owners.len() {
                let org = engine.org_of(&engine.names[i].owners[o].0);
                engine.keys.insert(DetectKey {
                    name,
                    owner: Owner::Entity(org),
                });
            }
        }
        engine
    }

    fn name_entry(&mut self, name: &str) -> NameId {
        if let Some(&id) = self.name_ids.get(name) {
            return id;
        }
        let id = NameId(u32::try_from(self.names.len()).expect("fewer than 2^32 names"));
        self.names.push(NameEntry {
            name: name.to_string(),
            hash: cg_analysis::sketch::key_hash(&[name.as_bytes()]),
            any_owner: None,
            owners: Vec::new(),
        });
        self.name_ids.insert(name.to_string(), id);
        id
    }

    /// The thresholds this engine applies.
    pub fn config(&self) -> &DetectConfig {
        &self.config
    }

    /// The ground-truth label for cookie `name` as written by
    /// `actor_domain`, or `None` when the pair is outside the scored
    /// universe.
    pub fn label_for(&self, name: &str, actor_domain: &str) -> Option<CookieLabel> {
        self.name_id(name)
            .and_then(|id| self.label_of(id, actor_domain))
    }

    /// The id of a labeled cookie name; `None` when no label mentions
    /// it.
    pub fn name_id(&self, name: &str) -> Option<NameId> {
        self.name_ids.get(name).copied()
    }

    /// [`DetectEngine::label_for`] for a name already resolved.
    pub fn label_of(&self, name: NameId, actor_domain: &str) -> Option<CookieLabel> {
        let entry = &self.names[name.0 as usize];
        entry.any_owner.or_else(|| {
            entry
                .owners
                .iter()
                .find(|(o, _)| o.eq_ignore_ascii_case(actor_domain))
                .map(|&(_, l)| l)
        })
    }

    /// The cookie name behind an id.
    pub fn name(&self, name: NameId) -> &str {
        &self.names[name.0 as usize].name
    }

    /// The shipper-sketch hash of a name.
    pub(crate) fn name_hash(&self, name: NameId) -> u64 {
        self.names[name.0 as usize].hash
    }

    /// The organization owning `domain` (the domain itself when
    /// unmapped, interned on first sight).
    pub fn org_of(&self, domain: &str) -> OrgId {
        self.org_of_id(cg_url::intern(domain))
    }

    /// [`DetectEngine::org_of`] for a domain that may never have been
    /// interned; `None` then, and the domain is unmapped.
    pub(crate) fn known_org_of(&self, domain: &str) -> Option<OrgId> {
        cg_url::lookup(domain).map(|id| self.org_of_id(id))
    }

    fn org_of_id(&self, domain: DomainId) -> OrgId {
        match self.entities.entity_of(domain) {
            Some(e) => OrgId(e.index()),
            None => OrgId(
                domain
                    .index()
                    .checked_add(self.entity_names.len() as u32)
                    .expect("organization ids fit in u32"),
            ),
        }
    }

    /// Canonical organization name: the entity's, or the unmapped
    /// domain's.
    pub fn org_name(&self, org: OrgId) -> &str {
        match self.entity_names.get(org.0 as usize) {
            Some(name) => name,
            None => cg_url::name(DomainId::from_index(org.0 - self.entity_names.len() as u32)),
        }
    }

    /// Report rendering of an owner class (`(site)`, `(cloaked)`, or
    /// the organization's name).
    pub fn owner_name(&self, owner: Owner) -> &str {
        match owner {
            Owner::Site => "(site)",
            Owner::Cloaked => "(cloaked)",
            Owner::Entity(org) => self.org_name(org),
        }
    }

    /// The id of `key`, assigning one if the label table could not
    /// enumerate it at compile time.
    pub fn key_id(&self, key: DetectKey) -> KeyId {
        if let Some(&id) = self.keys.ids.get(&key) {
            return id;
        }
        let late = |id: KeyId| KeyId(id.0 + self.keys.keys.len() as u32);
        if let Some(&id) = self.late_keys.read().expect("key table").ids.get(&key) {
            return late(id);
        }
        late(self.late_keys.write().expect("key table").insert(key))
    }

    /// The key behind an id.
    pub fn key(&self, id: KeyId) -> DetectKey {
        match self.keys.keys.get(id.index()) {
            Some(&key) => key,
            None => {
                self.late_keys.read().expect("key table").keys[id.index() - self.keys.keys.len()]
            }
        }
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
        assert_eq!(e.org_of("facebook.net"), e.org_of("fbcdn.net"));
        assert_eq!(e.org_of("nobody.example"), e.org_of("Nobody.Example"));
        assert_ne!(e.org_of("nobody-a.example"), e.org_of("nobody-b.example"));
        assert_eq!(e.org_name(e.org_of("fbcdn.net")), "Meta");
        assert_eq!(e.org_name(e.org_of("Nobody.Example")), "nobody.example");
    }

    #[test]
    fn keys_round_trip_through_ids() {
        let e = engine();
        let fbp = e.name_id("_fbp").expect("_fbp is labeled");
        let meta = DetectKey {
            name: fbp,
            owner: Owner::Entity(e.org_of("facebook.net")),
        };
        let id = e.key_id(meta);
        assert!(id.index() < e.keys.keys.len(), "enumerated at compile");
        assert_eq!(e.key(id), meta);
        // A name-keyed label under an owner no pair lists gets a late
        // id, stable on every later lookup.
        let uid = e.name_id("_cloaked_uid").expect("override name");
        let odd = DetectKey {
            name: uid,
            owner: Owner::Entity(e.org_of("late-owner.example")),
        };
        let late = e.key_id(odd);
        assert!(late.index() >= e.keys.keys.len());
        assert_eq!(e.key_id(odd), late);
        assert_eq!(e.key(late), odd);
        assert_eq!(e.owner_name(odd.owner), "late-owner.example");
    }
}
