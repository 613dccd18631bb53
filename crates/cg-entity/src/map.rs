//! The entity map data structure.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Maps registrable domains (eTLD+1) to the organization that owns them.
///
/// Lookups are by eTLD+1; callers are expected to have already reduced
/// hosts to registrable domains (`cg_url::registrable_domain`). Unknown
/// domains map to themselves, so every domain always has an entity and
/// `same_entity` degrades gracefully to same-domain comparison — the same
/// fallback the paper's tooling uses for domains absent from Tracker
/// Radar.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EntityMap {
    domain_to_entity: HashMap<String, String>,
    entity_to_domains: HashMap<String, Vec<String>>,
}

/// Key normalization: lowercase with stray edge dots trimmed — the same
/// rule `cg_url::intern` applies, so the string map and its compiled
/// [`crate::CompiledEntityMap`] form agree on every input.
fn normalize(domain: &str) -> String {
    domain.trim_matches('.').to_ascii_lowercase()
}

impl EntityMap {
    /// Creates an empty map.
    pub fn new() -> EntityMap {
        EntityMap::default()
    }

    /// Registers `domain` as belonging to `entity`. Re-registering a
    /// domain moves it to the new entity.
    pub fn insert(&mut self, domain: &str, entity: &str) {
        let domain = normalize(domain);
        if let Some(old) = self
            .domain_to_entity
            .insert(domain.clone(), entity.to_string())
        {
            if let Some(list) = self.entity_to_domains.get_mut(&old) {
                list.retain(|d| d != &domain);
            }
        }
        self.entity_to_domains
            .entry(entity.to_string())
            .or_default()
            .push(domain);
    }

    /// The entity owning `domain`, or the domain itself when unknown.
    pub fn entity_of(&self, domain: &str) -> String {
        let key = normalize(domain);
        self.domain_to_entity.get(&key).cloned().unwrap_or(key)
    }

    /// True when two domains belong to the same organization.
    pub fn same_entity(&self, a: &str, b: &str) -> bool {
        self.entity_of(a) == self.entity_of(b)
    }

    /// All domains registered for `entity` (empty for unknown entities).
    pub fn domains_of(&self, entity: &str) -> &[String] {
        self.entity_to_domains
            .get(entity)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Whether `domain` is present in the map.
    pub fn contains(&self, domain: &str) -> bool {
        self.domain_to_entity.contains_key(&normalize(domain))
    }

    /// Number of registered domains.
    pub fn len(&self) -> usize {
        self.domain_to_entity.len()
    }

    /// True when no domains are registered.
    pub fn is_empty(&self) -> bool {
        self.domain_to_entity.is_empty()
    }

    /// Every `(domain, entity)` pair, in unspecified order — callers
    /// needing determinism (config digests) must sort.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.domain_to_entity
            .iter()
            .map(|(d, e)| (d.as_str(), e.as_str()))
    }

    /// Merges another map into this one (later insertions win).
    pub fn merge(&mut self, other: &EntityMap) {
        #[allow(clippy::iter_over_hash_type)] // `other`'s domains are distinct: order cannot matter
        for (d, e) in &other.domain_to_entity {
            self.insert(d, e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut m = EntityMap::new();
        m.insert("facebook.net", "Meta");
        m.insert("fbcdn.net", "Meta");
        assert_eq!(m.entity_of("facebook.net"), "Meta");
        assert_eq!(m.entity_of("FBCDN.NET"), "Meta");
        assert_eq!(m.domains_of("Meta").len(), 2);
    }

    #[test]
    fn reregistration_moves_domain() {
        let mut m = EntityMap::new();
        m.insert("x.com", "Twitter");
        m.insert("x.com", "X Corp");
        assert_eq!(m.entity_of("x.com"), "X Corp");
        assert!(m.domains_of("Twitter").is_empty());
        assert_eq!(m.domains_of("X Corp"), &["x.com".to_string()]);
    }

    #[test]
    fn merge_combines() {
        let mut a = EntityMap::new();
        a.insert("a.com", "A");
        let mut b = EntityMap::new();
        b.insert("b.com", "B");
        a.merge(&b);
        assert!(a.contains("a.com") && a.contains("b.com"));
        assert_eq!(a.len(), 2);
    }
}

#[cfg(test)]
mod extra_tests {
    use super::*;

    #[test]
    fn same_entity_is_an_equivalence_on_known_domains() {
        let mut m = EntityMap::new();
        m.insert("facebook.net", "Meta");
        m.insert("fbcdn.net", "Meta");
        m.insert("instagram.com", "Meta");
        m.insert("criteo.com", "Criteo");
        // Reflexive, symmetric, transitive within the entity.
        assert!(m.same_entity("facebook.net", "facebook.net"));
        assert!(m.same_entity("facebook.net", "fbcdn.net"));
        assert!(m.same_entity("fbcdn.net", "facebook.net"));
        assert!(m.same_entity("fbcdn.net", "instagram.com"));
        assert!(!m.same_entity("facebook.net", "criteo.com"));
    }

    #[test]
    fn unknown_domains_fall_back_to_self_entities() {
        let m = EntityMap::new();
        // Identity fallback must not equate two distinct unknowns.
        assert!(!m.contains("nobody-a.com"));
        assert_ne!(m.entity_of("nobody-a.com"), m.entity_of("nobody-b.com"));
        assert!(m.same_entity("nobody-a.com", "nobody-a.com"));
    }

    #[test]
    fn merge_unions_and_case_folds() {
        let mut a = EntityMap::new();
        a.insert("Google.COM", "Google");
        let mut b = EntityMap::new();
        b.insert("youtube.com", "Google");
        b.insert("criteo.com", "Criteo");
        a.merge(&b);
        assert!(a.same_entity("google.com", "YOUTUBE.com"));
        assert_eq!(a.domains_of("Google").len(), 2);
        assert!(a.contains("criteo.com"));
    }
}
