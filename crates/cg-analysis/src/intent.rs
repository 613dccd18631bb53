//! Intent classification for cross-domain manipulations — the §5.5
//! "Case Study: Intention behind manipulations" taxonomy, systematized.
//!
//! The paper identifies three recurring explanations for why a script
//! overwrites or deletes a cookie it did not create:
//!
//! * **Collision** — generic names (`cookie_test`, `user_id`, …) targeted
//!   by many unrelated scripts: accidental namespace clashes, not
//!   adversarial behaviour.
//! * **Privacy compliance** — consent-management platforms deleting
//!   tracking identifiers to enforce declined consent (GDPR/CCPA).
//! * **Collusion or competition** — deliberate overwrites of non-trivial,
//!   hard-to-guess identifiers by a *different* ad-tech party (the
//!   `cto_bundle` Criteo→PubMatic case: a 194-char hash replaced by a
//!   258-char hash).
//!
//! Anything that fits none of the patterns is reported as **unclear**,
//! which the paper acknowledges is common — manipulations ship no
//! documentation.

use crate::census::merge_map;
use crate::dataset::{OwnershipReplay, PairKey, PairRef};
use cg_entity::EntityMap;
use cg_instrument::VisitLog;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// The §5.5 intent taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ManipulationIntent {
    /// Generic-name namespace clash.
    Collision,
    /// Consent-platform enforcement deletion.
    PrivacyCompliance,
    /// Deliberate identifier takeover between ad-tech parties.
    CollusionOrCompetition,
    /// No pattern matched.
    Unclear,
}

/// Generic, collision-prone cookie names (the paper names `cookie_test`
/// and `user_id`; the list covers the common test/ID idioms).
const GENERIC_NAMES: &[&str] = &[
    "cookie_test",
    "_cookie_test",
    "test_cookie",
    "cookietest",
    "user_id",
    "userid",
    "uid",
    "_uid",
    "token",
    "_token",
    "session",
    "_session",
    "consent",
    "locale",
    "_guest",
    "_seg",
    "_cart",
];

/// Consent-management platforms whose deletions the paper attributes to
/// privacy compliance (Table 5's deleting column).
const CONSENT_PLATFORM_DOMAINS: &[&str] = &[
    "cookie-script.com",
    "cdn-cookieyes.com",
    "cookieyes.com",
    "cookielaw.org",
    "onetrust.com",
    "osano.com",
    "cookiebot.com",
    "civiccomputing.com",
    "ketchjs.com",
    "usercentrics.eu",
    "trustarc.com",
    "quantcast.com",
    "sourcepoint.com",
];

/// Whether `name` is a generic, collision-prone cookie name. Exact
/// matches plus `<generic>_<suffix>` variants (`user_id_6075`).
pub fn is_generic_name(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    GENERIC_NAMES
        .iter()
        .any(|g| lower == *g || lower.starts_with(&format!("{g}_")))
}

/// Whether `domain` belongs to a known consent-management platform.
pub fn is_consent_platform(domain: &str) -> bool {
    let lower = domain.to_ascii_lowercase();
    CONSENT_PLATFORM_DOMAINS.iter().any(|d| lower == *d)
}

/// Whether a value looks like an opaque identifier (hash/UUID-ish):
/// long, and almost entirely alphanumeric/`-._` with a digit somewhere.
fn looks_hash_like(value: &str) -> bool {
    value.len() >= 16
        && value.chars().any(|c| c.is_ascii_digit())
        && value
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '.' | '_' | '%' | '='))
}

/// One classified manipulation pattern with supporting evidence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntentFinding {
    /// The rank of the visit the manipulation occurred on.
    pub rank: usize,
    /// The manipulated pair.
    pub pair: PairKey,
    /// Overwrite (`false`) or delete (`true`).
    pub delete: bool,
    /// Acting script domain.
    pub actor: String,
    /// The classification.
    pub intent: ManipulationIntent,
    /// Human-readable evidence line.
    pub evidence: String,
}

/// Aggregate intent report (§5.5 case-study section, systematized).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct IntentReport {
    /// Count per intent class.
    pub counts: HashMap<String, usize>,
    /// Every classified event, in rank order; within a visit, overwrites
    /// and then deletes, each in event order.
    pub findings: Vec<IntentFinding>,
    /// Generic names seen manipulated by ≥3 distinct actors, with the
    /// actor count — the paper's "eight distinct cookie_test cookies …
    /// overwritten or deleted by more than 70 unique scripts".
    pub collision_hotspots: Vec<(String, usize)>,
}

impl IntentReport {
    /// Count for one intent class.
    pub fn count(&self, intent: ManipulationIntent) -> usize {
        self.counts.get(intent_label(intent)).copied().unwrap_or(0)
    }
}

fn intent_label(intent: ManipulationIntent) -> &'static str {
    match intent {
        ManipulationIntent::Collision => "collision",
        ManipulationIntent::PrivacyCompliance => "privacy_compliance",
        ManipulationIntent::CollusionOrCompetition => "collusion_or_competition",
        ManipulationIntent::Unclear => "unclear",
    }
}

/// The intent classification of every cross-domain manipulation, as an
/// accumulator.
#[derive(Debug, Clone, Default)]
pub(crate) struct Intents {
    findings: Vec<IntentFinding>,
    /// Generic name → the distinct actors that manipulated it.
    actors_per_generic: HashMap<String, HashSet<String>>,
}

impl Intents {
    /// Classifies one complete visit's cross-domain manipulations,
    /// replayed as `site`: its overwrites, then its deletes.
    pub(crate) fn fold(&mut self, log: &VisitLog, site: &OwnershipReplay, entities: &EntityMap) {
        let overwrites = site
            .cross_overwrites
            .iter()
            .map(|&(i, actor, _)| (i, actor, false));
        let deletes = site
            .cross_deletes
            .iter()
            .map(|&(i, actor, _)| (i, actor, true));
        for (index, actor, delete) in overwrites.chain(deletes) {
            let PairRef { name, owner, .. } = site.pairs[index];
            let consent = is_consent_platform(actor);
            let intent = if delete && consent {
                ManipulationIntent::PrivacyCompliance
            } else if is_generic_name(name) {
                ManipulationIntent::Collision
            } else if !delete
                && hash_takeover(site, index)
                && distinct_entities(entities, actor, owner)
            {
                ManipulationIntent::CollusionOrCompetition
            } else if consent {
                // Consent platforms sometimes *reset* rather than delete.
                ManipulationIntent::PrivacyCompliance
            } else {
                ManipulationIntent::Unclear
            };
            if intent == ManipulationIntent::Collision {
                self.actors_per_generic
                    .entry(name.to_string())
                    .or_default()
                    .insert(actor.to_string());
            }
            let action = if delete { "deleted" } else { "overwrote" };
            self.findings.push(IntentFinding {
                rank: log.rank,
                pair: PairKey {
                    name: name.to_string(),
                    owner: owner.to_string(),
                },
                delete,
                actor: actor.to_string(),
                intent,
                evidence: format!(
                    "{actor} {action} ({name}, {owner}) on {} [{}]",
                    log.site(),
                    intent_label(intent)
                ),
            });
        }
    }

    /// Joins the classification of other ranks: their findings follow
    /// `self`'s until [`Intents::report`] puts all in rank order.
    pub(crate) fn merge(&mut self, other: Intents) {
        self.findings.extend(other.findings);
        merge_map(
            &mut self.actors_per_generic,
            other.actors_per_generic,
            |a, b| a.extend(b),
        );
    }

    /// The report: the findings in rank order, counts per class and the
    /// collision hotspots.
    pub(crate) fn report(mut self) -> IntentReport {
        self.findings.sort_by_key(|f| f.rank);
        let mut counts = HashMap::new();
        for finding in &self.findings {
            *counts
                .entry(intent_label(finding.intent).to_string())
                .or_insert(0) += 1;
        }
        let mut hotspots: Vec<(String, usize)> = self
            .actors_per_generic
            .into_iter()
            .filter(|(_, actors)| actors.len() >= 3)
            .map(|(name, actors)| (name, actors.len()))
            .collect();
        hotspots.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        IntentReport {
            counts,
            findings: self.findings,
            collision_hotspots: hotspots,
        }
    }
}

/// A "collusion or competition" overwrite replaces one opaque identifier
/// with a *different-length* opaque identifier (the `cto_bundle`
/// 194→258 signature).
fn hash_takeover(replay: &OwnershipReplay, pair: usize) -> bool {
    let values = replay.values_of(pair);
    values
        .clone()
        .zip(values.skip(1))
        .any(|(a, b)| looks_hash_like(a) && looks_hash_like(b) && a.len() != b.len())
}

fn distinct_entities(entities: &EntityMap, a: &str, b: &str) -> bool {
    !(entities.contains(a) && entities.contains(b) && entities.same_entity(a, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_instrument::{CookieApi, Recorder, WriteKind};

    /// The intent report of `log`, folded as the census folds it.
    fn classify(log: VisitLog) -> IntentReport {
        let entities = cg_entity::builtin_entity_map();
        crate::Census::of_logs([log], &entities, &cg_filterlist::FilterEngine::new())
            .finish()
            .intents
    }

    fn log_with(
        site: &str,
        sets: &[(&str, &str, &str, WriteKind)], // (name, value, actor, kind)
    ) -> cg_instrument::VisitLog {
        let mut r = Recorder::new(site, 1);
        for (i, (name, value, actor, kind)) in sets.iter().enumerate() {
            r.record_set(
                name,
                value,
                Some(actor),
                None,
                CookieApi::DocumentCookie,
                *kind,
                None,
                false,
                i as u64,
            );
        }
        r.finish()
    }

    #[test]
    fn generic_name_collision_detected() {
        let log = log_with(
            "a.com",
            &[
                ("cookie_test", "1", "cxense.com", WriteKind::Create),
                ("cookie_test", "1", "optable.co", WriteKind::Overwrite),
                ("cookie_test", "1", "enreach.io", WriteKind::Overwrite),
                ("cookie_test", "", "canadian.net", WriteKind::Delete),
            ],
        );
        let report = classify(log);
        assert_eq!(report.count(ManipulationIntent::Collision), 3);
        assert_eq!(report.collision_hotspots.len(), 1);
        assert_eq!(report.collision_hotspots[0].0, "cookie_test");
        assert_eq!(report.collision_hotspots[0].1, 3);
    }

    #[test]
    fn consent_platform_deletion_is_privacy_compliance() {
        let log = log_with(
            "shop.net",
            &[
                (
                    "_fbp",
                    "fb.1.1746746266109.868308499845957651",
                    "facebook.net",
                    WriteKind::Create,
                ),
                ("_fbp", "", "cookie-script.com", WriteKind::Delete),
            ],
        );
        let report = classify(log);
        assert_eq!(report.count(ManipulationIntent::PrivacyCompliance), 1);
        assert_eq!(report.count(ManipulationIntent::Collision), 0);
    }

    #[test]
    fn hash_takeover_is_collusion_or_competition() {
        // The cto_bundle case: 194-char hash replaced by a 258-char hash
        // from a different ad-tech entity.
        let before = "a1".repeat(97); // 194 chars
        let after = "b2".repeat(129); // 258 chars
        let log = log_with(
            "news.org",
            &[
                ("cto_bundle", &before, "criteo.com", WriteKind::Create),
                ("cto_bundle", &after, "pubmatic.com", WriteKind::Overwrite),
            ],
        );
        let report = classify(log);
        assert_eq!(report.count(ManipulationIntent::CollusionOrCompetition), 1);
        let f = &report.findings[0];
        assert_eq!(f.intent, ManipulationIntent::CollusionOrCompetition);
        assert!(f.evidence.contains("pubmatic.com"));
    }

    #[test]
    fn same_entity_hash_swap_is_not_competition() {
        // facebook.net's identifier refreshed by fbcdn.net (same entity):
        // ID sync inside one organization, not a takeover.
        let before = "c3".repeat(30);
        let after = "d4".repeat(40);
        let log = log_with(
            "app.io",
            &[
                ("_fbp", &before, "facebook.net", WriteKind::Create),
                ("_fbp", &after, "fbcdn.net", WriteKind::Overwrite),
            ],
        );
        let report = classify(log);
        assert_eq!(report.count(ManipulationIntent::CollusionOrCompetition), 0);
        assert_eq!(report.count(ManipulationIntent::Unclear), 1);
    }

    #[test]
    fn short_or_stable_values_stay_unclear() {
        let log = log_with(
            "b.com",
            &[
                ("pref_theme", "dark", "widget.io", WriteKind::Create),
                ("pref_theme", "light", "other.net", WriteKind::Overwrite),
            ],
        );
        let report = classify(log);
        assert_eq!(report.count(ManipulationIntent::Unclear), 1);
    }

    #[test]
    fn name_and_platform_helpers() {
        assert!(is_generic_name("cookie_test"));
        assert!(is_generic_name("USER_ID"));
        assert!(is_generic_name("user_id_6075"));
        assert!(!is_generic_name("cto_bundle"));
        assert!(is_consent_platform("cookie-script.com"));
        assert!(!is_consent_platform("facebook.net"));
    }
}
