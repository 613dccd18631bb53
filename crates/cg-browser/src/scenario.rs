//! Scenario-driven visits: one posed site, many defense conditions.
//!
//! The crawl entry points ([`crate::crawl_range`], [`crate::crawl_into`])
//! sweep *populations*; adversarial-scenario work (crate `cg-scenarios`)
//! instead re-visits **one** hand-posed blueprint under several defense
//! conditions and compares the outcomes cell by cell. This module is
//! that entry point: [`visit_under_conditions`] runs every condition
//! from a fresh cookie jar with the *same* visit seed, so any outcome
//! difference between two cells is attributable to the defense alone —
//! never to behaviour randomness.

use crate::visit::{visit_site, VisitConfig, VisitOutcome};
use cg_webgen::SiteBlueprint;

/// One condition's result: the configured name plus everything the
/// visit produced.
#[derive(Debug, Clone)]
pub struct ConditionOutcome {
    /// The condition's display name (e.g. `"vanilla"`, `"cookieguard"`).
    pub condition: String,
    /// The full visit outcome under that condition.
    pub outcome: VisitOutcome,
}

/// Visits `site` once per `(name, config)` condition, each from a fresh
/// jar, all with the same `visit_seed`. Conditions run in the given
/// order and the output preserves it; every visit is independent, so
/// callers may shard conditions or scenarios across threads freely.
pub fn visit_under_conditions(
    site: &SiteBlueprint,
    conditions: &[(String, VisitConfig)],
    visit_seed: u64,
) -> Vec<ConditionOutcome> {
    conditions
        .iter()
        .map(|(name, cfg)| ConditionOutcome {
            condition: name.clone(),
            outcome: visit_site(site, cfg, visit_seed),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_webgen::{GenConfig, WebGenerator};
    use cookieguard_core::GuardConfig;

    #[test]
    fn conditions_share_the_seed_and_differ_only_by_defense() {
        let g = WebGenerator::new(GenConfig::small(50), 0xC00C1E);
        let site = (1..=50)
            .map(|r| g.blueprint(r))
            .find(|b| b.spec.crawl_ok)
            .unwrap();
        let conditions = vec![
            ("vanilla".to_string(), VisitConfig::regular()),
            (
                "cookieguard".to_string(),
                VisitConfig::guarded(GuardConfig::strict()),
            ),
            ("vanilla-again".to_string(), VisitConfig::regular()),
        ];
        let out = visit_under_conditions(&site, &conditions, 7);
        assert_eq!(out.len(), 3);
        // Identical configs under the same seed are byte-identical.
        assert_eq!(
            crate::events_json(&out[0].outcome.log, "sets"),
            crate::events_json(&out[2].outcome.log, "sets")
        );
        assert_eq!(
            crate::events_json(&out[0].outcome.log, "requests"),
            crate::events_json(&out[2].outcome.log, "requests")
        );
        // The guarded run carries stats; the vanilla runs do not.
        assert!(out[1].outcome.guard_stats.is_some());
        assert!(out[0].outcome.guard_stats.is_none());
    }
}
