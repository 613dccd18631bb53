//! Staged deployment (§8 "Toward Practical Deployment").
//!
//! The paper sketches the rollout path browser vendors have historically
//! taken for disruptive privacy features — Safari's ITP shipped in 2017
//! with limited cookie blocking, reached full third-party blocking in
//! 2020, and bridged the transition with "grandfathering" of existing
//! site data. This module models that ladder for CookieGuard:
//!
//! * a [`DeploymentStage`] determines what share of page views run with
//!   the guard attached (opt-in → private-browsing-only → default-on);
//! * [`PrivacyPreset`]s are the user-selectable policy bundles the paper
//!   proposes ("expose CookieGuard's policies as user-selectable privacy
//!   settings");
//! * grandfathering itself lives on [`crate::GuardSession::grandfather`].
//!
//! The rollout *simulation* — weighting protection and breakage by the
//! guarded share — lives in `cg-experiments`; this module owns the
//! policy-level vocabulary so library users can configure deployments
//! without the experiment harness.

use crate::config::{GuardConfig, InlinePolicy};
use cg_entity::EntityMap;

/// Where in the rollout ladder a browser population sits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeploymentStage {
    /// The guard is not shipped: 0% of page views are protected.
    Disabled,
    /// Shipped behind a flag; `adoption` is the fraction of users who
    /// turned it on (0.0–1.0).
    OptIn {
        /// Fraction of users with the flag enabled.
        adoption: f64,
    },
    /// Enforced only in private-browsing windows; `private_share` is the
    /// fraction of page views that happen in private mode.
    PrivateBrowsing {
        /// Fraction of page views in private windows.
        private_share: f64,
    },
    /// Default-on for everyone.
    DefaultOn,
}

impl DeploymentStage {
    /// The fraction of page views the guard protects at this stage.
    pub fn guarded_share(&self) -> f64 {
        match self {
            DeploymentStage::Disabled => 0.0,
            DeploymentStage::OptIn { adoption } => adoption.clamp(0.0, 1.0),
            DeploymentStage::PrivateBrowsing { private_share } => private_share.clamp(0.0, 1.0),
            DeploymentStage::DefaultOn => 1.0,
        }
    }

    /// A human label for reports.
    pub fn label(&self) -> String {
        match self {
            DeploymentStage::Disabled => "disabled".to_string(),
            DeploymentStage::OptIn { adoption } => {
                format!("opt-in ({:.0}% adoption)", adoption * 100.0)
            }
            DeploymentStage::PrivateBrowsing { private_share } => {
                format!("private browsing ({:.0}% of views)", private_share * 100.0)
            }
            DeploymentStage::DefaultOn => "default on".to_string(),
        }
    }

    /// The ITP-style ladder the paper envisions: flag → private mode →
    /// default, with adoption/share figures in line with published
    /// browser-telemetry ballparks.
    pub fn ladder() -> Vec<DeploymentStage> {
        vec![
            DeploymentStage::Disabled,
            DeploymentStage::OptIn { adoption: 0.05 },
            DeploymentStage::PrivateBrowsing {
                private_share: 0.12,
            },
            DeploymentStage::OptIn { adoption: 0.40 },
            DeploymentStage::DefaultOn,
        ]
    }
}

/// User-selectable policy bundles — the paper's "user-selectable privacy
/// settings, allowing users to balance functionality and privacy".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrivacyPreset {
    /// Maximum compatibility: relaxed inline handling and entity
    /// grouping.
    Permissive,
    /// The paper's recommended operating point (§7.2): strict inline
    /// handling *with* entity grouping — 3% residual breakage.
    Balanced,
    /// The paper's evaluation configuration (§7.1): strict inline
    /// handling, no grouping — maximum isolation, 11% SSO breakage.
    Strict,
}

impl PrivacyPreset {
    /// Materializes the preset into a [`GuardConfig`]. `entities` feeds
    /// the grouping presets; pass the Tracker-Radar-style map.
    pub fn config(&self, entities: &EntityMap) -> GuardConfig {
        match self {
            PrivacyPreset::Permissive => GuardConfig {
                inline_policy: InlinePolicy::Relaxed,
                entity_map: Some(entities.clone()),
                whitelist: Default::default(),
            },
            PrivacyPreset::Balanced => GuardConfig::strict().with_entity_grouping(entities.clone()),
            PrivacyPreset::Strict => GuardConfig::strict(),
        }
    }

    /// All presets, weakest first.
    pub fn all() -> [PrivacyPreset; 3] {
        [
            PrivacyPreset::Permissive,
            PrivacyPreset::Balanced,
            PrivacyPreset::Strict,
        ]
    }

    /// A human label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            PrivacyPreset::Permissive => "permissive",
            PrivacyPreset::Balanced => "balanced",
            PrivacyPreset::Strict => "strict",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guarded_share_per_stage() {
        assert_eq!(DeploymentStage::Disabled.guarded_share(), 0.0);
        assert_eq!(DeploymentStage::DefaultOn.guarded_share(), 1.0);
        assert!((DeploymentStage::OptIn { adoption: 0.05 }.guarded_share() - 0.05).abs() < 1e-12);
        // Out-of-range inputs are clamped, never amplified.
        assert_eq!(
            DeploymentStage::OptIn { adoption: 7.0 }.guarded_share(),
            1.0
        );
        assert_eq!(
            DeploymentStage::OptIn { adoption: -1.0 }.guarded_share(),
            0.0
        );
    }

    #[test]
    fn ladder_is_monotone_in_protection() {
        let shares: Vec<f64> = DeploymentStage::ladder()
            .iter()
            .map(|s| s.guarded_share())
            .collect();
        for w in shares.windows(2) {
            assert!(w[0] <= w[1], "ladder must not step backwards: {shares:?}");
        }
    }

    #[test]
    fn presets_materialize() {
        let entities = cg_entity::builtin_entity_map();
        let permissive = PrivacyPreset::Permissive.config(&entities);
        assert_eq!(permissive.inline_policy, InlinePolicy::Relaxed);
        assert!(permissive.entity_map.is_some());

        let balanced = PrivacyPreset::Balanced.config(&entities);
        assert_eq!(balanced.inline_policy, InlinePolicy::Strict);
        assert!(balanced.entity_map.is_some());

        let strict = PrivacyPreset::Strict.config(&entities);
        assert_eq!(strict.inline_policy, InlinePolicy::Strict);
        assert!(strict.entity_map.is_none());
    }

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<String> = DeploymentStage::ladder()
            .iter()
            .map(|s| s.label())
            .collect();
        let unique: std::collections::HashSet<&String> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len());
    }
}
