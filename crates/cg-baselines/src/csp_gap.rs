//! The CSP gap, quantified (§2.1): "While CSP allows some control over
//! script inclusion, it does not regulate cookie access or define which
//! scripts may read or modify cookies."
//!
//! The experiment deploys realistic `script-src` policies on every
//! site of a population and measures (a) how many script loads CSP
//! refuses and (b) how much cross-domain cookie activity remains among
//! the scripts it admits. A CookieGuard column anchors the contrast:
//! the same population, no load blocking at all, and the cookie-level
//! exposure collapses anyway — the two mechanisms govern different
//! layers.

use cg_analysis::{build_filter_engine, Census};
use cg_browser::{visit_site, VisitConfig};
use cg_entity::EntityMap;
use cg_filterlist::FilterEngine;
use cg_instrument::VisitLog;
use cg_webgen::{csp_for_site, CspStyle, WebGenerator};
use cookieguard_core::GuardConfig;
use serde::{Deserialize, Serialize};

/// One condition of the CSP experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CspCondition {
    /// No policy served (the measured web's default).
    NoCsp,
    /// Every site serves a `DirectVendorsOnly` policy.
    DirectVendorsOnly,
    /// Every site serves a `FullStack` policy.
    FullStack,
    /// No policy, CookieGuard strict — the layer contrast.
    CookieGuardStrict,
}

impl CspCondition {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            CspCondition::NoCsp => "no CSP",
            CspCondition::DirectVendorsOnly => "CSP: direct vendors only",
            CspCondition::FullStack => "CSP: full stack allowlisted",
            CspCondition::CookieGuardStrict => "no CSP + CookieGuard",
        }
    }
}

/// One row of the CSP-gap table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CspGapRow {
    /// Condition name.
    pub name: String,
    /// Script loads refused by CSP across the population.
    pub scripts_blocked: usize,
    /// % of sites with ≥1 cross-domain exfiltration.
    pub exfil_sites_pct: f64,
    /// % of sites with ≥1 cross-domain overwrite.
    pub overwrite_sites_pct: f64,
    /// Cross-domain exfiltration events that survived (absolute).
    pub exfiltrated_pairs: usize,
}

/// Runs the four conditions over `ranks`.
pub fn run_csp_gap(
    gen: &WebGenerator,
    ranks: std::ops::RangeInclusive<usize>,
    entities: &EntityMap,
) -> Vec<CspGapRow> {
    let engine = build_filter_engine(gen.registry());
    [
        CspCondition::NoCsp,
        CspCondition::DirectVendorsOnly,
        CspCondition::FullStack,
        CspCondition::CookieGuardStrict,
    ]
    .into_iter()
    .map(|cond| run_condition(gen, ranks.clone(), cond, entities, &engine))
    .collect()
}

fn run_condition(
    gen: &WebGenerator,
    ranks: std::ops::RangeInclusive<usize>,
    cond: CspCondition,
    entities: &EntityMap,
    engine: &FilterEngine,
) -> CspGapRow {
    let cfg = match cond {
        CspCondition::CookieGuardStrict => VisitConfig::guarded(GuardConfig::strict()),
        _ => VisitConfig::regular(),
    };
    let mut blocked = 0usize;
    let logs: Vec<VisitLog> = ranks
        .map(|rank| {
            let mut site = gen.blueprint(rank);
            match cond {
                CspCondition::DirectVendorsOnly => {
                    site.csp = Some(csp_for_site(&site, CspStyle::DirectVendorsOnly));
                }
                CspCondition::FullStack => {
                    site.csp = Some(csp_for_site(&site, CspStyle::FullStack));
                }
                CspCondition::NoCsp | CspCondition::CookieGuardStrict => {}
            }
            let out = visit_site(&site, &cfg, gen.site_seed(rank));
            blocked += out.csp_blocked;
            out.log
        })
        .collect();

    let summary = Census::of_logs(logs, entities, engine).finish().table1;
    CspGapRow {
        name: cond.name().to_string(),
        scripts_blocked: blocked,
        exfil_sites_pct: summary.doc_exfiltration.sites_pct,
        overwrite_sites_pct: summary.doc_overwriting.sites_pct,
        exfiltrated_pairs: summary.doc_exfiltration.cookies_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_webgen::GenConfig;

    #[test]
    fn csp_gap_shape_holds() {
        let gen = WebGenerator::new(GenConfig::small(260), 0xC00C1E);
        let entities = cg_entity::builtin_entity_map();
        let rows = run_csp_gap(&gen, 1..=120, &entities);
        let by = |name: &str| {
            rows.iter()
                .find(|r| r.name.starts_with(name))
                .unwrap_or_else(|| panic!("{name}"))
        };
        let none = by("no CSP");
        let direct = by("CSP: direct");
        let full = by("CSP: full");
        let guard = by("no CSP + CookieGuard");

        // CSP does block loads when the policy has gaps…
        assert_eq!(none.scripts_blocked, 0);
        assert!(
            direct.scripts_blocked > 0,
            "direct-vendors policies must refuse some fan-out"
        );
        assert_eq!(
            full.scripts_blocked, 0,
            "full-stack policies admit everything"
        );

        // …but a fully-allowlisting policy changes cookie exposure by
        // exactly nothing (§2.1's claim, measured):
        assert_eq!(full.exfil_sites_pct, none.exfil_sites_pct);
        assert_eq!(full.overwrite_sites_pct, none.overwrite_sites_pct);

        // whereas CookieGuard blocks zero loads and still collapses
        // cookie exposure.
        assert_eq!(guard.scripts_blocked, 0);
        assert!(guard.exfil_sites_pct < none.exfil_sites_pct / 2.0);

        // A gapped CSP reduces exposure only as a side effect of
        // unloaded scripts — it cannot go below the guard on this
        // population.
        assert!(direct.exfil_sites_pct >= guard.exfil_sites_pct);
    }
}
