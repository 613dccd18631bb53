//! Beyond-the-prototype experiments: the paper's §5.7 server-side
//! tracking blind spot, the §8 DOM-isolation future-work defense, and
//! the §8 staged-deployment ladder. Each prints its result in the same
//! paper-vs-measured format as the core reproduction (where the paper
//! publishes a number) or as plain measurements (where it only argues
//! qualitatively).

use crate::context::ExperimentOptions;
use crate::render::{bar, compare, header, measured};
use cg_analysis::{dom_pilot_stats, Census, ForwardMap, ServerSideReport};
use cg_breakage::{evaluate_breakage, BreakageCategory};
use cg_browser::{crawl_range, visit_site_with_jar, VisitConfig};
use cg_domguard::DomGuardConfig;
use cookieguard_core::{DeploymentStage, GuardConfig, PrivacyPreset};
use serde::Serialize;

// ---------------------------------------------------------------------
// §5.7 — server-side tracking bypasses CookieGuard
// ---------------------------------------------------------------------

/// Server-side tracking experiment result.
#[derive(Debug, Clone, Serialize)]
pub struct Sec57Result {
    /// Sites whose spec carries relay rules (the SST adopters).
    pub sites_with_sst: usize,
    /// % of sites with client-side cross-domain exfiltration,
    /// (regular, guarded).
    pub client_exfil_pct: (f64, f64),
    /// % of sites with server-side cross-domain relay,
    /// (regular, guarded).
    pub server_relay_pct: (f64, f64),
    /// Gateway requests carrying the full jar in the `Cookie:` header,
    /// (regular, guarded).
    pub header_payload_requests: (usize, usize),
}

/// Runs the §5.7 experiment: a paired crawl showing CookieGuard's
/// client-side win does not extend to first-party server-side gateways.
pub fn run_sec5_7(opts: &ExperimentOptions) -> Sec57Result {
    let gen = opts.generator();
    let entities = cg_entity::builtin_entity_map();
    let engine = cg_analysis::build_filter_engine(gen.registry());

    let run = |guard: Option<GuardConfig>| {
        let vc = match guard {
            Some(g) => VisitConfig::guarded(g),
            None => VisitConfig::regular(),
        };
        let (outcomes, _) = crawl_range(&gen, &vc, 1, opts.sites, opts.threads);
        let mut forwards = ForwardMap::new();
        let mut sst = 0usize;
        for o in &outcomes {
            if !o.spec.server_forwards.is_empty() {
                sst += 1;
                forwards.insert(
                    o.spec.domain.clone(),
                    o.spec
                        .server_forwards
                        .iter()
                        .map(|f| (f.path_prefix.clone(), f.forwards_to.clone()))
                        .collect(),
                );
            }
        }
        // One replay per visit feeds both the census and the server-side
        // relay resolution.
        let mut census = Census::default();
        let mut server = ServerSideReport::default();
        for o in outcomes {
            if let Some(site) = census.fold(&o.log, &entities, &engine) {
                server.fold(&o.log, &site, &forwards);
            }
        }
        let client_pct = census.finish().table1.doc_exfiltration.sites_pct;
        (sst, client_pct, server)
    };

    let (sst, client0, server0) = run(None);
    let (_, client1, server1) = run(Some(GuardConfig::strict()));

    let result = Sec57Result {
        sites_with_sst: sst,
        client_exfil_pct: (client0, client1),
        server_relay_pct: (
            server0.pct_sites_with_relay(),
            server1.pct_sites_with_relay(),
        ),
        header_payload_requests: (
            server0.requests_with_header_payload,
            server1.requests_with_header_payload,
        ),
    };

    header("§5.7: server-side tracking vs CookieGuard (beyond-paper quantification)");
    measured("sites with server-side tagging", sst as f64, "sites");
    let max = client0.max(1.0);
    bar("client-side exfil (regular)", client0, max, 40);
    bar("client-side exfil (guarded)", client1, max, 40);
    bar(
        "server-side relay (regular)",
        result.server_relay_pct.0,
        max,
        40,
    );
    bar(
        "server-side relay (guarded)",
        result.server_relay_pct.1,
        max,
        40,
    );
    let client_red = reduction(client0, client1);
    let server_red = reduction(result.server_relay_pct.0, result.server_relay_pct.1);
    measured("client-side exfil reduction", client_red, "%");
    measured("server-side relay reduction", server_red, "%");
    measured(
        "gateway requests with full Cookie header (guarded)",
        result.header_payload_requests.1 as f64,
        "requests",
    );
    println!(
        "  → the paper's §5.7 claim: proxying through first-party endpoints bypasses CookieGuard"
    );
    result
}

fn reduction(before: f64, after: f64) -> f64 {
    if before <= 0.0 {
        0.0
    } else {
        100.0 * (before - after) / before
    }
}

// ---------------------------------------------------------------------
// §8 — DOM isolation guard (future work, implemented)
// ---------------------------------------------------------------------

/// DOM-guard experiment result.
#[derive(Debug, Clone, Serialize)]
pub struct DomGuardResult {
    /// % of sites with applied cross-domain DOM mutations (unguarded) —
    /// the paper's 9.4% pilot figure.
    pub pilot_pct: f64,
    /// Same statistic under the strict DOM guard.
    pub guarded_pct: f64,
    /// Cross-domain mutations blocked by the guard.
    pub blocked_events: usize,
    /// % of affected sites fully protected by the guard.
    pub fully_protected_pct: f64,
    /// Applied cross-domain mutations under entity grouping (the
    /// same-organization share of the pilot signal).
    pub grouped_pct: f64,
}

/// Runs the §8 DOM-isolation evaluation: unguarded pilot vs strict
/// DomGuard vs entity-grouped DomGuard.
pub fn run_domguard(opts: &ExperimentOptions) -> DomGuardResult {
    let gen = opts.generator();

    let run = |dom: Option<DomGuardConfig>| {
        let vc = match dom {
            Some(d) => VisitConfig::regular().with_dom_guard(d),
            None => VisitConfig::regular(),
        };
        let (outcomes, _) = crawl_range(&gen, &vc, 1, opts.sites, opts.threads);
        dom_pilot_stats(outcomes.into_iter().map(|o| o.log))
    };

    let pilot = run(None);
    let strict = run(Some(DomGuardConfig::strict()));
    let grouped = run(Some(
        DomGuardConfig::strict().with_entity_grouping(cg_entity::builtin_entity_map()),
    ));

    let result = DomGuardResult {
        pilot_pct: pilot.sites_with_cross_dom_pct,
        guarded_pct: strict.sites_with_cross_dom_pct,
        blocked_events: strict.blocked_events,
        fully_protected_pct: strict.sites_fully_protected_pct,
        grouped_pct: grouped.sites_with_cross_dom_pct,
    };

    header("§8 DOM guard: cross-domain DOM mutation, unguarded vs DomGuard");
    compare(
        "pilot: sites with cross-domain DOM mutation",
        crate::expectations::DOM_PILOT_PCT,
        result.pilot_pct,
        "%",
    );
    measured("under strict DomGuard", result.guarded_pct, "%");
    measured(
        "cross-domain mutations blocked",
        result.blocked_events as f64,
        "events",
    );
    measured("sites fully protected", result.fully_protected_pct, "%");
    measured("under entity-grouped DomGuard", result.grouped_pct, "%");
    result
}

// ---------------------------------------------------------------------
// §8 — staged deployment ladder + policy presets + grandfathering
// ---------------------------------------------------------------------

/// One rung of the deployment ladder.
#[derive(Debug, Clone, Serialize)]
pub struct StageRow {
    /// Stage label.
    pub stage: String,
    /// Share of page views protected.
    pub guarded_share: f64,
    /// Population-level % of sites/views with cross-domain exfiltration.
    pub population_exfil_pct: f64,
    /// Population-level % of views hitting major SSO breakage.
    pub population_sso_major_pct: f64,
}

/// One policy preset's operating point.
#[derive(Debug, Clone, Serialize)]
pub struct PresetRow {
    /// Preset label.
    pub preset: String,
    /// Reduction of cross-domain exfiltration sites vs no guard (%).
    pub exfil_reduction_pct: f64,
    /// Major SSO breakage (% of sampled sites).
    pub sso_major_pct: f64,
    /// Any breakage (% of sampled sites).
    pub any_breakage_pct: f64,
}

/// The grandfathering (returning-visitor) comparison.
#[derive(Debug, Clone, Serialize)]
pub struct GrandfatherRow {
    /// Returning-visitor sites measured.
    pub sites: usize,
    /// Cookies filtered on the return visit without grandfathering.
    pub filtered_without: u64,
    /// Cookies filtered with grandfathering (should be lower: legacy
    /// cookies stay visible until relearned).
    pub filtered_with: u64,
}

/// Full rollout experiment result.
#[derive(Debug, Clone, Serialize)]
pub struct RolloutResult {
    /// The deployment ladder.
    pub stages: Vec<StageRow>,
    /// The preset frontier.
    pub presets: Vec<PresetRow>,
    /// The grandfathering comparison.
    pub grandfathering: GrandfatherRow,
}

/// Runs the §8 deployment experiment: protection/breakage across the
/// rollout ladder, the preset frontier, and the grandfathering effect.
pub fn run_rollout(opts: &ExperimentOptions) -> RolloutResult {
    let gen = opts.generator();
    let entities = cg_entity::builtin_entity_map();
    let engine = cg_analysis::build_filter_engine(gen.registry());

    // Base rates: exfiltration prevalence unguarded and under each preset.
    let exfil_pct = |vc: &VisitConfig| {
        let (outcomes, _) = crawl_range(&gen, vc, 1, opts.sites, opts.threads);
        Census::of_logs(outcomes.into_iter().map(|o| o.log), &entities, &engine)
            .finish()
            .table1
            .doc_exfiltration
            .sites_pct
    };
    let e_regular = exfil_pct(&VisitConfig::regular());

    // Breakage per preset on a deterministic sample (same protocol as
    // Table 3, smaller default sample for the frontier).
    let sample_to = (opts.sites / 2).max(1);
    let breakage = |guard: GuardConfig| evaluate_breakage(&gen, &guard, 1, sample_to.min(100));

    // The preset frontier. The `Strict` preset is `GuardConfig::strict()`,
    // the guard the ladder rolls out, so its rates also feed the ladder.
    let mut presets = Vec::new();
    let mut strict_rates = None;
    for preset in PrivacyPreset::all() {
        let config = preset.config(&entities);
        let e = exfil_pct(&VisitConfig::guarded(config.clone()));
        let b = breakage(config);
        let sso_major_pct = b.major_pct(BreakageCategory::Sso);
        if preset == PrivacyPreset::Strict {
            strict_rates = Some((e, sso_major_pct));
        }
        presets.push(PresetRow {
            preset: preset.label().to_string(),
            exfil_reduction_pct: reduction(e_regular, e),
            sso_major_pct,
            any_breakage_pct: b.any_breakage_pct(),
        });
    }
    let (e_strict, sso_major_strict) = strict_rates.expect("PrivacyPreset::all includes Strict");

    // The ladder: population-weighted protection and breakage.
    let mut stages = Vec::new();
    for stage in DeploymentStage::ladder() {
        let share = stage.guarded_share();
        stages.push(StageRow {
            stage: stage.label(),
            guarded_share: share,
            population_exfil_pct: share * e_strict + (1.0 - share) * e_regular,
            population_sso_major_pct: share * sso_major_strict,
        });
    }

    // Grandfathering: returning visitors whose jar predates the guard.
    let mut filtered_with = 0u64;
    let mut filtered_without = 0u64;
    let mut sites = 0usize;
    let revisit_sample = opts.sites.min(120);
    // One compiled strict engine serves every return visit.
    let plain = VisitConfig::guarded(GuardConfig::strict());
    let gf = VisitConfig {
        grandfather_preexisting: true,
        ..plain.clone()
    };
    for rank in 1..=revisit_sample {
        let bp = gen.blueprint(rank);
        if !bp.spec.crawl_ok {
            continue;
        }
        let seed = gen.site_seed(rank) ^ 0x0123;
        // First visit, pre-rollout: no guard, jar fills up.
        let mut jar = cg_cookiejar::CookieJar::new();
        visit_site_with_jar(&bp, &VisitConfig::regular(), seed, &mut jar);
        // Return visit, post-rollout, with and without grandfathering.
        let mut jar_a = jar.clone();
        let mut jar_b = jar;
        let without = visit_site_with_jar(&bp, &plain, seed, &mut jar_a);
        let with = visit_site_with_jar(&bp, &gf, seed, &mut jar_b);
        filtered_without += without.guard_stats.map_or(0, |s| s.cookies_filtered);
        filtered_with += with.guard_stats.map_or(0, |s| s.cookies_filtered);
        sites += 1;
    }
    let grandfathering = GrandfatherRow {
        sites,
        filtered_without,
        filtered_with,
    };

    header("§8 deployment ladder (population-weighted)");
    for row in &stages {
        println!(
            "  {:<34} guarded {:>5.1}%  exfil-sites {:>5.1}%  SSO-major {:>4.2}%",
            row.stage,
            row.guarded_share * 100.0,
            row.population_exfil_pct,
            row.population_sso_major_pct
        );
    }
    header("§8 policy presets (protection vs breakage frontier)");
    for row in &presets {
        println!(
            "  {:<12} exfil reduction {:>5.1}%  SSO major {:>5.1}%  any breakage {:>5.1}%",
            row.preset, row.exfil_reduction_pct, row.sso_major_pct, row.any_breakage_pct
        );
    }
    header("§8 grandfathering (returning visitors)");
    measured(
        "cookies filtered without grandfathering",
        grandfathering.filtered_without as f64,
        "",
    );
    measured(
        "cookies filtered with grandfathering",
        grandfathering.filtered_with as f64,
        "",
    );

    RolloutResult {
        stages,
        presets,
        grandfathering,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(n: usize) -> ExperimentOptions {
        ExperimentOptions {
            sites: n,
            seed: 0xC00C1E,
            threads: 2,
            ..ExperimentOptions::default()
        }
    }

    #[test]
    fn sec5_7_guard_blind_to_server_side() {
        let r = run_sec5_7(&opts(400));
        assert!(r.sites_with_sst > 5, "SST adopters {}", r.sites_with_sst);
        // Client-side exfiltration drops sharply under the guard…
        assert!(
            r.client_exfil_pct.1 < r.client_exfil_pct.0 * 0.6,
            "{:?}",
            r.client_exfil_pct
        );
        // …but the server-side relay barely moves (first-party collectors
        // are site-owned, and the Cookie header is outside the guard).
        assert!(
            r.server_relay_pct.1 >= r.server_relay_pct.0 * 0.8,
            "server relay should survive the guard: {:?}",
            r.server_relay_pct
        );
        assert!(r.header_payload_requests.1 > 0);
    }

    #[test]
    fn domguard_blocks_pilot_signal() {
        let r = run_domguard(&opts(300));
        assert!(r.pilot_pct > 2.0, "pilot {}", r.pilot_pct);
        assert!(
            r.guarded_pct < r.pilot_pct * 0.35,
            "guarded {} vs pilot {}",
            r.guarded_pct,
            r.pilot_pct
        );
        assert!(r.blocked_events > 0);
        // Grouping admits same-entity mutations back, so it sits between.
        assert!(r.grouped_pct <= r.pilot_pct);
    }

    #[test]
    fn rollout_monotone_and_grandfathering_reduces_filtering() {
        let r = run_rollout(&opts(150));
        // Protection improves (exfil falls) monotonically along the ladder.
        for w in r.stages.windows(2) {
            assert!(
                w[1].population_exfil_pct <= w[0].population_exfil_pct + 1e-9,
                "ladder not monotone: {:?}",
                r.stages
            );
        }
        // Strict protects at least as much as permissive.
        let strict = r.presets.iter().find(|p| p.preset == "strict").unwrap();
        let permissive = r.presets.iter().find(|p| p.preset == "permissive").unwrap();
        assert!(strict.exfil_reduction_pct >= permissive.exfil_reduction_pct - 1e-9);
        // The strict preset and the ladder's last rung are one guard.
        let disabled = r.stages.first().unwrap();
        let default_on = r.stages.last().unwrap();
        assert_eq!(default_on.stage, "default on");
        assert_eq!(
            strict.exfil_reduction_pct,
            reduction(
                disabled.population_exfil_pct,
                default_on.population_exfil_pct
            )
        );
        assert_eq!(strict.sso_major_pct, default_on.population_sso_major_pct);
        // Grandfathering lowers early filtering for returning visitors.
        assert!(
            r.grandfathering.filtered_with <= r.grandfathering.filtered_without,
            "grandfathering must not increase filtering: {:?}",
            r.grandfathering
        );
        assert!(r.grandfathering.filtered_without > 0);
    }
}
