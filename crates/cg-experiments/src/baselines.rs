//! Baseline-defense experiments: the defense matrix (blocklists,
//! partitioning, CookieGraph-lite, CookieGuard over one population) and
//! the §2.1 CSP gap. Both are explicit-only (`--exp baselines`,
//! `--exp csp`): they perform several extra crawls.

use crate::context::ExperimentOptions;
use crate::render::{header, measured};
use cg_baselines::{
    fidelity_study, run_csp_gap, run_defense_matrix, CspGapRow, Defense, DefenseRow, EvasionConfig,
    FidelityStudy, ForestConfig, MatrixOptions, PartitioningModel,
};
use cookieguard_core::GuardConfig;
use serde::Serialize;

/// Defense-matrix result: one row per defense.
#[derive(Debug, Clone, Serialize)]
pub struct BaselinesResult {
    /// Sites in the evaluation split.
    pub eval_sites: usize,
    /// Sites in the classifier's training split.
    pub train_sites: usize,
    /// The matrix rows.
    pub rows: Vec<DefenseRow>,
    /// CookieGraph-lite cross-split fidelity (the Munir et al. metric).
    pub classifier_fidelity: FidelityStudy,
}

/// Runs the defense matrix: the first half of the population is the
/// shared evaluation split; the classifier trains on the second half.
pub fn run_baselines(opts: &ExperimentOptions) -> BaselinesResult {
    let gen = opts.generator();
    let entities = cg_entity::builtin_entity_map();
    let eval_end = (opts.sites / 2).max(1);
    let train_start = eval_end + 1;
    let train_end = opts.sites.max(train_start);

    let matrix_opts = MatrixOptions {
        eval_ranks: 1..=eval_end,
        entities,
    };
    let defenses = vec![
        Defense::Blocklist,
        Defense::BlocklistUnderEvasion(EvasionConfig::default()),
        Defense::Partitioning(PartitioningModel::FirefoxTcp),
        Defense::CookieGraphLite {
            train_ranks: train_start..=train_end,
            forest: ForestConfig::default(),
        },
        Defense::CookieGuard(GuardConfig::strict()),
        Defense::CookieGuard(
            GuardConfig::strict().with_entity_grouping(cg_entity::builtin_entity_map()),
        ),
    ];
    let rows = run_defense_matrix(&gen, &defenses, &matrix_opts);

    header("Defense matrix — protection vs. breakage (beyond the paper)");
    println!(
        "  {:<28} {:>8} {:>10} {:>8} {:>10}  mechanism",
        "defense", "exfil%", "overwrite%", "delete%", "breakage%"
    );
    for row in &rows {
        println!(
            "  {:<28} {:>8.1} {:>10.1} {:>8.1} {:>10.1}  {}",
            row.name,
            row.exfil_sites_pct,
            row.overwrite_sites_pct,
            row.delete_sites_pct,
            row.probe_break_pct,
            row.note
        );
    }
    // Cross-split classifier fidelity: train on the first half of the
    // training slice, evaluate on its second half (disjoint from both
    // the matrix's evaluation split and each other).
    let mid = train_start + (train_end - train_start) / 2;
    let fidelity = fidelity_study(
        &gen,
        train_start..=mid,
        (mid + 1).max(train_start)..=train_end,
        &ForestConfig::default(),
        opts.seed,
    );
    header("CookieGraph-lite cross-split fidelity");
    measured("held-out accuracy", 100.0 * fidelity.accuracy, "%");
    measured("held-out precision", 100.0 * fidelity.precision, "%");
    measured("held-out recall", 100.0 * fidelity.recall, "%");
    measured("held-out F1", 100.0 * fidelity.f1, "%");

    BaselinesResult {
        eval_sites: eval_end,
        train_sites: train_end.saturating_sub(train_start) + 1,
        rows,
        classifier_fidelity: fidelity,
    }
}

/// CSP-gap result (§2.1).
#[derive(Debug, Clone, Serialize)]
pub struct CspGapResult {
    /// Sites crawled per condition.
    pub sites: usize,
    /// One row per condition.
    pub rows: Vec<CspGapRow>,
}

/// Runs the §2.1 CSP experiment: deploys `script-src` policies on the
/// whole population and contrasts load-level blocking with cookie-level
/// exposure.
pub fn run_csp_gap_exp(opts: &ExperimentOptions) -> CspGapResult {
    let gen = opts.generator();
    let entities = cg_entity::builtin_entity_map();
    let rows = run_csp_gap(&gen, 1..=opts.sites, &entities);

    header("§2.1 — CSP governs script loading, not cookie access");
    println!(
        "  {:<30} {:>14} {:>8} {:>10} {:>12}",
        "condition", "loads blocked", "exfil%", "overwrite%", "exfil pairs"
    );
    for row in &rows {
        println!(
            "  {:<30} {:>14} {:>8.1} {:>10.1} {:>12}",
            row.name,
            row.scripts_blocked,
            row.exfil_sites_pct,
            row.overwrite_sites_pct,
            row.exfiltrated_pairs
        );
    }
    measured(
        "exfil-site delta, full-stack CSP vs no CSP (pp)",
        rows[2].exfil_sites_pct - rows[0].exfil_sites_pct,
        "",
    );
    CspGapResult {
        sites: opts.sites,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baselines_experiment_runs_small() {
        let opts = ExperimentOptions {
            sites: 80,
            seed: 0xC00C1E,
            threads: 2,
            ..ExperimentOptions::default()
        };
        let r = run_baselines(&opts);
        assert_eq!(r.eval_sites, 40);
        assert!(r.rows.len() >= 6);
        let guard = r
            .rows
            .iter()
            .find(|x| x.name == "cookieguard strict")
            .unwrap();
        let none = &r.rows[0];
        assert!(guard.exfil_sites_pct < none.exfil_sites_pct);
    }

    #[test]
    fn csp_gap_experiment_runs_small() {
        let opts = ExperimentOptions {
            sites: 60,
            seed: 0xC00C1E,
            threads: 2,
            ..ExperimentOptions::default()
        };
        let r = run_csp_gap_exp(&opts);
        assert_eq!(r.rows.len(), 4);
        assert_eq!(r.rows[2].exfil_sites_pct, r.rows[0].exfil_sites_pct);
    }
}
