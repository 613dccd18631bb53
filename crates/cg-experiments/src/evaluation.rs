//! The §7 evaluation experiments: Fig. 5 (access control), Table 3
//! (breakage), Table 4 + Figs 6/7/9/10 (performance).

use crate::context::ExperimentOptions;
use crate::expectations as exp;
use crate::render::{bar, compare, compare_count, header, measured};
use cg_analysis::stats::BoxStats;
use cg_analysis::{cross_domain_summary, detect_exfiltration, detect_manipulation, Dataset};
use cg_breakage::{evaluate_breakage, BreakageCategory, BreakageReport};
use cg_browser::{crawl_range, VisitConfig};
use cg_perf::{run_paired_measurement, PerfReport};
use cookieguard_core::GuardConfig;
use serde::Serialize;

/// Fig. 5 result: % of sites engaging in each cross-domain action, with
/// and without CookieGuard.
#[derive(Debug, Clone, Serialize)]
pub struct Fig5Result {
    /// (regular %, guarded %) for overwriting.
    pub overwriting: (f64, f64),
    /// (regular %, guarded %) for deleting.
    pub deleting: (f64, f64),
    /// (regular %, guarded %) for exfiltration.
    pub exfiltration: (f64, f64),
}

impl Fig5Result {
    /// Relative reduction (%) for a pair.
    pub fn reduction(pair: (f64, f64)) -> f64 {
        if pair.0 <= 0.0 {
            0.0
        } else {
            100.0 * (pair.0 - pair.1) / pair.0
        }
    }
}

/// Runs the paired guarded/unguarded crawl behind Fig. 5.
pub fn run_fig5(opts: &ExperimentOptions) -> Fig5Result {
    let gen = opts.generator();
    let entities = cg_entity::builtin_entity_map();

    let rates = |guard: Option<GuardConfig>| {
        let vc = match guard {
            Some(g) => VisitConfig::guarded(g),
            None => VisitConfig::regular(),
        };
        let (outcomes, _) = crawl_range(&gen, &vc, 1, opts.sites, opts.threads);
        let ds = Dataset::from_logs(outcomes.into_iter().map(|o| o.log).collect());
        let exfil = detect_exfiltration(&ds, &entities);
        let manip = detect_manipulation(&ds, &entities);
        let t1 = cross_domain_summary(&ds, &exfil, &manip);
        (
            t1.doc_overwriting.sites_pct,
            t1.doc_deleting.sites_pct,
            t1.doc_exfiltration.sites_pct,
        )
    };

    let (ow0, del0, ex0) = rates(None);
    let (ow1, del1, ex1) = rates(Some(GuardConfig::strict()));
    let result = Fig5Result {
        overwriting: (ow0, ow1),
        deleting: (del0, del1),
        exfiltration: (ex0, ex1),
    };

    header("Figure 5: cross-domain actions, regular vs CookieGuard");
    let max = ow0.max(del0).max(ex0).max(1.0);
    bar("overwriting (regular)", ow0, max, 40);
    bar("overwriting (guarded)", ow1, max, 40);
    bar("deleting    (regular)", del0, max, 40);
    bar("deleting    (guarded)", del1, max, 40);
    bar("exfiltration(regular)", ex0, max, 40);
    bar("exfiltration(guarded)", ex1, max, 40);
    compare(
        "overwriting reduction",
        exp::FIG5_REDUCTIONS.0,
        Fig5Result::reduction(result.overwriting),
        "%",
    );
    compare(
        "deleting reduction",
        exp::FIG5_REDUCTIONS.1,
        Fig5Result::reduction(result.deleting),
        "%",
    );
    compare(
        "exfiltration reduction",
        exp::FIG5_REDUCTIONS.2,
        Fig5Result::reduction(result.exfiltration),
        "%",
    );
    result
}

/// Table 3 result: the strict and entity-grouped breakage reports.
#[derive(Debug, Serialize)]
pub struct Table3Result {
    /// Strict isolation (no grouping).
    pub strict: BreakageReport,
    /// With the entity-grouping whitelist.
    pub grouped: BreakageReport,
}

/// Runs the Table 3 breakage evaluation over a 100-site sample of the
/// top 10k (or the whole range when fewer sites exist).
pub fn run_table3(opts: &ExperimentOptions) -> Table3Result {
    let gen = opts.generator();
    // The paper samples 100 random sites from the top 10k; we take a
    // deterministic stratified sample: every k-th site of the top half.
    let top = (opts.sites / 2).max(1);
    let sample = 100.min(top);
    let stride = (top / sample).max(1);

    let eval = |guard: GuardConfig| {
        let mut report = BreakageReport::default();
        let mut rank = 1usize;
        while report.sites < sample && rank <= top {
            let partial = evaluate_breakage(&gen, &guard, rank, rank, 1);
            report.sites += partial.sites;
            for (k, v) in partial.counts {
                *report.counts.entry(k).or_insert(0) += v;
            }
            report.details.extend(partial.details);
            rank += stride;
        }
        report
    };

    let strict = eval(GuardConfig::strict());
    let grouped = eval(GuardConfig::strict().with_entity_grouping(cg_entity::builtin_entity_map()));

    header("Table 3: breakage on the 100-site sample (strict)");
    compare(
        "SSO minor",
        exp::T3_SSO.0,
        strict.minor_pct(BreakageCategory::Sso),
        "%",
    );
    compare(
        "SSO major",
        exp::T3_SSO.1,
        strict.major_pct(BreakageCategory::Sso),
        "%",
    );
    compare(
        "functionality minor",
        exp::T3_FUNC.0,
        strict.minor_pct(BreakageCategory::Functionality),
        "%",
    );
    compare(
        "functionality major",
        exp::T3_FUNC.1,
        strict.major_pct(BreakageCategory::Functionality),
        "%",
    );
    compare(
        "navigation (any)",
        0.0,
        strict.major_pct(BreakageCategory::Navigation)
            + strict.minor_pct(BreakageCategory::Navigation),
        "%",
    );
    compare(
        "appearance (any)",
        0.0,
        strict.major_pct(BreakageCategory::Appearance)
            + strict.minor_pct(BreakageCategory::Appearance),
        "%",
    );
    header("Table 3 (with entity grouping)");
    compare(
        "SSO major after grouping",
        exp::T3_GROUPED_TOTAL,
        grouped.major_pct(BreakageCategory::Sso),
        "%",
    );
    measured(
        "any breakage after grouping",
        grouped.any_breakage_pct(),
        "%",
    );

    Table3Result { strict, grouped }
}

/// Table 4 + Figures 6/7/9/10 result.
#[derive(Debug, Serialize)]
pub struct PerfResult {
    /// The full paired report.
    pub report: PerfReport,
    /// Boxplot stats per metric/condition for Figs 6 & 9.
    pub boxes: Vec<(String, BoxStats)>,
}

/// Runs the §7.3 performance experiments on the top `sites/2` sites
/// (the paper uses the top 10k of 20k).
pub fn run_table4_and_figs(opts: &ExperimentOptions, which: &[&str]) -> PerfResult {
    let gen = opts.generator();
    let top = (opts.sites / 2).max(1);
    let report = run_paired_measurement(&gen, &GuardConfig::strict(), 1, top, opts.threads);

    let wants = |name: &str| which.contains(&"all") || which.contains(&name);

    if wants("table4") {
        header("Table 4: performance (mean ms, median ms)");
        compare_count(
            "valid paired sites",
            exp::T4_VALID_PAIRS,
            report.valid_pairs,
        );
        compare(
            "DCL mean (no ext)",
            exp::T4_DCL.0 .0,
            report.dcl.0.mean_ms,
            "ms",
        );
        compare(
            "DCL median (no ext)",
            exp::T4_DCL.0 .1,
            report.dcl.0.median_ms,
            "ms",
        );
        compare(
            "DCL mean (CookieGuard)",
            exp::T4_DCL.1 .0,
            report.dcl.1.mean_ms,
            "ms",
        );
        compare(
            "DCL median (CookieGuard)",
            exp::T4_DCL.1 .1,
            report.dcl.1.median_ms,
            "ms",
        );
        compare(
            "DI mean (no ext)",
            exp::T4_DI.0 .0,
            report.di.0.mean_ms,
            "ms",
        );
        compare(
            "DI median (no ext)",
            exp::T4_DI.0 .1,
            report.di.0.median_ms,
            "ms",
        );
        compare(
            "DI mean (CookieGuard)",
            exp::T4_DI.1 .0,
            report.di.1.mean_ms,
            "ms",
        );
        compare(
            "DI median (CookieGuard)",
            exp::T4_DI.1 .1,
            report.di.1.median_ms,
            "ms",
        );
        compare(
            "Load mean (no ext)",
            exp::T4_LOAD.0 .0,
            report.load.0.mean_ms,
            "ms",
        );
        compare(
            "Load median (no ext)",
            exp::T4_LOAD.0 .1,
            report.load.0.median_ms,
            "ms",
        );
        compare(
            "Load mean (CookieGuard)",
            exp::T4_LOAD.1 .0,
            report.load.1.mean_ms,
            "ms",
        );
        compare(
            "Load median (CookieGuard)",
            exp::T4_LOAD.1 .1,
            report.load.1.median_ms,
            "ms",
        );
        compare("average added latency", 300.0, report.mean_added_ms(), "ms");
    }

    let mut boxes = Vec::new();
    for (name, selector) in [
        (
            "dom_content_loaded",
            (|t: &cg_browser::PageTiming| t.dom_content_loaded_ms)
                as fn(&cg_browser::PageTiming) -> f64,
        ),
        ("dom_interactive", |t| t.dom_interactive_ms),
        ("load_event_time", |t| t.load_event_ms),
    ] {
        let no: Vec<f64> = report.pairs.iter().map(|p| selector(&p.without)).collect();
        let yes: Vec<f64> = report.pairs.iter().map(|p| selector(&p.with)).collect();
        boxes.push((format!("{name} (no extension)"), BoxStats::of(&no)));
        boxes.push((format!("{name} (with CookieGuard)"), BoxStats::of(&yes)));
    }

    if wants("fig6") || wants("fig9") {
        header("Figures 6 & 9: paired distributions (box stats, ms)");
        for (label, b) in &boxes {
            println!(
                "  {:<42} min {:>8.0}  q1 {:>8.0}  med {:>8.0}  q3 {:>8.0}  max {:>9.0}  mean {:>8.0}",
                label, b.min, b.q1, b.median, b.q3, b.max, b.mean
            );
        }
    }

    if wants("fig7") || wants("fig10") {
        header("Figures 7 & 10: per-site overhead ratios (With / No)");
        compare(
            "DCL ratio median",
            exp::FIG7_MEDIANS.0,
            report.ratios.0.median,
            "×",
        );
        compare(
            "DI ratio median",
            exp::FIG7_MEDIANS.1,
            report.ratios.1.median,
            "×",
        );
        compare(
            "Load ratio median",
            exp::FIG7_MEDIANS.2,
            report.ratios.2.median,
            "×",
        );
        for (name, r) in [
            ("dcl", report.ratios.0),
            ("di", report.ratios.1),
            ("load", report.ratios.2),
        ] {
            println!(
                "  {:<12} q1 {:>6.3}  median {:>6.3}  q3 {:>6.3}  max {:>8.1}",
                name, r.q1, r.median, r.q3, r.max
            );
        }
    }

    PerfResult { report, boxes }
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
    fn fig5_guard_reduces_all_three_actions() {
        let r = run_fig5(&opts(240));
        assert!(
            r.overwriting.1 < r.overwriting.0,
            "overwrite {:?}",
            r.overwriting
        );
        assert!(r.deleting.1 <= r.deleting.0, "delete {:?}", r.deleting);
        assert!(
            r.exfiltration.1 < r.exfiltration.0,
            "exfil {:?}",
            r.exfiltration
        );
        // Substantial but not total reduction (site-owner bypass remains).
        let red = Fig5Result::reduction(r.exfiltration);
        assert!(red > 40.0, "exfil reduction {red}");
    }

    #[test]
    fn perf_runs_at_small_scale() {
        let r = run_table4_and_figs(&opts(160), &[]);
        assert!(r.report.valid_pairs > 40);
        assert_eq!(r.boxes.len(), 6);
    }
}
