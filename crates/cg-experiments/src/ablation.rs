//! Policy ablation: one crawl population visited under each of the five
//! guard configurations below — how each CookieGuard design choice moves
//! protection (cross-domain actions remaining) and compatibility (probe
//! breakage). `cg-experiments --exp ablation` prints the matrix; see
//! the §8 deployment row of `PAPER_MAP.md`.
//!
//! Variants:
//! 1. `strict` — the paper's evaluation config;
//! 2. `relaxed` — inline scripts treated as first-party (§6.1's alternative);
//! 3. `grouped` — strict + entity grouping (§7.2 whitelist);
//! 4. `strict+dns` — strict + CNAME resolution (§8 defense);
//! 5. `no guard` — baseline.

use crate::context::ExperimentOptions;
use crate::render::header;
use cg_analysis::Census;
use cg_browser::{crawl_range, VisitConfig};
use cookieguard_core::GuardConfig;
use serde::Serialize;

/// One ablation row.
#[derive(Debug, Clone, Serialize)]
pub struct AblationRow {
    /// Variant label.
    pub variant: String,
    /// % of sites with cross-domain exfiltration remaining.
    pub exfil_sites_pct: f64,
    /// % of sites with cross-domain overwriting remaining.
    pub overwrite_sites_pct: f64,
    /// % of sites with cross-domain deleting remaining.
    pub delete_sites_pct: f64,
    /// % of sites with any failed functional probe (breakage proxy).
    pub probe_failure_sites_pct: f64,
}

/// Runs all variants over the same site range.
pub fn run_ablation(opts: &ExperimentOptions) -> Vec<AblationRow> {
    let gen = opts.generator();
    let entities = cg_entity::builtin_entity_map();
    let engine = cg_analysis::build_filter_engine(gen.registry());

    let variants: Vec<(&str, VisitConfig)> = vec![
        ("no guard", VisitConfig::regular()),
        ("strict", VisitConfig::guarded(GuardConfig::strict())),
        (
            "relaxed inline",
            VisitConfig::guarded(GuardConfig::relaxed()),
        ),
        (
            "strict + entity grouping",
            VisitConfig::guarded(GuardConfig::strict().with_entity_grouping(entities.clone())),
        ),
        (
            "strict + DNS uncloaking",
            VisitConfig {
                resolve_cnames: true,
                ..VisitConfig::guarded(GuardConfig::strict())
            },
        ),
    ];

    let mut rows = Vec::new();
    for (label, vc) in variants {
        let (outcomes, _) = crawl_range(&gen, &vc, 1, opts.sites, opts.threads);
        let mut probe_fail_sites = 0usize;
        let mut complete = 0usize;
        for o in &outcomes {
            if !o.log.complete {
                continue;
            }
            complete += 1;
            if o.log.probes.iter().any(|p| !p.ok) {
                probe_fail_sites += 1;
            }
        }
        let t1 = Census::of_logs(outcomes.into_iter().map(|o| o.log), &entities, &engine)
            .finish()
            .table1;
        rows.push(AblationRow {
            variant: label.to_string(),
            exfil_sites_pct: t1.doc_exfiltration.sites_pct,
            overwrite_sites_pct: t1.doc_overwriting.sites_pct,
            delete_sites_pct: t1.doc_deleting.sites_pct,
            probe_failure_sites_pct: 100.0 * probe_fail_sites as f64 / complete.max(1) as f64,
        });
    }

    header("Ablation: policy variants over one crawl population");
    println!(
        "  {:<28} {:>10} {:>11} {:>9} {:>14}",
        "variant", "exfil %", "overwrite %", "delete %", "probe fails %"
    );
    for r in &rows {
        println!(
            "  {:<28} {:>10.1} {:>11.1} {:>9.1} {:>14.1}",
            r.variant,
            r.exfil_sites_pct,
            r.overwrite_sites_pct,
            r.delete_sites_pct,
            r.probe_failure_sites_pct
        );
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_orders_protection_and_compat() {
        let rows = run_ablation(&ExperimentOptions {
            sites: 150,
            seed: 0xC00C1E,
            threads: 2,
            ..ExperimentOptions::default()
        });
        let get = |name: &str| {
            rows.iter()
                .find(|r| r.variant.contains(name))
                .unwrap()
                .clone()
        };
        let baseline = get("no guard");
        let strict = get("strict");
        let grouped = get("entity grouping");
        // Every guard variant reduces exfiltration vs baseline.
        assert!(strict.exfil_sites_pct < baseline.exfil_sites_pct);
        assert!(grouped.exfil_sites_pct < baseline.exfil_sites_pct);
        // Grouping trades a little protection for compatibility: probe
        // failures do not increase vs strict.
        assert!(grouped.probe_failure_sites_pct <= strict.probe_failure_sites_pct + 1e-9);
    }
}
