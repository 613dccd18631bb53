//! The defense matrix: every baseline and CookieGuard, one population,
//! one set of metrics — the protection-vs-breakage frontier the paper's
//! §1/§9 positioning argues informally.
//!
//! For each defense the harness reports the §5 cross-domain site rates
//! (exfiltration / overwriting / deleting) and a functionality metric:
//! the share of functional probes that succeeded under no defense but
//! are missing or failing under the defense.

use crate::blocklist::{apply_evasion, BlocklistDefense, EvasionConfig};
use crate::classifier::{counterfactual_block, label_samples, residual_log, CookieGraphLite};
use crate::features::extract_samples;
use crate::partitioning::PartitioningModel;
use crate::tree::ForestConfig;
use cg_analysis::{build_filter_engine, Census};
use cg_browser::{visit_site, VisitConfig};
use cg_entity::EntityMap;
use cg_filterlist::FilterEngine;
use cg_instrument::VisitLog;
use cg_webgen::WebGenerator;
use cookieguard_core::GuardConfig;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// A defense under comparison.
#[derive(Debug, Clone)]
pub enum Defense {
    /// A regular browser (the measurement condition).
    NoDefense,
    /// Filter-list script blocking over the §4.3 lists.
    Blocklist,
    /// The same blocklist against trackers that deploy the \[65\]
    /// URL-manipulation techniques.
    BlocklistUnderEvasion(EvasionConfig),
    /// A storage-partitioning browser mode. Partitioning re-keys
    /// *embedded-context* storage only; the main-frame crawl this
    /// harness measures is untouched by construction
    /// ([`PartitioningModel::affects_main_frame`] is false), which is
    /// the paper's §2.1 point.
    Partitioning(PartitioningModel),
    /// CookieGraph-style ML cookie blocking, trained on a disjoint
    /// population slice.
    CookieGraphLite {
        /// Ranks crawled to build the training set.
        train_ranks: std::ops::RangeInclusive<usize>,
        /// Forest hyperparameters.
        forest: ForestConfig,
    },
    /// CookieGuard with the given policy.
    CookieGuard(GuardConfig),
}

impl Defense {
    /// Display name for tables.
    pub fn name(&self) -> String {
        match self {
            Defense::NoDefense => "no defense".into(),
            Defense::Blocklist => "blocklist".into(),
            Defense::BlocklistUnderEvasion(_) => "blocklist vs evasion".into(),
            Defense::Partitioning(m) => format!("partitioning ({})", m.name()),
            Defense::CookieGraphLite { .. } => "cookiegraph-lite".into(),
            Defense::CookieGuard(cfg) => {
                if cfg.entity_map.is_some() {
                    "cookieguard + entity grouping".into()
                } else {
                    "cookieguard strict".into()
                }
            }
        }
    }
}

/// One row of the defense matrix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DefenseRow {
    /// Defense name.
    pub name: String,
    /// % of sites with ≥1 cross-domain exfiltration.
    pub exfil_sites_pct: f64,
    /// % of sites with ≥1 cross-domain overwrite.
    pub overwrite_sites_pct: f64,
    /// % of sites with ≥1 cross-domain delete.
    pub delete_sites_pct: f64,
    /// % of baseline-working probes broken under this defense.
    pub probe_break_pct: f64,
    /// Free-form mechanism note for the rendered table.
    pub note: String,
}

/// Matrix options.
#[derive(Debug, Clone)]
pub struct MatrixOptions {
    /// Ranks evaluated (all defenses share this population).
    pub eval_ranks: std::ops::RangeInclusive<usize>,
    /// Entity map for guard grouping and the analyses.
    pub entities: EntityMap,
}

/// Functional probes that worked with no defense: (site, feature).
type ProbeSet = HashSet<(String, String)>;

fn probe_set(logs: &[VisitLog]) -> ProbeSet {
    logs.iter()
        .flat_map(|l| {
            l.probes
                .iter()
                .filter(|p| p.ok)
                .map(move |p| (l.site().to_string(), l.str(p.feature).to_string()))
        })
        .collect()
}

fn broken_share(baseline: &ProbeSet, defended: &[VisitLog]) -> f64 {
    if baseline.is_empty() {
        return 0.0;
    }
    let still_working = probe_set(defended);
    let broken = baseline
        .iter()
        .filter(|t| !still_working.contains(*t))
        .count();
    100.0 * broken as f64 / baseline.len() as f64
}

fn rates(logs: &[VisitLog], entities: &EntityMap, engine: &FilterEngine) -> (f64, f64, f64) {
    let summary = Census::of_logs(logs, entities, engine).finish().table1;
    (
        summary.doc_exfiltration.sites_pct,
        summary.doc_overwriting.sites_pct,
        summary.doc_deleting.sites_pct,
    )
}

/// Crawls `ranks` under a plain browser, optionally transforming each
/// blueprint first and optionally attaching a guard.
fn crawl(
    gen: &WebGenerator,
    ranks: std::ops::RangeInclusive<usize>,
    cfg: &VisitConfig,
    transform: impl Fn(&cg_webgen::SiteBlueprint) -> cg_webgen::SiteBlueprint,
) -> Vec<VisitLog> {
    ranks
        .map(|rank| {
            let site = transform(&gen.blueprint(rank));
            visit_site(&site, cfg, gen.site_seed(rank)).log
        })
        .collect()
}

/// Runs the full matrix. The `NoDefense` crawl is always performed
/// (it anchors the probe-breakage metric) and is prepended to the
/// output even when not requested.
pub fn run_defense_matrix(
    gen: &WebGenerator,
    defenses: &[Defense],
    opts: &MatrixOptions,
) -> Vec<DefenseRow> {
    let plain_cfg = VisitConfig::regular();
    let plain_logs = crawl(gen, opts.eval_ranks.clone(), &plain_cfg, Clone::clone);
    let baseline_probes = probe_set(&plain_logs);
    let engine = build_filter_engine(gen.registry());

    let mut rows = Vec::with_capacity(defenses.len() + 1);
    let (e, o, d) = rates(&plain_logs, &opts.entities, &engine);
    rows.push(DefenseRow {
        name: "no defense".into(),
        exfil_sites_pct: e,
        overwrite_sites_pct: o,
        delete_sites_pct: d,
        probe_break_pct: 0.0,
        note: "regular browser".into(),
    });

    for defense in defenses {
        if matches!(defense, Defense::NoDefense) {
            continue; // already anchored above
        }
        let row = run_one(gen, defense, opts, &engine, &plain_logs, &baseline_probes);
        rows.push(row);
    }
    rows
}

fn run_one(
    gen: &WebGenerator,
    defense: &Defense,
    opts: &MatrixOptions,
    engine: &FilterEngine,
    plain_logs: &[VisitLog],
    baseline_probes: &ProbeSet,
) -> DefenseRow {
    let name = defense.name();
    match defense {
        Defense::NoDefense => unreachable!("handled by caller"),

        Defense::Blocklist => {
            let blocker = BlocklistDefense::from_registry(gen.registry());
            let logs = crawl(
                gen,
                opts.eval_ranks.clone(),
                &VisitConfig::regular(),
                |site| blocker.prune_site(site).0,
            );
            let probe_break = broken_share(baseline_probes, &logs);
            let (e, o, d) = rates(&logs, &opts.entities, engine);
            DefenseRow {
                name,
                exfil_sites_pct: e,
                overwrite_sites_pct: o,
                delete_sites_pct: d,
                probe_break_pct: probe_break,
                note: "listed tracker scripts never load".into(),
            }
        }

        Defense::BlocklistUnderEvasion(evasion) => {
            let blocker = BlocklistDefense::from_registry(gen.registry());
            let logs = crawl(
                gen,
                opts.eval_ranks.clone(),
                &VisitConfig::regular(),
                |site| {
                    let (evaded, _) = apply_evasion(site, &blocker, evasion);
                    blocker.prune_site(&evaded).0
                },
            );
            let probe_break = broken_share(baseline_probes, &logs);
            let (e, o, d) = rates(&logs, &opts.entities, engine);
            DefenseRow {
                name,
                exfil_sites_pct: e,
                overwrite_sites_pct: o,
                delete_sites_pct: d,
                probe_break_pct: probe_break,
                note: "trackers rotate domains / randomize URLs / self-host [65]".into(),
            }
        }

        Defense::Partitioning(model) => {
            // Structural no-op in the main frame: reuse the plain crawl.
            assert!(!model.affects_main_frame());
            let (e, o, d) = rates(plain_logs, &opts.entities, engine);
            DefenseRow {
                name,
                exfil_sites_pct: e,
                overwrite_sites_pct: o,
                delete_sites_pct: d,
                probe_break_pct: 0.0,
                note: "partitions embedded contexts only; main frame untouched (§2.1)".into(),
            }
        }

        Defense::CookieGraphLite {
            train_ranks,
            forest,
        } => {
            // Train on a disjoint slice.
            let mut train = Vec::new();
            for log in crawl(
                gen,
                train_ranks.clone(),
                &VisitConfig::regular(),
                Clone::clone,
            ) {
                if !log.complete {
                    continue;
                }
                let mut samples = extract_samples(&log);
                label_samples(&mut samples, gen.registry());
                train.extend(samples);
            }
            let (clf, _) = CookieGraphLite::train(&train, forest, 0xC00C1E);

            // Counterfactual blocking over the evaluation logs.
            let mut residuals = Vec::with_capacity(plain_logs.len());
            let mut broken = 0usize;
            for log in plain_logs {
                let outcome = counterfactual_block(&clf, log);
                // A probe that worked in the plain run breaks when its
                // cookie was classified as tracking.
                broken += log
                    .probes
                    .iter()
                    .filter(|p| p.ok && outcome.blocked_names.contains(log.str(p.cookie)))
                    .count();
                residuals.push(residual_log(log, &outcome.blocked_names));
            }
            let probe_break = if baseline_probes.is_empty() {
                0.0
            } else {
                100.0 * broken as f64 / baseline_probes.len() as f64
            };
            let (e, o, d) = rates(&residuals, &opts.entities, engine);
            DefenseRow {
                name,
                exfil_sites_pct: e,
                overwrite_sites_pct: o,
                delete_sites_pct: d,
                probe_break_pct: probe_break,
                note: "ML-classified tracking cookies blocked; misses FNs, breaks FPs".into(),
            }
        }

        Defense::CookieGuard(cfg) => {
            let logs = crawl(
                gen,
                opts.eval_ranks.clone(),
                &VisitConfig::guarded(cfg.clone()),
                Clone::clone,
            );
            let probe_break = broken_share(baseline_probes, &logs);
            let (e, o, d) = rates(&logs, &opts.entities, engine);
            DefenseRow {
                name,
                exfil_sites_pct: e,
                overwrite_sites_pct: o,
                delete_sites_pct: d,
                probe_break_pct: probe_break,
                note: "per-script-origin jar isolation (§6)".into(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_webgen::GenConfig;

    fn matrix(sites: usize) -> Vec<DefenseRow> {
        let gen = WebGenerator::new(GenConfig::small(sites.max(260)), 0xC00C1E);
        let entities = cg_entity::builtin_entity_map();
        let opts = MatrixOptions {
            eval_ranks: 1..=sites,
            entities,
        };
        let defenses = vec![
            Defense::Blocklist,
            Defense::BlocklistUnderEvasion(EvasionConfig::default()),
            Defense::Partitioning(PartitioningModel::FirefoxTcp),
            Defense::CookieGraphLite {
                train_ranks: (sites + 1)..=(sites + 60),
                forest: ForestConfig::default(),
            },
            Defense::CookieGuard(GuardConfig::strict()),
        ];
        run_defense_matrix(&gen, &defenses, &opts)
    }

    fn row<'a>(rows: &'a [DefenseRow], name: &str) -> &'a DefenseRow {
        rows.iter()
            .find(|r| r.name.starts_with(name))
            .unwrap_or_else(|| panic!("row {name}"))
    }

    #[test]
    fn matrix_orderings_hold() {
        let rows = matrix(120);
        let none = row(&rows, "no defense");
        let blocklist = row(&rows, "blocklist");
        let evaded = row(&rows, "blocklist vs evasion");
        let partitioning = row(&rows, "partitioning");
        let guard = row(&rows, "cookieguard strict");

        assert!(
            none.exfil_sites_pct > 0.0,
            "population must exhibit exfiltration"
        );

        // Partitioning changes nothing in the main frame.
        assert_eq!(partitioning.exfil_sites_pct, none.exfil_sites_pct);
        assert_eq!(partitioning.overwrite_sites_pct, none.overwrite_sites_pct);

        // The blocklist helps…
        assert!(blocklist.exfil_sites_pct < none.exfil_sites_pct);
        // …but evasion claws protection back.
        assert!(evaded.exfil_sites_pct > blocklist.exfil_sites_pct);

        // CookieGuard beats the evaded blocklist.
        assert!(guard.exfil_sites_pct < evaded.exfil_sites_pct);
        assert!(guard.exfil_sites_pct < none.exfil_sites_pct / 2.0);
    }

    #[test]
    fn classifier_row_sits_between_none_and_guard() {
        let rows = matrix(120);
        let none = row(&rows, "no defense");
        let clf = row(&rows, "cookiegraph-lite");
        assert!(clf.exfil_sites_pct <= none.exfil_sites_pct);
        // ML blocking must meaningfully reduce exposure on this
        // separable population.
        assert!(clf.exfil_sites_pct < none.exfil_sites_pct * 0.9);
    }

    #[test]
    fn no_defense_row_has_zero_breakage() {
        let rows = matrix(60);
        assert_eq!(row(&rows, "no defense").probe_break_pct, 0.0);
        assert_eq!(row(&rows, "partitioning").probe_break_pct, 0.0);
    }
}
