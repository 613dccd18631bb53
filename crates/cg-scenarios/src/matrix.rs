//! The scenario matrix: every catalog scenario × every defense
//! condition, with per-cell counters and per-check verdicts.
//!
//! Output is **deterministic**: for a given master seed the JSON
//! rendering is byte-identical regardless of thread count (workers
//! write into index-addressed slots; nothing depends on completion
//! order), which is what lets CI diff the matrix against a checked-in
//! golden file.

use crate::catalog::catalog;
use crate::fixtures::Fixtures;
use crate::scenario::Scenario;
use cg_baselines::BlocklistDefense;
use cg_browser::{visit_site, VisitConfig, VisitOutcome};
use cg_instrument::WriteKind;
use cookieguard_core::{GuardConfig, GuardEngine};
use serde::Serialize;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Matrix column names, in rendering order.
pub const CONDITIONS: &[&str] = &[
    "vanilla",
    "blocklist",
    "partitioning-tcp",
    "cookieguard",
    "cookieguard-entity",
    "cookieguard-whitelist",
    "cookieguard-dns",
];

/// One (scenario, condition) cell: counters summarizing what the visit
/// log showed.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ConditionCell {
    /// Condition (column) name.
    pub condition: String,
    /// Admitted creates/overwrites.
    pub sets_applied: usize,
    /// Guard-blocked creates/overwrites.
    pub sets_blocked: usize,
    /// Admitted deletes.
    pub deletes_applied: usize,
    /// Guard-blocked deletes.
    pub deletes_blocked: usize,
    /// Total cookies withheld across reads.
    pub reads_filtered: usize,
    /// Outbound requests whose query string carries a cookie written
    /// (or attempted) during this visit.
    pub exfil_requests: usize,
    /// All outbound requests.
    pub requests: usize,
    /// Functional probes that succeeded.
    pub probes_ok: usize,
    /// Functional probes that failed.
    pub probes_failed: usize,
    /// Total cookie API operations.
    pub cookie_ops: usize,
    /// Cookies left in the jar after the visit.
    pub final_jar_size: usize,
}

/// One expectation's verdict in one cell.
#[derive(Debug, Clone, Serialize)]
pub struct CheckOutcome {
    /// The condition the claim was checked against.
    pub condition: String,
    /// Human-readable claim.
    pub check: String,
    /// Whether the visit log satisfied it.
    pub pass: bool,
}

/// One scenario row: cells across all conditions plus check verdicts.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioRow {
    /// Scenario identifier.
    pub scenario: String,
    /// Display title.
    pub title: String,
    /// Paper anchor.
    pub paper_ref: String,
    /// The posed site's domain.
    pub site: String,
    /// One cell per entry of [`CONDITIONS`], in order.
    pub cells: Vec<ConditionCell>,
    /// Every expectation verdict.
    pub checks: Vec<CheckOutcome>,
    /// True when every check passed.
    pub verdict: bool,
}

/// The full matrix.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioMatrix {
    /// Master seed the visits derived from.
    pub seed: u64,
    /// Column names, in cell order.
    pub conditions: Vec<String>,
    /// One row per catalog scenario, in catalog order.
    pub rows: Vec<ScenarioRow>,
}

impl ScenarioMatrix {
    /// Scenarios whose expectation list fully passed.
    pub fn passing(&self) -> usize {
        self.rows.iter().filter(|r| r.verdict).count()
    }

    /// The canonical JSON rendering (pretty, stable field order) — the
    /// byte-exact artifact CI compares against the golden file.
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("matrix serializes");
        s.push('\n');
        s
    }
}

/// Runs the whole catalog under every condition.
///
/// `seed` drives behaviour randomness (each scenario's visit seed is
/// derived from it by index); `threads` shards scenarios across worker
/// threads without affecting output bytes.
pub fn run_matrix(seed: u64, threads: usize) -> ScenarioMatrix {
    let fixtures = Fixtures::new();
    let scenarios = catalog();
    let blocker = BlocklistDefense::from_registry(fixtures.registry());

    // Compile each guard engine once; every scenario visit opens a
    // cheap per-site session on the shared engine.
    let strict = GuardEngine::shared(GuardConfig::strict());
    let entity = GuardEngine::shared(
        GuardConfig::strict().with_entity_grouping(cg_entity::builtin_entity_map()),
    );
    let whitelist =
        GuardEngine::shared(GuardConfig::strict().with_whitelisted("account-portal.com"));

    let threads = threads.max(1).min(scenarios.len().max(1));
    let mut rows: Vec<Option<ScenarioRow>> = vec![None; scenarios.len()];
    std::thread::scope(|scope| {
        let mut pending: Vec<(usize, &Scenario, &mut Option<ScenarioRow>)> = scenarios
            .iter()
            .enumerate()
            .zip(rows.iter_mut())
            .map(|((i, s), slot)| (i, s, slot))
            .collect();
        let chunk = pending.len().div_ceil(threads);
        while !pending.is_empty() {
            let batch: Vec<_> = pending.drain(..chunk.min(pending.len())).collect();
            let blocker = &blocker;
            let strict = &strict;
            let entity = &entity;
            let whitelist = &whitelist;
            scope.spawn(move || {
                for (i, s, slot) in batch {
                    let visit_seed = cg_webgen::site::splitmix64(seed ^ (i as u64 + 1));
                    *slot = Some(run_scenario(
                        s, visit_seed, blocker, strict, entity, whitelist,
                    ));
                }
            });
        }
    });

    ScenarioMatrix {
        seed,
        conditions: CONDITIONS.iter().map(|c| c.to_string()).collect(),
        rows: rows.into_iter().map(|r| r.expect("row computed")).collect(),
    }
}

fn run_scenario(
    s: &Scenario,
    visit_seed: u64,
    blocker: &BlocklistDefense,
    strict: &Arc<GuardEngine>,
    entity: &Arc<GuardEngine>,
    whitelist: &Arc<GuardEngine>,
) -> ScenarioRow {
    let vanilla_cfg = VisitConfig::regular();
    // The unmodified-blueprint conditions all go through the scenario
    // visit entry point with one shared seed.
    let plain_conditions = vec![
        ("vanilla".to_string(), vanilla_cfg.clone()),
        (
            "cookieguard".to_string(),
            VisitConfig::guarded_by(Arc::clone(strict)),
        ),
        (
            "cookieguard-entity".to_string(),
            VisitConfig::guarded_by(Arc::clone(entity)),
        ),
        (
            "cookieguard-whitelist".to_string(),
            VisitConfig::guarded_by(Arc::clone(whitelist)),
        ),
        (
            "cookieguard-dns".to_string(),
            VisitConfig {
                resolve_cnames: true,
                ..VisitConfig::guarded_by(Arc::clone(strict))
            },
        ),
    ];
    let plain: Vec<(String, VisitOutcome)> =
        cg_browser::visit_under_conditions(&s.site, &plain_conditions, visit_seed)
            .into_iter()
            .map(|c| (c.condition, c.outcome))
            .collect();
    let by_name = |name: &str| -> &VisitOutcome {
        &plain
            .iter()
            .find(|(n, _)| n == name)
            .expect("condition visited")
            .1
    };
    let outcomes: Vec<(String, VisitOutcome)> = CONDITIONS
        .iter()
        .map(|name| {
            let outcome = match *name {
                // Blocklist is a blueprint transform, not a visit config:
                // listed vendor scripts never load.
                "blocklist" => visit_site(&blocker.prune_site(&s.site).0, &vanilla_cfg, visit_seed),
                // Partitioning re-keys embedded-context storage only; the
                // main-frame visit this harness measures is untouched by
                // construction (§2.1), so its cell IS the vanilla outcome.
                "partitioning-tcp" => by_name("vanilla").clone(),
                other => by_name(other).clone(),
            };
            (name.to_string(), outcome)
        })
        .collect();

    let vanilla_log = &outcomes
        .iter()
        .find(|(n, _)| n == "vanilla")
        .expect("vanilla is always a matrix condition")
        .1
        .log;
    let site = s.site_domain();

    let cells = outcomes
        .iter()
        .map(|(name, o)| summarize(name, o))
        .collect();

    let mut checks = Vec::with_capacity(s.expectation.len());
    let mut verdict = true;
    for (kind, expect) in &s.expectation {
        let cond = kind.condition_name();
        let log = &outcomes
            .iter()
            .find(|(n, _)| n == cond)
            .expect("expectation names a known condition")
            .1
            .log;
        let pass = expect.eval(log, vanilla_log, site);
        verdict &= pass;
        checks.push(CheckOutcome {
            condition: cond.to_string(),
            check: expect.describe(),
            pass,
        });
    }

    ScenarioRow {
        scenario: s.name.to_string(),
        title: s.title.to_string(),
        paper_ref: s.paper_ref.to_string(),
        site: site.to_string(),
        cells,
        checks,
        verdict,
    }
}

fn summarize(condition: &str, o: &VisitOutcome) -> ConditionCell {
    let log = &o.log;
    // Names written (or attempted) this visit: the exfiltration
    // detector's watch set.
    let watched: BTreeSet<&str> = log.sets.iter().map(|s| log.str(s.name)).collect();
    let exfil_requests = log
        .requests
        .iter()
        .filter(|r| {
            log.str(r.url)
                .split_once('?')
                .map(|(_, q)| {
                    q.split('&')
                        .filter_map(|kv| kv.split_once('=').map(|(k, _)| k))
                        .any(|k| watched.contains(k))
                })
                .unwrap_or(false)
        })
        .count();
    let write = |k: WriteKind| matches!(k, WriteKind::Create | WriteKind::Overwrite);
    ConditionCell {
        condition: condition.to_string(),
        sets_applied: log
            .sets
            .iter()
            .filter(|s| write(s.kind) && !s.blocked)
            .count(),
        sets_blocked: log
            .sets
            .iter()
            .filter(|s| write(s.kind) && s.blocked)
            .count(),
        deletes_applied: log
            .sets
            .iter()
            .filter(|s| s.kind == WriteKind::Delete && !s.blocked)
            .count(),
        deletes_blocked: log
            .sets
            .iter()
            .filter(|s| s.kind == WriteKind::Delete && s.blocked)
            .count(),
        reads_filtered: log.reads.iter().map(|r| r.filtered_count).sum(),
        exfil_requests,
        requests: log.requests.len(),
        probes_ok: log.probes.iter().filter(|p| p.ok).count(),
        probes_failed: log.probes.iter().filter(|p| !p.ok).count(),
        cookie_ops: o.cookie_ops,
        final_jar_size: o.final_jar_size,
    }
}

/// Renders the matrix as a fixed-width text table (one line per
/// scenario × condition block, then the failed checks, if any).
pub fn render_table(m: &ScenarioMatrix) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "scenario matrix — seed {:#x}, {} scenarios, {} conditions",
        m.seed,
        m.rows.len(),
        m.conditions.len()
    );
    for row in &m.rows {
        let _ = writeln!(out, "\n{} ({}) — {}", row.scenario, row.site, row.paper_ref);
        let _ = writeln!(
            out,
            "  {:<22} {:>5} {:>5} {:>5} {:>5} {:>5} {:>6} {:>5} {:>6}",
            "condition", "set", "blk", "del", "dblk", "filt", "exfil", "req", "probe"
        );
        for c in &row.cells {
            let _ = writeln!(
                out,
                "  {:<22} {:>5} {:>5} {:>5} {:>5} {:>5} {:>6} {:>5} {:>3}/{}",
                c.condition,
                c.sets_applied,
                c.sets_blocked,
                c.deletes_applied,
                c.deletes_blocked,
                c.reads_filtered,
                c.exfil_requests,
                c.requests,
                c.probes_ok,
                c.probes_ok + c.probes_failed,
            );
        }
        let passed = row.checks.iter().filter(|c| c.pass).count();
        let _ = writeln!(
            out,
            "  checks: {passed}/{} {}",
            row.checks.len(),
            if row.verdict { "ok" } else { "FAILED" }
        );
        for c in row.checks.iter().filter(|c| !c.pass) {
            let _ = writeln!(out, "    FAIL [{}] {}", c.condition, c.check);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_has_full_shape_and_passes() {
        let m = run_matrix(0xC00C1E, 2);
        assert!(m.rows.len() >= 8, "catalog must pose >= 8 scenarios");
        assert_eq!(m.conditions.len(), CONDITIONS.len());
        for row in &m.rows {
            assert_eq!(row.cells.len(), CONDITIONS.len());
            assert!(
                row.verdict,
                "scenario {} failed: {:#?}",
                row.scenario,
                row.checks.iter().filter(|c| !c.pass).collect::<Vec<_>>()
            );
        }
    }
}
