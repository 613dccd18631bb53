//! Integration: the baseline defenses the paper positions CookieGuard
//! against, exercised end-to-end on one generated population.
//!
//! Pins the qualitative claims of §1/§2.1/§9:
//! * storage partitioning stops embedded-context tracking but not
//!   main-frame cross-domain access;
//! * blocklists protect until URL manipulation [65] out-runs them;
//! * ML cookie blocking (CookieGraph-style) generalizes across sites
//!   but ships false negatives and collateral breakage;
//! * CSP gates loading, not cookie access;
//! * CookieGuard composes with a blocklist (defense in depth).

use cookieguard_repro::analysis::{build_filter_engine, Census};
use cookieguard_repro::baselines::{
    apply_evasion, extract_samples, label_samples, main_frame_leak_demo, run_csp_gap,
    run_defense_matrix, simulate_embedded_tracking, BlocklistDefense, CookieGraphLite, Defense,
    DefenseRow, EvasionConfig, ForestConfig, MatrixOptions, PartitioningModel,
};
use cookieguard_repro::browser::{visit_site, VisitConfig};
use cookieguard_repro::cookieguard::GuardConfig;
use cookieguard_repro::entity::builtin_entity_map;
use cookieguard_repro::webgen::{GenConfig, WebGenerator};

const SEED: u64 = 0xC00C1E;

fn generator(sites: usize) -> WebGenerator {
    WebGenerator::new(GenConfig::small(sites), SEED)
}

fn row<'a>(rows: &'a [DefenseRow], name: &str) -> &'a DefenseRow {
    rows.iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("missing row {name}"))
}

#[test]
fn partitioning_scope_boundary() {
    let sites = [
        "a.example",
        "b.example",
        "c.example",
        "d.example",
        "e.example",
    ];
    for model in [
        PartitioningModel::SafariItp,
        PartitioningModel::FirefoxTcp,
        PartitioningModel::ChromeChips,
    ] {
        // In scope: embedded-context tracking is cut (CHIPS needs the
        // opt-in attribute).
        let partitioned = simulate_embedded_tracking(model, "t.com", &sites, true);
        assert_eq!(
            partitioned.distinct_ids,
            sites.len(),
            "{model:?} embedded contexts"
        );
        // Out of scope: the main frame leaks under every model.
        assert!(
            main_frame_leak_demo(model, "site.com").leaked,
            "{model:?} main frame"
        );
    }
    // The pre-partitioning web: one profile everywhere.
    let legacy =
        simulate_embedded_tracking(PartitioningModel::Unpartitioned, "t.com", &sites, true);
    assert_eq!(legacy.distinct_ids, 1);
}

#[test]
fn blocklist_evasion_arms_race() {
    let gen = generator(240);
    let entities = builtin_entity_map();
    let opts = MatrixOptions {
        eval_ranks: 1..=140,
        entities,
    };
    let rows = run_defense_matrix(
        &gen,
        &[
            Defense::Blocklist,
            Defense::BlocklistUnderEvasion(EvasionConfig::default()),
            Defense::Partitioning(PartitioningModel::SafariItp),
            Defense::CookieGuard(GuardConfig::strict()),
        ],
        &opts,
    );
    let none = row(&rows, "no defense");
    let blocklist = row(&rows, "blocklist");
    let evaded = row(&rows, "blocklist vs evasion");
    let partitioned = row(&rows, "partitioning (safari-itp)");
    let guard = row(&rows, "cookieguard strict");

    // The population exhibits all three cross-domain actions unguarded.
    assert!(none.exfil_sites_pct > 30.0);
    assert!(none.overwrite_sites_pct > 5.0);

    // Blocklist with perfect coverage protects, at a breakage cost
    // (consent managers and ad-funded features are on the lists).
    assert!(blocklist.exfil_sites_pct < none.exfil_sites_pct / 3.0);
    assert!(blocklist.probe_break_pct > 0.0);

    // Evasion restores a large share of the tracking.
    assert!(
        evaded.exfil_sites_pct > blocklist.exfil_sites_pct + 10.0,
        "evasion must restore ≥10pp of exfiltration ({:.1} vs {:.1})",
        evaded.exfil_sites_pct,
        blocklist.exfil_sites_pct,
    );

    // Partitioning: bit-identical to no defense in the main frame.
    assert_eq!(partitioned.exfil_sites_pct, none.exfil_sites_pct);
    assert_eq!(partitioned.delete_sites_pct, none.delete_sites_pct);
    assert_eq!(partitioned.probe_break_pct, 0.0);

    // CookieGuard needs no list, so evasion does not exist for it:
    // rotated domains are still not the cookie's creator.
    assert!(guard.exfil_sites_pct < evaded.exfil_sites_pct);
}

#[test]
fn rotated_domains_do_not_evade_the_guard() {
    // The decisive mechanism check behind the matrix: take a site,
    // apply domain rotation (which defeats the blocklist), and verify
    // the guard's isolation is unaffected — the rotated tracker still
    // cannot read cookies it did not create.
    let gen = generator(240);
    let blocker = BlocklistDefense::from_registry(gen.registry());
    let evasion = EvasionConfig {
        evade_prob: 1.0,
        technique_weights: [1.0, 0.0, 0.0], // rotation only
        seed: 99,
    };
    let mut checked = 0;
    for rank in 1..=120 {
        let site = gen.blueprint(rank);
        if !site.spec.crawl_ok {
            continue;
        }
        let (evaded, stats) = apply_evasion(&site, &blocker, &evasion);
        if stats.total() == 0 {
            continue;
        }
        let guarded = visit_site(
            &evaded,
            &VisitConfig::guarded(GuardConfig::strict()),
            gen.site_seed(rank),
        );
        let g = guarded.guard_stats.expect("guard attached");
        // Rotation changed every tracker's identity, but each rotated
        // domain is still a distinct non-owner: reads of foreign
        // cookies keep getting filtered.
        let unguarded = visit_site(&evaded, &VisitConfig::regular(), gen.site_seed(rank));
        let leaked_pairs: usize = unguarded.log.reads.iter().map(|r| r.names.len()).sum();
        if leaked_pairs > 0 && g.cookies_filtered > 0 {
            checked += 1;
        }
    }
    assert!(
        checked >= 10,
        "guard must keep filtering on rotated-tracker sites ({checked})"
    );
}

#[test]
fn classifier_generalizes_and_pays_in_breakage() {
    let gen = generator(400);
    let mut train = Vec::new();
    let mut test = Vec::new();
    for rank in 1..=260 {
        let site = gen.blueprint(rank);
        if !site.spec.crawl_ok {
            continue;
        }
        let log = visit_site(&site, &VisitConfig::regular(), gen.site_seed(rank)).log;
        let mut samples = extract_samples(&log);
        label_samples(&mut samples, gen.registry());
        if rank <= 150 {
            train.extend(samples);
        } else {
            test.extend(samples);
        }
    }
    let (clf, report) = CookieGraphLite::train(&train, &ForestConfig::default(), SEED);
    assert!(report.positives > 50, "training needs tracking positives");

    let eval = clf.evaluate(&test);
    assert!(
        eval.accuracy() > 0.85,
        "cross-site accuracy {:.3} ({eval:?})",
        eval.accuracy()
    );
    assert!(eval.recall() > 0.7, "recall {:.3}", eval.recall());
    // The structural gap CookieGuard does not have: some tracking pairs
    // slip through on unseen sites (false negatives) or benign pairs
    // get blocked (false positives). A perfect-classifier world would
    // make this baseline equivalent; the measured web is not that world
    // and neither is the calibrated population.
    assert!(
        eval.fn_ + eval.fp > 0,
        "the classifier baseline should not be oracle-perfect on unseen sites"
    );
}

#[test]
fn csp_gap_quantified() {
    let gen = generator(260);
    let entities = builtin_entity_map();
    let rows = run_csp_gap(&gen, 1..=100, &entities);
    assert_eq!(rows.len(), 4);
    let none = &rows[0];
    let direct = &rows[1];
    let full = &rows[2];
    let guard = &rows[3];

    // Load-level: only the gapped policy blocks anything.
    assert_eq!(none.scripts_blocked, 0);
    assert!(direct.scripts_blocked > 0);
    assert_eq!(full.scripts_blocked, 0);

    // Cookie-level: a fully allowlisting CSP changes nothing; the
    // guard, which blocks no loads at all, collapses exposure.
    assert_eq!(full.exfil_sites_pct, none.exfil_sites_pct);
    assert_eq!(full.exfiltrated_pairs, none.exfiltrated_pairs);
    assert_eq!(guard.scripts_blocked, 0);
    assert!(guard.exfil_sites_pct < none.exfil_sites_pct / 2.0);
}

#[test]
fn blocklist_and_guard_compose() {
    // Defense in depth: prune listed trackers at load time AND isolate
    // the jar at access time. The composition must be at least as
    // strong as each layer alone on every metric.
    let gen = generator(240);
    let entities = builtin_entity_map();
    let blocker = BlocklistDefense::from_registry(gen.registry());

    let engine = build_filter_engine(gen.registry());
    let exfil_pct = |logs: Vec<cookieguard_repro::instrument::VisitLog>| {
        Census::of_logs(logs, &entities, &engine)
            .finish()
            .table1
            .doc_exfiltration
            .sites_pct
    };

    let ranks = 1..=120;
    let plain: Vec<_> = ranks
        .clone()
        .map(|r| visit_site(&gen.blueprint(r), &VisitConfig::regular(), gen.site_seed(r)).log)
        .collect();
    let guard_only: Vec<_> = ranks
        .clone()
        .map(|r| {
            visit_site(
                &gen.blueprint(r),
                &VisitConfig::guarded(GuardConfig::strict()),
                gen.site_seed(r),
            )
            .log
        })
        .collect();
    let both: Vec<_> = ranks
        .clone()
        .map(|r| {
            let pruned = blocker.prune_site(&gen.blueprint(r)).0;
            visit_site(
                &pruned,
                &VisitConfig::guarded(GuardConfig::strict()),
                gen.site_seed(r),
            )
            .log
        })
        .collect();

    let p_plain = exfil_pct(plain);
    let p_guard = exfil_pct(guard_only);
    let p_both = exfil_pct(both);
    assert!(p_guard < p_plain);
    assert!(
        p_both <= p_guard + 1e-9,
        "stacking must not weaken the guard ({p_both:.1} vs {p_guard:.1})"
    );
}
