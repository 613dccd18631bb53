//! The nine cg-scenarios blueprints as named detector test cases.
//!
//! Each adversarial scenario is visited unguarded (the detector is a
//! measurement consumer — it sees what a vanilla crawl sees) and folded
//! through the detection pipeline with `min_support: 1`, since a posed
//! scenario is a single site. The hard requirements:
//!
//! * respawn-on-delete and the cookie-sync chain MUST be detected;
//! * the whitelist-boundary SSO session cookie MUST NOT be flagged,
//!   even though it is a persistent UUID (no shipping evidence exists);
//! * verdicts agree with the checked-in golden scenario matrix (the
//!   catalog cannot drift under the detector silently).

use cg_browser::{visit_site, VisitConfig};
use cg_detect::{
    DetectConfig, DetectEngine, DetectKey, DetectReport, DetectStats, FlagReason, KeyRow, Owner,
    Stages,
};
use cg_scenarios::{catalog, Fixtures, Scenario};
use cg_webgen::CookieLabels;
use std::sync::OnceLock;

const SEED: u64 = 0xC00C1E;

fn engine() -> &'static DetectEngine {
    static ENGINE: OnceLock<DetectEngine> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let labels = CookieLabels::derive(Fixtures::new().registry());
        DetectEngine::compile(
            &labels,
            cg_entity::builtin_entity_map(),
            DetectConfig {
                min_support: 1,
                ..DetectConfig::default()
            },
        )
    })
}

/// Folds one scenario's vanilla visit and returns the report.
fn detect(scenario: &Scenario) -> DetectReport {
    let outcome = visit_site(&scenario.site, &VisitConfig::regular(), SEED);
    let stats = DetectStats::from_logs(engine(), Stages::Full, [&outcome.log]);
    DetectReport::from_stats(&stats)
}

fn scenario(name: &str) -> Scenario {
    catalog()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("scenario {name} missing from catalog"))
}

fn row<'r>(report: &'r DetectReport, name: &str, owner: &str) -> &'r KeyRow {
    report
        .keys
        .iter()
        .find(|r| r.name == name && r.owner == owner)
        .unwrap_or_else(|| {
            panic!(
                "key ({name}, {owner}) not scored; scored keys: {:?}",
                report
                    .keys
                    .iter()
                    .map(|r| (r.name.as_str(), r.owner.as_str()))
                    .collect::<Vec<_>>()
            )
        })
}

// ---- the two MUST-detect cases -------------------------------------------

#[test]
fn respawn_on_delete_is_detected() {
    let report = detect(&scenario("cookie-respawn-on-delete"));
    let fbp = row(&report, "_fbp", "Meta");
    assert_eq!(fbp.label, "tracker");
    assert!(fbp.flagged, "respawning _fbp must be flagged");
    assert_eq!(
        fbp.reason,
        Some(FlagReason::Respawn),
        "the foreign-delete-then-owner-recreate sequence is the evidence"
    );
    assert_eq!(fbp.respawn_sites, 1);
}

#[test]
fn sync_chain_is_detected() {
    let report = detect(&scenario("cookie-sync-chain"));
    // The adoptive copy: Lotame's own namespace, shipped by Lotame.
    let cc = row(&report, "_cc_ga", "Lotame");
    assert_eq!(cc.label, "tracker");
    assert!(cc.flagged, "the sync-chain copy must be flagged");
    assert_eq!(cc.reason, Some(FlagReason::SelfShip));
    // The minted original: GTM ships its own identifier.
    let ga = row(&report, "_ga", "Google");
    assert!(ga.flagged, "the minted _ga must be flagged");
    assert!(ga.self_ship_sites >= 1);
}

// ---- the MUST-NOT-flag case ----------------------------------------------

#[test]
fn sso_whitelist_boundary_session_is_not_flagged() {
    let report = detect(&scenario("sso-whitelist-boundary"));
    // The session cookie is scored (persistent UUID — it passes the
    // value/lifetime gates) but no one ever ships it, so no rule fires.
    let sess = row(&report, "idp_session", "idp-login.net");
    assert_eq!(sess.label, "functional");
    assert!(
        !sess.flagged,
        "SSO session token must not be flagged: {sess:?}"
    );
    assert_eq!(sess.self_ship_sites, 0);
    // And nothing else on the page produced a false positive.
    assert_eq!(report.instance_scores.fp, 0, "report: {}", report.render());
}

// ---- the remaining six blueprints ----------------------------------------

#[test]
fn cname_cloaked_identifier_is_detected_as_site_owned() {
    let report = detect(&scenario("cname-cloaked-set-cookie"));
    // The HTTP cookie arrives first-party and the cloaked script ships
    // it: a self-ship by the "site" — the guard-blind cell.
    let dcid = row(&report, "_dcid", "(site)");
    assert_eq!(dcid.label, "tracker");
    assert!(dcid.flagged);
    assert_eq!(dcid.reason, Some(FlagReason::SelfShip));
    // Site-owned and flagged = the detector-only cell of the matrix.
    assert!(report.guard_matrix.detector_only >= 1);
}

#[test]
fn contention_overwrite_alone_is_not_shipping_evidence() {
    let report = detect(&scenario("cross-entity-overwrite-contention"));
    // cto_bundle is ground-truth tracker, but this page shows only the
    // overwrite/delete war — no exfiltration, no respawn (the deleted
    // cookie is never re-created). A context-limited miss by design.
    let cto = row(&report, "cto_bundle", "Criteo");
    assert_eq!(cto.label, "tracker");
    assert!(!cto.flagged, "no shipping evidence on this page: {cto:?}");
    assert_eq!(cto.respawn_sites, 0);
}

#[test]
fn ghost_write_free_rider_is_foreign_harvest_evidence() {
    let report = detect(&scenario("subdomain-ghost-write"));
    let fbp = row(&report, "_fbp", "Meta");
    assert!(fbp.flagged);
    // Meta ships its own cookie AND LinkedIn free-rides: the self-ship
    // rule fires first, and the foreign evidence is recorded.
    assert_eq!(fbp.reason, Some(FlagReason::SelfShip));
    let (entity, ships, co) = fbp
        .top_foreign
        .clone()
        .expect("licdn's free-ride must be recorded");
    assert_eq!(entity, "Microsoft");
    assert_eq!((ships, co), (1, 1));
}

#[test]
fn consent_gated_setter_is_detected_once_the_gate_opens() {
    let report = detect(&scenario("consent-gated-late-setter"));
    // Unguarded, the gate opens: bing mints and ships its identifier.
    let uet = row(&report, "_uetsid", "Microsoft");
    assert_eq!(uet.label, "tracker");
    assert!(uet.flagged);
    // The CMP's consent record is id-free and stays clean.
    let consent = row(&report, "OptanonConsent", "OneTrust");
    assert_eq!(consent.label, "functional");
    assert!(!consent.flagged, "consent string must not be flagged");
    assert_eq!(consent.id_sites, 0, "ConsentString has no id segments");
}

#[test]
fn inline_impersonation_is_scored_as_site_owned() {
    let report = detect(&scenario("first-party-impersonation"));
    // The inline GTM copy has no attributable origin: the write lands
    // as the site's own, and the inline exfil is a site self-ship —
    // exactly the first-party collection the detector exists to catch.
    let ga = row(&report, "_ga", "(site)");
    assert_eq!(ga.label, "tracker");
    assert!(ga.flagged);
    assert_eq!(ga.reason, Some(FlagReason::SelfShip));
    // The genuine external tag's cookie stays attributed to Google.
    let gcl = row(&report, "_gcl_au", "Google");
    assert_eq!(gcl.label, "tracker");
}

#[test]
fn mixed_burst_scores_every_registry_tracker_present() {
    let report = detect(&scenario("mixed-burst-stress"));
    for (name, owner) in [
        ("_ga", "Google"),
        ("_gid", "Google"),
        ("_fbp", "Meta"),
        ("cto_bundle", "Criteo"),
        ("ajs_anonymous_id", "Segment.io"),
    ] {
        let r = row(&report, name, owner);
        assert_eq!(r.label, "tracker", "({name}, {owner})");
    }
    // The shipped identifiers are flagged; the page's own server
    // cookies stay out of the scored universe entirely (`session_id`
    // is HttpOnly and never even reaches the scripted surface).
    assert!(row(&report, "_ga", "Google").flagged);
    assert!(row(&report, "_fbp", "Meta").flagged);
    assert!(!report.keys.iter().any(|r| r.name == "session_id"));
    assert!(report.unlabeled_pairs >= 1, "the site's own prefs cookie");
}

// ---- golden-matrix agreement ---------------------------------------------

#[test]
fn catalog_agrees_with_golden_matrix() {
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../cg-scenarios/golden/scenario_matrix.json"
    ))
    .expect("golden scenario matrix is checked in");
    let matrix: serde_json::Value = serde_json::from_str(&golden).expect("golden parses");
    let rows = matrix["rows"].as_array().expect("rows");
    let golden_names: Vec<&str> = rows
        .iter()
        .map(|r| r["scenario"].as_str().expect("scenario name"))
        .collect();
    let catalog_names: Vec<&str> = catalog().iter().map(|s| s.name).collect();
    assert_eq!(
        golden_names, catalog_names,
        "detector test cases and golden matrix must cover the same catalog"
    );
    for r in rows {
        assert_eq!(
            r["verdict"],
            serde_json::Value::Bool(true),
            "golden scenario {} no longer passes",
            r["scenario"]
        );
    }
}

// ---- determinism across scenario folds -----------------------------------

#[test]
fn scenario_fold_order_does_not_change_the_report() {
    let logs: Vec<_> = catalog()
        .iter()
        .map(|s| visit_site(&s.site, &VisitConfig::regular(), SEED).log)
        .collect();
    let forward = DetectStats::from_logs(engine(), Stages::Full, logs.iter());
    let reverse = DetectStats::from_logs(engine(), Stages::Full, logs.iter().rev());
    assert_eq!(
        DetectReport::from_stats(&forward).to_json(),
        DetectReport::from_stats(&reverse).to_json(),
        "visit order must not leak into the report"
    );
}

// ---- the cloaked owner key under DNS-resolving attribution ---------------

#[test]
fn resolve_cnames_collapses_cloaked_writes_into_one_key() {
    let s = scenario("cname-cloaked-set-cookie");
    let cfg = VisitConfig {
        resolve_cnames: true,
        ..VisitConfig::regular()
    };
    let outcome = visit_site(&s.site, &cfg, SEED);
    // Under DNS-aware attribution the cloaked script's writes resolve
    // to the foreign vendor while the script URL stays first-party —
    // any such write lands under the single `(cloaked)` owner key
    // rather than fragmenting across per-site alias targets.
    let stats = DetectStats::from_logs(engine(), Stages::Full, [&outcome.log]);
    let cloaked_owner_keys: Vec<DetectKey> = stats
        .scored()
        .map(|(id, _)| engine().key(id))
        .filter(|k| k.owner == Owner::Cloaked)
        .collect();
    // The posed scenario's only script-written cookies come from the
    // cloaked tracker reading the jar; the HTTP `_dcid` stays
    // site-owned in both modes (servers are not uncloaked).
    let report = DetectReport::from_stats(&stats);
    let dcid = row(&report, "_dcid", "(site)");
    assert!(dcid.flagged, "cloak detection must not regress under DNS");
    assert!(
        cloaked_owner_keys.is_empty()
            || cloaked_owner_keys
                .iter()
                .all(|k| engine().name(k.name) != "_dcid"),
        "_dcid is written by the server, never by the cloaked script"
    );
}
