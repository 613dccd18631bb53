//! The §4.4 exfiltration-detection pipeline, end to end through the real
//! browser: every encoding path, the attribution-loss limitation, and
//! the consent-signal flag case.

use cookieguard_repro::analysis::{Census, ExfilAnalysis};
use cookieguard_repro::browser::Page;
use cookieguard_repro::cookiejar::CookieJar;
use cookieguard_repro::entity::builtin_entity_map;
use cookieguard_repro::filterlist::FilterEngine;
use cookieguard_repro::instrument::{Recorder, VisitLog};
use cookieguard_repro::script::{
    CookieAttrs, CookieSelection, Encoding, EventLoop, ScriptOp, SegmentPolicy, ValueSpec,
};
use cookieguard_repro::url::Url;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

const EPOCH: i64 = 1_750_000_000_000;

fn run(scripts: Vec<(&str, Vec<ScriptOp>)>) -> VisitLog {
    let url = Url::parse("https://www.site.example/").unwrap();
    let mut jar = CookieJar::new();
    let mut recorder = Recorder::new("site.example", 1);
    let injectables = HashMap::new();
    let mut page = Page::new(url, EPOCH, &mut jar, None, &mut recorder, &injectables, 3);
    let mut el = EventLoop::new(EPOCH);
    for (i, (u, ops)) in scripts.iter().enumerate() {
        let exec = page.register_markup_script(Some(u), ops);
        el.push_script(exec, i as u64 * 20);
    }
    let mut rng = StdRng::seed_from_u64(9);
    el.run(&mut page, &mut rng);
    recorder.finish()
}

/// The exfiltration analysis of one visit.
fn detect(log: &VisitLog) -> ExfilAnalysis {
    Census::of_logs([log], &builtin_entity_map(), &FilterEngine::new())
        .finish()
        .exfil
}

fn exfil_op(names: &[&str], seg: SegmentPolicy, enc: Encoding) -> ScriptOp {
    ScriptOp::Exfiltrate {
        dest_host: "sink.collector.example".into(),
        path: "/c".into(),
        selection: CookieSelection::Named(names.iter().map(|s| s.to_string()).collect()),
        segment: seg,
        encoding: enc,
        kind: cookieguard_repro::http::RequestKind::Image,
        via_store: false,
    }
}

#[test]
fn all_four_encodings_are_detected() {
    for enc in [
        Encoding::Plain,
        Encoding::Base64,
        Encoding::Md5,
        Encoding::Sha1,
    ] {
        let log = run(vec![
            (
                "https://owner.tracker.example/set.js",
                vec![ScriptOp::SetCookie {
                    name: "uid".into(),
                    value: ValueSpec::Fixed("user98765432".into()),
                    attrs: CookieAttrs::default(),
                }],
            ),
            (
                "https://grabber.other.example/grab.js",
                vec![exfil_op(&["uid"], SegmentPolicy::LongestSegment, enc)],
            ),
        ]);
        let analysis = detect(&log);
        assert!(
            analysis
                .events
                .iter()
                .any(|e| e.cross_domain && e.pair.name == "uid"),
            "encoding {enc:?} must be detected"
        );
    }
}

#[test]
fn short_values_are_never_flagged() {
    // Values under the 8-character candidate threshold cannot be
    // identifiers per §4.4.
    let log = run(vec![
        (
            "https://owner.tracker.example/set.js",
            vec![ScriptOp::SetCookie {
                name: "flag".into(),
                value: ValueSpec::Fixed("on".into()),
                attrs: CookieAttrs::default(),
            }],
        ),
        (
            "https://grabber.other.example/grab.js",
            vec![exfil_op(&["flag"], SegmentPolicy::Full, Encoding::Plain)],
        ),
    ]);
    let analysis = detect(&log);
    assert!(analysis.events.is_empty(), "short values must not match");
}

#[test]
fn async_attribution_loss_hides_the_exfiltrator() {
    // §8: a deferred callback with a lost stack cannot be attributed, so
    // the request has no initiator and the event is not counted.
    let log = run(vec![
        (
            "https://owner.tracker.example/set.js",
            vec![ScriptOp::SetCookie {
                name: "uid".into(),
                value: ValueSpec::Fixed("user98765432".into()),
                attrs: CookieAttrs::default(),
            }],
        ),
        (
            "https://grabber.other.example/grab.js",
            vec![ScriptOp::Defer {
                delay_ms: 100,
                ops: vec![exfil_op(&["uid"], SegmentPolicy::Full, Encoding::Plain)],
                lose_attribution: true,
            }],
        ),
    ]);
    let analysis = detect(&log);
    assert!(
        analysis.events.is_empty(),
        "unattributable requests fall outside per-script analysis (the paper's limitation)"
    );
    // …but the request itself was observed.
    assert!(log
        .requests
        .iter()
        .any(|r| r.initiator.is_none() && log.str(r.url).contains("user98765432")));
}

#[test]
fn us_privacy_consent_signal_flows_but_is_short() {
    // The IAB us_privacy string ("1YNN") is intended to be read
    // cross-domain; its value is below the identifier threshold, so it
    // never appears as identifier exfiltration — matching the paper's
    // "consent signal, not tracking identifier" discussion.
    let log = run(vec![
        (
            "https://cdn.ketchjs.example/boot.js",
            vec![ScriptOp::SetCookie {
                name: "us_privacy".into(),
                value: ValueSpec::UsPrivacy,
                attrs: CookieAttrs::default(),
            }],
        ),
        (
            "https://ads.exchange.example/bid.js",
            vec![exfil_op(
                &["us_privacy"],
                SegmentPolicy::Full,
                Encoding::Plain,
            )],
        ),
    ]);
    let analysis = detect(&log);
    assert!(analysis.events.is_empty());
    assert!(log
        .requests
        .iter()
        .any(|r| log.str(r.url).contains("us_privacy=1YNN")));
}

#[test]
fn same_entity_cross_domain_still_counts() {
    // §2.1: the unit is the eTLD+1, not the organization — Google
    // exfiltrating a cookie set by googletagmanager.com from a
    // google-analytics.com script is still cross-domain.
    let log = run(vec![
        (
            "https://www.googletagmanager.com/gtm.js",
            vec![ScriptOp::SetCookie {
                name: "_ga".into(),
                value: ValueSpec::Fixed("GA1.1.444332364.1746838827".into()),
                attrs: CookieAttrs::default(),
            }],
        ),
        (
            "https://www.google-analytics.com/analytics.js",
            vec![exfil_op(&["_ga"], SegmentPolicy::Full, Encoding::Plain)],
        ),
    ]);
    let analysis = detect(&log);
    let ev = analysis
        .events
        .iter()
        .find(|e| e.cross_domain)
        .expect("must be detected");
    assert_eq!(ev.exfiltrator, "google-analytics.com");
    assert_eq!(ev.pair.owner, "googletagmanager.com");
    // But Table 2 excludes the owner's own entity from exfiltrator counts.
    let rows = analysis.table2(5);
    assert_eq!(
        rows[0].exfiltrator_entities, 0,
        "Google excluded from its own cookie's count"
    );
    assert_eq!(rows[0].destination_entities, 1);
}
