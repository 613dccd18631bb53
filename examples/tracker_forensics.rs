//! Reproduces the paper's two §5.4 case studies as runnable forensics:
//!
//! 1. **Targeted parsing** — the LinkedIn insight tag extracts the
//!    pseudonymous middle segment of `_ga`, Base64-encodes it, and ships
//!    it to `px.ads.linkedin.com` (the optimonk.com case).
//! 2. **Cross-company identifier sharing** — an Osano consent script
//!    reads the Meta `_fbp` cookie and forwards it to Criteo
//!    (the goosecreekcandle.com case).
//!
//! The example then runs the §4.4 detection pipeline over the recorded
//! logs and shows both flows being caught, with entity attribution.
//!
//! Run with: `cargo run --example tracker_forensics`

use cookieguard_repro::analysis::Census;
use cookieguard_repro::browser::Page;
use cookieguard_repro::cookiejar::CookieJar;
use cookieguard_repro::entity::builtin_entity_map;
use cookieguard_repro::filterlist::FilterEngine;
use cookieguard_repro::hash::b64encode_no_pad;
use cookieguard_repro::instrument::Recorder;
use cookieguard_repro::script::{
    CookieAttrs, CookieSelection, Encoding, EventLoop, ScriptOp, SegmentPolicy, ValueSpec,
};
use cookieguard_repro::url::Url;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

const EPOCH_MS: i64 = 1_746_838_827_000; // the timestamp in the paper's example

fn main() {
    let url = Url::parse("https://www.optimonk.example/").unwrap();
    let mut jar = CookieJar::new();
    let mut recorder = Recorder::new("optimonk.example", 1);
    let injectables = HashMap::new();
    let mut page = Page::new(
        url,
        EPOCH_MS,
        &mut jar,
        None,
        &mut recorder,
        &injectables,
        7,
    );
    let mut el = EventLoop::new(EPOCH_MS);

    // googletagmanager ghost-writes _ga (value fixed to the paper's).
    let gtm_ops = vec![ScriptOp::SetCookie {
        name: "_ga".into(),
        value: ValueSpec::Fixed("GA1.1.444332364.1746838827".into()),
        attrs: CookieAttrs {
            site_wide: true,
            ..CookieAttrs::default()
        },
    }];
    let gtm =
        page.register_markup_script(Some("https://www.googletagmanager.com/gtm.js"), &gtm_ops);
    // facebook.net ghost-writes _fbp (the paper's value).
    let fb_ops = vec![ScriptOp::SetCookie {
        name: "_fbp".into(),
        value: ValueSpec::Fixed("fb.0.1746746266109.868308499845957651".into()),
        attrs: CookieAttrs {
            site_wide: true,
            ..CookieAttrs::default()
        },
    }];
    let fb = page.register_markup_script(
        Some("https://connect.facebook.net/en_US/fbevents.js"),
        &fb_ops,
    );
    // Case 1: LinkedIn insight tag — targeted segment parsing + Base64.
    let licdn_ops = vec![ScriptOp::Exfiltrate {
        dest_host: "px.ads.linkedin.com".into(),
        path: "/attribution_trigger".into(),
        selection: CookieSelection::Named(vec!["_ga".into()]),
        segment: SegmentPolicy::LongestSegment,
        encoding: Encoding::Base64,
        kind: cookieguard_repro::http::RequestKind::Image,
        via_store: false,
    }];
    let licdn = page.register_markup_script(
        Some("https://snap.licdn.com/li.lms-analytics/insight.min.js"),
        &licdn_ops,
    );
    // Case 2: Osano consent script forwards _fbp to Criteo, verbatim.
    let osano_ops = vec![ScriptOp::Exfiltrate {
        dest_host: "sslwidget.criteo.com".into(),
        path: "/event".into(),
        selection: CookieSelection::Named(vec!["_fbp".into()]),
        segment: SegmentPolicy::Full,
        encoding: Encoding::Plain,
        kind: cookieguard_repro::http::RequestKind::Xhr,
        via_store: false,
    }];
    let osano = page.register_markup_script(
        Some("https://cmp.osano.com/1vX3GkPazR/osano.js"),
        &osano_ops,
    );
    for (i, exec) in [gtm, fb, licdn, osano].into_iter().enumerate() {
        el.push_script(exec, i as u64 * 25);
    }
    let mut rng = StdRng::seed_from_u64(1);
    el.run(&mut page, &mut rng);
    let log = recorder.finish();

    println!("outbound requests observed:");
    for req in &log.requests {
        println!(
            "  {} -> {}",
            log.opt_str(req.initiator).unwrap_or_default(),
            log.str(req.url)
        );
    }

    // The paper's §5.4 observation: the Base64 of the _ga middle segment.
    let expected = b64encode_no_pad(b"1746838827"); // longest segment of the value
    let seg_b64 = b64encode_no_pad(b"444332364");
    println!("\nBase64 forms: id-segment {seg_b64}, ts-segment {expected}");

    // Run the §4.4 detection pipeline over the log.
    let entities = builtin_entity_map();
    let analysis = Census::of_logs([log], &entities, &FilterEngine::new())
        .finish()
        .exfil;
    println!("\ndetected exfiltration events:");
    for ev in analysis.events.iter().filter(|e| e.cross_domain) {
        println!(
            "  cookie ({}, {}) exfiltrated by {} [{}] -> {} [{}]",
            ev.pair.name,
            ev.pair.owner,
            ev.exfiltrator,
            entities.entity_of(&ev.exfiltrator),
            ev.destination,
            entities.entity_of(&ev.destination),
        );
    }
    assert!(
        analysis
            .events
            .iter()
            .any(|e| e.exfiltrator == "licdn.com" && e.pair.name == "_ga"),
        "the LinkedIn case must be detected"
    );
    assert!(
        analysis.events.iter().any(|e| e.exfiltrator == "osano.com"
            && e.pair.name == "_fbp"
            && e.destination == "criteo.com"),
        "the Osano→Criteo case must be detected"
    );
    println!("\nboth §5.4 case studies detected ✓");
}
