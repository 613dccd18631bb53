//! Quickstart: build a tiny page by hand, watch third-party scripts abuse
//! the first-party cookie jar, then attach CookieGuard and watch the
//! isolation policy stop them.
//!
//! Run with: `cargo run --example quickstart`

use cookieguard_repro::browser::Page;
use cookieguard_repro::cookieguard::{GuardConfig, GuardEngine, GuardSession};
use cookieguard_repro::cookiejar::CookieJar;
use cookieguard_repro::instrument::Recorder;
use cookieguard_repro::script::{
    AttrChanges, CookieAttrs, CookieSelection, Encoding, EventLoop, ScriptOp, SegmentPolicy,
    ValueSpec,
};
use cookieguard_repro::url::Url;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

const EPOCH_MS: i64 = 1_750_000_000_000;

/// The same page, with or without CookieGuard attached.
fn run_page(
    guard: Option<&mut GuardSession>,
) -> (cookieguard_repro::instrument::VisitLog, CookieJar) {
    let url = Url::parse("https://www.shop.example/").unwrap();
    let mut jar = CookieJar::new();
    let mut recorder = Recorder::new("shop.example", 1);
    let injectables = HashMap::new();
    let mut page = Page::new(
        url,
        EPOCH_MS,
        &mut jar,
        guard,
        &mut recorder,
        &injectables,
        7,
    );

    // The server establishes a session (HttpOnly: out of scripts' reach).
    page.apply_server_cookies(&[
        "session=5f2a91; Path=/; HttpOnly".to_string(),
        "prefs=dark".to_string(),
    ]);

    let mut el = EventLoop::new(EPOCH_MS);
    // 1. The site's own script sets a cart cookie.
    let app_ops = vec![
        ScriptOp::SetCookie {
            name: "cart_id".into(),
            value: ValueSpec::Uuid,
            attrs: CookieAttrs::default(),
        },
        ScriptOp::ReadAllCookies,
    ];
    let app = page.register_markup_script(Some("https://www.shop.example/static/app.js"), &app_ops);
    // 2. An analytics tag ghost-writes _ga into the first-party jar.
    let ga_ops = vec![ScriptOp::SetCookie {
        name: "_ga".into(),
        value: ValueSpec::GaStyle,
        attrs: CookieAttrs {
            max_age_s: Some(63_072_000),
            site_wide: true,
            ..CookieAttrs::default()
        },
    }];
    let ga = page.register_markup_script(Some("https://www.googletagmanager.com/gtm.js"), &ga_ops);
    // 3. A retargeting script reads the whole jar and exfiltrates the _ga
    //    identifier it never set…
    let tracker_ops = vec![
        ScriptOp::ReadAllCookies,
        ScriptOp::Exfiltrate {
            dest_host: "px.ads.linkedin.com".into(),
            path: "/attribution_trigger".into(),
            selection: CookieSelection::Named(vec!["_ga".into(), "cart_id".into()]),
            segment: SegmentPolicy::LongestSegment,
            encoding: Encoding::Base64,
            kind: cookieguard_repro::http::RequestKind::Image,
            via_store: false,
        },
        // …and overwrites it for good measure.
        ScriptOp::OverwriteCookie {
            target: "_ga".into(),
            value: ValueSpec::GaStyle,
            changes: AttrChanges::value_and_expiry(),
            blind: false,
        },
    ];
    let tracker = page.register_markup_script(
        Some("https://snap.licdn.com/li.lms-analytics/insight.min.js"),
        &tracker_ops,
    );
    el.push_script(app, 0);
    el.push_script(ga, 25);
    el.push_script(tracker, 50);
    let mut rng = StdRng::seed_from_u64(1);
    el.run(&mut page, &mut rng);
    (recorder.finish(), jar)
}

fn main() {
    println!("=== Without CookieGuard (the status quo the paper measures) ===");
    let (log, _) = run_page(None);
    for read in &log.reads {
        println!(
            "  read  by {:<24} -> {} cookie(s) visible",
            log.opt_str(read.actor).unwrap_or_default(),
            read.names.len()
        );
    }
    for req in &log.requests {
        println!(
            "  exfil by {:<24} -> {}",
            log.opt_str(req.initiator).unwrap_or_default(),
            log.str(req.url)
        );
    }
    let blocked = log.sets.iter().filter(|s| s.blocked).count();
    println!("  writes blocked: {blocked}");

    println!();
    println!("=== With CookieGuard (strict isolation, §6) ===");
    let mut guard = GuardEngine::shared(GuardConfig::strict()).session("shop.example");
    let (log, _) = run_page(Some(&mut guard));
    for read in &log.reads {
        println!(
            "  read  by {:<24} -> {} cookie(s) visible ({} filtered)",
            log.opt_str(read.actor).unwrap_or_default(),
            read.names.len(),
            read.filtered_count
        );
    }
    let carrying: Vec<&str> = log
        .requests
        .iter()
        .map(|r| log.str(r.url))
        .filter(|url| url.contains('='))
        .collect();
    if carrying.is_empty() {
        println!("  no exfiltration requests carried foreign cookies");
    } else {
        for u in carrying {
            println!("  outbound: {u}");
        }
    }
    let blocked = log.sets.iter().filter(|s| s.blocked).count();
    println!("  writes blocked: {blocked}");
    let stats = guard.stats();
    println!(
        "  guard stats: {} cookies filtered over {} reads, {} writes blocked",
        stats.cookies_filtered, stats.reads_filtered, stats.writes_blocked
    );
}
