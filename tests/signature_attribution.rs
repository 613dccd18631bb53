//! Signature-based inline attribution (§8, after Chen et al.): an inline
//! copy of a known tracker behaviour is attributed to the tracker's
//! domain at the policy layer, closing the "embed the tracker inline"
//! evasion in *both* inline modes:
//!
//! * relaxed mode: an inline tracker would otherwise enjoy first-party
//!   (full-jar) access — attribution demotes it to its own cookies;
//! * strict mode: attribution lets a benign known script keep working
//!   (reading its own cookies) instead of being denied everything.

use cookieguard_repro::browser::Page;
use cookieguard_repro::cookieguard::{GuardConfig, GuardEngine, GuardSession};
use cookieguard_repro::cookiejar::CookieJar;
use cookieguard_repro::instrument::Recorder;
use cookieguard_repro::script::{
    CookieAttrs, CookieSelection, Encoding, EventLoop, ScriptOp, SegmentPolicy, SignatureDb,
    ValueSpec,
};
use cookieguard_repro::url::Url;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

const EPOCH: i64 = 1_750_000_000_000;

/// A tracker behaviour: set own id, read the jar, exfiltrate.
fn tracker_ops() -> Vec<ScriptOp> {
    vec![
        ScriptOp::SetCookie {
            name: "_tid".into(),
            value: ValueSpec::Uuid,
            attrs: CookieAttrs::default(),
        },
        ScriptOp::ReadAllCookies,
        ScriptOp::Exfiltrate {
            dest_host: "sink.tracker.io".into(),
            path: "/c".into(),
            selection: CookieSelection::All,
            segment: SegmentPolicy::Full,
            encoding: Encoding::Plain,
            kind: cookieguard_repro::http::RequestKind::Image,
            via_store: false,
        },
    ]
}

fn run(
    guard: &mut GuardSession,
    db: Option<SignatureDb>,
) -> cookieguard_repro::instrument::VisitLog {
    let url = Url::parse("https://www.site.example/").unwrap();
    let mut jar = CookieJar::new();
    let mut recorder = Recorder::new("site.example", 1);
    let injectables = HashMap::new();
    let mut page = Page::new(
        url,
        EPOCH,
        &mut jar,
        Some(guard),
        &mut recorder,
        &injectables,
        3,
    );
    if let Some(db) = db {
        page = page.with_signatures(db);
    }
    let mut el = EventLoop::new(EPOCH);
    // The site's own script sets a session cookie.
    let own_ops = vec![ScriptOp::SetCookie {
        name: "site_sess".into(),
        value: ValueSpec::HexId(24),
        attrs: CookieAttrs::default(),
    }];
    let own = page.register_markup_script(Some("https://www.site.example/app.js"), &own_ops);
    // The tracker, embedded INLINE (no src attribute).
    let tracker_ops = tracker_ops();
    let inline_tracker = page.register_markup_script(None, &tracker_ops);
    el.push_script(own, 0);
    el.push_script(inline_tracker, 25);
    let mut rng = StdRng::seed_from_u64(4);
    el.run(&mut page, &mut rng);
    recorder.finish()
}

fn learned_db() -> SignatureDb {
    let mut db = SignatureDb::new();
    db.learn("tracker.io", &tracker_ops());
    db
}

#[test]
fn relaxed_mode_without_signatures_leaks_to_inline_tracker() {
    let mut guard = GuardEngine::shared(GuardConfig::relaxed()).session("site.example");
    let log = run(&mut guard, None);
    // The inline tracker read the full jar (site_sess included) and
    // exfiltrated it.
    let leak = log
        .requests
        .iter()
        .any(|r| log.str(r.url).contains("site_sess="));
    assert!(
        leak,
        "relaxed mode must leak to the unattributed inline tracker"
    );
}

#[test]
fn signature_attribution_demotes_inline_tracker_in_relaxed_mode() {
    let mut guard = GuardEngine::shared(GuardConfig::relaxed()).session("site.example");
    let log = run(&mut guard, Some(learned_db()));
    // Attribution turned the inline script into tracker.io: it only sees
    // its own cookie and cannot exfiltrate the site session.
    assert!(
        !log.requests
            .iter()
            .any(|r| log.str(r.url).contains("site_sess=")),
        "attributed inline tracker must not see the site session"
    );
    assert!(
        log.requests
            .iter()
            .any(|r| log.str(r.url).contains("_tid=")),
        "the tracker still syncs its own identifier"
    );
    // The measurement still records the script as inline (the extension
    // cannot see signatures — only the policy layer does).
    assert!(log.inclusions.iter().any(|i| log.str(i.url) == "<inline>"));
}

#[test]
fn strict_mode_with_signatures_restores_own_cookie_access() {
    // Strict mode denies unattributed inline scripts everything; with a
    // signature match the script regains access to its own cookies —
    // safe-by-default without breaking known-benign inline embeds.
    let mut strict = GuardEngine::shared(GuardConfig::strict()).session("site.example");
    let without = run(&mut strict, None);
    assert!(
        !without
            .requests
            .iter()
            .any(|r| without.str(r.url).contains("_tid=")),
        "strict mode denies the unattributed inline script even its own cookie"
    );
    let mut strict2 = GuardEngine::shared(GuardConfig::strict()).session("site.example");
    let with = run(&mut strict2, Some(learned_db()));
    assert!(
        with.requests
            .iter()
            .any(|r| with.str(r.url).contains("_tid=")),
        "signature attribution restores own-cookie access"
    );
    assert!(!with
        .requests
        .iter()
        .any(|r| with.str(r.url).contains("site_sess=")));
}
