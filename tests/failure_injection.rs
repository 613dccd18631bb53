//! Failure injection and adversarial semantics: the stack must stay
//! sound when fed malformed inputs or actively hostile script behaviour.

use cookieguard_repro::browser::{visit_site, Page, VisitConfig};
use cookieguard_repro::cookieguard::{Caller, GuardConfig, GuardEngine, GuardSession};
use cookieguard_repro::cookiejar::CookieJar;
use cookieguard_repro::instrument::Recorder;
use cookieguard_repro::script::{CookieAttrs, EventLoop, ScriptOp, ValueSpec};
use cookieguard_repro::url::Url;
use cookieguard_repro::webgen::{GenConfig, WebGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

const EPOCH: i64 = 1_750_000_000_000;

fn run_scripts(
    guard: Option<&mut GuardSession>,
    server_cookies: &[String],
    scripts: Vec<(Option<&str>, Vec<ScriptOp>)>,
) -> (cookieguard_repro::instrument::VisitLog, CookieJar) {
    let url = Url::parse("https://www.site.com/").unwrap();
    let mut jar = CookieJar::new();
    let mut recorder = Recorder::new("site.com", 1);
    let injectables = HashMap::new();
    let mut page = Page::new(url, EPOCH, &mut jar, guard, &mut recorder, &injectables, 7);
    page.apply_server_cookies(server_cookies);
    let mut el = EventLoop::new(EPOCH);
    for (i, (u, ops)) in scripts.into_iter().enumerate() {
        let exec = page.register_markup_script(u, ops);
        el.push_script(exec, i as u64 * 25);
    }
    let mut rng = StdRng::seed_from_u64(3);
    el.run(&mut page, &mut rng);
    (recorder.finish(), jar)
}

#[test]
fn malformed_server_headers_are_survivable() {
    // Garbage Set-Cookie headers: empty, separators only, control bytes,
    // truncated attributes, enormous names. Nothing may panic; malformed
    // entries are dropped, valid ones stored.
    let headers = vec![
        String::new(),
        ";;;;".to_string(),
        "=".to_string(),
        "\u{0}\u{1}\u{2}=\u{3}".to_string(),
        "ok=1; Max-Age=".to_string(),
        "ok2=2; Domain=".to_string(),
        format!("{}=v", "n".repeat(4096)),
        "trunc=v; Expires=Wed, 99 Xyz".to_string(),
    ];
    let (log, jar) = run_scripts(
        None,
        &headers,
        vec![(
            Some("https://www.site.com/a.js"),
            vec![ScriptOp::ReadAllCookies],
        )],
    );
    // The valid cookies made it; the page survived to run its script.
    assert!(
        jar.len() >= 2,
        "valid cookies should be stored, jar={}",
        jar.len()
    );
    assert_eq!(log.reads.len(), 1);
}

#[test]
fn runaway_change_listener_is_budgeted() {
    // A listener that re-sets on EVERY change to its own cookie feeds
    // itself forever. The op budget must end the loop; the harness must
    // not hang or panic.
    let url = Url::parse("https://www.site.com/").unwrap();
    let mut jar = CookieJar::new();
    let mut recorder = Recorder::new("site.com", 1);
    let injectables = HashMap::new();
    let mut page = Page::new(url, EPOCH, &mut jar, None, &mut recorder, &injectables, 7);
    let mut el = EventLoop::new(EPOCH).with_max_ops(500);
    let exec = page.register_markup_script(
        Some("https://loop.evil/l.js"),
        vec![
            ScriptOp::OnCookieChange {
                watch: Some("self_feed".into()),
                deletions_only: false,
                ops: vec![ScriptOp::SetCookie {
                    name: "self_feed".into(),
                    value: ValueSpec::Short,
                    attrs: CookieAttrs::default(),
                }],
            },
            ScriptOp::SetCookie {
                name: "self_feed".into(),
                value: ValueSpec::Short,
                attrs: CookieAttrs::default(),
            },
        ],
    );
    el.push_script(exec, 0);
    let mut rng = StdRng::seed_from_u64(3);
    let stats = el.run(&mut page, &mut rng);
    assert!(
        stats.truncated,
        "the self-feeding listener must hit the budget"
    );
    assert!(stats.ops_run <= 500);
}

#[test]
fn name_squatting_is_first_writer_wins() {
    // Adversarial consequence of ownership-by-first-write: a squatter
    // claiming "_ga" before the analytics vendor locks the vendor out.
    // This is CookieGuard's documented semantics — the squatter gains
    // nothing (it owns a cookie the victim simply re-creates under
    // another name in practice), but the test pins the behaviour.
    let mut guard = GuardEngine::shared(GuardConfig::strict()).session("site.com");
    assert!(guard
        .authorize_write(&Caller::external("squatter.evil"), "_ga")
        .is_allow());
    assert!(!guard
        .authorize_write(&Caller::external("googletagmanager.com"), "_ga")
        .is_allow());
    assert_eq!(guard.metadata().creator("_ga"), Some("squatter.evil"));
    // The squatter cannot, however, see anyone else's cookies…
    assert!(guard
        .filter_names(&Caller::external("squatter.evil"), &["other"])
        .is_empty());
    // …and the site owner can always delete the squatted name.
    assert!(guard
        .authorize_delete(&Caller::external("site.com"), "_ga")
        .is_allow());
    // After which the legitimate vendor re-claims it.
    assert!(guard
        .authorize_write(&Caller::external("googletagmanager.com"), "_ga")
        .is_allow());
}

#[test]
fn blind_overwrite_flood_is_fully_blocked_and_counted() {
    let mut guard = GuardEngine::shared(GuardConfig::strict()).session("site.com");
    let (log, _) = run_scripts(
        Some(&mut guard),
        &["session_id=abc; Path=/".to_string()],
        vec![
            (
                Some("https://owner.net/o.js"),
                vec![ScriptOp::SetCookie {
                    name: "target".into(),
                    value: ValueSpec::HexId(16),
                    attrs: CookieAttrs::default(),
                }],
            ),
            (
                Some("https://flood.evil/f.js"),
                (0..25)
                    .map(|_| ScriptOp::OverwriteCookie {
                        target: "target".into(),
                        value: ValueSpec::HexId(24),
                        changes: cookieguard_repro::script::AttrChanges::value_and_expiry(),
                        blind: true,
                    })
                    .collect(),
            ),
        ],
    );
    let blocked = log.sets.iter().filter(|s| s.blocked).count();
    assert_eq!(blocked, 25, "every blind overwrite must be blocked");
    assert_eq!(guard.stats().writes_blocked, 25);
    // Ownership never moved.
    assert_eq!(guard.metadata().creator("target"), Some("owner.net"));
}

#[test]
fn crawl_failures_do_not_poison_aggregates() {
    // Sites whose crawl failed must contribute nothing: no events, no
    // cookies, excluded from the dataset — even under guard configs.
    let gen = WebGenerator::new(GenConfig::small(120), 0xFA11);
    let mut failed = 0;
    for rank in 1..=120 {
        let bp = gen.blueprint(rank);
        if bp.spec.crawl_ok {
            continue;
        }
        failed += 1;
        let out = visit_site(&bp, &VisitConfig::guarded(GuardConfig::strict()), 1);
        assert!(!out.log.complete);
        assert!(out.log.sets.is_empty());
        assert!(out.log.requests.is_empty());
        assert_eq!(out.final_jar_size, 0);
    }
    assert!(
        failed > 10,
        "expected crawl failures in 120 sites, got {failed}"
    );
}

#[test]
fn http_scheme_disables_cookie_store_and_change_events() {
    // CookieStore requires a secure context; on http the API is inert
    // and change listeners never fire, but document.cookie still works.
    let url = Url::parse("http://www.plain.com/").unwrap();
    let mut jar = CookieJar::new();
    let mut recorder = Recorder::new("plain.com", 1);
    let injectables = HashMap::new();
    let mut page = Page::new(url, EPOCH, &mut jar, None, &mut recorder, &injectables, 7);
    let mut el = EventLoop::new(EPOCH);
    let exec = page.register_markup_script(
        Some("http://t.plain.com/t.js"),
        vec![
            ScriptOp::OnCookieChange {
                watch: None,
                deletions_only: false,
                ops: vec![ScriptOp::SetCookie {
                    name: "fired".into(),
                    value: ValueSpec::Short,
                    attrs: CookieAttrs::default(),
                }],
            },
            ScriptOp::CookieStoreSet {
                name: "via_store".into(),
                value: ValueSpec::Short,
                expires_in_ms: None,
            },
            ScriptOp::SetCookie {
                name: "via_doc".into(),
                value: ValueSpec::Short,
                attrs: CookieAttrs::default(),
            },
        ],
    );
    el.push_script(exec, 0);
    let mut rng = StdRng::seed_from_u64(3);
    let stats = el.run(&mut page, &mut rng);
    assert_eq!(stats.change_events_fired, 0, "no change events on http");
    let u = Url::parse("http://www.plain.com/").unwrap();
    let s = jar.document_cookie(&u, EPOCH + 1_000);
    assert!(
        s.contains("via_doc"),
        "document.cookie must work on http: {s}"
    );
    assert!(
        !s.contains("via_store"),
        "cookieStore.set must be inert on http: {s}"
    );
    assert!(!s.contains("fired"));
}
