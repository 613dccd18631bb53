//! The Table 3 breakage mechanics in miniature: a zoom.us-style site
//! whose SSO is split across two sibling domains of one entity
//! (`msauth.net` sets the session cookie, `live.com` reads it).
//!
//! * Without CookieGuard the flow works.
//! * Under strict CookieGuard the sibling read is blocked — **major SSO
//!   breakage**.
//! * With the entity-grouping whitelist (DuckDuckGo-entities style) the
//!   sibling is recognized as Microsoft and the flow works again — the
//!   11% → 3% refinement of §7.2.
//!
//! Run with: `cargo run --example sso_breakage`

use cookieguard_repro::browser::Page;
use cookieguard_repro::cookieguard::{GuardConfig, GuardEngine, GuardSession};
use cookieguard_repro::cookiejar::CookieJar;
use cookieguard_repro::entity::builtin_entity_map;
use cookieguard_repro::instrument::Recorder;
use cookieguard_repro::script::{CookieAttrs, EventLoop, ScriptOp, ValueSpec};
use cookieguard_repro::url::Url;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

const EPOCH_MS: i64 = 1_750_000_000_000;

fn run_sso_flow(guard: Option<&mut GuardSession>) -> bool {
    let url = Url::parse("https://www.zoom.example/").unwrap();
    let mut jar = CookieJar::new();
    let mut recorder = Recorder::new("zoom.example", 1);
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
    let mut el = EventLoop::new(EPOCH_MS);

    // The MSAL library (msauth.net) authenticates and stores the session.
    let setter_ops = vec![ScriptOp::SetCookie {
        name: "msal.session".into(),
        value: ValueSpec::HexId(32),
        attrs: CookieAttrs::default(),
    }];
    let setter = page.register_markup_script(
        Some("https://logincdn.msauth.net/shared/msal-browser.min.js"),
        &setter_ops,
    );
    // The login widget (live.com) must read it to maintain the session.
    let reader_ops = vec![ScriptOp::Probe {
        feature: "sso".into(),
        cookie: "msal.session".into(),
    }];
    let reader =
        page.register_markup_script(Some("https://login.live.com/sso/wsfed.js"), &reader_ops);
    el.push_script(setter, 0);
    el.push_script(reader, 25);
    let mut rng = StdRng::seed_from_u64(5);
    el.run(&mut page, &mut rng);
    let log = recorder.finish();
    log.probes.iter().all(|p| p.ok)
}

fn main() {
    let works_plain = run_sso_flow(None);
    println!(
        "regular browser:                     SSO {}",
        status(works_plain)
    );

    let mut strict = GuardEngine::shared(GuardConfig::strict()).session("zoom.example");
    let works_strict = run_sso_flow(Some(&mut strict));
    println!(
        "CookieGuard (strict):                SSO {}",
        status(works_strict)
    );

    let mut grouped =
        GuardEngine::shared(GuardConfig::strict().with_entity_grouping(builtin_entity_map()))
            .session("zoom.example");
    let works_grouped = run_sso_flow(Some(&mut grouped));
    println!(
        "CookieGuard (entity grouping, §7.2): SSO {}",
        status(works_grouped)
    );

    assert!(works_plain, "baseline flow must work");
    assert!(
        !works_strict,
        "strict isolation must break the sibling-domain flow (Table 3)"
    );
    assert!(
        works_grouped,
        "entity grouping must heal the same-entity flow (11% → 3%)"
    );
    println!("\nTable 3 mechanics reproduced ✓ (break under strict, heal under grouping)");
}

fn status(ok: bool) -> &'static str {
    if ok {
        "works ✓"
    } else {
        "BROKEN ✗"
    }
}
