//! DOM isolation (§8 future work): a hostile third-party script rewrites
//! and removes the site's own markup — then the DomGuard is attached and
//! the same mutations bounce off the ownership policy, while the script's
//! legitimate edits to its *own* elements keep working.
//!
//! Run with: `cargo run --example dom_isolation`

use cookieguard_repro::browser::Page;
use cookieguard_repro::cookiejar::CookieJar;
use cookieguard_repro::domguard::{DomGuard, DomGuardConfig};
use cookieguard_repro::instrument::Recorder;
use cookieguard_repro::script::{DomMutationKind, EventLoop, ScriptOp};
use cookieguard_repro::url::Url;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

const EPOCH_MS: i64 = 1_750_000_000_000;

fn run_page(dom_guard: Option<&mut DomGuard>) -> cookieguard_repro::instrument::VisitLog {
    let url = Url::parse("https://www.news.example/").unwrap();
    let mut jar = CookieJar::new();
    let mut recorder = Recorder::new("news.example", 1);
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
    if let Some(g) = dom_guard {
        page = page.with_dom_guard(g);
    }

    let mut el = EventLoop::new(EPOCH_MS);
    // A widget vendor inserts its own container — always fine — and then
    // starts "optimizing" the page: rewriting the site's article text,
    // restyling it, and removing an element it does not own.
    let widget_ops = vec![
        ScriptOp::DomInsert { tag: "div".into() },
        ScriptOp::DomMutate {
            kind: DomMutationKind::Content,
            foreign_target: false,
        },
        ScriptOp::DomMutate {
            kind: DomMutationKind::Content,
            foreign_target: true,
        },
        ScriptOp::DomMutate {
            kind: DomMutationKind::Style,
            foreign_target: true,
        },
        ScriptOp::DomMutate {
            kind: DomMutationKind::Remove,
            foreign_target: true,
        },
    ];
    let widget = page.register_markup_script(
        Some("https://cdn.widgets.example.net/embed.js"),
        &widget_ops,
    );
    // The site's own script re-themes everything — the owner may.
    let app_ops = vec![
        ScriptOp::DomMutate {
            kind: DomMutationKind::Style,
            foreign_target: false,
        },
        ScriptOp::DomMutate {
            kind: DomMutationKind::Attribute,
            foreign_target: false,
        },
    ];
    let app =
        page.register_markup_script(Some("https://www.news.example/static/theme.js"), &app_ops);
    el.push_script(widget, 0);
    el.push_script(app, 25);
    let mut rng = StdRng::seed_from_u64(11);
    el.run(&mut page, &mut rng);
    recorder.finish()
}

fn print_events(log: &cookieguard_repro::instrument::VisitLog) {
    for e in &log.dom_events {
        println!(
            "  {:<28} {:<9} element owned by {:<22} {}",
            log.opt_str(e.actor).unwrap_or("<inline>"),
            log.str(e.kind),
            log.str(e.owner),
            if e.blocked { "BLOCKED" } else { "applied" }
        );
    }
    let cross_applied = log
        .dom_events
        .iter()
        .filter(|e| e.is_cross_domain(log) && !e.blocked)
        .count();
    let cross_blocked = log
        .dom_events
        .iter()
        .filter(|e| e.is_cross_domain(log) && e.blocked)
        .count();
    println!("  cross-domain mutations applied: {cross_applied}, blocked: {cross_blocked}");
}

fn main() {
    println!("=== Without DomGuard (the §8 pilot's status quo) ===");
    let log = run_page(None);
    print_events(&log);

    println!();
    println!("=== With DomGuard (strict ownership isolation) ===");
    let mut guard = DomGuard::new(DomGuardConfig::strict(), "news.example");
    let log = run_page(Some(&mut guard));
    print_events(&log);
    let stats = guard.stats();
    println!(
        "  guard stats: {} allowed, {} blocked, {} unenforced",
        stats.allowed, stats.blocked, stats.unenforced
    );

    println!();
    println!("=== With kind-scoped DomGuard (content/removal only) ===");
    let mut guard = DomGuard::new(DomGuardConfig::content_and_removal(), "news.example");
    let log = run_page(Some(&mut guard));
    print_events(&log);
    println!("  (style/attribute edits pass: the low-breakage profile for A/B-testing vendors)");
}
