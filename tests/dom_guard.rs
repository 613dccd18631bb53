//! DOM isolation (§8 future work) through the full stack: the DomGuard
//! blocks cross-domain element mutations the pilot measured, while
//! leaving own-element and site-owner activity untouched.

use cookieguard_repro::analysis::dom_pilot_stats;
use cookieguard_repro::browser::{crawl_range, VisitConfig};
use cookieguard_repro::domguard::DomGuardConfig;
use cookieguard_repro::webgen::{GenConfig, WebGenerator};

fn pilot(
    n: usize,
    dom: Option<DomGuardConfig>,
) -> cookieguard_repro::analysis::dom_pilot::DomPilotStats {
    let gen = WebGenerator::new(GenConfig::small(n), 0xC00C1E);
    let cfg = match dom {
        Some(d) => VisitConfig::regular().with_dom_guard(d),
        None => VisitConfig::regular(),
    };
    let (outcomes, _) = crawl_range(&gen, &cfg, 1, n, 4);
    dom_pilot_stats(outcomes.into_iter().map(|o| o.log))
}

#[test]
fn unguarded_pilot_reproduces_the_section8_signal() {
    let stats = pilot(600, None);
    // Paper pilot: 9.4% of sites show cross-domain DOM modification. The
    // synthetic ecosystem lands in the mid-teens under the vendored RNG
    // stream; the claim under test is "present, but on a clear minority
    // of sites".
    assert!(
        (4.0..=22.0).contains(&stats.sites_with_cross_dom_pct),
        "pilot share {:.1}% out of band",
        stats.sites_with_cross_dom_pct
    );
    assert_eq!(
        stats.blocked_events, 0,
        "nothing blocks in an unguarded crawl"
    );
}

#[test]
fn strict_domguard_blocks_the_cross_domain_mutations() {
    let unguarded = pilot(600, None);
    let guarded = pilot(600, Some(DomGuardConfig::strict()));
    assert!(
        guarded.sites_with_cross_dom_pct < unguarded.sites_with_cross_dom_pct * 0.3,
        "guard too weak: {:.1}% -> {:.1}%",
        unguarded.sites_with_cross_dom_pct,
        guarded.sites_with_cross_dom_pct
    );
    assert!(
        guarded.blocked_events > 0,
        "the guard must actually block events"
    );
    assert!(guarded.sites_fully_protected_pct > 0.0);
}

#[test]
fn kind_scoped_enforcement_is_a_middle_ground() {
    // Enforcing only content/removal lets style/attribute tweaks through:
    // strictly more applied cross-domain events than full enforcement,
    // strictly fewer than no guard (given enough sites).
    let full = pilot(400, Some(DomGuardConfig::strict()));
    let scoped = pilot(400, Some(DomGuardConfig::content_and_removal()));
    let none = pilot(400, None);
    assert!(scoped.events >= full.events);
    assert!(scoped.events <= none.events);
}

#[test]
fn domguard_composes_with_cookieguard() {
    // Both guards attached: cookie isolation and DOM isolation act on
    // independent channels without interfering.
    let gen = WebGenerator::new(GenConfig::small(300), 0xC00C1E);
    let cfg = VisitConfig::guarded(cookieguard_repro::cookieguard::GuardConfig::strict())
        .with_dom_guard(DomGuardConfig::strict());
    let (outcomes, _) = crawl_range(&gen, &cfg, 1, 300, 4);
    let mut cookie_filtered = 0u64;
    let mut dom_blocked = 0u64;
    for o in &outcomes {
        cookie_filtered += o.guard_stats.map_or(0, |s| s.cookies_filtered);
        dom_blocked += o.dom_guard_stats.map_or(0, |s| s.blocked);
    }
    assert!(cookie_filtered > 0, "CookieGuard inactive");
    assert!(dom_blocked > 0, "DomGuard inactive");
}
