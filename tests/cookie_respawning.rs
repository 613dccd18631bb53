//! Cookie respawning through the full stack: a tracker's CookieStore
//! `change` listener re-sets its identifier the moment a consent manager
//! deletes it — and CookieGuard dismantles the whole dance, because the
//! cross-domain deletion is blocked and foreign changes are invisible.

use cookieguard_repro::browser::{crawl_range, visit_site, VisitConfig};
use cookieguard_repro::cookieguard::GuardConfig;
use cookieguard_repro::instrument::WriteKind;
use cookieguard_repro::webgen::{GenConfig, SiteBlueprint, WebGenerator};

fn generator(n: usize) -> WebGenerator {
    WebGenerator::new(GenConfig::small(n), 0xC00C1E)
}

/// Finds a crawlable site with a designated respawning tracker whose
/// deletion trigger actually fires during the visit.
fn respawning_site(gen: &WebGenerator, n: usize) -> Option<(SiteBlueprint, String, String)> {
    for rank in 1..=n {
        let bp = gen.blueprint(rank);
        if !bp.spec.crawl_ok {
            continue;
        }
        let Some((domain, cookie)) = bp.spec.respawning_tracker.clone() else {
            continue;
        };
        let out = visit_site(&bp, &VisitConfig::regular(), gen.site_seed(rank));
        let deleted = out.log.sets.iter().any(|s| {
            s.kind == WriteKind::Delete
                && out.log.str(s.name) == cookie
                && out.log.opt_str(s.actor) != Some(domain.as_str())
        });
        if deleted {
            return Some((bp, domain, cookie));
        }
    }
    None
}

#[test]
fn respawner_survives_consent_deletion_in_regular_browser() {
    let gen = generator(600);
    let (bp, tracker, cookie) =
        respawning_site(&gen, 600).expect("no respawning site with a firing deletion in 600 sites");
    let out = visit_site(&bp, &VisitConfig::regular(), gen.site_seed(bp.spec.rank));

    // The deletion happened…
    let delete_at = out
        .log
        .sets
        .iter()
        .find(|s| s.kind == WriteKind::Delete && out.log.str(s.name) == cookie)
        .map(|s| s.time_ms)
        .expect("deletion event");
    // …and the tracker re-set its identifier afterwards.
    let respawn = out.log.sets.iter().find(|s| {
        s.kind == WriteKind::Create
            && out.log.str(s.name) == cookie
            && out.log.opt_str(s.actor) == Some(tracker.as_str())
            && s.time_ms >= delete_at
    });
    assert!(
        respawn.is_some(),
        "expected {tracker} to respawn {cookie} after {delete_at}ms"
    );
}

#[test]
fn guard_prevents_both_deletion_and_respawn_trigger() {
    let gen = generator(600);
    let (bp, _, cookie) =
        respawning_site(&gen, 600).expect("no respawning site with a firing deletion in 600 sites");
    let out = visit_site(
        &bp,
        &VisitConfig::guarded(GuardConfig::strict()),
        gen.site_seed(bp.spec.rank),
    );

    // The consent manager's cross-domain deletion is blocked…
    let blocked_delete = out
        .log
        .sets
        .iter()
        .any(|s| s.kind == WriteKind::Delete && out.log.str(s.name) == cookie && s.blocked);
    // …so the respawn listener never fires: at most the initial create
    // exists for this cookie from the tracker.
    let creates = out
        .log
        .sets
        .iter()
        .filter(|s| s.kind == WriteKind::Create && out.log.str(s.name) == cookie && !s.blocked)
        .count();
    assert!(
        blocked_delete,
        "cross-domain deletion should be blocked under the guard"
    );
    assert!(
        creates <= 1,
        "respawn should not fire under the guard (creates={creates})"
    );
}

#[test]
fn respawning_sites_exist_at_ecosystem_scale() {
    // The generator plants respawners on a meaningful fraction of
    // consent-managed sites; the crawl must surface them.
    let gen = generator(500);
    let (outcomes, _) = crawl_range(&gen, &VisitConfig::regular(), 1, 500, 4);
    let with_respawner = outcomes
        .iter()
        .filter(|o| o.spec.respawning_tracker.is_some() && o.log.complete)
        .count();
    assert!(
        with_respawner >= 3,
        "only {with_respawner} respawning sites in 500"
    );
}
