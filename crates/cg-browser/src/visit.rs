//! One full site visit: landing load plus light interaction (§4.2's
//! scroll-and-click protocol), with or without CookieGuard.

use crate::page::Page;
use crate::timing::{simulate_timing, PageTiming};
use cg_cookiejar::CookieJar;
use cg_domguard::{DomGuard, DomGuardConfig, DomGuardStats};
use cg_instrument::{Recorder, VisitLog};
use cg_script::EventLoop;
use cg_url::Url;
use cg_webgen::{PageBlueprint, SiteBlueprint};
use cookieguard_core::{GuardConfig, GuardEngine, GuardSession, GuardStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// How a visit is performed.
#[derive(Debug, Clone)]
pub struct VisitConfig {
    /// Attach CookieGuard backed by this shared engine (None = regular
    /// browser, the measurement condition). The engine is compiled once
    /// — by [`VisitConfig::guarded`] or the caller — and every visit
    /// through this config opens a cheap per-site session on it, so an
    /// N-site crawl never re-derives policy or entity state.
    pub guard: Option<Arc<GuardEngine>>,
    /// Attach the DOM guard (§8's future-work defense) with this
    /// configuration.
    pub dom_guard: Option<DomGuardConfig>,
    /// Grandfather cookies already in the jar when the guard attaches
    /// (the §8 migration policy; only meaningful with `guard` set and a
    /// pre-populated jar via [`visit_site_with_jar`]).
    pub grandfather_preexisting: bool,
    /// Perform the light interaction protocol: scroll + click up to
    /// three links with 2-second pauses.
    pub interact: bool,
    /// Wall-clock epoch (unix ms) for cookie timestamps.
    pub wall_epoch_ms: i64,
    /// Event-loop op budget per page.
    pub max_ops: usize,
    /// Resolve CNAME records before attributing scripts — the DNS-layer
    /// defense against CNAME cloaking (§8). Off by default, like the
    /// paper's prototype.
    pub resolve_cnames: bool,
    /// Enforce the site's `Content-Security-Policy` header at
    /// script-load time (§2.1). On by default, like a real browser;
    /// generated sites ship no policy unless the CSP experiment
    /// synthesizes one, so this has no effect on the §5 calibration.
    pub enforce_csp: bool,
}

impl Default for VisitConfig {
    fn default() -> VisitConfig {
        VisitConfig {
            guard: None,
            dom_guard: None,
            grandfather_preexisting: false,
            interact: true,
            wall_epoch_ms: 1_750_000_000_000, // 2025-06-15T..Z, the crawl era
            max_ops: 200_000,
            resolve_cnames: false,
            enforce_csp: true,
        }
    }
}

impl VisitConfig {
    /// A measurement visit (no guard, with interaction).
    pub fn regular() -> VisitConfig {
        VisitConfig::default()
    }

    /// A guarded visit with the given policy (compiles the engine once
    /// for every visit made through this config).
    pub fn guarded(config: GuardConfig) -> VisitConfig {
        VisitConfig::guarded_by(GuardEngine::shared(config))
    }

    /// A guarded visit on an existing shared engine — use this to share
    /// one compiled policy across several configs or crawls.
    pub fn guarded_by(engine: Arc<GuardEngine>) -> VisitConfig {
        VisitConfig {
            guard: Some(engine),
            ..VisitConfig::default()
        }
    }

    /// Adds DOM-guard enforcement to the visit.
    pub fn with_dom_guard(mut self, config: DomGuardConfig) -> VisitConfig {
        self.dom_guard = Some(config);
        self
    }

    /// A stable digest of everything in this config that can change a
    /// visit's outcome. Two configs with equal fingerprints produce
    /// identical [`VisitOutcome`]s for every (master seed, rank) — the
    /// property the crawl store's checkpoint manifest relies on to
    /// decide whether a directory may be resumed into.
    ///
    /// The digest is computed over a canonical encoding (sets sorted
    /// before hashing), so it is reproducible across processes.
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut canon = String::new();
        match &self.guard {
            None => canon.push_str("guard:none;"),
            Some(engine) => {
                let cfg = engine.config();
                let _ = write!(canon, "guard:{:?};", cfg.inline_policy);
                let mut wl: Vec<&str> = cfg.whitelist.iter().map(String::as_str).collect();
                wl.sort_unstable();
                let _ = write!(canon, "wl:{wl:?};");
                match &cfg.entity_map {
                    None => canon.push_str("entities:none;"),
                    Some(map) => {
                        let mut pairs: Vec<(&str, &str)> = map.iter().collect();
                        pairs.sort_unstable();
                        let _ = write!(canon, "entities:{pairs:?};");
                    }
                }
            }
        }
        match &self.dom_guard {
            None => canon.push_str("dom:none;"),
            Some(dg) => {
                let _ = write!(canon, "dom:{:?};", dg.inline_policy);
                let mut wl: Vec<&str> = dg.whitelist.iter().map(String::as_str).collect();
                wl.sort_unstable();
                let mut kinds: Vec<String> =
                    dg.enforced_kinds.iter().map(|k| format!("{k:?}")).collect();
                kinds.sort_unstable();
                let _ = write!(canon, "dwl:{wl:?};kinds:{kinds:?};");
                match &dg.entity_map {
                    None => canon.push_str("dentities:none;"),
                    Some(map) => {
                        let mut pairs: Vec<(&str, &str)> = map.iter().collect();
                        pairs.sort_unstable();
                        let _ = write!(canon, "dentities:{pairs:?};");
                    }
                }
            }
        }
        let _ = write!(
            canon,
            "grandfather:{};interact:{};epoch:{};max_ops:{};cnames:{};csp:{}",
            self.grandfather_preexisting,
            self.interact,
            self.wall_epoch_ms,
            self.max_ops,
            self.resolve_cnames,
            self.enforce_csp
        );
        cg_hash::sha1_hex(canon.as_bytes())
    }
}

/// Everything a visit produces.
#[derive(Debug, Clone)]
pub struct VisitOutcome {
    /// Site metadata.
    pub spec: cg_webgen::SiteSpec,
    /// The instrumentation log.
    pub log: VisitLog,
    /// Guard counters, when a guard was attached.
    pub guard_stats: Option<GuardStats>,
    /// DOM-guard counters, when one was attached.
    pub dom_guard_stats: Option<DomGuardStats>,
    /// Landing-page timing.
    pub timing: PageTiming,
    /// Total cookie API operations across pages.
    pub cookie_ops: usize,
    /// Cookies left in the jar after the visit.
    pub final_jar_size: usize,
    /// Scripts the site's CSP refused to load across pages (0 when the
    /// site serves no policy).
    pub csp_blocked: usize,
}

/// Executes one visit of `site` under `cfg` with a fresh cookie jar.
/// `visit_seed` drives behaviour randomness (derive it from the
/// generator's site seed; vary it to model visit-to-visit noise).
pub fn visit_site(site: &SiteBlueprint, cfg: &VisitConfig, visit_seed: u64) -> VisitOutcome {
    let mut jar = CookieJar::new();
    visit_site_with_jar(site, cfg, visit_seed, &mut jar)
}

/// Like [`visit_site`], but continues from an existing jar — a returning
/// visitor. With `cfg.grandfather_preexisting`, cookies already in the
/// jar are admitted under the §8 migration policy when the guard
/// attaches.
pub fn visit_site_with_jar(
    site: &SiteBlueprint,
    cfg: &VisitConfig,
    visit_seed: u64,
    jar: &mut CookieJar,
) -> VisitOutcome {
    let mut recorder = Recorder::new(&site.spec.domain, site.spec.rank);
    let mut guard = cfg
        .guard
        .as_ref()
        .map(|e| GuardSession::new(Arc::clone(e), &site.spec.domain));
    let mut dom_guard = cfg
        .dom_guard
        .clone()
        .map(|g| DomGuard::new(g, &site.spec.domain));
    let mut rng = StdRng::seed_from_u64(visit_seed ^ 0xbeef_cafe);

    if let (Some(g), true) = (guard.as_mut(), cfg.grandfather_preexisting) {
        for cookie in jar.iter() {
            g.grandfather(&cookie.name);
        }
    }

    if !site.spec.crawl_ok {
        // The crawl of this site fails to produce complete data; the
        // analysis discards it (paper keeps 14,917 of 20,000).
        recorder.mark_incomplete();
        return VisitOutcome {
            spec: site.spec.clone(),
            log: recorder.finish(),
            guard_stats: guard.map(|g| g.stats()),
            dom_guard_stats: dom_guard.map(|g| g.stats()),
            timing: PageTiming::default(),
            cookie_ops: 0,
            final_jar_size: 0,
            csp_blocked: 0,
        };
    }

    let csp = if cfg.enforce_csp {
        site.csp.as_deref().map(cg_http::CspPolicy::parse)
    } else {
        None
    };
    let mut cookie_ops = 0usize;
    let mut csp_blocked = 0usize;
    let mut epoch = cfg.wall_epoch_ms;

    // Landing page.
    let landing_url = Url::parse(&site.landing_url()).expect("landing URL");
    let (ops, blocked) = execute_page(
        &landing_url,
        &site.landing,
        site,
        epoch,
        jar,
        guard.as_mut(),
        dom_guard.as_mut(),
        &mut recorder,
        cfg,
        csp.as_ref(),
        &mut rng,
    );
    cookie_ops += ops;
    csp_blocked += blocked;

    // Interaction: click up to three links, 2 s pause between steps.
    if cfg.interact {
        for page in site.subpages.iter().take(3) {
            epoch += 2_000;
            let url = Url::parse(&site.page_url(&page.path)).expect("subpage URL");
            let (ops, blocked) = execute_page(
                &url,
                page,
                site,
                epoch,
                jar,
                guard.as_mut(),
                dom_guard.as_mut(),
                &mut recorder,
                cfg,
                csp.as_ref(),
                &mut rng,
            );
            cookie_ops += ops;
            csp_blocked += blocked;
        }
    }

    let timing = simulate_timing(
        site.landing.resource_count,
        site.landing.scripts.len(),
        cookie_ops,
        guard.is_some(),
        &mut rng,
    );

    let now = epoch + 60_000;
    jar.purge_expired(now);
    VisitOutcome {
        spec: site.spec.clone(),
        log: recorder.finish(),
        guard_stats: guard.map(|g| g.stats()),
        dom_guard_stats: dom_guard.map(|g| g.stats()),
        timing,
        cookie_ops,
        final_jar_size: jar.len(),
        csp_blocked,
    }
}

#[allow(clippy::too_many_arguments)]
fn execute_page(
    url: &Url,
    page: &PageBlueprint,
    site: &SiteBlueprint,
    epoch: i64,
    jar: &mut CookieJar,
    guard: Option<&mut GuardSession>,
    dom_guard: Option<&mut DomGuard>,
    recorder: &mut Recorder,
    cfg: &VisitConfig,
    csp: Option<&cg_http::CspPolicy>,
    rng: &mut StdRng,
) -> (usize, usize) {
    let page_seed: u64 = rng.gen();
    let mut p = Page::new(
        url.clone(),
        epoch,
        jar,
        guard,
        recorder,
        &site.injectables,
        page_seed,
    );
    if cfg.resolve_cnames {
        p = p.with_cnames(&site.cnames);
    }
    if let Some(dg) = dom_guard {
        p = p.with_dom_guard(dg);
    }
    if let Some(policy) = csp {
        p = p.with_csp(policy);
    }
    p.apply_server_cookies(&page.server_cookies);
    let mut el = EventLoop::new(epoch).with_max_ops(cfg.max_ops);
    for (i, script) in page.scripts.iter().enumerate() {
        if !p.csp_admits_markup(script.url.as_deref()) {
            continue; // the browser never fetched it
        }
        let exec = p.register_markup_script(script.url.as_deref(), &script.ops);
        el.push_script(exec, i as u64 * 25);
    }
    el.run(&mut p, rng);
    (p.cookie_ops(), p.csp_blocked())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_webgen::{GenConfig, WebGenerator};

    fn generator() -> WebGenerator {
        WebGenerator::new(GenConfig::small(200), 0xC00C1E)
    }

    fn ok_site(g: &WebGenerator) -> SiteBlueprint {
        (1..=200)
            .map(|r| g.blueprint(r))
            .find(|b| b.spec.crawl_ok)
            .unwrap()
    }

    #[test]
    fn regular_visit_produces_events() {
        let g = generator();
        let site = ok_site(&g);
        let out = visit_site(&site, &VisitConfig::regular(), 42);
        assert!(out.log.complete);
        assert!(!out.log.inclusions.is_empty());
        assert!(out.timing.load_event_ms > 0.0);
    }

    #[test]
    fn failed_crawls_are_marked_incomplete() {
        let g = generator();
        let site = (1..=200)
            .map(|r| g.blueprint(r))
            .find(|b| !b.spec.crawl_ok)
            .unwrap();
        let out = visit_site(&site, &VisitConfig::regular(), 42);
        assert!(!out.log.complete);
        assert!(out.log.sets.is_empty());
    }

    #[test]
    fn visits_are_deterministic_for_a_seed() {
        let g = generator();
        let site = ok_site(&g);
        let a = visit_site(&site, &VisitConfig::regular(), 7);
        let b = visit_site(&site, &VisitConfig::regular(), 7);
        assert_eq!(
            crate::events_json(&a.log, "sets"),
            crate::events_json(&b.log, "sets")
        );
        assert_eq!(
            crate::events_json(&a.log, "requests"),
            crate::events_json(&b.log, "requests")
        );
        assert_eq!(a.timing, b.timing);
    }

    #[test]
    fn guard_reduces_visible_cookie_flow() {
        let g = generator();
        // Aggregate across sites: guarded visits must filter at least
        // some reads somewhere.
        let mut filtered_total = 0u64;
        for rank in 1..=30 {
            let site = g.blueprint(rank);
            if !site.spec.crawl_ok {
                continue;
            }
            let out = visit_site(
                &site,
                &VisitConfig::guarded(cookieguard_core::GuardConfig::strict()),
                7,
            );
            if let Some(stats) = out.guard_stats {
                filtered_total += stats.cookies_filtered;
            }
        }
        assert!(
            filtered_total > 0,
            "guard never filtered anything across 30 sites"
        );
    }

    #[test]
    fn csp_blocks_unlisted_fanout_but_not_cookie_access() {
        let g = generator();
        // Find a site where a direct-vendors-only policy actually has a
        // gap: some of the tag-manager fan-out is not listed, so the
        // browser must refuse those loads.
        let mut pinned = false;
        for rank in 1..=200 {
            let site = g.blueprint(rank);
            if !site.spec.crawl_ok || site.injectables.is_empty() {
                continue;
            }
            let mut with_csp = site.clone();
            with_csp.csp = Some(cg_webgen::csp_for_site(
                &site,
                cg_webgen::CspStyle::DirectVendorsOnly,
            ));

            let plain = visit_site(&site, &VisitConfig::regular(), 11);
            let gated = visit_site(&with_csp, &VisitConfig::regular(), 11);
            assert_eq!(plain.csp_blocked, 0, "no policy, nothing blocked");

            // Disabling enforcement always restores plain behaviour.
            let off = visit_site(
                &with_csp,
                &VisitConfig {
                    enforce_csp: false,
                    ..VisitConfig::regular()
                },
                11,
            );
            assert_eq!(off.csp_blocked, 0);
            assert_eq!(
                crate::events_json(&off.log, "sets"),
                crate::events_json(&plain.log, "sets")
            );

            if gated.csp_blocked > 0 {
                // The policy admits every markup script; the admitted
                // stack keeps full cookie privileges — CSP controls
                // loading, not cookie access (§2.1).
                assert!(
                    !gated.log.sets.is_empty() || plain.log.sets.is_empty(),
                    "admitted scripts keep their full cookie privileges"
                );
                pinned = true;
                break;
            }
        }
        assert!(pinned, "no site exercised the CSP fan-out gap in 200 ranks");
    }

    #[test]
    fn full_stack_csp_admits_everything() {
        let g = generator();
        let site = ok_site(&g);
        let mut with_csp = site.clone();
        with_csp.csp = Some(cg_webgen::csp_for_site(
            &site,
            cg_webgen::CspStyle::FullStack,
        ));
        let plain = visit_site(&site, &VisitConfig::regular(), 13);
        let gated = visit_site(&with_csp, &VisitConfig::regular(), 13);
        assert_eq!(gated.csp_blocked, 0, "full-stack policy lists every host");
        assert_eq!(
            crate::events_json(&gated.log, "sets"),
            crate::events_json(&plain.log, "sets")
        );
        assert_eq!(
            crate::events_json(&gated.log, "requests"),
            crate::events_json(&plain.log, "requests")
        );
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        use cookieguard_core::GuardConfig;
        // Stable: independent constructions of the same config agree,
        // including set-valued knobs (HashSet/HashMap iteration order
        // must not leak into the digest).
        let entity_cfg = || {
            let mut map = cg_entity::EntityMap::new();
            map.insert("b.com", "B");
            map.insert("a.com", "A");
            VisitConfig::guarded(
                GuardConfig::strict()
                    .with_entity_grouping(map)
                    .with_whitelisted("x.com")
                    .with_whitelisted("y.com"),
            )
        };
        assert_eq!(entity_cfg().fingerprint(), entity_cfg().fingerprint());
        assert_eq!(
            VisitConfig::regular().fingerprint(),
            VisitConfig::regular().fingerprint()
        );
        // Discriminating: outcome-relevant knobs change the digest.
        let base = VisitConfig::regular();
        assert_ne!(base.fingerprint(), entity_cfg().fingerprint());
        assert_ne!(
            base.fingerprint(),
            VisitConfig {
                interact: false,
                ..VisitConfig::regular()
            }
            .fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            VisitConfig::regular()
                .with_dom_guard(cg_domguard::DomGuardConfig::strict())
                .fingerprint()
        );
    }

    #[test]
    fn interaction_adds_events() {
        let g = generator();
        let site = ok_site(&g);
        let with = visit_site(&site, &VisitConfig::regular(), 9);
        let without = visit_site(
            &site,
            &VisitConfig {
                interact: false,
                ..VisitConfig::regular()
            },
            9,
        );
        assert!(with.log.inclusions.len() >= without.log.inclusions.len());
    }
}
