//! §5.7 end-to-end: first-party server-side gateways relay the cookie
//! jar to trackers outside any client-side defense's reach.

use cookieguard_repro::analysis::{Census, ForwardMap, ServerSideReport, Tables};
use cookieguard_repro::browser::{crawl_range, VisitConfig};
use cookieguard_repro::cookieguard::GuardConfig;
use cookieguard_repro::webgen::{GenConfig, WebGenerator};

/// The census and the server-side relay report of a crawl (both fed the
/// same replay of each visit), its relay rules, and how many sites have
/// any.
fn crawl(n: usize, guard: Option<GuardConfig>) -> (Tables, ServerSideReport, ForwardMap, usize) {
    let gen = WebGenerator::new(GenConfig::small(n), 0xC00C1E);
    let cfg = match guard {
        Some(g) => VisitConfig::guarded(g),
        None => VisitConfig::regular(),
    };
    let (outcomes, _) = crawl_range(&gen, &cfg, 1, n, 4);
    let mut forwards = ForwardMap::new();
    let mut sst_sites = 0;
    for o in &outcomes {
        if !o.spec.server_forwards.is_empty() {
            sst_sites += 1;
            forwards.insert(
                o.spec.domain.clone(),
                o.spec
                    .server_forwards
                    .iter()
                    .map(|f| (f.path_prefix.clone(), f.forwards_to.clone()))
                    .collect(),
            );
        }
    }
    let entities = cookieguard_repro::entity::builtin_entity_map();
    let engine = cookieguard_repro::analysis::build_filter_engine(gen.registry());
    let mut census = Census::default();
    let mut server = ServerSideReport::default();
    for o in outcomes {
        if let Some(site) = census.fold(&o.log, &entities, &engine) {
            server.fold(&o.log, &site, &forwards);
        }
    }
    (census.finish(), server, forwards, sst_sites)
}

#[test]
fn gateways_relay_foreign_cookies_server_side() {
    let (_, report, _, sst_sites) = crawl(500, None);
    assert!(
        sst_sites >= 15,
        "expected server-side tagging adopters, got {sst_sites}"
    );
    assert!(report.sites_with_gateway > 0);
    assert!(report.gateway_requests > 0);
    assert!(
        report.sites_with_server_relay > 0,
        "server-side relays must carry cross-domain cookies: {report:?}"
    );
    assert!(
        report.requests_with_header_payload > 0,
        "Cookie header must ride gateway requests"
    );
}

#[test]
fn first_party_gateway_requests_invisible_to_client_side_exfil_detection() {
    let (tables, report, forwards, _) = crawl(500, None);
    // No client-side exfiltration event points at the site's own domain:
    // the §4.4 pipeline (faithfully) treats first-party requests as benign.
    for e in &tables.exfil.events {
        assert!(
            !forwards.contains_key(&e.destination) || e.site != e.destination,
            "gateway request misclassified as client-side exfiltration: {e:?}"
        );
    }
    // Yet the ground-truth relay resolution finds the leak.
    assert!(report.cross_domain_cookies_relayed > 0);
}

#[test]
fn guard_does_not_stop_server_side_relay() {
    let (_, before, _, _) = crawl(500, None);
    let (_, after, _, _) = crawl(500, Some(GuardConfig::strict()));
    // The sGTM collector is site-owned: the guard hands it the full jar,
    // and the Cookie header is attached below the script layer entirely.
    assert!(
        after.sites_with_server_relay as f64 >= before.sites_with_server_relay as f64 * 0.8,
        "guard should NOT meaningfully reduce server-side relay: {} -> {}",
        before.sites_with_server_relay,
        after.sites_with_server_relay
    );
    assert!(after.requests_with_header_payload > 0);
}

#[test]
fn capi_gateway_payload_shrinks_under_guard_but_header_does_not() {
    // The third-party CAPI pixel posts to the first-party gateway. Under
    // the guard its script-visible jar shrinks to its own cookies, so its
    // query payload shrinks — but the browser-attached Cookie header is
    // untouched. Find paired requests and compare.
    let gen = WebGenerator::new(GenConfig::small(600), 0xC00C1E);
    let find_capi = |guard: Option<GuardConfig>| {
        let cfg = match guard {
            Some(g) => VisitConfig::guarded(g),
            None => VisitConfig::regular(),
        };
        let (outcomes, _) = crawl_range(&gen, &cfg, 1, 600, 4);
        // (URL, whether a Cookie header rode along) of each request.
        outcomes
            .iter()
            .flat_map(|o| {
                let log = &o.log;
                log.requests
                    .iter()
                    .map(|r| (log.str(r.url).to_string(), r.cookie_header.is_some()))
            })
            .filter(|(url, _)| url.contains("/capi-events"))
            .collect::<Vec<_>>()
    };
    let regular = find_capi(None);
    let guarded = find_capi(Some(GuardConfig::strict()));
    assert!(!regular.is_empty(), "expected CAPI gateway traffic");
    assert!(
        !guarded.is_empty(),
        "CAPI gateway traffic must survive the guard"
    );
    // Headers ride in both conditions.
    assert!(guarded.iter().any(|&(_, header)| header));
    // The guarded query payloads never contain more parameters than the
    // regular ones' maximum (the pixel lost its view of foreign cookies).
    let params = |url: &str| {
        url.split_once('?')
            .map(|(_, q)| q.split('&').count())
            .unwrap_or(0)
    };
    let max_regular = regular.iter().map(|(url, _)| params(url)).max().unwrap();
    let max_guarded = guarded.iter().map(|(url, _)| params(url)).max().unwrap();
    assert!(
        max_guarded <= max_regular,
        "guarded CAPI payload should not exceed regular ({max_guarded} > {max_regular})"
    );
}
