//! CNAME cloaking end-to-end (§8): a tracker served from a first-party
//! subdomain bypasses URL-keyed isolation; a DNS-aware guard uncloaks it.

use cookieguard_repro::browser::{visit_site, VisitConfig};
use cookieguard_repro::cookieguard::GuardConfig;
use cookieguard_repro::url::CnameMap;
use cookieguard_repro::webgen::{GenConfig, WebGenerator};

fn cloaked_site(
    gen: &WebGenerator,
    limit: usize,
) -> Option<cookieguard_repro::webgen::SiteBlueprint> {
    (1..=limit)
        .map(|r| gen.blueprint(r))
        .find(|b| b.spec.cname_cloaked && b.spec.crawl_ok)
}

#[test]
fn some_sites_are_cloaked_and_records_resolve() {
    let gen = WebGenerator::new(GenConfig::small(600), 0xC10A);
    let bp = cloaked_site(&gen, 600).expect("cloaked sites must exist at 3% incidence");
    assert!(!bp.cnames.is_empty());
    let alias = format!("metrics.{}", bp.spec.domain);
    // The alias resolves out of the first party.
    assert!(bp.cnames.is_cloaked(&alias));
    assert_ne!(
        bp.cnames.uncloaked_domain(&alias).as_deref(),
        cookieguard_repro::url::registrable_domain(&alias).as_deref()
    );
}

#[test]
fn cloaked_tracker_bypasses_url_keyed_guard() {
    let gen = WebGenerator::new(GenConfig::small(600), 0xC10A);
    let bp = cloaked_site(&gen, 600).expect("cloaked site");
    let seed = gen.site_seed(bp.spec.rank);

    // URL-keyed guard (the paper's prototype): the cloaked script's
    // eTLD+1 equals the site's, so it is the site owner — full access.
    let out = visit_site(&bp, &VisitConfig::guarded(GuardConfig::strict()), seed);
    let cloaked_reads: Vec<_> = out
        .log
        .reads
        .iter()
        .filter(|r| out.log.opt_str(r.actor) == Some(bp.spec.domain.as_str()))
        .collect();
    assert!(
        !cloaked_reads.is_empty(),
        "cloaked script must have read the jar"
    );
    // The cloaked exfiltration request fires with cookie payload access.
    assert!(
        out.log
            .requests
            .iter()
            .any(|r| out.log.str(r.url).contains("/cloaked")),
        "cloaked exfiltration request expected"
    );
}

#[test]
fn dns_aware_guard_uncloaks_and_blocks() {
    let gen = WebGenerator::new(GenConfig::small(600), 0xC10A);
    let bp = cloaked_site(&gen, 600).expect("cloaked site");
    let seed = gen.site_seed(bp.spec.rank);

    let cfg = VisitConfig {
        resolve_cnames: true,
        ..VisitConfig::guarded(GuardConfig::strict())
    };
    let out = visit_site(&bp, &cfg, seed);

    // The measurement layer still logs the *cloaked* actor (an extension
    // cannot see DNS — faithful to the paper), but the guard now filters
    // the cloaked script's reads: some site-actor read has cookies
    // withheld, which never happens under a URL-keyed guard (the site
    // owner sees everything).
    let filtered_site_reads: Vec<_> = out
        .log
        .reads
        .iter()
        .filter(|r| {
            out.log.opt_str(r.actor) == Some(bp.spec.domain.as_str()) && r.filtered_count > 0
        })
        .collect();
    assert!(
        !filtered_site_reads.is_empty(),
        "DNS-aware guard must filter the cloaked script"
    );
    for read in &filtered_site_reads {
        for name in out.log.names_of(read) {
            assert_eq!(
                name, "_cloaked_uid",
                "uncloaked tracker must only see its own cookie"
            );
        }
    }

    // Control: under the URL-keyed guard, no site-actor read is filtered.
    let url_keyed = visit_site(&bp, &VisitConfig::guarded(GuardConfig::strict()), seed);
    assert!(url_keyed
        .log
        .reads
        .iter()
        .filter(|r| url_keyed.log.opt_str(r.actor) == Some(bp.spec.domain.as_str()))
        .all(|r| r.filtered_count == 0));
}

#[test]
fn resolver_is_inert_on_uncloaked_hosts() {
    let mut map = CnameMap::new();
    map.insert("metrics.a.com", "t.tracker.io");
    assert_eq!(map.resolve("www.b.com"), "www.b.com");
    assert_eq!(map.uncloaked_domain("www.b.com").as_deref(), Some("b.com"));
}
