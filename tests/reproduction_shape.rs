//! Shape tests: at reduced scale, the reproduction must exhibit the
//! paper's qualitative structure — orderings, rough factors, and
//! crossovers — even where absolute numbers drift with scale.

use cookieguard_repro::analysis::{build_filter_engine, Census, Tables};
use cookieguard_repro::browser::{crawl_range, VisitConfig};
use cookieguard_repro::entity::builtin_entity_map;
use cookieguard_repro::webgen::{GenConfig, WebGenerator};

/// The finished census of a regular crawl of `sites` sites.
fn crawl(sites: usize) -> Tables {
    let gen = WebGenerator::new(GenConfig::small(sites), 0xC00C1E);
    let (outcomes, _) = crawl_range(&gen, &VisitConfig::regular(), 1, sites, 4);
    let engine = build_filter_engine(gen.registry());
    Census::of_logs(
        outcomes.into_iter().map(|o| o.log),
        &builtin_entity_map(),
        &engine,
    )
    .finish()
}

#[test]
fn headline_shape_holds_at_small_scale() {
    let tables = crawl(500);

    // §4.2: roughly three-quarters of crawls complete.
    let completion = tables.stream.complete as f64 / tables.stream.crawled as f64;
    assert!(
        (0.65..0.85).contains(&completion),
        "completion {completion}"
    );

    // §5.1: third-party scripts are near-ubiquitous and mostly tracking.
    let p = &tables.prevalence;
    assert!(
        p.sites_with_third_party_pct > 85.0,
        "{}",
        p.sites_with_third_party_pct
    );
    assert!(
        (10.0..35.0).contains(&p.avg_third_party_scripts),
        "{}",
        p.avg_third_party_scripts
    );
    assert!(
        (55.0..85.0).contains(&p.ad_tracking_share_pct),
        "{}",
        p.ad_tracking_share_pct
    );
    // Third parties set several times more cookies than the site itself.
    assert!(p.avg_cookies_third_party > 2.0 * p.avg_cookies_first_party);

    // §5.2: document.cookie dwarfs the CookieStore API.
    let usage = &tables.api_usage;
    assert!(usage.doc_cookie_sites_pct > 90.0);
    assert!(usage.cookie_store_sites_pct < 10.0);
    assert!(usage.doc_cookie_pairs > 50 * usage.cookie_store_pairs.max(1));

    // Table 1 ordering and rough magnitudes.
    let t1 = &tables.table1;
    assert!(t1.doc_exfiltration.sites_pct > t1.doc_overwriting.sites_pct);
    assert!(t1.doc_overwriting.sites_pct > t1.doc_deleting.sites_pct);
    assert!((30.0..80.0).contains(&t1.doc_exfiltration.sites_pct));
    assert!((15.0..50.0).contains(&t1.doc_overwriting.sites_pct));
    assert!((2.0..15.0).contains(&t1.doc_deleting.sites_pct));
    // Affected-cookie shares are single-digit-ish.
    assert!(t1.doc_exfiltration.cookies_pct < 20.0);

    // §5.5: value/expiry changes dominate overwrites; domain and path
    // rescoping are rare. (At this scale value vs expires can swap by a
    // few points, so assert the dominant/rare split rather than the
    // exact order within each group.)
    let a = tables.manip.attr_changes();
    assert!(a.value_pct > 50.0, "value {}", a.value_pct);
    assert!(a.expires_pct > 40.0, "expires {}", a.expires_pct);
    assert!(a.domain_pct < 25.0, "domain {}", a.domain_pct);
    assert!(a.path_pct < 15.0, "path {}", a.path_pct);

    // §5.6: indirect inclusions outnumber direct ones.
    let inc = &tables.inclusion;
    assert!(
        inc.indirect_to_direct_ratio > 1.2,
        "{}",
        inc.indirect_to_direct_ratio
    );

    // §8 pilot: cross-domain DOM mutation is a minority phenomenon.
    let dom = &tables.dom_pilot;
    assert!(
        (2.0..20.0).contains(&dom.sites_with_cross_dom_pct),
        "{}",
        dom.sites_with_cross_dom_pct
    );
}

#[test]
fn table2_is_dominated_by_known_trackers() {
    let exfil = crawl(500).exfil;
    let rows = exfil.table2(20);
    assert!(!rows.is_empty());
    // The Google-family cookies must appear near the top.
    let names: Vec<&str> = rows.iter().map(|r| r.cookie.as_str()).collect();
    assert!(
        names.iter().any(|n| n.starts_with("_g")),
        "expected a Google-family cookie in Table 2, got {names:?}"
    );
    // Fig. 2's head is a known tracking domain.
    let fig2 = exfil.cross.top_domains(20, 1_000);
    assert!(!fig2.is_empty());
}

#[test]
fn table5_shows_fbp_and_consent_dynamics() {
    let manip = crawl(600).manip;
    let overwrites = manip.table5(false, 10);
    let deletes = manip.table5(true, 10);
    assert!(!overwrites.is_empty(), "overwrites must be observed");
    assert!(!deletes.is_empty(), "deletes must be observed");
    // Deletions skew to the bing/google tracker cookies consent managers
    // target.
    let delete_names: Vec<&str> = deletes.iter().map(|r| r.cookie.as_str()).collect();
    assert!(
        delete_names
            .iter()
            .any(|n| n.starts_with("_uet") || n.starts_with("_g") || *n == "_fbp"),
        "{delete_names:?}"
    );
}

#[test]
fn perf_shape_heavy_tail_and_modest_overhead() {
    // The A/B visits are unpaired (independent noise draws), so the
    // mean-difference statistic needs several hundred valid pairs before
    // the systematic ~11% guard shift dominates the σ≈1.0 log-normal
    // visit noise of the vendored RNG stream.
    let gen = WebGenerator::new(GenConfig::small(600), 0xC00C1E);
    let report = cookieguard_repro::perf::run_paired_measurement(
        &gen,
        &cookieguard_repro::cookieguard::GuardConfig::strict(),
        1,
        600,
        4,
    );
    assert!(report.valid_pairs > 300);
    // Heavy tail: mean well above median in every condition.
    assert!(report.dcl.0.mean_ms > 1.3 * report.dcl.0.median_ms);
    assert!(report.load.1.mean_ms > 1.3 * report.load.1.median_ms);
    // The guard adds a modest (not catastrophic) overhead.
    let added = report.mean_added_ms();
    assert!(added > 0.0, "guard must cost something, got {added}");
    assert!(added < 1_500.0, "overhead implausibly large: {added}");
}
