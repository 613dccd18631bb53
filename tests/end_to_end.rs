//! End-to-end integration: generator → browser → instrumentation →
//! analysis, across crate boundaries.

use cookieguard_repro::analysis::{
    cross_domain_summary, detect_exfiltration, detect_manipulation, Dataset,
};
use cookieguard_repro::browser::{crawl_range, VisitConfig};
use cookieguard_repro::entity::builtin_entity_map;
use cookieguard_repro::webgen::{GenConfig, WebGenerator};

fn crawl(sites: usize, seed: u64, threads: usize) -> Dataset {
    let gen = WebGenerator::new(GenConfig::small(sites), seed);
    let (outcomes, _) = crawl_range(&gen, &VisitConfig::regular(), 1, sites, threads);
    Dataset::from_logs(outcomes.into_iter().map(|o| o.log).collect())
}

#[test]
fn crawl_is_deterministic_across_runs_and_threads() {
    let a = crawl(80, 42, 1);
    let b = crawl(80, 42, 4);
    assert_eq!(a.site_count(), b.site_count());
    for (la, lb) in a.logs.iter().zip(&b.logs) {
        assert_eq!(la.site_domain, lb.site_domain);
        assert_eq!(la.sets, lb.sets);
        assert_eq!(la.requests, lb.requests);
        assert_eq!(la.probes, lb.probes);
    }
}

#[test]
fn different_seeds_produce_different_webs() {
    let a = crawl(40, 1, 2);
    let b = crawl(40, 2, 2);
    let domains_a: Vec<&str> = a.logs.iter().map(|l| l.site()).collect();
    let domains_b: Vec<&str> = b.logs.iter().map(|l| l.site()).collect();
    assert_ne!(domains_a, domains_b);
}

#[test]
fn analysis_pipeline_produces_consistent_table1() {
    let ds = crawl(250, 0xC00C1E, 4);
    let entities = builtin_entity_map();
    let exfil = detect_exfiltration(&ds, &entities);
    let manip = detect_manipulation(&ds, &entities);
    let t1 = cross_domain_summary(&ds, &exfil, &manip);

    // Percentages are well-formed.
    for row in [&t1.doc_exfiltration, &t1.doc_overwriting, &t1.doc_deleting] {
        assert!((0.0..=100.0).contains(&row.sites_pct));
        assert!((0.0..=100.0).contains(&row.cookies_pct));
        assert!(row.cookies_count <= t1.doc_pairs_total);
    }
    // The paper's ordering: exfiltration > overwriting > deleting.
    assert!(t1.doc_exfiltration.sites_pct > t1.doc_overwriting.sites_pct);
    assert!(t1.doc_overwriting.sites_pct > t1.doc_deleting.sites_pct);
    // All three actions must actually occur at this scale.
    assert!(t1.doc_deleting.sites_pct > 0.0);
}

#[test]
fn exfiltrated_pairs_subset_of_all_pairs() {
    let ds = crawl(150, 7, 4);
    let entities = builtin_entity_map();
    let exfil = detect_exfiltration(&ds, &entities);
    let all_doc = ds.unique_pairs(cookieguard_repro::instrument::CookieApi::DocumentCookie);
    let all_http = ds.unique_pairs(cookieguard_repro::instrument::CookieApi::HttpHeader);
    for pair in &exfil.cross_exfiltrated_pairs_doc {
        let key = (pair.name.as_str(), pair.owner.as_str());
        assert!(
            all_doc.contains(&key) || all_http.contains(&key),
            "exfiltrated pair {pair:?} not in dataset"
        );
    }
}

#[test]
fn incomplete_visits_are_excluded_from_analysis() {
    let gen = WebGenerator::new(GenConfig::small(120), 3);
    let (outcomes, summary) = crawl_range(&gen, &VisitConfig::regular(), 1, 120, 2);
    assert!(summary.complete < summary.visited);
    let ds = Dataset::from_logs(outcomes.into_iter().map(|o| o.log).collect());
    assert_eq!(ds.site_count(), summary.complete);
    assert_eq!(ds.crawled, 120);
}
