//! End-to-end integration: generator → browser → instrumentation →
//! analysis, across crate boundaries.

use cookieguard_repro::analysis::{dataset::replay, Census, Tables};
use cookieguard_repro::browser::{crawl_range, VisitConfig};
use cookieguard_repro::entity::builtin_entity_map;
use cookieguard_repro::filterlist::FilterEngine;
use cookieguard_repro::instrument::{CookieApi, VisitLog};
use cookieguard_repro::webgen::{GenConfig, WebGenerator};
use std::collections::HashSet;

/// The crawl's complete visits, in rank order.
fn crawl(sites: usize, seed: u64, threads: usize) -> Vec<VisitLog> {
    let gen = WebGenerator::new(GenConfig::small(sites), seed);
    let (outcomes, _) = crawl_range(&gen, &VisitConfig::regular(), 1, sites, threads);
    outcomes
        .into_iter()
        .map(|o| o.log)
        .filter(|l| l.complete)
        .collect()
}

fn census(logs: &[VisitLog]) -> Tables {
    Census::of_logs(logs, &builtin_entity_map(), &FilterEngine::new()).finish()
}

#[test]
fn crawl_is_deterministic_across_runs_and_threads() {
    let a = crawl(80, 42, 1);
    let b = crawl(80, 42, 4);
    assert_eq!(a.len(), b.len());
    for (la, lb) in a.iter().zip(&b) {
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
    let domains_a: Vec<&str> = a.iter().map(|l| l.site()).collect();
    let domains_b: Vec<&str> = b.iter().map(|l| l.site()).collect();
    assert_ne!(domains_a, domains_b);
}

#[test]
fn analysis_pipeline_produces_consistent_table1() {
    let t1 = census(&crawl(250, 0xC00C1E, 4)).table1;

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
    let logs = crawl(150, 7, 4);
    let exfil = census(&logs).exfil;
    // Every pair a script or a server created outside the CookieStore.
    let all: HashSet<_> = logs
        .iter()
        .flat_map(|log| replay(log).pairs)
        .filter(|pair| pair.api != CookieApi::CookieStore)
        .map(|pair| pair.key())
        .collect();
    assert!(!exfil.cross.pairs_doc.is_empty());
    assert!(
        exfil.cross.pairs_doc.is_subset(&all),
        "an exfiltrated pair is not in the crawl"
    );
}

#[test]
fn incomplete_visits_are_excluded_from_analysis() {
    let gen = WebGenerator::new(GenConfig::small(120), 3);
    let (outcomes, summary) = crawl_range(&gen, &VisitConfig::regular(), 1, 120, 2);
    assert!(summary.complete < summary.visited);
    let stream = census(&outcomes.into_iter().map(|o| o.log).collect::<Vec<_>>()).stream;
    assert_eq!(stream.complete as usize, summary.complete);
    assert_eq!(stream.crawled, 120);
}
