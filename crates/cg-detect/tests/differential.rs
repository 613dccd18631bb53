//! Differential guarantees of the detection pipeline over a real
//! generated crawl:
//!
//! * the streaming fold over the binary store serializes a report
//!   byte-identical to the resident fold, at every thread count and
//!   read backend (the commutative-monoid invariant, end to end);
//! * per-visit feature extraction is order-independent — any
//!   interleaving of the same visits produces the same report
//!   (property-tested over sampled permutations);
//! * label coverage: every registry-labeled cookie observed in the
//!   crawl appears in the scored key set, and nothing is scored that
//!   was never observed as labeled — no silent drops either way.

use cg_browser::VisitConfig;
use cg_crawlstore::{crawl_to_store, CrawlReader, ReadBackend};
use cg_detect::{DetectConfig, DetectEngine, DetectReport, DetectStats, Stages};
use cg_instrument::VisitLog;
use cg_webgen::{CookieLabels, GenConfig, WebGenerator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::OnceLock;

const SEED: u64 = 0xD1FF;
const SITES: usize = 160;

struct Crawl {
    dir: PathBuf,
    engine: DetectEngine,
    /// The resident copy of the crawl, in store order.
    logs: Vec<VisitLog>,
}

/// Crawls once into a shared temp store; every test reads from it.
fn crawl() -> &'static Crawl {
    static CRAWL: OnceLock<Crawl> = OnceLock::new();
    CRAWL.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("cg-detect-diff-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let gen = WebGenerator::new(GenConfig::small(SITES), SEED);
        let cfg = VisitConfig::regular();
        crawl_to_store(&dir, &gen, &cfg, 1, SITES, 4, |_| {}).expect("crawl");
        let engine = DetectEngine::compile(
            &CookieLabels::derive(gen.registry()),
            cg_entity::builtin_entity_map(),
            DetectConfig::default(),
        );
        let logs: Vec<VisitLog> = CrawlReader::open(&dir)
            .and_then(|reader| reader.collect())
            .expect("drain store");
        assert_eq!(logs.len(), SITES, "store holds the whole crawl");
        Crawl { dir, engine, logs }
    })
}

fn resident_json() -> String {
    let c = crawl();
    let stats = DetectStats::from_logs(&c.engine, Stages::Full, c.logs.iter());
    DetectReport::from_stats(&stats).to_json()
}

#[test]
fn streaming_report_is_byte_identical_to_resident() {
    let c = crawl();
    let resident = resident_json();
    for backend in [ReadBackend::Mmap, ReadBackend::Pread] {
        for threads in [1, 2, 8] {
            let stats =
                DetectStats::from_store_with(&c.engine, Stages::Full, &c.dir, threads, backend)
                    .expect("streaming fold");
            let streamed = DetectReport::from_stats(&stats).to_json();
            assert_eq!(
                streamed, resident,
                "streaming {backend:?} x{threads} diverged from resident"
            );
        }
    }
}

proptest! {
    /// Any interleaving of the same visits folds to the same report:
    /// the fold is a commutative monoid and extraction is per-visit
    /// pure, so visit order cannot leak into a single byte.
    #[test]
    fn visit_order_does_not_change_the_report(seed in any::<u64>()) {
        let c = crawl();
        let mut order: Vec<usize> = (0..c.logs.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        let stats = DetectStats::from_logs(
            &c.engine,
            Stages::Full,
            order.iter().map(|&i| &c.logs[i]),
        );
        prop_assert_eq!(DetectReport::from_stats(&stats).to_json(), resident_json());
    }
}

#[test]
fn every_labeled_cookie_observed_is_scored() {
    let c = crawl();
    // Ground truth side: every cookie name whose (name, writing actor)
    // pair carries a registry label in some complete visit.
    let mut labeled_observed: BTreeSet<&str> = BTreeSet::new();
    for log in c.logs.iter().filter(|l| l.complete) {
        for ev in log.sets.iter().filter(|e| !e.blocked) {
            let actor = ev.actor.as_deref().unwrap_or(&log.site_domain);
            if c.engine.label_for(&ev.name, actor).is_some() {
                labeled_observed.insert(&ev.name);
            }
        }
    }
    assert!(
        labeled_observed.len() >= 10,
        "crawl too small to exercise coverage: {labeled_observed:?}"
    );
    // Detector side: the scored key set.
    let stats = DetectStats::from_logs(&c.engine, Stages::Full, c.logs.iter());
    let scored: BTreeSet<&str> = stats.keys.keys().map(|k| k.name.as_str()).collect();
    for name in &labeled_observed {
        assert!(
            scored.contains(name),
            "labeled cookie {name} observed in the crawl but silently dropped from scoring"
        );
    }
    // And the converse: nothing is scored that was never observed as a
    // labeled write.
    for name in &scored {
        assert!(
            labeled_observed.contains(name),
            "scored cookie {name} never observed as a labeled write"
        );
    }
}

#[test]
fn sets_only_stage_is_a_prefix_of_the_full_pipeline() {
    let c = crawl();
    // The cheap stage must agree with the full pipeline on everything
    // it computes: same key universe, same set-derived evidence.
    let cheap = DetectStats::from_logs(&c.engine, Stages::SetsOnly, c.logs.iter());
    let full = DetectStats::from_logs(&c.engine, Stages::Full, c.logs.iter());
    let cheap_keys: Vec<_> = cheap.keys.keys().collect();
    let full_keys: Vec<_> = full.keys.keys().collect();
    assert_eq!(cheap_keys, full_keys);
    for (key, agg) in &cheap.keys {
        let f = &full.keys[key];
        assert_eq!(agg.sites_seen, f.sites_seen, "{key:?}");
        assert_eq!(agg.id_sites, f.id_sites, "{key:?}");
        assert_eq!(agg.persistent_sites, f.persistent_sites, "{key:?}");
        assert_eq!(agg.respawn_sites, f.respawn_sites, "{key:?}");
        // Ship evidence only exists in the full pipeline.
        assert_eq!(agg.self_ship_sites, 0, "{key:?}");
        assert!(agg.foreign.is_empty(), "{key:?}");
    }
}
