//! The detection fold: a commutative monoid over visits, engine-shared.
//!
//! [`DetectStats`] is to the detector what
//! [`StreamStats`](cg_analysis::StreamStats) is to the crawl census:
//! each visit is reduced to [`VisitFacts`](crate::features::VisitFacts)
//! and folded into per-key aggregates, then dropped. Per-key state
//! exists only for registry-labeled pairs, so one accumulator is
//! bounded by labels × sketch size: a few hundred keys, each with
//! integer counters, a foreign-organization map, and a value sketch of
//! up to K hashes. That bound does not depend on crawl size, but it is
//! not a constant either — the sketches keep growing until they
//! saturate at K, so RSS still climbs on crawls below that point.
//!
//! `merge` is associative and commutative (integer sums, max-merge
//! labels, order-independent sketch unions), merging two partials
//! equals folding their visits into one, and every ratio is computed
//! once at report time from merged integers — which is why resident
//! folds, streamed folds, and parallel folds at any thread count
//! serialize byte-identically.

use crate::engine::DetectEngine;
use crate::features::{extract, DetectKey, Owner, Stages};
use cg_analysis::DistinctSketch;
use cg_crawlstore::{ReadBackend, StoreError};
use cg_instrument::VisitLog;
use cg_telemetry::{global, Class, Counter};
use cg_webgen::CookieLabel;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::OnceLock;

struct DetectMetrics {
    logs_folded: Counter,
}

fn detect_metrics() -> &'static DetectMetrics {
    static METRICS: OnceLock<DetectMetrics> = OnceLock::new();
    METRICS.get_or_init(|| DetectMetrics {
        logs_folded: global().counter("detect.logs_folded", Class::Workload),
    })
}

/// One foreign organization's interaction with one key: how often it
/// was co-present (its scripts ran while the cookie existed) and on how
/// many of those sites it shipped the value off-site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForeignAgg {
    /// Sites where this organization's scripts were included alongside
    /// the key (the rate denominator).
    pub co_present: u64,
    /// Sites where it shipped the key's value (non-bulk requests only).
    pub ships: u64,
}

/// Cross-site aggregate for one labeled key. All fields are integer
/// site counts; ratios are derived at report time.
#[derive(Debug, Clone)]
pub struct KeyAgg {
    /// Ground truth (Tracker wins across merged owners).
    pub label: CookieLabel,
    /// Sites on which the key was written at all.
    pub sites_seen: u64,
    /// Sites where a written value carried an identifier segment.
    pub id_sites: u64,
    /// Sites where a write requested a persistent lifetime.
    pub persistent_sites: u64,
    /// Sites with a foreign-delete-then-owner-recreate sequence.
    pub respawn_sites: u64,
    /// Sites where the owner itself shipped the value off-site.
    pub self_ship_sites: u64,
    /// Per foreign organization: co-presence and harvest counts.
    pub foreign: BTreeMap<String, ForeignAgg>,
    /// Distinct values observed across all sites (value stability).
    pub distinct_values: DistinctSketch,
    /// Total value-writes observed (the stability denominator).
    pub value_writes: u64,
}

impl Default for KeyAgg {
    fn default() -> KeyAgg {
        KeyAgg {
            label: CookieLabel::Functional,
            sites_seen: 0,
            id_sites: 0,
            persistent_sites: 0,
            respawn_sites: 0,
            self_ship_sites: 0,
            foreign: BTreeMap::new(),
            distinct_values: DistinctSketch::default(),
            value_writes: 0,
        }
    }
}

impl KeyAgg {
    fn absorb(&mut self, other: KeyAgg) {
        if other.label == CookieLabel::Tracker {
            self.label = CookieLabel::Tracker;
        }
        self.sites_seen += other.sites_seen;
        self.id_sites += other.id_sites;
        self.persistent_sites += other.persistent_sites;
        self.respawn_sites += other.respawn_sites;
        self.self_ship_sites += other.self_ship_sites;
        for (entity, agg) in other.foreign {
            let e = self.foreign.entry(entity).or_default();
            e.co_present += agg.co_present;
            e.ships += agg.ships;
        }
        self.distinct_values.absorb(other.distinct_values);
        self.value_writes += other.value_writes;
    }
}

/// The fold state: per-key aggregates plus crawl accounting. Borrows
/// the compiled engine (`DetectEngine` is `Sync`), so per-segment
/// partials share one compilation.
#[derive(Clone)]
pub struct DetectStats<'e> {
    engine: &'e DetectEngine,
    /// Visits folded, complete or not.
    pub crawled: u64,
    /// Visits retained by the completeness filter.
    pub complete: u64,
    /// Per labeled key (BTreeMap: deterministic iteration for reports).
    pub keys: BTreeMap<DetectKey, KeyAgg>,
    /// Distinct unlabeled `(name, owner)` pairs seen (sketched, never
    /// retained — these are outside the scored universe).
    pub unlabeled_pairs: DistinctSketch,
    /// Unblocked writes on unlabeled pairs.
    pub unlabeled_sets: u64,
    /// Per shipping organization: distinct cookie names it shipped
    /// off-site anywhere in the crawl (bulk included). Deliberate
    /// harvesters ship a small fixed list; jar samplers accumulate
    /// breadth — the report discounts the broad ones as foreign
    /// evidence.
    pub shipper_names: BTreeMap<String, DistinctSketch>,
}

impl<'e> DetectStats<'e> {
    /// The identity element for `engine`. [`Stages::Full`] is the only
    /// mode.
    pub fn new(engine: &'e DetectEngine, _stages: Stages) -> DetectStats<'e> {
        DetectStats {
            engine,
            crawled: 0,
            complete: 0,
            keys: BTreeMap::new(),
            unlabeled_pairs: DistinctSketch::default(),
            unlabeled_sets: 0,
            shipper_names: BTreeMap::new(),
        }
    }

    /// The engine these stats were folded under.
    pub fn engine(&self) -> &'e DetectEngine {
        self.engine
    }

    /// Folds one visit and drops it.
    pub fn fold(&mut self, log: &VisitLog) {
        detect_metrics().logs_folded.incr();
        self.crawled += 1;
        if !log.complete {
            return;
        }
        self.complete += 1;
        let facts = extract(self.engine, log);
        for (key, kf) in facts.keys {
            let owner_entity = match &key.owner {
                Owner::Entity(e) => Some(e.as_str()),
                Owner::Site | Owner::Cloaked => None,
            };
            let agg = self.keys.entry(key.clone()).or_default();
            if kf.label == Some(CookieLabel::Tracker) {
                agg.label = CookieLabel::Tracker;
            }
            agg.sites_seen += 1;
            agg.id_sites += u64::from(kf.id_value);
            agg.persistent_sites += u64::from(kf.persistent);
            agg.respawn_sites += u64::from(kf.respawned);
            agg.self_ship_sites += u64::from(kf.self_ship);
            for value in &kf.values {
                agg.distinct_values
                    .observe(&[key.name.as_bytes(), value.as_bytes()]);
            }
            agg.value_writes += kf.values.len() as u64;
            // Foreign rates are conditional on presence: the union of
            // included-script organizations and actual shippers (a
            // shipper is present by construction).
            let mut present = facts.foreign_present.clone();
            present.extend(kf.foreign_ships.iter().cloned());
            for entity in present {
                if owner_entity == Some(entity.as_str()) {
                    continue;
                }
                let shipped = kf.foreign_ships.contains(&entity);
                let f = agg.foreign.entry(entity).or_default();
                f.co_present += 1;
                f.ships += u64::from(shipped);
            }
        }
        for (name, owner) in &facts.unlabeled_pairs {
            self.unlabeled_pairs
                .observe(&[name.as_bytes(), owner.as_bytes()]);
        }
        self.unlabeled_sets += facts.unlabeled_sets;
        for (entity, names) in facts.shipped_names {
            let sketch = self.shipper_names.entry(entity).or_default();
            for name in names {
                sketch.observe(&[name.as_bytes()]);
            }
        }
    }

    /// Absorbs another partial folded under the same engine.
    /// Associative and commutative; `cg_crawlstore::fold_store` merges
    /// partials in store order regardless.
    pub fn merge(mut self, other: DetectStats<'e>) -> DetectStats<'e> {
        self.crawled += other.crawled;
        self.complete += other.complete;
        for (key, agg) in other.keys {
            self.keys.entry(key).or_default().absorb(agg);
        }
        self.unlabeled_pairs.absorb(other.unlabeled_pairs);
        self.unlabeled_sets += other.unlabeled_sets;
        for (entity, sketch) in other.shipper_names {
            self.shipper_names.entry(entity).or_default().absorb(sketch);
        }
        self
    }

    /// Folds a fallible stream of visit logs (a crawl reader or one
    /// store segment stream).
    pub fn from_reader<E>(
        engine: &'e DetectEngine,
        stages: Stages,
        logs: impl IntoIterator<Item = Result<VisitLog, E>>,
    ) -> Result<DetectStats<'e>, E> {
        let mut stats = DetectStats::new(engine, stages);
        for log in logs {
            stats.fold(&log?);
        }
        Ok(stats)
    }

    /// Folds already-resident logs (the `Dataset` path).
    pub fn from_logs<'l>(
        engine: &'e DetectEngine,
        stages: Stages,
        logs: impl IntoIterator<Item = &'l VisitLog>,
    ) -> DetectStats<'e> {
        let mut stats = DetectStats::new(engine, stages);
        for log in logs {
            stats.fold(log);
        }
        stats
    }

    /// Streams the store at `dir` with up to `threads` parallel fold
    /// workers, default read backend.
    pub fn from_store(
        engine: &'e DetectEngine,
        stages: Stages,
        dir: impl AsRef<Path>,
        threads: usize,
    ) -> Result<DetectStats<'e>, StoreError> {
        DetectStats::from_store_with(engine, stages, dir, threads, ReadBackend::default())
    }

    /// [`DetectStats::from_store`] with an explicit [`ReadBackend`].
    /// All backends and thread counts produce byte-identical reports.
    pub fn from_store_with(
        engine: &'e DetectEngine,
        stages: Stages,
        dir: impl AsRef<Path>,
        threads: usize,
        backend: ReadBackend,
    ) -> Result<DetectStats<'e>, StoreError> {
        cg_crawlstore::fold_store(
            dir,
            threads,
            backend,
            || DetectStats::new(engine, stages),
            |stats, chunk| {
                for log in chunk {
                    stats.fold(&log?);
                }
                Ok(())
            },
            DetectStats::merge,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DetectConfig;
    use cg_instrument::{CookieApi, Recorder, WriteKind};
    use cg_webgen::{CookieLabels, GenConfig, WebGenerator};
    use std::sync::OnceLock;

    fn engine() -> &'static DetectEngine {
        static ENGINE: OnceLock<DetectEngine> = OnceLock::new();
        ENGINE.get_or_init(|| {
            let gen = WebGenerator::new(GenConfig::small(100), 3);
            let labels = CookieLabels::derive(gen.registry());
            DetectEngine::compile(
                &labels,
                cg_entity::builtin_entity_map(),
                DetectConfig::default(),
            )
        })
    }

    fn visit(site: &str, events: impl FnOnce(&mut Recorder)) -> VisitLog {
        let mut r = Recorder::new(site, 1);
        events(&mut r);
        r.finish()
    }

    /// `Recorder::record_set` cannot express a lifetime (only the
    /// browser's `emit_set` path fills it); patch it on after the fact.
    fn with_max_age(mut log: VisitLog, age: i64) -> VisitLog {
        for ev in &mut log.sets {
            ev.max_age_s = Some(age);
        }
        log
    }

    #[test]
    fn fold_aggregates_labeled_keys_only() {
        let mut stats = DetectStats::new(engine(), Stages::Full);
        stats.fold(&visit("shop.example", |r| {
            r.record_set(
                "_fbp",
                "fb.1.1746746266109.868308499845957651",
                Some("facebook.net"),
                None,
                CookieApi::DocumentCookie,
                WriteKind::Create,
                None,
                false,
                10,
            );
            r.record_set(
                "my_site_pref",
                "dark",
                None,
                None,
                CookieApi::DocumentCookie,
                WriteKind::Create,
                None,
                false,
                11,
            );
        }));
        assert_eq!(stats.complete, 1);
        let key = DetectKey {
            name: "_fbp".into(),
            owner: Owner::Entity("Meta".into()),
        };
        let agg = stats.keys.get(&key).expect("labeled key aggregated");
        assert_eq!(agg.sites_seen, 1);
        assert_eq!(agg.id_sites, 1, "fbp value carries an id segment");
        assert_eq!(agg.label, CookieLabel::Tracker);
        assert_eq!(stats.unlabeled_pairs.estimate(), 1);
        assert_eq!(stats.unlabeled_sets, 1);
    }

    #[test]
    fn merge_matches_sequential_fold() {
        let a = with_max_age(
            visit("a.example", |r| {
                r.record_set(
                    "_ga",
                    "GA1.1.444332364.1746838827",
                    Some("googletagmanager.com"),
                    None,
                    CookieApi::DocumentCookie,
                    WriteKind::Create,
                    None,
                    false,
                    5,
                );
            }),
            63_072_000,
        );
        let b = with_max_age(
            visit("b.example", |r| {
                r.record_set(
                    "_ga",
                    "GA1.1.999911111.1746838999",
                    Some("googletagmanager.com"),
                    None,
                    CookieApi::DocumentCookie,
                    WriteKind::Create,
                    None,
                    false,
                    5,
                );
            }),
            63_072_000,
        );
        let mut seq = DetectStats::new(engine(), Stages::Full);
        seq.fold(&a);
        seq.fold(&b);
        let mut pa = DetectStats::new(engine(), Stages::Full);
        pa.fold(&a);
        let mut pb = DetectStats::new(engine(), Stages::Full);
        pb.fold(&b);
        let merged = pa.merge(pb);
        assert_eq!(seq.keys.len(), merged.keys.len());
        let key = seq.keys.keys().next().unwrap();
        assert_eq!(seq.keys[key].sites_seen, merged.keys[key].sites_seen);
        assert_eq!(seq.keys[key].persistent_sites, 2);
        assert_eq!(merged.keys[key].distinct_values.estimate(), 2);
    }
}
