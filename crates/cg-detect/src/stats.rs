//! The detection fold: a commutative monoid over visits, engine-shared.
//!
//! [`DetectStats`] is to the detector what
//! [`StreamStats`](cg_analysis::StreamStats) is to the crawl census:
//! each visit is reduced to [`VisitFacts`](crate::features::VisitFacts)
//! and folded into per-key aggregates, then dropped. State is keyed by
//! the engine's dense ids, never by strings: [`DetectStats::keys`] is a
//! vector indexed by [`KeyId`], and organizations are [`OrgId`]s.
//!
//! What one accumulator holds, and what bounds it:
//!
//! * per key, integer counters and a value sketch of at most
//!   [`SKETCH_K`] hashes — fixed size;
//! * per organization that shipped anything, a name sketch of at most
//!   [`SKETCH_K`] hashes;
//! * per key, one 12-byte entry for each organization ever co-present
//!   with it. The foreign-harvest rate needs the exact count for every
//!   pair, so this part is bounded by keys × organizations — the
//!   ecosystem — not by a constant: it keeps growing with the crawl
//!   until every pair that occurs has occurred.
//!
//! `merge` is associative and commutative (integer sums, max-merge
//! labels, order-independent sketch unions), merging two partials
//! equals folding their visits into one, and every ratio is computed
//! once at report time from merged integers — which is why resident
//! folds, streamed folds, and parallel folds at any thread count
//! serialize byte-identically.

use crate::engine::{DetectEngine, KeyId, OrgId};
use crate::features::{extract, max_label, Owner, Stages};
use cg_analysis::DistinctSketch;
use cg_crawlstore::{ReadBackend, StoreError};
use cg_instrument::VisitLog;
use cg_telemetry::{global, Class, Counter};
use cg_webgen::CookieLabel;
use std::collections::HashMap;
use std::path::Path;
use std::sync::OnceLock;

/// Hashes kept by the per-key value sketches and the per-organization
/// shipped-name sketches. Counts below it are exact; above it the
/// estimate never reads below `SKETCH_K - 1`, so
/// [`DetectConfig::broad_shipper_names`](crate::DetectConfig::broad_shipper_names)
/// is decided exactly up to `SKETCH_K - 2`.
pub const SKETCH_K: usize = 64;

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
    pub co_present: u32,
    /// Sites where it shipped the key's value (non-bulk requests only).
    pub ships: u32,
}

/// Cross-site aggregate for one labeled key. All fields are integer
/// site counts; ratios are derived at report time.
#[derive(Debug, Clone)]
pub struct KeyAgg {
    /// Ground truth (Tracker wins across merged owners).
    pub label: CookieLabel,
    /// Sites on which the key was written at all (0: never seen).
    pub sites_seen: u64,
    /// Sites where a written value carried an identifier segment.
    pub id_sites: u64,
    /// Sites where a write requested a persistent lifetime.
    pub persistent_sites: u64,
    /// Sites with a foreign-delete-then-owner-recreate sequence.
    pub respawn_sites: u64,
    /// Sites where the owner itself shipped the value off-site.
    pub self_ship_sites: u64,
    /// Per foreign organization: co-presence and harvest counts,
    /// ascending by id.
    pub foreign: Vec<(OrgId, ForeignAgg)>,
    /// Distinct values observed across all sites (value stability),
    /// exact below [`SKETCH_K`].
    pub distinct_values: DistinctSketch<SKETCH_K>,
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
            foreign: Vec::new(),
            distinct_values: DistinctSketch::default(),
            value_writes: 0,
        }
    }
}

impl KeyAgg {
    fn absorb(&mut self, other: KeyAgg) {
        self.label = max_label(self.label, other.label);
        self.sites_seen += other.sites_seen;
        self.id_sites += other.id_sites;
        self.persistent_sites += other.persistent_sites;
        self.respawn_sites += other.respawn_sites;
        self.self_ship_sites += other.self_ship_sites;
        if self.foreign.is_empty() {
            self.foreign = other.foreign;
        } else {
            self.add_foreign(&other.foreign);
        }
        self.distinct_values.absorb(other.distinct_values);
        self.value_writes += other.value_writes;
    }

    /// Adds `incoming` (ascending by org) into `foreign`: one pass
    /// that sums the organizations already present, then one merge
    /// from the back that places the new ones, so a visit or a partial
    /// costs O(entries) however many organizations it adds.
    fn add_foreign(&mut self, incoming: &[(OrgId, ForeignAgg)]) {
        let mut fresh = Vec::new();
        let mut mine = 0;
        for &(org, agg) in incoming {
            while mine < self.foreign.len() && self.foreign[mine].0 < org {
                mine += 1;
            }
            match self.foreign.get_mut(mine) {
                Some((o, slot)) if *o == org => {
                    slot.co_present += agg.co_present;
                    slot.ships += agg.ships;
                }
                _ => fresh.push((org, agg)),
            }
        }
        if fresh.is_empty() {
            return;
        }
        let mut i = self.foreign.len();
        self.foreign
            .resize(i + fresh.len(), (OrgId::MAX, ForeignAgg::default()));
        for k in (0..self.foreign.len()).rev() {
            let Some(&next) = fresh.last() else { break };
            if i > 0 && self.foreign[i - 1].0 > next.0 {
                self.foreign[k] = self.foreign[i - 1];
                i -= 1;
            } else {
                self.foreign[k] = next;
                fresh.pop();
            }
        }
    }
}

/// The fold state: per-key aggregates plus crawl accounting. Borrows
/// the compiled engine (`DetectEngine` is `Sync`), so per-segment
/// partials share one compilation and one id space.
#[derive(Clone)]
pub struct DetectStats<'e> {
    engine: &'e DetectEngine,
    /// Visits folded, complete or not.
    pub crawled: u64,
    /// Visits retained by the completeness filter.
    pub complete: u64,
    /// Per key, indexed by [`KeyId::index`]; keys never seen have
    /// `sites_seen == 0` (see [`DetectStats::scored`]).
    pub keys: Vec<KeyAgg>,
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
    pub shipper_names: HashMap<OrgId, DistinctSketch<SKETCH_K>>,
}

impl<'e> DetectStats<'e> {
    /// The identity element for `engine`. [`Stages::Full`] is the only
    /// mode.
    pub fn new(engine: &'e DetectEngine, _stages: Stages) -> DetectStats<'e> {
        DetectStats {
            engine,
            crawled: 0,
            complete: 0,
            keys: Vec::new(),
            unlabeled_pairs: DistinctSketch::default(),
            unlabeled_sets: 0,
            shipper_names: HashMap::new(),
        }
    }

    /// The engine these stats were folded under.
    pub fn engine(&self) -> &'e DetectEngine {
        self.engine
    }

    /// Every key seen at least once, with its aggregate.
    pub fn scored(&self) -> impl Iterator<Item = (KeyId, &KeyAgg)> {
        self.keys
            .iter()
            .enumerate()
            .filter(|(_, agg)| agg.sites_seen > 0)
            .map(|(i, agg)| (KeyId::from_index(i), agg))
    }

    fn agg_mut(&mut self, key: KeyId) -> &mut KeyAgg {
        if key.index() >= self.keys.len() {
            self.keys.resize_with(key.index() + 1, KeyAgg::default);
        }
        &mut self.keys[key.index()]
    }

    /// Folds one visit and drops it.
    pub fn fold(&mut self, log: &VisitLog) {
        detect_metrics().logs_folded.incr();
        self.crawled += 1;
        if !log.complete {
            return;
        }
        self.complete += 1;
        let engine = self.engine;
        let facts = extract(engine, log);
        let mut present = Vec::new();
        for kf in facts.keys {
            let key = engine.key(kf.key);
            let owner_org = match key.owner {
                Owner::Entity(org) => Some(org),
                Owner::Site | Owner::Cloaked => None,
            };
            let name = engine.name(key.name).as_bytes();
            let agg = self.agg_mut(kf.key);
            agg.label = max_label(agg.label, kf.label);
            agg.sites_seen += 1;
            agg.id_sites += u64::from(kf.id_value);
            agg.persistent_sites += u64::from(kf.persistent);
            agg.respawn_sites += u64::from(kf.respawned);
            agg.self_ship_sites += u64::from(kf.self_ship);
            for value in &kf.values {
                agg.distinct_values.observe(&[name, value.as_bytes()]);
            }
            agg.value_writes += kf.values.len() as u64;
            // Foreign rates are conditional on presence: the union of
            // included-script organizations and actual shippers (a
            // shipper is present by construction).
            let ships = &kf.foreign_ships;
            present.clear();
            present.extend(
                facts
                    .foreign_present
                    .iter()
                    .chain(ships)
                    .filter(|&&org| owner_org != Some(org))
                    .map(|&org| {
                        let shipped = ships.binary_search(&org).is_ok();
                        let agg = ForeignAgg {
                            co_present: 1,
                            ships: u32::from(shipped),
                        };
                        (org, agg)
                    }),
            );
            present.sort_unstable_by_key(|&(org, _)| org);
            present.dedup_by_key(|&mut (org, _)| org);
            agg.add_foreign(&present);
        }
        for &h in &facts.unlabeled_pairs {
            self.unlabeled_pairs.insert_hash(h);
        }
        self.unlabeled_sets += facts.unlabeled_sets;
        for (org, name) in facts.shipped_names {
            self.shipper_names
                .entry(org)
                .or_default()
                .insert_hash(engine.name_hash(name));
        }
    }

    /// Absorbs another partial folded under the same engine, key by
    /// key. Associative and commutative; `cg_crawlstore::fold_store`
    /// merges partials in store order regardless.
    pub fn merge(mut self, other: DetectStats<'e>) -> DetectStats<'e> {
        self.crawled += other.crawled;
        self.complete += other.complete;
        if self.keys.len() < other.keys.len() {
            self.keys.resize_with(other.keys.len(), KeyAgg::default);
        }
        for (mine, theirs) in self.keys.iter_mut().zip(other.keys) {
            if theirs.sites_seen > 0 {
                mine.absorb(theirs);
            }
        }
        self.unlabeled_pairs.absorb(other.unlabeled_pairs);
        self.unlabeled_sets += other.unlabeled_sets;
        #[allow(clippy::iter_over_hash_type)] // sketch unions commute: order cannot matter
        for (org, sketch) in other.shipper_names {
            self.shipper_names.entry(org).or_default().absorb(sketch);
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

    /// Folds already-resident logs, such as an in-memory crawl's.
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
        let e = engine();
        let key = crate::DetectKey {
            name: e.name_id("_fbp").expect("_fbp is labeled"),
            owner: Owner::Entity(e.org_of("facebook.net")),
        };
        assert_eq!(e.owner_name(key.owner), "Meta");
        let agg = &stats.keys[e.key_id(key).index()];
        assert!(agg.sites_seen > 0, "labeled key aggregated");
        assert_eq!(stats.scored().count(), 1, "only the labeled key");
        assert_eq!(agg.sites_seen, 1);
        assert_eq!(agg.id_sites, 1, "fbp value carries an id segment");
        assert_eq!(agg.label, CookieLabel::Tracker);
        assert_eq!(stats.unlabeled_pairs.estimate(), 1);
        assert_eq!(stats.unlabeled_sets, 1);
    }

    #[test]
    fn the_visited_site_is_never_a_shipper() {
        let mut stats = DetectStats::new(engine(), Stages::Full);
        let value = "fb.1.1746746266109.868308499845957651";
        stats.fold(&visit("shop.example", |r| {
            r.record_set(
                "_fbp",
                value,
                Some("facebook.net"),
                None,
                CookieApi::DocumentCookie,
                WriteKind::Create,
                None,
                false,
                10,
            );
            // The site's own script and Meta's both ship the value.
            for (script, dest, t) in [
                (
                    "https://shop.example/app.js",
                    "https://collect.stats.example/p",
                    20,
                ),
                (
                    "https://connect.facebook.net/fbevents.js",
                    "https://www.facebook.com/tr",
                    21,
                ),
            ] {
                r.record_request(
                    &format!("{dest}?v={value}"),
                    cg_http::RequestKind::Image,
                    Some(&cg_url::Url::parse(script).unwrap()),
                    "shop.example",
                    None,
                    t,
                );
            }
        }));
        let shippers: Vec<&str> = stats
            .shipper_names
            .keys()
            .map(|&org| engine().org_name(org))
            .collect();
        assert_eq!(shippers, ["Meta"]);
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
        assert_eq!(seq.scored().count(), merged.scored().count());
        let (key, agg) = seq.scored().next().unwrap();
        assert_eq!(agg.sites_seen, merged.keys[key.index()].sites_seen);
        assert_eq!(agg.persistent_sites, 2);
        assert_eq!(merged.keys[key.index()].distinct_values.estimate(), 2);
    }
}
