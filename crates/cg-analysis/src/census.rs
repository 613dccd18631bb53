//! The census: every §5 table of one crawl, folded one visit at a time.
//!
//! [`Census::fold`] replays a complete log's cookie ownership once
//! ([`replay`]) and feeds that replay to every table, so no log outlives
//! its fold, in memory ([`Census::of_logs`]) or from a crawl store
//! ([`Census::from_store_with`]). [`Census::merge`] is associative and
//! appends the event lists, so `cg_crawlstore::fold_store` gives the
//! sequential result at any thread count. [`Census::finish`] computes the
//! percentages and rankings once and stably sorts the event lists by rank,
//! so a store folds to the same [`Tables`] as the in-memory crawl it holds.

use crate::dataset::{replay, OwnershipReplay};
use crate::dom_pilot::{DomPilot, DomPilotStats};
use crate::exfiltration::ExfilAnalysis;
use crate::intent::{IntentReport, Intents};
use crate::manipulation::ManipulationAnalysis;
use crate::prevalence::{ApiUsage, ApiUsageStats, InclusionStats, Prevalence, PrevalenceStats};
use crate::stream::StreamStats;
use crate::table1::CrossDomainSummary;
use cg_crawlstore::{ReadBackend, StoreError};
use cg_entity::EntityMap;
use cg_filterlist::FilterEngine;
use cg_instrument::VisitLog;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::path::Path;

/// Every table `--exp all` prints, as an accumulator over visit logs.
#[derive(Debug, Clone, Default)]
pub struct Census {
    /// Crawl-wide counters: the one count of crawled and complete visits.
    pub stream: StreamStats,
    prevalence: Prevalence,
    api: ApiUsage,
    dom: DomPilot,
    exfil: ExfilAnalysis,
    manip: ManipulationAnalysis,
    intents: Intents,
}

/// The finished census of one crawl.
#[derive(Debug, Clone, PartialEq)]
pub struct Tables {
    /// Crawl-wide counters (`crawled`, `complete`, …).
    pub stream: StreamStats,
    /// §5.1.
    pub prevalence: PrevalenceStats,
    /// §5.2.
    pub api_usage: ApiUsageStats,
    /// §5.6.
    pub inclusion: InclusionStats,
    /// §8 pilot.
    pub dom_pilot: DomPilotStats,
    /// Table 1.
    pub table1: CrossDomainSummary,
    /// Exfiltration events and their Table 2 / Fig. 2 aggregates.
    pub exfil: ExfilAnalysis,
    /// Overwrites and deletes: Table 5, Fig. 8, §5.5.
    pub manip: ManipulationAnalysis,
    /// §5.5 intent classification.
    pub intents: IntentReport,
}

impl Census {
    /// Folds one visit. An incomplete visit is only counted (the §4.2
    /// completeness filter); a complete one is replayed once and fed to
    /// every table. Returns that replay, for a table outside the census
    /// (server-side relay) to read too.
    pub fn fold<'l>(
        &mut self,
        log: &'l VisitLog,
        entities: &EntityMap,
        engine: &FilterEngine,
    ) -> Option<OwnershipReplay<'l>> {
        if !log.complete {
            self.stream.fold_replayed(log, &OwnershipReplay::default());
            return None;
        }
        let site = replay(log);
        self.stream.fold_replayed(log, &site);
        self.prevalence.fold(log, &site, engine);
        self.api.fold(log, &site);
        self.dom.fold(log);
        self.exfil.fold(log, &site, entities);
        self.manip.fold(log, &site, entities);
        self.intents.fold(log, &site, entities);
        Some(site)
    }

    /// Joins the census of the visits folded after `self`'s.
    pub fn merge(mut self, other: Census) -> Census {
        self.stream = self.stream.merge(other.stream);
        self.prevalence.merge(other.prevalence);
        self.api.merge(other.api);
        self.dom.merge(other.dom);
        self.exfil.merge(other.exfil);
        self.manip.merge(other.manip);
        self.intents.merge(other.intents);
        self
    }

    /// Folds `logs` in order: the in-memory path. Owned logs are dropped
    /// one by one as they are folded.
    pub fn of_logs<L: Borrow<VisitLog>>(
        logs: impl IntoIterator<Item = L>,
        entities: &EntityMap,
        engine: &FilterEngine,
    ) -> Census {
        let mut census = Census::default();
        for log in logs {
            census.fold(log.borrow(), entities, engine);
        }
        census
    }

    /// Folds a fallible stream of logs, such as a
    /// `cg_crawlstore::CrawlReader`; the first error ends the fold.
    pub fn from_reader<E>(
        logs: impl IntoIterator<Item = Result<VisitLog, E>>,
        entities: &EntityMap,
        engine: &FilterEngine,
    ) -> Result<Census, E> {
        let mut census = Census::default();
        for log in logs {
            census.fold(&log?, entities, engine);
        }
        Ok(census)
    }

    /// Folds the crawl store at `dir` with up to `threads` workers through
    /// `backend`. The finished tables equal [`Census::from_reader`]'s over
    /// the same store at any thread count and through either backend.
    pub fn from_store_with(
        dir: impl AsRef<Path>,
        threads: usize,
        backend: ReadBackend,
        entities: &EntityMap,
        engine: &FilterEngine,
    ) -> Result<Census, StoreError> {
        cg_crawlstore::fold_store(
            dir,
            threads,
            backend,
            Census::default,
            |census, chunk| {
                for log in chunk {
                    census.fold(&log?, entities, engine);
                }
                Ok(())
            },
            Census::merge,
        )
    }

    /// Computes every table's percentages and rankings, and puts the
    /// event lists in rank order: a store folds in (segment, chunk) order,
    /// which interleaves ranks when several workers wrote it.
    pub fn finish(mut self) -> Tables {
        self.exfil.events.sort_by_key(|e| e.rank);
        let sites = self.stream.complete as usize;
        let table1 = CrossDomainSummary::new(
            sites,
            self.api.doc_pairs.len() + self.api.http_pairs.len(),
            self.api.store_pairs.len(),
            &self.exfil,
            &self.manip,
        );
        Tables {
            prevalence: self.prevalence.stats(sites),
            api_usage: self.api.stats(sites),
            inclusion: self.prevalence.inclusion(),
            dom_pilot: self.dom.stats(sites),
            table1,
            exfil: self.exfil,
            manip: self.manip,
            intents: self.intents.report(),
            stream: self.stream,
        }
    }
}

/// Merges `from` into `into`, joining the values of a key both hold with
/// `join`. Each key is joined on its own, so hash order cannot show.
#[allow(clippy::iter_over_hash_type)] // keys are joined independently of each other
pub(crate) fn merge_map<K: Eq + Hash, V: Default>(
    into: &mut HashMap<K, V>,
    from: HashMap<K, V>,
    mut join: impl FnMut(&mut V, V),
) {
    for (key, value) in from {
        join(into.entry(key).or_default(), value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_instrument::{CookieApi, Recorder, WriteKind};

    fn set(r: &mut Recorder, name: &str, value: &str, actor: &str, kind: WriteKind, t: u64) {
        r.record_set(
            name,
            value,
            Some(actor),
            None,
            CookieApi::DocumentCookie,
            kind,
            None,
            false,
            t,
        );
    }

    /// A visit at `rank` with an exfiltrated, overwritten and deleted
    /// pair, so every event list grows.
    fn visit(rank: usize) -> VisitLog {
        let site = format!("site{rank}.com");
        let mut r = Recorder::new(&site, rank);
        let id = format!("{rank:04}abcd{rank:04}efgh");
        set(&mut r, "_ga", &id, "gtm.com", WriteKind::Create, 0);
        set(&mut r, "_ga", "x", "evil.com", WriteKind::Overwrite, 1);
        set(&mut r, "cookie_test", "1", "a.com", WriteKind::Create, 2);
        set(&mut r, "cookie_test", "", "b.com", WriteKind::Delete, 3);
        let script = cg_url::Url::parse("https://cdn.sink.io/s.js").unwrap();
        r.record_request(
            &format!("https://px.sink.io/c?id={id}"),
            cg_http::RequestKind::Image,
            Some(&script),
            &site,
            None,
            4,
        );
        r.finish()
    }

    fn census(ranks: &[usize]) -> Census {
        let entities = cg_entity::builtin_entity_map();
        Census::of_logs(
            ranks.iter().map(|&r| visit(r)),
            &entities,
            &FilterEngine::new(),
        )
    }

    #[test]
    fn census_filters_incomplete() {
        let mut incomplete = Recorder::new("bad.com", 2);
        incomplete.mark_incomplete();
        let tables = Census::of_logs(
            [visit(1), incomplete.finish()],
            &cg_entity::builtin_entity_map(),
            &FilterEngine::new(),
        )
        .finish();
        assert_eq!(tables.stream.crawled, 2);
        assert_eq!(tables.stream.complete, 1);
        assert_eq!(tables.table1.sites, 1);
        assert_eq!(tables.prevalence.sites, 1);
    }

    #[test]
    fn from_reader_matches_of_logs() {
        let entities = cg_entity::builtin_entity_map();
        let engine = FilterEngine::new();
        let logs = [visit(1), visit(2)];
        let read = Census::from_reader(logs.clone().map(Ok::<_, String>), &entities, &engine);
        assert!(read.unwrap().finish() == Census::of_logs(logs, &entities, &engine).finish());
    }

    #[test]
    fn from_reader_propagates_stream_errors() {
        let items: Vec<Result<VisitLog, String>> = vec![Ok(visit(1)), Err("torn".to_string())];
        let entities = cg_entity::builtin_entity_map();
        let Err(e) = Census::from_reader(items, &entities, &FilterEngine::new()) else {
            panic!("stream error must propagate");
        };
        assert_eq!(e, "torn");
    }

    #[test]
    fn merge_of_rank_disjoint_partials_equals_one_sequential_fold() {
        let sequential = census(&[1, 2, 3, 4, 5, 6]).finish();
        let merged = census(&[1, 2])
            .merge(census(&[3, 4, 5]))
            .merge(census(&[6]));
        let merged = merged.finish();
        assert!(merged == sequential, "merged tables differ");
        // The event lists are in rank order, visit by visit.
        let ranks: Vec<usize> = merged.exfil.events.iter().map(|e| e.rank).collect();
        assert_eq!(ranks, [1, 2, 3, 4, 5, 6]);
        let ranks: Vec<usize> = merged.intents.findings.iter().map(|f| f.rank).collect();
        assert_eq!(ranks, [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6]);
        assert!(!merged.intents.findings[0].delete);
        assert_eq!(merged.intents.collision_hotspots, []);
        // Associative, with the empty census as identity.
        let right = census(&[1, 2]).merge(census(&[3, 4, 5]).merge(census(&[6])));
        assert!(right.finish() == sequential);
        let identity = Census::default().merge(census(&[1, 2, 3, 4, 5, 6]));
        assert!(identity.finish() == sequential);
        // Partials whose ranks interleave (segments written by several
        // workers) finish in rank order too.
        let interleaved = census(&[1, 4, 5]).merge(census(&[2, 3, 6]));
        assert!(interleaved.finish() == sequential);
    }
}
