//! Bounded-memory streaming statistics: the aggregate-only alternative
//! to [`Dataset`](crate::Dataset) for crawls too large to retain.
//!
//! [`Dataset`](crate::Dataset) keeps every complete [`VisitLog`]
//! because several
//! analyses (exfiltration matching, manipulation classification) replay
//! raw events — that is its *retained* mode, and its memory grows
//! linearly with the crawl. [`StreamStats`] is the *streaming* mode:
//! each visit is folded into pure aggregates and dropped, so peak
//! memory is independent of visit count. The only non-scalar state is
//! the unique cookie-pair counters, and those are fixed-memory
//! [`DistinctSketch`]es rather than exact sets: first-party pairs
//! carry the site's own eTLD+1 as their owner, so the distinct-pair
//! population grows with the crawl (a 1M-visit crawl has ~3M distinct
//! `document.cookie` pairs) and exact sets would quietly reintroduce
//! linear memory. The sketches are exact for every test- and CI-sized
//! crawl and ~1%-accurate at campaign scale.
//!
//! `StreamStats` is a commutative monoid ([`StreamStats::merge`] is
//! associative, [`StreamStats::default`] is the identity), and merging
//! two partials equals folding their visits into one. That is what
//! makes parallel folds sound: `cg_crawlstore::fold_store` folds
//! contiguous runs of the store on separate workers and merges adjacent
//! runs in store order — byte-identical serialized output at any thread
//! count.

use crate::dataset::reconstruct;
use crate::sketch::DistinctSketch;
use cg_crawlstore::{ReadBackend, StoreError};
use cg_instrument::{CookieApi, VisitLog, WriteKind};
use cg_telemetry::{global, Class, Counter};
use serde::Serialize;
use std::path::Path;
use std::sync::OnceLock;

/// The analysis layer's registered metric handles (see `cg-telemetry`):
/// visits folded is a pure function of the folded store, so it is
/// `Workload`-class.
struct AnalysisMetrics {
    logs_folded: Counter,
}

fn analysis_metrics() -> &'static AnalysisMetrics {
    static METRICS: OnceLock<AnalysisMetrics> = OnceLock::new();
    METRICS.get_or_init(|| AnalysisMetrics {
        logs_folded: global().counter("analysis.logs_folded", Class::Workload),
    })
}

/// Aggregate crawl statistics, computed one visit at a time without
/// retaining any [`VisitLog`]. All counters are event/site totals over
/// *complete* visits (the §4.2 completeness filter), except `crawled`
/// which counts every visit seen.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct StreamStats {
    /// Visits folded, complete or not.
    pub crawled: u64,
    /// Visits retained by the completeness filter.
    pub complete: u64,
    /// Unblocked cookie creations.
    pub creates: u64,
    /// Unblocked overwrites.
    pub overwrites: u64,
    /// Unblocked deletes.
    pub deletes: u64,
    /// Set events a policy blocked before the jar.
    pub blocked_sets: u64,
    /// Cookie read events.
    pub reads: u64,
    /// Outbound requests.
    pub requests: u64,
    /// Feature probes.
    pub probes: u64,
    /// DOM mutations.
    pub dom_events: u64,
    /// Script inclusions.
    pub inclusions: u64,
    /// Sites with at least one third-party script inclusion.
    pub third_party_script_sites: u64,
    /// Sites with ≥1 unblocked `document.cookie` write.
    pub doc_cookie_sites: u64,
    /// Sites with ≥1 unblocked `cookieStore` write.
    pub cookie_store_sites: u64,
    /// Cross-domain overwrite events (reconstructed ownership).
    pub cross_overwrite_events: u64,
    /// Cross-domain delete events.
    pub cross_delete_events: u64,
    /// Sites with ≥1 cross-domain overwrite.
    pub cross_overwrite_sites: u64,
    /// Sites with ≥1 cross-domain delete.
    pub cross_delete_sites: u64,
    /// Distinct pairs created via `document.cookie` (fixed-memory
    /// sketch: exact below ~16k distinct pairs, ~1% beyond).
    pub doc_cookie_pairs: DistinctSketch,
    /// Distinct pairs created via `cookieStore`.
    pub cookie_store_pairs: DistinctSketch,
    /// Distinct pairs created via HTTP `Set-Cookie`.
    pub http_pairs: DistinctSketch,
}

impl StreamStats {
    /// Folds one visit and drops it: the caller keeps no reference and
    /// the stats keep no copy.
    pub fn fold(&mut self, log: &VisitLog) {
        analysis_metrics().logs_folded.incr();
        self.crawled += 1;
        if !log.complete {
            return;
        }
        self.complete += 1;
        let mut doc_write = false;
        let mut store_write = false;
        for ev in &log.sets {
            if ev.blocked {
                self.blocked_sets += 1;
                continue;
            }
            match ev.kind {
                WriteKind::Create => self.creates += 1,
                WriteKind::Overwrite => self.overwrites += 1,
                WriteKind::Delete => self.deletes += 1,
            }
            match ev.api {
                CookieApi::DocumentCookie => doc_write = true,
                CookieApi::CookieStore => store_write = true,
                CookieApi::HttpHeader => {}
            }
        }
        self.doc_cookie_sites += u64::from(doc_write);
        self.cookie_store_sites += u64::from(store_write);
        self.reads += log.reads.len() as u64;
        self.requests += log.requests.len() as u64;
        self.probes += log.probes.len() as u64;
        self.dom_events += log.dom_events.len() as u64;
        self.inclusions += log.inclusions.len() as u64;
        if log
            .inclusions
            .iter()
            .any(|inc| inc.domain.as_deref().is_some_and(|d| d != log.site_domain))
        {
            self.third_party_script_sites += 1;
        }
        // Ownership replay is per-visit state; it is built, read, and
        // dropped inside this call.
        let site = reconstruct(log);
        for (key, hist) in &site.pairs {
            let sketch = match hist.api {
                Some(CookieApi::DocumentCookie) => &mut self.doc_cookie_pairs,
                Some(CookieApi::CookieStore) => &mut self.cookie_store_pairs,
                Some(CookieApi::HttpHeader) => &mut self.http_pairs,
                None => continue,
            };
            sketch.observe(&[key.name.as_bytes(), key.owner.as_bytes()]);
        }
        self.cross_overwrite_events += site.cross_overwrites.len() as u64;
        self.cross_delete_events += site.cross_deletes.len() as u64;
        self.cross_overwrite_sites += u64::from(!site.cross_overwrites.is_empty());
        self.cross_delete_sites += u64::from(!site.cross_deletes.is_empty());
    }

    /// Absorbs another partial. Associative and commutative (sums and
    /// order-independent sketch unions), so partials can merge in any
    /// grouping; `cg_crawlstore::fold_store` merges them in store order
    /// regardless.
    pub fn merge(mut self, other: StreamStats) -> StreamStats {
        self.crawled += other.crawled;
        self.complete += other.complete;
        self.creates += other.creates;
        self.overwrites += other.overwrites;
        self.deletes += other.deletes;
        self.blocked_sets += other.blocked_sets;
        self.reads += other.reads;
        self.requests += other.requests;
        self.probes += other.probes;
        self.dom_events += other.dom_events;
        self.inclusions += other.inclusions;
        self.third_party_script_sites += other.third_party_script_sites;
        self.doc_cookie_sites += other.doc_cookie_sites;
        self.cookie_store_sites += other.cookie_store_sites;
        self.cross_overwrite_events += other.cross_overwrite_events;
        self.cross_delete_events += other.cross_delete_events;
        self.cross_overwrite_sites += other.cross_overwrite_sites;
        self.cross_delete_sites += other.cross_delete_sites;
        self.doc_cookie_pairs.absorb(other.doc_cookie_pairs);
        self.cookie_store_pairs.absorb(other.cookie_store_pairs);
        self.http_pairs.absorb(other.http_pairs);
        self
    }

    /// Folds a fallible stream of visit logs (e.g. a
    /// `cg_crawlstore::CrawlReader` or one `ChunkStream`).
    pub fn from_reader<E>(
        logs: impl IntoIterator<Item = Result<VisitLog, E>>,
    ) -> Result<StreamStats, E> {
        let mut stats = StreamStats::default();
        for log in logs {
            stats.fold(&log?);
        }
        Ok(stats)
    }

    /// Streams the store at `dir` into aggregates using up to `threads`
    /// parallel fold workers. Byte-identical serialized output at any
    /// thread count, with peak memory independent of crawl size.
    pub fn from_store(dir: impl AsRef<Path>, threads: usize) -> Result<StreamStats, StoreError> {
        StreamStats::from_store_with(dir, threads, ReadBackend::default())
    }

    /// [`StreamStats::from_store`] with an explicit [`ReadBackend`]:
    /// folds the store chunk-granular (frame-index boundaries inside
    /// segments), so even a single-segment store parallelizes, through
    /// mmap'd windows or positioned reads. Both backends and every
    /// thread count serialize byte-identically.
    pub fn from_store_with(
        dir: impl AsRef<Path>,
        threads: usize,
        backend: ReadBackend,
    ) -> Result<StreamStats, StoreError> {
        cg_crawlstore::fold_store(
            dir,
            threads,
            backend,
            StreamStats::default,
            |stats, chunk| {
                for log in chunk {
                    stats.fold(&log?);
                }
                Ok(())
            },
            StreamStats::merge,
        )
    }

    /// The flat summary (pair sketches reduced to their counts) — what
    /// the CLI surfaces print and the bench report embeds.
    pub fn summary(&self) -> StreamSummary {
        StreamSummary {
            crawled: self.crawled,
            complete: self.complete,
            creates: self.creates,
            overwrites: self.overwrites,
            deletes: self.deletes,
            blocked_sets: self.blocked_sets,
            reads: self.reads,
            requests: self.requests,
            third_party_script_sites: self.third_party_script_sites,
            doc_cookie_sites: self.doc_cookie_sites,
            cookie_store_sites: self.cookie_store_sites,
            doc_cookie_pairs: self.doc_cookie_pairs.estimate(),
            cookie_store_pairs: self.cookie_store_pairs.estimate(),
            http_pairs: self.http_pairs.estimate(),
            cross_overwrite_events: self.cross_overwrite_events,
            cross_delete_events: self.cross_delete_events,
            cross_overwrite_sites: self.cross_overwrite_sites,
            cross_delete_sites: self.cross_delete_sites,
        }
    }
}

/// [`StreamStats`] with the pair sketches collapsed to counts: small
/// enough to print or embed in a machine-readable report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct StreamSummary {
    /// Visits folded, complete or not.
    pub crawled: u64,
    /// Visits retained by the completeness filter.
    pub complete: u64,
    /// Unblocked cookie creations.
    pub creates: u64,
    /// Unblocked overwrites.
    pub overwrites: u64,
    /// Unblocked deletes.
    pub deletes: u64,
    /// Set events a policy blocked before the jar.
    pub blocked_sets: u64,
    /// Cookie read events.
    pub reads: u64,
    /// Outbound requests.
    pub requests: u64,
    /// Sites with at least one third-party script inclusion.
    pub third_party_script_sites: u64,
    /// Sites with ≥1 unblocked `document.cookie` write.
    pub doc_cookie_sites: u64,
    /// Sites with ≥1 unblocked `cookieStore` write.
    pub cookie_store_sites: u64,
    /// Distinct pairs created via `document.cookie` (sketch count:
    /// exact below ~16k, ~1% at campaign scale).
    pub doc_cookie_pairs: u64,
    /// Distinct pairs created via `cookieStore` (sketch count).
    pub cookie_store_pairs: u64,
    /// Distinct pairs created via HTTP `Set-Cookie` (sketch count).
    pub http_pairs: u64,
    /// Cross-domain overwrite events.
    pub cross_overwrite_events: u64,
    /// Cross-domain delete events.
    pub cross_delete_events: u64,
    /// Sites with ≥1 cross-domain overwrite.
    pub cross_overwrite_sites: u64,
    /// Sites with ≥1 cross-domain delete.
    pub cross_delete_sites: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_instrument::Recorder;

    fn log(rank: usize, site: &str, events: impl FnOnce(&mut Recorder)) -> VisitLog {
        let mut r = Recorder::new(site, rank);
        events(&mut r);
        r.finish()
    }

    fn set(r: &mut Recorder, name: &str, actor: Option<&str>, api: CookieApi, kind: WriteKind) {
        r.record_set(name, "v", actor, None, api, kind, None, false, 0);
    }

    #[test]
    fn fold_counts_aggregates_without_retention() {
        let mut stats = StreamStats::default();
        stats.fold(&log(1, "a.com", |r| {
            set(
                r,
                "_ga",
                Some("gtm.com"),
                CookieApi::DocumentCookie,
                WriteKind::Create,
            );
            set(
                r,
                "_ga",
                Some("other.com"),
                CookieApi::DocumentCookie,
                WriteKind::Overwrite,
            );
        }));
        let mut incomplete = Recorder::new("bad.com", 2);
        incomplete.mark_incomplete();
        stats.fold(&incomplete.finish());
        assert_eq!(stats.crawled, 2);
        assert_eq!(stats.complete, 1);
        assert_eq!(stats.creates, 1);
        assert_eq!(stats.overwrites, 1);
        assert_eq!(stats.doc_cookie_sites, 1);
        assert_eq!(stats.doc_cookie_pairs.estimate(), 1);
        assert_eq!(stats.cross_overwrite_events, 1);
        assert_eq!(stats.cross_overwrite_sites, 1);
    }

    #[test]
    fn merge_is_associative_and_has_identity() {
        let mk = |rank: usize, owner: &'static str| {
            let mut s = StreamStats::default();
            s.fold(&log(rank, "s.com", |r| {
                set(
                    r,
                    "c",
                    Some(owner),
                    CookieApi::CookieStore,
                    WriteKind::Create,
                );
            }));
            s
        };
        let (a, b, c) = (mk(1, "x.com"), mk(2, "y.com"), mk(3, "x.com"));
        let left = a.clone().merge(b.clone()).merge(c.clone());
        let right = a.clone().merge(b.merge(c));
        assert_eq!(
            serde_json::to_string(&left).unwrap(),
            serde_json::to_string(&right).unwrap()
        );
        assert_eq!(
            left.cookie_store_pairs.estimate(),
            2,
            "sketches deduplicate"
        );
        assert_eq!(
            serde_json::to_string(&a.clone().merge(StreamStats::default())).unwrap(),
            serde_json::to_string(&a).unwrap()
        );
    }

    #[test]
    fn summary_collapses_sets_to_counts() {
        let mut stats = StreamStats::default();
        stats.fold(&log(1, "a.com", |r| {
            set(
                r,
                "sid",
                Some("a.com"),
                CookieApi::HttpHeader,
                WriteKind::Create,
            );
        }));
        let summary = stats.summary();
        assert_eq!(summary.http_pairs, 1);
        assert_eq!(summary.crawled, 1);
        // The summary is plain scalars: serializing it stays small.
        assert!(serde_json::to_string(&summary).unwrap().len() < 600);
    }
}
