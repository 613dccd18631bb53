//! First-party tracking-cookie detection (the COOKIEGRAPH-style
//! classifier this reproduction scores against generator ground truth).
//!
//! CookieGuard *partitions* cookies by owner; this crate *classifies*
//! them. Each first-party cookie observed in a crawl is reduced to the
//! feature set the detection literature uses — setter identity
//! (organization-resolved, CNAME-uncloaked), identifier-shaped values,
//! requested lifetime, value stability, respawn behaviour, and
//! read/exfil fan-out (who ships the value off-site, owner vs foreign
//! organizations) — and a small compiled decision-rule classifier
//! flags the tracking identifiers. Ground truth comes from
//! [`cg_webgen::CookieLabels`], which derives every generated cookie's
//! intent from realized vendor behaviour, so precision/recall are exact
//! rather than sampled.
//!
//! The pipeline consumes resident logs ([`DetectStats::from_logs`], such
//! as an in-memory crawl's) and crawl stores
//! ([`DetectStats::from_store_with`] over the store's ordered parallel
//! fold, which holds O(threads) partials). The engine compiles names,
//! organizations and `(name, owner)` keys to dense ids, and the fold
//! keeps integer state indexed by them. Per key that state is
//! fixed-size — counters and a value sketch of at most
//! [`stats::SKETCH_K`] hashes — except for one exact co-presence count
//! per organization ever seen with the key, which the foreign-harvest
//! rate needs. That table is bounded by keys × organizations, not by
//! visits, but it keeps growing until the crawl has produced every pair
//! (measured: 12 bytes a pair, 1.2M pairs at 10k visits).
//!
//! **Layer:** analysis (consumes `cg-instrument` logs and
//! `cg-crawlstore` streams; compiled from `cg-webgen` ground truth;
//! never touches the simulator).
//! **Invariants:** the fold is a commutative monoid and every ratio is
//! derived once at report time, so resident, streamed, and parallel
//! folds serialize byte-identical reports at any thread count or read
//! backend; per-visit extraction is pure (visit-order independent).
//! **Entry points:** [`DetectEngine::compile`], [`DetectStats`],
//! [`DetectReport::from_stats`].

#![warn(missing_docs)]

pub mod engine;
pub mod features;
pub mod report;
pub mod stats;

pub use engine::{DetectConfig, DetectEngine, KeyId, NameId, OrgId};
pub use features::{DetectKey, Owner, Stages, VisitFacts};
pub use report::{DetectReport, FlagReason, KeyRow, Scores, Verdict};
pub use stats::{DetectStats, ForeignAgg, KeyAgg};
