//! The crawl store: an append-only, segmented, on-disk log of
//! [`VisitLog`](cg_instrument::VisitLog)s that makes a crawl durable,
//! resumable, and analyzable without ever materializing it in memory.
//!
//! At production scale a crawl runs for days and produces datasets
//! larger than RAM; a process death must not lose work. The store
//! provides exactly the three properties that requires:
//!
//! * **Contention-free appends** — [`CrawlWriter`] hands every crawl
//!   worker its own **fresh** segment file (fsync'd in batches), so the
//!   hot path takes no cross-worker lock. Fresh files also make every
//!   segment an internally rank-sorted run — a resume back-fills
//!   missing ranks into new segments instead of appending low ranks
//!   behind high ones, which is what keeps the reader's merge correct.
//!   There is one on-disk format: `seg-<n>.bin`, length-prefixed
//!   checksummed binary frames (see [`codec`]). Greppable JSON lines
//!   are an export (`cg-experiments export --jsonl DIR`), not a storage
//!   format.
//! * **Checkpointing** — `manifest.json` records the crawl's config
//!   fingerprint (master seed, rank range, visit-config digest, segment
//!   format) plus a per-segment durability watermark. Reopening an
//!   existing directory validates the fingerprint, truncates any torn
//!   trailing frame left by a crash, and returns the set of
//!   already-completed ranks, so a resumed crawl skips finished work
//!   and — because every visit is a pure function of (master seed,
//!   rank, visit config) — converges to byte-identical output versus an
//!   uninterrupted run. A manifest from before binary-only segments
//!   (`"jsonl"`, or no format) is refused as corrupt.
//! * **One read path** — binary segments carry a `seg-<n>.idx`
//!   frame-index sidecar ([`index`]) that cuts each segment into
//!   independently decodable chunks ([`chunk`]), and every reader goes
//!   through them and the one frame decoder, [`decode_frame`]. Chunks
//!   reach the decoder through one of two [`ReadBackend`]s: `mmap(2)`
//!   windows over the page cache ([`mmap`], the default — zero-copy,
//!   falling back to `pread` wherever mapping fails) or positioned
//!   reads (the fallback and the differential oracle). Both verify the
//!   same checksums and watermarks and produce byte-identical results.
//! * **Streaming reads** — [`CrawlReader`] replays the store
//!   rank-ordered via a k-way merge over each segment's chunks; memory
//!   is one chunk window and one record per segment.
//!   `Dataset::from_reader` in `cg-analysis` folds that stream
//!   incrementally.
//! * **Parallel folds in bounded memory** — [`fold_store`] folds
//!   contiguous runs of chunks into one accumulator per worker (plus
//!   one per steal), merges adjacent runs as they finish, and so holds
//!   O(threads) partials and one chunk window per worker whatever the
//!   crawl size. Merges join neighbours only, earlier run first, so the
//!   result is the sequential fold's — byte-identical at any thread
//!   count and through either backend.
//!
//! ```no_run
//! use cg_browser::{crawl_into, VisitConfig};
//! use cg_crawlstore::{open_store, CrawlReader};
//! use cg_webgen::{GenConfig, WebGenerator};
//!
//! let gen = WebGenerator::new(GenConfig::small(1_000), 0xC00C1E);
//! let cfg = VisitConfig::regular();
//! // Open (or resume) the store; already-done ranks are skipped.
//! let store = open_store("/tmp/crawl", &gen, &cfg, 1, 1_000).unwrap();
//! crawl_into(&gen, &cfg, 1, 1_000, 8, &store).unwrap();
//! // Stream it back, rank-ordered, without loading the crawl.
//! for log in CrawlReader::open("/tmp/crawl").unwrap() {
//!     let log = log.unwrap();
//!     println!("{} rank {}", log.site_domain, log.rank);
//! }
//! ```
//!
//! **Layer:** persistence (between `cg-browser` crawls and
//! `cg-analysis`). **Invariants:** segments are internally rank-sorted
//! append-only runs; the manifest's fingerprint gates resume; a
//! killed-and-resumed crawl's merged stream is byte-identical to an
//! uninterrupted one. **Entry points:** `open_store`,
//! `open_store_with`, `crawl_to_store`, `CrawlWriter`, `CrawlReader`,
//! `fold_store`, `par_fold_with`.

pub mod chunk;
pub mod codec;
pub mod fold;
pub mod index;
pub mod manifest;
pub mod mmap;
mod pread;
pub mod reader;
pub(crate) mod telemetry;
pub mod writer;

pub use chunk::{decode_frame, plan_chunks, ChunkPlan, ChunkSpec, ChunkStream, ReadBackend};
pub use codec::SegmentFormat;
pub use fold::{fold_store, par_fold_with};
pub use manifest::{Fingerprint, Manifest, SegmentMeta, MANIFEST_FILE};
pub use mmap::Mmap;
pub use reader::CrawlReader;
pub use writer::{
    crawl_to_store, open_store, open_store_with, CrawlWriter, SegmentWriter, StoreCrawl, StoreStats,
};

use std::fmt;

/// Everything that can go wrong talking to a store.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// A manifest or record failed to parse where truncation recovery
    /// does not apply (mid-file damage, bad manifest, a segment format
    /// other than binary).
    Corrupt {
        /// File the damage was found in.
        file: String,
        /// What failed.
        detail: String,
    },
    /// The directory holds a crawl with a different config fingerprint —
    /// resuming would interleave incompatible visits.
    FingerprintMismatch {
        /// Fingerprint recorded in the manifest.
        found: Box<Fingerprint>,
        /// Fingerprint of the crawl being opened.
        expected: Box<Fingerprint>,
    },
    /// Another live writer holds the store's directory lock; a second
    /// appender would interleave half-records into its segments.
    Locked {
        /// The contested store directory.
        dir: std::path::PathBuf,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "crawl store I/O error: {e}"),
            StoreError::Corrupt { file, detail } => {
                write!(f, "crawl store corrupt ({file}): {detail}")
            }
            StoreError::FingerprintMismatch { found, expected } => write!(
                f,
                "crawl store fingerprint mismatch: directory holds {found:?}, crawl is {expected:?}"
            ),
            StoreError::Locked { dir } => write!(
                f,
                "crawl store {} is locked by another writer",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

impl From<StoreError> for std::io::Error {
    fn from(e: StoreError) -> std::io::Error {
        match e {
            StoreError::Io(e) => e,
            other => std::io::Error::other(other.to_string()),
        }
    }
}
