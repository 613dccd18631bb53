//! The analysis framework (§4.4): consumes instrumentation logs and
//! produces every number the paper reports in §5, plus the inputs of the
//! §7 evaluation figures.
//!
//! The framework deliberately sees only [`cg_instrument::VisitLog`]s —
//! the same events the paper's extension records — so detection of
//! cross-domain access, manipulation, and exfiltration is an *inference*
//! over observable events, with the same blind spots (e.g. full-value
//! Base64 encodings defeat segment-level identifier matching).
//!
//! Two consumption modes exist: the retained [`Dataset`] (keeps every
//! complete log, and nothing derived from them, for event-replay
//! analyses) and the bounded-memory [`StreamStats`] (aggregates only;
//! peak memory independent of crawl size). Both read a visit's cookie
//! ownership through one borrowed replay, [`dataset::replay`]. Both can fold a crawl store's segments in parallel —
//! `Dataset::from_store` / `StreamStats::from_store` — with
//! byte-identical results at any thread count.
//!
//! **Layer:** analysis (consumes `cg-instrument` logs and replays
//! `cg-crawlstore` streams; never touches the simulator).
//! **Invariant:** every statistic is a pure fold over `VisitLog`s, so
//! in-memory, streamed, and parallel per-segment analyses agree.
//! **Entry points:** `Dataset`, `StreamStats`, `detect_exfiltration`,
//! `detect_manipulation`, `cross_domain_summary`, `build_filter_engine`.

pub mod dataset;
pub mod dom_pilot;
pub mod exfiltration;
pub mod intent;
pub mod manipulation;
pub mod prevalence;
pub mod server_side;
pub mod sketch;
pub mod stats;
pub mod stream;
pub mod table1;

pub use dataset::{Dataset, PairKey};
pub use dom_pilot::dom_pilot_stats;
pub use exfiltration::{detect_exfiltration, ExfilAnalysis};
pub use intent::{classify_intents, IntentReport, ManipulationIntent};
pub use manipulation::{detect_manipulation, ManipulationAnalysis};
pub use prevalence::{api_usage, build_filter_engine, inclusion_stats, prevalence_stats};
pub use server_side::{detect_server_side, ForwardMap, ServerSideReport};
pub use sketch::DistinctSketch;
pub use stream::{StreamStats, StreamSummary};
pub use table1::{cross_domain_summary, CrossDomainSummary};
