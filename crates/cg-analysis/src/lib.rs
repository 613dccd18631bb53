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
//! Every table is one fold: [`Census::fold`] replays a complete visit's
//! cookie ownership once ([`dataset::replay`]) and feeds that replay to
//! every §5 table, so no log is kept once it is folded. The same census
//! folds an in-memory crawl ([`Census::of_logs`]) and a crawl store in
//! parallel ([`Census::from_store_with`]), with equal tables at any
//! thread count. [`StreamStats`], the census's crawl-wide counters, also
//! folds alone where only the counters are needed.
//!
//! **Layer:** analysis (consumes `cg-instrument` logs and replays
//! `cg-crawlstore` streams; never touches the simulator).
//! **Invariant:** every statistic is a pure fold over `VisitLog`s, so
//! in-memory, streamed, and parallel per-segment analyses agree.
//! **Entry points:** `Census`, `Tables`, `StreamStats`,
//! `ServerSideReport`, `build_filter_engine`.

pub mod census;
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

pub use census::{Census, Tables};
pub use dataset::PairKey;
pub use dom_pilot::dom_pilot_stats;
pub use exfiltration::ExfilAnalysis;
pub use intent::{IntentReport, ManipulationIntent};
pub use manipulation::ManipulationAnalysis;
pub use prevalence::build_filter_engine;
pub use server_side::{ForwardMap, ServerSideReport};
pub use sketch::DistinctSketch;
pub use stream::{StreamStats, StreamSummary};
pub use table1::CrossDomainSummary;
