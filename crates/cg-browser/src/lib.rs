//! The browser simulator: executes site blueprints through a cookie jar,
//! DOM, script engine, and (optionally) CookieGuard, while the
//! instrumentation layer records everything — the equivalent of the
//! paper's Chromium + Selenium + extension stack (§4.1–§4.2).
//!
//! Layering at the `document.cookie` / `CookieStore` chokepoint:
//!
//! ```text
//!   script behaviour (cg-script)
//!        │  Platform trait calls, with stack-trace attribution
//!        ▼
//!   Page (this crate)
//!        │  1. CookieGuard policy (optional)   — the defense
//!        │  2. Recorder logging                — the measurement
//!        ▼
//!   CookieJar / Document / network log
//! ```
//!
//! The same [`Page`] type therefore reproduces both halves of the paper:
//! crawling without a guard yields the §5 measurement dataset; attaching
//! a [`cookieguard_core::GuardSession`] yields the §7 evaluation.
//!
//! **Layer:** simulation core (everything between blueprints and logs).
//! **Invariant:** every cookie operation flows through the
//! `GuardedJar` access layer — no workload-specific guard/jar/log
//! interleaving exists anywhere else. **Entry points:** `visit_site`,
//! `crawl_range`/`crawl_into`, `visit_under_conditions`, `Page`.

pub mod crawler;
pub mod page;
pub mod scenario;
pub mod timing;
pub mod visit;

pub use crawler::{crawl_into, crawl_range, CrawlSummary, SinkWorker, VecCollector, VisitSink};
pub use page::Page;
pub use scenario::{visit_under_conditions, ConditionOutcome};
pub use timing::{simulate_timing, PageTiming};
pub use visit::{visit_site, visit_site_with_jar, VisitConfig, VisitOutcome};
