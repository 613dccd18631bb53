//! **Guard as a service** — the serving layer that turns CookieGuard's
//! compiled decision path into sustained decisions per second.
//!
//! The paper's deployment argument (§5) is that first-party cookie-jar
//! isolation is cheap enough to run in-line. The core crates prove the
//! per-operation cost (a compiled engine deciding in tens of
//! nanoseconds, sessions cheap enough to open per visit); this crate
//! supplies what a deployment additionally needs and measures it:
//!
//! * **Multi-tenancy** — a [`GuardService`] owns N independent
//!   [`Tenant`]s (per-region / per-profile / per-cohort policy
//!   variants, à la the Cookieverse study), each with its own compiled
//!   engine, and routes visits to them deterministically by rank.
//! * **Policy hot-swap** — each tenant's engine lives in an
//!   [`EpochSlot`]: a recompiled policy (new whitelist, entity map,
//!   filter-derived config) is installed by swapping an
//!   `Arc<GuardEngine>` and bumping an epoch. In-flight sessions keep
//!   the engine they pinned at open; new sessions pick up the new
//!   epoch; the retired engine's drain is *proved* via a weak-reference
//!   probe ([`EpochSlot::undrained`]).
//! * **Load generation** — [`replay()`] drives visits from a PR 6 crawl
//!   store through tenant-routed sessions across a fixed worker pool
//!   (resident or mmap chunk stream, closed loop, scheduled mid-run
//!   swaps) and reports sustained decisions/s and swap latency.
//!   Per-decision latency is measured from outside, by `perfbench/`.
//!
//! # The no-lock decision invariant
//!
//! No code between session open and session close acquires a lock, and
//! a swap never blocks a decision. A session clones its tenant's
//! engine `Arc` once at open and decides against that snapshot; the
//! epoch lives *inside* the engine, so (engine, epoch) can never be
//! observed torn. Session open itself is lock-free in the common case
//! through a per-worker [`EngineCache`] that re-reads the slot only
//! when the published epoch moves. The only write-side lock is held
//! for two pointer assignments; policy compilation happens before it.
//!
//! **Layer:** serving (above `core`'s engine/session, drawing traffic
//! from `cg-crawlstore`, counting through `cg-instrument`).
//! **Invariants:** the decision path acquires no locks; sessions pin
//! one (engine, epoch) pair for their whole life; swaps are gapless
//! (`from_epoch + 1 == to_epoch`) and retired engines are freed exactly
//! when their last session closes; replay's `ServiceCounters` are
//! byte-identical at any worker count. **Entry points:**
//! [`GuardService`], [`EpochSlot`], [`replay()`], [`extract_script`].

#![warn(missing_docs)]

pub mod epoch;
pub mod replay;
pub(crate) mod telemetry;
pub mod tenant;

pub use epoch::{EngineCache, EpochSlot, SwapReport};
pub use replay::{
    extract_script, replay, EpochSessions, ReplayOp, ReplayOptions, ReplayOutcomes, ReplayReport,
    ReplaySource, ReplayTiming, SwapPoint, VisitScript,
};
pub use tenant::{GuardService, Tenant, TenantId};
