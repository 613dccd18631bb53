//! The traffic replayer: drives crawl-store visits through
//! tenant-routed guard sessions under a fixed worker pool, optionally
//! hot-swapping policies mid-run.
//!
//! A [`VisitLog`] from the store is lowered once into a [`VisitScript`]
//! — the time-ordered cookie operations the instrumented browser saw,
//! with actors resolved to [`Caller`]s — and each replayed visit opens
//! one [`GuardSession`] on whichever engine its tenant currently
//! publishes, runs the script, and closes.
//!
//! One worker pool serves both traffic sources: workers claim chunks of
//! one frame-index plan ([`plan_chunks`]), so even a single-segment
//! store spreads across every worker. [`ReplaySource::Resident`]
//! decodes every chunk up front and replays from RAM (sustained
//! decisions/s); [`ReplaySource::Stream`] decodes each claimed chunk
//! through an mmap'd window (bounded memory for million-visit stores).
//!
//! # Determinism contract
//!
//! The replay's [`ServiceCounters`] are a pure function of (store
//! contents × passes): chunk claiming is dynamic, but every visit is
//! processed exactly once per pass and each counter is a sum over
//! visits, so totals are byte-identical at any worker count and under
//! any swap timing. Outcome splits ([`ReplayOutcomes`]) and everything
//! in [`ReplayTiming`] are *not* deterministic — swaps land on
//! whatever visit boundary the race picks — which is exactly why they
//! live in separate report blocks that determinism checks mask off.

use crate::epoch::{EngineCache, SwapReport};
use crate::tenant::{GuardService, TenantId};
use cg_crawlstore::{plan_chunks, ChunkPlan, ReadBackend, StoreError};
use cg_instrument::{
    CookieApi, ReadEvent, ServiceCounters, SetEvent, TenantCounters, VisitLog, WriteKind,
};
use cookieguard_core::{Caller, GuardConfig, GuardStats};

#[cfg(doc)]
use cookieguard_core::GuardSession;
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One cookie operation to replay against a session, in visit order.
#[derive(Debug, Clone)]
pub enum ReplayOp {
    /// A script/API cookie write → [`GuardSession::authorize_write`].
    Write {
        /// The acting script.
        caller: Caller,
        /// Cookie name.
        name: String,
    },
    /// A script/API cookie delete → [`GuardSession::authorize_delete`].
    Delete {
        /// The acting script.
        caller: Caller,
        /// Cookie name.
        name: String,
    },
    /// An HTTP `Set-Cookie` → [`GuardSession::record_http_set_cookie`]
    /// (ownership bookkeeping, not a policy decision).
    HeaderSet {
        /// Cookie name.
        name: String,
        /// Responding server's eTLD+1.
        domain: String,
    },
    /// A cookie read → [`GuardSession::filter_names`].
    Read {
        /// The acting script.
        caller: Caller,
        /// Names the jar presented to the caller.
        names: Vec<String>,
    },
}

/// A visit lowered to the operations the replayer executes.
#[derive(Debug, Clone)]
pub struct VisitScript {
    /// The visited site's eTLD+1 (the session's site domain).
    pub site: String,
    /// Tranco-style rank — the tenant routing key.
    pub rank: u64,
    /// Time-ordered cookie operations.
    pub ops: Vec<ReplayOp>,
}

fn caller_for(actor: &Option<String>) -> Caller {
    match actor {
        Some(domain) => Caller::external(domain),
        None => Caller::inline(),
    }
}

fn op_for_set(site: &str, set: &SetEvent) -> ReplayOp {
    if set.api == CookieApi::HttpHeader {
        ReplayOp::HeaderSet {
            name: set.name.clone(),
            domain: set.actor.clone().unwrap_or_else(|| site.to_string()),
        }
    } else if set.kind == WriteKind::Delete {
        ReplayOp::Delete {
            caller: caller_for(&set.actor),
            name: set.name.clone(),
        }
    } else {
        ReplayOp::Write {
            caller: caller_for(&set.actor),
            name: set.name.clone(),
        }
    }
}

fn op_for_read(read: &ReadEvent) -> ReplayOp {
    ReplayOp::Read {
        caller: caller_for(&read.actor),
        names: read.cookies.iter().map(|(n, _)| n.clone()).collect(),
    }
}

/// Lowers a recorded visit to its replayable operation stream: the
/// log's set and read events merged back into `time_ms` order (sets
/// first on ties, matching how the simulator emits them). Both traffic
/// sources call this, so resident and streaming replays execute
/// identical operation streams.
pub fn extract_script(log: &VisitLog) -> VisitScript {
    let mut ops = Vec::with_capacity(log.sets.len() + log.reads.len());
    let (mut i, mut j) = (0, 0);
    while i < log.sets.len() || j < log.reads.len() {
        let take_set = match (log.sets.get(i), log.reads.get(j)) {
            (Some(s), Some(r)) => s.time_ms <= r.time_ms,
            (Some(_), None) => true,
            _ => false,
        };
        if take_set {
            ops.push(op_for_set(&log.site_domain, &log.sets[i]));
            i += 1;
        } else {
            ops.push(op_for_read(&log.reads[j]));
            j += 1;
        }
    }
    VisitScript {
        site: log.site_domain.clone(),
        rank: log.rank as u64,
        ops,
    }
}

/// Where the replayer draws visits from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplaySource {
    /// Decode and lower every chunk up front, then replay from RAM.
    Resident,
    /// Decode each claimed chunk out of its mmap'd segment window, on
    /// every pass.
    Stream,
}

/// A scheduled mid-run policy swap.
#[derive(Debug, Clone)]
pub struct SwapPoint {
    /// Fire once this many visits (across all workers and passes) have
    /// completed.
    pub after_visits: u64,
    /// Tenant to swap.
    pub tenant: TenantId,
    /// Replacement policy.
    pub config: GuardConfig,
}

/// Replay configuration.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// Worker threads replaying visits, closed loop.
    pub workers: usize,
    /// Times the whole store is replayed.
    pub passes: u32,
    /// Traffic source.
    pub source: ReplaySource,
    /// Mid-run policy swaps, fired by a coordinator thread as the
    /// global visit counter crosses each threshold.
    pub swaps: Vec<SwapPoint>,
}

impl Default for ReplayOptions {
    fn default() -> ReplayOptions {
        ReplayOptions {
            workers: 1,
            passes: 1,
            source: ReplaySource::Resident,
            swaps: Vec::new(),
        }
    }
}

/// Sessions opened under one policy epoch (per tenant).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct EpochSessions {
    /// Tenant the sessions belonged to.
    pub tenant: u64,
    /// The epoch they pinned.
    pub epoch: u64,
    /// How many sessions pinned it.
    pub sessions: u64,
}

/// Epoch- and timing-sensitive tallies: which epochs sessions pinned
/// and what the policies decided. **Not** deterministic across worker
/// counts when swaps are scheduled — masked out of byte-equality
/// checks.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ReplayOutcomes {
    /// Writes allowed.
    pub writes_allowed: u64,
    /// Writes blocked.
    pub writes_blocked: u64,
    /// Deletes blocked.
    pub deletes_blocked: u64,
    /// Cookies hidden from reads.
    pub cookies_filtered: u64,
    /// Reads that passed through unfiltered.
    pub reads_clean: u64,
    /// Reads with at least one cookie withheld.
    pub reads_filtered: u64,
    /// Session counts per (tenant, epoch), sorted.
    pub sessions_by_epoch: Vec<EpochSessions>,
}

/// Wall-clock measurements of the run.
#[derive(Debug, Clone, Serialize)]
pub struct ReplayTiming {
    /// End-to-end wall time, milliseconds.
    pub wall_ms: u64,
    /// Sustained policy decisions per second.
    pub decisions_per_sec: f64,
    /// Visits (= sessions) per second.
    pub visits_per_sec: f64,
}

/// Everything one replay produced.
#[derive(Debug, Clone, Serialize)]
pub struct ReplayReport {
    /// Worker threads used.
    pub workers: u64,
    /// Passes over the store.
    pub passes: u64,
    /// `"resident"` or `"stream"`.
    pub source: String,
    /// Deterministic operation totals (worker-count-independent).
    pub counters: ServiceCounters,
    /// Deterministic per-tenant slice of those totals, in registration
    /// order (routing is a pure function of rank). Tenants that drew no
    /// traffic still appear, zeroed, so the report schema is stable.
    pub per_tenant: Vec<TenantCounters>,
    /// Epoch-sensitive tallies.
    pub outcomes: ReplayOutcomes,
    /// Wall time and throughput.
    pub timing: ReplayTiming,
    /// The swaps that fired, in firing order.
    pub swaps: Vec<SwapReport>,
    /// Retired engines still alive after the run drained — must be 0;
    /// anything else means a session leaked past close.
    pub undrained_epochs: u64,
}

/// Per-worker state; everything but the caches is merged after join.
#[derive(Default)]
struct WorkerState {
    /// One engine cache per tenant: the lock-free session-open path.
    caches: Vec<EngineCache>,
    /// Deterministic operation totals, one per tenant, indexed by
    /// [`TenantId::index`]; the run's totals are their merge.
    per_tenant: Vec<ServiceCounters>,
    stats: GuardStats,
    epoch_sessions: BTreeMap<(u64, u64), u64>,
}

impl WorkerState {
    fn new(service: &GuardService) -> WorkerState {
        WorkerState {
            caches: service
                .tenants()
                .map(|(_, t)| EngineCache::new(t.slot()))
                .collect(),
            per_tenant: vec![ServiceCounters::default(); service.tenant_count()],
            ..WorkerState::default()
        }
    }

    fn merge(mut self, other: WorkerState) -> WorkerState {
        for (mine, theirs) in self.per_tenant.iter_mut().zip(&other.per_tenant) {
            *mine = mine.merge(theirs);
        }
        self.stats = self.stats.merge(&other.stats);
        for (key, n) in other.epoch_sessions {
            *self.epoch_sessions.entry(key).or_insert(0) += n;
        }
        self
    }
}

/// Replays one visit through its tenant's current engine. This is the
/// entire per-visit service path: route, open (lock-free fast path),
/// decide, close. Note what is *absent*: no lock appears between
/// session open and close — every decision runs on the engine `Arc`
/// the session pinned.
fn replay_visit(service: &GuardService, script: &VisitScript, state: &mut WorkerState) {
    let sessions_live = &crate::telemetry::metrics().sessions_live;
    let _span = cg_telemetry::span!("session", script.rank);
    let tenant = service.route(script.rank);
    let live = service.tenant(tenant).sessions_live();
    let mut session =
        service.open_session_cached(tenant, &mut state.caches[tenant.index()], &script.site);
    let counters = &mut state.per_tenant[tenant.index()];
    counters.sessions_opened += 1;
    sessions_live.incr();
    live.incr();
    *state
        .epoch_sessions
        .entry((tenant.index() as u64, session.policy_epoch()))
        .or_insert(0) += 1;

    for op in &script.ops {
        match op {
            ReplayOp::Write { caller, name } => {
                session.authorize_write(caller, name);
                counters.write_ops += 1;
                counters.decisions += 1;
            }
            ReplayOp::Delete { caller, name } => {
                session.authorize_delete(caller, name);
                counters.delete_ops += 1;
                counters.decisions += 1;
            }
            ReplayOp::HeaderSet { name, domain } => {
                session.record_http_set_cookie(name, domain);
                counters.header_sets += 1;
            }
            ReplayOp::Read { caller, names } => {
                let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                session.filter_names(caller, &refs);
                counters.read_ops += 1;
                counters.decisions += 1;
                counters.cookies_presented += refs.len() as u64;
            }
        }
    }

    state.stats = state.stats.merge(&session.stats());
    drop(session);
    counters.sessions_closed += 1;
    counters.visits += 1;
    sessions_live.decr();
    live.decr();
}

/// Shared run coordination: global progress and the abort flag.
struct RunShared {
    visits_done: AtomicU64,
    workers_done: AtomicBool,
    /// Set by [`RunShared::fail`]; polled lock-free on every claim.
    /// `Relaxed`: the error itself travels through `error`'s lock.
    failed: AtomicBool,
    /// The first store error, surfaced after the workers join.
    error: Mutex<Option<StoreError>>,
    start: Instant,
}

impl RunShared {
    fn fail(&self, e: StoreError) {
        let mut slot = self.error.lock().expect("error slot poisoned");
        if slot.is_none() {
            *slot = Some(e);
        }
        self.failed.store(true, Ordering::Relaxed);
    }
}

/// The swap coordinator: fires each [`SwapPoint`] once the global visit
/// counter crosses its threshold. Runs on its own thread so swaps land
/// *during* replay, racing the workers the way a real control plane
/// would.
fn run_swaps(service: &GuardService, shared: &RunShared, points: &[SwapPoint]) -> Vec<SwapReport> {
    let mut ordered: Vec<&SwapPoint> = points.iter().collect();
    ordered.sort_by_key(|p| p.after_visits);
    let mut fired = Vec::with_capacity(ordered.len());
    for point in ordered {
        loop {
            if shared.visits_done.load(Ordering::Acquire) >= point.after_visits {
                fired.push(service.swap_policy(point.tenant, point.config.clone()));
                break;
            }
            if shared.workers_done.load(Ordering::Acquire) {
                return fired; // workload ended before this threshold
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }
    fired
}

/// Decodes chunk `i` of `plan` through an mmap'd window, lowering each
/// visit into a script as it comes off the frame decoder.
fn decode_chunk(
    plan: &ChunkPlan,
    i: usize,
    mut each: impl FnMut(VisitScript),
) -> Result<(), StoreError> {
    let mut chunk = plan.open_chunk(i, ReadBackend::Mmap)?;
    while let Some(log) = chunk.next_log()? {
        each(extract_script(&log));
    }
    Ok(())
}

/// Replays `dir` through `service` per `opts`. See the module docs for
/// the determinism contract; on a clean run the returned report has
/// `counters.drained()` true and `undrained_epochs == 0`.
pub fn replay(
    service: &GuardService,
    dir: &Path,
    opts: &ReplayOptions,
) -> Result<ReplayReport, StoreError> {
    let workers = opts.workers.max(1);
    let shared = RunShared {
        visits_done: AtomicU64::new(0),
        workers_done: AtomicBool::new(false),
        failed: AtomicBool::new(false),
        error: Mutex::new(None),
        start: Instant::now(),
    };

    let plan = plan_chunks(dir)?;
    let resident = match opts.source {
        ReplaySource::Resident => Some(
            (0..plan.len())
                .map(|i| {
                    let mut scripts = Vec::new();
                    decode_chunk(&plan, i, |script| scripts.push(script)).map(|()| scripts)
                })
                .collect::<Result<Vec<_>, _>>()?,
        ),
        ReplaySource::Stream => None,
    };
    let (merged, swaps) = run_pool(service, &plan, resident.as_deref(), opts, workers, &shared);
    if let Some(e) = shared.error.lock().expect("error slot poisoned").take() {
        // Surface the flight recorder before bailing: the last spans
        // show what each worker was doing when the store failed.
        cg_telemetry::recorder::dump_to_stderr("replay aborted on store error", 32);
        return Err(e);
    }

    let wall = shared.start.elapsed();
    let counters = merged
        .per_tenant
        .iter()
        .fold(ServiceCounters::default(), |a, c| a.merge(c));
    // The Workload telemetry counters are the run's totals, added once.
    let tele = crate::telemetry::metrics();
    tele.visits.add(counters.visits);
    tele.sessions_opened.add(counters.sessions_opened);
    tele.decisions.add(counters.decisions);
    let undrained = service.undrained();

    let wall_ms = wall.as_millis() as u64;
    let secs = wall.as_secs_f64().max(1e-9);
    Ok(ReplayReport {
        workers: workers as u64,
        passes: opts.passes as u64,
        source: match opts.source {
            ReplaySource::Resident => "resident".to_string(),
            ReplaySource::Stream => "stream".to_string(),
        },
        counters,
        per_tenant: service
            .tenants()
            .zip(&merged.per_tenant)
            .map(|((id, t), c)| TenantCounters {
                tenant: id.index() as u64,
                name: t.name().to_string(),
                visits: c.visits,
                sessions: c.sessions_opened,
                decisions: c.decisions,
            })
            .collect(),
        outcomes: ReplayOutcomes {
            writes_allowed: merged.stats.writes_allowed,
            writes_blocked: merged.stats.writes_blocked,
            deletes_blocked: merged.stats.deletes_blocked,
            cookies_filtered: merged.stats.cookies_filtered,
            reads_clean: merged.stats.reads_clean,
            reads_filtered: merged.stats.reads_filtered,
            sessions_by_epoch: merged
                .epoch_sessions
                .into_iter()
                .map(|((tenant, epoch), sessions)| EpochSessions {
                    tenant,
                    epoch,
                    sessions,
                })
                .collect(),
        },
        timing: ReplayTiming {
            wall_ms,
            decisions_per_sec: counters.decisions as f64 / secs,
            visits_per_sec: counters.visits as f64 / secs,
        },
        swaps,
        undrained_epochs: undrained.len() as u64,
    })
}

/// The worker pool: `workers` scoped threads claim chunk indices of
/// `plan` and replay each claimed chunk — from `resident`'s scripts if
/// given, else decoded on claim — next to the swap coordinator. One
/// claim cursor per pass and no reset step, hence no barrier: a fast
/// worker rolls into the next pass while stragglers finish the current
/// one. Totals are unaffected; every chunk is claimed once per pass.
fn run_pool(
    service: &GuardService,
    plan: &ChunkPlan,
    resident: Option<&[Vec<VisitScript>]>,
    opts: &ReplayOptions,
    workers: usize,
    shared: &RunShared,
) -> (WorkerState, Vec<SwapReport>) {
    let cursors: Vec<AtomicUsize> = (0..opts.passes).map(|_| AtomicUsize::new(0)).collect();
    std::thread::scope(|scope| {
        let swapper = scope.spawn(|| run_swaps(service, shared, &opts.swaps));
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = WorkerState::new(service);
                    let mut visit = |script: &VisitScript| {
                        replay_visit(service, script, &mut state);
                        shared.visits_done.fetch_add(1, Ordering::Release);
                    };
                    for cursor in &cursors {
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= plan.len() || shared.failed.load(Ordering::Relaxed) {
                                break;
                            }
                            let done = match resident {
                                Some(chunks) => {
                                    chunks[i].iter().for_each(&mut visit);
                                    Ok(())
                                }
                                None => decode_chunk(plan, i, |script| visit(&script)),
                            };
                            if let Err(e) = done {
                                shared.fail(e);
                                break;
                            }
                        }
                    }
                    state
                })
            })
            .collect();
        let merged = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .reduce(WorkerState::merge)
            .expect("at least one worker");
        shared.workers_done.store(true, Ordering::Release);
        (merged, swapper.join().unwrap())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_instrument::ReadEvent;

    fn set(name: &str, actor: Option<&str>, api: CookieApi, kind: WriteKind, t: u64) -> SetEvent {
        SetEvent {
            name: name.to_string(),
            value: "v".to_string(),
            actor: actor.map(str::to_string),
            actor_url: None,
            api,
            kind,
            max_age_s: None,
            changes: None,
            blocked: false,
            time_ms: t,
        }
    }

    fn read(actor: Option<&str>, names: &[&str], t: u64) -> ReadEvent {
        ReadEvent {
            actor: actor.map(str::to_string),
            api: CookieApi::DocumentCookie,
            cookies: names
                .iter()
                .map(|n| (n.to_string(), "v".to_string()))
                .collect(),
            filtered_count: 0,
            time_ms: t,
        }
    }

    #[test]
    fn extraction_merges_by_time_and_classifies_ops() {
        let log = VisitLog {
            site_domain: "site.com".to_string(),
            rank: 7,
            complete: true,
            sets: vec![
                set(
                    "a",
                    Some("tracker.com"),
                    CookieApi::DocumentCookie,
                    WriteKind::Create,
                    10,
                ),
                set("h", None, CookieApi::HttpHeader, WriteKind::Create, 20),
                set(
                    "a",
                    Some("tracker.com"),
                    CookieApi::CookieStore,
                    WriteKind::Delete,
                    40,
                ),
            ],
            reads: vec![read(Some("cdn.io"), &["a", "h"], 30)],
            requests: vec![],
            probes: vec![],
            dom_events: vec![],
            inclusions: vec![],
        };
        let script = extract_script(&log);
        assert_eq!(script.site, "site.com");
        assert_eq!(script.rank, 7);
        assert_eq!(script.ops.len(), 4);
        assert!(matches!(&script.ops[0], ReplayOp::Write { name, .. } if name == "a"));
        // Header set with no actor attributes to the site itself.
        assert!(
            matches!(&script.ops[1], ReplayOp::HeaderSet { name, domain } if name == "h" && domain == "site.com")
        );
        assert!(matches!(&script.ops[2], ReplayOp::Read { names, .. } if names.len() == 2));
        assert!(matches!(&script.ops[3], ReplayOp::Delete { name, .. } if name == "a"));
    }

    #[test]
    fn sets_win_time_ties_and_inline_actors_map_to_inline_callers() {
        let log = VisitLog {
            site_domain: "site.com".to_string(),
            rank: 0,
            complete: true,
            sets: vec![set(
                "x",
                None,
                CookieApi::DocumentCookie,
                WriteKind::Create,
                5,
            )],
            reads: vec![read(None, &["x"], 5)],
            requests: vec![],
            probes: vec![],
            dom_events: vec![],
            inclusions: vec![],
        };
        let script = extract_script(&log);
        assert!(matches!(
            &script.ops[0],
            ReplayOp::Write { caller, .. } if caller.domain_name().is_none()
        ));
        assert!(matches!(&script.ops[1], ReplayOp::Read { .. }));
    }

    #[test]
    fn replay_visit_counts_every_op_and_closes_the_session() {
        let mut svc = GuardService::new();
        svc.register("only", GuardConfig::strict());
        let script = VisitScript {
            site: "site.com".to_string(),
            rank: 3,
            ops: vec![
                ReplayOp::Write {
                    caller: Caller::external("tracker.com"),
                    name: "t".to_string(),
                },
                ReplayOp::HeaderSet {
                    name: "sid".to_string(),
                    domain: "site.com".to_string(),
                },
                ReplayOp::Read {
                    caller: Caller::external("site.com"),
                    names: vec!["t".to_string(), "sid".to_string()],
                },
                ReplayOp::Delete {
                    caller: Caller::external("other.net"),
                    name: "t".to_string(),
                },
            ],
        };
        let mut state = WorkerState::new(&svc);
        replay_visit(&svc, &script, &mut state);
        assert_eq!(state.per_tenant.len(), 1);
        let c = state.per_tenant[0];
        assert_eq!((c.visits, c.sessions_opened, c.sessions_closed), (1, 1, 1));
        assert_eq!(
            (c.write_ops, c.delete_ops, c.read_ops, c.header_sets),
            (1, 1, 1, 1)
        );
        assert_eq!(c.cookies_presented, 2);
        assert_eq!(c.decisions, 3);
        assert!(c.drained());
        // Site owner saw both cookies; the foreign delete was blocked.
        assert_eq!(state.stats.deletes_blocked, 1);
        assert_eq!(state.epoch_sessions.get(&(0, 0)), Some(&1));
    }
}
