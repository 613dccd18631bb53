//! The cookie access layer: [`GuardedJar`], the **single enforcement
//! point** every first-party cookie operation runs through.
//!
//! CookieGuard's contract (§6) is that *every* access — script read,
//! script write/delete, HTTP `Set-Cookie`, CookieStore call — passes the
//! same per-script-origin policy check. Before this module existed, the
//! browser hand-interleaved three concerns at every interception point:
//! the [`GuardSession`] check, the [`CookieJar`] mutation, and the
//! instrument event — a dance each new workload re-implemented and
//! could silently get wrong. `GuardedJar` owns that dance:
//!
//! ```text
//!   caller (Page, service worker, future workloads)
//!        │  read / get / set / delete / apply_set_cookie_headers
//!        ▼
//!   GuardedJar ── 1. policy   (GuardSession, optional)
//!              ── 2. storage  (CookieJar, shard-pinned)
//!              ── 3. event    (EventSink)
//! ```
//!
//! Callers never consult the guard, mutate the jar, or synthesize
//! `SetEvent`/`ReadEvent`s by hand; they receive an [`Outcome`] that
//! says what was decided, what changed, and what was logged. Running
//! guard-less (a vanilla measurement crawl) is the same API with
//! `guard = None`.
//!
//! The jar's host → shard resolution is pinned once per `GuardedJar`
//! (the document URL is fixed for its lifetime), and [`GuardedJar::run_batch`]
//! additionally reuses one [`AccessContext`] and a cached post-filter
//! view across a burst of operations — the hot crawl path.

use crate::guard::GuardSession;
use crate::policy::{AccessDecision, Caller};
use cg_cookiejar::{Cookie, CookieChange, CookieJar, SetCookieError, ShardPin};
use cg_http::parse_set_cookie;
use cg_instrument::{AttrChangeFlags, CookieApi, EventSink, ReadEvent, SetEvent, WriteKind};
use cg_url::{DomainId, Url};
use std::sync::Arc;

/// The identity and timing of one mediated cookie operation.
///
/// Carries *two* identities because policy and measurement can
/// legitimately disagree: `caller` is the policy identity (possibly
/// CNAME-uncloaked or signature-attributed), while `actor` is the
/// identity the instrumentation may observe (the raw stack-trace
/// eTLD+1). A batch of operations from one script shares one context.
///
/// Both identities are interned ids, resolved once per script at
/// attribution time, so building and cloning a context per operation is
/// allocation-free (`Caller` and `DomainId` are `Copy`; the script URL
/// is a shared `Arc<str>`). Event emission resolves ids back to names —
/// the instrument wire format never changes.
#[derive(Debug, Clone)]
pub struct AccessContext {
    /// Policy identity: who the guard judges.
    pub caller: Caller,
    /// Measured identity: the interned eTLD+1 recorded on events
    /// (None = inline). Resolved to its name at event-emission time.
    pub actor: Option<DomainId>,
    /// Full script URL recorded on write events, when attributable;
    /// shared, not cloned, across the ops of one script.
    pub actor_url: Option<Arc<str>>,
    /// Absolute wall-clock time (unix ms) for jar expiry/storage.
    pub now_ms: i64,
    /// Visit-relative time recorded on events.
    pub time_ms: u64,
}

impl AccessContext {
    /// The actor's domain name (normalized form), when attributed.
    fn actor_name(&self) -> Option<String> {
        self.actor.map(|id| cg_url::name(id).to_string())
    }
}

/// The post-guard view of the jar one read produced.
#[derive(Debug, Clone)]
pub struct CookieView {
    /// The cookies the caller may see, in serialization order.
    pub cookies: Vec<Cookie>,
    /// How many additional cookies the guard withheld.
    pub filtered: usize,
}

impl CookieView {
    /// The `document.cookie` string form: `"a=1; b=2"`.
    pub fn serialize(&self) -> String {
        self.cookies
            .iter()
            .map(Cookie::pair)
            .collect::<Vec<_>>()
            .join("; ")
    }

    /// The `(name, value)` pairs (the CookieStore `getAll` shape).
    pub fn pairs(&self) -> Vec<(String, String)> {
        self.cookies
            .iter()
            .map(|c| (c.name.clone(), c.value.clone()))
            .collect()
    }
}

/// One write-path request: what the script asked for, before policy.
#[derive(Debug, Clone, Copy)]
pub enum SetRequest<'r> {
    /// `document.cookie = raw` — the legacy string interface, with its
    /// expiry-in-the-past deletion idiom and attribute-change taxonomy.
    DocumentCookie {
        /// The raw cookie string as the script wrote it.
        raw: &'r str,
    },
    /// `cookieStore.set(name, value, expires)` — the structured API
    /// (spec defaults: `Path=/`, host-only domain).
    CookieStore {
        /// Cookie name.
        name: &'r str,
        /// Cookie value.
        value: &'r str,
        /// Absolute expiry (unix ms), None = session cookie.
        expires_abs_ms: Option<i64>,
    },
}

/// The structured result of one mediated mutation: what the policy
/// decided, what the jar did, and what the instrumentation saw.
///
/// `Outcome` exists so callers never reconstruct any of the three by
/// hand — the access layer is the only place that knows, e.g., that a
/// blocked write still emits a `blocked: true` [`SetEvent`], or that a
/// `document.cookie` delete of an absent cookie logs a delete event but
/// reports `applied: false`.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The guard's ruling; `None` when no guard is attached or the
    /// operation never reached policy (e.g. an unparseable write).
    pub decision: Option<AccessDecision>,
    /// How the operation was classified (create / overwrite / delete).
    pub kind: WriteKind,
    /// Whether the jar was actually mutated (for deletes: whether a
    /// visible cookie was removed).
    pub applied: bool,
    /// The jar's storage-level rejection, if any (validation, prefix
    /// contracts, HttpOnly protection).
    pub error: Option<SetCookieError>,
    /// The change-log record of the mutation itself, if any. Knock-on
    /// records the same operation triggered (a per-domain-cap eviction
    /// after a create) follow it in the jar's change log.
    pub change: Option<CookieChange>,
    /// The instrument event that was emitted to the sink, if any — a
    /// faithful copy, so callers can inspect what was logged without
    /// owning the sink.
    pub event: Option<SetEvent>,
}

impl Outcome {
    /// True when the guard blocked the operation.
    pub fn blocked(&self) -> bool {
        matches!(&self.decision, Some(d) if !d.is_allow())
    }

    fn unparseable() -> Outcome {
        Outcome {
            decision: None,
            kind: WriteKind::Create,
            applied: false,
            error: Some(SetCookieError::Unparseable),
            change: None,
            event: None,
        }
    }
}

/// One operation of a batch (see [`GuardedJar::run_batch`]).
#[derive(Debug, Clone, Copy)]
pub enum BatchOp<'r> {
    /// A full read (`document.cookie` getter / `getAll`).
    Read {
        /// Which API surface the read uses (recorded on the event).
        api: CookieApi,
    },
    /// A single-name read (`cookieStore.get`).
    Get {
        /// The requested cookie name.
        name: &'r str,
    },
    /// A write (either API).
    Set(SetRequest<'r>),
    /// A `cookieStore.delete`.
    Delete {
        /// The targeted cookie name.
        name: &'r str,
    },
}

/// The result of one [`BatchOp`], in op order.
#[derive(Debug, Clone)]
pub enum BatchResult {
    /// Result of [`BatchOp::Read`].
    Read(CookieView),
    /// Result of [`BatchOp::Get`].
    Get(Option<String>),
    /// Result of [`BatchOp::Set`] / [`BatchOp::Delete`].
    Mutation(Outcome),
}

/// The guarded cookie jar: the only sanctioned way to touch cookies.
///
/// Borrows the visit's jar, (optionally) its guard session, and an
/// event sink for the lifetime of one document; see the module docs for
/// the contract.
pub struct GuardedJar<'v> {
    jar: &'v mut CookieJar,
    guard: Option<&'v mut GuardSession>,
    sink: &'v mut dyn EventSink,
    url: Url,
    pin: ShardPin,
}

impl<'v> GuardedJar<'v> {
    /// Binds the access layer to `url`'s document. Resolves the host's
    /// jar shard once; every operation reuses it.
    pub fn new(
        url: Url,
        jar: &'v mut CookieJar,
        guard: Option<&'v mut GuardSession>,
        sink: &'v mut dyn EventSink,
    ) -> GuardedJar<'v> {
        let pin = ShardPin::for_host(&url.host_str());
        GuardedJar {
            jar,
            guard,
            sink,
            url,
            pin,
        }
    }

    /// The bound document URL.
    pub fn url(&self) -> &Url {
        &self.url
    }

    /// Whether a guard session is attached (false = vanilla crawl).
    pub fn is_guarded(&self) -> bool {
        self.guard.is_some()
    }

    /// The event sink, for non-cookie events (requests, DOM, probes,
    /// inclusions) that share the same instrumentation stream.
    pub fn sink(&mut self) -> &mut dyn EventSink {
        self.sink
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// A full post-guard read of the document's cookies, logged as one
    /// read event on `api`.
    pub fn read(&mut self, ctx: &AccessContext, api: CookieApi) -> CookieView {
        let (cookies, filtered) = self.visible(ctx);
        self.finish_read(ctx, api, cookies, filtered)
    }

    /// `cookieStore.get(name)`: the value, if present and visible.
    /// Logged as a CookieStore read of at most one pair.
    pub fn get(&mut self, ctx: &AccessContext, name: &str) -> Option<String> {
        let (visible, filtered) = self.visible(ctx);
        self.finish_get(ctx, name, &visible, filtered)
    }

    /// Emits the read event for a post-filter view and wraps it up —
    /// the one place the full-read event is constructed (per-op and
    /// batch paths both end here).
    fn finish_read(
        &mut self,
        ctx: &AccessContext,
        api: CookieApi,
        cookies: Vec<Cookie>,
        filtered: usize,
    ) -> CookieView {
        self.sink.cookie_read(ReadEvent {
            actor: ctx.actor_name(),
            api,
            names: cookies.iter().map(|c| Arc::from(c.name.as_str())).collect(),
            filtered_count: filtered,
            time_ms: ctx.time_ms,
        });
        CookieView { cookies, filtered }
    }

    /// Single-name counterpart of [`GuardedJar::finish_read`]: logs at
    /// most one name and at most one withheld cookie.
    fn finish_get(
        &mut self,
        ctx: &AccessContext,
        name: &str,
        visible: &[Cookie],
        filtered: usize,
    ) -> Option<String> {
        let found = visible
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value.clone());
        self.sink.cookie_read(ReadEvent {
            actor: ctx.actor_name(),
            api: CookieApi::CookieStore,
            names: found.iter().map(|_| Arc::from(name)).collect(),
            filtered_count: filtered.min(1),
            time_ms: ctx.time_ms,
        });
        found
    }

    /// Non-mutating visibility check (CookieStore `change`-event
    /// filtering): may `caller` observe cookie `name`? Guard-less jars
    /// answer yes.
    pub fn may_observe(&self, caller: &Caller, name: &str) -> bool {
        match self.guard.as_deref() {
            Some(g) => g.may_observe(caller, name),
            None => true,
        }
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// A script write through either API: classifies it (create /
    /// overwrite / delete-by-expiry), consults the guard, applies it to
    /// the jar, and emits the write event.
    pub fn set(&mut self, ctx: &AccessContext, req: SetRequest<'_>) -> Outcome {
        match req {
            SetRequest::DocumentCookie { raw } => self.set_document_cookie(ctx, raw),
            SetRequest::CookieStore {
                name,
                value,
                expires_abs_ms,
            } => self.set_cookie_store(ctx, name, value, expires_abs_ms),
        }
    }

    fn set_document_cookie(&mut self, ctx: &AccessContext, raw: &str) -> Outcome {
        let Some(sc) = parse_set_cookie(raw) else {
            return Outcome::unparseable();
        };
        let now = ctx.now_ms;

        // Classify the write like the measurement does: a write whose
        // expiry is already in the past is a deletion; a write to an
        // existing name is an overwrite.
        let prior = self
            .jar
            .cookies_for_document_pinned(&self.pin, &self.url, now)
            .into_iter()
            .find(|c| c.name == sc.name);
        let expires_abs = match (sc.max_age_s, sc.expires_ms) {
            (Some(ma), _) => Some(now + ma * 1000),
            (None, Some(e)) => Some(e),
            (None, None) => None,
        };
        let is_delete = matches!(expires_abs, Some(e) if e <= now);
        // The lifetime the write *requested*, relative seconds — what
        // the detection pipeline reads as persistence.
        let max_age_s = expires_abs.map(|e| (e - now) / 1000);
        let kind = if is_delete {
            WriteKind::Delete
        } else if prior.is_some() {
            WriteKind::Overwrite
        } else {
            WriteKind::Create
        };

        // Policy.
        let mut decision = None;
        if let Some(g) = self.guard.as_deref_mut() {
            let d = if is_delete {
                g.authorize_delete(&ctx.caller, &sc.name)
            } else {
                g.authorize_write(&ctx.caller, &sc.name)
            };
            if !d.is_allow() {
                let event = self.emit_set(
                    ctx,
                    &sc.name,
                    &sc.value,
                    CookieApi::DocumentCookie,
                    kind,
                    max_age_s,
                    None,
                    true,
                );
                return Outcome {
                    decision: Some(d),
                    kind,
                    applied: false,
                    error: None,
                    change: None,
                    event: Some(event),
                };
            }
            decision = Some(d);
        }

        // Attribute-change taxonomy (§5.5), overwrites only.
        let changes = prior
            .as_ref()
            .filter(|_| kind == WriteKind::Overwrite)
            .map(|p| AttrChangeFlags {
                value: p.value != sc.value,
                expires: p.expires_ms != expires_abs,
                domain: sc.domain.as_deref().is_some_and(|d| d != p.domain) && !p.host_only
                    || (p.host_only && sc.domain.is_some()),
                path: sc.path.as_deref().is_some_and(|pt| pt != p.path),
            });

        // Storage.
        let change_mark = self.jar.change_count();
        let (applied, error) = if is_delete {
            (
                self.jar.delete_pinned(&self.pin, &sc.name, &self.url, now),
                None,
            )
        } else {
            match self
                .jar
                .set_parsed_document_cookie_pinned(&self.pin, &sc, &self.url, now)
            {
                Ok(_) => (true, None),
                Err(e) => (false, Some(e)),
            }
        };

        // Event: deletions are logged even when nothing matched (the
        // script's intent is observable either way).
        let event = (applied || is_delete).then(|| {
            self.emit_set(
                ctx,
                &sc.name,
                &sc.value,
                CookieApi::DocumentCookie,
                kind,
                max_age_s,
                changes,
                false,
            )
        });

        Outcome {
            decision,
            kind,
            applied,
            error,
            change: self.jar.changes_since(change_mark).first().cloned(),
            event,
        }
    }

    fn set_cookie_store(
        &mut self,
        ctx: &AccessContext,
        name: &str,
        value: &str,
        expires_abs_ms: Option<i64>,
    ) -> Outcome {
        let now = ctx.now_ms;
        let prior_exists = self
            .jar
            .cookies_for_document_pinned(&self.pin, &self.url, now)
            .iter()
            .any(|c| c.name == name);
        let kind = if prior_exists {
            WriteKind::Overwrite
        } else {
            WriteKind::Create
        };
        let max_age_s = expires_abs_ms.map(|e| (e - now) / 1000);

        let mut decision = None;
        if let Some(g) = self.guard.as_deref_mut() {
            let d = g.authorize_write(&ctx.caller, name);
            if !d.is_allow() {
                let event = self.emit_set(
                    ctx,
                    name,
                    value,
                    CookieApi::CookieStore,
                    kind,
                    max_age_s,
                    None,
                    true,
                );
                return Outcome {
                    decision: Some(d),
                    kind,
                    applied: false,
                    error: None,
                    change: None,
                    event: Some(event),
                };
            }
            decision = Some(d);
        }

        // CookieStore defaults Path=/ (spec), domain host-only.
        let mut raw = format!("{name}={value}; Path=/");
        if let Some(e) = expires_abs_ms {
            raw.push_str(&format!("; Expires=@{e}"));
        }
        let change_mark = self.jar.change_count();
        let (applied, error) = match self
            .jar
            .set_document_cookie_pinned(&self.pin, &raw, &self.url, now)
        {
            Ok(_) => (true, None),
            Err(e) => (false, Some(e)),
        };
        let event = applied.then(|| {
            self.emit_set(
                ctx,
                name,
                value,
                CookieApi::CookieStore,
                kind,
                max_age_s,
                None,
                false,
            )
        });
        Outcome {
            decision,
            kind,
            applied,
            error,
            change: self.jar.changes_since(change_mark).first().cloned(),
            event,
        }
    }

    /// `cookieStore.delete(name)`: consults the guard, expires the
    /// cookie, and logs the delete.
    pub fn delete(&mut self, ctx: &AccessContext, name: &str) -> Outcome {
        let mut decision = None;
        if let Some(g) = self.guard.as_deref_mut() {
            let d = g.authorize_delete(&ctx.caller, name);
            if !d.is_allow() {
                let event = self.emit_set(
                    ctx,
                    name,
                    "",
                    CookieApi::CookieStore,
                    WriteKind::Delete,
                    None,
                    None,
                    true,
                );
                return Outcome {
                    decision: Some(d),
                    kind: WriteKind::Delete,
                    applied: false,
                    error: None,
                    change: None,
                    event: Some(event),
                };
            }
            decision = Some(d);
        }
        let change_mark = self.jar.change_count();
        let applied = self
            .jar
            .delete_pinned(&self.pin, name, &self.url, ctx.now_ms);
        let event = applied.then(|| {
            self.emit_set(
                ctx,
                name,
                "",
                CookieApi::CookieStore,
                WriteKind::Delete,
                None,
                None,
                false,
            )
        });
        Outcome {
            decision,
            kind: WriteKind::Delete,
            applied,
            error: None,
            change: self.jar.changes_since(change_mark).first().cloned(),
            event,
        }
    }

    /// Applies a response's `Set-Cookie` headers (the
    /// `webRequest.onHeadersReceived` path). `response_domain` is the
    /// responding server's eTLD+1 — it becomes the cookies' recorded
    /// creator and the event actor. HttpOnly cookies store and are
    /// attributed, but emit no event: the measurement extension cannot
    /// see them (§4.1).
    pub fn apply_set_cookie_headers(
        &mut self,
        response_domain: &str,
        raw_headers: &[String],
        now_ms: i64,
    ) -> Vec<Outcome> {
        raw_headers
            .iter()
            .map(|raw| {
                let Some(sc) = parse_set_cookie(raw) else {
                    return Outcome::unparseable();
                };
                let change_mark = self.jar.change_count();
                let result = self
                    .jar
                    .set_from_header_pinned(&self.pin, &sc, &self.url, now_ms);
                let applied = result.is_ok();
                let mut event = None;
                if applied {
                    if let Some(g) = self.guard.as_deref_mut() {
                        g.record_http_set_cookie(&sc.name, response_domain);
                    }
                    // The extension only sees non-HttpOnly values (§4.1).
                    if !sc.http_only {
                        let ev = SetEvent {
                            name: sc.name.clone(),
                            value: sc.value.clone(),
                            actor: Some(response_domain.to_string()),
                            actor_url: None,
                            api: CookieApi::HttpHeader,
                            kind: WriteKind::Create,
                            max_age_s: match (sc.max_age_s, sc.expires_ms) {
                                (Some(ma), _) => Some(ma),
                                (None, Some(e)) => Some((e - now_ms) / 1000),
                                (None, None) => None,
                            },
                            changes: None,
                            blocked: false,
                            time_ms: 0,
                        };
                        self.sink.cookie_set(ev.clone());
                        event = Some(ev);
                    }
                }
                Outcome {
                    decision: None,
                    kind: WriteKind::Create,
                    applied,
                    error: result.err(),
                    change: self.jar.changes_since(change_mark).first().cloned(),
                    event,
                }
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Batch
    // ------------------------------------------------------------------

    /// Runs a burst of operations under one [`AccessContext`]: the
    /// caller identity is derived once, the shard stays pinned, and
    /// consecutive reads share one post-filter view (invalidated by any
    /// write). Events, guard stats, and results are identical to
    /// issuing the ops one by one.
    pub fn run_batch(&mut self, ctx: &AccessContext, ops: &[BatchOp<'_>]) -> Vec<BatchResult> {
        let mut cache: Option<(Vec<Cookie>, usize)> = None;
        ops.iter()
            .map(|op| match op {
                BatchOp::Read { api } => {
                    let (cookies, filtered) = self.visible_cached(ctx, &mut cache);
                    let owned = cookies.to_vec();
                    BatchResult::Read(self.finish_read(ctx, *api, owned, filtered))
                }
                BatchOp::Get { name } => {
                    let (visible, filtered) = self.visible_cached(ctx, &mut cache);
                    BatchResult::Get(self.finish_get(ctx, name, visible, filtered))
                }
                BatchOp::Set(req) => {
                    cache = None;
                    BatchResult::Mutation(self.set(ctx, *req))
                }
                BatchOp::Delete { name } => {
                    cache = None;
                    BatchResult::Mutation(self.delete(ctx, name))
                }
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Non-mediated passthroughs
    // ------------------------------------------------------------------

    /// The `Cookie:` header for a subresource request — the network
    /// channel. CookieGuard mediates *script* access; the browser still
    /// attaches every matching cookie (HttpOnly included, SameSite
    /// permitting) to requests, which is exactly the server-side
    /// collection channel §5.7 measures. Read-only on the jar.
    pub fn cookie_header_for_subresource(
        &self,
        dest: &Url,
        top_level_site: &str,
        now_ms: i64,
    ) -> String {
        self.jar
            .cookie_header_for_subresource(dest, top_level_site, now_ms)
    }

    /// Jar change-log cursor (CookieStore `change` events). Read-only.
    pub fn change_count(&self) -> usize {
        self.jar.change_count()
    }

    /// Jar change records since `cursor`. Read-only.
    pub fn changes_since(&self, cursor: usize) -> &[CookieChange] {
        self.jar.changes_since(cursor)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// The post-guard visible cookie list and the withheld count.
    fn visible(&mut self, ctx: &AccessContext) -> (Vec<Cookie>, usize) {
        let cookies = self
            .jar
            .cookies_for_document_pinned(&self.pin, &self.url, ctx.now_ms);
        match self.guard.as_deref_mut() {
            Some(g) => {
                let before = cookies.len();
                let visible = g.filter_read(&ctx.caller, cookies);
                let filtered = before - visible.len();
                (visible, filtered)
            }
            None => (cookies, 0),
        }
    }

    /// Batch-path `visible`: serves repeats from the cache (borrowed,
    /// not cloned), replaying the guard's per-read stats bump so
    /// counters match per-op access.
    fn visible_cached<'c>(
        &mut self,
        ctx: &AccessContext,
        cache: &'c mut Option<(Vec<Cookie>, usize)>,
    ) -> (&'c [Cookie], usize) {
        match cache {
            Some((_, filtered)) => {
                if let Some(g) = self.guard.as_deref_mut() {
                    g.note_cached_read(*filtered);
                }
            }
            None => *cache = Some(self.visible(ctx)),
        }
        let (cookies, filtered) = cache.as_ref().expect("cache just filled");
        (cookies.as_slice(), *filtered)
    }

    /// Builds, emits, and returns one write event.
    #[allow(clippy::too_many_arguments)]
    fn emit_set(
        &mut self,
        ctx: &AccessContext,
        name: &str,
        value: &str,
        api: CookieApi,
        kind: WriteKind,
        max_age_s: Option<i64>,
        changes: Option<AttrChangeFlags>,
        blocked: bool,
    ) -> SetEvent {
        let event = SetEvent {
            name: name.to_string(),
            value: value.to_string(),
            actor: ctx.actor_name(),
            actor_url: ctx.actor_url.as_deref().map(str::to_string),
            api,
            kind,
            max_age_s,
            changes,
            blocked,
            time_ms: ctx.time_ms,
        };
        self.sink.cookie_set(event.clone());
        event
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GuardConfig;
    use crate::engine::GuardEngine;
    use cg_instrument::Recorder;

    fn ctx_for(domain: Option<&str>, now_ms: i64, time_ms: u64) -> AccessContext {
        AccessContext {
            caller: match domain {
                Some(d) => Caller::external(d),
                None => Caller::inline(),
            },
            actor: domain.map(cg_url::intern),
            actor_url: domain.map(|d| Arc::from(format!("https://{d}/s.js").as_str())),
            now_ms,
            time_ms,
        }
    }

    fn url() -> Url {
        Url::parse("https://www.shop.example/").unwrap()
    }

    fn session() -> GuardSession {
        GuardEngine::shared(GuardConfig::strict()).session("shop.example")
    }

    #[test]
    fn set_read_delete_round_trip_with_events() {
        let mut jar = CookieJar::new();
        let mut guard = session();
        let mut rec = Recorder::new("shop.example", 1);
        let mut access = GuardedJar::new(url(), &mut jar, Some(&mut guard), &mut rec);

        let t = ctx_for(Some("tracker.io"), 1_000, 10);
        let out = access.set(&t, SetRequest::DocumentCookie { raw: "_tid=abc" });
        assert!(out.applied && !out.blocked());
        assert_eq!(out.kind, WriteKind::Create);
        assert!(out.decision.unwrap().is_allow());
        assert_eq!(out.event.as_ref().unwrap().name, "_tid");
        assert_eq!(
            out.change.unwrap().cause,
            cg_cookiejar::ChangeCause::Created
        );

        // The creator reads its cookie back; a stranger sees nothing.
        let view = access.read(&t, CookieApi::DocumentCookie);
        assert_eq!(view.serialize(), "_tid=abc");
        let s = ctx_for(Some("other.net"), 2_000, 20);
        let view = access.read(&s, CookieApi::DocumentCookie);
        assert!(view.cookies.is_empty());
        assert_eq!(view.filtered, 1);

        // The stranger cannot delete it; the creator can.
        assert!(access.delete(&s, "_tid").blocked());
        let del = access.delete(&t, "_tid");
        assert!(del.applied && !del.blocked());
        assert_eq!(del.kind, WriteKind::Delete);

        let log = rec.finish();
        assert_eq!(log.sets.len(), 3); // create + blocked delete + delete
        assert_eq!(log.reads.len(), 2);
        assert!(log.sets[1].blocked);
        assert_eq!(guard.stats().deletes_blocked, 1);
    }

    #[test]
    fn outcome_change_is_the_mutation_even_under_eviction() {
        // Fill the domain to its 180-cookie cap; the next create also
        // evicts the oldest cookie. The Outcome must report the Created
        // record for the written cookie, not the knock-on Evicted one.
        let mut jar = CookieJar::new();
        let mut rec = Recorder::new("shop.example", 1);
        let mut access = GuardedJar::new(url(), &mut jar, None, &mut rec);
        let c = ctx_for(Some("shop.example"), 1_000, 1);
        for i in 0..180 {
            let raw = format!("c{i}=v");
            assert!(
                access
                    .set(&c, SetRequest::DocumentCookie { raw: &raw })
                    .applied
            );
        }
        let out = access.set(&c, SetRequest::DocumentCookie { raw: "straw=1" });
        assert!(out.applied);
        let change = out.change.unwrap();
        assert_eq!(change.name, "straw");
        assert_eq!(change.cause, cg_cookiejar::ChangeCause::Created);
        // The eviction is still on the jar's log, right after.
        assert_eq!(
            jar.changes().last().map(|ch| ch.cause),
            Some(cg_cookiejar::ChangeCause::Evicted)
        );
    }

    #[test]
    fn guard_less_jar_mediates_storage_only() {
        let mut jar = CookieJar::new();
        let mut rec = Recorder::new("shop.example", 1);
        let mut access = GuardedJar::new(url(), &mut jar, None, &mut rec);
        let a = ctx_for(Some("a.com"), 0, 0);
        let b = ctx_for(Some("b.com"), 1, 1);
        assert!(
            access
                .set(&a, SetRequest::DocumentCookie { raw: "x=1" })
                .applied
        );
        // No guard: everyone sees everything, decision is None.
        let out = access.set(&b, SetRequest::DocumentCookie { raw: "x=2" });
        assert!(out.applied && out.decision.is_none());
        assert_eq!(out.kind, WriteKind::Overwrite);
        assert!(out.change.is_some());
        assert_eq!(
            access.read(&b, CookieApi::DocumentCookie).serialize(),
            "x=2"
        );
    }

    #[test]
    fn storage_rejections_surface_in_outcome() {
        let mut jar = CookieJar::new();
        let mut rec = Recorder::new("shop.example", 1);
        let mut access = GuardedJar::new(url(), &mut jar, None, &mut rec);
        let c = ctx_for(Some("a.com"), 0, 0);
        let out = access.set(
            &c,
            SetRequest::DocumentCookie {
                raw: "x=1; Domain=unrelated.example",
            },
        );
        assert!(!out.applied);
        assert_eq!(out.error, Some(SetCookieError::DomainMismatch));
        assert!(out.event.is_none() && out.change.is_none());
        let out = access.set(&c, SetRequest::DocumentCookie { raw: "" });
        assert_eq!(out.error, Some(SetCookieError::Unparseable));
    }

    #[test]
    fn http_headers_attribute_and_log_like_the_extension() {
        let mut jar = CookieJar::new();
        let mut guard = session();
        let mut rec = Recorder::new("shop.example", 1);
        let mut access = GuardedJar::new(url(), &mut jar, Some(&mut guard), &mut rec);
        let outcomes = access.apply_set_cookie_headers(
            "shop.example",
            &[
                "sid=s3cr3t; Path=/; HttpOnly".to_string(),
                "prefs=dark".to_string(),
                String::new(),
            ],
            0,
        );
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes[0].applied && outcomes[0].event.is_none());
        assert!(outcomes[1].applied && outcomes[1].event.is_some());
        assert_eq!(outcomes[2].error, Some(SetCookieError::Unparseable));
        assert_eq!(jar.len(), 2);
        assert_eq!(guard.metadata().creator("sid"), Some("shop.example"));
        let log = rec.finish();
        assert_eq!(log.sets.len(), 1);
        assert_eq!(log.sets[0].api, CookieApi::HttpHeader);
    }

    #[test]
    fn batch_matches_per_op_exactly() {
        let seed = |jar: &mut CookieJar, guard: &mut GuardSession, rec: &mut Recorder| {
            let mut access = GuardedJar::new(url(), jar, Some(guard), rec);
            let owner = ctx_for(Some("shop.example"), 0, 0);
            for i in 0..12 {
                access.set(
                    &owner,
                    SetRequest::DocumentCookie {
                        raw: &format!("c{i}={i}"),
                    },
                );
            }
        };
        let ops: Vec<BatchOp> = vec![
            BatchOp::Read {
                api: CookieApi::DocumentCookie,
            },
            BatchOp::Get { name: "c3" },
            BatchOp::Set(SetRequest::CookieStore {
                name: "mine",
                value: "1",
                expires_abs_ms: None,
            }),
            BatchOp::Read {
                api: CookieApi::CookieStore,
            },
            BatchOp::Delete { name: "mine" },
            BatchOp::Get { name: "mine" },
        ];
        let c = ctx_for(Some("vendor.net"), 5_000, 50);

        // Batched run.
        let (mut jar_a, mut guard_a) = (CookieJar::new(), session());
        let mut rec_a = Recorder::new("shop.example", 1);
        seed(&mut jar_a, &mut guard_a, &mut rec_a);
        let mut access = GuardedJar::new(url(), &mut jar_a, Some(&mut guard_a), &mut rec_a);
        let batched = access.run_batch(&c, &ops);

        // Per-op run.
        let (mut jar_b, mut guard_b) = (CookieJar::new(), session());
        let mut rec_b = Recorder::new("shop.example", 1);
        seed(&mut jar_b, &mut guard_b, &mut rec_b);
        let mut access = GuardedJar::new(url(), &mut jar_b, Some(&mut guard_b), &mut rec_b);
        let mut single = Vec::new();
        for op in &ops {
            single.push(match op {
                BatchOp::Read { api } => BatchResult::Read(access.read(&c, *api)),
                BatchOp::Get { name } => BatchResult::Get(access.get(&c, name)),
                BatchOp::Set(req) => BatchResult::Mutation(access.set(&c, *req)),
                BatchOp::Delete { name } => BatchResult::Mutation(access.delete(&c, name)),
            });
        }

        // Identical logs, stats, and jar state.
        let (log_a, log_b) = (rec_a.finish(), rec_b.finish());
        assert_eq!(log_a.sets, log_b.sets);
        assert_eq!(log_a.reads, log_b.reads);
        assert_eq!(guard_a.stats(), guard_b.stats());
        assert_eq!(jar_a.len(), jar_b.len());
        assert_eq!(batched.len(), single.len());
        for (a, b) in batched.iter().zip(&single) {
            match (a, b) {
                (BatchResult::Read(x), BatchResult::Read(y)) => {
                    assert_eq!(x.serialize(), y.serialize());
                    assert_eq!(x.filtered, y.filtered);
                }
                (BatchResult::Get(x), BatchResult::Get(y)) => assert_eq!(x, y),
                (BatchResult::Mutation(x), BatchResult::Mutation(y)) => {
                    assert_eq!(x.applied, y.applied);
                    assert_eq!(x.kind, y.kind);
                    assert_eq!(x.blocked(), y.blocked());
                }
                _ => panic!("result shapes diverged"),
            }
        }
    }

    #[test]
    fn document_cookie_expiry_in_past_is_delete() {
        let mut jar = CookieJar::new();
        let mut guard = session();
        let mut rec = Recorder::new("shop.example", 1);
        let mut access = GuardedJar::new(url(), &mut jar, Some(&mut guard), &mut rec);
        let t = ctx_for(Some("tracker.io"), 100_000, 1);
        access.set(&t, SetRequest::DocumentCookie { raw: "_tid=x" });
        let out = access.set(
            &t,
            SetRequest::DocumentCookie {
                raw: "_tid=; Max-Age=-1",
            },
        );
        assert_eq!(out.kind, WriteKind::Delete);
        assert!(out.applied);
        // Deleting an absent cookie still logs the intent…
        let out = access.set(
            &t,
            SetRequest::DocumentCookie {
                raw: "_tid=; Max-Age=-1",
            },
        );
        assert!(!out.applied, "nothing left to remove");
        assert!(out.event.is_some(), "…but the event is still emitted");
    }
}
