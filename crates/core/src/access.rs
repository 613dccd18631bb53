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
//!        │  document_cookie / get_all / get / set / delete / apply_set_cookie_headers
//!        ▼
//!   GuardedJar ── 1. policy   (GuardSession, optional)
//!              ── 2. storage  (CookieJar, shard-pinned)
//!              ── 3. event    (EventSink)
//! ```
//!
//! Callers never consult the guard, mutate the jar, or synthesize
//! `SetEvent`/`ReadEvent`s by hand; they receive the read's result or an
//! [`Outcome`] that says what was decided and what changed. Running
//! guard-less (a vanilla measurement crawl) is the same API with
//! `guard = None`.
//!
//! The jar's host → shard resolution is pinned once per `GuardedJar`
//! (the document URL is fixed for its lifetime). A read borrows: the jar
//! hands out a sorted view of `&Cookie`, the guard filters that view in
//! place, the sink stores each distinct string once per visit (an
//! event holds `u32` symbols, a read a range of the visit's name list),
//! and only what the caller receives — the `document.cookie` string,
//! written into one `String`, or the `getAll` pairs — is copied. A
//! write finds the cookie it replaces in the same borrowed form and
//! copies none of it.

use crate::guard::GuardSession;
use crate::policy::{AccessDecision, Caller};
use cg_cookiejar::{
    cookie_string, ChangeCause, Cookie, CookieChange, CookieJar, SetCookieError, ShardPin,
};
use cg_http::parse_set_cookie;
use cg_instrument::{AttrChangeFlags, CookieApi, EventSink, ReadEvent, SetEvent, Sym, WriteKind};
use cg_url::{DomainId, Url};
use std::sync::Arc;

/// The identity and timing of one mediated cookie operation.
///
/// Carries *two* identities because policy and measurement can
/// legitimately disagree: `caller` is the policy identity (possibly
/// CNAME-uncloaked or signature-attributed), while `actor` is the
/// identity the instrumentation may observe (the raw stack-trace
/// eTLD+1). A burst of operations from one script shares one context.
///
/// Both identities are interned ids, resolved once per script at
/// attribution time, so building and cloning a context per operation is
/// allocation-free (`Caller` and `DomainId` are `Copy`; the script URL
/// is a shared `Arc<str>`). Event emission resolves ids back to names
/// and interns them into the visit's string table — the instrument wire
/// format never changes.
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
    /// The actor's domain name (normalized form), when attributed, as a
    /// symbol of `sink`'s visit.
    fn actor_sym(&self, sink: &mut dyn EventSink) -> Option<Sym> {
        self.actor.map(|id| sink.intern(cg_url::name(id)))
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
/// decided, what the jar did, and whether the instrumentation saw it.
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
    /// Why the jar logged the mutation itself (created, replaced,
    /// deleted), if it logged one. The record is the first the operation
    /// appended to the jar's change log; knock-on records (a
    /// per-domain-cap eviction after a create) follow it there.
    pub change: Option<ChangeCause>,
    /// Whether a write event was emitted to the sink (the event itself
    /// is the sink's; the access layer keeps no copy).
    pub logged: bool,
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
            logged: false,
        }
    }

    /// The outcome of a write or delete the guard refused (and logged).
    fn blocked_by(decision: AccessDecision, kind: WriteKind) -> Outcome {
        Outcome {
            decision: Some(decision),
            kind,
            applied: false,
            error: None,
            change: None,
            logged: true,
        }
    }
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

    /// The `document.cookie` getter: the post-guard cookies as one
    /// `"a=1; b=2"` string, logged as one read event.
    pub fn document_cookie(&mut self, ctx: &AccessContext) -> String {
        self.read(ctx, CookieApi::DocumentCookie, |view| cookie_string(view))
    }

    /// `cookieStore.getAll()`: the post-guard `(name, value)` pairs,
    /// logged as one CookieStore read event.
    pub fn get_all(&mut self, ctx: &AccessContext) -> Vec<(String, String)> {
        self.read(ctx, CookieApi::CookieStore, |view| {
            view.iter()
                .map(|c| (c.name.clone(), c.value.clone()))
                .collect()
        })
    }

    /// `cookieStore.get(name)`: the value, if present and visible.
    /// Logged as a CookieStore read of at most one name and at most one
    /// withheld cookie.
    pub fn get(&mut self, ctx: &AccessContext, name: &str) -> Option<String> {
        let (view, filtered) = visible(
            self.jar,
            self.guard.as_deref_mut(),
            &self.pin,
            &self.url,
            ctx,
        );
        let found = view
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value.clone());
        let names = self
            .sink
            .read_names(&mut found.is_some().then_some(name).into_iter());
        let actor = ctx.actor_sym(self.sink);
        self.sink.cookie_read(ReadEvent {
            actor,
            api: CookieApi::CookieStore,
            names,
            filtered_count: filtered.min(1),
            time_ms: ctx.time_ms,
        });
        found
    }

    /// One full read on `api`: the post-guard view, logged as one read
    /// event, of which `out` copies what the caller receives.
    fn read<R>(
        &mut self,
        ctx: &AccessContext,
        api: CookieApi,
        out: impl FnOnce(&[&Cookie]) -> R,
    ) -> R {
        let (view, filtered) = visible(
            self.jar,
            self.guard.as_deref_mut(),
            &self.pin,
            &self.url,
            ctx,
        );
        let names = self
            .sink
            .read_names(&mut view.iter().map(|c| c.name.as_str()));
        let actor = ctx.actor_sym(self.sink);
        self.sink.cookie_read(ReadEvent {
            actor,
            api,
            names,
            filtered_count: filtered,
            time_ms: ctx.time_ms,
        });
        out(&view)
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
        let expires_abs = match (sc.max_age_s, sc.expires_ms) {
            (Some(ma), _) => Some(now + ma * 1000),
            (None, Some(e)) => Some(e),
            (None, None) => None,
        };

        // Classify the write like the measurement does: a write whose
        // expiry is already in the past is a deletion; a write to an
        // existing name is an overwrite. The prior cookie is the first
        // of that name the document sees; the attribute-change taxonomy
        // (§5.5) is read off it in place, so nothing of it is copied.
        let prior_changes = self
            .jar
            .document_cookie_named(&self.pin, &self.url, now, &sc.name)
            .map(|p| AttrChangeFlags {
                value: p.value != sc.value,
                expires: p.expires_ms != expires_abs,
                domain: sc.domain.as_deref().is_some_and(|d| d != p.domain) && !p.host_only
                    || (p.host_only && sc.domain.is_some()),
                path: sc.path.as_deref().is_some_and(|pt| pt != p.path),
            });
        let is_delete = matches!(expires_abs, Some(e) if e <= now);
        // The lifetime the write *requested*, relative seconds — what
        // the detection pipeline reads as persistence.
        let max_age_s = expires_abs.map(|e| (e - now) / 1000);
        let kind = if is_delete {
            WriteKind::Delete
        } else if prior_changes.is_some() {
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
                self.emit_set(
                    ctx,
                    &sc.name,
                    &sc.value,
                    CookieApi::DocumentCookie,
                    kind,
                    max_age_s,
                    None,
                    true,
                );
                return Outcome::blocked_by(d, kind);
            }
            decision = Some(d);
        }

        // Attribute changes are recorded on overwrites only.
        let changes = prior_changes.filter(|_| kind == WriteKind::Overwrite);

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
                Ok(()) => (true, None),
                Err(e) => (false, Some(e)),
            }
        };

        // Event: deletions are logged even when nothing matched (the
        // script's intent is observable either way).
        let logged = applied || is_delete;
        if logged {
            self.emit_set(
                ctx,
                &sc.name,
                &sc.value,
                CookieApi::DocumentCookie,
                kind,
                max_age_s,
                changes,
                false,
            );
        }

        Outcome {
            decision,
            kind,
            applied,
            error,
            change: self.jar.changes_since(change_mark).first().map(|c| c.cause),
            logged,
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
            .document_cookie_named(&self.pin, &self.url, now, name)
            .is_some();
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
                self.emit_set(
                    ctx,
                    name,
                    value,
                    CookieApi::CookieStore,
                    kind,
                    max_age_s,
                    None,
                    true,
                );
                return Outcome::blocked_by(d, kind);
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
            Ok(()) => (true, None),
            Err(e) => (false, Some(e)),
        };
        if applied {
            self.emit_set(
                ctx,
                name,
                value,
                CookieApi::CookieStore,
                kind,
                max_age_s,
                None,
                false,
            );
        }
        Outcome {
            decision,
            kind,
            applied,
            error,
            change: self.jar.changes_since(change_mark).first().map(|c| c.cause),
            logged: applied,
        }
    }

    /// `cookieStore.delete(name)`: consults the guard, expires the
    /// cookie, and logs the delete.
    pub fn delete(&mut self, ctx: &AccessContext, name: &str) -> Outcome {
        let mut decision = None;
        if let Some(g) = self.guard.as_deref_mut() {
            let d = g.authorize_delete(&ctx.caller, name);
            if !d.is_allow() {
                self.emit_set(
                    ctx,
                    name,
                    "",
                    CookieApi::CookieStore,
                    WriteKind::Delete,
                    None,
                    None,
                    true,
                );
                return Outcome::blocked_by(d, WriteKind::Delete);
            }
            decision = Some(d);
        }
        let change_mark = self.jar.change_count();
        let applied = self
            .jar
            .delete_pinned(&self.pin, name, &self.url, ctx.now_ms);
        if applied {
            self.emit_set(
                ctx,
                name,
                "",
                CookieApi::CookieStore,
                WriteKind::Delete,
                None,
                None,
                false,
            );
        }
        Outcome {
            decision,
            kind: WriteKind::Delete,
            applied,
            error: None,
            change: self.jar.changes_since(change_mark).first().map(|c| c.cause),
            logged: applied,
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
                // The extension only sees non-HttpOnly values (§4.1).
                let logged = applied && !sc.http_only;
                if applied {
                    if let Some(g) = self.guard.as_deref_mut() {
                        g.record_http_set_cookie(&sc.name, response_domain);
                    }
                }
                if logged {
                    let sink = &mut *self.sink;
                    let event = SetEvent {
                        max_age_s: match (sc.max_age_s, sc.expires_ms) {
                            (Some(ma), _) => Some(ma),
                            (None, Some(e)) => Some((e - now_ms) / 1000),
                            (None, None) => None,
                        },
                        name: sink.intern(&sc.name),
                        value: sink.intern(&sc.value),
                        actor: Some(sink.intern(response_domain)),
                        actor_url: None,
                        api: CookieApi::HttpHeader,
                        kind: WriteKind::Create,
                        changes: None,
                        blocked: false,
                        time_ms: 0,
                    };
                    sink.cookie_set(event);
                }
                Outcome {
                    decision: None,
                    kind: WriteKind::Create,
                    applied,
                    error: result.err(),
                    change: self.jar.changes_since(change_mark).first().map(|c| c.cause),
                    logged,
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

    /// Builds and emits one write event.
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
    ) {
        let sink = &mut *self.sink;
        let event = SetEvent {
            name: sink.intern(name),
            value: sink.intern(value),
            actor: ctx.actor_sym(sink),
            actor_url: ctx.actor_url.as_deref().map(|u| sink.intern(u)),
            api,
            kind,
            max_age_s,
            changes,
            blocked,
            time_ms: ctx.time_ms,
        };
        sink.cookie_set(event);
    }
}

/// The post-guard view of the document's cookies, borrowed from `jar`,
/// and how many cookies the guard withheld. A free function over the
/// access layer's fields, so the view can borrow the jar while the
/// caller still logs to the sink.
fn visible<'j>(
    jar: &'j CookieJar,
    guard: Option<&mut GuardSession>,
    pin: &ShardPin,
    url: &Url,
    ctx: &AccessContext,
) -> (Vec<&'j Cookie>, usize) {
    let mut view = jar.document_view(pin, url, ctx.now_ms);
    let filtered = match guard {
        Some(g) => g.filter_read(&ctx.caller, &mut view),
        None => 0,
    };
    (view, filtered)
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
        assert!(out.logged);
        assert_eq!(out.change, Some(ChangeCause::Created));

        // The creator reads its cookie back; a stranger sees nothing.
        assert_eq!(access.document_cookie(&t), "_tid=abc");
        let s = ctx_for(Some("other.net"), 2_000, 20);
        assert_eq!(access.document_cookie(&s), "");

        // The stranger cannot delete it; the creator can.
        assert!(access.delete(&s, "_tid").blocked());
        let del = access.delete(&t, "_tid");
        assert!(del.applied && !del.blocked());
        assert_eq!(del.kind, WriteKind::Delete);

        let log = rec.finish();
        assert_eq!(log.sets.len(), 3); // create + blocked delete + delete
        assert_eq!(log.str(log.sets[0].name), "_tid");
        assert_eq!(log.reads.len(), 2);
        assert_eq!(log.reads[1].filtered_count, 1);
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
        assert_eq!(out.change, Some(ChangeCause::Created));
        // The mutation's record is the written cookie's; the eviction
        // is on the jar's log right after it.
        let log = jar.changes();
        assert_eq!(
            (log[log.len() - 2].name.as_str(), log[log.len() - 2].cause),
            ("straw", ChangeCause::Created)
        );
        assert_eq!(log[log.len() - 1].cause, ChangeCause::Evicted);
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
        assert_eq!(access.document_cookie(&b), "x=2");
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
        assert!(!out.logged && out.change.is_none());
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
        assert!(outcomes[0].applied && !outcomes[0].logged);
        assert!(outcomes[1].applied && outcomes[1].logged);
        assert_eq!(outcomes[2].error, Some(SetCookieError::Unparseable));
        assert_eq!(jar.len(), 2);
        assert_eq!(guard.metadata().creator("sid"), Some("shop.example"));
        let log = rec.finish();
        assert_eq!(log.sets.len(), 1);
        assert_eq!(log.sets[0].api, CookieApi::HttpHeader);
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
        assert!(out.logged, "…but the event is still emitted");
    }

    // ------------------------------------------------------------------
    // `document.cookie` serialization: one `String`, byte-identical to
    // joining `Cookie::pair` with "; " over the jar's view.
    // ------------------------------------------------------------------

    /// A jar filled by `(raw, created_at)` writes at `doc`.
    fn jar_of(doc: &Url, writes: &[(&str, i64)]) -> CookieJar {
        let mut jar = CookieJar::new();
        for (raw, at) in writes {
            jar.set_document_cookie(raw, doc, *at).unwrap();
        }
        jar
    }

    /// The guard-less `document.cookie` read of `doc`, checked against
    /// the jar's own getter and the join of `Cookie::pair`.
    fn guardless_read(jar: &mut CookieJar, doc: &Url, now_ms: i64) -> String {
        let joined = jar
            .cookies_for_document(doc, now_ms)
            .iter()
            .map(Cookie::pair)
            .collect::<Vec<_>>()
            .join("; ");
        let getter = jar.document_cookie(doc, now_ms);
        let mut rec = Recorder::new("shop.example", 1);
        let mut access = GuardedJar::new(doc.clone(), jar, None, &mut rec);
        let read = access.document_cookie(&ctx_for(None, now_ms, 0));
        assert_eq!(read, joined);
        assert_eq!(read, getter);
        read
    }

    #[test]
    fn nameless_cookies_print_their_value_alone_first_or_mid_list() {
        let doc = Url::parse("https://www.shop.example/a/b/").unwrap();
        let mut jar = jar_of(
            &doc,
            &[
                ("x=1; Path=/a", 1),
                ("mid; Path=/a", 2),
                ("y=2; Path=/a", 3),
                ("z=3; Path=/", 4),
                ("first", 5), // default path /a/b: the longest, so first
            ],
        );
        assert_eq!(
            guardless_read(&mut jar, &doc, 10),
            "first; x=1; mid; y=2; z=3"
        );
        // Alone, a nameless cookie has no separator at all.
        let mut jar = jar_of(&doc, &[("solo", 0)]);
        assert_eq!(guardless_read(&mut jar, &doc, 10), "solo");
        assert_eq!(guardless_read(&mut CookieJar::new(), &doc, 10), "");
    }

    #[test]
    fn longer_paths_first_then_creation_then_name() {
        let doc = Url::parse("https://www.shop.example/app/page").unwrap();
        let mut jar = jar_of(
            &doc,
            &[
                ("b=2; Path=/", 7),
                ("a=1; Path=/", 7),
                ("old=0; Path=/", 3),
                ("c=3; Path=/", 7),
                ("deep=4; Path=/app", 9),
            ],
        );
        // `created_at` ties (a, b, c at 7) break by name.
        assert_eq!(
            guardless_read(&mut jar, &doc, 10),
            "deep=4; old=0; a=1; b=2; c=3"
        );
    }

    #[test]
    fn guard_withholds_mid_list_without_disturbing_the_rest() {
        let mut jar = CookieJar::new();
        let mut guard = session();
        let mut rec = Recorder::new("shop.example", 1);
        let mut access = GuardedJar::new(url(), &mut jar, Some(&mut guard), &mut rec);
        let vendor = ctx_for(Some("vendor.net"), 0, 0);
        let other = ctx_for(Some("other.net"), 0, 0);
        for (who, raw, at) in [
            (&vendor, "vfirst", 0),
            (&vendor, "v1=1", 1),
            (&other, "o=2", 2),
            (&vendor, "v2=3", 3),
        ] {
            let c = AccessContext {
                now_ms: at,
                ..who.clone()
            };
            assert!(access.set(&c, SetRequest::DocumentCookie { raw }).applied);
        }
        let at = |c: &AccessContext| AccessContext {
            now_ms: 10,
            ..c.clone()
        };
        assert_eq!(access.document_cookie(&at(&vendor)), "vfirst; v1=1; v2=3");
        // The withheld cookie is the view's first one here.
        assert_eq!(access.document_cookie(&at(&other)), "o=2");
        assert_eq!(
            access.get_all(&at(&other)),
            vec![("o".to_string(), "2".to_string())]
        );
        let log = rec.finish();
        let names = |i: usize| log.names_of(&log.reads[i]).collect::<Vec<_>>();
        assert_eq!(names(0), ["", "v1", "v2"]);
        assert_eq!(log.reads[0].filtered_count, 1);
        assert_eq!(names(1), ["o"]);
        assert_eq!(log.reads[1].filtered_count, 3);
        assert_eq!(log.reads[2].api, CookieApi::CookieStore);
        let stats = guard.stats();
        assert_eq!((stats.reads_filtered, stats.cookies_filtered), (3, 7));
        assert_eq!(stats.reads_clean, 0);
    }

    #[test]
    fn overwrite_compares_against_the_first_cookie_of_that_name() {
        // Two cookies named `k`: the /a/b one serializes first, so it is
        // the prior cookie an overwrite is compared with.
        let doc = Url::parse("https://www.shop.example/a/b/").unwrap();
        let mut jar = jar_of(&doc, &[("k=1; Path=/a", 1), ("k=2", 2)]);
        let mut rec = Recorder::new("shop.example", 1);
        let mut access = GuardedJar::new(doc.clone(), &mut jar, None, &mut rec);
        let c = ctx_for(Some("shop.example"), 10, 1);
        let out = access.set(
            &c,
            SetRequest::DocumentCookie {
                raw: "k=2; Path=/a",
            },
        );
        assert_eq!(out.kind, WriteKind::Overwrite);
        assert_eq!(
            rec.finish().sets[0].changes,
            Some(AttrChangeFlags {
                value: false,
                expires: false,
                domain: false,
                path: true,
            })
        );
    }
}
