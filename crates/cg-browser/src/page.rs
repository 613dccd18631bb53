//! One page execution context: the [`cg_script::Platform`] implementation
//! where CookieGuard enforcement and instrumentation interpose.
//!
//! All cookie traffic — `document.cookie`, the CookieStore methods, and
//! the response's `Set-Cookie` headers — is delegated to
//! [`cookieguard_core::GuardedJar`], the single enforcement point that
//! fuses policy, storage, and event emission. This type only translates
//! script-level [`Attribution`]s into [`AccessContext`]s and handles the
//! non-cookie platform surface (DOM, requests, script loading).

use cg_cookiejar::CookieJar;
use cg_dom::{Document, ElementId, ElementMutation, FrameKind, ScriptId, ScriptSource};
use cg_domguard::DomGuard;
use cg_instrument::{DomEvent, EventSink, ProbeEvent, Recorder, RequestEvent, ScriptInclusion};
use cg_script::{
    Attribution, CookieChangeNotice, DomMutationKind, Platform, ScriptExecution, ScriptOp,
    SignatureDb,
};
use cg_url::{CnameMap, DomainId, Url};
use cookieguard_core::{AccessContext, Caller, GuardSession, GuardedJar, SetRequest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The attribution identities of one loaded script, resolved **once**,
/// when the page loads it, from the URL it parsed to load it: the
/// policy caller (CNAME-uncloaked when enabled), the measured actor
/// (interned raw eTLD+1), and the shared script-URL string for write
/// events and requests. The page keeps one per [`ScriptId`], so an
/// operation finds its script's identity by the id its attribution was
/// taken from — no URL hashing, PSL walk, CNAME chase or allocation per
/// operation.
#[derive(Debug, Clone)]
struct ScriptIdentity {
    /// The parse every frame of the script shares. An attribution whose
    /// URL is another allocation was not taken from this script's frame.
    url: Arc<Url>,
    /// The URL's eTLD+1, as the measurement logs it (inclusion domain,
    /// request initiator, probe actor).
    domain: Option<String>,
    caller: Caller,
    actor: Option<DomainId>,
    actor_url: Arc<str>,
}

impl ScriptIdentity {
    /// Derives every identity of the script at `url`: one PSL walk feeds
    /// the actor and, unless CNAMEs are resolved, the policy caller.
    fn resolve(url: Arc<Url>, cnames: Option<&CnameMap>) -> ScriptIdentity {
        let domain = url.registrable_domain();
        let caller = match cnames {
            Some(map) => map
                .uncloaked_domain(&url.host_str())
                .as_deref()
                .map(Caller::external),
            None => domain.as_deref().map(Caller::external),
        }
        .unwrap_or_else(Caller::inline);
        ScriptIdentity {
            caller,
            actor: domain.as_deref().map(cg_url::intern),
            actor_url: Arc::from(url.to_string()),
            domain,
            url,
        }
    }
}

/// The identity of the script `at` was attributed to: the one resolved
/// at load time for [`Attribution::source`], or — for an attribution
/// the page did not hand out — one derived from its URL on the spot.
/// Inline and lost-stack attributions have no script URL and no
/// identity: they are the origin-less caller.
fn identity_of<'p>(
    identities: &'p [Option<ScriptIdentity>],
    cnames: Option<&CnameMap>,
    at: &Attribution,
) -> Option<Cow<'p, ScriptIdentity>> {
    let url = at.script_url.as_ref()?;
    match at.source.and_then(|id| identities.get(id)?.as_ref()) {
        Some(id) if Arc::ptr_eq(&id.url, url) => Some(Cow::Borrowed(id)),
        _ => Some(Cow::Owned(ScriptIdentity::resolve(Arc::clone(url), cnames))),
    }
}

/// The per-page platform: owns the document and accesses the
/// visit-scoped jar, guard, and recorder exclusively through the
/// [`GuardedJar`] access layer.
pub struct Page<'v> {
    url: Url,
    site_domain: String,
    wall_epoch_ms: i64,
    access: GuardedJar<'v>,
    doc: Document,
    injectables: &'v HashMap<String, Vec<ScriptOp>>,
    executed_urls: HashSet<String>,
    markup_elements: Vec<ElementId>,
    rng: StdRng,
    cookie_ops: usize,
    cnames: Option<&'v CnameMap>,
    /// Indexed by [`ScriptId`]; `None` for inline scripts.
    script_identities: Vec<Option<ScriptIdentity>>,
    signatures: Option<SignatureDb>,
    dom_guard: Option<&'v mut DomGuard>,
    change_cursor: usize,
    csp: Option<&'v cg_http::CspPolicy>,
    csp_blocked: usize,
}

impl<'v> Page<'v> {
    /// Builds a page for `url`. `injectables` resolves dynamic script
    /// injection; `seed` drives DOM-target selection only.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        url: Url,
        wall_epoch_ms: i64,
        jar: &'v mut CookieJar,
        guard: Option<&'v mut GuardSession>,
        recorder: &'v mut Recorder,
        injectables: &'v HashMap<String, Vec<ScriptOp>>,
        seed: u64,
    ) -> Page<'v> {
        let site_domain = url
            .registrable_domain()
            .unwrap_or_else(|| url.host_str().into_owned());
        // Change events only cover mutations from this page onward.
        let change_cursor = jar.change_count();
        let access = GuardedJar::new(url.clone(), jar, guard, recorder);
        let mut doc = Document::new(url.clone(), FrameKind::Main);
        let mut markup_elements = Vec::new();
        for i in 0..14 {
            let tag = if i % 3 == 0 {
                "div"
            } else if i % 3 == 1 {
                "p"
            } else {
                "img"
            };
            markup_elements.push(doc.insert_markup_element(tag, None));
        }
        Page {
            url,
            site_domain,
            wall_epoch_ms,
            access,
            doc,
            injectables,
            executed_urls: HashSet::new(),
            markup_elements,
            rng: StdRng::seed_from_u64(seed ^ 0x00d0_c0de),
            cookie_ops: 0,
            cnames: None,
            script_identities: Vec::new(),
            signatures: None,
            dom_guard: None,
            change_cursor,
            csp: None,
            csp_blocked: 0,
        }
    }

    /// Attaches a DOM guard: cross-domain element mutations are
    /// authorized against element ownership before they apply (§8's
    /// future-work defense, crate `cg-domguard`).
    pub fn with_dom_guard(mut self, guard: &'v mut DomGuard) -> Self {
        self.dom_guard = Some(guard);
        self
    }

    /// Enables DNS-aware attribution: script hosts are resolved through
    /// the CNAME map before their eTLD+1 is derived, uncloaking
    /// first-party-subdomain trackers (§8's defense direction). The map
    /// is the site's, borrowed for the page's lifetime.
    pub fn with_cnames(mut self, cnames: &'v CnameMap) -> Self {
        self.cnames = Some(cnames);
        self
    }

    /// Enables signature-based attribution for inline scripts (§8, after
    /// Chen et al.): an inline script whose behaviour matches a known
    /// third-party signature is attributed to that third party instead of
    /// being treated as origin-less.
    pub fn with_signatures(mut self, db: SignatureDb) -> Self {
        self.signatures = Some(db);
        self
    }

    /// Enforces the document's `Content-Security-Policy` (the `script-src`
    /// model of §2.1) at script-load time: markup scripts the caller
    /// pre-checks via [`Page::csp_admits_markup`], dynamically injected
    /// scripts inside [`Platform::resolve_injected_script`]. Blocked
    /// scripts never execute; CSP says nothing about the cookie access
    /// of the scripts it admits. The policy is borrowed, not copied per
    /// page.
    pub fn with_csp(mut self, csp: &'v cg_http::CspPolicy) -> Self {
        self.csp = Some(csp);
        self
    }

    /// Checks a markup script against the document's CSP, counting
    /// blocks. `url = None` is an inline script.
    pub fn csp_admits_markup(&mut self, url: Option<&str>) -> bool {
        let Some(policy) = &self.csp else { return true };
        let allowed = match url {
            None => policy.allows_inline(),
            Some(u) => match Url::parse(u) {
                Ok(su) => policy.allows_external(&su, &self.url, None),
                Err(_) => false,
            },
        };
        if !allowed {
            self.csp_blocked += 1;
        }
        allowed
    }

    /// Scripts the document's CSP refused to load so far.
    pub fn csp_blocked(&self) -> usize {
        self.csp_blocked
    }

    /// Applies the server's `Set-Cookie` headers for this page's response
    /// (the `webRequest.onHeadersReceived` path). The response domain is
    /// the site itself.
    pub fn apply_server_cookies(&mut self, raw_headers: &[String]) {
        self.access
            .apply_set_cookie_headers(&self.site_domain, raw_headers, self.wall_epoch_ms);
    }

    /// Registers a markup script with the document and the log; returns
    /// the execution the event loop should run, its program borrowed.
    pub fn register_markup_script(
        &mut self,
        url: Option<&str>,
        ops: &'v [ScriptOp],
    ) -> ScriptExecution<'v> {
        let parsed = url.map(|u| Url::parse(u).expect("blueprint script URL"));
        let source = match &parsed {
            Some(u) => ScriptSource::External(u.clone()),
            None => ScriptSource::Inline,
        };
        let id = self.doc.add_direct_script(source);
        let shared = match parsed {
            Some(u) => Some(self.resolve_identity(id, u)),
            // Signature-based attribution: an inline copy of a known
            // third-party behaviour executes under that party's
            // identity.
            None => self
                .signatures
                .as_ref()
                .and_then(|db| db.attribute(ops))
                .and_then(|domain| {
                    Url::parse(&format!("https://cdn.{domain}/sig-attributed.js")).ok()
                })
                .map(|u| self.resolve_identity(id, u)),
        };
        // A signature-attributed script is still logged as <inline>: the
        // measurement cannot see the attribution, only the policy layer
        // benefits.
        let domain = url.and_then(|_| self.script_identities[id].as_ref()?.domain.as_deref());
        let sink = self.access.sink();
        let inclusion = ScriptInclusion::observed(sink, url, domain, true);
        sink.inclusion(inclusion);
        if let Some(u) = url {
            self.executed_urls.insert(u.to_string());
        }
        ScriptExecution {
            script_id: id,
            url: shared,
            ops,
        }
    }

    /// Resolves the identity of script `id` from its parsed URL and
    /// files it under the id; returns the URL the script's frames share.
    fn resolve_identity(&mut self, id: ScriptId, url: Url) -> Arc<Url> {
        let url = Arc::new(url);
        if self.script_identities.len() <= id {
            self.script_identities.resize(id + 1, None);
        }
        self.script_identities[id] = Some(ScriptIdentity::resolve(Arc::clone(&url), self.cnames));
        url
    }

    /// Total cookie API operations performed on this page (drives the
    /// timing model).
    pub fn cookie_ops(&self) -> usize {
        self.cookie_ops
    }

    /// The document (DOM pilot analysis reads its mutation log).
    pub fn document(&self) -> &Document {
        &self.doc
    }

    /// The policy caller and measured actor of `at`'s script, copied out
    /// of its load-time identity.
    fn caller_and_actor(&self, at: &Attribution) -> (Caller, Option<DomainId>) {
        identity_of(&self.script_identities, self.cnames, at)
            .map_or((Caller::inline(), None), |id| (id.caller, id.actor))
    }

    fn wall(&self, at: &Attribution) -> i64 {
        self.wall_epoch_ms + at.now_ms as i64
    }

    /// Translates a script-level attribution into the access layer's
    /// operation context for the write paths: policy caller
    /// (CNAME-uncloaked), measured actor + script URL — all read from
    /// the script's load-time identity — and the two timebases.
    fn ctx(&self, at: &Attribution) -> AccessContext {
        let actor_url = identity_of(&self.script_identities, self.cnames, at)
            .map(|id| Arc::clone(&id.actor_url));
        AccessContext {
            actor_url,
            ..self.read_ctx(at)
        }
    }

    /// Read-path variant of [`Page::ctx`]: read events carry no script
    /// URL, so the shared `Arc` is not even cloned (`document.cookie`
    /// gets are the hottest op of a measurement crawl).
    fn read_ctx(&self, at: &Attribution) -> AccessContext {
        let (caller, actor) = self.caller_and_actor(at);
        AccessContext {
            caller,
            actor,
            actor_url: None,
            now_ms: self.wall(at),
            time_ms: at.now_ms,
        }
    }
}

impl<'v> Platform<'v> for Page<'v> {
    fn site_domain(&self) -> &str {
        &self.site_domain
    }

    fn document_cookie_get(&mut self, at: &Attribution) -> String {
        self.cookie_ops += 1;
        let ctx = self.read_ctx(at);
        self.access.document_cookie(&ctx)
    }

    fn document_cookie_set(&mut self, at: &Attribution, raw: &str) -> bool {
        self.cookie_ops += 1;
        let ctx = self.ctx(at);
        self.access
            .set(&ctx, SetRequest::DocumentCookie { raw })
            .applied
    }

    fn cookie_store_get(&mut self, at: &Attribution, name: &str) -> Option<String> {
        if self.url.scheme != "https" {
            return None; // CookieStore requires a secure context.
        }
        self.cookie_ops += 1;
        let ctx = self.read_ctx(at);
        self.access.get(&ctx, name)
    }

    fn cookie_store_get_all(&mut self, at: &Attribution) -> Vec<(String, String)> {
        if self.url.scheme != "https" {
            return Vec::new();
        }
        self.cookie_ops += 1;
        let ctx = self.read_ctx(at);
        self.access.get_all(&ctx)
    }

    fn cookie_store_set(
        &mut self,
        at: &Attribution,
        name: &str,
        value: &str,
        expires_abs_ms: Option<i64>,
    ) -> bool {
        if self.url.scheme != "https" {
            return false;
        }
        self.cookie_ops += 1;
        let ctx = self.ctx(at);
        self.access
            .set(
                &ctx,
                SetRequest::CookieStore {
                    name,
                    value,
                    expires_abs_ms,
                },
            )
            .applied
    }

    fn cookie_store_delete(&mut self, at: &Attribution, name: &str) -> bool {
        if self.url.scheme != "https" {
            return false;
        }
        self.cookie_ops += 1;
        let ctx = self.ctx(at);
        self.access.delete(&ctx, name).applied
    }

    fn send_request(&mut self, at: &Attribution, url: &str, kind: cg_http::RequestKind) {
        // The browser attaches every domain/path-matching cookie to the
        // request — including HttpOnly ones and regardless of any
        // script-level isolation, subject only to SameSite rules for
        // cross-site destinations. This is the channel that first-party
        // server-side collection endpoints ride (§5.7): CookieGuard
        // mediates script reads, not the network layer, which is why the
        // header passthrough below is not a policy-checked access.
        let dest = Url::parse(url).ok();
        let now = self.wall(at);
        let cookie_header = dest.as_ref().map(|u| {
            self.access
                .cookie_header_for_subresource(u, &self.site_domain, now)
        });
        let dest_domain = dest.as_ref().and_then(Url::registrable_domain);
        // The initiator is the script's raw eTLD+1 and URL, never the
        // CNAME-uncloaked policy domain.
        let initiator = identity_of(&self.script_identities, self.cnames, at);
        let sink = self.access.sink();
        let event = RequestEvent {
            url: sink.intern(url),
            dest_domain: dest_domain.map(|d| sink.intern(&d)),
            kind,
            initiator: initiator
                .as_ref()
                .and_then(|id| id.domain.as_deref())
                .map(|d| sink.intern(d)),
            initiator_url: initiator.as_ref().map(|id| sink.intern(&id.actor_url)),
            first_party: sink.intern(&self.site_domain),
            cookie_header: cookie_header
                .as_deref()
                .filter(|h| !h.is_empty())
                .map(|h| sink.intern(h)),
            time_ms: at.now_ms,
        };
        sink.request(event);
    }

    fn resolve_injected_script(
        &mut self,
        at: &Attribution,
        url: &str,
    ) -> Option<ScriptExecution<'v>> {
        let parsed = Url::parse(url);
        // CSP gates dynamic injection exactly like markup loading: an
        // unlisted host never executes (the tag-manager fan-out gap).
        if let Some(policy) = &self.csp {
            let allowed = parsed
                .as_ref()
                .is_ok_and(|su| policy.allows_external(su, &self.url, None));
            if !allowed {
                self.csp_blocked += 1;
                return None;
            }
        }
        let injectables = self.injectables;
        let ops = injectables.get(url)?;
        // Pages de-duplicate script elements by URL, like tag managers do.
        if !self.executed_urls.insert(url.to_string()) {
            return None;
        }
        let parent = at.script_id.unwrap_or(0);
        let parsed = parsed.ok()?;
        let id = self
            .doc
            .add_injected_script(ScriptSource::External(parsed.clone()), parent);
        let shared = self.resolve_identity(id, parsed);
        let domain = self.script_identities[id]
            .as_ref()
            .and_then(|s| s.domain.as_deref());
        let sink = self.access.sink();
        let inclusion = ScriptInclusion::observed(sink, Some(url), domain, false);
        sink.inclusion(inclusion);
        Some(ScriptExecution {
            script_id: id,
            url: Some(shared),
            ops,
        })
    }

    fn dom_insert(&mut self, at: &Attribution, tag: &str) {
        let actor = self.caller_and_actor(at).1.map(cg_url::name);
        self.doc.insert_script_element(tag, None, actor);
    }

    fn dom_mutate(&mut self, at: &Attribution, kind: DomMutationKind, foreign_target: bool) {
        // Load-time identity: no PSL walk or allocation per DOM op.
        let (caller, actor_id) = self.caller_and_actor(at);
        let actor_name = actor_id.map(cg_url::name);
        let target = if foreign_target {
            // A site-owned markup element.
            self.markup_elements[self.rng.gen_range(0..self.markup_elements.len())]
        } else {
            // The script's own container when it created one; otherwise
            // the page's first markup element (scripts without their own
            // nodes editing page chrome — still cross-domain, and the
            // pilot counts it as such).
            let own = actor_name.and_then(|a| self.doc.last_element_owned_by(a));
            match own.or_else(|| self.markup_elements.first().copied()) {
                Some(e) => e,
                None => return,
            }
        };
        let mutation = match kind {
            DomMutationKind::Content => ElementMutation::Content,
            DomMutationKind::Style => ElementMutation::Style,
            DomMutationKind::Attribute => ElementMutation::Attribute,
            DomMutationKind::Remove => ElementMutation::Remove,
        };
        let owner = self
            .doc
            .element(target)
            .map(|e| e.owner_domain.clone())
            .unwrap_or_default();
        // DOM-guard enforcement (§8 future work): the mutation must be
        // authorized against the element's ownership before it applies.
        if let Some(g) = self.dom_guard.as_deref_mut() {
            if let Some(guard_kind) = cg_domguard::mutation_kind_of(mutation) {
                if !g.authorize(&caller, &owner, guard_kind).is_allow() {
                    log_dom(self.access.sink(), actor_name, &owner, kind, true);
                    return;
                }
            }
        }
        if self
            .doc
            .mutate_element(target, mutation, actor_name, "mutated")
        {
            log_dom(self.access.sink(), actor_name, &owner, kind, false);
        }
    }

    fn probe_result(&mut self, at: &Attribution, feature: &str, cookie: &str, ok: bool) {
        let identity = identity_of(&self.script_identities, self.cnames, at);
        let sink = self.access.sink();
        let event = ProbeEvent {
            feature: sink.intern(feature),
            cookie: sink.intern(cookie),
            ok,
            actor: identity
                .as_ref()
                .and_then(|id| id.domain.as_deref())
                .map(|a| sink.intern(a)),
        };
        sink.probe(event);
    }

    fn drain_cookie_changes(&mut self) -> Vec<CookieChangeNotice> {
        // CookieStore (and its change events) require a secure context.
        if self.url.scheme != "https" {
            self.change_cursor = self.access.change_count();
            return Vec::new();
        }
        let notices = self
            .access
            .changes_since(self.change_cursor)
            .iter()
            .filter(|c| !c.http_only) // never observable from scripts
            .map(|c| CookieChangeNotice {
                name: c.name.clone(),
                deleted: c.is_removal(),
            })
            .collect();
        self.change_cursor = self.access.change_count();
        notices
    }

    fn discard_cookie_changes(&mut self) {
        self.change_cursor = self.access.change_count();
    }

    fn cookie_change_visible(&mut self, at: &Attribution, name: &str) -> bool {
        if !self.access.is_guarded() {
            return true; // don't derive the caller just to discard it
        }
        let (caller, _) = self.caller_and_actor(at);
        self.access.may_observe(&caller, name)
    }
}

/// Logs one DOM mutation (`blocked` = stopped by the DOM guard).
fn log_dom(
    sink: &mut dyn EventSink,
    actor: Option<&str>,
    owner: &str,
    kind: DomMutationKind,
    blocked: bool,
) {
    let event = DomEvent {
        actor: actor.map(|a| sink.intern(a)),
        owner: sink.intern(owner),
        kind: sink.intern(&format!("{kind:?}")),
        blocked,
    };
    sink.dom_mutation(event);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_instrument::{CookieApi, WriteKind};
    use cg_script::{CookieAttrs, EventLoop, ValueSpec};
    use cookieguard_core::{GuardConfig, GuardEngine};

    const EPOCH: i64 = 1_750_000_000_000;

    fn run_page(
        guard: Option<&mut GuardSession>,
        scripts: Vec<(Option<&str>, Vec<ScriptOp>)>,
    ) -> (cg_instrument::VisitLog, CookieJar) {
        let url = Url::parse("https://www.site.com/").unwrap();
        let mut jar = CookieJar::new();
        let mut recorder = Recorder::new("site.com", 1);
        let injectables = HashMap::new();
        let mut page = Page::new(url, EPOCH, &mut jar, guard, &mut recorder, &injectables, 7);
        let mut el = EventLoop::new(EPOCH);
        for (i, (u, ops)) in scripts.iter().enumerate() {
            let exec = page.register_markup_script(*u, ops);
            el.push_script(exec, i as u64 * 25);
        }
        let mut rng = StdRng::seed_from_u64(3);
        el.run(&mut page, &mut rng);
        (recorder.finish(), jar)
    }

    #[test]
    fn ghostwritten_cookie_recorded_with_actor() {
        let (log, jar) = run_page(
            None,
            vec![(
                Some("https://connect.facebook.net/en_US/fbevents.js"),
                vec![ScriptOp::SetCookie {
                    name: "_fbp".into(),
                    value: ValueSpec::FbpStyle,
                    attrs: CookieAttrs {
                        site_wide: true,
                        ..CookieAttrs::default()
                    },
                }],
            )],
        );
        assert_eq!(log.sets.len(), 1);
        assert_eq!(log.opt_str(log.sets[0].actor), Some("facebook.net"));
        assert_eq!(log.sets[0].kind, WriteKind::Create);
        assert_eq!(jar.len(), 1);
    }

    #[test]
    fn guard_blocks_cross_domain_read() {
        let mut guard = GuardEngine::shared(GuardConfig::strict()).session("site.com");
        let (log, _) = run_page(
            Some(&mut guard),
            vec![
                (
                    Some("https://t.tracker.com/t.js"),
                    vec![ScriptOp::SetCookie {
                        name: "_tid".into(),
                        value: ValueSpec::Uuid,
                        attrs: CookieAttrs::default(),
                    }],
                ),
                (
                    Some("https://cdn.other.net/o.js"),
                    vec![ScriptOp::ReadAllCookies],
                ),
                (
                    Some("https://www.site.com/app.js"),
                    vec![ScriptOp::ReadAllCookies],
                ),
            ],
        );
        // other.net saw nothing; the site owner saw the tracker cookie.
        let other_read = log
            .reads
            .iter()
            .find(|r| log.opt_str(r.actor) == Some("other.net"))
            .unwrap();
        assert!(other_read.names.is_empty());
        assert_eq!(other_read.filtered_count, 1);
        let owner_read = log
            .reads
            .iter()
            .find(|r| log.opt_str(r.actor) == Some("site.com"))
            .unwrap();
        assert_eq!(owner_read.names.len(), 1);
    }

    #[test]
    fn overwrite_and_delete_classified() {
        let (log, jar) = run_page(
            None,
            vec![
                (
                    Some("https://a.one.com/1.js"),
                    vec![ScriptOp::SetCookie {
                        name: "shared".into(),
                        value: ValueSpec::HexId(16),
                        attrs: CookieAttrs::default(),
                    }],
                ),
                (
                    Some("https://b.two.com/2.js"),
                    vec![ScriptOp::OverwriteCookie {
                        target: "shared".into(),
                        value: ValueSpec::HexId(24),
                        changes: cg_script::AttrChanges::value_and_expiry(),
                        blind: false,
                    }],
                ),
                (
                    Some("https://c.three.com/3.js"),
                    vec![ScriptOp::DeleteCookie {
                        target: "shared".into(),
                        via_store: false,
                    }],
                ),
            ],
        );
        let kinds: Vec<WriteKind> = log.sets.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![WriteKind::Create, WriteKind::Overwrite, WriteKind::Delete]
        );
        let ow = &log.sets[1];
        assert_eq!(log.opt_str(ow.actor), Some("two.com"));
        let ch = ow.changes.unwrap();
        assert!(ch.value && ch.expires);
        assert_eq!(
            jar.cookie_header_for_request(
                &Url::parse("https://www.site.com/").unwrap(),
                EPOCH + 10_000
            ),
            ""
        );
    }

    #[test]
    fn guard_blocks_cross_domain_write_but_allows_own() {
        let mut guard = GuardEngine::shared(GuardConfig::strict()).session("site.com");
        let (log, jar) = run_page(
            Some(&mut guard),
            vec![
                (
                    Some("https://a.one.com/1.js"),
                    vec![ScriptOp::SetCookie {
                        name: "mine".into(),
                        value: ValueSpec::HexId(16),
                        attrs: CookieAttrs::default(),
                    }],
                ),
                (
                    Some("https://b.two.com/2.js"),
                    vec![ScriptOp::OverwriteCookie {
                        target: "mine".into(),
                        value: ValueSpec::HexId(24),
                        changes: cg_script::AttrChanges::value_and_expiry(),
                        blind: true,
                    }],
                ),
            ],
        );
        let blocked: Vec<&cg_instrument::SetEvent> =
            log.sets.iter().filter(|s| s.blocked).collect();
        assert_eq!(blocked.len(), 1);
        assert_eq!(log.opt_str(blocked[0].actor), Some("two.com"));
        // Jar still holds one.com's value.
        let url = Url::parse("https://www.site.com/").unwrap();
        let c = jar.cookies_for_document(&url, EPOCH + 100_000);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].name, "mine");
    }

    #[test]
    fn exfiltration_visible_in_request_log() {
        let (log, _) = run_page(
            None,
            vec![
                (
                    Some("https://gtm.com/gtm.js"),
                    vec![ScriptOp::SetCookie {
                        name: "_ga".into(),
                        value: ValueSpec::GaStyle,
                        attrs: CookieAttrs::default(),
                    }],
                ),
                (
                    Some("https://snap.licdn.com/insight.min.js"),
                    vec![ScriptOp::Exfiltrate {
                        dest_host: "px.ads.linkedin.com".into(),
                        path: "/attribution_trigger".into(),
                        selection: cg_script::CookieSelection::Named(vec!["_ga".into()]),
                        segment: cg_script::SegmentPolicy::LongestSegment,
                        encoding: cg_script::Encoding::Base64,
                        kind: cg_http::RequestKind::Image,
                        via_store: false,
                    }],
                ),
            ],
        );
        assert_eq!(log.requests.len(), 1);
        let req = &log.requests[0];
        assert_eq!(log.opt_str(req.initiator), Some("licdn.com"));
        assert_eq!(log.opt_str(req.dest_domain), Some("linkedin.com"));
        assert!(log.str(req.url).contains("_ga="));
    }

    #[test]
    fn http_cookies_recorded_and_guarded() {
        let url = Url::parse("https://www.site.com/").unwrap();
        let mut jar = CookieJar::new();
        let mut recorder = Recorder::new("site.com", 1);
        let injectables = HashMap::new();
        let mut guard = GuardEngine::shared(GuardConfig::strict()).session("site.com");
        let mut page = Page::new(
            url.clone(),
            EPOCH,
            &mut jar,
            Some(&mut guard),
            &mut recorder,
            &injectables,
            7,
        );
        page.apply_server_cookies(&[
            "session_id=abc123; Path=/; HttpOnly".to_string(),
            "prefs=dark".to_string(),
        ]);
        let log = recorder.finish();
        // Only the non-HttpOnly cookie is visible to the measurement.
        assert_eq!(log.sets.len(), 1);
        assert_eq!(log.str(log.sets[0].name), "prefs");
        assert_eq!(log.sets[0].api, CookieApi::HttpHeader);
        // Both are in the jar (the HttpOnly one rides requests only).
        assert_eq!(jar.len(), 2);
        // The guard knows the server created them.
        assert_eq!(guard.metadata().creator("session_id"), Some("site.com"));
    }

    #[test]
    fn injected_scripts_deduped_by_url() {
        let url = Url::parse("https://www.site.com/").unwrap();
        let mut jar = CookieJar::new();
        let mut recorder = Recorder::new("site.com", 1);
        let mut injectables = HashMap::new();
        injectables.insert(
            "https://ga.com/a.js".to_string(),
            vec![ScriptOp::ReadAllCookies],
        );
        let mut page = Page::new(url, EPOCH, &mut jar, None, &mut recorder, &injectables, 7);
        let mut el = EventLoop::new(EPOCH);
        let gtm_ops = vec![
            ScriptOp::InjectScript {
                url: "https://ga.com/a.js".into(),
            },
            ScriptOp::InjectScript {
                url: "https://ga.com/a.js".into(),
            },
        ];
        let exec = page.register_markup_script(Some("https://gtm.com/gtm.js"), &gtm_ops);
        el.push_script(exec, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let stats = el.run(&mut page, &mut rng);
        assert_eq!(stats.scripts_injected, 1);
        let log = recorder.finish();
        assert_eq!(log.inclusions.iter().filter(|i| !i.direct).count(), 1);
    }

    /// The policy caller, actor and actor URL derived from the script
    /// URL alone, the way the page resolved them before identities were
    /// filed by script id.
    fn url_derived(url: &Url, cnames: Option<&CnameMap>) -> (Caller, Option<DomainId>, String) {
        let policy_domain = match cnames {
            Some(map) => map.uncloaked_domain(&url.host_str()),
            None => url.registrable_domain(),
        };
        (
            policy_domain.map_or_else(Caller::inline, |d| Caller::external(&d)),
            url.registrable_domain().map(|d| cg_url::intern(&d)),
            url.to_string(),
        )
    }

    /// The identity the page charges to `exec`'s operations, asserting
    /// it was found by script id rather than derived on the spot.
    fn charged(page: &Page<'_>, exec: &ScriptExecution<'_>) -> (Caller, Option<DomainId>, String) {
        let frame = cg_script::StackFrame {
            script_id: exec.script_id,
            url: exec.url.clone(),
        };
        let at = Attribution::from_stack(&[frame], 0, false);
        assert_eq!(at.source, Some(exec.script_id));
        match identity_of(&page.script_identities, page.cnames, &at) {
            Some(Cow::Borrowed(id)) => (id.caller, id.actor, id.actor_url.to_string()),
            other => panic!(
                "identity of script {} not filed by id: {other:?}",
                exec.script_id
            ),
        }
    }

    fn empty_page<'v>(
        jar: &'v mut CookieJar,
        recorder: &'v mut Recorder,
        injectables: &'v HashMap<String, Vec<ScriptOp>>,
    ) -> Page<'v> {
        let url = Url::parse("https://www.site.com/").unwrap();
        Page::new(url, EPOCH, jar, None, recorder, injectables, 7)
    }

    #[test]
    fn identity_by_id_uncloaks_a_cname_cloaked_script_like_its_url() {
        let mut cnames = CnameMap::new();
        cnames.insert("metrics.site.com", "collect.trackerhub.io");
        let (mut jar, mut recorder, injectables) = (
            CookieJar::new(),
            Recorder::new("site.com", 1),
            HashMap::new(),
        );
        let mut page = empty_page(&mut jar, &mut recorder, &injectables).with_cnames(&cnames);
        let ops = vec![ScriptOp::ReadAllCookies];
        let exec = page.register_markup_script(Some("https://metrics.site.com/m.js"), &ops);
        let by_id = charged(&page, &exec);
        let url = Url::parse("https://metrics.site.com/m.js").unwrap();
        assert_eq!(by_id, url_derived(&url, Some(&cnames)));
        // The policy sees the tracker; the measurement sees the site.
        assert_eq!(by_id.0.domain_name(), Some("trackerhub.io"));
        assert_eq!(by_id.1.map(cg_url::name), Some("site.com"));
        let log = recorder.finish();
        assert_eq!(log.opt_str(log.inclusions[0].domain), Some("site.com"));
    }

    #[test]
    fn identity_by_id_of_a_signature_attributed_inline_script_is_its_signature_url() {
        let ops = vec![ScriptOp::ReadAllCookies, ScriptOp::ReadAllCookies];
        let mut db = SignatureDb::new();
        db.learn("tracker.io", &ops);
        let (mut jar, mut recorder, injectables) = (
            CookieJar::new(),
            Recorder::new("site.com", 1),
            HashMap::new(),
        );
        let mut page = empty_page(&mut jar, &mut recorder, &injectables).with_signatures(db);
        let exec = page.register_markup_script(None, &ops);
        let sig_url = Url::parse("https://cdn.tracker.io/sig-attributed.js").unwrap();
        assert_eq!(exec.url.as_deref(), Some(&sig_url));
        let by_id = charged(&page, &exec);
        assert_eq!(by_id, url_derived(&sig_url, None));
        assert_eq!(by_id.0.domain_name(), Some("tracker.io"));
        // The inclusion log still says <inline>, with no domain.
        let log = recorder.finish();
        assert_eq!(log.str(log.inclusions[0].url), "<inline>");
        assert_eq!(log.inclusions[0].domain, None);
    }

    #[test]
    fn one_url_under_two_script_ids_has_one_identity_under_each() {
        let (mut jar, mut recorder, injectables) = (
            CookieJar::new(),
            Recorder::new("site.com", 1),
            HashMap::new(),
        );
        let mut page = empty_page(&mut jar, &mut recorder, &injectables);
        let ops = vec![ScriptOp::ReadAllCookies];
        let src = "https://cdn.other.net/o.js?v=2";
        let first = page.register_markup_script(Some(src), &ops);
        let inline = page.register_markup_script(None, &ops);
        let second = page.register_markup_script(Some(src), &ops);
        assert_ne!(first.script_id, second.script_id);
        assert_eq!(inline.url, None);
        let expected = url_derived(&Url::parse(src).unwrap(), None);
        assert_eq!(charged(&page, &first), expected);
        assert_eq!(charged(&page, &second), expected);
        // A frame whose URL is not the one the page filed under its id
        // is resolved from that URL, not charged the filed identity.
        let foreign = Attribution {
            source: Some(first.script_id),
            script_url: Some(Arc::new(Url::parse("https://evil.example/x.js").unwrap())),
            ..Attribution::lost(0)
        };
        assert_eq!(
            page.caller_and_actor(&foreign).0.domain_name(),
            Some("evil.example")
        );
    }

    #[test]
    fn cookie_store_requires_https() {
        let url = Url::parse("http://www.site.com/").unwrap();
        let mut jar = CookieJar::new();
        let mut recorder = Recorder::new("site.com", 1);
        let injectables = HashMap::new();
        let mut page = Page::new(url, EPOCH, &mut jar, None, &mut recorder, &injectables, 7);
        let at = Attribution::lost(0);
        assert!(!page.cookie_store_set(&at, "x", "1", None));
        assert!(page.cookie_store_get_all(&at).is_empty());
    }
}
