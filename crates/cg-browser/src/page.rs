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
use cg_dom::{Document, ElementId, ElementMutation, FrameKind, ScriptSource};
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
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The attribution identities of one script, resolved **once** at its
/// first cookie/DOM operation and cached for the rest of the page: the
/// policy caller (CNAME-uncloaked when enabled), the measured actor
/// (interned raw eTLD+1), and the shared script-URL string for write
/// events. Subsequent operations by the same script copy ids out of the
/// cache — no PSL walk, no CNAME chase, no allocation per operation.
#[derive(Debug, Clone)]
struct ScriptIdentity {
    caller: Caller,
    actor: Option<DomainId>,
    actor_url: Arc<str>,
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
    script_identities: HashMap<Url, ScriptIdentity>,
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
            script_identities: HashMap::new(),
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
    /// the execution the event loop should run.
    pub fn register_markup_script(
        &mut self,
        url: Option<&str>,
        ops: Vec<ScriptOp>,
    ) -> ScriptExecution {
        let source = match url {
            Some(u) => ScriptSource::External(Url::parse(u).expect("blueprint script URL")),
            None => ScriptSource::Inline,
        };
        let id = self.doc.add_direct_script(source.clone());
        let sink = self.access.sink();
        let inclusion = ScriptInclusion::observed(sink, url, true);
        sink.inclusion(inclusion);
        if let Some(u) = url {
            self.executed_urls.insert(u.to_string());
        }
        let parsed = match source {
            ScriptSource::External(u) => Some(u),
            ScriptSource::Inline => {
                // Signature-based attribution: an inline copy of a known
                // third-party behaviour executes under that party's
                // identity. The inclusion log above still says <inline> —
                // the measurement cannot see the attribution, only the
                // policy layer benefits.
                self.signatures
                    .as_ref()
                    .and_then(|db| db.attribute(&ops))
                    .and_then(|domain| {
                        Url::parse(&format!("https://cdn.{domain}/sig-attributed.js")).ok()
                    })
            }
        };
        ScriptExecution {
            script_id: id,
            url: parsed,
            ops,
        }
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

    /// The cached attribution identities for `at`'s script — resolved
    /// (PSL walk, CNAME uncloaking, interning, URL stringification) on
    /// the script's first operation, copied out of the cache afterwards.
    /// Inline/lost-stack attributions have no script URL and no cache
    /// entry: they are the origin-less identity.
    fn identity(&mut self, at: &Attribution) -> (Caller, Option<DomainId>, Option<Arc<str>>) {
        let Some(url) = &at.script_url else {
            return (Caller::inline(), None, None);
        };
        if let Some(id) = self.script_identities.get(url) {
            return (id.caller, id.actor, Some(Arc::clone(&id.actor_url)));
        }
        let policy_domain = match &self.cnames {
            Some(map) => map.uncloaked_domain(&url.host_str()),
            None => url.registrable_domain(),
        };
        let caller = match policy_domain {
            Some(d) => Caller::external(&d),
            None => Caller::inline(),
        };
        let identity = ScriptIdentity {
            caller,
            actor: url.registrable_domain().map(|d| cg_url::intern(&d)),
            actor_url: Arc::from(url.to_string().as_str()),
        };
        let out = (
            identity.caller,
            identity.actor,
            Some(Arc::clone(&identity.actor_url)),
        );
        self.script_identities.insert(url.clone(), identity);
        out
    }

    /// The cached policy caller for `at`'s script.
    fn caller(&mut self, at: &Attribution) -> Caller {
        self.identity(at).0
    }

    fn wall(&self, at: &Attribution) -> i64 {
        self.wall_epoch_ms + at.now_ms as i64
    }

    /// Translates a script-level attribution into the access layer's
    /// operation context for the write paths: policy caller
    /// (CNAME-uncloaked), measured actor + script URL — all served from
    /// the per-script cache — and the two timebases.
    fn ctx(&mut self, at: &Attribution) -> AccessContext {
        let (caller, actor, actor_url) = self.identity(at);
        AccessContext {
            caller,
            actor,
            actor_url,
            now_ms: self.wall(at),
            time_ms: at.now_ms,
        }
    }

    /// Read-path variant of [`Page::ctx`]: read events carry no script
    /// URL, so the shared `Arc` is not even cloned (`document.cookie`
    /// gets are the hottest op of a measurement crawl).
    fn read_ctx(&mut self, at: &Attribution) -> AccessContext {
        let (caller, actor, _) = self.identity(at);
        AccessContext {
            caller,
            actor,
            actor_url: None,
            now_ms: self.wall(at),
            time_ms: at.now_ms,
        }
    }
}

impl Platform for Page<'_> {
    fn site_domain(&self) -> String {
        self.site_domain.clone()
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
        let cookie_header = Url::parse(url).ok().map(|u| {
            self.access
                .cookie_header_for_subresource(&u, &self.site_domain, self.wall(at))
        });
        let sink = self.access.sink();
        let event = RequestEvent::observed(
            sink,
            url,
            kind,
            at.script_url.as_ref(),
            &self.site_domain,
            cookie_header.as_deref(),
            at.now_ms,
        );
        sink.request(event);
    }

    fn resolve_injected_script(&mut self, at: &Attribution, url: &str) -> Option<ScriptExecution> {
        // CSP gates dynamic injection exactly like markup loading: an
        // unlisted host never executes (the tag-manager fan-out gap).
        if let Some(policy) = &self.csp {
            let allowed = Url::parse(url)
                .map(|su| policy.allows_external(&su, &self.url, None))
                .unwrap_or(false);
            if !allowed {
                self.csp_blocked += 1;
                return None;
            }
        }
        let ops = self.injectables.get(url)?;
        // Pages de-duplicate script elements by URL, like tag managers do.
        if !self.executed_urls.insert(url.to_string()) {
            return None;
        }
        let parent = at.script_id.unwrap_or(0);
        let parsed = Url::parse(url).ok()?;
        let id = self
            .doc
            .add_injected_script(ScriptSource::External(parsed.clone()), parent);
        let sink = self.access.sink();
        let inclusion = ScriptInclusion::observed(sink, Some(url), false);
        sink.inclusion(inclusion);
        Some(ScriptExecution {
            script_id: id,
            url: Some(parsed),
            ops: ops.clone(),
        })
    }

    fn dom_insert(&mut self, at: &Attribution, tag: &str) {
        let actor = self.identity(at).1.map(cg_url::name);
        self.doc.insert_script_element(tag, None, actor);
    }

    fn dom_mutate(&mut self, at: &Attribution, kind: DomMutationKind, foreign_target: bool) {
        // Cached identity: no PSL walk or allocation per DOM op.
        let (caller, actor_id, _) = self.identity(at);
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
        let sink = self.access.sink();
        let event = ProbeEvent {
            feature: sink.intern(feature),
            cookie: sink.intern(cookie),
            ok,
            actor: at.script_domain().map(|a| sink.intern(&a)),
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

    fn cookie_change_visible(&mut self, at: &Attribution, name: &str) -> bool {
        if !self.access.is_guarded() {
            return true; // don't derive the caller just to discard it
        }
        let caller = self.caller(at);
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
        for (i, (u, ops)) in scripts.into_iter().enumerate() {
            let exec = page.register_markup_script(u, ops);
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
        let exec = page.register_markup_script(
            Some("https://gtm.com/gtm.js"),
            vec![
                ScriptOp::InjectScript {
                    url: "https://ga.com/a.js".into(),
                },
                ScriptOp::InjectScript {
                    url: "https://ga.com/a.js".into(),
                },
            ],
        );
        el.push_script(exec, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let stats = el.run(&mut page, &mut rng);
        assert_eq!(stats.scripts_injected, 1);
        let log = recorder.finish();
        assert_eq!(log.inclusions.iter().filter(|i| !i.direct).count(), 1);
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
