//! Access-layer equivalence: a scripted visit replayed through the
//! historical interleaved guard/jar/recorder dance and through the new
//! [`cookieguard_core::GuardedJar`] chokepoint must produce
//! **byte-identical** `VisitLog` JSON and jar state.
//!
//! `LegacyPage` below is a faithful copy of the pre-access-layer
//! `Page` implementation (guard checks, jar mutations, and `record_*`
//! calls hand-interleaved at every interception point). It is kept only
//! here, as the regression oracle for the refactor, and can be deleted
//! once the access layer has survived a few releases.

use cg_browser::Page;
use cg_cookiejar::CookieJar;
use cg_dom::{Document, ElementId, ElementMutation, FrameKind, ScriptSource};
use cg_http::parse_set_cookie;
use cg_instrument::{AttrChangeFlags, CookieApi, Recorder, VisitLog, WriteKind};
use cg_script::{
    Attribution, CookieAttrs, CookieChangeNotice, CookieSelection, DomMutationKind, Encoding,
    EventLoop, Platform, ScriptExecution, ScriptOp, SegmentPolicy, ValueSpec,
};
use cg_url::Url;
use cookieguard_core::{Caller, GuardConfig, GuardEngine, GuardSession};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

const EPOCH: i64 = 1_750_000_000_000;

// ---------------------------------------------------------------------
// The old interleaved implementation, verbatim.
// ---------------------------------------------------------------------

struct LegacyPage<'v> {
    url: Url,
    site_domain: String,
    wall_epoch_ms: i64,
    jar: &'v mut CookieJar,
    guard: Option<&'v mut GuardSession>,
    recorder: &'v mut Recorder,
    doc: Document,
    injectables: &'v HashMap<String, Vec<ScriptOp>>,
    executed_urls: HashSet<String>,
    markup_elements: Vec<ElementId>,
    rng: StdRng,
    change_cursor: usize,
}

impl<'v> LegacyPage<'v> {
    fn new(
        url: Url,
        wall_epoch_ms: i64,
        jar: &'v mut CookieJar,
        guard: Option<&'v mut GuardSession>,
        recorder: &'v mut Recorder,
        injectables: &'v HashMap<String, Vec<ScriptOp>>,
        seed: u64,
    ) -> LegacyPage<'v> {
        let site_domain = url
            .registrable_domain()
            .unwrap_or_else(|| url.host_str().into_owned());
        let change_cursor = jar.change_count();
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
        LegacyPage {
            url,
            site_domain,
            wall_epoch_ms,
            jar,
            guard,
            recorder,
            doc,
            injectables,
            executed_urls: HashSet::new(),
            markup_elements,
            rng: StdRng::seed_from_u64(seed ^ 0x00d0_c0de),
            change_cursor,
        }
    }

    fn apply_server_cookies(&mut self, raw_headers: &[String]) {
        for raw in raw_headers {
            let Some(sc) = parse_set_cookie(raw) else {
                continue;
            };
            if self
                .jar
                .set_from_header(&sc, &self.url, self.wall_epoch_ms)
                .is_ok()
            {
                if let Some(g) = self.guard.as_deref_mut() {
                    g.record_http_set_cookie(&sc.name, &self.site_domain.clone());
                }
                if !sc.http_only {
                    self.recorder.record_set_with_lifetime(
                        &sc.name,
                        &sc.value,
                        Some(&self.site_domain.clone()),
                        None,
                        CookieApi::HttpHeader,
                        WriteKind::Create,
                        match (sc.max_age_s, sc.expires_ms) {
                            (Some(ma), _) => Some(ma),
                            (None, Some(e)) => Some((e - self.wall_epoch_ms) / 1000),
                            (None, None) => None,
                        },
                        None,
                        false,
                        0,
                    );
                }
            }
        }
    }

    fn register_markup_script(
        &mut self,
        url: Option<&str>,
        ops: &'v [ScriptOp],
    ) -> ScriptExecution<'v> {
        let source = match url {
            Some(u) => ScriptSource::External(Arc::new(Url::parse(u).expect("script URL"))),
            None => ScriptSource::Inline,
        };
        let id = self.doc.add_direct_script(source.clone());
        self.recorder.record_inclusion(url, true);
        if let Some(u) = url {
            self.executed_urls.insert(u.to_string());
        }
        let parsed = match source {
            ScriptSource::External(u) => Some(u),
            ScriptSource::Inline => None,
        };
        ScriptExecution {
            script_id: id,
            url: parsed,
            ops,
        }
    }

    fn caller(at: &Attribution) -> Caller {
        match at.script_domain() {
            Some(d) => Caller::external(&d),
            None => Caller::inline(),
        }
    }

    fn wall(&self, at: &Attribution) -> i64 {
        self.wall_epoch_ms + at.now_ms as i64
    }

    fn visible_cookies(&mut self, at: &Attribution) -> (Vec<cg_cookiejar::Cookie>, usize) {
        let now = self.wall(at);
        let cookies = self.jar.cookies_for_document(&self.url, now);
        match self.guard.as_deref_mut() {
            Some(g) => {
                let mut view: Vec<&cg_cookiejar::Cookie> = cookies.iter().collect();
                let filtered = g.filter_read(&Self::caller(at), &mut view);
                (view.into_iter().cloned().collect(), filtered)
            }
            None => (cookies, 0),
        }
    }
}

impl<'v> Platform<'v> for LegacyPage<'v> {
    fn site_domain(&self) -> &str {
        &self.site_domain
    }

    fn document_cookie_get(&mut self, at: &Attribution) -> String {
        let (visible, filtered) = self.visible_cookies(at);
        let names: Vec<&str> = visible.iter().map(|c| c.name.as_str()).collect();
        let s = visible
            .iter()
            .map(|c| c.pair())
            .collect::<Vec<_>>()
            .join("; ");
        self.recorder.record_read(
            at.script_domain().as_deref(),
            CookieApi::DocumentCookie,
            &names,
            filtered,
            at.now_ms,
        );
        s
    }

    fn document_cookie_set(&mut self, at: &Attribution, raw: &str) -> bool {
        let Some(sc) = parse_set_cookie(raw) else {
            return false;
        };
        let now = self.wall(at);
        let actor = at.script_domain();
        let actor_url = at.script_url.as_ref().map(|u| u.to_string());
        let caller = Self::caller(at);

        let prior = self
            .jar
            .cookies_for_document(&self.url, now)
            .into_iter()
            .find(|c| c.name == sc.name);
        let expires_abs = match (sc.max_age_s, sc.expires_ms) {
            (Some(ma), _) => Some(now + ma * 1000),
            (None, Some(e)) => Some(e),
            (None, None) => None,
        };
        let is_delete = matches!(expires_abs, Some(e) if e <= now);
        let max_age_s = expires_abs.map(|e| (e - now) / 1000);
        let kind = if is_delete {
            WriteKind::Delete
        } else if prior.is_some() {
            WriteKind::Overwrite
        } else {
            WriteKind::Create
        };

        if let Some(g) = self.guard.as_deref_mut() {
            let decision = if is_delete {
                g.authorize_delete(&caller, &sc.name)
            } else {
                g.authorize_write(&caller, &sc.name)
            };
            if !decision.is_allow() {
                self.recorder.record_set_with_lifetime(
                    &sc.name,
                    &sc.value,
                    actor.as_deref(),
                    actor_url.as_deref(),
                    CookieApi::DocumentCookie,
                    kind,
                    max_age_s,
                    None,
                    true,
                    at.now_ms,
                );
                return false;
            }
        }

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
        let applied = if is_delete {
            self.jar.delete(&sc.name, &self.url, now)
        } else {
            self.jar.set_document_cookie(raw, &self.url, now).is_ok()
        };
        if applied || is_delete {
            self.recorder.record_set_with_lifetime(
                &sc.name,
                &sc.value,
                actor.as_deref(),
                actor_url.as_deref(),
                CookieApi::DocumentCookie,
                kind,
                max_age_s,
                changes,
                false,
                at.now_ms,
            );
        }
        applied
    }

    fn cookie_store_get(&mut self, at: &Attribution, name: &str) -> Option<String> {
        if self.url.scheme != "https" {
            return None;
        }
        let (visible, filtered) = self.visible_cookies(at);
        let found = visible
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value.clone());
        let names: Vec<&str> = found.iter().map(|_| name).collect();
        self.recorder.record_read(
            at.script_domain().as_deref(),
            CookieApi::CookieStore,
            &names,
            filtered.min(1),
            at.now_ms,
        );
        found
    }

    fn cookie_store_get_all(&mut self, at: &Attribution) -> Vec<(String, String)> {
        if self.url.scheme != "https" {
            return Vec::new();
        }
        let (visible, filtered) = self.visible_cookies(at);
        let pairs: Vec<(String, String)> = visible
            .iter()
            .map(|c| (c.name.clone(), c.value.clone()))
            .collect();
        self.recorder.record_read(
            at.script_domain().as_deref(),
            CookieApi::CookieStore,
            &pairs.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
            filtered,
            at.now_ms,
        );
        pairs
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
        let now = self.wall(at);
        let actor = at.script_domain();
        let actor_url = at.script_url.as_ref().map(|u| u.to_string());
        let caller = Self::caller(at);
        let prior_exists = self
            .jar
            .cookies_for_document(&self.url, now)
            .iter()
            .any(|c| c.name == name);
        let kind = if prior_exists {
            WriteKind::Overwrite
        } else {
            WriteKind::Create
        };
        let max_age_s = expires_abs_ms.map(|e| (e - now) / 1000);
        if let Some(g) = self.guard.as_deref_mut() {
            if !g.authorize_write(&caller, name).is_allow() {
                self.recorder.record_set_with_lifetime(
                    name,
                    value,
                    actor.as_deref(),
                    actor_url.as_deref(),
                    CookieApi::CookieStore,
                    kind,
                    max_age_s,
                    None,
                    true,
                    at.now_ms,
                );
                return false;
            }
        }
        let mut raw = format!("{name}={value}; Path=/");
        if let Some(e) = expires_abs_ms {
            raw.push_str(&format!("; Expires=@{e}"));
        }
        let ok = self.jar.set_document_cookie(&raw, &self.url, now).is_ok();
        if ok {
            self.recorder.record_set_with_lifetime(
                name,
                value,
                actor.as_deref(),
                actor_url.as_deref(),
                CookieApi::CookieStore,
                kind,
                max_age_s,
                None,
                false,
                at.now_ms,
            );
        }
        ok
    }

    fn cookie_store_delete(&mut self, at: &Attribution, name: &str) -> bool {
        if self.url.scheme != "https" {
            return false;
        }
        let now = self.wall(at);
        let actor = at.script_domain();
        let actor_url = at.script_url.as_ref().map(|u| u.to_string());
        let caller = Self::caller(at);
        if let Some(g) = self.guard.as_deref_mut() {
            if !g.authorize_delete(&caller, name).is_allow() {
                self.recorder.record_set(
                    name,
                    "",
                    actor.as_deref(),
                    actor_url.as_deref(),
                    CookieApi::CookieStore,
                    WriteKind::Delete,
                    None,
                    true,
                    at.now_ms,
                );
                return false;
            }
        }
        let ok = self.jar.delete(name, &self.url, now);
        if ok {
            self.recorder.record_set(
                name,
                "",
                actor.as_deref(),
                actor_url.as_deref(),
                CookieApi::CookieStore,
                WriteKind::Delete,
                None,
                false,
                at.now_ms,
            );
        }
        ok
    }

    fn send_request(&mut self, at: &Attribution, url: &str, kind: cg_http::RequestKind) {
        let cookie_header = Url::parse(url).ok().map(|u| {
            self.jar
                .cookie_header_for_subresource(&u, &self.site_domain, self.wall(at))
        });
        self.recorder.record_request(
            url,
            kind,
            at.script_url.as_deref(),
            &self.site_domain.clone(),
            cookie_header.as_deref(),
            at.now_ms,
        );
    }

    fn resolve_injected_script(
        &mut self,
        at: &Attribution,
        url: &str,
    ) -> Option<ScriptExecution<'v>> {
        let injectables = self.injectables;
        let ops = injectables.get(url)?;
        if !self.executed_urls.insert(url.to_string()) {
            return None;
        }
        let parent = at.script_id.unwrap_or(0);
        let parsed = Arc::new(Url::parse(url).ok()?);
        let id = self
            .doc
            .add_injected_script(ScriptSource::External(Arc::clone(&parsed)), parent);
        self.recorder.record_inclusion(Some(url), false);
        Some(ScriptExecution {
            script_id: id,
            url: Some(parsed),
            ops,
        })
    }

    fn dom_insert(&mut self, at: &Attribution, tag: &str) {
        let actor = at.script_domain();
        self.doc.insert_script_element(tag, None, actor.as_deref());
    }

    fn dom_mutate(&mut self, at: &Attribution, kind: DomMutationKind, foreign_target: bool) {
        let actor = at.script_domain();
        let target = if foreign_target {
            self.markup_elements[self.rng.gen_range(0..self.markup_elements.len())]
        } else {
            let own = actor
                .as_deref()
                .and_then(|a| self.doc.last_element_owned_by(a));
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
        if self
            .doc
            .mutate_element(target, mutation, actor.as_deref(), "mutated")
        {
            self.recorder
                .record_dom(actor.as_deref(), &owner, &format!("{kind:?}"), false);
        }
    }

    fn probe_result(&mut self, at: &Attribution, feature: &str, cookie: &str, ok: bool) {
        self.recorder
            .record_probe(feature, cookie, ok, at.script_domain().as_deref());
    }

    fn drain_cookie_changes(&mut self) -> Vec<CookieChangeNotice> {
        if self.url.scheme != "https" {
            self.change_cursor = self.jar.change_count();
            return Vec::new();
        }
        let notices = self
            .jar
            .changes_since(self.change_cursor)
            .iter()
            .filter(|c| !c.http_only)
            .map(|c| CookieChangeNotice {
                name: c.name.clone(),
                deleted: c.is_removal(),
            })
            .collect();
        self.change_cursor = self.jar.change_count();
        notices
    }

    fn cookie_change_visible(&mut self, at: &Attribution, name: &str) -> bool {
        match self.guard.as_deref() {
            Some(g) => g.may_observe(&Self::caller(at), name),
            None => true,
        }
    }
}

// ---------------------------------------------------------------------
// The scripted visit, exercising every cookie path.
// ---------------------------------------------------------------------

fn server_cookies() -> Vec<String> {
    vec![
        "session_id=srv-abc123; Path=/; HttpOnly".to_string(),
        "prefs=dark".to_string(),
        "__garbage".to_string(), // unparseable, skipped by both paths
    ]
}

fn injectables() -> HashMap<String, Vec<ScriptOp>> {
    let mut map = HashMap::new();
    map.insert(
        "https://cdn.analytics.example/inner.js".to_string(),
        vec![
            ScriptOp::SetCookie {
                name: "_inner".into(),
                value: ValueSpec::HexId(16),
                attrs: CookieAttrs::default(),
            },
            ScriptOp::ReadAllCookies,
        ],
    );
    map
}

fn scripts() -> Vec<(Option<&'static str>, Vec<ScriptOp>)> {
    vec![
        // The site's own application: sets, reads, uses the CookieStore.
        (
            Some("https://www.shop.example/static/app.js"),
            vec![
                ScriptOp::SetCookie {
                    name: "site_sess".into(),
                    value: ValueSpec::HexId(24),
                    attrs: CookieAttrs {
                        site_wide: true,
                        ..CookieAttrs::default()
                    },
                },
                ScriptOp::CookieStoreSet {
                    name: "pref_theme".into(),
                    value: ValueSpec::Fixed("dark".into()),
                    expires_in_ms: Some(86_400_000),
                },
                ScriptOp::ReadAllCookies,
                ScriptOp::OnCookieChange {
                    watch: Some("_tid".into()),
                    deletions_only: false,
                    ops: vec![ScriptOp::ReadAllCookies],
                },
            ],
        ),
        // A tracker: ghost-writes an identifier, reads, exfiltrates,
        // overwrites a foreign cookie blind, deletes via both APIs.
        (
            Some("https://t.tracker.example/t.js"),
            vec![
                ScriptOp::SetCookie {
                    name: "_tid".into(),
                    value: ValueSpec::FbpStyle,
                    attrs: CookieAttrs::default(),
                },
                ScriptOp::ReadAllCookies,
                ScriptOp::CookieStoreGetAll,
                ScriptOp::OverwriteCookie {
                    target: "site_sess".into(),
                    value: ValueSpec::HexId(24),
                    changes: cg_script::AttrChanges::value_and_expiry(),
                    blind: true,
                },
                ScriptOp::Exfiltrate {
                    dest_host: "px.tracker.example".into(),
                    path: "/sync".into(),
                    selection: CookieSelection::Named(vec!["_tid".into()]),
                    segment: SegmentPolicy::Full,
                    encoding: Encoding::Plain,
                    kind: cg_http::RequestKind::Image,
                    via_store: false,
                },
                ScriptOp::DeleteCookie {
                    target: "_tmp".into(),
                    via_store: false,
                },
            ],
        ),
        // A consent-manager-style vendor: probes, store reads, a
        // cross-domain delete (blocked under the guard), DOM work, and
        // a transitive injection.
        (
            Some("https://cmp.vendor.example/cmp.js"),
            vec![
                ScriptOp::CookieStoreGet {
                    name: "site_sess".into(),
                },
                ScriptOp::DeleteCookie {
                    target: "_tid".into(),
                    via_store: true,
                },
                ScriptOp::Probe {
                    feature: "functionality".into(),
                    cookie: "pref_theme".into(),
                },
                ScriptOp::DomInsert { tag: "div".into() },
                ScriptOp::DomMutate {
                    kind: DomMutationKind::Style,
                    foreign_target: false,
                },
                ScriptOp::InjectScript {
                    url: "https://cdn.analytics.example/inner.js".into(),
                },
                ScriptOp::SendRequest {
                    dest_host: "api.vendor.example".into(),
                    path: "/config".into(),
                    kind: cg_http::RequestKind::Xhr,
                },
            ],
        ),
        // An inline script (origin-less under strict mode).
        (
            None,
            vec![
                ScriptOp::ReadAllCookies,
                ScriptOp::SetCookie {
                    name: "inline_c".into(),
                    value: ValueSpec::HexId(8),
                    attrs: CookieAttrs::default(),
                },
            ],
        ),
    ]
}

/// Runs the scripted visit through the new access-layer [`Page`].
fn run_new(guard: Option<&mut GuardSession>) -> (VisitLog, CookieJar) {
    let url = Url::parse("https://www.shop.example/").unwrap();
    let mut jar = CookieJar::new();
    let mut recorder = Recorder::new("shop.example", 1);
    let inj = injectables();
    let scripts = scripts();
    let mut page = Page::new(url, EPOCH, &mut jar, guard, &mut recorder, &inj, 7);
    page.apply_server_cookies(&server_cookies());
    let mut el = EventLoop::new(EPOCH);
    for (i, (u, ops)) in scripts.iter().enumerate() {
        let exec = page.register_markup_script(*u, ops);
        el.push_script(exec, i as u64 * 25);
    }
    let mut rng = StdRng::seed_from_u64(1234);
    el.run(&mut page, &mut rng);
    drop(page);
    (recorder.finish(), jar)
}

/// Runs the identical visit through the historical interleaved path.
fn run_legacy(guard: Option<&mut GuardSession>) -> (VisitLog, CookieJar) {
    let url = Url::parse("https://www.shop.example/").unwrap();
    let mut jar = CookieJar::new();
    let mut recorder = Recorder::new("shop.example", 1);
    let inj = injectables();
    let scripts = scripts();
    let mut page = LegacyPage::new(url, EPOCH, &mut jar, guard, &mut recorder, &inj, 7);
    page.apply_server_cookies(&server_cookies());
    let mut el = EventLoop::new(EPOCH);
    for (i, (u, ops)) in scripts.iter().enumerate() {
        let exec = page.register_markup_script(*u, ops);
        el.push_script(exec, i as u64 * 25);
    }
    let mut rng = StdRng::seed_from_u64(1234);
    el.run(&mut page, &mut rng);
    drop(page);
    (recorder.finish(), jar)
}

#[test]
fn guarded_visit_is_byte_identical_to_legacy_path() {
    let mut guard_new = GuardEngine::shared(GuardConfig::strict()).session("shop.example");
    let mut guard_old = GuardEngine::shared(GuardConfig::strict()).session("shop.example");
    let (log_new, jar_new) = run_new(Some(&mut guard_new));
    let (log_old, jar_old) = run_legacy(Some(&mut guard_old));

    let json_new = serde_json::to_string(&log_new).unwrap();
    let json_old = serde_json::to_string(&log_old).unwrap();
    assert_eq!(json_new, json_old, "VisitLog JSON must match byte for byte");

    let jar_json_new = serde_json::to_string(&jar_new).unwrap();
    let jar_json_old = serde_json::to_string(&jar_old).unwrap();
    assert_eq!(jar_json_new, jar_json_old, "jar state must match");

    assert_eq!(
        guard_new.stats(),
        guard_old.stats(),
        "guard counters must match"
    );
    // The scenario actually exercised the interesting paths.
    assert!(
        log_new.sets.iter().any(|s| s.blocked),
        "a blocked write occurred"
    );
    assert!(log_new.sets.iter().any(|s| s.api == CookieApi::HttpHeader));
    assert!(log_new.reads.iter().any(|r| r.filtered_count > 0));
    assert!(!log_new.requests.is_empty());
    assert!(!log_new.probes.is_empty());
}

#[test]
fn vanilla_visit_is_byte_identical_to_legacy_path() {
    let (log_new, jar_new) = run_new(None);
    let (log_old, jar_old) = run_legacy(None);
    assert_eq!(
        serde_json::to_string(&log_new).unwrap(),
        serde_json::to_string(&log_old).unwrap(),
        "guard-less VisitLog JSON must match byte for byte"
    );
    assert_eq!(
        serde_json::to_string(&jar_new).unwrap(),
        serde_json::to_string(&jar_old).unwrap(),
        "guard-less jar state must match"
    );
    // Without a guard the tracker's jar-wide read saw the site session.
    assert!(log_new
        .reads
        .iter()
        .any(|r| log_new.names_of(r).any(|n| n == "site_sess")));
}
