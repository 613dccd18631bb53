//! The CookieGuard runtime: metadata + policy at the interception points.
//!
//! A [`GuardSession`] is the cheap, per-visit state: a metadata store
//! and stats counters bound to one top-level site, borrowing all policy
//! decisions from a shared [`GuardEngine`] (see [`crate::engine`]).
//! Open one with [`GuardEngine::session`] (or [`GuardSession::new`]);
//! a standalone guard is `GuardEngine::shared(config).session(site)`.

use crate::engine::{CompiledPolicy, GuardEngine};
use crate::metadata::{CookieOrigin, MetadataStore, OwnershipRecord};
use crate::policy::{AccessDecision, Caller};
use cg_cookiejar::Cookie;
use cg_url::DomainId;
use serde::{Deserialize, Serialize};
use std::ops::ControlFlow;
use std::sync::Arc;

/// Counters for everything the guard blocked or allowed — the raw
/// numbers behind the Figure 5 evaluation and the policy ablation
/// (`cg-experiments --exp ablation`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GuardStats {
    /// Cookies hidden from `document.cookie` / `cookieStore` reads.
    pub cookies_filtered: u64,
    /// Read operations that had at least one cookie filtered.
    pub reads_filtered: u64,
    /// Write operations blocked (overwrites of foreign cookies).
    pub writes_blocked: u64,
    /// Delete operations blocked.
    pub deletes_blocked: u64,
    /// Writes allowed (new cookies or authorized overwrites).
    pub writes_allowed: u64,
    /// Reads that passed through unfiltered.
    pub reads_clean: u64,
}

impl GuardStats {
    /// Element-wise sum — used when aggregating per-visit sessions into
    /// crawl- or deployment-level totals.
    pub fn merge(&self, other: &GuardStats) -> GuardStats {
        GuardStats {
            cookies_filtered: self.cookies_filtered + other.cookies_filtered,
            reads_filtered: self.reads_filtered + other.reads_filtered,
            writes_blocked: self.writes_blocked + other.writes_blocked,
            deletes_blocked: self.deletes_blocked + other.deletes_blocked,
            writes_allowed: self.writes_allowed + other.writes_allowed,
            reads_clean: self.reads_clean + other.reads_clean,
        }
    }
}

/// Per-visit guard state: one session per top-level page visit, like the
/// extension's per-tab state. Policy and entity data live in the shared
/// [`GuardEngine`]; the session only owns the metadata store and stats.
///
/// The site domain is interned to a [`DomainId`] when the session opens;
/// every enforcement decision below runs on the engine's
/// [`CompiledPolicy`] with ids on both sides — no per-operation string
/// normalization or allocation, and one FNV probe of the metadata store
/// per cookie name.
#[derive(Debug, Clone)]
pub struct GuardSession {
    engine: Arc<GuardEngine>,
    site_id: DomainId,
    /// The engine's policy generation when this session opened. A
    /// session pins its engine `Arc` for its whole life, so every
    /// decision it makes runs under exactly this epoch — the invariant
    /// the hot-swap drain proof in `cg-service` relies on.
    opened_epoch: u64,
    metadata: MetadataStore,
    stats: GuardStats,
}

impl GuardSession {
    /// Opens a session for a visit to `site_domain` on a shared engine.
    /// The site domain is interned here, once per visit, and the
    /// engine's policy epoch is recorded as the session's pinned
    /// generation.
    pub fn new(engine: Arc<GuardEngine>, site_domain: &str) -> GuardSession {
        let opened_epoch = engine.policy_epoch();
        GuardSession {
            engine,
            site_id: cg_url::intern(site_domain),
            opened_epoch,
            metadata: MetadataStore::new(),
            stats: GuardStats::default(),
        }
    }

    /// The shared policy engine.
    pub fn engine(&self) -> &Arc<GuardEngine> {
        &self.engine
    }

    /// The policy generation this session opened under (and therefore
    /// decides under — the session never re-reads a swapped slot).
    pub fn policy_epoch(&self) -> u64 {
        self.opened_epoch
    }

    /// The guarded site (normalized form).
    pub fn site_domain(&self) -> &str {
        cg_url::name(self.site_id)
    }

    /// The guarded site's interned id.
    pub fn site_id(&self) -> DomainId {
        self.site_id
    }

    /// Read access to the accumulated statistics.
    pub fn stats(&self) -> GuardStats {
        self.stats
    }

    /// Read access to the metadata store (forensics / tests).
    pub fn metadata(&self) -> &MetadataStore {
        &self.metadata
    }

    // ------------------------------------------------------------------
    // Creation-event bookkeeping (the "set" paths of Figure 3)
    // ------------------------------------------------------------------

    /// Records an HTTP `Set-Cookie` observed on a response from
    /// `response_domain` (eTLD+1). Mirrors `background.js` watching
    /// `webRequest.onHeadersReceived`.
    pub fn record_http_set_cookie(&mut self, name: &str, response_domain: &str) {
        self.metadata
            .record(name, Some(response_domain), CookieOrigin::HttpHeader);
    }

    /// Admits a cookie that existed before the guard attached under the
    /// §8 migration policy: it stays fully visible (legacy behaviour)
    /// until an authorized write re-attributes it to a creator. This is
    /// the ITP-style "grandfathering" easing staged deployment.
    pub fn grandfather(&mut self, name: &str) {
        if !self.metadata.knows(name) {
            self.metadata.record_grandfathered(name);
        }
    }

    // ------------------------------------------------------------------
    // Enforcement (the "get"/"set" interception of cookieGuard.js)
    // ------------------------------------------------------------------

    /// The visibility test of one read by `caller`, for each cookie name
    /// it presents. The caller's verdict is decided once: an allowed
    /// caller (site owner, whitelisted, relaxed inline) sees every name
    /// without a metadata lookup, a blocked one (strict inline) only the
    /// grandfathered names, and any other caller pays one metadata probe
    /// and the creator tail per name. Grandfathered cookies keep legacy
    /// full visibility.
    fn read_filter(&self, caller: &Caller) -> ReadFilter<'_> {
        let compiled = self.engine.compiled();
        ReadFilter {
            verdict: compiled.caller_verdict(self.site_id, caller),
            compiled,
            metadata: &self.metadata,
            site: self.site_id,
        }
    }

    /// Counts one read that withheld `withheld` of its cookies.
    fn count_read(&mut self, withheld: usize) {
        if withheld > 0 {
            self.stats.reads_filtered += 1;
            self.stats.cookies_filtered += withheld as u64;
        } else {
            self.stats.reads_clean += 1;
        }
    }

    /// Non-mutating visibility check: may `caller` observe cookie
    /// `name`? Used to filter CookieStore `change` events — a script must
    /// not learn about changes to cookies it could not read (otherwise a
    /// respawning tracker could watch for a consent manager deleting
    /// foreign identifiers).
    pub fn may_observe(&self, caller: &Caller, name: &str) -> bool {
        self.read_filter(caller).keeps(name)
    }

    /// Filters a `document.cookie` / `cookieStore.getAll` view for
    /// `caller` in place: only cookies whose recorded creator the caller
    /// may access stay, in their order. Returns how many were withheld.
    /// Nothing is copied: the view borrows the jar's cookies.
    pub fn filter_read(&mut self, caller: &Caller, view: &mut Vec<&Cookie>) -> usize {
        let before = view.len();
        let filter = self.read_filter(caller);
        view.retain(|c| filter.keeps(&c.name));
        let withheld = before - view.len();
        self.count_read(withheld);
        withheld
    }

    /// Name-only variant of [`GuardSession::filter_read`] for callers
    /// that work with cookie names (the service, tests, policy probing).
    /// Borrows the input names and returns the visible subset as
    /// borrowed slices in one allocation — no cloning.
    pub fn filter_names<'n>(&mut self, caller: &Caller, names: &[&'n str]) -> Vec<&'n str> {
        let filter = self.read_filter(caller);
        let mut visible = Vec::with_capacity(names.len());
        visible.extend(names.iter().copied().filter(|n| filter.keeps(n)));
        self.count_read(names.len() - visible.len());
        visible
    }

    /// Authorizes a write (create or overwrite) of cookie `name` by
    /// `caller`. On success the metadata records the caller as creator
    /// (for new cookies) or keeps/moves ownership per policy.
    pub fn authorize_write(&mut self, caller: &Caller, name: &str) -> AccessDecision {
        let record = self.metadata.lookup(name);
        let grandfathered = matches!(
            record,
            Some(OwnershipRecord {
                origin: CookieOrigin::Grandfathered,
                ..
            })
        );
        let compiled = self.engine.compiled();
        let decision = match record {
            // Legacy cookie: any writer may claim it (relearning phase).
            _ if grandfathered => compiled.check_create(self.site_id, caller),
            Some(r) => compiled.check(self.site_id, caller, r.creator),
            None => compiled.check_create(self.site_id, caller),
        };
        if decision.is_allow() {
            self.stats.writes_allowed += 1;
            if grandfathered || record.is_none() {
                // New (or relearned) cookie: ownership goes to the
                // (attributed) caller; inline-relaxed writes are owned by
                // the site.
                let creator = caller.domain.unwrap_or(self.site_id);
                self.metadata
                    .record_id(name, Some(creator), CookieOrigin::DocumentCookie);
            }
        } else {
            self.stats.writes_blocked += 1;
        }
        decision
    }

    /// Authorizes a deletion of cookie `name` by `caller`; on success the
    /// metadata forgets the cookie.
    pub fn authorize_delete(&mut self, caller: &Caller, name: &str) -> AccessDecision {
        let compiled = self.engine.compiled();
        let decision = match self.metadata.lookup(name) {
            // Legacy cookie: deletable by anyone (pre-guard behaviour).
            Some(OwnershipRecord {
                origin: CookieOrigin::Grandfathered,
                ..
            }) => compiled.check_create(self.site_id, caller),
            Some(r) => compiled.check(self.site_id, caller, r.creator),
            // Deleting a cookie the guard never saw: treat like touching
            // an unattributed (site-owned) cookie.
            None => compiled.check(self.site_id, caller, None),
        };
        if decision.is_allow() {
            self.metadata.forget(name);
        } else {
            self.stats.deletes_blocked += 1;
        }
        decision
    }
}

/// One read's visibility test: the caller's verdict, decided once, and
/// what the per-name tail needs. Built by [`GuardSession::read_filter`].
struct ReadFilter<'s> {
    verdict: ControlFlow<AccessDecision, DomainId>,
    compiled: &'s CompiledPolicy,
    metadata: &'s MetadataStore,
    site: DomainId,
}

impl ReadFilter<'_> {
    /// Whether the read keeps cookie `name`.
    #[inline]
    fn keeps(&self, name: &str) -> bool {
        match self.verdict {
            ControlFlow::Break(AccessDecision::Allow(_)) => true,
            ControlFlow::Break(AccessDecision::Block(_)) => self.metadata.is_grandfathered(name),
            ControlFlow::Continue(caller) => match self.metadata.lookup(name) {
                Some(OwnershipRecord {
                    origin: CookieOrigin::Grandfathered,
                    ..
                }) => true,
                record => self
                    .compiled
                    .creator_verdict(self.site, caller, record.and_then(|r| r.creator))
                    .is_allow(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GuardConfig;
    use cg_cookiejar::CookieJar;
    use cg_url::Url;

    fn jar_cookies(names: &[&str]) -> Vec<Cookie> {
        let url = Url::parse("https://site.com/").unwrap();
        let mut jar = CookieJar::new();
        for (i, n) in names.iter().enumerate() {
            jar.set_document_cookie(&format!("{n}=v{i}"), &url, i as i64)
                .unwrap();
        }
        jar.cookies_for_document(&url, 100)
    }

    /// [`GuardSession::filter_read`] over a borrowed view of `cookies`:
    /// the names `caller` may see.
    fn visible<'c>(g: &mut GuardSession, caller: &Caller, cookies: &'c [Cookie]) -> Vec<&'c str> {
        let mut view: Vec<&Cookie> = cookies.iter().collect();
        g.filter_read(caller, &mut view);
        view.iter().map(|c| c.name.as_str()).collect()
    }

    fn guard() -> GuardSession {
        GuardEngine::shared(GuardConfig::strict()).session("site.com")
    }

    #[test]
    fn figure3_scenario() {
        // Reproduces the walkthrough of Figure 3.
        let mut g = guard();
        // 1. server at site.com sets c0 via Set-Cookie.
        g.record_http_set_cookie("c0", "site.com");
        // 2. site.com script sets c1.
        assert!(g
            .authorize_write(&Caller::external("site.com"), "c1")
            .is_allow());
        // 3. ad.com script sets c2.
        assert!(g
            .authorize_write(&Caller::external("ad.com"), "c2")
            .is_allow());

        let cookies = jar_cookies(&["c0", "c1", "c2"]);
        // 4. ad.com reads: sees only c2.
        let ad_view = visible(&mut g, &Caller::external("ad.com"), &cookies);
        assert_eq!(ad_view, vec!["c2"]);
        // 5. site.com reads: sees everything.
        let owner_view = visible(&mut g, &Caller::external("site.com"), &cookies);
        assert_eq!(owner_view.len(), 3);
    }

    #[test]
    fn cross_domain_overwrite_blocked_and_counted() {
        let mut g = guard();
        g.authorize_write(&Caller::external("facebook.net"), "_fbp");
        let d = g.authorize_write(&Caller::external("pubmatic.com"), "_fbp");
        assert!(!d.is_allow());
        assert_eq!(g.stats().writes_blocked, 1);
        // Ownership unchanged.
        assert_eq!(g.metadata().creator("_fbp"), Some("facebook.net"));
    }

    #[test]
    fn authorized_delete_forgets_ownership() {
        let mut g = guard();
        g.authorize_write(&Caller::external("tracker.com"), "tmp");
        assert!(g
            .authorize_delete(&Caller::external("tracker.com"), "tmp")
            .is_allow());
        assert!(!g.metadata().knows("tmp"));
        // A different party can now claim the name.
        assert!(g
            .authorize_write(&Caller::external("other.com"), "tmp")
            .is_allow());
        assert_eq!(g.metadata().creator("tmp"), Some("other.com"));
    }

    #[test]
    fn cross_domain_delete_blocked() {
        let mut g = guard();
        g.authorize_write(&Caller::external("bing.com"), "_uetvid");
        assert!(!g
            .authorize_delete(&Caller::external("cookie-script.com"), "_uetvid")
            .is_allow());
        assert_eq!(g.stats().deletes_blocked, 1);
        assert!(g.metadata().knows("_uetvid"));
    }

    #[test]
    fn stats_track_filtering() {
        let mut g = guard();
        g.authorize_write(&Caller::external("a.com"), "ca");
        g.authorize_write(&Caller::external("b.com"), "cb");
        let cookies = jar_cookies(&["ca", "cb"]);
        visible(&mut g, &Caller::external("a.com"), &cookies);
        assert_eq!(g.stats().reads_filtered, 1);
        assert_eq!(g.stats().cookies_filtered, 1);
        visible(&mut g, &Caller::external("site.com"), &cookies);
        assert_eq!(g.stats().reads_clean, 1);
    }

    #[test]
    fn http_cookie_ownership_enforced() {
        let mut g = guard();
        // A CDN response sets a cookie; its domain owns it.
        g.record_http_set_cookie("cdn_pref", "cdn-provider.net");
        let cookies = jar_cookies(&["cdn_pref"]);
        assert!(visible(&mut g, &Caller::external("tracker.com"), &cookies).is_empty());
        assert_eq!(
            visible(&mut g, &Caller::external("cdn-provider.net"), &cookies).len(),
            1
        );
    }

    #[test]
    fn inline_strict_blocked_everywhere() {
        let mut g = guard();
        assert!(!g.authorize_write(&Caller::inline(), "x").is_allow());
        g.authorize_write(&Caller::external("a.com"), "y");
        assert!(visible(&mut g, &Caller::inline(), &jar_cookies(&["y"])).is_empty());
    }

    #[test]
    fn relaxed_inline_acts_as_first_party() {
        let mut g = GuardEngine::shared(GuardConfig::relaxed()).session("site.com");
        assert!(g.authorize_write(&Caller::inline(), "pref").is_allow());
        // Ownership recorded to the site.
        assert_eq!(g.metadata().creator("pref"), Some("site.com"));
        assert_eq!(
            visible(&mut g, &Caller::inline(), &jar_cookies(&["pref"])).len(),
            1
        );
    }

    // ------------------------------------------------------------------
    // Grandfathering (§8 staged deployment)
    // ------------------------------------------------------------------

    #[test]
    fn grandfathered_cookies_keep_legacy_visibility() {
        let mut g = guard();
        g.grandfather("_legacy");
        // Everyone can still read it, as before the guard shipped.
        assert_eq!(
            visible(
                &mut g,
                &Caller::external("anyone.net"),
                &jar_cookies(&["_legacy"])
            )
            .len(),
            1
        );
        assert!(g.may_observe(&Caller::external("anyone.net"), "_legacy"));
    }

    #[test]
    fn grandfathered_cookie_relearned_on_write() {
        let mut g = guard();
        g.grandfather("_tid");
        // The tracker refreshes its identifier: ownership is relearned.
        assert!(g
            .authorize_write(&Caller::external("tracker.com"), "_tid")
            .is_allow());
        assert_eq!(g.metadata().creator("_tid"), Some("tracker.com"));
        // From now on isolation applies.
        assert!(visible(
            &mut g,
            &Caller::external("other.com"),
            &jar_cookies(&["_tid"])
        )
        .is_empty());
        assert!(!g
            .authorize_write(&Caller::external("other.com"), "_tid")
            .is_allow());
    }

    #[test]
    fn grandfather_does_not_override_known_creators() {
        let mut g = guard();
        g.authorize_write(&Caller::external("a.com"), "c");
        g.grandfather("c"); // no-op: creator already known
        assert_eq!(g.metadata().creator("c"), Some("a.com"));
        assert!(visible(&mut g, &Caller::external("b.com"), &jar_cookies(&["c"])).is_empty());
    }

    #[test]
    fn grandfathered_cookie_deletable_by_anyone() {
        let mut g = guard();
        g.grandfather("stale");
        assert!(g
            .authorize_delete(&Caller::external("consent.io"), "stale")
            .is_allow());
        assert!(!g.metadata().knows("stale"));
    }

    // ------------------------------------------------------------------
    // Engine/session split
    // ------------------------------------------------------------------

    #[test]
    fn sessions_share_policy_across_visits() {
        let engine = GuardEngine::shared(GuardConfig::strict().with_whitelisted("partner.io"));
        let mut site_a = GuardSession::new(Arc::clone(&engine), "a.com");
        let mut site_b = GuardSession::new(Arc::clone(&engine), "b.com");
        // Policy (whitelist) comes from the shared engine…
        site_a.authorize_write(&Caller::external("x.net"), "c");
        site_b.authorize_write(&Caller::external("y.net"), "c");
        assert!(site_a.may_observe(&Caller::external("partner.io"), "c"));
        assert!(site_b.may_observe(&Caller::external("partner.io"), "c"));
        // …while metadata stays per-session.
        assert_eq!(site_a.metadata().creator("c"), Some("x.net"));
        assert_eq!(site_b.metadata().creator("c"), Some("y.net"));
        assert!(Arc::ptr_eq(site_a.engine(), site_b.engine()));
    }

    #[test]
    fn stats_merge_adds_elementwise() {
        let a = GuardStats {
            cookies_filtered: 3,
            reads_filtered: 2,
            writes_blocked: 1,
            ..Default::default()
        };
        let b = GuardStats {
            cookies_filtered: 4,
            writes_allowed: 7,
            reads_clean: 5,
            ..Default::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.cookies_filtered, 7);
        assert_eq!(m.reads_filtered, 2);
        assert_eq!(m.writes_blocked, 1);
        assert_eq!(m.writes_allowed, 7);
        assert_eq!(m.reads_clean, 5);
    }
}
