//! The shared guard engine: one immutable policy core per deployment.
//!
//! Before this split, every per-visit guard carried its own copy
//! of the [`GuardConfig`] — entity map, whitelist, and all — so a crawl
//! over N sites deep-cloned and re-derived the policy state N times. A
//! [`GuardEngine`] is built **once**, is `Send + Sync`, and is shared
//! behind an [`Arc`] by any number of per-visit
//! [`GuardSession`]s across any number of threads.
//!
//! The engine is the *stateless* half of CookieGuard: configuration and
//! policy decisions. The *stateful* half — the per-site metadata store
//! and counters — lives in [`GuardSession`].
//!
//! # Compiled policy
//!
//! [`GuardEngine::new`] compiles the string-level [`GuardConfig`] into a
//! [`CompiledPolicy`] over interned [`DomainId`]s: the whitelist becomes
//! a `HashSet<DomainId>`, the entity map flattens into a dense
//! `DomainId → EntityId` table ([`cg_entity::CompiledEntityMap`]), and
//! every decision on the hot path ([`CompiledPolicy::check`]) is a chain
//! of integer comparisons — no lowercasing, no string hashing, no
//! allocation. Domain *names* exist only at the boundaries: attribution
//! interns them on the way in; serialization resolves ids back through
//! [`cg_url::name`] on the way out. Ids never appear in wire formats.
//!
//! The pre-compilation string-path decision procedure is retained
//! verbatim (doc-hidden) as a differential-testing oracle; the
//! `policy_oracle` integration test and the `decide` bench hold the two
//! paths equal and the compiled one fast.

use crate::config::{GuardConfig, InlinePolicy};
use crate::guard::GuardSession;
use crate::policy::{AccessDecision, AllowReason, BlockReason, Caller};
use cg_entity::CompiledEntityMap;
use cg_url::DomainId;
use std::collections::HashSet;
use std::sync::Arc;

/// The guard's decision procedure compiled to interned ids — the form
/// every per-operation check runs against.
///
/// Built once per [`GuardEngine`]; immutable afterwards. All lookups are
/// integer-keyed: the whitelist is a `HashSet<DomainId>` (one `u32`
/// hash), entity grouping is two reads of a dense table. **Invariant:**
/// `DomainId`/`EntityId` values are process-local handles and never
/// cross a serialization boundary — wire formats (VisitLog JSON, jar
/// JSON, instrument events) always carry resolved names.
#[derive(Debug)]
pub struct CompiledPolicy {
    inline_policy: InlinePolicy,
    whitelist: HashSet<DomainId>,
    entities: Option<CompiledEntityMap>,
}

impl CompiledPolicy {
    /// Compiles `config`: interns every whitelist entry and flattens the
    /// entity map. The one place strings are touched.
    pub fn compile(config: &GuardConfig) -> CompiledPolicy {
        CompiledPolicy {
            inline_policy: config.inline_policy,
            whitelist: config.whitelist.iter().map(|d| cg_url::intern(d)).collect(),
            entities: config.entity_map.as_ref().map(CompiledEntityMap::compile),
        }
    }

    /// May `caller` access a cookie created by `creator` on a visit to
    /// `site`? Allocation-free: every step is an id comparison.
    ///
    /// `creator == None` means the cookie pre-dates the guard or its
    /// creator was never attributed; such cookies are conservatively
    /// treated as site-owned (only the owner reaches them).
    pub fn check(
        &self,
        site: DomainId,
        caller: &Caller,
        creator: Option<DomainId>,
    ) -> AccessDecision {
        let caller_id = match caller.domain {
            Some(d) => d,
            None => {
                return match self.inline_policy {
                    InlinePolicy::Strict => AccessDecision::Block(BlockReason::InlineStrict),
                    InlinePolicy::Relaxed => AccessDecision::Allow(AllowReason::RelaxedInline),
                }
            }
        };
        if caller_id == site {
            return AccessDecision::Allow(AllowReason::SiteOwner);
        }
        if self.whitelist.contains(&caller_id) {
            return AccessDecision::Allow(AllowReason::Whitelisted);
        }
        // Unattributed cookie: treated as the site's own.
        let creator = creator.unwrap_or(site);
        if caller_id == creator {
            return AccessDecision::Allow(AllowReason::Creator);
        }
        if let Some(ents) = &self.entities {
            // Only group when both domains are actually known to the map;
            // unknown == unknown must not leak (same_entity on the
            // compiled table is already strict about that).
            if ents.same_entity(caller_id, creator) {
                return AccessDecision::Allow(AllowReason::SameEntity);
            }
        }
        AccessDecision::Block(BlockReason::CrossDomain)
    }

    /// May `caller` create a cookie that does not exist yet on a visit
    /// to `site`? Always yes for attributable callers; inline callers
    /// follow the inline policy.
    pub fn check_create(&self, site: DomainId, caller: &Caller) -> AccessDecision {
        match (caller.domain, self.inline_policy) {
            (Some(d), _) if d == site => AccessDecision::Allow(AllowReason::SiteOwner),
            (Some(_), _) => AccessDecision::Allow(AllowReason::NewCookie),
            (None, InlinePolicy::Relaxed) => AccessDecision::Allow(AllowReason::RelaxedInline),
            (None, InlinePolicy::Strict) => AccessDecision::Block(BlockReason::InlineStrict),
        }
    }
}

/// Immutable, shareable policy core: config + compiled policy, built
/// once per deployment.
///
/// Every engine carries a **policy epoch** — a caller-assigned
/// generation number ([`GuardEngine::policy_epoch`]). A standalone
/// engine is generation 0; a serving layer that hot-swaps recompiled
/// policies (see `cg-service`) builds each replacement with
/// [`GuardEngine::with_epoch`] and a strictly increasing epoch, so any
/// session — and any debugging output — can state exactly which policy
/// generation it decided under.
#[derive(Debug)]
pub struct GuardEngine {
    config: GuardConfig,
    compiled: CompiledPolicy,
    policy_epoch: u64,
}

impl GuardEngine {
    /// Compiles a config into an engine. Whitelist entries are
    /// normalized here (lowercased, stray edge dots trimmed — the
    /// interner's normalization, so an operator entry like
    /// `".doubleclick.net"` matches), and the whole config is lowered to
    /// a [`CompiledPolicy`] over interned ids, so the per-access checks
    /// are pure integer lookups. The engine is policy generation 0; use
    /// [`GuardEngine::with_epoch`] when compiling a replacement policy.
    pub fn new(config: GuardConfig) -> GuardEngine {
        GuardEngine::with_epoch(config, 0)
    }

    /// Compiles a config into an engine stamped with policy generation
    /// `epoch`. Epochs are assigned by whoever owns the swap protocol
    /// (monotonically increasing per deployment slot); the engine itself
    /// only records the number.
    pub fn with_epoch(config: GuardConfig, epoch: u64) -> GuardEngine {
        let mut config = config;
        config.whitelist = config
            .whitelist
            .iter()
            .map(|d| d.trim_matches('.').to_ascii_lowercase())
            .collect();
        let compiled = CompiledPolicy::compile(&config);
        GuardEngine {
            config,
            compiled,
            policy_epoch: epoch,
        }
    }

    /// The policy generation this engine was compiled as. Monotonically
    /// increasing across hot-swaps of one deployment slot; 0 for
    /// standalone engines.
    pub fn policy_epoch(&self) -> u64 {
        self.policy_epoch
    }

    /// Convenience: a ready-to-share engine.
    pub fn shared(config: GuardConfig) -> Arc<GuardEngine> {
        Arc::new(GuardEngine::new(config))
    }

    /// The active configuration (string form; the compiled form is
    /// [`GuardEngine::compiled`]).
    pub fn config(&self) -> &GuardConfig {
        &self.config
    }

    /// The id-compiled decision procedure — what sessions and the access
    /// layer consult per operation.
    pub fn compiled(&self) -> &CompiledPolicy {
        &self.compiled
    }

    /// Opens a cheap per-visit session for a top-level page on
    /// `site_domain`, sharing this engine. The site domain is interned
    /// here, once per visit.
    pub fn session(self: &Arc<Self>, site_domain: &str) -> GuardSession {
        GuardSession::new(Arc::clone(self), site_domain)
    }

    /// String-boundary form of [`CompiledPolicy::check`]: interns `site`
    /// and `creator` and delegates. Convenient for tests and probing
    /// tools; hot paths resolve ids once and call the compiled form.
    pub fn check(
        &self,
        site_domain: &str,
        caller: &Caller,
        creator: Option<&str>,
    ) -> AccessDecision {
        self.compiled.check(
            cg_url::intern(site_domain),
            caller,
            creator.map(cg_url::intern),
        )
    }

    /// String-boundary form of [`CompiledPolicy::check_create`].
    pub fn check_create(&self, site_domain: &str, caller: &Caller) -> AccessDecision {
        self.compiled
            .check_create(cg_url::intern(site_domain), caller)
    }

    /// The pre-compilation string-path decision procedure, kept as the
    /// differential-testing oracle for [`CompiledPolicy::check`]: the
    /// decision logic is verbatim; the entry normalization applies the
    /// interner's rule (lowercase + stray edge dots trimmed) to every
    /// input so both paths see the same domain space — a raw-string
    /// `".Site.COM."` and the id for `site.com` must decide alike. Not
    /// part of the public API.
    #[doc(hidden)]
    pub fn check_str_oracle(
        &self,
        site_domain: &str,
        caller_domain: Option<&str>,
        creator: Option<&str>,
    ) -> AccessDecision {
        let caller_domain = match caller_domain {
            Some(d) => d.trim_matches('.').to_ascii_lowercase(),
            None => {
                return match self.config.inline_policy {
                    InlinePolicy::Strict => AccessDecision::Block(BlockReason::InlineStrict),
                    InlinePolicy::Relaxed => AccessDecision::Allow(AllowReason::RelaxedInline),
                }
            }
        };
        let site_domain = site_domain.trim_matches('.').to_ascii_lowercase();
        if caller_domain.eq_ignore_ascii_case(&site_domain) {
            return AccessDecision::Allow(AllowReason::SiteOwner);
        }
        if self.config.whitelist.contains(&caller_domain) {
            return AccessDecision::Allow(AllowReason::Whitelisted);
        }
        let creator = creator.map(|c| c.trim_matches('.').to_ascii_lowercase());
        let creator = match &creator {
            Some(c) => c.as_str(),
            None => site_domain.as_str(),
        };
        if caller_domain.eq_ignore_ascii_case(creator) {
            return AccessDecision::Allow(AllowReason::Creator);
        }
        if let Some(map) = &self.config.entity_map {
            if map.contains(&caller_domain)
                && map.contains(creator)
                && map.same_entity(&caller_domain, creator)
            {
                return AccessDecision::Allow(AllowReason::SameEntity);
            }
        }
        AccessDecision::Block(BlockReason::CrossDomain)
    }

    /// String-path oracle for [`CompiledPolicy::check_create`]; see
    /// [`GuardEngine::check_str_oracle`].
    #[doc(hidden)]
    pub fn check_create_str_oracle(
        &self,
        site_domain: &str,
        caller_domain: Option<&str>,
    ) -> AccessDecision {
        let site_domain = site_domain.trim_matches('.');
        match (
            caller_domain.map(|d| d.trim_matches('.')),
            self.config.inline_policy,
        ) {
            (Some(d), _) if d.eq_ignore_ascii_case(site_domain) => {
                AccessDecision::Allow(AllowReason::SiteOwner)
            }
            (Some(_), _) => AccessDecision::Allow(AllowReason::NewCookie),
            (None, InlinePolicy::Relaxed) => AccessDecision::Allow(AllowReason::RelaxedInline),
            (None, InlinePolicy::Strict) => AccessDecision::Block(BlockReason::InlineStrict),
        }
    }
}

// The engine is shared across crawler threads; its state is immutable
// after construction, so these bounds must hold by composition. The
// assertions keep that contract explicit at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<GuardEngine>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whitelist_normalized_at_build_time() {
        let mut config = GuardConfig::strict();
        config.whitelist.insert("MiXeD.Example".to_string());
        let engine = GuardEngine::new(config);
        assert!(engine.config().whitelist.contains("mixed.example"));
        assert!(engine
            .check(
                "site.com",
                &Caller::external("mixed.example"),
                Some("other.com")
            )
            .is_allow());
    }

    #[test]
    fn policy_epoch_is_recorded_and_pinned_by_sessions() {
        let e0 = GuardEngine::shared(GuardConfig::strict());
        assert_eq!(e0.policy_epoch(), 0);
        let e7 = Arc::new(GuardEngine::with_epoch(GuardConfig::strict(), 7));
        assert_eq!(e7.policy_epoch(), 7);
        let s = e7.session("site.com");
        assert_eq!(s.policy_epoch(), 7);
        // The session's epoch is a property of the engine it opened on,
        // not of any later engine.
        drop(e7);
        assert_eq!(s.policy_epoch(), 7);
    }

    #[test]
    fn one_engine_serves_many_sites() {
        let engine = GuardEngine::shared(GuardConfig::strict());
        // Same engine, different site context, different verdicts.
        let caller = Caller::external("shop.example");
        assert!(engine
            .check("shop.example", &caller, Some("anyone.net"))
            .is_allow());
        assert!(!engine
            .check("news.example", &caller, Some("anyone.net"))
            .is_allow());
    }

    #[test]
    fn sessions_share_without_cloning_config() {
        let engine = GuardEngine::shared(GuardConfig::strict());
        let a = engine.session("a.com");
        let b = engine.session("b.com");
        assert!(
            Arc::ptr_eq(a.engine(), b.engine()),
            "sessions must share one engine"
        );
        assert_eq!(Arc::strong_count(&engine), 3);
    }

    #[test]
    fn compiled_check_runs_on_ids() {
        let engine = GuardEngine::new(
            GuardConfig::strict()
                .with_whitelisted("partner.io")
                .with_entity_grouping(cg_entity::builtin_entity_map()),
        );
        let site = cg_url::intern("site.com");
        let compiled = engine.compiled();
        assert_eq!(
            compiled.check(site, &Caller::external("site.com"), None),
            AccessDecision::Allow(AllowReason::SiteOwner)
        );
        assert_eq!(
            compiled.check(
                site,
                &Caller::external("partner.io"),
                Some(cg_url::intern("anyone.net"))
            ),
            AccessDecision::Allow(AllowReason::Whitelisted)
        );
        assert_eq!(
            compiled.check(
                site,
                &Caller::external("fbcdn.net"),
                Some(cg_url::intern("facebook.net"))
            ),
            AccessDecision::Allow(AllowReason::SameEntity)
        );
        assert_eq!(
            compiled.check(
                site,
                &Caller::external("stranger.net"),
                Some(cg_url::intern("tracker.com"))
            ),
            AccessDecision::Block(BlockReason::CrossDomain)
        );
    }
}
