//! **CookieGuard** — per-script-domain isolation of the first-party cookie
//! jar. This crate is the paper's primary contribution (§6).
//!
//! # What it does
//!
//! Browsers treat every cookie in the main frame's jar as first-party,
//! no matter which script created it; any script in the main frame can
//! read, overwrite, delete, or exfiltrate any of them. CookieGuard closes
//! that gap with an ownership model:
//!
//! * a [`MetadataStore`] records, for every cookie, the eTLD+1 of the
//!   script or server that created it (updated on `document.cookie`
//!   writes, `cookieStore.set`, and HTTP `Set-Cookie`);
//! * a [`GuardEngine`] decides, for every access, whether the calling
//!   script's domain may see or modify a given cookie. The engine is
//!   immutable, `Send + Sync`, compiled **once per deployment**, and
//!   shared behind an `Arc` by every visit;
//! * a [`GuardSession`] is the cheap per-visit state (metadata + stats)
//!   bound to one top-level site on a shared engine, and enforces at the
//!   same interception points the measurement instruments. Open one with
//!   [`GuardEngine::session`]; `GuardEngine::shared(config).session(site)`
//!   is a self-contained guard.
//! * [`GuardedJar`] is the **access layer**: the one sanctioned API
//!   through which runtime code reads and mutates the jar. It fuses
//!   policy check, storage mutation, and instrument-event emission so
//!   no caller re-implements that sequence (see [`access`]).
//!
//! # Policy (paper §6.1)
//!
//! * A script may always access cookies **its own domain created**.
//! * Scripts from the **site owner's domain** get the full jar
//!   (functionality preservation: carts, preferences, sessions).
//! * **Inline scripts** have no reliable origin. In [`InlinePolicy::Strict`]
//!   they see nothing (safe-by-default; used in the paper's evaluation);
//!   in [`InlinePolicy::Relaxed`] they are treated as first-party.
//! * With **entity grouping** enabled, domains of the same organization
//!   (e.g. `facebook.net` and `fbcdn.net`) share access — the whitelist
//!   refinement that reduces breakage from 11% to 3% (§7.2).
//!
//! # Example
//!
//! ```
//! use cookieguard_core::{Caller, GuardConfig, GuardEngine};
//!
//! let mut guard = GuardEngine::shared(GuardConfig::strict()).session("shop.example");
//!
//! // tracker.com's script creates a cookie: recorded as its creator.
//! let tracker = Caller::external("tracker.com");
//! assert!(guard.authorize_write(&tracker, "_tid").is_allow());
//!
//! // A different third party cannot see or touch it…
//! let other = Caller::external("ads.example.net");
//! let visible = guard.filter_names(&other, &["_tid"]);
//! assert!(visible.is_empty());
//! assert!(!guard.authorize_write(&other, "_tid").is_allow());
//!
//! // …but the site owner can.
//! let owner = Caller::external("shop.example");
//! assert_eq!(guard.filter_names(&owner, &["_tid"]).len(), 1);
//! ```
//!
//! # Compiled policy
//!
//! All of the above runs on interned ids internally: [`GuardEngine::new`]
//! lowers the config to a [`CompiledPolicy`] (whitelist as a sorted
//! `Box<[DomainId]>`, entity map as a dense `DomainId → EntityId`
//! table), sessions intern their site domain once, and callers carry a
//! pre-resolved [`cg_url::DomainId`] — so the per-operation decision is
//! a handful of integer comparisons with zero allocation. A read decides
//! its caller once and then pays one FNV probe of the metadata store
//! per cookie name. Ids live only in memory: every serde boundary
//! resolves them back to names.
//!
//! **Layer:** policy (pure decisions + per-visit state; no I/O).
//! **Invariants:** `GuardEngine` is immutable and `Send + Sync`;
//! decisions run entirely on interned ids with zero allocation; ids
//! never serialize. **Entry points:** `GuardEngine`/`GuardSession` and
//! `GuardedJar` — the single sanctioned access layer for every cookie
//! operation.

#![warn(missing_docs)]

pub mod access;
pub mod config;
pub mod deployment;
pub mod engine;
pub mod guard;
pub mod metadata;
pub mod policy;

pub use access::{AccessContext, GuardedJar, Outcome, SetRequest};
pub use config::{GuardConfig, InlinePolicy};
pub use deployment::{DeploymentStage, PrivacyPreset};
pub use engine::{CompiledPolicy, GuardEngine};
pub use guard::{GuardSession, GuardStats};
pub use metadata::{CookieOrigin, MetadataStore, NameId, OwnershipRecord};
pub use policy::{AccessDecision, AllowReason, BlockReason, Caller};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn domain_strategy() -> impl Strategy<Value = String> {
        prop::sample::select(vec![
            "site.com".to_string(),
            "tracker.com".to_string(),
            "ads.net".to_string(),
            "facebook.net".to_string(),
            "fbcdn.net".to_string(),
            "cdn.io".to_string(),
        ])
    }

    proptest! {
        /// Invariant 1: a third-party script never observes a cookie
        /// created by a different eTLD+1 (strict mode, no grouping).
        #[test]
        fn no_cross_domain_visibility(creator in domain_strategy(), reader in domain_strategy()) {
            let mut guard = GuardEngine::shared(GuardConfig::strict()).session("site.com");
            guard.authorize_write(&Caller::external(&creator), "c");
            let visible = guard.filter_names(&Caller::external(&reader), &["c"]);
            let allowed = reader == creator || reader == "site.com";
            prop_assert_eq!(!visible.is_empty(), allowed);
        }

        /// Invariant 2: the site owner always sees the full jar.
        #[test]
        fn site_owner_sees_everything(creators in proptest::collection::vec(domain_strategy(), 1..8)) {
            let mut guard = GuardEngine::shared(GuardConfig::strict()).session("site.com");
            let names: Vec<String> = creators.iter().enumerate().map(|(i, c)| {
                let name = format!("c{}", i);
                guard.authorize_write(&Caller::external(c), &name);
                name
            }).collect();
            let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let owner = Caller::external("site.com");
            prop_assert_eq!(guard.filter_names(&owner, &name_refs).len(), names.len());
        }

        /// Invariant 3: strict mode ⇒ inline scripts see nothing.
        #[test]
        fn strict_inline_sees_nothing(creator in domain_strategy()) {
            let mut guard = GuardEngine::shared(GuardConfig::strict()).session("site.com");
            guard.authorize_write(&Caller::external(&creator), "c");
            let visible = guard.filter_names(&Caller::inline(), &["c"]);
            prop_assert!(visible.is_empty());
        }

        /// Invariant 5: filtering is idempotent.
        #[test]
        fn filtering_idempotent(creator in domain_strategy(), reader in domain_strategy()) {
            let mut guard = GuardEngine::shared(GuardConfig::strict()).session("site.com");
            guard.authorize_write(&Caller::external(&creator), "c");
            let caller = Caller::external(&reader);
            let once = guard.filter_names(&caller, &["c"]);
            let twice = guard.filter_names(&caller, &once);
            prop_assert_eq!(once, twice);
        }
    }

    #[test]
    fn entity_grouping_only_adds_within_entity() {
        // Invariant 4: enabling grouping may only add visibility within an
        // entity, never across entities.
        let entities = cg_entity::builtin_entity_map();
        let domains = [
            "facebook.net",
            "fbcdn.net",
            "criteo.com",
            "site.com",
            "tracker.com",
        ];
        for creator in domains {
            for reader in domains {
                let mut strict = GuardEngine::shared(GuardConfig::strict()).session("site.com");
                strict.authorize_write(&Caller::external(creator), "c");
                let mut grouped = GuardEngine::shared(
                    GuardConfig::strict().with_entity_grouping(entities.clone()),
                )
                .session("site.com");
                grouped.authorize_write(&Caller::external(creator), "c");

                let caller = Caller::external(reader);
                let s = !strict.filter_names(&caller, &["c"]).is_empty();
                let g = !grouped.filter_names(&caller, &["c"]).is_empty();
                if s {
                    assert!(g, "grouping removed visibility {creator}->{reader}");
                }
                if g && !s {
                    assert!(
                        entities.same_entity(creator, reader),
                        "grouping leaked {creator}->{reader}"
                    );
                }
            }
        }
    }
}
