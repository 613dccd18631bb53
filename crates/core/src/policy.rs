//! The policy vocabulary: who is calling, and why an access was allowed
//! or blocked. The decisions themselves live in [`crate::GuardEngine`].

use cg_url::DomainId;
use serde::{Deserialize, Serialize};

/// The identity of a script performing a cookie operation, as recovered
/// from the stack trace.
///
/// The domain is carried as an interned [`DomainId`] — resolved once,
/// at attribution time, so every policy check downstream is an integer
/// comparison. `Caller` is `Copy`: contexts clone it for free. The serde
/// impls resolve the id back to the domain *name* (via [`cg_url::name`]),
/// so serialized callers never contain ids — the wire-format invariant
/// shared with the rest of the compiled policy stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Caller {
    /// The script's interned eTLD+1; `None` for inline scripts and async
    /// callbacks whose stack was lost (both attribute as "no reliable
    /// origin").
    pub domain: Option<DomainId>,
}

impl Caller {
    /// A caller attributed to an external script domain (interned,
    /// normalized to lowercase).
    pub fn external(domain: &str) -> Caller {
        Caller {
            domain: Some(cg_url::intern(domain)),
        }
    }

    /// An inline / unattributable caller.
    pub fn inline() -> Caller {
        Caller { domain: None }
    }

    /// The caller's domain name (normalized form), when attributed.
    pub fn domain_name(&self) -> Option<&'static str> {
        self.domain.map(cg_url::name)
    }
}

// Ids never cross a serialization boundary: the wire form is the domain
// name, exactly as it was before `Caller` was compiled to ids.
impl Serialize for Caller {
    fn to_content(&self) -> serde::Content {
        serde::Content::Map(vec![(
            serde::Content::Str("domain".to_string()),
            match self.domain {
                Some(id) => serde::Content::Str(cg_url::name(id).to_string()),
                None => serde::Content::Null,
            },
        )])
    }
}

impl<'de> Deserialize<'de> for Caller {
    fn from_content(content: &serde::Content) -> Result<Caller, serde::DeError> {
        let domain = match content.get("domain") {
            Some(serde::Content::Str(s)) => Some(cg_url::intern(s)),
            Some(serde::Content::Null) | None => None,
            Some(other) => {
                return Err(serde::DeError(format!(
                    "Caller.domain: expected string or null, got {}",
                    other.kind()
                )))
            }
        };
        Ok(Caller { domain })
    }
}

/// Why an access was allowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AllowReason {
    /// Caller is the site owner (full-access policy, §6.1).
    SiteOwner,
    /// Caller's domain created the cookie.
    Creator,
    /// Caller's entity matches the creator's entity (grouping enabled).
    SameEntity,
    /// Caller is on the explicit whitelist.
    Whitelisted,
    /// The cookie did not exist: creating a new cookie is always allowed
    /// (ownership is then recorded to the caller).
    NewCookie,
    /// Inline caller under the relaxed policy (treated as first-party).
    RelaxedInline,
}

/// Why an access was blocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BlockReason {
    /// Caller's domain differs from the cookie's creator.
    CrossDomain,
    /// Inline caller under the strict policy.
    InlineStrict,
}

/// The outcome of a policy check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessDecision {
    /// Access granted.
    Allow(AllowReason),
    /// Access denied.
    Block(BlockReason),
}

impl AccessDecision {
    /// True for `Allow`.
    pub fn is_allow(&self) -> bool {
        matches!(self, AccessDecision::Allow(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GuardConfig, GuardEngine};

    fn strict() -> GuardEngine {
        GuardEngine::new(GuardConfig::strict())
    }

    #[test]
    fn creator_allowed() {
        let d = strict().check(
            "site.com",
            &Caller::external("tracker.com"),
            Some("tracker.com"),
        );
        assert_eq!(d, AccessDecision::Allow(AllowReason::Creator));
    }

    #[test]
    fn cross_domain_blocked() {
        let d = strict().check(
            "site.com",
            &Caller::external("other.com"),
            Some("tracker.com"),
        );
        assert_eq!(d, AccessDecision::Block(BlockReason::CrossDomain));
    }

    #[test]
    fn site_owner_full_access() {
        let d = strict().check(
            "site.com",
            &Caller::external("site.com"),
            Some("tracker.com"),
        );
        assert_eq!(d, AccessDecision::Allow(AllowReason::SiteOwner));
    }

    #[test]
    fn inline_strict_vs_relaxed() {
        assert_eq!(
            strict().check("site.com", &Caller::inline(), Some("tracker.com")),
            AccessDecision::Block(BlockReason::InlineStrict)
        );
        let relaxed = GuardEngine::new(GuardConfig::relaxed());
        assert!(relaxed
            .check("site.com", &Caller::inline(), Some("tracker.com"))
            .is_allow());
    }

    #[test]
    fn unattributed_cookie_is_site_owned() {
        // Only the owner reaches a cookie with no recorded creator.
        assert!(strict()
            .check("site.com", &Caller::external("site.com"), None)
            .is_allow());
        assert!(!strict()
            .check("site.com", &Caller::external("tracker.com"), None)
            .is_allow());
    }

    #[test]
    fn whitelist_grants_full_access() {
        let e = GuardEngine::new(GuardConfig::strict().with_whitelisted("partner.io"));
        assert_eq!(
            e.check(
                "site.com",
                &Caller::external("partner.io"),
                Some("anyone.com")
            ),
            AccessDecision::Allow(AllowReason::Whitelisted)
        );
    }

    #[test]
    fn entity_grouping_same_org() {
        let e = GuardEngine::new(
            GuardConfig::strict().with_entity_grouping(cg_entity::builtin_entity_map()),
        );
        // fbcdn.net script reading a facebook.net-created cookie: same entity.
        assert_eq!(
            e.check(
                "facebook.com",
                &Caller::external("fbcdn.net"),
                Some("facebook.net")
            ),
            AccessDecision::Allow(AllowReason::SameEntity)
        );
        // criteo stays blocked.
        assert_eq!(
            e.check(
                "facebook.com",
                &Caller::external("criteo.com"),
                Some("facebook.net")
            ),
            AccessDecision::Block(BlockReason::CrossDomain)
        );
    }

    #[test]
    fn unknown_domains_do_not_group() {
        let e = GuardEngine::new(
            GuardConfig::strict().with_entity_grouping(cg_entity::builtin_entity_map()),
        );
        // Two unknown domains both fall back to "self" entities — they
        // must not be considered the same entity.
        assert!(!e
            .check(
                "site.com",
                &Caller::external("unknown-a.com"),
                Some("unknown-b.com")
            )
            .is_allow());
    }

    #[test]
    fn create_decisions() {
        assert!(strict()
            .check_create("site.com", &Caller::external("new.com"))
            .is_allow());
        assert!(!strict()
            .check_create("site.com", &Caller::inline())
            .is_allow());
        let relaxed = GuardEngine::new(GuardConfig::relaxed());
        assert!(relaxed
            .check_create("site.com", &Caller::inline())
            .is_allow());
    }
}
