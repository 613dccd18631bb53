//! Generator calibration constants.
//!
//! Every probability that shapes the ecosystem lives here so the
//! calibration against the paper's numbers
//! (`crates/cg-experiments/src/expectations.rs`) can tune the synthetic web
//! toward the paper's measured marginals in one place.

/// Calibration knobs for [`crate::WebGenerator`].
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Number of ranked sites (paper: 20,000).
    pub site_count: usize,
    /// Number of long-tail vendor domains (drives Table 2's >1,100
    /// distinct exfiltrator entities).
    pub longtail_vendors: usize,
    /// Number of long-tail destination-only domains (entities that only
    /// *receive* exfiltrated identifiers).
    pub longtail_destinations: usize,
    /// Probability a site embeds no third-party scripts at all
    /// (paper §5.1: 93.3% have at least one ⇒ 6.7% have none).
    pub no_third_party_prob: f64,
    /// Mean number of *direct* third-party vendors on a site that has any
    /// (indirect inclusions come from tag managers on top of this;
    /// paper §5.6: indirect ≈ 2.5 × direct, ~19 distinct 3p scripts/site).
    pub direct_vendors_mean: f64,
    /// Mean number of long-tail vendors included directly per site.
    pub longtail_per_site_mean: f64,
    /// Probability a site uses `document.cookie` through its own
    /// first-party scripts even when it embeds no vendors (tunes the
    /// §5.2 96.3% document.cookie site share).
    pub first_party_script_prob: f64,
    /// How many cookies the site's own scripts set (mean; paper: 4 per
    /// site from first-party scripts).
    pub first_party_cookies_mean: f64,
    /// Mean number of HTTP `Set-Cookie` cookies served by the site
    /// itself (some HttpOnly).
    pub http_cookies_mean: f64,
    /// Probability a served HTTP cookie is HttpOnly.
    pub http_only_prob: f64,
    /// Probability a site has a consent manager (drives deletions).
    pub consent_manager_prob: f64,
    /// Probability a site has an SSO login flow.
    pub sso_prob: f64,
    /// Given SSO, probability the flow is managed by third-party scripts
    /// from *two sibling domains of the same entity* (breaks under
    /// strict isolation; healed by entity grouping).
    pub sso_same_entity_pair_prob: f64,
    /// Given SSO, probability the flow spans *two unrelated entities*
    /// (breaks even with grouping — the residual 3% of Table 3).
    pub sso_cross_entity_prob: f64,
    /// Probability a site self-hosts a copy of an analytics script on its
    /// own domain (bypasses CookieGuard by design; keeps Fig. 5's
    /// residual cross-domain activity non-zero).
    pub self_hosted_tracker_prob: f64,
    /// Probability a vendor's exfiltration runs in a deferred callback
    /// that loses stack attribution (§8 limitation).
    pub async_attribution_loss_prob: f64,
    /// Mean number of inline scripts per site.
    pub inline_scripts_mean: f64,
    /// Probability a page visit fails to produce complete data
    /// (paper: 14,917 / 20,000 complete ⇒ ~25.4% incomplete).
    pub crawl_failure_prob: f64,
    /// Size of the dedicated CookieStore-vendor pool (§5.2's 361 setter
    /// domains).
    pub cookie_store_vendors: usize,
    /// Probability a site includes one CookieStore vendor from that pool.
    pub cookie_store_site_prob: f64,
    /// Probability a Shopping site runs the Shopify performance SDK
    /// (`keep_alive` via cookieStore).
    pub shopify_on_commerce_prob: f64,
    /// Probability an ad-funded content site runs Admiral (`_awl`).
    pub admiral_on_content_prob: f64,
    /// Probability a site CNAME-cloaks a tracker behind a first-party
    /// subdomain (§8's hardest evasion; bypasses URL-keyed attribution).
    pub cname_cloaking_prob: f64,
    /// Probability a site (with functional features) exposes a cart /
    /// chat / search feature managed by a same-entity sibling domain
    /// (Table 3 functionality breakage, healed by grouping).
    pub functional_same_entity_prob: f64,
    /// Probability a news/content site shows third-party ads whose
    /// rendering depends on cross-domain cookie reads (minor breakage:
    /// ads not shown).
    pub ad_display_dependency_prob: f64,
    /// Probability a site deploys first-party *server-side tagging*
    /// (§5.7): a site-hosted collector endpoint receives the full cookie
    /// jar (query payload + `Cookie:` header) and relays it to a tracker
    /// server-side — invisible to client-side defenses.
    pub server_side_tagging_prob: f64,
    /// Given server-side tagging, probability a third-party pixel also
    /// routes its events through the first-party gateway (Meta
    /// Conversions-API style).
    pub capi_gateway_prob: f64,
    /// Probability an ad/tracking vendor on a consent-managed site
    /// deploys a *respawning* listener: a CookieStore change handler
    /// that re-sets its identifier the moment a consent manager deletes
    /// it (the respawning behaviour of the paper's related work \[29\]).
    pub respawn_tracker_prob: f64,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            site_count: 20_000,
            longtail_vendors: 1_600,
            longtail_destinations: 450,
            no_third_party_prob: 0.067,
            direct_vendors_mean: 2.4,
            longtail_per_site_mean: 1.4,
            first_party_script_prob: 0.62,
            first_party_cookies_mean: 2.4,
            http_cookies_mean: 1.7,
            http_only_prob: 0.45,
            consent_manager_prob: 0.15,
            sso_prob: 0.30,
            sso_same_entity_pair_prob: 0.27,
            sso_cross_entity_prob: 0.13,
            self_hosted_tracker_prob: 0.14,
            async_attribution_loss_prob: 0.08,
            inline_scripts_mean: 2.2,
            cookie_store_vendors: 420,
            cookie_store_site_prob: 0.013,
            shopify_on_commerce_prob: 0.07,
            admiral_on_content_prob: 0.025,
            cname_cloaking_prob: 0.03,
            crawl_failure_prob: 0.254,
            functional_same_entity_prob: 0.10,
            ad_display_dependency_prob: 0.12,
            server_side_tagging_prob: 0.08,
            capi_gateway_prob: 0.5,
            respawn_tracker_prob: 0.12,
        }
    }
}

impl GenConfig {
    /// A configuration for an `n`-site web: the long tail scales with
    /// `n` up to its paper-scale size, so `small(20_000)` equals
    /// [`GenConfig::default`] and larger webs keep the full long tail.
    pub fn small(n: usize) -> GenConfig {
        GenConfig {
            site_count: n,
            longtail_vendors: (n / 10).clamp(20, 1_600),
            longtail_destinations: (n / 30).clamp(10, 450),
            ..GenConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_scale() {
        let c = GenConfig::default();
        assert_eq!(c.site_count, 20_000);
        assert!((c.crawl_failure_prob - 0.254).abs() < 1e-9);
    }

    #[test]
    fn small_scales_down() {
        let c = GenConfig::small(500);
        assert_eq!(c.site_count, 500);
        assert!(c.longtail_vendors <= 1_600);
        assert!(c.longtail_vendors >= 20);
    }

    #[test]
    fn small_at_paper_scale_is_the_default() {
        // Every experiment builds its web with `small(sites)`; at 20,000
        // sites that must be exactly the paper-scale default.
        assert_eq!(
            format!("{:?}", GenConfig::small(20_000)),
            format!("{:?}", GenConfig::default())
        );
    }
}
