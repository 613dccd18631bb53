//! Synthesizes realistic `Content-Security-Policy` headers for
//! generated sites — the §2.1 experiment's input.
//!
//! Real deployments that use CSP for scripts overwhelmingly allowlist
//! the vendors they intentionally include (otherwise the site breaks on
//! day one), usually with `'unsafe-inline'` because removing inline
//! handlers is expensive. That is exactly the configuration that makes
//! the paper's point: the policy admits every intended third-party
//! script, and once admitted, CSP says nothing about what the script
//! may do to the cookie jar.

use crate::blueprint::SiteBlueprint;
use cg_url::Url;
use std::collections::BTreeSet;

/// How thoroughly the synthesized policy covers the site's stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CspStyle {
    /// Allowlist `'self'`, `'unsafe-inline'`, and the hosts of the
    /// site's *markup* (directly included) scripts. Transitively
    /// injected vendors are not listed — the common real-world gap that
    /// silently blocks part of a tag manager's fan-out.
    DirectVendorsOnly,
    /// Additionally allowlist every injectable host the site's vendors
    /// may pull in (the "copy the console errors into the policy until
    /// it stops breaking" endpoint). Admits the whole stack.
    FullStack,
}

/// Builds a `script-src` policy for `site` in the given style. Returns
/// the raw header value, e.g.
/// `script-src 'self' 'unsafe-inline' cdn.vendor.com tags.tm.io`.
pub fn csp_for_site(site: &SiteBlueprint, style: CspStyle) -> String {
    let mut hosts: BTreeSet<String> = BTreeSet::new();
    let push = |url: &str, hosts: &mut BTreeSet<String>| {
        if let Ok(u) = Url::parse(url) {
            hosts.insert(u.host_str().into_owned());
        }
    };
    for page in std::iter::once(&site.landing).chain(site.subpages.iter()) {
        for script in &page.scripts {
            if let Some(u) = &script.url {
                push(u, &mut hosts);
            }
        }
    }
    if style == CspStyle::FullStack {
        #[allow(clippy::iter_over_hash_type)] // fills an ordered set: order cannot matter
        for url in site.injectables.keys() {
            push(url, &mut hosts);
        }
    }
    // The site's own host is covered by 'self'.
    let own = format!("www.{}", site.spec.domain);
    hosts.remove(&own);

    let mut policy = String::from("script-src 'self' 'unsafe-inline'");
    for h in hosts {
        policy.push(' ');
        policy.push_str(&h);
    }
    policy
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GenConfig, WebGenerator};
    use cg_http::CspPolicy;

    fn site_with_scripts() -> SiteBlueprint {
        let g = WebGenerator::new(GenConfig::small(200), 0xC00C1E);
        (1..=200)
            .map(|r| g.blueprint(r))
            .find(|b| {
                b.spec.crawl_ok
                    && b.landing.scripts.iter().any(|s| s.url.is_some())
                    && !b.injectables.is_empty()
            })
            .expect("site with markup scripts and injectables")
    }

    #[test]
    fn direct_style_admits_markup_scripts() {
        let site = site_with_scripts();
        let header = csp_for_site(&site, CspStyle::DirectVendorsOnly);
        let policy = CspPolicy::parse(&header);
        let doc = Url::parse(&site.landing_url()).unwrap();
        assert!(policy.allows_inline());
        for s in &site.landing.scripts {
            if let Some(u) = &s.url {
                let su = Url::parse(u).unwrap();
                assert!(
                    policy.allows_external(&su, &doc, None),
                    "directly included {u} must be admitted by the site's own policy"
                );
            }
        }
    }

    #[test]
    fn direct_style_blocks_unlisted_injectables() {
        let site = site_with_scripts();
        let header = csp_for_site(&site, CspStyle::DirectVendorsOnly);
        let policy = CspPolicy::parse(&header);
        let doc = Url::parse(&site.landing_url()).unwrap();
        // At least one injectable from a host that is not also a markup
        // script host must be blocked.
        let blocked = site.injectables.keys().any(|u| {
            Url::parse(u)
                .map(|su| !policy.allows_external(&su, &doc, None))
                .unwrap_or(false)
        });
        assert!(
            blocked,
            "DirectVendorsOnly must leave some fan-out unlisted: {header}"
        );
    }

    #[test]
    fn full_stack_admits_everything() {
        let site = site_with_scripts();
        let header = csp_for_site(&site, CspStyle::FullStack);
        let policy = CspPolicy::parse(&header);
        let doc = Url::parse(&site.landing_url()).unwrap();
        #[allow(clippy::iter_over_hash_type)] // asserts each key on its own
        for u in site.injectables.keys() {
            let su = Url::parse(u).unwrap();
            assert!(
                policy.allows_external(&su, &doc, None),
                "{u} missing from FullStack policy"
            );
        }
    }

    #[test]
    fn own_host_rides_on_self() {
        let site = site_with_scripts();
        let header = csp_for_site(&site, CspStyle::FullStack);
        assert!(
            !header.contains(&format!("www.{}", site.spec.domain)),
            "own host must be covered by 'self'"
        );
        let policy = CspPolicy::parse(&header);
        let doc = Url::parse(&site.landing_url()).unwrap();
        // Same scheme as the document: 'self' is scheme-sensitive.
        let own = Url::parse(&format!("{}app.js", site.landing_url())).unwrap();
        assert!(policy.allows_external(&own, &doc, None));
    }
}
