//! Label-drift guard: every cookie a catalog scenario can write that
//! belongs to the scored universe (registry-vendor programs plus
//! name-keyed overrides) must resolve through
//! [`CookieLabels::require`], which panics with context on a miss.
//!
//! This is the PR 5 fixtures pattern extended to ground truth: a
//! registry rename, a scenario rewrite, or a dropped override cannot
//! silently strand a scored cookie — the walk below fails the build
//! instead.

use cg_scenarios::{catalog, Fixtures};
use cg_script::ScriptOp;
use cg_webgen::{CookieLabels, PageBlueprint, SiteBlueprint};
use std::collections::BTreeSet;

/// Collects every cookie name an op tree can write, recursing into all
/// nested program slots so a new recursion point shows up as a missed
/// name (and a compile error here when a variant is added).
fn written_names(ops: &[ScriptOp], out: &mut BTreeSet<String>) {
    for op in ops {
        match op {
            ScriptOp::SetCookie { name, .. } | ScriptOp::CookieStoreSet { name, .. } => {
                out.insert(name.clone());
            }
            ScriptOp::CopyCookie { to, .. } => {
                out.insert(to.clone());
            }
            ScriptOp::Defer { ops, .. }
            | ScriptOp::Microtask { ops }
            | ScriptOp::OnCookieChange { ops, .. } => written_names(ops, out),
            ScriptOp::IfCookieVisible {
                then_ops, else_ops, ..
            } => {
                written_names(then_ops, out);
                written_names(else_ops, out);
            }
            _ => {}
        }
    }
}

/// `(cookie name, owner eTLD+1)` pairs a page can produce: server
/// `Set-Cookie` headers are owned by the site, scripts by their URL's
/// registrable domain (inline scripts by the site).
fn page_pairs(site: &str, page: &PageBlueprint, out: &mut BTreeSet<(String, String)>) {
    for header in &page.server_cookies {
        let name = header.split('=').next().unwrap_or("").trim().to_string();
        assert!(
            !name.is_empty(),
            "malformed Set-Cookie in scenario: {header}"
        );
        out.insert((name, site.to_string()));
    }
    for script in &page.scripts {
        let owner = script
            .url
            .as_deref()
            .and_then(cg_url::url_domain)
            .unwrap_or_else(|| site.to_string());
        let mut names = BTreeSet::new();
        written_names(&script.ops, &mut names);
        out.extend(names.into_iter().map(|n| (n, owner.clone())));
    }
}

fn site_pairs(site: &SiteBlueprint) -> BTreeSet<(String, String)> {
    let domain = &site.spec.domain;
    let mut out = BTreeSet::new();
    page_pairs(domain, &site.landing, &mut out);
    for page in &site.subpages {
        page_pairs(domain, page, &mut out);
    }
    #[allow(clippy::iter_over_hash_type)] // fills an ordered set: order cannot matter
    for (url, ops) in &site.injectables {
        let owner = cg_url::url_domain(url).unwrap_or_else(|| domain.clone());
        let mut names = BTreeSet::new();
        written_names(ops, &mut names);
        out.extend(names.into_iter().map(|n| (n, owner.clone())));
    }
    out
}

#[test]
fn every_scored_scenario_cookie_has_a_ground_truth_label() {
    let fixtures = Fixtures::new();
    let labels = CookieLabels::derive(fixtures.registry());
    let vendor_domains: BTreeSet<&str> = fixtures
        .registry()
        .all()
        .iter()
        .map(|v| v.domain.as_str())
        .collect();
    let overridden: BTreeSet<&str> = labels.name_overrides().map(|(n, _)| n).collect();

    let mut required = BTreeSet::new();
    for scenario in catalog() {
        for (name, owner) in site_pairs(&scenario.site) {
            // The scored universe: registry vendor programs, plus the
            // name-keyed overrides that label scenario-posed cookies
            // regardless of observed owner. Site-local state
            // (session_id, prefs, …) is unlabeled by design.
            if vendor_domains.contains(owner.as_str()) || overridden.contains(name.as_str()) {
                labels.require(&name, &owner); // panics on drift
                required.insert(name);
            }
        }
    }

    // The scenario-critical cookies must all have been walked — if a
    // catalog rewrite renames one, this list is the tripwire.
    for name in ["_dcid", "_cc_ga", "idp_session", "_fbp", "_uetsid", "_ga"] {
        assert!(
            required.contains(name),
            "scenario cookie {name} no longer reaches the label walk; walked: {required:?}"
        );
    }
}
