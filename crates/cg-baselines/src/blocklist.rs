//! The blocklist baseline: filter-list-driven script blocking, and the
//! evasion techniques that defeat it.
//!
//! §1 positions CookieGuard against "blocklist-based defenses that
//! struggle against domain or URL manipulation" (Storey et al. \[65\]):
//! a content blocker refuses to *load* scripts whose URLs match
//! crowd-sourced rules, so a listed tracker never executes — but a
//! tracker that serves the same code from a rotated domain, a
//! randomized path, or the first party's own host sails through.
//!
//! [`BlocklistDefense`] prunes a site blueprint the way an in-browser
//! blocker prunes fetches; [`apply_evasion`] rewrites tracker script
//! URLs with the three §8 manipulation techniques so the comparison
//! harness can measure how much protection each one erases.

use cg_filterlist::{FilterEngine, MatchContext, ResourceType};
use cg_script::ScriptOp;
use cg_url::Url;
use cg_webgen::{PageBlueprint, ScriptBlueprint, SiteBlueprint};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A content blocker built from the nine combined filter lists (§4.3).
pub struct BlocklistDefense {
    engine: FilterEngine,
}

/// What [`BlocklistDefense::prune_site`] removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PruneStats {
    /// Markup (directly included) scripts removed.
    pub markup_blocked: usize,
    /// Injectable (transitively included) scripts removed.
    pub injectable_blocked: usize,
    /// Scripts that survived across all pages.
    pub survivors: usize,
}

impl BlocklistDefense {
    /// Wraps a compiled filter engine.
    pub fn new(engine: FilterEngine) -> BlocklistDefense {
        BlocklistDefense { engine }
    }

    /// Builds the blocker from the same synthetic lists the measurement
    /// pipeline combines.
    pub fn from_registry(registry: &cg_webgen::VendorRegistry) -> BlocklistDefense {
        BlocklistDefense::new(cg_analysis::build_filter_engine(registry))
    }

    /// Whether the blocker would refuse to load `url` as a script on a
    /// page of `site_domain`.
    pub fn blocks(&self, url: &str, site_domain: &str) -> bool {
        let third_party = Url::parse(url)
            .ok()
            .and_then(|u| u.registrable_domain())
            .is_some_and(|d| !d.eq_ignore_ascii_case(site_domain));
        let ctx = MatchContext {
            page_domain: site_domain.to_string(),
            resource: ResourceType::Script,
            third_party,
        };
        self.engine.is_tracking(url, &ctx)
    }

    /// Applies the blocker to a site blueprint: markup scripts whose URL
    /// matches a blocking rule are dropped (never parsed, never run);
    /// matching injectables are removed from the resolution map, so a
    /// tag manager's `InjectScript` for them fails exactly like a
    /// blocked dynamic fetch. Inline scripts have no URL and always
    /// load — one of the §8 evasion channels, preserved faithfully.
    pub fn prune_site(&self, site: &SiteBlueprint) -> (SiteBlueprint, PruneStats) {
        let mut out = site.clone();
        let mut stats = PruneStats::default();
        let domain = site.spec.domain.clone();

        let mut prune_page = |page: &mut PageBlueprint| {
            let before = page.scripts.len();
            page.scripts.retain(|s: &ScriptBlueprint| match &s.url {
                Some(u) => !self.blocks(u, &domain),
                None => true,
            });
            stats.markup_blocked += before - page.scripts.len();
            stats.survivors += page.scripts.len();
        };
        prune_page(&mut out.landing);
        for page in &mut out.subpages {
            prune_page(page);
        }

        let before = out.injectables.len();
        out.injectables.retain(|url, _| !self.blocks(url, &domain));
        stats.injectable_blocked = before - out.injectables.len();
        (out, stats)
    }
}

/// One URL-manipulation technique from Storey et al. \[65\] / §8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EvasionTechnique {
    /// Serve the script from a freshly minted domain the lists have
    /// never seen.
    DomainRotation,
    /// Keep the domain but randomize the path (defeats path rules).
    PathRandomization,
    /// Host the script on the first party's own domain (§8: defeats
    /// URL-keyed *attribution* too — including CookieGuard's).
    SelfHosting,
}

/// Evasion deployment knobs.
#[derive(Debug, Clone)]
pub struct EvasionConfig {
    /// Probability a listed tracker script evades at all.
    pub evade_prob: f64,
    /// Relative weights of the three techniques
    /// (rotation, path randomization, self-hosting).
    pub technique_weights: [f64; 3],
    /// Seed for deterministic rewriting.
    pub seed: u64,
}

impl Default for EvasionConfig {
    fn default() -> EvasionConfig {
        EvasionConfig {
            evade_prob: 0.8,
            // Rotation dominates in the wild; self-hosting needs the
            // site owner's cooperation.
            technique_weights: [0.6, 0.25, 0.15],
            seed: 0x57AB1E,
        }
    }
}

/// What [`apply_evasion`] rewrote.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvasionStats {
    /// Scripts moved to rotated domains.
    pub rotated: usize,
    /// Scripts with randomized paths.
    pub path_randomized: usize,
    /// Scripts moved onto the first party's host.
    pub self_hosted: usize,
    /// Old URL → new URL, for forensics.
    pub renames: Vec<(String, String)>,
}

impl EvasionStats {
    /// Total scripts that evaded.
    pub fn total(&self) -> usize {
        self.rotated + self.path_randomized + self.self_hosted
    }
}

/// Rewrites the tracker script URLs of `site` that `defense` would
/// block, using the configured evasion mix. Every reference is kept
/// consistent: markup `src` attributes, the injectable-resolution map,
/// and `InjectScript` operations nested anywhere in behaviour programs
/// (including `Defer`/`Microtask`/`OnCookieChange` bodies).
pub fn apply_evasion(
    site: &SiteBlueprint,
    defense: &BlocklistDefense,
    cfg: &EvasionConfig,
) -> (SiteBlueprint, EvasionStats) {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ hash_str(&site.spec.domain));
    let mut stats = EvasionStats::default();
    let mut renames: HashMap<String, String> = HashMap::new();

    // Collect every distinct script URL the blocker would stop.
    let mut listed: Vec<String> = Vec::new();
    let push_listed = |url: &str, listed: &mut Vec<String>| {
        if defense.blocks(url, &site.spec.domain) && !listed.iter().any(|u| u == url) {
            listed.push(url.to_string());
        }
    };
    for page in std::iter::once(&site.landing).chain(site.subpages.iter()) {
        for s in &page.scripts {
            if let Some(u) = &s.url {
                push_listed(u, &mut listed);
            }
        }
    }
    // `injectables` is a HashMap: sort its keys so the RNG draws below
    // go to the same URLs in every process.
    let mut injectable_urls: Vec<&String> = site.injectables.keys().collect();
    injectable_urls.sort();
    for url in injectable_urls {
        push_listed(url, &mut listed);
    }

    for url in listed {
        if !rng.gen_bool(cfg.evade_prob.clamp(0.0, 1.0)) {
            continue;
        }
        let technique = pick_technique(&mut rng, &cfg.technique_weights);
        let tag = rng.gen::<u64>();
        let new_url = match technique {
            EvasionTechnique::DomainRotation => {
                stats.rotated += 1;
                format!("https://cdn{:x}.rt{:x}.com/t.js", tag & 0xffff, tag >> 48)
            }
            EvasionTechnique::PathRandomization => {
                stats.path_randomized += 1;
                match Url::parse(&url) {
                    Ok(u) => format!(
                        "https://{}/x{:012x}.js",
                        u.host_str(),
                        tag & 0xffff_ffff_ffff
                    ),
                    Err(_) => continue,
                }
            }
            EvasionTechnique::SelfHosting => {
                stats.self_hosted += 1;
                format!(
                    "https://www.{}/assets/v{:08x}.js",
                    site.spec.domain, tag as u32
                )
            }
        };
        stats.renames.push((url.clone(), new_url.clone()));
        renames.insert(url, new_url);
    }

    let mut out = site.clone();
    rewrite_page(&mut out.landing, &renames);
    for page in &mut out.subpages {
        rewrite_page(page, &renames);
    }
    out.injectables = out
        .injectables
        .into_iter()
        .map(|(url, mut ops)| {
            rewrite_ops(&mut ops, &renames);
            (renames.get(&url).cloned().unwrap_or(url), ops)
        })
        .collect();
    (out, stats)
}

fn pick_technique(rng: &mut StdRng, weights: &[f64; 3]) -> EvasionTechnique {
    let total: f64 = weights.iter().sum();
    let mut x = rng.gen::<f64>() * total.max(f64::MIN_POSITIVE);
    for (i, w) in weights.iter().enumerate() {
        x -= w;
        if x <= 0.0 {
            return match i {
                0 => EvasionTechnique::DomainRotation,
                1 => EvasionTechnique::PathRandomization,
                _ => EvasionTechnique::SelfHosting,
            };
        }
    }
    EvasionTechnique::SelfHosting
}

fn rewrite_page(page: &mut PageBlueprint, renames: &HashMap<String, String>) {
    for s in &mut page.scripts {
        if let Some(u) = &s.url {
            if let Some(new) = renames.get(u) {
                s.url = Some(new.clone());
            }
        }
        rewrite_ops(&mut s.ops, renames);
    }
}

fn rewrite_ops(ops: &mut [ScriptOp], renames: &HashMap<String, String>) {
    for op in ops {
        match op {
            ScriptOp::InjectScript { url } => {
                if let Some(new) = renames.get(url) {
                    *url = new.clone();
                }
            }
            ScriptOp::Defer { ops, .. }
            | ScriptOp::Microtask { ops }
            | ScriptOp::OnCookieChange { ops, .. } => rewrite_ops(ops, renames),
            _ => {}
        }
    }
}

fn hash_str(s: &str) -> u64 {
    // FNV-1a; only used to diversify per-site RNG streams.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_webgen::{GenConfig, WebGenerator};

    fn generator() -> WebGenerator {
        WebGenerator::new(GenConfig::small(300), 0xC00C1E)
    }

    fn tracker_heavy_site(g: &WebGenerator, d: &BlocklistDefense) -> SiteBlueprint {
        (1..=300)
            .map(|r| g.blueprint(r))
            .find(|b| {
                b.spec.crawl_ok
                    && b.landing.scripts.iter().any(|s| {
                        s.url
                            .as_deref()
                            .is_some_and(|u| d.blocks(u, &b.spec.domain))
                    })
            })
            .expect("a site with ≥1 listed tracker")
    }

    #[test]
    fn prune_removes_listed_scripts_only() {
        let g = generator();
        let defense = BlocklistDefense::from_registry(g.registry());
        let site = tracker_heavy_site(&g, &defense);
        let (pruned, stats) = defense.prune_site(&site);
        assert!(stats.markup_blocked > 0);
        assert!(pruned.landing.scripts.len() < site.landing.scripts.len());
        for s in &pruned.landing.scripts {
            if let Some(u) = &s.url {
                assert!(
                    !defense.blocks(u, &site.spec.domain),
                    "{u} survived pruning"
                );
            }
        }
        // Inline scripts always survive.
        let inline_before = site
            .landing
            .scripts
            .iter()
            .filter(|s| s.url.is_none())
            .count();
        let inline_after = pruned
            .landing
            .scripts
            .iter()
            .filter(|s| s.url.is_none())
            .count();
        assert_eq!(inline_before, inline_after);
    }

    #[test]
    fn prune_drops_blocked_injectables() {
        let g = generator();
        let defense = BlocklistDefense::from_registry(g.registry());
        // Find a site with at least one blocked injectable.
        let site = (1..=300)
            .map(|r| g.blueprint(r))
            .find(|b| {
                b.injectables
                    .keys()
                    .any(|u| defense.blocks(u, &b.spec.domain))
            })
            .expect("site with blocked injectable");
        let (pruned, stats) = defense.prune_site(&site);
        assert!(stats.injectable_blocked > 0);
        assert!(pruned.injectables.len() < site.injectables.len());
    }

    #[test]
    fn evasion_renames_are_consistent_everywhere() {
        let g = generator();
        let defense = BlocklistDefense::from_registry(g.registry());
        let site = tracker_heavy_site(&g, &defense);
        let cfg = EvasionConfig {
            evade_prob: 1.0,
            ..EvasionConfig::default()
        };
        let (evaded, stats) = apply_evasion(&site, &defense, &cfg);
        assert!(stats.total() > 0);
        // No page may still reference an old (renamed) URL.
        let old: std::collections::HashSet<&String> =
            stats.renames.iter().map(|(o, _)| o).collect();
        for page in std::iter::once(&evaded.landing).chain(evaded.subpages.iter()) {
            for s in &page.scripts {
                if let Some(u) = &s.url {
                    assert!(!old.contains(u), "stale markup reference to {u}");
                }
                assert_ops_clean(&s.ops, &old);
            }
        }
        #[allow(clippy::iter_over_hash_type)] // asserts each key on its own
        for (url, ops) in &evaded.injectables {
            assert!(!old.contains(url), "stale injectable key {url}");
            assert_ops_clean(ops, &old);
        }
    }

    fn assert_ops_clean(ops: &[ScriptOp], old: &std::collections::HashSet<&String>) {
        for op in ops {
            match op {
                ScriptOp::InjectScript { url } => assert!(!old.contains(url), "stale inject {url}"),
                ScriptOp::Defer { ops, .. }
                | ScriptOp::Microtask { ops }
                | ScriptOp::OnCookieChange { ops, .. } => assert_ops_clean(ops, old),
                _ => {}
            }
        }
    }

    #[test]
    fn evaded_scripts_pass_the_blocker() {
        let g = generator();
        let defense = BlocklistDefense::from_registry(g.registry());
        let site = tracker_heavy_site(&g, &defense);
        let cfg = EvasionConfig {
            evade_prob: 1.0,
            // Rotation + self-hosting only: path randomization keeps the
            // (listed) domain so domain rules still catch it.
            technique_weights: [0.7, 0.0, 0.3],
            seed: 7,
        };
        let (evaded, stats) = apply_evasion(&site, &defense, &cfg);
        assert!(stats.total() > 0);
        let (_, after) = defense.prune_site(&evaded);
        let (_, before) = defense.prune_site(&site);
        assert!(
            after.markup_blocked + after.injectable_blocked
                < before.markup_blocked + before.injectable_blocked,
            "evasion must reduce the blocker's catch ({before:?} -> {after:?})"
        );
    }

    #[test]
    fn evasion_is_deterministic_per_seed() {
        let g = generator();
        let defense = BlocklistDefense::from_registry(g.registry());
        let site = tracker_heavy_site(&g, &defense);
        let cfg = EvasionConfig::default();
        let (_, a) = apply_evasion(&site, &defense, &cfg);
        let (_, b) = apply_evasion(&site, &defense, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn evasion_is_independent_of_injectable_map_order() {
        // Each blueprint's `injectables` HashMap has its own random
        // iteration order, so this fails if evasion depends on it.
        let g = generator();
        let defense = BlocklistDefense::from_registry(g.registry());
        let cfg = EvasionConfig::default();
        for rank in 1..=300 {
            let (_, a) = apply_evasion(&g.blueprint(rank), &defense, &cfg);
            let (_, b) = apply_evasion(&g.blueprint(rank), &defense, &cfg);
            assert_eq!(a, b, "rank {rank}");
        }
    }

    #[test]
    fn self_hosted_scripts_become_first_party() {
        let g = generator();
        let defense = BlocklistDefense::from_registry(g.registry());
        let site = tracker_heavy_site(&g, &defense);
        let cfg = EvasionConfig {
            evade_prob: 1.0,
            technique_weights: [0.0, 0.0, 1.0],
            seed: 3,
        };
        let (_, stats) = apply_evasion(&site, &defense, &cfg);
        assert_eq!(stats.self_hosted, stats.total());
        for (_, new_url) in &stats.renames {
            let u = Url::parse(new_url).unwrap();
            assert_eq!(
                u.registrable_domain().as_deref(),
                Some(site.spec.domain.as_str())
            );
        }
    }
}
