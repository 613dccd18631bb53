//! Website-breakage evaluation (§7.2, Table 3).
//!
//! The paper assesses 100 sites manually in four categories — navigation,
//! SSO, appearance, and other functionality — each rated none / minor /
//! major. Here breakage is *mechanistic*: the generated sites carry
//! functional probes (`Probe` ops) whose success depends on a cookie
//! being readable by the probing script. A probe that succeeds in a
//! regular visit but fails under CookieGuard is a breakage:
//!
//! * `sso` probe regression → **major SSO** (cannot sign in);
//! * `sso_reload` probe regression → **minor SSO** (login works, reload
//!   logs out — the cnn.com case);
//! * `functionality`/`chat`/`cart` probe regression → **major
//!   functionality** (the fbcdn.net Messenger case);
//! * `ads` probe regression → **minor functionality** (an ad served by a
//!   third-party script is not shown).
//!
//! Navigation and appearance have no cookie dependency in the model —
//! and the paper measures 0% breakage for both — so they are probed but
//! never regress.
//!
//! Both visit conditions run their cookie traffic through the access
//! layer (`cookieguard_core::GuardedJar`, via [`cg_browser::visit_site`]):
//! a probe regression can only come from the guard's policy decision at
//! that one chokepoint, never from a divergent guard/jar/log dance in
//! some workload-specific code path.
//!
//! **Layer:** evaluation (paired `cg-browser` visits, probe
//! comparison). **Invariant:** breakage is always a *regression* —
//! probes failing without the guard never count. **Entry points:**
//! `evaluate_breakage` / `evaluate_sample`, `probe_regressions` (shared
//! with the scenario matrix).

pub mod evaluate;

pub use evaluate::{
    evaluate_breakage, evaluate_sample, probe_regressions, BreakageCategory, BreakageReport,
    BreakageSeverity, ProbeRegression, SiteBreakage,
};

#[cfg(test)]
mod tests {
    use super::*;
    use cg_webgen::{GenConfig, WebGenerator};
    use cookieguard_core::GuardConfig;

    #[test]
    fn strict_guard_breaks_some_sso_entity_grouping_heals() {
        let gen = WebGenerator::new(GenConfig::small(400), 77);
        let strict = evaluate_breakage(&gen, &GuardConfig::strict(), 1, 400);
        let grouped = evaluate_breakage(
            &gen,
            &GuardConfig::strict().with_entity_grouping(cg_entity::builtin_entity_map()),
            1,
            400,
        );
        // Strict must break more SSO than grouped.
        assert!(
            strict.major_pct(BreakageCategory::Sso) > grouped.major_pct(BreakageCategory::Sso),
            "strict {:.1}% vs grouped {:.1}%",
            strict.major_pct(BreakageCategory::Sso),
            grouped.major_pct(BreakageCategory::Sso)
        );
        // Navigation and appearance never break.
        assert_eq!(strict.major_pct(BreakageCategory::Navigation), 0.0);
        assert_eq!(strict.major_pct(BreakageCategory::Appearance), 0.0);
    }
}
