//! Breakage evaluation: paired visits, probe-regression classification.

use cg_browser::{visit_site, VisitConfig};
use cg_instrument::VisitLog;
use cg_webgen::WebGenerator;
use cookieguard_core::GuardConfig;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The paper's four breakage categories (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BreakageCategory {
    /// Moving between pages.
    Navigation,
    /// Initiating and maintaining login state.
    Sso,
    /// Visual consistency.
    Appearance,
    /// Chats, search, shopping cart, embedded widgets, ads.
    Functionality,
}

/// Severity, per the paper's rubric: minor = difficult but possible;
/// major = impossible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BreakageSeverity {
    /// Feature usable with difficulty.
    Minor,
    /// Feature unusable.
    Major,
}

/// Breakage found on one site.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SiteBreakage {
    /// Site domain.
    pub site: String,
    /// Rank.
    pub rank: usize,
    /// Which (category, severity) regressions occurred.
    pub findings: Vec<(BreakageCategory, BreakageSeverity, String)>,
}

/// The Table 3 aggregate.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BreakageReport {
    /// Sites evaluated.
    pub sites: usize,
    /// Per (category, severity): number of affected sites. (Tuple keys
    /// cannot be JSON map keys, so this serializes as an entry list.)
    #[serde(with = "count_entries")]
    pub counts: HashMap<(BreakageCategory, BreakageSeverity), usize>,
    /// Detailed per-site findings (non-empty only).
    pub details: Vec<SiteBreakage>,
}

/// Serializes the tuple-keyed count map as a list of entries.
mod count_entries {
    use super::{BreakageCategory, BreakageSeverity};
    use serde::{Deserialize, Deserializer, Serialize, Serializer};
    use std::collections::HashMap;

    type Map = HashMap<(BreakageCategory, BreakageSeverity), usize>;

    pub fn serialize<S: Serializer>(map: &Map, s: S) -> Result<S::Ok, S::Error> {
        let mut entries: Vec<(&BreakageCategory, &BreakageSeverity, &usize)> =
            map.iter().map(|((c, v), n)| (c, v, n)).collect();
        entries.sort_by_key(|(c, v, _)| format!("{c:?}/{v:?}"));
        entries.serialize(s)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Map, D::Error> {
        let entries: Vec<(BreakageCategory, BreakageSeverity, usize)> = Vec::deserialize(d)?;
        Ok(entries.into_iter().map(|(c, v, n)| ((c, v), n)).collect())
    }
}

impl BreakageReport {
    /// % of evaluated sites with a *major* breakage in `cat`.
    pub fn major_pct(&self, cat: BreakageCategory) -> f64 {
        self.pct(cat, BreakageSeverity::Major)
    }

    /// % of evaluated sites with a *minor* breakage in `cat`.
    pub fn minor_pct(&self, cat: BreakageCategory) -> f64 {
        self.pct(cat, BreakageSeverity::Minor)
    }

    fn pct(&self, cat: BreakageCategory, sev: BreakageSeverity) -> f64 {
        let c = self.counts.get(&(cat, sev)).copied().unwrap_or(0);
        100.0 * c as f64 / self.sites.max(1) as f64
    }

    /// % of sites with any breakage at all.
    pub fn any_breakage_pct(&self) -> f64 {
        100.0 * self.details.len() as f64 / self.sites.max(1) as f64
    }
}

/// Classifies a probe feature into (category, severity).
fn classify(feature: &str) -> Option<(BreakageCategory, BreakageSeverity)> {
    match feature {
        "sso" => Some((BreakageCategory::Sso, BreakageSeverity::Major)),
        "sso_reload" => Some((BreakageCategory::Sso, BreakageSeverity::Minor)),
        "functionality" | "chat" | "cart" => {
            Some((BreakageCategory::Functionality, BreakageSeverity::Major))
        }
        "ads" => Some((BreakageCategory::Functionality, BreakageSeverity::Minor)),
        "navigation" => Some((BreakageCategory::Navigation, BreakageSeverity::Major)),
        "appearance" => Some((BreakageCategory::Appearance, BreakageSeverity::Major)),
        _ => None,
    }
}

/// One functional probe that passed in a baseline visit but failed in a
/// defended visit of the same site — the unit of breakage.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeRegression {
    /// Feature label (`sso`, `cart`, `chat`, …).
    pub feature: String,
    /// The cookie the feature depends on.
    pub cookie: String,
    /// The probing script's domain, when attributable.
    pub actor: Option<String>,
}

/// Compares the probe outcomes of two visits of the same site and
/// returns every probe that passed in `baseline` but failed in
/// `defended`, sorted (feature, cookie, actor) for deterministic
/// downstream output. Probes already failing in the baseline are not
/// regressions (the site was broken without the defense), matching the
/// paper's manual protocol. Both Table 3
/// ([`crate::evaluate_breakage`]) and the scenario matrix
/// (`cg-scenarios`) classify breakage through this one comparison.
pub fn probe_regressions(baseline: &VisitLog, defended: &VisitLog) -> Vec<ProbeRegression> {
    let before = probe_outcomes(baseline);
    let after = probe_outcomes(defended);
    let mut out: Vec<ProbeRegression> = before
        .into_iter()
        .filter(|(_, ok_before)| *ok_before)
        .filter(|(key, _)| matches!(after.get(key), Some(false)))
        .map(|((feature, cookie, actor), _)| ProbeRegression {
            feature,
            cookie,
            actor,
        })
        .collect();
    out.sort_by(|a, b| (&a.feature, &a.cookie, &a.actor).cmp(&(&b.feature, &b.cookie, &b.actor)));
    out
}

/// `log`'s keyed probe outcomes: (feature, cookie, actor) →
/// all-succeeded?
fn probe_outcomes(log: &VisitLog) -> HashMap<(String, String, Option<String>), bool> {
    let mut map: HashMap<(String, String, Option<String>), bool> = HashMap::new();
    for p in &log.probes {
        let key = (
            log.str(p.feature).to_string(),
            log.str(p.cookie).to_string(),
            log.opt_str(p.actor).map(str::to_string),
        );
        let entry = map.entry(key).or_insert(true);
        *entry &= p.ok;
    }
    map
}

/// Evaluates breakage over ranks `[from, to]`: every site is visited
/// twice (regular, guarded); a probe that passes regular but fails
/// guarded is a regression. Incomplete-crawl sites are skipped, like the
/// paper's manual protocol which only assessed reachable sites.
pub fn evaluate_breakage(
    gen: &WebGenerator,
    guard: &GuardConfig,
    from: usize,
    to: usize,
) -> BreakageReport {
    evaluate_sample(gen, guard, from..=to, usize::MAX)
}

/// [`evaluate_breakage`] over the sites at `ranks`, in order, stopping
/// once `limit` sites have been evaluated — Table 3's stratified sample.
pub fn evaluate_sample(
    gen: &WebGenerator,
    guard: &GuardConfig,
    ranks: impl IntoIterator<Item = usize>,
    limit: usize,
) -> BreakageReport {
    let mut report = BreakageReport::default();
    // Compile the guard engine once for the whole evaluation; each visit
    // opens a per-site session on it.
    let regular_cfg = VisitConfig::regular();
    let guarded_cfg = VisitConfig::guarded(guard.clone());
    for rank in ranks {
        if report.sites >= limit {
            break;
        }
        let bp = gen.blueprint(rank);
        if !bp.spec.crawl_ok {
            continue;
        }
        let seed = gen.site_seed(rank) ^ 0x0b1e;
        let regular = visit_site(&bp, &regular_cfg, seed);
        let guarded = visit_site(&bp, &guarded_cfg, seed);
        report.sites += 1;

        let mut findings: Vec<(BreakageCategory, BreakageSeverity, String)> = Vec::new();
        let mut seen: std::collections::HashSet<(BreakageCategory, BreakageSeverity)> =
            std::collections::HashSet::new();
        for r in probe_regressions(&regular.log, &guarded.log) {
            if let Some((cat, sev)) = classify(&r.feature) {
                if seen.insert((cat, sev)) {
                    findings.push((cat, sev, format!("{} depends on {}", r.feature, r.cookie)));
                }
            }
        }
        if !findings.is_empty() {
            for (cat, sev, _) in &findings {
                *report.counts.entry((*cat, *sev)).or_insert(0) += 1;
            }
            report.details.push(SiteBreakage {
                site: bp.spec.domain.clone(),
                rank,
                findings,
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_features() {
        assert_eq!(
            classify("sso"),
            Some((BreakageCategory::Sso, BreakageSeverity::Major))
        );
        assert_eq!(
            classify("sso_reload"),
            Some((BreakageCategory::Sso, BreakageSeverity::Minor))
        );
        assert_eq!(
            classify("ads"),
            Some((BreakageCategory::Functionality, BreakageSeverity::Minor))
        );
        assert_eq!(
            classify("chat"),
            Some((BreakageCategory::Functionality, BreakageSeverity::Major))
        );
        assert_eq!(classify("unknown"), None);
    }

    #[test]
    fn probe_outcomes_and_of_repeats() {
        let mut r = cg_instrument::Recorder::new("site.com", 1);
        r.record_probe("sso", "s", true, Some("a.com"));
        r.record_probe("sso", "s", false, Some("a.com"));
        let map = probe_outcomes(&r.finish());
        assert_eq!(map.len(), 1);
        assert!(!map[&("sso".into(), "s".into(), Some("a.com".into()))]);
    }

    #[test]
    fn report_percentages() {
        let mut r = BreakageReport {
            sites: 100,
            ..BreakageReport::default()
        };
        r.counts
            .insert((BreakageCategory::Sso, BreakageSeverity::Major), 11);
        r.counts
            .insert((BreakageCategory::Sso, BreakageSeverity::Minor), 1);
        assert!((r.major_pct(BreakageCategory::Sso) - 11.0).abs() < 1e-9);
        assert!((r.minor_pct(BreakageCategory::Sso) - 1.0).abs() < 1e-9);
        assert_eq!(r.major_pct(BreakageCategory::Navigation), 0.0);
    }
}
