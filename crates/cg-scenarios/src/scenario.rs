//! The scenario model: a posed site plus a checkable expectation list
//! ([`Scenario::expectation`]).

use cg_instrument::{VisitLog, WriteKind};
use cg_webgen::SiteBlueprint;

/// Who performed (or must not perform) an operation, as the
/// instrumentation attributes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Party {
    /// The visited site's own domain (first-party scripts and the
    /// server's `Set-Cookie` headers).
    Site,
    /// A specific eTLD+1.
    Domain(String),
    /// An inline / unattributable script (no actor).
    Inline,
}

impl Party {
    /// Whether an event actor field matches this party on `site`.
    fn matches(&self, actor: Option<&str>, site: &str) -> bool {
        match self {
            Party::Site => actor == Some(site),
            Party::Domain(d) => actor == Some(d.as_str()),
            Party::Inline => actor.is_none(),
        }
    }

    fn describe(&self) -> String {
        match self {
            Party::Site => "the site".to_string(),
            Party::Domain(d) => d.clone(),
            Party::Inline => "an inline script".to_string(),
        }
    }
}

/// Which defense condition an [`Expect`] applies to. The matrix runner
/// maps each kind to one column of the scenario matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConditionKind {
    /// The regular browser — what the attack looks like unguarded.
    Vanilla,
    /// CookieGuard, strict policy (the paper's evaluation mode).
    GuardStrict,
    /// CookieGuard with entity grouping (§7.2's whitelist refinement).
    GuardEntity,
    /// CookieGuard strict plus the site-operator whitelist.
    GuardWhitelist,
    /// CookieGuard strict plus DNS-aware (CNAME-resolving) attribution.
    GuardDns,
}

impl ConditionKind {
    /// The matrix column this kind checks against.
    pub fn condition_name(&self) -> &'static str {
        match self {
            ConditionKind::Vanilla => "vanilla",
            ConditionKind::GuardStrict => "cookieguard",
            ConditionKind::GuardEntity => "cookieguard-entity",
            ConditionKind::GuardWhitelist => "cookieguard-whitelist",
            ConditionKind::GuardDns => "cookieguard-dns",
        }
    }
}

/// One checkable claim about a visit's instrumentation log.
///
/// Positive claims (`Writes`, `Exfiltrates`, …) assert the operation
/// happened *and was admitted*; `…Blocked` claims assert the guard
/// refused it at the enforcement point; `No…` claims assert it never
/// appears at all (e.g. a sync chain cut before its second hop).
#[derive(Debug, Clone)]
pub enum Expect {
    /// `by` created or overwrote `cookie` and the write reached the jar.
    Writes {
        /// Cookie name.
        cookie: String,
        /// Acting party.
        by: Party,
    },
    /// `by` created or overwrote `cookie` at least `n` times (admitted).
    WritesAtLeast {
        /// Cookie name.
        cookie: String,
        /// Acting party.
        by: Party,
        /// Minimum admitted write count.
        n: usize,
    },
    /// `by` attempted a create/overwrite of `cookie` and the guard
    /// blocked it.
    WriteBlocked {
        /// Cookie name.
        cookie: String,
        /// Acting party.
        by: Party,
    },
    /// No admitted create/overwrite of `cookie` by `by` appears at all
    /// (the op never fired — e.g. a gated setter whose gate stayed shut).
    NoWrite {
        /// Cookie name.
        cookie: String,
        /// Acting party.
        by: Party,
    },
    /// `by` deleted `cookie` and the delete reached the jar.
    Deletes {
        /// Cookie name.
        cookie: String,
        /// Acting party.
        by: Party,
    },
    /// `by` attempted to delete `cookie` and the guard blocked it.
    DeleteBlocked {
        /// Cookie name.
        cookie: String,
        /// Acting party.
        by: Party,
    },
    /// `by` issued a request whose query string carries `cookie` (the
    /// exfiltration signature the §5.3 detector keys on).
    Exfiltrates {
        /// Cookie name.
        cookie: String,
        /// Initiating party.
        by: Party,
    },
    /// No request by `by` carries `cookie` in its query string.
    NoExfil {
        /// Cookie name.
        cookie: String,
        /// Initiating party.
        by: Party,
    },
    /// At least one of `by`'s reads had cookies withheld by the guard.
    ReadFiltered {
        /// Reading party.
        by: Party,
    },
    /// None of `by`'s reads had anything withheld (full jar visibility).
    ReadClean {
        /// Reading party.
        by: Party,
    },
    /// The functional probe for `feature` succeeded (every firing).
    ProbeOk {
        /// Feature label (`sso`, `chat`, …).
        feature: String,
    },
    /// The functional probe for `feature` failed at least once.
    ProbeFails {
        /// Feature label.
        feature: String,
    },
    /// No probe that passes under vanilla regresses under this
    /// condition (evaluated through
    /// [`cg_breakage::probe_regressions`] against the vanilla cell).
    NoProbeRegression,
}

impl Expect {
    /// Human-readable form used in the matrix JSON and table.
    pub fn describe(&self) -> String {
        match self {
            Expect::Writes { cookie, by } => format!("{} writes {cookie}", by.describe()),
            Expect::WritesAtLeast { cookie, by, n } => {
                format!("{} writes {cookie} at least {n}x", by.describe())
            }
            Expect::WriteBlocked { cookie, by } => {
                format!("guard blocks {}'s write of {cookie}", by.describe())
            }
            Expect::NoWrite { cookie, by } => {
                format!("{} never writes {cookie}", by.describe())
            }
            Expect::Deletes { cookie, by } => format!("{} deletes {cookie}", by.describe()),
            Expect::DeleteBlocked { cookie, by } => {
                format!("guard blocks {}'s delete of {cookie}", by.describe())
            }
            Expect::Exfiltrates { cookie, by } => {
                format!("{} exfiltrates {cookie}", by.describe())
            }
            Expect::NoExfil { cookie, by } => {
                format!("{} cannot exfiltrate {cookie}", by.describe())
            }
            Expect::ReadFiltered { by } => {
                format!("{}'s reads are filtered", by.describe())
            }
            Expect::ReadClean { by } => {
                format!("{} sees the full jar", by.describe())
            }
            Expect::ProbeOk { feature } => format!("probe '{feature}' works"),
            Expect::ProbeFails { feature } => format!("probe '{feature}' fails"),
            Expect::NoProbeRegression => "no probe regresses vs vanilla".to_string(),
        }
    }

    /// Evaluates the claim against `log` (with `vanilla` as the
    /// regression baseline). `site` is the scenario site's eTLD+1.
    pub fn eval(&self, log: &VisitLog, vanilla: &VisitLog, site: &str) -> bool {
        let write_kind = |k: WriteKind| matches!(k, WriteKind::Create | WriteKind::Overwrite);
        match self {
            Expect::Writes { cookie, by } => log.sets.iter().any(|s| {
                log.str(s.name) == *cookie
                    && write_kind(s.kind)
                    && !s.blocked
                    && by.matches(log.opt_str(s.actor), site)
            }),
            Expect::WritesAtLeast { cookie, by, n } => {
                log.sets
                    .iter()
                    .filter(|s| {
                        log.str(s.name) == *cookie
                            && write_kind(s.kind)
                            && !s.blocked
                            && by.matches(log.opt_str(s.actor), site)
                    })
                    .count()
                    >= *n
            }
            Expect::WriteBlocked { cookie, by } => log.sets.iter().any(|s| {
                log.str(s.name) == *cookie
                    && write_kind(s.kind)
                    && s.blocked
                    && by.matches(log.opt_str(s.actor), site)
            }),
            // "Never appears at all": a guard-*blocked* attempt also
            // fails this claim — the op must never have fired.
            Expect::NoWrite { cookie, by } => !log.sets.iter().any(|s| {
                log.str(s.name) == *cookie
                    && write_kind(s.kind)
                    && by.matches(log.opt_str(s.actor), site)
            }),
            Expect::Deletes { cookie, by } => log.sets.iter().any(|s| {
                log.str(s.name) == *cookie
                    && s.kind == WriteKind::Delete
                    && !s.blocked
                    && by.matches(log.opt_str(s.actor), site)
            }),
            Expect::DeleteBlocked { cookie, by } => log.sets.iter().any(|s| {
                log.str(s.name) == *cookie
                    && s.kind == WriteKind::Delete
                    && s.blocked
                    && by.matches(log.opt_str(s.actor), site)
            }),
            Expect::Exfiltrates { cookie, by } => log.requests.iter().any(|r| {
                by.matches(log.opt_str(r.initiator), site) && query_carries(log.str(r.url), cookie)
            }),
            Expect::NoExfil { cookie, by } => !log.requests.iter().any(|r| {
                by.matches(log.opt_str(r.initiator), site) && query_carries(log.str(r.url), cookie)
            }),
            Expect::ReadFiltered { by } => log
                .reads
                .iter()
                .any(|r| by.matches(log.opt_str(r.actor), site) && r.filtered_count > 0),
            Expect::ReadClean { by } => log
                .reads
                .iter()
                .filter(|r| by.matches(log.opt_str(r.actor), site))
                .all(|r| r.filtered_count == 0),
            Expect::ProbeOk { feature } => {
                let mut any = false;
                for p in log.probes.iter().filter(|p| log.str(p.feature) == *feature) {
                    any = true;
                    if !p.ok {
                        return false;
                    }
                }
                any
            }
            Expect::ProbeFails { feature } => log
                .probes
                .iter()
                .any(|p| log.str(p.feature) == *feature && !p.ok),
            Expect::NoProbeRegression => cg_breakage::probe_regressions(vanilla, log).is_empty(),
        }
    }
}

/// Whether `url`'s query string carries a `cookie=` parameter.
fn query_carries(url: &str, cookie: &str) -> bool {
    let Some((_, query)) = url.split_once('?') else {
        return false;
    };
    query
        .split('&')
        .any(|kv| kv.split_once('=').map(|(k, _)| k) == Some(cookie))
}

/// One adversarial cookie-interaction scenario: a hand-posed site plus
/// the decisions the guard (and the unguarded browser) must exhibit.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable kebab-case identifier (the matrix row key).
    pub name: &'static str,
    /// One-line display title.
    pub title: &'static str,
    /// The paper section/table the scenario characterizes.
    pub paper_ref: &'static str,
    /// What the scenario poses and why it matters.
    pub description: &'static str,
    /// The posed site.
    pub site: SiteBlueprint,
    /// Claims, each bound to the defense condition it checks.
    pub expectation: Vec<(ConditionKind, Expect)>,
}

impl Scenario {
    /// The posed site's registrable domain.
    pub fn site_domain(&self) -> &str {
        &self.site.spec.domain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_detection_matches_exact_parameter_names() {
        assert!(query_carries("https://t.com/c?r=1&_ga=GA1.1.2.3", "_ga"));
        assert!(query_carries("https://t.com/c?_ga=x", "_ga"));
        assert!(!query_carries("https://t.com/c?my_ga=x", "_ga"));
        assert!(!query_carries("https://t.com/_ga", "_ga"));
    }
}
