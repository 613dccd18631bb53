//! Pinned visit outputs: a SHA-1 digest of everything a visit produces,
//! over ranks `1..=RANKS` of `GenConfig::small(2000)` at seed 7, for
//! the four visit configurations the experiments use.
//!
//! A refactor of the browser or the script engine must leave every
//! digest as it is. A change that alters visit behaviour on purpose
//! updates the constants below and says in CHANGES.md why the outputs
//! moved.

use cg_browser::{visit_site, VisitConfig, VisitOutcome};
use cg_webgen::{GenConfig, WebGenerator};
use cookieguard_core::GuardConfig;

/// Ranks `1..=RANKS` are visited under each configuration.
const RANKS: usize = 300;

const STRICT_DIGEST: &str = "eb853520442b5a0180e260a0659d990ac80740d4";
const RELAXED_DIGEST: &str = "b76667e29cf959597ad29014376f61d7b9ad6581";
const STRICT_CNAMES_DIGEST: &str = "cf300d2bb62a8365285c1f9318158d3ef377adeb";
const MEASUREMENT_DIGEST: &str = "78aa8266537bce06d0b9d0f04daf16d5794224e5";

/// One line per visit: the log's JSON digest, then the guard counters,
/// the timing and the three counts as JSON.
fn visit_line(out: &VisitOutcome) -> String {
    let log = serde_json::to_string(&out.log).expect("log serializes");
    let rest = serde_json::to_string(&(
        out.guard_stats,
        out.timing,
        out.cookie_ops,
        out.final_jar_size,
        out.csp_blocked,
    ))
    .expect("counters serialize");
    format!("{} {rest}\n", cg_hash::sha1_hex(log.as_bytes()))
}

/// The digest of every visit of `cfg` over the pinned ranks, each with
/// the crawler's visit seed.
fn digest(cfg: &VisitConfig) -> String {
    let gen = WebGenerator::new(GenConfig::small(2000), 7);
    let mut lines = String::new();
    for rank in 1..=RANKS {
        let site = gen.blueprint(rank);
        lines.push_str(&visit_line(&visit_site(
            &site,
            cfg,
            gen.site_seed(rank) ^ 0x51_7e,
        )));
    }
    cg_hash::sha1_hex(lines.as_bytes())
}

#[test]
fn strict_visits_match_their_pinned_digest() {
    let d = digest(&VisitConfig::guarded(GuardConfig::strict()));
    assert_eq!(d, STRICT_DIGEST, "strict visit outputs moved");
}

#[test]
fn relaxed_visits_match_their_pinned_digest() {
    let d = digest(&VisitConfig::guarded(GuardConfig::relaxed()));
    assert_eq!(d, RELAXED_DIGEST, "relaxed visit outputs moved");
}

#[test]
fn cname_resolving_strict_visits_match_their_pinned_digest() {
    let d = digest(&VisitConfig {
        resolve_cnames: true,
        ..VisitConfig::guarded(GuardConfig::strict())
    });
    assert_eq!(
        d, STRICT_CNAMES_DIGEST,
        "CNAME-resolving visit outputs moved"
    );
}

#[test]
fn measurement_visits_match_their_pinned_digest() {
    let d = digest(&VisitConfig::regular());
    assert_eq!(d, MEASUREMENT_DIGEST, "measurement visit outputs moved");
}
