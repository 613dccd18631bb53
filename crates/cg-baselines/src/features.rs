//! Behavioural feature extraction for the CookieGraph-style classifier
//! (Munir et al. \[44\]).
//!
//! CookieGraph identifies first-party *tracking* cookies from how they
//! are created and used, not from blocklists: lexical shape of the
//! value, who set the cookie, and whether its value flows into
//! third-party network requests. This module computes the analogous
//! feature vector per unique cookie pair from one visit log — the same
//! observables the §4 instrumentation records.

use cg_analysis::dataset::replay;
use cg_analysis::PairKey;
use cg_hash::{DigestGate, FormSet};
use cg_instrument::VisitLog;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Number of features per sample.
pub const FEATURE_COUNT: usize = 12;

/// Human-readable feature names, index-aligned with
/// [`PairSample::features`].
pub const FEATURE_NAMES: [&str; FEATURE_COUNT] = [
    "name_len",
    "name_underscore_prefix",
    "value_len_max",
    "value_entropy_max",
    "has_id_segment",
    "third_party_owner",
    "times_written",
    "distinct_cross_readers",
    "exfil_flow_requests",
    "exfil_dest_fanout",
    "via_http_header",
    "via_cookie_store",
];

/// One cookie pair's feature vector, with optional ground-truth label.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PairSample {
    /// The cookie pair (name, owner eTLD+1).
    pub key: PairKey,
    /// eTLD+1 of the site the pair was observed on.
    pub site: String,
    /// The feature vector (see [`FEATURE_NAMES`]).
    pub features: [f64; FEATURE_COUNT],
    /// Ground truth when known: `true` = tracking cookie.
    pub label: Option<bool>,
}

/// Shannon entropy of a string in bits per character.
pub fn shannon_entropy(s: &str) -> f64 {
    if s.is_empty() {
        return 0.0;
    }
    let mut counts = [0usize; 256];
    let bytes = s.as_bytes();
    for &b in bytes {
        counts[b as usize] += 1;
    }
    let n = bytes.len() as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.log2()
        })
        .sum()
}

/// Splits a cookie value into candidate identifier segments the way the
/// §4.4 pipeline does: maximal alphanumeric runs of length ≥ 8.
pub fn id_segments(value: &str) -> Vec<&str> {
    value
        .split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|seg| seg.len() >= 8)
        .collect()
}

/// Extracts one [`PairSample`] per unique cookie pair observed in `log`.
/// Labels are left `None`; see `classifier::label_samples`.
pub fn extract_samples(log: &VisitLog) -> Vec<PairSample> {
    let site = log.site();
    let replay = replay(log);

    // Pre-compute third-party request query strings once per log, and
    // which digest forms they can hold.
    let foreign_queries: Vec<(&str, &str)> = log
        .requests
        .iter()
        .filter_map(|r| {
            let dest = r.dest_domain?;
            (!log.same_domain(dest, log.site_domain)).then(|| (log.str(r.url), log.str(dest)))
        })
        .collect();
    let gate = DigestGate::of(foreign_queries.iter().map(|&(url, _)| url));

    let mut samples = Vec::with_capacity(replay.pairs.len());
    let mut forms = FormSet::default();
    let mut hits = Vec::new();
    for (index, pair) in replay.pairs.iter().enumerate() {
        let values = replay.values_of(index);
        let mut f = [0.0f64; FEATURE_COUNT];
        f[0] = pair.name.len() as f64;
        f[1] = f64::from(pair.name.starts_with('_'));
        f[2] = values.clone().map(str::len).max().unwrap_or(0) as f64;
        f[3] = values.clone().map(shannon_entropy).fold(0.0, f64::max);
        f[4] = f64::from(values.clone().any(|v| !id_segments(v).is_empty()));
        f[5] = f64::from(!pair.owner.eq_ignore_ascii_case(site));
        f[6] = values.clone().count() as f64;

        // Cross-domain readers: actors other than the owner whose reads
        // returned this cookie name.
        let readers: HashSet<&str> = log
            .reads
            .iter()
            .filter(|r| log.name_syms(r).contains(&pair.syms.0))
            .filter_map(|r| log.opt_str(r.actor))
            .filter(|a| !a.eq_ignore_ascii_case(pair.owner))
            .collect();
        f[7] = readers.len() as f64;

        // Value flows into third-party requests (raw or encoded).
        // Every (segment, request) pair that matches counts once.
        forms.reset(gate);
        for seg in values.flat_map(id_segments) {
            forms.push(seg);
        }
        let scanner = forms.scanner();
        let mut flow_requests = 0usize;
        let mut dests: HashSet<&str> = HashSet::new();
        for (url, dest) in &foreign_queries {
            scanner.scan(url, &mut hits);
            flow_requests += hits.len();
            if !hits.is_empty() {
                dests.insert(dest);
            }
        }
        f[8] = flow_requests as f64;
        f[9] = dests.len() as f64;
        f[10] = f64::from(pair.api == cg_instrument::CookieApi::HttpHeader);
        f[11] = f64::from(pair.api == cg_instrument::CookieApi::CookieStore);

        samples.push(PairSample {
            key: pair.key(),
            site: site.to_string(),
            features: f,
            label: None,
        });
    }
    samples.sort_by(|a, b| a.key.cmp(&b.key));
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_instrument::{CookieApi, Recorder, WriteKind};

    fn make_log() -> VisitLog {
        let mut r = Recorder::new("site.com", 1);
        // A tracker identifier: high-entropy value, set by a third
        // party, exfiltrated to another third party.
        r.record_set(
            "_tid",
            "a9f3c2e8b1d44756",
            Some("tracker.com"),
            Some("https://t.tracker.com/t.js"),
            CookieApi::DocumentCookie,
            WriteKind::Create,
            None,
            false,
            0,
        );
        // A benign preference cookie set by the site itself.
        r.record_set(
            "theme",
            "dark",
            Some("site.com"),
            None,
            CookieApi::DocumentCookie,
            WriteKind::Create,
            None,
            false,
            1,
        );
        // A cross-domain read that returned both cookies.
        r.record_read(
            Some("other.net"),
            CookieApi::DocumentCookie,
            &["_tid", "theme"],
            0,
            2,
        );
        // The identifier flows to a third-party endpoint.
        let script = cg_url::Url::parse("https://cdn.other.net/o.js").unwrap();
        r.record_request(
            "https://px.sink.io/c?id=a9f3c2e8b1d44756",
            cg_http::RequestKind::Image,
            Some(&script),
            "site.com",
            None,
            3,
        );
        r.finish()
    }

    fn feature(samples: &[PairSample], name: &str, idx: usize) -> f64 {
        samples
            .iter()
            .find(|s| s.key.name == name)
            .unwrap()
            .features[idx]
    }

    #[test]
    fn tracker_cookie_features_fire() {
        let samples = extract_samples(&make_log());
        assert_eq!(samples.len(), 2);
        assert_eq!(feature(&samples, "_tid", 1), 1.0, "underscore prefix");
        assert_eq!(feature(&samples, "_tid", 4), 1.0, "id segment");
        assert_eq!(feature(&samples, "_tid", 5), 1.0, "third-party owner");
        assert_eq!(feature(&samples, "_tid", 8), 1.0, "one exfil flow");
        assert_eq!(feature(&samples, "_tid", 9), 1.0, "one destination");
        assert!(feature(&samples, "_tid", 3) > 2.0, "identifier entropy");
    }

    #[test]
    fn benign_cookie_features_stay_low() {
        let samples = extract_samples(&make_log());
        assert_eq!(feature(&samples, "theme", 1), 0.0);
        assert_eq!(
            feature(&samples, "theme", 4),
            0.0,
            "no ≥8-char segment in 'dark'"
        );
        assert_eq!(feature(&samples, "theme", 5), 0.0, "first-party owner");
        assert_eq!(feature(&samples, "theme", 8), 0.0, "no flows");
    }

    #[test]
    fn encoded_flows_are_detected() {
        let mut r = Recorder::new("site.com", 1);
        let segment = "444332364caffe99";
        r.record_set(
            "_ga",
            &format!("GA1.1.{segment}"),
            Some("gtm.com"),
            None,
            CookieApi::DocumentCookie,
            WriteKind::Create,
            None,
            false,
            0,
        );
        let b64 = cg_hash::b64encode(segment.as_bytes());
        let script = cg_url::Url::parse("https://snap.licdn.com/insight.js").unwrap();
        r.record_request(
            &format!("https://px.ads.linkedin.com/t?ga={b64}"),
            cg_http::RequestKind::Image,
            Some(&script),
            "site.com",
            None,
            1,
        );
        let samples = extract_samples(&r.finish());
        assert_eq!(
            feature(&samples, "_ga", 8),
            1.0,
            "Base64-encoded flow detected"
        );
    }

    #[test]
    fn first_party_requests_do_not_count_as_flows() {
        let mut r = Recorder::new("site.com", 1);
        r.record_set(
            "sid",
            "deadbeefcafe1234",
            Some("site.com"),
            None,
            CookieApi::DocumentCookie,
            WriteKind::Create,
            None,
            false,
            0,
        );
        let script = cg_url::Url::parse("https://www.site.com/app.js").unwrap();
        r.record_request(
            "https://api.site.com/save?sid=deadbeefcafe1234",
            cg_http::RequestKind::Xhr,
            Some(&script),
            "site.com",
            None,
            1,
        );
        let samples = extract_samples(&r.finish());
        assert_eq!(
            feature(&samples, "sid", 8),
            0.0,
            "same-site flow is not exfiltration"
        );
    }

    #[test]
    fn entropy_behaves() {
        assert_eq!(shannon_entropy(""), 0.0);
        assert_eq!(shannon_entropy("aaaa"), 0.0);
        let uniform = shannon_entropy("abcdefgh");
        assert!((uniform - 3.0).abs() < 1e-9);
        assert!(shannon_entropy("a9F!x0Qz") > shannon_entropy("aaaabbbb"));
    }

    #[test]
    fn id_segment_splitting() {
        assert_eq!(
            id_segments("fb.0.1746746266109.868308499845957651"),
            vec!["1746746266109", "868308499845957651"]
        );
        assert!(id_segments("short.ab.xy").is_empty());
        assert_eq!(id_segments("abcdefgh"), vec!["abcdefgh"]);
    }

    #[test]
    fn samples_are_sorted_and_deterministic() {
        let a = extract_samples(&make_log());
        let b = extract_samples(&make_log());
        assert_eq!(a, b);
        let keys: Vec<&PairKey> = a.iter().map(|s| &s.key).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }
}
