//! Exfiltration detection (§4.4) and its aggregations (Table 2, Fig. 2).
//!
//! Pipeline, exactly as the paper specifies:
//!
//! 1. split every cookie value on non-alphanumeric delimiters and keep
//!    candidate identifiers of ≥8 characters;
//! 2. compute the Base64, MD5, and SHA-1 encodings of each candidate;
//! 3. scan the outbound requests' URLs for any encoded form;
//! 4. confirm exfiltration when a form appears in a request to a
//!    domain other than the visited site, and label it *cross-domain*
//!    when the initiating script's eTLD+1 differs from the cookie
//!    pair's owner.

use crate::census::merge_map;
use crate::dataset::{OwnershipReplay, PairKey, PairRef};
use crate::table1::{add_counts, top_k, CrossActions};
use cg_entity::EntityMap;
use cg_hash::{DigestGate, FormSet};
use cg_instrument::VisitLog;
use cg_script::value::segments;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One confirmed exfiltration event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExfilEvent {
    /// The rank of the visit the event occurred on.
    pub rank: usize,
    /// The site on which the event occurred.
    pub site: String,
    /// The exfiltrated cookie pair.
    pub pair: PairKey,
    /// eTLD+1 of the script that sent the request.
    pub exfiltrator: String,
    /// eTLD+1 of the receiving endpoint.
    pub destination: String,
    /// True when the exfiltrator is not the pair's owner.
    pub cross_domain: bool,
}

/// The complete exfiltration analysis result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExfilAnalysis {
    /// All events (cross-domain and authorized), in rank order, and
    /// within a visit in the first-write order of their pairs.
    pub events: Vec<ExfilEvent>,
    /// The cross-domain events. Their per-pair counts (Table 2) name
    /// exfiltrator organizations other than the pair owner's.
    pub cross: CrossActions,
    /// Table 2: per cross-domain exfiltrated pair, destination
    /// organization → receive count.
    pub destinations: HashMap<PairKey, HashMap<String, usize>>,
}

impl ExfilAnalysis {
    /// Runs the detection pipeline over one complete visit, replayed as
    /// `site`.
    pub(crate) fn fold(&mut self, log: &VisitLog, site: &OwnershipReplay, entities: &EntityMap) {
        // Only third-party destinations can receive an exfiltration, and
        // the initiator must be attributable for per-script analysis.
        let carriers = || {
            log.requests.iter().filter_map(|req| {
                let dest = req.dest_domain?;
                let initiator = log.str(req.initiator?);
                (!log.same_domain(dest, log.site_domain)).then_some((req, log.str(dest), initiator))
            })
        };
        let mut gate = DigestGate::default();
        let mut carried = false;
        for (req, _, _) in carriers() {
            carried = true;
            gate.observe(log.str(req.url));
        }
        if !carried {
            return;
        }
        // Candidate identifiers for this site's pairs, in first-write
        // order, each with the pair whose value it came from.
        let mut forms = FormSet::new(gate);
        let mut owners: Vec<&PairRef> = Vec::new();
        let mut seen: Vec<&str> = Vec::new();
        for (index, pair) in site.pairs.iter().enumerate() {
            seen.clear();
            for value in site.values_of(index) {
                for seg in segments(value) {
                    if !seen.contains(&seg) {
                        seen.push(seg);
                        forms.push(seg);
                        owners.push(pair);
                    }
                }
            }
        }
        if forms.is_empty() {
            return;
        }
        let scanner = forms.scanner();
        let mut hits = Vec::new();

        for (req, dest, initiator) in carriers() {
            scanner.scan(log.str(req.url), &mut hits);
            for &hit in &hits {
                let pair = owners[hit];
                let key = pair.key();
                let cross = !initiator.eq_ignore_ascii_case(pair.owner);
                self.events.push(ExfilEvent {
                    rank: log.rank,
                    site: log.site().to_string(),
                    pair: key.clone(),
                    exfiltrator: initiator.to_string(),
                    destination: dest.to_string(),
                    cross_domain: cross,
                });
                if cross {
                    // The paper excludes the owner's own entity from the
                    // exfiltrator count (Table 2 "excluding Google").
                    let ex_entity = entities.entity_of(initiator);
                    let counted =
                        (ex_entity != entities.entity_of(pair.owner)).then_some(ex_entity);
                    self.cross
                        .record(log.site(), &key, pair.api, initiator, counted);
                    let counts = self.destinations.entry(key).or_default();
                    *counts.entry(entities.entity_of(dest)).or_insert(0) += 1;
                }
            }
        }
    }

    /// Joins the analysis of other ranks: their events follow `self`'s
    /// until [`Census::finish`](crate::Census::finish) puts all in rank
    /// order.
    pub(crate) fn merge(&mut self, other: ExfilAnalysis) {
        self.events.extend(other.events);
        self.cross.merge(other.cross);
        merge_map(&mut self.destinations, other.destinations, add_counts);
    }

    /// Table 2: the top `n` pairs by destination-entity count, with the
    /// top-3 exfiltrator and destination entities each.
    pub fn table2(&self, n: usize) -> Vec<Table2Row> {
        let none = HashMap::new();
        let mut rows: Vec<Table2Row> = self
            .destinations
            .iter()
            .map(|(key, destinations)| {
                let exfiltrators = self.cross.per_pair.get(key).unwrap_or(&none);
                Table2Row {
                    cookie: key.name.clone(),
                    owner: key.owner.clone(),
                    exfiltrator_entities: exfiltrators.len(),
                    destination_entities: destinations.len(),
                    top_exfiltrators: top_k(exfiltrators, 3),
                    top_destinations: top_k(destinations, 3),
                    consent_signal: is_consent_signal(&key.name),
                }
            })
            .collect();
        rows.sort_by(|a, b| {
            b.destination_entities
                .cmp(&a.destination_entities)
                .then(b.exfiltrator_entities.cmp(&a.exfiltrator_entities))
                .then(a.cookie.cmp(&b.cookie))
                // Owner completes the pair key: without it, equal-count
                // same-name pairs order by HashMap iteration and the
                // report is not byte-reproducible across runs.
                .then(a.owner.cmp(&b.owner))
        });
        rows.truncate(n);
        rows
    }
}

/// One Table 2 row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Row {
    /// Cookie name.
    pub cookie: String,
    /// Creating domain.
    pub owner: String,
    /// Distinct cross-domain exfiltrator entities.
    pub exfiltrator_entities: usize,
    /// Distinct destination entities.
    pub destination_entities: usize,
    /// Most frequent exfiltrator entities.
    pub top_exfiltrators: Vec<String>,
    /// Most frequent destination entities.
    pub top_destinations: Vec<String>,
    /// True for IAB consent strings (`us_privacy`): *intended* to be
    /// read downstream, flagged as a consent signal rather than a
    /// tracking identifier (the paper's §5.4 exception).
    pub consent_signal: bool,
}

/// Whether a cookie name carries the IAB U.S. Privacy (CCPA) consent
/// string — §5.4 flags these as consent signals, not tracking
/// identifiers, since downstream ad tech is *supposed* to read them.
pub fn is_consent_signal(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    lower == "us_privacy" || lower == "usprivacy"
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_instrument::{CookieApi, Recorder, WriteKind};

    /// The exfiltration analysis of `log`, folded as the census folds it.
    fn detect(log: VisitLog) -> ExfilAnalysis {
        let entities = cg_entity::builtin_entity_map();
        crate::Census::of_logs([log], &entities, &cg_filterlist::FilterEngine::new())
            .finish()
            .exfil
    }

    fn one_site() -> VisitLog {
        let mut r = Recorder::new("shop.example", 1);
        // gtm.com sets _ga.
        r.record_set(
            "_ga",
            "GA1.1.444332364.1746838827",
            Some("gtm.com"),
            Some("https://gtm.com/gtm.js"),
            CookieApi::DocumentCookie,
            WriteKind::Create,
            None,
            false,
            0,
        );
        // a short cookie that can never match
        r.record_set(
            "tiny",
            "v1",
            Some("gtm.com"),
            None,
            CookieApi::DocumentCookie,
            WriteKind::Create,
            None,
            false,
            1,
        );
        // licdn.com exfiltrates the _ga segment, Base64-encoded.
        let b64 = cg_hash::b64encode_no_pad(b"444332364");
        let script = cg_url::Url::parse("https://snap.licdn.com/insight.min.js").unwrap();
        r.record_request(
            &format!("https://px.ads.linkedin.com/attribution_trigger?pid=1&ga={b64}"),
            cg_http::RequestKind::Image,
            Some(&script),
            "shop.example",
            None,
            10,
        );
        // gtm.com also sends its own cookie home (authorized, not cross).
        let gtm_script = cg_url::Url::parse("https://gtm.com/gtm.js").unwrap();
        r.record_request(
            "https://collect.gtm.com/g?id=444332364",
            cg_http::RequestKind::Beacon,
            Some(&gtm_script),
            "shop.example",
            None,
            11,
        );
        r.finish()
    }

    #[test]
    fn detects_base64_segment_exfiltration() {
        let analysis = detect(one_site());
        let cross: Vec<&ExfilEvent> = analysis.events.iter().filter(|e| e.cross_domain).collect();
        assert_eq!(cross.len(), 1);
        assert_eq!(cross[0].exfiltrator, "licdn.com");
        assert_eq!(cross[0].destination, "linkedin.com");
        assert_eq!(cross[0].pair.owner, "gtm.com");
        // The authorized gtm→gtm.com event is recorded but not cross.
        assert!(analysis
            .events
            .iter()
            .any(|e| !e.cross_domain && e.exfiltrator == "gtm.com"));
        assert_eq!(analysis.cross.sites_doc.len(), 1);
    }

    #[test]
    fn table2_aggregates_entities() {
        let analysis = detect(one_site());
        let rows = analysis.table2(5);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].cookie, "_ga");
        // licdn.com belongs to Microsoft in the entity map.
        assert_eq!(rows[0].top_exfiltrators, vec!["Microsoft".to_string()]);
        assert_eq!(rows[0].exfiltrator_entities, 1);
        assert_eq!(rows[0].destination_entities, 1);
    }

    #[test]
    fn us_privacy_flagged_as_consent_signal() {
        // §5.4: the IAB CCPA string is *meant* to be read downstream.
        let mut r = Recorder::new("site.com", 1);
        r.record_set(
            "us_privacy",
            "1YNN8437206153",
            Some("ketchjs.com"),
            None,
            CookieApi::DocumentCookie,
            WriteKind::Create,
            None,
            false,
            0,
        );
        let script = cg_url::Url::parse("https://cdn.yieldpartner.io/bid.js").unwrap();
        r.record_request(
            "https://sync.yieldpartner.io/px?usp=1YNN8437206153",
            cg_http::RequestKind::Image,
            Some(&script),
            "site.com",
            None,
            3,
        );
        let analysis = detect(r.finish());
        let rows = analysis.table2(5);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].consent_signal, "us_privacy must be flagged");
        assert!(is_consent_signal("usprivacy"));
        assert!(!is_consent_signal("_ga"));
    }

    #[test]
    fn fig2_ranks_exfiltrators() {
        let analysis = detect(one_site());
        let rows = analysis.cross.top_domains(10, 2);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, "licdn.com");
        assert_eq!(rows[0].1, 1);
        assert!((rows[0].2 - 50.0).abs() < 1e-9);
    }

    #[test]
    fn full_value_base64_is_missed() {
        // Encoding the FULL value (with a prefix whose length is not a
        // multiple of 3) destroys Base64 segment alignment: the detector
        // (faithfully) cannot match it. Note that when the prefix length
        // IS a multiple of 3 — e.g. `GA1.1.` — the segment's Base64 runs
        // appear verbatim inside the full-value encoding and detection
        // still succeeds; this test pins the genuinely-evasive case.
        let mut r = Recorder::new("site.com", 1);
        r.record_set(
            "_ga",
            "uid_444332364_tail",
            Some("gtm.com"),
            None,
            CookieApi::DocumentCookie,
            WriteKind::Create,
            None,
            false,
            0,
        );
        let b64_full = cg_hash::b64encode_no_pad(b"uid_444332364_tail");
        let script = cg_url::Url::parse("https://sneaky.io/t.js").unwrap();
        r.record_request(
            &format!("https://sink.sneaky.io/c?x={b64_full}"),
            cg_http::RequestKind::Xhr,
            Some(&script),
            "site.com",
            None,
            5,
        );
        let analysis = detect(r.finish());
        assert!(
            analysis.events.is_empty(),
            "full-value encoding must evade segment matching"
        );
    }

    #[test]
    fn events_follow_first_write_order_on_every_build() {
        // Six pairs, written in an order that is neither alphabetical
        // nor by owner, and one off-site request carrying all six values.
        let pairs = [
            ("uid", "t1.com", "uid0000aaaa1111"),
            ("_ga", "gtm.com", "ga0000bbbb2222"),
            ("sess", "shop.example", "sess0000cccc3333"),
            ("_fbp", "facebook.net", "fbp0000dddd4444"),
            ("cto_bundle", "criteo.com", "cto0000eeee5555"),
            ("id5", "id5-sync.com", "id50000ffff6666"),
        ];
        let build = || {
            let mut r = Recorder::new("shop.example", 1);
            for (i, (name, owner, value)) in pairs.iter().enumerate() {
                r.record_set(
                    name,
                    value,
                    Some(owner),
                    None,
                    CookieApi::DocumentCookie,
                    WriteKind::Create,
                    None,
                    false,
                    i as u64,
                );
            }
            let query: Vec<String> = pairs.iter().map(|(n, _, v)| format!("{n}={v}")).collect();
            let script = cg_url::Url::parse("https://cdn.sink.io/s.js").unwrap();
            r.record_request(
                &format!("https://px.sink.io/c?{}", query.join("&")),
                cg_http::RequestKind::Image,
                Some(&script),
                "shop.example",
                None,
                10,
            );
            r.finish()
        };
        let first = detect(build()).events;
        let second = detect(build()).events;
        assert_eq!(first, second);
        let order: Vec<(&str, &str)> = first
            .iter()
            .map(|e| (e.pair.name.as_str(), e.pair.owner.as_str()))
            .collect();
        let written: Vec<(&str, &str)> = pairs.iter().map(|&(n, o, _)| (n, o)).collect();
        assert_eq!(order, written);
    }

    #[test]
    fn own_site_requests_not_exfiltration() {
        let mut r = Recorder::new("site.com", 1);
        r.record_set(
            "c",
            "abcdefgh12345678",
            Some("t.com"),
            None,
            CookieApi::DocumentCookie,
            WriteKind::Create,
            None,
            false,
            0,
        );
        let script = cg_url::Url::parse("https://t.com/t.js").unwrap();
        r.record_request(
            "https://api.site.com/save?v=abcdefgh12345678",
            cg_http::RequestKind::Xhr,
            Some(&script),
            "site.com",
            None,
            1,
        );
        let analysis = detect(r.finish());
        assert!(analysis.events.is_empty());
    }
}
