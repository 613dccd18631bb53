//! Server-side tracking analysis (§5.7).
//!
//! The paper warns that "emerging practices like server-side tracking
//! bypass client-side defenses, including our own CookieGuard, by
//! proxying exfiltration through seemingly first-party endpoints". This
//! module quantifies that blind spot: it resolves each site's
//! server-side relay rules (a ground truth the client can never observe)
//! against the recorded first-party requests and counts the cookie pairs
//! that reach a tracker *through the site's own server*.
//!
//! Two channels feed the relay:
//!
//! * the **query payload** a collector script assembled from its
//!   script-visible jar (the site-owned sGTM loader sees everything even
//!   under CookieGuard; a third-party gateway pixel sees only its own
//!   cookies when guarded);
//! * the **`Cookie:` request header**, which the browser attaches to any
//!   first-party request with the *entire* jar — HttpOnly included —
//!   regardless of script-level isolation.

use crate::dataset::OwnershipReplay;
use cg_instrument::VisitLog;
use cg_script::event_loop::parse_pairs;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// One site's relay rules: `(path_prefix, tracker eTLD+1)` on the site's
/// own host. Keyed by site domain in [`ForwardMap`].
pub type ForwardRules = Vec<(String, String)>;

/// Site domain → server-side relay rules (ground truth from the
/// generator; in the real world, only the site operator knows these).
pub type ForwardMap = HashMap<String, ForwardRules>;

/// What the server-side analysis found.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServerSideReport {
    /// Sites in the analyzable dataset.
    pub sites_analyzed: usize,
    /// Sites with at least one relay rule configured.
    pub sites_with_gateway: usize,
    /// First-party requests that matched a relay rule (i.e. were
    /// forwarded to a tracker server-side).
    pub gateway_requests: usize,
    /// Sites where at least one relayed request exposed cookies created
    /// by a party other than the receiving tracker (cross-domain
    /// exfiltration, executed server-side).
    pub sites_with_server_relay: usize,
    /// Unique `(site, cookie name)` pairs relayed to a foreign tracker.
    pub cross_domain_cookies_relayed: usize,
    /// Of the relayed requests, how many carried the jar in the
    /// `Cookie:` header (the channel no script-level defense touches).
    pub requests_with_header_payload: usize,
}

impl ServerSideReport {
    /// Percentage of analyzed sites with server-side cross-domain relay.
    pub fn pct_sites_with_relay(&self) -> f64 {
        if self.sites_analyzed == 0 {
            0.0
        } else {
            100.0 * self.sites_with_server_relay as f64 / self.sites_analyzed as f64
        }
    }
}

impl ServerSideReport {
    /// Resolves `forwards` against one visit's first-party requests; `site`
    /// is the visit's ownership replay ([`Census::fold`](crate::Census::fold)
    /// returns it). Incomplete visits are skipped (the §4.2 filter).
    ///
    /// A cookie counts as *cross-domain relayed* when a matching gateway
    /// request exposed it (header or query) and its recorded creator is
    /// neither the receiving tracker nor the site itself — the same
    /// cross-domain predicate as Table 1, executed on the server instead
    /// of in the page.
    pub fn fold(&mut self, log: &VisitLog, site: &OwnershipReplay, forwards: &ForwardMap) {
        if !log.complete {
            return;
        }
        self.sites_analyzed += 1;
        let Some(rules) = forwards.get(log.site()).filter(|r| !r.is_empty()) else {
            return;
        };
        self.sites_with_gateway += 1;

        // name → owners, from the same replay the client-side tables read.
        let mut owners: HashMap<&str, HashSet<&str>> = HashMap::new();
        for pair in &site.pairs {
            owners.entry(pair.name).or_default().insert(pair.owner);
        }

        let mut relayed_here: HashSet<String> = HashSet::new();
        for req in &log.requests {
            // Only requests to the site's own host can hit the gateway.
            if req.dest_domain != Some(log.site_domain) {
                continue;
            }
            let url = log.str(req.url);
            let path = path_of(url);
            let Some((_, tracker)) = rules
                .iter()
                .find(|(prefix, _)| path.starts_with(prefix.as_str()))
            else {
                continue;
            };
            self.gateway_requests += 1;

            // Exposed cookie names: the attached Cookie header plus the
            // query-string parameter names the collector assembled.
            let mut exposed: HashSet<String> = HashSet::new();
            if let Some(header) = log.opt_str(req.cookie_header) {
                self.requests_with_header_payload += 1;
                for (name, _) in parse_pairs(header) {
                    if !name.is_empty() {
                        exposed.insert(name);
                    }
                }
            }
            if let Some(query) = url.split_once('?').map(|(_, q)| q) {
                for param in query.split('&') {
                    if let Some((name, _)) = param.split_once('=') {
                        exposed.insert(name.to_string());
                    }
                }
            }

            #[allow(clippy::iter_over_hash_type)] // builds a set: order cannot matter
            for name in exposed {
                let Some(who) = owners.get(name.as_str()) else {
                    continue;
                };
                let foreign = who.iter().any(|o| {
                    !o.eq_ignore_ascii_case(tracker) && !o.eq_ignore_ascii_case(log.site())
                });
                if foreign {
                    relayed_here.insert(name);
                }
            }
        }
        if !relayed_here.is_empty() {
            self.sites_with_server_relay += 1;
            self.cross_domain_cookies_relayed += relayed_here.len();
        }
    }

    /// Joins the report of the ranks after `self`'s.
    pub fn merge(mut self, other: ServerSideReport) -> ServerSideReport {
        self.sites_analyzed += other.sites_analyzed;
        self.sites_with_gateway += other.sites_with_gateway;
        self.gateway_requests += other.gateway_requests;
        self.sites_with_server_relay += other.sites_with_server_relay;
        self.cross_domain_cookies_relayed += other.cross_domain_cookies_relayed;
        self.requests_with_header_payload += other.requests_with_header_payload;
        self
    }
}

fn path_of(url: &str) -> &str {
    let rest = url.split_once("://").map(|(_, r)| r).unwrap_or(url);
    let rest = rest.split_once('?').map(|(p, _)| p).unwrap_or(rest);
    match rest.find('/') {
        Some(i) => &rest[i..],
        None => "/",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::replay;
    use cg_instrument::{CookieApi, Recorder, WriteKind};

    fn forwards_for(site: &str) -> ForwardMap {
        let mut m = ForwardMap::new();
        m.insert(
            site.to_string(),
            vec![("/g/collect".to_string(), "google-analytics.com".to_string())],
        );
        m
    }

    fn detect(log: VisitLog, forwards: &ForwardMap) -> ServerSideReport {
        let mut report = ServerSideReport::default();
        report.fold(&log, &replay(&log), forwards);
        report
    }

    fn gateway_log(cookie_owner: &str) -> cg_instrument::VisitLog {
        let mut r = Recorder::new("shop.example", 1);
        // A third-party pixel ghost-writes an identifier…
        r.record_set(
            "_fbp",
            "fb.1.17.868308499",
            Some(cookie_owner),
            None,
            CookieApi::DocumentCookie,
            WriteKind::Create,
            None,
            false,
            0,
        );
        // …and the site's own collector posts the jar to the first-party
        // endpoint, Cookie header attached by the browser.
        let loader = cg_url::Url::parse("https://www.shop.example/sgtm/loader.js").unwrap();
        r.record_request(
            "https://www.shop.example/g/collect?v=2&_fbp=fb.1.17.868308499",
            cg_http::RequestKind::Beacon,
            Some(&loader),
            "shop.example",
            Some("_fbp=fb.1.17.868308499; session_id=abc"),
            5,
        );
        r.finish()
    }

    #[test]
    fn relay_of_foreign_cookie_detected() {
        let report = detect(gateway_log("facebook.net"), &forwards_for("shop.example"));
        assert_eq!(report.sites_with_gateway, 1);
        assert_eq!(report.gateway_requests, 1);
        assert_eq!(report.sites_with_server_relay, 1);
        assert_eq!(report.cross_domain_cookies_relayed, 1);
        assert_eq!(report.requests_with_header_payload, 1);
        assert!((report.pct_sites_with_relay() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn relay_to_own_tracker_not_cross_domain() {
        // The cookie's creator IS the receiving tracker: authorized sync,
        // not cross-domain exfiltration.
        let report = detect(
            gateway_log("google-analytics.com"),
            &forwards_for("shop.example"),
        );
        assert_eq!(report.sites_with_gateway, 1);
        assert_eq!(report.sites_with_server_relay, 0);
    }

    #[test]
    fn non_matching_paths_ignored() {
        let mut m = ForwardMap::new();
        m.insert(
            "shop.example".to_string(),
            vec![("/other".to_string(), "ga.com".to_string())],
        );
        let report = detect(gateway_log("facebook.net"), &m);
        assert_eq!(report.gateway_requests, 0);
        assert_eq!(report.sites_with_server_relay, 0);
    }

    #[test]
    fn sites_without_rules_skipped() {
        let report = detect(gateway_log("facebook.net"), &ForwardMap::new());
        assert_eq!(report.sites_with_gateway, 0);
        assert_eq!(report.pct_sites_with_relay(), 0.0);
    }

    #[test]
    fn merge_equals_one_fold_over_both_visits() {
        let forwards = forwards_for("shop.example");
        let (a, b) = (
            gateway_log("facebook.net"),
            gateway_log("google-analytics.com"),
        );
        let mut both = ServerSideReport::default();
        for log in [&a, &b] {
            both.fold(log, &replay(log), &forwards);
        }
        assert_eq!(both.sites_with_server_relay, 1);
        assert_eq!(detect(a, &forwards).merge(detect(b, &forwards)), both);
    }

    #[test]
    fn path_extraction() {
        assert_eq!(path_of("https://www.x.com/g/collect?a=1"), "/g/collect");
        assert_eq!(path_of("https://www.x.com"), "/");
        assert_eq!(path_of("www.x.com/p"), "/p");
    }
}
