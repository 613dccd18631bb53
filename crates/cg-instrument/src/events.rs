//! Log event types.

use cg_http::RequestKind;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which script-facing API an operation used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CookieApi {
    /// The legacy string interface.
    DocumentCookie,
    /// The structured `CookieStore` API.
    CookieStore,
    /// An HTTP `Set-Cookie` response header.
    HttpHeader,
}

/// The semantic kind of a write: what the measurement distinguishes in
/// Table 1 (set vs. overwrite vs. delete).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WriteKind {
    /// A brand-new cookie.
    Create,
    /// An existing cookie replaced.
    Overwrite,
    /// An existing cookie removed (expiry-in-the-past or
    /// `cookieStore.delete`).
    Delete,
}

/// Which attributes an overwrite changed (§5.5's taxonomy).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttrChangeFlags {
    /// Value changed.
    pub value: bool,
    /// Expiry changed.
    pub expires: bool,
    /// Domain attribute changed.
    pub domain: bool,
    /// Path changed.
    pub path: bool,
}

/// A cookie write (create/overwrite/delete) observed at the API boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SetEvent {
    /// Cookie name.
    pub name: String,
    /// Written value (empty for deletes).
    pub value: String,
    /// eTLD+1 of the acting script (None = inline/unattributed); for
    /// `HttpHeader` events, the responding server's eTLD+1.
    pub actor: Option<String>,
    /// Full URL of the acting script, when attributable.
    pub actor_url: Option<String>,
    /// The API used.
    pub api: CookieApi,
    /// Create / overwrite / delete.
    pub kind: WriteKind,
    /// Requested lifetime in seconds (`Max-Age`, or derived from
    /// `Expires`); `None` = session cookie or unrecorded.
    pub max_age_s: Option<i64>,
    /// Attribute changes (overwrites only).
    pub changes: Option<AttrChangeFlags>,
    /// True when CookieGuard blocked the operation (the write never
    /// reached the jar).
    pub blocked: bool,
    /// Visit-relative time.
    pub time_ms: u64,
}

/// A cookie read observed at the API boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReadEvent {
    /// eTLD+1 of the acting script (None = inline/unattributed).
    pub actor: Option<String>,
    /// The API used.
    pub api: CookieApi,
    /// The names of the cookies the caller received, in the order it
    /// received them (values are not logged: no analysis reads them).
    /// Shared: a name read many times in one visit is one allocation.
    pub names: Vec<Arc<str>>,
    /// How many additional cookies CookieGuard withheld from this read.
    pub filtered_count: usize,
    /// Visit-relative time.
    pub time_ms: u64,
}

/// An outbound network request (`Network.requestWillBeSent` analog).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestEvent {
    /// Full URL including query string.
    pub url: String,
    /// Destination eTLD+1 (pre-computed for the analysis).
    pub dest_domain: Option<String>,
    /// Resource type.
    pub kind: RequestKind,
    /// eTLD+1 of the initiating script, from the stack trace.
    pub initiator: Option<String>,
    /// Full URL of the initiating script.
    pub initiator_url: Option<String>,
    /// The page's eTLD+1.
    pub first_party: String,
    /// The `Cookie:` request header the browser attached (None when no
    /// cookies matched the destination). First-party endpoints receive
    /// the *whole* jar here regardless of any script-level isolation —
    /// the channel server-side tracking rides (§5.7).
    pub cookie_header: Option<String>,
    /// Visit-relative time.
    pub time_ms: u64,
}

impl RequestEvent {
    /// Builds the event for an observed outbound request, deriving the
    /// destination/initiator eTLD+1 fields the analysis consumes.
    /// `cookie_header` is the `Cookie:` value the browser attached
    /// (None or empty = nothing matched).
    pub fn observed(
        url: &str,
        kind: RequestKind,
        initiator_url: Option<&cg_url::Url>,
        first_party: &str,
        cookie_header: Option<&str>,
        time_ms: u64,
    ) -> RequestEvent {
        RequestEvent {
            url: url.to_string(),
            dest_domain: cg_url::url_domain(url),
            kind,
            initiator: initiator_url.and_then(|u| u.registrable_domain()),
            initiator_url: initiator_url.map(|u| u.to_string()),
            first_party: first_party.to_string(),
            cookie_header: cookie_header.filter(|h| !h.is_empty()).map(str::to_string),
            time_ms,
        }
    }
}

/// A functional-probe outcome (breakage evaluation).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeEvent {
    /// Feature label (`sso`, `sso_reload`, `cart`, `chat`, `ads`,
    /// `functionality`).
    pub feature: String,
    /// The cookie the feature depends on.
    pub cookie: String,
    /// Whether the dependent read succeeded.
    pub ok: bool,
    /// eTLD+1 of the probing script.
    pub actor: Option<String>,
}

/// A DOM mutation attributed to a script (§8 pilot).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DomEvent {
    /// Acting script's eTLD+1.
    pub actor: Option<String>,
    /// Owner of the mutated element.
    pub owner: String,
    /// Mutation kind label.
    pub kind: String,
    /// True when the DOM guard blocked the mutation (it never reached
    /// the document).
    pub blocked: bool,
}

impl DomEvent {
    /// A mutation is cross-domain when the actor is known and differs
    /// from the element's owner.
    pub fn is_cross_domain(&self) -> bool {
        match &self.actor {
            Some(a) => !a.eq_ignore_ascii_case(&self.owner),
            None => false,
        }
    }
}

/// One script observed in the main frame.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScriptInclusion {
    /// Script URL (`<inline>` for inline scripts).
    pub url: String,
    /// eTLD+1, when external.
    pub domain: Option<String>,
    /// Present in served markup (`true`) vs dynamically injected.
    pub direct: bool,
}

impl ScriptInclusion {
    /// Builds the inclusion record for a script URL (`None` = inline),
    /// deriving its eTLD+1.
    pub fn observed(url: Option<&str>, direct: bool) -> ScriptInclusion {
        let (url_s, domain) = match url {
            Some(u) => (u.to_string(), cg_url::url_domain(u)),
            None => ("<inline>".to_string(), None),
        };
        ScriptInclusion {
            url: url_s,
            domain,
            direct,
        }
    }
}

/// Everything recorded during one site visit.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct VisitLog {
    /// The visited site's eTLD+1.
    pub site_domain: String,
    /// Tranco-style rank.
    pub rank: usize,
    /// Whether the crawl produced complete data (§4.2's retention filter).
    pub complete: bool,
    /// Cookie writes, in time order.
    pub sets: Vec<SetEvent>,
    /// Cookie reads, in time order.
    pub reads: Vec<ReadEvent>,
    /// Outbound requests, in time order.
    pub requests: Vec<RequestEvent>,
    /// Probe outcomes.
    pub probes: Vec<ProbeEvent>,
    /// DOM mutations.
    pub dom_events: Vec<DomEvent>,
    /// Scripts seen in the main frame.
    pub inclusions: Vec<ScriptInclusion>,
}

impl VisitLog {
    /// Count of cookie operations (reads + writes) — the load driver for
    /// the performance model.
    pub fn cookie_op_count(&self) -> usize {
        self.sets.len() + self.reads.len()
    }

    /// Third-party script inclusions (external, different eTLD+1).
    pub fn third_party_inclusions(&self) -> impl Iterator<Item = &ScriptInclusion> {
        let site = self.site_domain.clone();
        self.inclusions
            .iter()
            .filter(move |s| matches!(&s.domain, Some(d) if !d.eq_ignore_ascii_case(&site)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn third_party_inclusion_filtering() {
        let log = VisitLog {
            site_domain: "site.com".into(),
            inclusions: vec![
                ScriptInclusion {
                    url: "https://www.site.com/app.js".into(),
                    domain: Some("site.com".into()),
                    direct: true,
                },
                ScriptInclusion {
                    url: "https://t.tracker.io/t.js".into(),
                    domain: Some("tracker.io".into()),
                    direct: true,
                },
                ScriptInclusion {
                    url: "<inline>".into(),
                    domain: None,
                    direct: true,
                },
            ],
            ..VisitLog::default()
        };
        assert_eq!(log.third_party_inclusions().count(), 1);
    }

    #[test]
    fn cookie_op_count_sums() {
        let mut log = VisitLog::default();
        log.sets.push(SetEvent {
            name: "a".into(),
            value: "1".into(),
            actor: Some("x.com".into()),
            actor_url: Some("https://x.com/x.js".into()),
            api: CookieApi::DocumentCookie,
            kind: WriteKind::Create,
            max_age_s: None,
            changes: None,
            blocked: false,
            time_ms: 0,
        });
        log.reads.push(ReadEvent {
            actor: None,
            api: CookieApi::DocumentCookie,
            names: vec![],
            filtered_count: 0,
            time_ms: 1,
        });
        assert_eq!(log.cookie_op_count(), 2);
    }
}
