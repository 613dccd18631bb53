//! Log event types.

use cg_http::RequestKind;
use serde::{Content, Deserialize, Serialize};

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
#[derive(Debug, Clone, PartialEq)]
pub struct ReadEvent {
    /// eTLD+1 of the acting script (None = inline/unattributed).
    pub actor: Option<String>,
    /// The API used.
    pub api: CookieApi,
    /// The cookies the caller received, in the order it received them,
    /// as indices into the visit's [`VisitLog::read_names`] (values are
    /// not logged: no analysis reads them). A name read many times in
    /// one visit is stored once; [`VisitLog::names_of`] resolves them.
    pub names: Vec<u32>,
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

/// The capacity a visit's [`VisitLog::read_names`] table starts at once
/// it holds a name: a visit that reads one cookie name usually reads
/// several, so the table starts where growing from 4 would get to.
pub const READ_NAMES_CAPACITY: usize = 16;

/// Everything recorded during one site visit.
///
/// Serializes as one JSON object per visit (the crawl-store export's
/// line format), with each read's `names` printed as strings; the
/// [`VisitLog::read_names`] table they index is not a key of its own.
#[derive(Debug, Clone, Default)]
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
    /// The distinct cookie names the reads returned, each once: what
    /// [`ReadEvent::names`] indexes.
    pub read_names: Vec<String>,
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

    /// Read name `index` of [`VisitLog::read_names`].
    pub fn read_name(&self, index: u32) -> &str {
        &self.read_names[index as usize]
    }

    /// The names `read` returned, in order.
    pub fn names_of<'a>(&'a self, read: &'a ReadEvent) -> impl Iterator<Item = &'a str> + 'a {
        read.names.iter().map(|&i| self.read_name(i))
    }

    /// Third-party script inclusions (external, different eTLD+1).
    pub fn third_party_inclusions(&self) -> impl Iterator<Item = &ScriptInclusion> {
        let site = self.site_domain.clone();
        self.inclusions
            .iter()
            .filter(move |s| matches!(&s.domain, Some(d) if !d.eq_ignore_ascii_case(&site)))
    }
}

/// A JSON object of `fields`, in order.
fn object(fields: Vec<(&str, Content)>) -> Content {
    Content::Map(
        fields
            .into_iter()
            .map(|(key, value)| (Content::Str(key.to_string()), value))
            .collect(),
    )
}

impl Serialize for VisitLog {
    fn to_content(&self) -> Content {
        let reads = self
            .reads
            .iter()
            .map(|r| {
                object(vec![
                    ("actor", r.actor.to_content()),
                    ("api", r.api.to_content()),
                    (
                        "names",
                        Content::Seq(self.names_of(r).map(Serialize::to_content).collect()),
                    ),
                    ("filtered_count", r.filtered_count.to_content()),
                    ("time_ms", r.time_ms.to_content()),
                ])
            })
            .collect();
        object(vec![
            ("site_domain", self.site_domain.to_content()),
            ("rank", self.rank.to_content()),
            ("complete", self.complete.to_content()),
            ("sets", self.sets.to_content()),
            ("reads", Content::Seq(reads)),
            ("requests", self.requests.to_content()),
            ("probes", self.probes.to_content()),
            ("dom_events", self.dom_events.to_content()),
            ("inclusions", self.inclusions.to_content()),
        ])
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

    #[test]
    fn reads_serialize_their_names_as_strings() {
        let log = VisitLog {
            site_domain: "site.com".into(),
            rank: 3,
            complete: true,
            reads: vec![ReadEvent {
                actor: Some("t.com".into()),
                api: CookieApi::CookieStore,
                names: vec![1, 0, 1],
                filtered_count: 2,
                time_ms: 9,
            }],
            read_names: vec!["_ga".into(), "sid".into()],
            ..VisitLog::default()
        };
        assert_eq!(
            serde_json::to_string(&log).unwrap(),
            "{\"site_domain\":\"site.com\",\"rank\":3,\"complete\":true,\"sets\":[],\
             \"reads\":[{\"actor\":\"t.com\",\"api\":\"CookieStore\",\
             \"names\":[\"sid\",\"_ga\",\"sid\"],\"filtered_count\":2,\"time_ms\":9}],\
             \"requests\":[],\"probes\":[],\"dom_events\":[],\"inclusions\":[]}"
        );
    }
}
