//! The [`Recorder`]: a `VisitLog` builder the browser calls at its
//! interception points.

use crate::events::{
    AttrChangeFlags, CookieApi, DomEvent, ProbeEvent, ReadEvent, RequestEvent, ScriptInclusion,
    SetEvent, VisitLog, WriteKind, READ_NAMES_CAPACITY,
};
use crate::sink::EventSink;
use cg_hash::StrIndex;
use cg_url::Url;

/// Accumulates one visit's instrumentation log.
///
/// The runtime feeds it through the [`EventSink`] trait; the positional
/// `record_*` helpers below remain as convenience constructors for
/// tests and analysis fixtures.
#[derive(Debug, Default)]
pub struct Recorder {
    log: VisitLog,
    /// Index over `log.read_names`.
    names: StrIndex,
}

impl EventSink for Recorder {
    fn cookie_set(&mut self, event: SetEvent) {
        self.log.sets.push(event);
    }

    fn cookie_read(&mut self, event: ReadEvent) {
        self.log.reads.push(event);
    }

    fn request(&mut self, event: RequestEvent) {
        self.log.requests.push(event);
    }

    fn probe(&mut self, event: ProbeEvent) {
        self.log.probes.push(event);
    }

    fn dom_mutation(&mut self, event: DomEvent) {
        self.log.dom_events.push(event);
    }

    fn inclusion(&mut self, event: ScriptInclusion) {
        self.log.inclusions.push(event);
    }

    fn read_name(&mut self, name: &str) -> u32 {
        let table = &mut self.log.read_names;
        let found = self.names.find(name.as_bytes(), table.len(), |i| {
            table[i as usize].as_bytes()
        });
        found.unwrap_or_else(|at| {
            let index = u32::try_from(table.len()).expect("fewer than 2^32 read names");
            if table.is_empty() {
                table.reserve(READ_NAMES_CAPACITY);
            }
            table.push(name.to_string());
            self.names.insert(at, index);
            index
        })
    }
}

impl Recorder {
    /// Starts recording a visit to `site_domain` (rank for bookkeeping).
    pub fn new(site_domain: &str, rank: usize) -> Recorder {
        Recorder {
            log: VisitLog {
                site_domain: site_domain.to_string(),
                rank,
                complete: true,
                ..VisitLog::default()
            },
            names: StrIndex::default(),
        }
    }

    /// Marks the visit as incomplete (crawl-failure model).
    pub fn mark_incomplete(&mut self) {
        self.log.complete = false;
    }

    /// Records a cookie write.
    #[allow(clippy::too_many_arguments)]
    pub fn record_set(
        &mut self,
        name: &str,
        value: &str,
        actor: Option<&str>,
        actor_url: Option<&str>,
        api: CookieApi,
        kind: WriteKind,
        changes: Option<AttrChangeFlags>,
        blocked: bool,
        time_ms: u64,
    ) {
        self.record_set_with_lifetime(
            name, value, actor, actor_url, api, kind, None, changes, blocked, time_ms,
        );
    }

    /// Records a cookie write with the requested lifetime (`max_age_s`,
    /// relative seconds) — what the detection pipeline reads as
    /// persistence.
    #[allow(clippy::too_many_arguments)]
    pub fn record_set_with_lifetime(
        &mut self,
        name: &str,
        value: &str,
        actor: Option<&str>,
        actor_url: Option<&str>,
        api: CookieApi,
        kind: WriteKind,
        max_age_s: Option<i64>,
        changes: Option<AttrChangeFlags>,
        blocked: bool,
        time_ms: u64,
    ) {
        self.log.sets.push(SetEvent {
            name: name.to_string(),
            value: value.to_string(),
            actor: actor.map(str::to_string),
            actor_url: actor_url.map(str::to_string),
            api,
            kind,
            max_age_s,
            changes,
            blocked,
            time_ms,
        });
    }

    /// Records a cookie read of the cookies called `names`.
    pub fn record_read(
        &mut self,
        actor: Option<&str>,
        api: CookieApi,
        names: &[&str],
        filtered_count: usize,
        time_ms: u64,
    ) {
        let names = names.iter().map(|name| self.read_name(name)).collect();
        self.log.reads.push(ReadEvent {
            actor: actor.map(str::to_string),
            api,
            names,
            filtered_count,
            time_ms,
        });
    }

    /// Records an outbound request. `cookie_header` is the `Cookie:`
    /// value the browser attached (None/empty = nothing matched).
    pub fn record_request(
        &mut self,
        url: &str,
        kind: cg_http::RequestKind,
        initiator_url: Option<&Url>,
        first_party: &str,
        cookie_header: Option<&str>,
        time_ms: u64,
    ) {
        self.log.requests.push(RequestEvent::observed(
            url,
            kind,
            initiator_url,
            first_party,
            cookie_header,
            time_ms,
        ));
    }

    /// Records a functional-probe outcome.
    pub fn record_probe(&mut self, feature: &str, cookie: &str, ok: bool, actor: Option<&str>) {
        self.log.probes.push(ProbeEvent {
            feature: feature.to_string(),
            cookie: cookie.to_string(),
            ok,
            actor: actor.map(str::to_string),
        });
    }

    /// Records a DOM mutation (`blocked` = stopped by the DOM guard).
    pub fn record_dom(&mut self, actor: Option<&str>, owner: &str, kind: &str, blocked: bool) {
        self.log.dom_events.push(DomEvent {
            actor: actor.map(str::to_string),
            owner: owner.to_string(),
            kind: kind.to_string(),
            blocked,
        });
    }

    /// Records a script inclusion.
    pub fn record_inclusion(&mut self, url: Option<&str>, direct: bool) {
        self.log
            .inclusions
            .push(ScriptInclusion::observed(url, direct));
    }

    /// Finishes recording and returns the log.
    pub fn finish(self) -> VisitLog {
        self.log
    }

    /// Peeks at the log while recording (tests).
    pub fn log(&self) -> &VisitLog {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_all_event_kinds() {
        let mut r = Recorder::new("site.com", 7);
        r.record_set(
            "a",
            "1",
            Some("t.com"),
            Some("https://t.com/t.js"),
            CookieApi::DocumentCookie,
            WriteKind::Create,
            None,
            false,
            5,
        );
        r.record_read(Some("t.com"), CookieApi::DocumentCookie, &["a"], 0, 6);
        let script = Url::parse("https://t.com/t.js").unwrap();
        r.record_request(
            "https://x.dest.io/p?a=1",
            cg_http::RequestKind::Image,
            Some(&script),
            "site.com",
            Some("a=1; b=2"),
            7,
        );
        r.record_probe("sso", "sess", true, Some("idp.com"));
        r.record_dom(Some("ads.com"), "site.com", "content", false);
        r.record_inclusion(Some("https://t.com/t.js"), true);
        r.record_inclusion(None, true);

        let log = r.finish();
        assert_eq!(log.site_domain, "site.com");
        assert_eq!(log.rank, 7);
        assert!(log.complete);
        assert_eq!(log.sets.len(), 1);
        assert_eq!(log.reads.len(), 1);
        assert_eq!(log.requests.len(), 1);
        assert_eq!(log.requests[0].dest_domain.as_deref(), Some("dest.io"));
        assert_eq!(log.requests[0].initiator.as_deref(), Some("t.com"));
        assert_eq!(log.probes.len(), 1);
        assert_eq!(log.dom_events.len(), 1);
        assert_eq!(log.inclusions.len(), 2);
        assert_eq!(log.inclusions[1].url, "<inline>");
    }

    #[test]
    fn read_names_are_stored_once_per_visit() {
        let mut r = Recorder::new("site.com", 1);
        assert_eq!(r.read_name("_ga"), 0);
        assert_eq!(r.read_name("_gid"), 1);
        assert_eq!(r.read_name("_ga"), 0);
        r.record_read(None, CookieApi::DocumentCookie, &["_gid", "sid"], 0, 1);
        let log = r.finish();
        assert_eq!(log.read_names, ["_ga", "_gid", "sid"]);
        assert_eq!(log.reads[0].names, [1, 2]);
        assert_eq!(
            log.names_of(&log.reads[0]).collect::<Vec<_>>(),
            ["_gid", "sid"]
        );
    }

    #[test]
    fn incomplete_marking() {
        let mut r = Recorder::new("site.com", 1);
        r.mark_incomplete();
        assert!(!r.finish().complete);
    }
}
