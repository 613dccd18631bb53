//! The [`Recorder`]: a `VisitLog` builder the browser calls at its
//! interception points.

use crate::events::{
    AttrChangeFlags, CookieApi, DomEvent, ProbeEvent, ReadEvent, RequestEvent, ScriptInclusion,
    SetEvent, Sym, VisitLog, WriteKind,
};
use crate::sink::EventSink;
use cg_url::Url;
use std::ops::Range;

/// Accumulates one visit's instrumentation log.
///
/// The runtime feeds it through the [`EventSink`] trait; the positional
/// `record_*` helpers below remain as convenience constructors for
/// tests and analysis fixtures. Every string goes into the log's string
/// table once ([`VisitLog::intern`]), the site's domain first.
#[derive(Debug, Default)]
pub struct Recorder {
    log: VisitLog,
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

    fn intern(&mut self, s: &str) -> Sym {
        self.log.intern(s)
    }

    fn read_names(&mut self, names: &mut dyn Iterator<Item = &str>) -> Range<u32> {
        let start = self.log.read_names.len();
        for name in names {
            let sym = self.log.intern(name);
            self.log.read_names.push(sym);
        }
        let end = self.log.read_names.len();
        u32::try_from(start).expect("fewer than 2^32 read names")
            ..u32::try_from(end).expect("fewer than 2^32 read names")
    }
}

impl Recorder {
    /// Starts recording a visit to `site_domain` (rank for bookkeeping).
    pub fn new(site_domain: &str, rank: usize) -> Recorder {
        Recorder {
            log: VisitLog::new(site_domain, rank),
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
        let log = &mut self.log;
        let event = SetEvent {
            name: log.intern(name),
            value: log.intern(value),
            actor: actor.map(|a| log.intern(a)),
            actor_url: actor_url.map(|u| log.intern(u)),
            api,
            kind,
            max_age_s,
            changes,
            blocked,
            time_ms,
        };
        log.sets.push(event);
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
        let names = self.read_names(&mut names.iter().copied());
        let actor = actor.map(|a| self.log.intern(a));
        self.log.reads.push(ReadEvent {
            actor,
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
        let event = RequestEvent::observed(
            self,
            url,
            kind,
            initiator_url,
            first_party,
            cookie_header,
            time_ms,
        );
        self.log.requests.push(event);
    }

    /// Records a functional-probe outcome.
    pub fn record_probe(&mut self, feature: &str, cookie: &str, ok: bool, actor: Option<&str>) {
        let log = &mut self.log;
        let event = ProbeEvent {
            feature: log.intern(feature),
            cookie: log.intern(cookie),
            ok,
            actor: actor.map(|a| log.intern(a)),
        };
        log.probes.push(event);
    }

    /// Records a DOM mutation (`blocked` = stopped by the DOM guard).
    pub fn record_dom(&mut self, actor: Option<&str>, owner: &str, kind: &str, blocked: bool) {
        let log = &mut self.log;
        let event = DomEvent {
            actor: actor.map(|a| log.intern(a)),
            owner: log.intern(owner),
            kind: log.intern(kind),
            blocked,
        };
        log.dom_events.push(event);
    }

    /// Records a script inclusion.
    pub fn record_inclusion(&mut self, url: Option<&str>, direct: bool) {
        let domain = url.and_then(cg_url::url_domain);
        let event = ScriptInclusion::observed(self, url, domain.as_deref(), direct);
        self.log.inclusions.push(event);
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
        assert_eq!(log.site(), "site.com");
        assert_eq!(log.rank, 7);
        assert!(log.complete);
        assert_eq!(log.sets.len(), 1);
        assert_eq!(log.reads.len(), 1);
        assert_eq!(log.requests.len(), 1);
        assert_eq!(log.opt_str(log.requests[0].dest_domain), Some("dest.io"));
        assert_eq!(log.opt_str(log.requests[0].initiator), Some("t.com"));
        assert_eq!(log.probes.len(), 1);
        assert_eq!(log.dom_events.len(), 1);
        assert_eq!(log.inclusions.len(), 2);
        assert_eq!(log.str(log.inclusions[1].url), "<inline>");
    }

    #[test]
    fn strings_are_stored_once_per_visit() {
        let mut r = Recorder::new("site.com", 1);
        assert_eq!(r.intern("site.com"), 0, "the site's domain comes first");
        assert_eq!(r.intern("_ga"), 1);
        assert_eq!(r.intern("_gid"), 2);
        assert_eq!(r.intern("_ga"), 1);
        r.record_read(
            Some("_ga"),
            CookieApi::DocumentCookie,
            &["_gid", "sid"],
            0,
            1,
        );
        r.record_read(None, CookieApi::DocumentCookie, &["sid"], 0, 2);
        let log = r.finish();
        assert_eq!(
            log.strings.iter().collect::<Vec<_>>(),
            ["site.com", "_ga", "_gid", "sid"]
        );
        assert_eq!(log.read_names, [2, 3, 3]);
        assert_eq!(
            (log.reads[0].names.clone(), log.reads[1].names.clone()),
            (0..2, 2..3)
        );
        assert_eq!(log.reads[0].actor, Some(1));
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
