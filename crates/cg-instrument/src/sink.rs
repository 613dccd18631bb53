//! The [`EventSink`] trait: the single boundary through which runtime
//! code emits instrumentation events.
//!
//! Historically every interception point called a matching
//! `Recorder::record_*` method with a long positional argument list,
//! which meant each caller re-synthesized event structs field by field
//! — and could silently get one wrong. The sink inverts that: events
//! are constructed *once*, by the layer that owns the semantics (the
//! cookie access layer builds [`SetEvent`]/[`ReadEvent`]; the browser
//! builds request/DOM/probe/inclusion events via the constructors on
//! the event types), and the sink merely receives them. An event's
//! strings are symbols the sink itself handed out
//! ([`EventSink::intern`], [`EventSink::read_names`]), so a string the
//! visit logs many times is stored once.
//!
//! Two implementations ship here:
//!
//! * [`Recorder`](crate::Recorder) — accumulates a
//!   [`VisitLog`](crate::VisitLog) (the measurement path);
//! * [`NullSink`] — discards everything (vanilla crawls and
//!   micro-benchmarks that want enforcement without logging cost).

use crate::events::{
    DomEvent, ProbeEvent, ReadEvent, RequestEvent, ScriptInclusion, SetEvent, Sym,
};
use std::ops::Range;

/// Receives fully-constructed instrumentation events.
///
/// Implementors only store or forward; they must not reinterpret event
/// contents. Event *construction* belongs to the emitting layer (see
/// the constructors on the event types and
/// `cookieguard_core::GuardedJar`).
pub trait EventSink {
    /// A cookie write (create / overwrite / delete), blocked or applied.
    fn cookie_set(&mut self, event: SetEvent);
    /// A cookie read (`document.cookie` getter, CookieStore get/getAll).
    fn cookie_read(&mut self, event: ReadEvent);
    /// An outbound network request.
    fn request(&mut self, event: RequestEvent);
    /// A functional-probe outcome.
    fn probe(&mut self, event: ProbeEvent);
    /// A DOM mutation (applied or blocked by the DOM guard).
    fn dom_mutation(&mut self, event: DomEvent);
    /// A script observed in the main frame.
    fn inclusion(&mut self, event: ScriptInclusion);

    /// The symbol of `s` in the visit's string table, for an event's
    /// string fields: a sink that keeps the visit's events adds a
    /// string on its first use, so a string logged again costs a lookup
    /// and no allocation.
    fn intern(&mut self, s: &str) -> Sym;

    /// Appends `names` (interned) to the visit's read-name list and
    /// returns their range there, for a [`ReadEvent`]'s `names`.
    fn read_names(&mut self, names: &mut dyn Iterator<Item = &str>) -> Range<u32>;
}

/// An [`EventSink`] that drops every event — the zero-cost sink for
/// guard-only runs (enforcement without measurement).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn cookie_set(&mut self, _event: SetEvent) {}
    fn cookie_read(&mut self, _event: ReadEvent) {}
    fn request(&mut self, _event: RequestEvent) {}
    fn probe(&mut self, _event: ProbeEvent) {}
    fn dom_mutation(&mut self, _event: DomEvent) {}
    fn inclusion(&mut self, _event: ScriptInclusion) {}
    /// Every string is symbol 0: the events that would carry it are
    /// dropped.
    fn intern(&mut self, _s: &str) -> Sym {
        0
    }
    /// Every read returns no names, as its event is dropped.
    fn read_names(&mut self, _names: &mut dyn Iterator<Item = &str>) -> Range<u32> {
        0..0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::CookieApi;
    use crate::Recorder;

    fn read_event(sink: &mut dyn EventSink) -> ReadEvent {
        ReadEvent {
            actor: Some(sink.intern("t.com")),
            api: CookieApi::DocumentCookie,
            names: sink.read_names(&mut ["a", "b", "a"].into_iter()),
            filtered_count: 0,
            time_ms: 5,
        }
    }

    #[test]
    fn recorder_sink_accumulates() {
        let mut r = Recorder::new("site.com", 1);
        let sink: &mut dyn EventSink = &mut r;
        let event = read_event(sink);
        sink.cookie_read(event);
        let log = r.log();
        assert_eq!(log.reads.len(), 1);
        assert_eq!(log.opt_str(log.reads[0].actor), Some("t.com"));
        assert_eq!(
            log.names_of(&log.reads[0]).collect::<Vec<_>>(),
            ["a", "b", "a"]
        );
    }

    #[test]
    fn null_sink_discards() {
        let mut n = NullSink;
        let sink: &mut dyn EventSink = &mut n;
        let event = read_event(sink);
        sink.cookie_read(event);
        // Nothing to observe — the call simply must not panic.
    }
}
