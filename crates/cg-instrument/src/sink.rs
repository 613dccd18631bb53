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
//! the event types), and the sink merely receives them.
//!
//! Two implementations ship here:
//!
//! * [`Recorder`](crate::Recorder) — accumulates a
//!   [`VisitLog`](crate::VisitLog) (the measurement path);
//! * [`NullSink`] — discards everything (vanilla crawls and
//!   micro-benchmarks that want enforcement without logging cost).

use crate::events::{DomEvent, ProbeEvent, ReadEvent, RequestEvent, ScriptInclusion, SetEvent};

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

    /// The index of cookie name `name` in the visit's read-name table,
    /// for a [`ReadEvent`]'s `names`: a sink that keeps the visit's
    /// events adds a name on its first read, so a name read again
    /// costs a lookup and no allocation.
    fn read_name(&mut self, name: &str) -> u32;
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
    /// Every name is index 0: the read events that would carry it are
    /// dropped.
    fn read_name(&mut self, _name: &str) -> u32 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::CookieApi;
    use crate::Recorder;

    fn read_event() -> ReadEvent {
        ReadEvent {
            actor: Some("t.com".into()),
            api: CookieApi::DocumentCookie,
            names: vec![0],
            filtered_count: 0,
            time_ms: 5,
        }
    }

    #[test]
    fn recorder_sink_accumulates() {
        let mut r = Recorder::new("site.com", 1);
        let sink: &mut dyn EventSink = &mut r;
        sink.cookie_read(read_event());
        assert_eq!(r.log().reads.len(), 1);
    }

    #[test]
    fn null_sink_discards() {
        let mut n = NullSink;
        let sink: &mut dyn EventSink = &mut n;
        sink.cookie_read(read_event());
        // Nothing to observe — the call simply must not panic.
    }
}
