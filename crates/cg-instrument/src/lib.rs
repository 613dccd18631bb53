//! The measurement layer — this reproduction's analog of the paper's
//! instrumentation extension (§4.1).
//!
//! The extension wraps `document.cookie` with `Object.defineProperty`,
//! overrides the `CookieStore` methods, watches `Set-Cookie` headers via
//! `webRequest.onHeadersReceived`, and attributes outbound requests with
//! the debugger protocol. Here, the browser simulator calls into a
//! [`Recorder`] from exactly those interception points, producing a
//! [`VisitLog`] per site visit. The analysis framework (`cg-analysis`)
//! consumes only these logs — it never peeks at simulator internals, so
//! the measurement has the same epistemic position as the paper's.
//!
//! **Layer:** measurement (written by `cg-browser`, read by
//! `cg-analysis`). **Invariant:** events carry symbols of their own
//! visit's string table ([`StrTable`]), never process-wide interned
//! ids, and the wire format is stable across refactors (the
//! access-layer equivalence test pins it). **Entry points:**
//! `Recorder`, `VisitLog`, `EventSink`.

pub mod counters;
pub mod events;
pub mod recorder;
pub mod sink;

pub use counters::{ServiceCounters, TenantCounters};
pub use events::{
    AttrChangeFlags, CookieApi, DomEvent, ProbeEvent, ReadEvent, RequestEvent, ScriptInclusion,
    SetEvent, StrTable, Sym, VisitLog, WriteKind,
};
pub use recorder::Recorder;
pub use sink::{EventSink, NullSink};
