//! The [`Platform`] trait: everything a behaviour program can touch.
//!
//! The browser simulator (`cg-browser`) implements this trait; the
//! CookieGuard enforcement layer and the measurement instrumentation both
//! interpose at these methods — the same chokepoint the paper's extension
//! wraps with `Object.defineProperty`.

use crate::behavior::DomMutationKind;
use crate::context::Attribution;
use crate::event_loop::ScriptExecution;
use cg_http::RequestKind;

/// A jar mutation surfaced to CookieStore `change`-event listeners.
///
/// The event loop drains these from the platform after every task and
/// dispatches matching listener programs (see
/// [`crate::ScriptOp::OnCookieChange`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CookieChangeNotice {
    /// The affected cookie's name.
    pub name: String,
    /// True when the change removed the cookie (delete/evict/expire);
    /// false for creations and replacements.
    pub deleted: bool,
}

/// The web-platform surface exposed to scripts. `'a` is the lifetime of
/// the behaviour programs the platform hands out for injected scripts:
/// the event loop runs them borrowed, never copied.
pub trait Platform<'a> {
    /// The visited site's registrable domain (what `Domain=`-wide cookie
    /// writes scope to).
    fn site_domain(&self) -> &str;

    /// The `document.cookie` getter: the serialized cookie string the
    /// caller is allowed to see.
    fn document_cookie_get(&mut self, at: &Attribution) -> String;

    /// The `document.cookie` setter. Returns false when the write was
    /// rejected (jar validation or CookieGuard policy).
    fn document_cookie_set(&mut self, at: &Attribution, raw: &str) -> bool;

    /// `cookieStore.get(name)` → the value, if visible. `None` both when
    /// absent and when filtered.
    fn cookie_store_get(&mut self, at: &Attribution, name: &str) -> Option<String>;

    /// `cookieStore.getAll()` → `(name, value)` pairs visible to caller.
    fn cookie_store_get_all(&mut self, at: &Attribution) -> Vec<(String, String)>;

    /// `cookieStore.set(…)`. Returns false when rejected.
    fn cookie_store_set(
        &mut self,
        at: &Attribution,
        name: &str,
        value: &str,
        expires_in_ms: Option<i64>,
    ) -> bool;

    /// `cookieStore.delete(name)`. Returns false when rejected/absent.
    fn cookie_store_delete(&mut self, at: &Attribution, name: &str) -> bool;

    /// Issue an outbound request (the `Network.requestWillBeSent` event).
    fn send_request(&mut self, at: &Attribution, url: &str, kind: RequestKind);

    /// Resolve a dynamically injected script URL into an execution. The
    /// returned program runs as its own task after the current one.
    fn resolve_injected_script(
        &mut self,
        at: &Attribution,
        url: &str,
    ) -> Option<ScriptExecution<'a>>;

    /// Insert a DOM element owned by the caller.
    fn dom_insert(&mut self, at: &Attribution, tag: &str);

    /// Mutate a DOM element; `foreign_target` requests an element owned
    /// by a different party.
    fn dom_mutate(&mut self, at: &Attribution, kind: DomMutationKind, foreign_target: bool);

    /// Record a functional-probe outcome (breakage evaluation).
    fn probe_result(&mut self, at: &Attribution, feature: &str, cookie: &str, ok: bool);

    /// Drains the script-visible cookie changes accumulated since the
    /// last call (the CookieStore `change`-event feed). The default
    /// platform has no change feed.
    ///
    /// Implementations must exclude `HttpOnly` cookies — their changes
    /// are never observable from scripts.
    fn drain_cookie_changes(&mut self) -> Vec<CookieChangeNotice> {
        Vec::new()
    }

    /// Drops the cookie changes accumulated since the last drain without
    /// building notices for them: the event loop calls this instead of
    /// [`Platform::drain_cookie_changes`] while no listener is
    /// registered. Default: drain and discard.
    fn discard_cookie_changes(&mut self) {
        let _ = self.drain_cookie_changes();
    }

    /// Whether the listener registered under `at` may observe a change to
    /// cookie `name`. CookieGuard implementations answer with the same
    /// policy that filters reads, so a script cannot use change events to
    /// spy on foreign cookies it could not read. Default: visible.
    fn cookie_change_visible(&mut self, _at: &Attribution, _name: &str) -> bool {
        true
    }
}
