//! Execution contexts: the stack-trace machinery behind attribution.
//!
//! The paper's extension infers the acting script by "analyzing the
//! JavaScript stack trace to locate the last external script URL" (§6.2).
//! The engine reproduces that exactly: each running task carries a stack
//! of [`StackFrame`]s; attribution walks the stack from the innermost
//! frame outward and takes the first frame with an external URL.
//!
//! A script's URL is parsed once, when the page loads the script, and
//! shared: frames and attributions hold an `Arc<Url>`, so attributing a
//! task bumps a reference count instead of copying the URL. The
//! attribution also names the frame it took the URL from
//! ([`Attribution::source`]), so a platform that resolved each script's
//! identity at load time can look it up by [`ScriptId`] instead of by
//! URL.

use cg_dom::ScriptId;
use cg_url::Url;
use std::sync::Arc;

/// One frame on the execution stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackFrame {
    /// The script this frame belongs to.
    pub script_id: ScriptId,
    /// The script's URL; `None` for inline scripts.
    pub url: Option<Arc<Url>>,
}

/// What a platform call knows about its caller — the paper's attribution
/// tuple: the acting script, its URL/domain as recovered from the stack,
/// and the simulated time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribution {
    /// The innermost script id on the stack, if the stack survived.
    pub script_id: Option<ScriptId>,
    /// The id of the frame [`Attribution::script_url`] was taken from:
    /// the innermost *external* script on the stack. `None` exactly when
    /// `script_url` is.
    pub source: Option<ScriptId>,
    /// The last external script URL on the stack (`None` ⇒ the call
    /// attributes as inline/unknown — either a genuine inline script or
    /// an async callback whose stack was lost).
    pub script_url: Option<Arc<Url>>,
    /// Milliseconds since the page visit started.
    pub now_ms: u64,
    /// True when this call runs in a deferred task whose stack was lost
    /// (§8 async-attribution limitation).
    pub async_lost: bool,
}

impl Attribution {
    /// The attributable eTLD+1 of the acting script.
    pub fn script_domain(&self) -> Option<String> {
        self.script_url
            .as_ref()
            .and_then(|u| u.registrable_domain())
    }

    /// Builds the attribution for a stack at time `now_ms`.
    pub fn from_stack(stack: &[StackFrame], now_ms: u64, async_lost: bool) -> Attribution {
        let script_id = stack.last().map(|f| f.script_id);
        // Innermost-out: the last external script URL.
        let (source, script_url) = stack
            .iter()
            .rev()
            .find_map(|f| f.url.as_ref().map(|u| (f.script_id, Arc::clone(u))))
            .unzip();
        Attribution {
            script_id,
            source,
            script_url,
            now_ms,
            async_lost,
        }
    }

    /// An attribution representing a lost stack.
    pub fn lost(now_ms: u64) -> Attribution {
        Attribution {
            script_id: None,
            source: None,
            script_url: None,
            now_ms,
            async_lost: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn url(s: &str) -> Option<Arc<Url>> {
        Some(Arc::new(Url::parse(s).unwrap()))
    }

    #[test]
    fn innermost_external_frame_wins() {
        let stack = vec![
            StackFrame {
                script_id: 0,
                url: url("https://gtm.com/gtm.js"),
            },
            StackFrame {
                script_id: 1,
                url: url("https://ga.com/analytics.js"),
            },
        ];
        let at = Attribution::from_stack(&stack, 5, false);
        assert_eq!(at.script_id, Some(1));
        assert_eq!(at.source, Some(1));
        assert_eq!(at.script_domain().as_deref(), Some("ga.com"));
    }

    #[test]
    fn inline_frames_are_skipped_for_url() {
        // An inline handler called from an external script still
        // attributes to the external script (the "last external URL").
        let stack = vec![
            StackFrame {
                script_id: 0,
                url: url("https://tracker.com/t.js"),
            },
            StackFrame {
                script_id: 1,
                url: None,
            },
        ];
        let at = Attribution::from_stack(&stack, 0, false);
        assert_eq!(at.script_domain().as_deref(), Some("tracker.com"));
        assert_eq!(at.script_id, Some(1));
    }

    #[test]
    fn source_is_the_innermost_external_frame_under_an_inline_one() {
        // The identity to charge is the external frame's, even though
        // an inline frame runs on top of it.
        let stack = vec![
            StackFrame {
                script_id: 4,
                url: url("https://gtm.com/gtm.js"),
            },
            StackFrame {
                script_id: 2,
                url: url("https://tracker.com/t.js"),
            },
            StackFrame {
                script_id: 9,
                url: None,
            },
        ];
        let at = Attribution::from_stack(&stack, 0, false);
        assert_eq!(at.script_id, Some(9));
        assert_eq!(at.source, Some(2));
        // The URL is the frame's own, shared rather than copied.
        assert!(Arc::ptr_eq(
            at.script_url.as_ref().unwrap(),
            stack[1].url.as_ref().unwrap()
        ));
    }

    #[test]
    fn all_inline_stack_attributes_as_unknown() {
        let stack = vec![StackFrame {
            script_id: 3,
            url: None,
        }];
        let at = Attribution::from_stack(&stack, 0, false);
        assert_eq!(at.script_domain(), None);
        assert_eq!(at.source, None);
    }

    #[test]
    fn lost_stack() {
        let at = Attribution::lost(9);
        assert!(at.async_lost);
        assert_eq!(at.script_id, None);
        assert_eq!(at.source, None);
        assert_eq!(at.script_domain(), None);
        // A deferred task whose stack was dropped attributes the same way.
        let at = Attribution::from_stack(&[], 9, true);
        assert_eq!(at, Attribution::lost(9));
    }
}
