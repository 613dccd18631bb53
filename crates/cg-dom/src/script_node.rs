//! Script nodes and inclusion chains.

use cg_url::Url;
use serde::{Content, DeError, Deserialize, Serialize};
use std::sync::Arc;

/// Index of a script within its document.
pub type ScriptId = usize;

/// Where a script's code came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScriptSource {
    /// `<script src="…">` — fetched from a URL; the URL's eTLD+1 is the
    /// script's attributable domain. The parse is shared with the page
    /// that loaded the script.
    External(Arc<Url>),
    /// Inline `<script>…</script>` — no reliable origin (§6.1: CookieGuard
    /// treats these as untrusted in strict mode, first-party in relaxed).
    Inline,
}

impl ScriptSource {
    /// The attributable eTLD+1 of this source, if any, read from the
    /// per-host memo ([`cg_url::host_site`]).
    pub fn domain(&self) -> Option<&'static str> {
        match self {
            ScriptSource::External(u) => cg_url::host_site(&u.host_str())
                .registrable
                .map(cg_url::name),
            ScriptSource::Inline => None,
        }
    }

    /// The script URL as a string, or `"<inline>"`.
    pub fn url_str(&self) -> String {
        match self {
            ScriptSource::External(u) => u.to_string(),
            ScriptSource::Inline => "<inline>".to_string(),
        }
    }
}

/// The serde form of [`ScriptSource`]: the derived form of the enum
/// holding its URL by value (the vendored serde has no `Arc` impls).
mod wire {
    use cg_url::Url;
    use serde::{Deserialize, Serialize};

    #[derive(Serialize, Deserialize)]
    pub(super) enum ScriptSource {
        External(Url),
        Inline,
    }
}

impl Serialize for ScriptSource {
    fn to_content(&self) -> Content {
        match self {
            ScriptSource::External(u) => wire::ScriptSource::External(Url::clone(u)),
            ScriptSource::Inline => wire::ScriptSource::Inline,
        }
        .to_content()
    }
}

impl<'de> Deserialize<'de> for ScriptSource {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        Ok(match wire::ScriptSource::from_content(content)? {
            wire::ScriptSource::External(u) => ScriptSource::External(Arc::new(u)),
            wire::ScriptSource::Inline => ScriptSource::Inline,
        })
    }
}

/// How the script entered the document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InclusionKind {
    /// Present in the served markup (`<script>` tag written by the site).
    Direct,
    /// Injected at runtime by another script (`document.createElement`,
    /// `eval`, `import()` …) — the transitive-inclusion case.
    InjectedBy(ScriptId),
}

/// A script in a document.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScriptNode {
    /// Arena id within the document.
    pub id: ScriptId,
    /// The code's source.
    pub source: ScriptSource,
    /// How the script was included.
    pub inclusion: InclusionKind,
}

impl ScriptNode {
    /// The attributable domain of this script (eTLD+1 of its `src`), or
    /// `None` for inline scripts.
    pub fn domain(&self) -> Option<&'static str> {
        self.source.domain()
    }

    /// True when the script was injected by another script rather than
    /// appearing in the served markup.
    pub fn is_indirect(&self) -> bool {
        matches!(self.inclusion, InclusionKind::InjectedBy(_))
    }
}

/// Computes the inclusion chain of script `id` inside `scripts`: the
/// sequence of script ids from the markup-level root down to `id` itself.
/// The chain is what the measurement annotates on every cookie access
/// (§4.4 step 4: "annotate the inclusion path of each accessing script").
pub fn inclusion_chain(scripts: &[ScriptNode], id: ScriptId) -> Vec<ScriptId> {
    let mut chain = vec![id];
    let mut cursor = id;
    // Bounded walk to defend against (impossible, but cheap to guard)
    // cycles in corrupted inputs.
    for _ in 0..scripts.len() {
        match scripts.get(cursor).map(|s| s.inclusion) {
            Some(InclusionKind::InjectedBy(parent)) => {
                chain.push(parent);
                cursor = parent;
            }
            _ => break,
        }
    }
    chain.reverse();
    chain
}

/// Depth of the inclusion chain: 0 for direct scripts, ≥1 for injected.
pub fn inclusion_depth(scripts: &[ScriptNode], id: ScriptId) -> usize {
    inclusion_chain(scripts, id).len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ext(u: &str) -> ScriptSource {
        ScriptSource::External(Arc::new(Url::parse(u).unwrap()))
    }

    #[test]
    fn source_domains() {
        assert_eq!(
            ext("https://cdn.tracker.com/t.js").domain(),
            Some("tracker.com")
        );
        assert_eq!(ScriptSource::Inline.domain(), None);
        assert_eq!(ScriptSource::Inline.url_str(), "<inline>");
    }

    #[test]
    fn sources_keep_the_wire_form_of_a_url_held_by_value() {
        let url = Url::parse("https://cdn.tracker.com/t.js?v=2").unwrap();
        let external = ScriptSource::External(Arc::new(url.clone()));
        assert_eq!(
            external.to_content(),
            Content::Map(vec![(Content::Str("External".into()), url.to_content())])
        );
        assert_eq!(
            ScriptSource::Inline.to_content(),
            Content::Str("Inline".into())
        );
        for source in [external, ScriptSource::Inline] {
            let back = ScriptSource::from_content(&source.to_content()).unwrap();
            assert_eq!(back, source);
        }
    }

    #[test]
    fn chain_walks_to_root() {
        let scripts = vec![
            ScriptNode {
                id: 0,
                source: ext("https://site.com/app.js"),
                inclusion: InclusionKind::Direct,
            },
            ScriptNode {
                id: 1,
                source: ext("https://gtm.com/gtm.js"),
                inclusion: InclusionKind::Direct,
            },
            ScriptNode {
                id: 2,
                source: ext("https://ga.com/a.js"),
                inclusion: InclusionKind::InjectedBy(1),
            },
            ScriptNode {
                id: 3,
                source: ext("https://dc.net/px.js"),
                inclusion: InclusionKind::InjectedBy(2),
            },
        ];
        assert_eq!(inclusion_chain(&scripts, 3), vec![1, 2, 3]);
        assert_eq!(inclusion_depth(&scripts, 3), 2);
        assert_eq!(inclusion_depth(&scripts, 0), 0);
        assert!(scripts[3].is_indirect());
        assert!(!scripts[1].is_indirect());
    }

    #[test]
    fn cycle_guard_terminates() {
        // Corrupt input: 0 injected by 1, 1 injected by 0.
        let scripts = vec![
            ScriptNode {
                id: 0,
                source: ScriptSource::Inline,
                inclusion: InclusionKind::InjectedBy(1),
            },
            ScriptNode {
                id: 1,
                source: ScriptSource::Inline,
                inclusion: InclusionKind::InjectedBy(0),
            },
        ];
        // Must terminate; exact content unimportant.
        let chain = inclusion_chain(&scripts, 0);
        assert!(chain.len() <= 4);
    }
}
