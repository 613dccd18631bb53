//! Documents (frames) and the DOM mutation log.

use crate::element::{Element, ElementId, ElementMutation};
use crate::script_node::{InclusionKind, ScriptId, ScriptNode, ScriptSource};
use cg_url::Url;
use serde::{Deserialize, Serialize};

/// Whether a document is the main frame or a subframe, and in the latter
/// case whether SOP isolates it from the main frame.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FrameKind {
    /// The top-level document.
    Main,
    /// An iframe; `cross_origin` records whether its origin differs from
    /// the main frame's (in which case SOP denies it main-frame access).
    Iframe {
        /// True when the frame's origin differs from the main frame's.
        cross_origin: bool,
    },
}

/// A recorded DOM mutation, attributed to the acting script's domain —
/// the raw material of the §8 cross-domain DOM-manipulation pilot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MutationRecord {
    /// The element mutated.
    pub element: ElementId,
    /// What changed.
    pub kind: ElementMutation,
    /// eTLD+1 of the acting script (None for inline in strict attribution).
    pub actor_domain: Option<String>,
    /// eTLD+1 that owned the element at mutation time.
    pub owner_domain: String,
}

impl MutationRecord {
    /// A mutation is cross-domain when the actor is known and differs
    /// from the element's owner.
    pub fn is_cross_domain(&self) -> bool {
        match &self.actor_domain {
            Some(a) => !a.eq_ignore_ascii_case(&self.owner_domain),
            None => false,
        }
    }
}

/// One frame's document: element arena, script list, and mutation log.
#[derive(Debug, Clone)]
pub struct Document {
    url: Url,
    /// The site's registrable domain, computed once from `url`.
    site: String,
    /// Main frame or iframe.
    pub frame: FrameKind,
    elements: Vec<Element>,
    scripts: Vec<ScriptNode>,
    mutations: Vec<MutationRecord>,
}

impl Document {
    /// Creates an empty document for `url`.
    pub fn new(url: Url, frame: FrameKind) -> Document {
        let site = url
            .registrable_domain()
            .unwrap_or_else(|| url.host_str().into_owned());
        Document {
            url,
            site,
            frame,
            elements: Vec::new(),
            scripts: Vec::new(),
            mutations: Vec::new(),
        }
    }

    /// The document's URL.
    pub fn url(&self) -> &Url {
        &self.url
    }

    /// The site's registrable domain (the host, when it has none).
    pub fn site_domain(&self) -> &str {
        &self.site
    }

    // ------------------------------------------------------------------
    // Elements
    // ------------------------------------------------------------------

    /// Inserts a parser-created element owned by the site itself.
    pub fn insert_markup_element(&mut self, tag: &str, parent: Option<ElementId>) -> ElementId {
        push_element(&mut self.elements, tag, parent, &self.site)
    }

    /// Inserts an element created by a script from `actor_domain`
    /// (ownership goes to the actor; the insertion is logged).
    pub fn insert_script_element(
        &mut self,
        tag: &str,
        parent: Option<ElementId>,
        actor_domain: Option<&str>,
    ) -> ElementId {
        let owner = actor_domain.unwrap_or("<inline>");
        let id = push_element(&mut self.elements, tag, parent, owner);
        if let Some(actor) = actor_domain {
            self.mutations.push(MutationRecord {
                element: id,
                kind: ElementMutation::Insert,
                actor_domain: Some(actor.to_string()),
                owner_domain: owner.to_string(),
            });
        }
        id
    }

    /// Mutates an element on behalf of a script; records attribution.
    /// Returns false when the element does not exist or is detached.
    pub fn mutate_element(
        &mut self,
        id: ElementId,
        kind: ElementMutation,
        actor_domain: Option<&str>,
        payload: &str,
    ) -> bool {
        let owner = match self.elements.get(id) {
            Some(e) if !e.detached => e.owner_domain.clone(),
            _ => return false,
        };
        let e = &mut self.elements[id];
        match kind {
            ElementMutation::Content => e.content = payload.to_string(),
            ElementMutation::Style => e.style = payload.to_string(),
            ElementMutation::Attribute => e.classes.push(payload.to_string()),
            ElementMutation::Remove => e.detached = true,
            ElementMutation::Insert => return false, // use insert_script_element
        }
        self.mutations.push(MutationRecord {
            element: id,
            kind,
            actor_domain: actor_domain.map(str::to_string),
            owner_domain: owner,
        });
        true
    }

    /// Element accessor.
    pub fn element(&self, id: ElementId) -> Option<&Element> {
        self.elements.get(id)
    }

    /// The most recently created live element owned by `owner`, if any —
    /// how a script finds "its own" container to mutate.
    pub fn last_element_owned_by(&self, owner: &str) -> Option<ElementId> {
        self.elements
            .iter()
            .rev()
            .find(|e| !e.detached && e.owner_domain.eq_ignore_ascii_case(owner))
            .map(|e| e.id)
    }

    /// The recorded mutation log.
    pub fn mutations(&self) -> &[MutationRecord] {
        &self.mutations
    }

    // ------------------------------------------------------------------
    // Scripts
    // ------------------------------------------------------------------

    /// Registers a markup-level (`Direct`) script.
    pub fn add_direct_script(&mut self, source: ScriptSource) -> ScriptId {
        self.add_script(source, InclusionKind::Direct)
    }

    /// Registers a script injected by `parent`.
    pub fn add_injected_script(&mut self, source: ScriptSource, parent: ScriptId) -> ScriptId {
        self.add_script(source, InclusionKind::InjectedBy(parent))
    }

    fn add_script(&mut self, source: ScriptSource, inclusion: InclusionKind) -> ScriptId {
        let id = self.scripts.len();
        self.scripts.push(ScriptNode {
            id,
            source,
            inclusion,
        });
        id
    }

    /// Script accessor.
    pub fn script(&self, id: ScriptId) -> Option<&ScriptNode> {
        self.scripts.get(id)
    }

    /// All scripts.
    pub fn scripts(&self) -> &[ScriptNode] {
        &self.scripts
    }

    /// Inclusion chain for one script (root-first).
    pub fn inclusion_chain(&self, id: ScriptId) -> Vec<ScriptId> {
        crate::script_node::inclusion_chain(&self.scripts, id)
    }

    /// Third-party scripts: external scripts whose eTLD+1 differs from the
    /// site's. (The paper finds these on 93.3% of sites, averaging 19.)
    pub fn third_party_scripts(&self) -> Vec<&ScriptNode> {
        self.scripts
            .iter()
            .filter(|s| matches!(s.domain(), Some(d) if !d.eq_ignore_ascii_case(&self.site)))
            .collect()
    }
}

/// Appends an element owned by `owner` under `parent`; returns its id.
fn push_element(
    elements: &mut Vec<Element>,
    tag: &str,
    parent: Option<ElementId>,
    owner: &str,
) -> ElementId {
    let id = elements.len();
    let mut e = Element::new(id, tag, owner);
    e.parent = parent;
    elements.push(e);
    id
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Document {
        Document::new(
            Url::parse("https://www.news-site.com/").unwrap(),
            FrameKind::Main,
        )
    }

    fn ext(u: &str) -> ScriptSource {
        ScriptSource::External(Url::parse(u).unwrap())
    }

    #[test]
    fn site_domain_is_etld_plus_one() {
        assert_eq!(doc().site_domain(), "news-site.com");
    }

    #[test]
    fn markup_elements_owned_by_site() {
        let mut d = doc();
        let id = d.insert_markup_element("div", None);
        assert_eq!(d.element(id).unwrap().owner_domain, "news-site.com");
        assert!(d.mutations().is_empty());
    }

    #[test]
    fn script_insertion_logged_and_owned() {
        let mut d = doc();
        let id = d.insert_script_element("img", None, Some("tracker.com"));
        assert_eq!(d.element(id).unwrap().owner_domain, "tracker.com");
        assert_eq!(d.mutations().len(), 1);
        assert!(!d.mutations()[0].is_cross_domain()); // inserting your own node
    }

    #[test]
    fn cross_domain_mutation_detected() {
        let mut d = doc();
        let id = d.insert_markup_element("div", None);
        assert!(d.mutate_element(
            id,
            ElementMutation::Content,
            Some("ads.com"),
            "<b>injected</b>"
        ));
        let m = &d.mutations()[0];
        assert!(m.is_cross_domain());
        assert_eq!(d.element(id).unwrap().content, "<b>injected</b>");
    }

    #[test]
    fn same_domain_mutation_not_cross_domain() {
        let mut d = doc();
        let id = d.insert_markup_element("div", None);
        d.mutate_element(
            id,
            ElementMutation::Style,
            Some("news-site.com"),
            "color:red",
        );
        assert!(!d.mutations()[0].is_cross_domain());
    }

    #[test]
    fn removed_elements_reject_mutation() {
        let mut d = doc();
        let id = d.insert_markup_element("div", None);
        assert!(d.mutate_element(id, ElementMutation::Remove, Some("x.com"), ""));
        assert!(!d.mutate_element(id, ElementMutation::Content, Some("x.com"), "dead"));
    }

    #[test]
    fn third_party_script_listing() {
        let mut d = doc();
        d.add_direct_script(ext("https://www.news-site.com/app.js"));
        d.add_direct_script(ext("https://cdn.news-site.com/ui.js"));
        let gtm = d.add_direct_script(ext("https://www.googletagmanager.com/gtm.js"));
        d.add_injected_script(ext("https://www.google-analytics.com/analytics.js"), gtm);
        d.add_direct_script(ScriptSource::Inline);
        let tp = d.third_party_scripts();
        assert_eq!(tp.len(), 2);
        assert_eq!(d.inclusion_chain(3), vec![2, 3]);
    }

    #[test]
    fn iframe_kind_records_isolation() {
        let f = Document::new(
            Url::parse("https://ads.example.net/frame").unwrap(),
            FrameKind::Iframe { cross_origin: true },
        );
        assert!(matches!(f.frame, FrameKind::Iframe { cross_origin: true }));
    }
}
