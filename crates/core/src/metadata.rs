//! The metadata store: cookie name → creator.
//!
//! This is CookieGuard's database (§6.2, Figure 4): one record per cookie
//! name holding the creating script or server and how the cookie was
//! created. The store is per-site (per top-level page), like the
//! extension's per-tab dataset.
//!
//! Storage is id-compiled: cookie names intern into the workspace's
//! string table ([`StrTable`]: one arena, end offsets and an FNV index)
//! as session-local [`NameId`]s, dense in first-record order, and
//! creators are process-wide [`DomainId`]s. The per-operation lookup
//! chain — name → record → creator — is one FNV probe and two array
//! reads, with zero allocation. The serde impls resolve both id kinds
//! back to names, so the wire format is exactly the historical
//! name/creator-string map — ids never serialize.

use cg_instrument::StrTable;
use cg_url::DomainId;
use serde::{Deserialize, Serialize};

/// How a cookie came to exist — which API created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CookieOrigin {
    /// An HTTP `Set-Cookie` response header.
    HttpHeader,
    /// A `document.cookie` write.
    DocumentCookie,
    /// A `cookieStore.set` call.
    CookieStore,
    /// The cookie pre-dates the guard's activation and was admitted
    /// under the migration policy (§8): it keeps legacy full visibility
    /// until an authorized write re-attributes it. Mirrors WebKit's ITP
    /// "grandfathering" of existing site data.
    Grandfathered,
}

/// A dense, copyable handle for a cookie name interned by one
/// [`MetadataStore`]. Session-local: ids from different stores are
/// unrelated, and (like [`DomainId`]s) they never serialize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NameId(u32);

impl NameId {
    /// The raw index (dense from 0 in interning order).
    pub fn index(self) -> u32 {
        self.0
    }
}

/// One cookie's ownership record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OwnershipRecord {
    /// Interned eTLD+1 of the creating script or responding server;
    /// `None` when the creator could not be attributed (inline script in
    /// relaxed mode writes are recorded against the site owner instead,
    /// so `None` never appears there — it is kept for forensics).
    pub creator: Option<DomainId>,
    /// Which API created the cookie.
    pub origin: CookieOrigin,
}

impl OwnershipRecord {
    /// The creator's domain name (normalized form), when attributed.
    pub fn creator_name(&self) -> Option<&'static str> {
        self.creator.map(cg_url::name)
    }
}

/// The per-site metadata store.
#[derive(Debug, Clone, Default)]
pub struct MetadataStore {
    /// Every name ever recorded; a name's symbol is its [`NameId`].
    /// Names stay interned across [`MetadataStore::forget`] so a
    /// recreated cookie reuses its slot.
    names: StrTable,
    /// Indexed by [`NameId`]; `None` = forgotten (deleted) cookie.
    records: Vec<Option<OwnershipRecord>>,
}

impl MetadataStore {
    /// An empty store.
    pub fn new() -> MetadataStore {
        MetadataStore::default()
    }

    /// The session-local id for `name`, if it was ever recorded.
    pub fn name_id(&self, name: &str) -> Option<NameId> {
        self.names.find(name).map(NameId)
    }

    /// Interns `name` (grows the table only on first sight).
    fn intern_name(&mut self, name: &str) -> NameId {
        match self.names.insert(name) {
            Ok(sym) => {
                self.records.push(None);
                NameId(sym)
            }
            Err(sym) => NameId(sym),
        }
    }

    /// The live record for `name`, if any — the one-probe hot-path
    /// lookup every enforcement decision starts from.
    pub fn lookup(&self, name: &str) -> Option<OwnershipRecord> {
        self.names
            .find(name)
            .and_then(|sym| self.records[sym as usize])
    }

    /// Records (or re-records) the creator of `name` by id. Re-recording
    /// models an authorized overwrite: ownership follows the latest
    /// authorized writer, matching the extension's dataset-update
    /// behaviour.
    pub fn record_id(&mut self, name: &str, creator: Option<DomainId>, origin: CookieOrigin) {
        let id = self.intern_name(name);
        self.records[id.0 as usize] = Some(OwnershipRecord { creator, origin });
    }

    /// String-boundary form of [`MetadataStore::record_id`]: interns the
    /// creator (normalizing to lowercase) first.
    pub fn record(&mut self, name: &str, creator: Option<&str>, origin: CookieOrigin) {
        self.record_id(name, creator.map(cg_url::intern), origin);
    }

    /// Marks `name` as grandfathered: it existed before the guard
    /// attached, so no creator is known and legacy visibility applies.
    pub fn record_grandfathered(&mut self, name: &str) {
        self.record_id(name, None, CookieOrigin::Grandfathered);
    }

    /// Whether `name` is currently under the grandfathering policy.
    pub fn is_grandfathered(&self, name: &str) -> bool {
        matches!(
            self.lookup(name),
            Some(OwnershipRecord {
                origin: CookieOrigin::Grandfathered,
                ..
            })
        )
    }

    /// The creator of `name`, if known (resolved name form).
    pub fn creator(&self, name: &str) -> Option<&'static str> {
        self.lookup(name).and_then(|r| r.creator_name())
    }

    /// The full record for `name`.
    pub fn record_of(&self, name: &str) -> Option<OwnershipRecord> {
        self.lookup(name)
    }

    /// Whether any record exists for `name`.
    pub fn knows(&self, name: &str) -> bool {
        self.lookup(name).is_some()
    }

    /// Forgets a cookie (after an authorized deletion) so a future
    /// same-name cookie is treated as new. The name stays interned; its
    /// slot empties.
    pub fn forget(&mut self, name: &str) {
        if let Some(sym) = self.names.find(name) {
            self.records[sym as usize] = None;
        }
    }

    /// Number of tracked cookies.
    pub fn len(&self) -> usize {
        self.records.iter().filter(|r| r.is_some()).count()
    }

    /// True when nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.records.iter().all(|r| r.is_none())
    }

    /// Iterates over `(name, record)` pairs, live records only, in the
    /// order the names were first recorded.
    pub fn iter(&self) -> impl Iterator<Item = (&str, OwnershipRecord)> {
        self.names
            .iter()
            .zip(&self.records)
            .filter_map(|(n, r)| r.map(|r| (n, r)))
    }
}

// The wire format is the historical `{"records": {name: {creator,
// origin}}}` shape with creator *names* — session-local NameIds and
// process-local DomainIds never serialize (keys sorted, as the vendored
// serde sorts a HashMap's, so the wire form does not depend on record
// order).
impl Serialize for MetadataStore {
    fn to_content(&self) -> serde::Content {
        let mut entries: Vec<(&str, OwnershipRecord)> = self.iter().collect();
        entries.sort_unstable_by_key(|(n, _)| *n);
        let records = entries
            .into_iter()
            .map(|(n, r)| {
                (
                    serde::Content::Str(n.to_string()),
                    serde::Content::Map(vec![
                        (
                            serde::Content::Str("creator".to_string()),
                            match r.creator_name() {
                                Some(c) => serde::Content::Str(c.to_string()),
                                None => serde::Content::Null,
                            },
                        ),
                        (
                            serde::Content::Str("origin".to_string()),
                            r.origin.to_content(),
                        ),
                    ]),
                )
            })
            .collect();
        serde::Content::Map(vec![(
            serde::Content::Str("records".to_string()),
            serde::Content::Map(records),
        )])
    }
}

impl<'de> Deserialize<'de> for MetadataStore {
    fn from_content(content: &serde::Content) -> Result<MetadataStore, serde::DeError> {
        let records = match content.get("records") {
            Some(serde::Content::Map(entries)) => entries,
            Some(other) => {
                return Err(serde::DeError(format!(
                    "MetadataStore.records: expected map, got {}",
                    other.kind()
                )))
            }
            None => return Err(serde::DeError("MetadataStore: missing records".into())),
        };
        let mut store = MetadataStore::new();
        for (key, value) in records {
            let name = match key {
                serde::Content::Str(s) => s.as_str(),
                other => {
                    return Err(serde::DeError(format!(
                        "MetadataStore record key: expected string, got {}",
                        other.kind()
                    )))
                }
            };
            let creator = match value.get("creator") {
                Some(serde::Content::Str(s)) => Some(s.as_str()),
                Some(serde::Content::Null) | None => None,
                Some(other) => {
                    return Err(serde::DeError(format!(
                        "OwnershipRecord.creator: expected string or null, got {}",
                        other.kind()
                    )))
                }
            };
            let origin = match value.get("origin") {
                Some(c) => CookieOrigin::from_content(c)?,
                None => return Err(serde::DeError("OwnershipRecord: missing origin".into())),
            };
            store.record(name, creator, origin);
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_lookup() {
        let mut m = MetadataStore::new();
        m.record(
            "_ga",
            Some("Googletagmanager.COM"),
            CookieOrigin::DocumentCookie,
        );
        assert_eq!(m.creator("_ga"), Some("googletagmanager.com"));
        assert!(m.knows("_ga"));
        assert!(!m.knows("_gid"));
        assert_eq!(
            m.record_of("_ga").unwrap().origin,
            CookieOrigin::DocumentCookie
        );
    }

    #[test]
    fn rerecord_moves_ownership() {
        let mut m = MetadataStore::new();
        m.record("c", Some("a.com"), CookieOrigin::DocumentCookie);
        m.record("c", Some("b.com"), CookieOrigin::HttpHeader);
        assert_eq!(m.creator("c"), Some("b.com"));
        assert_eq!(m.record_of("c").unwrap().origin, CookieOrigin::HttpHeader);
    }

    #[test]
    fn forget_clears() {
        let mut m = MetadataStore::new();
        m.record("c", Some("a.com"), CookieOrigin::CookieStore);
        m.forget("c");
        assert!(!m.knows("c"));
        assert!(m.is_empty());
    }

    #[test]
    fn forget_keeps_the_interned_slot_stable() {
        let mut m = MetadataStore::new();
        m.record("c", Some("a.com"), CookieOrigin::DocumentCookie);
        let id = m.name_id("c").unwrap();
        m.forget("c");
        assert!(m.name_id("c").is_some());
        m.record("c", Some("b.com"), CookieOrigin::DocumentCookie);
        assert_eq!(m.name_id("c"), Some(id), "recreated name reuses its slot");
        assert_eq!(m.creator("c"), Some("b.com"));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn iter_yields_names_in_first_record_order() {
        let mut m = MetadataStore::new();
        for name in ["zeta", "_ga", "mid", "alpha", "_fbp"] {
            m.record(name, Some("a.com"), CookieOrigin::DocumentCookie);
        }
        m.forget("mid");
        // Re-recording keeps a name's place; a forgotten one is skipped
        // until it is recorded again, then reappears in its old slot.
        m.record("_ga", Some("b.com"), CookieOrigin::HttpHeader);
        let names: Vec<&str> = m.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["zeta", "_ga", "alpha", "_fbp"]);
        m.record_grandfathered("mid");
        let names: Vec<&str> = m.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["zeta", "_ga", "mid", "alpha", "_fbp"]);
        let ids: Vec<u32> = names
            .iter()
            .map(|n| m.name_id(n).unwrap().index())
            .collect();
        assert_eq!(ids, [0, 1, 2, 3, 4], "ids are dense in first-record order");
    }

    #[test]
    fn the_wire_form_is_sorted_by_name_and_pinned() {
        let mut m = MetadataStore::new();
        m.record("zeta", Some("Z.example"), CookieOrigin::CookieStore);
        m.record("_ga", Some("gtm.example"), CookieOrigin::DocumentCookie);
        m.record("sid", None, CookieOrigin::HttpHeader);
        m.record_grandfathered("_old");
        m.record("gone", Some("a.example"), CookieOrigin::DocumentCookie);
        m.forget("gone");
        // The string the `HashMap`-backed store serialized this to.
        let pinned = concat!(
            r#"{"records":{"#,
            r#""_ga":{"creator":"gtm.example","origin":"DocumentCookie"},"#,
            r#""_old":{"creator":null,"origin":"Grandfathered"},"#,
            r#""sid":{"creator":null,"origin":"HttpHeader"},"#,
            r#""zeta":{"creator":"z.example","origin":"CookieStore"}}}"#,
        );
        assert_eq!(serde_json::to_string(&m).unwrap(), pinned);
    }

    #[test]
    fn serde_round_trips_with_name_strings_on_the_wire() {
        let mut m = MetadataStore::new();
        m.record("_ga", Some("gtm.example"), CookieOrigin::DocumentCookie);
        m.record("sid", None, CookieOrigin::HttpHeader);
        m.record_grandfathered("_old");
        let json = serde_json::to_string(&m).unwrap();
        // Names and creators on the wire; no integers anywhere.
        assert!(json.contains("\"_ga\""));
        assert!(json.contains("\"gtm.example\""));
        assert!(json.contains("\"Grandfathered\""));
        let back: MetadataStore = serde_json::from_str(&json).unwrap();
        assert_eq!(back.creator("_ga"), Some("gtm.example"));
        assert!(back.is_grandfathered("_old"));
        assert_eq!(
            back.record_of("sid").unwrap().origin,
            CookieOrigin::HttpHeader
        );
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }
}
