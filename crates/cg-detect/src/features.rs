//! Per-visit feature extraction: one `VisitLog` in, bounded
//! [`VisitFacts`] out.
//!
//! Implements the COOKIEGRAPH-style per-cookie feature set over the
//! instrumentation this repo already records:
//!
//! * **setter identity** — ownership replay (create wins, overwrites
//!   keep the original owner), with the actor collapsed to its
//!   organization and CNAME cloaking surfaced: a write whose script URL
//!   is first-party but whose attributed actor is foreign (the
//!   `resolve_cnames` crawl uncloaks attribution) is an
//!   [`Owner::Cloaked`] write.
//! * **identifier value** — §4.4 segment extraction with
//!   timestamp/counter segments removed and structured consent strings
//!   excluded wholesale.
//! * **lifetime** — the `max_age_s` the write requested.
//! * **read/exfil fan-out** — which organizations ship the value
//!   off-site, split into the owner's own beacons (self-ship) and
//!   foreign harvest (discounted when the carrying request is a bulk
//!   beacon), plus the co-presence denominators the rate features
//!   need.
//! * **respawn** — a foreign delete followed by the original owner
//!   re-creating the same cookie within the visit.
//!
//! Only registry-labeled pairs get per-key state, so per-visit memory
//! is bounded by the (finite) label table, never by crawl size. Within
//! a visit, per-name and per-domain state lives in one vector indexed
//! by the log's symbols, so each organization, name-id, label and
//! owner-class lookup runs once per distinct string. The
//! facts hold ids, hashes and slices of the log, never owned strings;
//! exfil matching writes every encoded form of the visit's identifiers
//! into one arena ([`cg_hash::FormSet`]) and reads each off-site request
//! URL once for all of them ([`cg_hash::FormScanner`]). A visit with
//! no off-site request builds no encoded forms, and a digest form is
//! built only when some off-site URL holds a hex run long enough to
//! contain it ([`cg_hash::DigestGate`]).

use crate::engine::{DetectEngine, KeyId, NameId, OrgId};
use cg_hash::{DigestGate, FormSet};
use cg_instrument::{Sym, VisitLog, WriteKind};
use cg_script::value::segments;
use cg_webgen::CookieLabel;

/// Who owns a cookie pair, at aggregation granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Owner {
    /// Created by the site itself (inline or first-party script).
    Site,
    /// Created through a CNAME cloak: the script URL was first-party
    /// but attribution resolved to a foreign organization.
    Cloaked,
    /// Created by a third-party organization.
    Entity(OrgId),
}

/// The detector's aggregation key: cookie name plus owner class. Same
/// name under different organizations stays distinct (the paper's pair
/// definition); the same behaviour across sites folds together. The
/// engine numbers keys densely ([`DetectEngine::key_id`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DetectKey {
    /// Cookie name.
    pub name: NameId,
    /// Owner class.
    pub owner: Owner,
}

/// What one visit contributed to one labeled key.
#[derive(Debug, Clone)]
pub struct KeyVisitFacts<'l> {
    /// The key.
    pub key: KeyId,
    /// Ground-truth label (Tracker wins if owners disagree).
    pub label: CookieLabel,
    /// A written value carried an identifier segment.
    pub id_value: bool,
    /// A write requested a persistent lifetime.
    pub persistent: bool,
    /// Foreign delete followed by owner re-create.
    pub respawned: bool,
    /// The owner shipped the value to a non-site destination.
    pub self_ship: bool,
    /// Foreign organizations that shipped the value (non-bulk),
    /// ascending, without repeats.
    pub foreign_ships: Vec<OrgId>,
    /// Every value written this visit, in write order.
    pub values: Vec<&'l str>,
}

/// Everything one visit contributes to the fold.
#[derive(Debug, Clone, Default)]
pub struct VisitFacts<'l> {
    /// One entry per labeled key written.
    pub keys: Vec<KeyVisitFacts<'l>>,
    /// Foreign organizations whose scripts were included on the page —
    /// the co-presence denominator for foreign-harvest rates.
    /// Ascending, without repeats.
    pub foreign_present: Vec<OrgId>,
    /// `key_hash` of every unlabeled `(name, owner-domain)` pair
    /// observed (folded into a distinct sketch, never retained).
    pub unlabeled_pairs: Vec<u64>,
    /// Unblocked set events on unlabeled pairs.
    pub unlabeled_sets: u64,
    /// Every cookie name each foreign organization (not the visited
    /// site's) shipped off-site this visit (bulk included), ascending,
    /// without repeats — feeds the global breadth profile that
    /// separates fixed-list harvesters from jar samplers.
    pub shipped_names: Vec<(OrgId, NameId)>,
}

/// Which extraction stages to run. Every fold runs the full pipeline:
/// ownership replay, value/lifetime features and exfil matching over
/// requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stages {
    /// Everything, including exfil matching over requests.
    Full,
}

/// Whether `seg` looks like a minted identifier rather than a
/// timestamp or counter. Pure-decimal segments need ≥ 9 digits (8-digit
/// counters stay out, GA's 9-digit client id stays in) and must not
/// sit in the epoch-seconds or epoch-milliseconds ranges.
fn id_segment(seg: &str) -> bool {
    if !seg.bytes().all(|b| b.is_ascii_digit()) {
        return true; // hex/uuid/alpha segments of ≥8 chars are ids
    }
    if seg.len() < 9 {
        return false; // short counters
    }
    match seg.parse::<u64>() {
        // epoch seconds (2001–2039) or epoch millis (2001–2096).
        Ok(n) => {
            !(1_000_000_000..2_200_000_000).contains(&n)
                && !(1_000_000_000_000..4_000_000_000_000).contains(&n)
        }
        Err(_) => true, // > u64: a long numeric id
    }
}

/// Structured values (consent strings: `k=v&k=v`) are settings blobs,
/// not identifiers — even though they may embed id-shaped segments.
fn structured_value(value: &str) -> bool {
    value.contains('=') && value.contains('&')
}

/// The identifier candidates of one cookie value.
fn id_segments(value: &str) -> impl Iterator<Item = &str> {
    let candidates = if structured_value(value) { "" } else { value };
    segments(candidates).filter(|s| id_segment(s))
}

/// The site's organization before it has an interned id: an unmapped
/// domain the process has not seen. No other domain resolves to it.
const UNINTERNED_SITE: OrgId = OrgId::MAX;

/// The key and label a labeled cookie pair resolves to; `None` for an
/// unlabeled pair.
type Labeled = Option<(KeyId, CookieLabel)>;

/// What one visit has learned about one symbol of its log, in each role
/// the symbol plays there. Each lookup runs once per distinct symbol.
#[derive(Clone, Copy, Default)]
struct SymFacts {
    /// As a domain: its organization.
    org: Option<OrgId>,
    /// As a cookie name: its label-table id (`Some(None)`: no label
    /// mentions it).
    name: Option<Option<NameId>>,
    /// As a cookie name: the live owner's organization, and the name's
    /// index in [`VisitFacts::keys`] when labeled.
    live: Option<(OrgId, Option<usize>)>,
    /// As a cookie name: the original owner's organization, once a
    /// foreign actor deleted it.
    foreign_deleted: Option<OrgId>,
    /// As a cookie name: the owner class and label domain of its last
    /// labeled create, and the key and label they resolved to.
    labeled: Option<(Owner, Sym, Labeled)>,
    /// As a script URL: whether its domain is the site's.
    first_party_url: Option<bool>,
}

/// One visit's symbol lookups. The site resolves without interning its
/// domain, because most sites never reach the fold's state;
/// [`Lookups::kept`] interns it when one does.
struct Lookups<'a> {
    engine: &'a DetectEngine,
    log: &'a VisitLog,
    site_org: OrgId,
    /// Per symbol of the log.
    facts: Vec<SymFacts>,
}

impl<'a> Lookups<'a> {
    fn new(engine: &'a DetectEngine, log: &'a VisitLog) -> Lookups<'a> {
        let site_org = engine.known_org_of(log.site()).unwrap_or(UNINTERNED_SITE);
        Lookups {
            engine,
            log,
            site_org,
            facts: vec![SymFacts::default(); log.strings.len()],
        }
    }

    /// Whether domain `sym` is the site's, ASCII case-insensitively.
    fn is_site(&self, sym: Sym) -> bool {
        self.log.same_domain(sym, self.log.site_domain)
    }

    /// The organization of domain `sym`.
    fn org(&mut self, sym: Sym) -> OrgId {
        if let Some(org) = self.facts[sym as usize].org {
            return org;
        }
        let org = if self.is_site(sym) {
            self.site_org
        } else {
            self.engine.org_of(self.log.str(sym))
        };
        self.facts[sym as usize].org = Some(org);
        org
    }

    /// `org` as it may be kept across visits.
    fn kept(&self, org: OrgId) -> OrgId {
        if org == UNINTERNED_SITE {
            self.engine.org_of(self.log.site())
        } else {
            org
        }
    }

    /// The label-table id of cookie name `sym`.
    fn name_id(&mut self, sym: Sym) -> Option<NameId> {
        let facts = &mut self.facts[sym as usize];
        *facts
            .name
            .get_or_insert_with(|| self.engine.name_id(self.log.str(sym)))
    }

    /// The key and label of cookie `name` created under `owner`, whose
    /// label is looked up under domain `label_domain`; `None` when the
    /// pair is unlabeled.
    fn labeled(&mut self, name: Sym, owner: Owner, label_domain: Sym) -> Labeled {
        if let Some((o, d, labeled)) = self.facts[name as usize].labeled {
            if (o, d) == (owner, label_domain) {
                return labeled;
            }
        }
        let engine = self.engine;
        let labeled = self.name_id(name).and_then(|id| {
            engine
                .label_of(id, self.log.str(label_domain))
                .map(|label| (engine.key_id(DetectKey { name: id, owner }), label))
        });
        self.facts[name as usize].labeled = Some((owner, label_domain, labeled));
        labeled
    }

    /// Owner classification for one write by `actor` (of organization
    /// `actor_org`) from script `actor_url`.
    fn owner(&mut self, actor: Sym, actor_org: OrgId, actor_url: Option<Sym>) -> Owner {
        if self.is_site(actor) {
            return Owner::Site;
        }
        // Foreign attribution from a first-party script URL = the
        // `resolve_cnames` crawl uncloaked a CNAME alias.
        let Some(url) = actor_url else {
            return Owner::Entity(actor_org);
        };
        let log = self.log;
        let first_party = *self.facts[url as usize]
            .first_party_url
            .get_or_insert_with(|| cg_url::url_on_domain(log.str(url), log.site()));
        if first_party {
            return Owner::Cloaked;
        }
        Owner::Entity(actor_org)
    }
}

/// Extracts one visit's facts. Pure: same log + engine → same facts,
/// independent of any other visit (the order-independence property the
/// proptest pins); only the ids in them depend on what the process
/// interned before.
pub fn extract<'l>(engine: &DetectEngine, log: &'l VisitLog) -> VisitFacts<'l> {
    let site = log.site_domain;
    let mut look = Lookups::new(engine, log);
    let cutoff = engine.config().persist_cutoff_s;
    let mut out = VisitFacts::default();

    // -- set replay: ownership, labels, value/lifetime features -------
    for ev in &log.sets {
        if ev.blocked {
            continue;
        }
        let actor = ev.actor.unwrap_or(site);
        let actor_org = look.org(actor);
        let value = log.str(ev.value);
        let name = ev.name as usize;
        let create = match ev.kind {
            WriteKind::Create => true,
            WriteKind::Overwrite => match look.facts[name].live {
                // ownership is sticky: the overwrite feeds the original
                // pair's features
                Some((_, Some(k))) => {
                    out.keys[k].observe_write(value, ev.max_age_s, cutoff);
                    continue;
                }
                Some((_, None)) => {
                    out.unlabeled_sets += 1;
                    continue;
                }
                // blind overwrite of an invisible cookie: treat as a
                // create by this actor
                None => true,
            },
            WriteKind::Delete => {
                if let Some((owner_org, _)) = look.facts[name].live {
                    if owner_org != actor_org {
                        look.facts[name].foreign_deleted = Some(owner_org);
                    }
                }
                false
            }
        };
        if !create {
            continue;
        }
        let owner = look.owner(actor, actor_org, ev.actor_url);
        let label_domain = if owner == Owner::Site { site } else { actor };
        let labeled = look.labeled(ev.name, owner, label_domain);
        let slot = labeled.map(|(key, label)| {
            let k = match out.keys.iter().position(|f| f.key == key) {
                Some(k) => k,
                None => {
                    out.keys.push(KeyVisitFacts::new(key, label));
                    out.keys.len() - 1
                }
            };
            let facts = &mut out.keys[k];
            facts.label = max_label(facts.label, label);
            facts.observe_write(value, ev.max_age_s, cutoff);
            // respawn: this create resurrects a foreign-deleted cookie
            // under its original owner (a blind overwrite cannot)
            if ev.kind == WriteKind::Create && look.facts[name].foreign_deleted == Some(actor_org) {
                facts.respawned = true;
            }
            k
        });
        if slot.is_none() {
            out.unlabeled_sets += 1;
            out.unlabeled_pairs.push(cg_analysis::sketch::key_hash(&[
                log.str(ev.name).as_bytes(),
                log.str(actor).as_bytes(),
            ]));
        }
        look.facts[name].live = Some((actor_org, slot));
    }

    // -- co-presence: which foreign organizations ran scripts here ----
    for inc in &log.inclusions {
        if let Some(d) = inc.domain {
            let org = look.org(d);
            if org != look.site_org {
                out.foreign_present.push(org);
            }
        }
    }
    out.foreign_present.sort_unstable();
    out.foreign_present.dedup();

    // -- exfil matching: who ships which key's value where ------------
    // Only off-site requests can carry a value away; the forms a digest
    // gate rules out could not appear in any of them.
    let mut off_site = false;
    let mut gate = DigestGate::default();
    for req in &log.requests {
        if req.dest_domain.is_some_and(|dest| !look.is_site(dest)) {
            off_site = true;
            gate.observe(log.str(req.url));
        }
    }
    if !off_site {
        return out;
    }
    // every key's distinct value segments, each with the key it came from
    let mut forms = FormSet::new(gate);
    let mut form_keys: Vec<usize> = Vec::new();
    let mut seen: Vec<&str> = Vec::new();
    for (k, facts) in out.keys.iter().enumerate() {
        seen.clear();
        for value in &facts.values {
            for seg in id_segments(value) {
                if !seen.contains(&seg) {
                    seen.push(seg);
                    forms.push(seg);
                    form_keys.push(k);
                }
            }
        }
    }
    if forms.is_empty() {
        return out;
    }
    // forms are grouped by key, so a key's forms are adjacent
    let id_keys_in_visit = 1 + form_keys.windows(2).filter(|w| w[0] != w[1]).count();
    let scanner = forms.scanner();

    let mut hits = Vec::new();
    let mut matched: Vec<usize> = Vec::new();
    let mut ships: Vec<(usize, OrgId, bool)> = Vec::new(); // (key, initiator org, bulk)
    for req in &log.requests {
        let Some(dest) = req.dest_domain else {
            continue;
        };
        if look.is_site(dest) {
            continue; // first-party traffic is not exfiltration
        }
        scanner.scan(log.str(req.url), &mut hits);
        if hits.is_empty() {
            continue;
        }
        matched.clear();
        matched.extend(hits.iter().map(|&form| form_keys[form]));
        matched.dedup();
        let init_org = look.org(req.initiator.unwrap_or(site));
        // Bulk = many keys in absolute terms, or most of what this
        // visit's jar had to offer (samplers empty small jars without
        // ever hitting the absolute threshold).
        let bulk = matched.len() >= engine.config().bulk_distinct_keys
            || (matched.len() >= 2
                && matched.len() as f64
                    >= engine.config().bulk_jar_fraction * id_keys_in_visit as f64);
        for &k in &matched {
            // The breadth profile is about foreign harvesters: the
            // site's own scripts shipping its cookies are not one.
            if init_org != look.site_org {
                let name = engine.key(out.keys[k].key).name;
                out.shipped_names.push((look.kept(init_org), name));
            }
            ships.push((k, init_org, bulk));
        }
    }
    for (k, init_org, bulk) in ships {
        let facts = &mut out.keys[k];
        let owner_is_initiator = match engine.key(facts.key).owner {
            Owner::Site | Owner::Cloaked => init_org == look.site_org,
            Owner::Entity(org) => org == init_org,
        };
        if owner_is_initiator {
            // The owner shipping its own cookie off-site is always
            // deliberate — bulk or not (self-hosted analytics ships the
            // whole jar).
            facts.self_ship = true;
        } else if !bulk {
            facts.foreign_ships.push(look.kept(init_org));
        }
    }
    for facts in &mut out.keys {
        facts.foreign_ships.sort_unstable();
        facts.foreign_ships.dedup();
    }
    out.shipped_names.sort_unstable();
    out.shipped_names.dedup();
    out
}

impl<'l> KeyVisitFacts<'l> {
    fn new(key: KeyId, label: CookieLabel) -> KeyVisitFacts<'l> {
        KeyVisitFacts {
            key,
            label,
            id_value: false,
            persistent: false,
            respawned: false,
            self_ship: false,
            foreign_ships: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Value and lifetime features of one write of this key.
    fn observe_write(&mut self, value: &'l str, max_age_s: Option<i64>, cutoff: i64) {
        self.id_value |= id_segments(value).next().is_some();
        self.persistent |= max_age_s.is_some_and(|a| a >= cutoff);
        self.values.push(value);
    }
}

/// Tracker wins when two owners of a merged key disagree.
pub(crate) fn max_label(a: CookieLabel, b: CookieLabel) -> CookieLabel {
    if a == CookieLabel::Tracker || b == CookieLabel::Tracker {
        CookieLabel::Tracker
    } else {
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_segment_rejects_timestamps_and_counters() {
        assert!(id_segment("444332364")); // GA 9-digit client id
        assert!(!id_segment("1746838827")); // epoch seconds
        assert!(!id_segment("1746746266109")); // epoch millis
        assert!(!id_segment("12345678")); // 8-digit counter
        assert!(id_segment("868308499845957651")); // FBP 18-digit id
        assert!(id_segment("deadbeefcafe")); // hex
    }

    #[test]
    fn consent_strings_have_no_candidates() {
        let v = "isGpcEnabled=0&datestamp=99&consentId=aaaabbbb-cccc-dddd-eeee-ffff00001111";
        assert_eq!(id_segments(v).count(), 0);
        assert_eq!(
            id_segments("GA1.1.444332364.1746838827").collect::<Vec<_>>(),
            ["444332364"]
        );
    }
}
