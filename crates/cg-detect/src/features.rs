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
//! is bounded by the (finite) label table, never by crawl size. The
//! facts hold ids, hashes and slices of the log, never owned strings;
//! exfil matching reads each off-site request URL once for all of the
//! visit's encoded identifiers ([`cg_hash::FormScanner`]). A visit with
//! no off-site request builds no encoded forms, and a digest form is
//! built only when some off-site URL holds a hex run long enough to
//! contain it ([`cg_hash::DigestGate`]).

use crate::engine::{DetectEngine, KeyId, NameId, OrgId};
use cg_hash::{DigestGate, EncodedForms, FormScanner};
use cg_instrument::{VisitLog, WriteKind};
use cg_script::value::segments;
use cg_webgen::CookieLabel;
use std::collections::HashMap;

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

/// Organization resolution for one visit. The site resolves without
/// interning its domain, because most sites never reach the fold's
/// state; [`Orgs::kept`] interns it when one does.
struct Orgs<'a> {
    engine: &'a DetectEngine,
    site: &'a str,
    site_org: OrgId,
}

impl<'a> Orgs<'a> {
    fn new(engine: &'a DetectEngine, site: &'a str) -> Orgs<'a> {
        let site_org = engine.known_org_of(site).unwrap_or(UNINTERNED_SITE);
        Orgs {
            engine,
            site,
            site_org,
        }
    }

    fn of(&self, domain: &str) -> OrgId {
        if domain.eq_ignore_ascii_case(self.site) {
            self.site_org
        } else {
            self.engine.org_of(domain)
        }
    }

    /// `org` as it may be kept across visits.
    fn kept(&self, org: OrgId) -> OrgId {
        if org == UNINTERNED_SITE {
            self.engine.org_of(self.site)
        } else {
            org
        }
    }
}

/// Extracts one visit's facts. Pure: same log + engine → same facts,
/// independent of any other visit (the order-independence property the
/// proptest pins); only the ids in them depend on what the process
/// interned before.
pub fn extract<'l>(engine: &DetectEngine, log: &'l VisitLog) -> VisitFacts<'l> {
    let site = log.site_domain.as_str();
    let orgs = Orgs::new(engine, site);
    let cutoff = engine.config().persist_cutoff_s;
    let mut out = VisitFacts::default();

    // -- set replay: ownership, labels, value/lifetime features -------
    // live owner per cookie name: (actor's org, index into out.keys
    // when labeled)
    let mut live: HashMap<&str, (OrgId, Option<usize>)> = HashMap::new();
    // names a foreign actor deleted, with the original owner's org
    let mut foreign_deleted: HashMap<&str, OrgId> = HashMap::new();
    // whether each foreign actor URL seen so far is on the site's domain
    let mut first_party_urls: Vec<(&str, bool)> = Vec::new();

    for ev in &log.sets {
        if ev.blocked {
            continue;
        }
        let actor = ev.actor.as_deref().unwrap_or(site);
        let actor_org = orgs.of(actor);
        let create = match ev.kind {
            WriteKind::Create => true,
            WriteKind::Overwrite => match live.get(ev.name.as_str()) {
                // ownership is sticky: the overwrite feeds the original
                // pair's features
                Some(&(_, Some(k))) => {
                    out.keys[k].observe_write(&ev.value, ev.max_age_s, cutoff);
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
                if let Some(&(owner_org, _)) = live.get(ev.name.as_str()) {
                    if owner_org != actor_org {
                        foreign_deleted.insert(&ev.name, owner_org);
                    }
                }
                false
            }
        };
        if !create {
            continue;
        }
        let owner = classify_owner(
            actor,
            actor_org,
            ev.actor_url.as_deref(),
            site,
            &mut first_party_urls,
        );
        let labeled = engine.name_id(&ev.name).and_then(|name| {
            let label_domain = if owner == Owner::Site { site } else { actor };
            engine
                .label_of(name, label_domain)
                .map(|label| (engine.key_id(DetectKey { name, owner }), label))
        });
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
            facts.observe_write(&ev.value, ev.max_age_s, cutoff);
            // respawn: this create resurrects a foreign-deleted cookie
            // under its original owner (a blind overwrite cannot)
            if ev.kind == WriteKind::Create
                && foreign_deleted.get(ev.name.as_str()) == Some(&actor_org)
            {
                facts.respawned = true;
            }
            k
        });
        if slot.is_none() {
            out.unlabeled_sets += 1;
            out.unlabeled_pairs.push(cg_analysis::sketch::key_hash(&[
                ev.name.as_bytes(),
                actor.as_bytes(),
            ]));
        }
        live.insert(&ev.name, (actor_org, slot));
    }

    // -- co-presence: which foreign organizations ran scripts here ----
    for inc in &log.inclusions {
        if let Some(d) = &inc.domain {
            let org = orgs.of(d);
            if org != orgs.site_org {
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
        if req
            .dest_domain
            .as_deref()
            .is_some_and(|dest| !dest.eq_ignore_ascii_case(site))
        {
            off_site = true;
            gate.observe(&req.url);
        }
    }
    if !off_site {
        return out;
    }
    let mut forms: Vec<(usize, EncodedForms)> = Vec::new();
    let mut seen: Vec<&str> = Vec::new();
    for (k, facts) in out.keys.iter().enumerate() {
        seen.clear();
        for value in &facts.values {
            for seg in id_segments(value) {
                if !seen.contains(&seg) {
                    seen.push(seg);
                    forms.push((k, EncodedForms::gated(seg, gate)));
                }
            }
        }
    }
    if forms.is_empty() {
        return out;
    }
    // forms are grouped by key, so a key's forms are adjacent
    let id_keys_in_visit = 1 + forms.windows(2).filter(|w| w[0].0 != w[1].0).count();
    let scanner = FormScanner::new(forms.iter().map(|(_, f)| f));

    let mut hits = Vec::new();
    let mut matched: Vec<usize> = Vec::new();
    let mut ships: Vec<(usize, OrgId, bool)> = Vec::new(); // (key, initiator org, bulk)
    for req in &log.requests {
        let Some(dest) = &req.dest_domain else {
            continue;
        };
        if dest.eq_ignore_ascii_case(site) {
            continue; // first-party traffic is not exfiltration
        }
        scanner.scan(&req.url, &mut hits);
        if hits.is_empty() {
            continue;
        }
        matched.clear();
        matched.extend(hits.iter().map(|&form| forms[form].0));
        matched.dedup();
        let init_org = orgs.of(req.initiator.as_deref().unwrap_or(site));
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
            if init_org != orgs.site_org {
                let name = engine.key(out.keys[k].key).name;
                out.shipped_names.push((orgs.kept(init_org), name));
            }
            ships.push((k, init_org, bulk));
        }
    }
    for (k, init_org, bulk) in ships {
        let facts = &mut out.keys[k];
        let owner_is_initiator = match engine.key(facts.key).owner {
            Owner::Site | Owner::Cloaked => init_org == orgs.site_org,
            Owner::Entity(org) => org == init_org,
        };
        if owner_is_initiator {
            // The owner shipping its own cookie off-site is always
            // deliberate — bulk or not (self-hosted analytics ships the
            // whole jar).
            facts.self_ship = true;
        } else if !bulk {
            facts.foreign_ships.push(orgs.kept(init_org));
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

/// Owner classification for one write. `first_party_urls` remembers,
/// for the visit's foreign actor URLs classified so far, whether each
/// URL's domain is the site's, so each URL is parsed once a visit.
fn classify_owner<'l>(
    actor: &str,
    actor_org: OrgId,
    actor_url: Option<&'l str>,
    site: &str,
    first_party_urls: &mut Vec<(&'l str, bool)>,
) -> Owner {
    if actor.eq_ignore_ascii_case(site) {
        return Owner::Site;
    }
    // Foreign attribution from a first-party script URL = the
    // `resolve_cnames` crawl uncloaked a CNAME alias.
    let Some(url) = actor_url else {
        return Owner::Entity(actor_org);
    };
    let first_party = match first_party_urls.iter().find(|&&(seen, _)| seen == url) {
        Some(&(_, first_party)) => first_party,
        None => {
            let first_party = cg_url::url_domain(url).is_some_and(|d| d.eq_ignore_ascii_case(site));
            first_party_urls.push((url, first_party));
            first_party
        }
    };
    if first_party {
        return Owner::Cloaked;
    }
    Owner::Entity(actor_org)
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
