//! Log event types.

use crate::sink::EventSink;
use cg_hash::StrIndex;
use cg_http::RequestKind;
use serde::{Content, Deserialize, Serialize};
use std::ops::Range;

/// Which script-facing API an operation used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CookieApi {
    /// The legacy string interface.
    DocumentCookie,
    /// The structured `CookieStore` API.
    CookieStore,
    /// An HTTP `Set-Cookie` response header.
    HttpHeader,
}

/// The semantic kind of a write: what the measurement distinguishes in
/// Table 1 (set vs. overwrite vs. delete).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WriteKind {
    /// A brand-new cookie.
    Create,
    /// An existing cookie replaced.
    Overwrite,
    /// An existing cookie removed (expiry-in-the-past or
    /// `cookieStore.delete`).
    Delete,
}

/// Which attributes an overwrite changed (§5.5's taxonomy).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttrChangeFlags {
    /// Value changed.
    pub value: bool,
    /// Expiry changed.
    pub expires: bool,
    /// Domain attribute changed.
    pub domain: bool,
    /// Path changed.
    pub path: bool,
}

/// A string of one visit: its index in the visit's [`StrTable`], read
/// back through [`VisitLog::str`]. Two symbols of one visit are equal
/// exactly when their strings are.
pub type Sym = u32;

/// One visit's distinct strings, each once, numbered in the order they
/// were added: one arena `String` plus the `u32` end offset of each
/// entry, and an index that finds an entry by its bytes.
#[derive(Debug, Clone, Default)]
pub struct StrTable {
    arena: String,
    /// Where entry `i` ends in `arena`; it starts where `i - 1` ends.
    ends: Vec<u32>,
    index: StrIndex,
}

impl StrTable {
    /// An empty table with room for `entries` strings of `bytes` bytes
    /// in total, so filling it that far never reallocates.
    pub fn with_capacity(entries: usize, bytes: usize) -> StrTable {
        if entries == 0 {
            return StrTable::default();
        }
        StrTable {
            arena: String::with_capacity(bytes),
            ends: Vec::with_capacity(entries),
            index: StrIndex::with_capacity(entries),
        }
    }

    /// The table of the entries `ends` marks off in `arena`: entry `i`
    /// ends at byte `ends[i]` and starts where entry `i - 1` ends. The
    /// index is built in one pass over the entries. `Err` names the
    /// first entry that does not end on a char boundary (so is not
    /// UTF-8 on its own) or repeats an earlier entry.
    ///
    /// # Panics
    /// When `ends` is not ascending or its last end is not the arena's.
    pub fn from_parts(arena: String, ends: Vec<u32>) -> Result<StrTable, Sym> {
        assert!(ends.is_sorted(), "entry ends ascend");
        assert_eq!(
            ends.last().map_or(0, |&end| end as usize),
            arena.len(),
            "the last entry ends the arena"
        );
        let mut index = StrIndex::with_capacity(ends.len());
        for sym in 0..ends.len() as Sym {
            if !arena.is_char_boundary(ends[sym as usize] as usize) {
                return Err(sym);
            }
            let entry = |i| entry_bytes(&arena, &ends, i);
            match index.find(entry(sym), sym as usize, entry) {
                Ok(_) => return Err(sym),
                Err(at) => index.insert(at, sym),
            }
        }
        Ok(StrTable { arena, ends, index })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when the table holds no string.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The string of `sym`.
    ///
    /// # Panics
    /// When `sym` is not an entry of this table.
    pub fn get(&self, sym: Sym) -> &str {
        let i = sym as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.arena[start..self.ends[i] as usize]
    }

    /// Every entry, in symbol order.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.len() as Sym).map(|sym| self.get(sym))
    }

    /// The symbol of `s`, adding it on first use.
    pub fn intern(&mut self, s: &str) -> Sym {
        self.insert(s).unwrap_or_else(|sym| sym)
    }

    /// The symbol of `s` if the table holds it. Probes only: never adds
    /// or grows.
    pub fn find(&self, s: &str) -> Option<Sym> {
        let (arena, ends) = (&self.arena, &self.ends);
        self.index
            .get(s.as_bytes(), |i| entry_bytes(arena, ends, i))
    }

    /// Adds `s` as a new entry: `Ok` with its symbol, or `Err` with the
    /// symbol of the entry that already holds it.
    pub fn insert(&mut self, s: &str) -> Result<Sym, Sym> {
        let (arena, ends) = (&self.arena, &self.ends);
        let found = self
            .index
            .find(s.as_bytes(), ends.len(), |i| entry_bytes(arena, ends, i));
        match found {
            Ok(sym) => Err(sym),
            Err(at) => {
                let sym = Sym::try_from(self.ends.len()).expect("fewer than 2^32 strings");
                self.arena.push_str(s);
                let end = u32::try_from(self.arena.len()).expect("a visit's strings fit in 4 GiB");
                self.ends.push(end);
                self.index.insert(at, sym);
                Ok(sym)
            }
        }
    }
}

/// The bytes of entry `i` of the table `arena` and `ends` describe.
fn entry_bytes<'t>(arena: &'t str, ends: &[u32], i: u32) -> &'t [u8] {
    let i = i as usize;
    let start = if i == 0 { 0 } else { ends[i - 1] as usize };
    &arena.as_bytes()[start..ends[i] as usize]
}

/// A cookie write (create/overwrite/delete) observed at the API boundary.
/// Its strings are symbols of the visit's [`StrTable`].
#[derive(Debug, Clone, PartialEq)]
pub struct SetEvent {
    /// Cookie name.
    pub name: Sym,
    /// Written value (empty for deletes).
    pub value: Sym,
    /// eTLD+1 of the acting script (None = inline/unattributed); for
    /// `HttpHeader` events, the responding server's eTLD+1.
    pub actor: Option<Sym>,
    /// Full URL of the acting script, when attributable.
    pub actor_url: Option<Sym>,
    /// The API used.
    pub api: CookieApi,
    /// Create / overwrite / delete.
    pub kind: WriteKind,
    /// Requested lifetime in seconds (`Max-Age`, or derived from
    /// `Expires`); `None` = session cookie or unrecorded.
    pub max_age_s: Option<i64>,
    /// Attribute changes (overwrites only).
    pub changes: Option<AttrChangeFlags>,
    /// True when CookieGuard blocked the operation (the write never
    /// reached the jar).
    pub blocked: bool,
    /// Visit-relative time.
    pub time_ms: u64,
}

/// A cookie read observed at the API boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadEvent {
    /// eTLD+1 of the acting script (None = inline/unattributed).
    pub actor: Option<Sym>,
    /// The API used.
    pub api: CookieApi,
    /// The cookies the caller received, in the order it received them:
    /// a range of the visit's [`VisitLog::read_names`] (values are not
    /// logged: no analysis reads them). [`VisitLog::names_of`] resolves
    /// them.
    pub names: Range<u32>,
    /// How many additional cookies CookieGuard withheld from this read.
    pub filtered_count: usize,
    /// Visit-relative time.
    pub time_ms: u64,
}

/// An outbound network request (`Network.requestWillBeSent` analog).
#[derive(Debug, Clone, PartialEq)]
pub struct RequestEvent {
    /// Full URL including query string.
    pub url: Sym,
    /// Destination eTLD+1 (pre-computed for the analysis).
    pub dest_domain: Option<Sym>,
    /// Resource type.
    pub kind: RequestKind,
    /// eTLD+1 of the initiating script, from the stack trace.
    pub initiator: Option<Sym>,
    /// Full URL of the initiating script.
    pub initiator_url: Option<Sym>,
    /// The page's eTLD+1.
    pub first_party: Sym,
    /// The `Cookie:` request header the browser attached (None when no
    /// cookies matched the destination). First-party endpoints receive
    /// the *whole* jar here regardless of any script-level isolation —
    /// the channel server-side tracking rides (§5.7).
    pub cookie_header: Option<Sym>,
    /// Visit-relative time.
    pub time_ms: u64,
}

impl RequestEvent {
    /// Builds the event for an observed outbound request, deriving the
    /// destination/initiator eTLD+1 fields the analysis consumes and
    /// interning every string through `sink`. `cookie_header` is the
    /// `Cookie:` value the browser attached (None or empty = nothing
    /// matched).
    pub fn observed(
        sink: &mut dyn EventSink,
        url: &str,
        kind: RequestKind,
        initiator_url: Option<&cg_url::Url>,
        first_party: &str,
        cookie_header: Option<&str>,
        time_ms: u64,
    ) -> RequestEvent {
        RequestEvent {
            url: sink.intern(url),
            dest_domain: cg_url::url_domain(url).map(|d| sink.intern(&d)),
            kind,
            initiator: initiator_url
                .and_then(|u| u.registrable_domain())
                .map(|d| sink.intern(&d)),
            initiator_url: initiator_url.map(|u| sink.intern(&u.to_string())),
            first_party: sink.intern(first_party),
            cookie_header: cookie_header
                .filter(|h| !h.is_empty())
                .map(|h| sink.intern(h)),
            time_ms,
        }
    }
}

/// A functional-probe outcome (breakage evaluation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeEvent {
    /// Feature label (`sso`, `sso_reload`, `cart`, `chat`, `ads`,
    /// `functionality`).
    pub feature: Sym,
    /// The cookie the feature depends on.
    pub cookie: Sym,
    /// Whether the dependent read succeeded.
    pub ok: bool,
    /// eTLD+1 of the probing script.
    pub actor: Option<Sym>,
}

/// A DOM mutation attributed to a script (§8 pilot).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomEvent {
    /// Acting script's eTLD+1.
    pub actor: Option<Sym>,
    /// Owner of the mutated element.
    pub owner: Sym,
    /// Mutation kind label.
    pub kind: Sym,
    /// True when the DOM guard blocked the mutation (it never reached
    /// the document).
    pub blocked: bool,
}

impl DomEvent {
    /// A mutation is cross-domain when the actor is known and differs
    /// (ASCII case-insensitively) from the element's owner.
    pub fn is_cross_domain(&self, log: &VisitLog) -> bool {
        match self.actor {
            Some(a) => !log.same_domain(a, self.owner),
            None => false,
        }
    }
}

/// One script observed in the main frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptInclusion {
    /// Script URL (`<inline>` for inline scripts).
    pub url: Sym,
    /// eTLD+1, when external.
    pub domain: Option<Sym>,
    /// Present in served markup (`true`) vs dynamically injected.
    pub direct: bool,
}

impl ScriptInclusion {
    /// Builds the inclusion record for a script URL (`None` = inline)
    /// and its eTLD+1 as the caller derived it from its own parse of the
    /// URL, interning both through `sink`.
    pub fn observed(
        sink: &mut dyn EventSink,
        url: Option<&str>,
        domain: Option<&str>,
        direct: bool,
    ) -> ScriptInclusion {
        let (url, domain) = match url {
            Some(u) => (sink.intern(u), domain.map(|d| sink.intern(d))),
            None => (sink.intern("<inline>"), None),
        };
        ScriptInclusion {
            url,
            domain,
            direct,
        }
    }
}

/// Everything recorded during one site visit.
///
/// Every string of the visit lives once in its string table
/// ([`VisitLog::strings`]); events hold [`Sym`]s into it, read back
/// through [`VisitLog::str`]. A read's names are a range of one flat
/// list, [`VisitLog::read_names`]. Build a log through
/// [`Recorder`](crate::Recorder) or [`VisitLog::new`] plus
/// [`VisitLog::intern`].
///
/// Serializes as one JSON object per visit (the crawl-store export's
/// line format), every symbol printed as its string; neither the table
/// nor `read_names` is a key of its own.
#[derive(Debug, Clone)]
pub struct VisitLog {
    /// The visited site's eTLD+1.
    pub site_domain: Sym,
    /// Tranco-style rank.
    pub rank: usize,
    /// Whether the crawl produced complete data (§4.2's retention filter).
    pub complete: bool,
    /// Cookie writes, in time order.
    pub sets: Vec<SetEvent>,
    /// Cookie reads, in time order.
    pub reads: Vec<ReadEvent>,
    /// The names every read returned, read after read: what each
    /// [`ReadEvent::names`] is a range of.
    pub read_names: Vec<Sym>,
    /// Outbound requests, in time order.
    pub requests: Vec<RequestEvent>,
    /// Probe outcomes.
    pub probes: Vec<ProbeEvent>,
    /// DOM mutations.
    pub dom_events: Vec<DomEvent>,
    /// Scripts seen in the main frame.
    pub inclusions: Vec<ScriptInclusion>,
    /// The visit's string table: what every [`Sym`] above indexes.
    pub strings: StrTable,
}

impl Default for VisitLog {
    /// An incomplete visit of rank 0 to the empty domain.
    fn default() -> VisitLog {
        VisitLog {
            complete: false,
            ..VisitLog::new("", 0)
        }
    }
}

impl VisitLog {
    /// A complete visit to `site_domain` with no events yet.
    pub fn new(site_domain: &str, rank: usize) -> VisitLog {
        let mut strings = StrTable::default();
        let site_domain = strings.intern(site_domain);
        VisitLog {
            site_domain,
            rank,
            complete: true,
            sets: Vec::new(),
            reads: Vec::new(),
            read_names: Vec::new(),
            requests: Vec::new(),
            probes: Vec::new(),
            dom_events: Vec::new(),
            inclusions: Vec::new(),
            strings,
        }
    }

    /// The string of `sym`.
    pub fn str(&self, sym: Sym) -> &str {
        self.strings.get(sym)
    }

    /// The string of `sym`, when there is one.
    pub fn opt_str(&self, sym: Option<Sym>) -> Option<&str> {
        sym.map(|sym| self.str(sym))
    }

    /// The visited site's eTLD+1.
    pub fn site(&self) -> &str {
        self.str(self.site_domain)
    }

    /// The symbol of `s`, adding it to the table on first use.
    pub fn intern(&mut self, s: &str) -> Sym {
        self.strings.intern(s)
    }

    /// Whether two domain symbols name the same domain, ASCII
    /// case-insensitively (equal symbols always do).
    pub fn same_domain(&self, a: Sym, b: Sym) -> bool {
        a == b || self.str(a).eq_ignore_ascii_case(self.str(b))
    }

    /// Count of cookie operations (reads + writes) — the load driver for
    /// the performance model.
    pub fn cookie_op_count(&self) -> usize {
        self.sets.len() + self.reads.len()
    }

    /// The symbols of the names `read` returned, in order.
    pub fn name_syms(&self, read: &ReadEvent) -> &[Sym] {
        &self.read_names[read.names.start as usize..read.names.end as usize]
    }

    /// The names `read` returned, in order.
    pub fn names_of<'a>(&'a self, read: &ReadEvent) -> impl Iterator<Item = &'a str> + 'a {
        self.name_syms(read).iter().map(|&sym| self.str(sym))
    }

    /// Third-party script inclusions (external, with an eTLD+1 other
    /// than the site's, ASCII case-insensitively).
    pub fn third_party_inclusions(&self) -> impl Iterator<Item = &ScriptInclusion> {
        self.inclusions
            .iter()
            .filter(|s| matches!(s.domain, Some(d) if !self.same_domain(d, self.site_domain)))
    }
}

/// A JSON object of `fields`, in order.
fn object(fields: Vec<(&str, Content)>) -> Content {
    Content::Map(
        fields
            .into_iter()
            .map(|(key, value)| (Content::Str(key.to_string()), value))
            .collect(),
    )
}

impl VisitLog {
    fn str_content(&self, sym: Sym) -> Content {
        self.str(sym).to_content()
    }

    fn opt_content(&self, sym: Option<Sym>) -> Content {
        self.opt_str(sym).to_content()
    }

    fn seq_content<T>(&self, items: &[T], item: impl Fn(&T) -> Content) -> Content {
        Content::Seq(items.iter().map(item).collect())
    }
}

// Field names and order are those of the events' declarations, so the
// export's JSON lines stay what they were when each string was its own
// `String`.
impl Serialize for VisitLog {
    fn to_content(&self) -> Content {
        let sets = self.seq_content(&self.sets, |e| {
            object(vec![
                ("name", self.str_content(e.name)),
                ("value", self.str_content(e.value)),
                ("actor", self.opt_content(e.actor)),
                ("actor_url", self.opt_content(e.actor_url)),
                ("api", e.api.to_content()),
                ("kind", e.kind.to_content()),
                ("max_age_s", e.max_age_s.to_content()),
                ("changes", e.changes.to_content()),
                ("blocked", e.blocked.to_content()),
                ("time_ms", e.time_ms.to_content()),
            ])
        });
        let reads = self.seq_content(&self.reads, |e| {
            object(vec![
                ("actor", self.opt_content(e.actor)),
                ("api", e.api.to_content()),
                (
                    "names",
                    Content::Seq(self.names_of(e).map(Serialize::to_content).collect()),
                ),
                ("filtered_count", e.filtered_count.to_content()),
                ("time_ms", e.time_ms.to_content()),
            ])
        });
        let requests = self.seq_content(&self.requests, |e| {
            object(vec![
                ("url", self.str_content(e.url)),
                ("dest_domain", self.opt_content(e.dest_domain)),
                ("kind", e.kind.to_content()),
                ("initiator", self.opt_content(e.initiator)),
                ("initiator_url", self.opt_content(e.initiator_url)),
                ("first_party", self.str_content(e.first_party)),
                ("cookie_header", self.opt_content(e.cookie_header)),
                ("time_ms", e.time_ms.to_content()),
            ])
        });
        let probes = self.seq_content(&self.probes, |e| {
            object(vec![
                ("feature", self.str_content(e.feature)),
                ("cookie", self.str_content(e.cookie)),
                ("ok", e.ok.to_content()),
                ("actor", self.opt_content(e.actor)),
            ])
        });
        let dom_events = self.seq_content(&self.dom_events, |e| {
            object(vec![
                ("actor", self.opt_content(e.actor)),
                ("owner", self.str_content(e.owner)),
                ("kind", self.str_content(e.kind)),
                ("blocked", e.blocked.to_content()),
            ])
        });
        let inclusions = self.seq_content(&self.inclusions, |e| {
            object(vec![
                ("url", self.str_content(e.url)),
                ("domain", self.opt_content(e.domain)),
                ("direct", e.direct.to_content()),
            ])
        });
        object(vec![
            ("site_domain", self.str_content(self.site_domain)),
            ("rank", self.rank.to_content()),
            ("complete", self.complete.to_content()),
            ("sets", sets),
            ("reads", reads),
            ("requests", requests),
            ("probes", probes),
            ("dom_events", dom_events),
            ("inclusions", inclusions),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_table_from_parts_is_the_table_its_entries_intern_to() {
        let words = ["site.example", "", "é€", "uid", "x"];
        let mut interned = StrTable::default();
        let mut ends = Vec::new();
        for w in words {
            interned.intern(w);
            ends.push(interned.arena.len() as u32);
        }
        let table = StrTable::from_parts(words.concat(), ends.clone()).unwrap();
        assert_eq!(table.iter().collect::<Vec<_>>(), words);
        for (sym, w) in words.iter().enumerate() {
            assert_eq!(table.find(w), Some(sym as Sym));
        }
        assert_eq!(table.find("absent"), None);
        // "uid" again, as a sixth entry: the repeat is named.
        ends.push(ends[4] + 3);
        let repeated = format!("{}uid", words.concat());
        assert_eq!(StrTable::from_parts(repeated, ends).unwrap_err(), 5);
        assert!(StrTable::from_parts(String::new(), Vec::new())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn a_table_from_parts_refuses_an_entry_that_splits_a_char() {
        let split = StrTable::from_parts("aé".to_string(), vec![1, 2, 3]);
        assert_eq!(split.unwrap_err(), 1);
    }

    #[test]
    #[should_panic(expected = "the last entry ends the arena")]
    fn a_table_from_parts_covers_its_whole_arena() {
        let _ = StrTable::from_parts("abc".to_string(), vec![1]);
    }

    #[test]
    fn third_party_inclusion_filtering() {
        let mut log = VisitLog::new("site.com", 1);
        for (url, domain) in [
            ("https://www.site.com/app.js", Some("site.com")),
            ("https://t.tracker.io/t.js", Some("tracker.io")),
            ("<inline>", None),
        ] {
            let inclusion = ScriptInclusion {
                url: log.intern(url),
                domain: domain.map(|d| log.intern(d)),
                direct: true,
            };
            log.inclusions.push(inclusion);
        }
        assert_eq!(log.third_party_inclusions().count(), 1);
    }

    #[test]
    fn third_party_inclusions_treat_a_case_variant_site_domain_as_first_party() {
        let mut log = VisitLog::new("site.com", 1);
        for domain in ["Site.COM", "site.com", "tracker.io"] {
            let inclusion = ScriptInclusion {
                url: log.intern(&format!("https://{domain}/a.js")),
                domain: Some(log.intern(domain)),
                direct: true,
            };
            log.inclusions.push(inclusion);
        }
        // "Site.COM" is its own symbol, yet names the site.
        assert_ne!(log.inclusions[0].domain, Some(log.site_domain));
        let third: Vec<&str> = log
            .third_party_inclusions()
            .map(|s| log.str(s.domain.unwrap()))
            .collect();
        assert_eq!(third, ["tracker.io"]);
    }

    #[test]
    fn the_string_table_holds_each_string_once() {
        let mut table = StrTable::default();
        assert_eq!(table.find("a"), None);
        assert_eq!(table.intern("a"), 0);
        assert_eq!(table.intern(""), 1);
        assert_eq!(table.intern("bc"), 2);
        assert_eq!(table.intern("a"), 0);
        assert_eq!(table.insert("bc"), Err(2));
        assert_eq!(table.insert("d"), Ok(3));
        assert_eq!(table.iter().collect::<Vec<_>>(), ["a", "", "bc", "d"]);
        assert_eq!(table.get(1), "");
        assert_eq!(table.len(), 4);
        assert_eq!(table.find("bc"), Some(2));
        assert_eq!(table.find(""), Some(1));
        assert_eq!(table.find("e"), None);
        assert_eq!(table.len(), 4, "find never adds");
    }

    #[test]
    fn cookie_op_count_sums() {
        let mut log = VisitLog::default();
        let (a, one, x, url) = (
            log.intern("a"),
            log.intern("1"),
            log.intern("x.com"),
            log.intern("https://x.com/x.js"),
        );
        log.sets.push(SetEvent {
            name: a,
            value: one,
            actor: Some(x),
            actor_url: Some(url),
            api: CookieApi::DocumentCookie,
            kind: WriteKind::Create,
            max_age_s: None,
            changes: None,
            blocked: false,
            time_ms: 0,
        });
        log.reads.push(ReadEvent {
            actor: None,
            api: CookieApi::DocumentCookie,
            names: 0..0,
            filtered_count: 0,
            time_ms: 1,
        });
        assert_eq!(log.cookie_op_count(), 2);
    }

    #[test]
    fn reads_serialize_their_names_as_strings() {
        let mut log = VisitLog::new("site.com", 3);
        let (t, ga, sid) = (log.intern("t.com"), log.intern("_ga"), log.intern("sid"));
        log.read_names = vec![sid, ga, sid];
        log.reads.push(ReadEvent {
            actor: Some(t),
            api: CookieApi::CookieStore,
            names: 0..3,
            filtered_count: 2,
            time_ms: 9,
        });
        assert_eq!(
            serde_json::to_string(&log).unwrap(),
            "{\"site_domain\":\"site.com\",\"rank\":3,\"complete\":true,\"sets\":[],\
             \"reads\":[{\"actor\":\"t.com\",\"api\":\"CookieStore\",\
             \"names\":[\"sid\",\"_ga\",\"sid\"],\"filtered_count\":2,\"time_ms\":9}],\
             \"requests\":[],\"probes\":[],\"dom_events\":[],\"inclusions\":[]}"
        );
    }
}
