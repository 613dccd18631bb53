//! Differential testing: the id-compiled decision path
//! ([`cookieguard_core::CompiledPolicy`]) against the retained verbatim
//! string-path oracle (`GuardEngine::check_str_oracle`).
//!
//! For random configs (inline policy × whitelist × entity map), sites,
//! callers, and creators — in mixed case, with stray edge dots, and
//! including domains unknown to the entity map — the two paths must
//! return *identical* `AccessDecision`s, reasons included. The read
//! path — [`GuardSession::filter_names`] and
//! [`GuardSession::filter_read`], which decide the caller once per read
//! and only the creator tail per cookie — must keep exactly the names
//! the oracle allows. CI runs both properties by name so a test-filter
//! regression cannot silently skip them.

use cg_cookiejar::{Cookie, CookieJar};
use cg_entity::EntityMap;
use cg_url::Url;
use cookieguard_core::{
    AccessDecision, Caller, CookieOrigin, GuardConfig, GuardEngine, GuardSession, GuardStats,
    InlinePolicy, OwnershipRecord,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Domain pool: mixed case and stray edge dots (both paths apply the
/// interner's normalization — lowercase, dots trimmed — and must
/// agree), entity-mapped and unmapped domains, and spellings that
/// collapse to the same normalized domain.
fn domain() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec![
        "site.com",
        "SITE.com",
        "site.com.",
        "Shop.Example",
        "tracker.com",
        "ads.net",
        "facebook.net",
        "FBCDN.net",
        "fbcdn.net",
        ".fbcdn.net",
        "instagram.com",
        "criteo.com",
        "partner.io",
        ".Partner.IO.",
        "unknown-a.example",
        "Unknown-B.example",
        "cdn.io",
    ])
}

fn entity() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec!["Meta", "Criteo", "Org-C"])
}

fn build_config(relaxed: bool, whitelist: &[&str], entities: &[(&str, &str)]) -> GuardConfig {
    let mut config = if relaxed {
        GuardConfig::relaxed()
    } else {
        GuardConfig::strict()
    };
    for d in whitelist {
        config = config.with_whitelisted(d);
    }
    if !entities.is_empty() {
        let mut map = EntityMap::new();
        for (d, e) in entities {
            map.insert(d, e);
        }
        config = config.with_entity_grouping(map);
    }
    config
}

proptest! {
    /// THE differential property: for every generated (config, site,
    /// caller, creator) the compiled path and the string oracle agree
    /// exactly — on `check` and on `check_create`.
    #[test]
    fn compiled_policy_matches_string_oracle(
        site in domain(),
        caller in prop::option::of(domain()),
        creator in prop::option::of(domain()),
        relaxed in any::<bool>(),
        whitelist in prop::collection::vec(domain(), 0..3),
        entities in prop::collection::vec((domain(), entity()), 0..6),
    ) {
        let config = build_config(relaxed, &whitelist, &entities);
        let engine = GuardEngine::new(config);

        let caller_struct = match caller {
            Some(d) => Caller::external(d),
            None => Caller::inline(),
        };
        let compiled = engine.check(site, &caller_struct, creator);
        let oracle = engine.check_str_oracle(site, caller, creator);
        prop_assert_eq!(
            compiled, oracle,
            "check diverged: site={:?} caller={:?} creator={:?}",
            site, caller, creator
        );

        let compiled_create = engine.check_create(site, &caller_struct);
        let oracle_create = engine.check_create_str_oracle(site, caller);
        prop_assert_eq!(
            compiled_create, oracle_create,
            "check_create diverged: site={:?} caller={:?}",
            site, caller
        );
    }
}

/// Cookie names the session ops draw from.
const NAMES: [&str; 6] = ["_ga", "_fbp", "sid", "pref", "tid", "cart"];

/// One session operation before a read.
#[derive(Debug, Clone)]
enum Op {
    Write(Option<&'static str>, usize),
    HttpSet(usize, &'static str),
    Grandfather(usize),
    Delete(Option<&'static str>, usize),
    Read(Option<&'static str>, Vec<usize>),
}

/// Samples an [`Op`]: each kind equally often, over the domain pool
/// and [`NAMES`].
struct AnyOp;

impl Strategy for AnyOp {
    type Value = Op;

    fn sample(&self, rng: &mut StdRng) -> Op {
        let caller = prop::option::of(domain());
        let name = 0..NAMES.len();
        match (0..5usize).sample(rng) {
            0 => Op::Write(caller.sample(rng), name.sample(rng)),
            1 => Op::HttpSet(name.sample(rng), domain().sample(rng)),
            2 => Op::Grandfather(name.sample(rng)),
            3 => Op::Delete(caller.sample(rng), name.sample(rng)),
            _ => Op::Read(
                caller.sample(rng),
                prop::collection::vec(name, 0..8).sample(rng),
            ),
        }
    }
}

fn caller_of(domain: Option<&str>) -> Caller {
    domain.map_or_else(Caller::inline, Caller::external)
}

/// One cookie per name of [`NAMES`].
fn jar_of_names() -> Vec<Cookie> {
    let url = Url::parse("https://site.com/").unwrap();
    let mut jar = CookieJar::new();
    for (i, n) in NAMES.iter().enumerate() {
        jar.set_document_cookie(&format!("{n}=v{i}"), &url, i as i64)
            .unwrap();
    }
    jar.cookies_for_document(&url, 100)
}

/// The names of a read the string oracle lets `caller` see, in input
/// order: grandfathered names always, any other name when
/// `check_str_oracle` allows the caller its recorded creator. The
/// records come from `MetadataStore::iter`, not from the probed
/// lookup the session's filter uses.
fn oracle_keeps<'n>(
    engine: &GuardEngine,
    session: &GuardSession,
    site: &str,
    caller: Option<&str>,
    names: &[&'n str],
) -> Vec<&'n str> {
    let records: HashMap<&str, OwnershipRecord> = session.metadata().iter().collect();
    names
        .iter()
        .copied()
        .filter(|n| match records.get(n) {
            Some(r) if r.origin == CookieOrigin::Grandfathered => true,
            r => engine
                .check_str_oracle(site, caller, r.and_then(|r| r.creator_name()))
                .is_allow(),
        })
        .collect()
}

proptest! {
    /// The read path against the oracle: random sessions of writes,
    /// HTTP sets, grandfathering and deletes by random callers, under
    /// random configs, interleaved with reads. Every read keeps exactly
    /// the names the oracle allows, in input order, through both
    /// `filter_names` and `filter_read`, and the two bump `GuardStats`
    /// identically.
    #[test]
    fn read_path_keeps_exactly_what_the_oracle_allows(
        site in domain(),
        relaxed in any::<bool>(),
        whitelist in prop::collection::vec(domain(), 0..3),
        entities in prop::collection::vec((domain(), entity()), 0..6),
        ops in prop::collection::vec(AnyOp, 1..40),
    ) {
        let engine = Arc::new(GuardEngine::new(build_config(relaxed, &whitelist, &entities)));
        let cookies = jar_of_names();
        // Identical op streams; one session reads by name, the other
        // through a borrowed cookie view.
        let mut by_name = engine.session(site);
        let mut by_view = engine.session(site);
        let mut expected = GuardStats::default();
        for op in &ops {
            for s in [&mut by_name, &mut by_view] {
                match *op {
                    Op::Write(c, n) => {
                        s.authorize_write(&caller_of(c), NAMES[n]);
                    }
                    Op::HttpSet(n, d) => s.record_http_set_cookie(NAMES[n], d),
                    Op::Grandfather(n) => s.grandfather(NAMES[n]),
                    Op::Delete(c, n) => {
                        s.authorize_delete(&caller_of(c), NAMES[n]);
                    }
                    Op::Read(..) => {}
                }
            }
            let Op::Read(c, ref picks) = *op else { continue };
            let names: Vec<&str> = picks.iter().map(|&i| NAMES[i]).collect();
            let want = oracle_keeps(&engine, &by_name, site, c, &names);
            let caller = caller_of(c);

            let got = by_name.filter_names(&caller, &names);
            prop_assert_eq!(&got, &want, "filter_names: caller={:?} names={:?}", c, names);

            let mut view: Vec<&Cookie> = names
                .iter()
                .map(|n| cookies.iter().find(|c| c.name == *n).unwrap())
                .collect();
            let withheld = by_view.filter_read(&caller, &mut view);
            let seen: Vec<&str> = view.iter().map(|c| c.name.as_str()).collect();
            prop_assert_eq!(&seen, &want, "filter_read: caller={:?} names={:?}", c, names);
            prop_assert_eq!(withheld, names.len() - want.len());

            if want.len() < names.len() {
                expected.reads_filtered += 1;
                expected.cookies_filtered += (names.len() - want.len()) as u64;
            } else {
                expected.reads_clean += 1;
            }
            let read_stats = |s: GuardStats| (s.reads_filtered, s.cookies_filtered, s.reads_clean);
            prop_assert_eq!(by_name.stats(), by_view.stats());
            prop_assert_eq!(read_stats(by_name.stats()), read_stats(expected));
        }
    }
}

/// Exhaustive sweep over the full pool for the two fixed configs the
/// paper evaluates (strict, strict+grouping) — no sampling gaps for the
/// edge cases named in the issue: case-normalization and domains unknown
/// to the entity map.
#[test]
fn compiled_policy_matches_string_oracle_exhaustively() {
    let pool = [
        "site.com",
        "SITE.com",
        "site.com.",
        "tracker.com",
        "facebook.net",
        "fbcdn.net",
        "FBCDN.net",
        ".fbcdn.net",
        "criteo.com",
        "partner.io",
        "unknown-a.example",
        "Unknown-B.example",
    ];
    let configs = [
        GuardConfig::strict(),
        GuardConfig::strict()
            .with_whitelisted("partner.io")
            .with_entity_grouping(cg_entity::builtin_entity_map()),
        GuardConfig::relaxed().with_entity_grouping(cg_entity::builtin_entity_map()),
    ];
    let mut checked = 0usize;
    for config in configs {
        let engine = GuardEngine::new(config);
        for site in pool {
            for caller in pool.iter().map(Some).chain([None]) {
                for creator in pool.iter().map(Some).chain([None]) {
                    let caller_struct = match caller {
                        Some(d) => Caller::external(d),
                        None => Caller::inline(),
                    };
                    let compiled = engine.check(site, &caller_struct, creator.copied());
                    let oracle = engine.check_str_oracle(site, caller.copied(), creator.copied());
                    assert_eq!(
                        compiled, oracle,
                        "diverged: site={site:?} caller={caller:?} creator={creator:?}"
                    );
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 3_000, "sweep actually ran ({checked} cases)");
}

/// The inline-policy edge: origin-less callers must take the configured
/// inline branch identically on both paths.
#[test]
fn inline_callers_follow_inline_policy_on_both_paths() {
    for (relaxed, expect_allow) in [(false, false), (true, true)] {
        let engine = GuardEngine::new(build_config(relaxed, &[], &[]));
        let compiled = engine.check("site.com", &Caller::inline(), Some("tracker.com"));
        let oracle = engine.check_str_oracle("site.com", None, Some("tracker.com"));
        assert_eq!(compiled, oracle);
        assert_eq!(compiled.is_allow(), expect_allow);
        match engine.config().inline_policy {
            InlinePolicy::Strict => assert!(matches!(compiled, AccessDecision::Block(_))),
            InlinePolicy::Relaxed => assert!(matches!(compiled, AccessDecision::Allow(_))),
        }
    }
}
