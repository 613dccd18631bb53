//! The sharded [`CookieJar`] against the flat reference jar
//! ([`FlatJar`]) after every step of a random history of writes,
//! deletes, expiries and cap evictions on several hosts of one eTLD+1.
//!
//! The sharded jar keeps each shard in document order and never sorts
//! on a read; the flat jar scans and stably sorts on every read. So any
//! drift between a shard's order and the RFC 6265 §5.4 order — on a
//! same-millisecond creation, a replacement, a `Path` or `Domain`
//! variant, a multi-cookie delete, an eviction — shows here as a
//! different `document.cookie`, `Cookie:` header, named lookup,
//! iteration order or change log.

use cg_cookiejar::{CookieJar, FlatJar, ShardPin};
use cg_url::Url;
use proptest::prelude::*;

/// Hosts of the one registrable domain every step writes under.
const HOSTS: &[&str] = &[
    "eq-site.com",
    "www.eq-site.com",
    "api.eq-site.com",
    "a.www.eq-site.com",
];
const PATHS: &[&str] = &["/", "/a/page", "/a/b/page"];
/// Names that collide across hosts, paths and prefixes.
const NAMES: &[&str] = &["a", "b", "sid", "_ga", "__Secure-x", "__Host-y"];
const DOMAINS: &[&str] = &[
    "",
    "; Domain=eq-site.com",
    "; Domain=.eq-site.com",
    "; Domain=www.eq-site.com",
    "; Domain=other.com",
];
const COOKIE_PATHS: &[&str] = &["", "; Path=/", "; Path=/a", "; Path=/a/b"];
/// `Max-Age=0` is the expiry-delete idiom: the write replaces the
/// cookie with one already expired.
const AGES: &[&str] = &["", "; Max-Age=0", "; Max-Age=1", "; Max-Age=100"];
const SAME_SITE: &[&str] = &["", "; SameSite=Lax", "; SameSite=Strict", "; SameSite=None"];
/// Clock advances between steps: mostly none or a millisecond (same-ms
/// creations), sometimes past a `Max-Age=1` expiry.
const TICKS: &[i64] = &[0, 0, 1, 2, 1_500];

fn url(host: usize, path: usize, https: bool) -> Url {
    let scheme = if https { "https" } else { "http" };
    Url::parse(&format!("{scheme}://{}{}", HOSTS[host], PATHS[path])).unwrap()
}

/// Both jars answer every read the same way, iterate and log alike,
/// and the sharded jar survives a serde round trip unchanged.
fn assert_same(
    jar: &CookieJar,
    flat: &FlatJar,
    now: i64,
    step: usize,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(jar.len(), flat.len(), "len after step {}", step);
    prop_assert!(
        jar.iter().eq(flat.iter()),
        "iter() order diverged after step {}",
        step
    );
    prop_assert_eq!(
        jar.changes(),
        flat.changes(),
        "change log after step {}",
        step
    );
    let json = serde_json::to_string(jar).unwrap();
    let back: CookieJar = serde_json::from_str(&json).unwrap();
    prop_assert_eq!(
        serde_json::to_string(&back).unwrap(),
        json,
        "round trip after step {}",
        step
    );
    // Every host and path over https; over http, the root only (where
    // `Secure` cookies must drop out).
    let queries = (0..HOSTS.len())
        .flat_map(|host| (0..PATHS.len()).map(move |path| (host, path, true)))
        .chain((0..HOSTS.len()).map(|host| (host, 0, false)));
    for (host, path, https) in queries {
        let u = url(host, path, https);
        let doc = jar.document_cookie(&u, now);
        prop_assert_eq!(
            &doc,
            &flat.document_cookie(&u, now),
            "{} after step {}",
            u,
            step
        );
        prop_assert_eq!(
            &back.document_cookie(&u, now),
            &doc,
            "restored {} after step {}",
            u,
            step
        );
        prop_assert_eq!(
            jar.cookie_header_for_request(&u, now),
            flat.cookie_header_for_request(&u, now),
            "request header for {} after step {}",
            u,
            step
        );
        for top in ["eq-site.com", "other-top.com"] {
            prop_assert_eq!(
                jar.cookie_header_for_subresource(&u, top, now),
                flat.cookie_header_for_subresource(&u, top, now),
                "subresource header for {} from {} after step {}",
                u,
                top,
                step
            );
        }
        // Named lookups where the most cookies are in view.
        if path == PATHS.len() - 1 {
            let pin = ShardPin::for_host(&u.host_str());
            for name in NAMES {
                prop_assert_eq!(
                    jar.document_cookie_named(&pin, &u, now, name).cloned(),
                    flat.document_cookie_named(&u, now, name),
                    "{} named at {} after step {}",
                    name,
                    u,
                    step
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn sharded_jar_matches_flat_after_every_step(
        steps in prop::collection::vec(
            (
                (0u32..20, 0usize..6),
                (0usize..5, 0usize..4, 0usize..4, any::<u64>()),
                (0usize..4, 0usize..3, 0u32..4),
                0usize..5,
            ),
            1..24,
        )
    ) {
        let mut jar = CookieJar::new();
        let mut flat = FlatJar::new();
        let mut now = 0i64;
        for (step, ((op, name), (domain, path, age, bits), (host, at, scheme), tick)) in
            steps.into_iter().enumerate()
        {
            now += TICKS[tick];
            // One step in four is over http, so `Secure` writes fail
            // and `Secure` cookies stay out of view.
            let u = url(host, at, scheme != 0);
            let mut raw = format!(
                "{}=v{step}{}{}{}{}",
                NAMES[name],
                DOMAINS[domain],
                COOKIE_PATHS[path],
                AGES[age],
                SAME_SITE[(bits >> 2) as usize % SAME_SITE.len()],
            );
            if bits & 1 == 1 {
                raw.push_str("; Secure");
            }
            match op {
                // A script write.
                0..=9 => prop_assert_eq!(
                    jar.set_document_cookie(&raw, &u, now),
                    flat.set_document_cookie(&raw, &u, now),
                    "script write {} at {}",
                    raw,
                    u
                ),
                // A response header, sometimes HttpOnly.
                10..=12 => {
                    if bits & 2 == 2 {
                        raw.push_str("; HttpOnly");
                    }
                    let sc = cg_http::parse_set_cookie(&raw).unwrap();
                    prop_assert_eq!(
                        jar.set_from_header(&sc, &u, now),
                        flat.set_from_header(&sc, &u, now),
                        "header {} at {}",
                        raw,
                        u
                    );
                }
                13..=15 => prop_assert_eq!(
                    jar.delete(NAMES[name], &u, now),
                    flat.delete(NAMES[name], &u, now),
                    "delete {} at {}",
                    NAMES[name],
                    u
                ),
                16..=18 => {
                    jar.purge_expired(now);
                    flat.purge_expired(now);
                }
                // A burst of distinct cookies in one millisecond, long
                // enough to push the domain past its 180-cookie cap
                // once earlier steps have stored a few.
                _ => {
                    let burst = 150 + (bits >> 8) as usize % 40;
                    for k in 0..burst {
                        let raw = format!("burst{k}=v{step}{}", COOKIE_PATHS[(k + path) % 4]);
                        prop_assert_eq!(
                            jar.set_document_cookie(&raw, &u, now),
                            flat.set_document_cookie(&raw, &u, now),
                            "burst write {}",
                            raw
                        );
                    }
                }
            }
            assert_same(&jar, &flat, now, step)?;
        }
    }
}
