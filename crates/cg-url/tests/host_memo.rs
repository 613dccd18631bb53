//! The per-host memo ([`cg_url::host_site`]) against the suffix walk it
//! stands in for: on any host spelling, its registrable domain, its
//! public-suffix verdict and its shard must be what
//! [`psl::registrable_domain`] and [`psl::is_public_suffix`] answer,
//! whichever of two racing threads filled the entry.

use cg_url::{host_site, intern, name, psl, shard_id_for_host, HostSite};
use proptest::prelude::*;

/// Label-aligned tails that exercise every rule shape of the embedded
/// list: plain, multi-label, private, wildcard (`*.ck`, `*.bn`), the
/// `!www.ck` exception, a wildcard under a private suffix, and a TLD no
/// rule names.
const SUFFIXES: &[&str] = &[
    "com",
    "co.uk",
    "com.au",
    "github.io",
    "ck",
    "www.ck",
    "bn",
    "compute.amazonaws.com",
    "amazonaws.com",
    "unknowntld",
];

/// One host spelling. `shape` picks the form: labels under a suffix, a
/// bare suffix, a single label, a dotted quad (octets above 255 make it
/// a name), labels alone, or a host with an empty inner label.
fn spell(
    shape: u32,
    labels: &[String],
    suffix: &str,
    octets: &[u32],
    dress: (u64, u32, u32),
) -> String {
    let joined = labels.join(".");
    let body = match shape {
        0 => [joined.as_str(), suffix].join("."),
        1 => suffix.to_string(),
        2 => labels[0].clone(),
        3 => octets
            .iter()
            .map(u32::to_string)
            .collect::<Vec<_>>()
            .join("."),
        4 => joined,
        _ => format!("{}..{suffix}", labels[0]),
    };
    let (case_mask, lead, trail) = dress;
    let cased: String = body
        .chars()
        .enumerate()
        .map(|(i, c)| {
            if case_mask >> (i % 64) & 1 == 1 {
                c.to_ascii_uppercase()
            } else {
                c
            }
        })
        .collect();
    format!(
        "{}{cased}{}",
        ".".repeat(lead as usize),
        ".".repeat(trail as usize)
    )
}

/// What the memo must hold for `host`, computed by the suffix walk. A
/// host with no registrable domain shards by itself, lowercased and
/// without outer dots.
fn walked(host: &str) -> HostSite {
    let registrable = psl::registrable_domain(host).map(|d| intern(&d));
    HostSite {
        shard: registrable.unwrap_or_else(|| intern(&host.trim_matches('.').to_ascii_lowercase())),
        registrable,
        public_suffix: psl::is_public_suffix(host),
    }
}

proptest! {
    #[test]
    fn host_memo_matches_the_suffix_walk(
        hosts in prop::collection::vec(
            (
                (0u32..6, prop::collection::vec("[a-z0-9]{1,6}", 1..4)),
                prop::sample::select(SUFFIXES.to_vec()),
                prop::collection::vec(0u32..300, 4..5),
                (any::<u64>(), 0u32..3, 0u32..3),
            ),
            1..24,
        )
    ) {
        let hosts: Vec<String> = hosts
            .iter()
            .map(|((shape, labels), suffix, octets, dress)| {
                spell(*shape, labels, suffix, octets, *dress)
            })
            .collect();
        // Two threads fill and read the memo at once, in opposite
        // orders, so some entries are inserted by one and read by the
        // other.
        let (forward, backward) = std::thread::scope(|s| {
            let fwd = s.spawn(|| hosts.iter().map(|h| host_site(h)).collect::<Vec<_>>());
            let bwd = s.spawn(|| hosts.iter().rev().map(|h| host_site(h)).collect::<Vec<_>>());
            (fwd.join().unwrap(), bwd.join().unwrap())
        });
        for (i, host) in hosts.iter().enumerate() {
            let want = walked(host);
            prop_assert_eq!(forward[i], want, "{host:?}");
            prop_assert_eq!(backward[hosts.len() - 1 - i], want, "{host:?}");
            prop_assert_eq!(host_site(host), want, "{host:?}");
            prop_assert_eq!(shard_id_for_host(host), want.shard, "{host:?}");
            let registrable = psl::registrable_domain(host);
            prop_assert_eq!(want.registrable.map(name), registrable.as_deref(), "{host:?}");
        }
    }
}

#[test]
fn the_memo_answers_each_host_shape_like_the_walk() {
    for host in [
        "WWW.Example.COM.",
        "..shop.example.co.uk",
        "192.168.1.1",
        "300.1.1.1",
        "localhost",
        "co.uk",
        "CO.UK.",
        "anything.ck",
        "www.ck",
        "sub.www.ck",
        "a.b.foo.ck",
        "i-1.eu-west.compute.amazonaws.com",
        "a..b.com",
        "",
        "...",
    ] {
        assert_eq!(host_site(host), walked(host), "{host:?}");
    }
    let site = host_site("Deep.Sub.Memo-Shape.co.uk");
    assert_eq!(site.registrable.map(name), Some("memo-shape.co.uk"));
    assert!(!site.public_suffix);
    assert!(host_site("github.io").public_suffix);
    assert_eq!(host_site("github.io").registrable, None);
    assert_eq!(name(host_site("10.0.0.7").shard), "10.0.0.7");
}
