//! Global domain interning and the per-host eTLD+1 memo.
//!
//! The hot paths of the reproduction — jar lookups, guard policy checks,
//! script attribution, request logging — are keyed on eTLD+1 strings.
//! Computing the registrable domain runs the public-suffix algorithm
//! over every label suffix of the host, so doing it per operation is the
//! single most repeated piece of work in a crawl. This module makes that
//! work *once per distinct host process-wide*:
//!
//! * [`intern`] maps a domain string to a dense [`DomainId`] (a `u32`),
//!   leaking each distinct string exactly once so [`name`] can hand
//!   back `&'static str` without reference counting;
//! * [`host_site`] memoizes, per normalized host, one [`HostSite`]: the
//!   interned registrable domain, whether the host is itself a public
//!   suffix, and the jar shard id the sharded
//!   [`CookieJar`](../cg_cookiejar) buckets by. Hosts without a
//!   registrable domain (IP literals, single-label hosts, bare public
//!   suffixes) shard by the exact host, the same conservative fallback
//!   [`crate::same_site`] uses. [`shard_id_for_host`] reads the shard
//!   out of the same entry.
//!
//! Every entry equals what [`psl::registrable_domain`] and
//! [`psl::is_public_suffix`] answer for the host (both normalize the
//! host the same way the memo does), so a caller may swap a suffix walk
//! for a memo probe without changing a result.
//!
//! Memory: both tables grow with the number of *distinct* domains/hosts
//! seen by the process — bounded by the crawl's ecosystem size, and
//! exactly the working set a production deployment needs resident.

use crate::psl;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{OnceLock, RwLock};

/// A dense, copyable handle for an interned domain string. Ordering
/// follows interning order, not lexicographic order — sort by
/// [`name`] when a stable, human-meaningful order is needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainId(u32);

impl DomainId {
    /// The raw index (dense from 0 in interning order).
    pub fn index(self) -> u32 {
        self.0
    }

    /// The inverse of [`DomainId::index`], for callers that pack ids
    /// into their own integer space. Only an index this process's
    /// interner handed out names a domain.
    pub fn from_index(index: u32) -> DomainId {
        DomainId(index)
    }
}

/// What the public-suffix list says about one host, resolved once per
/// distinct host (see [`host_site`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HostSite {
    /// The jar shard: the registrable domain, or the normalized host
    /// itself when it has none.
    pub shard: DomainId,
    /// The registrable domain (eTLD+1); `None` for IPv4 literals,
    /// single labels, bare public suffixes and malformed hosts.
    pub registrable: Option<DomainId>,
    /// Whether the host is itself a public suffix (`co.uk`).
    pub public_suffix: bool,
}

#[derive(Default)]
struct Interner {
    by_name: HashMap<&'static str, DomainId>,
    names: Vec<&'static str>,
    /// Normalized host → its [`HostSite`].
    hosts: HashMap<Box<str>, HostSite>,
}

impl Interner {
    fn intern(&mut self, norm: &str) -> DomainId {
        if let Some(&id) = self.by_name.get(norm) {
            return id;
        }
        let id = DomainId(u32::try_from(self.names.len()).expect("interner overflow"));
        let leaked: &'static str = Box::leak(norm.to_owned().into_boxed_str());
        self.names.push(leaked);
        self.by_name.insert(leaked, id);
        id
    }
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| RwLock::new(Interner::default()))
}

/// `domain` lowercased with its outer dots trimmed — borrowed in the
/// overwhelmingly common case on the hot paths (hosts out of a parsed
/// [`crate::Url`] are already lowercase), where a probe must not
/// allocate.
fn normalized(domain: &str) -> Cow<'_, str> {
    let trimmed = domain.trim_matches('.');
    if trimmed.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(trimmed.to_ascii_lowercase())
    } else {
        Cow::Borrowed(trimmed)
    }
}

/// Interns `domain` (normalized to lowercase, dots trimmed) and returns
/// its process-wide id. Idempotent and thread-safe. Re-interning an
/// already-known, already-normalized domain is allocation-free: one
/// read-lock and one hash lookup.
pub fn intern(domain: &str) -> DomainId {
    let norm = normalized(domain);
    {
        let guard = interner().read().expect("domain interner poisoned");
        if let Some(&id) = guard.by_name.get(norm.as_ref()) {
            return id;
        }
    }
    interner()
        .write()
        .expect("domain interner poisoned")
        .intern(&norm)
}

/// The id for `domain` if it was interned before, without interning.
/// Allocation-free for already-normalized inputs.
pub fn lookup(domain: &str) -> Option<DomainId> {
    let norm = normalized(domain);
    let guard = interner().read().expect("domain interner poisoned");
    guard.by_name.get(norm.as_ref()).copied()
}

/// The string an id was interned from (normalized form).
pub fn name(id: DomainId) -> &'static str {
    interner().read().expect("domain interner poisoned").names[id.0 as usize]
}

/// The [`HostSite`] of `host`, memoized: the public-suffix walk runs
/// once per distinct normalized host per process, and every later call
/// is one read-lock and one hash probe, allocation-free for an
/// already-normalized host.
pub fn host_site(host: &str) -> HostSite {
    let norm = normalized(host);
    {
        let guard = interner().read().expect("domain interner poisoned");
        if let Some(&site) = guard.hosts.get(norm.as_ref()) {
            return site;
        }
    }
    // The walks run outside the lock; a racing thread computes the same
    // entry, and the first insert wins.
    let registrable = psl::registrable_domain(&norm);
    let public_suffix = psl::is_public_suffix(&norm);
    let mut guard = interner().write().expect("domain interner poisoned");
    let registrable = registrable.map(|d| guard.intern(&d));
    let site = HostSite {
        shard: registrable.unwrap_or_else(|| guard.intern(&norm)),
        registrable,
        public_suffix,
    };
    *guard
        .hosts
        .entry(norm.into_owned().into_boxed_str())
        .or_insert(site)
}

/// The jar shard id for a request/cookie host: its interned eTLD+1, or
/// the interned host itself when no registrable domain exists. Read
/// from the [`host_site`] memo.
pub fn shard_id_for_host(host: &str) -> DomainId {
    host_site(host).shard
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_case_insensitive() {
        let a = intern("Example.COM");
        let b = intern("example.com");
        assert_eq!(a, b);
        assert_eq!(name(a), "example.com");
    }

    #[test]
    fn distinct_domains_get_distinct_ids() {
        assert_ne!(intern("alpha.test-one.com"), intern("beta.test-one.com"));
    }

    #[test]
    fn shard_id_collapses_to_etld_plus_one() {
        let www = shard_id_for_host("www.shard-site.com");
        let api = shard_id_for_host("api.shard-site.com");
        let bare = shard_id_for_host("shard-site.com");
        assert_eq!(www, api);
        assert_eq!(www, bare);
        assert_eq!(name(www), "shard-site.com");
    }

    #[test]
    fn hosts_without_registrable_domain_shard_by_host() {
        let ip = shard_id_for_host("192.168.7.7");
        assert_eq!(name(ip), "192.168.7.7");
        let local = shard_id_for_host("intern-localhost");
        assert_eq!(name(local), "intern-localhost");
        assert_ne!(ip, local);
    }

    #[test]
    fn fast_path_and_slow_path_agree() {
        // A normalized string takes the allocation-free fast path; the
        // same domain in denormalized spelling must land on the same id.
        let fast = intern("fast-path-domain.example");
        let slow = intern(".Fast-Path-Domain.EXAMPLE.");
        assert_eq!(fast, slow);
        assert_eq!(lookup("fast-path-domain.example"), Some(fast));
        assert_eq!(lookup("FAST-path-domain.example"), Some(fast));
    }

    #[test]
    fn lookup_does_not_intern() {
        assert!(lookup("never-interned-domain.example").is_none());
        let id = intern("was-interned-domain.example");
        assert_eq!(lookup("was-interned-domain.example"), Some(id));
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let ids: Vec<DomainId> = std::thread::scope(|s| {
            (0..8)
                .map(|_| s.spawn(|| shard_id_for_host("deep.sub.concurrent-host.co.uk")))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(name(ids[0]), "concurrent-host.co.uk");
    }
}
