//! The pre-sharding flat-`Vec` jar, kept as a reference implementation.
//!
//! [`FlatJar`] stores every cookie in one vector and scans the whole jar
//! on every lookup, recomputing eTLD+1 per cookie during eviction —
//! exactly what [`crate::CookieJar`] did before it was domain-sharded.
//! It exists for **equivalence testing**: the sharded jar must produce
//! identical match results for any insert order (see
//! `tests/flat_equivalence.rs`, which compares the two after every
//! step of random histories).
//!
//! It deliberately implements only the storage/retrieval surface needed
//! for that comparison: stores, deletes, expiry, the script view, both
//! `Cookie:` header paths and the change log, each the plainest way (a
//! scan of the whole jar, then a stable sort). Validation, the
//! per-domain cap and the serialization comparator are shared with the
//! sharded jar so the two can never drift.

use crate::changes::{ChangeCause, CookieChange};
use crate::cookie::{cookie_string, default_path, Cookie};
use crate::jar::{serialization_order, validate_set, SetCookieError, MAX_COOKIES_PER_DOMAIN};
use cg_http::{parse_set_cookie, SetCookie};
use cg_url::{psl, Url};

/// A flat, linear-scan cookie jar (the historical layout).
#[derive(Debug, Clone, Default)]
pub struct FlatJar {
    cookies: Vec<Cookie>,
    changes: Vec<CookieChange>,
}

impl FlatJar {
    /// An empty jar.
    pub fn new() -> FlatJar {
        FlatJar::default()
    }

    /// Number of stored cookies.
    pub fn len(&self) -> usize {
        self.cookies.len()
    }

    /// True when the jar holds nothing.
    pub fn is_empty(&self) -> bool {
        self.cookies.is_empty()
    }

    /// Iterates over stored cookies in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Cookie> {
        self.cookies.iter()
    }

    /// All change records, in the order the mutations happened.
    pub fn changes(&self) -> &[CookieChange] {
        &self.changes
    }

    /// `document.cookie = "…"` with the same validation the sharded jar
    /// applies.
    pub fn set_document_cookie(
        &mut self,
        raw: &str,
        url: &Url,
        now_ms: i64,
    ) -> Result<(), SetCookieError> {
        let sc = parse_set_cookie(raw).ok_or(SetCookieError::Unparseable)?;
        self.store(&sc, url, now_ms, false)
    }

    /// HTTP `Set-Cookie` processing.
    pub fn set_from_header(
        &mut self,
        sc: &SetCookie,
        url: &Url,
        now_ms: i64,
    ) -> Result<(), SetCookieError> {
        self.store(sc, url, now_ms, true)
    }

    fn store(
        &mut self,
        sc: &SetCookie,
        url: &Url,
        now_ms: i64,
        http_api: bool,
    ) -> Result<(), SetCookieError> {
        let host = url.host_str();
        validate_set(sc, url, &host, http_api)?;
        let cookie = Cookie::from_set_cookie(sc, &host, &default_path(&url.path), now_ms);

        if let Some(existing) = self
            .cookies
            .iter_mut()
            .find(|c| c.name == cookie.name && c.domain == cookie.domain && c.path == cookie.path)
        {
            if existing.http_only && !http_api {
                return Err(SetCookieError::OverwritesHttpOnly);
            }
            let created = existing.created_at_ms;
            self.changes
                .push(change(&cookie, ChangeCause::Replaced, now_ms));
            *existing = cookie;
            existing.created_at_ms = created;
        } else {
            self.changes
                .push(change(&cookie, ChangeCause::Created, now_ms));
            self.cookies.push(cookie);
            self.evict_if_needed(&host, now_ms);
        }
        Ok(())
    }

    /// Expires every visible cookie called `name` at `url`; true when
    /// one was removed.
    pub fn delete(&mut self, name: &str, url: &Url, now_ms: i64) -> bool {
        let host = url.host_str();
        self.remove_logged(ChangeCause::Deleted, now_ms, |c| {
            c.name == name
                && c.domain_matches(&host)
                && c.path_matches(&url.path)
                && !c.is_expired(now_ms)
        }) > 0
    }

    /// Drops expired cookies.
    pub fn purge_expired(&mut self, now_ms: i64) {
        self.remove_logged(ChangeCause::Expired, now_ms, |c| c.is_expired(now_ms));
    }

    fn remove_logged(
        &mut self,
        cause: ChangeCause,
        now_ms: i64,
        hit: impl Fn(&Cookie) -> bool,
    ) -> usize {
        let before = self.cookies.len();
        let changes = &mut self.changes;
        self.cookies.retain(|c| {
            let gone = hit(c);
            if gone {
                changes.push(change(c, cause, now_ms));
            }
            !gone
        });
        before - self.cookies.len()
    }

    fn evict_if_needed(&mut self, host: &str, now_ms: i64) {
        // The historical hot spot: every eviction check recomputes the
        // registrable domain of every cookie in the jar.
        let domain_key = psl::registrable_domain(host).unwrap_or_else(|| host.to_string());
        let count = self
            .cookies
            .iter()
            .filter(|c| psl::registrable_domain(&c.domain).as_deref() == Some(domain_key.as_str()))
            .count();
        if count > MAX_COOKIES_PER_DOMAIN {
            if let Some((idx, _)) = self
                .cookies
                .iter()
                .enumerate()
                .filter(|(_, c)| {
                    psl::registrable_domain(&c.domain).as_deref() == Some(domain_key.as_str())
                })
                .min_by_key(|(_, c)| c.created_at_ms)
            {
                let evicted = self.cookies.remove(idx);
                self.changes
                    .push(change(&evicted, ChangeCause::Evicted, now_ms));
            }
        }
    }

    /// Script-visible cookies for a document: the full-jar linear scan.
    pub fn cookies_for_document(&self, url: &Url, now_ms: i64) -> Vec<Cookie> {
        let host = url.host_str();
        self.matching(|c| {
            !c.is_expired(now_ms)
                && !c.http_only
                && c.domain_matches(&host)
                && c.path_matches(&url.path)
                && (!c.secure || url.scheme == "https")
        })
    }

    /// The `document.cookie` getter.
    pub fn document_cookie(&self, url: &Url, now_ms: i64) -> String {
        cookie_string(&self.cookies_for_document(url, now_ms))
    }

    /// The first cookie called `name` the document at `url` sees.
    pub fn document_cookie_named(&self, url: &Url, now_ms: i64, name: &str) -> Option<Cookie> {
        self.cookies_for_document(url, now_ms)
            .into_iter()
            .find(|c| c.name == name)
    }

    /// The `Cookie:` request header (HttpOnly included).
    pub fn cookie_header_for_request(&self, url: &Url, now_ms: i64) -> String {
        let host = url.host_str();
        cookie_string(&self.matching(|c| {
            !c.is_expired(now_ms)
                && c.domain_matches(&host)
                && c.path_matches(&url.path)
                && (!c.secure || url.scheme == "https")
        }))
    }

    /// The `Cookie:` header of a subresource request to `url` from a
    /// page on `top_level_site`: everything when same-site, only
    /// `SameSite=None; Secure` cookies over https otherwise.
    pub fn cookie_header_for_subresource(
        &self,
        url: &Url,
        top_level_site: &str,
        now_ms: i64,
    ) -> String {
        let same_site = url
            .registrable_domain()
            .is_some_and(|d| d.eq_ignore_ascii_case(top_level_site));
        if same_site {
            return self.cookie_header_for_request(url, now_ms);
        }
        let host = url.host_str();
        cookie_string(&self.matching(|c| {
            !c.is_expired(now_ms)
                && c.domain_matches(&host)
                && c.path_matches(&url.path)
                && url.scheme == "https"
                && c.same_site == Some(cg_http::SameSite::None)
                && c.secure
        }))
    }

    /// The cookies `keep` admits, cloned, in serialization order.
    fn matching(&self, keep: impl Fn(&Cookie) -> bool) -> Vec<Cookie> {
        let mut matching: Vec<Cookie> = self.cookies.iter().filter(|c| keep(c)).cloned().collect();
        sort_for_serialization(&mut matching);
        matching
    }
}

/// The change record of `c` for `cause` at `now_ms`.
fn change(c: &Cookie, cause: ChangeCause, now_ms: i64) -> CookieChange {
    CookieChange {
        name: c.name.clone(),
        value: c.value.clone(),
        cause,
        http_only: c.http_only,
        at_ms: now_ms,
    }
}

/// RFC 6265 §5.4 step 2 order ([`serialization_order`]). The sort is
/// stable, so full ties keep insertion order.
fn sort_for_serialization(cookies: &mut [Cookie]) {
    cookies.sort_by(serialization_order);
}
