//! The paper's published numbers, for side-by-side reporting.
//!
//! These are *expectations for shape comparison*, not assertions: the
//! substrate is a simulator, so the reproduction targets the same
//! qualitative structure (who wins, rough factors, crossovers):
//! `tests/reproduction_shape.rs` pins that structure, and every
//! `cg-experiments` report prints each measured value beside its paper
//! value here.

/// §5.1 prevalence.
pub const SITES_WITH_3P_PCT: f64 = 93.3;
/// §5.1 average distinct third-party scripts per site.
pub const AVG_3P_SCRIPTS: f64 = 19.0;
/// §5.1 ad/tracking share of third-party scripts (%).
pub const AD_TRACKING_SHARE_PCT: f64 = 70.0;
/// §5.1 cookies per site set by third-party scripts.
pub const AVG_COOKIES_3P: f64 = 15.0;
/// §5.1 cookies per site set by first-party scripts.
pub const AVG_COOKIES_1P: f64 = 4.0;

/// §5.2 document.cookie site share (%).
pub const DOC_COOKIE_SITES_PCT: f64 = 96.3;
/// §5.2 unique document.cookie pairs.
pub const DOC_COOKIE_PAIRS: usize = 81_918;
/// §5.2 cookieStore site share (%).
pub const COOKIE_STORE_SITES_PCT: f64 = 2.8;
/// §5.2 unique cookieStore pairs.
pub const COOKIE_STORE_PAIRS: usize = 411;
/// §5.2 share of cookieStore activity held by the top two names (%).
pub const COOKIE_STORE_TOP2_PCT: f64 = 90.0;

/// Table 1, document.cookie rows: (sites %, cookies %).
pub const T1_DOC_EXFIL: (f64, f64) = (55.7, 5.9);
/// Table 1 overwriting row.
pub const T1_DOC_OVERWRITE: (f64, f64) = (31.5, 2.7);
/// Table 1 deleting row.
pub const T1_DOC_DELETE: (f64, f64) = (6.3, 1.8);
/// Table 1, cookieStore exfiltration row.
pub const T1_STORE_EXFIL: (f64, f64) = (0.7, 16.3);

/// §5.5 overwrite attribute-change shares (%): value, expires, domain, path.
pub const ATTR_CHANGES: (f64, f64, f64, f64) = (85.3, 69.4, 6.0, 1.2);

/// §5.6 indirect-to-direct inclusion ratio.
pub const INDIRECT_TO_DIRECT: f64 = 2.5;
/// §5.6 ad/tracking share of indirect inclusions (%).
pub const INDIRECT_TRACKING_PCT: f64 = 33.0;

/// Fig. 5 reductions (%): overwriting, deleting, exfiltration.
pub const FIG5_REDUCTIONS: (f64, f64, f64) = (82.2, 86.2, 83.2);

/// Table 3 without entity grouping: SSO minor/major, functionality
/// minor/major (%).
pub const T3_SSO: (f64, f64) = (1.0, 11.0);
/// Table 3 functionality row (%).
pub const T3_FUNC: (f64, f64) = (3.0, 3.0);
/// Table 3 breakage with entity grouping (%).
pub const T3_GROUPED_TOTAL: f64 = 3.0;

/// Table 4 (mean ms, median ms) — DCL without / with.
pub const T4_DCL: ((f64, f64), (f64, f64)) = ((1659.0, 946.0), (1896.0, 1020.0));
/// Table 4 — DOM Interactive without / with.
pub const T4_DI: ((f64, f64), (f64, f64)) = ((1464.0, 842.0), (1702.0, 911.0));
/// Table 4 — Load Event without / with.
pub const T4_LOAD: ((f64, f64), (f64, f64)) = ((3197.0, 2008.0), (3635.0, 2136.0));
/// §7.3 valid paired sites.
pub const T4_VALID_PAIRS: usize = 8_171;

/// Fig. 7 median overhead ratios: dcl, di, load.
pub const FIG7_MEDIANS: (f64, f64, f64) = (1.108, 1.111, 1.122);

/// §8 DOM pilot: % of sites with cross-domain DOM modification.
pub const DOM_PILOT_PCT: f64 = 9.4;

/// §4.2 crawl completion.
pub const CRAWL_COMPLETE: usize = 14_917;
/// §4.2 crawl population.
pub const CRAWL_TOTAL: usize = 20_000;
