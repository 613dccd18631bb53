//! CookieGuard mechanism benchmarks: the intrinsic per-operation cost of
//! the defense (the real-measurement complement to Table 4's modeled
//! page-level overhead) plus the DESIGN.md ablations — strict vs relaxed
//! inline policy, entity grouping on/off, and metadata-store size.

use cg_cookiejar::CookieJar;
use cg_url::Url;
use cookieguard_core::{Caller, GuardConfig, GuardEngine, GuardSession};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn guard_with(n: usize, config: GuardConfig) -> GuardSession {
    let mut g = GuardEngine::shared(config).session("site.com");
    for i in 0..n {
        let creator = format!("vendor{}.com", i % 12);
        g.authorize_write(&Caller::external(&creator), &format!("cookie_{i}"));
    }
    g
}

fn cookies(n: usize) -> Vec<cg_cookiejar::Cookie> {
    let url = Url::parse("https://www.site.com/").unwrap();
    let mut jar = CookieJar::new();
    for i in 0..n {
        jar.set_document_cookie(&format!("cookie_{i}=v{i}"), &url, i as i64)
            .unwrap();
    }
    jar.cookies_for_document(&url, 1_000)
}

/// One read's filter over a fresh borrowed view of `jar`, the shape
/// the access layer hands the guard.
fn filter(g: &mut GuardSession, caller: &Caller, jar: &[cg_cookiejar::Cookie]) -> usize {
    let mut view: Vec<&cg_cookiejar::Cookie> = jar.iter().collect();
    g.filter_read(caller, &mut view)
}

fn bench_filter_read(c: &mut Criterion) {
    let mut group = c.benchmark_group("guard_filter_read");
    for &n in &[5usize, 20, 60, 180] {
        let jar = cookies(n);
        group.bench_with_input(BenchmarkId::new("strict", n), &n, |b, _| {
            let mut g = guard_with(n, GuardConfig::strict());
            let caller = Caller::external("vendor3.com");
            b.iter(|| black_box(filter(&mut g, &caller, &jar)));
        });
        group.bench_with_input(BenchmarkId::new("entity_grouped", n), &n, |b, _| {
            let mut g = guard_with(
                n,
                GuardConfig::strict().with_entity_grouping(cg_entity::builtin_entity_map()),
            );
            let caller = Caller::external("vendor3.com");
            b.iter(|| black_box(filter(&mut g, &caller, &jar)));
        });
        group.bench_with_input(BenchmarkId::new("site_owner_fast_path", n), &n, |b, _| {
            let mut g = guard_with(n, GuardConfig::strict());
            let caller = Caller::external("site.com");
            b.iter(|| black_box(filter(&mut g, &caller, &jar)));
        });
    }
    group.finish();
}

fn bench_authorize_write(c: &mut Criterion) {
    let mut group = c.benchmark_group("guard_authorize_write");
    group.bench_function("creator", |b| {
        let mut g = guard_with(60, GuardConfig::strict());
        let caller = Caller::external("vendor3.com");
        b.iter(|| black_box(g.authorize_write(&caller, "cookie_3")));
    });
    group.bench_function("cross_domain_blocked", |b| {
        let mut g = guard_with(60, GuardConfig::strict());
        let caller = Caller::external("attacker.net");
        b.iter(|| black_box(g.authorize_write(&caller, "cookie_3")));
    });
    group.bench_function("relaxed_inline", |b| {
        let mut g = guard_with(60, GuardConfig::relaxed());
        let caller = Caller::inline();
        b.iter(|| black_box(g.authorize_write(&caller, "cookie_3")));
    });
    group.finish();
}

/// Per-visit attach cost: compiling config + entity map per site (the
/// pre-split behaviour) vs opening a session on one shared engine.
fn bench_engine_setup(c: &mut Criterion) {
    let entities = cg_entity::builtin_entity_map();
    let config = GuardConfig::strict().with_entity_grouping(entities);
    let mut group = c.benchmark_group("guard_setup");
    group.bench_function("rebuild_per_visit", |b| {
        b.iter(|| black_box(GuardEngine::shared(config.clone()).session("site.com")));
    });
    let engine = GuardEngine::shared(config.clone());
    group.bench_function("shared_engine_session", |b| {
        b.iter(|| black_box(GuardSession::new(engine.clone(), "site.com")));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_filter_read, bench_authorize_write, bench_engine_setup
}
criterion_main!(benches);
