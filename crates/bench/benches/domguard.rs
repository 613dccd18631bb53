//! DomGuard and change-event micro-benchmarks: the added §8 defenses
//! must stay cheap enough for per-mutation / per-jar-write interception.

use cg_cookiejar::CookieJar;
use cg_domguard::{DomGuard, DomGuardConfig, MutationKind};
use cg_url::Url;
use cookieguard_core::{Caller, GuardConfig, GuardEngine};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_domguard_authorize(c: &mut Criterion) {
    let mut group = c.benchmark_group("domguard_authorize");
    let callers = [
        Caller::external("ads.example.net"),
        Caller::external("site.com"),
        Caller::inline(),
    ];
    let mut strict = DomGuard::new(DomGuardConfig::strict(), "site.com");
    group.bench_function("strict", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % callers.len();
            black_box(strict.authorize(&callers[i], "site.com", MutationKind::Content))
        });
    });
    let mut grouped = DomGuard::new(
        DomGuardConfig::strict().with_entity_grouping(cg_entity::builtin_entity_map()),
        "site.com",
    );
    group.bench_function("entity_grouped", |b| {
        b.iter(|| {
            black_box(grouped.authorize(
                &Caller::external("fbcdn.net"),
                "facebook.net",
                MutationKind::Style,
            ))
        });
    });
    group.finish();
}

fn bench_change_log(c: &mut Criterion) {
    let mut group = c.benchmark_group("change_log");
    let url = Url::parse("https://www.site.com/").unwrap();
    for &n in &[10usize, 100] {
        group.bench_with_input(BenchmarkId::new("append_via_set", n), &n, |b, &n| {
            b.iter(|| {
                let mut jar = CookieJar::new();
                for i in 0..n {
                    jar.set_document_cookie(&format!("c{i}=v"), &url, i as i64)
                        .unwrap();
                }
                black_box(jar.change_count())
            });
        });
        // The per-task drain the event loop performs.
        let mut jar = CookieJar::new();
        for i in 0..n {
            jar.set_document_cookie(&format!("c{i}=v"), &url, i as i64)
                .unwrap();
        }
        group.bench_with_input(BenchmarkId::new("drain_cursor", n), &n, |b, _| {
            b.iter(|| black_box(jar.changes_since(black_box(0)).len()));
        });
    }
    group.finish();
}

fn bench_may_observe(c: &mut Criterion) {
    // The per-change visibility filter CookieGuard applies before a
    // listener sees an event.
    let mut guard = GuardEngine::shared(GuardConfig::strict()).session("site.com");
    for i in 0..50 {
        guard.authorize_write(
            &Caller::external(&format!("vendor{i}.com")),
            &format!("c{i}"),
        );
    }
    let spy = Caller::external("spy.net");
    let owner = Caller::external("vendor25.com");
    let mut group = c.benchmark_group("change_visibility");
    group.bench_function("foreign_observer", |b| {
        b.iter(|| black_box(guard.may_observe(&spy, black_box("c25"))));
    });
    group.bench_function("owner_observer", |b| {
        b.iter(|| black_box(guard.may_observe(&owner, black_box("c25"))));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(50);
    targets = bench_domguard_authorize, bench_change_log, bench_may_observe
}
criterion_main!(benches);
