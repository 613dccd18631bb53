//! End-to-end pipeline benchmarks: full site visits (regular and
//! guarded) and the census of every §5 table — the per-site costs
//! behind every §5/§7 experiment.

use cg_analysis::Census;
use cg_browser::{visit_site, VisitConfig};
use cg_webgen::{GenConfig, WebGenerator};
use cookieguard_core::GuardConfig;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_site_visit(c: &mut Criterion) {
    let gen = WebGenerator::new(GenConfig::small(300), 0xC00C1E);
    let site = (1..=300)
        .map(|r| gen.blueprint(r))
        .find(|b| b.spec.crawl_ok)
        .unwrap();
    c.bench_function("visit_site_regular", |b| {
        b.iter(|| black_box(visit_site(&site, &VisitConfig::regular(), 42)));
    });
    c.bench_function("visit_site_guarded", |b| {
        b.iter(|| {
            black_box(visit_site(
                &site,
                &VisitConfig::guarded(GuardConfig::strict()),
                42,
            ))
        });
    });
    c.bench_function("visit_site_guarded_entity_grouped", |b| {
        let cfg = VisitConfig::guarded(
            GuardConfig::strict().with_entity_grouping(cg_entity::builtin_entity_map()),
        );
        b.iter(|| black_box(visit_site(&site, &cfg, 42)));
    });
}

fn bench_blueprint_generation(c: &mut Criterion) {
    let gen = WebGenerator::new(GenConfig::small(300), 0xC00C1E);
    c.bench_function("blueprint_generation", |b| {
        let mut rank = 0usize;
        b.iter(|| {
            rank = rank % 300 + 1;
            black_box(gen.blueprint(rank));
        });
    });
}

fn bench_census(c: &mut Criterion) {
    let gen = WebGenerator::new(GenConfig::small(120), 0xC00C1E);
    let logs: Vec<_> = (1..=120)
        .map(|r| visit_site(&gen.blueprint(r), &VisitConfig::regular(), gen.site_seed(r)).log)
        .collect();
    let entities = cg_entity::builtin_entity_map();
    let engine = cg_analysis::build_filter_engine(gen.registry());
    c.bench_function("census_120_sites", |b| {
        b.iter(|| black_box(Census::of_logs(&logs, &entities, &engine).finish()));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_site_visit, bench_blueprint_generation, bench_census
}
criterion_main!(benches);
