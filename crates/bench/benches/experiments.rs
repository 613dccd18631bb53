//! Experiment-regeneration benchmarks: one benchmark per paper artifact
//! group, each running the corresponding pipeline end-to-end at reduced
//! scale. These are the "regenerate Table N / Figure N" entry points in
//! bench form; the `cg-experiments` binary runs them at paper scale.

use cg_experiments::{run_fig5, run_table3, run_table4_and_figs, CrawlContext, ExperimentOptions};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn opts(n: usize) -> ExperimentOptions {
    ExperimentOptions {
        sites: n,
        seed: 0xC00C1E,
        threads: 2,
        ..ExperimentOptions::default()
    }
}

fn bench_measurement_tables(c: &mut Criterion) {
    // Tables 1/2/5, Figures 2/8, §5.1–§5.6, §8 pilot — one crawl feeds
    // them all, so the group benches the crawl + full analysis stack.
    c.bench_function("tables_1_2_5_figs_2_8_pipeline_100_sites", |b| {
        b.iter(|| {
            let ctx = CrawlContext::collect(&opts(100));
            black_box(cg_experiments::run_measurement_experiments(ctx, &[]))
        });
    });
}

fn bench_fig5(c: &mut Criterion) {
    c.bench_function("fig5_paired_crawl_80_sites", |b| {
        b.iter(|| black_box(run_fig5(&opts(80))));
    });
}

fn bench_table3(c: &mut Criterion) {
    c.bench_function("table3_breakage_60_sites", |b| {
        b.iter(|| black_box(run_table3(&opts(60))));
    });
}

fn bench_table4(c: &mut Criterion) {
    c.bench_function("table4_figs_6_7_9_10_perf_100_sites", |b| {
        b.iter(|| black_box(run_table4_and_figs(&opts(100), &[])));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_measurement_tables, bench_fig5, bench_table3, bench_table4
}
criterion_main!(benches);
