//! Hash/encoding benchmarks: the §4.4 identifier-encoding pipeline
//! (every candidate identifier gets Base64 + MD5 + SHA-1 forms, and each
//! form is substring-matched against outbound URLs).

use cg_hash::{b64encode, md5_hex, sha1_hex, DigestGate, EncodedForms, FormSet};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_primitives(c: &mut Criterion) {
    let id = b"868308499845957651";
    c.bench_function("md5_18_bytes", |b| b.iter(|| black_box(md5_hex(id))));
    c.bench_function("sha1_18_bytes", |b| b.iter(|| black_box(sha1_hex(id))));
    c.bench_function("base64_18_bytes", |b| b.iter(|| black_box(b64encode(id))));
    let big = vec![0xA5u8; 4096];
    c.bench_function("md5_4k", |b| b.iter(|| black_box(md5_hex(&big))));
    c.bench_function("sha1_4k", |b| b.iter(|| black_box(sha1_hex(&big))));
}

fn bench_encoded_forms(c: &mut Criterion) {
    let mut set = FormSet::default();
    c.bench_function("form_set_push_identifier", |b| {
        b.iter(|| {
            set.reset(DigestGate::ALL);
            black_box(set.push(black_box("444332364")))
        });
    });
    let forms = EncodedForms::of("444332364");
    let url = "https://px.ads.linkedin.com/attribution_trigger?pid=621340&url=www.optimonk.com&_ga=NDQ0MzMyMzY0LjE3NDY4Mzg4Mjc";
    c.bench_function("forms_match_against_url", |b| {
        b.iter(|| black_box(forms.appears_in(url)));
    });
    // A visit's worth of identifiers against one URL, in one pass.
    let mut visit = FormSet::new(DigestGate::ALL);
    for i in 0..16u64 {
        visit.push(&(868_308_499_845_957_651 + i).to_string());
    }
    visit.push("444332364");
    let scanner = visit.scanner();
    let mut hits = Vec::new();
    c.bench_function("scan_17_identifiers_against_url", |b| {
        b.iter(|| {
            scanner.scan(black_box(url), &mut hits);
            black_box(hits.len())
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(50);
    targets = bench_primitives, bench_encoded_forms
}
criterion_main!(benches);
