//! Access-layer benchmarks: `GuardedJar` traffic on a jar at the
//! 180-cookie per-domain cap, driving a mixed read/write burst one
//! operation at a time (the hot crawl path), with events dropped and
//! with the full recorder attached.

use cg_cookiejar::CookieJar;
use cg_instrument::{NullSink, Recorder};
use cg_url::Url;
use cookieguard_core::{
    AccessContext, Caller, GuardConfig, GuardEngine, GuardSession, GuardedJar, SetRequest,
};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

const JAR_SIZE: usize = 180;

fn url() -> Url {
    Url::parse("https://www.bench-site.example/").unwrap()
}

fn ctx(domain: &str) -> AccessContext {
    AccessContext {
        caller: Caller::external(domain),
        actor: Some(cg_url::intern(domain)),
        actor_url: Some(std::sync::Arc::from(
            format!("https://{domain}/s.js").as_str(),
        )),
        now_ms: 1_000_000,
        time_ms: 500,
    }
}

/// A jar at the per-domain cap with ownership spread over 12 vendors.
fn seeded() -> (CookieJar, GuardSession) {
    let mut jar = CookieJar::new();
    let mut guard = GuardEngine::shared(GuardConfig::strict()).session("bench-site.example");
    let mut sink = NullSink;
    let u = url();
    let mut access = GuardedJar::new(u, &mut jar, Some(&mut guard), &mut sink);
    for i in 0..JAR_SIZE {
        let vendor = format!("vendor{}.example", i % 12);
        let c = ctx(&vendor);
        let raw = format!("cookie_{i}=v{i}");
        access.set(&c, SetRequest::DocumentCookie { raw: &raw });
    }
    (jar, guard)
}

/// One operation of the burst.
#[derive(Clone, Copy)]
enum Op {
    /// A `document.cookie` read.
    Read,
    /// A `cookieStore.get(name)`.
    Get(&'static str),
    /// A write (either API).
    Set(SetRequest<'static>),
    /// A `cookieStore.delete(name)`.
    Delete(&'static str),
}

/// The mixed burst one busy script issues: jar-wide reads, targeted
/// gets, a write, and a delete.
fn burst_ops() -> Vec<Op> {
    let mut ops = Vec::new();
    for _ in 0..4 {
        ops.extend([Op::Read, Op::Get("cookie_3"), Op::Get("cookie_9")]);
    }
    ops.push(Op::Set(SetRequest::CookieStore {
        name: "cookie_3",
        value: "refreshed",
        expires_abs_ms: None,
    }));
    ops.push(Op::Read);
    ops.push(Op::Delete("cookie_3"));
    ops
}

/// Runs the burst one op at a time, re-deriving the context per call
/// like a `Platform` implementation fielding one script op at a time.
fn run_burst(access: &mut GuardedJar<'_>, ops: &[Op]) {
    for op in ops {
        let c = ctx("vendor3.example");
        match *op {
            Op::Read => {
                black_box(access.document_cookie(&c));
            }
            Op::Get(name) => {
                black_box(access.get(&c, name));
            }
            Op::Set(req) => {
                black_box(access.set(&c, req));
            }
            Op::Delete(name) => {
                black_box(access.delete(&c, name));
            }
        }
    }
}

fn bench_access(c: &mut Criterion) {
    let mut group = c.benchmark_group("guarded_jar_180c");
    let ops = burst_ops();

    group.bench_function("per_op", |b| {
        let (mut jar, mut guard) = seeded();
        let mut sink = NullSink;
        let mut access = GuardedJar::new(url(), &mut jar, Some(&mut guard), &mut sink);
        b.iter(|| run_burst(&mut access, &ops));
    });

    // The same burst with the full recorder attached, so the cost of
    // event emission stays visible alongside the enforcement cost.
    group.bench_function("per_op_recorded", |b| {
        let (mut jar, mut guard) = seeded();
        let mut rec = Recorder::new("bench-site.example", 1);
        let mut access = GuardedJar::new(url(), &mut jar, Some(&mut guard), &mut rec);
        b.iter(|| run_burst(&mut access, &ops));
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(40);
    targets = bench_access
}
criterion_main!(benches);
