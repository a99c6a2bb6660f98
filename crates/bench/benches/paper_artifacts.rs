//! Regenerates every paper artifact (Tables 1–6, Figures 2–10) and
//! benchmarks the computation behind each.
//!
//! The artifacts are printed once at startup (scaled-down lab; the
//! full-scale reproduction is `ddsc repro all`), then Criterion times
//! each renderer of `ddsc_experiments::paper_artifacts()` on a fresh lab
//! per iteration over a pre-generated trace suite, so a timing covers
//! the cells its artifact simulates. A bare argument filters by
//! artifact name (`fig8`, `table5`, ...).

use criterion::{criterion_group, criterion_main, Criterion};
use ddsc_experiments::{paper_artifacts, render_all, Lab, Suite, SuiteConfig};

fn bench(c: &mut Criterion) {
    let suite = Suite::generate(SuiteConfig {
        seed: 1996,
        trace_len: 20_000,
        widths: vec![4, 16],
    });
    println!("{}", render_all(&Lab::from_suite(suite.clone())));
    let mut group = c.benchmark_group("paper");
    group.sample_size(10);
    for (name, render) in paper_artifacts() {
        group.bench_function(name, |b| {
            b.iter(|| criterion::black_box(render(&Lab::from_suite(suite.clone()))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
