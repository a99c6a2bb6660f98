//! Benchmarks the cost of the metrics observer layer.
//!
//! The acceptance bar for the observability PR: with metrics *off*
//! (`simulate_prepared`, which runs the timing loop monomorphised over
//! the no-op observer) the wall-time cost versus the pre-observer loop
//! must be under 2% — i.e. statically dead `if O::ENABLED` blocks and
//! nothing else. The `metrics_off` numbers here are directly comparable
//! to the PR 2 `prepass_sweep/shared_prepass` baseline. `metrics_on`
//! measures what full cycle-attribution collection actually costs.
//!
//! The run-supervision PR rides the same seam and inherits the same
//! bar: `--cell-timeout` off must leave `metrics_off` untouched (a run
//! without a token compiles with `CANCELLABLE = false`, so the poll is
//! statically dead code). `timeout_armed` measures what an
//! armed-but-unexpired deadline actually costs — one `Instant::now()`
//! per `POLL_STRIDE` retired instructions. Both armed variants go
//! through `simulate_with`, whose `RunOptions` pick the observer at run
//! time.
//!
//! Run with `cargo bench -q -p ddsc-bench --bench observer_overhead`.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ddsc_core::{
    simulate_prepared, simulate_with, CancelToken, PaperConfig, PreparedTrace, RunOptions,
    SimConfig,
};
use ddsc_workloads::Benchmark;

const LEN: usize = 50_000;
const WIDTHS: [u32; 4] = [4, 8, 16, 32];

fn observer_overhead(c: &mut Criterion) {
    let trace = Benchmark::Compress.trace(1996, LEN).expect("runs");
    let prepared = PreparedTrace::build(&trace);
    let cells: Vec<SimConfig> = WIDTHS
        .iter()
        .flat_map(|&w| {
            PaperConfig::ALL
                .into_iter()
                .map(move |cfg| SimConfig::paper(cfg, w))
        })
        .collect();
    let insts = (cells.len() * trace.len()) as u64;

    let mut group = c.benchmark_group("observer_overhead");
    group.sample_size(10);
    group.throughput(Throughput::Elements(insts));
    // The production path: the no-op observer, every hook statically dead.
    group.bench_function("metrics_off", |b| {
        b.iter(|| {
            cells
                .iter()
                .map(|cfg| simulate_prepared(&prepared, cfg).cycles)
                .sum::<u64>()
        })
    });
    // A generous armed deadline: the cancellation-aware loop with a
    // poll every POLL_STRIDE retirements, never actually expiring.
    group.bench_function("timeout_armed", |b| {
        b.iter(|| {
            let options = RunOptions {
                cancel: Some(CancelToken::with_deadline(Duration::from_secs(3600))),
                ..RunOptions::default()
            };
            cells
                .iter()
                .map(|cfg| simulate_with(&prepared, cfg, &options).unwrap().0.cycles)
                .sum::<u64>()
        })
    });
    // Full collection: per-cycle histograms plus cause attribution.
    let metrics_on = RunOptions {
        metrics: true,
        ..RunOptions::default()
    };
    group.bench_function("metrics_on", |b| {
        b.iter(|| {
            cells
                .iter()
                .map(|cfg| {
                    let (r, m) = simulate_with(&prepared, cfg, &metrics_on).unwrap();
                    r.cycles + m.unwrap().attribution.total()
                })
                .sum::<u64>()
        })
    });
    group.finish();
}

criterion_group!(benches, observer_overhead);
criterion_main!(benches);
