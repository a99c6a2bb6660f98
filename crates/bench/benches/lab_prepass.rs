//! Benchmarks the shared analysis pre-pass: what one `PreparedTrace`
//! build costs, what the streaming pre-pass costs over the same trace,
//! how a prepared configuration sweep compares against re-analysing the
//! trace per cell, and how quickly the pre-pass amortises as the width
//! sweep grows.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ddsc_core::{
    simulate, simulate_prepared, PaperConfig, PreparedTrace, SimConfig, StreamingPrepass,
    DEFAULT_CHUNK_SIZE,
};
use ddsc_workloads::Benchmark;

const LEN: usize = 50_000;
const WIDTHS: [u32; 4] = [4, 8, 16, 32];

fn prepass_build(c: &mut Criterion) {
    let trace = Benchmark::Compress.trace(1996, LEN).expect("runs");
    let mut group = c.benchmark_group("prepass_build");
    group.sample_size(10);
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function("build", |b| {
        b.iter(|| criterion::black_box(PreparedTrace::build(&trace)))
    });
    // The whole-trace pass at the streaming pass's work: the build plus
    // the default branch and address verdict streams a D cell reads.
    group.bench_function("build_with_verdicts", |b| {
        b.iter(|| {
            let p = PreparedTrace::build(&trace);
            criterion::black_box(p.default_branch_stream());
            criterion::black_box(p.default_addr_stream());
            p
        })
    });
    // The streaming pass as a D/8 stream cell drives it: one chunk at a
    // time, every column evicted after each chunk.
    let config = SimConfig::paper(PaperConfig::D, 8);
    group.bench_function("stream", |b| {
        b.iter(|| {
            let mut prep = StreamingPrepass::new(&config);
            for chunk in trace.insts().chunks(DEFAULT_CHUNK_SIZE) {
                for inst in chunk {
                    prep.push(inst);
                }
                prep.evict_to(prep.len());
            }
            prep.len()
        })
    });
    group.finish();
}

fn config_sweep(c: &mut Criterion) {
    let trace = Benchmark::Compress.trace(1996, LEN).expect("runs");
    let cells: Vec<SimConfig> = WIDTHS
        .iter()
        .flat_map(|&w| {
            PaperConfig::ALL
                .into_iter()
                .map(move |cfg| SimConfig::paper(cfg, w))
        })
        .collect();
    let insts = (cells.len() * trace.len()) as u64;

    let mut group = c.benchmark_group("prepass_sweep");
    group.sample_size(10);
    group.throughput(Throughput::Elements(insts));
    // One pre-pass shared across the whole sweep (the Lab path),
    // including the build itself so the comparison is end-to-end.
    group.bench_function("shared_prepass", |b| {
        b.iter(|| {
            let prepared = PreparedTrace::build(&trace);
            cells
                .iter()
                .map(|cfg| simulate_prepared(&prepared, cfg).cycles)
                .sum::<u64>()
        })
    });
    // The pre-PR shape: every cell re-derives the analysis from the raw
    // trace.
    group.bench_function("prepass_per_cell", |b| {
        b.iter(|| {
            cells
                .iter()
                .map(|cfg| simulate(&trace, cfg).cycles)
                .sum::<u64>()
        })
    });
    group.finish();
}

fn amortisation(c: &mut Criterion) {
    let trace = Benchmark::Eqntott.trace(1996, LEN).expect("runs");
    let mut group = c.benchmark_group("prepass_amortisation");
    group.sample_size(10);
    // Sweeping config D across 1, 2 and 4 widths: the shared pre-pass
    // cost stays constant while the per-cell saving scales.
    for n in [1usize, 2, 4] {
        let widths = &WIDTHS[..n];
        group.throughput(Throughput::Elements((n * trace.len()) as u64));
        group.bench_function(format!("widths_{n}"), |b| {
            b.iter(|| {
                let prepared = PreparedTrace::build(&trace);
                widths
                    .iter()
                    .map(|&w| {
                        simulate_prepared(&prepared, &SimConfig::paper(PaperConfig::D, w)).cycles
                    })
                    .sum::<u64>()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, prepass_build, config_sweep, amortisation);
criterion_main!(benches);
