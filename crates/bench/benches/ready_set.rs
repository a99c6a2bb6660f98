//! Timing-loop data-structure micro-benchmarks.
//!
//! Two questions the 10× timing-loop rework answered empirically,
//! kept honest here so a regression (or a tempting revert) shows up as
//! a number:
//!
//! 1. **Ready set**: the issue stage repeatedly wakes instructions out
//!    of program order and drains the oldest ready ones each cycle.
//!    The progression is benched in one bracket under the same
//!    synthetic wake/drain churn the simulator produces: a sorted
//!    `Vec<u32>` (binary-search insert, front drain — the pre-rework
//!    structure), a [`RingBitSet`] drained with a per-bit
//!    `next_set`/`clear` scan (the first bitset form), and the same
//!    bitset drained with the word-wise [`RingBitSet::drain_in_order`]
//!    pass the SoA issue loop uses now.
//! 2. **Event skip**: when nothing can issue, the loop jumps the cycle
//!    counter to the wheel's next occupied bucket instead of walking
//!    idle cycles one at a time. Benching the skipping loop against
//!    the stepped loop (`simulate_with` under `RunOptions::step`, the
//!    bit-identity harness's one-cycle gait) on a narrow-width config
//!    measures what the jump buys on idle-heavy runs.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ddsc_core::{
    simulate_prepared, simulate_with, PaperConfig, PreparedTrace, RunOptions, SimConfig,
};
use ddsc_util::{Pcg32, RingBitSet};
use ddsc_workloads::Benchmark;

const LEN: usize = 50_000;

/// One deterministic churn script: `(wake_index, drain_below)` events
/// mimicking the simulator's pattern — wakes land within a sliding
/// window ahead of the drain point, the drain point advances a few
/// entries per cycle.
fn churn_script(events: usize) -> Vec<(usize, usize)> {
    let mut rng = Pcg32::new(0xddc5_bec4);
    let mut base = 0usize;
    let mut script = Vec::with_capacity(events);
    for _ in 0..events {
        let wake = base + (rng.next_u32() % 256) as usize;
        if rng.next_u32().is_multiple_of(4) {
            base += (rng.next_u32() % 8) as usize;
        }
        script.push((wake, base));
    }
    script
}

fn ready_set(c: &mut Criterion) {
    let script = churn_script(200_000);
    let mut group = c.benchmark_group("ready_set");
    group.sample_size(10);
    group.throughput(Throughput::Elements(script.len() as u64));

    // The pre-rework structure: keep ready indices sorted, insert via
    // binary search, drain everything below the advancing base.
    group.bench_function("sorted_vec", |b| {
        b.iter(|| {
            let mut ready: Vec<usize> = Vec::with_capacity(1024);
            let mut drained = 0usize;
            for &(wake, base) in &script {
                if let Err(pos) = ready.binary_search(&wake) {
                    ready.insert(pos, wake);
                }
                let below = ready.partition_point(|&i| i < base);
                drained += below;
                ready.drain(..below);
            }
            criterion::black_box(drained)
        })
    });

    // The first bitset form: wake is a bit set, drain is a per-bit
    // next_set/clear scan from the old base, eviction is free.
    group.bench_function("ring_bitset", |b| {
        b.iter(|| {
            let mut ready = RingBitSet::with_capacity(1024);
            let mut drained = 0usize;
            for &(wake, base) in &script {
                ready.grow_to(wake + 1);
                ready.set(wake);
                let mut i = ready.base();
                while let Some(j) = ready.next_set(i) {
                    if j >= base {
                        break;
                    }
                    ready.clear(j);
                    drained += 1;
                    i = j + 1;
                }
                ready.evict_to(base.min(ready.end()));
            }
            criterion::black_box(drained)
        })
    });

    // The SoA issue loop's drain: one word-wise in-order pass, bits
    // cleared as they are consumed, early-out via the closure — the
    // shape `run_timing_loop` uses for width-bounded issue.
    group.bench_function("ring_bitset_word_drain", |b| {
        b.iter(|| {
            let mut ready = RingBitSet::with_capacity(1024);
            let mut drained = 0usize;
            for &(wake, base) in &script {
                ready.grow_to(wake + 1);
                ready.set(wake);
                ready.drain_in_order(|j| {
                    if j < base {
                        drained += 1;
                        true
                    } else {
                        false
                    }
                });
                ready.evict_to(base.min(ready.end()));
            }
            criterion::black_box(drained)
        })
    });
    group.finish();
}

fn event_skip(c: &mut Criterion) {
    // Narrow width + base machine model: serial dependence chains leave
    // plenty of idle cycles for the skip to jump. The stepped loop is
    // the bit-identical reference gait, so the delta is pure idle-walk
    // overhead.
    let trace = Benchmark::Compress.trace(1996, LEN).expect("runs");
    let prepared = PreparedTrace::build(&trace);
    let config = SimConfig::paper(PaperConfig::A, 4);
    let stepped = RunOptions {
        step: true,
        ..RunOptions::default()
    };
    let mut group = c.benchmark_group("event_skip");
    group.sample_size(10);
    group.throughput(Throughput::Elements(LEN as u64));
    group.bench_function("skipping", |b| {
        b.iter(|| criterion::black_box(simulate_prepared(&prepared, &config)))
    });
    group.bench_function("stepped", |b| {
        b.iter(|| criterion::black_box(simulate_with(&prepared, &config, &stepped)))
    });
    // Width 2 stretches the same chains over even more idle cycles, so
    // the wheel's drain pass crosses long runs of empty buckets. This
    // entry brackets the occupancy-bitmap bucket hop in
    // `Wheel::drain_through` (bit-identity pinned by
    // tests/event_skip_identity.rs): a revert to the slot-by-slot walk
    // shows up here first.
    let sparse = SimConfig::paper(PaperConfig::A, 2);
    group.bench_function("skipping_sparse_w2", |b| {
        b.iter(|| criterion::black_box(simulate_prepared(&prepared, &sparse)))
    });
    group.bench_function("stepped_sparse_w2", |b| {
        b.iter(|| criterion::black_box(simulate_with(&prepared, &sparse, &stepped)))
    });
    group.finish();
}

criterion_group!(benches, ready_set, event_skip);
criterion_main!(benches);
