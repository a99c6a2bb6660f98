//! Component micro-benchmarks: VM execution, simulator throughput per
//! configuration, predictors, collapsing primitives and trace I/O.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ddsc_collapse::{absorb_slots, AbsorbSlot, CollapseStats, ExprState};
use ddsc_core::{simulate_prepared, PaperConfig, PreparedTrace, SimConfig};
use ddsc_isa::{Opcode, Reg};
use ddsc_predict::{AddressPredictor, DirectionPredictor, McFarling, TwoDeltaStride};
use ddsc_trace::TraceInst;
use ddsc_workloads::Benchmark;

const LEN: usize = 50_000;

fn vm_speed(c: &mut Criterion) {
    let mut group = c.benchmark_group("vm_execution");
    group.sample_size(10);
    group.throughput(Throughput::Elements(LEN as u64));
    group.bench_function("espresso", |b| {
        b.iter(|| criterion::black_box(Benchmark::Espresso.trace(1, LEN).expect("runs")))
    });
    group.finish();
}

/// The timing loop alone: the pre-pass is built once, as the lab shares
/// it across a benchmark's cells, and each configuration's verdict
/// streams are memoised by the harness's warm-up iteration.
fn simulator_speed(c: &mut Criterion) {
    let trace = Benchmark::Compress.trace(1996, LEN).expect("runs");
    let prepared = PreparedTrace::build(&trace);
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    group.throughput(Throughput::Elements(LEN as u64));
    for cfg in PaperConfig::ALL {
        group.bench_function(format!("config_{}_w16", cfg.label()), |b| {
            b.iter(|| {
                criterion::black_box(simulate_prepared(&prepared, &SimConfig::paper(cfg, 16)))
            })
        });
    }
    group.bench_function("config_D_w2048", |b| {
        b.iter(|| {
            criterion::black_box(simulate_prepared(
                &prepared,
                &SimConfig::paper(PaperConfig::D, 2048),
            ))
        })
    });
    group.finish();
}

fn predictors(c: &mut Criterion) {
    let trace = Benchmark::Eqntott.trace(1996, LEN).expect("runs");
    let mut group = c.benchmark_group("predictors");
    group.sample_size(10);
    group.throughput(Throughput::Elements(LEN as u64));
    group.bench_function("mcfarling_8kb", |b| {
        b.iter(|| {
            let mut p = McFarling::paper_8kb();
            let mut correct = 0u64;
            for inst in &trace {
                if inst.op.is_cond_branch() && p.predict_and_train(inst.pc, inst.taken) {
                    correct += 1;
                }
            }
            criterion::black_box(correct)
        })
    });
    group.bench_function("two_delta_stride", |b| {
        b.iter(|| {
            let mut t = TwoDeltaStride::paper_default();
            let mut hits = 0u64;
            for inst in &trace {
                if inst.is_load() {
                    let p = t.access(inst.pc, inst.ea.unwrap_or(0));
                    hits += u64::from(p.correct);
                }
            }
            criterion::black_box(hits)
        })
    });
    group.finish();
}

fn collapsing_primitives(c: &mut Criterion) {
    let r = Reg::new;
    let producer = TraceInst::alu(0, Opcode::Sll, r(2), r(1), None, Some(3), 0);
    let consumer = TraceInst::alu(4, Opcode::Add, r(3), r(2), Some(r(4)), None, 0);
    let p_state = ExprState::leaf(0, &producer).expect("leaf");
    let c_state = ExprState::leaf(1, &consumer).expect("leaf");
    let slots = absorb_slots(&consumer, r(2));
    c.bench_function("collapse_absorb", |b| {
        b.iter(|| criterion::black_box(c_state.absorb(&p_state, &slots)))
    });
    // A shri-arrr-ldrr triple, recorded as the timing loop records every
    // executed collapse (category, distances, pattern-table entry).
    let load = TraceInst::load(8, Opcode::Ld, r(5), r(3), Some(r(6)), None, 0, 0x40);
    let triple = ExprState::leaf(2, &load)
        .expect("leaf")
        .absorb(
            &c_state.absorb(&p_state, &slots).expect("pair"),
            &[AbsorbSlot::Counted],
        )
        .expect("triple");
    // Batched: one record is too short to time on its own.
    const GROUPS: u64 = 10_000;
    let mut stats = CollapseStats::new();
    let mut group = c.benchmark_group("collapse_record_group");
    group.throughput(Throughput::Elements(GROUPS));
    group.bench_function("shri_arrr_ldrr", |b| {
        b.iter(|| {
            for _ in 0..GROUPS {
                stats.record_group(criterion::black_box(&triple));
            }
        })
    });
    group.finish();
    criterion::black_box(stats.groups());
}

fn trace_io(c: &mut Criterion) {
    let trace = Benchmark::Li.trace(1996, LEN).expect("runs");
    let mut buf = Vec::new();
    ddsc_trace::io::write_trace(&mut buf, &trace).expect("write");
    let mut group = c.benchmark_group("trace_io");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(buf.len() as u64));
    group.bench_function("write", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(buf.len());
            ddsc_trace::io::write_trace(&mut out, &trace).expect("write");
            criterion::black_box(out)
        })
    });
    group.bench_function("read", |b| {
        b.iter(|| criterion::black_box(ddsc_trace::io::read_trace(buf.as_slice()).expect("read")))
    });
    group.finish();
}

criterion_group!(
    benches,
    vm_speed,
    simulator_speed,
    predictors,
    collapsing_primitives,
    trace_io
);
criterion_main!(benches);
