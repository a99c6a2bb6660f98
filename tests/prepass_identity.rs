//! The analysis pre-pass contract, end to end:
//!
//! 1. `PreparedTrace` is a *lossless* recompilation of the trace — every
//!    packed column matches a naive recomputation straight from the
//!    `TraceInst` records (property-tested over random traces);
//! 2. the two-stage pipeline is *bit-identical* to the frozen reference
//!    simulator on real benchmark traces, per paper configuration and
//!    for the ablation/extension variants;
//! 3. one shared `PreparedTrace` gives the same bits regardless of how
//!    many configurations consumed it before.

use std::collections::HashMap;

use ddsc::collapse::{absorb_slots, can_produce, encode_slots};
use ddsc::core::prepass::{
    F_CAN_PRODUCE, F_COND_BRANCH, F_CONSUMER, F_CONTROL, F_LOAD, F_STORE, F_TAKEN, F_VALUE,
};
use ddsc::core::{
    simulate_prepared, simulate_reference, Latencies, PaperConfig, PreparedTrace, SimConfig,
    ValueSpecMode,
};
use ddsc::isa::{Cond, Opcode, Reg};
use ddsc::trace::{Trace, TraceInst};
use ddsc::util::Pcg32;
use ddsc::workloads::Benchmark;
use proptest::prelude::*;

/// A random but structurally rich trace: ALU chains, long-latency ops,
/// aliasing loads/stores, conditional branches, traced values.
fn random_trace(seed: u64, len: u32) -> Trace {
    let r = Reg::new;
    let mut rng = Pcg32::new(seed);
    let mut t = Trace::new("prop");
    for i in 0..len {
        match rng.next_u32() % 10 {
            0 | 1 => {
                let ea = (rng.next_u32() % 0x200) * 4 + 0x2000;
                let mut ld = TraceInst::load(
                    4 * i,
                    Opcode::Ld,
                    r((rng.next_u32() % 7 + 1) as u8),
                    r((rng.next_u32() % 7 + 1) as u8),
                    None,
                    Some(0),
                    0,
                    ea,
                );
                if rng.chance(1, 2) {
                    ld.value = Some(rng.next_u32());
                }
                t.push(ld);
            }
            2 => {
                let ea = (rng.next_u32() % 0x200) * 4 + 0x2000;
                t.push(TraceInst::store(
                    4 * i,
                    Opcode::St,
                    r((rng.next_u32() % 7 + 1) as u8),
                    r((rng.next_u32() % 7 + 1) as u8),
                    None,
                    Some(0),
                    0,
                    ea,
                ));
            }
            3 => {
                t.push(TraceInst::cond_branch(
                    4 * i,
                    Opcode::Bcc(Cond::Ne),
                    rng.chance(1, 3),
                    4 * i + 32,
                ));
            }
            4 => {
                t.push(TraceInst::alu(
                    4 * i,
                    Opcode::Div,
                    r((rng.next_u32() % 7 + 1) as u8),
                    r((rng.next_u32() % 7 + 1) as u8),
                    None,
                    Some(2),
                    0,
                ));
            }
            5 => {
                // Two-register ALU op, sometimes reading one register
                // twice (exercises edge dedup vs per-occurrence readers).
                let src = r((rng.next_u32() % 7 + 1) as u8);
                t.push(TraceInst::alu(
                    4 * i,
                    Opcode::Add,
                    r((rng.next_u32() % 7 + 1) as u8),
                    src,
                    Some(if rng.chance(1, 3) {
                        src
                    } else {
                        r((rng.next_u32() % 7 + 1) as u8)
                    }),
                    None,
                    0,
                ));
            }
            _ => {
                let mut inst = TraceInst::alu(
                    4 * i,
                    Opcode::Add,
                    r((rng.next_u32() % 7 + 1) as u8),
                    r((rng.next_u32() % 7 + 1) as u8),
                    None,
                    Some(rng.next_u32() as i32 % 64),
                    0,
                );
                if rng.chance(1, 4) {
                    inst.value = Some(rng.next_u32());
                }
                t.push(inst);
            }
        }
    }
    t
}

/// Recomputes every packed column directly from the `TraceInst` records
/// and asserts the pre-pass captured identical facts.
fn assert_lossless(trace: &Trace) {
    let p = PreparedTrace::build(trace);
    assert_eq!(p.len(), trace.len());
    assert_eq!(p.name(), trace.name());

    let lat = Latencies::default();
    let mut last_writer = vec![None::<u32>; Reg::COUNT];
    let mut store_map: HashMap<u32, u32> = HashMap::new();
    let mut readers = vec![0u32; trace.len()];
    let mut blocks = 0u32;
    let mut cond_branches = 0u64;
    let mut loads_with_value = 0u64;

    for (i, inst) in trace.iter().enumerate() {
        let f = p.flags(i);
        assert_eq!(f & F_LOAD != 0, inst.is_load(), "load flag at {i}");
        assert_eq!(f & F_STORE != 0, inst.is_store(), "store flag at {i}");
        assert_eq!(
            f & F_COND_BRANCH != 0,
            inst.op.is_cond_branch(),
            "branch flag at {i}"
        );
        assert_eq!(f & F_CONTROL != 0, inst.op.is_control(), "control at {i}");
        assert_eq!(f & F_TAKEN != 0, inst.taken, "taken flag at {i}");
        assert_eq!(f & F_VALUE != 0, inst.value.is_some(), "value flag at {i}");
        assert_eq!(
            f & F_CAN_PRODUCE != 0,
            can_produce(inst),
            "producer flag at {i}"
        );
        assert_eq!(
            f & F_CONSUMER != 0,
            inst.op.class().is_collapsible_consumer(),
            "consumer flag at {i}"
        );
        assert_eq!(p.optype_of(i), inst.optype(), "pattern at {i}");
        assert_eq!(p.pcs()[i], inst.pc, "pc at {i}");
        assert_eq!(p.latencies()[i], lat.of(inst.op), "latency at {i}");
        assert_eq!(p.block_of(i), blocks, "block at {i}");

        // Register edges: distinct producers in source order, slot codes
        // from the producer's collapse eligibility and this source's
        // absorb slots.
        let mut expect_prod: Vec<u32> = Vec::new();
        let mut expect_codes: Vec<u8> = Vec::new();
        for r in inst.reg_sources() {
            if let Some(prod) = last_writer[r.index()] {
                readers[prod as usize] += 1;
                if !expect_prod.contains(&prod) {
                    expect_prod.push(prod);
                    expect_codes.push(if can_produce(&trace[prod as usize]) {
                        encode_slots(&absorb_slots(inst, r))
                    } else {
                        0
                    });
                }
            }
        }
        assert_eq!(p.producers_of(i), expect_prod.as_slice(), "edges at {i}");
        assert_eq!(
            p.slot_codes_of(i),
            expect_codes.as_slice(),
            "slot codes at {i}"
        );

        let expect_mem = if inst.is_load() {
            store_map.get(&(inst.ea.unwrap_or(0) & !3)).copied()
        } else {
            None
        };
        assert_eq!(p.mem_dep_of(i), expect_mem, "memory dependence at {i}");

        if inst.op.is_cond_branch() {
            cond_branches += 1;
        }
        if inst.is_load() && inst.value.is_some() {
            loads_with_value += 1;
        }
        if let Some(d) = inst.dest {
            last_writer[d.index()] = Some(i as u32);
        }
        if inst.is_store() {
            store_map.insert(inst.ea.unwrap_or(0) & !3, i as u32);
        }
        if inst.op.is_control() {
            blocks += 1;
        }
    }

    for (i, &expect) in readers.iter().enumerate() {
        assert_eq!(p.readers_of(i), expect, "reader count at {i}");
    }
    assert_eq!(p.cond_branches(), cond_branches);
    assert_eq!(p.loads_with_value(), loads_with_value);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The pre-pass loses nothing: every column round-trips against a
    /// direct recomputation from the trace records.
    #[test]
    fn prepass_is_lossless_on_random_traces(seed in 0u64..1_000_000, len in 1u32..1500) {
        assert_lossless(&random_trace(seed, len));
    }

    /// The prepared pipeline is bit-identical to the frozen reference on
    /// random traces under random paper configurations and issue widths.
    #[test]
    fn prepared_matches_reference_on_random_traces(
        seed in 0u64..1_000_000,
        len in 1u32..800,
        cfg_ix in 0usize..5,
        width in 1u32..41,
    ) {
        let trace = random_trace(seed, len);
        let config = SimConfig::paper(PaperConfig::ALL[cfg_ix], width);
        let prepared = PreparedTrace::build(&trace);
        prop_assert_eq!(
            simulate_prepared(&prepared, &config),
            simulate_reference(&trace, &config)
        );
    }
}

#[test]
fn prepass_is_lossless_on_benchmark_traces() {
    for b in [Benchmark::Compress, Benchmark::Li] {
        let trace = b.trace(1996, 6_000).expect("workload runs");
        assert_lossless(&trace);
    }
}

#[test]
fn prepared_matches_reference_on_benchmark_traces() {
    // A real benchmark trace, one shared pre-pass, every paper
    // configuration plus the extension variants — against the frozen
    // oracle.
    let trace = Benchmark::Eqntott.trace(1996, 8_000).expect("runs");
    let prepared = PreparedTrace::build(&trace);

    let mut configs: Vec<SimConfig> = Vec::new();
    for cfg in PaperConfig::ALL {
        for width in [4u32, 32] {
            configs.push(SimConfig::paper(cfg, width));
        }
    }
    let mut c = SimConfig::paper(PaperConfig::C, 8);
    c.node_elimination = true;
    configs.push(c);
    let mut c = SimConfig::paper(PaperConfig::A, 8);
    c.value_spec = ValueSpecMode::Real;
    configs.push(c);
    let mut c = SimConfig::paper(PaperConfig::D, 8);
    c.perfect_branches = true;
    configs.push(c);
    let mut c = SimConfig::paper(PaperConfig::D, 8);
    c.predictor_n = 11;
    c.stride_bits = 9;
    configs.push(c);
    // Every collapse device: pairs only, triples, the 3-1 device. Real
    // code gives consumers several live candidates at once, so this is
    // where the order of the candidate rows is exercised.
    for (members, ops) in [(2, 4), (3, 4), (4, 3)] {
        let mut c = SimConfig::paper(PaperConfig::C, 8);
        c.max_collapse_members = members;
        c.max_collapse_ops = ops;
        configs.push(c);
    }

    for config in &configs {
        assert_eq!(
            simulate_prepared(&prepared, config),
            simulate_reference(&trace, config),
            "divergence at {config:?}"
        );
    }
}
