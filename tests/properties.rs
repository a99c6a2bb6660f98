//! Property-based integration tests: randomly generated programs are
//! assembled, executed, traced and simulated, and structural invariants
//! are checked across the whole pipeline.

use ddsc::core::{
    simulate, simulate_prepared, simulate_with, PaperConfig, PreparedTrace, RunOptions, SimConfig,
};
use ddsc::isa::{OpClass, Reg};
use ddsc::vm::{Asm, Machine, Program};
use proptest::prelude::*;

/// One step of a random (but always-terminating) loop body.
#[derive(Debug, Clone)]
enum Step {
    Alu { op: u8, rd: u8, rs1: u8, imm: i32 },
    AluReg { op: u8, rd: u8, rs1: u8, rs2: u8 },
    Load { rd: u8, offset: u16 },
    Store { rs: u8, offset: u16 },
    CmpBranchOver { rs: u8, imm: i32 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u8..8, 1u8..8, 1u8..8, -64i32..64).prop_map(|(op, rd, rs1, imm)| Step::Alu {
            op,
            rd,
            rs1,
            imm
        }),
        (0u8..8, 1u8..8, 1u8..8, 1u8..8).prop_map(|(op, rd, rs1, rs2)| Step::AluReg {
            op,
            rd,
            rs1,
            rs2
        }),
        (1u8..8, 0u16..512).prop_map(|(rd, offset)| Step::Load { rd, offset }),
        (1u8..8, 0u16..512).prop_map(|(rs, offset)| Step::Store { rs, offset }),
        (1u8..8, -8i32..8).prop_map(|(rs, imm)| Step::CmpBranchOver { rs, imm }),
    ]
}

/// Builds a program that runs `iters` iterations of the random body and
/// halts. Every memory access is word-aligned inside a scratch page, so
/// the program can never fault.
fn build_program(steps: &[Step], iters: i32) -> Program {
    let r = Reg::new;
    let counter = r(9);
    let scratch = r(10);
    let mut asm = Asm::new();
    asm.movi(counter, iters);
    asm.sethi(scratch, 0x40); // 0x10000
    for i in 1..8 {
        asm.movi(r(i), i as i32 * 3 + 1);
    }
    let top = asm.label();
    asm.bind(top);
    for step in steps {
        match *step {
            Step::Alu { op, rd, rs1, imm } => {
                let (rd, rs1) = (r(rd), r(rs1));
                match op {
                    0 => asm.addi(rd, rs1, imm),
                    1 => asm.subi(rd, rs1, imm),
                    2 => asm.andi(rd, rs1, imm),
                    3 => asm.ori(rd, rs1, imm),
                    4 => asm.xori(rd, rs1, imm),
                    5 => asm.slli(rd, rs1, imm & 15),
                    6 => asm.srli(rd, rs1, imm & 15),
                    _ => asm.srai(rd, rs1, imm & 15),
                }
            }
            Step::AluReg { op, rd, rs1, rs2 } => {
                let (rd, rs1, rs2) = (r(rd), r(rs1), r(rs2));
                match op {
                    0 => asm.add(rd, rs1, rs2),
                    1 => asm.sub(rd, rs1, rs2),
                    2 => asm.and(rd, rs1, rs2),
                    3 => asm.or(rd, rs1, rs2),
                    4 => asm.xor(rd, rs1, rs2),
                    5 => asm.andn(rd, rs1, rs2),
                    6 => asm.mul(rd, rs1, rs2),
                    _ => asm.xnor(rd, rs1, rs2),
                }
            }
            Step::Load { rd, offset } => {
                asm.ldo(r(rd), r(10), i32::from(offset & !3));
            }
            Step::Store { rs, offset } => {
                asm.sto(r(rs), r(10), i32::from(offset & !3));
            }
            Step::CmpBranchOver { rs, imm } => {
                let skip = asm.label();
                asm.cmpi(r(rs), imm);
                asm.beq(skip);
                asm.nop();
                asm.bind(skip);
            }
        }
    }
    asm.subi(counter, counter, 1);
    asm.cmpi(counter, 0);
    asm.bgt(top);
    asm.finish().expect("generated program assembles")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any generated program executes to completion and its trace is
    /// well-formed: PCs aligned, effective addresses exactly on memory
    /// operations, branch records only on branches.
    #[test]
    fn generated_traces_are_well_formed(
        steps in proptest::collection::vec(step_strategy(), 1..24),
        iters in 1i32..40,
    ) {
        let program = build_program(&steps, iters);
        let mut machine = Machine::new(program);
        let trace = machine.run_trace("prop", 200_000).expect("no faults");
        prop_assert!(machine.is_halted(), "bounded loop must terminate");
        prop_assert!(!trace.is_empty());
        for inst in &trace {
            prop_assert_eq!(inst.pc % 4, 0, "aligned pc");
            let is_mem = inst.op.is_load() || inst.op.is_store();
            prop_assert_eq!(inst.ea.is_some(), is_mem);
            if inst.op.class() == OpClass::CondBranch {
                prop_assert!(inst.target % 4 == 0);
            }
        }
    }

    /// Simulation invariants hold for every configuration on random
    /// programs: cycle lower bound from issue bandwidth, upper bound
    /// from serial execution, and collapsing never slows the machine.
    #[test]
    fn simulation_bounds_hold(
        steps in proptest::collection::vec(step_strategy(), 1..16),
        iters in 1i32..30,
        width in 1u32..41,
    ) {
        let program = build_program(&steps, iters);
        let mut machine = Machine::new(program);
        let trace = machine.run_trace("prop", 100_000).expect("no faults");
        let n = trace.len() as u64;

        let base = simulate(&trace, &SimConfig::paper(PaperConfig::A, width));
        prop_assert_eq!(base.instructions, n);
        // Bandwidth lower bound.
        prop_assert!(base.cycles >= n.div_ceil(u64::from(width)));
        // Fully serial upper bound (12 is the worst latency).
        prop_assert!(base.cycles <= n * 12 + 16);
        prop_assert!(base.ipc() <= f64::from(width) + 1e-9);

        let collapsed = simulate(&trace, &SimConfig::paper(PaperConfig::C, width));
        prop_assert!(
            collapsed.cycles <= base.cycles,
            "collapsing must never hurt: {} -> {}",
            base.cycles,
            collapsed.cycles
        );
    }

    /// The metrics observer is a pure observation layer. On random
    /// programs, across all five paper configurations: metrics-on and
    /// metrics-off runs are bit-identical, and the cause-attributed
    /// cycle buckets sum exactly to the total cycle count (the
    /// accounting identity), as do the per-cycle histograms.
    #[test]
    fn metrics_balance_and_never_perturb_the_simulation(
        steps in proptest::collection::vec(step_strategy(), 1..16),
        iters in 1i32..30,
        width in 1u32..41,
    ) {
        let program = build_program(&steps, iters);
        let mut machine = Machine::new(program);
        let trace = machine.run_trace("prop-metrics", 100_000).expect("no faults");
        let prepared = PreparedTrace::build(&trace);
        for cfg in PaperConfig::ALL {
            let config = SimConfig::paper(cfg, width);
            let plain = simulate_prepared(&prepared, &config);
            let metrics_on = RunOptions {
                metrics: true,
                ..RunOptions::default()
            };
            let (observed, metrics) =
                simulate_with(&prepared, &config, &metrics_on).expect("no deadline is armed");
            let metrics = metrics.expect("metrics were asked for");
            prop_assert_eq!(
                &plain,
                &observed,
                "observer moved a bit: config {} width {}",
                cfg.label(),
                width
            );
            prop_assert!(
                metrics.attribution.audit(plain.cycles).is_ok(),
                "config {} width {}: {} attributed vs {} cycles",
                cfg.label(),
                width,
                metrics.attribution.total(),
                plain.cycles
            );
            // Both per-cycle histograms tile the same cycle count, and
            // the issued slots account for every retired instruction
            // that was not eliminated outright.
            prop_assert_eq!(metrics.issue_util.total(), plain.cycles);
            prop_assert_eq!(metrics.window_occupancy.total(), plain.cycles);
            let issued: u64 = metrics.issue_util.iter().map(|(v, c)| v * c).sum();
            prop_assert_eq!(issued, plain.instructions - plain.eliminated);
        }
    }

    /// Trace files round-trip for arbitrary generated programs.
    #[test]
    fn random_traces_roundtrip_through_io(
        steps in proptest::collection::vec(step_strategy(), 1..12),
        iters in 1i32..12,
    ) {
        let program = build_program(&steps, iters);
        let mut machine = Machine::new(program);
        let trace = machine.run_trace("prop-io", 50_000).expect("no faults");
        let mut buf = Vec::new();
        ddsc::trace::io::write_trace(&mut buf, &trace).expect("write");
        let back = ddsc::trace::io::read_trace(buf.as_slice()).expect("read");
        prop_assert_eq!(trace, back);
    }
}
