//! Bit-identity gates for the event-driven timing loop.
//!
//! The cycle loop normally jumps the counter straight to the timing
//! wheel's next occupied bucket when nothing can issue; the skipped
//! span is provably inert (nothing fetches, wakes or issues inside it),
//! so the jump must never move a bit. These tests pin that claim three
//! ways on random programs across every paper configuration and width:
//! the skipping loop against the one-cycle-at-a-time stepped loop
//! (`RunOptions::step`), both against the frozen reference simulator,
//! and — with metrics on — the stepped and skipping runs' full
//! idle-cause attribution against each other and against the
//! issue+Σidle==cycles accounting identity. The stepped loop also runs
//! under an armed deadline that never fires, which must not move a bit
//! either.

use ddsc::core::{
    simulate_prepared, simulate_reference, simulate_with, CancelToken, PaperConfig, PreparedTrace,
    RunOptions, SimConfig, SimMetrics, SimResult,
};
use ddsc::isa::Reg;
use ddsc::vm::{Asm, Machine, Program};
use proptest::prelude::*;

/// One step of a random (but always-terminating) loop body. Multiplies
/// and loads are deliberately frequent: long latencies and address
/// dependences are what open the idle gaps the event skip jumps over.
#[derive(Debug, Clone)]
enum Step {
    Alu { op: u8, rd: u8, rs1: u8, imm: i32 },
    Mul { rd: u8, rs1: u8, rs2: u8 },
    Load { rd: u8, offset: u16 },
    Store { rs: u8, offset: u16 },
    CmpBranchOver { rs: u8, imm: i32 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u8..4, 1u8..8, 1u8..8, -64i32..64).prop_map(|(op, rd, rs1, imm)| Step::Alu {
            op,
            rd,
            rs1,
            imm
        }),
        (1u8..8, 1u8..8, 1u8..8).prop_map(|(rd, rs1, rs2)| Step::Mul { rd, rs1, rs2 }),
        (1u8..8, 0u16..512).prop_map(|(rd, offset)| Step::Load { rd, offset }),
        (1u8..8, 0u16..512).prop_map(|(rs, offset)| Step::Store { rs, offset }),
        (1u8..8, -8i32..8).prop_map(|(rs, imm)| Step::CmpBranchOver { rs, imm }),
    ]
}

/// Runs the stepped gait with metrics on or off; `armed` adds a
/// deadline that never fires.
fn stepped(
    prepared: &PreparedTrace,
    config: &SimConfig,
    metrics: bool,
    armed: bool,
) -> (SimResult, Option<SimMetrics>) {
    let options = RunOptions {
        metrics,
        cancel: armed.then(CancelToken::never),
        step: true,
    };
    simulate_with(prepared, config, &options).expect("a never-token must not cancel")
}

/// Builds a program running `iters` iterations of the random body.
/// Every memory access is word-aligned inside a scratch page, so the
/// program can never fault.
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
                    2 => asm.xori(rd, rs1, imm),
                    _ => asm.slli(rd, rs1, imm & 15),
                }
            }
            Step::Mul { rd, rs1, rs2 } => asm.mul(r(rd), r(rs1), r(rs2)),
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
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cycle-skipping ≡ stepped ≡ frozen reference, across every paper
    /// configuration and any issue width from 1 to 40, odd ones
    /// included. Narrow widths on multiply-heavy code maximise idle
    /// gaps — the spans the skip actually jumps.
    #[test]
    fn event_skip_matches_stepped_loop_and_reference(
        steps in proptest::collection::vec(step_strategy(), 1..16),
        iters in 1i32..30,
        width in 1u32..41,
    ) {
        let program = build_program(&steps, iters);
        let mut machine = Machine::new(program);
        let trace = machine.run_trace("prop-skip", 100_000).expect("no faults");
        let prepared = PreparedTrace::build(&trace);
        for cfg in PaperConfig::ALL {
            let config = SimConfig::paper(cfg, width);
            let skipping = simulate_prepared(&prepared, &config);
            for armed in [false, true] {
                let (step_res, _) = stepped(&prepared, &config, false, armed);
                prop_assert_eq!(
                    &skipping,
                    &step_res,
                    "event skip moved a bit vs the stepped loop: config {} width {} armed {}",
                    cfg.label(),
                    width,
                    armed
                );
            }
            let reference = simulate_reference(&trace, &config);
            prop_assert_eq!(
                &skipping,
                &reference,
                "event skip diverged from the frozen reference: config {} width {}",
                cfg.label(),
                width
            );
        }
    }

    /// With metrics on, the skipped spans must land in the same
    /// idle-cause buckets the stepped loop fills cycle by cycle, and
    /// both must satisfy the accounting identity.
    #[test]
    fn event_skip_preserves_idle_cause_attribution(
        steps in proptest::collection::vec(step_strategy(), 1..16),
        iters in 1i32..30,
        width in 1u32..41,
    ) {
        let program = build_program(&steps, iters);
        let mut machine = Machine::new(program);
        let trace = machine.run_trace("prop-skip-metrics", 100_000).expect("no faults");
        let prepared = PreparedTrace::build(&trace);
        for cfg in PaperConfig::ALL {
            let config = SimConfig::paper(cfg, width);
            let metrics_on = RunOptions {
                metrics: true,
                ..RunOptions::default()
            };
            let (skip_res, skip_metrics) =
                simulate_with(&prepared, &config, &metrics_on).expect("no deadline is armed");
            let skip_metrics = skip_metrics.expect("metrics were asked for");
            for armed in [false, true] {
                let (step_res, step_metrics) = stepped(&prepared, &config, true, armed);
                prop_assert_eq!(
                    &skip_res,
                    &step_res,
                    "metrics-on event skip moved a bit: config {} width {} armed {}",
                    cfg.label(),
                    width,
                    armed
                );
                prop_assert_eq!(
                    Some(&skip_metrics),
                    step_metrics.as_ref(),
                    "idle-cause attribution changed under the skip: config {} width {} armed {}",
                    cfg.label(),
                    width,
                    armed
                );
            }
            prop_assert!(skip_metrics.attribution.audit(skip_res.cycles).is_ok());
        }
    }
}
