//! Golden byte fixtures for the result codec and the cell store.
//!
//! One `SimResult` with a non-empty distance histogram and pattern
//! tables is pinned as its exact `encode_to` body, and one `CellStore`
//! file as `save` leaves it on disk (header ‖ that body). The body is
//! what the cell store persists and what the serve and dist wires
//! carry, so a codec change that moves any byte fails here; a
//! deliberate format change must bump the store version and re-pin. On
//! mismatch the test prints the new bytes of every fixture at once.

use ddsc_collapse::{AbsorbSlot, CollapseStats, ExprState};
use ddsc_core::{
    BranchRunStats, LoadSpecStats, PaperConfig, SimConfig, SimResult, StallStats, ValueSpecStats,
};
use ddsc_experiments::CellStore;
use ddsc_isa::{Opcode, Reg};
use ddsc_trace::TraceInst;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn check(fixtures: &[(&str, Vec<u8>, &str)]) {
    let stale: Vec<String> = fixtures
        .iter()
        .filter(|(_, bytes, want)| hex(bytes) != *want)
        .map(|(name, bytes, _)| format!("{name}: {}", hex(bytes)))
        .collect();
    assert!(
        stale.is_empty(),
        "golden bytes moved:\n{}",
        stale.join("\n")
    );
}

/// `dest = src + imm` at trace position `at`.
fn addi(at: u32, dest: u8, src: u8) -> ExprState {
    let inst = TraceInst::alu(
        4 * at,
        Opcode::Add,
        Reg::new(dest),
        Reg::new(src),
        None,
        Some(1),
        0,
    );
    ExprState::leaf(at, &inst).unwrap()
}

/// `dest = a + b` at trace position `at`.
fn addr(at: u32, dest: u8, a: u8, b: u8) -> ExprState {
    let inst = TraceInst::alu(
        4 * at,
        Opcode::Add,
        Reg::new(dest),
        Reg::new(a),
        Some(Reg::new(b)),
        None,
        0,
    );
    ExprState::leaf(at, &inst).unwrap()
}

fn sample() -> SimResult {
    let mut collapse = CollapseStats::new();
    let slot = [AbsorbSlot::Counted];
    // Two pairs at distances 1 and 5, and one triple.
    collapse.record_group(&addr(1, 3, 2, 4).absorb(&addi(0, 2, 1), &slot).unwrap());
    collapse.record_group(&addi(9, 5, 4).absorb(&addi(4, 4, 1), &slot).unwrap());
    let pair = addi(11, 7, 6).absorb(&addi(10, 6, 1), &slot).unwrap();
    collapse.record_group(&addr(13, 8, 7, 9).absorb(&pair, &slot).unwrap());
    collapse.mark_participants(7);
    collapse.set_total(1000);
    SimResult {
        config: SimConfig::paper(PaperConfig::C, 8),
        instructions: 1000,
        cycles: 420,
        loads: LoadSpecStats {
            ready: 11,
            predicted_correct: 12,
            predicted_incorrect: 13,
            not_predicted: 14,
        },
        values: ValueSpecStats {
            predicted_correct: 21,
            predicted_incorrect: 22,
            not_predicted: 23,
        },
        branches: BranchRunStats {
            cond_branches: 31,
            mispredicted: 32,
        },
        stalls: StallStats {
            data: 41,
            address: 42,
            memory: 43,
            branch: 44,
            bandwidth: 45,
            insts: 46,
        },
        collapse,
        eliminated: 3,
    }
}

/// Counters, collapse counters, the 64-bucket distance histogram
/// (distances 1, 2, 3 and 5), then the pair, triple and quad tables.
const BODY: &str = concat!(
    "e803000000000000a4010000000000000b000000000000000c000000000000000d000000000000000e000000",
    "000000001500000000000000160000000000000017000000000000001f000000000000002000000000000000",
    "29000000000000002a000000000000002b000000000000002c000000000000002d000000000000002e000000",
    "0000000003000000000000000200000000000000010000000000000000000000000000000700000000000000",
    "e803000000000000400000000000000000000000010000000000000001000000000000000100000000000000",
    "0000000000000000010000000000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    "0000000004000000000000000b00000000000000000000000000000002000000000000000200000002000200",
    "0100020000010000000000000002000200010002000101000000000000000100000000000000010000000300",
    "02000100020001000200000100000000000000000000000000000000000000",
);

/// Magic "DDCR", version 1, digest, payload length, payload checksum.
const CELL_HEADER: &str = "4444435201000000efcdab89674523013703000000000000d96110fb2e4a2166";

#[test]
fn a_sim_result_body_keeps_its_bytes() {
    let result = sample();
    let mut body = Vec::new();
    result.encode_to(&mut body);
    check(&[("sim_result", body.clone(), BODY)]);
    let mut pos = 0;
    let back = SimResult::decode(&body, &mut pos, result.config).unwrap();
    assert_eq!(pos, body.len());
    assert_eq!(back, result);
}

#[test]
fn a_cell_store_file_keeps_its_bytes() {
    let dir = std::env::temp_dir().join(format!("ddsc-golden-cells-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CellStore::new(&dir);
    store.save(0x0123_4567_89ab_cdef, &sample()).unwrap();
    let file = std::fs::read(store.path_for(0x0123_4567_89ab_cdef)).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    check(&[("cell_file", file, &format!("{CELL_HEADER}{BODY}"))]);
}
