//! Property tests for the coordinator's result-ingest path.
//!
//! The serve-layer proptests pin the *frame* codec down; these pin the
//! layer above it: a corrupted result — truncated, bit-flipped, random
//! soup — must never be merged into the grid, and a rejected result
//! must leave its cell re-dispatchable. The one thing validation
//! cannot catch is a well-formed body with plausibly wrong counters
//! (a byzantine worker); that is the spot-check layer's job
//! (DESIGN.md §8.2, pinned by `tests/spotcheck.rs`) — these tests
//! assert exactly the contract structural validation does make:
//! whatever merges is canonical bytes that satisfy the simulator's
//! structural invariants.

use std::sync::OnceLock;
use std::time::Instant;

use ddsc_core::{simulate_prepared, PaperConfig};
use ddsc_dist::proto::{read_worker_msg, write_worker_msg};
use ddsc_dist::{validate_body, Assignment, CellSpec, Ingest, SchedOptions, Scheduler, WorkerMsg};
use ddsc_experiments::CellKey;
use ddsc_util::FaultPlan;
use ddsc_workloads::Benchmark;
use proptest::prelude::*;

/// One real cell with its canonical result body, computed once: the
/// per-case work is mutation + validation, not simulation.
fn fixture() -> &'static (CellSpec, Vec<u8>) {
    static FIXTURE: OnceLock<(CellSpec, Vec<u8>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let key = CellKey::new((Benchmark::Compress, PaperConfig::D, 4), 1996, 1200).unwrap();
        let result = simulate_prepared(&key.prepare().unwrap(), &key.sim_config());
        let mut body = Vec::new();
        result.encode_to(&mut body);
        (CellSpec::from(&key), body)
    })
}

fn one_cell_scheduler() -> (Scheduler, u64) {
    let (spec, _) = fixture();
    let opts = SchedOptions {
        poison_threshold: usize::MAX, // rejection must never quarantine here
        ..SchedOptions::default()
    };
    let mut sched = Scheduler::new(vec![spec.clone()], opts);
    let worker = sched.register(0, Instant::now());
    (sched, worker)
}

proptest! {
    /// A fault-plan-mutated result *frame* either fails to decode with
    /// a typed error or decodes to the exact original message — the
    /// checksummed frame gives corruption no way to alias one worker
    /// message into another.
    #[test]
    fn mutated_result_frames_never_alias(seed in any::<u64>(), faults in 1usize..8) {
        let (spec, body) = fixture();
        let msg = WorkerMsg::Result {
            worker_id: 7,
            digest: spec.digest,
            seconds_bits: 0.25f64.to_bits(),
            body: body.clone(),
        };
        let mut clean = Vec::new();
        write_worker_msg(&mut clean, &msg).unwrap();
        let mut bytes = clean.clone();
        FaultPlan::seeded(seed, faults, bytes.len()).apply(&mut bytes);
        let mut stream = &bytes[..];
        // Anything else is rejected at the frame layer, which is fine.
        if let Ok(Some(decoded)) = read_worker_msg(&mut stream) {
            prop_assert_eq!(decoded, msg.clone());
        }
        if bytes == clean {
            let mut stream = &bytes[..];
            prop_assert_eq!(read_worker_msg(&mut stream).unwrap(), Some(msg));
        }
    }

    /// A fault-plan-mutated result *body* submitted to the scheduler is
    /// either merged as canonical invariant-satisfying bytes or
    /// rejected — and a rejected cell is immediately re-dispatchable,
    /// so corruption costs a round-trip, never a grid cell.
    #[test]
    fn mutated_bodies_reject_and_redispatch_or_merge_canonically(
        seed in any::<u64>(),
        faults in 1usize..8,
    ) {
        let (spec, clean) = fixture();
        let mut body = clean.clone();
        FaultPlan::seeded(seed, faults, body.len()).apply(&mut body);
        let (mut sched, worker) = one_cell_scheduler();
        let now = Instant::now();
        let Assignment::Cell(assigned) = sched.next_assignment(worker, now) else {
            panic!("one pending cell must dispatch");
        };
        prop_assert_eq!(&assigned.digest, &spec.digest);
        match sched.submit_result(worker, assigned.digest, 0.1, &body, now) {
            Ingest::Merged { result, .. } => {
                let mut reencoded = Vec::new();
                result.encode_to(&mut reencoded);
                prop_assert_eq!(&reencoded, &body, "merged bodies are canonical");
                prop_assert_eq!(result.instructions, spec.trace_len);
                prop_assert!(result.cycles >= spec.trace_len.div_ceil(spec.width as u64));
                prop_assert!(sched.is_complete());
            }
            Ingest::Rejected { .. } => {
                prop_assert_ne!(&body, clean, "the untouched body must merge");
                prop_assert!(!sched.is_complete());
                let rescuer = sched.register(0, now);
                prop_assert!(
                    matches!(sched.next_assignment(rescuer, now), Assignment::Cell(_)),
                    "a rejected cell must be re-dispatchable"
                );
            }
            other => prop_assert!(false, "unexpected ingest decision {other:?}"),
        }
        if &body == clean {
            prop_assert!(sched.is_complete());
        }
    }

    /// Every strict prefix of a canonical body is rejected: truncation
    /// can never merge.
    #[test]
    fn truncated_bodies_always_reject(cut_scale in 0.0f64..1.0) {
        let (spec, clean) = fixture();
        let cut = ((clean.len() - 1) as f64 * cut_scale) as usize;
        prop_assert!(validate_body(spec, &clean[..cut]).is_err());
    }

    /// Random byte soup never panics validation, and in the
    /// astronomically unlikely event it validates, it satisfies the
    /// same invariants every merged body does.
    #[test]
    fn random_bodies_validate_totally(bytes in proptest::collection::vec(any::<u8>(), 0..600)) {
        let (spec, _) = fixture();
        if let Ok(result) = validate_body(spec, &bytes) {
            let mut reencoded = Vec::new();
            result.encode_to(&mut reencoded);
            prop_assert_eq!(reencoded, bytes);
            prop_assert_eq!(result.instructions, spec.trace_len);
        }
    }

    /// Results for digests outside the run are ignored without touching
    /// any cell state.
    #[test]
    fn unknown_digests_are_ignored(digest in any::<u64>()) {
        let (spec, clean) = fixture();
        if digest != spec.digest {
            let (mut sched, worker) = one_cell_scheduler();
            let now = Instant::now();
            prop_assert!(matches!(
                sched.submit_result(worker, digest, 0.1, clean, now),
                Ingest::Unknown
            ));
            prop_assert_eq!(sched.cells_done(), 0);
        }
    }
}
