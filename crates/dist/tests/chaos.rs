//! Deterministic seeded chaos over the scheduling state machine.
//!
//! The scheduler takes `now` as an argument everywhere, so this test
//! drives it with a synthetic clock and a scripted adversary: workers
//! desert mid-lease, stall past the lease deadline, submit corrupted
//! bodies, and deliver straggler duplicates — all decided by a seeded
//! [`Pcg32`], so every run of this test replays the same chaos. The
//! invariant under all of it: the run completes and the merged
//! digest → bytes map is byte-identical to an undisturbed run's, for
//! every chaos seed.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use ddsc_core::{simulate_prepared, PaperConfig, PreparedTrace};
use ddsc_dist::{Assignment, CellSpec, Ingest, SchedOptions, Scheduler};
use ddsc_experiments::CellKey;
use ddsc_util::Pcg32;
use ddsc_workloads::Benchmark;

const SEED: u64 = 1996;
const LEN: u64 = 1200;

/// The grid under test with each cell's canonical result bytes — what
/// an undisturbed single-process run merges.
fn grid_with_bodies() -> Vec<(CellSpec, Vec<u8>)> {
    let mut out = Vec::new();
    for bench in [Benchmark::Compress, Benchmark::Li] {
        let prepared = PreparedTrace::build(&bench.trace(SEED, LEN as usize).unwrap());
        for config in [PaperConfig::A, PaperConfig::D] {
            for width in [4u32, 8] {
                let key = CellKey::new((bench, config, width), SEED, LEN).unwrap();
                let result = simulate_prepared(&prepared, &key.sim_config());
                let mut body = Vec::new();
                result.encode_to(&mut body);
                out.push((CellSpec::from(&key), body));
            }
        }
    }
    out
}

/// Runs one chaos campaign: a fleet of simulated workers pulls cells
/// while the adversary kills, stalls and corrupts per the seed. Returns
/// the merged digest → bytes map.
fn chaos_campaign(
    grid: &[(CellSpec, Vec<u8>)],
    chaos_seed: u64,
    opts: &SchedOptions,
) -> (HashMap<u64, Vec<u8>>, Scheduler) {
    let bodies: HashMap<u64, &Vec<u8>> = grid.iter().map(|(s, b)| (s.digest, b)).collect();
    let mut sched = Scheduler::new(grid.iter().map(|(s, _)| s.clone()).collect(), *opts);
    let mut rng = Pcg32::new(chaos_seed);
    let t0 = Instant::now();
    let mut tick: u64 = 0;
    let now = move |tick: u64| t0 + Duration::from_millis(tick * 10);

    // Stalled leases the adversary sat on: (due tick, worker, spec).
    let mut stalled: Vec<(u64, u64, CellSpec)> = Vec::new();
    let mut merged: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut deaths = 0u64;
    let mut corruptions = 0u64;
    let mut stalls = 0u64;

    let mut workers: Vec<u64> = (0..4).map(|_| sched.register(0, now(0))).collect();
    let mut safety = 0;
    while !sched.is_complete() {
        safety += 1;
        assert!(safety < 10_000, "chaos campaign failed to converge");
        tick += 1;
        let t = now(tick);
        sched.reap(t);

        // Stalled submissions eventually arrive — long after their
        // lease was revoked and the cell re-dispatched, so most of
        // these land as duplicates.
        stalled.retain(|(due, worker, spec)| {
            if *due <= tick {
                let body = bodies[&spec.digest];
                if let Ingest::Merged { spec, result, .. } =
                    sched.submit_result(*worker, spec.digest, 0.01, body, t)
                {
                    // The straggler delivered the winning copy after all.
                    let mut bytes = Vec::new();
                    result.encode_to(&mut bytes);
                    merged.insert(spec.digest, bytes);
                }
                false
            } else {
                true
            }
        });

        let wi = rng.range(0, workers.len() as u32) as usize;
        let worker = workers[wi];
        match sched.next_assignment(worker, t) {
            Assignment::AllDone => break,
            Assignment::Idle { .. } => continue,
            Assignment::Cell(spec) => {
                if rng.chance(1, 5) {
                    // Desert: the connection drops mid-cell. The worker
                    // re-registers under a fresh identity next round.
                    for (s, _e) in sched.disconnect(worker) {
                        assert_eq!(s.digest, spec.digest);
                    }
                    deaths += 1;
                    workers[wi] = sched.register(0, t);
                } else if rng.chance(1, 5) {
                    // Corrupt: a truncated or trailing-garbage body —
                    // the corruption classes ingest validation is
                    // *guaranteed* to catch (bit flips in transit are
                    // the frame checksum's job, pinned by the ingest
                    // proptests).
                    let mut body = bodies[&spec.digest].clone();
                    if rng.chance(1, 2) {
                        let cut = body.len() - 1 - rng.range(0, 8) as usize;
                        body.truncate(cut);
                    } else {
                        body.push(rng.range(0, 255) as u8);
                    }
                    corruptions += 1;
                    match sched.submit_result(worker, spec.digest, 0.01, &body, t) {
                        Ingest::Rejected { .. }
                        | Ingest::Duplicate
                        | Ingest::Quarantined { .. } => {}
                        other => panic!("corrupt body must not merge: {other:?}"),
                    }
                } else if rng.chance(1, 4) {
                    // Stall: sit on the lease past its deadline, then
                    // deliver the (valid) result as a straggler.
                    let lease_ticks = opts.lease_timeout.as_millis() as u64 / 10;
                    stalls += 1;
                    stalled.push((tick + lease_ticks + 2, worker, spec));
                } else {
                    // Honest: compute and submit promptly.
                    let body = bodies[&spec.digest];
                    match sched.submit_result(worker, spec.digest, 0.01, body, t) {
                        Ingest::Merged { spec, result, .. } => {
                            let mut bytes = Vec::new();
                            result.encode_to(&mut bytes);
                            merged.insert(spec.digest, bytes);
                        }
                        Ingest::Duplicate => {}
                        other => panic!("honest submission refused: {other:?}"),
                    }
                }
            }
        }
    }
    // Whatever was still stalled at completion drains as duplicates.
    let t = now(tick + 1);
    for (_, worker, spec) in stalled.drain(..) {
        let body = bodies[&spec.digest];
        assert!(matches!(
            sched.submit_result(worker, spec.digest, 0.01, body, t),
            Ingest::Duplicate | Ingest::Merged { .. }
        ));
    }
    assert!(
        deaths + corruptions + stalls > 0,
        "the adversary never acted; raise the campaign length"
    );
    (merged, sched)
}

#[test]
fn merged_grid_is_byte_identical_across_chaos_seeds() {
    let grid = grid_with_bodies();
    let clean: HashMap<u64, Vec<u8>> = grid.iter().map(|(s, b)| (s.digest, b.clone())).collect();
    let opts = SchedOptions {
        lease_timeout: Duration::from_millis(300),
        heartbeat_timeout: Duration::from_millis(200),
        poison_threshold: usize::MAX, // chaos must never quarantine a cell
        idle_wait_ms: 1,
        adaptive_lease: false, // the campaign's stall timing assumes fixed leases
        ..SchedOptions::default()
    };
    for chaos_seed in [7, 1996, 0xDDC5] {
        let (merged, sched) = chaos_campaign(&grid, chaos_seed, &opts);
        assert_eq!(
            merged, clean,
            "chaos seed {chaos_seed} merged a different grid"
        );
        assert_eq!(sched.cells_done(), grid.len());
        let report = sched.report(1.0);
        assert_eq!(report.cells_completed, grid.len());
        assert_eq!(report.cells_quarantined, 0);
        assert_eq!(
            report.cells_completed + report.cells_quarantined,
            report.cells_total
        );
    }
}

/// The same campaign with a finite poison threshold: cells struck by
/// enough distinct workers quarantine instead of wedging the run, and
/// whatever did merge is still byte-identical to the clean bytes.
#[test]
fn poison_threshold_quarantines_instead_of_wedging() {
    let grid = grid_with_bodies();
    let opts = SchedOptions {
        lease_timeout: Duration::from_millis(300),
        heartbeat_timeout: Duration::from_millis(200),
        poison_threshold: 2,
        idle_wait_ms: 1,
        adaptive_lease: false,
        ..SchedOptions::default()
    };
    let (merged, sched) = chaos_campaign(&grid, 42, &opts);
    let report = sched.report(1.0);
    assert_eq!(
        report.cells_completed + report.cells_quarantined,
        report.cells_total,
        "every cell must settle one way or the other"
    );
    let clean: HashMap<u64, Vec<u8>> = grid.iter().map(|(s, b)| (s.digest, b.clone())).collect();
    for (digest, bytes) in &merged {
        assert_eq!(clean.get(digest), Some(bytes));
    }
}
