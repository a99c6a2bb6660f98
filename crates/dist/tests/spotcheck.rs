//! Byzantine-resilience tests for the spot-check consensus layer.
//!
//! Structural validation (`tests/ingest_proptest.rs`) guarantees that
//! whatever merges is canonical, *decodable* bytes — it cannot catch a
//! well-formed body with wrong counters. These tests pin the layer
//! built for exactly that adversary: with `--spot-check 100`, every
//! cell needs two distinct workers to agree byte-for-byte before it
//! merges, so a worker that lies (honest simulation, perturbed cycle
//! count, canonical re-encode — the `--byzantine` worker mode) is
//! outvoted by the tiebreak and banned. The property under every
//! interleaving proptest can generate: **a minority or non-canonical
//! body never reaches the merge sink** — the merged grid is
//! byte-identical to a clean serial run's.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use ddsc_core::{simulate_prepared, PaperConfig, PreparedTrace, SimConfig, SimResult};
use ddsc_dist::{
    run_worker, Assignment, CellSpec, Coordinator, DistSinks, Ingest, SchedOptions, Scheduler,
    WorkerOptions,
};
use ddsc_experiments::cell::parse_config;
use ddsc_experiments::CellKey;
use ddsc_workloads::Benchmark;
use proptest::prelude::*;

const SEED: u64 = 1996;
const LEN: u64 = 1200;

/// The grid under test: one prepared trace, four (config, width)
/// cells, with each cell's clean canonical bytes. Computed once.
fn grid() -> &'static Vec<(CellSpec, Vec<u8>)> {
    static GRID: OnceLock<Vec<(CellSpec, Vec<u8>)>> = OnceLock::new();
    GRID.get_or_init(|| {
        let bench = Benchmark::Compress;
        let prepared = PreparedTrace::build(&bench.trace(SEED, LEN as usize).unwrap());
        let mut out = Vec::new();
        for config in [PaperConfig::A, PaperConfig::D] {
            for width in [4u32, 8] {
                let key = CellKey::new((bench, config, width), SEED, LEN).unwrap();
                let result = simulate_prepared(&prepared, &key.sim_config());
                let mut body = Vec::new();
                result.encode_to(&mut body);
                out.push((CellSpec::from(&key), body));
            }
        }
        out
    })
}

/// The deterministic lie the `--byzantine` worker mode tells: decode
/// the honest result, inflate the cycle count, re-encode canonically.
/// Well-formed, stable across re-computation, never equal to the truth.
fn perturb(spec: &CellSpec, clean: &[u8]) -> Vec<u8> {
    let pc = parse_config(&spec.config).unwrap();
    let mut pos = 0;
    let mut result = SimResult::decode(clean, &mut pos, SimConfig::paper(pc, spec.width))
        .expect("clean decodes");
    result.cycles += 1 + result.cycles / 64;
    let mut body = Vec::new();
    result.encode_to(&mut body);
    body
}

fn spot_check_all_opts() -> SchedOptions {
    SchedOptions {
        lease_timeout: Duration::from_secs(60),
        heartbeat_timeout: Duration::from_secs(60),
        poison_threshold: usize::MAX,
        idle_wait_ms: 1,
        adaptive_lease: false,
        spot_check_percent: 100,
        ..SchedOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Three workers — two honest, one byzantine — pull and submit in a
    /// proptest-chosen interleaving with every cell spot-checked. No
    /// matter the order, only clean bytes merge, the full grid
    /// completes, and the liar is identified and banned.
    #[test]
    fn mismatches_never_merge_minority_bytes(order in proptest::collection::vec(0..3usize, 0..96)) {
        let cells = grid();
        let clean: HashMap<u64, &Vec<u8>> = cells.iter().map(|(s, b)| (s.digest, b)).collect();
        let lies: HashMap<u64, Vec<u8>> =
            cells.iter().map(|(s, b)| (s.digest, perturb(s, b))).collect();
        let mut sched = Scheduler::new(
            cells.iter().map(|(s, _)| s.clone()).collect(),
            spot_check_all_opts(),
        );
        let t = Instant::now();
        let workers: Vec<u64> = (0..3).map(|_| sched.register(0, t)).collect();
        let byz = workers[2];

        let mut merged: HashMap<u64, Vec<u8>> = HashMap::new();
        let step = |sched: &mut Scheduler, worker: u64, merged: &mut HashMap<u64, Vec<u8>>| {
            match sched.next_assignment(worker, t) {
                Assignment::Cell(spec) => {
                    let body: &[u8] = if worker == byz {
                        &lies[&spec.digest]
                    } else {
                        clean[&spec.digest]
                    };
                    match sched.submit_result(worker, spec.digest, 0.01, body, t) {
                        Ingest::Merged { spec, result, .. } => {
                            let mut bytes = Vec::new();
                            result.encode_to(&mut bytes);
                            merged.insert(spec.digest, bytes);
                        }
                        Ingest::HeldForVerification | Ingest::Duplicate => {}
                        other => panic!("unexpected ingest: {other:?}"),
                    }
                }
                Assignment::Idle { .. } | Assignment::AllDone => {}
            }
        };

        // The proptest-chosen prefix of the interleaving...
        for &wi in &order {
            step(&mut sched, workers[wi], &mut merged);
        }
        // ...then honest workers finish whatever is left.
        let mut safety = 0;
        while !sched.is_complete() {
            safety += 1;
            prop_assert!(safety < 10_000, "campaign failed to converge");
            for &w in &workers[..2] {
                step(&mut sched, w, &mut merged);
            }
        }

        // The core property: every merged body is the clean bytes.
        prop_assert_eq!(merged.len(), cells.len());
        for (digest, body) in &merged {
            prop_assert_eq!(Some(body), clean.get(digest).copied(),
                "non-canonical bytes merged for {:#x}", digest);
        }
        let report = sched.report(1.0);
        prop_assert_eq!(report.cells_completed, cells.len());
        prop_assert_eq!(report.cells_quarantined, 0);
        prop_assert_eq!(report.revocation_false_positives, 0);
        // Every contested cell records exactly one incident.
        prop_assert_eq!(report.mismatches as usize, report.incidents.len());
        // If the liar ever got a cell in edgewise, it was caught.
        if report.mismatches > 0 {
            prop_assert_eq!(&report.byzantine_workers, &vec![byz]);
        } else {
            prop_assert!(report.byzantine_workers.is_empty());
        }
    }
}

/// End-to-end over real sockets: a coordinator with every cell
/// spot-checked, three in-process workers of which one runs the hidden
/// `--byzantine` mode. The merged grid must be byte-identical to the
/// clean bodies, the liar banned, and no revocation false-positives
/// recorded.
#[test]
fn byzantine_worker_is_outvoted_end_to_end() {
    let cells = grid();
    let clean: HashMap<u64, &Vec<u8>> = cells.iter().map(|(s, b)| (s.digest, b)).collect();
    let coord = Coordinator::bind(
        "127.0.0.1:0",
        cells.iter().map(|(s, _)| s.clone()).collect(),
        spot_check_all_opts(),
    )
    .expect("bind");
    let addr = coord.local_addr().to_string();

    let threads: Vec<_> = (0..3)
        .map(|i| {
            let mut opts = WorkerOptions::new(addr.clone());
            opts.byzantine = i == 0;
            std::thread::spawn(move || run_worker(&opts).expect("worker runs"))
        })
        .collect();

    let merged: Mutex<HashMap<u64, Vec<u8>>> = Mutex::new(HashMap::new());
    let on_result = |spec: &CellSpec, result: &SimResult, _seconds: f64| {
        let mut bytes = Vec::new();
        result.encode_to(&mut bytes);
        merged.lock().unwrap().insert(spec.digest, bytes);
    };
    let on_quarantine = |spec: &CellSpec, error: &str| {
        panic!("cell {:#x} quarantined: {error}", spec.digest);
    };
    let report = coord.run(&DistSinks {
        on_result: &on_result,
        on_quarantine: &on_quarantine,
    });
    for t in threads {
        t.join().expect("worker thread");
    }

    let merged = merged.into_inner().unwrap();
    assert_eq!(merged.len(), cells.len());
    for (digest, body) in &merged {
        assert_eq!(
            Some(body),
            clean.get(digest).copied(),
            "non-canonical bytes merged for {digest:#x}"
        );
    }
    assert_eq!(report.cells_completed, cells.len());
    assert_eq!(report.cells_quarantined, 0);
    assert_eq!(report.spot_checked as usize, cells.len());
    assert_eq!(report.revocation_false_positives, 0);
    // The byzantine worker must have been caught at least once (its
    // first spot-checked conflict) and banned for the run.
    assert!(
        report.mismatches >= 1,
        "the liar was never even contradicted"
    );
    assert_eq!(
        report.mismatches as usize,
        report.incidents.len(),
        "every contested cell records exactly one incident"
    );
    assert_eq!(report.byzantine_workers.len(), 1);
    let banned = report.byzantine_workers[0];
    let liar = report
        .workers
        .iter()
        .find(|w| w.id == banned)
        .expect("banned worker reported");
    assert!(liar.byzantine);
}
