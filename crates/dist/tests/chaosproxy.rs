//! End-to-end chaos drills through the deterministic network proxy.
//!
//! The proxy's fault scripts are pure functions of (seed, connection
//! index, direction) — no wall clock, no OS entropy — so a drill that
//! fails in CI replays bit-identically from the same seed. These tests
//! pin both halves of that claim: the *scripts* are reproducible, and
//! a real coordinator/worker fleet pushed through the proxy still
//! merges a grid byte-identical to a clean serial run, twice in a row.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

use ddsc_core::{simulate_prepared, PaperConfig, PreparedTrace, SimResult};
use ddsc_dist::chaos::script;
use ddsc_dist::{
    run_worker, CellSpec, ChaosOptions, ChaosProxy, Coordinator, DistSinks, SchedOptions,
    WorkerOptions,
};
use ddsc_experiments::CellKey;
use ddsc_workloads::Benchmark;

const SEED: u64 = 1996;
const LEN: u64 = 1200;
const CHAOS_SEED: u64 = 0xC4A05;

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

fn chaos_opts() -> ChaosOptions {
    ChaosOptions {
        seed: CHAOS_SEED,
        events_per_conn: 8,
        min_gap: 200,
        max_gap: 1500,
    }
}

/// One full drill: coordinator ← chaos proxy ← three workers. Returns
/// the merged digest → bytes map, the rendered scripts of the first
/// connections, and whether any cell quarantined.
fn drill() -> (HashMap<u64, Vec<u8>>, String) {
    use ddsc_dist::Direction;

    let cells = grid();
    let opts = SchedOptions {
        lease_timeout: Duration::from_secs(60),
        heartbeat_timeout: Duration::from_secs(60),
        poison_threshold: usize::MAX, // chaos must never quarantine
        idle_wait_ms: 1,
        adaptive_lease: false,
        ..SchedOptions::default()
    };
    let coord = Coordinator::bind(
        "127.0.0.1:0",
        cells.iter().map(|(s, _)| s.clone()).collect(),
        opts,
    )
    .expect("coordinator binds");
    let proxy = ChaosProxy::bind("127.0.0.1:0", coord.local_addr().to_string(), chaos_opts())
        .expect("proxy binds");
    let stop = proxy.stop_handle();
    let proxy_addr = proxy.local_addr().to_string();
    let proxy_thread = std::thread::spawn(move || proxy.run());

    let workers: Vec<_> = (0..3)
        .map(|_| {
            let opts = WorkerOptions::new(proxy_addr.clone());
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
        panic!("cell {:#x} quarantined under chaos: {error}", spec.digest);
    };
    let report = coord.run(&DistSinks {
        on_result: &on_result,
        on_quarantine: &on_quarantine,
    });
    for w in workers {
        w.join().expect("worker thread");
    }
    stop.stop();
    let _ = proxy_thread.join();

    assert_eq!(report.cells_completed, cells.len());
    assert_eq!(report.cells_quarantined, 0);

    // The scripts the first four connections suffered, rendered — a
    // pure function of the seed, so identical across drills.
    let mut scripts = String::new();
    for conn in 0..4 {
        for dir in [Direction::Upstream, Direction::Downstream] {
            scripts.push_str(&script(&chaos_opts(), conn, dir).render());
        }
    }
    (merged.into_inner().unwrap(), scripts)
}

#[test]
fn scripts_are_pure_functions_of_seed_connection_and_direction() {
    use ddsc_dist::Direction;
    let a = chaos_opts();
    for conn in 0..8u64 {
        for dir in [Direction::Upstream, Direction::Downstream] {
            assert_eq!(
                script(&a, conn, dir).render(),
                script(&chaos_opts(), conn, dir).render(),
                "same seed must give the same script"
            );
        }
    }
    // Different seeds, connections and directions all decorrelate.
    let mut other = chaos_opts();
    other.seed ^= 1;
    assert_ne!(
        script(&a, 0, Direction::Upstream).render(),
        script(&other, 0, Direction::Upstream).render()
    );
    assert_ne!(
        script(&a, 0, Direction::Upstream).render(),
        script(&a, 1, Direction::Upstream).render()
    );
    assert_ne!(
        script(&a, 0, Direction::Upstream).render(),
        script(&a, 0, Direction::Downstream).render()
    );
}

#[test]
fn chaos_drill_merges_clean_bytes_and_replays_identically() {
    let cells = grid();
    let clean: HashMap<u64, &Vec<u8>> = cells.iter().map(|(s, b)| (s.digest, b)).collect();

    let (first, first_scripts) = drill();
    assert_eq!(first.len(), cells.len());
    for (digest, body) in &first {
        assert_eq!(
            Some(body),
            clean.get(digest).copied(),
            "chaos corrupted merged bytes for {digest:#x}"
        );
    }

    // Same seed, fresh sockets: identical scripts, identical merge.
    let (second, second_scripts) = drill();
    assert_eq!(first_scripts, second_scripts, "scripts must replay");
    assert_eq!(first, second, "merged outputs must be byte-identical");
}
