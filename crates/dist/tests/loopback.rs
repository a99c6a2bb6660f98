//! Loopback TCP integration tests: a real [`Coordinator`] serving real
//! [`run_worker`] loops (in threads, not processes — the process-level
//! SIGKILL drills live in the CLI's `dist.rs` tests) plus hand-rolled
//! protocol clients playing misbehaving workers.

use std::collections::HashMap;
use std::io;
use std::net::TcpStream;
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use ddsc_core::simulate_prepared;
use ddsc_dist::proto::{read_coord_msg, write_worker_msg};
use ddsc_dist::{
    run_worker, CellSpec, CoordMsg, Coordinator, DistSinks, SchedOptions, WireError, WorkerMsg,
    WorkerOptions,
};
use ddsc_experiments::CellKey;

const SEED: u64 = 1996;

fn key_for(bench: &str, config: &str, width: u32, len: u64) -> CellKey {
    CellKey::parse(bench, config, width, SEED, len).unwrap()
}

/// A cell spec whose digest matches what a worker will recompute.
fn spec_for(bench: &str, config: &str, width: u32, len: u64) -> CellSpec {
    CellSpec::from(&key_for(bench, config, width, len))
}

/// The canonical result bytes a local single-process run produces.
fn local_body(spec: &CellSpec) -> Vec<u8> {
    let key = key_for(&spec.bench, &spec.config, spec.width, spec.trace_len);
    let result = simulate_prepared(&key.prepare().unwrap(), &key.sim_config());
    let mut body = Vec::new();
    result.encode_to(&mut body);
    body
}

fn collecting_run(
    coord: Coordinator,
    quarantines: &Mutex<Vec<(u64, String)>>,
    merged: &Mutex<HashMap<u64, Vec<u8>>>,
) -> ddsc_dist::DistReport {
    let on_result = |spec: &CellSpec, result: &ddsc_core::SimResult, _seconds: f64| {
        let mut body = Vec::new();
        result.encode_to(&mut body);
        merged.lock().unwrap().insert(spec.digest, body);
    };
    let on_quarantine = |spec: &CellSpec, error: &str| {
        quarantines
            .lock()
            .unwrap()
            .push((spec.digest, error.to_string()));
    };
    coord.run(&DistSinks {
        on_result: &on_result,
        on_quarantine: &on_quarantine,
    })
}

#[test]
fn worker_fleet_over_tcp_merges_byte_identical_grid() {
    let mut specs = Vec::new();
    for bench_name in ["compress", "li"] {
        for config in ["A", "D"] {
            for width in [4, 8] {
                specs.push(spec_for(bench_name, config, width, 1500));
            }
        }
    }
    let expected: HashMap<u64, Vec<u8>> = specs.iter().map(|s| (s.digest, local_body(s))).collect();
    let coord = Coordinator::bind("127.0.0.1:0", specs.clone(), SchedOptions::default()).unwrap();
    let addr = coord.local_addr().to_string();
    let workers: Vec<_> = (0..3)
        .map(|_| {
            let addr = addr.clone();
            thread::spawn(move || run_worker(&WorkerOptions::new(addr)).unwrap())
        })
        .collect();
    let merged = Mutex::new(HashMap::new());
    let quarantines = Mutex::new(Vec::new());
    let report = collecting_run(coord, &quarantines, &merged);
    let summaries: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();

    assert_eq!(report.cells_completed, specs.len());
    assert_eq!(report.cells_quarantined, 0);
    assert_eq!(report.worker_deaths, 0);
    assert!(quarantines.lock().unwrap().is_empty());
    assert_eq!(
        *merged.lock().unwrap(),
        expected,
        "merged grid must be byte-identical"
    );
    // Every worker saw the clean shutdown and together they did all the work.
    assert!(summaries.iter().all(|s| s.all_done));
    assert_eq!(
        summaries.iter().map(|s| s.completed).sum::<u64>(),
        specs.len() as u64
    );
    assert!(report.compute_seconds > 0.0 && report.wall_seconds > 0.0);
}

#[test]
fn deserting_worker_dies_and_its_cell_is_redispatched() {
    let specs = vec![spec_for("compress", "B", 4, 1200)];
    let expected = local_body(&specs[0]);
    let coord = Coordinator::bind("127.0.0.1:0", specs, SchedOptions::default()).unwrap();
    let addr = coord.local_addr();
    let merged = Mutex::new(HashMap::new());
    let quarantines = Mutex::new(Vec::new());

    let (report, leased, summary) = thread::scope(|s| {
        let run = s.spawn(|| collecting_run(coord, &quarantines, &merged));

        // A protocol-fluent deserter: takes the lease, then vanishes.
        let mut stream = TcpStream::connect(addr).unwrap();
        write_worker_msg(
            &mut stream,
            &WorkerMsg::Hello {
                worker_id: 0,
                pid: 1,
            },
        )
        .unwrap();
        let Some(CoordMsg::Welcome { worker_id }) = read_coord_msg(&mut stream).unwrap() else {
            panic!("expected Welcome");
        };
        write_worker_msg(&mut stream, &WorkerMsg::Request { worker_id }).unwrap();
        let Some(CoordMsg::Assign(leased)) = read_coord_msg(&mut stream).unwrap() else {
            panic!("expected Assign");
        };
        drop(stream); // the desertion

        let addr = addr.to_string();
        let honest = s.spawn(move || run_worker(&WorkerOptions::new(addr)).unwrap());
        (run.join().unwrap(), leased, honest.join().unwrap())
    });
    assert_eq!(leased.bench, "compress");

    assert_eq!(report.cells_completed, 1);
    assert_eq!(
        report.worker_deaths, 1,
        "the deserter must be declared dead"
    );
    assert!(report.redispatched >= 1, "its lease must be re-dispatched");
    assert_eq!(summary.completed, 1);
    assert_eq!(merged.lock().unwrap().get(&leased.digest), Some(&expected));
}

#[test]
fn corrupt_result_is_rejected_and_cell_still_completes() {
    let specs = vec![spec_for("eqntott", "C", 8, 1200)];
    let digest = specs[0].digest;
    let expected = local_body(&specs[0]);
    let opts = SchedOptions {
        poison_threshold: 3, // one strike must not quarantine
        ..SchedOptions::default()
    };
    let coord = Coordinator::bind("127.0.0.1:0", specs, opts).unwrap();
    let addr = coord.local_addr();
    let merged = Mutex::new(HashMap::new());
    let quarantines = Mutex::new(Vec::new());

    let report = thread::scope(|s| {
        let run = s.spawn(|| collecting_run(coord, &quarantines, &merged));

        // A liar: takes the lease, submits garbage bytes as the result.
        let mut stream = TcpStream::connect(addr).unwrap();
        write_worker_msg(
            &mut stream,
            &WorkerMsg::Hello {
                worker_id: 0,
                pid: 2,
            },
        )
        .unwrap();
        let Some(CoordMsg::Welcome { worker_id }) = read_coord_msg(&mut stream).unwrap() else {
            panic!("expected Welcome");
        };
        write_worker_msg(&mut stream, &WorkerMsg::Request { worker_id }).unwrap();
        let Some(CoordMsg::Assign(spec)) = read_coord_msg(&mut stream).unwrap() else {
            panic!("expected Assign");
        };
        write_worker_msg(
            &mut stream,
            &WorkerMsg::Result {
                worker_id,
                digest: spec.digest,
                seconds_bits: 0.0f64.to_bits(),
                body: b"not a simulation result".to_vec(),
            },
        )
        .unwrap();
        // The coordinator acknowledges receipt even of a rejected result.
        assert!(matches!(
            read_coord_msg(&mut stream).unwrap(),
            Some(CoordMsg::Ack)
        ));
        drop(stream);

        let addr = addr.to_string();
        let honest = s.spawn(move || run_worker(&WorkerOptions::new(addr)).unwrap());
        let report = run.join().unwrap();
        honest.join().unwrap();
        report
    });

    assert_eq!(report.cells_completed, 1);
    assert_eq!(report.cells_quarantined, 0);
    assert!(
        report.corrupt_results >= 1,
        "the garbage body must be counted"
    );
    assert_eq!(merged.lock().unwrap().get(&digest), Some(&expected));
}

/// A raw-frames worker: says `Hello` and returns the welcomed stream
/// with its id.
fn hello(addr: std::net::SocketAddr, pid: u64) -> (TcpStream, u64) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write_worker_msg(&mut stream, &WorkerMsg::Hello { worker_id: 0, pid }).unwrap();
    let Some(CoordMsg::Welcome { worker_id }) = read_coord_msg(&mut stream).unwrap() else {
        panic!("expected Welcome");
    };
    (stream, worker_id)
}

#[test]
fn a_worker_returns_when_its_session_ends_not_after_a_heartbeat_period() {
    let specs = vec![spec_for("compress", "A", 4, 1000)];
    let coord = Coordinator::bind("127.0.0.1:0", specs, SchedOptions::default()).unwrap();
    let opts = WorkerOptions {
        heartbeat_every: Duration::from_secs(30),
        ..WorkerOptions::new(coord.local_addr().to_string())
    };
    let merged = Mutex::new(HashMap::new());
    let quarantines = Mutex::new(Vec::new());
    let (report, summary, took) = thread::scope(|s| {
        let run = s.spawn(|| collecting_run(coord, &quarantines, &merged));
        let t0 = Instant::now();
        let summary = run_worker(&opts).unwrap();
        let took = t0.elapsed();
        (run.join().unwrap(), summary, took)
    });
    assert_eq!(report.cells_completed, 1);
    assert!(summary.all_done && summary.completed == 1, "{summary:?}");
    // The heartbeat thread waits on the session's end, not on a sleep
    // of `heartbeat_every`.
    assert!(
        took < Duration::from_secs(5),
        "run_worker took {took:?} with a 30 s heartbeat period"
    );
}

#[test]
fn an_idle_request_is_held_until_a_cell_becomes_dispatchable() {
    let spec = spec_for("compress", "A", 4, 1000);
    let body = local_body(&spec);
    let opts = SchedOptions {
        idle_wait_ms: 10_000,
        ..SchedOptions::default()
    };
    let coord = Coordinator::bind("127.0.0.1:0", vec![spec.clone()], opts).unwrap();
    let addr = coord.local_addr();
    // Not scoped: a failed check below must end the test, not wait on
    // a run whose grid never completes.
    let run = thread::spawn(move || {
        let merged = Mutex::new(HashMap::new());
        let quarantines = Mutex::new(Vec::new());
        let report = collecting_run(coord, &quarantines, &merged);
        (report, merged.into_inner().unwrap())
    });

    // Worker 1 leases the only cell.
    let (mut w1, id1) = hello(addr, 1);
    write_worker_msg(&mut w1, &WorkerMsg::Request { worker_id: id1 }).unwrap();
    let Some(CoordMsg::Assign(leased)) = read_coord_msg(&mut w1).unwrap() else {
        panic!("expected Assign");
    };
    assert_eq!(leased.digest, spec.digest);

    // Worker 2 asks while that lease stands: no answer yet, where an
    // unheld request would be answered `Idle` at once.
    let (mut w2, id2) = hello(addr, 2);
    write_worker_msg(&mut w2, &WorkerMsg::Request { worker_id: id2 }).unwrap();
    w2.set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    match read_coord_msg(&mut w2) {
        Err(WireError::Io(e))
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) => {}
        other => panic!("the request must be held, got {other:?}"),
    }

    // Worker 1 fails the cell: the held request gets it, long before
    // its 10 s hold is over.
    write_worker_msg(
        &mut w1,
        &WorkerMsg::Failed {
            worker_id: id1,
            digest: spec.digest,
            error: "injected".into(),
        },
    )
    .unwrap();
    let failed_at = Instant::now();
    assert!(matches!(
        read_coord_msg(&mut w1).unwrap(),
        Some(CoordMsg::Ack)
    ));
    w2.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let answer = read_coord_msg(&mut w2).unwrap();
    let took = failed_at.elapsed();
    assert!(
        matches!(&answer, Some(CoordMsg::Assign(s)) if s.digest == spec.digest),
        "expected Assign of the failed cell, got {answer:?}"
    );
    assert!(
        took < Duration::from_secs(5),
        "answered {took:?} after the failure"
    );

    // Worker 2 completes the grid, so the run ends.
    write_worker_msg(
        &mut w2,
        &WorkerMsg::Result {
            worker_id: id2,
            digest: spec.digest,
            seconds_bits: 0.0f64.to_bits(),
            body: body.clone(),
        },
    )
    .unwrap();
    assert!(matches!(
        read_coord_msg(&mut w2).unwrap(),
        Some(CoordMsg::Ack)
    ));
    drop((w1, w2));
    let (report, merged) = run.join().unwrap();
    assert_eq!(report.cells_completed, 1);
    assert_eq!(merged.get(&spec.digest), Some(&body));
}

#[test]
fn a_finished_grid_stops_counting_heartbeats_as_activity() {
    let spec = spec_for("compress", "A", 4, 1000);
    let body = local_body(&spec);
    let coord =
        Coordinator::bind("127.0.0.1:0", vec![spec.clone()], SchedOptions::default()).unwrap();
    let addr = coord.local_addr();
    // Not scoped: on a failure the run must not hold the test open.
    let run = thread::spawn(move || {
        let merged = Mutex::new(HashMap::new());
        let quarantines = Mutex::new(Vec::new());
        collecting_run(coord, &quarantines, &merged)
    });

    // Worker 2 registers, then only heartbeats, as a worker does while
    // it waits for an answer the network lost.
    let (mut w2, id2) = hello(addr, 2);
    // Worker 1 completes the grid and leaves.
    let (mut w1, id1) = hello(addr, 1);
    write_worker_msg(&mut w1, &WorkerMsg::Request { worker_id: id1 }).unwrap();
    let Some(CoordMsg::Assign(leased)) = read_coord_msg(&mut w1).unwrap() else {
        panic!("expected Assign");
    };
    write_worker_msg(
        &mut w1,
        &WorkerMsg::Result {
            worker_id: id1,
            digest: leased.digest,
            seconds_bits: 0.0f64.to_bits(),
            body,
        },
    )
    .unwrap();
    assert!(matches!(
        read_coord_msg(&mut w1).unwrap(),
        Some(CoordMsg::Ack)
    ));
    drop(w1);
    let completed = Instant::now();

    // Heartbeat at the worker's default period until the run ends (the
    // coordinator hangs up) or 20 s pass.
    while !run.is_finished() && completed.elapsed() < Duration::from_secs(20) {
        if write_worker_msg(&mut w2, &WorkerMsg::Heartbeat { worker_id: id2 }).is_err() {
            break;
        }
        thread::sleep(Duration::from_millis(200));
    }
    let took = completed.elapsed();
    drop(w2);
    assert_eq!(run.join().unwrap().cells_completed, 1);
    assert!(
        took < Duration::from_secs(10),
        "the run ended {took:?} after the grid completed"
    );
}
