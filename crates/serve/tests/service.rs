//! Integration tests for the serve engine + TCP front end:
//! coalescing/determinism, admission control, deadlines, validation,
//! corrupt-frame containment and warm restart — all against a real
//! listener on an ephemeral port.

use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use ddsc_serve::proto::{read_response, write_request, Request, Response, SubmitRequest};
use ddsc_serve::{Engine, EngineConfig, JobEvent, Server, Submission, WorkerGate};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ddsc-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn cell(seed: u64) -> SubmitRequest {
    SubmitRequest {
        bench: "compress".to_string(),
        config: "C".to_string(),
        width: 8,
        trace_len: 2_000,
        seed,
    }
}

/// One test client: a connection plus helpers that speak the protocol.
struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: BufWriter::new(stream),
        }
    }

    fn send(&mut self, req: &Request) {
        write_request(&mut self.writer, req).expect("write");
        self.writer.flush().expect("flush");
    }

    fn recv(&mut self) -> Response {
        read_response(&mut self.reader)
            .expect("read")
            .expect("open stream")
    }

    /// Sends a submit and reads frames through the terminal one.
    fn submit_terminal(&mut self, req: &SubmitRequest) -> Response {
        self.send(&Request::Submit(req.clone()));
        loop {
            let resp = self.recv();
            if resp.is_terminal() {
                return resp;
            }
        }
    }

    fn stats(&mut self) -> ddsc_serve::StatsSnapshot {
        self.send(&Request::Stats);
        match self.recv() {
            Response::Stats(s) => s,
            other => panic!("expected stats, got {other:?}"),
        }
    }
}

fn spawn_server(config: EngineConfig) -> (std::net::SocketAddr, ddsc_serve::StopHandle) {
    let server = Server::bind("127.0.0.1:0", config, None).expect("bind");
    let addr = server.local_addr();
    let stop = server.stop_handle();
    std::thread::spawn(move || server.run());
    (addr, stop)
}

#[test]
fn concurrent_identical_submissions_coalesce_onto_one_simulation() {
    let (addr, stop) = spawn_server(EngineConfig {
        workers: 4,
        ..EngineConfig::default()
    });

    const CLIENTS: usize = 8;
    let req = cell(41);
    let bodies: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let req = req.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(addr);
                    match client.submit_terminal(&req) {
                        Response::Result { body, .. } => body,
                        other => panic!("expected result, got {other:?}"),
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(bodies.len(), CLIENTS);
    assert!(!bodies[0].is_empty());
    for body in &bodies[1..] {
        assert_eq!(body, &bodies[0], "every client gets byte-identical bytes");
    }

    let stats = Client::connect(addr).stats();
    assert_eq!(stats.completed, 1, "exactly one simulation ran");
    assert_eq!(stats.accepted, 1, "exactly one admission");
    assert_eq!(
        stats.coalesced + stats.cache_hits,
        (CLIENTS - 1) as u64,
        "every other client coalesced or hit the cache"
    );
    // A repeat after completion is a pure cache hit, still byte-identical.
    let mut client = Client::connect(addr);
    match client.submit_terminal(&req) {
        Response::Result { body, .. } => assert_eq!(body, bodies[0]),
        other => panic!("expected cached result, got {other:?}"),
    }
    assert_eq!(client.stats().completed, 1, "cache hit did not re-simulate");
    stop.stop();
}

#[test]
fn burst_beyond_queue_depth_gets_exactly_m_typed_rejections() {
    const K: usize = 3; // queue capacity
    const M: usize = 4; // overflow
    let gate = Arc::new(WorkerGate::closed());
    let (addr, stop) = spawn_server(EngineConfig {
        workers: 1,
        queue_depth: K,
        gate: Some(Arc::clone(&gate)),
        ..EngineConfig::default()
    });

    // A plug job: once its Started frame arrives, the single worker
    // holds it at the closed gate and the queue is empty again.
    let mut plug = Client::connect(addr);
    plug.send(&Request::Submit(cell(100)));
    assert!(matches!(plug.recv(), Response::Queued { .. }));
    assert!(matches!(plug.recv(), Response::Started));

    // Burst K+M distinct cells on separate connections. Admission is
    // answered immediately (Queued/Rejected), so this is deterministic:
    // exactly K fit, exactly M overflow.
    let mut accepted = Vec::new();
    let mut rejections = 0;
    for i in 0..(K + M) {
        let mut client = Client::connect(addr);
        client.send(&Request::Submit(cell(200 + i as u64)));
        match client.recv() {
            Response::Queued { .. } => accepted.push(client),
            Response::Rejected { reason } => {
                assert!(reason.contains("queue full"), "reason: {reason}");
                rejections += 1;
            }
            other => panic!("expected queued/rejected, got {other:?}"),
        }
    }
    assert_eq!(accepted.len(), K, "exactly K admitted");
    assert_eq!(rejections, M, "exactly M typed rejections");

    // Open the gate: the plug and every accepted request complete —
    // zero dropped, zero hung.
    gate.open();
    assert!(matches!(plug.recv_terminal(), Response::Result { .. }));
    for mut client in accepted {
        assert!(matches!(client.recv_terminal(), Response::Result { .. }));
    }

    let stats = Client::connect(addr).stats();
    assert_eq!(stats.rejected_busy, M as u64);
    assert_eq!(stats.completed, (K + 1) as u64);
    assert_eq!(stats.queue_depth, 0);
    stop.stop();
}

impl Client {
    /// Reads frames until the terminal one (for already-sent submits).
    fn recv_terminal(&mut self) -> Response {
        loop {
            let resp = self.recv();
            if resp.is_terminal() {
                return resp;
            }
        }
    }
}

#[test]
fn deadline_times_the_cell_out_without_stalling_the_worker() {
    let (addr, stop) = spawn_server(EngineConfig {
        workers: 1,
        deadline: Some(Duration::from_millis(5)),
        ..EngineConfig::default()
    });

    let mut client = Client::connect(addr);
    // Large enough that simulation cannot finish in 5 ms.
    let big = SubmitRequest {
        trace_len: 500_000,
        ..cell(7)
    };
    match client.submit_terminal(&big) {
        Response::TimedOut { error } => {
            assert!(error.contains("timed out"), "error: {error}")
        }
        other => panic!("expected timeout, got {other:?}"),
    }

    // The worker survived: a tiny cell on the same connection completes
    // (1k instructions simulate in well under 5 ms even in debug).
    let small = SubmitRequest {
        trace_len: 200,
        ..cell(8)
    };
    match client.submit_terminal(&small) {
        Response::Result { body, .. } => assert!(!body.is_empty()),
        other => panic!("expected result, got {other:?}"),
    }

    let stats = client.stats();
    assert_eq!(stats.timed_out, 1);
    assert_eq!(stats.completed, 1);

    // Timeouts are not memoised: resubmitting the big cell re-runs it
    // (accepted counts 3 admissions, not 2).
    match client.submit_terminal(&big) {
        Response::TimedOut { .. } => {}
        other => panic!("expected second timeout, got {other:?}"),
    }
    assert_eq!(client.stats().accepted, 3);
    stop.stop();
}

#[test]
fn validation_rejects_garbage_but_keeps_the_connection() {
    let (addr, stop) = spawn_server(EngineConfig::default());
    let mut client = Client::connect(addr);

    for (bad, needle) in [
        (
            SubmitRequest {
                bench: "nope".to_string(),
                ..cell(1)
            },
            "unknown benchmark",
        ),
        (
            SubmitRequest {
                config: "Z".to_string(),
                ..cell(1)
            },
            "unknown configuration",
        ),
        (
            SubmitRequest {
                width: 0,
                ..cell(1)
            },
            "width",
        ),
        (
            SubmitRequest {
                trace_len: 0,
                ..cell(1)
            },
            "trace_len",
        ),
    ] {
        match client.submit_terminal(&bad) {
            Response::Invalid { reason } => {
                assert!(reason.contains(needle), "reason {reason:?} vs {needle}")
            }
            other => panic!("expected invalid, got {other:?}"),
        }
    }

    // Well-framed invalid requests leave the connection usable.
    assert!(matches!(
        client.submit_terminal(&cell(1)),
        Response::Result { .. }
    ));
    assert_eq!(client.stats().rejected_invalid, 4);
    stop.stop();
}

#[test]
fn corrupt_frames_poison_one_connection_not_the_daemon() {
    let (addr, stop) = spawn_server(EngineConfig::default());

    // Raw garbage: the handler answers with a typed Invalid (best
    // effort) and drops the connection.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(&[0xFF; 64]).expect("write garbage");
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    match read_response(&mut reader) {
        Ok(Some(Response::Invalid { reason })) => {
            assert!(reason.contains("bad frame"), "reason: {reason}")
        }
        Ok(None) | Err(_) => {} // connection closed before the reply: also fine
        Ok(Some(other)) => panic!("expected invalid, got {other:?}"),
    }

    // The daemon is still serving everyone else.
    let mut client = Client::connect(addr);
    client.send(&Request::Ping);
    assert!(matches!(client.recv(), Response::Pong));
    assert!(matches!(
        client.submit_terminal(&cell(2)),
        Response::Result { .. }
    ));
    stop.stop();
}

#[test]
fn a_client_that_stops_reading_is_hung_up_on() {
    let (addr, stop) = spawn_server(EngineConfig::default());
    // The answers to this many `Stats` requests (~100 B each) overfill
    // the socket buffers between server and client many times over.
    const REQUESTS: usize = 400_000;
    let mut requests = Vec::new();
    for _ in 0..REQUESTS {
        write_request(&mut requests, &Request::Stats).expect("encode");
    }
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut sender = stream.try_clone().unwrap();
    let (sent, sending) = mpsc::channel();
    let send_all = std::thread::spawn(move || {
        // Blocks once the server stops reading, which it does while its
        // own write of an answer blocks on this client.
        let result = sender.write_all(&requests);
        let _ = sender.shutdown(Shutdown::Write);
        let _ = sent.send(result);
    });
    // Read nothing until the server hangs up, which fails the send. A
    // server that waits on its blocked write forever is read after 10 s,
    // and then answers every request.
    let hung_up = matches!(sending.recv_timeout(Duration::from_secs(10)), Ok(Err(_)));
    let mut reader = BufReader::new(stream);
    let mut answered = 0;
    while let Ok(Some(resp)) = read_response(&mut reader) {
        assert!(matches!(resp, Response::Stats(_)), "got {resp:?}");
        answered += 1;
    }
    send_all.join().unwrap();
    assert!(
        hung_up && answered < REQUESTS,
        "the connection must close before every answer arrives \
         (hung up: {hung_up}, {answered} of {REQUESTS} answered)"
    );
    // The daemon still serves everyone else.
    let mut client = Client::connect(addr);
    client.send(&Request::Ping);
    assert!(matches!(client.recv(), Response::Pong));
    stop.stop();
}

#[test]
fn engine_restart_on_same_run_dir_serves_journaled_cells_warm() {
    let dir = tmpdir("restart");
    let reqs: Vec<SubmitRequest> = (0..3).map(cell).collect();

    // First engine: simulate three cells, remember their bytes.
    let engine = Engine::start(EngineConfig {
        workers: 2,
        run_dir: Some(dir.clone()),
        ..EngineConfig::default()
    })
    .expect("start");
    let mut bodies = Vec::new();
    for req in &reqs {
        let Submission::Joined { events, .. } = engine.submit(req) else {
            panic!("expected admission");
        };
        let body = loop {
            match events.recv().expect("event") {
                JobEvent::Started => continue,
                JobEvent::Finished(ddsc_serve::Outcome::Done { body, .. }) => break body,
                JobEvent::Finished(other) => panic!("expected done, got {other:?}"),
            }
        };
        bodies.push(body);
    }
    engine.shutdown();

    // Second engine on the same directory: the journal + cell store
    // warm the cache, and the same requests are served byte-identically
    // without simulating anything.
    let engine = Engine::start(EngineConfig {
        workers: 2,
        run_dir: Some(dir.clone()),
        ..EngineConfig::default()
    })
    .expect("restart");
    assert_eq!(engine.stats().resumed_cells, 3, "all three cells resumed");
    for (req, expected) in reqs.iter().zip(&bodies) {
        match engine.submit(req) {
            Submission::Cached(ddsc_serve::Outcome::Done { body, .. }) => {
                assert_eq!(&*body, &**expected, "byte-identical across restart")
            }
            other => panic!("expected cached, got {other:?}"),
        }
    }
    assert_eq!(engine.stats().completed, 0, "nothing re-simulated");
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_cell_rerun_after_a_failed_restore_resumes_once() {
    use ddsc_experiments::CellStore;
    use ddsc_serve::Outcome;

    let dir = tmpdir("rerun");
    let config = || EngineConfig {
        workers: 1,
        run_dir: Some(dir.clone()),
        ..EngineConfig::default()
    };
    let reqs: Vec<SubmitRequest> = (0..3).map(cell).collect();
    let engine = Engine::start(config()).expect("start");
    for req in &reqs {
        assert!(matches!(finish(engine.submit(req)), Outcome::Done { .. }));
    }
    engine.shutdown();

    // A damaged stored file: its cell no longer restores, so the next
    // request for it re-runs and journals a second CellFinished.
    let r = &reqs[0];
    let digest = ddsc_serve::request_digest(&r.bench, &r.config, r.width, r.trace_len, r.seed);
    let stored = CellStore::new(dir.join("cells")).path_for(digest);
    std::fs::write(stored, b"damaged").unwrap();
    let engine = Engine::start(config()).expect("restart");
    assert_eq!(engine.stats().resumed_cells, 2);
    let rerun = engine.submit(r);
    assert!(matches!(rerun, Submission::Joined { .. }), "it re-runs");
    assert!(matches!(finish(rerun), Outcome::Done { .. }));
    engine.shutdown();

    // Two CellFinished records name that digest now; it is one cell.
    let engine = Engine::start(config()).expect("second restart");
    assert_eq!(engine.stats().resumed_cells, 3, "each digest resumes once");
    for req in &reqs {
        assert!(matches!(engine.submit(req), Submission::Cached(_)));
    }
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Waits out one admitted submission and returns its terminal outcome.
fn finish(submission: Submission) -> ddsc_serve::Outcome {
    match submission {
        Submission::Cached(outcome) => outcome,
        Submission::Joined { events, .. } => loop {
            match events.recv().expect("event") {
                JobEvent::Started => continue,
                JobEvent::Finished(outcome) => break outcome,
            }
        },
        other => panic!("expected admission, got {other:?}"),
    }
}

#[test]
fn config_labels_name_one_cell_whatever_their_case() {
    let dir = tmpdir("labels");
    let engine = Engine::start(EngineConfig {
        workers: 1,
        run_dir: Some(dir.clone()),
        ..EngineConfig::default()
    })
    .expect("start");
    let mut bodies = Vec::new();
    for label in ["D", "d", "D"] {
        let req = SubmitRequest {
            bench: "compress".to_string(),
            config: label.to_string(),
            width: 8,
            trace_len: 2_000,
            seed: 1996,
        };
        match finish(engine.submit(&req)) {
            ddsc_serve::Outcome::Done { body, .. } => bodies.push(body),
            other => panic!("expected done, got {other:?}"),
        }
    }
    let stats = engine.stats();
    engine.shutdown();
    assert_eq!(stats.completed, 1, "one simulation for D, d, D");
    assert_eq!(stats.cache_hits, 2);
    assert!(bodies.iter().all(|b| b == &bodies[0]));
    let stored = std::fs::read_dir(dir.join("cells"))
        .expect("cell store")
        .count();
    assert_eq!(stored, 1, "one cell-store file");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_cell_journaled_under_another_digest_simulates_again_after_restart() {
    use ddsc_experiments::{CellKey, CellStore, MODEL_VERSION};
    use ddsc_util::{fnv1a, Journal, JournalRecord};

    let req = cell(5);
    let key = CellKey::parse(&req.bench, &req.config, req.width, req.seed, req.trace_len).unwrap();
    let result = ddsc_core::simulate_prepared(&key.prepare().unwrap(), &key.sim_config());
    // The first serve digest: the raw request fields, blind to the
    // SimConfig and the model version.
    let mut first = b"ddsc-serve-cell-v1\0".to_vec();
    for field in [&req.bench, &req.config] {
        first.extend_from_slice(field.as_bytes());
        first.push(0);
    }
    first.extend_from_slice(&req.width.to_le_bytes());
    first.extend_from_slice(&req.trace_len.to_le_bytes());
    first.extend_from_slice(&req.seed.to_le_bytes());
    let stale_digests = [
        ("first-scheme", fnv1a(&first)),
        ("previous-version", key.digest_under(MODEL_VERSION - 1)),
    ];
    for (tag, stale) in stale_digests {
        assert_ne!(stale, key.digest(), "{tag}");
        let dir = tmpdir(tag);
        CellStore::new(dir.join("cells"))
            .save(stale, &result)
            .unwrap();
        {
            let (journal, _) = Journal::open(&dir.join("serve_journal.bin")).unwrap();
            journal
                .append(&JournalRecord::CellFinished {
                    bench: req.bench.clone(),
                    config: req.config.clone(),
                    width: req.width,
                    digest: stale,
                })
                .unwrap();
        }
        let engine = Engine::start(EngineConfig {
            workers: 1,
            run_dir: Some(dir.clone()),
            ..EngineConfig::default()
        })
        .expect("restart");
        let submission = engine.submit(&req);
        assert!(
            matches!(submission, Submission::Joined { .. }),
            "{tag}: the stale cell must not be served"
        );
        let outcome = finish(submission);
        let stats = engine.stats();
        engine.shutdown();
        let ddsc_serve::Outcome::Done { body, .. } = outcome else {
            panic!("{tag}: expected done, got {outcome:?}");
        };
        let mut expected = Vec::new();
        result.encode_to(&mut expected);
        assert_eq!(*body, expected, "{tag}");
        assert_eq!((stats.completed, stats.cache_hits), (1, 0), "{tag}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
