//! The worker process: connects to a coordinator, pulls cells,
//! simulates them, and reports canonical result bytes.
//!
//! Robustness properties:
//!
//! - **Reconnect with backoff** — a lost connection is retried through
//!   the `ddsc-util` [`Backoff`] schedule; when the coordinator stays
//!   unreachable (it finished and exited, or crashed for good) the
//!   worker exits cleanly rather than spinning.
//! - **Digest verification** — before simulating, the worker parses the
//!   spec into a [`CellKey`](ddsc_experiments::CellKey) and recomputes
//!   its digest; an unparseable spec or a mismatch (worker/coordinator
//!   drift in `SimConfig` or model version) is reported as a failure
//!   instead of bytes that could never merge.
//! - **Containment** — a panicking simulation is caught by the
//!   [`CellRunner`] and reported as [`WorkerMsg::Failed`]; the worker
//!   lives on to compute other cells.
//! - **Heartbeats** — a background thread emits one-way heartbeats
//!   while the main thread computes, so a long cell does not read as a
//!   dead worker.
//!
//! The worker keeps one [`CellRunner`] for its whole life, so the
//! prepared traces (the expensive shared pre-pass) in the runner's cache
//! outlive cells and reconnects — the same amortization the lab gets
//! from its runner, and the reason a small worker fleet scales
//! near-linearly on the paper grid.

use std::io::{self, BufReader};
use std::net::TcpStream;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ddsc_experiments::CellRunner;
use ddsc_util::net::WORKER_POLICY;
use ddsc_util::Backoff;

use crate::proto::{read_coord_msg, write_worker_msg, CellSpec, CoordMsg, WorkerMsg};

/// Worker tunables.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Coordinator address (`host:port`).
    pub connect: String,
    /// Heartbeat period while a session lasts. Before each beat the
    /// heartbeat thread waits this long for the session to end, so an
    /// ended session (after `AllDone`, or before a reconnect) is not
    /// held up by the period.
    pub heartbeat_every: Duration,
    /// Reconnect attempts before concluding the coordinator is gone.
    pub reconnect_attempts: usize,
    /// Test-only adversary mode: simulate honestly, then perturb the
    /// cycle count before canonical re-encoding. The body stays
    /// well-formed (it passes [`crate::coordinator::validate_body`]),
    /// which is exactly what spot checks exist to catch.
    pub byzantine: bool,
}

impl WorkerOptions {
    /// Defaults for a given coordinator address.
    pub fn new(connect: impl Into<String>) -> WorkerOptions {
        WorkerOptions {
            connect: connect.into(),
            heartbeat_every: Duration::from_millis(200),
            reconnect_attempts: 8,
            byzantine: false,
        }
    }
}

/// What one worker process did with its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSummary {
    /// The coordinator-assigned worker id (0 if never welcomed).
    pub worker_id: u64,
    /// Cells computed and submitted successfully.
    pub completed: u64,
    /// Cells reported as failed.
    pub failed: u64,
    /// Whether the run ended with an explicit `AllDone` (as opposed to
    /// the coordinator becoming unreachable).
    pub all_done: bool,
}

enum SessionEnd {
    AllDone,
    Lost,
}

/// Runs a worker until the coordinator reports the grid complete (or
/// stays unreachable through the whole backoff schedule — also a clean
/// exit: the coordinator owns run state, a worker holds none).
pub fn run_worker(opts: &WorkerOptions) -> io::Result<WorkerSummary> {
    let mut summary = WorkerSummary {
        worker_id: 0,
        completed: 0,
        failed: 0,
        all_done: false,
    };
    let runner = CellRunner::default();
    // Sessions that die before a `Welcome` arrives count against the
    // reconnect budget too: behind a proxy (or any forwarder) the
    // TCP connect can keep succeeding while the coordinator behind it
    // is gone, and without this a worker would hot-loop forever on
    // connect → Hello → dead session.
    let mut strikes = 0usize;
    loop {
        if strikes >= opts.reconnect_attempts {
            eprintln!("ddsc worker: coordinator unreachable, exiting");
            return Ok(summary);
        }
        if strikes > 0 {
            std::thread::sleep(Duration::from_millis(50 << strikes.min(5)));
        }
        let Some(stream) = connect_with_backoff(opts) else {
            eprintln!("ddsc worker: coordinator unreachable, exiting");
            return Ok(summary);
        };
        WORKER_POLICY.apply(&stream);
        let mut reader = BufReader::new(stream.try_clone()?);
        let writer = Arc::new(Mutex::new(stream));

        // Introduce ourselves (or re-introduce after a reconnect).
        let hello = WorkerMsg::Hello {
            worker_id: summary.worker_id,
            pid: std::process::id() as u64,
        };
        if send(&writer, &hello).is_err() {
            strikes += 1;
            continue;
        }
        match read_coord_msg(&mut reader) {
            Ok(Some(CoordMsg::Welcome { worker_id })) => {
                summary.worker_id = worker_id;
                strikes = 0;
            }
            _ => {
                strikes += 1;
                continue;
            }
        }

        // Heartbeats flow from a side thread through the shared writer;
        // the mutex serializes them against the main request stream.
        // Dropping `stop` ends the thread's wait at once.
        let (stop, stopped) = mpsc::channel::<()>();
        let beat = {
            let writer = Arc::clone(&writer);
            let every = opts.heartbeat_every;
            let worker_id = summary.worker_id;
            std::thread::spawn(move || {
                while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(every) {
                    if send(&writer, &WorkerMsg::Heartbeat { worker_id }).is_err() {
                        return;
                    }
                }
            })
        };

        let end = session(&mut reader, &writer, &mut summary, &runner, opts.byzantine);
        drop(stop);
        let _ = beat.join();
        match end {
            SessionEnd::AllDone => {
                summary.all_done = true;
                return Ok(summary);
            }
            SessionEnd::Lost => continue,
        }
    }
}

fn connect_with_backoff(opts: &WorkerOptions) -> Option<TcpStream> {
    let backoff = Backoff::new(Duration::from_millis(50), Duration::from_secs(1));
    let mut delays = backoff.delays();
    for attempt in 0..opts.reconnect_attempts {
        match TcpStream::connect(&opts.connect) {
            Ok(stream) => return Some(stream),
            Err(_) if attempt + 1 < opts.reconnect_attempts => {
                std::thread::sleep(delays.next().unwrap_or(Duration::from_secs(1)));
            }
            Err(_) => break,
        }
    }
    None
}

fn send(writer: &Mutex<TcpStream>, msg: &WorkerMsg) -> io::Result<()> {
    let mut stream = writer.lock().expect("worker writer poisoned");
    write_worker_msg(&mut *stream, msg)
}

/// The request/compute/report loop over one live connection.
fn session(
    reader: &mut BufReader<TcpStream>,
    writer: &Mutex<TcpStream>,
    summary: &mut WorkerSummary,
    runner: &CellRunner,
    byzantine: bool,
) -> SessionEnd {
    let worker_id = summary.worker_id;
    loop {
        if send(writer, &WorkerMsg::Request { worker_id }).is_err() {
            return SessionEnd::Lost;
        }
        match read_coord_msg(reader) {
            Ok(Some(CoordMsg::AllDone)) => return SessionEnd::AllDone,
            Ok(Some(CoordMsg::Idle { wait_ms })) => {
                std::thread::sleep(Duration::from_millis(u64::from(wait_ms).min(1000)));
            }
            Ok(Some(CoordMsg::Assign(spec))) => {
                let report = match compute_with(&spec, runner, byzantine) {
                    Ok((body, seconds)) => {
                        summary.completed += 1;
                        WorkerMsg::Result {
                            worker_id,
                            digest: spec.digest,
                            seconds_bits: seconds.to_bits(),
                            body,
                        }
                    }
                    Err(error) => {
                        summary.failed += 1;
                        WorkerMsg::Failed {
                            worker_id,
                            digest: spec.digest,
                            error,
                        }
                    }
                };
                if send(writer, &report).is_err() {
                    return SessionEnd::Lost;
                }
                match read_coord_msg(reader) {
                    Ok(Some(CoordMsg::Ack)) => {}
                    Ok(Some(CoordMsg::AllDone)) => return SessionEnd::AllDone,
                    _ => return SessionEnd::Lost,
                }
            }
            // Welcome out of sequence, clean close, or any wire error:
            // tear the session down and reconnect.
            _ => return SessionEnd::Lost,
        }
    }
}

/// Simulates one cell: returns the canonical result bytes and the
/// compute seconds, or a rendered failure. The hidden `--byzantine`
/// adversary knob simulates honestly, then inflates the cycle count
/// (keeping instructions and every sub-statistic intact) and re-encodes
/// canonically, so the lie is structurally valid and only a second
/// opinion can expose it.
fn compute_with(
    spec: &CellSpec,
    runner: &CellRunner,
    byzantine: bool,
) -> Result<(Vec<u8>, f64), String> {
    let key = spec.key()?;
    // Recompute the digest: catches any drift between this binary and
    // the coordinator before it can produce a result that looks
    // mergeable.
    let digest = key.digest();
    if digest != spec.digest {
        return Err(format!(
            "cell digest mismatch: worker computed {digest:#x}, coordinator sent {:#x} \
             (worker/coordinator version drift?)",
            spec.digest
        ));
    }
    let t0 = Instant::now();
    let run = runner
        .run(&key, || key.prepare())
        .map_err(|e| e.to_string())?;
    let mut result = run.result;
    if byzantine {
        // Deterministic perturbation: always an over-count, so the lie
        // cannot collide with the honest value and is itself stable
        // across re-computation (a byzantine worker that confirms its
        // own earlier answer is the hard case for the coordinator).
        result.cycles += 1 + result.cycles / 64;
    }
    let mut body = Vec::with_capacity(256);
    result.encode_to(&mut body);
    Ok((body, t0.elapsed().as_secs_f64()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddsc_core::{simulate_prepared, PaperConfig, PreparedTrace};
    use ddsc_experiments::CellKey;
    use ddsc_workloads::Benchmark;

    fn spec_for(bench: &str, config: &str, width: u32, len: u64) -> CellSpec {
        CellSpec::from(&CellKey::parse(bench, config, width, 1996, len).unwrap())
    }

    #[test]
    fn compute_produces_canonical_bytes_matching_local_simulation() {
        let spec = spec_for("compress", "D", 4, 2000);
        let runner = CellRunner::default();
        let (body, seconds) = compute_with(&spec, &runner, false).expect("cell computes");
        assert!(seconds >= 0.0);
        let trace = Benchmark::Compress.trace(1996, 2000).unwrap();
        let prepared = PreparedTrace::build(&trace);
        let config = ddsc_core::SimConfig::paper(PaperConfig::D, 4);
        let local = simulate_prepared(&prepared, &config);
        let mut expected = Vec::new();
        local.encode_to(&mut expected);
        assert_eq!(body, expected, "worker bytes must match local simulation");
        // And the coordinator-side validator accepts them.
        let validated = crate::coordinator::validate_body(&spec, &body).expect("validates");
        assert_eq!(validated.cycles, local.cycles);
    }

    #[test]
    fn byzantine_bytes_validate_but_differ_from_honest_bytes() {
        let spec = spec_for("compress", "D", 4, 2000);
        let runner = CellRunner::default();
        let (honest, _) = compute_with(&spec, &runner, false).expect("honest computes");
        let (lie, _) = compute_with(&spec, &runner, true).expect("byzantine computes");
        assert_ne!(honest, lie, "perturbation must change the bytes");
        // The lie is well-formed: it decodes and passes every structural
        // check the coordinator applies — only a second opinion differs.
        let honest_r = crate::coordinator::validate_body(&spec, &honest).expect("honest valid");
        let lie_r = crate::coordinator::validate_body(&spec, &lie).expect("lie valid");
        assert!(lie_r.cycles > honest_r.cycles);
        assert_eq!(lie_r.instructions, honest_r.instructions);
        // And it is stable: a byzantine worker re-asked for the same
        // cell confirms its own earlier lie.
        let (lie2, _) = compute_with(&spec, &runner, true).unwrap();
        assert_eq!(lie, lie2);
    }

    #[test]
    fn digest_mismatch_is_refused_before_simulation() {
        let mut spec = spec_for("compress", "A", 4, 2000);
        spec.digest ^= 1;
        let runner = CellRunner::default();
        let err = compute_with(&spec, &runner, false).unwrap_err();
        assert!(err.contains("digest mismatch"), "{err}");
        let key = spec.key().unwrap();
        let mut built = false;
        runner
            .prepared(key.trace(), || {
                built = true;
                key.prepare()
            })
            .unwrap();
        assert!(built, "no trace was generated");
    }

    #[test]
    fn unknown_inputs_are_clean_failures() {
        let runner = CellRunner::default();
        let mut spec = spec_for("compress", "A", 4, 1000);
        spec.bench = "nope".into();
        assert!(compute_with(&spec, &runner, false)
            .unwrap_err()
            .contains("unknown benchmark"));
        let mut spec = spec_for("compress", "A", 4, 1000);
        spec.config = "Z".into();
        assert!(compute_with(&spec, &runner, false)
            .unwrap_err()
            .contains("unknown config"));
    }

    #[test]
    fn a_width_0_spec_is_a_reported_failure_not_a_panic() {
        let mut spec = spec_for("compress", "A", 4, 1000);
        spec.width = 0;
        let runner = CellRunner::default();
        let err = compute_with(&spec, &runner, false).unwrap_err();
        assert!(err.contains("issue width 0"), "{err}");
    }
}
