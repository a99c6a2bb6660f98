//! `serve`: a closed loop of clients over loopback TCP against an
//! in-process `ddsc serve` server.
//!
//! The server runs with two engine workers and a fresh run directory,
//! so the journal and the cell store write as in the README quickstart.
//! Set-up is timed as restarts over a second run directory holding the
//! plan's first cells, as a restarted `ddsc serve` finds its own.
//! The request plan is seeded and `loadtest`-shaped: short cells,
//! about half of the requests repeat an earlier one, and consecutive
//! unique cells cycle benchmark × configuration × width {4, 8}, so ten
//! unique cells share each (benchmark, data seed, length) trace. Each
//! client owns one connection and sends its next request only after
//! the previous one's terminal frame.
//!
//! The traced mode adds two replays of the same plan: through
//! `Engine::submit` in-process (no wire), and cell by cell through the
//! public calls the engine makes per unique cell.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::error::Error;
use std::io::{BufReader, BufWriter, Write as _};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

use ddsc_core::{simulate_prepared, PaperConfig, PreparedTrace, SimConfig, SimResult};
use ddsc_experiments::parallel::par_map;
use ddsc_experiments::CellStore;
use ddsc_serve::proto::{read_response, write_request};
use ddsc_serve::{
    request_digest, Engine, EngineConfig, JobEvent, Request, Response, Server, StatsSnapshot,
    Submission, SubmitRequest,
};
use ddsc_util::{Journal, JournalRecord, Pcg32};
use ddsc_workloads::Benchmark;

use crate::spans::Tracer;
use crate::stats::{median, percentile, tail_supported};
use crate::{load_threads, nproc, peak_rss_mib, Args, Outcome, Scratch};

/// Instructions per requested cell.
pub const DEFAULT_LEN: usize = 2_000;
const WIDTHS: [u32; 2] = [4, 8];
/// Share of requests (per mille) that repeat an earlier one: close to
/// half, but far enough below it that the median request is always a
/// miss rather than sitting on the boundary between ~0.3 ms cache hits
/// and misses two orders of magnitude slower.
const DUP_PERMILLE: u32 = 400;
/// Requests generated; the time budget ends the run long before.
const PLAN_LEN: usize = 50_000;
/// Server restarts timed for `setup_s`.
const SETUP_REPS: usize = 51;
/// Unique cells in the run directory the set-up restarts over.
const WARM_CELLS: usize = 300;
/// Plan prefix the in-process engine replay covers at least, so its
/// p99 has ten samples beyond it.
const ENGINE_MIN_REQUESTS: usize = 2_400;
/// Unique cells replayed layer by layer.
const REPLAY_CELLS: usize = 300;

/// How a request ended.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Result,
    Rejected,
    Failed,
}

/// One request as a client observed it; times in seconds since the
/// phase started.
struct Sample {
    idx: usize,
    send: f64,
    queued: Option<f64>,
    started: Option<f64>,
    end: f64,
    kind: Kind,
    body: Option<Vec<u8>>,
}

impl Sample {
    fn ms(&self) -> f64 {
        (self.end - self.send) * 1e3
    }
}

/// The seeded request plan.
fn plan(seed: u64, len: usize) -> Vec<SubmitRequest> {
    let grid: Vec<(Benchmark, PaperConfig, u32)> = Benchmark::ALL
        .into_iter()
        .flat_map(|b| {
            PaperConfig::ALL
                .into_iter()
                .flat_map(move |c| WIDTHS.into_iter().map(move |w| (b, c, w)))
        })
        .collect();
    let mut rng = Pcg32::new(seed);
    let mut out: Vec<SubmitRequest> = Vec::with_capacity(PLAN_LEN);
    let mut unique = 0usize;
    for i in 0..PLAN_LEN {
        if i > 0 && rng.range(0, 1000) < DUP_PERMILLE {
            let j = rng.range(0, i as u32) as usize;
            out.push(out[j].clone());
            continue;
        }
        let (b, c, w) = grid[unique % grid.len()];
        out.push(SubmitRequest {
            bench: b.name().to_string(),
            config: c.label().to_string(),
            width: w,
            trace_len: len as u64,
            seed: seed.wrapping_add((unique / grid.len()) as u64),
        });
        unique += 1;
    }
    out
}

/// The trace a request simulates: (benchmark, data seed, length).
type TraceKey = (String, u64, u64);

fn trace_key(r: &SubmitRequest) -> TraceKey {
    (r.bench.clone(), r.seed, r.trace_len)
}

fn digest(r: &SubmitRequest) -> u64 {
    request_digest(&r.bench, &r.config, r.width, r.trace_len, r.seed)
}

fn cell_of(r: &SubmitRequest) -> (Benchmark, PaperConfig) {
    let b = Benchmark::ALL
        .into_iter()
        .find(|b| b.name() == r.bench)
        .expect("plan names known benchmarks");
    let c = PaperConfig::ALL
        .into_iter()
        .find(|c| c.label() == r.config)
        .expect("plan names known configurations");
    (b, c)
}

fn engine_config(run_dir: std::path::PathBuf) -> EngineConfig {
    EngineConfig {
        workers: 2,
        run_dir: Some(run_dir),
        ..EngineConfig::default()
    }
}

/// Stops a bound server that never ran: run it on a thread, stop it,
/// wait for it.
fn dispose(server: Server) {
    let stop = server.stop_handle();
    let th = std::thread::spawn(move || server.run());
    stop.stop();
    let _ = th.join();
}

pub fn run(
    args: &Args,
    budget: Duration,
    scratch: &Scratch,
    tracer: Option<&Tracer>,
) -> Result<Outcome, Box<dyn Error>> {
    let len = args.len.unwrap_or(DEFAULT_LEN);
    let plan = plan(args.seed, len);
    let clients = load_threads();
    let mut o = Outcome::default();

    // Set-up is a restart over a run directory that a served run left
    // behind: bind, journal replay, cache warm from the cell store. On a
    // fresh directory nine tenths of a bind is the journal's fsyncs,
    // whose latency follows the disk's state, not the program.
    let warm = scratch.fresh("serve-warm");
    warm_run_dir(&plan, &warm)?;
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let s = Server::bind("127.0.0.1:0", engine_config(warm.clone()), None)?;
        setups.push(t0.elapsed().as_secs_f64());
        dispose(s);
    }
    let server = Server::bind(
        "127.0.0.1:0",
        engine_config(scratch.fresh("serve-run")),
        None,
    )?;

    // The traced mode first runs the same loop untraced on a fresh
    // server for half the budget, for the tracing overhead figure.
    let (tcp_budget, untraced_rps) = match tracer {
        None => (budget, None),
        Some(_) => {
            let half = budget / 2;
            let plain = Server::bind(
                "127.0.0.1:0",
                engine_config(scratch.fresh("serve-run-plain")),
                None,
            )?;
            let run = tcp_phase(plain, &plan, half, clients, None)?;
            (half, Some(run.completed() as f64 / run.wall))
        }
    };
    let tcp = tcp_phase(server, &plan, tcp_budget, clients, tracer)?;
    o.set("peak_rss_mib", peak_rss_mib());

    let completed = tcp.completed();
    let all_ms: Vec<f64> = tcp.samples.iter().map(Sample::ms).collect();
    let miss_ms: Vec<f64> = tcp
        .samples
        .iter()
        .filter(|s| s.queued.is_some())
        .map(Sample::ms)
        .collect();
    let stats = tcp.stats;
    o.set("req_per_s", completed as f64 / tcp.wall);
    o.set("latency_p50_ms", median(&all_ms));
    o.set(
        "sim_mips",
        stats.completed as f64 * len as f64 / tcp.wall / 1e6,
    );
    o.set_median("setup_s", &setups);
    if tail_supported(all_ms.len(), 99.0) {
        o.set("latency_p99_ms", percentile(&all_ms, 99.0));
    }
    o.set("miss_latency_p50_ms", median(&miss_ms));
    o.attempted = tcp.samples.len() as u64;
    o.failed = tcp
        .samples
        .iter()
        .filter(|s| s.kind != Kind::Result)
        .count() as u64;

    let unique: Vec<usize> = first_occurrences(&plan, tcp.samples.iter().map(|s| s.idx));
    let traces: HashSet<TraceKey> = unique.iter().map(|&i| trace_key(&plan[i])).collect();
    o.note(format!(
        "nproc={} clients={clients} connections={clients} engine_workers=2 trace_len={len} widths={WIDTHS:?} duplicate_share={}",
        nproc(),
        DUP_PERMILLE as f64 / 1000.0
    ));
    o.note(format!(
        "requests={} completed={completed} wall_s={:.4} unique_cells={} traces={} latency_samples={} miss_samples={} setup_reps={SETUP_REPS}",
        tcp.samples.len(),
        tcp.wall,
        unique.len(),
        traces.len(),
        all_ms.len(),
        miss_ms.len()
    ));
    o.note(format!(
        "server stats: completed={} cache_hits={} coalesced={} rejected_busy={} failed={} timed_out={}",
        stats.completed,
        stats.cache_hits,
        stats.coalesced,
        stats.rejected_busy,
        stats.failed,
        stats.timed_out
    ));

    if let Some(t) = tracer {
        let requests = tcp.samples.len().max(1) as f64;
        let since_send = |pick: fn(&Sample) -> Option<f64>| -> Vec<f64> {
            tcp.samples
                .iter()
                .filter_map(|s| pick(s).map(|x| (x - s.send) * 1e3))
                .collect()
        };
        o.set("serve.server.queued_ms", median(&since_send(|s| s.queued)));
        o.set(
            "serve.server.started_ms",
            median(&since_send(|s| s.started)),
        );
        o.set(
            "serve.server.result_ms",
            median(&since_send(|s| s.started.map(|_| s.end))),
        );
        o.set(
            "serve.engine.sims_per_request",
            stats.completed as f64 / requests,
        );
        o.set(
            "serve.engine.cache_hits",
            stats.cache_hits as f64 / requests,
        );
        o.set("serve.engine.coalesced", stats.coalesced as f64 / requests);
        o.set(
            "serve.engine.rejected_busy",
            stats.rejected_busy as f64 / requests,
        );
        o.set(
            "serve.cells_per_trace",
            unique.len() as f64 / traces.len().max(1) as f64,
        );
        if let Some(rps) = untraced_rps {
            o.set(
                "tracing.overhead_ratio",
                rps / (completed as f64 / tcp.wall) - 1.0,
            );
            o.note(format!(
                "traced req_per_s={:.3} untraced req_per_s={rps:.3} (half budget each)",
                completed as f64 / tcp.wall
            ));
        }
        let highest = tcp.samples.iter().map(|s| s.idx).max().unwrap_or(0) + 1;
        let n = highest.max(ENGINE_MIN_REQUESTS).min(plan.len());
        let engine = engine_replay(t, &plan[..n], clients, scratch)?;
        report_engine(&engine, &tcp.samples, &mut o);
        let cells: Vec<usize> = unique.iter().copied().take(REPLAY_CELLS).collect();
        layer_replay(t, &plan, &cells, scratch, &mut o)?;
    }

    check(&plan, &tcp.samples, &mut o);
    Ok(o)
}

/// Leaves in `dir` the journal and cell store of the plan's first
/// `WARM_CELLS` unique cells, as a server that served them would.
fn warm_run_dir(plan: &[SubmitRequest], dir: &Path) -> Result<(), Box<dyn Error>> {
    let engine = Engine::start(engine_config(dir.to_path_buf()))?;
    let mut seen = HashSet::new();
    for req in plan
        .iter()
        .filter(|r| seen.insert(digest(r)))
        .take(WARM_CELLS)
    {
        match engine.submit(req) {
            Submission::Joined { events, .. } => {
                while let Ok(ev) = events.recv() {
                    if matches!(ev, JobEvent::Finished(_)) {
                        break;
                    }
                }
            }
            Submission::Cached(_) => {}
            Submission::RejectedBusy { reason } | Submission::Invalid { reason } => {
                return Err(format!("warming the set-up run directory: {reason}").into());
            }
        }
    }
    engine.shutdown();
    Ok(())
}

/// Plan indices of the first request for each distinct cell, in plan
/// order.
fn first_occurrences(plan: &[SubmitRequest], idxs: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut idxs: Vec<usize> = idxs.collect();
    idxs.sort_unstable();
    let mut seen = HashSet::new();
    idxs.into_iter()
        .filter(|&i| seen.insert(digest(&plan[i])))
        .collect()
}

struct TcpRun {
    samples: Vec<Sample>,
    wall: f64,
    stats: StatsSnapshot,
}

impl TcpRun {
    fn completed(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| s.kind == Kind::Result)
            .count()
    }
}

/// Runs the closed loop against `server` until `budget` ends, then
/// fetches the server's counters and shuts it down.
fn tcp_phase(
    server: Server,
    plan: &[SubmitRequest],
    budget: Duration,
    clients: usize,
    tracer: Option<&Tracer>,
) -> Result<TcpRun, Box<dyn Error>> {
    let addr = server.local_addr();
    let stop = server.stop_handle();
    let server_thread = std::thread::spawn(move || server.run());
    let start = Instant::now();
    let deadline = start + budget;
    let per_client: Vec<Result<(Vec<Sample>, TcpStream), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    drive(addr, plan, c, clients, start, deadline, tracer)
                        .map_err(|e| e.to_string())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let mut samples = Vec::new();
    let mut control = None;
    let mut first_err = None;
    for r in per_client {
        match r {
            Ok((s, stream)) => {
                samples.extend(s);
                control.get_or_insert(stream);
            }
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
    }
    let wall = samples.iter().map(|s| s.end).fold(0.0, f64::max);
    let stats = match control {
        Some(stream) => finish(stream),
        None => Err("no client connection survived".into()),
    };
    if stats.is_err() {
        stop.stop();
    }
    let _ = server_thread.join();
    if let Some(e) = first_err {
        return Err(format!("client failed: {e}").into());
    }
    samples.sort_by_key(|s| s.idx);
    Ok(TcpRun {
        samples,
        wall,
        stats: stats?,
    })
}

/// Fetches the counters over a client connection, then asks the server
/// to shut down.
fn finish(stream: TcpStream) -> Result<StatsSnapshot, Box<dyn Error>> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    write_request(&mut writer, &Request::Stats)?;
    writer.flush()?;
    let stats = match read_response(&mut reader)? {
        Some(Response::Stats(s)) => s,
        other => return Err(format!("expected a Stats frame, got {other:?}").into()),
    };
    write_request(&mut writer, &Request::Shutdown)?;
    writer.flush()?;
    let _ = read_response(&mut reader);
    Ok(stats)
}

/// One closed-loop client: requests `c, c + clients, ...` of the plan
/// until the deadline.
fn drive(
    addr: std::net::SocketAddr,
    plan: &[SubmitRequest],
    c: usize,
    clients: usize,
    start: Instant,
    deadline: Instant,
    tracer: Option<&Tracer>,
) -> Result<(Vec<Sample>, TcpStream), Box<dyn Error>> {
    let stream = TcpStream::connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream.try_clone()?);
    let at = |i: Instant| i.duration_since(start).as_secs_f64();
    let mut samples = Vec::new();
    for idx in (c..plan.len()).step_by(clients) {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let send = at(now);
        write_request(&mut writer, &Request::Submit(plan[idx].clone()))?;
        writer.flush()?;
        let (mut queued, mut started) = (None, None);
        let (kind, body) = loop {
            match read_response(&mut reader)? {
                None => return Err("server closed the connection".into()),
                Some(Response::Queued { .. }) => queued = Some(at(Instant::now())),
                Some(Response::Started) => started = Some(at(Instant::now())),
                Some(Response::Result { body, .. }) => break (Kind::Result, Some(body)),
                Some(Response::Rejected { .. }) => break (Kind::Rejected, None),
                Some(_) => break (Kind::Failed, None),
            }
        };
        let end = at(Instant::now());
        if let Some(t) = tracer {
            let req = idx as u64 + 1;
            let root = t.reserve();
            let mut mark = send;
            for (name, at) in [
                ("serve.server.to_queued", queued),
                ("serve.server.to_started", started),
                ("serve.server.to_result", Some(end)),
            ] {
                if let Some(at) = at {
                    t.record(name, root, req, mark, at);
                    mark = at;
                }
            }
            t.record_as(root, "serve.request", 0, req, send, end);
        }
        samples.push(Sample {
            idx,
            send,
            queued,
            started,
            end,
            kind,
            body,
        });
    }
    Ok((samples, stream))
}

/// One engine-observed submission: submit→Started and Started→Finished
/// in ms, for submissions the engine queued fresh; `total_ms` for all.
struct EngineSample {
    idx: usize,
    fresh: bool,
    total_ms: f64,
    wait_ms: Option<f64>,
    run_ms: Option<f64>,
}

/// The same plan through `Engine::submit` in-process: same worker
/// count, fresh run directory, same closed-loop clients.
fn engine_replay(
    t: &Tracer,
    plan: &[SubmitRequest],
    clients: usize,
    scratch: &Scratch,
) -> Result<Vec<EngineSample>, Box<dyn Error>> {
    let engine = Engine::start(engine_config(scratch.fresh("serve-engine")))?;
    let per_client: Vec<Vec<EngineSample>> = std::thread::scope(|s| {
        let engine = &engine;
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    for idx in (c..plan.len()).step_by(clients) {
                        out.push(engine_submit(t, engine, &plan[idx], idx));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("engine client panicked"))
            .collect()
    });
    engine.shutdown();
    let mut all: Vec<EngineSample> = per_client.into_iter().flatten().collect();
    all.sort_by_key(|s| s.idx);
    Ok(all)
}

fn engine_submit(t: &Tracer, engine: &Engine, req: &SubmitRequest, idx: usize) -> EngineSample {
    let id = idx as u64 + 1;
    let root = t.reserve();
    let s0 = t.now();
    let (fresh, wait, run) = match engine.submit(req) {
        Submission::Joined {
            events, coalesced, ..
        } => {
            let mut started = None;
            let mut finished = None;
            while let Ok(ev) = events.recv() {
                match ev {
                    JobEvent::Started => started = Some(t.now()),
                    JobEvent::Finished(_) => {
                        finished = Some(t.now());
                        break;
                    }
                }
            }
            if let Some(st) = started {
                t.record("serve.engine.wait", root, id, s0, st);
                if let Some(fin) = finished {
                    t.record("serve.engine.run", root, id, st, fin);
                }
            }
            let wait = started.map(|st| (st - s0) * 1e3);
            let run = started.zip(finished).map(|(st, fin)| (fin - st) * 1e3);
            (!coalesced, wait, run)
        }
        _ => (false, None, None),
    };
    let e = t.now();
    t.record_as(root, "serve.engine.submit", 0, id, s0, e);
    EngineSample {
        idx,
        fresh,
        total_ms: (e - s0) * 1e3,
        wait_ms: wait,
        run_ms: run,
    }
}

/// Highest percentile up to `p` with ten samples beyond it.
fn tail(values: &[f64], p: f64) -> (f64, f64) {
    let mut q = p;
    while q > 50.0 && !tail_supported(values.len(), q) {
        q -= 0.5;
    }
    (q, percentile(values, q))
}

fn report_engine(engine: &[EngineSample], tcp: &[Sample], o: &mut Outcome) {
    let fresh: Vec<&EngineSample> = engine.iter().filter(|s| s.fresh).collect();
    let wait: Vec<f64> = fresh.iter().filter_map(|s| s.wait_ms).collect();
    let run: Vec<f64> = fresh.iter().filter_map(|s| s.run_ms).collect();
    o.set("serve.engine.wait_ms.p50", median(&wait));
    o.set("serve.engine.run_ms.p50", median(&run));
    let (qw, w99) = tail(&wait, 99.0);
    let (qr, r99) = tail(&run, 99.0);
    o.set("serve.engine.wait_ms.p99", w99);
    o.set("serve.engine.run_ms.p99", r99);
    // Wire share: TCP-observed minus engine-observed latency of the
    // same plan request, where both runs had to queue it.
    let by_idx: HashMap<usize, &EngineSample> = engine.iter().map(|s| (s.idx, s)).collect();
    let gaps: Vec<f64> = tcp
        .iter()
        .filter(|s| s.queued.is_some())
        .filter_map(|s| {
            by_idx
                .get(&s.idx)
                .filter(|e| e.wait_ms.is_some())
                .map(|e| s.ms() - e.total_ms)
        })
        .collect();
    o.set("serve.wire_ms", median(&gaps));
    o.note(format!(
        "engine replay: submissions={} fresh={} wait/run samples={} (p{qw:.1}/p{qr:.1} reported as p99) wire_gap_samples={}",
        engine.len(),
        fresh.len(),
        run.len(),
        gaps.len()
    ));
}

/// Per unique cell, the public calls the engine makes, each timed:
/// trace generation, pre-pass, timing loop, result codec, cell-store
/// save and the two journal appends.
fn layer_replay(
    t: &Tracer,
    plan: &[SubmitRequest],
    cells: &[usize],
    scratch: &Scratch,
    o: &mut Outcome,
) -> Result<(), Box<dyn Error>> {
    let dir = scratch.fresh("serve-replay");
    let store = CellStore::new(dir.join("cells"));
    let (journal, _) = Journal::open(&dir.join("serve_journal.bin"))?;
    let mut cols: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for &i in cells {
        let r = &plan[i];
        let (b, c) = cell_of(r);
        let id = i as u64 + 1;
        let d = digest(r);
        let config = SimConfig::paper(c, r.width);
        let root = t.reserve();
        let s0 = t.now();
        let mut timed = Timed {
            t,
            cols: &mut cols,
            parent: root,
            req: id,
        };
        let trace = timed.run("workloads.trace", || b.trace(r.seed, r.trace_len as usize))?;
        let prepared = timed.run("prepass.build", || PreparedTrace::build(&trace));
        let result = timed.run("simulator.cell", || simulate_prepared(&prepared, &config));
        let mut body = Vec::new();
        timed.run("result.encode", || result.encode_to(&mut body));
        timed.run("cellstore.save", || store.save(d, &result))?;
        let started = JournalRecord::CellStarted {
            bench: r.bench.clone(),
            config: r.config.clone(),
            width: r.width,
        };
        let finished = JournalRecord::CellFinished {
            bench: r.bench.clone(),
            config: r.config.clone(),
            width: r.width,
            digest: d,
        };
        timed.run("journal.append", || {
            journal
                .append(&started)
                .and_then(|_| journal.append(&finished))
        })?;
        t.record_as(root, "serve.replay.cell", 0, id, s0, t.now());
    }
    for (name, metric) in [
        ("workloads.trace", "workloads.trace_ms"),
        ("prepass.build", "prepass.build_ms"),
        ("simulator.cell", "simulator.cell_ms"),
        ("result.encode", "result.encode_ms"),
        ("cellstore.save", "cellstore.save_ms"),
        ("journal.append", "journal.append_ms"),
    ] {
        o.set(
            metric,
            median(cols.get(name).map_or(&[][..], Vec::as_slice)),
        );
    }
    o.note(format!(
        "layer replay: {} unique cells, each through trace, pre-pass, loop, encode, store save and two journal appends",
        cells.len()
    ));
    Ok(())
}

/// Times the calls of one replayed cell: each becomes a span under
/// `parent` and a millisecond sample under its name.
struct Timed<'a> {
    t: &'a Tracer,
    cols: &'a mut BTreeMap<&'static str, Vec<f64>>,
    parent: u64,
    req: u64,
}

impl Timed<'_> {
    fn run<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.t.now();
        let r = f();
        let e = self.t.now();
        self.t.record(name, self.parent, self.req, s, e);
        self.cols.entry(name).or_default().push((e - s) * 1e3);
        r
    }
}

/// Every `Result` body decodes completely, duplicates carry identical
/// bytes, and each cell's result equals `simulate_prepared` on its own
/// trace.
fn check(plan: &[SubmitRequest], samples: &[Sample], o: &mut Outcome) {
    let mut bodies: BTreeMap<u64, (usize, &[u8])> = BTreeMap::new();
    let mut bad = 0u64;
    for s in samples {
        let Some(body) = s.body.as_deref() else {
            continue;
        };
        let d = digest(&plan[s.idx]);
        match bodies.get(&d) {
            Some((_, first)) if *first != body => bad += 1,
            Some(_) => {}
            None => {
                bodies.insert(d, (s.idx, body));
            }
        }
    }
    if bad > 0 {
        o.fail(bad, format!("{bad} duplicate requests got different bytes"));
    }
    // Group the unique cells by trace so each trace is built once.
    let mut by_trace: BTreeMap<TraceKey, Vec<(usize, &[u8])>> = BTreeMap::new();
    for &(idx, body) in bodies.values() {
        let r = &plan[idx];
        by_trace.entry(trace_key(r)).or_default().push((idx, body));
    }
    let groups: Vec<_> = by_trace.into_iter().collect();
    let wrong = par_map(&groups, load_threads(), |(_, cells)| {
        let (b, _) = cell_of(&plan[cells[0].0]);
        let r0 = &plan[cells[0].0];
        let Ok(trace) = b.trace(r0.seed, r0.trace_len as usize) else {
            return cells.len() as u64;
        };
        let prepared = PreparedTrace::build(&trace);
        cells
            .iter()
            .filter(|&&(idx, body)| {
                let r = &plan[idx];
                let (_, c) = cell_of(r);
                let config = SimConfig::paper(c, r.width);
                let mut pos = 0;
                let got = SimResult::decode(body, &mut pos, config);
                let want = simulate_prepared(&prepared, &config);
                !(pos == body.len() && got.as_ref() == Some(&want))
            })
            .count() as u64
    });
    let wrong: u64 = wrong.into_iter().sum();
    if wrong > 0 {
        o.fail(
            wrong,
            format!("{wrong} result bodies differ from simulate_prepared"),
        );
    }
    o.note(format!(
        "output: {} unique result bodies decoded and compared with simulate_prepared, {wrong} wrong; {bad} duplicate mismatches",
        bodies.len()
    ));
}
