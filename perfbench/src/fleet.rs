//! `fleet`: the paper grid distributed the way `repro all
//! --distributed` runs it.
//!
//! Each timed pass builds a fresh `Lab` over a cached trace suite,
//! binds a `Coordinator` over every cell with the command line's
//! default 10% spot-check share, runs two `run_worker` workers on
//! threads of this process, and merges each result into the lab with
//! `Lab::install_result` from the coordinator's result sink.

use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ddsc_core::SimConfig;
use ddsc_dist::{run_worker, CellSpec, Coordinator, DistSinks, SchedOptions, WorkerOptions};
use ddsc_experiments::{Cell, CellOutcome, Lab, Suite, SuiteConfig, TraceCache};

use crate::spans::Tracer;
use crate::stats::{describe, median};
use crate::{load_threads, nproc, peak_rss_mib, Args, Outcome, Scratch};

/// Instructions per benchmark trace.
pub const DEFAULT_LEN: usize = 30_000;
/// `repro all --distributed`'s default `--spot-check` share.
const SPOT_CHECK_PERCENT: u8 = 10;
/// Coordinator set-ups timed for `setup_s`.
const SETUP_REPS: usize = 31;

fn sched_options() -> SchedOptions {
    SchedOptions {
        spot_check_percent: SPOT_CHECK_PERCENT,
        ..SchedOptions::default()
    }
}

/// The coordinator's cell list, as the command line builds it.
fn cell_specs(lab: &Lab) -> (Vec<CellSpec>, HashMap<u64, Cell>) {
    let sc = lab.suite().config();
    let mut by_digest = HashMap::new();
    let specs = lab
        .grid()
        .into_iter()
        .map(|cell| {
            let (b, c, width) = cell;
            let digest = lab.cell_digest(cell);
            by_digest.insert(digest, cell);
            CellSpec {
                bench: b.name().to_string(),
                config: c.label().to_string(),
                width,
                trace_len: sc.trace_len as u64,
                seed: sc.seed,
                digest,
            }
        })
        .collect();
    (specs, by_digest)
}

/// One distributed grid run.
struct Pass {
    seconds: f64,
    cells: u64,
    merged: u64,
    instructions: u64,
    mismatches: u64,
    /// Per grid cell, in grid order: a spot check found its results
    /// disagreeing.
    contested: Vec<bool>,
    /// Seconds from pass start to the last merged result: the grid is
    /// complete; worker shutdown follows.
    complete_s: f64,
    /// Canonical result bytes per grid cell, in grid order.
    bytes: Vec<Option<Vec<u8>>>,
    /// Cells the workers computed, duplicates and spot checks included.
    computed: u64,
    compute_s: f64,
    first_result_s: f64,
    install_ms: Vec<f64>,
}

pub fn run(
    args: &Args,
    budget: Duration,
    scratch: &Scratch,
    tracer: Option<&Tracer>,
) -> Result<Outcome, Box<dyn Error>> {
    let len = args.len.unwrap_or(DEFAULT_LEN);
    let workers = load_threads();
    std::env::set_var("DDSC_THREADS", workers.to_string());
    let config = SuiteConfig {
        seed: args.seed,
        trace_len: len,
        widths: SimConfig::PAPER_WIDTHS.to_vec(),
    };
    let cache = TraceCache::new(scratch.fresh("traces"));
    drop(Suite::generate_cached(config.clone(), &cache));
    let suite = Suite::generate_cached(config, &cache);
    let mut o = Outcome::default();

    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        let lab = Lab::from_suite(suite.clone());
        let t0 = Instant::now();
        let (specs, _) = cell_specs(&lab);
        let coord = Coordinator::bind("127.0.0.1:0", specs, sched_options())?;
        let conns = (0..workers)
            .map(|_| TcpStream::connect(coord.local_addr()))
            .collect::<Result<Vec<_>, _>>()?;
        setups.push(t0.elapsed().as_secs_f64());
        drop(conns);
        drop(coord);
    }

    let mut passes = Vec::new();
    let mut untraced_walls = Vec::new();
    let start = Instant::now();
    while passes.is_empty() || start.elapsed() < budget {
        let req = passes.len() as u64 + 1;
        match tracer {
            None => passes.push(pass(&suite, workers, None)?),
            Some(t) => {
                untraced_walls.push(pass(&suite, workers, None)?.seconds);
                passes.push(pass(&suite, workers, Some((t, req)))?);
            }
        }
        if passes.len() == 1 {
            // A distributed `repro all` runs the grid once: its peak is
            // set-up plus one pass. Later passes only add timing samples.
            o.set("peak_rss_mib", peak_rss_mib());
        }
    }

    let walls: Vec<f64> = passes.iter().map(|p| p.seconds).collect();
    // Work over summed pass time, not a median of passes: shutdown waits
    // on the workers' 200 ms heartbeat sleep, so single pass times snap
    // to a 200 ms grid and a median flips between neighbouring steps.
    let timed_s: f64 = walls.iter().sum();
    let complete_ms: Vec<f64> = passes.iter().map(|p| p.complete_s * 1e3).collect();
    o.set(
        "sim_mips",
        passes.iter().map(|p| p.instructions).sum::<u64>() as f64 / timed_s / 1e6,
    );
    o.set(
        "req_per_s",
        passes.iter().map(|p| p.merged).sum::<u64>() as f64 / timed_s,
    );
    // The wait for a complete grid, without the shutdown's 200 ms steps.
    o.set("latency_p50_ms", median(&complete_ms));
    o.set_median("setup_s", &setups);
    o.note(describe("pass_s", &walls));
    o.attempted = passes.iter().map(|p| p.cells).sum();
    let mismatches: u64 = passes.iter().map(|p| p.mismatches).sum();
    o.note(format!(
        "nproc={} workers={workers} connections={workers} trace_len={len} widths={:?} spot_check={SPOT_CHECK_PERCENT}%",
        nproc(),
        SimConfig::PAPER_WIDTHS
    ));
    o.note(format!(
        "passes={} (latency samples) complete_s(median)={:.4} cells_per_pass=150 setup_reps={SETUP_REPS}",
        passes.len(),
        median(&complete_ms) / 1e3
    ));

    if tracer.is_some() {
        let col = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
        o.set("dist.worker.compute_s", col(&|p| p.compute_s));
        o.set(
            "dist.worker.busy_ratio",
            col(&|p| p.compute_s / (workers as f64 * p.seconds)),
        );
        o.set(
            "dist.coordinator.first_result_s",
            col(&|p| p.first_result_s),
        );
        o.set(
            "dist.coordinator.recompute_ratio",
            col(&|p| (p.computed as f64 - p.cells as f64) / p.cells as f64),
        );
        let installs: Vec<f64> = passes.iter().flat_map(|p| p.install_ms.clone()).collect();
        o.set("lab.install_ms", median(&installs));
        o.set(
            "tracing.overhead_ratio",
            median(&walls) / median(&untraced_walls) - 1.0,
        );
        o.note(format!(
            "traced pass_s(median)={:.4} untraced pass_s(median)={:.4} install samples={}",
            median(&walls),
            median(&untraced_walls),
            installs.len()
        ));
    }

    // The in-process lab over the same suite, outside the timed phase.
    let local = Lab::from_suite(suite.clone());
    let grid = local.grid();
    local.prewarm_degraded(&grid);
    let want = encoded(&local, &grid);
    // Each cell of each pass counts once: missing (never merged, or
    // quarantined), merged with other bytes than the in-process lab's,
    // or contested by a spot check.
    let (mut missing, mut wrong, mut bad) = (0u64, 0u64, 0u64);
    for p in &passes {
        for ((got, want), &contested) in p.bytes.iter().zip(&want).zip(&p.contested) {
            missing += u64::from(got.is_none());
            wrong += u64::from(got.is_some() && got != want);
            bad += u64::from(got.is_none() || got != want || contested);
        }
    }
    if bad > 0 {
        o.fail(
            bad,
            format!(
                "{bad} cells failed: {missing} never merged, {wrong} differ from the in-process lab, {mismatches} spot-check mismatches"
            ),
        );
    }
    o.note(format!(
        "output: {} passes x {} cells compared byte for byte with the in-process lab: {missing} missing, {wrong} differ; {mismatches} spot-check mismatches",
        passes.len(),
        grid.len()
    ));
    Ok(o)
}

/// Canonical result bytes of every cell of `grid` that `lab` holds;
/// `None` for a cell it never received or recorded as failed.
fn encoded(lab: &Lab, grid: &[Cell]) -> Vec<Option<Vec<u8>>> {
    let missing = lab.uncached_cells(grid);
    grid.iter()
        .map(|&(b, c, w)| {
            if missing.contains(&(b, c, w)) {
                return None;
            }
            match lab.outcome(b, c, w) {
                CellOutcome::Completed(r) => {
                    let mut out = Vec::new();
                    r.encode_to(&mut out);
                    Some(out)
                }
                _ => None,
            }
        })
        .collect()
}

fn pass(
    suite: &Suite,
    workers: usize,
    tracer: Option<(&Tracer, u64)>,
) -> Result<Pass, Box<dyn Error>> {
    let lab = Lab::from_suite(suite.clone());
    let t0 = Instant::now();
    let root = tracer.map(|(t, _)| (t.reserve(), t.now()));
    let (specs, by_digest) = cell_specs(&lab);
    let cells = specs.len() as u64;
    let coord = Coordinator::bind("127.0.0.1:0", specs, sched_options())?;
    let addr = coord.local_addr().to_string();
    let merged_at = Mutex::new(Vec::new());
    let compute = Mutex::new(0.0f64);
    let installs = Mutex::new(Vec::new());
    let parent = root.map_or(0, |(id, _)| id);
    let req = tracer.map_or(0, |(_, r)| r);
    let on_result = |spec: &CellSpec, result: &ddsc_core::SimResult, seconds: f64| {
        let Some(&cell) = by_digest.get(&spec.digest) else {
            return;
        };
        merged_at
            .lock()
            .expect("merge times poisoned")
            .push(t0.elapsed().as_secs_f64());
        *compute.lock().expect("compute sum poisoned") += seconds;
        match tracer {
            None => lab.install_result(cell, result.clone(), seconds),
            Some((t, _)) => {
                let s = t.now();
                lab.install_result(cell, result.clone(), seconds);
                let e = t.now();
                t.record("lab.install_result", parent, req, s, e);
                installs
                    .lock()
                    .expect("install samples poisoned")
                    .push((e - s) * 1e3);
            }
        }
    };
    let on_quarantine = |spec: &CellSpec, error: &str| {
        if let Some(&cell) = by_digest.get(&spec.digest) {
            lab.install_failure(cell, format!("quarantined by coordinator: {error}"));
        }
    };
    let (report, computed) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let addr = addr.clone();
                s.spawn(move || {
                    let s0 = tracer.map(|(t, _)| t.now());
                    let summary = run_worker(&WorkerOptions::new(addr));
                    if let (Some((t, req)), Some(s0)) = (tracer, s0) {
                        t.record("dist.worker.run", parent, req, s0, t.now());
                    }
                    summary
                })
            })
            .collect();
        let c0 = tracer.map(|(t, _)| t.now());
        let report = coord.run(&DistSinks {
            on_result: &on_result,
            on_quarantine: &on_quarantine,
        });
        if let (Some((t, req)), Some(c0)) = (tracer, c0) {
            t.record("dist.coordinator.run", parent, req, c0, t.now());
        }
        let computed: u64 = handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(Ok(summary)) => summary.completed,
                _ => 0,
            })
            .sum();
        (report, computed)
    });
    let seconds = t0.elapsed().as_secs_f64();
    if let (Some((t, req)), Some((id, s0))) = (tracer, root) {
        t.record_as(id, "fleet.pass", 0, req, s0, t.now());
    }
    let grid = lab.grid();
    let timings = lab.timings();
    let contested: HashSet<u64> = report.incidents.iter().map(|i| i.digest).collect();
    let merged_at = merged_at.into_inner().expect("merge times poisoned");
    let first_result_s = merged_at.iter().copied().fold(seconds, f64::min);
    let complete_s = merged_at.iter().copied().fold(0.0, f64::max);
    Ok(Pass {
        seconds,
        cells,
        merged: report.cells_completed as u64,
        instructions: timings.iter().map(|c| c.instructions).sum(),
        mismatches: report.mismatches,
        contested: grid
            .iter()
            .map(|&cell| contested.contains(&lab.cell_digest(cell)))
            .collect(),
        complete_s,
        bytes: encoded(&lab, &grid),
        computed,
        compute_s: compute.into_inner().expect("compute sum poisoned"),
        first_result_s,
        install_ms: installs.into_inner().expect("install samples poisoned"),
    })
}
