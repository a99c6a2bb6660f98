//! `stream`: a paper-scale cell streamed through `simulate_stream`.
//!
//! The cell is `li` under configuration D at width 8 (the convergence
//! cell). Each timed pass builds fresh `Benchmark::source`s and streams
//! them, so VM trace generation and the streaming pre-pass run inline
//! with the timing loop in bounded memory and nothing is shared between
//! passes. A pass streams one copy of the cell per load thread at once:
//! with one thread busy and the other core idle, the host's speed swings
//! showed up in this workload at twice the spread of `grid`.

use std::error::Error;
use std::hint::black_box;
use std::time::{Duration, Instant};

use ddsc_core::{
    simulate_prepared, simulate_stream, PaperConfig, PreparedTrace, SimConfig, SimResult,
    StreamError, StreamingPrepass, DEFAULT_CHUNK_SIZE,
};
use ddsc_trace::{SourceError, TraceInst, TraceSource};
use ddsc_vm::MachineSource;
use ddsc_workloads::Benchmark;

use crate::spans::Tracer;
use crate::stats::{describe, median, sum};
use crate::{load_threads, nproc, peak_rss_mib, Args, Outcome};

/// Dynamic instructions in the streamed cell.
pub const DEFAULT_LEN: usize = 3_000_000;
const BENCH: Benchmark = Benchmark::Li;
const CONFIG: PaperConfig = PaperConfig::D;
const WIDTH: u32 = 8;
/// Machine builds plus first chunks timed for `setup_s`.
const SETUP_REPS: usize = 301;

/// A `TraceSource` that records a span around every `fill` of the
/// source it wraps.
struct TimedSource<'a, S> {
    inner: S,
    tracer: &'a Tracer,
    parent: u64,
    req: u64,
}

impl<S: TraceSource> TraceSource for TimedSource<'_, S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn fill(&mut self, out: &mut Vec<TraceInst>, max: usize) -> Result<usize, SourceError> {
        let inner = &mut self.inner;
        self.tracer
            .span("vm.fill", self.parent, self.req, |_| inner.fill(out, max))
    }
}

/// One timed pass: its wall seconds, and each copy's seconds and result.
struct Pass {
    seconds: f64,
    cell_seconds: Vec<f64>,
    results: Vec<SimResult>,
}

pub fn run(
    args: &Args,
    budget: Duration,
    tracer: Option<&Tracer>,
) -> Result<Outcome, Box<dyn Error>> {
    let len = args.len.unwrap_or(DEFAULT_LEN);
    let copies = load_threads();
    let config = SimConfig::paper(CONFIG, WIDTH);
    let mut o = Outcome::default();

    // Set-up is what a stream does before its first instruction reaches
    // the simulator: build the machine and generate the first chunk.
    let mut setups = Vec::new();
    let mut chunk = Vec::with_capacity(DEFAULT_CHUNK_SIZE);
    for _ in 0..SETUP_REPS {
        chunk.clear();
        let t0 = Instant::now();
        let mut src = BENCH.source(args.seed, len);
        let n = src.fill(&mut chunk, DEFAULT_CHUNK_SIZE)?;
        setups.push(t0.elapsed().as_secs_f64());
        black_box((src, n));
    }

    let sources = || (0..copies).map(|_| BENCH.source(args.seed, len)).collect();
    let mut passes: Vec<Pass> = Vec::new();
    let mut untraced = Vec::new();
    let mut layers: Vec<[f64; 5]> = Vec::new();
    let start = Instant::now();
    while passes.is_empty() || start.elapsed() < budget {
        let req = passes.len() as u64 + 1;
        let plain = untraced_pass(sources(), &config)?;
        match tracer {
            None => passes.push(plain),
            Some(t) => {
                // Alternate with untraced passes for the overhead figure.
                untraced.push(plain);
                let (pass, sample) = traced_pass(t, req, sources(), sources(), &config)?;
                passes.push(pass);
                layers.push(sample);
            }
        }
        if passes.len() == 1 {
            o.set("peak_rss_mib", peak_rss_mib());
        }
    }

    let walls: Vec<f64> = passes.iter().map(|p| p.seconds).collect();
    let cells = (passes.len() * copies) as f64;
    let timed_s = sum(walls.iter().copied());
    let cell_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.cell_seconds.iter().map(|s| s * 1e3))
        .collect();
    o.set("sim_mips", cells * len as f64 / timed_s / 1e6);
    o.set("req_per_s", cells / timed_s);
    o.set("latency_p50_ms", median(&cell_ms));
    o.set_median("setup_s", &setups);
    o.note(describe("pass_s", &walls));
    o.attempted = cells as u64;
    o.note(format!(
        "nproc={} threads={copies} connections=0 cell={} {}/{WIDTH} copies_per_pass={copies} trace_len={len} chunk={DEFAULT_CHUNK_SIZE}",
        nproc(),
        BENCH.name(),
        CONFIG.label()
    ));
    o.note(format!(
        "passes={} cell_latency_samples={} setup_reps={SETUP_REPS}",
        passes.len(),
        cell_ms.len()
    ));

    if tracer.is_some() {
        let untraced_walls: Vec<f64> = untraced.iter().map(|p| p.seconds).collect();
        let col = |i: usize| median(&layers.iter().map(|l| l[i]).collect::<Vec<_>>());
        o.set("vm.gen_s", col(0));
        o.set("vm.mips", col(1));
        o.set("prepass.stream_s", col(2));
        o.set("simulator.stream_s", col(3));
        o.set("simulator.ns_per_cycle", col(4));
        o.set(
            "tracing.overhead_ratio",
            median(&walls) / median(&untraced_walls) - 1.0,
        );
        o.note(format!(
            "traced pass_s(median)={:.4} untraced pass_s(median)={:.4}; per-layer figures are per cell",
            median(&walls),
            median(&untraced_walls)
        ));
    }

    // The whole-trace result for the same cell, outside the timed phase
    // and after the peak RSS was read.
    let whole = BENCH.trace(args.seed, len)?;
    let want = simulate_prepared(&PreparedTrace::build(&whole), &config);
    drop(whole);
    let streamed: Vec<&SimResult> = passes
        .iter()
        .chain(&untraced)
        .flat_map(|p| &p.results)
        .collect();
    let bad = streamed.iter().filter(|r| ***r != want).count() as u64;
    if bad > 0 {
        o.fail(
            bad,
            format!("{bad} streamed cells differ from the whole-trace result"),
        );
    }
    o.note(format!(
        "output: {} streamed cells checked against the whole-trace result ({} cycles), {bad} mismatched",
        streamed.len(),
        want.cycles
    ));
    Ok(o)
}

/// Runs `f` on each input on its own scoped thread; returns the wall
/// seconds of the batch and each input's (seconds, value), in order.
fn concurrently<T: Send, R: Send>(
    inputs: Vec<T>,
    f: impl Fn(T) -> R + Sync,
) -> (f64, Vec<(f64, R)>) {
    let t0 = Instant::now();
    let out = std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .into_iter()
            .map(|input| {
                let f = &f;
                s.spawn(move || {
                    let c0 = Instant::now();
                    let r = f(input);
                    (c0.elapsed().as_secs_f64(), r)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stream copy panicked"))
            .collect()
    });
    (t0.elapsed().as_secs_f64(), out)
}

fn untraced_pass(sources: Vec<MachineSource>, config: &SimConfig) -> Result<Pass, StreamError> {
    let (seconds, runs) = concurrently(sources, |mut src| {
        simulate_stream(&mut src, config, DEFAULT_CHUNK_SIZE)
    });
    let mut pass = Pass {
        seconds,
        cell_seconds: Vec::new(),
        results: Vec::new(),
    };
    for (s, r) in runs {
        pass.cell_seconds.push(s);
        pass.results.push(r?);
    }
    Ok(pass)
}

/// One traced pass: the streamed simulations with every VM fill under a
/// span, then the streaming pre-pass alone over identical sources, each
/// phase with all copies at once. Returns the pass and the per-cell
/// `[vm.gen_s, vm.mips, prepass.stream_s, simulator.stream_s,
/// simulator.ns_per_cycle]`, averaged over the copies.
fn traced_pass(
    t: &Tracer,
    req: u64,
    sim_sources: Vec<MachineSource>,
    prepass_sources: Vec<MachineSource>,
    config: &SimConfig,
) -> Result<(Pass, [f64; 5]), StreamError> {
    let copies = sim_sources.len() as f64;
    let (seconds, runs) = concurrently(sim_sources, |inner| {
        let len = inner.remaining();
        t.span("simulator.simulate_stream", 0, req, |id| {
            let mut src = TimedSource {
                inner,
                tracer: t,
                parent: id,
                req,
            };
            (
                id,
                len,
                simulate_stream(&mut src, config, DEFAULT_CHUNK_SIZE),
            )
        })
    });
    let (_, alone) = concurrently(prepass_sources, |inner| {
        t.span("prepass.streaming_prepass", 0, req, |id| {
            let mut src = TimedSource {
                inner,
                tracer: t,
                parent: id,
                req,
            };
            let mut prep = StreamingPrepass::new(config);
            let mut buf = Vec::with_capacity(DEFAULT_CHUNK_SIZE);
            while let Ok(n) = src.fill(&mut buf, DEFAULT_CHUNK_SIZE) {
                if n == 0 {
                    break;
                }
                for inst in &buf {
                    prep.push(inst);
                }
                prep.evict_to(prep.len());
                buf.clear();
            }
            black_box(prep.len());
            id
        })
    });

    let mut sample = [0.0; 5];
    let mut pass = Pass {
        seconds,
        cell_seconds: Vec::new(),
        results: Vec::new(),
    };
    for ((total, (sim_id, len, r)), (alone_s, prep_id)) in runs.into_iter().zip(alone) {
        let r = r?;
        let gen = fill_seconds(t, sim_id);
        let prepass = alone_s - fill_seconds(t, prep_id);
        let sim = total - gen - prepass;
        let per_copy = [
            gen,
            len as f64 / gen / 1e6,
            prepass,
            sim,
            sim / r.cycles.max(1) as f64 * 1e9,
        ];
        for (acc, v) in sample.iter_mut().zip(per_copy) {
            *acc += v / copies;
        }
        pass.cell_seconds.push(total);
        pass.results.push(r);
    }
    Ok((pass, sample))
}

/// Seconds inside VM fills under the span `parent`.
fn fill_seconds(t: &Tracer, parent: u64) -> f64 {
    sum(t
        .spans()
        .iter()
        .filter(|s| s.name == "vm.fill" && s.parent == parent)
        .map(|s| s.seconds()))
}
