//! `grid`: the paper grid as `ddsc repro all` runs it.
//!
//! Set-up loads the six-benchmark trace suite through
//! `Suite::generate_cached` from a trace cache filled beforehand. Each
//! timed pass builds a fresh `Lab` over that suite, runs all 150 cells
//! with `Lab::prewarm_degraded` on the load threads, and renders every
//! artifact with `render_all`. Passes repeat until the time budget is
//! spent; throughput is the work of all passes over their summed time.

use std::error::Error;
use std::hint::black_box;
use std::time::{Duration, Instant};

use ddsc_core::{simulate_reference, PaperConfig, SimConfig, SimResult};
use ddsc_experiments::parallel::par_map;
use ddsc_experiments::TraceCache;
use ddsc_experiments::{
    render_all, render_all_contained, Cell, CellOutcome, Lab, Suite, SuiteConfig,
};
use ddsc_util::Pcg32;
use ddsc_workloads::Benchmark;

use crate::spans::Tracer;
use crate::stats::{describe, median, sum};
use crate::{load_threads, nproc, peak_rss_mib, Args, Outcome, Scratch};

/// Instructions per benchmark trace.
pub const DEFAULT_LEN: usize = 60_000;
/// Suite loads timed for `setup_s`.
const SETUP_REPS: usize = 31;
/// The parameters `results/repro_all.txt` was rendered at.
const ARTIFACT_SEED: u64 = 1996;
const ARTIFACT_LEN: usize = 300_000;
const ARTIFACT: &str = "results/repro_all.txt";

/// One timed pass over the grid.
struct Pass {
    seconds: f64,
    cells: u64,
    instructions: u64,
    failed: u64,
    text: String,
    /// Results of the cells the reference check samples.
    sample: Vec<(Cell, Option<SimResult>)>,
}

pub fn run(
    args: &Args,
    budget: Duration,
    scratch: &Scratch,
    tracer: Option<&Tracer>,
) -> Result<Outcome, Box<dyn Error>> {
    let len = args.len.unwrap_or(DEFAULT_LEN);
    let threads = load_threads();
    // The lab sizes its thread pool from DDSC_THREADS.
    std::env::set_var("DDSC_THREADS", threads.to_string());
    let config = SuiteConfig {
        seed: args.seed,
        trace_len: len,
        widths: SimConfig::PAPER_WIDTHS.to_vec(),
    };
    let cache = TraceCache::new(scratch.fresh("traces"));
    // Fill the cache before anything is timed.
    drop(Suite::generate_cached(config.clone(), &cache));

    let mut o = Outcome::default();
    let mut setups = Vec::new();
    let mut loads = Vec::new();
    let mut suite = None;
    for _ in 0..SETUP_REPS {
        if let Some(t) = tracer {
            loads.push(traced_load(t, &config, &cache));
        }
        let t0 = Instant::now();
        suite = Some(Suite::generate_cached(config.clone(), &cache));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let suite = suite.expect("at least one set-up repetition");

    let sample = reference_sample(args.seed, &Lab::from_suite(suite.clone()).grid());
    let mut passes: Vec<Pass> = Vec::new();
    let mut untraced_walls = Vec::new();
    let mut layer_samples: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut differing = 0;
    let start = Instant::now();
    while passes.is_empty() || start.elapsed() < budget {
        let req = passes.len() as u64 + 1;
        let mut pass = match tracer {
            None => untraced_pass(&suite, &sample),
            Some(t) => {
                // Traced and untraced passes alternate, so the tracing
                // overhead is measured under the same host conditions.
                untraced_walls.push(untraced_pass(&suite, &sample).seconds);
                let (pass, layers) = traced_pass(&suite, &sample, t, req, threads);
                layer_samples.push(layers);
                pass
            }
        };
        if passes.is_empty() {
            // A `repro all` process renders the grid once: its peak is
            // set-up plus one pass. Later passes only add timing samples.
            o.set("peak_rss_mib", peak_rss_mib());
        }
        if let Some(first) = passes.first() {
            if pass.text != first.text {
                differing += 1;
                o.fail(
                    pass.cells,
                    format!("pass {req} rendered different bytes than pass 1"),
                );
            }
            pass.text.clear();
        }
        passes.push(pass);
    }

    let walls: Vec<f64> = passes.iter().map(|p| p.seconds).collect();
    let timed_s = sum(walls.iter().copied());
    o.set(
        "sim_mips",
        passes.iter().map(|p| p.instructions).sum::<u64>() as f64 / timed_s / 1e6,
    );
    o.set(
        "req_per_s",
        passes.iter().map(|p| p.cells).sum::<u64>() as f64 / timed_s,
    );
    // The wait of one `repro all` at this length: a whole pass.
    o.set("latency_p50_ms", median(&walls) * 1e3);
    o.set_median("setup_s", &setups);
    o.note(describe("pass_s", &walls));
    o.attempted = passes.iter().map(|p| p.cells).sum();
    o.failed = passes.iter().map(|p| p.failed).sum();

    o.note(format!(
        "nproc={} threads={threads} connections=0 trace_len={len} benchmarks=6 widths={:?} cells_per_pass=150",
        nproc(),
        SimConfig::PAPER_WIDTHS
    ));
    o.note(format!(
        "passes={} (latency samples) setup_reps={SETUP_REPS}",
        passes.len()
    ));

    if let Some(t) = tracer {
        o.set("trace_cache.load_s", median(&loads));
        for name in [
            "prepass.build_s",
            "predict.verdicts_s",
            "simulator.ab_s",
            "simulator.cde_s",
            "simulator.ab_mips",
            "simulator.cde_mips",
            "simulator.w2048_s",
            "simulator.ns_per_cycle",
            "lab.busy_ratio",
            "lab.tail_s",
            "render.all_s",
        ] {
            let v: Vec<f64> = layer_samples
                .iter()
                .filter_map(|s| s.iter().find(|(n, _)| *n == name).map(|(_, v)| *v))
                .collect();
            o.set(name, median(&v));
        }
        let overhead = median(&walls) / median(&untraced_walls) - 1.0;
        o.set("tracing.overhead_ratio", overhead);
        o.note(format!(
            "traced pass_s(median)={:.4} untraced pass_s(median)={:.4} spans={}",
            median(&walls),
            median(&untraced_walls),
            t.spans().len()
        ));
        o.note(
            "predict.verdicts_s covers default_branch_stream and default_addr_stream; \
             paper configs A-E never reach real_value_stream",
        );
    }

    check(args, len, &suite, &passes, differing, &mut o);
    Ok(o)
}

/// The trace-suite load `Suite::generate_cached` performs on a full
/// cache, one benchmark at a time under spans; returns its seconds.
fn traced_load(t: &Tracer, config: &SuiteConfig, cache: &TraceCache) -> f64 {
    let t0 = t.now();
    t.span("trace_cache.load", 0, 0, |id| {
        for b in Benchmark::ALL {
            let trace = t.span("trace_cache.load_with_retry", id, 0, |_| {
                cache.load_with_retry(b.name(), config.seed, config.trace_len, 3)
            });
            if let Ok(trace) = trace {
                let ok = t.span("trace_cache.validate", id, 0, |_| {
                    ddsc_core::TraceValidator::new().validate(&trace)
                });
                black_box(ok.is_ok());
            }
        }
    });
    t.now() - t0
}

/// `repro all`'s grid path: degraded prewarm, then the byte-stable
/// renderer on a clean lab or the contained one otherwise.
fn untraced_pass(suite: &Suite, sample: &[Cell]) -> Pass {
    let lab = Lab::from_suite(suite.clone());
    let t0 = Instant::now();
    let grid = lab.grid();
    lab.prewarm_degraded(&grid);
    let failed = lab.failed_cells().len() as u64;
    let text = if failed == 0 {
        render_all(&lab)
    } else {
        render_all_contained(&lab)
    };
    let seconds = t0.elapsed().as_secs_f64();
    finish_pass(&lab, sample, failed, seconds, text)
}

fn finish_pass(lab: &Lab, sample: &[Cell], failed: u64, seconds: f64, text: String) -> Pass {
    let timings = lab.timings();
    let missing = lab.uncached_cells(sample);
    Pass {
        seconds,
        cells: lab.grid().len() as u64,
        instructions: timings.iter().map(|c| c.instructions).sum(),
        failed,
        text,
        sample: sample
            .iter()
            .map(|&(b, c, w)| {
                let r = (!missing.contains(&(b, c, w)))
                    .then(|| lab.outcome(b, c, w).result().map(|r| (**r).clone()))
                    .flatten();
                ((b, c, w), r)
            })
            .collect(),
    }
}

/// The same work with a span around each call into a layer: the
/// per-benchmark pre-pass and verdict streams first, then every cell
/// through `Lab::outcome` on the load threads, then `render_all`.
fn traced_pass(
    suite: &Suite,
    sample: &[Cell],
    t: &Tracer,
    req: u64,
    threads: usize,
) -> (Pass, Vec<(&'static str, f64)>) {
    let lab = Lab::from_suite(suite.clone());
    let grid = lab.grid();
    let t0 = Instant::now();
    let (cells, cells_from, cells_to, render_s, text, failed) =
        t.span("lab.pass", 0, req, |pass| {
            let benches = Benchmark::ALL.to_vec();
            par_map(&benches, threads, |&b| {
                let p = t.span("prepass.build", pass, req, |_| lab.prepared(b));
                t.span("predict.verdicts", pass, req, |_| {
                    black_box(p.default_branch_stream());
                    black_box(p.default_addr_stream());
                });
            });
            let from = t.now();
            let cells = par_map(&grid, threads, |&(b, c, w)| {
                let name = if matches!(c, PaperConfig::A | PaperConfig::B) {
                    "simulator.ab"
                } else {
                    "simulator.cde"
                };
                let s = t.now();
                let out = lab.outcome(b, c, w);
                let e = t.now();
                t.record(name, pass, req, s, e);
                (c, w, e - s, out)
            });
            let to = t.now();
            let failed = cells
                .iter()
                .filter(|c| !matches!(c.3, CellOutcome::Completed(_)))
                .count() as u64;
            let rs = t.now();
            let text = t.span("render.all", pass, req, |_| {
                if failed == 0 {
                    render_all(&lab)
                } else {
                    render_all_contained(&lab)
                }
            });
            (cells, from, to, t.now() - rs, text, failed)
        });
    let seconds = t0.elapsed().as_secs_f64();

    let spans: Vec<_> = t.spans().into_iter().filter(|s| s.req == req).collect();
    let total = |name: &str| sum(spans.iter().filter(|s| s.name == name).map(|s| s.seconds()));
    let mut ab = (0.0, 0u64);
    let mut cde = (0.0, 0u64);
    let mut w2048 = 0.0;
    let mut cycles = 0u64;
    for (c, w, secs, out) in &cells {
        let Some(r) = out.result() else { continue };
        let slot = if matches!(c, PaperConfig::A | PaperConfig::B) {
            &mut ab
        } else {
            &mut cde
        };
        slot.0 += secs;
        slot.1 += r.instructions;
        if *w == 2048 {
            w2048 += secs;
        }
        cycles += r.cycles;
    }
    let cell_spans: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "simulator.ab" || s.name == "simulator.cde")
        .collect();
    let mut lane_ends = std::collections::BTreeMap::new();
    for s in &cell_spans {
        let e = lane_ends.entry(s.lane).or_insert(s.end);
        *e = f64::max(*e, s.end);
    }
    let last = lane_ends.values().cloned().fold(f64::MIN, f64::max);
    let first_idle = lane_ends.values().cloned().fold(f64::MAX, f64::min);
    let loop_s = ab.0 + cde.0;
    let layers = vec![
        ("prepass.build_s", total("prepass.build")),
        ("predict.verdicts_s", total("predict.verdicts")),
        ("simulator.ab_s", ab.0),
        ("simulator.cde_s", cde.0),
        ("simulator.ab_mips", ab.1 as f64 / ab.0 / 1e6),
        ("simulator.cde_mips", cde.1 as f64 / cde.0 / 1e6),
        ("simulator.w2048_s", w2048),
        (
            "simulator.ns_per_cycle",
            loop_s / cycles.max(1) as f64 * 1e9,
        ),
        (
            "lab.busy_ratio",
            loop_s / (threads as f64 * (cells_to - cells_from)),
        ),
        ("lab.tail_s", last - first_idle),
        ("render.all_s", render_s),
    ];
    let pass = finish_pass(&lab, sample, failed, seconds, text);
    (pass, layers)
}

/// Output checks: every pass renders the same bytes; at the committed
/// artifact's parameters those bytes are the artifact's, elsewhere a
/// seeded sample of cells equals the frozen reference simulator.
fn check(
    args: &Args,
    len: usize,
    suite: &Suite,
    passes: &[Pass],
    differing: usize,
    o: &mut Outcome,
) {
    let first = &passes[0];
    if args.seed == ARTIFACT_SEED && len == ARTIFACT_LEN {
        match std::fs::read_to_string(ARTIFACT) {
            Ok(want) if want == first.text => {
                o.note(format!("output: byte-identical to {ARTIFACT}"));
            }
            Ok(_) => o.fail(first.cells, format!("render differs from {ARTIFACT}")),
            Err(e) => o.fail(first.cells, format!("cannot read {ARTIFACT}: {e}")),
        }
        return;
    }
    let verdicts = par_map(&first.sample, load_threads(), |((b, c, w), got)| {
        let want = simulate_reference(suite.trace(*b), &SimConfig::paper(*c, *w));
        (got.as_ref() != Some(&want)).then(|| {
            format!(
                "cell ({}, {}, {w}) differs from simulate_reference",
                b.name(),
                c.label()
            )
        })
    });
    let mismatches: Vec<String> = verdicts.into_iter().flatten().collect();
    o.note(format!(
        "output: {} of {} passes byte-identical to pass 1; {} seeded cells checked against simulate_reference, {} mismatched",
        passes.len() - differing,
        passes.len(),
        first.sample.len(),
        mismatches.len()
    ));
    for m in mismatches {
        o.fail(1, m);
    }
}

/// The seeded sample of cells the frozen reference re-simulates: one
/// cell per (configuration, width) pair, its benchmark drawn from the
/// seed, so every configuration and width is covered.
fn reference_sample(seed: u64, grid: &[Cell]) -> Vec<Cell> {
    let mut rng = Pcg32::new(seed ^ 0x6772_6964);
    let mut sample: Vec<Cell> = Vec::new();
    for &(_, c, w) in grid {
        if sample.iter().any(|&(_, sc, sw)| (sc, sw) == (c, w)) {
            continue;
        }
        let b = Benchmark::ALL[rng.range(0, Benchmark::ALL.len() as u32) as usize];
        sample.push((b, c, w));
    }
    sample
}
