//! Host-time benchmark of the ddsc front doors.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid|serve|stream|fleet --seed N --seconds S --trace 0|1 [--len N]
//! ```
//!
//! Each invocation runs one workload in this one process, so the peak
//! RSS it reports is that workload's own. `--trace 0` measures the
//! end-to-end metrics with no tracing; `--trace 1` runs the same
//! workload with spans around every call into a layer and reports the
//! per-layer metrics instead. Every workload checks its outputs: a
//! mismatch counts as a failed operation, and any failed operation
//! makes the exit code 1.
//! The last line of standard output is one JSON object with the
//! verdict and the metrics; the lines before it are for people.

mod fleet;
mod grid;
mod serve;
mod spans;
mod stats;
mod stream;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A metric the benchmark can print.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// The workloads that measure it.
    pub workloads: &'static [&'static str],
}

const ALL: &[&str] = &["grid", "serve", "stream", "fleet"];
const GRID: &[&str] = &["grid"];
const SERVE: &[&str] = &["serve"];
const STREAM: &[&str] = &["stream"];
const FLEET: &[&str] = &["fleet"];

const fn def(name: &'static str, unit: &'static str, workloads: &'static [&'static str]) -> Def {
    Def {
        name,
        unit,
        workloads,
    }
}

/// End-to-end metrics every workload reports in untraced mode — the
/// ones `BENCHMARK.json` bounds.
pub const END_TO_END: &[Def] = &[
    def("sim_mips", "Minst/s", ALL),
    def("req_per_s", "1/s", ALL),
    def("latency_p50_ms", "ms", ALL),
    def("setup_s", "s", ALL),
    def("peak_rss_mib", "MiB", ALL),
];

/// End-to-end metrics printed for people only: they exist on one
/// workload, or read 0 on a correct run.
pub const END_TO_END_EXTRA: &[Def] = &[
    def("latency_p99_ms", "ms", SERVE),
    def("miss_latency_p50_ms", "ms", SERVE),
    def("failed_ratio", "ratio", ALL),
];

/// Per-layer metrics, reported in traced mode.
pub const PER_LAYER: &[Def] = &[
    def("trace_cache.load_s", "s", GRID),
    def("prepass.build_s", "s", GRID),
    def("predict.verdicts_s", "s", GRID),
    def("simulator.ab_s", "s", GRID),
    def("simulator.cde_s", "s", GRID),
    def("simulator.ab_mips", "Minst/s", GRID),
    def("simulator.cde_mips", "Minst/s", GRID),
    def("simulator.w2048_s", "s", GRID),
    def("simulator.ns_per_cycle", "ns", &["grid", "stream"]),
    def("lab.busy_ratio", "ratio", GRID),
    def("lab.tail_s", "s", GRID),
    def("render.all_s", "s", GRID),
    def("serve.server.queued_ms", "ms", SERVE),
    def("serve.server.started_ms", "ms", SERVE),
    def("serve.server.result_ms", "ms", SERVE),
    def("serve.engine.wait_ms.p50", "ms", SERVE),
    def("serve.engine.wait_ms.p99", "ms", SERVE),
    def("serve.engine.run_ms.p50", "ms", SERVE),
    def("serve.engine.run_ms.p99", "ms", SERVE),
    def("serve.wire_ms", "ms", SERVE),
    def("workloads.trace_ms", "ms", SERVE),
    def("prepass.build_ms", "ms", SERVE),
    def("simulator.cell_ms", "ms", SERVE),
    def("result.encode_ms", "ms", SERVE),
    def("cellstore.save_ms", "ms", SERVE),
    def("journal.append_ms", "ms", SERVE),
    def("serve.engine.sims_per_request", "ratio", SERVE),
    def("serve.engine.cache_hits", "ratio", SERVE),
    def("serve.engine.coalesced", "ratio", SERVE),
    def("serve.engine.rejected_busy", "ratio", SERVE),
    def("serve.cells_per_trace", "ratio", SERVE),
    def("vm.gen_s", "s", STREAM),
    def("vm.mips", "Minst/s", STREAM),
    def("prepass.stream_s", "s", STREAM),
    def("simulator.stream_s", "s", STREAM),
    def("dist.worker.compute_s", "s", FLEET),
    def("dist.worker.busy_ratio", "ratio", FLEET),
    def("dist.coordinator.first_result_s", "s", FLEET),
    def("dist.coordinator.recompute_ratio", "ratio", FLEET),
    def("lab.install_ms", "ms", FLEET),
    def("tracing.overhead_ratio", "ratio", ALL),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Overrides the workload's trace length.
    pub len: Option<usize>,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations (cells or requests) attempted.
    pub attempted: u64,
    /// Operations that failed, were refused or timed out, or whose
    /// output was wrong.
    pub failed: u64,
    /// One line per failed output check.
    pub errors: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Context printed above the metrics: seed, threads, lengths,
    /// sample counts.
    pub context: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.context.push(line.into());
    }

    /// Records `name` as the median of `samples` and notes their spread.
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        self.set(name, stats::median(samples));
        self.note(stats::describe(name, samples));
    }

    /// No operation failed and every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// Records a failed output check covering `ops` operations.
    pub fn fail(&mut self, ops: u64, why: impl Into<String>) {
        self.failed += ops;
        self.errors.push(why.into());
    }
}

/// Per-run scratch space inside the working directory; removed on drop.
pub struct Scratch {
    pub dir: PathBuf,
}

impl Scratch {
    fn new(workload: &str) -> std::io::Result<Scratch> {
        let dir = out_dir().join(format!("{workload}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    /// A fresh, empty subdirectory.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let p = self.dir.join(name);
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).expect("scratch directory is writable");
        p
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Where the benchmark keeps scratch files and span dumps: the build
/// directory, which version control ignores.
fn out_dir() -> PathBuf {
    Path::new(".bench_build").join("perfbench")
}

/// The host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Threads (and connections) the load side may use.
pub fn load_threads() -> usize {
    nproc().min(2)
}

/// Process peak RSS (VmHWM) in MiB.
pub fn peak_rss_mib() -> f64 {
    ddsc_util::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0)
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let workload = get("--workload")
        .ok_or("--workload is required")?
        .to_string();
    if !ALL.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (grid|serve|stream|fleet)"
        ));
    }
    let seed = get("--seed")
        .unwrap_or("1")
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")
        .unwrap_or("10")
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let traced = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    let len = get("--len")
        .map(|v| v.parse().map_err(|e| format!("--len: {e}")))
        .transpose()?;
    Ok(Args {
        workload,
        seed,
        seconds,
        traced,
        len,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let scratch = match Scratch::new(&args.workload) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: cannot create scratch directory: {e}");
            std::process::exit(2);
        }
    };
    let tracer = args.traced.then(spans::Tracer::new);
    let budget = Duration::from_secs_f64(args.seconds);
    let run = match args.workload.as_str() {
        "grid" => grid::run(&args, budget, &scratch, tracer.as_ref()),
        "serve" => serve::run(&args, budget, &scratch, tracer.as_ref()),
        "stream" => stream::run(&args, budget, tracer.as_ref()),
        _ => fleet::run(&args, budget, &scratch, tracer.as_ref()),
    };
    let outcome = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} workload failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    drop(scratch);
    print_report(&args, &outcome);
    if let Some(t) = &tracer {
        print_self_times(t);
        let path = out_dir().join(format!("spans-{}.jsonl", args.workload));
        match t.write_jsonl(&path) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    }
    print_result_line(&args, &outcome);
    if !outcome.correct() {
        std::process::exit(1);
    }
}

fn print_self_times(t: &spans::Tracer) {
    println!("span self time (count, total s, self s):");
    for (name, (count, total, own)) in spans::self_times(&t.spans()) {
        println!("  {name:<28} {count:>7} {total:>10.4} {own:>10.4}");
    }
}

fn print_report(args: &Args, o: &Outcome) {
    let mode = if args.traced { "traced" } else { "untraced" };
    println!(
        "perfbench workload={} seed={} mode={mode} seconds={}",
        args.workload, args.seed, args.seconds
    );
    for line in &o.context {
        println!("  {line}");
    }
    let failed_ratio = o.failed as f64 / o.attempted.max(1) as f64;
    let own = |d: &Def| d.workloads.contains(&args.workload.as_str());
    let show = |d: &Def, value: Option<f64>| match (own(d), value) {
        (true, Some(v)) => println!("  {:<34} {v:>14.4} {}", d.name, d.unit),
        (true, None) => println!("  {:<34} {:>14} (too few samples)", d.name, "n/a"),
        (false, _) => println!(
            "  {:<34} {:>14} ({} only)",
            d.name,
            "n/a",
            d.workloads.join(", ")
        ),
    };
    let defs: Vec<&Def> = if args.traced {
        PER_LAYER.iter().filter(|d| own(d)).collect()
    } else {
        END_TO_END.iter().chain(END_TO_END_EXTRA).collect()
    };
    for d in defs {
        let v = if d.name == "failed_ratio" {
            Some(failed_ratio)
        } else {
            o.values.get(d.name).copied()
        };
        show(d, v);
    }
    for e in &o.errors {
        println!("  CHECK FAILED: {e}");
    }
}

/// The result line: the verdict and every metric of the mode's table.
fn print_result_line(args: &Args, o: &Outcome) {
    let table = if args.traced { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = table
        .iter()
        .map(|d| {
            let v = o.values.get(d.name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(v),
                d.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted,
        o.failed,
        metrics.join(", ")
    );
}

/// Every digit Rust's shortest round-trip formatting gives, always
/// with a decimal point so the JSON reader sees a number.
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}
