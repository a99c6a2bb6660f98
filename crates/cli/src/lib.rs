//! Implementation of the `ddsc` command-line tool.
//!
//! Subcommands:
//!
//! * `ddsc list` — the benchmark suite;
//! * `ddsc disasm <bench>` — show the head of a workload's dynamic stream;
//! * `ddsc trace gen <bench> -o FILE [--len N] [--seed S]` — write a
//!   binary trace file;
//! * `ddsc trace info FILE` — instruction-mix statistics of a trace file;
//! * `ddsc sim <bench> [--config A..E] [--width W] [--len N] [--seed S]`
//!   — simulate one benchmark and print the result;
//! * `ddsc repro <artifact>|all|extensions [--len N] [--seed S]
//!   [--threads T] [--timing] [--profile] [--profile-dir DIR]
//!   [--bench-json FILE] [--trace-cache DIR] [--no-trace-cache]` —
//!   regenerate paper tables/figures over the parallel lab, optionally
//!   appending a throughput report and writing the machine-readable
//!   benchmark payload (`results/BENCH_lab.json` by convention);
//!   `--profile` runs the grid under the cycle-attribution observer,
//!   renders a where-the-cycles-go table per configuration and writes
//!   `profile_<config>.json` per configuration (default `results/`);
//!   generated traces are cached under `results/traces/` (checksummed,
//!   atomically written) unless `--no-trace-cache` is given;
//! * `ddsc help`.

use std::error::Error;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use ddsc_core::{
    analyze_dataflow, simulate, simulate_stream, Latencies, LoadClass, PaperConfig, SimConfig,
    SimResult, DEFAULT_CHUNK_SIZE,
};
use ddsc_dist::{run_worker, CellSpec, Coordinator, DistSinks, SchedOptions, WorkerOptions};
use ddsc_experiments::cell::{parse_benchmark, parse_config, parse_width, render_panic};
use ddsc_experiments::{
    convergence_study, extensions, figures, tables, CellStore, Lab, Suite, SuiteConfig, TraceCache,
};
use ddsc_trace::io::{read_trace, write_trace};
use ddsc_util::journal::{Journal, JournalRecord};
use ddsc_util::publish_atomic;
use ddsc_workloads::Benchmark;

/// How a successful invocation ended, mapped to the process exit code.
///
/// The contract: `0` — everything asked for was produced; `2` — the run
/// *degraded* (some grid cells failed but partial results were still
/// rendered; `repro --strict` promotes this to a hard failure); hard
/// failures return `Err` from [`run_full`] and exit `1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// Every requested artifact was produced on healthy cells.
    Complete,
    /// Partial results: one or more grid cells failed and their
    /// artifacts were skipped.
    Degraded,
}

impl RunStatus {
    /// The process exit code this status maps to.
    pub fn exit_code(self) -> u8 {
        match self {
            RunStatus::Complete => 0,
            RunStatus::Degraded => 2,
        }
    }
}

/// The text to print plus the exit status of a successful invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutput {
    /// The rendered output.
    pub text: String,
    /// Complete or degraded-partial.
    pub status: RunStatus,
}

impl RunOutput {
    fn complete(text: String) -> RunOutput {
        RunOutput {
            text,
            status: RunStatus::Complete,
        }
    }
}

/// Runs the CLI with the given arguments (excluding the program name);
/// returns the text to print plus the exit status ([`RunStatus`]).
///
/// # Errors
///
/// Returns a boxed error on bad usage, I/O failure, or a simulation
/// failure that leaves nothing to report; `main` prints it and exits 1.
pub fn run_full(args: &[String]) -> Result<RunOutput, Box<dyn Error>> {
    let mut args = args.iter().map(String::as_str);
    match args.next() {
        None | Some("help") | Some("--help") | Some("-h") => Ok(RunOutput::complete(usage())),
        Some("list") => Ok(RunOutput::complete(list())),
        Some("disasm") => disasm(&collect(args)).map(RunOutput::complete),
        Some("trace") => trace_cmd(&collect(args)).map(RunOutput::complete),
        Some("sim") => sim_cmd(&collect(args)).map(RunOutput::complete),
        Some("convergence") => convergence_cmd(&collect(args)).map(RunOutput::complete),
        Some("analyze") => analyze_cmd(&collect(args)).map(RunOutput::complete),
        Some("journal") => journal_cmd(&collect(args)).map(RunOutput::complete),
        Some("repro") => repro_cmd(&collect(args)),
        Some("serve") => serve_cmd(&collect(args)).map(RunOutput::complete),
        Some("loadtest") => loadtest_cmd(&collect(args)),
        Some("coordinator") => coordinator_cmd(&collect(args)),
        Some("worker") => worker_cmd(&collect(args)).map(RunOutput::complete),
        Some("chaosproxy") => chaosproxy_cmd(&collect(args)).map(RunOutput::complete),
        Some(other) => Err(format!("unknown command `{other}` (try `ddsc help`)").into()),
    }
}

/// Like [`run_full`], but returns only the output text (status
/// discarded). Kept for callers that predate the exit-code contract.
///
/// # Errors
///
/// Same as [`run_full`].
pub fn run(args: &[String]) -> Result<String, Box<dyn Error>> {
    run_full(args).map(|o| o.text)
}

/// Runs `f` under a panic guard, converting a panic into an error whose
/// message is the rendered panic payload.
fn catch_panic<T>(f: impl FnOnce() -> T) -> Result<T, Box<dyn Error>> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .map_err(|payload| render_panic(payload.as_ref()).into())
}

fn collect<'a>(it: impl Iterator<Item = &'a str>) -> Vec<&'a str> {
    it.collect()
}

fn usage() -> String {
    "\
ddsc — data dependence speculation & collapsing limit study (MICRO-29, 1996)

USAGE:
  ddsc list
  ddsc disasm <benchmark>
  ddsc trace gen <benchmark> -o FILE [--len N] [--seed S]
  ddsc trace info FILE
  ddsc sim <benchmark> [--config A|B|C|D|E] [--width W] [--len N] [--seed S]
                       [--chunk-size C]
  ddsc convergence [--bench B] [--config A|B|C|D|E] [--width W] [--seed S]
                   [--lens N1,N2,...] [--chunk-size C] [--out FILE]
  ddsc analyze <benchmark> [--len N] [--seed S]
  ddsc repro <table1|table2|table3|table4|table5|table6|
              fig2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|fig10|
              all|extensions> [--len N] [--seed S] [--widths 4,8,...]
                             [--out FILE] [--threads T] [--timing]
                             [--profile] [--profile-dir DIR]
                             [--bench-json FILE] [--trace-cache DIR]
                             [--no-trace-cache] [--strict]
                             [--inject-fault BENCH:CONFIG:WIDTH]
                             [--resume | --fresh] [--run-dir DIR]
                             [--cell-timeout SECS]
                             [--abort-after-cells N]
                             [--distributed N] [--dist-addr HOST:PORT]
                             [--dist-port-file FILE] [--dist-json FILE]
                             [--dist-via-file FILE]
                             [--lease-timeout SECS] [--no-adaptive-lease]
                             [--heartbeat-timeout SECS]
                             [--poison-threshold K]
                             [--spot-check PCT] [--spot-check-seed S]
                             [--byzantine-workers K]
  ddsc coordinator [--workers N] [repro-all flags...]
  ddsc worker (--connect HOST:PORT | --connect-file FILE)
              [--heartbeat-ms MS] [--reconnect-attempts N]
  ddsc chaosproxy (--upstream HOST:PORT | --upstream-file FILE)
                  [--listen HOST:PORT] [--port-file FILE] [--seed S]
                  [--events N] [--min-gap B] [--max-gap B]
                  [--print-script N]
  ddsc journal FILE
  ddsc serve [--addr HOST:PORT] [--workers N] [--queue-depth K]
             [--cell-timeout SECS] [--run-dir DIR] [--fresh]
             [--port-file FILE] [--max-trace-len N]
  ddsc loadtest [--addr HOST:PORT] [--requests N] [--clients C]
                [--dup-ratio R] [--len N] [--seed S] [--widths 4,8,...]
                [--out FILE] [--shutdown]

Benchmarks: compress espresso eqntott li go ijpeg

`sim --chunk-size C` streams the run: the workload VM is stepped
lazily and the simulator holds one C-record pull buffer plus analysis
columns that span its instruction window, so paper-scale traces (250M
instructions) run in bounded memory with bit-identical results. `convergence` runs one cell
(default li, config D, width 8) streamed at a ladder of trace
lengths (default 300000,25000000,250000000), prints the IPC
convergence table and writes the JSON payload to --out (default
results/BENCH_convergence.json).

`repro` fans the simulation grid out over a thread pool (host
parallelism by default; override with --threads or DDSC_THREADS).
--timing appends a wall-clock/MIPS report; --bench-json writes the
same data as JSON (conventionally results/BENCH_lab.json).
--profile runs every cell under the cycle-attribution observer
(audited: attributed cycles sum exactly to total cycles), appends a
where-the-cycles-go table per configuration, and writes
profile_<config>.json for each configuration into --profile-dir
(default results). Generated traces are cached on disk (default
results/traces, checksum validated); --trace-cache relocates the
cache, --no-trace-cache regenerates every trace in memory.

`repro all` degrades gracefully: a grid cell whose simulation fails
is skipped (with its artifacts) while everything else renders, and
the run exits 2 with a partial-results summary; --strict promotes
any degradation to a hard failure. Exit codes: 0 complete, 2
degraded partial results, 1 hard failure. --inject-fault forces one
cell to fail (deterministic fault injection for testing the
degraded path; repeatable).

`repro --fresh` runs supervised: every cell transition is appended
to a write-ahead journal (<run-dir>/run_journal.bin) and every
finished cell's result is stored under <run-dir>/cells, all written
atomically. `repro --resume` replays the journal first — cells
whose recorded input digest still matches are restored from disk
and only missing, failed or stale cells re-simulate — so a killed
run picks up where it died with byte-identical output. --run-dir
defaults to results. --cell-timeout gives every cell a wall-clock
budget in seconds (cooperative cancellation; expired cells are
reported as timed out and degrade the run). `ddsc journal FILE`
dumps a run journal, one record per line. --abort-after-cells kills
the process after N finished cells (crash-consistency testing).

`ddsc serve` runs the lab as a long-running daemon: experiment
requests (benchmark, config, width, trace_len, seed) arrive as
checksummed binary frames over TCP, pass admission control (bounded
queue; typed rejection when full), coalesce onto in-flight identical
cells, and return the SimResult binary codec. With --run-dir the
daemon journals progress and stores finished cells so a killed
daemon restarted on the same directory re-serves them byte-identically
without re-simulating (--fresh wipes that state first). --addr
defaults to 127.0.0.1:4996; port 0 picks an ephemeral port, and
--port-file publishes the actually bound address atomically.
--cell-timeout bounds each cell's wall clock, returning a timed-out
response instead of stalling a worker. `ddsc loadtest` is the
closed-loop multi-client driver: it fires --requests grid requests
from --clients connections with a --dup-ratio fraction of repeats
(exercising coalescing), prints a latency/throughput summary, and
publishes the BENCH payload (p50/p90/p99/p999, throughput, server
coalesce/cache counters) to --out (default results/BENCH_serve.json);
--shutdown stops the daemon afterwards.

`repro all --distributed N` runs the grid across worker *processes*:
a coordinator hands out the not-yet-cached cells to N locally spawned
`ddsc worker` children (N=0 accepts external workers only) over the
checksummed frame protocol, with per-worker heartbeats, cell leases
(straggler re-dispatch; first valid result wins), exponential-backoff
reconnect and poison-cell quarantine after --poison-threshold distinct
worker strikes (quarantined cells degrade the run, exit 2). The merged
output is byte-identical to a single-process run, and with --fresh /
--resume the merge is journaled so a killed coordinator resumes,
re-dispatching only missing cells. The run report (per-worker cells,
re-dispatches, speedup vs serial) lands in --dist-json (default
results/BENCH_dist.json). `ddsc coordinator` is shorthand for
`repro all --distributed 0` plus --workers N to spawn local workers;
`ddsc worker --connect HOST:PORT` (or --connect-file FILE, polled
until the coordinator publishes its address) joins any coordinator,
exiting 0 when told the grid is done or the coordinator stays
unreachable past its reconnect budget.

The coordinator verifies its fleet: --spot-check PCT (default 10)
dispatches a seeded, deterministic PCT% of cells to two distinct
workers and compares the canonical result bytes — a mismatch holds
both answers, re-dispatches to a third worker as tiebreak, and bans
the outvoted worker for the run (its leases drain, its results are
ignored, reconnection is refused). Lease timeouts adapt online from
per-benchmark compute-time estimates (EWMA + p95); --lease-timeout
SECS is both the pre-estimate fallback and a floor the estimator
never undercuts, and --no-adaptive-lease pins timeouts to the flag.
Spot-check counters, per-benchmark lease stats and mismatch
incidents land in --dist-json (schema ddsc-dist-bench-v2).

`ddsc chaosproxy` interposes a deterministic fault box between
workers and a coordinator (or any loopback TCP service): each
connection suffers a --seed-scripted sequence of delays, dropped and
duplicated bytes, bit-flips, truncations and mid-stream resets, the
same every run. --upstream-file polls the coordinator's
--dist-port-file; --port-file publishes the proxy's own address for
workers' --connect-file; --print-script N renders the first N
connections' scripts and exits. `repro all --distributed N
--dist-via-file FILE` starts local workers against the proxy's
address file instead of the coordinator, and --byzantine-workers K
makes the first K spawned workers lie (well-formed, perturbed
results) so trust drills have an adversary to catch.
"
    .to_string()
}

/// Dumps a run journal, one record per line (the format CI smoke jobs
/// poll while a supervised run is still going).
fn journal_cmd(args: &[&str]) -> Result<String, Box<dyn Error>> {
    let path = args.first().ok_or("usage: ddsc journal FILE")?;
    let records = ddsc_util::read_journal(Path::new(path))?;
    let mut out = String::new();
    for rec in &records {
        let _ = match rec {
            JournalRecord::RunStarted { config } => writeln!(out, "RunStarted {config}"),
            JournalRecord::CellStarted {
                bench,
                config,
                width,
            } => writeln!(out, "CellStarted {bench} {config} {width}"),
            JournalRecord::CellFinished {
                bench,
                config,
                width,
                digest,
            } => writeln!(
                out,
                "CellFinished {bench} {config} {width} digest={digest:016x}"
            ),
            JournalRecord::CellFailed {
                bench,
                config,
                width,
                error,
            } => writeln!(out, "CellFailed {bench} {config} {width} error={error:?}"),
            JournalRecord::ArtifactPublished { path } => {
                writeln!(out, "ArtifactPublished {path}")
            }
            JournalRecord::RunFinished { status } => writeln!(out, "RunFinished status={status}"),
        };
    }
    let _ = writeln!(out, "{} records", records.len());
    Ok(out)
}

/// Runs the lab as a daemon: binds, prints the bound address (flushed,
/// so supervisors and CI can wait on it), then blocks in the accept
/// loop until a protocol `Shutdown` request stops it.
fn serve_cmd(args: &[&str]) -> Result<String, Box<dyn Error>> {
    let addr = flag_value(args, "--addr").unwrap_or("127.0.0.1:4996");
    let workers = parse_num(args, "--workers", 2usize)?;
    let queue_depth = parse_num(args, "--queue-depth", 64usize)?;
    let deadline = match flag_value(args, "--cell-timeout") {
        Some(v) => Some(Duration::from_secs_f64(v.parse::<f64>()?)),
        None => None,
    };
    let run_dir = flag_value(args, "--run-dir").map(PathBuf::from);
    let max_trace_len = parse_num(
        args,
        "--max-trace-len",
        ddsc_serve::engine::DEFAULT_MAX_TRACE_LEN,
    )?;
    let port_file = flag_value(args, "--port-file").map(PathBuf::from);
    if args.contains(&"--fresh") {
        if let Some(dir) = &run_dir {
            let _ = std::fs::remove_file(dir.join("serve_journal.bin"));
            let _ = std::fs::remove_dir_all(dir.join("cells"));
        }
    }

    let config = ddsc_serve::EngineConfig {
        workers,
        queue_depth,
        deadline,
        run_dir,
        max_trace_len,
        gate: None,
    };
    let server = ddsc_serve::Server::bind(addr, config, port_file.as_deref())?;
    {
        use std::io::Write as _;
        let mut stdout = std::io::stdout();
        writeln!(stdout, "ddsc serve listening on {}", server.local_addr())?;
        stdout.flush()?;
    }
    let summary = server.run();
    let s = summary.stats;
    let mut out = String::new();
    let _ = writeln!(out, "ddsc serve shut down cleanly");
    let _ = writeln!(
        out,
        "  connections {}  accepted {}  completed {}  failed {}  timed out {}",
        summary.connections, s.accepted, s.completed, s.failed, s.timed_out
    );
    let _ = writeln!(
        out,
        "  coalesced {}  cache hits {}  resumed cells {}  rejected busy {}  rejected invalid {}",
        s.coalesced, s.cache_hits, s.resumed_cells, s.rejected_busy, s.rejected_invalid
    );
    Ok(out)
}

/// Closed-loop multi-client load driver against a live `ddsc serve`.
fn loadtest_cmd(args: &[&str]) -> Result<RunOutput, Box<dyn Error>> {
    let defaults = ddsc_serve::LoadtestConfig::default();
    let widths = match flag_value(args, "--widths") {
        None => defaults.widths.clone(),
        Some(list) => parse_widths(list)?,
    };
    let cfg = ddsc_serve::LoadtestConfig {
        addr: flag_value(args, "--addr")
            .unwrap_or(&defaults.addr)
            .to_string(),
        requests: parse_num(args, "--requests", defaults.requests)?,
        clients: parse_num(args, "--clients", defaults.clients)?,
        dup_ratio: parse_num(args, "--dup-ratio", defaults.dup_ratio)?,
        trace_len: parse_num(args, "--len", defaults.trace_len)?,
        seed: parse_num(args, "--seed", defaults.seed)?,
        widths,
        out: flag_value(args, "--out")
            .map(PathBuf::from)
            .unwrap_or_else(|| defaults.out.clone()),
        shutdown: args.contains(&"--shutdown"),
    };

    let report = ddsc_serve::run_loadtest(&cfg)?;
    let (p50, p90, p99, p999) = report.latency_ms;
    let s = &report.server;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "serve loadtest: {} requests, {} clients, dup ratio {:.2} against {}",
        cfg.requests, cfg.clients, cfg.dup_ratio, cfg.addr
    );
    let _ = writeln!(
        out,
        "  completed {}  rejected {}  failed {}  timed out {}",
        report.completed, report.rejected, report.failed, report.timed_out
    );
    let _ = writeln!(
        out,
        "  unique cells {}  planned duplicates {}",
        report.unique_cells, report.duplicates
    );
    let _ = writeln!(
        out,
        "  wall {:.2} s  throughput {:.1} req/s",
        report.wall_seconds, report.throughput_rps
    );
    let _ = writeln!(
        out,
        "  latency ms: p50 {p50:.2}  p90 {p90:.2}  p99 {p99:.2}  p999 {p999:.2}  mean {:.2}  max {:.2}",
        report.mean_ms, report.max_ms
    );
    let _ = writeln!(
        out,
        "  server: simulated {}  coalesced {}  cache hits {}  resumed {}",
        s.completed, s.coalesced, s.cache_hits, s.resumed_cells
    );
    let _ = writeln!(out, "  wrote {}", cfg.out.display());
    let status = if report.failed + report.timed_out > 0 {
        RunStatus::Degraded
    } else {
        RunStatus::Complete
    };
    Ok(RunOutput { text: out, status })
}

fn list() -> String {
    let mut out = String::new();
    for b in Benchmark::ALL {
        let _ = writeln!(
            out,
            "{:<10} models {:<14} {}",
            b.name(),
            b.models(),
            if b.is_pointer_chasing() {
                "(pointer chasing)"
            } else {
                ""
            }
        );
    }
    out
}

fn parse_bench(name: &str) -> Result<Benchmark, Box<dyn Error>> {
    Ok(parse_benchmark(name).map_err(|e| format!("{e} (try `ddsc list`)"))?)
}

/// A comma-separated `--widths` list, each through the cell parser.
fn parse_widths(list: &str) -> Result<Vec<u32>, Box<dyn Error>> {
    list.split(',')
        .map(|w| Ok(parse_width(w.trim().parse()?)?))
        .collect()
}

fn flag_value<'a>(args: &[&'a str], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|&a| a == flag)
        .and_then(|i| args.get(i + 1).copied())
}

fn parse_num<T: std::str::FromStr>(
    args: &[&str],
    flag: &str,
    default: T,
) -> Result<T, Box<dyn Error>>
where
    T::Err: Error + 'static,
{
    match flag_value(args, flag) {
        Some(v) => Ok(v.parse()?),
        None => Ok(default),
    }
}

fn disasm(args: &[&str]) -> Result<String, Box<dyn Error>> {
    let name = args.first().ok_or("usage: ddsc disasm <benchmark>")?;
    let bench = parse_bench(name)?;
    let seed: u64 = parse_num(args, "--seed", 1996)?;
    let len: usize = parse_num(args, "--len", 64)?;
    let trace = bench.trace(seed, len).map_err(|e| e.to_string())?;
    let mut out = format!("first {len} dynamic instructions of {}\n", bench.name());
    for inst in &trace {
        let _ = writeln!(out, "{inst}");
    }
    Ok(out)
}

fn trace_cmd(args: &[&str]) -> Result<String, Box<dyn Error>> {
    match args.first().copied() {
        Some("gen") => {
            let name = args
                .get(1)
                .ok_or("usage: ddsc trace gen <benchmark> -o FILE")?;
            let bench = parse_bench(name)?;
            let path = flag_value(args, "-o").ok_or("missing -o FILE")?;
            let len: usize = parse_num(args, "--len", 1_000_000)?;
            let seed: u64 = parse_num(args, "--seed", 1996)?;
            let trace = bench.trace(seed, len).map_err(|e| e.to_string())?;
            let file = File::create(path)?;
            write_trace(BufWriter::new(file), &trace)?;
            Ok(format!(
                "wrote {} instructions of {} to {path}\n",
                trace.len(),
                bench.name()
            ))
        }
        Some("info") => {
            let path = args.get(1).ok_or("usage: ddsc trace info FILE")?;
            let trace = read_trace(BufReader::new(File::open(path)?))?;
            Ok(format!(
                "trace `{}`: {} instructions\n{}",
                trace.name(),
                trace.len(),
                trace.stats()
            ))
        }
        _ => Err("usage: ddsc trace <gen|info> ...".into()),
    }
}

fn sim_cmd(args: &[&str]) -> Result<String, Box<dyn Error>> {
    let name = args.first().ok_or("usage: ddsc sim <benchmark> [...]")?;
    let bench = parse_bench(name)?;
    let config = parse_config(flag_value(args, "--config").unwrap_or("D"))?;
    let width = parse_width(parse_num(args, "--width", 8)?)?;
    let len: usize = parse_num(args, "--len", 300_000)?;
    let seed: u64 = parse_num(args, "--seed", 1996)?;
    let sim_config = SimConfig::paper(config, width);

    // With --chunk-size the run streams: the workload VM is stepped
    // lazily and the simulator holds only a sliding window, so memory
    // stays bounded at any --len. Results are bit-identical to the
    // whole-trace path, and the streaming note goes to stderr so
    // stdout stays byte-identical too (CI diffs the two).
    let result = match flag_value(args, "--chunk-size") {
        Some(c) => {
            let chunk: usize = c.parse()?;
            let mut src = bench.source(seed, len);
            let r = simulate_stream(&mut src, &sim_config, chunk).map_err(|e| e.to_string())?;
            if let Some(rss) = ddsc_util::peak_rss_bytes() {
                eprintln!(
                    "streamed {len} instructions in {chunk}-instruction chunks, peak RSS {:.1} MiB",
                    rss as f64 / (1024.0 * 1024.0)
                );
            }
            r
        }
        None => {
            let trace = bench.trace(seed, len).map_err(|e| e.to_string())?;
            simulate(&trace, &sim_config)
        }
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} | config {} ({}), width {width}",
        bench.name(),
        config.label(),
        config.description()
    );
    let _ = writeln!(out, "{result}");
    let _ = writeln!(
        out,
        "branches: {} conditional, {:.1}% predicted correctly",
        result.branches.cond_branches,
        result.branches.accuracy_pct().value()
    );
    if result.loads.total() > 0 {
        let _ = writeln!(
            out,
            "loads: ready {} / correct {} / incorrect {} / not-predicted {} (%)",
            result.loads.pct(LoadClass::Ready),
            result.loads.pct(LoadClass::PredictedCorrect),
            result.loads.pct(LoadClass::PredictedIncorrect),
            result.loads.pct(LoadClass::NotPredicted)
        );
    }
    let st = &result.stalls;
    if st.total() > 0 {
        let _ = writeln!(
            out,
            "stalls: data {} / address {} / memory {} / branch {} / bandwidth {} (% of {:.2} wait cycles/inst)",
            st.share(st.data),
            st.share(st.address),
            st.share(st.memory),
            st.share(st.branch),
            st.share(st.bandwidth),
            st.per_inst()
        );
    }
    if result.collapse.groups() > 0 {
        let _ = writeln!(
            out,
            "collapsed: {:.1}% of instructions, {} groups",
            result.collapse.collapsed_pct().value(),
            result.collapse.groups()
        );
    }
    Ok(out)
}

/// `ddsc convergence`: the paper-scale trace-length study. Simulates
/// one cell streamed at a ladder of lengths, prints the convergence
/// table and publishes the JSON payload.
fn convergence_cmd(args: &[&str]) -> Result<String, Box<dyn Error>> {
    let bench = parse_bench(flag_value(args, "--bench").unwrap_or("li"))?;
    let config = parse_config(flag_value(args, "--config").unwrap_or("D"))?;
    let width = parse_width(parse_num(args, "--width", 8)?)?;
    let seed: u64 = parse_num(args, "--seed", 1996)?;
    let chunk: usize = parse_num(args, "--chunk-size", DEFAULT_CHUNK_SIZE)?;
    let lens: Vec<usize> = match flag_value(args, "--lens") {
        Some(spec) => spec
            .split(',')
            .map(|s| s.trim().replace('_', "").parse::<usize>())
            .collect::<Result<_, _>>()?,
        None => vec![300_000, 25_000_000, 250_000_000],
    };
    let report =
        convergence_study(bench, config, width, seed, &lens, chunk).map_err(|e| e.to_string())?;
    let mut out = report.render();
    let path = flag_value(args, "--out").unwrap_or("results/BENCH_convergence.json");
    publish_atomic(Path::new(path), report.to_json().as_bytes())?;
    let _ = writeln!(out, "wrote {path}");
    Ok(out)
}

fn analyze_cmd(args: &[&str]) -> Result<String, Box<dyn Error>> {
    let name = args
        .first()
        .ok_or("usage: ddsc analyze <benchmark> [...]")?;
    let bench = parse_bench(name)?;
    let len: usize = parse_num(args, "--len", 300_000)?;
    let seed: u64 = parse_num(args, "--seed", 1996)?;
    let trace = bench.trace(seed, len).map_err(|e| e.to_string())?;
    let a = analyze_dataflow(&trace, &Latencies::default());

    let mut out = String::new();
    let _ = writeln!(
        out,
        "dataflow-limit analysis of {} ({} instructions)",
        bench.name(),
        a.instructions
    );
    let _ = writeln!(out, "  critical path     : {} cycles", a.critical_path);
    let _ = writeln!(out, "  dataflow-limit IPC: {:.2}", a.limit_ipc());
    let _ = writeln!(
        out,
        "  true dependences  : {:.2} per instruction",
        a.deps_per_inst()
    );
    let _ = writeln!(
        out,
        "  dependence spans  : {:.1}% within 8 insts, {:.1}% within 64",
        100.0 * a.fraction_below(8),
        100.0 * a.fraction_below(64)
    );
    // How much of the limit each machine configuration captures.
    let _ = writeln!(out, "\nmachine IPC vs. the dataflow limit (width 32):");
    for cfg in PaperConfig::ALL {
        let r = simulate(&trace, &SimConfig::paper(cfg, 32));
        let _ = writeln!(
            out,
            "  config {}: {:>6.2} IPC  ({:.0}% of limit)",
            cfg.label(),
            r.ipc(),
            100.0 * r.ipc() / a.limit_ipc().max(1e-9)
        );
    }
    Ok(out)
}

/// Parses a `--inject-fault` cell spec: `benchmark:config:width`.
fn parse_cell(spec: &str) -> Result<ddsc_experiments::Cell, Box<dyn Error>> {
    let parts: Vec<&str> = spec.split(':').collect();
    let [bench, config, width] = parts.as_slice() else {
        return Err(format!("bad cell `{spec}` (expected benchmark:config:width)").into());
    };
    Ok((
        parse_bench(bench)?,
        parse_config(config)?,
        parse_width(width.parse()?)?,
    ))
}

/// Runs the not-yet-cached grid cells through a coordinator + worker
/// processes and installs the merged results into `lab`, leaving the
/// cache in the same state a local prewarm would have: byte-identical
/// results keyed by the same cells, quarantined cells recorded as
/// failures feeding the exit-2 degraded contract.
fn distributed_prewarm(lab: &Lab, args: &[&str], nworkers: usize) -> Result<(), Box<dyn Error>> {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let grid = lab.grid();
    let todo = lab.uncached_cells(&grid);
    if todo.is_empty() {
        eprintln!(
            "distributed: all {} grid cells already cached, nothing to dispatch",
            grid.len()
        );
        return Ok(());
    }
    let specs = todo
        .iter()
        .map(|&cell| lab.cell_key(cell).map(|key| CellSpec::from(&key)))
        .collect::<Result<Vec<CellSpec>, String>>()?;
    let mut opts = SchedOptions::default();
    if let Some(v) = flag_value(args, "--lease-timeout") {
        // The fixed flag doubles as the adaptive floor: an explicit
        // operator timeout is never shortened by the estimator.
        opts.lease_timeout = Duration::from_secs_f64(v.parse()?);
        opts.lease_floor = opts.lease_timeout;
    }
    if let Some(v) = flag_value(args, "--heartbeat-timeout") {
        opts.heartbeat_timeout = Duration::from_secs_f64(v.parse()?);
    }
    if let Some(v) = flag_value(args, "--poison-threshold") {
        opts.poison_threshold = v.parse()?;
    }
    if args.contains(&"--no-adaptive-lease") {
        opts.adaptive_lease = false;
    }
    opts.spot_check_percent = parse_num(args, "--spot-check", 10u8)?.min(100);
    opts.spot_check_seed = parse_num(args, "--spot-check-seed", opts.spot_check_seed)?;
    let coord = Coordinator::bind(
        flag_value(args, "--dist-addr").unwrap_or("127.0.0.1:0"),
        specs,
        opts,
    )?;
    let addr = coord.local_addr();
    eprintln!(
        "distributed: coordinating {} cells on {addr} ({nworkers} local workers)",
        todo.len()
    );
    if let Some(path) = flag_value(args, "--dist-port-file") {
        publish_atomic(Path::new(path), addr.to_string().as_bytes())?;
    }
    let exe = std::env::current_exe()?;
    let byzantine_workers: usize = parse_num(args, "--byzantine-workers", 0)?;
    let mut children = Vec::new();
    for i in 0..nworkers {
        let mut cmd = std::process::Command::new(&exe);
        // --dist-via-file routes local workers through an address file
        // (typically published by `ddsc chaosproxy`) instead of the
        // coordinator's own socket, so chaos drills interpose on every
        // worker byte without the workers knowing.
        match flag_value(args, "--dist-via-file") {
            Some(path) => cmd.args(["worker", "--connect-file", path]),
            None => cmd.args(["worker", "--connect", &addr.to_string()]),
        };
        if i < byzantine_workers {
            cmd.arg("--byzantine");
        }
        // A worker's summary line goes to our stderr: stdout carries
        // only the repro output, byte-identical to a local run's.
        cmd.stdout(std::io::stderr());
        children.push(cmd.spawn()?);
    }
    // --abort-after-cells counts *merged* cells here: run_cell never
    // fires in a distributed prewarm, so the lab's own abort hook would
    // be dead code and the crash-consistency drill would lose its
    // coordinator-kill scenario.
    let abort_after: usize = parse_num(args, "--abort-after-cells", 0)?;
    let merged = AtomicUsize::new(0);
    let on_result = |spec: &CellSpec, result: &SimResult, seconds: f64| {
        if let Ok(key) = spec.key() {
            lab.install_result(key.cell(), result.clone(), seconds);
            let done = merged.fetch_add(1, Ordering::SeqCst) + 1;
            if abort_after > 0 && done >= abort_after {
                eprintln!("injected abort: exiting after {done} merged cells");
                std::process::exit(3);
            }
        }
    };
    let on_quarantine = |spec: &CellSpec, error: &str| {
        if let Ok(key) = spec.key() {
            lab.install_failure(key.cell(), format!("quarantined by coordinator: {error}"));
        }
    };
    let report = coord.run(&DistSinks {
        on_result: &on_result,
        on_quarantine: &on_quarantine,
    });
    // Workers exit on AllDone by themselves; the kill only reaps a
    // child wedged mid-reconnect so the CLI never hangs on wait().
    for mut child in children {
        let _ = child.kill();
        let _ = child.wait();
    }
    let json_path = flag_value(args, "--dist-json").unwrap_or("results/BENCH_dist.json");
    if let Some(parent) = Path::new(json_path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    publish_atomic(Path::new(json_path), report.to_json().as_bytes())?;
    // Summary goes to stderr: stdout must stay byte-identical to a
    // single-process run's.
    eprintln!(
        "distributed: merged {}/{} cells ({} quarantined) in {:.2} s, \
         {} re-dispatches, {} duplicates, {} corrupt, {} worker deaths, \
         speedup vs serial {:.2}x; wrote {json_path}",
        report.cells_completed,
        report.cells_total,
        report.cells_quarantined,
        report.wall_seconds,
        report.redispatched,
        report.duplicate_results,
        report.corrupt_results,
        report.worker_deaths,
        report.speedup_vs_serial(),
    );
    if report.spot_checked > 0 || report.mismatches > 0 || !report.byzantine_workers.is_empty() {
        eprintln!(
            "distributed: {} cells spot-checked, {} mismatches, \
             {} byzantine workers banned ({:?}), \
             {} revocation false positives",
            report.spot_checked,
            report.mismatches,
            report.byzantine_workers.len(),
            report.byzantine_workers,
            report.revocation_false_positives,
        );
    }
    Ok(())
}

/// `ddsc coordinator` — shorthand for `repro all --distributed N` with
/// N taken from `--workers` (default 0: external workers only). Every
/// other flag is passed straight through to `repro`.
fn coordinator_cmd(args: &[&str]) -> Result<RunOutput, Box<dyn Error>> {
    let workers = flag_value(args, "--workers").unwrap_or("0");
    let mut fwd = vec!["all", "--distributed", workers];
    fwd.extend_from_slice(args);
    repro_cmd(&fwd)
}

/// `ddsc worker` — joins a coordinator and computes cells until told
/// the grid is done (or the coordinator stays unreachable past the
/// reconnect budget; both exit 0, so supervising scripts only see a
/// failure when the worker itself breaks).
fn worker_cmd(args: &[&str]) -> Result<String, Box<dyn Error>> {
    let connect = address_flag(args, "worker", "--connect", "coordinator")?;
    let mut opts = WorkerOptions::new(connect);
    if let Some(ms) = flag_value(args, "--heartbeat-ms") {
        opts.heartbeat_every = Duration::from_millis(ms.parse()?);
    }
    if let Some(n) = flag_value(args, "--reconnect-attempts") {
        opts.reconnect_attempts = n.parse()?;
    }
    // Hidden test mode (documented in DESIGN.md §8.2, not in usage):
    // compute honestly, then perturb the cycle count before reporting.
    // Exists so trust drills have a live adversary to catch.
    opts.byzantine = args.contains(&"--byzantine");
    let summary = run_worker(&opts)?;
    Ok(format!(
        "worker {}: {} cells completed, {} failed{}\n",
        summary.worker_id,
        summary.completed,
        summary.failed,
        if summary.all_done {
            " (grid complete)"
        } else {
            " (coordinator gone)"
        }
    ))
}

/// The address `cmd` was given as `FLAG ADDR`, or as `FLAG-file FILE`:
/// a file the coordinator (or a proxy) publishes its bound address to
/// atomically. The file is polled for up to 30 s, so the reader can be
/// started first; `what` names the address in the timeout error.
fn address_flag(
    args: &[&str],
    cmd: &str,
    flag: &str,
    what: &str,
) -> Result<String, Box<dyn Error>> {
    let file_flag = format!("{flag}-file");
    match (flag_value(args, flag), flag_value(args, &file_flag)) {
        (Some(addr), None) => Ok(addr.to_string()),
        (None, Some(path)) => {
            let deadline = std::time::Instant::now() + Duration::from_secs(30);
            loop {
                match std::fs::read_to_string(path) {
                    Ok(s) if !s.trim().is_empty() => return Ok(s.trim().to_string()),
                    _ if std::time::Instant::now() > deadline => {
                        return Err(format!("no {what} address in {path} after 30 s").into());
                    }
                    _ => std::thread::sleep(Duration::from_millis(20)),
                }
            }
        }
        _ => Err(format!("{cmd} needs exactly one of {flag} ADDR or {file_flag} FILE").into()),
    }
}

/// `ddsc chaosproxy` — a deterministic network-chaos proxy for
/// loopback TCP. Every connection through it suffers a seeded script
/// of delays, drops, bit-flips, duplicated bytes, truncations and
/// mid-stream resets; the same `--seed` always produces the same
/// per-connection scripts, so a chaos drill that fails in CI replays
/// bit-identically on a laptop. Runs until killed.
fn chaosproxy_cmd(args: &[&str]) -> Result<String, Box<dyn Error>> {
    use ddsc_dist::{chaos, ChaosOptions, Direction};

    let mut opts = ChaosOptions::default();
    if let Some(v) = flag_value(args, "--seed") {
        opts.seed = v.parse()?;
    }
    if let Some(v) = flag_value(args, "--events") {
        opts.events_per_conn = v.parse()?;
    }
    if let Some(v) = flag_value(args, "--min-gap") {
        opts.min_gap = v.parse()?;
    }
    if let Some(v) = flag_value(args, "--max-gap") {
        opts.max_gap = v.parse()?;
    }
    if opts.min_gap > opts.max_gap {
        return Err("--min-gap must not exceed --max-gap".into());
    }

    // Dry run: render the first N connections' fault scripts (both
    // directions) without touching the network — the reviewable artifact
    // form of "what will this seed do to me".
    if let Some(n) = flag_value(args, "--print-script") {
        let n: u64 = n.parse()?;
        let mut out = String::new();
        for conn in 0..n {
            for dir in [Direction::Upstream, Direction::Downstream] {
                let plan = chaos::script(&opts, conn, dir);
                let _ = writeln!(out, "# conn {conn} {dir:?}");
                out.push_str(&plan.render());
            }
        }
        return Ok(out);
    }

    let upstream = address_flag(args, "chaosproxy", "--upstream", "upstream")?;
    let listen = flag_value(args, "--listen").unwrap_or("127.0.0.1:0");
    let proxy = ddsc_dist::ChaosProxy::bind(listen, upstream, opts)?;
    let addr = proxy.local_addr();
    // Publish the bound address exactly like the coordinator does, so
    // workers can `--connect-file` the proxy instead of the real thing.
    if let Some(path) = flag_value(args, "--port-file") {
        publish_atomic(Path::new(path), addr.to_string().as_bytes())?;
    }
    println!("{addr}");
    {
        use std::io::Write as _;
        std::io::stdout().flush()?;
    }
    let summary = proxy.run();
    Ok(format!(
        "chaosproxy: {} connections; {} delays, {} drops, {} bit-flips, \
         {} duplications, {} truncations, {} resets\n",
        summary.connections,
        summary.delays,
        summary.drops,
        summary.flips,
        summary.duplicates,
        summary.truncations,
        summary.resets,
    ))
}

fn repro_cmd(args: &[&str]) -> Result<RunOutput, Box<dyn Error>> {
    let what = args.first().copied().unwrap_or("all");
    let len: usize = parse_num(args, "--len", 300_000)?;
    let seed: u64 = parse_num(args, "--seed", 1996)?;
    let widths: Vec<u32> = match flag_value(args, "--widths") {
        Some(spec) => parse_widths(spec)?,
        None => SimConfig::PAPER_WIDTHS.to_vec(),
    };
    if let Some(t) = flag_value(args, "--threads") {
        let t: usize = t.parse()?;
        // The lab reads DDSC_THREADS; the flag is just a friendlier spelling.
        std::env::set_var("DDSC_THREADS", t.to_string());
    }
    let strict = args.contains(&"--strict");
    let resume = args.contains(&"--resume");
    let fresh = args.contains(&"--fresh");
    if resume && fresh {
        return Err("--resume and --fresh are mutually exclusive".into());
    }
    let suite_config = SuiteConfig {
        seed,
        trace_len: len,
        widths: widths.clone(),
    };
    let suite = if args.contains(&"--no-trace-cache") {
        Suite::generate(suite_config)
    } else {
        let dir = flag_value(args, "--trace-cache").unwrap_or("results/traces");
        Suite::generate_cached(suite_config, &TraceCache::new(dir))
    };
    let profiling = args.contains(&"--profile");
    let mut lab = if profiling {
        Lab::from_suite(suite).with_profiling()
    } else {
        Lab::from_suite(suite)
    };
    for (i, arg) in args.iter().enumerate() {
        if *arg == "--inject-fault" {
            let spec = args
                .get(i + 1)
                .ok_or("--inject-fault needs a benchmark:config:width cell")?;
            lab = lab.with_injected_fault(parse_cell(spec)?);
        }
    }
    let cell_timeout: f64 = parse_num(args, "--cell-timeout", 0.0)?;
    if cell_timeout > 0.0 {
        lab = lab.with_cell_timeout(Duration::from_secs_f64(cell_timeout));
    }
    if let Some(n) = flag_value(args, "--abort-after-cells") {
        lab = lab.with_abort_after(n.parse()?);
    }
    // Supervised runs (--fresh starts a journal, --resume replays one)
    // journal every cell transition write-ahead and publish finished
    // cell results to the run directory, making a killed run resumable.
    let mut journal: Option<Arc<Journal>> = None;
    if resume || fresh {
        let run_dir = PathBuf::from(flag_value(args, "--run-dir").unwrap_or("results"));
        std::fs::create_dir_all(&run_dir)?;
        let journal_path = run_dir.join("run_journal.bin");
        if fresh {
            match std::fs::remove_file(&journal_path) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
                _ => {}
            }
        }
        let (j, records) = Journal::open(&journal_path)?;
        let j = Arc::new(j);
        lab = lab.with_supervision(Arc::clone(&j), CellStore::new(run_dir.join("cells")));
        if resume {
            let (resumed, replayed) = lab.resume(&records);
            // Resume bookkeeping goes to stderr (and BENCH_lab.json),
            // never stdout: resumed output must stay byte-identical to
            // an uninterrupted run's.
            eprintln!(
                "resume: restored {resumed} cells from {}, {replayed} journaled cells will re-run",
                journal_path.display()
            );
        }
        if let Err(e) = j.append(&JournalRecord::RunStarted {
            config: format!("{what} seed={seed} len={len} widths={widths:?}"),
        }) {
            eprintln!("warning: could not append to run journal: {e}");
        }
        journal = Some(j);
    }
    // Distributed prewarm: fan the not-yet-cached cells out to worker
    // processes before rendering. Merged results land in the lab cache
    // (and, under supervision, the journal + cell store) exactly as a
    // local run's would, so everything below this block is unchanged.
    if let Some(spec) = flag_value(args, "--distributed") {
        let nworkers: usize = spec.parse()?;
        distributed_prewarm(&lab, args, nworkers)?;
    }
    let journal_artifact = |path: &str| {
        if let Some(j) = &journal {
            if let Err(e) = j.append(&JournalRecord::ArtifactPublished {
                path: path.to_string(),
            }) {
                eprintln!("warning: could not append to run journal: {e}");
            }
        }
    };
    let mut status = RunStatus::Complete;
    let mut out = match what {
        "all" => {
            // Prewarm with per-cell containment first; only then decide
            // between the byte-stable clean path and the degraded one.
            lab.prewarm_degraded(&lab.grid());
            let failures = lab.failed_cells();
            if failures.is_empty() {
                // Every cell is cached: render_all's own prewarm is a
                // no-op and the output is byte-identical to a run
                // without the containment layer.
                ddsc_experiments::render_all(&lab)
            } else if strict {
                let ((b, c, w), msg) = &failures[0];
                return Err(format!(
                    "{} grid cell(s) failed (strict mode); first: ({}, config {}, width {}): {msg}",
                    failures.len(),
                    b.models(),
                    c.label(),
                    w
                )
                .into());
            } else {
                status = RunStatus::Degraded;
                ddsc_experiments::render_all_contained(&lab)
            }
        }
        "extensions" => catch_panic(|| extensions::render_all(&lab))?,
        "table1" => catch_panic(|| tables::table1(lab.suite()).render())?,
        "table2" => catch_panic(|| tables::table2(lab.suite()).render())?,
        "table3" => catch_panic(|| tables::table3(&lab).render())?,
        "table4" => catch_panic(|| tables::table4(&lab).render())?,
        "table5" => catch_panic(|| tables::table5(&lab).render())?,
        "table6" => catch_panic(|| tables::table6(&lab).render())?,
        "fig2" => catch_panic(|| figures::fig2(&lab).render())?,
        "fig3" => catch_panic(|| figures::fig3(&lab).render())?,
        "fig4" => catch_panic(|| figures::fig4(&lab).render())?,
        "fig5" => catch_panic(|| figures::fig5(&lab).render())?,
        "fig6" => catch_panic(|| figures::fig6(&lab).render())?,
        "fig7" => catch_panic(|| figures::fig7(&lab).render())?,
        "fig8" => catch_panic(|| figures::fig8(&lab).render())?,
        "fig9" => catch_panic(|| figures::fig9(&lab).render())?,
        "fig10" => catch_panic(|| figures::fig10(&lab).render())?,
        other => return Err(format!("unknown artifact `{other}`").into()),
    };
    if profiling {
        if status == RunStatus::Degraded {
            // collect_profiles needs every cell's metrics; failed cells
            // have none, so profiles cannot be produced on a degraded
            // grid.
            out.push('\n');
            out.push_str("profiles skipped: grid degraded (failed cells present)\n");
        } else {
            // Profiles cover the full grid: collect_profiles prewarms
            // every cell, whatever single artifact was asked for.
            let profiles = catch_panic(|| ddsc_experiments::collect_profiles(&lab))?;
            out.push('\n');
            out.push_str(&ddsc_experiments::render_profiles(&profiles));
            let dir = flag_value(args, "--profile-dir").unwrap_or("results");
            let paths = ddsc_experiments::write_profiles(&profiles, std::path::Path::new(dir))?;
            for p in &paths {
                let _ = writeln!(out, "wrote {}", p.display());
            }
        }
    }
    if args.contains(&"--timing") {
        out.push('\n');
        out.push_str(&lab.report().render());
    }
    if status == RunStatus::Degraded {
        let failures = lab.cell_failures();
        let completed = lab.simulations_run();
        let total = completed + failures.len();
        out.push('\n');
        out.push_str("## Degraded run summary\n");
        let _ = writeln!(
            out,
            "completed {completed} of {total} grid cells; artifacts touching failed cells were skipped"
        );
        for ((b, c, w), failure) in &failures {
            let _ = writeln!(
                out,
                "failed{}: ({}, config {}, width {}): {}",
                if failure.timed_out {
                    " (timed out)"
                } else {
                    ""
                },
                b.models(),
                c.label(),
                w,
                failure.error
            );
        }
        let timeouts = failures.iter().filter(|(_, f)| f.timed_out).count();
        if timeouts > 0 {
            let _ = writeln!(
                out,
                "{timeouts} cell(s) exceeded the --cell-timeout budget of {cell_timeout} s"
            );
        }
        out.push_str(
            "exit code 2 (degraded partial results; rerun with --strict to fail instead)\n",
        );
    }
    if let Some(path) = flag_value(args, "--bench-json") {
        publish_atomic(Path::new(path), lab.report().to_json().as_bytes())?;
        journal_artifact(path);
    }
    let output = if let Some(path) = flag_value(args, "--out") {
        publish_atomic(Path::new(path), out.as_bytes())?;
        journal_artifact(path);
        RunOutput {
            text: format!("wrote {} bytes to {path}\n", out.len()),
            status,
        }
    } else {
        RunOutput { text: out, status }
    };
    if let Some(j) = &journal {
        if let Err(e) = j.append(&JournalRecord::RunFinished {
            status: u32::from(status.exit_code()),
        }) {
            eprintln!("warning: could not append to run journal: {e}");
        }
    }
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_strs(args: &[&str]) -> Result<String, Box<dyn Error>> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&owned)
    }

    #[test]
    fn help_and_list() {
        assert!(run_strs(&["help"]).unwrap().contains("USAGE"));
        assert!(run_strs(&[]).unwrap().contains("USAGE"));
        let l = run_strs(&["list"]).unwrap();
        for b in Benchmark::ALL {
            assert!(l.contains(b.name()));
        }
    }

    #[test]
    fn unknown_commands_error() {
        assert!(run_strs(&["bogus"]).is_err());
        assert!(run_strs(&["sim", "nope"]).is_err());
        assert!(run_strs(&["repro", "fig99", "--len", "500", "--no-trace-cache"]).is_err());
    }

    #[test]
    fn worker_and_chaosproxy_read_an_address_one_way() {
        let err = |args: &[&str]| run_strs(args).unwrap_err().to_string();
        assert_eq!(
            err(&["worker"]),
            "worker needs exactly one of --connect ADDR or --connect-file FILE"
        );
        assert_eq!(
            err(&["chaosproxy", "--upstream", "a:1", "--upstream-file", "f"]),
            "chaosproxy needs exactly one of --upstream ADDR or --upstream-file FILE"
        );
        let path = std::env::temp_dir().join(format!("ddsc-cli-addr-{}", std::process::id()));
        std::fs::write(&path, "127.0.0.1:7\n").unwrap();
        let args = ["--connect-file", path.to_str().unwrap()];
        let addr = address_flag(&args, "worker", "--connect", "coordinator").unwrap();
        assert_eq!(addr, "127.0.0.1:7");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sim_produces_a_result() {
        let out = run_strs(&[
            "sim", "eqntott", "--config", "D", "--width", "8", "--len", "5000",
        ])
        .unwrap();
        assert!(out.contains("IPC"));
        assert!(out.contains("collapsed"));
    }

    #[test]
    fn streamed_sim_output_is_byte_identical_to_whole_trace() {
        let base = [
            "sim", "li", "--config", "D", "--width", "8", "--len", "6000",
        ];
        let whole = run_strs(&base).unwrap();
        for chunk in ["1", "977", "1000000"] {
            let mut streamed: Vec<&str> = base.to_vec();
            streamed.extend(["--chunk-size", chunk]);
            assert_eq!(run_strs(&streamed).unwrap(), whole, "chunk {chunk}");
        }
    }

    #[test]
    fn convergence_writes_table_and_json() {
        let dir = std::env::temp_dir().join(format!("ddsc-cli-conv-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_convergence.json");
        let out = run_strs(&[
            "convergence",
            "--bench",
            "compress",
            "--config",
            "D",
            "--width",
            "8",
            "--lens",
            "2000,5000",
            "--chunk-size",
            "512",
            "--out",
            path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("Convergence: 026.compress config D width 8"));
        assert!(out.contains("vs longest"));
        assert!(out.contains("wrote"));
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"schema\": \"ddsc-convergence-v1\""));
        assert!(json.contains("\"len\": 5000"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_roundtrip_through_files() {
        let dir = std::env::temp_dir().join("ddsc-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trc");
        let path = path.to_str().unwrap();
        let out = run_strs(&["trace", "gen", "compress", "-o", path, "--len", "2000"]).unwrap();
        assert!(out.contains("2000"));
        let info = run_strs(&["trace", "info", path]).unwrap();
        assert!(info.contains("2000 instructions"));
        assert!(info.contains("cond-branch"));
    }

    #[test]
    fn repro_single_artifacts() {
        let out = run_strs(&[
            "repro",
            "fig2",
            "--len",
            "4000",
            "--widths",
            "4",
            "--no-trace-cache",
        ])
        .unwrap();
        assert!(out.contains("Figure 2"));
        let out = run_strs(&[
            "repro",
            "table2",
            "--len",
            "4000",
            "--widths",
            "4",
            "--no-trace-cache",
        ])
        .unwrap();
        assert!(out.contains("Table 2"));
    }

    #[test]
    fn repro_trace_cache_round_trips() {
        let dir = std::env::temp_dir().join(format!("ddsc-cli-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = dir.to_str().unwrap();
        let args = [
            "repro",
            "fig2",
            "--len",
            "3000",
            "--widths",
            "4",
            "--trace-cache",
            cache,
        ];
        let cold = run_strs(&args).unwrap();
        // One cache file per benchmark, named by the generation key.
        let files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(files.len(), 6);
        let compress = format!(
            "compress-s1996-n3000-m{}.bin",
            ddsc_experiments::MODEL_VERSION
        );
        assert!(files.contains(&compress), "{files:?}");
        // The warm run serves traces from disk and must render the same
        // figure byte-for-byte.
        let warm = run_strs(&args).unwrap();
        assert_eq!(cold, warm);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repro_out_writes_a_file() {
        let dir = std::env::temp_dir().join("ddsc-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig2.txt");
        let path = path.to_str().unwrap();
        let out = run_strs(&[
            "repro",
            "fig2",
            "--len",
            "3000",
            "--widths",
            "4",
            "--out",
            path,
            "--no-trace-cache",
        ])
        .unwrap();
        assert!(out.contains("wrote"));
        let contents = std::fs::read_to_string(path).unwrap();
        assert!(contents.contains("Figure 2"));
    }

    #[test]
    fn repro_timing_appends_a_throughput_report() {
        let out = run_strs(&[
            "repro",
            "fig2",
            "--len",
            "3000",
            "--widths",
            "4",
            "--timing",
            "--no-trace-cache",
        ])
        .unwrap();
        assert!(out.contains("Figure 2"));
        assert!(out.contains("Lab throughput report"));
        assert!(out.contains("analysis pre-pass"));
        assert!(out.contains("MIPS"));
    }

    #[test]
    fn repro_bench_json_writes_the_payload() {
        let dir = std::env::temp_dir().join("ddsc-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_lab.json");
        let path = path.to_str().unwrap();
        run_strs(&[
            "repro",
            "table2",
            "--len",
            "3000",
            "--widths",
            "4",
            "--bench-json",
            path,
            "--no-trace-cache",
        ])
        .unwrap();
        let json = std::fs::read_to_string(path).unwrap();
        assert!(json.contains("\"aggregate_mips\""));
        assert!(json.contains("\"speedup_vs_serial\""));
        assert!(json.contains("\"prepass_seconds\""));
    }

    #[test]
    fn repro_profile_renders_tables_and_writes_per_config_json() {
        let dir = std::env::temp_dir().join(format!("ddsc-cli-profile-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let profile_dir = dir.to_str().unwrap();
        let bench_json = dir.join("BENCH_lab.json");
        let out = run_strs(&[
            "repro",
            "table2",
            "--len",
            "3000",
            "--widths",
            "4",
            "--profile",
            "--profile-dir",
            profile_dir,
            "--bench-json",
            bench_json.to_str().unwrap(),
            "--no-trace-cache",
        ])
        .unwrap();
        assert!(out.contains("Where the cycles go"));
        assert!(out.contains("dep_height %"));
        for c in PaperConfig::ALL {
            assert!(out.contains(&format!("config {}", c.label())));
            let path = dir.join(format!("profile_{}.json", c.label()));
            assert!(out.contains(&format!("wrote {}", path.display())));
            let json = std::fs::read_to_string(&path).unwrap();
            assert!(json.contains("\"schema\": \"ddsc-profile-v1\""));
            assert!(json.contains("\"attribution\""));
        }
        // The profiled lab also feeds per-cell attribution into the
        // benchmark payload.
        let lab_json = std::fs::read_to_string(&bench_json).unwrap();
        assert!(lab_json.contains("\"cell_metrics\""));
        assert!(lab_json.contains("\"dep_height\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn run_full_strs(args: &[&str]) -> Result<RunOutput, Box<dyn Error>> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run_full(&owned)
    }

    #[test]
    fn clean_runs_are_complete_and_identical_to_the_uncontained_render() {
        let args = [
            "repro",
            "all",
            "--len",
            "2000",
            "--widths",
            "4",
            "--no-trace-cache",
        ];
        let out = run_full_strs(&args).unwrap();
        assert_eq!(out.status, RunStatus::Complete);
        assert_eq!(out.status.exit_code(), 0);
        assert!(!out.text.contains("Degraded run summary"));
        assert!(!out.text.contains("[skipped"));

        // The containment layer must not move a byte on clean inputs.
        let lab = Lab::from_suite(Suite::generate(SuiteConfig {
            seed: 1996,
            trace_len: 2000,
            widths: vec![4],
        }));
        assert_eq!(out.text, ddsc_experiments::render_all(&lab));
    }

    #[test]
    fn injected_faults_degrade_the_run_with_exit_code_two() {
        let dir = std::env::temp_dir().join(format!("ddsc-cli-degraded-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let json_path = dir.join("BENCH_lab.json");
        let out = run_full_strs(&[
            "repro",
            "all",
            "--len",
            "2000",
            "--widths",
            "4",
            "--no-trace-cache",
            "--inject-fault",
            "eqntott:B:4",
            "--bench-json",
            json_path.to_str().unwrap(),
        ])
        .unwrap();
        assert_eq!(out.status, RunStatus::Degraded);
        assert_eq!(out.status.exit_code(), 2);
        assert!(out.text.contains("## Degraded run summary"), "{}", out.text);
        assert!(
            out.text.contains("completed 29 of 30 grid cells"),
            "{}",
            out.text
        );
        assert!(out.text.contains("injected fault"));
        // Artifacts not touching the failed cell still render; the
        // artifacts that do are one-line skip notes.
        assert!(out.text.contains("Table 1"));
        assert!(out.text.contains("[skipped"));
        // The machine-readable payload names the failed cell.
        let json = std::fs::read_to_string(&json_path).unwrap();
        assert!(json.contains("\"failed_cells\""));
        assert!(json.contains("\"023.eqntott\""));
        assert!(json.contains("injected fault"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn strict_promotes_degradation_to_a_hard_failure() {
        let err = run_full_strs(&[
            "repro",
            "all",
            "--len",
            "2000",
            "--widths",
            "4",
            "--no-trace-cache",
            "--strict",
            "--inject-fault",
            "eqntott:B:4",
        ])
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("strict"), "{msg}");
        assert!(msg.contains("023.eqntott"), "{msg}");
    }

    #[test]
    fn single_artifacts_fail_hard_when_their_cell_is_faulted() {
        // fig2 sweeps every benchmark at every width over A..E, so a
        // fault on any cell it touches is a hard (exit 1) failure.
        let err = run_full_strs(&[
            "repro",
            "fig2",
            "--len",
            "2000",
            "--widths",
            "4",
            "--no-trace-cache",
            "--inject-fault",
            "compress:A:4",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("injected fault"), "{err}");
    }

    #[test]
    fn bad_inject_fault_specs_are_usage_errors() {
        for spec in [
            "eqntott",
            "eqntott:B",
            "nope:B:4",
            "eqntott:Z:4",
            "eqntott:B:x",
        ] {
            assert!(
                run_full_strs(&[
                    "repro",
                    "table1",
                    "--len",
                    "1000",
                    "--no-trace-cache",
                    "--inject-fault",
                    spec,
                ])
                .is_err(),
                "spec `{spec}` should be rejected"
            );
        }
    }

    #[test]
    fn resume_and_fresh_are_mutually_exclusive() {
        let err = run_full_strs(&[
            "repro",
            "table1",
            "--len",
            "1000",
            "--no-trace-cache",
            "--resume",
            "--fresh",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn supervised_runs_journal_resume_and_stay_byte_identical() {
        let dir = std::env::temp_dir().join(format!("ddsc-cli-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let run_dir = dir.to_str().unwrap().to_string();
        let base = [
            "repro",
            "all",
            "--len",
            "2000",
            "--widths",
            "4",
            "--no-trace-cache",
            "--run-dir",
            &run_dir,
        ];

        // Fresh supervised run: complete, and the journal records the
        // whole lifecycle.
        let mut fresh_args: Vec<&str> = base.to_vec();
        fresh_args.push("--fresh");
        let fresh = run_full_strs(&fresh_args).unwrap();
        assert_eq!(fresh.status, RunStatus::Complete);
        let journal_path = dir.join("run_journal.bin");
        let dump = run_strs(&["journal", journal_path.to_str().unwrap()]).unwrap();
        assert!(dump.contains("RunStarted all"), "{dump}");
        assert_eq!(dump.matches("\nCellFinished ").count(), 30, "{dump}");
        assert!(dump.contains("RunFinished status=0"), "{dump}");
        // Finished cells were published to the store.
        let cells = std::fs::read_dir(dir.join("cells")).unwrap().count();
        assert_eq!(cells, 30);

        // Resumed run: restores every cell (visible in the benchmark
        // payload) and renders byte-identical output.
        let json_path = dir.join("BENCH_lab.json");
        let mut resume_args: Vec<&str> = base.to_vec();
        resume_args.push("--resume");
        resume_args.push("--bench-json");
        resume_args.push(json_path.to_str().unwrap());
        let resumed = run_full_strs(&resume_args).unwrap();
        assert_eq!(resumed.status, RunStatus::Complete);
        assert_eq!(resumed.text, fresh.text, "resume must not move a byte");
        let json = std::fs::read_to_string(&json_path).unwrap();
        assert!(json.contains("\"resumed_cells\": 30"), "{json}");
        assert!(json.contains("\"replayed_cells\": 0"), "{json}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_expired_cell_timeout_degrades_the_run() {
        let out = run_full_strs(&[
            "repro",
            "all",
            "--len",
            "50000",
            "--widths",
            "4",
            "--no-trace-cache",
            "--cell-timeout",
            "0.000001",
        ])
        .unwrap();
        assert_eq!(out.status, RunStatus::Degraded);
        assert_eq!(out.status.exit_code(), 2);
        assert!(out.text.contains("## Degraded run summary"), "{}", out.text);
        assert!(out.text.contains("(timed out)"), "{}", out.text);
        assert!(out.text.contains("--cell-timeout"), "{}", out.text);
    }

    #[test]
    fn a_generous_cell_timeout_completes_identically() {
        let args = [
            "repro",
            "fig2",
            "--len",
            "2000",
            "--widths",
            "4",
            "--no-trace-cache",
        ];
        let plain = run_full_strs(&args).unwrap();
        let mut timed: Vec<&str> = args.to_vec();
        timed.extend(["--cell-timeout", "3600"]);
        let timed = run_full_strs(&timed).unwrap();
        assert_eq!(timed.status, RunStatus::Complete);
        assert_eq!(timed.text, plain.text);
    }

    #[test]
    fn journal_dump_tolerates_a_missing_file() {
        let out = run_strs(&["journal", "/nonexistent/ddsc-journal.bin"]).unwrap();
        assert!(out.contains("0 records"), "{out}");
    }

    #[test]
    fn analyze_reports_the_dataflow_limit() {
        let out = run_strs(&["analyze", "ijpeg", "--len", "5000"]).unwrap();
        assert!(out.contains("dataflow-limit IPC"));
        assert!(out.contains("config E"));
    }

    #[test]
    fn disasm_prints_instructions() {
        let out = run_strs(&["disasm", "li"]).unwrap();
        assert!(out.lines().count() > 10);
    }
}
