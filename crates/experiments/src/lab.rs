//! Trace-suite generation and a thread-safe memoising simulation lab.
//!
//! [`Lab`] owns one generated trace [`Suite`] plus a concurrent result
//! cache keyed by `(benchmark, configuration, width)`. Drivers take
//! `&Lab` and call [`Lab::result`] freely from any thread; the batch
//! entry point [`Lab::prewarm`] fans a cell grid out over a thread pool
//! so figures and tables consume already-computed results.
//!
//! The per-benchmark **analysis pre-pass** lives in the lab's
//! [`CellRunner`]'s prepared-trace cache: the first cell that touches a
//! benchmark builds its [`PreparedTrace`] (dependence edges, predictor
//! verdict streams, collapse eligibility — everything a configuration
//! sweep would otherwise recompute per cell) from the suite's trace
//! exactly once, and every later cell for that benchmark reuses it, as
//! does [`Lab::prepared`]. The cache holds six traces, one per
//! benchmark, so a full grid pays the pre-pass six times instead of
//! once per cell.
//!
//! Determinism guarantee: `simulate` is a pure function of
//! `(trace, config)`, the prepared path is bit-identical to it (asserted
//! by `ddsc-core`'s reference tests), every cell is simulated at most
//! once, and cached results are shared by `Arc` — so the parallel path
//! is bit-identical to the serial one (asserted by the root
//! `prewarm_determinism` test). Each simulation's wall-clock is recorded
//! as a [`CellTiming`]; [`Lab::report`] aggregates them into a
//! [`LabReport`] with per-cell MIPS, pre-pass cost and the
//! parallel-vs-serial speedup.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use ddsc_core::{
    CycleAttribution, PaperConfig, PreparedTrace, SimConfig, SimMetrics, SimResult, TraceValidator,
};
use ddsc_trace::Trace;
use ddsc_util::journal::{Journal, JournalRecord};
use ddsc_workloads::Benchmark;

use crate::cache::CacheError;
use crate::cell::{Cell, CellError, CellKey, CellRunner};
use crate::cellstore::CellStore;
use crate::parallel::{num_threads, par_map};

/// Transient cache-read retries before falling back to regeneration.
const CACHE_RETRIES: usize = 3;

/// Parameters for one reproduction run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuiteConfig {
    /// Workload data seed (the paper's "input file").
    pub seed: u64,
    /// Dynamic instructions per benchmark trace (the paper caps at 250M;
    /// our loop-dominated kernels converge far earlier — see
    /// EXPERIMENTS.md for the convergence check).
    pub trace_len: usize,
    /// The issue widths to sweep.
    pub widths: Vec<u32>,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            seed: 1996,
            trace_len: 300_000,
            widths: SimConfig::PAPER_WIDTHS.to_vec(),
        }
    }
}

/// The generated benchmark traces, shareable across worker threads.
#[derive(Debug, Clone)]
pub struct Suite {
    traces: Vec<(Benchmark, Arc<Trace>)>,
    config: SuiteConfig,
}

impl Suite {
    /// Executes all six benchmarks (in parallel) and collects their
    /// traces.
    ///
    /// # Panics
    ///
    /// Panics if a workload program faults — that would be a bug in
    /// `ddsc-workloads`, covered by its tests.
    pub fn generate(config: SuiteConfig) -> Suite {
        let benches: Vec<Benchmark> = Benchmark::ALL.to_vec();
        let traces = par_map(&benches, num_threads(), |&b| {
            let t = b
                .trace(config.seed, config.trace_len)
                .unwrap_or_else(|e| panic!("workload {b} faulted: {e}"));
            (b, Arc::new(t))
        });
        Suite { traces, config }
    }

    /// Like [`Suite::generate`], but consults an on-disk
    /// [`TraceCache`](crate::TraceCache) first and stores fresh traces
    /// back into it. The load path degrades gracefully, never fatally:
    /// transient I/O errors are retried with bounded backoff, and a
    /// corrupt entry — or one that passes the checksum but fails
    /// [`TraceValidator`] — is reported on stderr and regenerated.
    /// Store failures are reported but never fail the run.
    pub fn generate_cached(config: SuiteConfig, cache: &crate::TraceCache) -> Suite {
        let benches: Vec<Benchmark> = Benchmark::ALL.to_vec();
        let traces = par_map(&benches, num_threads(), |&b| {
            let cached =
                match cache.load_with_retry(b.name(), config.seed, config.trace_len, CACHE_RETRIES)
                {
                    Ok(t) => match TraceValidator::new().validate(&t) {
                        Ok(()) => Some(t),
                        Err(e) => {
                            eprintln!(
                                "warning: cached {} trace fails validation ({e}); regenerating",
                                b.name()
                            );
                            None
                        }
                    },
                    Err(CacheError::Missing) => None,
                    Err(e) => {
                        eprintln!(
                            "warning: could not load cached {} trace ({e}); regenerating",
                            b.name()
                        );
                        None
                    }
                };
            // On a miss the workload is streamed straight into the
            // cache file chunk by chunk (generation never holds the
            // whole trace in memory) and loaded back for the in-memory
            // suite. Any failure on that path falls back to plain
            // in-memory generation, reported but never fatal.
            let t = match cached {
                Some(t) => t,
                None => {
                    let mut src = b.source(config.seed, config.trace_len);
                    let streamed = cache
                        .store_source(
                            b.name(),
                            config.seed,
                            config.trace_len,
                            &mut src,
                            crate::cache::DEFAULT_FRAME_RECORDS,
                        )
                        .map_err(|e| e.to_string())
                        .and_then(|_| {
                            cache
                                .try_load(b.name(), config.seed, config.trace_len)
                                .map_err(|e| e.to_string())
                        });
                    match streamed {
                        Ok(t) => t,
                        Err(e) => {
                            eprintln!(
                                "warning: could not cache {} trace ({e}); generating in memory",
                                b.name()
                            );
                            b.trace(config.seed, config.trace_len)
                                .unwrap_or_else(|e| panic!("workload {b} faulted: {e}"))
                        }
                    }
                }
            };
            (b, Arc::new(t))
        });
        Suite { traces, config }
    }

    /// The trace of one benchmark.
    pub fn trace(&self, b: Benchmark) -> &Trace {
        &self
            .traces
            .iter()
            .find(|(x, _)| *x == b)
            .expect("suite has all benchmarks")
            .1
    }

    /// The suite parameters.
    pub fn config(&self) -> &SuiteConfig {
        &self.config
    }

    /// Benchmarks with their traces.
    pub fn iter(&self) -> impl Iterator<Item = (Benchmark, &Trace)> {
        self.traces.iter().map(|(b, t)| (*b, t.as_ref()))
    }
}

/// Wall-clock and throughput of one executed simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct CellTiming {
    /// The benchmark simulated.
    pub benchmark: Benchmark,
    /// Cell label (a paper configuration, or a free-form tag for
    /// extension/ablation work).
    pub label: String,
    /// Issue width.
    pub width: u32,
    /// Dynamic instructions simulated.
    pub instructions: u64,
    /// Host wall-clock seconds the simulation took.
    pub seconds: f64,
    /// Process peak RSS (`VmHWM`) observed when the cell finished, in
    /// bytes; 0 where the platform cannot report it.
    ///
    /// The name says what it is: a *process-wide* high-water mark, not
    /// a per-cell measurement. VmHWM never decreases, so within one run
    /// the values are monotone in completion order — a later cell
    /// "inherits" every earlier cell's peak — and only the final value
    /// (the run-level `peak_rss_bytes`) means anything in isolation.
    /// Serialised as `process_peak_rss_bytes` to keep readers from
    /// summing or comparing cells as if it were per-cell usage.
    pub process_peak_rss_bytes: u64,
}

impl CellTiming {
    /// Simulated (dynamic) instructions per host second, in millions.
    pub fn mips(&self) -> f64 {
        if self.seconds <= 0.0 {
            0.0
        } else {
            self.instructions as f64 / self.seconds / 1e6
        }
    }
}

/// A worker failure surfaced by [`Lab::try_prewarm`], naming the grid
/// cell whose simulation panicked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrewarmError {
    /// The `(benchmark, configuration, width)` cell that failed.
    pub cell: Cell,
    /// The panic payload, rendered best-effort.
    pub message: String,
}

impl std::fmt::Display for PrewarmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (b, c, width) = self.cell;
        write!(
            f,
            "prewarm worker panicked on cell ({}, config {}, width {}): {}",
            b.models(),
            c.label(),
            width,
            self.message
        )
    }
}

impl std::error::Error for PrewarmError {}

/// How one grid cell ended up: simulated to a result, or failed with a
/// contained, rendered error. Failure of one cell never takes down the
/// rest of the grid — see [`Lab::prewarm_degraded`].
#[derive(Debug, Clone)]
pub enum CellOutcome {
    /// The cell simulated normally.
    Completed(Arc<SimResult>),
    /// The cell's simulation panicked or failed validation; the error
    /// is recorded and the cell is skipped by degraded rendering.
    Failed {
        /// The rendered failure message.
        error: String,
    },
    /// The cell exceeded its wall-clock budget
    /// ([`Lab::with_cell_timeout`]) and was cancelled cooperatively.
    /// Degraded rendering skips it like any other failure, but drivers
    /// report timeouts distinctly — a timeout usually means the budget
    /// is wrong, not the simulator.
    TimedOut {
        /// The rendered timeout message (names the cell and budget).
        error: String,
    },
}

impl CellOutcome {
    /// The result, if the cell completed.
    pub fn result(&self) -> Option<&Arc<SimResult>> {
        match self {
            CellOutcome::Completed(r) => Some(r),
            CellOutcome::Failed { .. } | CellOutcome::TimedOut { .. } => None,
        }
    }
}

/// One recorded cell failure: the rendered message plus whether the
/// cell was cancelled on its wall-clock deadline (reported distinctly
/// from a genuine simulation failure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// The rendered failure message.
    pub error: String,
    /// Whether the failure was a cooperative deadline cancellation.
    pub timed_out: bool,
}

impl CellFailure {
    /// The lab's wording of a runner failure: panics and input errors
    /// keep their own message, a timeout names the cell and budget.
    fn of((b, c, width): Cell, e: CellError) -> CellFailure {
        let timed_out = matches!(e, CellError::TimedOut(_));
        let error = match e {
            CellError::Input(error) | CellError::Panicked(error) => error,
            CellError::TimedOut(budget) => format!(
                "cell timed out: cell ({}, config {}, width {width}) exceeded its {:.3} s \
                 wall-clock budget",
                b.models(),
                c.label(),
                budget.as_secs_f64()
            ),
        };
        CellFailure { error, timed_out }
    }

    fn into_outcome(self) -> CellOutcome {
        if self.timed_out {
            CellOutcome::TimedOut { error: self.error }
        } else {
            CellOutcome::Failed { error: self.error }
        }
    }
}

/// One failed grid cell as reported by [`LabReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedCell {
    /// Benchmark display name (`Benchmark::models`).
    pub benchmark: String,
    /// Paper configuration label (`A`..`E`).
    pub config: String,
    /// Issue width.
    pub width: u32,
    /// Whether this cell hit its wall-clock deadline rather than
    /// failing outright.
    pub timed_out: bool,
    /// The rendered failure message.
    pub error: String,
}

/// Escapes a string for the hand-rolled JSON output (failure messages
/// are free-form and may contain quotes or newlines).
fn json_escape(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A thread-safe memoising simulation driver: each `(benchmark,
/// configuration, width)` triple is simulated at most once per lab.
#[derive(Debug)]
pub struct Lab {
    suite: Suite,
    cache: RwLock<HashMap<Cell, Arc<SimResult>>>,
    /// Executes every cell: deadline, metrics observer (whose
    /// [`SimMetrics`] are cached alongside the result), injected
    /// faults, supervision, and the prepared traces cells share.
    runner: CellRunner,
    metrics: RwLock<HashMap<Cell, Arc<SimMetrics>>>,
    /// Wall-clock seconds each executed pre-pass took, per benchmark.
    prepass_timings: Mutex<Vec<(Benchmark, f64)>>,
    timings: Mutex<Vec<CellTiming>>,
    /// Wall-clock seconds spent inside `prewarm` fan-outs (the parallel
    /// path) — the numerator of the speedup-vs-serial estimate.
    prewarm_wall: Mutex<f64>,
    /// Cells whose simulation failed during a degraded prewarm, with
    /// their rendered failure messages. Lookups of a recorded cell fail
    /// fast with the same message instead of re-running the simulation.
    failed: RwLock<HashMap<Cell, CellFailure>>,
    /// Deterministic crash hook: exit the *process* once this many
    /// cells have finished. Crash-consistency tests use it to die
    /// between journal records at a reproducible point.
    abort_after: Option<usize>,
    /// Cells finished by this lab (drives `abort_after`).
    completed: AtomicUsize,
    /// Cells restored from the cell store by [`Lab::resume`].
    resumed: AtomicUsize,
    /// Cells the journal named but that had to be re-run.
    replayed: AtomicUsize,
}

impl Lab {
    /// Generates the trace suite and an empty result cache.
    pub fn new(config: SuiteConfig) -> Lab {
        Lab::from_suite(Suite::generate(config))
    }

    /// Wraps an existing suite.
    pub fn from_suite(suite: Suite) -> Lab {
        Lab {
            suite,
            cache: RwLock::new(HashMap::new()),
            runner: CellRunner::default(),
            metrics: RwLock::new(HashMap::new()),
            prepass_timings: Mutex::new(Vec::new()),
            timings: Mutex::new(Vec::new()),
            prewarm_wall: Mutex::new(0.0),
            failed: RwLock::new(HashMap::new()),
            abort_after: None,
            completed: AtomicUsize::new(0),
            resumed: AtomicUsize::new(0),
            replayed: AtomicUsize::new(0),
        }
    }

    /// Forces `cell` to fail when it is simulated — a deterministic
    /// stand-in for "this one simulation panics" that fault-containment
    /// tests and `repro --inject-fault` use. May be called repeatedly
    /// to arm several cells.
    pub fn with_injected_fault(mut self, cell: Cell) -> Lab {
        self.runner.faults.insert(cell);
        self
    }

    /// Gives every cell a wall-clock budget: a simulation still running
    /// when it expires is cancelled cooperatively (see
    /// [`ddsc_core::CancelToken`]) and recorded as timed out. With no
    /// budget (the default) the timing loop monomorphizes to the
    /// uncancellable hot path — arming a timeout is the only thing that
    /// puts the poll in the loop.
    pub fn with_cell_timeout(mut self, budget: Duration) -> Lab {
        self.runner.deadline = Some(budget);
        self
    }

    /// The per-cell wall-clock budget, if one is armed.
    pub fn cell_timeout(&self) -> Option<Duration> {
        self.runner.deadline
    }

    /// Supervises this lab's run: every cell transition is appended to
    /// `journal` (write-ahead, before results are visible anywhere
    /// else) and every finished cell's result is published into
    /// `store`, keyed by [`Lab::cell_digest`]. Together they make a
    /// killed run resumable — see [`Lab::resume`].
    pub fn with_supervision(mut self, journal: Arc<Journal>, store: CellStore) -> Lab {
        self.runner.supervision = Some((journal, store));
        self
    }

    /// Arms the deterministic crash hook: the process exits (code 3,
    /// without unwinding) immediately after the `n`-th cell finishes —
    /// after its `CellFinished` journal record, before `RunFinished`.
    /// Crash-consistency tests use this to die at a reproducible point
    /// between journal records; it has no place in a normal run.
    pub fn with_abort_after(mut self, n: usize) -> Lab {
        self.abort_after = Some(n);
        self
    }

    /// Turns on the metrics observer for every cell this lab simulates.
    ///
    /// Profiled results are bit-identical to unprofiled ones (the
    /// observer never feeds back into the timing loop — asserted by the
    /// `ddsc-core` bit-identity tests); the only cost is the bookkeeping
    /// itself, so profiling is opt-in per lab rather than per call.
    pub fn with_profiling(mut self) -> Lab {
        self.runner.metrics = true;
        self
    }

    /// Whether this lab records [`SimMetrics`] per cell.
    pub fn is_profiling(&self) -> bool {
        self.runner.metrics
    }

    /// The analysis pre-pass of one benchmark from the runner's
    /// prepared-trace cache, the one every cell on the benchmark uses.
    /// Racing callers wait for the single builder, so the pre-pass runs
    /// exactly once per benchmark per lab.
    pub fn prepared(&self, b: Benchmark) -> Arc<PreparedTrace> {
        let sc = self.suite.config();
        self.runner
            .prepared((b, sc.seed, sc.trace_len as u64), || Ok(self.prepass(b)))
            .expect("a suite trace always prepares")
    }

    /// Builds one benchmark's pre-pass from the suite's trace and
    /// records how long it took.
    fn prepass(&self, b: Benchmark) -> PreparedTrace {
        let t0 = Instant::now();
        let p = PreparedTrace::build(self.suite.trace(b));
        self.prepass_timings
            .lock()
            .expect("lab prepass timings poisoned")
            .push((b, t0.elapsed().as_secs_f64()));
        p
    }

    /// `(benchmark, seconds)` for every pre-pass actually executed, in
    /// completion order.
    pub fn prepass_timings(&self) -> Vec<(Benchmark, f64)> {
        self.prepass_timings
            .lock()
            .expect("lab prepass timings poisoned")
            .clone()
    }

    /// The underlying suite.
    pub fn suite(&self) -> &Suite {
        &self.suite
    }

    /// The widths this lab sweeps.
    pub fn widths(&self) -> Vec<u32> {
        self.suite.config().widths.clone()
    }

    /// The full `(benchmark, configuration, width)` grid this lab's
    /// suite spans.
    pub fn grid(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        for &w in &self.suite.config().widths {
            for c in PaperConfig::ALL {
                for (b, _) in self.suite.iter() {
                    cells.push((b, c, w));
                }
            }
        }
        cells
    }

    fn cached(&self, cell: &Cell) -> Option<Arc<SimResult>> {
        self.cache
            .read()
            .expect("lab cache poisoned")
            .get(cell)
            .map(Arc::clone)
    }

    /// The key naming one grid cell of this lab's suite; fails on a
    /// width of 0.
    pub fn cell_key(&self, cell: Cell) -> Result<CellKey, String> {
        let sc = self.suite.config();
        CellKey::new(cell, sc.seed, sc.trace_len as u64)
    }

    /// The identity of one cell's inputs, [`CellKey::digest`]: a journal
    /// record with a matching digest proves the stored result is the one
    /// this lab would recompute. Panics on a width of 0.
    pub fn cell_digest(&self, cell: Cell) -> u64 {
        self.cell_key(cell)
            .unwrap_or_else(|e| panic!("{e}"))
            .digest()
    }

    /// Records one contained cell failure and journals it, returning
    /// what was stored. The first recording of a cell wins; duplicates
    /// neither overwrite nor re-journal.
    fn record_failure(&self, cell: Cell, failure: CellFailure) -> CellFailure {
        {
            let mut map = self.failed.write().expect("lab failure map poisoned");
            if let Some(existing) = map.get(&cell) {
                return existing.clone();
            }
            map.insert(cell, failure.clone());
        }
        self.runner.fail(cell, &failure.error);
        failure
    }

    fn record_timing(&self, (benchmark, c, width): Cell, instructions: u64, seconds: f64) {
        self.timings
            .lock()
            .expect("lab timings poisoned")
            .push(CellTiming {
                benchmark,
                label: c.label().to_string(),
                width,
                instructions,
                seconds,
                process_peak_rss_bytes: ddsc_util::peak_rss_bytes().unwrap_or(0),
            });
    }

    /// Runs one cell through the [`CellRunner`] over the shared
    /// pre-pass and records its timing, which covers only the timing
    /// loop. Pure per (trace, config), so concurrent duplicate runs
    /// return identical results. Failures come back contained, worded
    /// by [`CellFailure::of`].
    fn run_cell(&self, cell: Cell) -> Result<Arc<SimResult>, CellFailure> {
        let key = self.cell_key(cell).map_err(|error| CellFailure {
            error,
            timed_out: false,
        })?;
        let run = self
            .runner
            .run(&key, || Ok(self.prepass(cell.0)))
            .map_err(|e| CellFailure::of(cell, e))?;
        if let Some(metrics) = run.metrics {
            self.metrics
                .write()
                .expect("lab metrics poisoned")
                .entry(cell)
                .or_insert_with(|| Arc::new(metrics));
        }
        self.record_timing(cell, run.result.instructions, run.seconds);
        let done = self.completed.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(n) = self.abort_after {
            if done >= n {
                eprintln!("injected abort: exiting after {done} finished cells");
                std::process::exit(3);
            }
        }
        Ok(Arc::new(run.result))
    }

    fn insert(&self, cell: Cell, result: Arc<SimResult>) -> Arc<SimResult> {
        let mut cache = self.cache.write().expect("lab cache poisoned");
        // Keep the first insertion so every caller shares one allocation
        // (a racing duplicate computed the same bits anyway).
        Arc::clone(cache.entry(cell).or_insert(result))
    }

    /// Installs a cell result computed *outside* this process (a
    /// distributed worker) the way [`Lab::result`] records its own: a
    /// [`CellTiming`] carrying the worker-reported seconds, then
    /// [`CellRunner::install`] (store save before `CellFinished`), then
    /// the shared cache. Already-cached cells are left untouched (the
    /// first result wins, as everywhere else in the lab).
    ///
    /// # Panics
    ///
    /// Panics on a width of 0, which no worker can have computed.
    pub fn install_result(&self, cell: Cell, result: SimResult, seconds: f64) {
        if self.cached(&cell).is_some() {
            return;
        }
        self.record_timing(cell, result.instructions, seconds);
        let key = self.cell_key(cell).unwrap_or_else(|e| panic!("{e}"));
        self.runner.install(&key, &result);
        self.completed.fetch_add(1, Ordering::SeqCst);
        self.insert(cell, Arc::new(result));
    }

    /// Records a cell failure decided *outside* this process (a
    /// distributed quarantine): journaled as `CellFailed` and visible to
    /// [`Lab::outcome`] / [`Lab::failed_cells`] exactly like a locally
    /// contained panic, so it feeds the same degraded-run contract.
    pub fn install_failure(&self, cell: Cell, message: String) {
        self.record_failure(
            cell,
            CellFailure {
                error: message,
                timed_out: false,
            },
        );
    }

    /// The subset of `cells` that is neither cached nor recorded as
    /// failed, deduplicated, in input order — the work a distributed run
    /// still has to dispatch after a journal resume.
    pub fn uncached_cells(&self, cells: &[Cell]) -> Vec<Cell> {
        let cache = self.cache.read().expect("lab cache poisoned");
        let failed = self.failed.read().expect("lab failure map poisoned");
        let mut seen = HashSet::new();
        cells
            .iter()
            .filter(|c| !cache.contains_key(*c) && !failed.contains_key(*c) && seen.insert(**c))
            .copied()
            .collect()
    }

    /// Simulates (or returns the cached result of) one combination.
    ///
    /// # Panics
    ///
    /// Panics with the failure message if the cell fails, or —
    /// immediately, with the recorded message — if a degraded prewarm
    /// already saw this cell fail. Renderers that must survive failed
    /// cells catch this per artifact; see [`Lab::outcome`] for the
    /// non-panicking form.
    pub fn result(&self, b: Benchmark, c: PaperConfig, width: u32) -> Arc<SimResult> {
        let cell = (b, c, width);
        if let Some(r) = self.cached(&cell) {
            return r;
        }
        if let Some(failure) = self.recorded_failure(&cell) {
            panic!("{}", failure.error);
        }
        match self.run_cell(cell) {
            Ok(r) => self.insert(cell, r),
            Err(failure) => panic!("{}", failure.error),
        }
    }

    fn recorded_failure(&self, cell: &Cell) -> Option<CellFailure> {
        self.failed
            .read()
            .expect("lab failure map poisoned")
            .get(cell)
            .cloned()
    }

    /// How one combination ends up, with any failure contained: a
    /// previously recorded failure is returned as-is, an uncached cell
    /// is simulated, and a fresh failure is recorded so later lookups
    /// fail fast.
    pub fn outcome(&self, b: Benchmark, c: PaperConfig, width: u32) -> CellOutcome {
        let cell = (b, c, width);
        if let Some(r) = self.cached(&cell) {
            return CellOutcome::Completed(r);
        }
        if let Some(failure) = self.recorded_failure(&cell) {
            return failure.into_outcome();
        }
        match self.run_cell(cell) {
            Ok(r) => CellOutcome::Completed(self.insert(cell, r)),
            Err(failure) => self.record_failure(cell, failure).into_outcome(),
        }
    }

    /// Every cell recorded as failed, in stable `(benchmark, config,
    /// width)` order, with its rendered failure message.
    pub fn failed_cells(&self) -> Vec<(Cell, String)> {
        self.cell_failures()
            .into_iter()
            .map(|(cell, failure)| (cell, failure.error))
            .collect()
    }

    /// Like [`Lab::failed_cells`], but keeping the full
    /// [`CellFailure`] (message + timeout classification).
    pub fn cell_failures(&self) -> Vec<(Cell, CellFailure)> {
        let mut cells: Vec<(Cell, CellFailure)> = self
            .failed
            .read()
            .expect("lab failure map poisoned")
            .iter()
            .map(|(cell, failure)| (*cell, failure.clone()))
            .collect();
        cells.sort_by(|((ab, ac, aw), _), ((bb, bc, bw), _)| {
            (ab.models(), ac.label(), aw).cmp(&(bb.models(), bc.label(), bw))
        });
        cells
    }

    /// Restores as much of a previous run as a recovered journal
    /// proves: every `CellFinished` record whose digest matches this
    /// lab's current inputs (see [`Lab::cell_digest`]) is loaded from
    /// the cell store straight into the result cache, and everything
    /// else the journal names — started-but-unfinished cells, failed
    /// cells, finished cells whose digest or stored bytes no longer
    /// check out — is left to re-run.
    ///
    /// Returns `(resumed, replayed)`: cells restored without
    /// re-simulation, and journal-named cells that must re-run. The
    /// counts also land in the [`LabReport`] as `resumed_cells` /
    /// `replayed_cells`.
    ///
    /// # Panics
    ///
    /// Panics if the lab has no supervision ([`Lab::with_supervision`])
    /// — there is no store to restore from.
    pub fn resume(&self, records: &[JournalRecord]) -> (usize, usize) {
        let (_, store) = self
            .runner
            .supervision
            .as_ref()
            .expect("Lab::resume requires supervision (Lab::with_supervision)");
        let sc = self.suite.config();
        let grid: HashSet<Cell> = self.grid().into_iter().collect();
        let decode = |bench: &str, config: &str, width: u32| -> Option<CellKey> {
            let key = CellKey::parse(bench, config, width, sc.seed, sc.trace_len as u64).ok()?;
            // A record outside the current grid belongs to some other
            // sweep (different widths, say); it neither restores nor
            // re-runs anything here.
            grid.contains(&key.cell()).then_some(key)
        };
        let mut resumed: HashSet<Cell> = HashSet::new();
        let mut named: HashSet<Cell> = HashSet::new();
        for rec in records {
            let (bench, config, width) = match rec {
                JournalRecord::CellStarted {
                    bench,
                    config,
                    width,
                } => (bench, config, *width),
                JournalRecord::CellFinished {
                    bench,
                    config,
                    width,
                    ..
                } => (bench, config, *width),
                JournalRecord::CellFailed {
                    bench,
                    config,
                    width,
                    ..
                } => (bench, config, *width),
                _ => continue,
            };
            let Some(key) = decode(bench, config, width) else {
                continue;
            };
            let cell = key.cell();
            named.insert(cell);
            let JournalRecord::CellFinished { digest, .. } = rec else {
                continue;
            };
            if *digest != key.digest() {
                continue;
            }
            if let Some(result) = store.load(*digest, key.sim_config()) {
                self.insert(cell, Arc::new(result));
                resumed.insert(cell);
            }
        }
        let replayed = named.iter().filter(|c| !resumed.contains(c)).count();
        self.resumed.store(resumed.len(), Ordering::SeqCst);
        self.replayed.store(replayed, Ordering::SeqCst);
        (resumed.len(), replayed)
    }

    /// The metrics of one combination; simulates the cell first when
    /// necessary. Only available on a profiling lab
    /// ([`Lab::with_profiling`]).
    ///
    /// # Panics
    ///
    /// Panics if this lab was built without profiling — the cell results
    /// would exist but no metrics were ever collected for them.
    pub fn metrics(&self, b: Benchmark, c: PaperConfig, width: u32) -> Arc<SimMetrics> {
        assert!(
            self.is_profiling(),
            "Lab::metrics requires a profiling lab (Lab::with_profiling)"
        );
        let cell = (b, c, width);
        // run_cell stores metrics before the result is cached, so after
        // result() the entry is guaranteed present.
        let _ = self.result(b, c, width);
        Arc::clone(
            self.metrics
                .read()
                .expect("lab metrics poisoned")
                .get(&cell)
                .expect("profiling run_cell always records metrics"),
        )
    }

    /// Simulates every not-yet-cached cell of `cells` in parallel over
    /// [`num_threads`] workers. Returns the number of cells actually
    /// simulated.
    ///
    /// # Panics
    ///
    /// Panics with the offending cell's name if a worker simulation
    /// panics — see [`Lab::try_prewarm`] for the non-panicking form.
    pub fn prewarm(&self, cells: &[Cell]) -> usize {
        self.try_prewarm(cells).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`Lab::prewarm`], but a panicking worker surfaces as a
    /// [`PrewarmError`] naming the `(benchmark, configuration, width)`
    /// cell that died, instead of poisoning the shared caches.
    ///
    /// Cells that completed before (or alongside) the failure stay
    /// cached, and the lab remains fully usable afterwards. When several
    /// workers fail, the error reports the first failing cell in grid
    /// order.
    pub fn try_prewarm(&self, cells: &[Cell]) -> Result<usize, PrewarmError> {
        let todo: Vec<Cell> = {
            let cache = self.cache.read().expect("lab cache poisoned");
            let mut seen = std::collections::HashSet::new();
            cells
                .iter()
                .filter(|c| !cache.contains_key(*c) && seen.insert(**c))
                .copied()
                .collect()
        };
        let (ran, failures) = self.fan_out(&todo);
        match failures.into_iter().next() {
            Some((cell, failure)) => Err(PrewarmError {
                cell,
                message: failure.error,
            }),
            None => Ok(ran),
        }
    }

    /// Runs `todo` over the thread pool, caching every result and
    /// adding the fan-out's wall time. Returns how many cells
    /// completed and the failures, in `todo` order.
    fn fan_out(&self, todo: &[Cell]) -> (usize, Vec<(Cell, CellFailure)>) {
        if todo.is_empty() {
            return (0, Vec::new());
        }
        let t0 = Instant::now();
        let results = par_map(todo, num_threads(), |&cell| self.run_cell(cell));
        *self.prewarm_wall.lock().expect("lab wall poisoned") += t0.elapsed().as_secs_f64();
        let mut failures = Vec::new();
        for (&cell, r) in todo.iter().zip(results) {
            match r {
                Ok(res) => {
                    self.insert(cell, res);
                }
                Err(failure) => failures.push((cell, failure)),
            }
        }
        (todo.len() - failures.len(), failures)
    }

    /// Prewarms the full paper grid ([`Lab::grid`]).
    pub fn prewarm_all(&self) -> usize {
        self.prewarm(&self.grid())
    }

    /// Like [`Lab::try_prewarm`], but failures are *contained* instead
    /// of surfaced: every panicking cell is recorded (all of them, not
    /// just the first) while the rest of the grid completes normally.
    /// Returns the number of cells simulated successfully; the failures
    /// are available from [`Lab::failed_cells`] and appear as
    /// `failed_cells` in the [`LabReport`].
    pub fn prewarm_degraded(&self, cells: &[Cell]) -> usize {
        // Cells with a recorded failure fail fast (matching
        // `Lab::outcome`) instead of re-running — a distributed run
        // quarantines poison cells before this prewarm sees them.
        let (ran, failures) = self.fan_out(&self.uncached_cells(cells));
        for (cell, failure) in failures {
            self.record_failure(cell, failure);
        }
        ran
    }

    /// Per-benchmark IPCs for one configuration and width.
    pub fn ipcs(&self, benches: &[Benchmark], c: PaperConfig, width: u32) -> Vec<f64> {
        benches
            .iter()
            .map(|&b| self.result(b, c, width).ipc())
            .collect()
    }

    /// Per-benchmark speedups of `c` over configuration A at the same
    /// width.
    pub fn speedups(&self, benches: &[Benchmark], c: PaperConfig, width: u32) -> Vec<f64> {
        benches
            .iter()
            .map(|&b| {
                let base = self.result(b, PaperConfig::A, width);
                let r = self.result(b, c, width);
                r.speedup_over(&base)
            })
            .collect()
    }

    /// Number of simulations run so far (for cache tests).
    pub fn simulations_run(&self) -> usize {
        self.cache.read().expect("lab cache poisoned").len()
    }

    /// A snapshot of every recorded cell timing, in completion order.
    pub fn timings(&self) -> Vec<CellTiming> {
        self.timings.lock().expect("lab timings poisoned").clone()
    }

    /// Aggregates recorded timings into a throughput report. On a
    /// profiling lab the report also carries per-cell cycle attribution
    /// ([`CellMetrics`]), sorted by `(benchmark, config, width)` so the
    /// serialisation is stable whatever order the cells completed in.
    pub fn report(&self) -> LabReport {
        let cells = self.timings();
        // fold from +0.0: `Sum for f64` starts at -0.0, which an empty
        // report would render as "-0.000 s".
        let serial_seconds: f64 = cells.iter().map(|c| c.seconds).fold(0.0, |a, c| a + c);
        let prewarm_wall = *self.prewarm_wall.lock().expect("lab wall poisoned");
        let prepass = self
            .prepass_timings()
            .into_iter()
            .map(|(b, s)| (b.models().to_string(), s))
            .collect();
        let mut cell_metrics: Vec<CellMetrics> = self
            .metrics
            .read()
            .expect("lab metrics poisoned")
            .iter()
            .map(|(&(b, c, width), m)| CellMetrics {
                benchmark: b.models().to_string(),
                config: c.label().to_string(),
                width,
                // The audited identity: attributed cycles == total cycles.
                cycles: m.attribution.total(),
                attribution: m.attribution,
            })
            .collect();
        cell_metrics.sort_by(|a, b| {
            (&a.benchmark, &a.config, a.width).cmp(&(&b.benchmark, &b.config, b.width))
        });
        let failed_cells = self
            .cell_failures()
            .into_iter()
            .map(|((b, c, width), failure)| FailedCell {
                benchmark: b.models().to_string(),
                config: c.label().to_string(),
                width,
                timed_out: failure.timed_out,
                error: failure.error,
            })
            .collect();
        LabReport {
            threads: num_threads(),
            cells,
            cell_metrics,
            failed_cells,
            resumed_cells: self.resumed.load(Ordering::SeqCst),
            replayed_cells: self.replayed.load(Ordering::SeqCst),
            prepass,
            serial_seconds,
            // Cells simulated outside a prewarm fan-out ran serially on
            // the caller; count their time as wall time too.
            wall_seconds: if prewarm_wall > 0.0 {
                prewarm_wall
            } else {
                serial_seconds
            },
        }
    }
}

/// Cause-attributed cycle accounting for one profiled grid cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellMetrics {
    /// Benchmark display name (`Benchmark::models`).
    pub benchmark: String,
    /// Paper configuration label (`A`..`E`).
    pub config: String,
    /// Issue width.
    pub width: u32,
    /// Total simulated cycles (equal to `attribution.total()` by the
    /// audited accounting identity).
    pub cycles: u64,
    /// Where those cycles went.
    pub attribution: CycleAttribution,
}

/// Aggregated throughput over everything a [`Lab`] simulated.
#[derive(Debug, Clone)]
pub struct LabReport {
    /// Worker threads the lab fans out over.
    pub threads: usize,
    /// Every executed simulation.
    pub cells: Vec<CellTiming>,
    /// Per-cell cycle attribution, sorted by `(benchmark, config,
    /// width)`. Empty unless the lab ran with profiling on.
    pub cell_metrics: Vec<CellMetrics>,
    /// Cells whose simulation failed under degraded prewarming, sorted
    /// by `(benchmark, config, width)`. Empty on a clean run.
    pub failed_cells: Vec<FailedCell>,
    /// Cells restored from the cell store by [`Lab::resume`] instead of
    /// being re-simulated. Zero on a fresh (non-resumed) run.
    pub resumed_cells: usize,
    /// Cells a resumed journal named that had to re-run anyway
    /// (unfinished, failed, or stale). Zero on a fresh run.
    pub replayed_cells: usize,
    /// `(benchmark, seconds)` for every analysis pre-pass executed —
    /// one entry per benchmark touched, however many cells reused it.
    pub prepass: Vec<(String, f64)>,
    /// Sum of per-cell wall times — what a serial run would have cost.
    pub serial_seconds: f64,
    /// Wall-clock of the actual (parallel) execution.
    pub wall_seconds: f64,
}

impl LabReport {
    /// Total dynamic instructions simulated.
    pub fn instructions(&self) -> u64 {
        self.cells.iter().map(|c| c.instructions).sum()
    }

    /// Total seconds spent in analysis pre-passes.
    pub fn prepass_seconds(&self) -> f64 {
        self.prepass.iter().map(|(_, s)| s).fold(0.0, |a, s| a + s)
    }

    /// Cells served per executed pre-pass — how far the shared analysis
    /// amortises. A full paper grid gives `widths x configs` per
    /// benchmark.
    pub fn cells_per_prepass(&self) -> f64 {
        if self.prepass.is_empty() {
            0.0
        } else {
            self.cells.len() as f64 / self.prepass.len() as f64
        }
    }

    /// Aggregate simulated instructions per host second, in millions,
    /// against the real (parallel) wall clock.
    pub fn mips(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.instructions() as f64 / self.wall_seconds / 1e6
        }
    }

    /// Estimated wall-clock speedup of the parallel fan-out over a
    /// serial evaluation of the same cells, or `None` on a
    /// single-threaded lab — with one worker the "serial equivalent"
    /// *is* the wall clock, and reporting the residual ratio (≈0.99
    /// from accounting noise) misread as a parallel slowdown.
    pub fn speedup_vs_serial(&self) -> Option<f64> {
        if self.threads <= 1 || self.wall_seconds <= 0.0 {
            None
        } else {
            Some(self.serial_seconds / self.wall_seconds)
        }
    }

    /// The run's peak RSS in bytes: the largest per-cell observation
    /// (the process high-water mark at the last completed cell), 0 when
    /// unavailable.
    pub fn peak_rss_bytes(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.process_peak_rss_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Renders the human-readable `--timing` report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "## Lab throughput report");
        let _ = writeln!(
            out,
            "{} cells, {} simulated instructions, {} threads",
            self.cells.len(),
            self.instructions(),
            self.threads
        );
        let speedup = match self.speedup_vs_serial() {
            Some(s) => format!("{s:.2}x"),
            None => "n/a".to_string(),
        };
        let _ = writeln!(
            out,
            "wall {:.3} s (serial-equivalent {:.3} s, speedup {speedup}), {:.2} MIPS aggregate",
            self.wall_seconds,
            self.serial_seconds,
            self.mips()
        );
        let peak = self.peak_rss_bytes();
        if peak > 0 {
            let _ = writeln!(out, "peak RSS {:.1} MiB", peak as f64 / (1024.0 * 1024.0));
        }
        let _ = writeln!(
            out,
            "analysis pre-pass: {:.3} s over {} traces ({:.1} cells amortised per pre-pass)",
            self.prepass_seconds(),
            self.prepass.len(),
            self.cells_per_prepass()
        );
        if self.resumed_cells > 0 || self.replayed_cells > 0 {
            let _ = writeln!(
                out,
                "resumed from journal: {} cells restored, {} replayed",
                self.resumed_cells, self.replayed_cells
            );
        }
        if !self.failed_cells.is_empty() {
            let _ = writeln!(out, "failed cells: {}", self.failed_cells.len());
            for fc in &self.failed_cells {
                let _ = writeln!(
                    out,
                    "  {} config {} width {}{}: {}",
                    fc.benchmark,
                    fc.config,
                    fc.width,
                    if fc.timed_out { " (timed out)" } else { "" },
                    fc.error
                );
            }
        }
        let mut t = ddsc_util::TextTable::new(vec![
            "benchmark".into(),
            "config".into(),
            "width".into(),
            "insts".into(),
            "seconds".into(),
            "MIPS".into(),
        ]);
        for c in &self.cells {
            t.row(vec![
                c.benchmark.models().to_string(),
                c.label.clone(),
                c.width.to_string(),
                c.instructions.to_string(),
                format!("{:.4}", c.seconds),
                format!("{:.2}", c.mips()),
            ]);
        }
        let _ = write!(out, "{t}");
        out
    }

    /// Serialises the report as JSON (the `results/BENCH_lab.json`
    /// payload). Hand-rolled: the repo deliberately has no serde.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let _ = writeln!(out, "  \"resumed_cells\": {},", self.resumed_cells);
        let _ = writeln!(out, "  \"replayed_cells\": {},", self.replayed_cells);
        let _ = writeln!(out, "  \"total_wall_seconds\": {:.6},", self.wall_seconds);
        let _ = writeln!(
            out,
            "  \"serial_equivalent_seconds\": {:.6},",
            self.serial_seconds
        );
        match self.speedup_vs_serial() {
            Some(s) => {
                let _ = writeln!(out, "  \"speedup_vs_serial\": {s:.4},");
            }
            None => {
                let _ = writeln!(out, "  \"speedup_vs_serial\": null,");
            }
        }
        let _ = writeln!(out, "  \"peak_rss_bytes\": {},", self.peak_rss_bytes());
        let _ = writeln!(out, "  \"total_instructions\": {},", self.instructions());
        let _ = writeln!(out, "  \"aggregate_mips\": {:.4},", self.mips());
        let _ = writeln!(out, "  \"prepass_seconds\": {:.6},", self.prepass_seconds());
        let _ = writeln!(
            out,
            "  \"cells_per_prepass\": {:.2},",
            self.cells_per_prepass()
        );
        out.push_str("  \"prepass\": [\n");
        for (i, (b, s)) in self.prepass.iter().enumerate() {
            let _ = write!(out, "    {{\"benchmark\": \"{b}\", \"seconds\": {s:.6}}}");
            out.push_str(if i + 1 < self.prepass.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"benchmark\": \"{}\", \"config\": \"{}\", \"width\": {}, \"instructions\": {}, \"seconds\": {:.6}, \"mips\": {:.4}, \"process_peak_rss_bytes\": {}}}",
                c.benchmark.models(),
                c.label,
                c.width,
                c.instructions,
                c.seconds,
                c.mips(),
                c.process_peak_rss_bytes
            );
            out.push_str(if i + 1 < self.cells.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str("  \"cell_metrics\": [\n");
        for (i, m) in self.cell_metrics.iter().enumerate() {
            let a = &m.attribution;
            let _ = write!(
                out,
                "    {{\"benchmark\": \"{}\", \"config\": \"{}\", \"width\": {}, \"cycles\": {}, \
                 \"issue\": {}, \"branch\": {}, \"memory\": {}, \"address\": {}, \
                 \"long_latency\": {}, \"window_full\": {}, \"dep_height\": {}}}",
                m.benchmark,
                m.config,
                m.width,
                m.cycles,
                a.issue,
                a.branch,
                a.memory,
                a.address,
                a.long_latency,
                a.window_full,
                a.dep_height
            );
            out.push_str(if i + 1 < self.cell_metrics.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str("  \"failed_cells\": [\n");
        for (i, fc) in self.failed_cells.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"benchmark\": \"{}\", \"config\": \"{}\", \"width\": {}, \"timed_out\": {}, \"error\": \"{}\"}}",
                fc.benchmark,
                fc.config,
                fc.width,
                fc.timed_out,
                json_escape(&fc.error)
            );
            out.push_str(if i + 1 < self.failed_cells.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{render_panic, MODEL_VERSION};

    fn tiny() -> SuiteConfig {
        SuiteConfig {
            seed: 3,
            trace_len: 3_000,
            widths: vec![4],
        }
    }

    #[test]
    fn suite_has_all_benchmarks_at_the_requested_length() {
        let s = Suite::generate(tiny());
        for b in Benchmark::ALL {
            assert_eq!(s.trace(b).len(), 3_000);
        }
        assert_eq!(s.iter().count(), 6);
    }

    #[test]
    fn cached_suite_generation_matches_direct_generation() {
        let dir = std::env::temp_dir().join(format!("ddsc-lab-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = crate::TraceCache::new(&dir);
        let cold = Suite::generate_cached(tiny(), &cache); // generates + stores
        let warm = Suite::generate_cached(tiny(), &cache); // loads from disk
        let direct = Suite::generate(tiny());
        for b in Benchmark::ALL {
            assert_eq!(cold.trace(b), direct.trace(b));
            assert_eq!(warm.trace(b), direct.trace(b));
        }
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn results_are_cached() {
        let lab = Lab::new(tiny());
        let a = lab.result(Benchmark::Compress, PaperConfig::A, 4);
        let b = lab.result(Benchmark::Compress, PaperConfig::A, 4);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(lab.simulations_run(), 1);
    }

    #[test]
    fn speedup_of_a_over_itself_is_one() {
        let lab = Lab::new(tiny());
        let s = lab.speedups(&[Benchmark::Eqntott], PaperConfig::A, 4);
        assert_eq!(s, vec![1.0]);
    }

    #[test]
    fn prewarm_fills_the_grid_and_skips_cached_cells() {
        let lab = Lab::new(tiny());
        // Warm one cell serially first; prewarm must not redo it.
        lab.result(Benchmark::Compress, PaperConfig::A, 4);
        let grid = lab.grid();
        assert_eq!(grid.len(), 6 * 5); // 6 benchmarks x A-E x one width
        let ran = lab.prewarm(&grid);
        assert_eq!(ran, grid.len() - 1);
        assert_eq!(lab.simulations_run(), grid.len());
        // A second prewarm is a no-op.
        assert_eq!(lab.prewarm(&grid), 0);
    }

    #[test]
    fn prewarmed_results_are_shared_with_later_lookups() {
        let lab = Lab::new(tiny());
        lab.prewarm(&[(Benchmark::Li, PaperConfig::C, 4)]);
        let a = lab.result(Benchmark::Li, PaperConfig::C, 4);
        let b = lab.result(Benchmark::Li, PaperConfig::C, 4);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(lab.simulations_run(), 1);
    }

    #[test]
    fn timings_cover_every_simulation() {
        let lab = Lab::new(tiny());
        lab.prewarm_all();
        let timings = lab.timings();
        assert_eq!(timings.len(), lab.simulations_run());
        for t in &timings {
            assert_eq!(t.instructions, 3_000);
            assert!(t.seconds >= 0.0);
        }
        let report = lab.report();
        assert_eq!(report.instructions(), 3_000 * 30);
        assert!(report.serial_seconds > 0.0);
        assert!(report.wall_seconds > 0.0);
        // Single-threaded labs report no parallel speedup at all;
        // multi-threaded ones report a positive ratio.
        match report.speedup_vs_serial() {
            Some(s) => {
                assert!(report.threads > 1);
                assert!(s > 0.0);
            }
            None => assert!(report.threads <= 1),
        }
    }

    #[test]
    fn prepass_runs_once_per_benchmark() {
        let lab = Lab::new(tiny());
        lab.prewarm_all();
        // 30 cells simulated, but each benchmark's analysis ran once.
        assert_eq!(lab.simulations_run(), 30);
        let mut benches: Vec<Benchmark> =
            lab.prepass_timings().into_iter().map(|(b, _)| b).collect();
        benches.sort_by_key(|b| b.name());
        let mut expected = Benchmark::ALL.to_vec();
        expected.sort_by_key(|b| b.name());
        assert_eq!(benches, expected);
        // Later lookups keep sharing the same PreparedTrace allocation.
        let a = lab.prepared(Benchmark::Compress);
        let b = lab.prepared(Benchmark::Compress);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(lab.prepass_timings().len(), 6);
        let report = lab.report();
        assert_eq!(report.prepass.len(), 6);
        assert_eq!(report.cells_per_prepass(), 5.0); // 30 cells / 6 traces
    }

    #[test]
    fn profiling_never_moves_a_bit_and_audits_every_cell() {
        let suite = Suite::generate(tiny());
        let plain = Lab::from_suite(suite.clone());
        let profiled = Lab::from_suite(suite).with_profiling();
        assert!(!plain.is_profiling());
        assert!(profiled.is_profiling());
        profiled.prewarm_all();
        for (b, c, w) in profiled.grid() {
            assert_eq!(
                *plain.result(b, c, w),
                *profiled.result(b, c, w),
                "metrics observer changed the simulation of ({b}, {c:?}, {w})"
            );
            let m = profiled.metrics(b, c, w);
            let r = profiled.result(b, c, w);
            // The accounting identity, re-checked at the lab layer.
            assert_eq!(m.attribution.total(), r.cycles);
            m.attribution.audit(r.cycles).unwrap();
        }
        let report = profiled.report();
        assert_eq!(report.cell_metrics.len(), 30);
        // Sorted and stable: (benchmark, config, width) ascending.
        let keys: Vec<_> = report
            .cell_metrics
            .iter()
            .map(|m| (m.benchmark.clone(), m.config.clone(), m.width))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        let json = report.to_json();
        assert!(json.contains("\"cell_metrics\""));
        assert!(json.contains("\"dep_height\""));
        // An unprofiled lab reports an empty attribution section.
        plain.result(Benchmark::Compress, PaperConfig::A, 4);
        let plain_report = plain.report();
        assert!(plain_report.cell_metrics.is_empty());
        assert!(plain_report.to_json().contains("\"cell_metrics\": [\n  ]"));
    }

    #[test]
    fn metrics_on_an_unprofiled_lab_panic_with_a_clear_message() {
        let lab = Lab::new(tiny());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            lab.metrics(Benchmark::Compress, PaperConfig::A, 4)
        }))
        .unwrap_err();
        let msg = render_panic(err.as_ref());
        assert!(msg.contains("with_profiling"), "got: {msg}");
    }

    #[test]
    fn a_panicking_prewarm_worker_names_its_cell_and_spares_the_lab() {
        let lab = Lab::new(SuiteConfig {
            widths: vec![0], // SimConfig::base(0) panics: width must be positive
            ..tiny()
        });
        let good = (Benchmark::Compress, PaperConfig::A, 4);
        let bad = (Benchmark::Eqntott, PaperConfig::B, 0);
        let err = lab.try_prewarm(&[good, bad]).unwrap_err();
        assert_eq!(err.cell, bad);
        let text = err.to_string();
        assert!(text.contains("023.eqntott"), "got: {text}");
        assert!(text.contains("config B"), "got: {text}");
        assert!(text.contains("width 0"), "got: {text}");
        assert!(text.contains("issue width"), "got: {text}");
        // The healthy cell completed and the caches are not poisoned:
        // the lab stays fully usable after the failure.
        assert_eq!(lab.simulations_run(), 1);
        let r = lab.result(good.0, good.1, good.2);
        assert!(r.cycles > 0);
        // The panicking front-door prewarm carries the same message.
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            lab.prewarm(&[bad]);
        }))
        .unwrap_err();
        assert!(render_panic(panic.as_ref()).contains("023.eqntott"));
    }

    #[test]
    fn degraded_prewarm_contains_injected_faults() {
        let bad = (Benchmark::Eqntott, PaperConfig::B, 4);
        let lab = Lab::new(tiny()).with_injected_fault(bad);
        let grid = lab.grid();
        let ran = lab.prewarm_degraded(&grid);
        assert_eq!(ran, grid.len() - 1, "every other cell completes");
        assert_eq!(lab.simulations_run(), grid.len() - 1);

        let failed = lab.failed_cells();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].0, bad);
        assert!(
            failed[0].1.contains("injected fault"),
            "got: {}",
            failed[0].1
        );

        // Lookups of the failed cell fail fast with the recorded
        // message instead of re-running the simulation...
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            lab.result(bad.0, bad.1, bad.2)
        }))
        .unwrap_err();
        assert!(render_panic(panic.as_ref()).contains("injected fault"));
        // ...and the contained front door reports it as an outcome.
        match lab.outcome(bad.0, bad.1, bad.2) {
            CellOutcome::Failed { error } => assert!(error.contains("injected fault")),
            CellOutcome::Completed(_) => panic!("injected fault must not complete"),
            CellOutcome::TimedOut { .. } => panic!("injected fault is not a timeout"),
        }
        // Healthy cells are unaffected.
        assert!(lab
            .outcome(Benchmark::Compress, PaperConfig::A, 4)
            .result()
            .is_some());

        // The report carries the failure, JSON-escaped and stable.
        let report = lab.report();
        assert_eq!(report.failed_cells.len(), 1);
        assert_eq!(report.failed_cells[0].benchmark, "023.eqntott");
        assert_eq!(report.failed_cells[0].config, "B");
        let json = report.to_json();
        assert!(json.contains("\"failed_cells\""));
        assert!(json.contains("injected fault"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let text = report.render();
        assert!(text.contains("failed cells: 1"), "got: {text}");
    }

    #[test]
    fn outcome_records_fresh_failures_without_rerunning() {
        let bad = (Benchmark::Li, PaperConfig::D, 4);
        let lab = Lab::new(tiny()).with_injected_fault(bad);
        assert!(lab.outcome(bad.0, bad.1, bad.2).result().is_none());
        // Recorded: the second call answers from the failure map.
        assert_eq!(lab.failed_cells().len(), 1);
        assert!(lab.outcome(bad.0, bad.1, bad.2).result().is_none());
        assert_eq!(lab.simulations_run(), 0);
    }

    #[test]
    fn an_injected_fault_fires_after_its_trace_is_prepared() {
        let bad = (Benchmark::Li, PaperConfig::D, 4);
        let lab = Lab::new(tiny()).with_injected_fault(bad);
        assert!(lab
            .outcome(Benchmark::Li, PaperConfig::A, 4)
            .result()
            .is_some());
        assert_eq!(lab.prepass_timings().len(), 1, "li's trace is prepared");
        match lab.outcome(bad.0, bad.1, bad.2) {
            CellOutcome::Failed { error } => assert!(error.contains("injected fault"), "{error}"),
            other => panic!("injected fault must fail its cell, got {other:?}"),
        }
    }

    #[test]
    fn json_escape_neutralises_control_and_quote_characters() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(
            json_escape("a \"quote\"\nand \\ tab\t"),
            "a \\\"quote\\\"\\nand \\\\ tab\\t"
        );
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn cached_generation_recovers_from_corrupt_entries() {
        let dir = std::env::temp_dir().join(format!("ddsc-lab-heal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = crate::TraceCache::new(&dir);
        let cfg = tiny();
        let _ = Suite::generate_cached(cfg.clone(), &cache); // warm

        // Smash one entry; generation must heal it, not fail.
        let path = cache.path_for(Benchmark::Compress.name(), cfg.seed, cfg.trace_len);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes.truncate(mid);
        std::fs::write(&path, &bytes).unwrap();

        let healed = Suite::generate_cached(cfg.clone(), &cache);
        let direct = Suite::generate(cfg.clone());
        for b in Benchmark::ALL {
            assert_eq!(healed.trace(b), direct.trace(b));
        }
        // The corrupt entry was regenerated and re-stored.
        assert!(cache
            .try_load(Benchmark::Compress.name(), cfg.seed, cfg.trace_len)
            .is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cached_generation_rides_out_transient_io() {
        let dir = std::env::temp_dir().join(format!("ddsc-lab-flaky-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = crate::TraceCache::new(&dir);
        let cfg = tiny();
        let _ = Suite::generate_cached(cfg.clone(), &cache); // warm
                                                             // Two transient faults across six loads: the bounded retry
                                                             // absorbs them and the suite still matches direct generation.
        let cache = cache.with_transient_faults(2);
        let suite = Suite::generate_cached(cfg.clone(), &cache);
        let direct = Suite::generate(cfg);
        for b in Benchmark::ALL {
            assert_eq!(suite.trace(b), direct.trace(b));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_generous_cell_timeout_never_moves_a_bit() {
        let suite = Suite::generate(tiny());
        let plain = Lab::from_suite(suite.clone());
        let timed = Lab::from_suite(suite).with_cell_timeout(Duration::from_secs(3600));
        assert_eq!(timed.cell_timeout(), Some(Duration::from_secs(3600)));
        let cell = (Benchmark::Compress, PaperConfig::C, 4);
        assert_eq!(
            *plain.result(cell.0, cell.1, cell.2),
            *timed.result(cell.0, cell.1, cell.2),
            "the cancellable path must be bit-identical when the deadline survives"
        );
        assert!(timed.failed_cells().is_empty());
    }

    #[test]
    fn an_expired_timeout_is_contained_and_classified() {
        let lab = Lab::new(SuiteConfig {
            trace_len: 300_000, // long enough to outlive a zero budget
            ..tiny()
        })
        .with_cell_timeout(Duration::ZERO);
        let cell = (Benchmark::Compress, PaperConfig::A, 4);
        match lab.outcome(cell.0, cell.1, cell.2) {
            CellOutcome::TimedOut { error } => {
                assert_eq!(
                    error,
                    "cell timed out: cell (026.compress, config A, width 4) exceeded its 0.000 s \
                     wall-clock budget"
                );
            }
            other => panic!("expected TimedOut, got {other:?}"),
        }
        // Recorded, classified, and reported as a timeout.
        let failures = lab.cell_failures();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].1.timed_out);
        let report = lab.report();
        assert!(report.failed_cells[0].timed_out);
        assert!(report.to_json().contains("\"timed_out\": true"));
        assert!(report.render().contains("(timed out)"));
        // Profiled labs time out the same way (the metrics wrapper
        // composes with the cancel observer).
        let profiled = Lab::new(SuiteConfig {
            trace_len: 300_000,
            ..tiny()
        })
        .with_profiling()
        .with_cell_timeout(Duration::ZERO);
        assert!(profiled.outcome(cell.0, cell.1, cell.2).result().is_none());
    }

    #[test]
    fn supervised_runs_journal_and_resume_without_resimulating() {
        let dir = std::env::temp_dir().join(format!("ddsc-lab-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal_path = dir.join("run_journal.bin");
        let store_dir = dir.join("cells");

        // First run: supervised, one cell fails by injection.
        let bad = (Benchmark::Eqntott, PaperConfig::B, 4);
        let (journal, records) = Journal::open(&journal_path).unwrap();
        assert!(records.is_empty());
        let lab = Lab::new(tiny())
            .with_injected_fault(bad)
            .with_supervision(Arc::new(journal), CellStore::new(&store_dir));
        let grid = lab.grid();
        lab.prewarm_degraded(&grid);

        // The journal saw every start, every finish, and the failure.
        let records = ddsc_util::read_journal(&journal_path).unwrap();
        let starts = records
            .iter()
            .filter(|r| matches!(r, JournalRecord::CellStarted { .. }))
            .count();
        let finishes = records
            .iter()
            .filter(|r| matches!(r, JournalRecord::CellFinished { .. }))
            .count();
        let failures = records
            .iter()
            .filter(|r| matches!(r, JournalRecord::CellFailed { .. }))
            .count();
        assert_eq!(starts, grid.len());
        assert_eq!(finishes, grid.len() - 1);
        assert_eq!(failures, 1);

        // Second lab over the same inputs: resume restores every
        // finished cell bit-identically with zero re-simulation, and
        // the failed cell is left to replay.
        let (journal2, records) = Journal::open(&journal_path).unwrap();
        let lab2 =
            Lab::new(tiny()).with_supervision(Arc::new(journal2), CellStore::new(&store_dir));
        let (resumed, replayed) = lab2.resume(&records);
        assert_eq!(resumed, grid.len() - 1);
        assert_eq!(replayed, 1);
        assert_eq!(lab2.simulations_run(), grid.len() - 1);
        assert_eq!(lab2.timings().len(), 0, "no cell was re-simulated");
        for &(b, c, w) in &grid {
            if (b, c, w) == bad {
                continue;
            }
            assert_eq!(*lab2.result(b, c, w), *lab.result(b, c, w));
        }
        assert_eq!(lab2.timings().len(), 0, "lookups were all cache hits");
        let report = lab2.report();
        assert_eq!(report.resumed_cells, grid.len() - 1);
        assert_eq!(report.replayed_cells, 1);
        let json = report.to_json();
        assert!(json.contains(&format!("\"resumed_cells\": {}", grid.len() - 1)));
        assert!(json.contains("\"replayed_cells\": 1"));

        // A lab with *different* inputs matches no digests: nothing
        // resumes, everything the journal names replays.
        let (journal3, records) = Journal::open(&journal_path).unwrap();
        let other = Lab::new(SuiteConfig { seed: 4, ..tiny() })
            .with_supervision(Arc::new(journal3), CellStore::new(&store_dir));
        let (resumed, replayed) = other.resume(&records);
        assert_eq!(resumed, 0);
        assert_eq!(replayed, grid.len());
        assert_eq!(other.simulations_run(), 0);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn results_stored_under_another_digest_replay_instead_of_restoring() {
        let lab = Lab::new(tiny());
        let cell = (Benchmark::Compress, PaperConfig::C, 4);
        let key = lab.cell_key(cell).unwrap();
        let result = lab.result(cell.0, cell.1, cell.2);
        // The first digest scheme: fnv1a(trace checksum ‖ label ‖ width),
        // blind to the SimConfig and the model version.
        let mut trace_bytes = Vec::new();
        ddsc_trace::io::write_trace(&mut trace_bytes, lab.suite().trace(cell.0)).unwrap();
        let mut ident = ddsc_util::fnv1a(&trace_bytes).to_le_bytes().to_vec();
        ident.extend_from_slice(b"C");
        ident.extend_from_slice(&4u32.to_le_bytes());
        let stale_digests = [
            ("first-scheme", ddsc_util::fnv1a(&ident)),
            ("previous-version", key.digest_under(MODEL_VERSION - 1)),
        ];
        for (tag, stale) in stale_digests {
            assert_ne!(stale, key.digest(), "{tag}");
            let dir =
                std::env::temp_dir().join(format!("ddsc-lab-stale-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let journal_path = dir.join("run_journal.bin");
            let store = CellStore::new(dir.join("cells"));
            store.save(stale, &result).unwrap();
            {
                let (journal, _) = Journal::open(&journal_path).unwrap();
                let (bench, config) = ("compress".to_string(), "C".to_string());
                journal
                    .append(&JournalRecord::CellStarted {
                        bench: bench.clone(),
                        config: config.clone(),
                        width: 4,
                    })
                    .unwrap();
                journal
                    .append(&JournalRecord::CellFinished {
                        bench,
                        config,
                        width: 4,
                        digest: stale,
                    })
                    .unwrap();
            }
            let (journal, records) = Journal::open(&journal_path).unwrap();
            let resumed =
                Lab::from_suite(lab.suite().clone()).with_supervision(Arc::new(journal), store);
            assert_eq!(resumed.resume(&records), (0, 1), "{tag}");
            assert_eq!(resumed.simulations_run(), 0, "{tag}");
            assert_eq!(*resumed.result(cell.0, cell.1, cell.2), *result, "{tag}");
            assert_eq!(
                resumed.timings().len(),
                1,
                "{tag}: the cell simulated again"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn report_renders_and_serialises() {
        let lab = Lab::new(tiny());
        lab.result(Benchmark::Compress, PaperConfig::A, 4);
        let report = lab.report();
        let text = report.render();
        assert!(text.contains("Lab throughput report"));
        assert!(text.contains("026.compress"));
        let json = report.to_json();
        assert!(json.contains("\"speedup_vs_serial\""));
        if report.threads <= 1 {
            assert!(json.contains("\"speedup_vs_serial\": null"));
        }
        // Top-level key keeps the plain name (it genuinely is the run's
        // process peak); per-cell rows carry the process_ prefix so the
        // monotone-inherited values can't be misread as per-cell usage.
        assert!(json.contains("\"peak_rss_bytes\""));
        assert!(json.contains("\"process_peak_rss_bytes\""));
        assert!(json.contains("\"prepass_seconds\""));
        assert!(json.contains("\"cells_per_prepass\""));
        assert!(json.contains("\"benchmark\": \"026.compress\""));
        // Must be balanced JSON at least structurally.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
