//! One name and one executor for a grid cell, behind the lab, the
//! serve engine and the dist worker (DESIGN.md §7.1).
//!
//! A [`CellKey`] names a cell by its inputs; [`CellKey::digest`] is the
//! one cell digest. It covers the trace *parameters*, not the trace
//! bytes or the model, so every committed change that moves a simulated
//! result must bump [`MODEL_VERSION`]: the `model_fingerprint` test
//! fails until it is bumped and [`MODEL_FINGERPRINT`] re-pinned.
//! [`CellRunner`] executes a cell over a prepared trace from its one
//! cache, which holds the six most recently used traces.

use std::collections::HashSet;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use ddsc_core::{
    simulate_with, CancelToken, Cancelled, ConfidenceParams, Latencies, PaperConfig, PreparedTrace,
    RunOptions, SimConfig, SimMetrics, SimResult,
};
use ddsc_util::codec::put_str;
use ddsc_util::fnv1a;
use ddsc_util::journal::{Journal, JournalRecord};
use ddsc_workloads::Benchmark;

use crate::cellstore::CellStore;

/// The version of everything besides the [`CellKey`] that decides a
/// result: timing model, predictors, collapsing rules, workloads. Part
/// of every cell digest and trace-cache file name.
pub const MODEL_VERSION: u32 = 1;

/// FNV-1a of the concatenated [`SimResult::encode_to`] bytes of six
/// benchmarks × A–E × widths 4 and 2048 (in that loop order) at 4,000
/// instructions and seed 1996, under this [`MODEL_VERSION`].
pub const MODEL_FINGERPRINT: u64 = 0x1626_f169_da5d_db81;

/// One cell of the experiment grid: benchmark, configuration, width.
pub type Cell = (Benchmark, PaperConfig, u32);

/// The trace a cell simulates, [`CellKey::trace`]: benchmark, seed,
/// length.
pub type TraceId = (Benchmark, u64, u64);

/// Prepared traces a [`CellRunner`] keeps: one paper grid, one trace
/// per benchmark, so a lab or a dist worker never evicts.
const PREPARED_TRACES: usize = 6;

/// Resolves a benchmark short name (`compress`, `li`, ...).
pub fn parse_benchmark(name: &str) -> Result<Benchmark, String> {
    Benchmark::ALL
        .into_iter()
        .find(|b| b.name() == name)
        .ok_or_else(|| format!("unknown benchmark `{name}`"))
}

/// Resolves a paper configuration label in any case: `d` is `D`.
pub fn parse_config(label: &str) -> Result<PaperConfig, String> {
    PaperConfig::ALL
        .into_iter()
        .find(|c| c.label().eq_ignore_ascii_case(label))
        .ok_or_else(|| format!("unknown configuration `{label}` (A..E)"))
}

/// Accepts an issue width the simulator can build: at least 1.
pub fn parse_width(width: u32) -> Result<u32, String> {
    (width > 0)
        .then_some(width)
        .ok_or_else(|| "invalid issue width 0 (must be at least 1)".to_string())
}

/// A grid [`Cell`] over the trace of one workload seed and length.
/// Equal keys simulate to identical results under one [`MODEL_VERSION`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellKey {
    cell: Cell,
    seed: u64,
    len: u64,
}

impl CellKey {
    /// The key of `cell` over the trace of `seed` and `len`
    /// instructions; fails on a width of 0.
    pub fn new(cell: Cell, seed: u64, len: u64) -> Result<Self, String> {
        parse_width(cell.2)?;
        Ok(Self { cell, seed, len })
    }

    /// Parses a cell named by strings: a request, lease, journal record
    /// or command line.
    pub fn parse(bench: &str, cfg: &str, width: u32, seed: u64, len: u64) -> Result<Self, String> {
        let cell = (parse_benchmark(bench)?, parse_config(cfg)?, width);
        CellKey::new(cell, seed, len)
    }

    /// The grid cell.
    pub fn cell(&self) -> Cell {
        self.cell
    }

    /// The trace the cell simulates: benchmark, seed, length.
    pub fn trace(&self) -> TraceId {
        (self.cell.0, self.seed, self.len)
    }

    /// The machine the cell simulates.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig::paper(self.cell.1, self.cell.2)
    }

    /// Generates the cell's trace and builds its analysis pre-pass.
    pub fn prepare(&self) -> Result<PreparedTrace, String> {
        let trace = (self.cell.0)
            .trace(self.seed, self.len as usize)
            .map_err(|e| format!("trace generation failed: {e}"))?;
        Ok(PreparedTrace::build(&trace))
    }

    /// The cell's digest under the current [`MODEL_VERSION`].
    pub fn digest(&self) -> u64 {
        self.digest_under(MODEL_VERSION)
    }

    /// The digest a journal or cell store written under `model_version`
    /// keys this cell by.
    pub fn digest_under(&self, model_version: u32) -> u64 {
        identity_digest(self, &self.sim_config(), model_version)
    }
}

/// One FNV-1a over a domain tag, the model version, the trace
/// parameters and every field of `config`, destructured exhaustively:
/// a new `SimConfig` field fails to compile here until it is hashed.
fn identity_digest(key: &CellKey, config: &SimConfig, model_version: u32) -> u64 {
    let SimConfig {
        issue_width,
        window_size,
        load_spec,
        value_spec,
        collapsing,
        zero_detection,
        max_collapse_members,
        max_collapse_ops,
        node_elimination,
        collapse_within_block_only,
        latencies,
        predictor_n,
        stride_bits,
        confidence,
        perfect_branches,
    } = *config;
    let Latencies {
        default,
        load,
        mul,
        div,
    } = latencies;
    let ConfidenceParams {
        max,
        inc,
        dec,
        threshold,
    } = confidence;
    let mut bytes = b"ddsc-cell\0".to_vec();
    bytes.extend_from_slice(&model_version.to_le_bytes());
    put_str(&mut bytes, key.cell.0.name());
    for v in [key.seed, key.len, max_collapse_members as u64] {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    for v in [issue_width, window_size, predictor_n, stride_bits] {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    bytes.extend([default, load, mul, div, max, inc, dec, threshold]);
    bytes.extend([load_spec as u8, value_spec as u8, max_collapse_ops]);
    bytes.extend([collapsing, zero_detection, node_elimination].map(u8::from));
    bytes.extend([collapse_within_block_only, perfect_branches].map(u8::from));
    fnv1a(&bytes)
}

/// Renders a caught panic payload (`&str` or `String` in practice).
pub fn render_panic(payload: &(dyn std::any::Any + Send)) -> String {
    match (
        payload.downcast_ref::<&str>(),
        payload.downcast_ref::<String>(),
    ) {
        (Some(s), _) => s.to_string(),
        (None, Some(s)) => s.clone(),
        (None, None) => "non-string panic payload".to_string(),
    }
}

/// Why a cell produced no result. `Display` is the wording serve
/// clients and the dist coordinator receive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellError {
    /// The cell's trace could not be produced.
    Input(String),
    /// The simulation panicked; the payload, rendered.
    Panicked(String),
    /// The simulation outlived its wall-clock budget and was cancelled.
    TimedOut(Duration),
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellError::Input(msg) => f.write_str(msg),
            CellError::Panicked(msg) => write!(f, "cell panicked: {msg}"),
            CellError::TimedOut(budget) => {
                let secs = budget.as_secs_f64();
                write!(f, "cell timed out: exceeded the {secs:.3} s deadline")
            }
        }
    }
}

/// A simulated cell.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// The result.
    pub result: SimResult,
    /// Cycle attribution, when the runner collects metrics.
    pub metrics: Option<SimMetrics>,
    /// Host seconds in the simulate call: the timing loop plus
    /// resolving the configuration's predictor verdict streams. The
    /// first cell on a prepared trace to need a shared default stream
    /// (McFarling branch, stride address) also trains that predictor
    /// here, which the lab's prepass timing leaves out. Building the
    /// prepared trace is excluded.
    pub seconds: f64,
}

/// A single-flight build of one prepared trace: concurrent cells on the
/// trace block on the `OnceLock` until its one builder finishes. A
/// failed generation is kept like a built trace, since it is
/// deterministic; a panicking build leaves the slot empty for the next
/// cell to build.
type PreparedSlot = Arc<OnceLock<Result<Arc<PreparedTrace>, String>>>;

/// Executes cells: one [`simulate_with`] call per cell over a prepared
/// trace from the runner's cache, panic containment and, when
/// supervised, the journal and cell-store writes.
#[derive(Debug, Default)]
pub struct CellRunner {
    /// Cancels a simulation still running this long after it started.
    /// Without one the run takes the uncancellable hot path.
    pub deadline: Option<Duration>,
    /// Runs the metrics observer, which never moves a result bit.
    pub metrics: bool,
    /// The journal every cell transition is appended to and the store
    /// finished results are saved in, under [`CellKey::digest`].
    pub supervision: Option<(Arc<Journal>, CellStore)>,
    /// Cells forced to panic inside the containment, whether or not
    /// their trace is cached: the deterministic fault hook that
    /// degraded-mode tests and `repro --inject-fault` use.
    pub(crate) faults: HashSet<Cell>,
    /// The one prepared-trace cache, least recently used first, at most
    /// [`PREPARED_TRACES`] long. Its lock is never held across a build.
    prepared: Mutex<Vec<(TraceId, PreparedSlot)>>,
}

impl CellRunner {
    /// Journals `CellStarted`, simulates `key` over its prepared trace
    /// (inside the panic containment), then records the result with
    /// [`CellRunner::install`]. The trace comes from
    /// [`CellRunner::prepared`]; `build` makes it on a miss. A failure
    /// is returned unjournaled: the caller words it and records it with
    /// [`CellRunner::fail`].
    pub fn run(
        &self,
        key: &CellKey,
        build: impl FnOnce() -> Result<PreparedTrace, String>,
    ) -> Result<CellRun, CellError> {
        let (b, c, width) = key.cell();
        self.append(|| JournalRecord::CellStarted {
            bench: b.name().to_string(),
            config: c.label().to_string(),
            width,
        });
        let run = catch_unwind(AssertUnwindSafe(|| {
            if self.faults.contains(&key.cell()) {
                panic!(
                    "injected fault: cell ({}, config {}, width {width})",
                    b.models(),
                    c.label()
                );
            }
            let prepared = self
                .prepared(key.trace(), build)
                .map_err(CellError::Input)?;
            let config = key.sim_config();
            let t0 = Instant::now();
            let options = RunOptions {
                metrics: self.metrics,
                cancel: self.deadline.map(CancelToken::with_deadline),
                ..RunOptions::default()
            };
            let (result, metrics) =
                simulate_with(&prepared, &config, &options).map_err(|Cancelled| {
                    CellError::TimedOut(self.deadline.expect("only a deadline cancels a run"))
                })?;
            let seconds = t0.elapsed().as_secs_f64();
            Ok(CellRun {
                result,
                metrics,
                seconds,
            })
        }))
        .unwrap_or_else(|payload| Err(CellError::Panicked(render_panic(payload.as_ref()))))?;
        self.install(key, &run.result);
        Ok(run)
    }

    /// The prepared trace of `trace`, shared by every cell on it. On a
    /// miss `build` makes it once, however many cells ask at the same
    /// time, and the least recently used of the six cached traces is
    /// evicted to make room.
    pub fn prepared(
        &self,
        trace: TraceId,
        build: impl FnOnce() -> Result<PreparedTrace, String>,
    ) -> Result<Arc<PreparedTrace>, String> {
        let slot = {
            let mut slots = self.prepared.lock().expect("prepared-trace cache poisoned");
            let slot = match slots.iter().position(|(id, _)| *id == trace) {
                Some(i) => slots.remove(i).1,
                None => PreparedSlot::default(),
            };
            if slots.len() == PREPARED_TRACES {
                slots.remove(0);
            }
            slots.push((trace, Arc::clone(&slot)));
            slot
        };
        slot.get_or_init(|| build().map(Arc::new)).clone()
    }

    /// Saves a finished result to the store, then journals
    /// `CellFinished`, so a journaled completion is always restorable.
    pub fn install(&self, key: &CellKey, result: &SimResult) {
        let Some((_, store)) = &self.supervision else {
            return;
        };
        let ((b, c, width), digest) = (key.cell(), key.digest());
        if let Err(e) = store.save(digest, result) {
            eprintln!(
                "warning: could not store result of cell ({}, config {}, width {width}): {e}",
                b.name(),
                c.label()
            );
        }
        self.append(|| JournalRecord::CellFinished {
            bench: b.name().to_string(),
            config: c.label().to_string(),
            width,
            digest,
        });
    }

    /// Journals `cell` as failed with the caller's wording.
    pub fn fail(&self, (b, c, width): Cell, error: &str) {
        self.append(|| JournalRecord::CellFailed {
            bench: b.name().to_string(),
            config: c.label().to_string(),
            width,
            error: error.to_string(),
        });
    }

    /// Appends one record when supervised. An I/O failure only warns:
    /// the journal makes crashes recoverable, not more likely.
    fn append(&self, record: impl FnOnce() -> JournalRecord) {
        if let Some((journal, _)) = &self.supervision {
            if let Err(e) = journal.append(&record()) {
                eprintln!("warning: could not append to run journal: {e}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddsc_core::{simulate_prepared, LoadSpecMode, ValueSpecMode};
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn model_fingerprint() {
        let mut bytes = Vec::new();
        for b in Benchmark::ALL {
            let prepared = PreparedTrace::build(&b.trace(1996, 4_000).unwrap());
            for c in PaperConfig::ALL {
                for w in [4, 2048] {
                    simulate_prepared(&prepared, &SimConfig::paper(c, w)).encode_to(&mut bytes);
                }
            }
        }
        let fingerprint = fnv1a(&bytes);
        assert_eq!(
            fingerprint, MODEL_FINGERPRINT,
            "the fingerprint grid simulates to {fingerprint:#018x}: results moved, so bump \
             MODEL_VERSION and re-pin MODEL_FINGERPRINT to this value"
        );
    }

    #[test]
    fn the_parser_canonicalises_labels_and_rejects_bad_names() {
        let upper = CellKey::parse("compress", "D", 8, 1996, 2_000).unwrap();
        let lower = CellKey::parse("compress", "d", 8, 1996, 2_000).unwrap();
        assert_eq!(upper, lower);
        assert_eq!(upper.digest(), lower.digest());
        assert_eq!(lower.cell(), (Benchmark::Compress, PaperConfig::D, 8));
        let err = |r: Result<CellKey, String>| r.unwrap_err();
        assert!(err(CellKey::parse("nope", "A", 4, 1, 1)).contains("unknown benchmark `nope`"));
        assert!(err(CellKey::parse("li", "Z", 4, 1, 1)).contains("unknown configuration `Z`"));
        assert!(err(CellKey::parse("li", "A", 0, 1, 1)).contains("issue width 0"));
        assert!(CellKey::new((Benchmark::Li, PaperConfig::A, 0), 1, 1).is_err());
    }

    #[test]
    fn failures_are_typed_and_contained() {
        let key = CellKey::parse("li", "A", 4, 1996, 300_000).unwrap();
        let e = CellRunner::default()
            .run(&key, || Err("no trace".into()))
            .unwrap_err();
        assert_eq!(e, CellError::Input("no trace".into()));
        let e = CellRunner::default()
            .run(&key, || panic!("boom"))
            .unwrap_err();
        assert_eq!(e, CellError::Panicked("boom".into()));
        assert_eq!(e.to_string(), "cell panicked: boom");
        let runner = CellRunner {
            deadline: Some(Duration::ZERO),
            ..CellRunner::default()
        };
        let e = runner.run(&key, || key.prepare()).unwrap_err();
        assert_eq!(e, CellError::TimedOut(Duration::ZERO));
        assert_eq!(
            e.to_string(),
            "cell timed out: exceeded the 0.000 s deadline"
        );
    }

    /// A prepared trace of `len` instructions of li at `seed` that
    /// counts its builds in `builds`.
    fn counted_build(
        builds: &AtomicUsize,
        seed: u64,
        len: u64,
    ) -> impl FnOnce() -> Result<PreparedTrace, String> + '_ {
        move || {
            builds.fetch_add(1, Ordering::SeqCst);
            CellKey::new((Benchmark::Li, PaperConfig::A, 4), seed, len)?.prepare()
        }
    }

    #[test]
    fn concurrent_cells_on_one_trace_build_it_once_and_share_it() {
        let runner = CellRunner::default();
        let builds = AtomicUsize::new(0);
        let start = Barrier::new(8);
        let trace = (Benchmark::Li, 1996, 20_000);
        let shared: Vec<Arc<PreparedTrace>> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        runner
                            .prepared(trace, counted_build(&builds, 1996, 20_000))
                            .unwrap()
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        assert!(shared.iter().all(|p| Arc::ptr_eq(p, &shared[0])));
    }

    #[test]
    fn a_seventh_trace_evicts_the_least_recently_used() {
        let runner = CellRunner::default();
        let builds = AtomicUsize::new(0);
        let get = |seed: u64| {
            let trace = (Benchmark::Li, seed, 100);
            runner
                .prepared(trace, counted_build(&builds, seed, 100))
                .unwrap();
            builds.load(Ordering::SeqCst)
        };
        for _ in 0..3 {
            for seed in 0..6 {
                get(seed);
            }
        }
        assert_eq!(get(0), 6, "cycling through six traces never rebuilds");
        // Seed 1 is now the least recently used: a seventh trace evicts it.
        assert_eq!(get(6), 7);
        assert_eq!(runner.prepared.lock().unwrap().len(), PREPARED_TRACES);
        for seed in [0, 2, 3, 4, 5, 6] {
            assert_eq!(get(seed), 7, "seed {seed} stayed cached");
        }
        assert_eq!(get(1), 8, "the evicted trace is built again");
    }

    #[test]
    fn a_panicking_build_leaves_the_cache_usable() {
        let runner = CellRunner::default();
        let key = CellKey::parse("li", "A", 4, 1996, 2_000).unwrap();
        let e = runner.run(&key, || panic!("build broke")).unwrap_err();
        assert_eq!(e, CellError::Panicked("build broke".into()));
        let builds = AtomicUsize::new(0);
        runner
            .run(&key, counted_build(&builds, 1996, 2_000))
            .expect("the next cell on the trace builds it");
        let other = CellKey::parse("li", "D", 8, 1996, 2_000).unwrap();
        runner
            .run(&other, counted_build(&builds, 1996, 2_000))
            .unwrap();
        assert_eq!(builds.load(Ordering::SeqCst), 1);
    }

    /// A copy of `config` with exactly one field changed; `field`
    /// picks which of its 21 leaf fields, `delta` (non-zero) how.
    fn with_one_field_changed(config: SimConfig, field: usize, delta: u8) -> SimConfig {
        let mut c = config;
        let d = delta.max(1);
        match field {
            0 => c.issue_width = c.issue_width.wrapping_add(d.into()),
            1 => c.window_size = c.window_size.wrapping_add(d.into()),
            2 => {
                c.load_spec = match c.load_spec {
                    LoadSpecMode::Off => LoadSpecMode::Real,
                    LoadSpecMode::Real => LoadSpecMode::Ideal,
                    LoadSpecMode::Ideal => LoadSpecMode::Off,
                }
            }
            3 => {
                c.value_spec = match c.value_spec {
                    ValueSpecMode::Off => ValueSpecMode::Real,
                    ValueSpecMode::Real => ValueSpecMode::Ideal,
                    ValueSpecMode::Ideal => ValueSpecMode::IdealAll,
                    ValueSpecMode::IdealAll => ValueSpecMode::Off,
                }
            }
            4 => c.collapsing = !c.collapsing,
            5 => c.zero_detection = !c.zero_detection,
            6 => c.max_collapse_members = c.max_collapse_members.wrapping_add(d.into()),
            7 => c.max_collapse_ops = c.max_collapse_ops.wrapping_add(d),
            8 => c.node_elimination = !c.node_elimination,
            9 => c.collapse_within_block_only = !c.collapse_within_block_only,
            10 => c.latencies.default = c.latencies.default.wrapping_add(d),
            11 => c.latencies.load = c.latencies.load.wrapping_add(d),
            12 => c.latencies.mul = c.latencies.mul.wrapping_add(d),
            13 => c.latencies.div = c.latencies.div.wrapping_add(d),
            14 => c.predictor_n = c.predictor_n.wrapping_add(d.into()),
            15 => c.stride_bits = c.stride_bits.wrapping_add(d.into()),
            16 => c.confidence.max = c.confidence.max.wrapping_add(d),
            17 => c.confidence.inc = c.confidence.inc.wrapping_add(d),
            18 => c.confidence.dec = c.confidence.dec.wrapping_add(d),
            19 => c.confidence.threshold = c.confidence.threshold.wrapping_add(d),
            _ => c.perfect_branches = !c.perfect_branches,
        }
        c
    }

    proptest! {
        #[test]
        fn any_single_input_change_moves_the_digest(
            b in 0usize..6,
            c in 0usize..5,
            w in 1u32..5000,
            seed in any::<u64>(),
            len in any::<u64>(),
            field in 0usize..21,
            delta in 1u8..255,
            other in 1usize..6,
        ) {
            let bench = Benchmark::ALL[b];
            let key = CellKey::new((bench, PaperConfig::ALL[c], w), seed, len).unwrap();
            let config = key.sim_config();
            let digest = key.digest();
            prop_assert_eq!(digest, identity_digest(&key, &config, MODEL_VERSION));
            let same = CellKey::new(key.cell(), seed, len).unwrap();
            prop_assert_eq!(same.digest(), digest);

            let changed = with_one_field_changed(config, field, delta);
            prop_assert_ne!(changed, config);
            prop_assert_ne!(identity_digest(&key, &changed, MODEL_VERSION), digest);

            let other_bench = Benchmark::ALL[(b + other) % 6];
            let moved = [
                CellKey::new((other_bench, key.cell().1, w), seed, len).unwrap(),
                CellKey::new(key.cell(), seed.wrapping_add(1), len).unwrap(),
                CellKey::new(key.cell(), seed, len.wrapping_add(1)).unwrap(),
            ];
            for k in moved {
                prop_assert_ne!(k.digest(), digest);
            }
            prop_assert_ne!(key.digest_under(MODEL_VERSION - 1), digest);
        }
    }
}
