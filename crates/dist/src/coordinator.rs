//! The coordinator: a pull-based cell scheduler with a failure model,
//! and the TCP server that exposes it to worker processes.
//!
//! The scheduling logic lives in [`Scheduler`], a pure state machine
//! that takes the current `Instant` as an argument everywhere — the
//! seeded chaos tests drive it with synthetic clocks and scripted
//! worker failures, while the [`Coordinator`] drives it with wall time
//! and real sockets. One body of logic, two harnesses.
//!
//! The failure model, in one pass:
//!
//! - every dispatched cell carries a **lease** (worker, start time);
//! - workers send **heartbeats** while computing; a silent worker is
//!   declared dead after `heartbeat_timeout`, a closed connection
//!   immediately;
//! - a dead worker's leases **strike** their cells and re-enqueue them
//!   at the front of the queue;
//! - a cell struck by `poison_threshold` *distinct* workers is
//!   **quarantined** — recorded as failed (the exit-2 degraded
//!   contract) instead of wedging the run;
//! - every lease carries a **deadline fixed at dispatch time**
//!   (adaptive: per-benchmark EWMA + p95 of observed compute times,
//!   with the fixed `lease_timeout` as fallback and floor — see
//!   [`estimate`](crate::estimate)); an expired lease is revoked and
//!   its cell re-enqueued (deadline re-dispatch); an idle worker may
//!   also duplicate a lease past half its deadline (**straggler
//!   re-dispatch** / work stealing) — the first valid result wins and
//!   late duplicates are discarded by digest, which is safe because
//!   simulation is a pure function of the digest-keyed inputs: every
//!   valid result for a digest is byte-identical.
//!
//! Result ingest is paranoid about the bytes, not the physics: frames
//! are checksummed, the body must decode as a canonical
//! [`SimResult::encode_to`] encoding with no trailing bytes, and the
//! counters must satisfy the simulator's structural invariants
//! (instructions match the requested trace length, cycles bounded
//! below by the issue-width limit). A rejected result strikes the
//! sending worker and re-dispatches the cell — it is never merged.
//!
//! Structural validation cannot catch a **byzantine** worker emitting
//! well-formed but wrong counters, so the scheduler adds
//! **double-compute spot checks**: a seeded, deterministic K% of cells
//! require the same canonical bytes from two *distinct* workers before
//! merging. On a byte mismatch both candidates' pending trust is
//! quarantined (their other leases are revoked, their future results
//! are held for verification), the cell is re-dispatched to a third
//! worker as tiebreak, and the minority side of the vote is marked
//! byzantine — its leases drain, its results are discarded, and a
//! reconnect under the same identity is refused for the rest of the
//! run. Each incident lands in `BENCH_dist.json`.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, BufReader, BufWriter, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use ddsc_core::SimResult;
use ddsc_util::{fnv1a, Json};

use crate::estimate::{ComputeEstimator, LeaseStat};
use crate::proto::{read_worker_msg, write_coord_msg, CellSpec, CoordMsg, WireError, WorkerMsg};

/// Distinct result bodies a spot-checked cell may accumulate before
/// the conflict is declared unresolvable and the cell quarantined.
const MAX_CANDIDATES: usize = 4;

/// How often the [`Coordinator`]'s monitor applies the scheduler's
/// timeouts; a completed grid wakes it at once.
const REAP_EVERY: Duration = Duration::from_millis(100);

/// Tunables of the scheduler's failure model.
#[derive(Debug, Clone, Copy)]
pub struct SchedOptions {
    /// Fixed lease timeout: the deadline granted before enough compute
    /// samples exist, and the fallback when `adaptive_lease` is off.
    pub lease_timeout: Duration,
    /// Silence after which a worker is declared dead.
    pub heartbeat_timeout: Duration,
    /// Distinct workers a cell may strike (kill or fail on) before it
    /// is quarantined as failed.
    pub poison_threshold: usize,
    /// What [`Scheduler::next_assignment`] answers when nothing is
    /// dispatchable: `Idle { wait_ms: idle_wait_ms }`. The
    /// [`Coordinator`] holds such a request for up to this long, and
    /// answers it as soon as a cell becomes dispatchable or the grid
    /// completes; a hold that finds nothing answers `Idle { wait_ms: 0 }`.
    /// Keep it well below the worker's 30 s read timeout.
    pub idle_wait_ms: u32,
    /// Derive lease deadlines from observed per-benchmark compute
    /// times (EWMA + p95) instead of the fixed `lease_timeout`.
    pub adaptive_lease: bool,
    /// Hard floor under adaptive deadlines: the estimate never revokes
    /// a lease younger than this.
    pub lease_floor: Duration,
    /// Percentage of cells (seeded, deterministic selection) that must
    /// be confirmed by a second, distinct worker before merging.
    pub spot_check_percent: u8,
    /// Seed for the deterministic spot-check selection.
    pub spot_check_seed: u64,
}

impl Default for SchedOptions {
    fn default() -> SchedOptions {
        SchedOptions {
            lease_timeout: Duration::from_secs(60),
            heartbeat_timeout: Duration::from_secs(10),
            poison_threshold: 3,
            idle_wait_ms: 50,
            adaptive_lease: true,
            lease_floor: Duration::from_secs(1),
            spot_check_percent: 0,
            spot_check_seed: 0xDD5C,
        }
    }
}

/// Whether `digest`'s cell is spot-checked under `seed`/`percent`: a
/// pure function, so the selection is identical across coordinator
/// restarts and reproducible from the seed alone.
pub fn spot_selected(seed: u64, digest: u64, percent: u8) -> bool {
    if percent == 0 {
        return false;
    }
    if percent >= 100 {
        return true;
    }
    let mut key = [0u8; 16];
    key[..8].copy_from_slice(&seed.to_le_bytes());
    key[8..].copy_from_slice(&digest.to_le_bytes());
    fnv1a(&key) % 100 < percent as u64
}

/// What a worker's work request yields.
#[derive(Debug, Clone, PartialEq)]
pub enum Assignment {
    /// Compute this cell.
    Cell(CellSpec),
    /// Nothing dispatchable; ask again after `wait_ms`.
    Idle {
        /// Suggested poll delay in milliseconds.
        wait_ms: u32,
    },
    /// The grid is complete; exit.
    AllDone,
}

/// What the scheduler decided about a submitted result or failure.
///
/// A short-lived, one-per-submission value, so the size of the
/// `Merged` variant is irrelevant — no point boxing it.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum Ingest {
    /// First valid result for its cell: merge it.
    Merged {
        /// The completed cell.
        spec: CellSpec,
        /// The decoded, validated result.
        result: SimResult,
        /// Worker-reported compute seconds.
        seconds: f64,
    },
    /// The cell was already completed (or quarantined) — a straggler's
    /// duplicate, discarded by digest.
    Duplicate,
    /// The body failed validation; the worker was struck and the cell
    /// re-dispatched. Never merged.
    Rejected {
        /// Why the body was refused.
        reason: String,
    },
    /// The strike tipped the cell over the poison threshold.
    Quarantined {
        /// The quarantined cell.
        spec: CellSpec,
        /// The rendered quarantine reason.
        error: String,
    },
    /// A failure was recorded and the cell re-dispatched.
    Recorded,
    /// A valid result for a spot-checked cell was recorded as a
    /// candidate; the merge waits for a confirming byte-identical
    /// result from a distinct worker.
    HeldForVerification,
    /// No cell with that digest exists in this run.
    Unknown,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellState {
    Pending,
    Leased,
    Done,
    Quarantined,
}

/// One held result body on a spot-checked cell, awaiting confirmation.
#[derive(Debug)]
struct Candidate {
    worker: u64,
    body: Vec<u8>,
    seconds: f64,
}

#[derive(Debug)]
struct CellEntry {
    spec: CellSpec,
    state: CellState,
    /// Distinct workers that died on or failed this cell.
    strikes: HashSet<u64>,
    /// Outstanding leases on this cell (0, 1 or 2 — duplicates capped).
    active_leases: usize,
    /// Whether merging requires two distinct workers to agree on the
    /// canonical bytes (seeded selection, or escalated because a
    /// suspect worker submitted first).
    spot_check: bool,
    /// Held result bodies, one per distinct submitting worker.
    candidates: Vec<Candidate>,
    /// Workers whose body is (or was) on file for this cell — they may
    /// not confirm their own computation.
    verifiers: HashSet<u64>,
    /// When the first candidate disagreement was observed, for the
    /// unresolvable-conflict quarantine clock. Set once per contested
    /// cell and kept until the cell settles and records its incident.
    mismatch_since: Option<Instant>,
    /// Contestants banned on another cell's vote while this cell was
    /// contested: their candidates were purged, but this cell's
    /// incident still names them.
    purged: Vec<u64>,
}

#[derive(Debug)]
struct Lease {
    cell: usize,
    worker: u64,
    since: Instant,
    /// Revocation deadline fixed at dispatch time — later estimate
    /// changes never retro-extend (or retro-shrink) a granted lease.
    deadline: Instant,
}

#[derive(Debug)]
struct WorkerInfo {
    last_seen: Instant,
    alive: bool,
    completed: u64,
    /// Trust on hold: this worker was party to an unresolved
    /// spot-check mismatch. Its results are held for verification
    /// until a consensus exonerates it.
    suspect: bool,
    /// Lost the spot-check vote: leases drained, results discarded,
    /// reconnect refused for the rest of the run.
    banned: bool,
}

/// Per-worker slice of the run report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerReport {
    /// The worker's assigned id.
    pub id: u64,
    /// Cells whose first valid result this worker delivered.
    pub cells: u64,
    /// Whether the worker was still alive at the end of the run.
    pub alive: bool,
    /// Whether the worker was marked byzantine (lost a spot-check
    /// vote) and drained from the run.
    pub byzantine: bool,
}

/// One spot-check mismatch, as recorded in `BENCH_dist.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MismatchIncident {
    /// The contested cell's digest.
    pub digest: u64,
    /// The contested cell's benchmark.
    pub bench: String,
    /// The contested cell's config label.
    pub config: String,
    /// The contested cell's issue width.
    pub width: u32,
    /// Candidate submitters, in submission order, then contestants whose
    /// candidates were purged when another cell's vote banned them.
    pub workers: Vec<u64>,
    /// The minority side of the resolved vote (none if unresolved),
    /// then the purged contestants.
    pub byzantine: Vec<u64>,
    /// Whether a tiebreak consensus settled the cell (false: the cell
    /// was quarantined with the conflict undecided).
    pub resolved: bool,
}

/// The distributed run's outcome counters (`BENCH_dist.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct DistReport {
    /// Cells the run was asked to complete.
    pub cells_total: usize,
    /// Cells completed with a valid result.
    pub cells_completed: usize,
    /// Cells quarantined as poison.
    pub cells_quarantined: usize,
    /// Re-dispatch decisions: death re-enqueues, deadline revocations
    /// and straggler duplicates.
    pub redispatched: u64,
    /// Valid-but-late results discarded by digest.
    pub duplicate_results: u64,
    /// Results rejected by ingest validation.
    pub corrupt_results: u64,
    /// Workers declared dead (connection loss or heartbeat silence
    /// while holding a lease).
    pub worker_deaths: u64,
    /// Cells merged only after a second distinct worker confirmed the
    /// canonical bytes.
    pub spot_checked: u64,
    /// Spot-checked cells whose candidates disagreed, counted once per
    /// cell. Each such cell records exactly one entry in `incidents`
    /// when it settles, so the two agree once every cell has.
    pub mismatches: u64,
    /// Workers marked byzantine and drained from the run, in ban order.
    pub byzantine_workers: Vec<u64>,
    /// Revoked leases whose worker later delivered a valid result
    /// after genuinely computing for the whole allotment — the
    /// deadline was too tight (adaptive-timeout quality signal; a
    /// fast result merely *delivered* late counts against the
    /// network, not the estimator).
    pub revocation_false_positives: u64,
    /// Whether lease deadlines were derived from observed compute
    /// times.
    pub adaptive_lease: bool,
    /// Per-benchmark observed compute percentiles and the lease
    /// timeout in force.
    pub lease_stats: Vec<LeaseStat>,
    /// Spot-check mismatch incidents, in detection order.
    pub incidents: Vec<MismatchIncident>,
    /// Per-worker completion counts.
    pub workers: Vec<WorkerReport>,
    /// Sum of worker-reported per-cell compute seconds — the serial
    /// cost the run avoided paying on one core.
    pub compute_seconds: f64,
    /// Coordinator wall-clock seconds for the whole run.
    pub wall_seconds: f64,
}

impl DistReport {
    /// Wall-clock speedup over computing the same cells serially:
    /// `compute_seconds / wall_seconds`.
    pub fn speedup_vs_serial(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.compute_seconds / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Renders the report as stable JSON (`ddsc-dist-bench-v2`; every
    /// v1 field is unchanged, v2 appends the trust and adaptive-lease
    /// accounting).
    pub fn to_json(&self) -> String {
        let lease_stats = self.lease_stats.iter().map(|s| {
            Json::obj([
                ("bench", s.bench.as_str().into()),
                ("samples", s.samples.into()),
                ("p50_s", Json::fixed(s.p50_s, 6)),
                ("p95_s", Json::fixed(s.p95_s, 6)),
                ("timeout_s", Json::fixed(s.timeout_s, 3)),
            ])
        });
        let incidents = self.incidents.iter().map(|inc| {
            Json::obj([
                ("digest", format!("0x{:016x}", inc.digest).into()),
                ("bench", inc.bench.as_str().into()),
                ("config", inc.config.as_str().into()),
                ("width", inc.width.into()),
                ("workers", inc.workers.iter().copied().collect()),
                ("byzantine", inc.byzantine.iter().copied().collect()),
                ("resolved", inc.resolved.into()),
            ])
        });
        let workers = self.workers.iter().map(|w| {
            Json::obj([
                ("id", w.id.into()),
                ("cells", w.cells.into()),
                ("alive", w.alive.into()),
                ("byzantine", w.byzantine.into()),
            ])
        });
        Json::obj([
            ("schema", "ddsc-dist-bench-v2".into()),
            ("cells_total", self.cells_total.into()),
            ("cells_completed", self.cells_completed.into()),
            ("cells_quarantined", self.cells_quarantined.into()),
            ("redispatched", self.redispatched.into()),
            ("duplicate_results", self.duplicate_results.into()),
            ("corrupt_results", self.corrupt_results.into()),
            ("worker_deaths", self.worker_deaths.into()),
            ("spot_checked", self.spot_checked.into()),
            ("mismatches", self.mismatches.into()),
            (
                "byzantine_workers",
                self.byzantine_workers.iter().copied().collect(),
            ),
            (
                "revocation_false_positives",
                self.revocation_false_positives.into(),
            ),
            ("adaptive_lease", self.adaptive_lease.into()),
            ("compute_seconds", Json::fixed(self.compute_seconds, 6)),
            ("wall_seconds", Json::fixed(self.wall_seconds, 6)),
            (
                "speedup_vs_serial",
                Json::fixed(self.speedup_vs_serial(), 4),
            ),
            ("lease_stats", lease_stats.collect()),
            ("incidents", incidents.collect()),
            ("workers", workers.collect()),
        ])
        .render()
    }
}

/// Validates one result body against its cell: canonical codec,
/// no trailing bytes, and the structural invariants the simulator
/// guarantees. `Err` is the rejection reason.
pub fn validate_body(spec: &CellSpec, body: &[u8]) -> Result<SimResult, String> {
    let key = spec.key()?;
    let mut pos = 0usize;
    let result = SimResult::decode(body, &mut pos, key.sim_config())
        .ok_or_else(|| "undecodable result body".to_string())?;
    if pos != body.len() {
        return Err(format!(
            "trailing bytes after result body ({pos} of {})",
            body.len()
        ));
    }
    if result.instructions != spec.trace_len {
        return Err(format!(
            "instruction count {} does not match trace length {}",
            result.instructions, spec.trace_len
        ));
    }
    // No machine issues more than `width` instructions per cycle, so
    // any valid run satisfies cycles ≥ ⌈insts / width⌉.
    let floor = spec.trace_len.div_ceil(u64::from(spec.width));
    if result.cycles < floor {
        return Err(format!(
            "cycle count {} below the width-{} issue floor {floor}",
            result.cycles, spec.width
        ));
    }
    let mut canonical = Vec::with_capacity(body.len());
    result.encode_to(&mut canonical);
    if canonical != body {
        return Err("non-canonical result encoding".to_string());
    }
    Ok(result)
}

/// The pure scheduling state machine. All methods take `now` so tests
/// can drive it with a synthetic clock; the TCP layer passes
/// `Instant::now()`.
#[derive(Debug)]
pub struct Scheduler {
    cells: Vec<CellEntry>,
    by_digest: HashMap<u64, usize>,
    pending: VecDeque<usize>,
    leases: Vec<Lease>,
    workers: HashMap<u64, WorkerInfo>,
    next_worker_id: u64,
    opts: SchedOptions,
    estimator: ComputeEstimator,
    done: usize,
    quarantined: usize,
    redispatched: u64,
    duplicate_results: u64,
    corrupt_results: u64,
    worker_deaths: u64,
    compute_seconds: f64,
    spot_checked: u64,
    mismatches: u64,
    byzantine: Vec<u64>,
    /// (digest, worker) pairs whose lease was revoked at deadline,
    /// with the lease's allotted duration. A later valid delivery
    /// whose reported compute time filled the allotment is a
    /// revocation false positive — the estimator under-budgeted. A
    /// *fast* result arriving late was delayed in transit; that is
    /// the network's fault, not the deadline's, and does not count.
    revoked: HashMap<(u64, u64), Duration>,
    revocation_false_positives: u64,
    incidents: Vec<MismatchIncident>,
}

impl Scheduler {
    /// A scheduler over `cells`, dispatched in input order.
    pub fn new(cells: Vec<CellSpec>, opts: SchedOptions) -> Scheduler {
        let mut by_digest = HashMap::with_capacity(cells.len());
        let entries: Vec<CellEntry> = cells
            .into_iter()
            .map(|spec| {
                let spot_check =
                    spot_selected(opts.spot_check_seed, spec.digest, opts.spot_check_percent);
                CellEntry {
                    spec,
                    state: CellState::Pending,
                    strikes: HashSet::new(),
                    active_leases: 0,
                    spot_check,
                    candidates: Vec::new(),
                    verifiers: HashSet::new(),
                    mismatch_since: None,
                    purged: Vec::new(),
                }
            })
            .collect();
        for (i, e) in entries.iter().enumerate() {
            let prev = by_digest.insert(e.spec.digest, i);
            debug_assert!(prev.is_none(), "duplicate cell digest in grid");
        }
        Scheduler {
            pending: (0..entries.len()).collect(),
            cells: entries,
            by_digest,
            leases: Vec::new(),
            workers: HashMap::new(),
            next_worker_id: 1,
            opts,
            estimator: ComputeEstimator::new(),
            done: 0,
            quarantined: 0,
            redispatched: 0,
            duplicate_results: 0,
            corrupt_results: 0,
            worker_deaths: 0,
            compute_seconds: 0.0,
            spot_checked: 0,
            mismatches: 0,
            byzantine: Vec::new(),
            revoked: HashMap::new(),
            revocation_false_positives: 0,
            incidents: Vec::new(),
        }
    }

    /// Registers (or revives) a worker. `want_id` 0 — or an id this
    /// scheduler never issued — yields a fresh identity; a known id
    /// reconnects with its history (completion counts, strikes against
    /// it, and any byzantine ban) intact.
    pub fn register(&mut self, want_id: u64, now: Instant) -> u64 {
        if want_id != 0 {
            if let Some(info) = self.workers.get_mut(&want_id) {
                // A banned identity stays banned: the reconnect is
                // answered, but every work request it makes gets
                // `AllDone` — refused for the rest of the run.
                info.alive = true;
                info.last_seen = now;
                return want_id;
            }
        }
        let id = self.next_worker_id;
        self.next_worker_id += 1;
        self.workers.insert(
            id,
            WorkerInfo {
                last_seen: now,
                alive: true,
                completed: 0,
                suspect: false,
                banned: false,
            },
        );
        id
    }

    /// Whether `worker` has been marked byzantine.
    pub fn is_banned(&self, worker: u64) -> bool {
        self.workers.get(&worker).is_some_and(|i| i.banned)
    }

    /// The lease timeout a fresh lease on `ci` would get right now.
    fn cell_timeout(&self, ci: usize) -> Duration {
        if !self.opts.adaptive_lease {
            return self.opts.lease_timeout;
        }
        self.estimator.timeout_for(
            &self.cells[ci].spec.bench,
            self.opts.lease_timeout,
            self.opts.lease_floor,
        )
    }

    /// Whether any alive, non-banned worker other than `exclude`
    /// exists — the guard for single-worker liveness fallbacks.
    fn other_live_worker(&self, exclude: u64) -> bool {
        self.workers
            .iter()
            .any(|(&id, info)| id != exclude && info.alive && !info.banned)
    }

    /// Whether some alive, non-banned worker that has *not* yet
    /// submitted a body for `ci` exists to confirm or tiebreak it.
    fn eligible_verifier_exists(&self, ci: usize) -> bool {
        self.workers.iter().any(|(&id, info)| {
            info.alive && !info.banned && !self.cells[ci].verifiers.contains(&id)
        })
    }

    /// Re-enqueues `ci` at the front of the queue unless it is already
    /// pending, settled, or still leased elsewhere.
    fn ensure_dispatchable(&mut self, ci: usize) {
        let entry = &mut self.cells[ci];
        if entry.state == CellState::Leased && entry.active_leases == 0 {
            entry.state = CellState::Pending;
            self.pending.push_front(ci);
            self.redispatched += 1;
        }
    }

    /// Puts a worker's trust on hold after a spot-check mismatch: its
    /// in-flight leases are revoked (the cells re-dispatch to workers
    /// still in good standing) and its future results are held for
    /// verification until a consensus exonerates it.
    fn mark_suspect(&mut self, worker: u64) {
        if let Some(info) = self.workers.get_mut(&worker) {
            if info.banned || info.suspect {
                return;
            }
            info.suspect = true;
        } else {
            return;
        }
        self.drain_leases(worker);
    }

    /// Marks a worker byzantine: leases drained, results discarded,
    /// reconnects refused, and its held candidates on other cells
    /// purged (they are known-bad). A contested cell keeps its mismatch
    /// and remembers the purge for its incident.
    fn mark_byzantine(&mut self, worker: u64) {
        if let Some(info) = self.workers.get_mut(&worker) {
            if info.banned {
                return;
            }
            info.banned = true;
            info.suspect = false;
        } else {
            return;
        }
        self.byzantine.push(worker);
        self.drain_leases(worker);
        for entry in &mut self.cells {
            if matches!(entry.state, CellState::Done | CellState::Quarantined) {
                continue;
            }
            let held = entry.candidates.len();
            entry.candidates.retain(|c| c.worker != worker);
            if entry.candidates.len() < held && entry.mismatch_since.is_some() {
                entry.purged.push(worker);
            }
        }
    }

    /// Revokes every lease `worker` holds and re-dispatches the cells.
    /// Not a death: the worker may still be connected.
    fn drain_leases(&mut self, worker: u64) {
        let held: Vec<usize> = self
            .leases
            .iter()
            .filter(|l| l.worker == worker)
            .map(|l| l.cell)
            .collect();
        self.leases.retain(|l| l.worker != worker);
        for ci in held {
            self.cells[ci].active_leases = self.cells[ci].active_leases.saturating_sub(1);
            self.ensure_dispatchable(ci);
        }
    }

    fn touch(&mut self, worker: u64, now: Instant) {
        if let Some(info) = self.workers.get_mut(&worker) {
            info.last_seen = now;
            info.alive = true;
        }
    }

    /// Records a heartbeat.
    pub fn heartbeat(&mut self, worker: u64, now: Instant) {
        self.touch(worker, now);
    }

    /// Whether every cell is completed or quarantined.
    pub fn is_complete(&self) -> bool {
        self.done + self.quarantined == self.cells.len()
    }

    /// Completed-cell count (progress probes).
    pub fn cells_done(&self) -> usize {
        self.done
    }

    /// Strikes `cell` on behalf of `worker` (death or failure). Either
    /// quarantines the cell (returned for the failure sink) or makes
    /// sure it is re-dispatched.
    fn strike(&mut self, ci: usize, worker: u64, reason: &str) -> Option<(CellSpec, String)> {
        let threshold = self.opts.poison_threshold;
        let entry = &mut self.cells[ci];
        if matches!(entry.state, CellState::Done | CellState::Quarantined) {
            return None;
        }
        entry.strikes.insert(worker);
        if entry.strikes.len() >= threshold {
            entry.state = CellState::Quarantined;
            let spec = entry.spec.clone();
            let error = format!(
                "cell quarantined as poison: struck {} distinct workers (last: {reason})",
                entry.strikes.len()
            );
            entry.active_leases = 0;
            self.quarantined += 1;
            self.leases.retain(|l| l.cell != ci);
            if self.cells[ci].mismatch_since.is_some() {
                let workers = self.cells[ci].candidates.iter().map(|c| c.worker).collect();
                self.record_incident(ci, workers, Vec::new(), false);
            }
            return Some((spec, error));
        }
        if entry.active_leases == 0 && entry.state != CellState::Pending {
            entry.state = CellState::Pending;
            self.pending.push_front(ci);
            self.redispatched += 1;
        }
        None
    }

    /// Declares a worker dead: its leases strike their cells and are
    /// re-enqueued (or quarantined — returned for the failure sink).
    fn kill_worker(&mut self, worker: u64, reason: &str) -> Vec<(CellSpec, String)> {
        let Some(info) = self.workers.get_mut(&worker) else {
            return Vec::new();
        };
        if !info.alive {
            return Vec::new();
        }
        info.alive = false;
        let held: Vec<usize> = self
            .leases
            .iter()
            .filter(|l| l.worker == worker)
            .map(|l| l.cell)
            .collect();
        if held.is_empty() {
            // A leaving worker with nothing in flight is a clean exit,
            // not a death.
            return Vec::new();
        }
        self.worker_deaths += 1;
        self.leases.retain(|l| l.worker != worker);
        let mut quarantines = Vec::new();
        for ci in held {
            self.cells[ci].active_leases = self.cells[ci].active_leases.saturating_sub(1);
            if let Some(q) = self.strike(ci, worker, reason) {
                quarantines.push(q);
            }
        }
        quarantines
    }

    /// Handles a closed or corrupted worker connection.
    pub fn disconnect(&mut self, worker: u64) -> Vec<(CellSpec, String)> {
        self.kill_worker(worker, "connection lost")
    }

    /// Applies the timeouts: silent workers die, expired leases are
    /// revoked and their cells re-enqueued. Returns fresh quarantines.
    pub fn reap(&mut self, now: Instant) -> Vec<(CellSpec, String)> {
        let silent: Vec<u64> = self
            .workers
            .iter()
            .filter(|(_, info)| {
                info.alive && now.duration_since(info.last_seen) > self.opts.heartbeat_timeout
            })
            .map(|(&id, _)| id)
            .collect();
        let mut quarantines = Vec::new();
        for w in silent {
            quarantines.extend(self.kill_worker(w, "heartbeat timeout"));
        }
        // Deadline re-dispatch: revoke expired leases against the
        // deadline fixed when each lease was granted — an estimate
        // that moved since never retro-extends an already-expired
        // lease. The straggler may still deliver; if its result is
        // valid the revocation is counted as a false positive.
        let expired: Vec<usize> = self
            .leases
            .iter()
            .enumerate()
            .filter(|(_, l)| now >= l.deadline)
            .map(|(i, _)| i)
            .collect();
        for i in expired.into_iter().rev() {
            let lease = self.leases.swap_remove(i);
            self.revoked.insert(
                (self.cells[lease.cell].spec.digest, lease.worker),
                lease.deadline.duration_since(lease.since),
            );
            let entry = &mut self.cells[lease.cell];
            entry.active_leases = entry.active_leases.saturating_sub(1);
            if entry.state == CellState::Leased && entry.active_leases == 0 {
                entry.state = CellState::Pending;
                self.pending.push_back(lease.cell);
                self.redispatched += 1;
            }
        }
        // A mismatched spot-check needs a worker that has not yet
        // weighed in to tiebreak it. If no such worker exists and none
        // has shown up within the fixed lease window, the conflict is
        // undecidable (e.g. a 1-vs-1 fleet) — quarantine instead of
        // wedging the run.
        let stuck: Vec<usize> = (0..self.cells.len())
            .filter(|&ci| {
                let entry = &self.cells[ci];
                !matches!(entry.state, CellState::Done | CellState::Quarantined)
                    && entry.candidates.len() >= 2
                    && entry
                        .mismatch_since
                        .is_some_and(|t| now.duration_since(t) >= self.opts.lease_timeout)
                    && !self.eligible_verifier_exists(ci)
            })
            .collect();
        for ci in stuck {
            quarantines.push(self.quarantine_unresolved(ci));
        }
        quarantines
    }

    /// Quarantines a spot-checked cell whose candidate conflict cannot
    /// be resolved, recording the incident as unresolved.
    fn quarantine_unresolved(&mut self, ci: usize) -> (CellSpec, String) {
        let entry = &mut self.cells[ci];
        let workers: Vec<u64> = entry.candidates.iter().map(|c| c.worker).collect();
        entry.state = CellState::Quarantined;
        entry.active_leases = 0;
        self.quarantined += 1;
        self.leases.retain(|l| l.cell != ci);
        let spec = self.cells[ci].spec.clone();
        let error = format!(
            "spot-check mismatch unresolved: {} distinct result bodies from workers {workers:?}, no eligible tiebreak worker",
            self.cells[ci].candidates.len()
        );
        self.record_incident(ci, workers, Vec::new(), false);
        (spec, error)
    }

    /// Records contested cell `ci`'s one incident as it settles:
    /// `workers` submitted bodies, `byzantine` lost the vote (empty when
    /// unresolved), and every contestant purged by a ban elsewhere is
    /// named in both.
    fn record_incident(
        &mut self,
        ci: usize,
        mut workers: Vec<u64>,
        mut byzantine: Vec<u64>,
        resolved: bool,
    ) {
        let entry = &mut self.cells[ci];
        entry.mismatch_since = None;
        for w in std::mem::take(&mut entry.purged) {
            if !workers.contains(&w) {
                workers.push(w);
            }
            byzantine.push(w);
        }
        let spec = &entry.spec;
        self.incidents.push(MismatchIncident {
            digest: spec.digest,
            bench: spec.bench.clone(),
            config: spec.config.clone(),
            width: spec.width,
            workers,
            byzantine,
            resolved,
        });
    }

    /// Grants `worker` a lease on `ci`, with the deadline fixed now.
    fn grant(&mut self, ci: usize, worker: u64, now: Instant) -> Assignment {
        let timeout = self.cell_timeout(ci);
        self.cells[ci].state = CellState::Leased;
        self.cells[ci].active_leases += 1;
        self.leases.push(Lease {
            cell: ci,
            worker,
            since: now,
            deadline: now + timeout,
        });
        Assignment::Cell(self.cells[ci].spec.clone())
    }

    /// Answers a worker's work request: the next pending cell it is
    /// eligible for, a straggler duplicate to steal, or idle/done.
    pub fn next_assignment(&mut self, worker: u64, now: Instant) -> Assignment {
        self.touch(worker, now);
        if self.is_banned(worker) {
            // A byzantine worker is drained from the run: telling it
            // the grid is done makes it exit cleanly, and a reconnect
            // under the same identity lands right back here.
            return Assignment::AllDone;
        }
        if self.is_complete() {
            return Assignment::AllDone;
        }
        // The next pending cell this worker may take — it must not
        // confirm its own spot-check candidate, so cells it already
        // submitted a body for are skipped (preserving their order).
        let mut skipped: Vec<usize> = Vec::new();
        let mut chosen: Option<usize> = None;
        while let Some(ci) = self.pending.pop_front() {
            if self.cells[ci].state != CellState::Pending {
                continue; // stale queue entry (completed or quarantined meanwhile)
            }
            if self.cells[ci].verifiers.contains(&worker) {
                skipped.push(ci);
                continue;
            }
            chosen = Some(ci);
            break;
        }
        for ci in skipped.into_iter().rev() {
            self.pending.push_front(ci);
        }
        // Liveness fallback: if this worker is the whole fleet,
        // insisting on a distinct confirmer would wedge the run — let
        // it re-compute its own cell (degenerate self-confirmation;
        // mismatched cells still refuse to resolve this way).
        if chosen.is_none() && !self.other_live_worker(worker) {
            if let Some(pos) = self
                .pending
                .iter()
                .position(|&ci| self.cells[ci].state == CellState::Pending)
            {
                chosen = self.pending.remove(pos);
            }
        }
        if let Some(ci) = chosen {
            return self.grant(ci, worker, now);
        }
        // Straggler re-dispatch: duplicate the oldest single-leased
        // cell another worker has been sitting on for more than half
        // its lease deadline. First valid result wins; the duplicate
        // is capped at two leases so a slow grid tail cannot stampede.
        let candidate = self
            .leases
            .iter()
            .filter(|l| {
                l.worker != worker
                    && self.cells[l.cell].state == CellState::Leased
                    && self.cells[l.cell].active_leases == 1
                    && !self.cells[l.cell].verifiers.contains(&worker)
                    && now >= l.since + l.deadline.duration_since(l.since) / 2
            })
            .min_by_key(|l| l.since)
            .map(|l| l.cell);
        if let Some(ci) = candidate {
            self.redispatched += 1;
            return self.grant(ci, worker, now);
        }
        Assignment::Idle {
            wait_ms: self.opts.idle_wait_ms,
        }
    }

    /// Ingests one submitted result: validate, dedup by digest, merge
    /// the first valid body per cell — unless the cell is spot-checked,
    /// in which case the body is held until a distinct worker confirms
    /// the same canonical bytes.
    pub fn submit_result(
        &mut self,
        worker: u64,
        digest: u64,
        seconds: f64,
        body: &[u8],
        now: Instant,
    ) -> Ingest {
        self.touch(worker, now);
        let Some(&ci) = self.by_digest.get(&digest) else {
            return Ingest::Unknown;
        };
        // This worker's lease (if any) is settled by this submission.
        if let Some(i) = self
            .leases
            .iter()
            .position(|l| l.cell == ci && l.worker == worker)
        {
            self.leases.swap_remove(i);
            self.cells[ci].active_leases = self.cells[ci].active_leases.saturating_sub(1);
        }
        let valid = validate_body(&self.cells[ci].spec, body);
        if let Some(allotted) = self.revoked.remove(&(digest, worker)) {
            if valid.is_ok() && Duration::from_secs_f64(seconds.max(0.0)) >= allotted {
                // The worker delivered a valid result whose compute
                // time filled its revoked lease: the deadline really
                // was too tight for this cell.
                self.revocation_false_positives += 1;
            }
        }
        if matches!(
            self.cells[ci].state,
            CellState::Done | CellState::Quarantined
        ) {
            self.duplicate_results += 1;
            return Ingest::Duplicate;
        }
        let result = match valid {
            Ok(result) => result,
            Err(reason) => {
                self.corrupt_results += 1;
                return match self.strike(ci, worker, &reason) {
                    Some((spec, error)) => Ingest::Quarantined { spec, error },
                    None => Ingest::Rejected { reason },
                };
            }
        };
        self.estimator.observe(&self.cells[ci].spec.bench, seconds);
        if self.is_banned(worker) {
            // No trust left: the body is discarded outright; the cell
            // stays dispatchable for workers in good standing.
            self.duplicate_results += 1;
            self.ensure_dispatchable(ci);
            return Ingest::Duplicate;
        }
        let suspect = self.workers.get(&worker).is_some_and(|i| i.suspect);
        if !self.cells[ci].spot_check && !suspect {
            return self.complete_cell(ci, worker, result, seconds);
        }
        // A suspect's first result escalates the cell to spot-checked:
        // its trust is on hold, so the bytes need a confirmer.
        self.cells[ci].spot_check = true;
        self.verify_candidate(ci, worker, seconds, body, result, now)
    }

    /// Merges `ci` as done, crediting `worker` with the completion and
    /// `seconds` toward the serial-cost ledger.
    fn complete_cell(&mut self, ci: usize, worker: u64, result: SimResult, seconds: f64) -> Ingest {
        self.cells[ci].state = CellState::Done;
        self.done += 1;
        // Any other outstanding leases on this cell are now moot;
        // their late results will dedup as duplicates.
        self.leases.retain(|l| l.cell != ci);
        self.cells[ci].active_leases = 0;
        self.compute_seconds += seconds;
        if let Some(info) = self.workers.get_mut(&worker) {
            info.completed += 1;
        }
        Ingest::Merged {
            spec: self.cells[ci].spec.clone(),
            result,
            seconds,
        }
    }

    /// The spot-check state machine for one valid submission on a
    /// spot-checked cell.
    fn verify_candidate(
        &mut self,
        ci: usize,
        worker: u64,
        seconds: f64,
        body: &[u8],
        result: SimResult,
        now: Instant,
    ) -> Ingest {
        // Re-submission by a worker whose body is already on file?
        if let Some(prev) = self.cells[ci]
            .candidates
            .iter()
            .position(|c| c.worker == worker)
        {
            if self.cells[ci].candidates[prev].body != body {
                // Two different bodies for the same digest from one
                // worker: it is broken regardless of which (if either)
                // is right.
                self.corrupt_results += 1;
                let reason = "self-contradictory results for a spot-checked cell".to_string();
                return match self.strike(ci, worker, &reason) {
                    Some((spec, error)) => Ingest::Quarantined { spec, error },
                    None => {
                        self.ensure_dispatchable(ci);
                        Ingest::Rejected { reason }
                    }
                };
            }
            // Identical re-submission adds no information — unless no
            // distinct confirmer can ever exist (single-worker fleet),
            // where a degenerate self-confirmation beats wedging. A
            // *mismatched* cell never resolves this way: one worker
            // must not outvote another by repeating itself.
            if self.cells[ci].candidates.len() == 1 && !self.eligible_verifier_exists(ci) {
                return self.resolve_consensus(ci, prev, worker, result, now);
            }
            self.ensure_dispatchable(ci);
            return Ingest::HeldForVerification;
        }
        // Agreement with a held candidate: two distinct workers
        // reproduced the same canonical bytes — consensus.
        if let Some(winner) = self.cells[ci]
            .candidates
            .iter()
            .position(|c| c.body == body)
        {
            self.cells[ci].verifiers.insert(worker);
            return self.resolve_consensus(ci, winner, worker, result, now);
        }
        // A new, disagreeing (or first) candidate body.
        self.cells[ci].candidates.push(Candidate {
            worker,
            body: body.to_vec(),
            seconds,
        });
        self.cells[ci].verifiers.insert(worker);
        if self.cells[ci].candidates.len() == 1 {
            self.ensure_dispatchable(ci);
            return Ingest::HeldForVerification;
        }
        // Two or more distinct bodies: a byzantine incident. Every
        // candidate's pending trust is quarantined until the tiebreak
        // settles who was wrong.
        if self.cells[ci].mismatch_since.is_none() {
            self.cells[ci].mismatch_since = Some(now);
            self.mismatches += 1;
        }
        let suspects: Vec<u64> = self.cells[ci].candidates.iter().map(|c| c.worker).collect();
        for w in suspects {
            self.mark_suspect(w);
        }
        if self.cells[ci].candidates.len() >= MAX_CANDIDATES {
            let (spec, error) = self.quarantine_unresolved(ci);
            return Ingest::Quarantined { spec, error };
        }
        self.ensure_dispatchable(ci);
        Ingest::HeldForVerification
    }

    /// Settles a spot-checked cell on the candidate at `winner`:
    /// agreeing workers are exonerated, every minority candidate's
    /// worker is marked byzantine, and the cell merges with the first
    /// submitter credited.
    fn resolve_consensus(
        &mut self,
        ci: usize,
        winner: usize,
        confirmer: u64,
        result: SimResult,
        _now: Instant,
    ) -> Ingest {
        let candidates = std::mem::take(&mut self.cells[ci].candidates);
        let submitters: Vec<u64> = candidates.iter().map(|c| c.worker).collect();
        let winning_worker = candidates[winner].worker;
        let winning_seconds = candidates[winner].seconds;
        let minority: Vec<u64> = candidates
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != winner)
            .map(|(_, c)| c.worker)
            .collect();
        for &w in &[winning_worker, confirmer] {
            if let Some(info) = self.workers.get_mut(&w) {
                info.suspect = false;
            }
        }
        // Two distinct bodies on file set the mismatch clock, so a
        // minority implies a contested cell.
        if self.cells[ci].mismatch_since.is_some() {
            let mut workers = submitters;
            if !workers.contains(&confirmer) {
                workers.push(confirmer);
            }
            self.record_incident(ci, workers, minority.clone(), true);
        }
        for w in minority {
            self.mark_byzantine(w);
        }
        self.spot_checked += 1;
        // The serial-cost ledger counts the winning computation once;
        // the confirming duplicate is verification overhead, not
        // avoided serial work.
        self.complete_cell(ci, winning_worker, result, winning_seconds)
    }

    /// Ingests a worker-reported failure (contained panic, digest
    /// mismatch, trace generation error).
    pub fn submit_failure(
        &mut self,
        worker: u64,
        digest: u64,
        error: &str,
        now: Instant,
    ) -> Ingest {
        self.touch(worker, now);
        let Some(&ci) = self.by_digest.get(&digest) else {
            return Ingest::Unknown;
        };
        if let Some(i) = self
            .leases
            .iter()
            .position(|l| l.cell == ci && l.worker == worker)
        {
            self.leases.swap_remove(i);
            self.cells[ci].active_leases = self.cells[ci].active_leases.saturating_sub(1);
        }
        if matches!(
            self.cells[ci].state,
            CellState::Done | CellState::Quarantined
        ) {
            return Ingest::Duplicate;
        }
        if self.is_banned(worker) {
            // A byzantine worker must not be able to strike cells
            // toward quarantine by spamming failure reports.
            self.ensure_dispatchable(ci);
            return Ingest::Duplicate;
        }
        match self.strike(ci, worker, error) {
            Some((spec, error)) => Ingest::Quarantined { spec, error },
            None => Ingest::Recorded,
        }
    }

    /// The run's counters as a report; `wall_seconds` comes from the
    /// caller (the scheduler has no clock of its own).
    pub fn report(&self, wall_seconds: f64) -> DistReport {
        let mut workers: Vec<WorkerReport> = self
            .workers
            .iter()
            .map(|(&id, info)| WorkerReport {
                id,
                cells: info.completed,
                alive: info.alive,
                byzantine: info.banned,
            })
            .collect();
        workers.sort_by_key(|w| w.id);
        DistReport {
            cells_total: self.cells.len(),
            cells_completed: self.done,
            cells_quarantined: self.quarantined,
            redispatched: self.redispatched,
            duplicate_results: self.duplicate_results,
            corrupt_results: self.corrupt_results,
            worker_deaths: self.worker_deaths,
            spot_checked: self.spot_checked,
            mismatches: self.mismatches,
            byzantine_workers: self.byzantine.clone(),
            revocation_false_positives: self.revocation_false_positives,
            adaptive_lease: self.opts.adaptive_lease,
            lease_stats: self.estimator.stats(
                self.opts.lease_timeout,
                self.opts.lease_floor,
                self.opts.adaptive_lease,
            ),
            incidents: self.incidents.clone(),
            workers,
            compute_seconds: self.compute_seconds,
            wall_seconds,
        }
    }
}

/// Merge sinks the coordinator calls as cells settle. `on_result`
/// receives each cell's first valid result exactly once, in completion
/// order; `on_quarantine` receives each poisoned cell exactly once.
pub struct DistSinks<'a> {
    /// Called with (cell, validated result, worker-reported seconds).
    pub on_result: &'a (dyn Fn(&CellSpec, &SimResult, f64) + Sync),
    /// Called with (cell, quarantine reason).
    pub on_quarantine: &'a (dyn Fn(&CellSpec, &str) + Sync),
}

/// What the monitor and the connection handlers share: the scheduler
/// behind one lock, and two conditions on that lock.
struct Shared {
    sched: Mutex<Scheduler>,
    /// Notified when the grid completes. The monitor waits on it, with
    /// [`REAP_EVERY`] as the timeout.
    complete: Condvar,
    /// Notified when a cell may have become dispatchable (a result or
    /// failure was ingested, timeouts were reaped, a worker
    /// disconnected) or the grid completed. Held idle requests wait on
    /// it, with what is left of their hold as the timeout.
    dispatchable: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Scheduler> {
        self.sched.lock().expect("scheduler poisoned")
    }

    /// Releases the scheduler after a change that may have made a cell
    /// dispatchable: wakes held requests, and the monitor too once the
    /// grid is complete.
    fn release(&self, sched: MutexGuard<'_, Scheduler>) {
        let complete = sched.is_complete();
        drop(sched);
        self.dispatchable.notify_all();
        if complete {
            self.complete.notify_all();
        }
    }

    /// Answers `worker`'s work request. When the scheduler has nothing
    /// for it, the request is held, up to the `Idle` answer's
    /// `wait_ms`, and asked again each time `dispatchable` is notified;
    /// the wait releases the lock. A hold that finds nothing answers
    /// `Idle { wait_ms: 0 }`: the coordinator has already waited.
    fn next_assignment(&self, worker: u64, now: Instant) -> Assignment {
        let mut sched = self.lock();
        let hold = match sched.next_assignment(worker, now) {
            Assignment::Idle { wait_ms } => Duration::from_millis(u64::from(wait_ms)),
            assignment => return assignment,
        };
        loop {
            let waited = now.elapsed();
            if waited >= hold {
                return Assignment::Idle { wait_ms: 0 };
            }
            sched = self
                .dispatchable
                .wait_timeout(sched, hold - waited)
                .expect("scheduler poisoned")
                .0;
            match sched.next_assignment(worker, Instant::now()) {
                Assignment::Idle { .. } => {}
                assignment => return assignment,
            }
        }
    }
}

/// The TCP face of the [`Scheduler`]: accepts worker connections,
/// answers the dist protocol, reaps timeouts on a timer, and returns
/// when the grid is complete.
pub struct Coordinator {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Shared,
}

impl Coordinator {
    /// Binds the coordinator (pass port 0 for an ephemeral port; read
    /// it back with [`Coordinator::local_addr`]).
    pub fn bind(addr: &str, cells: Vec<CellSpec>, opts: SchedOptions) -> io::Result<Coordinator> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Coordinator {
            listener,
            addr,
            shared: Shared {
                sched: Mutex::new(Scheduler::new(cells, opts)),
                complete: Condvar::new(),
                dispatchable: Condvar::new(),
            },
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves workers until every cell is completed or quarantined,
    /// then returns the run report. Blocks; sinks are invoked from
    /// connection-handler threads as cells settle.
    pub fn run(self, sinks: &DistSinks<'_>) -> DistReport {
        let t0 = Instant::now();
        let stop = AtomicBool::new(false);
        let shared = &self.shared;
        let addr = self.addr;
        std::thread::scope(|s| {
            // Reaper + completion monitor: applies the timeouts every
            // REAP_EVERY, sinks any quarantines, and unblocks the accept
            // loop when the grid is complete. It checks completion and
            // enters the wait under one lock hold, so the notification
            // of the change that completes the grid cannot slip between
            // the two.
            s.spawn(|| {
                let mut sched = shared.lock();
                loop {
                    let quarantines = sched.reap(Instant::now());
                    shared.dispatchable.notify_all();
                    if !quarantines.is_empty() {
                        drop(sched);
                        for (spec, why) in &quarantines {
                            (sinks.on_quarantine)(spec, why);
                        }
                        sched = shared.lock();
                    }
                    if sched.is_complete() {
                        break;
                    }
                    sched = shared
                        .complete
                        .wait_timeout(sched, REAP_EVERY)
                        .expect("scheduler poisoned")
                        .0;
                }
                drop(sched);
                stop.store(true, Ordering::SeqCst);
                let _ = TcpStream::connect(addr); // unblock accept
            });
            for stream in self.listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                s.spawn(|| handle_conn(stream, shared, sinks));
            }
        });
        let sched = shared.lock();
        sched.report(t0.elapsed().as_secs_f64())
    }
}

/// One worker connection: a strict request/response loop (heartbeats
/// are one-way). A request the scheduler has nothing for is held (see
/// [`Shared::next_assignment`]). Read timeouts double as a completion
/// poll so handler threads always exit shortly after the grid finishes,
/// even if their worker hangs mid-cell.
fn handle_conn(stream: TcpStream, shared: &Shared, sinks: &DistSinks<'_>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    // Writes must be bounded too: a peer (or an interposed proxy)
    // that stops draining would otherwise wedge this handler in a
    // blocked `write` forever — and `run`'s thread scope with it.
    // A timed-out write errors into the `disconnect` path below, so
    // the worker is treated as lost and its leases re-dispatch.
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let mut worker_id = 0u64;
    let mut quiet_ticks = 0u32;
    loop {
        let msg = match read_worker_msg(&mut reader) {
            Ok(Some(msg)) => Some(msg),
            Ok(None) => break, // clean close
            Err(WireError::Io(e))
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                None
            }
            Err(_) => {
                // Corrupt frame or transport error: the checksummed
                // framing can no longer be trusted — treat the worker
                // as lost so its leases re-dispatch.
                disconnect(shared, sinks, worker_id);
                return;
            }
        };
        // Once the grid is complete, a poll window without a frame is
        // quiet, and so is a heartbeat: a worker whose answer was lost
        // heartbeats on and must not hold this handler, and `run` with
        // it, open. Give it a few windows to come back for its AllDone,
        // then hang up.
        let active = matches!(&msg, Some(m) if !matches!(m, WorkerMsg::Heartbeat { .. }));
        if !active && shared.lock().is_complete() {
            quiet_ticks += 1;
            if quiet_ticks > 10 {
                break;
            }
        } else {
            quiet_ticks = 0;
        }
        let Some(msg) = msg else { continue };
        let now = Instant::now();
        let reply = match msg {
            WorkerMsg::Hello {
                worker_id: want, ..
            } => {
                let id = shared.lock().register(want, now);
                worker_id = id;
                Some(CoordMsg::Welcome { worker_id: id })
            }
            WorkerMsg::Heartbeat { worker_id: w } => {
                shared.lock().heartbeat(w, now);
                None
            }
            WorkerMsg::Request { worker_id: w } => Some(match shared.next_assignment(w, now) {
                Assignment::Cell(spec) => CoordMsg::Assign(spec),
                Assignment::Idle { wait_ms } => CoordMsg::Idle { wait_ms },
                Assignment::AllDone => CoordMsg::AllDone,
            }),
            WorkerMsg::Result {
                worker_id: w,
                digest,
                seconds_bits,
                body,
            } => {
                let mut sched = shared.lock();
                let ingest =
                    sched.submit_result(w, digest, f64::from_bits(seconds_bits), &body, now);
                shared.release(sched);
                settle(sinks, ingest);
                Some(CoordMsg::Ack)
            }
            WorkerMsg::Failed {
                worker_id: w,
                digest,
                error,
            } => {
                let mut sched = shared.lock();
                let ingest = sched.submit_failure(w, digest, &error, now);
                shared.release(sched);
                settle(sinks, ingest);
                Some(CoordMsg::Ack)
            }
        };
        if let Some(reply) = reply {
            if write_coord_msg(&mut writer, &reply)
                .and_then(|()| writer.flush())
                .is_err()
            {
                // Flushing the failed answer again on drop would block
                // on the same peer for another write timeout.
                drop(writer.into_parts());
                disconnect(shared, sinks, worker_id);
                return;
            }
        }
    }
    disconnect(shared, sinks, worker_id);
}

/// Runs the sinks for one settled ingest, outside the scheduler lock.
fn settle(sinks: &DistSinks<'_>, ingest: Ingest) {
    match ingest {
        Ingest::Merged {
            spec,
            result,
            seconds,
        } => (sinks.on_result)(&spec, &result, seconds),
        Ingest::Quarantined { spec, error } => (sinks.on_quarantine)(&spec, &error),
        Ingest::Duplicate
        | Ingest::Rejected { .. }
        | Ingest::Recorded
        | Ingest::HeldForVerification
        | Ingest::Unknown => {}
    }
}

fn disconnect(shared: &Shared, sinks: &DistSinks<'_>, worker_id: u64) {
    if worker_id == 0 {
        return;
    }
    let mut sched = shared.lock();
    let quarantines = sched.disconnect(worker_id);
    shared.release(sched);
    for (spec, why) in &quarantines {
        (sinks.on_quarantine)(spec, why);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddsc_core::SimConfig;
    use ddsc_experiments::cell::parse_config;

    fn spec(digest: u64) -> CellSpec {
        CellSpec {
            bench: "compress".into(),
            config: "A".into(),
            width: 4,
            trace_len: 1000,
            seed: 1996,
            digest,
        }
    }

    fn opts() -> SchedOptions {
        SchedOptions {
            lease_timeout: Duration::from_millis(100),
            heartbeat_timeout: Duration::from_millis(50),
            poison_threshold: 2,
            idle_wait_ms: 5,
            adaptive_lease: false,
            ..SchedOptions::default()
        }
    }

    /// A valid canonical body for `spec` with the given cycle count
    /// (all other counters zero) — enough to pass ingest validation.
    fn body_for(spec: &CellSpec, cycles: u64) -> Vec<u8> {
        let result = SimResult {
            config: SimConfig::paper(parse_config(&spec.config).unwrap(), spec.width),
            instructions: spec.trace_len,
            cycles,
            loads: Default::default(),
            values: Default::default(),
            branches: Default::default(),
            stalls: Default::default(),
            collapse: Default::default(),
            eliminated: 0,
        };
        let mut out = Vec::new();
        result.encode_to(&mut out);
        out
    }

    #[test]
    fn cells_dispatch_in_order_and_complete() {
        let mut s = Scheduler::new(vec![spec(1), spec(2)], opts());
        let t = Instant::now();
        let w = s.register(0, t);
        let Assignment::Cell(c1) = s.next_assignment(w, t) else {
            panic!("expected a cell");
        };
        assert_eq!(c1.digest, 1);
        assert!(!s.is_complete());
        // An unknown digest is not merged.
        assert!(matches!(
            s.submit_result(w, 999, 0.0, &[], t),
            Ingest::Unknown
        ));
    }

    #[test]
    fn dead_worker_cells_requeue_and_poison_quarantines() {
        let mut s = Scheduler::new(vec![spec(1)], opts());
        let t = Instant::now();
        let w1 = s.register(0, t);
        assert!(matches!(s.next_assignment(w1, t), Assignment::Cell(_)));
        // First death: requeued, not quarantined.
        assert!(s.disconnect(w1).is_empty());
        let w2 = s.register(0, t);
        assert!(matches!(s.next_assignment(w2, t), Assignment::Cell(_)));
        // Second distinct death crosses poison_threshold 2.
        let quarantined = s.disconnect(w2);
        assert_eq!(quarantined.len(), 1);
        assert!(s.is_complete());
        let report = s.report(1.0);
        assert_eq!(report.cells_quarantined, 1);
        assert_eq!(report.worker_deaths, 2);
    }

    #[test]
    fn heartbeat_timeout_reaps_silent_workers() {
        let mut s = Scheduler::new(vec![spec(1)], opts());
        let t = Instant::now();
        let w = s.register(0, t);
        assert!(matches!(s.next_assignment(w, t), Assignment::Cell(_)));
        // Within the window: nothing happens.
        assert!(s.reap(t + Duration::from_millis(10)).is_empty());
        assert_eq!(s.report(0.0).worker_deaths, 0);
        // Past the window: the worker dies, the cell requeues.
        let _ = s.reap(t + Duration::from_millis(60));
        assert_eq!(s.report(0.0).worker_deaths, 1);
        let w2 = s.register(0, t + Duration::from_millis(61));
        assert!(matches!(
            s.next_assignment(w2, t + Duration::from_millis(61)),
            Assignment::Cell(_)
        ));
    }

    #[test]
    fn straggler_lease_is_stolen_once() {
        let mut s = Scheduler::new(vec![spec(1)], opts());
        let t = Instant::now();
        let w1 = s.register(0, t);
        let w2 = s.register(0, t);
        assert!(matches!(s.next_assignment(w1, t), Assignment::Cell(_)));
        // Too early to steal.
        let early = t + Duration::from_millis(10);
        s.heartbeat(w1, early);
        assert!(matches!(
            s.next_assignment(w2, early),
            Assignment::Idle { .. }
        ));
        // Past half the lease timeout: the idle worker duplicates it.
        let late = t + Duration::from_millis(60);
        s.heartbeat(w1, late);
        assert!(matches!(s.next_assignment(w2, late), Assignment::Cell(_)));
        // Both leases outstanding; a third worker cannot triple it.
        let w3 = s.register(0, late);
        assert!(matches!(
            s.next_assignment(w3, late),
            Assignment::Idle { .. }
        ));
        assert_eq!(s.report(0.0).redispatched, 1);
    }

    #[test]
    fn corrupt_results_are_rejected_and_requeued() {
        let mut s = Scheduler::new(vec![spec(1)], opts());
        let t = Instant::now();
        let w = s.register(0, t);
        let Assignment::Cell(c) = s.next_assignment(w, t) else {
            panic!("expected a cell");
        };
        let ingest = s.submit_result(w, c.digest, 0.1, b"garbage", t);
        assert!(matches!(ingest, Ingest::Rejected { .. }));
        assert!(!s.is_complete());
        // The cell is immediately dispatchable again.
        let w2 = s.register(0, t);
        assert!(matches!(s.next_assignment(w2, t), Assignment::Cell(_)));
        assert_eq!(s.report(0.0).corrupt_results, 1);
    }

    #[test]
    fn report_json_shape() {
        let s = Scheduler::new(vec![spec(1)], opts());
        let json = s.report(2.0).to_json();
        for key in [
            "\"schema\": \"ddsc-dist-bench-v2\"",
            "\"cells_total\"",
            "\"redispatched\"",
            "\"speedup_vs_serial\"",
            "\"workers\"",
            "\"spot_checked\"",
            "\"mismatches\"",
            "\"byzantine_workers\"",
            "\"revocation_false_positives\"",
            "\"adaptive_lease\"",
            "\"lease_stats\"",
            "\"incidents\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    fn spot_opts() -> SchedOptions {
        SchedOptions {
            spot_check_percent: 100,
            ..opts()
        }
    }

    #[test]
    fn spot_checked_cell_waits_for_a_distinct_confirmer() {
        let mut s = Scheduler::new(vec![spec(1)], spot_opts());
        let t = Instant::now();
        let w1 = s.register(0, t);
        let w2 = s.register(0, t);
        let Assignment::Cell(c) = s.next_assignment(w1, t) else {
            panic!("expected a cell");
        };
        let body = body_for(&c, 300);
        assert!(matches!(
            s.submit_result(w1, c.digest, 0.1, &body, t),
            Ingest::HeldForVerification
        ));
        assert!(!s.is_complete());
        // The submitter must not confirm its own candidate.
        assert!(matches!(s.next_assignment(w1, t), Assignment::Idle { .. }));
        // A distinct worker gets the re-dispatch and its agreeing
        // bytes merge the cell.
        assert!(matches!(s.next_assignment(w2, t), Assignment::Cell(_)));
        assert!(matches!(
            s.submit_result(w2, c.digest, 0.1, &body, t),
            Ingest::Merged { .. }
        ));
        assert!(s.is_complete());
        let report = s.report(1.0);
        assert_eq!(report.spot_checked, 1);
        assert_eq!(report.mismatches, 0);
        assert!(report.byzantine_workers.is_empty());
        // Only the winning computation counts toward the serial ledger.
        assert!((report.compute_seconds - 0.1).abs() < 1e-9);
    }

    #[test]
    fn mismatch_tiebreak_bans_the_minority_worker() {
        let mut s = Scheduler::new(vec![spec(1), spec(2)], spot_opts());
        let t = Instant::now();
        let byz = s.register(0, t);
        let w2 = s.register(0, t);
        let w3 = s.register(0, t);
        let Assignment::Cell(c) = s.next_assignment(byz, t) else {
            panic!("expected a cell");
        };
        let honest = body_for(&c, 300);
        let perturbed = body_for(&c, 333); // well-formed, wrong counters
        assert!(matches!(
            s.submit_result(byz, c.digest, 0.1, &perturbed, t),
            Ingest::HeldForVerification
        ));
        // The honest worker disagrees: mismatch, both suspect.
        assert!(matches!(s.next_assignment(w2, t), Assignment::Cell(_)));
        assert!(matches!(
            s.submit_result(w2, c.digest, 0.1, &honest, t),
            Ingest::HeldForVerification
        ));
        assert_eq!(s.report(0.0).mismatches, 1);
        // The tiebreak worker sides with the honest bytes.
        let Assignment::Cell(c3) = s.next_assignment(w3, t) else {
            panic!("expected the tiebreak re-dispatch");
        };
        assert_eq!(c3.digest, c.digest);
        let Ingest::Merged { result, .. } = s.submit_result(w3, c.digest, 0.1, &honest, t) else {
            panic!("consensus must merge");
        };
        assert_eq!(result.cycles, 300, "the majority bytes must win");
        let report = s.report(1.0);
        assert_eq!(report.byzantine_workers, vec![byz]);
        assert_eq!(report.incidents.len(), 1);
        assert!(report.incidents[0].resolved);
        assert_eq!(report.incidents[0].byzantine, vec![byz]);
        // The banned worker is drained: refused work, its results
        // discarded, its reconnect still banned.
        assert!(matches!(s.next_assignment(byz, t), Assignment::AllDone));
        assert_eq!(s.register(byz, t), byz);
        assert!(s.is_banned(byz));
        let Assignment::Cell(c2) = s.next_assignment(w2, t) else {
            panic!("expected the second cell");
        };
        assert!(matches!(
            s.submit_result(byz, c2.digest, 0.1, &body_for(&c2, 333), t),
            Ingest::Duplicate
        ));
        assert!(!s.is_complete());
    }

    #[test]
    fn a_purged_contest_still_records_its_incident() {
        // The liar contests two spot-checked cells and loses the first
        // tiebreak. Its ban purges its candidate from the second cell,
        // which must still settle with one incident naming it.
        let mut s = Scheduler::new(vec![spec(1), spec(2)], spot_opts());
        let t = Instant::now();
        let liar = s.register(0, t);
        let honest = s.register(0, t);
        let tiebreak = s.register(0, t);
        let submit = |s: &mut Scheduler, worker: u64, cycles: u64| {
            let Assignment::Cell(c) = s.next_assignment(worker, t) else {
                panic!("expected a cell for worker {worker}");
            };
            s.submit_result(worker, c.digest, 0.1, &body_for(&c, cycles), t)
        };
        for (worker, cycles) in [(liar, 333), (liar, 333), (honest, 300), (honest, 300)] {
            assert!(matches!(
                submit(&mut s, worker, cycles),
                Ingest::HeldForVerification
            ));
        }
        assert_eq!(
            s.report(0.0).mismatches,
            2,
            "one mismatch per contested cell"
        );
        // The first tiebreak bans the liar; the second cell now holds
        // only the honest candidate, which the tiebreak confirms.
        for _ in 0..2 {
            assert!(matches!(
                submit(&mut s, tiebreak, 300),
                Ingest::Merged { .. }
            ));
        }
        assert!(s.is_complete());
        let report = s.report(1.0);
        assert_eq!(report.byzantine_workers, vec![liar]);
        assert_eq!(report.mismatches, 2);
        assert_eq!(report.incidents.len(), 2);
        for incident in &report.incidents {
            assert!(incident.resolved);
            assert_eq!(incident.byzantine, vec![liar], "{incident:?}");
            assert!(incident.workers.contains(&liar), "{incident:?}");
        }
    }

    #[test]
    fn a_contested_cell_quarantined_as_poison_records_its_incident() {
        let mut s = Scheduler::new(vec![spec(1)], spot_opts());
        let t = Instant::now();
        let workers: Vec<u64> = (0..4).map(|_| s.register(0, t)).collect();
        for (&w, cycles) in workers[..2].iter().zip([300, 333]) {
            let Assignment::Cell(c) = s.next_assignment(w, t) else {
                panic!("expected a cell");
            };
            assert!(matches!(
                s.submit_result(w, c.digest, 0.1, &body_for(&c, cycles), t),
                Ingest::HeldForVerification
            ));
        }
        // Both tiebreak workers fail on the cell, which reaches the
        // poison threshold with its conflict undecided.
        let mut last = None;
        for &w in &workers[2..] {
            let Assignment::Cell(c) = s.next_assignment(w, t) else {
                panic!("expected the tiebreak re-dispatch");
            };
            last = Some(s.submit_failure(w, c.digest, "worker fault", t));
        }
        assert!(matches!(last, Some(Ingest::Quarantined { .. })));
        let report = s.report(1.0);
        assert_eq!(report.mismatches, 1);
        assert_eq!(report.incidents.len(), 1);
        assert!(!report.incidents[0].resolved);
        assert_eq!(report.incidents[0].workers, workers[..2]);
    }

    #[test]
    fn single_worker_fleet_self_confirms_instead_of_wedging() {
        let mut s = Scheduler::new(vec![spec(1)], spot_opts());
        let t = Instant::now();
        let w = s.register(0, t);
        let Assignment::Cell(c) = s.next_assignment(w, t) else {
            panic!("expected a cell");
        };
        let body = body_for(&c, 300);
        assert!(matches!(
            s.submit_result(w, c.digest, 0.1, &body, t),
            Ingest::HeldForVerification
        ));
        // Alone in the fleet: the liveness fallback re-assigns the
        // cell to the same worker, and its identical re-computation
        // resolves degenerately.
        let Assignment::Cell(c2) = s.next_assignment(w, t) else {
            panic!("expected the fallback re-dispatch");
        };
        assert_eq!(c2.digest, c.digest);
        assert!(matches!(
            s.submit_result(w, c.digest, 0.1, &body, t),
            Ingest::Merged { .. }
        ));
        assert!(s.is_complete());
    }

    #[test]
    fn unresolvable_one_vs_one_mismatch_quarantines() {
        let mut s = Scheduler::new(vec![spec(1)], spot_opts());
        let t = Instant::now();
        let w1 = s.register(0, t);
        let w2 = s.register(0, t);
        let Assignment::Cell(c) = s.next_assignment(w1, t) else {
            panic!("expected a cell");
        };
        assert!(matches!(
            s.submit_result(w1, c.digest, 0.1, &body_for(&c, 300), t),
            Ingest::HeldForVerification
        ));
        assert!(matches!(s.next_assignment(w2, t), Assignment::Cell(_)));
        assert!(matches!(
            s.submit_result(w2, c.digest, 0.1, &body_for(&c, 333), t),
            Ingest::HeldForVerification
        ));
        // No third worker exists: after the fixed lease window the
        // undecidable conflict quarantines instead of wedging.
        assert!(s.reap(t + Duration::from_millis(50)).is_empty());
        let quarantines = s.reap(t + Duration::from_millis(150));
        assert_eq!(quarantines.len(), 1);
        assert!(quarantines[0].1.contains("spot-check mismatch unresolved"));
        assert!(s.is_complete());
        let report = s.report(1.0);
        assert_eq!(report.cells_quarantined, 1);
        assert_eq!(report.incidents.len(), 1);
        assert!(!report.incidents[0].resolved);
        // Neither side can be banned on a 1-vs-1 vote.
        assert!(report.byzantine_workers.is_empty());
    }

    #[test]
    fn late_valid_result_after_revocation_counts_false_positive() {
        let mut s = Scheduler::new(vec![spec(1)], opts());
        let t = Instant::now();
        let w = s.register(0, t);
        let Assignment::Cell(c) = s.next_assignment(w, t) else {
            panic!("expected a cell");
        };
        // Past the (fixed) deadline the lease is revoked...
        s.heartbeat(w, t + Duration::from_millis(99));
        let _ = s.reap(t + Duration::from_millis(100));
        assert_eq!(s.report(0.0).redispatched, 1);
        // ...but the worker was alive all along and delivers: that
        // revocation was a false positive.
        let late = t + Duration::from_millis(110);
        assert!(matches!(
            s.submit_result(w, c.digest, 0.1, &body_for(&c, 300), late),
            Ingest::Merged { .. }
        ));
        assert_eq!(s.report(1.0).revocation_false_positives, 1);
    }

    #[test]
    fn adaptive_deadline_is_fixed_at_dispatch_time() {
        let mut s = Scheduler::new(
            (1..=8).map(spec).collect(),
            SchedOptions {
                adaptive_lease: true,
                lease_floor: Duration::from_millis(40),
                lease_timeout: Duration::from_millis(100),
                // Keep heartbeat reaping out of this test's way.
                heartbeat_timeout: Duration::from_secs(60),
                ..opts()
            },
        );
        let t = Instant::now();
        let w1 = s.register(0, t);
        let w2 = s.register(0, t);
        // Lease granted before any samples exist: fixed 100ms deadline.
        let Assignment::Cell(_c1) = s.next_assignment(w1, t) else {
            panic!("expected a cell");
        };
        // Feed the estimator fast samples so later leases get the
        // 40ms floor instead of the 100ms fallback.
        for _ in 0..6 {
            let Assignment::Cell(c) = s.next_assignment(w2, t) else {
                panic!("expected a cell");
            };
            assert!(matches!(
                s.submit_result(w2, c.digest, 0.001, &body_for(&c, 300), t),
                Ingest::Merged { .. }
            ));
        }
        // The pre-existing lease keeps its dispatch-time deadline: the
        // now-shorter estimate must not retro-shrink it...
        let _ = s.reap(t + Duration::from_millis(60));
        assert_eq!(s.report(0.0).redispatched, 0, "lease revoked early");
        // ...but does expire at its own 100ms deadline.
        let _ = s.reap(t + Duration::from_millis(100));
        assert_eq!(s.report(0.0).redispatched, 1);
        // A fresh lease granted now carries the adaptive ~40ms floor
        // deadline, so a dead worker on a short cell reclaims fast.
        let t2 = t + Duration::from_millis(200);
        let Assignment::Cell(_c) = s.next_assignment(w2, t2) else {
            panic!("expected a cell");
        };
        let _ = s.reap(t2 + Duration::from_millis(45));
        assert_eq!(s.report(0.0).redispatched, 2);
    }
}
