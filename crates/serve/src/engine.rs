//! The serving engine: a bounded job queue, a fixed worker pool, and a
//! digest-keyed coalescing map in front of the simulator.
//!
//! The engine is the daemon's core and is transport-agnostic — the TCP
//! server (`server.rs`) and the in-process tests drive the same
//! [`Engine::submit`] API. Three properties it guarantees:
//!
//! * **Admission control.** The queue holds at most `queue_depth`
//!   pending jobs. A submission that would exceed it is turned away
//!   with a typed [`Submission::RejectedBusy`] — nothing is enqueued,
//!   nothing can hang.
//! * **Coalescing.** Cells are keyed by the digest of the request's
//!   [`CellKey`] — the lab's digest, so `d` and `D` name one cell.
//!   Concurrent identical submissions join the one in-flight cell and
//!   all receive the same byte-identical result; later identical
//!   submissions hit the in-memory outcome cache without touching the
//!   queue.
//! * **Durability.** With a run directory configured, the
//!   [`CellRunner`] saves every finished cell to the [`CellStore`]
//!   *before* its `CellFinished` journal record, so a SIGKILLed daemon
//!   restarted on the same directory re-serves journaled cells
//!   byte-identically without re-simulating.
//!
//! Timed-out and failed cells are *not* memoised: their map entries are
//! removed when the outcome is broadcast, so a retry after the
//! condition clears re-runs the cell instead of replaying the failure.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use ddsc_core::SimConfig;
use ddsc_experiments::cell::{parse_config, parse_width};
use ddsc_experiments::{CellError, CellKey, CellRunner, CellStore};
use ddsc_util::{Journal, JournalRecord};

use crate::proto::{StatsSnapshot, SubmitRequest};

/// Largest trace length a request may ask for unless the operator
/// raises it: long enough for paper-scale cells, short enough that one
/// request cannot pin a worker for hours by default.
pub const DEFAULT_MAX_TRACE_LEN: u64 = 50_000_000;

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Fixed worker-pool size (at least 1).
    pub workers: usize,
    /// Maximum pending jobs; submissions beyond it are rejected.
    pub queue_depth: usize,
    /// Per-cell wall-clock budget; `None` means no deadline.
    pub deadline: Option<Duration>,
    /// Durability root. `Some(dir)` keeps `dir/serve_journal.bin` and
    /// `dir/cells/`; `None` serves purely from memory.
    pub run_dir: Option<PathBuf>,
    /// Upper bound accepted for [`SubmitRequest::trace_len`].
    pub max_trace_len: u64,
    /// Test hook: workers block on this gate (when closed) after
    /// popping a job and before simulating. Lets a test pin the pool
    /// in a known state to probe admission control deterministically.
    pub gate: Option<Arc<WorkerGate>>,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            workers: 2,
            queue_depth: 64,
            deadline: None,
            run_dir: None,
            max_trace_len: DEFAULT_MAX_TRACE_LEN,
            gate: None,
        }
    }
}

/// A gate workers pass through between claiming a job and running it.
/// Open by default; tests close it to hold every worker at a known
/// point.
#[derive(Debug, Default)]
pub struct WorkerGate {
    closed: Mutex<bool>,
    cond: Condvar,
}

impl WorkerGate {
    /// A gate that starts closed.
    pub fn closed() -> WorkerGate {
        WorkerGate {
            closed: Mutex::new(true),
            cond: Condvar::new(),
        }
    }

    /// Opens the gate and wakes every worker waiting on it.
    pub fn open(&self) {
        let mut closed = self.closed.lock().unwrap_or_else(|e| e.into_inner());
        *closed = false;
        self.cond.notify_all();
    }

    fn wait(&self) {
        let mut closed = self.closed.lock().unwrap_or_else(|e| e.into_inner());
        while *closed {
            closed = self.cond.wait(closed).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// A terminal cell outcome, broadcast to every waiter of the cell.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The cell finished; `body` is the canonical
    /// [`SimResult::encode_to`](ddsc_core::SimResult::encode_to) bytes.
    Done {
        /// The cell digest.
        digest: u64,
        /// Shared encoded result bytes.
        body: Arc<Vec<u8>>,
    },
    /// The simulation failed (panic, workload error, ...).
    Failed {
        /// Rendered failure message.
        error: String,
    },
    /// The cell was cancelled on its wall-clock deadline.
    TimedOut {
        /// Rendered timeout message.
        error: String,
    },
}

/// Progress events delivered to a submission's event channel.
#[derive(Debug, Clone)]
pub enum JobEvent {
    /// A worker picked the cell up.
    Started,
    /// The cell reached a terminal outcome.
    Finished(Outcome),
}

/// What [`Engine::submit`] did with a request.
#[derive(Debug)]
pub enum Submission {
    /// Served from the in-memory outcome cache; no work was queued.
    Cached(Outcome),
    /// Admitted (or coalesced onto an in-flight cell); progress and the
    /// terminal outcome arrive on `events`.
    Joined {
        /// Event stream for this submission.
        events: Receiver<JobEvent>,
        /// True if this submission joined an already in-flight cell.
        coalesced: bool,
        /// Queue length right after admission (0 when coalesced).
        depth: u32,
    },
    /// Turned away by admission control; nothing was enqueued.
    RejectedBusy {
        /// Why (queue full / shutting down).
        reason: String,
    },
    /// Failed validation; retrying the same request cannot succeed.
    Invalid {
        /// What the validator objected to.
        reason: String,
    },
}

struct Job {
    digest: u64,
    key: CellKey,
}

enum CellState {
    /// Queued or running; waiters receive events as they happen.
    /// `started` records whether the `Started` event already fired so
    /// late joiners can be caught up.
    InFlight {
        waiters: Vec<Sender<JobEvent>>,
        started: bool,
    },
    /// Finished successfully; served straight from memory.
    Done(Outcome),
}

/// Bounded MPMC job queue: rejects on full, blocks on empty, drains the
/// backlog after close.
struct JobQueue {
    inner: Mutex<QueueInner>,
    cond: Condvar,
    capacity: usize,
}

struct QueueInner {
    jobs: VecDeque<Job>,
    closed: bool,
}

enum PushError {
    Full,
    Closed,
}

impl JobQueue {
    fn new(capacity: usize) -> JobQueue {
        JobQueue {
            inner: Mutex::new(QueueInner {
                jobs: VecDeque::new(),
                closed: false,
            }),
            cond: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues a job; `Ok(depth)` is the queue length after the push.
    fn push(&self, job: Job) -> Result<usize, PushError> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.closed {
            return Err(PushError::Closed);
        }
        if inner.jobs.len() >= self.capacity {
            return Err(PushError::Full);
        }
        inner.jobs.push_back(job);
        let depth = inner.jobs.len();
        self.cond.notify_one();
        Ok(depth)
    }

    /// Blocks for the next job; `None` once closed *and* drained.
    fn pop(&self) -> Option<Job> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self.cond.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Stops admissions; workers drain the backlog then exit.
    fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.closed = true;
        self.cond.notify_all();
    }
}

#[derive(Default)]
struct Stats {
    accepted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    timed_out: AtomicU64,
    rejected_busy: AtomicU64,
    rejected_invalid: AtomicU64,
    coalesced: AtomicU64,
    cache_hits: AtomicU64,
    resumed_cells: AtomicU64,
    queue_depth: AtomicU64,
}

struct Shared {
    cells: Mutex<HashMap<u64, CellState>>,
    queue: JobQueue,
    stats: Stats,
    runner: CellRunner,
    gate: Option<Arc<WorkerGate>>,
    workers: usize,
    max_trace_len: u64,
}

/// The serving engine. Cloneable handles are cheap (`Arc` inside);
/// call [`Engine::shutdown`] exactly once to stop the pool.
pub struct Engine {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// The digest identifying one experiment cell, [`CellKey::digest`].
/// Panics if the request names no cell; [`Engine::submit`] rejects it.
pub fn request_digest(bench: &str, config: &str, width: u32, trace_len: u64, seed: u64) -> u64 {
    CellKey::parse(bench, config, width, seed, trace_len)
        .unwrap_or_else(|e| panic!("{e}"))
        .digest()
}

/// Names the requested cell, then applies the daemon's own admission
/// bounds on width and trace length.
fn validate(req: &SubmitRequest, max_trace_len: u64) -> Result<CellKey, String> {
    let key = CellKey::parse(&req.bench, &req.config, req.width, req.seed, req.trace_len)?;
    if req.width > 4096 {
        return Err(format!("width {} out of range (1..=4096)", req.width));
    }
    if req.trace_len == 0 || req.trace_len > max_trace_len {
        return Err(format!(
            "trace_len {} out of range (1..={max_trace_len})",
            req.trace_len
        ));
    }
    Ok(key)
}

impl Engine {
    /// Starts the worker pool; with a run directory, first replays the
    /// journal and warms the outcome cache from the cell store.
    ///
    /// # Errors
    ///
    /// Returns any filesystem error opening the journal.
    pub fn start(config: EngineConfig) -> io::Result<Engine> {
        let workers = config.workers.max(1);
        let mut runner = CellRunner::default();
        runner.deadline = config.deadline;
        let mut resumed = Vec::new();
        if let Some(dir) = &config.run_dir {
            let (journal, records) = Journal::open(&dir.join("serve_journal.bin"))?;
            runner.supervision = Some((Arc::new(journal), CellStore::new(dir.join("cells"))));
            resumed = records;
        }

        let shared = Arc::new(Shared {
            cells: Mutex::new(HashMap::new()),
            queue: JobQueue::new(config.queue_depth.max(1)),
            stats: Stats::default(),
            runner,
            gate: config.gate,
            workers,
            max_trace_len: config.max_trace_len.max(1),
        });

        // Warm the cache: every journaled CellFinished whose stored
        // result still loads cleanly is re-served without simulating.
        // A cell re-run after a failed load is journaled again, so a
        // digest can repeat: it is restored and counted once.
        if let Some((_, store)) = &shared.runner.supervision {
            let mut cells = shared.cells.lock().unwrap_or_else(|e| e.into_inner());
            for rec in &resumed {
                let JournalRecord::CellFinished {
                    config: label,
                    width,
                    digest,
                    ..
                } = rec
                else {
                    continue;
                };
                let (Ok(cfg), Ok(width)) = (parse_config(label), parse_width(*width)) else {
                    continue;
                };
                if cells.contains_key(digest) {
                    continue;
                }
                if let Some(result) = store.load(*digest, SimConfig::paper(cfg, width)) {
                    let mut body = Vec::new();
                    result.encode_to(&mut body);
                    cells.insert(
                        *digest,
                        CellState::Done(Outcome::Done {
                            digest: *digest,
                            body: Arc::new(body),
                        }),
                    );
                    shared.stats.resumed_cells.fetch_add(1, Ordering::Relaxed);
                }
            }
        }

        if let Some((journal, _)) = &shared.runner.supervision {
            journal.append(&JournalRecord::RunStarted {
                config: format!(
                    "serve workers={workers} queue={} deadline={:?}",
                    config.queue_depth, config.deadline
                ),
            })?;
        }

        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();

        Ok(Engine {
            shared,
            workers: Mutex::new(handles),
        })
    }

    /// Submits one request: validate → cache → coalesce → admit.
    pub fn submit(&self, req: &SubmitRequest) -> Submission {
        let shared = &self.shared;
        let valid = match validate(req, shared.max_trace_len) {
            Ok(v) => v,
            Err(reason) => {
                shared
                    .stats
                    .rejected_invalid
                    .fetch_add(1, Ordering::Relaxed);
                return Submission::Invalid { reason };
            }
        };
        let digest = valid.digest();

        // The cache / coalesce / admit decision happens atomically
        // under the map lock; the queue push nests inside it (lock
        // order: cells → queue, everywhere).
        let mut cells = shared.cells.lock().unwrap_or_else(|e| e.into_inner());
        match cells.get_mut(&digest) {
            Some(CellState::Done(outcome)) => {
                shared.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                Submission::Cached(outcome.clone())
            }
            Some(CellState::InFlight { waiters, started }) => {
                let (tx, rx) = mpsc::channel();
                if *started {
                    // Catch the late joiner up so every waiter sees a
                    // consistent Started → terminal sequence.
                    let _ = tx.send(JobEvent::Started);
                }
                waiters.push(tx);
                shared.stats.coalesced.fetch_add(1, Ordering::Relaxed);
                Submission::Joined {
                    events: rx,
                    coalesced: true,
                    depth: 0,
                }
            }
            None => match shared.queue.push(Job { digest, key: valid }) {
                Err(PushError::Full) => {
                    shared.stats.rejected_busy.fetch_add(1, Ordering::Relaxed);
                    Submission::RejectedBusy {
                        reason: format!("queue full (depth {})", shared.queue.capacity),
                    }
                }
                Err(PushError::Closed) => {
                    shared.stats.rejected_busy.fetch_add(1, Ordering::Relaxed);
                    Submission::RejectedBusy {
                        reason: "server is shutting down".to_string(),
                    }
                }
                Ok(depth) => {
                    let (tx, rx) = mpsc::channel();
                    cells.insert(
                        digest,
                        CellState::InFlight {
                            waiters: vec![tx],
                            started: false,
                        },
                    );
                    shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
                    shared.stats.queue_depth.fetch_add(1, Ordering::Relaxed);
                    Submission::Joined {
                        events: rx,
                        coalesced: false,
                        depth: depth as u32,
                    }
                }
            },
        }
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        let s = &self.shared.stats;
        StatsSnapshot {
            accepted: s.accepted.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            failed: s.failed.load(Ordering::Relaxed),
            timed_out: s.timed_out.load(Ordering::Relaxed),
            rejected_busy: s.rejected_busy.load(Ordering::Relaxed),
            rejected_invalid: s.rejected_invalid.load(Ordering::Relaxed),
            coalesced: s.coalesced.load(Ordering::Relaxed),
            cache_hits: s.cache_hits.load(Ordering::Relaxed),
            resumed_cells: s.resumed_cells.load(Ordering::Relaxed),
            queue_depth: s.queue_depth.load(Ordering::Relaxed),
            workers: self.shared.workers as u64,
        }
    }

    /// Stops admissions, drains the backlog, and joins the pool. Any
    /// cell still unfinished when the pool exits has its waiters'
    /// channels closed (clients observe a failed submission, never a
    /// hang).
    pub fn shutdown(&self) {
        self.shared.queue.close();
        let handles = std::mem::take(&mut *self.workers.lock().unwrap_or_else(|e| e.into_inner()));
        for handle in handles {
            let _ = handle.join();
        }
        if let Some((journal, _)) = &self.shared.runner.supervision {
            let _ = journal.append(&JournalRecord::RunFinished { status: 0 });
        }
        // Dropping leftover InFlight senders closes their channels.
        let mut cells = self.shared.cells.lock().unwrap_or_else(|e| e.into_inner());
        cells.retain(|_, state| matches!(state, CellState::Done(_)));
    }
}

impl Shared {
    fn broadcast_started(&self, digest: u64) {
        let mut cells = self.cells.lock().unwrap_or_else(|e| e.into_inner());
        let waiters = match cells.get_mut(&digest) {
            Some(CellState::InFlight { waiters, started }) => {
                *started = true;
                waiters.clone()
            }
            _ => return,
        };
        drop(cells);
        for tx in waiters {
            let _ = tx.send(JobEvent::Started);
        }
    }

    fn finish(&self, digest: u64, outcome: Outcome) {
        let mut cells = self.cells.lock().unwrap_or_else(|e| e.into_inner());
        let waiters = match cells.remove(&digest) {
            Some(CellState::InFlight { waiters, .. }) => waiters,
            Some(done @ CellState::Done(_)) => {
                cells.insert(digest, done);
                Vec::new()
            }
            None => Vec::new(),
        };
        // Only successes are memoised; failures and timeouts re-run on
        // the next identical request.
        if let Outcome::Done { .. } = &outcome {
            cells.insert(digest, CellState::Done(outcome.clone()));
        }
        drop(cells);
        for tx in waiters {
            let _ = tx.send(JobEvent::Finished(outcome.clone()));
        }
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        shared.stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
        shared.broadcast_started(job.digest);
        if let Some(gate) = &shared.gate {
            gate.wait();
        }
        let outcome = match shared.runner.run(&job.key, || job.key.prepare()) {
            Ok(run) => {
                shared.stats.completed.fetch_add(1, Ordering::Relaxed);
                let mut body = Vec::new();
                run.result.encode_to(&mut body);
                Outcome::Done {
                    digest: job.digest,
                    body: Arc::new(body),
                }
            }
            Err(e) => {
                let error = e.to_string();
                shared.runner.fail(job.key.cell(), &error);
                if let CellError::TimedOut(_) = e {
                    shared.stats.timed_out.fetch_add(1, Ordering::Relaxed);
                    Outcome::TimedOut { error }
                } else {
                    shared.stats.failed.fetch_add(1, Ordering::Relaxed);
                    Outcome::Failed { error }
                }
            }
        };
        shared.finish(job.digest, outcome);
    }
}
