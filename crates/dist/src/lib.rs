//! Fault-tolerant distributed execution of the paper grid.
//!
//! `ddsc-dist` runs the MICRO-29 scenario grid across worker
//! *processes* while keeping the single-process guarantee: the merged
//! grid is byte-identical to a local run. Cells are identified by the
//! lab's [`CellKey`](ddsc_experiments::CellKey) digests, travel in the
//! checksummed frames of [`ddsc_util::codec`]
//! (the same frames `ddsc serve` speaks), and carry results as the
//! canonical [`SimResult::encode_to`](ddsc_core::SimResult::encode_to)
//! bytes the cell store persists — so "merge" is just "insert the first
//! valid result per digest".
//!
//! Five layers:
//!
//! - [`proto`] — the coordinator/worker message vocabulary over
//!   [`ddsc_util::codec`] frames; decoding is total.
//! - [`coordinator`] — the [`Scheduler`] failure model (leases with
//!   dispatch-time deadlines, heartbeats, straggler re-dispatch,
//!   poison quarantine, double-compute spot checks with byzantine
//!   bans) as a pure state machine, plus the [`Coordinator`] TCP
//!   server that drives it with wall time and sinks merged results to
//!   the caller.
//! - [`estimate`] — the online per-benchmark compute-time estimator
//!   (EWMA + p95) behind adaptive lease timeouts.
//! - [`worker`] — the pull-loop worker process: reconnect with backoff,
//!   digest self-verification, contained panics, memoized prepared
//!   traces; a hidden `--byzantine` test mode emits well-formed but
//!   counter-perturbed results for trust drills.
//! - [`chaos`] — a deterministic network-chaos proxy for loopback TCP:
//!   a seeded per-connection script of delays, drops, truncations,
//!   bit-flips, duplicated bytes and mid-stream resets, so chaos
//!   drills are reproducible CI artifacts.
//!
//! Crash consistency is the caller's (the CLI's) job: merged results
//! flow into the PR 5 journal + cell store via
//! `Lab::install_result`, so a SIGKILLed coordinator `--resume`s from
//! its journal and only re-dispatches the missing cells.

pub mod chaos;
pub mod coordinator;
pub mod estimate;
pub mod proto;
pub mod worker;

pub use chaos::{ChaosOptions, ChaosProxy, ChaosStop, ChaosSummary, Direction};
pub use coordinator::{
    spot_selected, validate_body, Assignment, Coordinator, DistReport, DistSinks, Ingest,
    MismatchIncident, SchedOptions, Scheduler, WorkerReport,
};
pub use estimate::{ComputeEstimator, LeaseStat};
pub use proto::{CellSpec, CoordMsg, WireError, WorkerMsg, DIST_VERSION};
pub use worker::{run_worker, WorkerOptions, WorkerSummary};
