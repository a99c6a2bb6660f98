//! `ddsc-serve`: the lab as a long-running service.
//!
//! The one-shot CLI relaunches the whole toolchain for every grid; this
//! crate turns it into a daemon. Three layers, each usable on its own:
//!
//! * [`proto`] — typed requests and responses carried in the
//!   checksummed `len ‖ payload ‖ fnv1a` frames of
//!   [`ddsc_util::codec`]. Decoding is total: arbitrary bytes produce a
//!   value or a typed [`proto::WireError`], never a panic.
//! * [`engine`] — the transport-agnostic core: a bounded admission
//!   queue (typed 429-style rejections), a digest-keyed coalescing map
//!   (concurrent identical requests share one simulation; repeats hit
//!   the in-memory cache), a fixed worker pool with per-cell deadlines
//!   and panic containment, and journal + [`CellStore`] durability so a
//!   SIGKILLed daemon restarts warm and re-serves finished cells
//!   byte-identically.
//! * [`server`] / [`loadtest`] — a thread-per-connection TCP front end
//!   over the engine, and a closed-loop multi-client driver that
//!   attacks it and publishes `results/BENCH_serve.json` with latency
//!   percentiles and the server's coalesce/cache counters.
//!
//! [`CellStore`]: ddsc_experiments::CellStore

#![warn(missing_docs)]

pub mod engine;
pub mod loadtest;
pub mod proto;
pub mod server;

pub use ddsc_util::net::StopHandle;
pub use engine::{request_digest, Engine, EngineConfig, JobEvent, Outcome, Submission, WorkerGate};
pub use loadtest::{run_loadtest, LoadtestConfig, LoadtestReport};
pub use proto::{
    read_request, read_response, write_request, write_response, Request, Response, StatsSnapshot,
    SubmitRequest, WireError,
};
pub use server::{ServeSummary, Server};
