//! The DDSC limit simulator: data dependence speculation & collapsing.
//!
//! This crate implements the paper's experimental machine — a Wall-style
//! window-based trace simulator with ideal renaming, perfect memory
//! disambiguation, unlimited functional units, realistic branch
//! prediction, and the two studied mechanisms:
//!
//! * **load-speculation** — stride-based address prediction with
//!   confidence gating, letting loads issue before their address
//!   operands resolve;
//! * **d-collapsing** — combining dependent pairs/triples (and
//!   zero-enabled quadruples) of simple operations into single-cycle
//!   dependence expressions.
//!
//! Entry point: [`simulate`] a [`Trace`](ddsc_trace::Trace) under a
//! [`SimConfig`]; the paper's five machine models are built with
//! [`SimConfig::paper`]. When sweeping a configuration grid over one
//! trace, run the analysis pre-pass once ([`PreparedTrace::build`]) and
//! feed the result to [`simulate_prepared`] for each cell — the
//! config-invariant work (dependence edges, predictor verdict streams,
//! collapse eligibility) is shared across the whole grid.
//! [`simulate_with`] is the same run with [`RunOptions`]: audited cycle
//! attribution ([`SimMetrics`]) and a deadline ([`CancelToken`]), each
//! off by default and free when off. [`simulate_stream`] runs the same
//! timing loop off a trace source in bounded memory.
//!
//! # Examples
//!
//! ```
//! use ddsc_core::{simulate, PaperConfig, SimConfig};
//! use ddsc_trace::{Trace, TraceInst};
//! use ddsc_isa::{Opcode, Reg};
//!
//! // A serial chain: r1 += 1, 100 times.
//! let mut trace = Trace::new("chain");
//! for i in 0..100 {
//!     trace.push(TraceInst::alu(4 * i, Opcode::Add, Reg::new(1), Reg::new(1), None, Some(1), 0));
//! }
//! let base = simulate(&trace, &SimConfig::paper(PaperConfig::A, 8));
//! let collapsed = simulate(&trace, &SimConfig::paper(PaperConfig::C, 8));
//! assert!(collapsed.ipc() > 2.0 * base.ipc());
//! ```

pub mod cancel;
pub mod config;
pub mod dataflow;
pub mod metrics;
pub mod prepass;
pub mod reference;
pub mod result;
pub mod simulator;
pub mod stream;
pub mod validate;

pub use cancel::{CancelToken, Cancelled};
pub use config::{
    ConfidenceParams, Latencies, LoadSpecMode, PaperConfig, SimConfig, ValueSpecMode,
};
pub use dataflow::{analyze_dataflow, DataflowAnalysis};
pub use metrics::{AuditError, CycleAttribution, SimMetrics, StallCause};
pub use prepass::{BranchStream, PreparedTrace, StreamingPrepass, ValueStream};
pub use reference::simulate_reference;
pub use result::{BranchRunStats, LoadClass, LoadSpecStats, SimResult, StallStats, ValueSpecStats};
pub use simulator::{simulate, simulate_prepared, simulate_with, RunOptions};
pub use stream::{simulate_stream, StreamError, DEFAULT_CHUNK_SIZE};
pub use validate::{TraceValidator, ValidationError};
