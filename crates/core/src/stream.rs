//! Streaming simulation: bounded-memory runs off a [`TraceSource`].
//!
//! The whole-trace pipeline materialises a [`Trace`](ddsc_trace::Trace)
//! and a [`PreparedTrace`](crate::prepass::PreparedTrace) — both O(trace
//! length). This module runs the *same* timing loop against a sliding
//! window instead: instructions are pulled from a [`TraceSource`] one
//! chunk at a time, each chunk is validated and fed to the incremental
//! pre-pass ([`StreamingPrepass`]), and columns below the retirement
//! watermark are evicted as the simulator proves they can never be read
//! again. Peak memory is O(window + chunk), not O(trace length).
//!
//! Bit-identity with the whole-trace path is structural, not argued:
//! both paths are the one generic timing loop in [`crate::simulator`],
//! differing only in the column view behind it, and the chunk-boundary
//! proptests pin the equivalence (including chunk size 1 and chunks
//! larger than the trace).
//!
//! The single unsupported configuration is node elimination, which
//! counts every *future* reader of a result — whole-trace lookahead a
//! stream cannot provide. Every paper configuration (A–E) streams.
//!
//! # Examples
//!
//! ```
//! use ddsc_core::{simulate, simulate_stream, SimConfig};
//! use ddsc_trace::{SliceSource, Trace, TraceInst};
//! use ddsc_isa::{Opcode, Reg};
//!
//! let mut t = Trace::new("demo");
//! for i in 0..100u32 {
//!     t.push(TraceInst::alu(4 * i, Opcode::Add, Reg::new(1), Reg::new(2), None, Some(1), 0));
//! }
//! let config = SimConfig::base(4);
//! let whole = simulate(&t, &config);
//! let streamed = simulate_stream(&mut SliceSource::new(&t), &config, 7).unwrap();
//! assert_eq!(whole, streamed);
//! ```

use std::fmt;

use ddsc_collapse::{CollapseOpts, ExprState};
use ddsc_trace::{SourceError, TraceInst, TraceSource};

use crate::metrics::NoopObserver;
use crate::prepass::{StreamingPrepass, F_STREAM_CONSUMER};
use crate::simulator::{run_timing_loop, PreparedSource, ProducerRow, RunError};
use crate::validate::{TraceValidator, ValidationError};
use crate::{BranchRunStats, SimConfig, SimResult, ValueSpecStats};

/// The default chunk size for streamed runs: large enough to amortise
/// per-chunk overhead, small enough that a chunk is cache-resident.
pub const DEFAULT_CHUNK_SIZE: usize = 1 << 16;

/// Why a streaming simulation could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// The trace producer failed (VM fault, I/O error, corrupt frame).
    Source(SourceError),
    /// A pulled chunk failed trace validation.
    Validation(ValidationError),
    /// The configuration needs whole-trace knowledge a stream cannot
    /// provide (currently: node elimination, which counts every future
    /// reader of a result).
    Unsupported(&'static str),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Source(e) => write!(f, "{e}"),
            StreamError::Validation(e) => write!(f, "streamed chunk failed validation: {e}"),
            StreamError::Unsupported(what) => {
                write!(f, "configuration unsupported in streaming mode: {what}")
            }
        }
    }
}

impl std::error::Error for StreamError {}

impl From<SourceError> for StreamError {
    fn from(e: SourceError) -> Self {
        StreamError::Source(e)
    }
}

/// The streaming column view: a [`TraceSource`] pulled chunk-by-chunk
/// through validation into the incremental pre-pass.
///
/// The source is a trait object, so the timing loop has one streaming
/// instance whatever the source type. The source is called once per
/// chunk (`ensure`), never per instruction.
struct StreamView<'a> {
    source: &'a mut dyn TraceSource,
    prep: StreamingPrepass,
    validator: TraceValidator,
    buf: Vec<TraceInst>,
    chunk: usize,
    done: bool,
}

impl PreparedSource for StreamView<'_> {
    fn ensure(&mut self, i: usize) -> Result<bool, StreamError> {
        while i >= self.prep.len() {
            if self.done {
                return Ok(false);
            }
            self.buf.clear();
            let pulled = self.source.fill(&mut self.buf, self.chunk)?;
            debug_assert_eq!(pulled, self.buf.len(), "fill must report what it appended");
            if pulled == 0 {
                self.done = true;
                return Ok(false);
            }
            self.validator
                .validate_slice(&self.buf, self.prep.len())
                .map_err(StreamError::Validation)?;
            for inst in &self.buf {
                self.prep.push(inst);
            }
        }
        Ok(true)
    }

    #[inline]
    fn flags(&self, i: usize) -> u8 {
        self.prep.flags(i)
    }

    #[inline]
    fn latency(&self, i: usize) -> u8 {
        self.prep.latency(i)
    }

    #[inline]
    fn block_of(&self, i: usize) -> u32 {
        self.prep.block_of(i)
    }

    #[inline]
    fn readers_of(&self, _i: usize) -> u32 {
        // Whole-trace reader counts serve node elimination only, and
        // `simulate_stream` rejects configs that enable it.
        0
    }

    #[inline]
    fn mem_dep_of(&self, i: usize) -> Option<u32> {
        self.prep.mem_dep_of(i)
    }

    #[inline]
    fn producer_row(&self, i: usize) -> ProducerRow {
        self.prep.producer_row(i)
    }

    #[inline]
    fn is_collapse_consumer(&self, i: usize) -> bool {
        self.prep.flags(i) & F_STREAM_CONSUMER != 0
    }

    #[inline]
    fn collapse_leaf(&self, i: usize, opts: &CollapseOpts) -> Option<ExprState> {
        self.prep
            .optype_of(i)
            .map(|t| ExprState::leaf_from(i as u32, t, opts))
    }

    #[inline]
    fn mispredicted(&self, i: usize) -> bool {
        self.prep.mispredicted(i)
    }

    #[inline]
    fn load_pred(&self, i: usize) -> u8 {
        self.prep.load_pred(i)
    }

    #[inline]
    fn value_bypass(&self, i: usize) -> bool {
        self.prep.value_bypass(i)
    }

    #[inline]
    fn release(&mut self, below: usize) {
        self.prep.evict_to(below);
    }

    fn branch_stats(&self) -> BranchRunStats {
        self.prep.branch_stats()
    }

    fn value_stats(&self) -> ValueSpecStats {
        self.prep.value_stats()
    }
}

/// Simulates a streamed trace under one configuration, holding only a
/// bounded window of analysis columns in memory.
///
/// Bit-identical to [`crate::simulate`] on the materialised trace for
/// every supported configuration and any `chunk_size >= 1` (a
/// `chunk_size` of 0 is treated as 1).
///
/// # Errors
///
/// [`StreamError::Unsupported`] for node-elimination configs,
/// [`StreamError::Source`] when the producer fails, and
/// [`StreamError::Validation`] when a pulled chunk is structurally
/// invalid.
pub fn simulate_stream(
    source: &mut dyn TraceSource,
    config: &SimConfig,
    chunk_size: usize,
) -> Result<SimResult, StreamError> {
    if config.node_elimination {
        return Err(StreamError::Unsupported(
            "node elimination needs whole-trace reader counts",
        ));
    }
    let mut view = StreamView {
        source,
        prep: StreamingPrepass::new(config),
        validator: TraceValidator::new(),
        buf: Vec::new(),
        chunk: chunk_size.max(1),
        done: false,
    };
    match run_timing_loop(&mut view, config, &mut NoopObserver, false) {
        Ok(r) => Ok(r),
        Err(RunError::Fault(e)) => Err(e),
        Err(RunError::Cancelled) => unreachable!("NoopObserver cannot cancel"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::testutil::mixed_trace;
    use crate::{simulate, PaperConfig};
    use ddsc_trace::SliceSource;

    #[test]
    fn streaming_is_bit_identical_to_the_whole_trace_pipeline() {
        // Every paper machine model, several widths, and chunk sizes
        // covering the degenerate boundaries: one instruction per pull,
        // a size coprime to everything, and one larger than the trace.
        let t = mixed_trace(4000, 1996);
        for cfg in PaperConfig::ALL {
            for width in [4u32, 8, 32] {
                let config = SimConfig::paper(cfg, width);
                let whole = simulate(&t, &config);
                for chunk in [1usize, 611, 5000] {
                    let streamed = simulate_stream(&mut SliceSource::new(&t), &config, chunk)
                        .expect("paper configs stream");
                    assert_eq!(streamed, whole, "{cfg:?} width {width} chunk {chunk}");
                }
            }
        }
    }

    #[test]
    fn a_zero_chunk_size_is_clamped_to_one() {
        let t = mixed_trace(300, 7);
        let config = SimConfig::paper(PaperConfig::D, 8);
        let streamed = simulate_stream(&mut SliceSource::new(&t), &config, 0).expect("streams");
        assert_eq!(streamed, simulate(&t, &config));
    }

    #[test]
    fn node_elimination_is_rejected_up_front() {
        let t = mixed_trace(100, 3);
        let mut config = SimConfig::paper(PaperConfig::C, 8);
        config.node_elimination = true;
        assert!(matches!(
            simulate_stream(&mut SliceSource::new(&t), &config, 64),
            Err(StreamError::Unsupported(_))
        ));
    }

    #[test]
    fn a_source_failure_surfaces_as_a_stream_error() {
        /// Produces a few instructions, then fails like a faulting VM.
        struct FailingSource {
            emitted: usize,
        }
        impl TraceSource for FailingSource {
            fn name(&self) -> &str {
                "failing"
            }
            fn fill(&mut self, out: &mut Vec<TraceInst>, max: usize) -> Result<usize, SourceError> {
                if self.emitted >= 40 {
                    return Err(SourceError::new("synthetic fault"));
                }
                let n = max.min(40 - self.emitted);
                for i in 0..n {
                    out.push(TraceInst::alu(
                        4 * (self.emitted + i) as u32,
                        ddsc_isa::Opcode::Add,
                        ddsc_isa::Reg::new(1),
                        ddsc_isa::Reg::new(2),
                        None,
                        Some(1),
                        0,
                    ));
                }
                self.emitted += n;
                Ok(n)
            }
        }
        let config = SimConfig::base(8);
        let err = simulate_stream(&mut FailingSource { emitted: 0 }, &config, 16)
            .expect_err("the source fault must propagate");
        assert!(matches!(err, StreamError::Source(_)), "{err}");
    }

    #[test]
    fn an_empty_source_simulates_to_the_empty_result() {
        let t = ddsc_trace::Trace::new("empty");
        let config = SimConfig::paper(PaperConfig::D, 8);
        let streamed = simulate_stream(&mut SliceSource::new(&t), &config, 64).expect("streams");
        assert_eq!(streamed, simulate(&t, &config));
        assert_eq!(streamed.cycles, 0);
    }

    proptest::proptest! {
        #[test]
        fn random_chunk_boundaries_never_move_a_bit(
            len in 1u32..600,
            seed in proptest::prelude::any::<u64>(),
            chunk in 1usize..700,
            cfg_idx in 0usize..5,
        ) {
            let t = mixed_trace(len, seed);
            let config = SimConfig::paper(PaperConfig::ALL[cfg_idx], 8);
            let whole = simulate(&t, &config);
            let streamed = simulate_stream(&mut SliceSource::new(&t), &config, chunk)
                .expect("paper configs stream");
            proptest::prop_assert_eq!(streamed, whole);
        }
    }
}
