//! Shared helpers for the Criterion benchmark harness.
//!
//! The `paper_artifacts` target regenerates every paper artifact,
//! `table1_traces` and `table2_branch` time the trace generation and
//! branch statistics behind Tables 1 and 2, and the rest time the
//! engine's layers (see `benches/`). The helpers here build
//! appropriately-sized labs so Criterion timing stays reasonable while
//! the printed rows remain representative.

use ddsc_experiments::{Lab, SuiteConfig};

/// Widths used by the benchmark harness: the paper's sweep with the 2k
/// point included (traces are short enough for it to be cheap).
pub const BENCH_WIDTHS: [u32; 5] = [4, 8, 16, 32, 2048];

/// Builds a lab sized for benchmarking: smaller traces than the full
/// reproduction, same seed and widths.
pub fn bench_lab(trace_len: usize) -> Lab {
    Lab::new(SuiteConfig {
        seed: 1996,
        trace_len,
        widths: BENCH_WIDTHS.to_vec(),
    })
}

/// Builds a lab with an explicit width list.
pub fn bench_lab_widths(trace_len: usize, widths: &[u32]) -> Lab {
    Lab::new(SuiteConfig {
        seed: 1996,
        trace_len,
        widths: widths.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lab_builders_produce_working_labs() {
        let lab = bench_lab_widths(2_000, &[4]);
        let f = ddsc_experiments::figures::fig2(&lab);
        assert_eq!(f.series.len(), 5);
    }
}
