//! Trace-length convergence study (the paper-scale run).
//!
//! The paper simulates up to 250M dynamic instructions per benchmark;
//! the reproduction's default grid uses 300k. This module quantifies
//! what that truncation costs: it simulates one `(benchmark, config,
//! width)` cell at a ladder of trace lengths through the streaming
//! pipeline ([`ddsc_core::simulate_stream`] over a lazily-stepped VM
//! source), so even the 250M point runs in bounded memory, and reports
//! how IPC converges as the trace grows.
//!
//! The output is both human-readable ([`ConvergenceReport::render`])
//! and machine-readable ([`ConvergenceReport::to_json`], published as
//! `results/BENCH_convergence.json` by `ddsc convergence`).

use std::fmt::Write as _;
use std::time::Instant;

use ddsc_core::{simulate_stream, PaperConfig, SimConfig, StreamError};
use ddsc_util::Json;
use ddsc_workloads::Benchmark;

/// One rung of the convergence ladder: a full streamed simulation at a
/// given trace length.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergencePoint {
    /// Requested trace length (dynamic instructions).
    pub len: usize,
    /// Instructions actually simulated (equals `len` for the looping
    /// workloads; less only if a program halts early).
    pub instructions: u64,
    /// Machine cycles the cell took.
    pub cycles: u64,
    /// Instructions per cycle at this length.
    pub ipc: f64,
    /// Host wall-clock seconds of the streamed simulation.
    pub seconds: f64,
    /// Process peak RSS (`VmHWM`) in bytes when this point finished; 0
    /// where unavailable. Points run in ladder order within one
    /// process, so a flat profile across rungs is the bounded-memory
    /// evidence: a 1000× longer trace must not grow the high-water
    /// mark materially.
    pub peak_rss_bytes: u64,
}

impl ConvergencePoint {
    /// Simulated millions of instructions per host wall-clock second.
    pub fn mips(&self) -> f64 {
        if self.seconds <= 0.0 {
            0.0
        } else {
            self.instructions as f64 / self.seconds / 1.0e6
        }
    }
}

/// The full ladder for one `(benchmark, config, width)` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceReport {
    /// Benchmark under study.
    pub benchmark: Benchmark,
    /// Machine configuration (paper A..E).
    pub config: PaperConfig,
    /// Issue width.
    pub width: u32,
    /// Workload data seed.
    pub seed: u64,
    /// Streaming chunk size (instructions pulled per refill).
    pub chunk_size: usize,
    /// One point per requested length, in request order.
    pub points: Vec<ConvergencePoint>,
}

impl ConvergenceReport {
    /// IPC of the longest (final) rung — the reference the shorter
    /// rungs are compared against.
    pub fn reference_ipc(&self) -> f64 {
        self.points.last().map(|p| p.ipc).unwrap_or(0.0)
    }

    /// Renders the human-readable convergence table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "## Convergence: {} config {} width {} (seed {}, chunk {})",
            self.benchmark.models(),
            self.config.label(),
            self.width,
            self.seed,
            self.chunk_size
        );
        let reference = self.reference_ipc();
        let mut t = ddsc_util::TextTable::new(vec![
            "len".into(),
            "insts".into(),
            "cycles".into(),
            "IPC".into(),
            "vs longest".into(),
            "seconds".into(),
            "MIPS".into(),
            "peak RSS MiB".into(),
        ]);
        for p in &self.points {
            let delta = if reference > 0.0 {
                format!("{:+.3}%", 100.0 * (p.ipc - reference) / reference)
            } else {
                "n/a".into()
            };
            t.row(vec![
                p.len.to_string(),
                p.instructions.to_string(),
                p.cycles.to_string(),
                format!("{:.4}", p.ipc),
                delta,
                format!("{:.3}", p.seconds),
                format!("{:.2}", p.mips()),
                format!("{:.1}", p.peak_rss_bytes as f64 / (1024.0 * 1024.0)),
            ]);
        }
        let _ = write!(out, "{t}");
        out
    }

    /// Serialises the report as JSON (the `results/BENCH_convergence.json`
    /// payload).
    pub fn to_json(&self) -> String {
        let points = self.points.iter().map(|p| {
            Json::obj([
                ("len", p.len.into()),
                ("instructions", p.instructions.into()),
                ("cycles", p.cycles.into()),
                ("ipc", Json::fixed(p.ipc, 6)),
                ("seconds", Json::fixed(p.seconds, 6)),
                ("mips", Json::fixed(p.mips(), 4)),
                ("peak_rss_bytes", p.peak_rss_bytes.into()),
            ])
        });
        Json::obj([
            ("schema", "ddsc-convergence-v1".into()),
            ("benchmark", self.benchmark.models().into()),
            ("config", self.config.label().into()),
            ("width", self.width.into()),
            ("seed", self.seed.into()),
            ("chunk_size", self.chunk_size.into()),
            ("reference_ipc", Json::fixed(self.reference_ipc(), 6)),
            ("points", points.collect()),
        ])
        .render()
    }
}

/// Runs the convergence ladder: one streamed simulation per length in
/// `lens`, in order. Memory stays bounded by the streaming window
/// regardless of length; `chunk_size` is clamped to at least 1.
///
/// # Errors
///
/// Propagates the first [`StreamError`] — a workload fault, trace
/// validation failure, or an unsupported streaming configuration.
pub fn convergence_study(
    benchmark: Benchmark,
    config: PaperConfig,
    width: u32,
    seed: u64,
    lens: &[usize],
    chunk_size: usize,
) -> Result<ConvergenceReport, StreamError> {
    let sim_config = SimConfig::paper(config, width);
    let mut points = Vec::with_capacity(lens.len());
    for &len in lens {
        let mut src = benchmark.source(seed, len);
        let t0 = Instant::now();
        let r = simulate_stream(&mut src, &sim_config, chunk_size)?;
        let seconds = t0.elapsed().as_secs_f64();
        points.push(ConvergencePoint {
            len,
            instructions: r.instructions,
            cycles: r.cycles,
            ipc: r.ipc(),
            seconds,
            peak_rss_bytes: ddsc_util::peak_rss_bytes().unwrap_or(0),
        });
    }
    Ok(ConvergenceReport {
        benchmark,
        config,
        width,
        seed,
        chunk_size,
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddsc_core::simulate;

    #[test]
    fn the_ladder_matches_whole_trace_simulation_bit_for_bit() {
        let report =
            convergence_study(Benchmark::Li, PaperConfig::D, 8, 1996, &[2_000, 8_000], 512)
                .unwrap();
        assert_eq!(report.points.len(), 2);
        for p in &report.points {
            assert_eq!(p.instructions, p.len as u64);
            assert!(p.ipc > 0.0);
            let whole = Benchmark::Li.trace(1996, p.len).unwrap();
            let r = simulate(&whole, &SimConfig::paper(PaperConfig::D, 8));
            assert_eq!(p.cycles, r.cycles, "len {}", p.len);
            assert_eq!(p.ipc, r.ipc(), "len {}", p.len);
        }
        assert_eq!(report.reference_ipc(), report.points[1].ipc);
    }

    #[test]
    fn report_renders_and_serialises() {
        let report = convergence_study(
            Benchmark::Compress,
            PaperConfig::A,
            4,
            7,
            &[1_000, 3_000],
            256,
        )
        .unwrap();
        let text = report.render();
        assert!(text.contains("Convergence: 026.compress config A width 4"));
        assert!(text.contains("vs longest"));
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"ddsc-convergence-v1\""));
        assert!(json.contains("\"benchmark\": \"026.compress\""));
        assert!(json.contains("\"points\""));
        assert!(json.contains("\"peak_rss_bytes\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn an_empty_ladder_is_harmless() {
        let report = convergence_study(Benchmark::Go, PaperConfig::B, 4, 1, &[], 64).unwrap();
        assert!(report.points.is_empty());
        assert_eq!(report.reference_ipc(), 0.0);
        assert!(report.render().contains("Convergence"));
    }
}
