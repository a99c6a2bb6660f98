//! Cycle-attribution profiles: where every simulated cycle went, per
//! paper configuration.
//!
//! The observability layer (`ddsc_core::metrics`) classifies every cycle
//! of a simulation into exactly one bucket — issuing, or idle behind one
//! of six causes (branch squash, memory serialisation, address
//! speculation, long-latency arithmetic, full window, dependence
//! height). This module aggregates those per-cell [`SimMetrics`] into a
//! [`ConfigProfile`] per paper configuration, renders the
//! cycle-attribution table shown by `ddsc repro --profile`, and
//! serialises each profile as `results/profile_<config>.json` with a
//! stable field order (schema `ddsc-profile-v1`).
//!
//! The accounting identity — attributed cycles sum exactly to total
//! cycles — is audited inside every metrics-on `simulate_with` run and
//! re-checked here per cell, so a profile can never silently misplace a
//! cycle.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ddsc_core::{PaperConfig, SimMetrics, StallCause};
use ddsc_util::{Histogram, TextTable};
use ddsc_workloads::Benchmark;

use crate::Lab;

/// The profiled metrics of one `(benchmark, width)` cell under one
/// configuration.
#[derive(Debug, Clone)]
pub struct ProfileCell {
    /// The benchmark simulated.
    pub benchmark: Benchmark,
    /// Issue width.
    pub width: u32,
    /// Dynamic instructions simulated.
    pub instructions: u64,
    /// Total cycles (equals `metrics.attribution.total()` by the audited
    /// accounting identity).
    pub cycles: u64,
    /// Retired instructions per cycle.
    pub ipc: f64,
    /// The full metrics record, shared with the lab's cache.
    pub metrics: Arc<SimMetrics>,
}

/// Cycle attribution for one paper configuration over the whole
/// `benchmark x width` grid of a lab.
///
/// Cell order is deterministic whatever order the lab computed them in:
/// benchmarks in [`Benchmark::ALL`] order, widths ascending within each
/// benchmark. Rendering and serialisation preserve that order, so two
/// labs over the same suite produce byte-identical profiles.
#[derive(Debug, Clone)]
pub struct ConfigProfile {
    /// The paper configuration profiled.
    pub config: PaperConfig,
    /// The widths swept, ascending.
    pub widths: Vec<u32>,
    /// One entry per `(benchmark, width)`, in deterministic order.
    pub cells: Vec<ProfileCell>,
}

impl ConfigProfile {
    /// Collects (simulating on demand) the profile of `config` across
    /// the lab's full grid.
    ///
    /// # Panics
    ///
    /// Panics if `lab` was built without [`Lab::with_profiling`], or if
    /// a cell violates the cycle-accounting identity (which would be a
    /// simulator bug).
    pub fn collect(lab: &Lab, config: PaperConfig) -> ConfigProfile {
        let mut widths = lab.widths();
        widths.sort_unstable();
        widths.dedup();
        let mut cells = Vec::new();
        for (b, _) in lab.suite().iter() {
            for &w in &widths {
                let r = lab.result(b, config, w);
                let m = lab.metrics(b, config, w);
                m.attribution
                    .audit(r.cycles)
                    .expect("cycle-attribution identity must hold");
                cells.push(ProfileCell {
                    benchmark: b,
                    width: w,
                    instructions: r.instructions,
                    cycles: r.cycles,
                    ipc: r.ipc(),
                    metrics: m,
                });
            }
        }
        ConfigProfile {
            config,
            widths,
            cells,
        }
    }

    /// The width the rendered table shows: the widest bounded machine
    /// (≤ 32) in the sweep. The paper's width 2048 stands in for an
    /// unbounded window and would drown the table in dependence-height
    /// cycles.
    pub fn headline_width(&self) -> u32 {
        self.widths
            .iter()
            .copied()
            .filter(|&w| w <= 32)
            .max()
            .or_else(|| self.widths.first().copied())
            .expect("profile has at least one width")
    }

    /// Renders the cycle-attribution table at the headline width: one
    /// row per benchmark, one column per attribution bucket, as a
    /// percentage of that cell's total cycles.
    pub fn render(&self) -> String {
        let width = self.headline_width();
        let mut header = vec!["benchmark".into(), "cycles".into(), "issue %".into()];
        for cause in StallCause::ALL {
            header.push(format!("{cause} %"));
        }
        let mut t = TextTable::new(header);
        for cell in self.cells.iter().filter(|c| c.width == width) {
            let a = &cell.metrics.attribution;
            let pct = |n: u64| {
                if cell.cycles == 0 {
                    "0.0".to_string()
                } else {
                    format!("{:.1}", n as f64 * 100.0 / cell.cycles as f64)
                }
            };
            let mut row = vec![
                cell.benchmark.models().to_string(),
                cell.cycles.to_string(),
                pct(a.issue),
            ];
            for cause in StallCause::ALL {
                row.push(pct(a.idle(cause)));
            }
            t.row(row);
        }
        format!(
            "### Where the cycles go — config {} ({}), width {width}\n{t}",
            self.config.label(),
            self.config.description(),
        )
    }

    /// Serialises the profile as JSON (schema `ddsc-profile-v1`).
    ///
    /// Hand-rolled (the repo deliberately has no serde) with a fixed key
    /// order, so equal profiles serialise to equal bytes. Histograms are
    /// emitted sparsely as `[value, count]` pairs over the non-empty
    /// buckets.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"ddsc-profile-v1\",\n");
        let _ = writeln!(out, "  \"config\": \"{}\",", self.config.label());
        let _ = writeln!(out, "  \"description\": \"{}\",", self.config.description());
        out.push_str("  \"widths\": [");
        for (i, w) in self.widths.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{w}");
        }
        out.push_str("],\n");
        out.push_str("  \"cells\": [\n");
        for (i, cell) in self.cells.iter().enumerate() {
            out.push_str(&cell_json(cell));
            out.push_str(if i + 1 < self.cells.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// One profile cell as a JSON object (no trailing newline or comma).
fn cell_json(cell: &ProfileCell) -> String {
    let m = &cell.metrics;
    let a = &m.attribution;
    let mut out = String::new();
    out.push_str("    {\n");
    let _ = writeln!(out, "      \"benchmark\": \"{}\",", cell.benchmark.models());
    let _ = writeln!(out, "      \"width\": {},", cell.width);
    let _ = writeln!(out, "      \"instructions\": {},", cell.instructions);
    let _ = writeln!(out, "      \"cycles\": {},", cell.cycles);
    let _ = writeln!(out, "      \"ipc\": {:.4},", cell.ipc);
    let _ = writeln!(
        out,
        "      \"attribution\": {{\"issue\": {}, \"branch\": {}, \"memory\": {}, \
         \"address\": {}, \"long_latency\": {}, \"window_full\": {}, \"dep_height\": {}}},",
        a.issue, a.branch, a.memory, a.address, a.long_latency, a.window_full, a.dep_height
    );
    let _ = writeln!(out, "      \"issue_util\": {},", sparse_hist(&m.issue_util));
    let _ = writeln!(
        out,
        "      \"window_occupancy\": {},",
        sparse_hist(&m.window_occupancy)
    );
    let _ = writeln!(
        out,
        "      \"collapse_sizes\": {},",
        sparse_hist(&m.collapse_sizes)
    );
    let _ = writeln!(
        out,
        "      \"branch\": {{\"hits\": {}, \"misses\": {}}},",
        m.branch_hits, m.branch_misses
    );
    let _ = writeln!(
        out,
        "      \"addr_pred\": {{\"confident_correct\": {}, \"confident_incorrect\": {}, \
         \"unconfident_correct\": {}, \"unconfident_incorrect\": {}}}",
        m.addr_pred.confident_correct,
        m.addr_pred.confident_incorrect,
        m.addr_pred.unconfident_correct,
        m.addr_pred.unconfident_incorrect
    );
    out.push_str("    }");
    out
}

/// A histogram as `[[value, count], ...]` over its non-empty buckets.
fn sparse_hist(h: &Histogram) -> String {
    let mut out = String::from("[");
    let mut first = true;
    for (v, c) in h.iter().filter(|&(_, c)| c > 0) {
        if !first {
            out.push_str(", ");
        }
        first = false;
        let _ = write!(out, "[{v}, {c}]");
    }
    out.push(']');
    out
}

/// Collects the profile of every paper configuration, prewarming the
/// grid first so the fan-out runs in parallel.
pub fn collect_profiles(lab: &Lab) -> Vec<ConfigProfile> {
    lab.prewarm_all();
    PaperConfig::ALL
        .iter()
        .map(|&c| ConfigProfile::collect(lab, c))
        .collect()
}

/// Renders the cycle-attribution tables of all five configurations (the
/// `ddsc repro --profile` payload).
pub fn render_profiles(profiles: &[ConfigProfile]) -> String {
    let mut out = String::from("## Cycle attribution (audited: buckets sum to total cycles)\n");
    for p in profiles {
        out.push_str(&p.render());
        out.push('\n');
    }
    out
}

/// Writes each profile to `<dir>/profile_<config>.json`, creating `dir`
/// as needed. Each file is published atomically
/// ([`ddsc_util::publish_atomic`]), so a crash mid-report never leaves
/// a torn profile behind. Returns the written paths in configuration
/// order.
pub fn write_profiles(profiles: &[ConfigProfile], dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut paths = Vec::new();
    for p in profiles {
        let path = dir.join(format!("profile_{}.json", p.config.label()));
        ddsc_util::publish_atomic(&path, p.to_json().as_bytes())?;
        paths.push(path);
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Lab, SuiteConfig};

    fn tiny_lab() -> Lab {
        Lab::new(SuiteConfig {
            seed: 3,
            trace_len: 3_000,
            widths: vec![4, 8],
        })
        .with_profiling()
    }

    #[test]
    fn profiles_cover_the_grid_in_deterministic_order() {
        let lab = tiny_lab();
        let profiles = collect_profiles(&lab);
        assert_eq!(profiles.len(), 5);
        for p in &profiles {
            assert_eq!(p.widths, vec![4, 8]);
            assert_eq!(p.cells.len(), 12); // 6 benchmarks x 2 widths
                                           // Benchmark::ALL order, widths ascending inside each.
            let expect: Vec<(Benchmark, u32)> = Benchmark::ALL
                .iter()
                .flat_map(|&b| [(b, 4), (b, 8)])
                .collect();
            let got: Vec<(Benchmark, u32)> =
                p.cells.iter().map(|c| (c.benchmark, c.width)).collect();
            assert_eq!(got, expect);
            for c in &p.cells {
                assert_eq!(c.metrics.attribution.total(), c.cycles);
            }
        }
    }

    #[test]
    fn rendering_shows_every_benchmark_and_cause() {
        let lab = tiny_lab();
        let profiles = collect_profiles(&lab);
        let text = render_profiles(&profiles);
        for b in Benchmark::ALL {
            assert!(text.contains(b.models()));
        }
        for cause in StallCause::ALL {
            assert!(text.contains(&format!("{cause} %")));
        }
        for c in PaperConfig::ALL {
            assert!(text.contains(&format!("config {}", c.label())));
        }
        // Headline width is the widest bounded machine in the sweep.
        assert!(text.contains("width 8"));
    }

    #[test]
    fn json_is_stable_and_written_per_config() {
        let lab = tiny_lab();
        let profiles = collect_profiles(&lab);
        // Two collections over the same lab serialise identically.
        let again = ConfigProfile::collect(&lab, PaperConfig::D);
        let d = profiles
            .iter()
            .find(|p| p.config == PaperConfig::D)
            .unwrap();
        assert_eq!(d.to_json(), again.to_json());
        let dir = std::env::temp_dir().join(format!("ddsc-profile-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let paths = write_profiles(&profiles, &dir).unwrap();
        assert_eq!(paths.len(), 5);
        for (p, path) in profiles.iter().zip(&paths) {
            assert!(path
                .file_name()
                .unwrap()
                .to_str()
                .unwrap()
                .contains(p.config.label()));
            let on_disk = std::fs::read_to_string(path).unwrap();
            assert_eq!(on_disk, p.to_json());
            assert!(on_disk.contains("\"schema\": \"ddsc-profile-v1\""));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
