//! Figure regenerators (Figures 2–10).

use ddsc_collapse::CollapseCategory;
use ddsc_core::PaperConfig;
use ddsc_util::stats::{harmonic_mean, Percent};
use ddsc_util::TextTable;
use ddsc_workloads::Benchmark;

use crate::Lab;

fn width_label(w: u32) -> String {
    if w >= 1024 && w.is_multiple_of(1024) {
        format!("{}k", w / 1024)
    } else {
        w.to_string()
    }
}

/// A family of per-configuration series over the width sweep, as plotted
/// in Figures 2–7.
#[derive(Debug, Clone)]
pub struct ConfigSweep {
    /// Paper artifact name, e.g. "Figure 2".
    pub title: String,
    /// What the values are ("IPC" or "speedup over A").
    pub metric: &'static str,
    /// The benchmarks aggregated over.
    pub benchmarks: Vec<Benchmark>,
    /// One series per configuration: (config, Vec<(width, value)>).
    pub series: Vec<(PaperConfig, Vec<(u32, f64)>)>,
}

impl ConfigSweep {
    /// The value for one configuration and width.
    pub fn value(&self, c: PaperConfig, width: u32) -> Option<f64> {
        self.series
            .iter()
            .find(|(x, _)| *x == c)
            .and_then(|(_, pts)| pts.iter().find(|(w, _)| *w == width))
            .map(|(_, v)| *v)
    }

    /// Renders the figure as an aligned table (series × widths).
    pub fn render(&self) -> String {
        let mut header = vec!["config".to_string()];
        if let Some((_, pts)) = self.series.first() {
            header.extend(pts.iter().map(|(w, _)| width_label(*w)));
        }
        let mut t = TextTable::new(header);
        for (c, pts) in &self.series {
            let mut row = vec![c.label().to_string()];
            row.extend(pts.iter().map(|(_, v)| format!("{v:.3}")));
            t.row(row);
        }
        let names: Vec<&str> = self.benchmarks.iter().map(|b| b.name()).collect();
        format!(
            "## {} — harmonic-mean {} ({})\n{}",
            self.title,
            self.metric,
            names.join(", "),
            t
        )
    }
}

fn sweep_ipc(lab: &Lab, title: &str, benches: &[Benchmark]) -> ConfigSweep {
    let widths = lab.widths();
    let series = PaperConfig::ALL
        .iter()
        .map(|&c| {
            let pts = widths
                .iter()
                .map(|&w| {
                    let ipcs = lab.ipcs(benches, c, w);
                    (w, harmonic_mean(&ipcs).unwrap_or(0.0))
                })
                .collect();
            (c, pts)
        })
        .collect();
    ConfigSweep {
        title: title.to_string(),
        metric: "IPC",
        benchmarks: benches.to_vec(),
        series,
    }
}

fn sweep_speedup(lab: &Lab, title: &str, benches: &[Benchmark]) -> ConfigSweep {
    let widths = lab.widths();
    let series = PaperConfig::ALL
        .iter()
        .map(|&c| {
            let pts = widths
                .iter()
                .map(|&w| {
                    let sp = lab.speedups(benches, c, w);
                    (w, harmonic_mean(&sp).unwrap_or(0.0))
                })
                .collect();
            (c, pts)
        })
        .collect();
    ConfigSweep {
        title: title.to_string(),
        metric: "speedup over A",
        benchmarks: benches.to_vec(),
        series,
    }
}

/// Figure 2: harmonic-mean IPC of configurations A–E over all benchmarks.
pub fn fig2(lab: &Lab) -> ConfigSweep {
    sweep_ipc(lab, "Figure 2", &Benchmark::ALL)
}

/// Figure 3: harmonic-mean speedup over the base machine, all benchmarks.
pub fn fig3(lab: &Lab) -> ConfigSweep {
    sweep_speedup(lab, "Figure 3", &Benchmark::ALL)
}

/// Figure 4: IPC for the pointer-chasing subset (`go`, `li`).
pub fn fig4(lab: &Lab) -> ConfigSweep {
    sweep_ipc(lab, "Figure 4", &Benchmark::POINTER_CHASING)
}

/// Figure 5: speedup for the pointer-chasing subset.
pub fn fig5(lab: &Lab) -> ConfigSweep {
    sweep_speedup(lab, "Figure 5", &Benchmark::POINTER_CHASING)
}

/// Figure 6: IPC for the non-pointer-chasing subset.
pub fn fig6(lab: &Lab) -> ConfigSweep {
    sweep_ipc(lab, "Figure 6", &Benchmark::NON_POINTER_CHASING)
}

/// Figure 7: speedup for the non-pointer-chasing subset.
pub fn fig7(lab: &Lab) -> ConfigSweep {
    sweep_speedup(lab, "Figure 7", &Benchmark::NON_POINTER_CHASING)
}

/// Figure 8 data: percentage of instructions collapsed, per width, under
/// configuration D, aggregated over all benchmarks.
#[derive(Debug, Clone)]
pub struct CollapsedFraction {
    /// (width, % of instructions participating in a collapse).
    pub points: Vec<(u32, f64)>,
}

impl CollapsedFraction {
    /// Renders the figure.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec!["width".into(), "collapsed %".into()]);
        for (w, v) in &self.points {
            t.row(vec![width_label(*w), format!("{v:.1}")]);
        }
        format!("## Figure 8 — instructions d-collapsed (config D)\n{t}")
    }
}

/// Figure 8: fraction of instructions collapsed under configuration D.
pub fn fig8(lab: &Lab) -> CollapsedFraction {
    let widths = lab.widths();
    let points = widths
        .iter()
        .map(|&w| {
            let mut collapsed = 0u64;
            let mut total = 0u64;
            for b in Benchmark::ALL {
                let r = lab.result(b, PaperConfig::D, w);
                collapsed += r.collapse.collapsed_insts();
                total += r.instructions;
            }
            (w, Percent::new(collapsed, total).value())
        })
        .collect();
    CollapsedFraction { points }
}

/// Figure 9 data: contribution of the 3-1 / 4-1 / zero-detection
/// mechanisms per width, configuration D.
#[derive(Debug, Clone)]
pub struct CategoryShares {
    /// (width, [3-1 %, 4-1 %, 0-op %]).
    pub points: Vec<(u32, [f64; 3])>,
}

impl CategoryShares {
    /// Renders the figure.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "width".into(),
            "3-1 %".into(),
            "4-1 %".into(),
            "0-op %".into(),
        ]);
        for (w, [a, b, c]) in &self.points {
            t.row(vec![
                width_label(*w),
                format!("{a:.1}"),
                format!("{b:.1}"),
                format!("{c:.1}"),
            ]);
        }
        format!("## Figure 9 — collapsing mechanism contributions (config D)\n{t}")
    }
}

/// Figure 9: share of each collapsing mechanism under configuration D.
pub fn fig9(lab: &Lab) -> CategoryShares {
    let widths = lab.widths();
    let points = widths
        .iter()
        .map(|&w| {
            let mut merged = ddsc_collapse::CollapseStats::new();
            for b in Benchmark::ALL {
                merged.merge(&lab.result(b, PaperConfig::D, w).collapse);
            }
            (
                w,
                [
                    merged.category_pct(CollapseCategory::ThreeOne).value(),
                    merged.category_pct(CollapseCategory::FourOne).value(),
                    merged.category_pct(CollapseCategory::ZeroOp).value(),
                ],
            )
        })
        .collect();
    CategoryShares { points }
}

/// Figure 10 data: collapse-distance distribution per width, config D.
#[derive(Debug, Clone)]
pub struct DistanceDistribution {
    /// Per width: share (%) of collapsed dependences at distance 1,
    /// 2..=7, and 8 or more.
    pub points: Vec<(u32, [f64; 3])>,
    /// Per width: mean distance.
    pub means: Vec<(u32, f64)>,
}

impl DistanceDistribution {
    /// Renders the figure.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "width".into(),
            "dist 1 %".into(),
            "dist 2-7 %".into(),
            "dist >=8 %".into(),
            "mean".into(),
        ]);
        for ((w, [d1, mid, far]), (_, mean)) in self.points.iter().zip(&self.means) {
            t.row(vec![
                width_label(*w),
                format!("{d1:.1}"),
                format!("{mid:.1}"),
                format!("{far:.1}"),
                format!("{mean:.2}"),
            ]);
        }
        format!("## Figure 10 — distance between d-collapsed instructions (config D)\n{t}")
    }
}

/// Figure 10: distance between collapsed instructions, configuration D.
pub fn fig10(lab: &Lab) -> DistanceDistribution {
    let widths = lab.widths();
    let mut points = Vec::new();
    let mut means = Vec::new();
    for &w in &widths {
        let mut merged = ddsc_collapse::CollapseStats::new();
        for b in Benchmark::ALL {
            merged.merge(&lab.result(b, PaperConfig::D, w).collapse);
        }
        let h = merged.distance();
        let below2 = h.fraction_below(2);
        let below8 = h.fraction_below(8);
        points.push((
            w,
            [
                100.0 * below2,
                100.0 * (below8 - below2),
                100.0 * (1.0 - below8),
            ],
        ));
        means.push((w, h.mean().unwrap_or(0.0)));
    }
    DistanceDistribution { points, means }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SuiteConfig;

    fn lab() -> Lab {
        Lab::new(SuiteConfig {
            seed: 5,
            trace_len: 8_000,
            widths: vec![4, 16],
        })
    }

    #[test]
    fn fig2_has_all_series_and_widths() {
        let lab = lab();
        let f = fig2(&lab);
        assert_eq!(f.series.len(), 5);
        for (_, pts) in &f.series {
            assert_eq!(pts.len(), 2);
        }
        assert!(f.value(PaperConfig::A, 4).unwrap() > 0.0);
        assert!(f.render().contains("Figure 2"));
    }

    #[test]
    fn fig3_speedups_relative_to_a_are_at_least_one_for_e() {
        let lab = lab();
        let f = fig3(&lab);
        let a = f.value(PaperConfig::A, 16).unwrap();
        assert!((a - 1.0).abs() < 1e-9, "A over A is 1.0");
        let e = f.value(PaperConfig::E, 16).unwrap();
        assert!(e >= 1.0, "E cannot lose to the base machine, got {e}");
    }

    #[test]
    fn collapse_figures_are_consistent() {
        let lab = lab();
        let f8 = fig8(&lab);
        assert!(f8.points.iter().all(|(_, v)| (0.0..=100.0).contains(v)));
        let f9 = fig9(&lab);
        for (_, shares) in &f9.points {
            let sum: f64 = shares.iter().sum();
            assert!((sum - 100.0).abs() < 1.0, "shares sum to 100, got {sum}");
        }
        let f10 = fig10(&lab);
        for (_, shares) in &f10.points {
            let sum: f64 = shares.iter().sum();
            assert!((sum - 100.0).abs() < 1.0);
        }
    }

    #[test]
    fn subset_figures_use_the_right_benchmarks() {
        let lab = lab();
        assert_eq!(fig4(&lab).benchmarks, Benchmark::POINTER_CHASING.to_vec());
        assert_eq!(
            fig6(&lab).benchmarks,
            Benchmark::NON_POINTER_CHASING.to_vec()
        );
    }
}
