//! Table regenerators (Tables 1–6).

use ddsc_core::{LoadClass, LoadSpecStats, PaperConfig};
use ddsc_predict::{branch_stats, McFarling};
use ddsc_util::stats::Percent;
use ddsc_util::TextTable;
use ddsc_workloads::Benchmark;

use crate::{Lab, Suite};

fn width_label(w: u32) -> String {
    if w >= 1024 && w.is_multiple_of(1024) {
        format!("{}k", w / 1024)
    } else {
        w.to_string()
    }
}

/// Table 1: benchmark characteristics.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// (benchmark, models, trace length, load %, store %).
    pub rows: Vec<(Benchmark, &'static str, usize, f64, f64)>,
}

impl Table1 {
    /// Renders the table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "name".into(),
            "models".into(),
            "trace size".into(),
            "loads %".into(),
            "stores %".into(),
        ]);
        for (b, models, len, ld, st) in &self.rows {
            t.row(vec![
                b.name().into(),
                (*models).into(),
                len.to_string(),
                format!("{ld:.1}"),
                format!("{st:.1}"),
            ]);
        }
        format!("## Table 1 — benchmark characteristics\n{t}")
    }
}

/// Regenerates Table 1 from a suite.
pub fn table1(suite: &Suite) -> Table1 {
    let rows = suite
        .iter()
        .map(|(b, trace)| {
            let s = trace.stats();
            (
                b,
                b.models(),
                trace.len(),
                s.load_pct().value(),
                Percent::new(s.stores(), s.total()).value(),
            )
        })
        .collect();
    Table1 { rows }
}

/// Table 2: branch characteristics under the paper's 8 KB McFarling
/// predictor.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// (benchmark, conditional-branch %, predicted-correctly %).
    pub rows: Vec<(Benchmark, f64, f64)>,
}

impl Table2 {
    /// The accuracy for one benchmark.
    pub fn accuracy(&self, b: Benchmark) -> Option<f64> {
        self.rows.iter().find(|(x, _, _)| *x == b).map(|r| r.2)
    }

    /// The conditional-branch share for one benchmark.
    pub fn branch_share(&self, b: Benchmark) -> Option<f64> {
        self.rows.iter().find(|(x, _, _)| *x == b).map(|r| r.1)
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "name".into(),
            "cond branches %".into(),
            "predicted correctly %".into(),
        ]);
        for (b, share, acc) in &self.rows {
            t.row(vec![
                b.name().into(),
                format!("{share:.1}"),
                format!("{acc:.1}"),
            ]);
        }
        format!("## Table 2 — benchmark branch characteristics\n{t}")
    }
}

/// Regenerates Table 2 from a suite.
pub fn table2(suite: &Suite) -> Table2 {
    let rows = suite
        .iter()
        .map(|(b, trace)| {
            let s = branch_stats(trace, &mut McFarling::paper_8kb());
            (b, s.branch_pct().value(), s.accuracy_pct().value())
        })
        .collect();
    Table2 { rows }
}

/// Tables 3/4: load-speculation behaviour per width under configuration
/// D, aggregated over a benchmark subset.
#[derive(Debug, Clone)]
pub struct LoadTable {
    /// Paper artifact name.
    pub title: String,
    /// The subset aggregated over.
    pub benchmarks: Vec<Benchmark>,
    /// Per width, the aggregated classification counts.
    pub rows: Vec<(u32, LoadSpecStats)>,
}

impl LoadTable {
    /// The percentage of one class at one width.
    pub fn pct(&self, width: u32, class: LoadClass) -> Option<f64> {
        self.rows
            .iter()
            .find(|(w, _)| *w == width)
            .map(|(_, s)| s.pct(class).value())
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "issue width".into(),
            "ready %".into(),
            "predicted correctly %".into(),
            "predicted incorrectly %".into(),
            "not predicted %".into(),
        ]);
        for (w, s) in &self.rows {
            t.row(vec![
                width_label(*w),
                s.pct(LoadClass::Ready).to_string(),
                s.pct(LoadClass::PredictedCorrect).to_string(),
                s.pct(LoadClass::PredictedIncorrect).to_string(),
                s.pct(LoadClass::NotPredicted).to_string(),
            ]);
        }
        let names: Vec<&str> = self.benchmarks.iter().map(|b| b.name()).collect();
        format!(
            "## {} — load-speculation behaviour, config D ({})\n{t}",
            self.title,
            names.join(", ")
        )
    }
}

fn load_table(lab: &Lab, title: &str, benches: &[Benchmark]) -> LoadTable {
    let widths = lab.widths();
    let rows = widths
        .iter()
        .map(|&w| {
            let mut agg = LoadSpecStats::default();
            for &b in benches {
                agg.merge(&lab.result(b, PaperConfig::D, w).loads);
            }
            (w, agg)
        })
        .collect();
    LoadTable {
        title: title.to_string(),
        benchmarks: benches.to_vec(),
        rows,
    }
}

/// Table 3: load-speculation behaviour for the pointer-chasing subset.
pub fn table3(lab: &Lab) -> LoadTable {
    load_table(lab, "Table 3", &Benchmark::POINTER_CHASING)
}

/// Table 4: load-speculation behaviour for the non-pointer subset.
pub fn table4(lab: &Lab) -> LoadTable {
    load_table(lab, "Table 4", &Benchmark::NON_POINTER_CHASING)
}

/// Tables 5/6: the most frequently collapsed operand-pattern sequences,
/// as a share of all collapsed groups of that size, per width.
#[derive(Debug, Clone)]
pub struct PatternShareTable {
    /// Paper artifact name.
    pub title: String,
    /// Group size (2 for Table 5, 3 for Table 6).
    pub group_size: usize,
    /// Row labels: the top patterns (by widest-machine frequency).
    pub patterns: Vec<String>,
    /// Per width, the pattern shares (%) aligned with `patterns`.
    pub shares: Vec<(u32, Vec<f64>)>,
}

impl PatternShareTable {
    /// Renders the table.
    pub fn render(&self) -> String {
        let mut header = vec!["sequence".to_string()];
        header.extend(self.shares.iter().map(|(w, _)| width_label(*w)));
        let mut t = TextTable::new(header);
        for (i, pat) in self.patterns.iter().enumerate() {
            let mut row = vec![pat.clone()];
            for (_, shares) in &self.shares {
                row.push(format!("{:.2}", shares[i]));
            }
            t.row(row);
        }
        format!(
            "## {} — most frequent collapsed sequences (config D)\n{t}",
            self.title
        )
    }
}

fn pattern_table(lab: &Lab, title: &str, group_size: usize, top_k: usize) -> PatternShareTable {
    let widths = lab.widths();
    // Aggregate per width.
    let mut per_width: Vec<(u32, ddsc_collapse::PatternTable)> = Vec::new();
    for &w in &widths {
        let mut merged = ddsc_collapse::CollapseStats::new();
        for b in Benchmark::ALL {
            merged.merge(&lab.result(b, PaperConfig::D, w).collapse);
        }
        let table = match group_size {
            2 => merged.pairs().clone(),
            3 => merged.triples().clone(),
            _ => merged.quads().clone(),
        };
        per_width.push((w, table));
    }
    // Row labels follow the widest machine, like the paper (sorted by
    // the 2k column).
    let widest = per_width
        .iter()
        .max_by_key(|(w, _)| *w)
        .map(|(_, t)| t.clone())
        .unwrap_or_default();
    let patterns: Vec<String> = widest
        .top(top_k)
        .into_iter()
        .map(|(k, _)| k.to_string())
        .collect();
    let shares = per_width
        .into_iter()
        .map(|(w, table)| {
            let shares = patterns
                .iter()
                .map(|p| {
                    table
                        .iter()
                        .find(|(k, _)| k.to_string() == *p)
                        .map(|(k, _)| table.share(k).value())
                        .unwrap_or(0.0)
                })
                .collect();
            (w, shares)
        })
        .collect();
    PatternShareTable {
        title: title.to_string(),
        group_size,
        patterns,
        shares,
    }
}

/// Table 5: the most frequent collapsed pairs (3-1 sequences).
pub fn table5(lab: &Lab) -> PatternShareTable {
    pattern_table(lab, "Table 5", 2, 12)
}

/// Table 6: the most frequent collapsed triples (4-1 sequences).
pub fn table6(lab: &Lab) -> PatternShareTable {
    pattern_table(lab, "Table 6", 3, 13)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SuiteConfig;

    fn lab() -> Lab {
        Lab::new(SuiteConfig {
            seed: 2,
            trace_len: 8_000,
            widths: vec![8],
        })
    }

    #[test]
    fn table1_covers_the_suite() {
        let lab = lab();
        let t = table1(lab.suite());
        assert_eq!(t.rows.len(), 6);
        assert!(t.render().contains("026.compress"));
    }

    #[test]
    fn table2_accuracies_are_plausible() {
        let lab = lab();
        let t = table2(lab.suite());
        for (b, share, acc) in &t.rows {
            assert!(*share > 3.0 && *share < 40.0, "{b}: share {share}");
            assert!(*acc > 60.0 && *acc <= 100.0, "{b}: acc {acc}");
        }
    }

    #[test]
    fn load_tables_sum_to_100() {
        let lab = lab();
        for t in [table3(&lab), table4(&lab)] {
            for (w, s) in &t.rows {
                if s.total() > 0 {
                    let sum: f64 = [
                        LoadClass::Ready,
                        LoadClass::PredictedCorrect,
                        LoadClass::PredictedIncorrect,
                        LoadClass::NotPredicted,
                    ]
                    .iter()
                    .map(|&c| s.pct(c).value())
                    .sum();
                    assert!((sum - 100.0).abs() < 1e-6, "width {w}: {sum}");
                }
            }
        }
    }

    #[test]
    fn pattern_tables_render_with_rows() {
        let lab = lab();
        let t5 = table5(&lab);
        assert!(!t5.patterns.is_empty(), "pairs must collapse");
        assert!(t5.render().contains("Table 5"));
        let t6 = table6(&lab);
        assert_eq!(t6.group_size, 3);
    }
}
