//! Experiment drivers regenerating every table and figure of the paper.
//!
//! The mapping from paper artifact to driver:
//!
//! | artifact | driver |
//! |---|---|
//! | Table 1 (benchmark characteristics) | [`tables::table1`] |
//! | Table 2 (branch prediction) | [`tables::table2`] |
//! | Figure 2 (IPC, all benchmarks) | [`figures::fig2`] |
//! | Figure 3 (speedup, all benchmarks) | [`figures::fig3`] |
//! | Figures 4/5 (pointer-chasing subset) | [`figures::fig4`], [`figures::fig5`] |
//! | Figures 6/7 (non-pointer subset) | [`figures::fig6`], [`figures::fig7`] |
//! | Table 3 (loads, pointer-chasing, config D) | [`tables::table3`] |
//! | Table 4 (loads, non-pointer, config D) | [`tables::table4`] |
//! | Figure 8 (% instructions collapsed) | [`figures::fig8`] |
//! | Figure 9 (collapsing mechanism contributions) | [`figures::fig9`] |
//! | Figure 10 (collapse distances) | [`figures::fig10`] |
//! | Table 5 (top 3-1 sequences) | [`tables::table5`] |
//! | Table 6 (top 4-1 sequences) | [`tables::table6`] |
//!
//! Beyond the paper, [`extensions`] holds the ablations and future-work
//! experiments (address-predictor upgrades, node elimination, collapse
//! depth/zero-detection/basic-block restrictions).
//!
//! All drivers consume a `&`[`Lab`] — a thread-safe memoising driver
//! that simulates and caches `(benchmark, configuration, width)` results
//! over one generated trace suite, so a full reproduction simulates each
//! combination exactly once. [`Lab::prewarm`] evaluates a cell grid in
//! parallel; [`render_all`] prewarms the full paper grid first, so the
//! figure/table drivers only consume cached results.
//!
//! # Examples
//!
//! ```
//! use ddsc_experiments::{Lab, SuiteConfig};
//!
//! let lab = Lab::new(SuiteConfig {
//!     trace_len: 5_000,
//!     widths: vec![4, 8],
//!     ..SuiteConfig::default()
//! });
//! let fig2 = ddsc_experiments::figures::fig2(&lab);
//! assert_eq!(fig2.series.len(), 5); // configurations A..E
//! ```

pub mod cache;
pub mod cell;
pub mod cellstore;
pub mod converge;
pub mod extensions;
pub mod figures;
pub mod lab;
pub mod parallel;
pub mod profile;
pub mod tables;

pub use cache::{CacheError, ChunkedReader, TraceCache, DEFAULT_FRAME_RECORDS};
pub use cell::{Cell, CellError, CellKey, CellRun, CellRunner, MODEL_VERSION};
pub use cellstore::CellStore;
pub use converge::{convergence_study, ConvergencePoint, ConvergenceReport};
pub use lab::{
    CellFailure, CellMetrics, CellOutcome, CellTiming, FailedCell, Lab, LabReport, PrewarmError,
    Suite, SuiteConfig,
};
pub use profile::{collect_profiles, render_profiles, write_profiles, ConfigProfile, ProfileCell};

/// Renders one paper artifact from a (prewarmed) lab.
pub type ArtifactRenderer = fn(&Lab) -> String;

/// The paper artifacts in publication order, each with its renderer —
/// the single source of truth both [`render_all`] (all-or-nothing) and
/// [`render_all_contained`] (per-artifact fault containment) walk, so
/// the two cannot drift apart.
pub fn paper_artifacts() -> Vec<(&'static str, ArtifactRenderer)> {
    vec![
        ("table1", |lab| tables::table1(lab.suite()).render()),
        ("table2", |lab| tables::table2(lab.suite()).render()),
        ("fig2", |lab| figures::fig2(lab).render()),
        ("fig3", |lab| figures::fig3(lab).render()),
        ("fig4", |lab| figures::fig4(lab).render()),
        ("fig5", |lab| figures::fig5(lab).render()),
        ("fig6", |lab| figures::fig6(lab).render()),
        ("fig7", |lab| figures::fig7(lab).render()),
        ("table3", |lab| tables::table3(lab).render()),
        ("table4", |lab| tables::table4(lab).render()),
        ("fig8", |lab| figures::fig8(lab).render()),
        ("fig9", |lab| figures::fig9(lab).render()),
        ("fig10", |lab| figures::fig10(lab).render()),
        ("table5", |lab| tables::table5(lab).render()),
        ("table6", |lab| tables::table6(lab).render()),
    ]
}

/// Renders every paper artifact in order (the `ddsc repro all` payload).
///
/// Prewarms the full grid over the thread pool first; the individual
/// drivers then consume cached results, so the output is byte-identical
/// to a serial evaluation.
pub fn render_all(lab: &Lab) -> String {
    lab.prewarm_all();
    let parts: Vec<String> = paper_artifacts().iter().map(|(_, f)| f(lab)).collect();
    parts.join("\n")
}

/// Like [`render_all`], but degrades instead of dying: the grid is
/// prewarmed with per-cell fault containment ([`Lab::prewarm_degraded`])
/// and each artifact renders under its own panic guard, so an artifact
/// that touches a failed cell becomes a one-line `[skipped]` note while
/// every other artifact renders normally. On a clean lab the output is
/// byte-identical to [`render_all`].
pub fn render_all_contained(lab: &Lab) -> String {
    lab.prewarm_degraded(&lab.grid());
    let parts: Vec<String> = paper_artifacts()
        .iter()
        .map(|&(name, f)| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(lab))).unwrap_or_else(
                |payload| {
                    format!(
                        "## {name} [skipped: {}]\n",
                        cell::render_panic(payload.as_ref())
                    )
                },
            )
        })
        .collect();
    parts.join("\n")
}
