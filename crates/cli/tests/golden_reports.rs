//! Pinned documents for the five JSON reports.
//!
//! Each report is built from a fixed input and compared with a fixture
//! under `tests/fixtures/`, which the previous hand-rolled writers
//! rendered from the same input. The comparison is on the parsed
//! documents: keys, key order, values and types must match. Numbers
//! match exactly, because the writer rounds each float to the decimals
//! the fixture was printed with; only trailing zeros and whitespace may
//! differ. Each new document must also be a fixed point of the
//! renderer: `render(parse(x)) == x`. The profile fixture holds
//! simulated counts too, so a change that moves results (and bumps
//! `MODEL_VERSION`) re-pins it along with any schema change.

use ddsc_core::{CycleAttribution, PaperConfig};
use ddsc_dist::{DistReport, LeaseStat, MismatchIncident, WorkerReport};
use ddsc_experiments::{
    CellMetrics, CellTiming, ConfigProfile, ConvergencePoint, ConvergenceReport, FailedCell, Lab,
    LabReport, SuiteConfig,
};
use ddsc_serve::{LoadtestConfig, LoadtestReport, StatsSnapshot};
use ddsc_util::Json;
use ddsc_workloads::Benchmark;

fn check(name: &str, new: &str, pinned: &str) {
    let doc = Json::parse(new).unwrap_or_else(|e| panic!("{name}: {e}\n{new}"));
    let want = Json::parse(pinned).unwrap_or_else(|e| panic!("{name} fixture: {e}"));
    assert_eq!(doc, want, "{name}: the document moved; new text:\n{new}");
    assert_eq!(doc.render(), new, "{name}: not a fixed point of render");
}

fn lab_report() -> LabReport {
    let timing = |benchmark, label: &str, width, seconds, rss| CellTiming {
        benchmark,
        label: label.to_string(),
        width,
        instructions: 300_000,
        seconds,
        process_peak_rss_bytes: rss,
    };
    LabReport {
        threads: 2,
        cells: vec![
            timing(Benchmark::Compress, "A", 4, 0.012_345_678_9, 12_345_678),
            timing(Benchmark::Eqntott, "B", 8, 0.5, 23_456_789),
            timing(Benchmark::Li, "D", 2048, 0.0, 0),
        ],
        cell_metrics: vec![CellMetrics {
            benchmark: "026.compress".to_string(),
            config: "A".to_string(),
            width: 4,
            cycles: 100_000,
            attribution: CycleAttribution {
                issue: 60_000,
                branch: 20_000,
                memory: 5_000,
                address: 4_000,
                long_latency: 3_000,
                window_full: 2_000,
                dep_height: 6_000,
            },
        }],
        failed_cells: vec![
            FailedCell {
                benchmark: "023.eqntott".to_string(),
                config: "B".to_string(),
                width: 8,
                timed_out: false,
                error: "injected fault: \"eqntott\"\nsecond line \\ tab\t\u{1} end".to_string(),
            },
            FailedCell {
                benchmark: "022.li".to_string(),
                config: "E".to_string(),
                width: 4,
                timed_out: true,
                error: "cell timed out".to_string(),
            },
        ],
        resumed_cells: 3,
        replayed_cells: 1,
        prepass: vec![
            ("026.compress".to_string(), 0.010_5),
            ("023.eqntott".to_string(), 0.25),
        ],
        serial_seconds: 0.512_345_678_9,
        wall_seconds: 0.3,
    }
}

#[test]
fn lab_report_matches_its_pinned_document() {
    check(
        "BENCH_lab",
        &lab_report().to_json(),
        include_str!("fixtures/BENCH_lab.json"),
    );
    // One thread, nothing run: `null` speedup and empty sections.
    let empty = LabReport {
        threads: 1,
        cells: Vec::new(),
        cell_metrics: Vec::new(),
        failed_cells: Vec::new(),
        resumed_cells: 0,
        replayed_cells: 0,
        prepass: Vec::new(),
        serial_seconds: 0.0,
        wall_seconds: 0.0,
    };
    check(
        "BENCH_lab (empty)",
        &empty.to_json(),
        include_str!("fixtures/BENCH_lab_empty.json"),
    );
}

#[test]
fn dist_report_matches_its_pinned_document() {
    let report = DistReport {
        cells_total: 30,
        cells_completed: 29,
        cells_quarantined: 1,
        redispatched: 4,
        duplicate_results: 2,
        corrupt_results: 1,
        worker_deaths: 1,
        spot_checked: 3,
        mismatches: 1,
        byzantine_workers: vec![2],
        revocation_false_positives: 0,
        adaptive_lease: true,
        lease_stats: vec![
            LeaseStat {
                bench: "compress".to_string(),
                samples: 5,
                p50_s: 0.012_345_6,
                p95_s: 0.045_678_9,
                timeout_s: 1.234_56,
            },
            LeaseStat {
                bench: "li".to_string(),
                samples: 0,
                p50_s: 0.0,
                p95_s: 0.0,
                timeout_s: 30.0,
            },
        ],
        incidents: vec![MismatchIncident {
            digest: 0x0123_4567_89ab_cdef,
            bench: "li".to_string(),
            config: "D".to_string(),
            width: 8,
            workers: vec![1, 2, 3],
            byzantine: vec![2],
            resolved: true,
        }],
        workers: vec![
            WorkerReport {
                id: 1,
                cells: 15,
                alive: true,
                byzantine: false,
            },
            WorkerReport {
                id: 2,
                cells: 0,
                alive: false,
                byzantine: true,
            },
            WorkerReport {
                id: 3,
                cells: 14,
                alive: true,
                byzantine: false,
            },
        ],
        compute_seconds: 12.345_678_9,
        wall_seconds: 4.5,
    };
    check(
        "BENCH_dist",
        &report.to_json(),
        include_str!("fixtures/BENCH_dist.json"),
    );
}

#[test]
fn convergence_report_matches_its_pinned_document() {
    let report = ConvergenceReport {
        benchmark: Benchmark::Li,
        config: PaperConfig::D,
        width: 8,
        seed: 1996,
        chunk_size: 8192,
        points: vec![
            ConvergencePoint {
                len: 1000,
                instructions: 1000,
                cycles: 400,
                ipc: 2.5,
                seconds: 0.001_234_567,
                peak_rss_bytes: 1_000_000,
            },
            ConvergencePoint {
                len: 4000,
                instructions: 4000,
                cycles: 1628,
                ipc: 4000.0 / 1628.0,
                seconds: 0.003,
                peak_rss_bytes: 1_048_576,
            },
        ],
    };
    check(
        "BENCH_convergence",
        &report.to_json(),
        include_str!("fixtures/BENCH_convergence.json"),
    );
}

#[test]
fn loadtest_report_matches_its_pinned_document() {
    let cfg = LoadtestConfig {
        addr: "127.0.0.1:4996".to_string(),
        requests: 300,
        clients: 16,
        dup_ratio: 0.6,
        trace_len: 2000,
        seed: 1996,
        widths: vec![4, 8],
        ..LoadtestConfig::default()
    };
    let report = LoadtestReport {
        completed: 290,
        rejected: 5,
        failed: 3,
        timed_out: 2,
        unique_cells: 120,
        duplicates: 180,
        wall_seconds: 2.345_678_9,
        throughput_rps: 123.456_789,
        latency_ms: (1.234_56, 2.5, 3.75, 10.0),
        mean_ms: 1.9,
        max_ms: 12.345_6,
        server: StatsSnapshot {
            accepted: 125,
            completed: 120,
            failed: 3,
            timed_out: 2,
            rejected_busy: 5,
            rejected_invalid: 0,
            coalesced: 70,
            cache_hits: 110,
            resumed_cells: 0,
            queue_depth: 0,
            workers: 4,
        },
    };
    check(
        "BENCH_serve",
        &report.to_json(&cfg),
        include_str!("fixtures/BENCH_serve.json"),
    );
}

#[test]
fn profile_matches_its_pinned_document() {
    let lab = Lab::new(SuiteConfig {
        seed: 3,
        trace_len: 2_000,
        widths: vec![4],
    })
    .with_profiling();
    check(
        "profile_D",
        &ConfigProfile::collect(&lab, PaperConfig::D).to_json(),
        include_str!("fixtures/profile_D.json"),
    );
}
