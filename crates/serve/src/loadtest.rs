//! A closed-loop multi-client load driver for `ddsc serve`.
//!
//! The driver builds a deterministic request plan from a seed — a mix
//! of fresh grid cells (cycling benchmark × config × width, bumping the
//! data seed each full lap) and duplicates of earlier requests at a
//! configurable ratio — then fires it from `clients` threads, each
//! owning one connection and every `clients`-th request, closed loop
//! (next request only after the previous one's terminal frame).
//!
//! Per-request latency is recorded wall-clock from the `Submit` write
//! to the terminal frame; the summary publishes
//! `results/BENCH_serve.json` (schema `ddsc-serve-bench-v1`) with
//! p50/p90/p99/p999, throughput, and the server's own coalesce /
//! cache-hit counters fetched from the stats endpoint — the counters
//! are the proof that duplicate requests did not re-simulate.

use std::collections::HashSet;
use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Instant;

use ddsc_core::PaperConfig;
use ddsc_util::{percentile, publish_atomic, Json, Pcg32};
use ddsc_workloads::Benchmark;

use crate::engine::request_digest;
use crate::proto::{
    read_response, write_request, Request, Response, StatsSnapshot, SubmitRequest, WireError,
};

/// Load-test parameters.
#[derive(Debug, Clone)]
pub struct LoadtestConfig {
    /// Server address, `host:port`.
    pub addr: String,
    /// Total requests to fire.
    pub requests: usize,
    /// Concurrent closed-loop client threads.
    pub clients: usize,
    /// Fraction of requests (after the first) that repeat an earlier
    /// request, exercising coalescing and the result cache. Must lie in
    /// [0, 1].
    pub dup_ratio: f64,
    /// Trace length for every generated cell.
    pub trace_len: u64,
    /// Plan seed (request mix) and base data seed.
    pub seed: u64,
    /// Issue widths cycled through the unique-cell grid.
    pub widths: Vec<u32>,
    /// Artifact path for the BENCH JSON.
    pub out: PathBuf,
    /// Send a `Shutdown` request once the run completes.
    pub shutdown: bool,
}

impl Default for LoadtestConfig {
    fn default() -> LoadtestConfig {
        LoadtestConfig {
            addr: "127.0.0.1:4996".to_string(),
            requests: 1000,
            clients: 32,
            dup_ratio: 0.5,
            trace_len: 2000,
            seed: 1996,
            widths: vec![4, 8],
            out: PathBuf::from("results/BENCH_serve.json"),
            shutdown: false,
        }
    }
}

/// Aggregated outcome of one load-test run.
#[derive(Debug, Clone)]
pub struct LoadtestReport {
    /// Requests that returned a `Result` frame.
    pub completed: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Requests that returned `Failed` or `Invalid`.
    pub failed: u64,
    /// Requests that returned `TimedOut`.
    pub timed_out: u64,
    /// Distinct cell digests in the plan.
    pub unique_cells: u64,
    /// Planned duplicate requests.
    pub duplicates: u64,
    /// Wall-clock for the whole run, seconds.
    pub wall_seconds: f64,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Latency percentiles in milliseconds: (p50, p90, p99, p999).
    pub latency_ms: (f64, f64, f64, f64),
    /// Mean latency, milliseconds.
    pub mean_ms: f64,
    /// Max latency, milliseconds.
    pub max_ms: f64,
    /// Server counters fetched after the run.
    pub server: StatsSnapshot,
}

impl LoadtestReport {
    /// Renders the BENCH document (schema `ddsc-serve-bench-v1`) of a
    /// run made with `cfg`.
    pub fn to_json(&self, cfg: &LoadtestConfig) -> String {
        let (p50, p90, p99, p999) = self.latency_ms;
        let s = &self.server;
        Json::obj([
            ("schema", "ddsc-serve-bench-v1".into()),
            ("addr", cfg.addr.as_str().into()),
            ("requests", cfg.requests.into()),
            ("clients", cfg.clients.into()),
            ("duplicate_ratio", cfg.dup_ratio.into()),
            ("trace_len", cfg.trace_len.into()),
            ("seed", cfg.seed.into()),
            ("widths", cfg.widths.iter().copied().collect()),
            ("unique_cells", self.unique_cells.into()),
            ("duplicates", self.duplicates.into()),
            ("completed", self.completed.into()),
            ("rejected", self.rejected.into()),
            ("failed", self.failed.into()),
            ("timed_out", self.timed_out.into()),
            ("wall_seconds", Json::fixed(self.wall_seconds, 6)),
            ("throughput_rps", Json::fixed(self.throughput_rps, 3)),
            (
                "latency_ms",
                Json::obj([
                    ("p50", Json::fixed(p50, 3)),
                    ("p90", Json::fixed(p90, 3)),
                    ("p99", Json::fixed(p99, 3)),
                    ("p999", Json::fixed(p999, 3)),
                    ("mean", Json::fixed(self.mean_ms, 3)),
                    ("max", Json::fixed(self.max_ms, 3)),
                ]),
            ),
            (
                "server",
                Json::obj([
                    ("accepted", s.accepted.into()),
                    ("completed", s.completed.into()),
                    ("failed", s.failed.into()),
                    ("timed_out", s.timed_out.into()),
                    ("rejected_busy", s.rejected_busy.into()),
                    ("rejected_invalid", s.rejected_invalid.into()),
                    ("coalesced", s.coalesced.into()),
                    ("cache_hits", s.cache_hits.into()),
                    ("resumed_cells", s.resumed_cells.into()),
                    ("queue_depth", s.queue_depth.into()),
                    ("workers", s.workers.into()),
                ]),
            ),
        ])
        .render()
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum TerminalKind {
    Completed,
    Rejected,
    Failed,
    TimedOut,
}

struct Sample {
    latency_ms: f64,
    kind: TerminalKind,
}

/// Builds the deterministic request plan: `(request, is_duplicate)`.
fn build_plan(cfg: &LoadtestConfig) -> Vec<(SubmitRequest, bool)> {
    let mut rng = Pcg32::new(cfg.seed);
    let widths = if cfg.widths.is_empty() {
        vec![4]
    } else {
        cfg.widths.clone()
    };
    let grid: Vec<(Benchmark, PaperConfig, u32)> = Benchmark::ALL
        .into_iter()
        .flat_map(|b| {
            PaperConfig::ALL
                .into_iter()
                .flat_map(|c| widths.iter().map(move |&w| (b, c, w)))
                .collect::<Vec<_>>()
        })
        .collect();
    let dup_permille = (cfg.dup_ratio * 1000.0).round() as u32;

    let mut plan: Vec<(SubmitRequest, bool)> = Vec::with_capacity(cfg.requests);
    let mut next_unique = 0usize;
    for i in 0..cfg.requests {
        let duplicate = i > 0 && rng.range(0, 1000) < dup_permille;
        if duplicate {
            let j = rng.range(0, i as u32) as usize;
            plan.push((plan[j].0.clone(), true));
        } else {
            let (bench, config, width) = grid[next_unique % grid.len()];
            // A full lap of the grid bumps the data seed, keeping
            // cells unique without growing the grid definition.
            let seed = cfg.seed + (next_unique / grid.len()) as u64;
            next_unique += 1;
            plan.push((
                SubmitRequest {
                    bench: bench.name().to_string(),
                    config: config.label().to_string(),
                    width,
                    trace_len: cfg.trace_len,
                    seed,
                },
                false,
            ));
        }
    }
    plan
}

fn drive_client(
    addr: &str,
    work: &[&SubmitRequest],
) -> Result<Vec<Sample>, Box<dyn std::error::Error>> {
    let stream = TcpStream::connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut samples = Vec::with_capacity(work.len());
    for req in work {
        let start = Instant::now();
        write_request(&mut writer, &Request::Submit((*req).clone()))?;
        use std::io::Write as _;
        writer.flush()?;
        let kind = loop {
            match read_response(&mut reader)? {
                None => return Err(Box::new(WireError::Truncated)),
                Some(Response::Queued { .. }) | Some(Response::Started) => continue,
                Some(Response::Result { .. }) => break TerminalKind::Completed,
                Some(Response::Rejected { .. }) => break TerminalKind::Rejected,
                Some(Response::TimedOut { .. }) => break TerminalKind::TimedOut,
                Some(Response::Invalid { .. }) | Some(Response::Failed { .. }) => {
                    break TerminalKind::Failed
                }
                Some(other) => {
                    return Err(format!("unexpected response {other:?}").into());
                }
            }
        };
        samples.push(Sample {
            latency_ms: start.elapsed().as_secs_f64() * 1e3,
            kind,
        });
    }
    Ok(samples)
}

/// Runs the load test against a live server and publishes the BENCH
/// artifact.
///
/// # Errors
///
/// Refuses a `dup_ratio` outside [0, 1] (NaN included) before any
/// connection; otherwise returns connection errors, protocol
/// violations, or a publish failure.
pub fn run_loadtest(cfg: &LoadtestConfig) -> Result<LoadtestReport, Box<dyn std::error::Error>> {
    if !(0.0..=1.0).contains(&cfg.dup_ratio) {
        return Err(format!("dup ratio must lie in [0, 1], got {}", cfg.dup_ratio).into());
    }
    let plan = build_plan(cfg);
    let duplicates = plan.iter().filter(|(_, dup)| *dup).count() as u64;
    let unique_cells = plan
        .iter()
        .map(|(r, _)| request_digest(&r.bench, &r.config, r.width, r.trace_len, r.seed))
        .collect::<HashSet<u64>>()
        .len() as u64;

    let clients = cfg.clients.clamp(1, cfg.requests.max(1));
    let started = Instant::now();
    let per_client: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|scope| {
        let plan = &plan;
        let addr = cfg.addr.as_str();
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                scope.spawn(move || {
                    let work: Vec<&SubmitRequest> = plan
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| i % clients == t)
                        .map(|(_, (req, _))| req)
                        .collect();
                    drive_client(addr, &work).map_err(|e| e.to_string())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let wall_seconds = started.elapsed().as_secs_f64();

    let mut samples = Vec::with_capacity(cfg.requests);
    for result in per_client {
        samples.extend(result.map_err(|e| format!("client thread failed: {e}"))?);
    }

    let count = |k: TerminalKind| samples.iter().filter(|s| s.kind == k).count() as u64;
    let completed = count(TerminalKind::Completed);
    let rejected = count(TerminalKind::Rejected);
    let failed = count(TerminalKind::Failed);
    let timed_out = count(TerminalKind::TimedOut);

    let mut latencies: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    latencies.sort_by(|a, b| a.total_cmp(b));
    let pct = |p: f64| percentile(&latencies, p).unwrap_or(0.0);
    let latency_ms = (pct(50.0), pct(90.0), pct(99.0), pct(99.9));
    let mean_ms = ddsc_util::mean(&latencies).unwrap_or(0.0);
    let max_ms = latencies.last().copied().unwrap_or(0.0);
    let throughput_rps = if wall_seconds > 0.0 {
        completed as f64 / wall_seconds
    } else {
        0.0
    };

    // One control connection: counters, then the optional shutdown.
    let server = {
        let stream = TcpStream::connect(&cfg.addr)?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = BufWriter::new(stream);
        use std::io::Write as _;
        write_request(&mut writer, &Request::Stats)?;
        writer.flush()?;
        let snapshot = match read_response(&mut reader)? {
            Some(Response::Stats(s)) => s,
            other => return Err(format!("expected Stats response, got {other:?}").into()),
        };
        if cfg.shutdown {
            write_request(&mut writer, &Request::Shutdown)?;
            writer.flush()?;
            let _ = read_response(&mut reader);
        }
        snapshot
    };

    let report = LoadtestReport {
        completed,
        rejected,
        failed,
        timed_out,
        unique_cells,
        duplicates,
        wall_seconds,
        throughput_rps,
        latency_ms,
        mean_ms,
        max_ms,
        server,
    };
    publish_atomic(&cfg.out, report.to_json(cfg).as_bytes())?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic_and_respects_dup_ratio() {
        let cfg = LoadtestConfig {
            requests: 500,
            dup_ratio: 0.5,
            ..LoadtestConfig::default()
        };
        let a = build_plan(&cfg);
        let b = build_plan(&cfg);
        assert_eq!(a.len(), 500);
        assert_eq!(
            a.iter().map(|(r, _)| r.clone()).collect::<Vec<_>>(),
            b.iter().map(|(r, _)| r.clone()).collect::<Vec<_>>(),
            "same seed, same plan"
        );
        let dups = a.iter().filter(|(_, d)| *d).count();
        // 50% ± a generous tolerance at n=500.
        assert!((150..=350).contains(&dups), "dups {dups}");
        assert!(!a[0].1, "first request can never be a duplicate");
        // Every duplicate repeats an earlier request verbatim.
        for (i, (req, dup)) in a.iter().enumerate() {
            if *dup {
                assert!(a[..i].iter().any(|(r, _)| r == req), "dup {i} has a source");
            }
        }
    }

    #[test]
    fn plan_with_zero_dup_ratio_is_all_unique() {
        let cfg = LoadtestConfig {
            requests: 200,
            dup_ratio: 0.0,
            ..LoadtestConfig::default()
        };
        let plan = build_plan(&cfg);
        let digests: HashSet<u64> = plan
            .iter()
            .map(|(r, _)| request_digest(&r.bench, &r.config, r.width, r.trace_len, r.seed))
            .collect();
        assert_eq!(digests.len(), 200, "all cells distinct");
    }

    #[test]
    fn an_out_of_range_dup_ratio_is_refused_before_connecting() {
        // A port nothing listens on: a run that got as far as
        // connecting would fail there, with another error.
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("local addr").to_string()
        };
        for ratio in [f64::NAN, -0.1, 1.5] {
            let cfg = LoadtestConfig {
                addr: addr.clone(),
                requests: 4,
                clients: 1,
                dup_ratio: ratio,
                ..LoadtestConfig::default()
            };
            let err = run_loadtest(&cfg).expect_err("refused");
            assert_eq!(
                err.to_string(),
                format!("dup ratio must lie in [0, 1], got {ratio}")
            );
        }
    }

    #[test]
    fn bench_json_renders_parseable_with_stable_keys() {
        let cfg = LoadtestConfig::default();
        let report = LoadtestReport {
            completed: 10,
            rejected: 1,
            failed: 0,
            timed_out: 0,
            unique_cells: 5,
            duplicates: 6,
            wall_seconds: 1.5,
            throughput_rps: 6.67,
            latency_ms: (1.0, 2.0, 3.0, 4.0),
            mean_ms: 1.4,
            max_ms: 4.2,
            server: StatsSnapshot::default(),
        };
        let json = report.to_json(&cfg);
        let doc = Json::parse(&json).expect("valid JSON");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("ddsc-serve-bench-v1")
        );
        let latency = doc.get("latency_ms").expect("latency object");
        assert_eq!(
            latency.keys(),
            vec!["p50", "p90", "p99", "p999", "mean", "max"]
        );
        assert_eq!(latency.get("p99").and_then(Json::as_f64), Some(3.0));
        let server = doc.get("server").expect("server object");
        assert_eq!(server.get("coalesced").and_then(Json::as_f64), Some(0.0));
    }
}
