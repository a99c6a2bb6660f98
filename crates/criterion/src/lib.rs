//! A self-contained, offline stand-in for the `criterion` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the slice of criterion's API its benches use: [`Criterion`],
//! [`BenchmarkGroup`] (`sample_size` / `throughput` / `bench_function` /
//! `finish`), [`Bencher::iter`], [`Throughput`], [`black_box`], and the
//! [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Instead of criterion's adaptive sampling and statistics, each
//! benchmark runs three untimed iterations followed by `sample_size`
//! timed iterations (capped by a per-benchmark time budget) and reports
//! the minimum / mean / maximum wall-clock time plus derived throughput.
//! That is enough to compare before/after numbers on the same host,
//! which is all this repo's benches are for.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Maximum wall-clock budget spent measuring one benchmark.
const TIME_BUDGET: Duration = Duration::from_secs(5);

/// Untimed calls before a benchmark's first sample. One call leaves the
/// first function of a group paying the allocator's first-touch costs
/// in its samples (it read slower than a later function doing more
/// work); three let every function reach its steady state first.
const WARM_UP_CALLS: usize = 3;

/// How the harness scales measured times into a rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Elements processed per iteration (reported as Melem/s).
    Elements(u64),
    /// Bytes processed per iteration (reported as MiB/s).
    Bytes(u64),
}

/// Top-level harness state: a name filter plus defaults for groups.
#[derive(Debug)]
pub struct Criterion {
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        // `cargo bench` passes `--bench` (and test harness flags may
        // appear too); any bare argument is a substring filter.
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Criterion { filter }
    }
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            sample_size: 100,
            throughput: None,
        }
    }

    /// Runs one ungrouped benchmark with the default sample size.
    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full_id = id.to_string();
        if self.matches(&full_id) {
            let mut bencher = Bencher {
                sample_size: 100,
                samples: Vec::new(),
            };
            f(&mut bencher);
            report(&full_id, &bencher.samples, None);
        }
        self
    }

    fn matches(&self, id: &str) -> bool {
        match &self.filter {
            Some(f) => id.contains(f.as_str()),
            None => true,
        }
    }
}

/// A group of benchmarks sharing sampling settings and throughput.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed iterations per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Declares the work done per iteration for rate reporting.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark if it passes the harness filter.
    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full_id = format!("{}/{}", self.name, id);
        if !self.criterion.matches(&full_id) {
            return self;
        }
        let mut bencher = Bencher {
            sample_size: self.sample_size,
            samples: Vec::new(),
        };
        f(&mut bencher);
        report(&full_id, &bencher.samples, self.throughput);
        self
    }

    /// Ends the group (retained for API compatibility).
    pub fn finish(&mut self) {}
}

/// Passed to each benchmark body; times the routine.
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    samples: Vec<Duration>,
}

impl Bencher {
    /// Times `routine`: three untimed warm-up calls, then up to
    /// `sample_size` measured calls within the time budget.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        for _ in 0..WARM_UP_CALLS {
            black_box(routine());
        }
        let budget_start = Instant::now();
        self.samples.clear();
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            black_box(routine());
            self.samples.push(t0.elapsed());
            if budget_start.elapsed() > TIME_BUDGET {
                break;
            }
        }
    }
}

fn report(id: &str, samples: &[Duration], throughput: Option<Throughput>) {
    if samples.is_empty() {
        println!("{id:<40} (no samples)");
        return;
    }
    let total: Duration = samples.iter().sum();
    let mean = total / samples.len() as u32;
    let min = samples.iter().min().copied().unwrap_or_default();
    let max = samples.iter().max().copied().unwrap_or_default();
    let rate = throughput.map(|t| match t {
        Throughput::Elements(n) => {
            format!("{:10.3} Melem/s", n as f64 / mean.as_secs_f64() / 1e6)
        }
        Throughput::Bytes(n) => {
            format!(
                "{:10.3} MiB/s",
                n as f64 / mean.as_secs_f64() / (1024.0 * 1024.0)
            )
        }
    });
    println!(
        "{id:<40} [{} {} {}] x{}{}",
        fmt_dur(min),
        fmt_dur(mean),
        fmt_dur(max),
        samples.len(),
        rate.map(|r| format!("  {r}")).unwrap_or_default(),
    );
}

fn fmt_dur(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.2} µs", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1e6)
    } else {
        format!("{:.2} s", nanos as f64 / 1e9)
    }
}

/// Declares a benchmark group function from a list of `fn(&mut
/// Criterion)` targets (the positional form only).
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares `main` from one or more group functions.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_collects_samples_and_reports() {
        let mut c = Criterion { filter: None };
        let mut group = c.benchmark_group("shim");
        group.sample_size(5).throughput(Throughput::Elements(10));
        let mut ran = 0u32;
        group.bench_function("counting", |b| {
            b.iter(|| {
                ran += 1;
                black_box(ran)
            })
        });
        group.finish();
        // The warm-up calls, then 5 samples.
        assert_eq!(ran, WARM_UP_CALLS as u32 + 5);
    }

    #[test]
    fn no_sample_times_a_warm_up_call() {
        // Every warm-up call sleeps far longer than a timed call can
        // take, so a sample that timed one would show it.
        let slow = Duration::from_millis(50);
        let mut calls = 0;
        let mut b = Bencher {
            sample_size: 4,
            samples: Vec::new(),
        };
        b.iter(|| {
            calls += 1;
            if calls <= WARM_UP_CALLS {
                std::thread::sleep(slow);
            }
        });
        assert_eq!(calls, WARM_UP_CALLS + 4);
        assert_eq!(b.samples.len(), 4);
        assert!(b.samples.iter().all(|&s| s < slow), "{:?}", b.samples);
    }

    #[test]
    fn filter_skips_non_matching_benchmarks() {
        let mut c = Criterion {
            filter: Some("wanted".into()),
        };
        let mut group = c.benchmark_group("shim");
        let mut ran = false;
        group.bench_function("other", |b| {
            b.iter(|| {
                ran = true;
            })
        });
        assert!(!ran, "filtered-out benchmark must not run");
    }

    #[test]
    fn durations_format_in_sensible_units() {
        assert_eq!(fmt_dur(Duration::from_nanos(12)), "12 ns");
        assert_eq!(fmt_dur(Duration::from_micros(3)), "3.00 µs");
        assert_eq!(fmt_dur(Duration::from_millis(250)), "250.00 ms");
        assert_eq!(fmt_dur(Duration::from_secs(2)), "2.00 s");
    }
}
