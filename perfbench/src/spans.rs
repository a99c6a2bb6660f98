//! In-memory span recording for the traced mode.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer; nothing inside the program is instrumented. A span has a
//! name, a start and end (seconds since the tracer was created), the
//! id of the span that caused it (0 for a root), a request id shared
//! by the spans of one request or pass, and the lane (benchmark-side
//! thread) that recorded it. Spans stay in memory until the run ends
//! and are then written out as JSON lines.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub lane: u64,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

static NEXT_LANE: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static LANE: Cell<u64> = const { Cell::new(0) };
}

/// A small stable number for the calling thread.
fn lane() -> u64 {
    LANE.with(|l| {
        if l.get() == 0 {
            l.set(NEXT_LANE.fetch_add(1, Ordering::Relaxed));
        }
        l.get()
    })
}

/// Collects spans from any number of threads.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Seconds since the tracer was created.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// A fresh span id, for a span whose children start before it ends.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records an interval measured by the caller under a reserved id.
    pub fn record_as(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        req: u64,
        start: f64,
        end: f64,
    ) {
        let span = Span {
            id,
            parent,
            req,
            lane: lane(),
            name,
            start,
            end,
        };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Records an interval measured by the caller; returns its id.
    pub fn record(&self, name: &'static str, parent: u64, req: u64, start: f64, end: f64) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, parent, req, start, end);
        id
    }

    /// Runs `f` inside a span; `f` receives the span's id so it can
    /// parent child spans.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.reserve();
        let start = self.now();
        let r = f(id);
        self.record_as(id, name, parent, req, start, self.now());
        r
    }

    /// A snapshot of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"req\": {}, \"lane\": {}, \"name\": \"{}\", \"start\": {}, \"end\": {}}}",
                s.id, s.parent, s.req, s.lane, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Per span name: (count, total seconds, self seconds). A span's self
/// time is its duration minus the part of it covered by its children
/// (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get(&s.id)
            .map(|iv| union_within(iv, s.start, s.end))
            .unwrap_or(0.0);
        let e = out.entry(s.name).or_insert((0, 0.0, 0.0));
        e.0 += 1;
        e.1 += s.seconds();
        e.2 += (s.seconds() - covered).max(0.0);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut iv: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((a, b)) = cur {
        total += b - a;
    }
    total
}
