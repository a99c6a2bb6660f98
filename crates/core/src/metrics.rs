//! Cycle-attribution observability for the timing loop.
//!
//! The simulator's headline number is IPC, but the limit study lives on
//! *why* IPC moves between configurations A–E. This module threads a
//! zero-cost-when-off observer through the timing loop and classifies
//! every simulated cycle into exactly one bucket: either at least one
//! instruction issued, or the machine was idle for a single dominant
//! reason (unresolved mispredicted branch, memory dependence, address
//! generation, a long-latency multiply/divide, the window filling up,
//! or plain dependence height). The partition is a hard invariant —
//! [`CycleAttribution::audit`] checks `sum(buckets) == total cycles`
//! and every metrics-on [`simulate_with`] run enforces it — so the
//! attribution doubles as a second, semantic oracle for the timing loop
//! beyond bit-identity with the reference.
//!
//! The observer is internal to the crate and a compile-time switch:
//! `SimObserver::ENABLED` is an associated `const`, so the no-op
//! observer a metrics-off run uses monomorphizes every hook into dead
//! code and [`simulate_prepared`] keeps the machine code it had before
//! the observer existed. [`RunOptions::metrics`] is the public switch.
//!
//! [`simulate_prepared`]: crate::simulate_prepared
//! [`simulate_with`]: crate::simulate_with
//! [`RunOptions::metrics`]: crate::RunOptions::metrics

use std::fmt;

use ddsc_predict::ConfusionMatrix;
use ddsc_util::Histogram;

use crate::{SimConfig, SimResult};

/// Why the machine issued nothing on an idle cycle.
///
/// Ordering is the classification priority: the most external cause
/// wins a tie, mirroring [`StallStats`](crate::StallStats)'
/// per-instruction convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// Waiting for a mispredicted branch to resolve (squash serialization).
    Branch,
    /// Waiting for a store feeding a later load (memory dependence).
    Memory,
    /// Waiting for a load's address generation (un-speculated loads).
    Address,
    /// Waiting out a multiply/divide latency on the critical operand.
    LongLatency,
    /// Nothing ready, the window is full, and un-fetched instructions
    /// exist: the window is the limiter.
    WindowFull,
    /// Plain dataflow height: the chain is just this deep.
    DepHeight,
}

impl StallCause {
    /// All causes, in classification-priority order.
    pub const ALL: [StallCause; 6] = [
        StallCause::Branch,
        StallCause::Memory,
        StallCause::Address,
        StallCause::LongLatency,
        StallCause::WindowFull,
        StallCause::DepHeight,
    ];

    /// Stable snake_case name (used as a JSON key).
    pub fn name(self) -> &'static str {
        match self {
            StallCause::Branch => "branch",
            StallCause::Memory => "memory",
            StallCause::Address => "address",
            StallCause::LongLatency => "long_latency",
            StallCause::WindowFull => "window_full",
            StallCause::DepHeight => "dep_height",
        }
    }
}

impl fmt::Display for StallCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Hooks the timing loop calls at classification points.
///
/// Every method has a no-op default; implementors override what they
/// need. `ENABLED` gates every call site inside the simulator — for
/// [`NoopObserver`] it is `false`, the hook blocks are statically dead,
/// and the monomorphized loop is the same machine code as before the
/// observer existed.
pub(crate) trait SimObserver {
    /// Whether the simulator should emit events at all.
    const ENABLED: bool = true;

    /// Whether the simulator should poll [`poll_cancelled`] each loop
    /// iteration. `false` for every plain observer — the cancellation
    /// branch is then statically dead and the timing loop keeps its
    /// uncancellable machine code; [`CancelObserver`] overrides it to
    /// `true`.
    ///
    /// [`poll_cancelled`]: SimObserver::poll_cancelled
    /// [`CancelObserver`]: crate::cancel::CancelObserver
    const CANCELLABLE: bool = false;

    /// Asks whether the run's deadline has passed; `true` aborts the
    /// timing loop with [`Cancelled`](crate::Cancelled). Only called
    /// when [`CANCELLABLE`](SimObserver::CANCELLABLE) is `true`.
    fn poll_cancelled(&mut self) -> bool {
        false
    }

    /// A conditional branch was fetched; `mispredicted` is the
    /// direction-predictor verdict for this dynamic instance.
    fn on_cond_branch(&mut self, mispredicted: bool) {
        let _ = mispredicted;
    }

    /// A load was fetched under real load-speculation; the address
    /// table's confidence/correctness verdict for this access.
    fn on_addr_prediction(&mut self, confident: bool, correct: bool) {
        let _ = (confident, correct);
    }

    /// At least one instruction issued this cycle. `occupancy` is the
    /// window population at the start of the cycle (post-fetch).
    fn on_issue_cycle(&mut self, cycle: u32, issued: u32, occupancy: u32) {
        let _ = (cycle, issued, occupancy);
    }

    /// `span` consecutive cycles issued nothing, all for the same
    /// dominant `cause`; `occupancy` is the window population over the
    /// span. Spans after the final issue cycle fall outside the
    /// accounted range and must be discarded by the collector.
    fn on_idle_cycles(&mut self, span: u64, cause: StallCause, occupancy: u32) {
        let _ = (span, cause, occupancy);
    }

    /// An effective collapse group issued (one that really shortened an
    /// interlock); `members` counts the instructions combined.
    fn on_collapse_group(&mut self, members: u32) {
        let _ = members;
    }
}

/// The disabled observer: every hook compiles away.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct NoopObserver;

impl SimObserver for NoopObserver {
    const ENABLED: bool = false;
}

/// Where every cycle of a run went — a partition of `[0, cycles)`.
///
/// `issue` counts cycles where at least one instruction issued; the
/// remaining buckets split the idle cycles by dominant cause. The
/// buckets always sum to the run's total cycles ([`audit`]).
///
/// [`audit`]: CycleAttribution::audit
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleAttribution {
    /// Cycles where at least one instruction issued.
    pub issue: u64,
    /// Idle: waiting on a mispredicted branch.
    pub branch: u64,
    /// Idle: waiting on a memory dependence.
    pub memory: u64,
    /// Idle: waiting on load address generation.
    pub address: u64,
    /// Idle: waiting out a multiply/divide latency.
    pub long_latency: u64,
    /// Idle: window full with instructions left to fetch.
    pub window_full: u64,
    /// Idle: plain dependence height.
    pub dep_height: u64,
}

impl CycleAttribution {
    /// Adds `span` idle cycles to the bucket for `cause`.
    pub fn add_idle(&mut self, cause: StallCause, span: u64) {
        match cause {
            StallCause::Branch => self.branch += span,
            StallCause::Memory => self.memory += span,
            StallCause::Address => self.address += span,
            StallCause::LongLatency => self.long_latency += span,
            StallCause::WindowFull => self.window_full += span,
            StallCause::DepHeight => self.dep_height += span,
        }
    }

    /// The idle-cycle count for one cause.
    pub fn idle(&self, cause: StallCause) -> u64 {
        match cause {
            StallCause::Branch => self.branch,
            StallCause::Memory => self.memory,
            StallCause::Address => self.address,
            StallCause::LongLatency => self.long_latency,
            StallCause::WindowFull => self.window_full,
            StallCause::DepHeight => self.dep_height,
        }
    }

    /// Sum of every bucket — must equal the run's total cycles.
    pub fn total(&self) -> u64 {
        self.issue
            + self.branch
            + self.memory
            + self.address
            + self.long_latency
            + self.window_full
            + self.dep_height
    }

    /// Checks the accounting identity against a run's cycle count.
    pub fn audit(&self, cycles: u64) -> Result<(), AuditError> {
        let attributed = self.total();
        if attributed == cycles {
            Ok(())
        } else {
            Err(AuditError {
                attributed,
                cycles,
                attribution: *self,
            })
        }
    }

    /// Adds another attribution's buckets into this one.
    pub fn merge(&mut self, other: &CycleAttribution) {
        self.issue += other.issue;
        self.branch += other.branch;
        self.memory += other.memory;
        self.address += other.address;
        self.long_latency += other.long_latency;
        self.window_full += other.window_full;
        self.dep_height += other.dep_height;
    }
}

/// The accounting identity `sum(attributed) == cycles` failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditError {
    /// What the buckets sum to.
    pub attributed: u64,
    /// What the run reported.
    pub cycles: u64,
    /// The failing attribution, for diagnostics.
    pub attribution: CycleAttribution,
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycle-attribution identity violated: {} attributed vs {} total ({:?})",
            self.attributed, self.cycles, self.attribution
        )
    }
}

impl std::error::Error for AuditError {}

/// Everything a metrics-enabled run records beyond the [`SimResult`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimMetrics {
    /// Where every cycle went.
    pub attribution: CycleAttribution,
    /// Instructions issued per cycle, over all cycles (idle cycles are
    /// zero samples), so `issue_util.total() == cycles`.
    pub issue_util: Histogram,
    /// Window population per cycle, over all cycles.
    pub window_occupancy: Histogram,
    /// Members per effective collapse group.
    pub collapse_sizes: Histogram,
    /// Direction-predictor verdicts over fetched conditional branches.
    pub branch_hits: u64,
    /// Mispredicted conditional branches fetched.
    pub branch_misses: u64,
    /// Address-predictor confidence/correctness stream (real
    /// load-speculation only; empty otherwise).
    pub addr_pred: ConfusionMatrix,
}

impl SimMetrics {
    /// Merges another run's metrics into this one (for aggregating a
    /// benchmark across configs or widths). Histogram caps must match.
    pub fn merge(&mut self, other: &SimMetrics) {
        self.attribution.merge(&other.attribution);
        self.issue_util.merge(&other.issue_util);
        self.window_occupancy.merge(&other.window_occupancy);
        self.collapse_sizes.merge(&other.collapse_sizes);
        self.branch_hits += other.branch_hits;
        self.branch_misses += other.branch_misses;
        self.addr_pred.merge(&other.addr_pred);
    }
}

/// The standard observer: accumulates [`SimMetrics`] from the hook
/// stream and enforces the attribution identity at the end.
///
/// Idle spans arrive in time order interleaved with issue events, but
/// the accounted range ends at the *last issue cycle* (trailing cycles
/// where only node elimination retires instructions are outside
/// `SimResult::cycles`). The collector therefore buffers idle spans in
/// a tail and only commits them when a later issue event proves they
/// precede the end of the run; whatever is left in the tail at
/// [`finish`](MetricsCollector::finish) is discarded.
#[derive(Debug)]
pub(crate) struct MetricsCollector {
    attribution: CycleAttribution,
    issue_util: Histogram,
    window_occupancy: Histogram,
    collapse_sizes: Histogram,
    branch_hits: u64,
    branch_misses: u64,
    addr_pred: ConfusionMatrix,
    /// Idle spans not yet known to precede the last issue cycle.
    tail: Vec<(u64, StallCause, u32)>,
}

/// Cap for the collapse-group-size histogram; the device tops out at 4
/// members, so unit buckets 0..8 cover every legal group with room for
/// ablations.
const COLLAPSE_SIZE_CAP: usize = 8;

impl MetricsCollector {
    /// A collector sized for one configuration's width and window.
    pub fn new(config: &SimConfig) -> Self {
        MetricsCollector {
            attribution: CycleAttribution::default(),
            issue_util: Histogram::new(config.issue_width as usize + 1),
            window_occupancy: Histogram::new(config.window_size as usize + 1),
            collapse_sizes: Histogram::new(COLLAPSE_SIZE_CAP),
            branch_hits: 0,
            branch_misses: 0,
            addr_pred: ConfusionMatrix::default(),
            tail: Vec::new(),
        }
    }

    fn commit_tail(&mut self) {
        for (span, cause, occupancy) in self.tail.drain(..) {
            self.attribution.add_idle(cause, span);
            self.issue_util.record_n(0, span);
            self.window_occupancy.record_n(u64::from(occupancy), span);
        }
    }

    /// Closes the stream, discards the unaccounted tail, audits the
    /// identity against the run's cycle count, and returns the metrics.
    pub fn finish(mut self, result: &SimResult) -> Result<SimMetrics, AuditError> {
        self.tail.clear();
        let metrics = SimMetrics {
            attribution: self.attribution,
            issue_util: self.issue_util,
            window_occupancy: self.window_occupancy,
            collapse_sizes: self.collapse_sizes,
            branch_hits: self.branch_hits,
            branch_misses: self.branch_misses,
            addr_pred: self.addr_pred,
        };
        metrics.attribution.audit(result.cycles)?;
        Ok(metrics)
    }
}

impl SimObserver for MetricsCollector {
    fn on_cond_branch(&mut self, mispredicted: bool) {
        if mispredicted {
            self.branch_misses += 1;
        } else {
            self.branch_hits += 1;
        }
    }

    fn on_addr_prediction(&mut self, confident: bool, correct: bool) {
        self.addr_pred.record(confident, correct);
    }

    fn on_issue_cycle(&mut self, _cycle: u32, issued: u32, occupancy: u32) {
        // Any issue event proves every buffered idle span precedes the
        // last issue cycle: commit the tail first, then this cycle.
        self.commit_tail();
        self.attribution.issue += 1;
        self.issue_util.record(u64::from(issued));
        self.window_occupancy.record(u64::from(occupancy));
    }

    fn on_idle_cycles(&mut self, span: u64, cause: StallCause, occupancy: u32) {
        self.tail.push((span, cause, occupancy));
    }

    fn on_collapse_group(&mut self, members: u32) {
        self.collapse_sizes.record(u64::from(members));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_buckets_sum() {
        let mut a = CycleAttribution {
            issue: 10,
            ..CycleAttribution::default()
        };
        a.add_idle(StallCause::Branch, 3);
        a.add_idle(StallCause::DepHeight, 2);
        assert_eq!(a.total(), 15);
        assert!(a.audit(15).is_ok());
        let err = a.audit(16).unwrap_err();
        assert_eq!(err.attributed, 15);
        assert_eq!(err.cycles, 16);
        assert!(err.to_string().contains("identity violated"));
    }

    #[test]
    fn idle_lookup_matches_add() {
        let mut a = CycleAttribution::default();
        for (i, cause) in StallCause::ALL.into_iter().enumerate() {
            a.add_idle(cause, i as u64 + 1);
        }
        for (i, cause) in StallCause::ALL.into_iter().enumerate() {
            assert_eq!(a.idle(cause), i as u64 + 1);
        }
        assert_eq!(a.total(), 21);
    }

    #[test]
    fn merge_is_bucketwise() {
        let mut a = CycleAttribution {
            issue: 1,
            branch: 2,
            ..CycleAttribution::default()
        };
        let b = CycleAttribution {
            issue: 10,
            dep_height: 5,
            ..CycleAttribution::default()
        };
        a.merge(&b);
        assert_eq!(a.issue, 11);
        assert_eq!(a.branch, 2);
        assert_eq!(a.dep_height, 5);
    }

    #[test]
    fn cause_names_are_stable_and_unique() {
        let names: Vec<&str> = StallCause::ALL.iter().map(|c| c.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert_eq!(StallCause::Branch.to_string(), "branch");
    }

    #[test]
    fn collector_discards_the_idle_tail() {
        let config = SimConfig::base(4);
        let mut c = MetricsCollector::new(&config);
        c.on_issue_cycle(0, 2, 5);
        c.on_idle_cycles(3, StallCause::Memory, 4);
        c.on_issue_cycle(4, 1, 6);
        // Trailing idle span: beyond the last issue cycle, must vanish.
        c.on_idle_cycles(7, StallCause::DepHeight, 2);
        let result = SimResult {
            cycles: 5,
            ..sample_result(&config)
        };
        let m = c.finish(&result).expect("identity holds");
        assert_eq!(m.attribution.issue, 2);
        assert_eq!(m.attribution.memory, 3);
        assert_eq!(m.attribution.dep_height, 0);
        assert_eq!(m.attribution.total(), 5);
        assert_eq!(m.issue_util.total(), 5);
        assert_eq!(m.issue_util.count(0), 3);
        assert_eq!(m.window_occupancy.total(), 5);
    }

    #[test]
    fn collector_audit_rejects_a_short_count() {
        let config = SimConfig::base(4);
        let mut c = MetricsCollector::new(&config);
        c.on_issue_cycle(0, 1, 1);
        let result = SimResult {
            cycles: 3,
            ..sample_result(&config)
        };
        assert!(c.finish(&result).is_err());
    }

    fn sample_result(config: &SimConfig) -> SimResult {
        SimResult {
            config: *config,
            instructions: 0,
            cycles: 0,
            loads: crate::LoadSpecStats::default(),
            values: crate::ValueSpecStats::default(),
            branches: crate::BranchRunStats::default(),
            stalls: crate::StallStats::default(),
            collapse: ddsc_collapse::CollapseStats::new(),
            eliminated: 0,
        }
    }
}
