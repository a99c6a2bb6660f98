//! Per-run simulation results and their component statistics.

use std::fmt;

use ddsc_collapse::CollapseStats;
use ddsc_util::codec::Reader;
use ddsc_util::stats::Percent;

use crate::SimConfig;

/// Dynamic-load classification (§3): how each load interacted with the
/// load-speculation mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadClass {
    /// The address was available by the time the load could otherwise
    /// issue — no prediction needed.
    Ready,
    /// Issued speculatively with a correct predicted address.
    PredictedCorrect,
    /// Speculated with a wrong address; dependents waited for the replay.
    PredictedIncorrect,
    /// Confidence too low to speculate; waited for the address.
    NotPredicted,
}

/// Load-speculation behaviour over one run (Tables 3 and 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoadSpecStats {
    /// Ready loads.
    pub ready: u64,
    /// Correctly speculated loads.
    pub predicted_correct: u64,
    /// Incorrectly speculated loads.
    pub predicted_incorrect: u64,
    /// Loads that did not speculate for lack of confidence.
    pub not_predicted: u64,
}

impl LoadSpecStats {
    /// Records one classified load.
    pub fn record(&mut self, class: LoadClass) {
        match class {
            LoadClass::Ready => self.ready += 1,
            LoadClass::PredictedCorrect => self.predicted_correct += 1,
            LoadClass::PredictedIncorrect => self.predicted_incorrect += 1,
            LoadClass::NotPredicted => self.not_predicted += 1,
        }
    }

    /// Total classified loads.
    pub fn total(&self) -> u64 {
        self.ready + self.predicted_correct + self.predicted_incorrect + self.not_predicted
    }

    /// Share of one class (a Table 3/4 cell).
    pub fn pct(&self, class: LoadClass) -> Percent {
        let n = match class {
            LoadClass::Ready => self.ready,
            LoadClass::PredictedCorrect => self.predicted_correct,
            LoadClass::PredictedIncorrect => self.predicted_incorrect,
            LoadClass::NotPredicted => self.not_predicted,
        };
        Percent::new(n, self.total())
    }

    /// Merges another run's counts (suite aggregation).
    pub fn merge(&mut self, other: &LoadSpecStats) {
        self.ready += other.ready;
        self.predicted_correct += other.predicted_correct;
        self.predicted_incorrect += other.predicted_incorrect;
        self.not_predicted += other.not_predicted;
    }
}

/// Value-speculation behaviour over one run (extension experiments).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ValueSpecStats {
    /// Loads whose value was confidently and correctly predicted.
    pub predicted_correct: u64,
    /// Loads speculated with a wrong value (consumers replayed).
    pub predicted_incorrect: u64,
    /// Loads below the confidence threshold.
    pub not_predicted: u64,
}

impl ValueSpecStats {
    /// Total classified loads.
    pub fn total(&self) -> u64 {
        self.predicted_correct + self.predicted_incorrect + self.not_predicted
    }

    /// Share of correctly value-predicted loads.
    pub fn correct_pct(&self) -> Percent {
        Percent::new(self.predicted_correct, self.total())
    }

    /// Merges another run's counts.
    pub fn merge(&mut self, other: &ValueSpecStats) {
        self.predicted_correct += other.predicted_correct;
        self.predicted_incorrect += other.predicted_incorrect;
        self.not_predicted += other.not_predicted;
    }
}

/// Where issued instructions spent their waiting cycles — a bottleneck
/// breakdown. Each instruction's wait between entering the window and
/// becoming ready is attributed to the dominant constraint; the gap
/// between ready and issue is bandwidth contention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StallStats {
    /// Cycles waiting on register data dependences.
    pub data: u64,
    /// Cycles waiting on load address generation.
    pub address: u64,
    /// Cycles waiting on store→load memory dependences.
    pub memory: u64,
    /// Cycles waiting behind mispredicted branches.
    pub branch: u64,
    /// Cycles waiting for an issue slot after becoming ready.
    pub bandwidth: u64,
    /// Instructions accounted.
    pub insts: u64,
}

impl StallStats {
    /// Total attributed waiting cycles.
    pub fn total(&self) -> u64 {
        self.data + self.address + self.memory + self.branch + self.bandwidth
    }

    /// Mean waiting cycles per instruction.
    pub fn per_inst(&self) -> f64 {
        if self.insts == 0 {
            0.0
        } else {
            self.total() as f64 / self.insts as f64
        }
    }

    /// Share of one component among all waiting cycles.
    pub fn share(&self, cycles: u64) -> Percent {
        Percent::new(cycles, self.total())
    }

    /// Merges another run's counts.
    pub fn merge(&mut self, other: &StallStats) {
        self.data += other.data;
        self.address += other.address;
        self.memory += other.memory;
        self.branch += other.branch;
        self.bandwidth += other.bandwidth;
        self.insts += other.insts;
    }
}

/// Branch-prediction behaviour over one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BranchRunStats {
    /// Dynamic conditional branches.
    pub cond_branches: u64,
    /// Mispredicted conditional branches.
    pub mispredicted: u64,
}

impl BranchRunStats {
    /// Prediction accuracy.
    pub fn accuracy_pct(&self) -> Percent {
        Percent::new(self.cond_branches - self.mispredicted, self.cond_branches)
    }
}

/// The result of simulating one trace under one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// The configuration simulated.
    pub config: SimConfig,
    /// Dynamic instructions issued.
    pub instructions: u64,
    /// Total execution cycles.
    pub cycles: u64,
    /// Load-speculation behaviour (empty when speculation is off).
    pub loads: LoadSpecStats,
    /// Value-speculation behaviour (empty unless the extension is on).
    pub values: ValueSpecStats,
    /// Branch-prediction behaviour.
    pub branches: BranchRunStats,
    /// Bottleneck breakdown of waiting cycles.
    pub stalls: StallStats,
    /// Collapsing behaviour (empty when collapsing is off).
    pub collapse: CollapseStats,
    /// Instructions eliminated by node elimination (0 unless the
    /// extension is enabled).
    pub eliminated: u64,
}

impl SimResult {
    /// The binary encoding of everything except `config`: the counters
    /// in declaration order, then the collapse statistics.
    ///
    /// The configuration is deliberately *not* serialized — a stored
    /// cell is keyed by (trace checksum, config label, width), and the
    /// loader reconstructs the exact `SimConfig` from that key. That
    /// keeps the on-disk format free of float encodings and makes a
    /// stale entry (config drift) unloadable by construction.
    pub fn encode_to(&self, out: &mut Vec<u8>) {
        for v in [
            self.instructions,
            self.cycles,
            self.loads.ready,
            self.loads.predicted_correct,
            self.loads.predicted_incorrect,
            self.loads.not_predicted,
            self.values.predicted_correct,
            self.values.predicted_incorrect,
            self.values.not_predicted,
            self.branches.cond_branches,
            self.branches.mispredicted,
            self.stalls.data,
            self.stalls.address,
            self.stalls.memory,
            self.stalls.branch,
            self.stalls.bandwidth,
            self.stalls.insts,
            self.eliminated,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        self.collapse.encode_to(out);
    }

    /// Decodes a result encoded by [`SimResult::encode_to`] at byte
    /// offset `*pos`, advancing `*pos` past it and attaching the
    /// caller-reconstructed `config`. `None` on truncation or malformed
    /// contents.
    pub fn decode(bytes: &[u8], pos: &mut usize, config: SimConfig) -> Option<SimResult> {
        let mut r = Reader::new(bytes.get(*pos..)?);
        let mut counters = [0u64; 18];
        for c in &mut counters {
            *c = r.u64().ok()?;
        }
        let collapse = CollapseStats::decode_from(&mut r).ok()?;
        *pos += r.pos();
        Some(SimResult {
            config,
            instructions: counters[0],
            cycles: counters[1],
            loads: LoadSpecStats {
                ready: counters[2],
                predicted_correct: counters[3],
                predicted_incorrect: counters[4],
                not_predicted: counters[5],
            },
            values: ValueSpecStats {
                predicted_correct: counters[6],
                predicted_incorrect: counters[7],
                not_predicted: counters[8],
            },
            branches: BranchRunStats {
                cond_branches: counters[9],
                mispredicted: counters[10],
            },
            stalls: StallStats {
                data: counters[11],
                address: counters[12],
                memory: counters[13],
                branch: counters[14],
                bandwidth: counters[15],
                insts: counters[16],
            },
            collapse,
            eliminated: counters[17],
        })
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Speedup of this run relative to a baseline run of the same trace.
    pub fn speedup_over(&self, base: &SimResult) -> f64 {
        debug_assert_eq!(self.instructions, base.instructions);
        if self.cycles == 0 {
            0.0
        } else {
            base.cycles as f64 / self.cycles as f64
        }
    }
}

impl fmt::Display for SimResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} insts / {} cycles = {:.3} IPC (width {})",
            self.instructions,
            self.cycles,
            self.ipc(),
            self.config.issue_width
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_stats_percentages_sum_to_100() {
        let mut s = LoadSpecStats::default();
        s.record(LoadClass::Ready);
        s.record(LoadClass::Ready);
        s.record(LoadClass::PredictedCorrect);
        s.record(LoadClass::NotPredicted);
        let sum: f64 = [
            LoadClass::Ready,
            LoadClass::PredictedCorrect,
            LoadClass::PredictedIncorrect,
            LoadClass::NotPredicted,
        ]
        .iter()
        .map(|&c| s.pct(c).value())
        .sum();
        assert!((sum - 100.0).abs() < 1e-9);
        assert_eq!(s.total(), 4);
    }

    #[test]
    fn stall_stats_accounting() {
        let s = StallStats {
            data: 10,
            address: 5,
            memory: 3,
            branch: 2,
            bandwidth: 5,
            insts: 5,
        };
        assert_eq!(s.total(), 25);
        assert_eq!(s.per_inst(), 5.0);
        assert_eq!(s.share(s.data).value(), 40.0);
        let mut m = s;
        m.merge(&s);
        assert_eq!(m.total(), 50);
        assert_eq!(m.insts, 10);
    }

    #[test]
    fn branch_accuracy() {
        let b = BranchRunStats {
            cond_branches: 100,
            mispredicted: 8,
        };
        assert_eq!(b.accuracy_pct().value(), 92.0);
    }

    #[test]
    fn ipc_and_speedup() {
        let mk = |cycles| SimResult {
            config: SimConfig::base(4),
            instructions: 1000,
            cycles,
            loads: LoadSpecStats::default(),
            values: ValueSpecStats::default(),
            branches: BranchRunStats::default(),
            stalls: StallStats::default(),
            collapse: CollapseStats::new(),
            eliminated: 0,
        };
        let base = mk(500);
        let fast = mk(400);
        assert!((base.ipc() - 2.0).abs() < 1e-12);
        assert!((fast.speedup_over(&base) - 1.25).abs() < 1e-12);
    }
}
