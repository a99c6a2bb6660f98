//! Branch direction predictors.
//!
//! The paper predicts conditional branches with McFarling's combining
//! scheme (`bimodalN/gshareN+1`) at an 8 KB hardware cost. With 2-bit
//! counters packed four to a byte, `N = 13` gives exactly 8 KB:
//! a 2¹³-entry bimodal table (2 KB), a 2¹⁴-entry gshare table (4 KB) and
//! a 2¹³-entry chooser (2 KB).

use ddsc_trace::Trace;
use ddsc_util::stats::Percent;

use crate::SatCounter;

/// A conditional-branch direction predictor.
///
/// Implementations are updated with every dynamic conditional branch in
/// trace order, matching the in-order fetch of the simulated machine.
pub trait DirectionPredictor {
    /// Predicts the direction of the branch at `pc`.
    fn predict(&self, pc: u32) -> bool;

    /// Trains the predictor with the resolved outcome.
    fn update(&mut self, pc: u32, taken: bool);

    /// Predicts, then trains; returns whether the prediction was correct.
    fn predict_and_train(&mut self, pc: u32, taken: bool) -> bool {
        let predicted = self.predict(pc);
        self.update(pc, taken);
        predicted == taken
    }
}

fn pc_index(pc: u32, bits: u32) -> usize {
    // Instructions are word-aligned; drop the two zero bits.
    ((pc >> 2) & ((1 << bits) - 1)) as usize
}

/// A bimodal predictor: a table of 2-bit counters indexed by PC.
#[derive(Debug, Clone)]
pub struct Bimodal {
    table: Vec<SatCounter>,
    bits: u32,
}

impl Bimodal {
    /// Creates a bimodal predictor with `2^bits` counters, initialised
    /// weakly-not-taken.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 28.
    pub fn new(bits: u32) -> Self {
        assert!((1..=28).contains(&bits), "unreasonable table size");
        Bimodal {
            table: vec![SatCounter::two_bit(1); 1 << bits],
            bits,
        }
    }
}

impl DirectionPredictor for Bimodal {
    fn predict(&self, pc: u32) -> bool {
        self.table[pc_index(pc, self.bits)].is_confident()
    }

    fn update(&mut self, pc: u32, taken: bool) {
        self.table[pc_index(pc, self.bits)].train(taken);
    }
}

/// A gshare predictor: 2-bit counters indexed by PC xor global history.
#[derive(Debug, Clone)]
pub struct Gshare {
    table: Vec<SatCounter>,
    bits: u32,
    history: u32,
}

impl Gshare {
    /// Creates a gshare predictor with `2^bits` counters and a
    /// `bits`-long global history register.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 28.
    pub fn new(bits: u32) -> Self {
        assert!((1..=28).contains(&bits), "unreasonable table size");
        Gshare {
            table: vec![SatCounter::two_bit(1); 1 << bits],
            bits,
            history: 0,
        }
    }

    fn index(&self, pc: u32) -> usize {
        (((pc >> 2) ^ self.history) & ((1 << self.bits) - 1)) as usize
    }
}

impl DirectionPredictor for Gshare {
    fn predict(&self, pc: u32) -> bool {
        self.table[self.index(pc)].is_confident()
    }

    fn update(&mut self, pc: u32, taken: bool) {
        let idx = self.index(pc);
        self.table[idx].train(taken);
        self.history = ((self.history << 1) | u32::from(taken)) & ((1 << self.bits) - 1);
    }
}

/// McFarling's combining predictor: bimodal + gshare + a chooser table of
/// 2-bit counters that learns, per PC, which component to trust.
#[derive(Debug, Clone)]
pub struct McFarling {
    bimodal: Bimodal,
    gshare: Gshare,
    chooser: Vec<SatCounter>,
    chooser_bits: u32,
}

impl McFarling {
    /// Creates a `bimodalN/gshareN+1` combining predictor.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or greater than 27.
    pub fn new(n: u32) -> Self {
        McFarling {
            bimodal: Bimodal::new(n),
            gshare: Gshare::new(n + 1),
            // Weakly prefer gshare, as in McFarling's TN-36 setup.
            chooser: vec![SatCounter::two_bit(2); 1 << n],
            chooser_bits: n,
        }
    }

    /// The paper's configuration: `bimodal13/gshare14`, exactly 8 KB of
    /// 2-bit counters.
    pub fn paper_8kb() -> Self {
        McFarling::new(13)
    }

    /// Total hardware cost in bytes (2-bit counters, four per byte).
    pub fn cost_bytes(&self) -> usize {
        (self.bimodal.table.len() + self.gshare.table.len() + self.chooser.len()) / 4
    }
}

impl DirectionPredictor for McFarling {
    fn predict(&self, pc: u32) -> bool {
        let use_gshare = self.chooser[pc_index(pc, self.chooser_bits)].is_confident();
        if use_gshare {
            self.gshare.predict(pc)
        } else {
            self.bimodal.predict(pc)
        }
    }

    fn update(&mut self, pc: u32, taken: bool) {
        let bi = self.bimodal.predict(pc);
        let gs = self.gshare.predict(pc);
        // Train the chooser only when the components disagree.
        if bi != gs {
            self.chooser[pc_index(pc, self.chooser_bits)].train(gs == taken);
        }
        self.bimodal.update(pc, taken);
        self.gshare.update(pc, taken);
    }
}

/// A two-level local-history predictor (PAg): a per-branch history
/// table indexing a shared pattern table of 2-bit counters.
///
/// Included for the predictor-budget comparison experiment — McFarling's
/// TN-36 evaluates exactly this family against bimodal/gshare hybrids.
#[derive(Debug, Clone)]
pub struct LocalHistory {
    histories: Vec<u16>,
    pattern: Vec<SatCounter>,
    history_bits: u32,
    index_bits: u32,
}

impl LocalHistory {
    /// Creates a PAg predictor with `2^index_bits` history registers of
    /// `history_bits` bits and a `2^history_bits` pattern table.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is outside `1..=24` or `history_bits` is
    /// outside `1..=16`.
    pub fn new(index_bits: u32, history_bits: u32) -> Self {
        assert!((1..=24).contains(&index_bits), "unreasonable table size");
        assert!(
            (1..=16).contains(&history_bits),
            "unreasonable history length"
        );
        LocalHistory {
            histories: vec![0; 1 << index_bits],
            pattern: vec![SatCounter::two_bit(1); 1 << history_bits],
            history_bits,
            index_bits,
        }
    }

    /// A configuration costing roughly the paper's 8 KB budget:
    /// 4096 12-bit histories (6 KB) + 4096 2-bit counters (1 KB).
    pub fn budget_8kb() -> Self {
        LocalHistory::new(12, 12)
    }

    fn pattern_index(&self, pc: u32) -> usize {
        let h = self.histories[pc_index(pc, self.index_bits)];
        (h & ((1 << self.history_bits) - 1) as u16) as usize
    }
}

impl DirectionPredictor for LocalHistory {
    fn predict(&self, pc: u32) -> bool {
        self.pattern[self.pattern_index(pc)].is_confident()
    }

    fn update(&mut self, pc: u32, taken: bool) {
        let pi = self.pattern_index(pc);
        self.pattern[pi].train(taken);
        let hi = pc_index(pc, self.index_bits);
        self.histories[hi] =
            ((self.histories[hi] << 1) | u16::from(taken)) & ((1 << self.history_bits) - 1) as u16;
    }
}

/// Summary of a predictor's accuracy over one trace (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BranchPredStats {
    /// Dynamic conditional branches seen.
    pub branches: u64,
    /// Correctly predicted.
    pub correct: u64,
    /// Total dynamic instructions in the trace.
    pub total_insts: u64,
}

impl BranchPredStats {
    /// Conditional branches as a percentage of all instructions
    /// (Table 2, column 1).
    pub fn branch_pct(&self) -> Percent {
        Percent::new(self.branches, self.total_insts)
    }

    /// Prediction accuracy (Table 2, column 2).
    pub fn accuracy_pct(&self) -> Percent {
        Percent::new(self.correct, self.branches)
    }
}

/// Runs a direction predictor over a trace in fetch order and reports
/// accuracy (regenerates one row of Table 2).
pub fn branch_stats<P: DirectionPredictor>(trace: &Trace, predictor: &mut P) -> BranchPredStats {
    let mut stats = BranchPredStats {
        total_insts: trace.len() as u64,
        ..BranchPredStats::default()
    };
    for inst in trace {
        if inst.op.is_cond_branch() {
            stats.branches += 1;
            if predictor.predict_and_train(inst.pc, inst.taken) {
                stats.correct += 1;
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddsc_util::Pcg32;

    /// Trains a predictor on a synthetic outcome stream and returns its
    /// accuracy over the final half.
    fn accuracy<P: DirectionPredictor>(
        pred: &mut P,
        stream: impl Iterator<Item = (u32, bool)>,
    ) -> f64 {
        let outcomes: Vec<(u32, bool)> = stream.collect();
        let mut correct = 0usize;
        let mut seen = 0usize;
        let half = outcomes.len() / 2;
        for (i, (pc, taken)) in outcomes.into_iter().enumerate() {
            let ok = pred.predict_and_train(pc, taken);
            if i >= half {
                seen += 1;
                if ok {
                    correct += 1;
                }
            }
        }
        correct as f64 / seen as f64
    }

    #[test]
    fn bimodal_learns_biased_branches() {
        let mut p = Bimodal::new(10);
        let acc = accuracy(&mut p, (0..2000).map(|_| (0x40, true)));
        assert!(acc > 0.99, "always-taken should be ~100%, got {acc}");
    }

    #[test]
    fn bimodal_cannot_learn_alternation() {
        let mut p = Bimodal::new(10);
        let acc = accuracy(&mut p, (0..2000).map(|i| (0x40, i % 2 == 0)));
        assert!(acc < 0.6, "bimodal has no history, got {acc}");
    }

    #[test]
    fn gshare_learns_alternation() {
        let mut p = Gshare::new(10);
        let acc = accuracy(&mut p, (0..4000).map(|i| (0x40, i % 2 == 0)));
        assert!(
            acc > 0.95,
            "gshare should learn period-2 pattern, got {acc}"
        );
    }

    #[test]
    fn gshare_learns_short_loops() {
        // A loop taken 6 times then exiting, repeatedly (period 7).
        let mut p = Gshare::new(12);
        let acc = accuracy(&mut p, (0..7000).map(|i| (0x80, i % 7 != 6)));
        assert!(acc > 0.95, "period-7 loop pattern, got {acc}");
    }

    #[test]
    fn mcfarling_beats_or_matches_both_components() {
        // Mixed workload: one strongly biased branch (bimodal-friendly),
        // one alternating branch (gshare-friendly).
        let stream = |n: usize| {
            (0..n).flat_map(|i| {
                [
                    (0x100u32, true),       // biased
                    (0x200u32, i % 2 == 0), // alternating
                ]
            })
        };
        let acc_combo = accuracy(&mut McFarling::new(12), stream(4000));
        assert!(acc_combo > 0.95, "combining predictor got {acc_combo}");
    }

    #[test]
    fn mcfarling_paper_cost_is_8kb() {
        assert_eq!(McFarling::paper_8kb().cost_bytes(), 8192);
    }

    #[test]
    fn local_history_learns_per_branch_patterns() {
        // Two interleaved branches with different short periods: local
        // history separates them where global history gets polluted.
        let stream = (0..6000).flat_map(|i| [(0x100u32, i % 3 != 2), (0x200u32, i % 2 == 0)]);
        let acc = accuracy(&mut LocalHistory::budget_8kb(), stream);
        assert!(acc > 0.95, "periodic locals should be learned, got {acc}");
    }

    #[test]
    fn local_history_handles_biased_branches() {
        let acc = accuracy(
            &mut LocalHistory::new(10, 8),
            (0..2000).map(|_| (0x40, true)),
        );
        assert!(acc > 0.99, "got {acc}");
    }

    #[test]
    fn random_branches_are_hard_for_everyone() {
        let mut rng = Pcg32::new(1);
        let outcomes: Vec<(u32, bool)> = (0..4000).map(|_| (0x300, rng.chance(1, 2))).collect();
        let acc = accuracy(&mut McFarling::new(12), outcomes.into_iter());
        assert!((0.3..0.7).contains(&acc), "random stream accuracy {acc}");
    }

    #[test]
    fn branch_stats_counts_only_cond_branches() {
        use ddsc_isa::{Cond, Opcode, Reg};
        use ddsc_trace::TraceInst;
        let mut t = Trace::new("s");
        t.push(TraceInst::alu(
            0,
            Opcode::Add,
            Reg::new(1),
            Reg::new(2),
            None,
            Some(1),
            0,
        ));
        for i in 0..10 {
            t.push(TraceInst::cond_branch(
                0x40,
                Opcode::Bcc(Cond::Ne),
                true,
                0x10,
            ));
            let _ = i;
        }
        let mut p = McFarling::paper_8kb();
        let s = branch_stats(&t, &mut p);
        assert_eq!(s.branches, 10);
        assert_eq!(s.total_insts, 11);
        assert!(s.correct >= 8, "always-taken learned quickly");
        assert!(s.accuracy_pct().value() >= 80.0);
    }

    #[test]
    #[should_panic(expected = "unreasonable")]
    fn zero_bit_table_rejected() {
        Bimodal::new(0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Predictors never panic on arbitrary PCs and outcomes, and
            /// accuracy counting is bounded by the branch count.
            #[test]
            fn predictors_are_total(
                events in proptest::collection::vec((any::<u32>(), any::<bool>()), 1..256)
            ) {
                let mut bi = Bimodal::new(8);
                let mut gs = Gshare::new(9);
                let mut mc = McFarling::new(8);
                let mut correct = 0usize;
                for &(pc, taken) in &events {
                    bi.predict_and_train(pc, taken);
                    gs.predict_and_train(pc, taken);
                    if mc.predict_and_train(pc, taken) {
                        correct += 1;
                    }
                }
                prop_assert!(correct <= events.len());
            }

            /// A fully biased branch converges to near-perfect prediction
            /// for every predictor, regardless of PC.
            #[test]
            fn biased_branches_converge(pc in any::<u32>(), dir in any::<bool>()) {
                let mut mc = McFarling::new(10);
                for _ in 0..16 {
                    mc.predict_and_train(pc, dir);
                }
                prop_assert!(mc.predict(pc) == dir);
            }
        }
    }
}
