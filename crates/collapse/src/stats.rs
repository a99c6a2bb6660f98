//! Aggregate collapsing statistics (Figures 8–10, Tables 5–6).

use ddsc_isa::{OpType, PatClass};
use ddsc_util::codec::{Reader, WireError};
use ddsc_util::stats::Percent;
use ddsc_util::Histogram;

use crate::expr::{CollapseCategory, ExprState, MAX_MEMBERS};
use crate::patterns::{PatternKey, PatternTable};

/// Distance histogram cap: the paper plots distances up to the window
/// size but observes nearly all are below 8; 64 unit buckets plus an
/// overflow bucket is ample.
const DISTANCE_CAP: usize = 64;

/// Statistics accumulated over one simulation run's collapsing activity.
///
/// `record_group` is called once per collapsed consumer when it issues;
/// `mark_participants`/`set_total` feed the Figure-8 numerator and
/// denominator (fraction of all instructions participating in at least
/// one collapsed group).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollapseStats {
    groups_3_1: u64,
    groups_4_1: u64,
    groups_0_op: u64,
    distance: Histogram,
    pairs: PatternTable,
    triples: PatternTable,
    quads: PatternTable,
    collapsed_insts: u64,
    total_insts: u64,
}

impl Default for CollapseStats {
    fn default() -> Self {
        CollapseStats {
            groups_3_1: 0,
            groups_4_1: 0,
            groups_0_op: 0,
            distance: Histogram::new(DISTANCE_CAP),
            pairs: PatternTable::new(),
            triples: PatternTable::new(),
            quads: PatternTable::new(),
            collapsed_insts: 0,
            total_insts: 0,
        }
    }
}

impl CollapseStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        CollapseStats::default()
    }

    /// Records one collapsed group at the moment its consumer issues.
    ///
    /// The consumer index is the trace position of the group's final
    /// (youngest) member; distances are recorded from each earlier member
    /// to the consumer in dynamic instructions.
    pub fn record_group(&mut self, state: &ExprState) {
        debug_assert!(state.is_collapsed());
        match state.category() {
            CollapseCategory::ThreeOne => self.groups_3_1 += 1,
            CollapseCategory::FourOne => self.groups_4_1 += 1,
            CollapseCategory::ZeroOp => self.groups_0_op += 1,
        }
        // Stack copies: this runs once per executed collapse.
        let mut idxs = [0u32; MAX_MEMBERS];
        let mut types = [OpType::new(PatClass::Brc, &[]); MAX_MEMBERS];
        let mut n = 0;
        for (idx, t) in state.members() {
            idxs[n] = idx;
            types[n] = t;
            n += 1;
        }
        let consumer_idx = idxs[n.saturating_sub(1)];
        for &idx in &idxs[..n.saturating_sub(1)] {
            self.distance.record(u64::from(consumer_idx - idx));
        }
        let key = PatternKey::new(&types[..n]);
        match n {
            2 => self.pairs.record(key),
            3 => self.triples.record(key),
            _ => self.quads.record(key),
        }
    }

    /// Adds `n` instructions to the participant count (Figure 8
    /// numerator). The simulator marks each distinct instruction that
    /// appears in at least one collapsed group.
    pub fn mark_participants(&mut self, n: u64) {
        self.collapsed_insts += n;
    }

    /// Sets the total dynamic instruction count (Figure 8 denominator).
    pub fn set_total(&mut self, total: u64) {
        self.total_insts = total;
    }

    /// Fraction of instructions participating in a collapse (Figure 8).
    pub fn collapsed_pct(&self) -> Percent {
        Percent::new(self.collapsed_insts, self.total_insts)
    }

    /// Total collapsed groups.
    pub fn groups(&self) -> u64 {
        self.groups_3_1 + self.groups_4_1 + self.groups_0_op
    }

    /// Share of one category among all groups (Figure 9).
    pub fn category_pct(&self, cat: CollapseCategory) -> Percent {
        let n = match cat {
            CollapseCategory::ThreeOne => self.groups_3_1,
            CollapseCategory::FourOne => self.groups_4_1,
            CollapseCategory::ZeroOp => self.groups_0_op,
        };
        Percent::new(n, self.groups())
    }

    /// The distance distribution between collapsed instructions
    /// (Figure 10).
    pub fn distance(&self) -> &Histogram {
        &self.distance
    }

    /// Pair-pattern frequencies (Table 5).
    pub fn pairs(&self) -> &PatternTable {
        &self.pairs
    }

    /// Triple-pattern frequencies (Table 6).
    pub fn triples(&self) -> &PatternTable {
        &self.triples
    }

    /// Quadruple-pattern frequencies (zero-detection-enabled groups).
    pub fn quads(&self) -> &PatternTable {
        &self.quads
    }

    /// Raw participant count.
    pub fn collapsed_insts(&self) -> u64 {
        self.collapsed_insts
    }

    /// Appends the binary encoding to `out`: the five counters, the
    /// distance histogram, then the pair/triple/quad tables. The
    /// inverse of [`CollapseStats::decode_from`]; part of the per-cell
    /// result codec the resumable-run store uses.
    pub fn encode_to(&self, out: &mut Vec<u8>) {
        for v in [
            self.groups_3_1,
            self.groups_4_1,
            self.groups_0_op,
            self.collapsed_insts,
            self.total_insts,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        self.distance.encode_to(out);
        self.pairs.encode_to(out);
        self.triples.encode_to(out);
        self.quads.encode_to(out);
    }

    /// Decodes statistics written by [`CollapseStats::encode_to`].
    ///
    /// # Errors
    ///
    /// Truncation or malformed contents (see [`Histogram::decode_from`]
    /// and [`PatternTable::decode_from`]).
    pub fn decode_from(r: &mut Reader<'_>) -> Result<CollapseStats, WireError> {
        let mut counters = [0u64; 5];
        for c in &mut counters {
            *c = r.u64()?;
        }
        let [groups_3_1, groups_4_1, groups_0_op, collapsed_insts, total_insts] = counters;
        Ok(CollapseStats {
            groups_3_1,
            groups_4_1,
            groups_0_op,
            distance: Histogram::decode_from(r)?,
            pairs: PatternTable::decode_from(r)?,
            triples: PatternTable::decode_from(r)?,
            quads: PatternTable::decode_from(r)?,
            collapsed_insts,
            total_insts,
        })
    }

    /// Merges another run's statistics into this one (used when
    /// aggregating over the benchmark suite).
    pub fn merge(&mut self, other: &CollapseStats) {
        self.groups_3_1 += other.groups_3_1;
        self.groups_4_1 += other.groups_4_1;
        self.groups_0_op += other.groups_0_op;
        self.distance.merge(&other.distance);
        self.pairs.merge(&other.pairs);
        self.triples.merge(&other.triples);
        self.quads.merge(&other.quads);
        self.collapsed_insts += other.collapsed_insts;
        self.total_insts += other.total_insts;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::AbsorbSlot;
    use ddsc_isa::{Opcode, Reg};
    use ddsc_trace::TraceInst;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    fn pair_state(gap: u32) -> ExprState {
        let p = TraceInst::alu(0, Opcode::Add, r(2), r(1), None, Some(1), 0);
        let c = TraceInst::alu(4 * gap, Opcode::Add, r(3), r(2), None, Some(2), 0);
        ExprState::leaf(gap, &c)
            .unwrap()
            .absorb(&ExprState::leaf(0, &p).unwrap(), &[AbsorbSlot::Counted])
            .unwrap()
    }

    #[test]
    fn record_group_tallies_category_and_distance() {
        let mut stats = CollapseStats::new();
        stats.record_group(&pair_state(1));
        stats.record_group(&pair_state(5));
        assert_eq!(stats.groups(), 2);
        assert_eq!(
            stats.category_pct(CollapseCategory::ThreeOne).value(),
            100.0
        );
        assert_eq!(stats.distance().count(1), 1);
        assert_eq!(stats.distance().count(5), 1);
        assert_eq!(stats.pairs().total(), 2);
        assert_eq!(stats.triples().total(), 0);
    }

    #[test]
    fn collapsed_pct_uses_participants_over_total() {
        let mut stats = CollapseStats::new();
        stats.mark_participants(30);
        stats.set_total(100);
        assert_eq!(stats.collapsed_pct().value(), 30.0);
    }

    #[test]
    fn codec_round_trips_real_stats() {
        let mut stats = CollapseStats::new();
        stats.record_group(&pair_state(1));
        stats.record_group(&pair_state(7));
        stats.mark_participants(4);
        stats.set_total(100);
        let mut bytes = Vec::new();
        stats.encode_to(&mut bytes);
        let mut r = Reader::new(&bytes);
        assert_eq!(CollapseStats::decode_from(&mut r).unwrap(), stats);
        r.finish().unwrap();
        // Truncation anywhere fails cleanly.
        let short = &bytes[..bytes.len() - 1];
        assert!(CollapseStats::decode_from(&mut Reader::new(short)).is_err());
    }

    #[test]
    fn merge_accumulates_everything() {
        let mut a = CollapseStats::new();
        a.record_group(&pair_state(2));
        a.mark_participants(2);
        a.set_total(10);
        let mut b = CollapseStats::new();
        b.record_group(&pair_state(2));
        b.mark_participants(2);
        b.set_total(10);
        a.merge(&b);
        assert_eq!(a.groups(), 2);
        assert_eq!(a.collapsed_pct().value(), 20.0);
        assert_eq!(a.distance().count(2), 2);
    }
}
