//! Dependence-expression bookkeeping.

use std::fmt;

use ddsc_isa::OpType;
use ddsc_trace::TraceInst;

/// Maximum operands in a collapsible dependence expression (a "4-1"
/// expression — the paper's most aggressive assumed device).
pub const MAX_EXPR_OPS: u8 = 4;

/// Maximum instructions in a collapsed group: pairs and triples normally;
/// a fourth member is admitted only when zero-operand detection keeps the
/// expression within the 4-1 budget (§3's `or/sub/srl/ld` example).
pub const MAX_MEMBERS: usize = 4;

/// The paper's three collapsing-mechanism categories (Figure 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollapseCategory {
    /// Expressions with up to three source operands.
    ThreeOne,
    /// Expressions needing the 4-1 device.
    FourOne,
    /// Collapses that are only legal because zero-operand detection
    /// shrank the expression (raw size above the 4-1 budget, or a fourth
    /// group member admitted).
    ZeroOp,
}

impl fmt::Display for CollapseCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CollapseCategory::ThreeOne => "3-1",
            CollapseCategory::FourOne => "4-1",
            CollapseCategory::ZeroOp => "0-op",
        })
    }
}

/// Tunable collapsing-device parameters.
///
/// The paper's device is the default ([`CollapseOpts::default`]): 4-1
/// expressions, groups of up to three instructions (four with zero
/// detection), zero-operand detection on. The other settings exist for
/// the ablation experiments (pairs-only collapsing, no zero detection,
/// 3-1-only devices).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollapseOpts {
    /// Whether zero-operand detection is available.
    pub zero_detection: bool,
    /// Largest admissible group (2 = pairs only; 4 requires zero
    /// detection for the fourth member).
    pub max_members: usize,
    /// Operand budget of the collapsing device (3 = 3-1 only, 4 = the
    /// paper's 4-1 device).
    pub max_ops: u8,
}

impl Default for CollapseOpts {
    fn default() -> Self {
        CollapseOpts {
            zero_detection: true,
            max_members: MAX_MEMBERS,
            max_ops: MAX_EXPR_OPS,
        }
    }
}

/// The kind of consumer operand position a producer is absorbed through.
///
/// The position determines how the expression size changes: a counted
/// operand is *replaced* by the producer's operand list; a detected-zero
/// register was elided from the counted size but still occupies a raw
/// slot; the condition-code link of a conditional branch occupies no
/// operand slot at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbsorbSlot {
    /// A normal (counted) register operand.
    Counted,
    /// A register operand whose dynamic value is zero (elided by
    /// zero-operand detection).
    ZeroReg,
    /// The `%icc` dependence of a conditional branch.
    Icc,
}

/// An absorb-slot list as the three counts [`ExprState::absorb_set`]
/// reads: counted, zero-register and `%icc` positions.
///
/// The order of a slot list never matters, so the timing loop carries
/// this `Copy` summary in its candidate rows, and inheriting a
/// candidate through a producer absorbed via `k` positions is
/// [`SlotSet::add_times`] with `k`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotSet {
    counted: u16,
    zero: u16,
    icc: u16,
}

impl SlotSet {
    /// Counts the positions of a slot list.
    pub fn of(slots: &[AbsorbSlot]) -> SlotSet {
        let mut set = SlotSet::default();
        for slot in slots {
            match slot {
                AbsorbSlot::Counted => set.counted += 1,
                AbsorbSlot::ZeroReg => set.zero += 1,
                AbsorbSlot::Icc => set.icc += 1,
            }
        }
        set
    }

    /// Number of positions.
    pub fn len(self) -> u16 {
        self.counted + self.zero + self.icc
    }

    /// Whether the set holds no position.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Adds `other`'s positions `times` times over.
    pub fn add_times(&mut self, other: SlotSet, times: u16) {
        self.counted += other.counted * times;
        self.zero += other.zero * times;
        self.icc += other.icc * times;
    }
}

/// Collapse bookkeeping carried by one in-flight instruction.
///
/// Tracks the dependence expression implied by the instruction's
/// collapsed group: how many source operands it needs with zero-operand
/// elision (`ops`) and without (`raw_ops`), and which instructions are in
/// the group.
///
/// # Examples
///
/// ```
/// use ddsc_collapse::{AbsorbSlot, ExprState};
/// use ddsc_trace::TraceInst;
/// use ddsc_isa::{Opcode, Reg};
///
/// // r3 = r1 << r2 ; r5 = r3 + r4   =>   r5 = (r1 << r2) + r4  (3-1)
/// let shl = TraceInst::alu(0, Opcode::Sll, Reg::new(3), Reg::new(1), Some(Reg::new(2)), None, 0);
/// let add = TraceInst::alu(4, Opcode::Add, Reg::new(5), Reg::new(3), Some(Reg::new(4)), None, 0);
/// let p = ExprState::leaf(0, &shl).unwrap();
/// let c = ExprState::leaf(1, &add).unwrap();
/// let merged = c.absorb(&p, &[AbsorbSlot::Counted]).unwrap();
/// assert_eq!(merged.raw_ops(), 3);
/// assert_eq!(merged.member_count(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExprState {
    /// Operand count after zero elision.
    ops: u8,
    /// Operand count before zero elision.
    raw_ops: u8,
    /// Group members, oldest first: (trace index, pattern).
    members: [Option<(u32, OpType)>; MAX_MEMBERS],
    len: u8,
}

impl ExprState {
    /// The un-collapsed state of a single instruction, or `None` if the
    /// instruction has no pattern (mul/div/unconditional control) and so
    /// can never participate in collapsing.
    pub fn leaf(index: u32, inst: &TraceInst) -> Option<Self> {
        Self::leaf_with(index, inst, &CollapseOpts::default())
    }

    /// [`ExprState::leaf`] with explicit device parameters: without zero
    /// detection, elidable operands count like any other.
    pub fn leaf_with(index: u32, inst: &TraceInst, opts: &CollapseOpts) -> Option<Self> {
        let optype = inst.optype()?;
        let raw = optype.kinds().count() as u8;
        let mut members = [None; MAX_MEMBERS];
        members[0] = Some((index, optype));
        Some(ExprState {
            ops: if opts.zero_detection {
                optype.operand_count()
            } else {
                raw
            },
            raw_ops: raw,
            members,
            len: 1,
        })
    }

    /// [`ExprState::leaf_with`] from a pre-derived pattern: the analysis
    /// pre-pass computes each instruction's [`OpType`] once per trace, so
    /// the dispatch hot path builds leaves without re-deriving (and
    /// re-allocating) operand-kind lists.
    pub fn leaf_from(index: u32, optype: OpType, opts: &CollapseOpts) -> Self {
        let raw = optype.kinds().count() as u8;
        let mut members = [None; MAX_MEMBERS];
        members[0] = Some((index, optype));
        ExprState {
            ops: if opts.zero_detection {
                optype.operand_count()
            } else {
                raw
            },
            raw_ops: raw,
            members,
            len: 1,
        }
    }

    /// Operand count after zero elision.
    pub fn ops(&self) -> u8 {
        self.ops
    }

    /// Operand count before zero elision.
    pub fn raw_ops(&self) -> u8 {
        self.raw_ops
    }

    /// Number of instructions in the group (1 = not collapsed).
    pub fn member_count(&self) -> usize {
        usize::from(self.len)
    }

    /// Whether this instruction has absorbed at least one producer.
    pub fn is_collapsed(&self) -> bool {
        self.len > 1
    }

    /// Whether zero-operand detection elided anything in this group.
    pub fn zero_elided(&self) -> bool {
        self.raw_ops > self.ops
    }

    /// The group members (trace index, pattern), oldest first.
    pub fn members(&self) -> impl Iterator<Item = (u32, OpType)> + '_ {
        self.members.iter().flatten().copied()
    }

    /// Attempts to absorb `producer` into this consumer through the given
    /// operand positions (one [`AbsorbSlot`] per position referencing the
    /// producer's destination — `Rc = Rb + Rb` absorbs `Rb`'s producer
    /// through two slots).
    ///
    /// Returns the merged state, or `None` when the result would exceed
    /// the 4-1 operand budget or the group-size limit. Eligibility of the
    /// *dependence itself* (operation classes, which operand carries it)
    /// is checked by [`crate::rules`], not here.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is empty.
    pub fn absorb(&self, producer: &ExprState, slots: &[AbsorbSlot]) -> Option<ExprState> {
        self.absorb_with(producer, slots, &CollapseOpts::default())
    }

    /// [`ExprState::absorb`] with explicit device parameters.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is empty.
    pub fn absorb_with(
        &self,
        producer: &ExprState,
        slots: &[AbsorbSlot],
        opts: &CollapseOpts,
    ) -> Option<ExprState> {
        self.absorb_set(producer, SlotSet::of(slots), opts)
    }

    /// [`ExprState::absorb_with`] over the counted form of the slot list.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is empty.
    pub fn absorb_set(
        &self,
        producer: &ExprState,
        slots: SlotSet,
        opts: &CollapseOpts,
    ) -> Option<ExprState> {
        assert!(!slots.is_empty(), "absorb with zero slots");
        let n = slots.len();
        // A detected-zero register still occupies a raw slot; without
        // zero detection it is a normal counted operand. A `%icc` link
        // occupies no operand slot at all.
        let raw_slots = slots.counted + slots.zero;
        let counted = if opts.zero_detection {
            slots.counted
        } else {
            raw_slots
        };
        // Each referencing position is replaced by the producer's full
        // operand list. Checked arithmetic: a slot list that does not
        // describe positions actually present in this expression is an
        // illegal absorb, not an overflow.
        let ops = (u16::from(self.ops) + n * u16::from(producer.ops)).checked_sub(counted)?;
        let raw_ops =
            (u16::from(self.raw_ops) + n * u16::from(producer.raw_ops)).checked_sub(raw_slots)?;
        // Legal when the (possibly zero-elided) size fits the device; if
        // the raw size also fits, no zero detection was needed.
        if ops > u16::from(opts.max_ops) || raw_ops > u16::from(u8::MAX) {
            return None;
        }
        let (ops, raw_ops) = (ops as u8, raw_ops as u8);
        let total_members = self.member_count() + producer.member_count();
        if total_members > opts.max_members.min(MAX_MEMBERS) {
            return None;
        }
        // A fourth member is only admitted when zero detection is doing
        // real work in this group.
        if total_members == MAX_MEMBERS && raw_ops <= ops {
            return None;
        }
        // Merge member lists sorted by trace index (both inputs sorted).
        let mut members = [None; MAX_MEMBERS];
        let mut a = producer.members();
        let mut b = self.members();
        let mut next_a = a.next();
        let mut next_b = b.next();
        for slot in members.iter_mut().take(total_members) {
            let take_a = match (next_a, next_b) {
                (Some(x), Some(y)) => x.0 <= y.0,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if take_a {
                *slot = next_a;
                next_a = a.next();
            } else {
                *slot = next_b;
                next_b = b.next();
            }
        }
        Some(ExprState {
            ops,
            raw_ops,
            members,
            len: total_members as u8,
        })
    }

    /// The paper's category for this collapsed group (Figure 9): `0-op`
    /// when zero detection was *necessary* (raw size above the 4-1 budget
    /// or a fourth member admitted), otherwise by raw expression size.
    ///
    /// Only meaningful when [`ExprState::is_collapsed`] is true.
    pub fn category(&self) -> CollapseCategory {
        if self.raw_ops > MAX_EXPR_OPS || self.member_count() == MAX_MEMBERS {
            CollapseCategory::ZeroOp
        } else if self.raw_ops == MAX_EXPR_OPS {
            CollapseCategory::FourOne
        } else {
            CollapseCategory::ThreeOne
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddsc_isa::{Cond, Opcode, Reg};

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    const C: &[AbsorbSlot] = &[AbsorbSlot::Counted];

    fn arrr(idx: u32, rd: u8, a: u8, b: u8) -> (u32, TraceInst) {
        (
            idx,
            TraceInst::alu(4 * idx, Opcode::Add, r(rd), r(a), Some(r(b)), None, 0),
        )
    }

    fn arri(idx: u32, rd: u8, a: u8, imm: i32) -> (u32, TraceInst) {
        (
            idx,
            TraceInst::alu(4 * idx, Opcode::Add, r(rd), r(a), None, Some(imm), 0),
        )
    }

    fn leaf(pair: &(u32, TraceInst)) -> ExprState {
        ExprState::leaf(pair.0, &pair.1).unwrap()
    }

    #[test]
    fn paper_example_shift_add_sub_is_4_1() {
        // 1. Rb = Rd << Rh ; 2. Rg = Rb + Re ; 3. Ra = Rf - Rg
        let i1 = (
            0,
            TraceInst::alu(0, Opcode::Sll, r(2), r(4), Some(r(8)), None, 0),
        );
        let i2 = (
            1,
            TraceInst::alu(4, Opcode::Add, r(7), r(2), Some(r(5)), None, 0),
        );
        let i3 = (
            2,
            TraceInst::alu(8, Opcode::Sub, r(1), r(6), Some(r(7)), None, 0),
        );
        let s2 = leaf(&i2).absorb(&leaf(&i1), C).unwrap();
        assert_eq!(s2.raw_ops(), 3, "Rg = (Rd << Rh) + Re is 3-1");
        assert_eq!(s2.category(), CollapseCategory::ThreeOne);
        let s3 = leaf(&i3).absorb(&s2, C).unwrap();
        assert_eq!(s3.raw_ops(), 4, "Ra = Rf - ((Rd << Rh) + Re) is 4-1");
        assert_eq!(s3.member_count(), 3);
        assert_eq!(s3.category(), CollapseCategory::FourOne);
    }

    #[test]
    fn duplicated_operand_doubles_producer_contribution() {
        // Rb = Ra + Rd ; Rc = Rb + Rb  =>  (Ra + Rd) + (Ra + Rd), a 4-1.
        let p = arrr(0, 2, 1, 4);
        let c = (
            1u32,
            TraceInst::alu(4, Opcode::Add, r(3), r(2), Some(r(2)), None, 0),
        );
        let merged = leaf(&c)
            .absorb(&leaf(&p), &[AbsorbSlot::Counted, AbsorbSlot::Counted])
            .unwrap();
        assert_eq!(merged.raw_ops(), 4);
        assert_eq!(merged.member_count(), 2, "a pair can be a 4-1");
        assert_eq!(merged.category(), CollapseCategory::FourOne);
    }

    #[test]
    fn five_operand_expression_rejected_without_zero() {
        let p = arrr(0, 2, 1, 4); // 2 ops
        let q = arrr(1, 3, 5, 6); // 2 ops
        let c = arrr(2, 7, 2, 3); // 2 ops
        let s = leaf(&c).absorb(&leaf(&p), C).unwrap(); // 3 ops
        let s = s.absorb(&leaf(&q), C).unwrap(); // 4 ops, 3 members
        assert_eq!(s.raw_ops(), 4);
        // A consumer absorbing this 4-op group: 2 - 1 + 4 = 5 > 4.
        let c2 = arrr(3, 8, 7, 9);
        assert_eq!(leaf(&c2).absorb(&s, C), None);
    }

    #[test]
    fn zero_detection_admits_fourth_member() {
        // §3's example: 1. Rf = Rg or 0x288 ; 2. Rh = Ra - 1 ;
        // 3. Rd = Rf >> Rh ; 4. Ra = [Rd + 0]
        let i1 = (
            0,
            TraceInst::alu(0, Opcode::Or, r(6), r(7), None, Some(0x288), 0),
        );
        let i2 = (
            1,
            TraceInst::alu(4, Opcode::Sub, r(8), r(1), None, Some(1), 0),
        );
        let i3 = (
            2,
            TraceInst::alu(8, Opcode::Srl, r(4), r(6), Some(r(8)), None, 0),
        );
        let i4 = (
            3,
            TraceInst::load(12, Opcode::Ld, r(1), r(4), None, Some(0), 0, 0x40),
        );
        let s3 = leaf(&i3).absorb(&leaf(&i1), C).unwrap(); // (Rg|0x288) >> Rh
        let s3 = s3.absorb(&leaf(&i2), C).unwrap(); // (Rg|0x288) >> (Ra-1)
        assert_eq!(s3.raw_ops(), 4);
        // The load contributes [x + 0]: raw 2 operands, 1 after elision.
        let s4 = leaf(&i4).absorb(&s3, C).unwrap();
        assert_eq!(s4.raw_ops(), 5, "the raw expression is a 5-1");
        assert_eq!(s4.ops(), 4, "reduced to a collapsible 4-1 by the zero");
        assert_eq!(s4.member_count(), 4);
        assert!(s4.zero_elided());
        assert_eq!(s4.category(), CollapseCategory::ZeroOp);
    }

    #[test]
    fn fourth_member_rejected_without_zero_detection() {
        let p1 = arri(0, 2, 1, 5);
        let c1 = arri(1, 3, 2, 6);
        let s = leaf(&c1).absorb(&leaf(&p1), C).unwrap(); // 3 ops, 2 members
        let c2 = arri(2, 4, 3, 7);
        let s = leaf(&c2).absorb(&s, C).unwrap(); // 4 ops, 3 members
        assert_eq!(s.member_count(), 3);
        // A register move (1 raw op, no zero) keeps the size at 4 but
        // would make a 4th member — rejected without zero elision.
        let mv = (
            3u32,
            TraceInst::mov(12, Opcode::Mov, r(5), Some(r(4)), None, 0),
        );
        assert_eq!(leaf(&mv).absorb(&s, C), None);
    }

    #[test]
    fn branch_collapses_with_compare_through_icc_slot() {
        let cmp = (0u32, TraceInst::cmp(0, r(1), None, Some(7), 0));
        let brc = (
            1u32,
            TraceInst::cond_branch(4, Opcode::Bcc(Cond::Ne), true, 0x40),
        );
        let s = leaf(&brc).absorb(&leaf(&cmp), &[AbsorbSlot::Icc]).unwrap();
        assert_eq!(s.raw_ops(), 2, "the branch adds no operands of its own");
        assert_eq!(s.member_count(), 2);
        assert_eq!(s.category(), CollapseCategory::ThreeOne);
        let pattern: Vec<String> = s.members().map(|(_, t)| t.to_string()).collect();
        assert_eq!(pattern, vec!["arri", "brc"], "Table 5's arri–brc pair");
    }

    #[test]
    fn zero_reg_slot_unelides_the_operand() {
        // Consumer `or r1, r2, r3` where r3 happens to hold 0: counted
        // size 1 (lgr0). Absorbing r3's producer through the zero slot
        // re-expands the expression by the producer's operands.
        let p = arri(0, 3, 9, 1); // r3 = r9 + 1 (2 ops)
        let c = (
            1u32,
            TraceInst::alu(
                4,
                Opcode::Or,
                r(1),
                r(2),
                Some(r(3)),
                None,
                ddsc_trace::record::ZERO_RS2,
            ),
        );
        let base = leaf(&c);
        assert_eq!(base.ops(), 1);
        assert_eq!(base.raw_ops(), 2);
        let s = base.absorb(&leaf(&p), &[AbsorbSlot::ZeroReg]).unwrap();
        assert_eq!(s.ops(), 3, "1 + producer's 2 ops");
        assert_eq!(s.raw_ops(), 3, "2 - 1 + 2");
    }

    #[test]
    fn members_stay_sorted_by_trace_index() {
        let p1 = arrr(5, 2, 1, 4);
        let p2 = arrr(3, 3, 5, 6);
        let c = arrr(9, 7, 2, 3);
        let s = leaf(&c).absorb(&leaf(&p1), C).unwrap();
        let s = s.absorb(&leaf(&p2), C).unwrap();
        let idxs: Vec<u32> = s.members().map(|(i, _)| i).collect();
        assert_eq!(idxs, vec![3, 5, 9]);
    }

    #[test]
    fn mul_has_no_leaf_state() {
        let i = TraceInst::alu(0, Opcode::Mul, r(1), r(2), Some(r(3)), None, 0);
        assert_eq!(ExprState::leaf(0, &i), None);
    }

    #[test]
    fn category_display() {
        assert_eq!(CollapseCategory::ThreeOne.to_string(), "3-1");
        assert_eq!(CollapseCategory::FourOne.to_string(), "4-1");
        assert_eq!(CollapseCategory::ZeroOp.to_string(), "0-op");
    }

    #[test]
    fn lgr0_chain_is_a_4_1_as_in_table_6() {
        // lgr0 – lgr0 – arrr, the second-most-frequent 4-1 in Table 6:
        // zeros count toward the raw size, so the chain needs the 4-1
        // device even though the elided size is 2.
        let zf = ddsc_trace::record::ZERO_RS2;
        let l1 = (
            0u32,
            TraceInst::alu(0, Opcode::And, r(2), r(1), Some(r(9)), None, zf),
        );
        let l2 = (
            1u32,
            TraceInst::alu(4, Opcode::And, r(3), r(2), Some(r(9)), None, zf),
        );
        let c = arrr(2, 4, 3, 5);
        let s = leaf(&l2).absorb(&leaf(&l1), C).unwrap();
        let s = leaf(&c).absorb(&s, C).unwrap();
        assert_eq!(s.raw_ops(), 4);
        assert_eq!(s.category(), CollapseCategory::FourOne);
        let pattern: Vec<String> = s.members().map(|(_, t)| t.to_string()).collect();
        assert_eq!(pattern, vec!["lgr0", "lgr0", "arrr"]);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Strategy over simple ALU leaf instructions with random
        /// operand shapes (register/immediate/zero mixes).
        fn leaf_strategy(idx: u32) -> impl Strategy<Value = ExprState> {
            (0u8..4, 1u8..8, proptest::option::of(-7i32..8)).prop_map(move |(shape, reg, imm)| {
                let inst = match shape {
                    0 => TraceInst::alu(
                        4 * idx,
                        Opcode::Add,
                        r(1),
                        r(reg),
                        Some(r(reg % 7 + 1)),
                        None,
                        0,
                    ),
                    1 => TraceInst::alu(
                        4 * idx,
                        Opcode::Or,
                        r(1),
                        r(reg),
                        None,
                        Some(imm.unwrap_or(1)),
                        0,
                    ),
                    2 => {
                        TraceInst::mov(4 * idx, Opcode::Mov, r(1), None, Some(imm.unwrap_or(3)), 0)
                    }
                    _ => TraceInst::alu(
                        4 * idx,
                        Opcode::Xor,
                        r(1),
                        r(reg),
                        Some(r(reg % 7 + 1)),
                        None,
                        ddsc_trace::record::ZERO_RS2,
                    ),
                };
                ExprState::leaf(idx, &inst).expect("ALU leaves always exist")
            })
        }

        /// Any absorb slot.
        fn slot_strategy() -> impl Strategy<Value = AbsorbSlot> {
            (0u8..3).prop_map(|k| match k {
                0 => AbsorbSlot::Counted,
                1 => AbsorbSlot::ZeroReg,
                _ => AbsorbSlot::Icc,
            })
        }

        /// A producer group of one to three members ending at index 2.
        fn producer_strategy() -> impl Strategy<Value = ExprState> {
            (leaf_strategy(0), leaf_strategy(1), leaf_strategy(2), 0u8..4).prop_map(
                |(a, b, p, take)| {
                    let mut p = p;
                    for (bit, q) in [(1, b), (2, a)] {
                        if take & bit != 0 {
                            p = p.absorb(&q, C).unwrap_or(p);
                        }
                    }
                    p
                },
            )
        }

        /// Every device the ablations use.
        fn opts_strategy() -> impl Strategy<Value = CollapseOpts> {
            (any::<bool>(), 3u8..5, 2usize..5).prop_map(|(zero_detection, max_ops, max_members)| {
                CollapseOpts {
                    zero_detection,
                    max_members,
                    max_ops,
                }
            })
        }

        /// `absorb_with` as it computed over slot lists before they were
        /// counted: (ops, raw ops, member indices) of the merged group.
        fn slice_absorb(
            consumer: &ExprState,
            producer: &ExprState,
            slots: &[AbsorbSlot],
            opts: &CollapseOpts,
        ) -> Option<(u8, u8, Vec<u32>)> {
            let ops_contribution = |s: &AbsorbSlot| u16::from(*s == AbsorbSlot::Counted);
            let raw_contribution = |s: &AbsorbSlot| u16::from(*s != AbsorbSlot::Icc);
            let n = slots.len() as u16;
            let counted: u16 = if opts.zero_detection {
                slots.iter().map(ops_contribution).sum()
            } else {
                slots.iter().map(raw_contribution).sum()
            };
            let raw_slots: u16 = slots.iter().map(raw_contribution).sum();
            let ops =
                (u16::from(consumer.ops) + n * u16::from(producer.ops)).checked_sub(counted)?;
            let raw_ops = (u16::from(consumer.raw_ops) + n * u16::from(producer.raw_ops))
                .checked_sub(raw_slots)?;
            if ops > u16::from(opts.max_ops) || raw_ops > u16::from(u8::MAX) {
                return None;
            }
            let total = consumer.member_count() + producer.member_count();
            if total > opts.max_members.min(MAX_MEMBERS) || (total == MAX_MEMBERS && raw_ops <= ops)
            {
                return None;
            }
            let mut members: Vec<u32> = producer
                .members()
                .chain(consumer.members())
                .map(|(i, _)| i)
                .collect();
            members.sort_unstable();
            Some((ops as u8, raw_ops as u8, members))
        }

        proptest! {
            /// Counting a slot list changes no absorb verdict or merged
            /// size under any device.
            #[test]
            fn counted_slots_match_the_slice_arithmetic(
                producer in producer_strategy(),
                consumer in leaf_strategy(3),
                slots in proptest::collection::vec(slot_strategy(), 1..9),
                opts in opts_strategy(),
            ) {
                let merged = consumer.absorb_set(&producer, SlotSet::of(&slots), &opts);
                prop_assert_eq!(merged, consumer.absorb_with(&producer, &slots, &opts));
                let got = merged.map(|m| {
                    (m.ops(), m.raw_ops(), m.members().map(|(i, _)| i).collect::<Vec<u32>>())
                });
                prop_assert_eq!(got, slice_absorb(&consumer, &producer, &slots, &opts));
            }

            /// `add_times` is the count of the list with the other
            /// list appended `k` times.
            #[test]
            fn add_times_counts_repeated_appends(
                base in proptest::collection::vec(slot_strategy(), 0..9),
                extra in proptest::collection::vec(slot_strategy(), 1..9),
                times in 1u16..4,
            ) {
                let mut set = SlotSet::of(&base);
                set.add_times(SlotSet::of(&extra), times);
                let mut list = base.clone();
                for _ in 0..times {
                    list.extend_from_slice(&extra);
                }
                prop_assert_eq!(set, SlotSet::of(&list));
                prop_assert_eq!(usize::from(set.len()), list.len());
            }

            /// Invariants of absorb: elided size never exceeds raw size,
            /// both fit the device budget, members stay sorted and within
            /// the group cap.
            #[test]
            fn absorb_preserves_invariants(
                producer in leaf_strategy(0),
                consumer in leaf_strategy(1),
                two_slots in any::<bool>(),
            ) {
                let slots = if two_slots {
                    vec![AbsorbSlot::Counted, AbsorbSlot::Counted]
                } else {
                    vec![AbsorbSlot::Counted]
                };
                if let Some(merged) = consumer.absorb(&producer, &slots) {
                    prop_assert!(merged.ops() <= merged.raw_ops());
                    prop_assert!(merged.ops() <= MAX_EXPR_OPS);
                    prop_assert!(merged.member_count() <= MAX_MEMBERS);
                    prop_assert!(merged.is_collapsed());
                    let idxs: Vec<u32> = merged.members().map(|(i, _)| i).collect();
                    let mut sorted = idxs.clone();
                    sorted.sort_unstable();
                    prop_assert_eq!(idxs, sorted);
                }
            }

            /// Chained absorbs never exceed the budget no matter the
            /// chain length attempted.
            #[test]
            fn chains_respect_the_budget(
                leaves in proptest::collection::vec(0u8..4, 1..8),
            ) {
                let mut state: Option<ExprState> = None;
                for (i, &shape) in leaves.iter().enumerate() {
                    let idx = i as u32;
                    let inst = match shape {
                        0 => TraceInst::alu(4 * idx, Opcode::Add, r(1), r(2), Some(r(3)), None, 0),
                        1 => TraceInst::alu(4 * idx, Opcode::Sub, r(1), r(2), None, Some(5), 0),
                        2 => TraceInst::mov(4 * idx, Opcode::Mov, r(1), None, Some(9), 0),
                        _ => TraceInst::alu(4 * idx, Opcode::Sll, r(1), r(2), None, Some(0), 0),
                    };
                    let leaf = ExprState::leaf(idx, &inst).unwrap();
                    state = Some(match state {
                        None => leaf,
                        Some(prev) => leaf.absorb(&prev, &[AbsorbSlot::Counted]).unwrap_or(leaf),
                    });
                }
                let s = state.unwrap();
                prop_assert!(s.ops() <= MAX_EXPR_OPS);
                prop_assert!(s.member_count() <= MAX_MEMBERS);
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero slots")]
    fn empty_slots_panics() {
        let p = arrr(0, 2, 1, 4);
        let c = arrr(1, 3, 2, 5);
        leaf(&c).absorb(&leaf(&p), &[]);
    }

    #[test]
    fn leaf_from_matches_leaf_with() {
        let mut t = ddsc_trace::Trace::new("leaves");
        t.push(TraceInst::alu(0, Opcode::Add, r(1), r(2), None, Some(1), 0));
        t.push(TraceInst::alu(
            4,
            Opcode::Mul,
            r(3),
            r(1),
            Some(r(2)),
            None,
            0,
        ));
        t.push(TraceInst::load(
            8,
            Opcode::Ld,
            r(4),
            r(1),
            None,
            Some(0),
            0,
            64,
        ));
        t.push(TraceInst::cond_branch(12, Opcode::Bcc(Cond::Ne), true, 0));
        t.push(TraceInst::uncond(
            16,
            Opcode::Call,
            Some(Reg::LINK),
            None,
            0x40,
        ));
        for opts in [
            CollapseOpts::default(),
            CollapseOpts {
                zero_detection: false,
                ..CollapseOpts::default()
            },
        ] {
            for (i, inst) in t.insts().iter().enumerate() {
                assert_eq!(
                    inst.optype()
                        .map(|optype| ExprState::leaf_from(i as u32, optype, &opts)),
                    ExprState::leaf_with(i as u32, inst, &opts),
                    "inst {i}"
                );
            }
        }
    }
}
