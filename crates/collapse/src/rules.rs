//! Eligibility rules: which dependences may be collapsed.
//!
//! §3 of the paper: collapsible operation types are "shift, arithmetic
//! (not multiply or divide), logical, move, address generation (for loads
//! and stores), and condition code generation for branch instructions".
//! In dependence terms:
//!
//! * a **producer** must be an ALU-class instruction (arith / logic /
//!   shift / move) with a register (or `%icc`) result;
//! * a **consumer** may absorb a producer through: any data operand if it
//!   is itself ALU-class; its *address* operands if it is a load or
//!   store (never the store-data operand); its `%icc` dependence if it
//!   is a conditional branch.
//!
//! A dependence can be absorbed through at most two operand positions
//! ([`absorb_slots`] returns rs1/rs2 or the single `%icc` link), so a
//! slot list packs into one byte ([`encode_slots`]): the pre-pass tags
//! every dependence edge with one.

use ddsc_isa::{OpClass, Reg};
use ddsc_trace::record::{ZERO_RS1, ZERO_RS2};
use ddsc_trace::TraceInst;

use crate::expr::AbsorbSlot;

/// Whether an instruction's result may be absorbed into a dependent
/// instruction (it is a collapsible producer with a real destination).
pub fn can_produce(producer: &TraceInst) -> bool {
    producer.op.class().is_collapsible_producer() && producer.dest.is_some()
}

/// The operand positions of `consumer` through which a dependence on
/// `producer_dest` may be collapsed — empty when the dependence is not of
/// a collapsible kind (or does not exist).
///
/// A store whose *data* operand depends on `producer_dest` returns no
/// slots even if an address operand matches too: the data dependence
/// would survive the collapse, so there is no latency to win.
///
/// # Examples
///
/// ```
/// use ddsc_collapse::{absorb_slots, AbsorbSlot};
/// use ddsc_trace::TraceInst;
/// use ddsc_isa::{Opcode, Reg};
///
/// let add = TraceInst::alu(0, Opcode::Add, Reg::new(5), Reg::new(3), Some(Reg::new(3)), None, 0);
/// assert_eq!(
///     absorb_slots(&add, Reg::new(3)),
///     vec![AbsorbSlot::Counted, AbsorbSlot::Counted]
/// );
/// ```
pub fn absorb_slots(consumer: &TraceInst, producer_dest: Reg) -> Vec<AbsorbSlot> {
    let mut slots = Vec::new();
    match consumer.op.class() {
        OpClass::Arith | OpClass::Logic | OpClass::Shift | OpClass::Move => {
            push_operand_slots(consumer, producer_dest, &mut slots);
        }
        OpClass::Load => {
            push_operand_slots(consumer, producer_dest, &mut slots);
        }
        OpClass::Store => {
            if consumer.data_reg == Some(producer_dest) {
                // The data dependence is not collapsible and would remain.
                return Vec::new();
            }
            push_operand_slots(consumer, producer_dest, &mut slots);
        }
        OpClass::CondBranch => {
            if producer_dest.is_icc() {
                slots.push(AbsorbSlot::Icc);
            }
        }
        OpClass::Uncond | OpClass::Mul | OpClass::Div | OpClass::Nop => {}
    }
    slots
}

/// The [`encode_slots`] byte of [`absorb_slots`]`(consumer,
/// producer_dest)`, built without the intermediate list: the pre-pass
/// walk calls this once per dependence edge. [`absorb_slots`] stays the
/// statement of the rules (the frozen reference simulator calls it) and
/// the oracle this function is tested against.
///
/// # Examples
///
/// ```
/// use ddsc_collapse::{absorb_slots, encode_slots, slot_code};
/// use ddsc_trace::TraceInst;
/// use ddsc_isa::{Opcode, Reg};
///
/// let add = TraceInst::alu(0, Opcode::Add, Reg::new(5), Reg::new(3), Some(Reg::new(3)), None, 0);
/// let code = slot_code(&add, Reg::new(3));
/// assert_eq!(code, encode_slots(&absorb_slots(&add, Reg::new(3))));
/// ```
pub fn slot_code(consumer: &TraceInst, producer_dest: Reg) -> u8 {
    let via_operands = match consumer.op.class() {
        OpClass::Arith | OpClass::Logic | OpClass::Shift | OpClass::Move | OpClass::Load => true,
        // The data dependence is not collapsible and would remain.
        OpClass::Store => consumer.data_reg != Some(producer_dest),
        OpClass::CondBranch => {
            return if producer_dest.is_icc() {
                push_code(0, AbsorbSlot::Icc)
            } else {
                0
            };
        }
        OpClass::Uncond | OpClass::Mul | OpClass::Div | OpClass::Nop => false,
    };
    let mut code = 0;
    if via_operands {
        for (reg, zero) in [(consumer.rs1, ZERO_RS1), (consumer.rs2, ZERO_RS2)] {
            if reg == Some(producer_dest) {
                let slot = if consumer.zero_flags & zero != 0 {
                    AbsorbSlot::ZeroReg
                } else {
                    AbsorbSlot::Counted
                };
                code = push_code(code, slot);
            }
        }
    }
    code
}

/// Appends one slot to an [`encode_slots`] byte.
fn push_code(code: u8, slot: AbsorbSlot) -> u8 {
    let kind = match slot {
        AbsorbSlot::Counted => 0u8,
        AbsorbSlot::ZeroReg => 1,
        AbsorbSlot::Icc => 2,
    };
    (code + 1) | kind << (2 + 2 * (code & 3))
}

/// Packs an absorb-slot list (at most two positions) into one byte:
/// bits 0–1 hold the count, bits 2–3 and 4–5 one slot kind each.
///
/// # Panics
///
/// Panics if `slots` has more than two entries — the rules never produce
/// more.
pub fn encode_slots(slots: &[AbsorbSlot]) -> u8 {
    assert!(slots.len() <= 2, "a dependence spans at most two operands");
    slots.iter().fold(0, |code, &s| push_code(code, s))
}

/// Unpacks an [`encode_slots`] byte; the slice view of the returned array
/// is `&decoded[..count]`.
pub fn decode_slots(code: u8) -> ([AbsorbSlot; 2], usize) {
    let kind = |bits: u8| match bits & 3 {
        0 => AbsorbSlot::Counted,
        1 => AbsorbSlot::ZeroReg,
        _ => AbsorbSlot::Icc,
    };
    let count = usize::from(code & 3);
    ([kind(code >> 2), kind(code >> 4)], count)
}

fn push_operand_slots(consumer: &TraceInst, dest: Reg, slots: &mut Vec<AbsorbSlot>) {
    if consumer.rs1 == Some(dest) {
        slots.push(if consumer.zero_flags & ZERO_RS1 != 0 {
            AbsorbSlot::ZeroReg
        } else {
            AbsorbSlot::Counted
        });
    }
    if consumer.rs2 == Some(dest) {
        slots.push(if consumer.zero_flags & ZERO_RS2 != 0 {
            AbsorbSlot::ZeroReg
        } else {
            AbsorbSlot::Counted
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddsc_isa::{Cond, Opcode};

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    #[test]
    fn alu_producers_are_collapsible() {
        let add = TraceInst::alu(0, Opcode::Add, r(1), r(2), None, Some(1), 0);
        assert!(can_produce(&add));
        let shift = TraceInst::alu(0, Opcode::Sll, r(1), r(2), None, Some(1), 0);
        assert!(can_produce(&shift));
        let cmp = TraceInst::cmp(0, r(1), None, Some(0), 0);
        assert!(can_produce(&cmp), "cmp produces %icc");
    }

    #[test]
    fn non_alu_producers_are_not() {
        let ld = TraceInst::load(0, Opcode::Ld, r(1), r(2), None, Some(0), 0, 0);
        assert!(!can_produce(&ld), "load results come from memory");
        let mul = TraceInst::alu(0, Opcode::Mul, r(1), r(2), Some(r(3)), None, 0);
        assert!(!can_produce(&mul));
        let div = TraceInst::alu(0, Opcode::Div, r(1), r(2), None, Some(2), 0);
        assert!(!can_produce(&div));
        let g0 = TraceInst::alu(0, Opcode::Add, Reg::G0, r(2), None, Some(1), 0);
        assert!(!can_produce(&g0), "no destination, nothing to absorb");
    }

    #[test]
    fn load_address_operands_are_absorbable() {
        let ld = TraceInst::load(0, Opcode::Ld, r(1), r(2), Some(r(3)), None, 0, 0);
        assert_eq!(absorb_slots(&ld, r(2)), vec![AbsorbSlot::Counted]);
        assert_eq!(absorb_slots(&ld, r(3)), vec![AbsorbSlot::Counted]);
        assert!(absorb_slots(&ld, r(9)).is_empty(), "no dependence at all");
    }

    #[test]
    fn store_data_dependence_is_not_absorbable() {
        // st r5, [r6 + 8]
        let st = TraceInst::store(0, Opcode::St, r(5), r(6), None, Some(8), 0, 0);
        assert_eq!(absorb_slots(&st, r(6)), vec![AbsorbSlot::Counted]);
        assert!(absorb_slots(&st, r(5)).is_empty(), "data operand");
        // st r5, [r5 + 8]: the address matches but the data dependence
        // would survive, so nothing is won.
        let st2 = TraceInst::store(0, Opcode::St, r(5), r(5), None, Some(8), 0, 0);
        assert!(absorb_slots(&st2, r(5)).is_empty());
    }

    #[test]
    fn branch_absorbs_only_icc() {
        let b = TraceInst::cond_branch(0, Opcode::Bcc(Cond::Gt), false, 0);
        assert_eq!(absorb_slots(&b, Reg::ICC), vec![AbsorbSlot::Icc]);
        assert!(absorb_slots(&b, r(1)).is_empty());
    }

    #[test]
    fn duplicated_register_yields_two_slots() {
        let add = TraceInst::alu(0, Opcode::Add, r(4), r(3), Some(r(3)), None, 0);
        assert_eq!(absorb_slots(&add, r(3)).len(), 2);
    }

    #[test]
    fn zero_flagged_operands_yield_zero_slots() {
        let or = TraceInst::alu(0, Opcode::Or, r(1), r(2), Some(r(3)), None, ZERO_RS2);
        assert_eq!(absorb_slots(&or, r(3)), vec![AbsorbSlot::ZeroReg]);
        assert_eq!(absorb_slots(&or, r(2)), vec![AbsorbSlot::Counted]);
    }

    #[test]
    fn mul_div_consumers_absorb_nothing() {
        let mul = TraceInst::alu(0, Opcode::Mul, r(1), r(2), Some(r(3)), None, 0);
        assert!(absorb_slots(&mul, r(2)).is_empty());
        let div = TraceInst::alu(0, Opcode::Div, r(1), r(2), Some(r(3)), None, 0);
        assert!(absorb_slots(&div, r(3)).is_empty());
    }

    #[test]
    fn slot_codes_round_trip() {
        use AbsorbSlot::*;
        for slots in [
            vec![],
            vec![Counted],
            vec![ZeroReg],
            vec![Icc],
            vec![Counted, Counted],
            vec![Counted, ZeroReg],
            vec![ZeroReg, Counted],
            vec![ZeroReg, ZeroReg],
        ] {
            let (decoded, count) = decode_slots(encode_slots(&slots));
            assert_eq!(&decoded[..count], slots.as_slice(), "{slots:?}");
        }
    }

    #[test]
    fn slot_code_matches_the_encoded_rules_on_every_operand_shape() {
        let ops: Vec<Opcode> = (0..=u8::MAX)
            .filter_map(|b| ddsc_trace::io::decode_op(b).ok())
            .collect();
        assert_eq!(ops.len(), 33, "every opcode, each Bcc condition included");
        // The second operand: none, %g0, the rs1 register again, another
        // register, a zero and a non-zero immediate.
        let seconds = [
            (None, None),
            (Some(Reg::G0), None),
            (Some(r(1)), None),
            (Some(r(2)), None),
            (None, Some(0)),
            (None, Some(-5)),
        ];
        // Producers: rs1's and rs2's registers, the store-data register,
        // %icc and an unrelated register.
        let producers = [r(1), r(2), r(3), Reg::ICC, r(9)];
        let mut checked = 0;
        for op in ops {
            for rs1 in [None, Some(Reg::G0), Some(r(1))] {
                for (rs2, imm) in seconds {
                    for data_reg in [None, Some(r(1)), Some(r(3))] {
                        for zero_flags in 0..=3 {
                            let consumer = TraceInst {
                                pc: 0,
                                op,
                                dest: None,
                                rs1,
                                rs2,
                                imm,
                                data_reg,
                                zero_flags,
                                ea: None,
                                taken: false,
                                target: 0,
                                value: None,
                            };
                            for producer in producers {
                                assert_eq!(
                                    slot_code(&consumer, producer),
                                    encode_slots(&absorb_slots(&consumer, producer)),
                                    "{consumer:?} absorbing {producer}"
                                );
                                checked += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(checked, 33 * 3 * 6 * 3 * 4 * 5);
    }

    #[test]
    fn empty_slot_list_encodes_to_zero() {
        assert_eq!(encode_slots(&[]), 0);
        let (_, count) = decode_slots(0);
        assert_eq!(count, 0);
    }

    #[test]
    #[should_panic(expected = "at most two")]
    fn three_slots_rejected() {
        use AbsorbSlot::Counted;
        encode_slots(&[Counted, Counted, Counted]);
    }
}
