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

/// Packs an absorb-slot list (at most two positions) into one byte:
/// bits 0–1 hold the count, bits 2–3 and 4–5 one slot kind each.
///
/// # Panics
///
/// Panics if `slots` has more than two entries — the rules never produce
/// more.
pub fn encode_slots(slots: &[AbsorbSlot]) -> u8 {
    assert!(slots.len() <= 2, "a dependence spans at most two operands");
    let kind = |s: AbsorbSlot| match s {
        AbsorbSlot::Counted => 0u8,
        AbsorbSlot::ZeroReg => 1,
        AbsorbSlot::Icc => 2,
    };
    let mut code = slots.len() as u8;
    for (k, &s) in slots.iter().enumerate() {
        code |= kind(s) << (2 + 2 * k);
    }
    code
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
