//! Data dependence collapsing: expression model, rules and statistics.
//!
//! The paper's d-collapsing hardware combines a dependence among up to
//! three (occasionally four) instructions into a single *dependence
//! expression* executed in one cycle, provided the expression needs at
//! most four source operands (a "4-1" expression) after zero-operand
//! detection. Collapsible operation classes are shift, fixed-point
//! arithmetic (not multiply/divide), logicals, moves, the address
//! generation of loads and stores, and the condition-code generation
//! feeding conditional branches.
//!
//! This crate owns everything about collapsing that does not require
//! timing state:
//!
//! * [`ExprState`] — the operand-count / member bookkeeping carried by
//!   each in-flight instruction, and [`ExprState::absorb`], the legality
//!   check + state transition for collapsing one producer into a
//!   consumer;
//! * [`rules`] — which dependences of which consumers are collapsible,
//!   and the one-byte absorb-slot code ([`encode_slots`]) the
//!   pre-pass tags each dependence edge with;
//! * [`CollapseCategory`] — the paper's 3-1 / 4-1 / zero-operand-detection
//!   classification (Figure 9);
//! * [`PatternTable`] and [`CollapseStats`] — the frequency tables behind
//!   Tables 5/6 and Figures 8–10.
//!
//! The *scheduling* decision of when to collapse (producer still in the
//! window and not yet issued) lives in `ddsc-core`, which drives these
//! types.

pub mod expr;
pub mod patterns;
pub mod rules;
pub mod stats;

pub use expr::{
    AbsorbSlot, CollapseCategory, CollapseOpts, ExprState, SlotSet, MAX_EXPR_OPS, MAX_MEMBERS,
};
pub use patterns::{PatternKey, PatternTable};
pub use rules::{absorb_slots, can_produce, decode_slots, encode_slots, slot_code};
pub use stats::CollapseStats;
