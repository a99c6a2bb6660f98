//! The dynamic-instruction record.

use std::fmt;

use ddsc_isa::{OpType, Opcode, OperandKind, PatClass, Reg};

/// Zero-detection flag for the first register source.
pub const ZERO_RS1: u8 = 1 << 0;
/// Zero-detection flag for the second register source.
pub const ZERO_RS2: u8 = 1 << 1;

/// One dynamic instruction as it appears in a trace.
///
/// Besides the architectural fields, the record carries the dynamic
/// information the study needs:
///
/// * `zero_flags` — whether each register source held the value 0 when it
///   was read (the paper's zero-operand detection also covers registers
///   that *happen* to contain zero, not just `%g0`);
/// * `ea` — the effective address of loads and stores, consumed by the
///   stride predictor and by perfect memory disambiguation;
/// * `taken` / `target` — the branch outcome, consumed by the branch
///   predictors.
///
/// Register dependences are exposed through [`TraceInst::reg_sources`];
/// the hardwired zero register never produces a dependence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceInst {
    /// Instruction address.
    pub pc: u32,
    /// Operation.
    pub op: Opcode,
    /// Destination register (`%icc` for `cmp`, `%r15` for `call`);
    /// `None` for stores, branches and writes to `%g0`.
    pub dest: Option<Reg>,
    /// First register source.
    pub rs1: Option<Reg>,
    /// Second register source (register form of `src2`).
    pub rs2: Option<Reg>,
    /// Immediate source (immediate form of `src2`).
    pub imm: Option<i32>,
    /// Store-data source register.
    pub data_reg: Option<Reg>,
    /// Dynamic zero-value detection for `rs1`/`rs2` ([`ZERO_RS1`], [`ZERO_RS2`]).
    pub zero_flags: u8,
    /// Effective address for loads and stores.
    pub ea: Option<u32>,
    /// Conditional-branch outcome.
    pub taken: bool,
    /// Control-transfer target PC (taken branches, calls, returns, jumps).
    pub target: u32,
    /// The value written to the destination register, recorded by the VM
    /// for every register-writing instruction. Consumed by the value-
    /// prediction extension (the paper's §1/Figure 1d d-speculation on
    /// data values).
    pub value: Option<u32>,
}

#[allow(clippy::too_many_arguments)] // mirrors the instruction format
impl TraceInst {
    /// Builds an ALU record: `dest = rs1 op (rs2|imm)`.
    ///
    /// A destination of `%g0` is recorded as no destination (writes to the
    /// zero register are architectural no-ops).
    pub fn alu(
        pc: u32,
        op: Opcode,
        rd: Reg,
        rs1: Reg,
        rs2: Option<Reg>,
        imm: Option<i32>,
        zero_flags: u8,
    ) -> Self {
        TraceInst {
            pc,
            op,
            dest: if rd.is_zero() { None } else { Some(rd) },
            rs1: Some(rs1),
            rs2,
            imm,
            data_reg: None,
            zero_flags,
            ea: None,
            taken: false,
            target: 0,
            value: None,
        }
    }

    /// Builds a compare record: `%icc = flags(rs1 - (rs2|imm))`.
    pub fn cmp(pc: u32, rs1: Reg, rs2: Option<Reg>, imm: Option<i32>, zero_flags: u8) -> Self {
        TraceInst {
            pc,
            op: Opcode::Cmp,
            dest: Some(Reg::ICC),
            rs1: Some(rs1),
            rs2,
            imm,
            data_reg: None,
            zero_flags,
            ea: None,
            taken: false,
            target: 0,
            value: None,
        }
    }

    /// Builds a move record: `dest = (rs2|imm)`.
    pub fn mov(
        pc: u32,
        op: Opcode,
        rd: Reg,
        rs2: Option<Reg>,
        imm: Option<i32>,
        zero_flags: u8,
    ) -> Self {
        TraceInst {
            pc,
            op,
            dest: if rd.is_zero() { None } else { Some(rd) },
            rs1: None,
            rs2,
            imm,
            data_reg: None,
            zero_flags,
            ea: None,
            taken: false,
            target: 0,
            value: None,
        }
    }

    /// Builds a load record: `dest = mem[rs1 + (rs2|imm)]`.
    pub fn load(
        pc: u32,
        op: Opcode,
        rd: Reg,
        rs1: Reg,
        rs2: Option<Reg>,
        imm: Option<i32>,
        zero_flags: u8,
        ea: u32,
    ) -> Self {
        TraceInst {
            pc,
            op,
            dest: if rd.is_zero() { None } else { Some(rd) },
            rs1: Some(rs1),
            rs2,
            imm,
            data_reg: None,
            zero_flags,
            ea: Some(ea),
            taken: false,
            target: 0,
            value: None,
        }
    }

    /// Builds a store record: `mem[rs1 + (rs2|imm)] = data`.
    pub fn store(
        pc: u32,
        op: Opcode,
        data: Reg,
        rs1: Reg,
        rs2: Option<Reg>,
        imm: Option<i32>,
        zero_flags: u8,
        ea: u32,
    ) -> Self {
        TraceInst {
            pc,
            op,
            dest: None,
            rs1: Some(rs1),
            rs2,
            imm,
            data_reg: if data.is_zero() { None } else { Some(data) },
            zero_flags,
            ea: Some(ea),
            taken: false,
            target: 0,
            value: None,
        }
    }

    /// Builds a conditional-branch record.
    pub fn cond_branch(pc: u32, op: Opcode, taken: bool, target: u32) -> Self {
        debug_assert!(op.is_cond_branch());
        TraceInst {
            pc,
            op,
            dest: None,
            rs1: None,
            rs2: None,
            imm: None,
            data_reg: None,
            zero_flags: 0,
            ea: None,
            taken,
            target,
            value: None,
        }
    }

    /// Builds an unconditional-control record (`ba`, `call`, `ret`, `jmp`).
    ///
    /// `call` writes the link register; `ret`/`jmp` read `rs1`.
    pub fn uncond(pc: u32, op: Opcode, dest: Option<Reg>, rs1: Option<Reg>, target: u32) -> Self {
        TraceInst {
            pc,
            op,
            dest,
            rs1,
            rs2: None,
            imm: None,
            data_reg: None,
            zero_flags: 0,
            ea: None,
            taken: true,
            target,
            value: None,
        }
    }

    /// Returns the record with its destination value attached (used by
    /// the VM; `None`-destination records ignore the value).
    pub fn with_value(mut self, value: u32) -> Self {
        if self.dest.is_some() {
            self.value = Some(value);
        }
        self
    }

    /// Iterates over the register names this instruction truly depends on:
    /// `rs1`, `rs2`, the store-data register, and `%icc` for conditional
    /// branches. The hardwired zero register is skipped — it can never
    /// carry a dependence.
    pub fn reg_sources(&self) -> SourceIter {
        SourceIter {
            inst: *self,
            idx: 0,
        }
    }

    /// The address-generation register sources of a load or store
    /// (the dependences that load-speculation may bypass). Empty for
    /// non-memory operations.
    pub fn addr_sources(&self) -> impl Iterator<Item = Reg> + '_ {
        let mem = self.op.is_load() || self.op.is_store();
        [self.rs1, self.rs2]
            .into_iter()
            .flatten()
            .filter(move |r| mem && !r.is_zero())
    }

    /// Whether the instruction is a load.
    pub fn is_load(&self) -> bool {
        self.op.is_load()
    }

    /// Whether the instruction is a store.
    pub fn is_store(&self) -> bool {
        self.op.is_store()
    }

    /// The dynamic operand kind of `rs1`, if present.
    fn rs1_kind(&self) -> Option<OperandKind> {
        self.rs1.map(|r| {
            if r.is_zero() || self.zero_flags & ZERO_RS1 != 0 {
                OperandKind::Zero
            } else {
                OperandKind::Reg
            }
        })
    }

    /// The dynamic operand kind of the second operand, if present.
    fn src2_kind(&self) -> Option<OperandKind> {
        if let Some(r) = self.rs2 {
            Some(if r.is_zero() || self.zero_flags & ZERO_RS2 != 0 {
                OperandKind::Zero
            } else {
                OperandKind::Reg
            })
        } else {
            self.imm.map(|i| {
                if i == 0 {
                    OperandKind::Zero
                } else {
                    OperandKind::Imm
                }
            })
        }
    }

    /// The `arri`-style operand pattern of this dynamic instruction, or
    /// `None` for operations outside the pattern vocabulary (mul, div,
    /// unconditional control).
    ///
    /// # Examples
    ///
    /// ```
    /// use ddsc_trace::TraceInst;
    /// use ddsc_isa::{Opcode, Reg};
    ///
    /// let i = TraceInst::alu(0, Opcode::Add, Reg::new(1), Reg::new(2), None, Some(8), 0);
    /// assert_eq!(i.optype().unwrap().to_string(), "arri");
    /// ```
    pub fn optype(&self) -> Option<OpType> {
        let class = PatClass::of(self.op)?;
        // Built on the stack: the pre-pass walk calls this once per
        // instruction.
        let (first, second) = match class {
            PatClass::Brc => (None, None),
            PatClass::Mv => (self.src2_kind(), None),
            _ => (self.rs1_kind(), self.src2_kind()),
        };
        let mut kinds = [OperandKind::Reg; 2];
        let mut n = 0;
        for k in [first, second].into_iter().flatten() {
            kinds[n] = k;
            n += 1;
        }
        Some(OpType::new(class, &kinds[..n]))
    }

    /// Number of counting (non-zero) source operands — this instruction's
    /// own contribution to a dependence-expression size. Returns 0 for
    /// non-pattern operations.
    pub fn operand_count(&self) -> u8 {
        self.optype().map_or(0, |t| t.operand_count())
    }

    /// Whether zero-operand detection found an elidable operand.
    pub fn has_zero_operand(&self) -> bool {
        self.optype().is_some_and(|t| t.has_zero())
    }
}

impl fmt::Display for TraceInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}: {}", self.pc, self.op)?;
        if let Some(d) = self.dest {
            write!(f, " {d} <-")?;
        }
        if let Some(r) = self.rs1 {
            write!(f, " {r}")?;
        }
        if let Some(r) = self.rs2 {
            write!(f, " {r}")?;
        }
        if let Some(i) = self.imm {
            write!(f, " #{i}")?;
        }
        if let Some(r) = self.data_reg {
            write!(f, " data={r}")?;
        }
        if let Some(ea) = self.ea {
            write!(f, " @{ea:#x}")?;
        }
        if self.op.is_cond_branch() {
            write!(f, " {}", if self.taken { "taken" } else { "not-taken" })?;
        }
        Ok(())
    }
}

/// Iterator over the true register dependences of a [`TraceInst`].
#[derive(Debug, Clone)]
pub struct SourceIter {
    inst: TraceInst,
    idx: u8,
}

impl Iterator for SourceIter {
    type Item = Reg;

    fn next(&mut self) -> Option<Reg> {
        loop {
            let candidate = match self.idx {
                0 => self.inst.rs1,
                1 => self.inst.rs2,
                2 => self.inst.data_reg,
                3 => self.inst.op.reads_icc().then_some(Reg::ICC),
                _ => return None,
            };
            self.idx += 1;
            if let Some(r) = candidate {
                if !r.is_zero() {
                    return Some(r);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddsc_isa::Cond;

    #[test]
    fn g0_never_appears_as_source_or_dest() {
        let i = TraceInst::alu(0, Opcode::Add, Reg::G0, Reg::G0, Some(Reg::G0), None, 0);
        assert_eq!(i.dest, None);
        assert_eq!(i.reg_sources().count(), 0);
    }

    #[test]
    fn store_sources_include_data_register() {
        let i = TraceInst::store(
            0,
            Opcode::St,
            Reg::new(3),
            Reg::new(4),
            None,
            Some(8),
            0,
            0x100,
        );
        let srcs: Vec<Reg> = i.reg_sources().collect();
        assert_eq!(srcs, vec![Reg::new(4), Reg::new(3)]);
        let addr: Vec<Reg> = i.addr_sources().collect();
        assert_eq!(addr, vec![Reg::new(4)]);
    }

    #[test]
    fn branch_depends_on_icc() {
        let i = TraceInst::cond_branch(0, Opcode::Bcc(Cond::Eq), true, 0x40);
        let srcs: Vec<Reg> = i.reg_sources().collect();
        assert_eq!(srcs, vec![Reg::ICC]);
        assert_eq!(i.optype().unwrap().to_string(), "brc");
    }

    #[test]
    fn cmp_writes_icc() {
        let i = TraceInst::cmp(0, Reg::new(1), None, Some(0), 0);
        assert_eq!(i.dest, Some(Reg::ICC));
        assert_eq!(i.optype().unwrap().to_string(), "arr0");
    }

    #[test]
    fn dynamic_zero_registers_are_detected() {
        let i = TraceInst::alu(
            0,
            Opcode::Or,
            Reg::new(1),
            Reg::new(2),
            Some(Reg::new(3)),
            None,
            ZERO_RS2,
        );
        assert_eq!(i.optype().unwrap().to_string(), "lgr0");
        assert_eq!(i.operand_count(), 1);
        assert!(i.has_zero_operand());
        // The dependence still exists even though the value is zero.
        assert_eq!(i.reg_sources().count(), 2);
    }

    #[test]
    fn load_with_zero_offset_matches_paper_example() {
        // Paper §3: `Ra = [Rd + 0]` — the zero is detected, reducing the
        // expression size.
        let i = TraceInst::load(
            0,
            Opcode::Ld,
            Reg::new(1),
            Reg::new(13),
            None,
            Some(0),
            0,
            0x80,
        );
        assert_eq!(i.optype().unwrap().to_string(), "ldr0");
        assert_eq!(i.operand_count(), 1);
    }

    #[test]
    fn mov_immediate_pattern() {
        let i = TraceInst::mov(0, Opcode::Mov, Reg::new(5), None, Some(42), 0);
        assert_eq!(i.optype().unwrap().to_string(), "mvi");
        assert_eq!(i.operand_count(), 1);
        assert_eq!(i.reg_sources().count(), 0);
    }

    /// The `Vec`-collecting derivation that `optype` replaced: the
    /// oracle for the stack-built one.
    fn optype_by_vec(i: &TraceInst) -> Option<OpType> {
        let class = PatClass::of(i.op)?;
        let kinds: Vec<OperandKind> = match class {
            PatClass::Brc => Vec::new(),
            PatClass::Mv => i.src2_kind().into_iter().collect(),
            _ => i.rs1_kind().into_iter().chain(i.src2_kind()).collect(),
        };
        Some(OpType::new(class, &kinds))
    }

    #[test]
    fn optype_matches_the_vec_derivation_on_every_operand_shape() {
        let ops: Vec<Opcode> = (0..=u8::MAX)
            .filter_map(|b| crate::io::decode_op(b).ok())
            .collect();
        assert_eq!(ops.len(), 33, "every opcode, each Bcc condition included");
        let r = Reg::new;
        // The second operand: none, %g0, a register, a zero and a
        // non-zero immediate.
        let seconds = [
            (None, None),
            (Some(Reg::G0), None),
            (Some(r(2)), None),
            (None, Some(0)),
            (None, Some(-5)),
        ];
        let mut checked = 0;
        for op in ops {
            for rs1 in [None, Some(Reg::G0), Some(r(1))] {
                for (rs2, imm) in seconds {
                    for zero_flags in 0..=3 {
                        let i = TraceInst {
                            pc: 0,
                            op,
                            dest: None,
                            rs1,
                            rs2,
                            imm,
                            data_reg: None,
                            zero_flags,
                            ea: None,
                            taken: false,
                            target: 0,
                            value: None,
                        };
                        assert_eq!(i.optype(), optype_by_vec(&i), "{i:?}");
                        checked += 1;
                    }
                }
            }
        }
        assert_eq!(checked, 33 * 3 * 5 * 4);
    }

    #[test]
    fn uncond_has_no_pattern() {
        let i = TraceInst::uncond(0, Opcode::Call, Some(Reg::LINK), None, 0x400);
        assert_eq!(i.optype(), None);
        assert_eq!(i.operand_count(), 0);
    }

    #[test]
    fn ret_depends_on_link() {
        let i = TraceInst::uncond(0, Opcode::Ret, None, Some(Reg::LINK), 0x44);
        let srcs: Vec<Reg> = i.reg_sources().collect();
        assert_eq!(srcs, vec![Reg::LINK]);
    }

    #[test]
    fn addr_sources_empty_for_alu() {
        let i = TraceInst::alu(
            0,
            Opcode::Add,
            Reg::new(1),
            Reg::new(2),
            Some(Reg::new(3)),
            None,
            0,
        );
        assert_eq!(i.addr_sources().count(), 0);
    }

    #[test]
    fn display_is_nonempty_and_informative() {
        let i = TraceInst::load(
            0x40,
            Opcode::Ld,
            Reg::new(1),
            Reg::new(2),
            None,
            Some(4),
            0,
            0xBEEF,
        );
        let s = i.to_string();
        assert!(s.contains("ld"));
        assert!(s.contains("%r1"));
        assert!(s.contains("0xbeef"));
    }
}
