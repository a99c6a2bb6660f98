//! The shared per-trace analysis pre-pass.
//!
//! A configuration grid runs the *same* trace under dozens of machine
//! models, and most of what the simulator computes per run is a pure
//! function of the trace alone: register dependence edges, memory
//! dependences, basic-block numbering, reader counts, collapse
//! eligibility and operand patterns, operation latencies, and — per
//! predictor geometry, not per machine width — the branch / address /
//! value predictor verdicts.
//!
//! Those facts come from one walk. A private per-instruction step holds
//! the trace-order state (the last writer of each register, the last
//! store to each word, the block counter, the branch and valued-load
//! counts) and returns one instruction's flag byte, producer row with
//! absorb-slot codes, memory dependence, block and operand pattern. A
//! second private step trains the McFarling, two-delta stride and
//! two-delta value tables on one instruction in fetch order and packs
//! their verdicts into one byte. Two storage layouts drive the steps:
//!
//! * [`PreparedTrace::build`] appends every instruction's facts to
//!   packed structure-of-arrays columns (dense `Vec<u8>` / `Vec<u32>`
//!   plus CSR edge lists and per-occurrence reader counts), shared by
//!   every cell of a grid; its verdict streams run the verdict step over
//!   those columns;
//! * [`StreamingPrepass::push`] appends them as one `Copy` row to a
//!   ring that the streaming timing loop evicts behind its watermark,
//!   running the verdict step inline.
//!
//! Predictor verdict streams are config-*class* dependent: they vary
//! with table geometry (`predictor_n`, `stride_bits`, confidence
//! parameters) but never with issue width or window size, because the
//! predictors are trained in fetch order — which is trace order — no
//! matter how wide the machine is. The whole-trace streams for the
//! paper's default geometry are computed lazily, once, behind
//! [`std::sync::OnceLock`]s (so concurrent grid workers share one
//! computation); ablations with non-default geometry recompute their
//! stream per call through the same verdict step, keeping results
//! bit-identical either way.

use std::sync::OnceLock;

use ddsc_collapse::{can_produce, slot_code};
use ddsc_isa::{OpType, Reg};
use ddsc_predict::{
    AddressPredictor, DirectionPredictor, McFarling, SatCounter, TwoDeltaStride, TwoDeltaValue,
    ValuePredictor,
};
use ddsc_trace::{Trace, TraceInst};
use ddsc_util::{BitSet, FxHashMap, RingVec};

use crate::{
    BranchRunStats, ConfidenceParams, Latencies, LoadSpecMode, SimConfig, ValueSpecMode,
    ValueSpecStats,
};

/// Column sentinel meaning "no dependence".
pub const NO_DEP: u32 = u32::MAX;

/// Flag bit: the instruction is a load.
pub const F_LOAD: u8 = 1 << 0;
/// Flag bit: the instruction is a store.
pub const F_STORE: u8 = 1 << 1;
/// Flag bit: the instruction is a conditional branch.
pub const F_COND_BRANCH: u8 = 1 << 2;
/// Flag bit: the instruction is a control transfer (ends a basic block).
pub const F_CONTROL: u8 = 1 << 3;
/// Flag bit: the conditional branch was taken.
pub const F_TAKEN: u8 = 1 << 4;
/// Flag bit: the trace records a result value for this instruction.
pub const F_VALUE: u8 = 1 << 5;
/// Flag bit: the instruction's result may be absorbed by a consumer
/// (collapsible producer with a destination).
pub const F_CAN_PRODUCE: u8 = 1 << 6;
/// Flag bit: the instruction may absorb producers (collapsible
/// consumer).
pub const F_CONSUMER: u8 = 1 << 7;

/// The geometry parameters the default cached streams are built for —
/// the values every [`crate::SimConfig`] constructor uses.
pub const DEFAULT_PREDICTOR_N: u32 = 13;
/// Default stride-table index bits (see [`DEFAULT_PREDICTOR_N`]).
pub const DEFAULT_STRIDE_BITS: u32 = 12;

/// One branch-predictor run over the trace: which conditional branches
/// mispredict, plus the run totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchStream {
    /// Bit `i` set ⇔ instruction `i` is a mispredicted conditional
    /// branch.
    pub mispredicted: BitSet,
    /// Totals for the run (always counts every conditional branch).
    pub stats: BranchRunStats,
}

/// One value-predictor run over the trace: which instructions' results
/// are correctly predicted at dispatch, plus the run totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueStream {
    /// Bit `i` set ⇔ consumers of instruction `i`'s result need not
    /// wait for it.
    pub bypass: BitSet,
    /// Totals for the run.
    pub stats: ValueSpecStats,
}

/// A register-producer row copied to the stack: up to four deduplicated
/// sources with their collapse slot codes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ProducerRow {
    prods: [u32; 4],
    codes: [u8; 4],
    len: u8,
}

impl ProducerRow {
    pub(crate) fn push(&mut self, prod: u32, code: u8) {
        self.prods[self.len as usize] = prod;
        self.codes[self.len as usize] = code;
        self.len += 1;
    }

    fn contains(&self, prod: u32) -> bool {
        self.prods[..self.len as usize].contains(&prod)
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, u8)> + '_ {
        (0..self.len as usize).map(|k| (self.prods[k], self.codes[k]))
    }
}

/// One instruction's trace-order facts, as [`Walk::step`] derives them.
struct Facts {
    /// The `F_*` bits.
    flags: u8,
    /// Register-dependence producers, deduplicated, in source order,
    /// each with its absorb-slot code ([`slot_code`]; 0 ⇔ not
    /// collapse-eligible).
    row: ProducerRow,
    /// The latest earlier store to the same word for a load, [`NO_DEP`]
    /// elsewhere.
    mem_dep: u32,
    /// Basic-block sequence number: control transfers strictly before.
    block: u32,
    /// The operand pattern; `None` for operations that never collapse.
    optype: Option<OpType>,
}

/// The trace-order state of the pre-pass walk, shared by both storage
/// layouts. It is O(machine), not O(trace): a streaming pass keeps it
/// for the whole run while its columns are evicted.
#[derive(Debug)]
struct Walk {
    /// Instructions walked so far (the next instruction's position).
    len: u32,
    /// The last writer of each register with that writer's can-produce
    /// bit, so a row's slot codes never read the producer's column
    /// (which a streaming pass may have evicted).
    last_writer: [Option<(u32, bool)>; Reg::COUNT],
    /// The last store to each word.
    store_map: FxHashMap<u32, u32>,
    /// Control transfers walked so far.
    blocks: u32,
    /// Conditional branches walked so far.
    cond_branches: u64,
    /// Loads carrying a traced value (the ideal value-speculation
    /// `predicted_correct` count).
    loads_with_value: u64,
}

impl Walk {
    fn new() -> Self {
        Walk {
            len: 0,
            last_writer: [None; Reg::COUNT],
            store_map: FxHashMap::default(),
            blocks: 0,
            cond_branches: 0,
            loads_with_value: 0,
        }
    }

    /// Analyses the next instruction. `read` sees the producer of every
    /// register-source occurrence, repeats included (node elimination
    /// compares against every read, not every distinct reader). Nothing
    /// here allocates, bar the store map's growth: the step runs once
    /// per instruction in both layouts.
    fn step(&mut self, inst: &TraceInst, mut read: impl FnMut(u32)) -> Facts {
        let i = self.len;
        let produces = can_produce(inst);
        let bit = |on: bool, bit: u8| if on { bit } else { 0 };
        let flags = bit(inst.is_load(), F_LOAD)
            | bit(inst.is_store(), F_STORE)
            | bit(inst.op.is_cond_branch(), F_COND_BRANCH)
            | bit(inst.op.is_control(), F_CONTROL)
            | bit(inst.taken, F_TAKEN)
            | bit(inst.value.is_some(), F_VALUE)
            | bit(produces, F_CAN_PRODUCE)
            | bit(inst.op.class().is_collapsible_consumer(), F_CONSUMER);
        self.cond_branches += u64::from(flags & F_COND_BRANCH != 0);
        self.loads_with_value += u64::from(flags & (F_LOAD | F_VALUE) == F_LOAD | F_VALUE);

        let mut row = ProducerRow::default();
        for r in inst.reg_sources() {
            if let Some((prod, prod_produces)) = self.last_writer[r.index()] {
                read(prod);
                if !row.contains(prod) {
                    row.push(prod, if prod_produces { slot_code(inst, r) } else { 0 });
                }
            }
        }
        let word = inst.ea.unwrap_or(0) & !3;
        let mem_dep = if inst.is_load() {
            self.store_map.get(&word).copied().unwrap_or(NO_DEP)
        } else {
            NO_DEP
        };
        let facts = Facts {
            flags,
            row,
            mem_dep,
            block: self.blocks,
            optype: inst.optype(),
        };

        // Trace-order bookkeeping for later instructions.
        if let Some(d) = inst.dest {
            self.last_writer[d.index()] = Some((i, produces));
        }
        if inst.is_store() {
            self.store_map.insert(word, i);
        }
        if inst.op.is_control() {
            self.blocks += 1;
        }
        self.len += 1;
        facts
    }
}

/// Verdict-byte bit: a mispredicted conditional branch.
const VERDICT_MISPRED: u8 = 1 << 0;
/// Verdict-byte shift of the address-prediction flags (bit 0
/// confident, bit 1 correct).
const VERDICT_ADDR_SHIFT: u8 = 1;
/// Verdict-byte bit: the value table predicted the load's result
/// confidently and correctly.
const VERDICT_VALUE_HIT: u8 = 1 << 3;

/// The address-prediction flags packed in a verdict byte.
fn addr_flags(verdict: u8) -> u8 {
    (verdict >> VERDICT_ADDR_SHIFT) & 3
}

/// A two-delta stride table with the given index bits and confidence
/// counter.
fn stride_table(bits: u32, conf: &ConfidenceParams) -> TwoDeltaStride {
    TwoDeltaStride::with_confidence(
        bits,
        SatCounter::with_params(conf.max, conf.inc, conf.dec, conf.threshold),
    )
}

/// The fetch-order predictor tables of one configuration class and the
/// verdict step that trains them. A table left `None` is not consulted:
/// perfect branches, or a speculation mode that does not use it.
#[derive(Debug, Default)]
struct Predictors {
    branch: Option<McFarling>,
    addr: Option<TwoDeltaStride>,
    value: Option<TwoDeltaValue>,
    /// Mispredicted conditional branches so far.
    mispredicted: u64,
    /// The value table's outcomes so far.
    value_stats: ValueSpecStats,
}

impl Predictors {
    /// Trains every table the instruction reaches, in fetch order, and
    /// packs the verdicts into one byte (`VERDICT_*` bits).
    fn step(&mut self, flags: u8, pc: u32, ea: u32, value: u32) -> u8 {
        let mut verdict = 0u8;
        if flags & F_COND_BRANCH != 0 {
            if let Some(p) = &mut self.branch {
                if !p.predict_and_train(pc, flags & F_TAKEN != 0) {
                    verdict |= VERDICT_MISPRED;
                    self.mispredicted += 1;
                }
            }
        }
        if flags & F_LOAD == 0 {
            return verdict;
        }
        if let Some(table) = &mut self.addr {
            let pred = table.access(pc, ea);
            verdict |=
                (u8::from(pred.confident) | (u8::from(pred.correct) << 1)) << VERDICT_ADDR_SHIFT;
        }
        if flags & F_VALUE != 0 {
            if let Some(table) = &mut self.value {
                let pred = table.access(pc, value);
                let stats = &mut self.value_stats;
                if pred.confident && pred.correct {
                    verdict |= VERDICT_VALUE_HIT;
                    stats.predicted_correct += 1;
                } else if pred.confident {
                    stats.predicted_incorrect += 1;
                } else {
                    stats.not_predicted += 1;
                }
            }
        }
        verdict
    }
}

/// A run's value-speculation totals under `mode`: the ideal modes
/// predict every traced load correctly, the real mode reports its
/// table's outcomes.
pub(crate) fn value_stats(
    mode: ValueSpecMode,
    loads_with_value: u64,
    real: ValueSpecStats,
) -> ValueSpecStats {
    match mode {
        ValueSpecMode::Off => ValueSpecStats::default(),
        ValueSpecMode::Ideal | ValueSpecMode::IdealAll => ValueSpecStats {
            predicted_correct: loads_with_value,
            ..ValueSpecStats::default()
        },
        ValueSpecMode::Real => real,
    }
}

/// A trace compiled into packed analysis columns.
///
/// Everything the timing loop reads per instruction is a dense column
/// indexed by trace position; dependence edges are CSR lists. Build one
/// per trace with [`PreparedTrace::build`], share it (`Arc`) across the
/// whole configuration grid, and run cells with
/// [`simulate_prepared`](crate::simulator::simulate_prepared).
#[derive(Debug)]
pub struct PreparedTrace {
    name: String,
    /// Per-instruction flag bytes (`F_*` bits).
    flags: Vec<u8>,
    /// Instruction addresses.
    pc: Vec<u32>,
    /// Opcodes (kept for non-default latency ablations).
    op: Vec<ddsc_isa::Opcode>,
    /// Latency under [`Latencies::default`].
    lat: Vec<u8>,
    /// Effective addresses of loads/stores (0 elsewhere).
    ea: Vec<u32>,
    /// Traced result values (0 when absent; gated by [`F_VALUE`]).
    value: Vec<u32>,
    /// Basic-block sequence number: the count of control transfers
    /// strictly before each instruction.
    block: Vec<u32>,
    /// Total same-register readers of each instruction's result over
    /// the whole trace (per source occurrence, not deduplicated).
    readers: Vec<u32>,
    /// CSR row starts into `edge_prod` / `edge_slots` (`n + 1` entries).
    edge_start: Vec<u32>,
    /// Register-dependence producers per instruction, deduplicated, in
    /// source order.
    edge_prod: Vec<u32>,
    /// Packed absorb-slot code per edge ([`ddsc_collapse::encode_slots`];
    /// 0 ⇔ the edge is not collapse-eligible).
    edge_slots: Vec<u8>,
    /// Latest earlier store to the same word, for loads ([`NO_DEP`]
    /// elsewhere).
    mem_dep: Vec<u32>,
    /// Operand patterns (`None` for operations that never collapse).
    optype: Vec<Option<OpType>>,
    /// Total conditional branches.
    cond_branches: u64,
    /// Loads that carry a traced value (the ideal value-speculation
    /// `predicted_correct` count).
    loads_with_value: u64,
    branch_default: OnceLock<BranchStream>,
    addr_default: OnceLock<Vec<u8>>,
    value_real: OnceLock<ValueStream>,
}

impl PreparedTrace {
    /// Runs the analysis pre-pass: one walk over the trace, every
    /// config-invariant artifact materialised.
    pub fn build(trace: &Trace) -> Self {
        let insts = trace.insts();
        let n = insts.len();
        let mut p = PreparedTrace {
            name: trace.name().to_string(),
            flags: Vec::with_capacity(n),
            pc: Vec::with_capacity(n),
            op: Vec::with_capacity(n),
            lat: Vec::with_capacity(n),
            ea: Vec::with_capacity(n),
            value: Vec::with_capacity(n),
            block: Vec::with_capacity(n),
            readers: vec![0; n],
            edge_start: Vec::with_capacity(n + 1),
            // Most instructions have one or two register sources.
            edge_prod: Vec::with_capacity(2 * n),
            edge_slots: Vec::with_capacity(2 * n),
            mem_dep: Vec::with_capacity(n),
            optype: Vec::with_capacity(n),
            cond_branches: 0,
            loads_with_value: 0,
            branch_default: OnceLock::new(),
            addr_default: OnceLock::new(),
            value_real: OnceLock::new(),
        };

        let lat = Latencies::default();
        let mut walk = Walk::new();
        p.edge_start.push(0);
        for inst in insts {
            let readers = &mut p.readers;
            let facts = walk.step(inst, |prod| readers[prod as usize] += 1);
            p.flags.push(facts.flags);
            p.pc.push(inst.pc);
            p.op.push(inst.op);
            p.lat.push(lat.of(inst.op));
            p.ea.push(inst.ea.unwrap_or(0));
            p.value.push(inst.value.unwrap_or(0));
            p.block.push(facts.block);
            for (prod, code) in facts.row.iter() {
                p.edge_prod.push(prod);
                p.edge_slots.push(code);
            }
            p.edge_start.push(p.edge_prod.len() as u32);
            p.mem_dep.push(facts.mem_dep);
            p.optype.push(facts.optype);
        }
        p.cond_branches = walk.cond_branches;
        p.loads_with_value = walk.loads_with_value;
        p
    }

    /// The source trace's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }

    /// The flag byte of instruction `i` (`F_*` bits).
    #[inline]
    pub fn flags(&self, i: usize) -> u8 {
        self.flags[i]
    }

    /// The instruction address column.
    pub fn pcs(&self) -> &[u32] {
        &self.pc
    }

    /// The default-latency column.
    #[inline]
    pub fn latencies(&self) -> &[u8] {
        &self.lat
    }

    /// Recomputes the latency column for a non-default latency ablation.
    pub fn latency_column(&self, lat: &Latencies) -> Vec<u8> {
        self.op.iter().map(|&op| lat.of(op)).collect()
    }

    /// The basic-block number of instruction `i`.
    #[inline]
    pub fn block_of(&self, i: usize) -> u32 {
        self.block[i]
    }

    /// Total readers of instruction `i`'s result (per occurrence).
    #[inline]
    pub fn readers_of(&self, i: usize) -> u32 {
        self.readers[i]
    }

    /// The deduplicated register-dependence producers of instruction
    /// `i`, in source order.
    #[inline]
    pub fn producers_of(&self, i: usize) -> &[u32] {
        &self.edge_prod[self.edge_start[i] as usize..self.edge_start[i + 1] as usize]
    }

    /// The absorb-slot codes matching [`PreparedTrace::producers_of`]
    /// (decode with [`ddsc_collapse::decode_slots`]; 0 ⇔ not
    /// collapse-eligible).
    #[inline]
    pub fn slot_codes_of(&self, i: usize) -> &[u8] {
        &self.edge_slots[self.edge_start[i] as usize..self.edge_start[i + 1] as usize]
    }

    /// The latest earlier store to the same word, for a load.
    #[inline]
    pub fn mem_dep_of(&self, i: usize) -> Option<u32> {
        match self.mem_dep[i] {
            NO_DEP => None,
            s => Some(s),
        }
    }

    /// The operand pattern of instruction `i`, if it has one.
    #[inline]
    pub fn optype_of(&self, i: usize) -> Option<OpType> {
        self.optype[i]
    }

    /// Total conditional branches in the trace.
    pub fn cond_branches(&self) -> u64 {
        self.cond_branches
    }

    /// Loads carrying a traced result value.
    pub fn loads_with_value(&self) -> u64 {
        self.loads_with_value
    }

    /// Runs the verdict step with `tables` over the instructions whose
    /// flags meet `reach` (the ones the tables train on; every other
    /// verdict is 0), handing each verdict byte to `each`; returns the
    /// trained tables and their totals.
    fn verdicts(
        &self,
        reach: u8,
        mut tables: Predictors,
        mut each: impl FnMut(usize, u8),
    ) -> Predictors {
        for (i, &flags) in self.flags.iter().enumerate() {
            if flags & reach != 0 {
                each(i, tables.step(flags, self.pc[i], self.ea[i], self.value[i]));
            }
        }
        tables
    }

    /// Runs a McFarling predictor of size `n` over the branch outcome
    /// stream. Width-invariant: depends only on the trace and `n`.
    pub fn branch_stream(&self, n: u32) -> BranchStream {
        let mut mispredicted = BitSet::new(self.len());
        let tables = Predictors {
            branch: Some(McFarling::new(n)),
            ..Predictors::default()
        };
        let tables = self.verdicts(F_COND_BRANCH, tables, |i, v| {
            if v & VERDICT_MISPRED != 0 {
                mispredicted.set(i);
            }
        });
        BranchStream {
            mispredicted,
            stats: BranchRunStats {
                cond_branches: self.cond_branches,
                mispredicted: tables.mispredicted,
            },
        }
    }

    /// The branch stream for the paper's default predictor geometry,
    /// computed once and shared.
    pub fn default_branch_stream(&self) -> &BranchStream {
        self.branch_default
            .get_or_init(|| self.branch_stream(DEFAULT_PREDICTOR_N))
    }

    /// The all-correct branch stream of the `perfect_branches` ablation
    /// (conditional branches are still counted).
    pub fn perfect_branch_stream(&self) -> BranchStream {
        BranchStream {
            mispredicted: BitSet::new(self.len()),
            stats: BranchRunStats {
                cond_branches: self.cond_branches,
                mispredicted: 0,
            },
        }
    }

    /// Runs a two-delta stride address predictor over the load stream;
    /// returns the per-instruction prediction flags (bit 0 = confident,
    /// bit 1 = correct; 0 for non-loads). Width-invariant.
    pub fn addr_stream(&self, stride_bits: u32, conf: &ConfidenceParams) -> Vec<u8> {
        let mut flags = vec![0u8; self.len()];
        let tables = Predictors {
            addr: Some(stride_table(stride_bits, conf)),
            ..Predictors::default()
        };
        self.verdicts(F_LOAD, tables, |i, v| flags[i] = addr_flags(v));
        flags
    }

    /// The address stream for the paper's default table geometry,
    /// computed once and shared.
    pub fn default_addr_stream(&self) -> &[u8] {
        self.addr_default
            .get_or_init(|| self.addr_stream(DEFAULT_STRIDE_BITS, &ConfidenceParams::default()))
    }

    /// Runs the paper-sized two-delta value predictor over the loaded
    /// values ([`crate::ValueSpecMode::Real`]); the table has no
    /// geometry knobs, so this stream is a pure trace function,
    /// computed once and shared.
    pub fn real_value_stream(&self) -> &ValueStream {
        self.value_real.get_or_init(|| {
            let mut bypass = BitSet::new(self.len());
            let tables = Predictors {
                value: Some(TwoDeltaValue::paper_sized()),
                ..Predictors::default()
            };
            let tables = self.verdicts(F_LOAD, tables, |i, v| {
                if v & VERDICT_VALUE_HIT != 0 {
                    bypass.set(i);
                }
            });
            ValueStream {
                bypass,
                stats: tables.value_stats,
            }
        })
    }
}

/// One instruction's facts in the streaming layout: a `Copy` row of the
/// pre-pass ring. The default row is what an evicted position reads as:
/// flags 0, no dependence.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StreamRow {
    pub(crate) flags: u8,
    /// Latency under the configured [`Latencies`].
    pub(crate) lat: u8,
    /// Packed predictor verdicts (`VERDICT_*` bits).
    verdict: u8,
    pub(crate) optype: Option<OpType>,
    pub(crate) block: u32,
    pub(crate) mem_dep: Option<u32>,
    pub(crate) row: ProducerRow,
}

/// The sliding-window analysis pre-pass behind streaming simulation.
///
/// Runs the same per-instruction walk and verdict step as
/// [`PreparedTrace::build`] and its verdict streams, one instruction at
/// a time, but appends each instruction's results as one row to a ring
/// that [`StreamingPrepass::evict_to`] retires behind the simulator's
/// watermark. The walk's trace-order state, the predictor tables and the
/// run statistics are O(machine), not O(trace), so peak memory is
/// bounded by the live window no matter how long the trace is.
///
/// Dependence edges can point below the evicted horizon; that is fine by
/// construction (see [`crate::stream`]): the timing loop reads an
/// evicted producer's completion as "done long ago", and the one fact
/// the walk needs about a producer (its can-produce bit) rides in its
/// last-writer table instead of the ring.
///
/// Unlike the whole-trace pre-pass, a streaming pass is built per
/// configuration (it resolves latencies and predictor geometry up
/// front), and it cannot serve node elimination, which needs whole-trace
/// reader counts — [`crate::stream`]'s entry points reject such configs.
#[derive(Debug)]
pub struct StreamingPrepass {
    /// One row per instruction, indexed by absolute position.
    rows: RingVec<StreamRow>,

    walk: Walk,
    latencies: Latencies,
    tables: Predictors,
    value_mode: ValueSpecMode,
}

impl StreamingPrepass {
    /// A streaming pre-pass resolved against one configuration's
    /// latencies, predictor geometry and speculation modes.
    pub fn new(config: &SimConfig) -> Self {
        StreamingPrepass {
            rows: RingVec::new(StreamRow::default()),
            walk: Walk::new(),
            latencies: config.latencies,
            tables: Predictors {
                branch: (!config.perfect_branches).then(|| McFarling::new(config.predictor_n)),
                addr: (config.load_spec == LoadSpecMode::Real)
                    .then(|| stride_table(config.stride_bits, &config.confidence)),
                value: (config.value_spec == ValueSpecMode::Real).then(TwoDeltaValue::paper_sized),
                ..Predictors::default()
            },
            value_mode: config.value_spec,
        }
    }

    /// Instructions pushed so far (the exclusive end of the ring).
    pub fn len(&self) -> usize {
        self.rows.end()
    }

    /// Whether no instruction has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Analyses one instruction, appending one row with every column
    /// [`PreparedTrace::build`] and its verdict streams would have
    /// produced for it.
    pub fn push(&mut self, inst: &TraceInst) {
        let facts = self.walk.step(inst, |_| {});
        let verdict = self.tables.step(
            facts.flags,
            inst.pc,
            inst.ea.unwrap_or(0),
            inst.value.unwrap_or(0),
        );
        self.rows.push(StreamRow {
            flags: facts.flags,
            lat: self.latencies.of(inst.op),
            verdict,
            optype: facts.optype,
            block: facts.block,
            mem_dep: (facts.mem_dep != NO_DEP).then_some(facts.mem_dep),
            row: facts.row,
        });
    }

    /// Retires every row strictly below `below`; reads of evicted
    /// positions return the neutral fill (flags 0, no dependence).
    pub fn evict_to(&mut self, below: usize) {
        self.rows.evict_to(below);
    }

    /// Instruction `i`'s row; an evicted position reads as the default.
    #[inline]
    pub(crate) fn at(&self, i: usize) -> StreamRow {
        self.rows.get(i).copied().unwrap_or_default()
    }

    fn verdict(&self, i: usize) -> u8 {
        self.at(i).verdict
    }

    pub(crate) fn mispredicted(&self, i: usize) -> bool {
        self.verdict(i) & VERDICT_MISPRED != 0
    }

    pub(crate) fn load_pred(&self, i: usize) -> u8 {
        addr_flags(self.verdict(i))
    }

    pub(crate) fn value_mode(&self) -> ValueSpecMode {
        self.value_mode
    }

    pub(crate) fn value_hit(&self, i: usize) -> bool {
        self.verdict(i) & VERDICT_VALUE_HIT != 0
    }

    /// Final branch-run totals (exact once the whole trace is pushed).
    pub(crate) fn branch_stats(&self) -> BranchRunStats {
        BranchRunStats {
            cond_branches: self.walk.cond_branches,
            mispredicted: self.tables.mispredicted,
        }
    }

    /// Final value-speculation totals under the configured mode.
    pub(crate) fn value_stats(&self) -> ValueSpecStats {
        value_stats(
            self.value_mode,
            self.walk.loads_with_value,
            self.tables.value_stats,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddsc_isa::{Cond, Opcode, Reg};
    use ddsc_trace::TraceInst;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    fn sample() -> Trace {
        let mut t = Trace::new("prepass");
        // 0: add r1 = r2 + 1
        t.push(TraceInst::alu(0, Opcode::Add, r(1), r(2), None, Some(1), 0));
        // 1: add r3 = r1 + r1 (one distinct producer, two reads)
        t.push(TraceInst::alu(
            4,
            Opcode::Add,
            r(3),
            r(1),
            Some(r(1)),
            None,
            0,
        ));
        // 2: store [64] = r3
        t.push(TraceInst::store(
            8,
            Opcode::St,
            r(3),
            r(1),
            None,
            Some(0),
            0,
            64,
        ));
        // 3: load r4 = [64] (memory dep on 2)
        t.push(TraceInst::load(
            12,
            Opcode::Ld,
            r(4),
            r(1),
            None,
            Some(0),
            0,
            64,
        ));
        // 4: taken conditional branch (block boundary)
        t.push(TraceInst::cond_branch(16, Opcode::Bcc(Cond::Ne), true, 0));
        // 5: add r5 = r4 + 1 (new block)
        t.push(TraceInst::alu(
            20,
            Opcode::Add,
            r(5),
            r(4),
            None,
            Some(1),
            0,
        ));
        t
    }

    #[test]
    fn columns_capture_the_trace_shape() {
        let p = PreparedTrace::build(&sample());
        assert_eq!(p.len(), 6);
        assert_eq!(p.name(), "prepass");
        assert_eq!(p.cond_branches(), 1);
        assert!(p.flags(3) & F_LOAD != 0);
        assert!(p.flags(2) & F_STORE != 0);
        assert_eq!(p.flags(4) & (F_COND_BRANCH | F_CONTROL | F_TAKEN), 0b11100);
        // Blocks: 0..=4 in block 0, 5 in block 1.
        assert_eq!(p.block_of(4), 0);
        assert_eq!(p.block_of(5), 1);
        // Latencies: adds 1, load 2.
        assert_eq!(p.latencies()[0], 1);
        assert_eq!(p.latencies()[3], 2);
    }

    #[test]
    fn edges_are_deduplicated_but_readers_are_not() {
        let p = PreparedTrace::build(&sample());
        // Instruction 1 reads r1 twice from producer 0: one edge.
        assert_eq!(p.producers_of(1), &[0]);
        // But instruction 0 has readers at 1 (×2), 2, and 3.
        assert_eq!(p.readers_of(0), 4);
        // The store reads r1 (addr) and r3 (data).
        assert_eq!(p.producers_of(2), &[0, 1]);
    }

    #[test]
    fn memory_dependences_point_at_the_latest_aliasing_store() {
        let p = PreparedTrace::build(&sample());
        assert_eq!(p.mem_dep_of(3), Some(2));
        for i in [0, 1, 2, 4, 5] {
            assert_eq!(p.mem_dep_of(i), None, "inst {i}");
        }
    }

    #[test]
    fn slot_codes_mark_collapse_eligible_edges() {
        use ddsc_collapse::decode_slots;
        let p = PreparedTrace::build(&sample());
        // add r3 = r1 + r1 absorbing add r1: two counted slots.
        let codes = p.slot_codes_of(1);
        let (slots, count) = decode_slots(codes[0]);
        assert_eq!(count, 2);
        assert_eq!(
            &slots[..2],
            &[
                ddsc_collapse::AbsorbSlot::Counted,
                ddsc_collapse::AbsorbSlot::Counted
            ]
        );
        // The store's data edge (producer 1 into slot-less data reg)
        // must not be collapse-eligible.
        assert_eq!(p.slot_codes_of(2)[1], 0);
    }

    #[test]
    fn branch_stream_matches_a_direct_predictor_run() {
        let mut t = Trace::new("branches");
        let mut rng = ddsc_util::Pcg32::new(5);
        for i in 0..500u32 {
            t.push(TraceInst::cond_branch(
                0x40 + 8 * (i % 4),
                Opcode::Bcc(Cond::Ne),
                rng.chance(2, 3),
                0x80,
            ));
        }
        let p = PreparedTrace::build(&t);
        let stream = p.default_branch_stream();
        assert_eq!(stream.stats.cond_branches, 500);

        let mut predictor = McFarling::new(DEFAULT_PREDICTOR_N);
        let mut mispredicted = 0u64;
        for (i, inst) in t.insts().iter().enumerate() {
            let ok = predictor.predict_and_train(inst.pc, inst.taken);
            assert_eq!(stream.mispredicted.get(i), !ok, "inst {i}");
            mispredicted += u64::from(!ok);
        }
        assert_eq!(stream.stats.mispredicted, mispredicted);
        // The OnceLock hands back the same computation.
        assert!(std::ptr::eq(stream, p.default_branch_stream()));
    }

    #[test]
    fn perfect_stream_counts_branches_without_mispredictions() {
        let p = PreparedTrace::build(&sample());
        let s = p.perfect_branch_stream();
        assert_eq!(s.stats.cond_branches, 1);
        assert_eq!(s.stats.mispredicted, 0);
        assert_eq!(s.mispredicted.count_ones(), 0);
    }

    #[test]
    fn addr_stream_matches_a_direct_table_run() {
        let mut t = Trace::new("loads");
        for i in 0..200u32 {
            t.push(TraceInst::load(
                0x20,
                Opcode::Ld,
                r(1),
                r(2),
                None,
                Some(0),
                0,
                0x1000 + 4 * i,
            ));
        }
        let p = PreparedTrace::build(&t);
        let stream = p.default_addr_stream();
        let mut table = TwoDeltaStride::paper_default();
        for (i, inst) in t.insts().iter().enumerate() {
            let pred = table.access(inst.pc, inst.ea.unwrap());
            let expect = u8::from(pred.confident) | (u8::from(pred.correct) << 1);
            assert_eq!(stream[i], expect, "inst {i}");
        }
        // Warmed-up strided loads are confidently correct.
        assert_eq!(stream[199], 0b11);
    }

    #[test]
    fn empty_trace_builds() {
        let p = PreparedTrace::build(&Trace::new("empty"));
        assert!(p.is_empty());
        assert_eq!(p.cond_branches(), 0);
        assert_eq!(p.default_branch_stream().stats.cond_branches, 0);
        assert!(p.default_addr_stream().is_empty());
        assert_eq!(p.real_value_stream().stats.total(), 0);
    }

    /// Drives a [`StreamingPrepass`] over `t` in `chunk`-sized pushes,
    /// evicting all but the `keep` newest columns after each chunk, and
    /// checks every live column bit-for-bit against the whole-trace
    /// [`PreparedTrace`] (flags, latencies, blocks, CSR dependence rows,
    /// memory deps, operand patterns, and all three predictor verdict
    /// streams).
    fn check_streaming_against_whole(t: &Trace, chunk: usize, keep: usize) {
        let p = PreparedTrace::build(t);
        let mut cfg = crate::SimConfig::paper(crate::PaperConfig::D, 8);
        cfg.value_spec = crate::ValueSpecMode::Real;
        let branch = p.default_branch_stream();
        let addr = p.default_addr_stream();
        let value = p.real_value_stream();
        let lat = p.latency_column(&cfg.latencies);

        let mut sp = StreamingPrepass::new(&cfg);
        let mut compared = 0usize;
        for chunk_insts in t.insts().chunks(chunk.max(1)) {
            for inst in chunk_insts {
                sp.push(inst);
            }
            let end = sp.len();
            for i in compared..end {
                let at = sp.at(i);
                assert_eq!(at.flags, p.flags(i), "flags at {i}");
                assert_eq!(at.lat, lat[i], "latency at {i}");
                assert_eq!(at.block, p.block_of(i), "block at {i}");
                assert_eq!(at.mem_dep, p.mem_dep_of(i), "mem dep at {i}");
                assert_eq!(at.optype, p.optype_of(i), "pattern at {i}");
                let mut row = ProducerRow::default();
                for (&pr, &code) in p.producers_of(i).iter().zip(p.slot_codes_of(i)) {
                    row.push(pr, code);
                }
                assert_eq!(at.row, row, "producer row at {i}");
                assert_eq!(
                    sp.mispredicted(i),
                    branch.mispredicted.get(i),
                    "branch verdict at {i}"
                );
                assert_eq!(sp.load_pred(i), addr[i], "addr verdict at {i}");
                assert_eq!(sp.value_hit(i), value.bypass.get(i), "value verdict at {i}");
            }
            compared = end;
            sp.evict_to(end.saturating_sub(keep.max(1)));
        }
        assert_eq!(sp.len(), t.len());
        assert_eq!(sp.branch_stats(), branch.stats, "branch totals");
        assert_eq!(sp.value_stats(), value.stats, "value totals");
    }

    #[test]
    fn streaming_prepass_matches_whole_trace_at_fixed_boundaries() {
        let t = crate::simulator::testutil::mixed_trace(2000, 42);
        // Chunk size 1, a small odd size, and one larger than the trace.
        for (chunk, keep) in [(1, 1), (7, 13), (64, 256), (4096, 64)] {
            check_streaming_against_whole(&t, chunk, keep);
        }
    }

    proptest::proptest! {
        #[test]
        fn streaming_prepass_matches_whole_trace_at_random_boundaries(
            len in 1u32..500,
            seed in proptest::prelude::any::<u64>(),
            chunk in 1usize..600,
            keep in 1usize..80,
        ) {
            let t = crate::simulator::testutil::mixed_trace(len, seed);
            check_streaming_against_whole(&t, chunk, keep);
        }
    }
}
