//! The window-based trace-driven limit simulator.
//!
//! Methodology follows Wall (§4 of the paper): instructions are fetched
//! in trace order into a scheduling window that is kept full; each cycle,
//! up to `issue_width` ready instructions issue (oldest first); an
//! instruction is ready when all of its live dependences have completed.
//! Renaming is ideal (dependences are producer→consumer links in the
//! dynamic trace), memory disambiguation is perfect (a load depends only
//! on the latest earlier store to the same word), and functional units
//! are unlimited.
//!
//! Mispredicted conditional branches delay all later instructions to the
//! cycle after the branch issues; correctly predicted branches cost
//! nothing. Load-speculation removes address-generation dependences from
//! confidently-predicted loads; d-collapsing rewrites a consumer's
//! dependence on an in-window, un-issued ALU producer into dependences on
//! that producer's own sources, within a 4-1 operand budget.
//!
//! The simulator is a two-stage pipeline. Stage one — the analysis
//! pre-pass ([`PreparedTrace::build`]) — walks the trace once and packs
//! every config-invariant artifact (dependence edges, memory
//! dependences, block numbering, collapse eligibility, predictor
//! verdict streams) into structure-of-arrays columns. Stage two is one
//! generic timing loop over a `PreparedSource` view of those columns:
//! the whole-trace view borrows a [`PreparedTrace`], the streaming view
//! ([`crate::stream`]) pulls chunks from a trace source and evicts
//! columns behind the retirement watermark, and the two produce
//! bit-identical results because they *are* the same loop. [`simulate`]
//! composes the two stages, so single runs and grid runs share one code
//! path — `tests::matches_the_reference_simulator` and
//! [`crate::reference`] hold the bit-identity invariant in place. Every
//! whole-trace run goes through [`simulate_with`], whose [`RunOptions`]
//! choose the observer (metrics, deadline) the loop is instantiated
//! over.
//!
//! The loop itself is built for throughput. The window is one ring of
//! `Copy` rows (`Row`) with the pending-producer and collapse-candidate
//! rows inline (`InlineRow`, their rare overflow in per-run arenas) and
//! consumer wake-up edges in an intrusive list arena (`ListArena`), so
//! fetch and issue touch no allocator once the arenas reach their peak.
//! Wake-ups go through a 512-bucket timing wheel whose entries live in
//! one list arena sized from the window, with a bucket-occupancy bitmap
//! (latencies are `u8`, so a completion is never more than 255 cycles
//! out and an idle skip never jumps further); idle stretches are
//! skipped by jumping the cycle counter to the wheel's next occupied
//! bucket (`Wheel::next_event`); the ready set is a ring bit set whose
//! word-wise ascending drain yields oldest-first issue order for free.
//! The loop is compiled once per (column view, observer) pair, with the
//! observer's `CANCELLABLE` const specialising cancellation away and the
//! issue width read from the config like every other machine parameter,
//! and the ring tracks the live window span — which is what makes the
//! streaming view's bounded memory possible.

use ddsc_collapse::{decode_slots, CollapseOpts, CollapseStats, ExprState, SlotSet};
use ddsc_isa::OpType;
use ddsc_trace::Trace;
use ddsc_util::{BitSet, RingBitSet, RingVec};

use crate::cancel::{CancelObserver, CancelToken, Cancelled};
use crate::metrics::{MetricsCollector, NoopObserver, SimMetrics, SimObserver, StallCause};
use crate::prepass::{
    self, BranchStream, PreparedTrace, ProducerRow, ValueStream, DEFAULT_PREDICTOR_N,
    DEFAULT_STRIDE_BITS, F_CAN_PRODUCE, F_COND_BRANCH, F_CONSUMER, F_LOAD, F_VALUE,
};
use crate::stream::StreamError;
use crate::{
    BranchRunStats, ConfidenceParams, Latencies, LoadClass, LoadSpecMode, SimConfig, SimResult,
    StallStats, ValueSpecMode, ValueSpecStats,
};

const NOT_DONE: u32 = u32::MAX;

/// Completion cycle of `p` as the timing logic sees it: in-flight
/// instructions report [`NOT_DONE`], evicted ones report 0.
///
/// Eviction only ever covers instructions that completed strictly before
/// the current cycle, and every comparison the loop makes against a
/// completion value c with `c < cycle` is insensitive to the exact value
/// (ready floors are dominated by `entry_cycle == cycle`; stall
/// comparisons test `>= rc` with `rc >= cycle`), so reporting 0 is
/// bit-identical to remembering the true cycle.
#[inline]
fn comp(rows: &RingVec<Row>, p: u32) -> u32 {
    rows.get(p as usize).map_or(0, |r| r.completion)
}

/// List index meaning "not spilled" in an [`InlineRow`].
const NO_SPILL: u32 = u32::MAX;

/// The per-run side arena behind [`InlineRow`]s: one list per spilled
/// row, recycled with its capacity when the row dies.
///
/// Overflow is rare — a pending-producer row outgrows its inline slots
/// only through collapse inheritance in wide windows — so a run holds a
/// few lists and allocates only while its peak grows.
#[derive(Debug, Default)]
struct Overflow<T> {
    lists: Vec<Vec<T>>,
    /// Emptied lists.
    free: Vec<u32>,
}

/// A `Copy` row of up to `N` entries inline; a row that outgrows them
/// moves all its entries to list `spill` of an [`Overflow`] arena and
/// stays there. Copies of a row share the list, so the one copy in the
/// window owns it and gives it back when the instruction issues
/// ([`InlineRow::release`]).
#[derive(Debug, Clone, Copy)]
struct InlineRow<T, const N: usize> {
    len: u32,
    inline: [T; N],
    spill: u32,
}

impl<T: Copy + Default, const N: usize> Default for InlineRow<T, N> {
    fn default() -> Self {
        InlineRow {
            len: 0,
            inline: [T::default(); N],
            spill: NO_SPILL,
        }
    }
}

impl<T: Copy + Default, const N: usize> InlineRow<T, N> {
    #[inline]
    fn len(&self) -> usize {
        self.len as usize
    }

    #[inline]
    fn slice<'a>(&'a self, arena: &'a Overflow<T>) -> &'a [T] {
        match self.spill {
            NO_SPILL => &self.inline[..self.len()],
            list => &arena.lists[list as usize],
        }
    }

    #[inline]
    fn slice_mut<'a>(&'a mut self, arena: &'a mut Overflow<T>) -> &'a mut [T] {
        match self.spill {
            NO_SPILL => &mut self.inline[..self.len as usize],
            list => &mut arena.lists[list as usize],
        }
    }

    #[inline]
    fn push(&mut self, v: T, arena: &mut Overflow<T>) {
        let k = self.len();
        if self.spill == NO_SPILL && k < N {
            self.inline[k] = v;
        } else {
            if self.spill == NO_SPILL {
                self.spill = arena.free.pop().unwrap_or_else(|| {
                    arena.lists.push(Vec::new());
                    arena.lists.len() as u32 - 1
                });
                arena.lists[self.spill as usize].extend_from_slice(&self.inline);
            }
            arena.lists[self.spill as usize].push(v);
        }
        self.len += 1;
    }

    fn pop(&mut self, arena: &mut Overflow<T>) {
        self.len -= 1;
        if self.spill != NO_SPILL {
            arena.lists[self.spill as usize].pop();
        }
    }

    /// Removes entry `k`, moving the last entry into its place.
    #[inline]
    fn swap_remove(&mut self, k: usize, arena: &mut Overflow<T>) {
        let last = self.len() - 1;
        self.slice_mut(arena).swap(k, last);
        self.pop(arena);
    }

    /// Inserts `v` at position `k`, shifting the later entries up.
    fn insert(&mut self, k: usize, v: T, arena: &mut Overflow<T>) {
        self.push(v, arena);
        self.slice_mut(arena)[k..].rotate_right(1);
    }

    /// Removes entry `k`, shifting the later entries down.
    fn remove(&mut self, k: usize, arena: &mut Overflow<T>) {
        self.slice_mut(arena)[k..].rotate_left(1);
        self.pop(arena);
    }

    /// Gives the spill list back; the row is dead afterwards.
    #[inline]
    fn release(&self, arena: &mut Overflow<T>) {
        if self.spill != NO_SPILL {
            arena.lists[self.spill as usize].clear();
            arena.free.push(self.spill);
        }
    }
}

/// Inline capacity of a dependence group's pending-producer row.
///
/// At fetch a `main` group holds at most four deduplicated register
/// producers plus a memory dependence plus a branch constraint — six —
/// and an `addr` group at most the four register producers. Collapse
/// inheritance can push a group past that (a consumer inherits its
/// absorbed producer's own pending producers), in wide windows on the
/// benchmarks; the row then spills to the run's [`Overflow`] arena.
const DEPS_INLINE: usize = 6;

/// One dependence group: the resolved-ready floor and the pending
/// producers, deduplicated, in an [`InlineRow`] (order is not
/// meaningful: removal moves the last producer into the gap).
#[derive(Debug, Clone, Copy, Default)]
struct Deps {
    /// Max completion cycle among resolved producers.
    ready: u32,
    pending: InlineRow<u32, DEPS_INLINE>,
}

impl Deps {
    /// Adds producer `p` whose completion status is `c` (a [`comp`]
    /// lookup): resolved producers raise the ready floor, in-flight ones
    /// join the pending row.
    #[inline]
    fn add(&mut self, p: u32, c: u32, arena: &mut Overflow<u32>) {
        if c != NOT_DONE {
            self.ready = self.ready.max(c);
        } else if !self.pending.slice(arena).contains(&p) {
            self.pending.push(p, arena);
        }
    }

    /// Resolves pending `p` at completion cycle `at` (groups are
    /// deduplicated, so at most one occurrence exists); `false` when `p`
    /// is not pending here (e.g. the dependence was rewritten by
    /// collapsing).
    #[inline]
    fn resolve(&mut self, p: u32, at: u32, arena: &mut Overflow<u32>) -> bool {
        let Some(k) = self.pending.slice(arena).iter().position(|&x| x == p) else {
            return false;
        };
        self.pending.swap_remove(k, arena);
        self.ready = self.ready.max(at);
        true
    }
}

/// Inline capacity of a collapse-candidate row.
///
/// A row holds distinct leaf producers of its expression, at most one
/// more than the group's members, so it passes four entries only in a
/// four-member group, which can absorb nothing more and be absorbed by
/// nothing: its spilled entries are kept exact but never steer a result.
const CANDS_INLINE: usize = 4;

/// Unresolved producers a *later* consumer could still absorb
/// transitively, with their operand slots inside this expression:
/// newest first, each producer at most once (see [`add_candidate`]).
type Cands = InlineRow<(u32, SlotSet), CANDS_INLINE>;

/// Dependence index meaning "none" in an [`Attr`] row.
const NO_DEP_IDX: u32 = u32::MAX;

/// Stall-attribution metadata, one packed row per instruction: the
/// memory-dependence and branch-constraint producers inside the `main`
/// group, and the readiness watermark of each constraint class.
#[derive(Debug, Clone, Copy)]
struct Attr {
    mem_dep: u32,
    branch_dep: u32,
    data_ready: u32,
    mem_ready: u32,
    branch_ready: u32,
}

impl Default for Attr {
    fn default() -> Self {
        Attr {
            mem_dep: NO_DEP_IDX,
            branch_dep: NO_DEP_IDX,
            data_ready: 0,
            mem_ready: 0,
            branch_ready: 0,
        }
    }
}

// Per-instruction state bits in a row's `state`.
/// In the wheel or ready set (all dependences resolved).
const S_SCHEDULED: u8 = 1 << 0;
/// Load-speculation lets this load ignore its `addr` group.
const S_BYPASS: u8 = 1 << 1;
const S_LOAD: u8 = 1 << 2;
/// Metrics-only: the producer binding `data_ready` was long-latency.
const S_DATA_LONG: u8 = 1 << 3;
/// Address predictor was confident (loads under [`LoadSpecMode::Real`]).
const S_PRED_CONF: u8 = 1 << 4;
/// Address predictor was correct.
const S_PRED_CORRECT: u8 = 1 << 5;

/// Node index meaning "end of list" in a [`ListArena`].
const NIL: u32 = u32::MAX;
/// Consumer bit marking an address-group (vs main-group) edge.
const EDGE_ADDR: u32 = 1 << 31;

/// Singly linked lists in one free-listed node arena, each list named
/// by the index of its first node: a row's consumer edges, a wheel
/// bucket's entries. A push reuses a freed node when there is one, so
/// the arena allocates only while its peak grows.
#[derive(Debug)]
struct ListArena<T> {
    /// Each node's entry and next node.
    nodes: Vec<(T, u32)>,
    free: u32,
}

impl<T: Copy> ListArena<T> {
    fn with_capacity(cap: usize) -> Self {
        ListArena {
            nodes: Vec::with_capacity(cap),
            free: NIL,
        }
    }

    /// Pushes `v` onto the front of list `*head`.
    fn push(&mut self, head: &mut u32, v: T) {
        let node = (v, *head);
        *head = if self.free == NIL {
            self.nodes.push(node);
            self.nodes.len() as u32 - 1
        } else {
            let n = self.free;
            self.free = self.nodes[n as usize].1;
            self.nodes[n as usize] = node;
            n
        };
    }

    /// Pops the front of list `*head`, freeing its node.
    #[inline]
    fn pop(&mut self, head: &mut u32) -> Option<T> {
        let n = *head;
        if n == NIL {
            return None;
        }
        let (v, next) = self.nodes[n as usize];
        self.nodes[n as usize].1 = self.free;
        self.free = n;
        *head = next;
        Some(v)
    }

    /// The entries of list `head`, front first.
    fn iter(&self, mut head: u32) -> impl Iterator<Item = T> + '_ {
        std::iter::from_fn(move || {
            (head != NIL).then(|| {
                let (v, next) = self.nodes[head as usize];
                head = next;
                v
            })
        })
    }
}

/// One instruction's in-window state, a row of the window's one ring:
/// one capacity check per fetch, one range check per row read, one
/// eviction at the retirement watermark. An instruction is in the
/// window iff its `completion` reads [`NOT_DONE`] (fetched, not yet
/// issued or eliminated, not evicted): there is no membership structure.
#[derive(Debug, Clone, Copy, Default)]
struct Row {
    /// Completion cycle, [`NOT_DONE`] while in flight.
    completion: u32,
    /// [`S_SCHEDULED`]-style flag bits.
    state: u8,
    /// Cycle the instruction entered the window.
    entry_cycle: u32,
    /// Non-bypassable dependences: data operands, memory dependence,
    /// branch constraint. For loads this group excludes address
    /// generation.
    main: Deps,
    /// Address-generation dependences (loads only).
    addr: Deps,
    attr: Attr,
    /// How many consumers absorbed this instruction (node elimination).
    absorbed: u32,
    /// This instruction's consumers in a [`ListArena`], tagged
    /// [`EDGE_ADDR`] for the address group, newest first: every notify
    /// effect is order-insensitive (max floors, set membership, wheel
    /// inserts whose per-bucket order is never observed).
    cons_head: u32,
    /// Collapse expression state (`None` for non-pattern ops or when
    /// collapsing is off).
    expr: Option<ExprState>,
    cands: Cands,
}

impl Row {
    /// Ready cycle from the row's floors.
    #[inline]
    fn ready_cycle(&self) -> u32 {
        let r = self.entry_cycle.max(self.main.ready);
        if self.state & S_BYPASS == 0 {
            r.max(self.addr.ready)
        } else {
            r
        }
    }

    /// Pending-dependence count.
    #[inline]
    fn blocking(&self) -> usize {
        self.main.pending.len()
            + if self.state & S_BYPASS != 0 {
                0
            } else {
                self.addr.pending.len()
            }
    }
}

/// Number of buckets in the wake-up timing wheel.
///
/// An entry's raw ready cycle is at most `cycle + 255` (latencies are
/// `u8`), and an idle skip advances `cycle` by at most 255 for the same
/// reason, so the distance between the oldest undrained bucket and the
/// furthest future wake-up is bounded by 509 < 512.
const WHEEL_BUCKETS: usize = 512;

/// Words in the wheel's bucket-occupancy bitmap.
const WHEEL_WORDS: usize = WHEEL_BUCKETS / 64;

/// The pending set — scheduled instructions waiting for their ready
/// cycle — as a timing wheel.
///
/// Push and drain are O(1) per entry, and the drain batches per cycle.
/// Entries store their *raw* ready cycle even when bucketed later (a
/// wake-up scheduled for the current cycle lands in the next drainable
/// bucket — exactly when a `BinaryHeap<Reverse<(rc, idx)>>` would have
/// surfaced it, see `drain_through`), so `peek_min` reproduces the
/// heap's `(rc, idx)` ordering bit for bit.
///
/// Every bucket is a list of `(raw ready cycle, index)` through one
/// [`ListArena`]. Its entries are scheduled, unissued instructions — a
/// subset of the window — so the arena is sized from the window once
/// and never grows.
#[derive(Debug)]
struct Wheel {
    /// First node of the list of bucket `c % WHEEL_BUCKETS`.
    heads: [u32; WHEEL_BUCKETS],
    entries: ListArena<(u32, u32)>,
    /// Bit per bucket slot: set iff that bucket is non-empty. Makes the
    /// next-event derivation an O([`WHEEL_WORDS`]) word scan instead of
    /// an O(buckets × occupancy) walk — this is what lets the idle-skip
    /// and the metrics head-classification stay cheap.
    occupied: [u64; WHEEL_WORDS],
    count: usize,
    /// The next bucket cycle `drain_through` will visit; every entry in
    /// the wheel sits in a bucket `>= next_drain`.
    next_drain: u32,
}

impl Wheel {
    /// A wheel for a window of `window` instructions.
    fn new(window: usize) -> Self {
        Wheel {
            heads: [NIL; WHEEL_BUCKETS],
            entries: ListArena::with_capacity(window),
            occupied: [0; WHEEL_WORDS],
            count: 0,
            next_drain: 0,
        }
    }

    /// Schedules instruction `idx` to wake at cycle `rc`.
    ///
    /// A wake-up at or before the already-drained horizon (possible when
    /// an issue this cycle resolves a consumer that was ready *now*) is
    /// bucketed at `next_drain`, the first bucket the next promote phase
    /// visits — which is precisely when the heap-based loop promoted it.
    fn push(&mut self, rc: u32, idx: u32) {
        let bucket = rc.max(self.next_drain);
        debug_assert!(
            bucket - self.next_drain < WHEEL_BUCKETS as u32,
            "wake-up {bucket} overflows the wheel horizon {}",
            self.next_drain
        );
        let slot = bucket as usize % WHEEL_BUCKETS;
        self.entries.push(&mut self.heads[slot], (rc, idx));
        self.occupied[slot / 64] |= 1 << (slot % 64);
        self.count += 1;
    }

    /// Moves every entry due by `cycle` into the ready set.
    ///
    /// Hops between occupied buckets via [`Wheel::next_event`] instead
    /// of visiting every cycle in `(next_drain..=cycle)`: after a long
    /// idle skip most of that span is empty buckets. The drain order
    /// over occupied buckets — and therefore the contents of `ready`, a
    /// set — is unchanged, so results stay bit-identical (pinned by
    /// `tests/event_skip_identity.rs`).
    fn drain_through(&mut self, cycle: u32, ready: &mut RingBitSet) {
        while self.next_drain <= cycle {
            match self.next_event() {
                Some(due) if due <= cycle => {
                    let slot = due as usize % WHEEL_BUCKETS;
                    while let Some((_, idx)) = self.entries.pop(&mut self.heads[slot]) {
                        ready.set(idx as usize);
                        self.count -= 1;
                    }
                    self.occupied[slot / 64] &= !(1 << (slot % 64));
                    self.next_drain = due + 1;
                }
                // Nothing due inside the span: it is all empty buckets,
                // skip it wholesale.
                _ => {
                    self.next_drain = cycle + 1;
                    return;
                }
            }
        }
    }

    /// The bucket cycle of the first non-empty bucket — the next cycle
    /// at which anything can wake. Derived from the occupancy bitmap:
    /// a cyclic word scan starting at `next_drain`'s slot, at most
    /// [`WHEEL_WORDS`] + 1 word reads.
    fn next_event(&self) -> Option<u32> {
        if self.count == 0 {
            return None;
        }
        let start = self.next_drain as usize % WHEEL_BUCKETS;
        let (sw, sb) = (start / 64, start % 64);
        // k == 0 masks bits below the start slot; k == WHEEL_WORDS
        // revisits the start word for the wrapped-around low bits.
        for k in 0..=WHEEL_WORDS {
            let wi = (sw + k) % WHEEL_WORDS;
            let w = match k {
                0 => self.occupied[wi] & (!0u64 << sb),
                WHEEL_WORDS => self.occupied[wi] & ((1u64 << sb) - 1),
                _ => self.occupied[wi],
            };
            if w != 0 {
                let slot = wi * 64 + w.trailing_zeros() as usize;
                let delta = (slot + WHEEL_BUCKETS - start) % WHEEL_BUCKETS;
                return Some(self.next_drain + delta as u32);
            }
        }
        unreachable!("wheel count is positive but the occupancy map is empty")
    }

    /// The minimum `(raw ready cycle, index)` entry, heap-identically.
    ///
    /// Entries bucketed past their raw cycle can only live in the
    /// `next_drain` bucket (older ones were drained), so the first
    /// non-empty bucket always contains the global minimum.
    fn peek_min(&self) -> Option<(u32, u32)> {
        let bucket = self.next_event()?;
        self.entries
            .iter(self.heads[bucket as usize % WHEEL_BUCKETS])
            .min()
    }
}

/// A column view the generic timing loop runs against.
///
/// Two implementations: the whole-trace view over a [`PreparedTrace`]
/// (`ensure` is a bounds check, `release` a no-op) and the streaming
/// view in [`crate::stream`] (`ensure` pre-passes pulled records up to
/// `i`, pulling the next chunk when they run out; `release` evicts
/// columns behind the watermark). The loop only reads columns in
/// `[watermark, fetch]`, which is the contract that makes `release`
/// sound and lets the streaming view pre-pass no further than `fetch`.
pub(crate) trait PreparedSource {
    /// Makes instruction `i`'s columns available; `Ok(false)` means the
    /// trace ended before `i`.
    fn ensure(&mut self, i: usize) -> Result<bool, StreamError>;
    fn flags(&self, i: usize) -> u8;
    /// Latency resolved under the run's [`Latencies`].
    fn latency(&self, i: usize) -> u8;
    fn block_of(&self, i: usize) -> u32;
    /// Whole-trace reader count (node elimination only; streaming views
    /// reject configs that need it and return 0).
    fn readers_of(&self, i: usize) -> u32;
    fn mem_dep_of(&self, i: usize) -> Option<u32>;
    fn producer_row(&self, i: usize) -> ProducerRow;
    /// The operand pattern of instruction `i` (`None` for operations
    /// that never collapse).
    fn optype_of(&self, i: usize) -> Option<OpType>;
    /// Branch-misprediction verdict for a conditional branch at `i`.
    fn mispredicted(&self, i: usize) -> bool;
    /// Address-prediction flags (bit0 confident, bit1 correct); only
    /// consulted under [`LoadSpecMode::Real`].
    fn load_pred(&self, i: usize) -> u8;
    /// The run's value-speculation mode.
    fn value_mode(&self) -> ValueSpecMode;
    /// The value table's confident-correct verdict for producer `i`;
    /// only consulted under [`ValueSpecMode::Real`].
    fn value_hit(&self, i: usize) -> bool;
    /// Columns below `below` will never be read again.
    fn release(&mut self, below: usize);
    /// Run-wide branch statistics (final totals at end of trace).
    fn branch_stats(&self) -> BranchRunStats;
    /// Run-wide value-speculation statistics (final totals).
    fn value_stats(&self) -> ValueSpecStats;

    /// Whether instruction `i` may absorb producers.
    #[inline]
    fn is_collapse_consumer(&self, i: usize) -> bool {
        self.flags(i) & F_CONSUMER != 0
    }

    /// The leaf [`ExprState`] of instruction `i` under the device
    /// parameters; `None` for pattern-less instructions.
    #[inline]
    fn collapse_leaf(&self, i: usize, opts: &CollapseOpts) -> Option<ExprState> {
        self.optype_of(i)
            .map(|t| ExprState::leaf_from(i as u32, t, opts))
    }

    /// Whether producer `i`'s value is predicted at dispatch: every
    /// traced load ([`ValueSpecMode::Ideal`]), every traced result
    /// ([`ValueSpecMode::IdealAll`]) or the value table's verdict.
    /// Evicted producers report `false` — their dependence resolves at
    /// cycle 0 either way, so the answer cannot move a bit.
    #[inline]
    fn value_bypass(&self, i: usize) -> bool {
        match self.value_mode() {
            ValueSpecMode::Off => false,
            ValueSpecMode::Ideal => self.flags(i) & (F_LOAD | F_VALUE) == F_LOAD | F_VALUE,
            ValueSpecMode::IdealAll => self.flags(i) & F_VALUE != 0,
            ValueSpecMode::Real => self.value_hit(i),
        }
    }
}

/// Why the generic loop stopped early.
#[derive(Debug)]
pub(crate) enum RunError {
    Cancelled,
    Fault(StreamError),
}

/// The whole-trace view: borrowed [`PreparedTrace`] columns plus the
/// config-resolved verdict streams.
struct WholeView<'a> {
    p: &'a PreparedTrace,
    mispredicted: &'a BitSet,
    branches: BranchRunStats,
    load_pred: &'a [u8],
    lat: &'a [u8],
    value_mode: ValueSpecMode,
    /// The value table's run, under [`ValueSpecMode::Real`] only.
    real_values: Option<&'a ValueStream>,
}

impl PreparedSource for WholeView<'_> {
    #[inline]
    fn ensure(&mut self, i: usize) -> Result<bool, StreamError> {
        Ok(i < self.p.len())
    }

    #[inline]
    fn flags(&self, i: usize) -> u8 {
        self.p.flags(i)
    }

    #[inline]
    fn latency(&self, i: usize) -> u8 {
        self.lat[i]
    }

    #[inline]
    fn block_of(&self, i: usize) -> u32 {
        self.p.block_of(i)
    }

    #[inline]
    fn readers_of(&self, i: usize) -> u32 {
        self.p.readers_of(i)
    }

    #[inline]
    fn mem_dep_of(&self, i: usize) -> Option<u32> {
        self.p.mem_dep_of(i)
    }

    #[inline]
    fn producer_row(&self, i: usize) -> ProducerRow {
        let prods = self.p.producers_of(i);
        let codes = self.p.slot_codes_of(i);
        debug_assert!(prods.len() <= 4, "register sources exceed the row budget");
        let mut row = ProducerRow::default();
        for (&p, &c) in prods.iter().zip(codes) {
            row.push(p, c);
        }
        row
    }

    #[inline]
    fn optype_of(&self, i: usize) -> Option<OpType> {
        self.p.optype_of(i)
    }

    #[inline]
    fn mispredicted(&self, i: usize) -> bool {
        self.mispredicted.get(i)
    }

    #[inline]
    fn load_pred(&self, i: usize) -> u8 {
        self.load_pred[i]
    }

    fn value_mode(&self) -> ValueSpecMode {
        self.value_mode
    }

    #[inline]
    fn value_hit(&self, i: usize) -> bool {
        self.real_values.is_some_and(|s| s.bypass.get(i))
    }

    #[inline]
    fn release(&mut self, _below: usize) {}

    fn branch_stats(&self) -> BranchRunStats {
        self.branches
    }

    fn value_stats(&self) -> ValueSpecStats {
        let real = self.real_values.map(|s| s.stats).unwrap_or_default();
        prepass::value_stats(self.value_mode, self.p.loads_with_value(), real)
    }
}

/// Simulates one trace under one configuration.
///
/// Builds the analysis pre-pass and runs [`simulate_prepared`]; use
/// [`PreparedTrace::build`] once and call `simulate_prepared` directly
/// when sweeping many configurations over the same trace.
///
/// # Examples
///
/// ```
/// use ddsc_core::{simulate, SimConfig};
/// use ddsc_trace::{Trace, TraceInst};
/// use ddsc_isa::{Opcode, Reg};
///
/// let mut t = Trace::new("two-independent-adds");
/// t.push(TraceInst::alu(0, Opcode::Add, Reg::new(1), Reg::new(2), None, Some(1), 0));
/// t.push(TraceInst::alu(4, Opcode::Add, Reg::new(3), Reg::new(4), None, Some(1), 0));
/// let r = simulate(&t, &SimConfig::base(4));
/// assert_eq!(r.cycles, 1, "independent instructions issue together");
/// ```
pub fn simulate(trace: &Trace, config: &SimConfig) -> SimResult {
    simulate_prepared(&PreparedTrace::build(trace), config)
}

/// Simulates a prepared trace under one configuration.
///
/// Bit-identical to [`simulate`] on the source trace; the pre-pass cost
/// is paid once per trace instead of once per configuration. This is
/// [`simulate_with`] under the default [`RunOptions`].
pub fn simulate_prepared(prepared: &PreparedTrace, config: &SimConfig) -> SimResult {
    let (result, _) = simulate_with(prepared, config, &RunOptions::default())
        .unwrap_or_else(|_| unreachable!("a run without a token cannot be cancelled"));
    result
}

/// How a [`simulate_with`] run is observed and stepped. The default is
/// the plain run: no metrics, no deadline, idle cycles skipped.
#[derive(Debug, Default, Clone)]
pub struct RunOptions {
    /// Collect the audited cycle-attribution [`SimMetrics`].
    pub metrics: bool,
    /// Abort with [`Cancelled`] once this token fires; the token is read
    /// every [`POLL_STRIDE`](crate::cancel::POLL_STRIDE) loop
    /// iterations.
    pub cancel: Option<CancelToken>,
    /// Walk every idle cycle one by one instead of jumping to the next
    /// wheel event. Bit-identical by construction; kept so the identity
    /// is testable from outside the crate.
    #[doc(hidden)]
    pub step: bool,
}

/// Simulates a prepared trace with the metrics, deadline and gait that
/// `options` asks for.
///
/// The [`SimResult`] is bit-identical to [`simulate_prepared`]'s for
/// every option: metrics and the deadline only read loop state, never
/// steer it. Each (deadline, metrics) pair runs its own monomorphised
/// loop, so a run without them pays for neither. The metrics come back
/// exactly when `options.metrics` is set, and satisfy the accounting
/// identity `sum(attributed cycles) == total cycles`.
///
/// # Errors
///
/// [`Cancelled`] when `options.cancel` fires mid-run; no partial result
/// is left behind.
///
/// # Panics
///
/// Panics if the attribution identity fails on a completed run (a
/// simulator bug, not a caller error).
pub fn simulate_with(
    prepared: &PreparedTrace,
    config: &SimConfig,
    options: &RunOptions,
) -> Result<(SimResult, Option<SimMetrics>), Cancelled> {
    let step = options.step;
    let audited = |collector: MetricsCollector, result: &SimResult| {
        collector
            .finish(result)
            .expect("cycle-attribution identity must hold")
    };
    match (&options.cancel, options.metrics) {
        (None, false) => {
            let result = whole_trace_run(prepared, config, &mut NoopObserver, step)?;
            Ok((result, None))
        }
        (None, true) => {
            let mut collector = MetricsCollector::new(config);
            let result = whole_trace_run(prepared, config, &mut collector, step)?;
            let metrics = audited(collector, &result);
            Ok((result, Some(metrics)))
        }
        (Some(token), false) => {
            let mut obs = CancelObserver::new(NoopObserver, token.clone());
            let result = whole_trace_run(prepared, config, &mut obs, step)?;
            Ok((result, None))
        }
        (Some(token), true) => {
            let mut obs = CancelObserver::new(MetricsCollector::new(config), token.clone());
            let result = whole_trace_run(prepared, config, &mut obs, step)?;
            let metrics = audited(obs.into_inner(), &result);
            Ok((result, Some(metrics)))
        }
    }
}

/// The body of every whole-trace run.
///
/// Resolves the config-class verdict streams against the prepared
/// columns (cached for the default geometry, recomputed through the same
/// code path for ablations), wraps them in the whole-trace column view,
/// and hands off to the shared timing loop. When `O::CANCELLABLE` is
/// `false` (every plain observer) the poll block is statically dead and
/// this monomorphizes to the exact pre-cancellation loop; when `true`,
/// the observer is polled once per loop iteration and a `true` answer
/// aborts with [`Cancelled`]. `step` selects the non-skipping gait
/// ([`RunOptions::step`]).
fn whole_trace_run<O: SimObserver>(
    prepared: &PreparedTrace,
    config: &SimConfig,
    obs: &mut O,
    step: bool,
) -> Result<SimResult, Cancelled> {
    let owned_branch;
    let branch: &BranchStream = if config.perfect_branches {
        owned_branch = prepared.perfect_branch_stream();
        &owned_branch
    } else if config.predictor_n == DEFAULT_PREDICTOR_N {
        prepared.default_branch_stream()
    } else {
        owned_branch = prepared.branch_stream(config.predictor_n);
        &owned_branch
    };

    let owned_addr;
    let load_pred: &[u8] = match config.load_spec {
        // Off needs no flags; Ideal derives them from the load flag.
        LoadSpecMode::Off | LoadSpecMode::Ideal => &[],
        LoadSpecMode::Real => {
            if config.stride_bits == DEFAULT_STRIDE_BITS
                && config.confidence == ConfidenceParams::default()
            {
                prepared.default_addr_stream()
            } else {
                owned_addr = prepared.addr_stream(config.stride_bits, &config.confidence);
                &owned_addr
            }
        }
    };

    let owned_lat;
    let lat: &[u8] = if config.latencies == Latencies::default() {
        prepared.latencies()
    } else {
        owned_lat = prepared.latency_column(&config.latencies);
        &owned_lat
    };

    let mut view = WholeView {
        p: prepared,
        mispredicted: &branch.mispredicted,
        branches: branch.stats,
        load_pred,
        lat,
        value_mode: config.value_spec,
        real_values: (config.value_spec == ValueSpecMode::Real)
            .then(|| prepared.real_value_stream()),
    };
    match run_timing_loop(&mut view, config, obs, step) {
        Ok(r) => Ok(r),
        Err(RunError::Cancelled) => Err(Cancelled),
        Err(RunError::Fault(e)) => unreachable!("whole-trace view cannot fault: {e}"),
    }
}

/// Adds `times` copies of `slots` to producer `p`'s entry in a
/// collapse-candidate row, inserting the entry at its place in
/// descending producer order when `p` is new.
///
/// Rows stay newest first with each producer at most once, so the
/// greedy absorb scans a row in place, nearest producer first.
fn add_candidate(
    row: &mut Cands,
    p: u32,
    slots: SlotSet,
    times: u16,
    arena: &mut Overflow<(u32, SlotSet)>,
) {
    let at = row.slice(arena).partition_point(|&(q, _)| q > p);
    match row.slice_mut(arena).get_mut(at) {
        Some((q, existing)) if *q == p => existing.add_times(slots, times),
        _ => {
            let mut set = SlotSet::default();
            set.add_times(slots, times);
            row.insert(at, (p, set), arena);
        }
    }
}

/// The generic timing loop: every simulation — whole-trace or streaming,
/// observed or not, cancellable or not, at any issue width — runs this
/// one function. It is instantiated once per (column view, observer)
/// pair: four observers over the whole-trace view, and `NoopObserver`
/// over the streaming view. The issue width is a plain input read from
/// `config`.
///
/// `step` disables event-driven cycle skipping: the loop then walks
/// every idle cycle one by one instead of jumping to the next wheel
/// event. The skipped span is inert — nothing fetches, drains or
/// issues inside it, so head-of-wheel classification and all counters
/// are constant across it — which is why the two modes are bit-identical
/// (pinned through [`RunOptions::step`] by the proptests in
/// `tests/event_skip_identity.rs`).
pub(crate) fn run_timing_loop<V: PreparedSource, O: SimObserver>(
    view: &mut V,
    config: &SimConfig,
    obs: &mut O,
    step: bool,
) -> Result<SimResult, RunError> {
    let width = config.issue_width;
    let opts = CollapseOpts {
        zero_detection: config.zero_detection,
        max_members: config.max_collapse_members,
        max_ops: config.max_collapse_ops,
    };

    let ws = config.window_size as usize;
    let mut rows = RingVec::with_capacity(Row::default(), ws * 4);
    let mut edges = ListArena::with_capacity(0);
    let mut dep_spill = Overflow::default();
    let mut cand_spill = Overflow::default();
    let mut wheel = Wheel::new(ws);
    let mut ready = RingBitSet::with_capacity(ws * 4);
    let mut last_mispred: Option<u32> = None;
    // Metrics-only (maintained when O::ENABLED): how many in-window
    // instructions still wait on an unresolved mispredicted branch. An
    // idle cycle with squashed work in the window is mispredict
    // serialization no matter what the next-to-wake entry waits on —
    // with perfect prediction that work would have been available.
    let mut squash_pending: u32 = 0;

    let mut loads = crate::LoadSpecStats::default();
    let mut stalls = StallStats::default();
    let mut collapse = CollapseStats::new();
    let mut participant = RingBitSet::with_capacity(ws * 4);
    let mut eliminated = 0u64;

    let mut fetch = 0usize;
    let mut exhausted = false;
    let mut in_window = 0u32;
    let mut cycle = 0u32;
    let mut retired = 0usize;
    let mut last_issue_cycle = 0u32;

    loop {
        if O::CANCELLABLE && obs.poll_cancelled() {
            return Err(RunError::Cancelled);
        }

        // -- watermark: retire rows no live read can reach. Everything
        // below the first instruction whose completion is pending or
        // still in the future is dead to every remaining lookup. --
        let mut watermark = rows.base();
        while watermark < fetch {
            match rows.get(watermark) {
                Some(r) if r.completion != NOT_DONE && r.completion < cycle => watermark += 1,
                _ => break,
            }
        }
        if watermark > rows.base() {
            rows.evict_to(watermark);
            ready.evict_to(watermark);
            participant.evict_to(watermark);
            view.release(watermark);
        }

        // -- fetch: keep the window full --
        while in_window < config.window_size && !exhausted {
            match view.ensure(fetch) {
                Err(e) => return Err(RunError::Fault(e)),
                Ok(false) => {
                    exhausted = true;
                    break;
                }
                Ok(true) => {}
            }
            let i = fetch as u32;
            let pflags = view.flags(fetch);
            let is_load = pflags & F_LOAD != 0;
            // The new row is built in locals and pushed at the end of
            // the fetch step.
            let mut e_main = Deps::default();
            let mut e_addr = Deps::default();

            let row = view.producer_row(fetch);
            for (p, _) in row.iter() {
                if view.value_bypass(p as usize) {
                    // The producer's value is predicted at dispatch;
                    // this dependence carries no latency.
                    continue;
                }
                let c = comp(&rows, p);
                if is_load {
                    e_addr.add(p, c, &mut dep_spill);
                } else {
                    e_main.add(p, c, &mut dep_spill);
                }
            }
            let mut data_floor = e_main.ready;
            let mut data_long = false;
            if O::ENABLED && !is_load && data_floor > 0 {
                // Which already-completed producer set the data floor,
                // and was it a multiply/divide? Metrics-only.
                for (p, _) in row.iter() {
                    if comp(&rows, p) == data_floor
                        && !view.value_bypass(p as usize)
                        && view.flags(p as usize) & F_LOAD == 0
                        && view.latency(p as usize) > config.latencies.default
                    {
                        data_long = true;
                        break;
                    }
                }
            }
            let mut a = Attr::default();
            if let Some(s) = view.mem_dep_of(fetch) {
                let c = comp(&rows, s);
                e_main.add(s, c, &mut dep_spill);
                if c != NOT_DONE {
                    a.mem_ready = c;
                } else {
                    a.mem_dep = s;
                }
            }
            if let Some(b) = last_mispred {
                let c = comp(&rows, b);
                e_main.add(b, c, &mut dep_spill);
                if c != NOT_DONE {
                    a.branch_ready = c;
                } else {
                    a.branch_dep = b;
                    if O::ENABLED {
                        squash_pending += 1;
                    }
                }
            }

            // -- d-collapsing at dispatch --
            let block_id = view.block_of(fetch);
            let mut expr = if config.collapsing && view.is_collapse_consumer(fetch) {
                view.collapse_leaf(fetch, &opts)
            } else {
                None
            };
            let mut cands = Cands::default();
            if expr.is_some() {
                // Initial candidates: unresolved producers referenced by
                // the base instruction through collapsible operands —
                // exactly the nonzero-coded, still-pending edges.
                for (p, code) in row.iter() {
                    if code != 0 && comp(&rows, p) == NOT_DONE && !view.value_bypass(p as usize) {
                        let (slots, count) = decode_slots(code);
                        let set = SlotSet::of(&slots[..count]);
                        add_candidate(&mut cands, p, set, 1, &mut cand_spill);
                    }
                }
                // Greedy absorb, nearest producer first, until nothing
                // else fits the device.
                loop {
                    let cur = expr.as_ref().expect("expr present in collapse loop");
                    let mut chosen: Option<(usize, ExprState)> = None;
                    for (k, &(p, slots)) in cands.slice(&cand_spill).iter().enumerate() {
                        let pu = p as usize;
                        // In-window is a completion property: anything
                        // issued, eliminated or evicted is out.
                        let Some(p_row) = rows.get(pu) else {
                            continue;
                        };
                        if p_row.completion != NOT_DONE {
                            continue; // already issued
                        }
                        if config.collapse_within_block_only && view.block_of(pu) != block_id {
                            continue;
                        }
                        let Some(p_expr) = p_row.expr.as_ref() else {
                            continue;
                        };
                        if let Some(merged) = cur.absorb_set(p_expr, slots, &opts) {
                            chosen = Some((k, merged));
                            break;
                        }
                    }
                    let Some((k, merged)) = chosen else { break };
                    let (p, slots) = cands.slice(&cand_spill)[k];
                    cands.remove(k, &mut cand_spill);
                    // Drop the collapsed dependence (resolving at cycle 0
                    // leaves the floor alone) and inherit the producer's
                    // own dependences (leaf availability) and its
                    // transitive candidates, each slot list counted once
                    // per operand slot the absorbed producer occupied.
                    // The consumer's rows are still locals.
                    let group = if is_load { &mut e_addr } else { &mut e_main };
                    group.resolve(p, 0, &mut dep_spill);
                    let p_row = rows.get_mut(p as usize);
                    p_row.absorbed += 1;
                    let (p_main, p_cands, p_state) = (p_row.main, p_row.cands, p_row.state);
                    group.ready = group.ready.max(p_main.ready);
                    if !is_load {
                        // Inherited leaf availability counts as data
                        // readiness for the stall breakdown.
                        if O::ENABLED && p_main.ready > data_floor {
                            data_long = p_state & S_DATA_LONG != 0;
                        }
                        data_floor = data_floor.max(p_main.ready);
                    }
                    for k in 0..p_main.pending.len() {
                        let q = p_main.pending.slice(&dep_spill)[k];
                        group.add(q, comp(&rows, q), &mut dep_spill);
                    }
                    for k in 0..p_cands.len() {
                        let (q, s) = p_cands.slice(&cand_spill)[k];
                        add_candidate(&mut cands, q, s, slots.len(), &mut cand_spill);
                    }
                    expr = Some(merged);
                }
            }

            let lflags = match config.load_spec {
                LoadSpecMode::Off => 0,
                LoadSpecMode::Ideal => {
                    if is_load {
                        0b11
                    } else {
                        0
                    }
                }
                LoadSpecMode::Real => view.load_pred(fetch),
            };
            if O::ENABLED && is_load && config.load_spec == LoadSpecMode::Real {
                obs.on_addr_prediction(lflags & 1 != 0, lflags & 2 != 0);
            }
            let bypass_addr = is_load
                && match config.load_spec {
                    LoadSpecMode::Off => false,
                    LoadSpecMode::Ideal => true,
                    LoadSpecMode::Real => lflags == 0b11, // confident && correct
                };

            let mut st = 0u8;
            if bypass_addr {
                st |= S_BYPASS;
            }
            if is_load {
                st |= S_LOAD;
            }
            if data_long {
                st |= S_DATA_LONG;
            }
            if lflags & 1 != 0 {
                st |= S_PRED_CONF;
            }
            if lflags & 2 != 0 {
                st |= S_PRED_CORRECT;
            }

            // Register wake-up edges on in-window producers while the
            // rows are still locals (the ring only gains row `i` below,
            // so producer rows are freely mutable here).
            debug_assert!(i < EDGE_ADDR, "instruction index overflows the tag bit");
            for &p in e_addr.pending.slice(&dep_spill) {
                edges.push(&mut rows.get_mut(p as usize).cons_head, i | EDGE_ADDR);
            }
            for &p in e_main.pending.slice(&dep_spill) {
                edges.push(&mut rows.get_mut(p as usize).cons_head, i);
            }

            let schedulable =
                e_main.pending.len() + if bypass_addr { 0 } else { e_addr.pending.len() } == 0;
            if schedulable {
                st |= S_SCHEDULED;
            }
            let new_row = Row {
                completion: NOT_DONE,
                state: st,
                entry_cycle: cycle,
                main: e_main,
                addr: e_addr,
                attr: a,
                absorbed: 0,
                cons_head: NIL,
                expr,
                cands,
            };
            if schedulable {
                wheel.push(new_row.ready_cycle(), i);
            }
            rows.push(new_row);
            in_window += 1;

            if pflags & F_COND_BRANCH != 0 {
                let mispredicted = view.mispredicted(fetch);
                if O::ENABLED {
                    obs.on_cond_branch(mispredicted);
                }
                if mispredicted {
                    last_mispred = Some(i);
                }
            }
            fetch += 1;
        }
        let occupancy_at_issue = in_window;
        ready.grow_to(fetch);
        participant.grow_to(fetch);

        // -- promote pending entries whose ready cycle has arrived --
        wheel.drain_through(cycle, &mut ready);

        // -- issue up to the width, oldest first (word-wise bit drain) --
        let mut slots_used = 0u32;
        let mut popped = 0usize;
        ready.drain_in_order(|idx_usize| {
            if slots_used >= width {
                return false;
            }
            let idx = idx_usize as u32;
            in_window -= 1;
            popped += 1;

            // Node elimination: if every reader absorbed this result, the
            // instruction need not execute at all (Figure 1f). It frees
            // its window slot without consuming issue bandwidth.
            let r = rows.get_mut(idx_usize);
            let st = r.state;
            let iflags = view.flags(idx_usize);
            let eliminate = config.node_elimination
                && r.absorbed > 0
                && r.absorbed == view.readers_of(idx_usize)
                && iflags & F_CAN_PRODUCE != 0;
            let latency = view.latency(idx_usize);
            let ct = if eliminate {
                eliminated += 1;
                cycle // value is never read; see readers accounting
            } else {
                slots_used += 1;
                last_issue_cycle = cycle;
                cycle + u32::from(latency)
            };
            // Writing the completion time is what removes the row from
            // the window: in-window membership IS `completion == NOT_DONE`.
            r.completion = ct;
            let mut edge = std::mem::replace(&mut r.cons_head, NIL);
            let (entry_cycle, main, addr, at, expr) =
                (r.entry_cycle, r.main, r.addr, r.attr, r.expr);
            // The row is dead to every later read: free its overflow.
            main.pending.release(&mut dep_spill);
            addr.pending.release(&mut dep_spill);
            r.cands.release(&mut cand_spill);

            if !eliminate {
                // Bottleneck attribution: the wait from window entry to
                // readiness goes to the dominant constraint; ready to
                // issue is bandwidth contention.
                let bypass_addr = st & S_BYPASS != 0;
                let rc = {
                    let mut r = entry_cycle.max(main.ready);
                    if !bypass_addr {
                        r = r.max(addr.ready);
                    }
                    r
                };
                stalls.insts += 1;
                stalls.bandwidth += u64::from(cycle - rc);
                let wait = rc - entry_cycle;
                if wait > 0 {
                    let addr_ready = if bypass_addr { 0 } else { addr.ready };
                    // Priority for ties: the most external cause first.
                    let attributed = if at.branch_ready >= rc {
                        &mut stalls.branch
                    } else if at.mem_ready >= rc {
                        &mut stalls.memory
                    } else if addr_ready >= rc {
                        &mut stalls.address
                    } else {
                        &mut stalls.data
                    };
                    *attributed += u64::from(wait);
                }
                if st & S_LOAD != 0 && config.load_spec != LoadSpecMode::Off {
                    let t_addr_known = addr.pending.len() == 0;
                    let comparator = if bypass_addr {
                        cycle
                    } else {
                        main.ready.max(entry_cycle)
                    };
                    let class = if t_addr_known && addr.ready <= comparator {
                        LoadClass::Ready
                    } else if st & S_PRED_CONF != 0 && st & S_PRED_CORRECT != 0 {
                        LoadClass::PredictedCorrect
                    } else if st & S_PRED_CONF != 0 {
                        LoadClass::PredictedIncorrect
                    } else {
                        LoadClass::NotPredicted
                    };
                    loads.record(class);
                }
                if let Some(expr) = &expr {
                    // A collapse is only *executed* when the interlock is
                    // real: the consumer issues before some absorbed
                    // producer's result would have been available. Groups
                    // whose producers all completed in time issue as
                    // ordinary instructions and are not counted (the
                    // dependence rewriting never changed their timing).
                    let effective = expr.is_collapsed()
                        && expr
                            .members()
                            .any(|(m, _)| m != idx && comp(&rows, m) > cycle);
                    if effective {
                        collapse.record_group(expr);
                        participant.set(idx_usize);
                        for (m, _) in expr.members() {
                            if m != idx && comp(&rows, m) > cycle {
                                participant.set(m as usize);
                            }
                        }
                        if O::ENABLED {
                            obs.on_collapse_group(expr.members().count() as u32);
                        }
                    }
                }
            }

            // Notify in-window consumers, freeing this row's edges.
            let p_long =
                O::ENABLED && !eliminate && st & S_LOAD == 0 && latency > config.latencies.default;
            while let Some(tagged) = edges.pop(&mut edge) {
                // A consumer is younger than this unissued producer, so
                // it sits above the watermark.
                let cons = (tagged & !EDGE_ADDR) as usize;
                let c = rows.get_mut(cons);
                if c.completion != NOT_DONE {
                    continue; // bypassed load already issued
                }
                let resolved = if tagged & EDGE_ADDR != 0 {
                    c.addr.resolve(idx, ct, &mut dep_spill)
                } else {
                    let r = c.main.resolve(idx, ct, &mut dep_spill);
                    if r {
                        // Classify the resolved producer for stall
                        // attribution. The dep indices are deliberately
                        // *not* cleared (the main group dedups producers,
                        // so each pair resolves once) — that keeps the
                        // follow-on squash check identical to the
                        // struct-based loop.
                        let a = &mut c.attr;
                        let data_long_write = if a.mem_dep == idx {
                            a.mem_ready = a.mem_ready.max(ct);
                            false
                        } else if a.branch_dep == idx {
                            a.branch_ready = a.branch_ready.max(ct);
                            false
                        } else {
                            let write = ct >= a.data_ready;
                            a.data_ready = a.data_ready.max(ct);
                            write
                        };
                        if data_long_write {
                            if p_long {
                                c.state |= S_DATA_LONG;
                            } else {
                                c.state &= !S_DATA_LONG;
                            }
                        }
                        if O::ENABLED && c.attr.branch_dep == idx {
                            squash_pending -= 1;
                        }
                    }
                    r
                };
                if resolved && c.state & S_SCHEDULED == 0 && c.blocking() == 0 {
                    c.state |= S_SCHEDULED;
                    wheel.push(c.ready_cycle(), cons as u32);
                }
            }
            true
        });
        // Batch retirement: one counter update per cycle, not per pop.
        retired += popped;

        if O::ENABLED && slots_used > 0 {
            obs.on_issue_cycle(cycle, slots_used, occupancy_at_issue);
        }

        if retired == fetch {
            // The window is drained; the run is over unless the source
            // has more. Probe before advancing so a finished trace exits
            // without a phantom idle cycle (bit-identity with the
            // fixed-length loop's `retired >= n` check).
            if exhausted {
                break;
            }
            match view.ensure(fetch) {
                Err(e) => return Err(RunError::Fault(e)),
                Ok(false) => break,
                Ok(true) => {}
            }
        }

        // -- advance time --
        //
        // Event skip: when nothing is ready and the window can't grow,
        // no cycle before the wheel's next occupied bucket can issue,
        // fetch or drain anything — the skipped span is provably inert
        // (head entry, squash_pending and the idle cause are all static
        // across it; watermark movement is storage-only) — so the
        // counter jumps straight there. `step` forces the one-cycle
        // gait for the bit-identity harness.
        let next = if step || ready.live() > 0 || (in_window < config.window_size && !exhausted) {
            cycle + 1
        } else if let Some(event) = wheel.next_event() {
            event.max(cycle + 1)
        } else {
            debug_assert!(
                !exhausted || in_window > 0,
                "simulator wedged with nothing to do"
            );
            cycle + 1
        };
        if O::ENABLED {
            // Every cycle in [cycle, next) that issued nothing is idle;
            // classify the whole span by the constraint that binds the
            // next-to-wake entry's ready cycle, most external cause
            // first (matching StallStats' convention).
            let span = u64::from(next - cycle) - u64::from(slots_used > 0);
            if span > 0 {
                let cause = match wheel.peek_min() {
                    Some((rc, head)) => {
                        let h = rows.get(head as usize).expect("pending row in window");
                        let at = h.attr;
                        if squash_pending > 0 || at.branch_ready >= rc {
                            StallCause::Branch
                        } else if at.mem_ready >= rc {
                            StallCause::Memory
                        } else if h.state & S_BYPASS == 0 && h.addr.ready >= rc {
                            StallCause::Address
                        } else if h.state & S_DATA_LONG != 0 && at.data_ready >= rc {
                            StallCause::LongLatency
                        } else {
                            let more = !exhausted && matches!(view.ensure(fetch), Ok(true));
                            if in_window >= config.window_size && more {
                                StallCause::WindowFull
                            } else {
                                StallCause::DepHeight
                            }
                        }
                    }
                    None => StallCause::DepHeight,
                };
                obs.on_idle_cycles(span, cause, in_window);
            }
        }
        cycle = next;
    }

    #[cfg(test)]
    tests::SPILLED.set((dep_spill.lists.len(), cand_spill.lists.len()));
    let total = fetch;
    collapse.mark_participants(participant.lifetime_ones());
    collapse.set_total(total as u64);

    Ok(SimResult {
        config: *config,
        instructions: total as u64,
        cycles: if total == 0 {
            0
        } else {
            u64::from(last_issue_cycle) + 1
        },
        loads,
        values: view.value_stats(),
        branches: view.branch_stats(),
        stalls,
        collapse,
        eliminated,
    })
}

/// Trace generators shared across the crate's bit-identity test suites
/// (timing loop vs reference, streaming vs whole-trace).
#[cfg(test)]
pub(crate) mod testutil {
    use ddsc_isa::{Cond, Opcode, Reg};
    use ddsc_trace::{Trace, TraceInst};

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    /// A messy mix of ALU ops, loads, stores and branches exercising
    /// every simulator path (collapsing, aliasing, mispredictions).
    pub(crate) fn mixed_trace(len: u32, seed: u64) -> Trace {
        let mut rng = ddsc_util::Pcg32::new(seed);
        let mut t = Trace::new("mixed");
        for i in 0..len {
            match rng.next_u32() % 8 {
                0 => {
                    let ea = (rng.next_u32() % 0x400) * 4 + 0x1000;
                    t.push(TraceInst::load(
                        4 * i,
                        Opcode::Ld,
                        r((rng.next_u32() % 7 + 1) as u8),
                        r((rng.next_u32() % 7 + 1) as u8),
                        None,
                        Some(0),
                        0,
                        ea,
                    ));
                }
                1 => {
                    let ea = (rng.next_u32() % 0x400) * 4 + 0x1000;
                    t.push(TraceInst::store(
                        4 * i,
                        Opcode::St,
                        r((rng.next_u32() % 7 + 1) as u8),
                        r((rng.next_u32() % 7 + 1) as u8),
                        None,
                        Some(0),
                        0,
                        ea,
                    ));
                }
                2 => {
                    t.push(TraceInst::cond_branch(
                        4 * i,
                        Opcode::Bcc(Cond::Ne),
                        rng.chance(1, 3),
                        4 * i + 16,
                    ));
                }
                3 => {
                    t.push(TraceInst::alu(
                        4 * i,
                        Opcode::Div,
                        r((rng.next_u32() % 7 + 1) as u8),
                        r((rng.next_u32() % 7 + 1) as u8),
                        None,
                        Some(3),
                        0,
                    ));
                }
                _ => {
                    let mut inst = TraceInst::alu(
                        4 * i,
                        Opcode::Add,
                        r((rng.next_u32() % 7 + 1) as u8),
                        r((rng.next_u32() % 7 + 1) as u8),
                        None,
                        Some(1),
                        0,
                    );
                    inst.value = Some(rng.next_u32());
                    t.push(inst);
                }
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PaperConfig;
    use ddsc_isa::{Cond, Opcode, Reg};
    use ddsc_trace::TraceInst;

    thread_local! {
        /// How many pending-producer and candidate overflow lists this
        /// thread's last run made: nonzero iff some row spilled.
        pub(super) static SPILLED: std::cell::Cell<(usize, usize)> =
            const { std::cell::Cell::new((0, 0)) };
    }

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    /// A chain of `n` dependent add-immediates on one register.
    fn dependent_chain(n: usize) -> Trace {
        let mut t = Trace::new("chain");
        for i in 0..n {
            t.push(TraceInst::alu(
                4 * i as u32,
                Opcode::Add,
                r(1),
                r(1),
                None,
                Some(1),
                0,
            ));
        }
        t
    }

    /// `n` fully independent adds on distinct registers.
    fn independent(n: usize) -> Trace {
        let mut t = Trace::new("indep");
        for i in 0..n {
            let reg = r((i % 8 + 1) as u8);
            t.push(TraceInst::alu(
                4 * i as u32,
                Opcode::Add,
                reg,
                Reg::G0,
                None,
                Some(i as i32 + 1),
                0,
            ));
        }
        t
    }

    /// A metrics-on run without a deadline.
    fn with_metrics(prepared: &PreparedTrace, config: &SimConfig) -> (SimResult, SimMetrics) {
        let options = RunOptions {
            metrics: true,
            ..RunOptions::default()
        };
        match simulate_with(prepared, config, &options) {
            Ok((result, Some(metrics))) => (result, metrics),
            other => panic!("a metrics-on run without a deadline returned {other:?}"),
        }
    }

    #[test]
    fn cancellable_path_is_bit_identical_when_the_deadline_survives() {
        let t = dependent_chain(2000);
        let prepared = PreparedTrace::build(&t);
        for c in PaperConfig::ALL {
            let cfg = SimConfig::paper(c, 8);
            let plain = simulate_prepared(&prepared, &cfg);
            for metrics in [false, true] {
                let options = RunOptions {
                    metrics,
                    cancel: Some(CancelToken::never()),
                    ..RunOptions::default()
                };
                let (armed, _) = simulate_with(&prepared, &cfg, &options)
                    .expect("a never-token must not cancel");
                assert_eq!(armed, plain, "config {}, metrics {metrics}", c.label());
            }
        }
    }

    #[test]
    fn an_expired_deadline_cancels_the_run() {
        // Long enough that the loop crosses at least one poll stride.
        let t = dependent_chain(50_000);
        let prepared = PreparedTrace::build(&t);
        let cfg = SimConfig::base(8);
        let token = CancelToken::with_deadline(std::time::Duration::ZERO);
        for metrics in [false, true] {
            let options = RunOptions {
                metrics,
                cancel: Some(token.clone()),
                ..RunOptions::default()
            };
            assert_eq!(
                simulate_with(&prepared, &cfg, &options),
                Err(Cancelled),
                "metrics {metrics}"
            );
        }
    }

    #[test]
    fn result_codec_round_trips_a_real_simulation() {
        let t = dependent_chain(3000);
        let cfg = SimConfig::paper(PaperConfig::D, 8);
        let result = simulate(&t, &cfg);
        let mut bytes = Vec::new();
        result.encode_to(&mut bytes);
        let mut pos = 0;
        let back = SimResult::decode(&bytes, &mut pos, cfg).expect("decodes");
        assert_eq!(back, result);
        assert_eq!(pos, bytes.len());
        let mut pos = 0;
        assert!(SimResult::decode(&bytes[..bytes.len() - 1], &mut pos, cfg).is_none());
    }

    #[test]
    fn independent_instructions_reach_full_width() {
        let t = independent(4000);
        for width in [4, 8, 16] {
            let res = simulate(&t, &SimConfig::base(width));
            let ipc = res.ipc();
            assert!(
                (f64::from(width) - ipc).abs() < 0.1,
                "width {width}: ipc {ipc}"
            );
        }
    }

    #[test]
    fn dependent_chain_is_serial_on_the_base_machine() {
        let t = dependent_chain(1000);
        let res = simulate(&t, &SimConfig::base(8));
        assert!((res.ipc() - 1.0).abs() < 0.01, "ipc {}", res.ipc());
    }

    #[test]
    fn collapsing_breaks_dependent_chains() {
        // With 4-1 collapsing, r1 += 1 chains collapse in groups of
        // three: instruction i depends on i-3, so steady-state IPC is 3.
        let t = dependent_chain(3000);
        let res = simulate(&t, &SimConfig::paper(PaperConfig::C, 8));
        assert!(
            res.ipc() > 2.7,
            "collapsed chain should run near IPC 3, got {}",
            res.ipc()
        );
        assert!(res.collapse.collapsed_pct().value() > 90.0);
    }

    #[test]
    fn pairs_only_ablation_halves_the_collapse_win() {
        let t = dependent_chain(3000);
        let mut cfg = SimConfig::paper(PaperConfig::C, 8);
        cfg.max_collapse_members = 2;
        let res = simulate(&t, &cfg);
        assert!(
            (res.ipc() - 2.0).abs() < 0.1,
            "pairs-only chain should run at IPC 2, got {}",
            res.ipc()
        );
    }

    #[test]
    fn issue_width_caps_ipc() {
        let t = independent(4000);
        let res = simulate(&t, &SimConfig::base(4));
        assert!(res.ipc() <= 4.0 + 1e-9);
    }

    #[test]
    fn window_limits_parallelism() {
        // Alternate a long-latency divide chain with independent work:
        // a tiny window stalls behind the divide.
        let mut t = Trace::new("divs");
        for i in 0..200u32 {
            t.push(TraceInst::alu(
                4 * i,
                Opcode::Div,
                r(1),
                r(1),
                None,
                Some(3),
                0,
            ));
        }
        let res = simulate(&t, &SimConfig::base(8));
        // Serial divides: 12 cycles each.
        assert!(res.ipc() < 0.1, "ipc {}", res.ipc());
    }

    #[test]
    fn mispredicted_branches_stall_younger_instructions() {
        // Random (unpredictable) branches interleaved with independent
        // work: IPC collapses toward the branch resolution rate.
        let mut rng = ddsc_util::Pcg32::new(7);
        let mut t = Trace::new("rand-branches");
        for i in 0..4000u32 {
            if i % 4 == 0 {
                t.push(TraceInst::cond_branch(
                    0x40,
                    Opcode::Bcc(Cond::Ne),
                    rng.chance(1, 2),
                    0x80,
                ));
            } else {
                t.push(TraceInst::alu(
                    4 * i,
                    Opcode::Add,
                    r((i % 7 + 1) as u8),
                    Reg::G0,
                    None,
                    Some(1),
                    0,
                ));
            }
        }
        let base = simulate(&t, &SimConfig::base(8));
        // Same trace with perfectly predictable (always-taken) branches.
        let mut t2 = Trace::new("taken-branches");
        for i in 0..4000u32 {
            if i % 4 == 0 {
                t2.push(TraceInst::cond_branch(
                    0x40,
                    Opcode::Bcc(Cond::Ne),
                    true,
                    0x80,
                ));
            } else {
                t2.push(TraceInst::alu(
                    4 * i,
                    Opcode::Add,
                    r((i % 7 + 1) as u8),
                    Reg::G0,
                    None,
                    Some(1),
                    0,
                ));
            }
        }
        let pred = simulate(&t2, &SimConfig::base(8));
        assert!(
            pred.ipc() > base.ipc() * 1.2,
            "predictable {} vs random {}",
            pred.ipc(),
            base.ipc()
        );
        assert!(
            base.branches.mispredicted * 3 > base.branches.cond_branches,
            "random branches should mispredict often"
        );
    }

    #[test]
    fn loads_wait_for_matching_stores() {
        // store to A; load from A; the load must see the store's
        // completion before issuing.
        let mut t = Trace::new("mem");
        t.push(TraceInst::alu(
            0,
            Opcode::Add,
            r(1),
            Reg::G0,
            None,
            Some(64),
            0,
        )); // addr
        t.push(TraceInst::store(
            4,
            Opcode::St,
            r(1),
            r(1),
            None,
            Some(0),
            0,
            64,
        ));
        t.push(TraceInst::load(
            8,
            Opcode::Ld,
            r(2),
            r(1),
            None,
            Some(0),
            0,
            64,
        ));
        let res = simulate(&t, &SimConfig::base(8));
        // add @0, store @1 (addr ready at 1), load @>=2, +2 latency.
        assert!(res.cycles >= 3, "cycles {}", res.cycles);
    }

    #[test]
    fn load_speculation_helps_strided_loads_behind_slow_addresses() {
        // A "pointer chase" whose node layout happens to be strided:
        // ld r1, [r1] chains serially on the base machine (2 cycles per
        // load), but the address stream is perfectly stride-predictable,
        // so load-speculation breaks the chain completely.
        let mut t = Trace::new("strided-chase");
        for i in 0..600u32 {
            t.push(TraceInst::load(
                0x20,
                Opcode::Ld,
                r(1),
                r(1),
                None,
                Some(0),
                0,
                0x1000 + 4 * i,
            ));
        }
        let base = simulate(&t, &SimConfig::paper(PaperConfig::A, 8));
        let spec = simulate(&t, &SimConfig::paper(PaperConfig::B, 8));
        assert!(
            base.ipc() < 0.6,
            "serial 2-cycle load chain, got {}",
            base.ipc()
        );
        assert!(
            spec.ipc() > base.ipc() * 4.0,
            "speculation should win big: base {} spec {}",
            base.ipc(),
            spec.ipc()
        );
        let s = &spec.loads;
        assert!(
            s.predicted_correct > s.total() / 2,
            "most loads predicted: {s:?}"
        );
    }

    #[test]
    fn ideal_speculation_dominates_real() {
        let mut rng = ddsc_util::Pcg32::new(3);
        let mut t = Trace::new("random-loads");
        for _ in 0..900u32 {
            t.push(TraceInst::alu(
                0x10,
                Opcode::Div,
                r(1),
                r(1),
                None,
                Some(1),
                0,
            ));
            let ea = (rng.next_u32() % 0x10000) & !3;
            t.push(TraceInst::load(
                0x20,
                Opcode::Ld,
                r(2),
                r(1),
                None,
                Some(ea as i32),
                0,
                ea,
            ));
            t.push(TraceInst::alu(
                0x30,
                Opcode::Add,
                r(3),
                r(2),
                None,
                Some(1),
                0,
            ));
        }
        let real = simulate(&t, &SimConfig::paper(PaperConfig::D, 8));
        let ideal = simulate(&t, &SimConfig::paper(PaperConfig::E, 8));
        assert!(
            ideal.ipc() >= real.ipc(),
            "ideal {} real {}",
            ideal.ipc(),
            real.ipc()
        );
        assert!(
            real.loads.not_predicted + real.loads.predicted_incorrect > 0,
            "random addresses cannot all predict"
        );
    }

    #[test]
    fn compare_branch_pairs_collapse() {
        let mut t = Trace::new("cmp-brc");
        for i in 0..300u32 {
            t.push(TraceInst::alu(4, Opcode::Add, r(1), r(1), None, Some(1), 0));
            t.push(TraceInst::cmp(8, r(1), None, Some(1000), 0));
            t.push(TraceInst::cond_branch(
                12,
                Opcode::Bcc(Cond::Ne),
                i != 299,
                4,
            ));
        }
        let res = simulate(&t, &SimConfig::paper(PaperConfig::C, 8));
        let pairs = res.collapse.pairs();
        assert!(pairs.total() > 0, "cmp-branch pairs must collapse");
        let top = pairs.top(3);
        assert!(
            top.iter().any(|(k, _)| k.to_string().contains("brc")),
            "expected a brc pattern among {top:?}"
        );
    }

    #[test]
    fn collapse_distance_counts_intervening_instructions() {
        // Producer and consumer separated by independent instructions.
        let mut t = Trace::new("dist");
        t.push(TraceInst::alu(0, Opcode::Add, r(1), r(2), None, Some(1), 0));
        for i in 0..3u32 {
            t.push(TraceInst::alu(
                4 + 4 * i,
                Opcode::Add,
                r((4 + i) as u8),
                Reg::G0,
                None,
                Some(1),
                0,
            ));
        }
        t.push(TraceInst::alu(
            20,
            Opcode::Add,
            r(3),
            r(1),
            None,
            Some(2),
            0,
        ));
        let res = simulate(&t, &SimConfig::paper(PaperConfig::C, 8));
        assert_eq!(res.collapse.distance().count(4), 1, "distance 4 collapse");
    }

    #[test]
    fn node_elimination_removes_fully_absorbed_producers() {
        let t = dependent_chain(2000);
        let mut cfg = SimConfig::paper(PaperConfig::C, 8);
        cfg.node_elimination = true;
        let res = simulate(&t, &cfg);
        assert!(res.eliminated > 0, "chain producers are fully absorbed");
        let plain = simulate(&t, &SimConfig::paper(PaperConfig::C, 8));
        assert!(
            res.cycles <= plain.cycles,
            "elimination frees issue slots: {} vs {}",
            res.cycles,
            plain.cycles
        );
    }

    #[test]
    fn within_block_ablation_blocks_cross_branch_collapses() {
        // producer ... branch ... consumer: collapsing across the branch
        // is legal by default, blocked under the ablation.
        let mut t = Trace::new("xblock");
        for _ in 0..200 {
            t.push(TraceInst::alu(0, Opcode::Add, r(1), r(1), None, Some(1), 0));
            t.push(TraceInst::cond_branch(4, Opcode::Bcc(Cond::Ne), true, 8));
            t.push(TraceInst::alu(8, Opcode::Add, r(2), r(1), None, Some(2), 0));
        }
        let normal = simulate(&t, &SimConfig::paper(PaperConfig::C, 8));
        let mut cfg = SimConfig::paper(PaperConfig::C, 8);
        cfg.collapse_within_block_only = true;
        let blocked = simulate(&t, &cfg);
        assert!(
            normal.collapse.groups() > blocked.collapse.groups(),
            "cross-block collapses must disappear: {} vs {}",
            normal.collapse.groups(),
            blocked.collapse.groups()
        );
    }

    #[test]
    fn ideal_value_speculation_breaks_load_chains() {
        // ld r1, [r1] pointer chase with random addresses: value
        // speculation removes the consumer dependence entirely.
        let mut rng = ddsc_util::Pcg32::new(4);
        let mut t = Trace::new("chase");
        for _ in 0..400 {
            let ea = rng.next_u32() & !3;
            let mut inst = TraceInst::load(0x20, Opcode::Ld, r(1), r(1), None, Some(0), 0, ea);
            inst.value = Some(ea.wrapping_add(64));
            t.push(inst);
        }
        let base = simulate(&t, &SimConfig::paper(PaperConfig::A, 8));
        let mut cfg = SimConfig::paper(PaperConfig::A, 8);
        cfg.value_spec = crate::ValueSpecMode::Ideal;
        let spec = simulate(&t, &cfg);
        assert!(base.ipc() < 0.6, "serial chain, got {}", base.ipc());
        assert!(
            spec.ipc() > base.ipc() * 4.0,
            "value speculation breaks the chain: {} -> {}",
            base.ipc(),
            spec.ipc()
        );
        assert_eq!(spec.values.predicted_correct, 400);
    }

    #[test]
    fn real_value_speculation_learns_invariant_loads() {
        // The same global is reloaded over and over (value 77), each
        // time feeding a dependent add: a last-value-style predictor
        // learns it.
        let mut t = Trace::new("invariant");
        for _ in 0..300 {
            let mut ld = TraceInst::load(0x30, Opcode::Ld, r(2), r(9), None, Some(0), 0, 0x5000);
            ld.value = Some(77);
            t.push(ld);
            t.push(TraceInst::alu(
                0x34,
                Opcode::Add,
                r(3),
                r(3),
                Some(r(2)),
                None,
                0,
            ));
        }
        let mut cfg = SimConfig::paper(PaperConfig::A, 8);
        cfg.value_spec = crate::ValueSpecMode::Real;
        let spec = simulate(&t, &cfg);
        let v = &spec.values;
        assert!(
            v.predicted_correct > v.total() / 2,
            "invariant loads should value-predict: {v:?}"
        );
        let base = simulate(&t, &SimConfig::paper(PaperConfig::A, 8));
        assert!(spec.cycles <= base.cycles);
    }

    #[test]
    fn ideal_all_value_speculation_approaches_the_bandwidth_limit() {
        // With every register result predicted, only branch mispredictions
        // and bandwidth remain.
        let t = dependent_chain(2000);
        let mut cfg = SimConfig::paper(PaperConfig::A, 8);
        cfg.value_spec = crate::ValueSpecMode::IdealAll;
        // Chains built by `dependent_chain` carry no `value` field (they
        // are hand-built records), so attach values first.
        let mut t2 = Trace::new("valued");
        for mut inst in t.iter().copied() {
            inst.value = Some(1);
            t2.push(inst);
        }
        let spec = simulate(&t2, &cfg);
        assert!(
            spec.ipc() > 7.5,
            "all dependences removed, IPC ~ width: {}",
            spec.ipc()
        );
    }

    #[test]
    fn stall_breakdown_attributes_data_chains() {
        let t = dependent_chain(1000);
        let r = simulate(&t, &SimConfig::base(8));
        let s = &r.stalls;
        assert!(s.data > 0, "a serial chain waits on data: {s:?}");
        assert!(
            s.data > s.branch + s.memory + s.address,
            "data must dominate: {s:?}"
        );
    }

    #[test]
    fn stall_breakdown_attributes_branch_stalls() {
        let mut rng = ddsc_util::Pcg32::new(11);
        let mut t = Trace::new("rand-br");
        for i in 0..3000u32 {
            if i % 3 == 0 {
                t.push(TraceInst::cond_branch(
                    0x40,
                    Opcode::Bcc(Cond::Ne),
                    rng.chance(1, 2),
                    0x80,
                ));
            } else {
                t.push(TraceInst::alu(
                    4 * i,
                    Opcode::Add,
                    r((i % 7 + 1) as u8),
                    Reg::G0,
                    None,
                    Some(1),
                    0,
                ));
            }
        }
        let s = simulate(&t, &SimConfig::base(8)).stalls;
        assert!(
            s.branch > s.data && s.branch > s.memory,
            "random branches dominate the stalls: {s:?}"
        );
    }

    #[test]
    fn stall_breakdown_attributes_address_stalls() {
        // Serial pointer chase: every load waits on its address operand.
        let mut t = Trace::new("chase");
        for i in 0..800u32 {
            t.push(TraceInst::load(
                0x20,
                Opcode::Ld,
                r(1),
                r(1),
                None,
                Some(0),
                0,
                0x1000 + 8 * i,
            ));
        }
        let s = simulate(&t, &SimConfig::base(8)).stalls;
        assert!(
            s.address > s.data && s.address > s.branch,
            "address generation dominates: {s:?}"
        );
    }

    #[test]
    fn stall_breakdown_attributes_bandwidth() {
        let t = independent(4000);
        let s = simulate(&t, &SimConfig::base(4)).stalls;
        assert!(
            s.bandwidth > s.data + s.address + s.branch + s.memory,
            "independent code only waits for slots: {s:?}"
        );
    }

    #[test]
    fn empty_trace_is_fine() {
        let res = simulate(&Trace::new("empty"), &SimConfig::base(4));
        assert_eq!(res.instructions, 0);
        assert_eq!(res.cycles, 0);
        assert_eq!(res.ipc(), 0.0);
    }

    #[test]
    fn wide_configuration_runs() {
        let t = dependent_chain(5000);
        let res = simulate(&t, &SimConfig::paper(PaperConfig::D, 2048));
        assert!(res.ipc() > 1.0);
        assert_eq!(res.instructions, 5000);
    }

    use super::testutil::mixed_trace;

    /// The ablation and extension variants whose streams fall off the
    /// default cached geometry — every fallback path in
    /// [`simulate_prepared`] gets covered.
    fn variant_configs() -> Vec<SimConfig> {
        let mut variants = Vec::new();
        let mut c = SimConfig::paper(PaperConfig::C, 8);
        c.node_elimination = true;
        variants.push(c);
        let mut c = SimConfig::paper(PaperConfig::C, 8);
        c.collapse_within_block_only = true;
        variants.push(c);
        let mut c = SimConfig::paper(PaperConfig::A, 8);
        c.value_spec = crate::ValueSpecMode::Real;
        variants.push(c);
        let mut c = SimConfig::paper(PaperConfig::A, 8);
        c.value_spec = crate::ValueSpecMode::Ideal;
        variants.push(c);
        let mut c = SimConfig::paper(PaperConfig::A, 8);
        c.value_spec = crate::ValueSpecMode::IdealAll;
        variants.push(c);
        let mut c = SimConfig::paper(PaperConfig::D, 8);
        c.perfect_branches = true;
        variants.push(c);
        // Non-default predictor geometry: recomputed streams.
        let mut c = SimConfig::paper(PaperConfig::D, 8);
        c.predictor_n = 10;
        variants.push(c);
        let mut c = SimConfig::paper(PaperConfig::D, 8);
        c.stride_bits = 8;
        variants.push(c);
        let mut c = SimConfig::paper(PaperConfig::D, 8);
        c.confidence = crate::ConfidenceParams {
            max: 7,
            inc: 1,
            dec: 1,
            threshold: 3,
        };
        variants.push(c);
        // Non-default latencies: recomputed latency column.
        let mut c = SimConfig::paper(PaperConfig::C, 8);
        c.latencies.load = 4;
        c.latencies.div = 20;
        variants.push(c);
        let mut c = SimConfig::paper(PaperConfig::C, 8);
        c.zero_detection = false;
        variants.push(c);
        // The other collapse devices: pairs only, triples, the 3-1 device.
        for (members, ops) in [(2, 4), (3, 4), (4, 3)] {
            let mut c = SimConfig::paper(PaperConfig::C, 8);
            c.max_collapse_members = members;
            c.max_collapse_ops = ops;
            variants.push(c);
        }
        variants
    }

    #[test]
    fn matches_the_reference_simulator() {
        // The two-stage pipeline (pre-pass + prepared timing loop) must
        // not move a single bit of any result.
        let t = mixed_trace(4000, 1996);
        for cfg in PaperConfig::ALL {
            for width in [4u32, 8, 32] {
                let config = SimConfig::paper(cfg, width);
                let new = simulate(&t, &config);
                let old = crate::reference::simulate_reference(&t, &config);
                assert_eq!(new, old, "divergence at {cfg:?} width {width}");
            }
        }
        // Ablation and extension paths too — including every non-default
        // geometry that bypasses the cached streams.
        for config in variant_configs() {
            let new = simulate(&t, &config);
            let old = crate::reference::simulate_reference(&t, &config);
            assert_eq!(new, old, "divergence at {config:?}");
        }
    }

    #[test]
    fn shared_prepared_trace_matches_per_run_preparation() {
        // One PreparedTrace serving a whole grid (the Lab pattern) must
        // give the same bits as building it fresh per run, in any order —
        // the lazily cached streams cannot leak state between configs.
        let t = mixed_trace(3000, 77);
        let shared = PreparedTrace::build(&t);
        let mut grid: Vec<SimConfig> = Vec::new();
        for cfg in PaperConfig::ALL {
            for width in [4u32, 16] {
                grid.push(SimConfig::paper(cfg, width));
            }
        }
        grid.extend(variant_configs());
        for config in &grid {
            let from_shared = simulate_prepared(&shared, config);
            let fresh = simulate(&t, config);
            assert_eq!(from_shared, fresh, "divergence at {config:?}");
        }
        // And again in reverse order, after every stream is warm.
        for config in grid.iter().rev() {
            let from_shared = simulate_prepared(&shared, config);
            let fresh = simulate(&t, config);
            assert_eq!(from_shared, fresh, "reverse divergence at {config:?}");
        }
    }

    #[test]
    fn metrics_observer_never_moves_a_bit_and_always_balances() {
        // The observed run must produce the same SimResult as the plain
        // run, and the cycle attribution must partition the run exactly,
        // on every paper config and every ablation variant.
        let t = mixed_trace(4000, 2024);
        let prepared = PreparedTrace::build(&t);
        let mut grid: Vec<SimConfig> = Vec::new();
        for cfg in PaperConfig::ALL {
            for width in [4u32, 8, 32] {
                grid.push(SimConfig::paper(cfg, width));
            }
        }
        grid.extend(variant_configs());
        for config in &grid {
            let plain = simulate_prepared(&prepared, config);
            let (observed, metrics) = with_metrics(&prepared, config);
            assert_eq!(plain, observed, "observer changed timing at {config:?}");
            // An armed deadline that never fires must forward every
            // metrics hook: same result, same metrics.
            let armed = RunOptions {
                metrics: true,
                cancel: Some(CancelToken::never()),
                ..RunOptions::default()
            };
            let (armed_result, armed_metrics) =
                simulate_with(&prepared, config, &armed).expect("a never-token must not cancel");
            assert_eq!(armed_result, plain, "deadline changed timing at {config:?}");
            assert_eq!(
                armed_metrics.as_ref(),
                Some(&metrics),
                "deadline changed metrics at {config:?}"
            );
            assert_eq!(
                metrics.attribution.total(),
                plain.cycles,
                "attribution identity at {config:?}: {:?}",
                metrics.attribution
            );
            assert_eq!(
                metrics.attribution.issue + metrics.issue_util.count(0),
                plain.cycles
            );
            assert_eq!(metrics.issue_util.total(), plain.cycles);
            assert_eq!(metrics.window_occupancy.total(), plain.cycles);
            // Issue slots consumed across all cycles = instructions that
            // actually executed (eliminated ones never take a slot).
            let issued: u64 = metrics.issue_util.iter().map(|(v, c)| v * c).sum();
            assert_eq!(issued, plain.instructions - plain.eliminated, "{config:?}");
            assert_eq!(metrics.issue_util.overflow(), 0, "issued past the width?");
            // The observer's branch stream re-counts the predictor stats.
            assert_eq!(
                metrics.branch_hits + metrics.branch_misses,
                plain.branches.cond_branches,
                "{config:?}"
            );
            assert_eq!(
                metrics.branch_misses, plain.branches.mispredicted,
                "{config:?}"
            );
            if config.load_spec == LoadSpecMode::Real {
                assert_eq!(
                    metrics.addr_pred.total(),
                    plain.loads.total(),
                    "one verdict per load at {config:?}"
                );
            } else {
                assert_eq!(metrics.addr_pred.total(), 0);
            }
        }
    }

    #[test]
    fn metrics_attribute_the_obvious_bottlenecks() {
        // Each synthetic workload's dominant attribution bucket must
        // match what the trace was built to exercise.

        // A 1-cycle serial chain issues one instruction every cycle:
        // never idle, just narrow.
        let chain = dependent_chain(1000);
        let chain_prep = PreparedTrace::build(&chain);
        let (res, m) = with_metrics(&chain_prep, &SimConfig::base(8));
        assert_eq!(m.attribution.issue, res.cycles, "{:?}", m.attribution);
        assert!(m.issue_util.count(1) > res.cycles * 9 / 10);

        // The same chain at 3-cycle latency with the whole trace in the
        // window: pure dependence height (the window is provably not the
        // limiter).
        let mut cfg = SimConfig::base(2048);
        cfg.latencies.default = 3;
        let (_, m) = with_metrics(&chain_prep, &cfg);
        assert!(
            m.attribution.dep_height > m.attribution.total() / 2,
            "slow chain in a huge window is dependence-height bound: {:?}",
            m.attribution
        );
        assert_eq!(m.attribution.window_full, 0, "{:?}", m.attribution);

        // Same dataflow stall with a tiny window that stays full: the
        // window becomes the co-limiter and the bucket shifts.
        let mut cfg = SimConfig::base(8);
        cfg.latencies.default = 3;
        let (_, m) = with_metrics(&chain_prep, &cfg);
        assert!(
            m.attribution.window_full > m.attribution.total() / 2,
            "slow chain behind a full window: {:?}",
            m.attribution
        );

        let mut divs = Trace::new("divs");
        for i in 0..200u32 {
            divs.push(TraceInst::alu(
                4 * i,
                Opcode::Div,
                r(1),
                r(1),
                None,
                Some(3),
                0,
            ));
        }
        let (_, m) = with_metrics(&PreparedTrace::build(&divs), &SimConfig::base(8));
        assert!(
            m.attribution.long_latency > m.attribution.total() / 2,
            "a divide chain waits out divide latency: {:?}",
            m.attribution
        );

        let mut chase = Trace::new("chase");
        for i in 0..800u32 {
            chase.push(TraceInst::load(
                0x20,
                Opcode::Ld,
                r(1),
                r(1),
                None,
                Some(0),
                0,
                0x1000 + 8 * i,
            ));
        }
        let (_, m) = with_metrics(&PreparedTrace::build(&chase), &SimConfig::base(8));
        assert!(
            m.attribution.address > m.attribution.total() / 3,
            "pointer chase waits on address generation: {:?}",
            m.attribution
        );

        // store -> load -> store recurrence through one memory word,
        // with 3-cycle stores so the load's memory wait opens a real
        // idle gap (at unit store latency the load wakes the very next
        // cycle and the wait hides under the store's issue cycle).
        let mut mem = Trace::new("mem-chain");
        for i in 0..300u32 {
            mem.push(TraceInst::store(
                8 * i,
                Opcode::St,
                r(1),
                r(9),
                None,
                Some(0),
                0,
                0x100,
            ));
            mem.push(TraceInst::load(
                8 * i + 4,
                Opcode::Ld,
                r(1),
                r(9),
                None,
                Some(0),
                0,
                0x100,
            ));
        }
        let mut cfg = SimConfig::base(8);
        cfg.latencies.default = 3;
        let (_, m) = with_metrics(&PreparedTrace::build(&mem), &cfg);
        let idle_max = StallCause::ALL
            .into_iter()
            .map(|c| m.attribution.idle(c))
            .max()
            .unwrap();
        assert!(
            m.attribution.memory > 0 && m.attribution.memory == idle_max,
            "store-to-load recurrence is memory bound: {:?}",
            m.attribution
        );

        // Slow-to-resolve random branches: a divide feeds the compare
        // feeding the branch, so a misprediction squashes the younger
        // independent adds for the whole divide latency. Those idle
        // cycles are squash serialization — with perfect prediction the
        // adds would have issued.
        let mut rng = ddsc_util::Pcg32::new(11);
        let mut br = Trace::new("slow-branches");
        for i in 0..300u32 {
            br.push(TraceInst::alu(
                32 * i,
                Opcode::Div,
                r(1),
                r(1),
                None,
                Some(3),
                0,
            ));
            br.push(TraceInst::cmp(32 * i + 4, r(1), None, Some(0), 0));
            br.push(TraceInst::cond_branch(
                32 * i + 8,
                Opcode::Bcc(Cond::Ne),
                rng.chance(1, 2),
                32 * i + 12,
            ));
            for j in 0..4u32 {
                br.push(TraceInst::alu(
                    32 * i + 12 + 4 * j,
                    Opcode::Add,
                    r((j % 5 + 2) as u8),
                    Reg::G0,
                    None,
                    Some(1),
                    0,
                ));
            }
        }
        let br_prep = PreparedTrace::build(&br);
        let (_, m) = with_metrics(&br_prep, &SimConfig::base(8));
        assert!(
            m.attribution.branch > m.attribution.total() / 4,
            "mispredict squash claims the divide-bound idle time: {:?}",
            m.attribution
        );
        assert!(m.branch_misses > 0 && m.branch_hits > 0);
        let mut perfect = SimConfig::base(8);
        perfect.perfect_branches = true;
        let (_, mp) = with_metrics(&br_prep, &perfect);
        assert_eq!(
            mp.attribution.branch, 0,
            "perfect prediction leaves no squash cycles: {:?}",
            mp.attribution
        );
        assert!(mp.branch_misses == 0);

        let indep = independent(4000);
        let (res, m) = with_metrics(&PreparedTrace::build(&indep), &SimConfig::base(4));
        assert!(
            m.attribution.issue * 10 > m.attribution.total() * 9,
            "independent code issues nearly every cycle: {:?}",
            m.attribution
        );
        assert!(
            m.issue_util.count(4) > res.cycles * 9 / 10,
            "full-width cycles dominate"
        );
    }

    #[test]
    fn metrics_on_an_empty_trace_are_empty() {
        let prepared = PreparedTrace::build(&Trace::new("empty"));
        let (res, m) = with_metrics(&prepared, &SimConfig::base(4));
        assert_eq!(res.cycles, 0);
        assert_eq!(m.attribution.total(), 0);
        assert_eq!(m.issue_util.total(), 0);
    }

    #[test]
    fn default_stream_constants_track_the_config_defaults() {
        // The prepared-stream cache keys off these constants; if the
        // defaults drift, the cache would silently serve stale geometry.
        let base = SimConfig::base(4);
        assert_eq!(base.predictor_n, DEFAULT_PREDICTOR_N);
        assert_eq!(base.stride_bits, DEFAULT_STRIDE_BITS);
        assert_eq!(base.confidence, ConfidenceParams::default());
        assert_eq!(base.latencies, Latencies::default());
    }

    #[test]
    fn window_columns_recycle_storage() {
        // Run something long enough that rows are evicted and the ring
        // columns wrap many times over; storage must track the live
        // span, not the trace length.
        let t = mixed_trace(6000, 7);
        let res = simulate(&t, &SimConfig::paper(PaperConfig::C, 4));
        assert_eq!(res.instructions, 6000);
        assert!(res.cycles > 0);
    }

    /// The pending-producer row as the loop kept it before it became
    /// `Copy`: six inline slots, then a heap spill.
    #[derive(Debug, Default)]
    struct VecDeps {
        ready: u32,
        inline: Vec<u32>,
        spill: Vec<u32>,
    }

    impl VecDeps {
        fn add(&mut self, p: u32, c: u32) {
            if c != NOT_DONE {
                self.ready = self.ready.max(c);
            } else if !self.inline.contains(&p) && !self.spill.contains(&p) {
                if self.inline.len() < DEPS_INLINE {
                    self.inline.push(p);
                } else {
                    self.spill.push(p);
                }
            }
        }

        fn resolve(&mut self, p: u32, at: u32) -> bool {
            if let Some(k) = self.inline.iter().position(|&x| x == p) {
                match self.spill.pop() {
                    Some(last) => self.inline[k] = last,
                    None => {
                        self.inline.swap_remove(k);
                    }
                }
            } else if let Some(k) = self.spill.iter().position(|&x| x == p) {
                self.spill.swap_remove(k);
            } else {
                return false;
            }
            self.ready = self.ready.max(at);
            true
        }
    }

    #[test]
    fn pending_rows_match_their_vec_form_past_the_inline_slots() {
        let mut arena = Overflow::default();
        let mut rows: Vec<(Deps, VecDeps)> = (0..4)
            .map(|_| (Deps::default(), VecDeps::default()))
            .collect();
        let mut rng = ddsc_util::Pcg32::new(61);
        let mut longest = 0;
        for step in 0..20_000 {
            let (row, model) = &mut rows[rng.next_u32() as usize % 4];
            let p = rng.next_u32() % 24;
            match rng.next_u32() % 16 {
                0..=7 => {
                    let c = if rng.chance(3, 4) {
                        NOT_DONE
                    } else {
                        rng.next_u32() % 100
                    };
                    row.add(p, c, &mut arena);
                    model.add(p, c);
                }
                8..=14 => {
                    let at = rng.next_u32() % 100;
                    let resolved = row.resolve(p, at, &mut arena);
                    assert_eq!(resolved, model.resolve(p, at), "step {step}");
                }
                // The instruction issues: its row dies, a new one comes.
                _ => {
                    row.pending.release(&mut arena);
                    (*row, *model) = (Deps::default(), VecDeps::default());
                }
            }
            let want: Vec<u32> = model.inline.iter().chain(&model.spill).copied().collect();
            assert_eq!(row.pending.slice(&arena), want.as_slice(), "step {step}");
            assert_eq!(row.ready, model.ready, "step {step}");
            longest = longest.max(row.pending.len());
        }
        assert!(longest > DEPS_INLINE + 4, "rows peaked at {longest}");
    }

    /// [`add_candidate`] as it was over a heap row.
    fn add_candidate_vec(row: &mut Vec<(u32, SlotSet)>, p: u32, slots: SlotSet, times: u16) {
        let at = row.partition_point(|&(q, _)| q > p);
        match row.get_mut(at) {
            Some((q, existing)) if *q == p => existing.add_times(slots, times),
            _ => {
                let mut set = SlotSet::default();
                set.add_times(slots, times);
                row.insert(at, (p, set));
            }
        }
    }

    #[test]
    fn candidate_rows_match_their_vec_form_past_the_inline_slots() {
        use ddsc_collapse::AbsorbSlot;
        let mut arena = Overflow::default();
        let mut rows: Vec<(Cands, Vec<(u32, SlotSet)>)> =
            (0..4).map(|_| (Cands::default(), Vec::new())).collect();
        let mut rng = ddsc_util::Pcg32::new(67);
        let mut longest = 0;
        for step in 0..20_000 {
            let a = rng.next_u32() as usize % 4;
            match rng.next_u32() % 16 {
                0..=7 => {
                    let kind = [AbsorbSlot::Counted, AbsorbSlot::ZeroReg, AbsorbSlot::Icc];
                    let slots = SlotSet::of(&[kind[rng.next_u32() as usize % 3]]);
                    let (p, times) = (rng.next_u32() % 24, (rng.next_u32() % 2 + 1) as u16);
                    add_candidate(&mut rows[a].0, p, slots, times, &mut arena);
                    add_candidate_vec(&mut rows[a].1, p, slots, times);
                }
                // An absorb: the consumer inherits the producer's row.
                8 => {
                    let b = rng.next_u32() as usize % 4;
                    if a != b {
                        let src = rows[b].0;
                        for k in 0..src.len() {
                            let (q, s) = src.slice(&arena)[k];
                            add_candidate(&mut rows[a].0, q, s, 1, &mut arena);
                        }
                        for (q, s) in rows[b].1.clone() {
                            add_candidate_vec(&mut rows[a].1, q, s, 1);
                        }
                    }
                }
                9..=13 => {
                    let (row, model) = &mut rows[a];
                    if row.len() > 0 {
                        let k = rng.next_u32() as usize % row.len();
                        assert_eq!(row.slice(&arena)[k], model.remove(k), "step {step}");
                        row.remove(k, &mut arena);
                    }
                }
                _ => {
                    rows[a].0.release(&mut arena);
                    rows[a] = (Cands::default(), Vec::new());
                }
            }
            let (row, model) = &rows[a];
            assert_eq!(row.slice(&arena), model.as_slice(), "step {step}");
            longest = longest.max(row.len());
        }
        assert!(longest > CANDS_INLINE + 4, "rows peaked at {longest}");
    }

    /// A seeded trace built for collapse inheritance: dense dataflow over
    /// six registers, adds whose operands are often zero (so four-member
    /// groups form and absorb their producers' rows), divides that keep
    /// producers in flight, random branches and aliasing memory.
    fn inheritance_heavy_trace(len: u32, seed: u64) -> Trace {
        let mut rng = ddsc_util::Pcg32::new(seed);
        let mut reg = move || r((rng.next_u32() % 6 + 1) as u8);
        let mut pick = ddsc_util::Pcg32::new(seed ^ 0x5eed);
        let mut t = Trace::new("inheritance-heavy");
        for i in 0..len {
            let pc = 4 * i;
            let ea = (pick.next_u32() % 8) * 4 + 0x100;
            t.push(match pick.next_u32() % 16 {
                0 => TraceInst::alu(pc, Opcode::Div, reg(), reg(), None, Some(3), 0),
                1 => TraceInst::cond_branch(
                    4 * (i % 64),
                    Opcode::Bcc(Cond::Ne),
                    pick.chance(1, 2),
                    0,
                ),
                2 => TraceInst::cmp(pc, reg(), None, Some(1), 0),
                3 => TraceInst::store(pc, Opcode::St, reg(), reg(), Some(reg()), None, 0, ea),
                4 => TraceInst::load(pc, Opcode::Ld, reg(), reg(), Some(reg()), None, 0, ea),
                _ => {
                    let zero_flags = (pick.next_u32() % 4) as u8;
                    TraceInst::alu(pc, Opcode::Add, reg(), reg(), Some(reg()), None, zero_flags)
                }
            });
        }
        t
    }

    #[test]
    fn rows_past_their_inline_capacity_match_the_reference() {
        let t = inheritance_heavy_trace(300, 9);
        let mut configs = Vec::new();
        for c in [PaperConfig::C, PaperConfig::D, PaperConfig::E] {
            let config = SimConfig::paper(c, 64);
            simulate(&t, &config);
            let (deps, cands) = SPILLED.get();
            assert!(
                deps > 0 && cands > 0,
                "{c:?}: spilled {deps} pending and {cands} candidate rows"
            );
            configs.push(config);
        }
        // Pairs only, triples, and the 3-1 device.
        for (members, ops) in [(2, 4), (3, 4), (4, 3)] {
            let mut c = SimConfig::paper(PaperConfig::C, 64);
            c.max_collapse_members = members;
            c.max_collapse_ops = ops;
            configs.push(c);
        }
        for config in &configs {
            let reference = crate::reference::simulate_reference(&t, config);
            assert_eq!(simulate(&t, config), reference, "divergence at {config:?}");
        }
    }

    #[test]
    fn speedups_are_monotone_across_configs_on_arithmetic_code() {
        // On a collapsible, predictable workload: A <= C <= E.
        let t = dependent_chain(2000);
        let a = simulate(&t, &SimConfig::paper(PaperConfig::A, 8));
        let c = simulate(&t, &SimConfig::paper(PaperConfig::C, 8));
        let e = simulate(&t, &SimConfig::paper(PaperConfig::E, 8));
        assert!(c.ipc() >= a.ipc());
        assert!(e.ipc() >= c.ipc() * 0.999);
    }
}
