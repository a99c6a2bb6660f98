//! Address predictors for load-speculation.
//!
//! The paper's mechanism ([`TwoDeltaStride`]) is the *two-delta strategy*
//! of Eickemeyer & Vassiliadis: each table entry tracks the last address
//! and two deltas, and the prediction stride is only replaced when the
//! same new delta is observed twice in a row. A 2-bit saturating
//! confidence counter (init 0, +1 correct, −2 wrong) gates the use of
//! predictions: a load speculates only when the counter value exceeds 1.
//!
//! [`LastAddr`], [`ContextAddr`] and [`HybridAddr`] are extension
//! predictors for the paper's future-work question ("mechanisms that
//! increase the address prediction rate", §6).

use crate::SatCounter;

/// The outcome of presenting one dynamic load to an address predictor.
///
/// `access` returns the prediction the table would have made *before*
/// folding the actual address into its state — the order the hardware
/// sees events in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AddrPrediction {
    /// The predicted effective address.
    pub predicted: u32,
    /// Whether confidence was high enough to speculate (counter > 1).
    pub confident: bool,
    /// Whether the predicted address equals the actual address.
    pub correct: bool,
}

/// An address predictor consulted and trained by every dynamic load.
///
/// All loads update the table; whether a load *uses* the prediction is
/// the simulator's decision (ready loads never do).
pub trait AddressPredictor {
    /// Presents a dynamic load (instruction address `pc`, actual
    /// effective address `actual`); returns the pre-update prediction.
    fn access(&mut self, pc: u32, actual: u32) -> AddrPrediction;

    /// Resets all table state.
    fn reset(&mut self);
}

#[derive(Debug, Clone, Copy)]
struct StrideEntry {
    last_addr: u32,
    /// The confirmed (prediction) stride.
    stride: i32,
    /// The most recently observed delta.
    last_delta: i32,
    conf: SatCounter,
}

impl Default for StrideEntry {
    fn default() -> Self {
        StrideEntry {
            last_addr: 0,
            stride: 0,
            last_delta: 0,
            conf: SatCounter::confidence(),
        }
    }
}

/// The paper's stride-based address predictor: direct-mapped, indexed by
/// the load's instruction address, two-delta stride update, 2-bit
/// confidence.
#[derive(Debug, Clone)]
pub struct TwoDeltaStride {
    entries: Vec<StrideEntry>,
    index_bits: u32,
    counter_template: SatCounter,
}

impl TwoDeltaStride {
    /// Creates a table with `2^index_bits` entries.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or greater than 24.
    pub fn new(index_bits: u32) -> Self {
        Self::with_confidence(index_bits, SatCounter::confidence())
    }

    /// Creates a table whose per-entry confidence counters are clones of
    /// `counter` — the §3 "possible variations" knob (threshold, penalty
    /// and counter width ablations).
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or greater than 24.
    pub fn with_confidence(index_bits: u32, counter: SatCounter) -> Self {
        assert!((1..=24).contains(&index_bits), "unreasonable table size");
        let entry = StrideEntry {
            conf: counter,
            ..StrideEntry::default()
        };
        TwoDeltaStride {
            entries: vec![entry; 1 << index_bits],
            index_bits,
            counter_template: counter,
        }
    }

    /// The paper's 4096-entry direct-mapped table ("the 14 least
    /// significant bits of a load instruction address is the index" —
    /// word-aligned PCs make that 12 significant bits).
    pub fn paper_default() -> Self {
        TwoDeltaStride::new(12)
    }

    /// Number of table entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no entries (never true in practice).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn index(&self, pc: u32) -> usize {
        ((pc >> 2) & ((1 << self.index_bits) - 1)) as usize
    }
}

impl AddressPredictor for TwoDeltaStride {
    fn access(&mut self, pc: u32, actual: u32) -> AddrPrediction {
        let idx = self.index(pc);
        let e = &mut self.entries[idx];

        let predicted = e.last_addr.wrapping_add(e.stride as u32);
        let correct = predicted == actual;
        let confident = e.conf.is_confident();

        // Confidence trains on every access ("all loads update the table
        // state").
        e.conf.train(correct);

        // Two-delta stride update: adopt a new stride only when the same
        // delta repeats.
        let delta = actual.wrapping_sub(e.last_addr) as i32;
        if delta == e.last_delta {
            e.stride = delta;
        }
        e.last_delta = delta;
        e.last_addr = actual;

        AddrPrediction {
            predicted,
            confident,
            correct,
        }
    }

    fn reset(&mut self) {
        self.entries.fill(StrideEntry {
            conf: self.counter_template,
            ..StrideEntry::default()
        });
    }
}

/// Extension: a last-address predictor (stride fixed at zero).
///
/// Captures loads that repeatedly access the same location (globals,
/// re-walked list heads) that the stride predictor also captures, but
/// with faster recovery; mostly a baseline for the hybrid.
#[derive(Debug, Clone)]
pub struct LastAddr {
    entries: Vec<(u32, SatCounter)>,
    index_bits: u32,
}

impl LastAddr {
    /// Creates a table with `2^index_bits` entries.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or greater than 24.
    pub fn new(index_bits: u32) -> Self {
        assert!((1..=24).contains(&index_bits), "unreasonable table size");
        LastAddr {
            entries: vec![(0, SatCounter::confidence()); 1 << index_bits],
            index_bits,
        }
    }

    fn index(&self, pc: u32) -> usize {
        ((pc >> 2) & ((1 << self.index_bits) - 1)) as usize
    }
}

impl AddressPredictor for LastAddr {
    fn access(&mut self, pc: u32, actual: u32) -> AddrPrediction {
        let idx = self.index(pc);
        let (last, conf) = &mut self.entries[idx];
        let predicted = *last;
        let correct = predicted == actual;
        let confident = conf.is_confident();
        conf.train(correct);
        *last = actual;
        AddrPrediction {
            predicted,
            confident,
            correct,
        }
    }

    fn reset(&mut self) {
        self.entries.fill((0, SatCounter::confidence()));
    }
}

/// Extension: a finite-context address predictor.
///
/// Hashes the last two observed deltas of each static load and predicts
/// the delta that followed that context before. Where a stride predictor
/// needs a *constant* stride, the context predictor can capture repeating
/// delta *sequences* — e.g. a pointer walk over a stable list layout,
/// which is exactly the access shape the paper identifies as the stride
/// predictor's blind spot for `go` and `li`.
#[derive(Debug, Clone)]
pub struct ContextAddr {
    entries: Vec<ContextEntry>,
    /// context hash -> predicted next delta, with its own confidence.
    context: Vec<(i32, SatCounter)>,
    index_bits: u32,
    context_bits: u32,
}

#[derive(Debug, Clone, Copy, Default)]
struct ContextEntry {
    last_addr: u32,
    d1: i32,
    d2: i32,
}

impl ContextAddr {
    /// Creates a predictor with `2^index_bits` per-load entries and a
    /// `2^context_bits` shared context table.
    ///
    /// # Panics
    ///
    /// Panics if either size parameter is 0 or greater than 24.
    pub fn new(index_bits: u32, context_bits: u32) -> Self {
        assert!((1..=24).contains(&index_bits), "unreasonable table size");
        assert!((1..=24).contains(&context_bits), "unreasonable table size");
        ContextAddr {
            entries: vec![ContextEntry::default(); 1 << index_bits],
            context: vec![(0, SatCounter::confidence()); 1 << context_bits],
            index_bits,
            context_bits,
        }
    }

    fn index(&self, pc: u32) -> usize {
        ((pc >> 2) & ((1 << self.index_bits) - 1)) as usize
    }

    fn context_index(&self, pc: u32, d1: i32, d2: i32) -> usize {
        let mut h = (pc >> 2) as u64;
        h = h
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(d1 as u32 as u64);
        h = h
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(d2 as u32 as u64);
        (h >> 16) as usize & ((1 << self.context_bits) - 1)
    }
}

impl AddressPredictor for ContextAddr {
    fn access(&mut self, pc: u32, actual: u32) -> AddrPrediction {
        let idx = self.index(pc);
        let entry = self.entries[idx];
        let cidx = self.context_index(pc, entry.d1, entry.d2);
        let (pred_delta, conf) = &mut self.context[cidx];
        let predicted = entry.last_addr.wrapping_add(*pred_delta as u32);
        let correct = predicted == actual;
        let confident = conf.is_confident();

        let actual_delta = actual.wrapping_sub(entry.last_addr) as i32;
        conf.train(correct);
        if !correct {
            *pred_delta = actual_delta;
        }

        let e = &mut self.entries[idx];
        e.d2 = e.d1;
        e.d1 = actual_delta;
        e.last_addr = actual;

        AddrPrediction {
            predicted,
            confident,
            correct,
        }
    }

    fn reset(&mut self) {
        self.entries.fill(ContextEntry::default());
        self.context.fill((0, SatCounter::confidence()));
    }
}

/// Extension: a stride/context hybrid with a per-load chooser, in the
/// spirit of McFarling's combining branch predictor.
#[derive(Debug, Clone)]
pub struct HybridAddr {
    stride: TwoDeltaStride,
    context: ContextAddr,
    chooser: Vec<SatCounter>,
    index_bits: u32,
}

impl HybridAddr {
    /// Creates a hybrid over the two component predictors.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or greater than 24.
    pub fn new(index_bits: u32, context_bits: u32) -> Self {
        HybridAddr {
            stride: TwoDeltaStride::new(index_bits),
            context: ContextAddr::new(index_bits, context_bits),
            chooser: vec![SatCounter::two_bit(1); 1 << index_bits],
            index_bits,
        }
    }

    fn index(&self, pc: u32) -> usize {
        ((pc >> 2) & ((1 << self.index_bits) - 1)) as usize
    }
}

impl AddressPredictor for HybridAddr {
    fn access(&mut self, pc: u32, actual: u32) -> AddrPrediction {
        let s = self.stride.access(pc, actual);
        let c = self.context.access(pc, actual);
        let idx = self.index(pc);
        // Chooser: confident means "use context".
        let use_context = self.chooser[idx].is_confident();
        if s.correct != c.correct {
            self.chooser[idx].train(c.correct);
        }
        if use_context {
            c
        } else {
            s
        }
    }

    fn reset(&mut self) {
        self.stride.reset();
        self.context.reset();
        self.chooser.fill(SatCounter::two_bit(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddsc_util::Pcg32;

    /// Feeds an address stream at a single PC; returns (confident-correct
    /// rate, confident-wrong rate) over the last half.
    fn rates<P: AddressPredictor>(pred: &mut P, addrs: &[u32]) -> (f64, f64) {
        let half = addrs.len() / 2;
        let mut used = 0u32;
        let mut used_ok = 0u32;
        let mut seen = 0u32;
        for (i, &a) in addrs.iter().enumerate() {
            let p = pred.access(0x1000, a);
            if i >= half {
                seen += 1;
                if p.confident {
                    used += 1;
                    if p.correct {
                        used_ok += 1;
                    }
                }
            }
        }
        (
            f64::from(used_ok) / f64::from(seen),
            f64::from(used - used_ok) / f64::from(seen),
        )
    }

    #[test]
    fn stride_captures_constant_stride() {
        let addrs: Vec<u32> = (0..64).map(|i| 0x8000 + 4 * i).collect();
        let (ok, bad) = rates(&mut TwoDeltaStride::paper_default(), &addrs);
        assert!(ok > 0.95, "constant stride should be predicted, got {ok}");
        assert!(bad < 0.05);
    }

    #[test]
    fn stride_captures_repeated_address() {
        let addrs = vec![0x1234_0000u32; 64];
        let (ok, _) = rates(&mut TwoDeltaStride::paper_default(), &addrs);
        assert!(ok > 0.95, "stride-0 stream, got {ok}");
    }

    #[test]
    fn two_delta_resists_single_transients() {
        // A stride-4 stream with a one-off transient: a single-delta
        // predictor would adopt the transient stride; two-delta must not.
        let mut pred = TwoDeltaStride::paper_default();
        let mut addr = 0x9000u32;
        for _ in 0..20 {
            pred.access(0x1000, addr);
            addr += 4;
        }
        // Transient jump, then back to the strided pattern.
        pred.access(0x1000, 0x20_0000);
        let p = pred.access(0x1000, 0x20_0000 + 4);
        // The stride table must still predict with the confirmed stride 4
        // from the new base, because two-delta kept stride = 4.
        assert_eq!(p.predicted, 0x20_0000 + 4);
    }

    #[test]
    fn stride_fails_on_random_pointers() {
        let mut rng = Pcg32::new(9);
        let addrs: Vec<u32> = (0..256).map(|_| rng.next_u32() & !3).collect();
        let (ok, bad) = rates(&mut TwoDeltaStride::paper_default(), &addrs);
        assert!(
            ok < 0.05,
            "random addresses must not be predicted, got {ok}"
        );
        // Confidence gating keeps wrong speculation rare — the paper's
        // observation that "the percentage of incorrect predictions is
        // very small".
        assert!(
            bad < 0.10,
            "confidence should suppress wrong use, got {bad}"
        );
    }

    #[test]
    fn context_captures_repeating_delta_sequence() {
        // Period-3 delta pattern: +8, +12, -20 — a stable pointer walk.
        let mut addrs = Vec::new();
        let mut a = 0x4000u32;
        for i in 0..300 {
            addrs.push(a);
            a = a.wrapping_add(match i % 3 {
                0 => 8,
                1 => 12,
                _ => 20u32.wrapping_neg(),
            });
        }
        let (stride_ok, _) = rates(&mut TwoDeltaStride::paper_default(), &addrs);
        let (ctx_ok, _) = rates(&mut ContextAddr::new(12, 14), &addrs);
        assert!(
            ctx_ok > 0.9,
            "context predictor should learn it, got {ctx_ok}"
        );
        assert!(
            ctx_ok > stride_ok + 0.3,
            "context ({ctx_ok}) must beat stride ({stride_ok}) here"
        );
    }

    #[test]
    fn hybrid_matches_best_component() {
        // Strided stream: hybrid must not lose to stride.
        let strided: Vec<u32> = (0..200).map(|i| 0x8000 + 8 * i).collect();
        let (h_ok, _) = rates(&mut HybridAddr::new(12, 14), &strided);
        assert!(h_ok > 0.9, "hybrid on strided stream, got {h_ok}");
    }

    #[test]
    fn last_addr_predicts_stationary_loads() {
        let addrs = vec![0xCAFE_0000u32; 32];
        let (ok, _) = rates(&mut LastAddr::new(12), &addrs);
        assert!(ok > 0.9);
    }

    #[test]
    fn reset_clears_state() {
        let mut pred = TwoDeltaStride::paper_default();
        for i in 0..32 {
            pred.access(0x1000, 0x8000 + 4 * i);
        }
        pred.reset();
        let p = pred.access(0x1000, 0x8000);
        assert!(!p.confident, "confidence must reset");
    }

    #[test]
    fn table_size_is_paper_spec() {
        assert_eq!(TwoDeltaStride::paper_default().len(), 4096);
    }

    #[test]
    fn distinct_pcs_use_distinct_entries() {
        let mut pred = TwoDeltaStride::paper_default();
        // Train pc A on stride 4.
        for i in 0..16 {
            pred.access(0x1000, 0x8000 + 4 * i);
        }
        // A different pc must start cold.
        let p = pred.access(0x2000, 0xF000);
        assert!(!p.confident);
    }

    #[test]
    #[should_panic(expected = "unreasonable")]
    fn zero_bits_rejected() {
        TwoDeltaStride::new(0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// After the warm-up accesses, a constant-stride stream is
            /// always predicted, whatever the base, stride and PC.
            #[test]
            fn any_constant_stride_is_learned(
                pc in any::<u32>(),
                base in any::<u32>(),
                stride in -4096i32..4096,
            ) {
                let mut t = TwoDeltaStride::paper_default();
                let mut addr = base;
                let mut last = AddrPrediction::default();
                for _ in 0..8 {
                    last = t.access(pc, addr);
                    addr = addr.wrapping_add(stride as u32);
                }
                prop_assert!(last.confident && last.correct,
                    "stride {stride} from {base:#x} not learned: {last:?}");
            }

            /// Confidence only ever arises after at least two correct
            /// predictions, for arbitrary address streams.
            #[test]
            fn confidence_requires_history(
                addrs in proptest::collection::vec(any::<u32>(), 1..64)
            ) {
                let mut t = TwoDeltaStride::paper_default();
                let mut corrects = 0u32;
                for &a in &addrs {
                    let p = t.access(0x4000, a);
                    if p.confident {
                        prop_assert!(corrects >= 2, "confident after {corrects} corrects");
                    }
                    if p.correct {
                        corrects += 1;
                    }
                }
            }

            /// All predictors are total over arbitrary inputs.
            #[test]
            fn predictors_are_total(
                events in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..128)
            ) {
                let mut preds: Vec<Box<dyn AddressPredictor>> = vec![
                    Box::new(TwoDeltaStride::new(8)),
                    Box::new(LastAddr::new(8)),
                    Box::new(ContextAddr::new(8, 10)),
                    Box::new(HybridAddr::new(8, 10)),
                ];
                for &(pc, addr) in &events {
                    for p in preds.iter_mut() {
                        let r = p.access(pc, addr);
                        // A correct confident prediction must actually match.
                        if r.confident && r.correct {
                            prop_assert_eq!(r.predicted, addr);
                        }
                    }
                }
            }
        }
    }
}
