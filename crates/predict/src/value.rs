//! Value predictors — d-speculation on *data* values.
//!
//! §1 of the paper describes the second form of data dependence
//! speculation: "predict data values such as those loaded from memory
//! (in Figure 1.d ...) and in general the data result of any
//! instruction", citing Lipasti, Wilkerson & Shen's value-locality work.
//! The paper evaluates only address speculation; these predictors power
//! the repository's value-speculation extension experiment.
//!
//! Two classic mechanisms are provided, both confidence-gated with the
//! same 2-bit counter discipline as the address table:
//!
//! * [`LastValue`] — Lipasti-style LVP: predict the value the
//!   instruction produced last time (captures invariant loads);
//! * [`TwoDeltaValue`] — the two-delta strategy applied to result
//!   values (captures counters and induction variables as well as
//!   invariants, since a constant is a stride of zero).

use crate::addr::AddrPrediction;
use crate::SatCounter;

/// The outcome of presenting one dynamic result to a value predictor —
/// structurally identical to an address prediction (a predicted 32-bit
/// quantity, a confidence gate and a correctness bit).
pub type ValuePrediction = AddrPrediction;

/// A value predictor consulted and trained by every dynamic instance of
/// a predicted instruction (loads, in the extension experiments).
pub trait ValuePredictor {
    /// Presents a dynamic instance (instruction address `pc`, actual
    /// result `actual`); returns the pre-update prediction.
    fn access(&mut self, pc: u32, actual: u32) -> ValuePrediction;

    /// Resets all table state.
    fn reset(&mut self);
}

/// Lipasti-style last-value prediction with 2-bit confidence.
#[derive(Debug, Clone)]
pub struct LastValue {
    entries: Vec<(u32, SatCounter)>,
    index_bits: u32,
}

impl LastValue {
    /// Creates a table with `2^index_bits` entries.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or greater than 24.
    pub fn new(index_bits: u32) -> Self {
        assert!((1..=24).contains(&index_bits), "unreasonable table size");
        LastValue {
            entries: vec![(0, SatCounter::confidence()); 1 << index_bits],
            index_bits,
        }
    }

    fn index(&self, pc: u32) -> usize {
        ((pc >> 2) & ((1 << self.index_bits) - 1)) as usize
    }
}

impl ValuePredictor for LastValue {
    fn access(&mut self, pc: u32, actual: u32) -> ValuePrediction {
        let idx = self.index(pc);
        let (last, conf) = &mut self.entries[idx];
        let predicted = *last;
        let correct = predicted == actual;
        let confident = conf.is_confident();
        conf.train(correct);
        *last = actual;
        ValuePrediction {
            predicted,
            confident,
            correct,
        }
    }

    fn reset(&mut self) {
        self.entries.fill((0, SatCounter::confidence()));
    }
}

#[derive(Debug, Clone, Copy)]
struct ValueEntry {
    last: u32,
    stride: i32,
    last_delta: i32,
    conf: SatCounter,
}

impl Default for ValueEntry {
    fn default() -> Self {
        ValueEntry {
            last: 0,
            stride: 0,
            last_delta: 0,
            conf: SatCounter::confidence(),
        }
    }
}

/// The two-delta strategy applied to result values: adopt a new value
/// stride only when the same delta repeats. A zero stride degenerates to
/// last-value prediction, so this strictly generalises [`LastValue`].
#[derive(Debug, Clone)]
pub struct TwoDeltaValue {
    entries: Vec<ValueEntry>,
    index_bits: u32,
}

impl TwoDeltaValue {
    /// Creates a table with `2^index_bits` entries.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or greater than 24.
    pub fn new(index_bits: u32) -> Self {
        assert!((1..=24).contains(&index_bits), "unreasonable table size");
        TwoDeltaValue {
            entries: vec![ValueEntry::default(); 1 << index_bits],
            index_bits,
        }
    }

    /// The extension experiments' default: 4096 entries, matching the
    /// paper's address table budget.
    pub fn paper_sized() -> Self {
        TwoDeltaValue::new(12)
    }

    fn index(&self, pc: u32) -> usize {
        ((pc >> 2) & ((1 << self.index_bits) - 1)) as usize
    }
}

impl ValuePredictor for TwoDeltaValue {
    fn access(&mut self, pc: u32, actual: u32) -> ValuePrediction {
        let idx = self.index(pc);
        let e = &mut self.entries[idx];
        let predicted = e.last.wrapping_add(e.stride as u32);
        let correct = predicted == actual;
        let confident = e.conf.is_confident();
        e.conf.train(correct);
        let delta = actual.wrapping_sub(e.last) as i32;
        if delta == e.last_delta {
            e.stride = delta;
        }
        e.last_delta = delta;
        e.last = actual;
        ValuePrediction {
            predicted,
            confident,
            correct,
        }
    }

    fn reset(&mut self) {
        self.entries.fill(ValueEntry::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddsc_util::Pcg32;

    fn confident_correct_rate<P: ValuePredictor>(pred: &mut P, values: &[u32]) -> f64 {
        let half = values.len() / 2;
        let mut hits = 0u32;
        for (i, &v) in values.iter().enumerate() {
            let p = pred.access(0x2000, v);
            if i >= half && p.confident && p.correct {
                hits += 1;
            }
        }
        f64::from(hits) / (values.len() - half) as f64
    }

    #[test]
    fn last_value_captures_invariant_loads() {
        let values = vec![0xABCD_0123u32; 64];
        let rate = confident_correct_rate(&mut LastValue::new(12), &values);
        assert!(rate > 0.95, "invariant stream, got {rate}");
    }

    #[test]
    fn two_delta_value_captures_counters() {
        let values: Vec<u32> = (0..64).map(|i| 100 + 3 * i).collect();
        let lv = confident_correct_rate(&mut LastValue::new(12), &values);
        let td = confident_correct_rate(&mut TwoDeltaValue::paper_sized(), &values);
        assert!(td > 0.95, "counter stream, got {td}");
        assert!(lv < 0.05, "last-value cannot predict a counter, got {lv}");
    }

    #[test]
    fn two_delta_value_subsumes_last_value_on_invariants() {
        let values = vec![7u32; 64];
        let rate = confident_correct_rate(&mut TwoDeltaValue::paper_sized(), &values);
        assert!(rate > 0.95, "stride-0 is last-value, got {rate}");
    }

    #[test]
    fn random_values_are_not_predicted() {
        let mut rng = Pcg32::new(5);
        let values: Vec<u32> = (0..256).map(|_| rng.next_u32()).collect();
        for rate in [
            confident_correct_rate(&mut LastValue::new(12), &values),
            confident_correct_rate(&mut TwoDeltaValue::paper_sized(), &values),
        ] {
            assert!(rate < 0.05, "random stream predicted at {rate}");
        }
    }

    #[test]
    fn reset_clears_confidence() {
        let mut p = TwoDeltaValue::paper_sized();
        for _ in 0..8 {
            p.access(0x2000, 42);
        }
        p.reset();
        assert!(!p.access(0x2000, 42).confident);
    }

    #[test]
    #[should_panic(expected = "unreasonable")]
    fn zero_bits_rejected() {
        LastValue::new(0);
    }
}
