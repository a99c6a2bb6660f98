//! A compact integer histogram used for collapse-distance distributions
//! (Figure 10) and other per-event distributions.

use std::fmt;

use crate::codec::{Reader, WireError};

/// A histogram over `u64` sample values with unit-width buckets up to a
/// cap; samples at or above the cap land in a single overflow bucket.
///
/// # Examples
///
/// ```
/// use ddsc_util::Histogram;
///
/// let mut h = Histogram::new(8);
/// h.record(1);
/// h.record(1);
/// h.record(200); // overflow bucket
/// assert_eq!(h.count(1), 2);
/// assert_eq!(h.overflow(), 1);
/// assert_eq!(h.total(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    overflow: u64,
    total: u64,
    sum: u128,
}

impl Histogram {
    /// Creates a histogram with unit buckets for values `0..cap`.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "histogram needs at least one bucket");
        Histogram {
            buckets: vec![0; cap],
            overflow: 0,
            total: 0,
            sum: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` samples of the same value.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if (value as usize) < self.buckets.len() {
            self.buckets[value as usize] += n;
        } else {
            self.overflow += n;
        }
        self.total += n;
        self.sum += u128::from(value) * u128::from(n);
    }

    /// Count in the unit bucket for `value`; 0 if `value >= cap`.
    pub fn count(&self, value: u64) -> u64 {
        self.buckets.get(value as usize).copied().unwrap_or(0)
    }

    /// Count of samples at or above the cap.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total number of recorded samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean of all recorded samples, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.total == 0 {
            None
        } else {
            Some(self.sum as f64 / self.total as f64)
        }
    }

    /// Fraction (0..=1) of samples strictly below `value`.
    pub fn fraction_below(&self, value: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let below: u64 = self
            .buckets
            .iter()
            .take(value.min(self.buckets.len() as u64) as usize)
            .sum();
        below as f64 / self.total as f64
    }

    /// Iterates over `(value, count)` pairs for the unit buckets.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets.iter().enumerate().map(|(i, &c)| (i as u64, c))
    }

    /// Appends the binary encoding to `out`: cap, unit buckets,
    /// overflow, total and sum, all little-endian. The inverse of
    /// [`Histogram::decode_from`]; used by the per-cell result store so a
    /// resumed run can reload finished cells without re-simulating.
    pub fn encode_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.buckets.len() as u32).to_le_bytes());
        for &b in &self.buckets {
            out.extend_from_slice(&b.to_le_bytes());
        }
        out.extend_from_slice(&self.overflow.to_le_bytes());
        out.extend_from_slice(&self.total.to_le_bytes());
        out.extend_from_slice(&self.sum.to_le_bytes());
    }

    /// Decodes a histogram written by [`Histogram::encode_to`].
    ///
    /// # Errors
    ///
    /// Truncation, or a zero or absurd cap as [`WireError::BadLength`] —
    /// callers treat either as a corrupt store entry, never a panic.
    pub fn decode_from(r: &mut Reader<'_>) -> Result<Histogram, WireError> {
        let cap = r.u32()?;
        if cap == 0 || cap > (1 << 20) {
            return Err(WireError::BadLength(cap));
        }
        let mut buckets = Vec::with_capacity(r.capacity_for(cap as usize, 8));
        for _ in 0..cap {
            buckets.push(r.u64()?);
        }
        Ok(Histogram {
            buckets,
            overflow: r.u64()?,
            total: r.u64()?,
            sum: r.u128()?,
        })
    }

    /// Merges another histogram into this one.
    ///
    /// # Panics
    ///
    /// Panics if the bucket caps differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.buckets.len(),
            other.buckets.len(),
            "cannot merge histograms with different caps"
        );
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.total += other.total;
        self.sum += other.sum;
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "histogram ({} samples)", self.total)?;
        for (v, c) in self.iter() {
            if c > 0 {
                writeln!(f, "  {v:>4}: {c}")?;
            }
        }
        if self.overflow > 0 {
            writeln!(f, "  >={}: {}", self.buckets.len(), self.overflow)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn record_and_query() {
        let mut h = Histogram::new(4);
        h.record(0);
        h.record(3);
        h.record(3);
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(3), 2);
        assert_eq!(h.count(2), 0);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn overflow_bucket_collects_large_values() {
        let mut h = Histogram::new(2);
        h.record(2);
        h.record(1000);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new(16);
        h.record(2);
        h.record(4);
        assert_eq!(h.mean(), Some(3.0));
        assert_eq!(Histogram::new(4).mean(), None);
    }

    #[test]
    fn fraction_below_counts_unit_buckets() {
        let mut h = Histogram::new(8);
        h.record(1);
        h.record(2);
        h.record(7);
        h.record(100); // overflow: never "below"
        assert_eq!(h.fraction_below(3), 0.5);
        assert_eq!(h.fraction_below(8), 0.75);
        assert_eq!(h.fraction_below(1000), 0.75);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new(4);
        a.record(1);
        let mut b = Histogram::new(4);
        b.record(1);
        b.record(9);
        a.merge(&b);
        assert_eq!(a.count(1), 2);
        assert_eq!(a.overflow(), 1);
        assert_eq!(a.total(), 3);
    }

    #[test]
    #[should_panic(expected = "different caps")]
    fn merge_rejects_mismatched_caps() {
        Histogram::new(4).merge(&Histogram::new(8));
    }

    #[test]
    fn codec_round_trips_and_rejects_truncation() {
        let mut h = Histogram::new(6);
        h.record(0);
        h.record_n(5, 3);
        h.record(999);
        let mut bytes = Vec::new();
        h.encode_to(&mut bytes);
        let mut r = Reader::new(&bytes);
        assert_eq!(Histogram::decode_from(&mut r).unwrap(), h);
        r.finish().unwrap();
        for keep in [0, 3, bytes.len() - 1] {
            assert!(
                Histogram::decode_from(&mut Reader::new(&bytes[..keep])).is_err(),
                "keep={keep}"
            );
        }
        // A zero cap can never have been encoded by a real histogram.
        assert!(Histogram::decode_from(&mut Reader::new(&[0u8; 44])).is_err());
    }

    proptest! {
        /// Total always equals the sum of buckets plus overflow.
        #[test]
        fn totals_are_consistent(samples in proptest::collection::vec(0u64..64, 0..256)) {
            let mut h = Histogram::new(32);
            for &s in &samples {
                h.record(s);
            }
            let bucket_sum: u64 = h.iter().map(|(_, c)| c).sum();
            prop_assert_eq!(bucket_sum + h.overflow(), h.total());
            prop_assert_eq!(h.total(), samples.len() as u64);
        }

        /// fraction_below is monotonically non-decreasing.
        #[test]
        fn fraction_below_is_monotone(samples in proptest::collection::vec(0u64..40, 1..128)) {
            let mut h = Histogram::new(32);
            for &s in &samples {
                h.record(s);
            }
            let mut prev = 0.0;
            for v in 0..48 {
                let f = h.fraction_below(v);
                prop_assert!(f >= prev);
                prev = f;
            }
        }
    }
}
