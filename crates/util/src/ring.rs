//! Bounded-window ring storage addressed by absolute sequence index.
//!
//! The streaming simulator walks a conceptually unbounded instruction
//! sequence but only ever touches a sliding window of it: columns below
//! the retirement watermark are dead, columns above the fetch point do
//! not exist yet. [`RingVec`] and [`RingBitSet`] store exactly that
//! window — elements keep their *absolute* index (so dependence edges
//! and completion lookups need no translation), while the backing
//! buffer stays proportional to the live span, growing by doubling only
//! when the span itself grows.
//!
//! Eviction is explicit ([`RingVec::evict_to`]): the owner advances the
//! base when the simulator's watermark proves everything below it can
//! never be read again. Reads below the base return `None`, so callers
//! can give evicted positions a semantic default ("completed long ago")
//! instead of resurrecting stale data.
//!
//! # Examples
//!
//! ```
//! use ddsc_util::RingVec;
//!
//! let mut r = RingVec::with_capacity(0u32, 16);
//! for v in 0..10_000 {
//!     r.push(v);
//!     if v >= 10 {
//!         r.evict_to(v as usize - 10); // keep an 11-element window live
//!     }
//! }
//! assert_eq!(r.get(9_995), Some(&9_995));
//! assert_eq!(r.get(10), None, "evicted");
//! assert!(r.capacity() < 100, "storage tracks the live span");
//! ```

/// A growable ring buffer addressed by absolute sequence index.
///
/// Live indices form the contiguous range `[base, end)`; `push` appends
/// at `end`, `evict_to` advances `base`. Capacity is a power of two and
/// doubles when the live span outgrows it. Elements are `Copy` (no drop
/// glue), and the hot accessors are forced inline with the rare `grow`
/// kept out of line: an access costs one capacity or range check.
#[derive(Debug, Clone)]
pub struct RingVec<T> {
    buf: Vec<T>,
    /// `capacity - 1`; capacity is a power of two.
    mask: usize,
    base: usize,
    end: usize,
}

impl<T: Copy> RingVec<T> {
    /// An empty ring; `fill` initialises backing storage (its value is
    /// never observable through the API).
    pub fn new(fill: T) -> Self {
        RingVec::with_capacity(fill, 64)
    }

    /// An empty ring pre-sized for a live span of at least `cap`.
    pub fn with_capacity(fill: T, cap: usize) -> Self {
        let cap = cap.next_power_of_two().max(16);
        RingVec {
            buf: vec![fill; cap],
            mask: cap - 1,
            base: 0,
            end: 0,
        }
    }

    /// First live index.
    pub fn base(&self) -> usize {
        self.base
    }

    /// One past the last live index (the index the next `push` gets).
    pub fn end(&self) -> usize {
        self.end
    }

    /// Number of live elements.
    pub fn len(&self) -> usize {
        self.end - self.base
    }

    /// Whether no elements are live.
    pub fn is_empty(&self) -> bool {
        self.base == self.end
    }

    /// Current backing capacity (diagnostics; a power of two).
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Appends a value at index `end`, returning that index.
    #[inline(always)]
    pub fn push(&mut self, v: T) -> usize {
        if self.end - self.base == self.buf.len() {
            self.grow();
        }
        let i = self.end;
        self.buf[i & self.mask] = v;
        self.end += 1;
        i
    }

    /// The element at absolute index `i`, or `None` if it was evicted.
    ///
    /// # Panics
    ///
    /// Panics if `i >= end` — reading ahead of the sequence is a logic
    /// error, unlike reading behind the window.
    #[inline(always)]
    pub fn get(&self, i: usize) -> Option<&T> {
        assert!(i < self.end, "index {i} ahead of ring end {}", self.end);
        (i >= self.base).then(|| &self.buf[i & self.mask])
    }

    /// Mutable access to the element at absolute index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the live range `[base, end)`.
    #[inline(always)]
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        assert!(
            i >= self.base && i < self.end,
            "index {i} outside live ring range {}..{}",
            self.base,
            self.end
        );
        &mut self.buf[i & self.mask]
    }

    /// Drops every element below `new_base` (clamped to `end`). Bases
    /// only move forward; an older `new_base` is a no-op.
    #[inline(always)]
    pub fn evict_to(&mut self, new_base: usize) {
        self.base = self.base.max(new_base.min(self.end));
    }

    #[cold]
    #[inline(never)]
    fn grow(&mut self) {
        let new_cap = self.buf.len() * 2;
        // Any element fills: a slot is written before it is read.
        let mut buf = vec![self.buf[0]; new_cap];
        for i in self.base..self.end {
            buf[i & (new_cap - 1)] = self.buf[i & self.mask];
        }
        self.buf = buf;
        self.mask = new_cap - 1;
    }
}

/// A bit set addressed by absolute sequence index over a sliding window.
///
/// Tracks two counts the simulator needs: `live` (bits currently set —
/// the ready-set population) and `lifetime` (every distinct index ever
/// set — the collapse-participant total, which must survive eviction).
#[derive(Debug, Clone)]
pub struct RingBitSet {
    words: Vec<u64>,
    /// `word capacity - 1`; capacity is a power of two.
    mask: usize,
    base: usize,
    end: usize,
    live: usize,
    lifetime: u64,
}

impl RingBitSet {
    /// An empty set pre-sized for a live span of at least `cap` bits.
    pub fn with_capacity(cap: usize) -> Self {
        let words = (cap / 64).next_power_of_two().max(4);
        RingBitSet {
            words: vec![0; words],
            mask: words - 1,
            base: 0,
            end: 0,
            live: 0,
            lifetime: 0,
        }
    }

    /// First index that may hold a live bit.
    pub fn base(&self) -> usize {
        self.base
    }

    /// One past the highest trackable index (grown by [`RingBitSet::grow_to`]).
    pub fn end(&self) -> usize {
        self.end
    }

    /// Bits currently set.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Distinct indices ever set, including evicted ones.
    pub fn lifetime_ones(&self) -> u64 {
        self.lifetime
    }

    /// Extends the trackable range to `[base, new_end)`, zeroing any
    /// newly entered words.
    pub fn grow_to(&mut self, new_end: usize) {
        if new_end <= self.end {
            return;
        }
        // Words needed for the new span; double until it fits.
        while new_end.div_ceil(64) - self.base / 64 > self.words.len() {
            self.grow();
        }
        // Zero each word the range newly enters (its physical slot may
        // hold stale bits from a previous trip around the ring).
        let mut w = self.end.div_ceil(64);
        // A partially filled tail word was already zeroed when entered.
        if !self.end.is_multiple_of(64) {
            debug_assert!(w > 0);
        }
        let last = new_end.div_ceil(64);
        while w < last {
            self.words[w & self.mask] = 0;
            w += 1;
        }
        self.end = new_end;
    }

    /// Sets bit `i`, updating the live and lifetime counts.
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside `[base, end)`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(
            i >= self.base && i < self.end,
            "bit {i} outside live ring range {}..{}",
            self.base,
            self.end
        );
        let w = &mut self.words[(i / 64) & self.mask];
        let m = 1u64 << (i % 64);
        if *w & m == 0 {
            *w |= m;
            self.live += 1;
            self.lifetime += 1;
        }
    }

    /// Clears bit `i` (no-op when already clear).
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside `[base, end)`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(
            i >= self.base && i < self.end,
            "bit {i} outside live ring range {}..{}",
            self.base,
            self.end
        );
        let w = &mut self.words[(i / 64) & self.mask];
        let m = 1u64 << (i % 64);
        if *w & m != 0 {
            *w &= !m;
            self.live -= 1;
        }
    }

    /// Reads bit `i`; evicted positions read as `false`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= end`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.end, "bit {i} ahead of ring end {}", self.end);
        i >= self.base && self.words[(i / 64) & self.mask] & (1 << (i % 64)) != 0
    }

    /// The lowest set bit at or above `from`, scanning with word skips.
    #[inline]
    pub fn next_set(&self, from: usize) -> Option<usize> {
        let mut i = from.max(self.base);
        if i >= self.end {
            return None;
        }
        // Partial first word: mask off bits below `i`.
        let mut w = self.words[(i / 64) & self.mask] & (!0u64 << (i % 64));
        loop {
            if w != 0 {
                let bit = (i / 64) * 64 + w.trailing_zeros() as usize;
                return (bit < self.end).then_some(bit);
            }
            i = (i / 64 + 1) * 64;
            if i >= self.end {
                return None;
            }
            w = self.words[(i / 64) & self.mask];
        }
    }

    /// Drains set bits in ascending order through `take`.
    ///
    /// For each set bit `i` (lowest first), `take(i)` decides its fate:
    /// `true` consumes the bit (it is cleared and the scan continues),
    /// `false` stops the drain immediately, leaving that bit and every
    /// later one set. This is the issue-selection primitive: the caller
    /// stops when its issue width is exhausted, and the scan itself is
    /// word-at-a-time — one `trailing_zeros` per candidate, whole-word
    /// skips over empty regions, no per-bit range rechecks.
    pub fn drain_in_order(&mut self, mut take: impl FnMut(usize) -> bool) {
        if self.live == 0 {
            return;
        }
        let last = self.end.div_ceil(64);
        let mut wi = self.base / 64;
        // Mask off bits below the base in the first word; bits at or
        // above `end` are structurally clear (`grow_to` zeroes every
        // newly entered word), so no tail mask is needed.
        let mut low_mask = !0u64 << (self.base % 64);
        while wi < last {
            let slot = wi & self.mask;
            let mut w = self.words[slot] & low_mask;
            while w != 0 {
                let m = w & w.wrapping_neg();
                if !take(wi * 64 + w.trailing_zeros() as usize) {
                    return;
                }
                self.words[slot] &= !m;
                self.live -= 1;
                w &= !m;
            }
            if self.live == 0 {
                return;
            }
            low_mask = !0;
            wi += 1;
        }
    }

    /// Advances the base to `new_base` (clamped to `end`). Bits below
    /// that are forgotten; the lifetime count is retained. Any still-set
    /// bits below the new base leave the live count (they can no longer
    /// be observed).
    pub fn evict_to(&mut self, new_base: usize) {
        let new_base = new_base.min(self.end).max(self.base);
        // Walk the evicted range word-by-word so `live` stays exact even
        // when set bits are dropped (the collapse-participant ring evicts
        // set bits by design; the ready ring never does).
        let mut i = self.base;
        while i < new_base {
            let word_end = ((i / 64 + 1) * 64).min(new_base);
            let w = self.words[(i / 64) & self.mask];
            let lo = !0u64 << (i % 64);
            let hi = if word_end.is_multiple_of(64) {
                !0u64
            } else {
                (1u64 << (word_end % 64)) - 1
            };
            self.live -= (w & lo & hi).count_ones() as usize;
            i = word_end;
        }
        self.base = new_base;
    }

    fn grow(&mut self) {
        let new_cap = self.words.len() * 2;
        let mut words = vec![0u64; new_cap];
        let first = self.base / 64;
        let last = self.end.div_ceil(64);
        for w in first..last {
            words[w & (new_cap - 1)] = self.words[w & self.mask];
        }
        self.words = words;
        self.mask = new_cap - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_vec_pushes_and_reads_by_absolute_index() {
        let mut r = RingVec::with_capacity(0u32, 4);
        for v in 0..10u32 {
            assert_eq!(r.push(v), v as usize);
        }
        assert_eq!(r.len(), 10);
        for i in 0..10 {
            assert_eq!(r.get(i), Some(&(i as u32)));
        }
        *r.get_mut(7) = 99;
        assert_eq!(r.get(7), Some(&99));
    }

    #[test]
    fn ring_vec_eviction_frees_capacity_for_reuse() {
        let mut r = RingVec::with_capacity(0u32, 16);
        let cap = r.capacity();
        for v in 0..10_000u32 {
            r.push(v);
            if v >= 8 {
                r.evict_to(v as usize - 8);
            }
        }
        assert_eq!(r.capacity(), cap, "a bounded span never grows the ring");
        assert_eq!(r.get(9_999), Some(&9_999));
        assert_eq!(r.get(100), None, "evicted");
        assert_eq!(r.base(), 10_000 - 9);
    }

    #[test]
    fn ring_vec_growth_preserves_live_elements() {
        let mut r = RingVec::with_capacity(0u32, 16);
        for v in 0..5u32 {
            r.push(v);
        }
        r.evict_to(3);
        for v in 5..200u32 {
            r.push(v);
        }
        for i in 3..200 {
            assert_eq!(r.get(i), Some(&(i as u32)), "index {i}");
        }
    }

    #[test]
    fn ring_vec_backwards_evict_is_a_noop() {
        let mut r = RingVec::new(0u8);
        for _ in 0..10 {
            r.push(1);
        }
        r.evict_to(8);
        r.evict_to(2);
        assert_eq!(r.base(), 8);
        r.evict_to(100);
        assert_eq!(r.base(), 10, "evict clamps to end");
        assert!(r.is_empty());
    }

    #[test]
    #[should_panic(expected = "ahead of ring end")]
    fn ring_vec_read_ahead_panics() {
        RingVec::new(0u8).get(0);
    }

    #[test]
    #[should_panic(expected = "outside live ring range")]
    fn ring_vec_mut_below_base_panics() {
        let mut r = RingVec::new(0u8);
        r.push(1);
        r.push(2);
        r.evict_to(1);
        r.get_mut(0);
    }

    #[test]
    fn bitset_set_clear_and_counts() {
        let mut b = RingBitSet::with_capacity(64);
        b.grow_to(300);
        for i in [0, 63, 64, 200, 299] {
            b.set(i);
        }
        assert_eq!(b.live(), 5);
        assert_eq!(b.lifetime_ones(), 5);
        b.set(200); // idempotent
        assert_eq!(b.lifetime_ones(), 5);
        b.clear(63);
        assert_eq!(b.live(), 4);
        assert!(!b.get(63));
        assert!(b.get(299));
    }

    #[test]
    fn bitset_scan_finds_lowest_set_bit() {
        let mut b = RingBitSet::with_capacity(64);
        b.grow_to(1000);
        b.set(130);
        b.set(700);
        assert_eq!(b.next_set(0), Some(130));
        assert_eq!(b.next_set(131), Some(700));
        assert_eq!(b.next_set(701), None);
        b.clear(130);
        assert_eq!(b.next_set(0), Some(700));
    }

    #[test]
    fn bitset_eviction_keeps_lifetime_and_reuses_words() {
        let mut b = RingBitSet::with_capacity(128);
        let mut expected_lifetime = 0u64;
        for i in 0..50_000usize {
            b.grow_to(i + 1);
            if i % 3 == 0 {
                b.set(i);
                expected_lifetime += 1;
            }
            if i >= 100 {
                b.evict_to(i - 100);
            }
        }
        assert_eq!(b.lifetime_ones(), expected_lifetime);
        // Live only counts the window's set bits now.
        assert!(b.live() <= 101);
        // A bit set after a full trip round the ring reads back cleanly.
        assert!(b.get(49_999) == (49_999 % 3 == 0));
        assert_eq!(b.next_set(0), b.next_set(b.base()));
    }

    #[test]
    fn bitset_growth_preserves_bits() {
        let mut b = RingBitSet::with_capacity(64);
        b.grow_to(100);
        b.set(5);
        b.set(99);
        b.grow_to(100_000);
        b.set(99_999);
        assert!(b.get(5) && b.get(99) && b.get(99_999));
        assert_eq!(b.live(), 3);
    }

    #[test]
    fn drain_in_order_visits_ascending_and_clears_consumed_bits() {
        let mut b = RingBitSet::with_capacity(64);
        b.grow_to(500);
        for i in [3, 64, 65, 130, 300, 499] {
            b.set(i);
        }
        let mut seen = Vec::new();
        b.drain_in_order(|i| {
            seen.push(i);
            true
        });
        assert_eq!(seen, vec![3, 64, 65, 130, 300, 499]);
        assert_eq!(b.live(), 0);
        assert_eq!(b.next_set(0), None);
    }

    #[test]
    fn drain_in_order_stop_leaves_the_rest_set() {
        let mut b = RingBitSet::with_capacity(64);
        b.grow_to(300);
        for i in [10, 70, 200, 290] {
            b.set(i);
        }
        let mut taken = Vec::new();
        b.drain_in_order(|i| {
            if taken.len() == 2 {
                return false;
            }
            taken.push(i);
            true
        });
        assert_eq!(taken, vec![10, 70]);
        assert_eq!(b.live(), 2, "the refused bit and its successors stay");
        assert!(b.get(200) && b.get(290));
        assert!(!b.get(10) && !b.get(70));
    }

    #[test]
    fn drain_in_order_respects_base_and_ring_wrap() {
        let mut b = RingBitSet::with_capacity(128);
        // Push the window far enough that physical words are reused.
        for i in 0..10_000usize {
            b.grow_to(i + 1);
            if i >= 200 {
                b.evict_to(i - 100);
            }
        }
        for i in [9_905, 9_960, 9_999] {
            b.set(i);
        }
        b.set(9_901);
        b.evict_to(9_903); // drops 9_901 below the base
        let mut seen = Vec::new();
        b.drain_in_order(|i| {
            seen.push(i);
            true
        });
        assert_eq!(seen, vec![9_905, 9_960, 9_999], "evicted bits not visited");
        assert_eq!(b.live(), 0);
    }

    #[test]
    fn drain_in_order_matches_next_set_scan_under_churn() {
        let mut a = RingBitSet::with_capacity(64);
        let mut b = RingBitSet::with_capacity(64);
        let mut rng = 0x2545_f491u64;
        let mut next = || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) as usize
        };
        for round in 0..200 {
            let end = (round + 1) * 97;
            a.grow_to(end);
            b.grow_to(end);
            for _ in 0..20 {
                let i = a.base() + next() % (end - a.base());
                a.set(i);
                b.set(i);
            }
            let budget = next() % 8;
            // Reference: next_set/clear loop.
            let mut want = Vec::new();
            let mut scan = a.base();
            while want.len() < budget {
                let Some(i) = a.next_set(scan) else { break };
                a.clear(i);
                scan = i + 1;
                want.push(i);
            }
            // Word drain with the same budget.
            let mut got = Vec::new();
            b.drain_in_order(|i| {
                if got.len() == budget {
                    return false;
                }
                got.push(i);
                true
            });
            assert_eq!(got, want, "round {round}");
            assert_eq!(a.live(), b.live(), "round {round}");
            let base = end.saturating_sub(64);
            a.evict_to(base);
            b.evict_to(base);
        }
    }

    #[test]
    fn bitset_scan_respects_base() {
        let mut b = RingBitSet::with_capacity(64);
        b.grow_to(200);
        b.set(10);
        b.set(150);
        b.evict_to(100);
        assert_eq!(b.next_set(0), Some(150), "evicted bits are not found");
        assert_eq!(b.live(), 1, "evicting a set bit drops it from live");
        assert_eq!(b.lifetime_ones(), 2);
    }
}
