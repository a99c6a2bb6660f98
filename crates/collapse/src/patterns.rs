//! Collapsed-sequence pattern frequency tables (Tables 5 and 6).

use std::collections::BTreeMap;
use std::fmt;

use ddsc_isa::{OpType, OperandKind, PatClass};
use ddsc_util::codec::{Reader, WireError};
use ddsc_util::stats::Percent;

use crate::expr::MAX_MEMBERS;

/// The op-type sequence of a collapsed group, oldest instruction first —
/// e.g. `arrr–brc` or `shri–arrr–ldrr`.
///
/// Packed into one `u32`, 7 bits per member with the oldest member in
/// the highest bits and 0 for an absent member. A
/// member's code is `1 + 16·class + 4·k0 + k1`, where an operand kind
/// `k` is 0 when absent and `1 +` its code otherwise. The codes follow
/// the declaration order of [`PatClass`] and [`OperandKind`], so integer
/// order is the lexicographic member order (absent first, then class,
/// then operand kinds) that [`PatternTable`] iterates, encodes and
/// renders in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PatternKey(u32);

/// Bits per packed member; the largest member code is
/// `1 + 16·6 + 4·3 + 3 = 112`.
const MEMBER_BITS: u32 = 7;

impl PatternKey {
    /// Builds a key from the member op-types in group order.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_MEMBERS`] types are supplied.
    pub fn new(types: &[OpType]) -> Self {
        assert!(types.len() <= MAX_MEMBERS, "group too large");
        let mut packed = 0u32;
        for (k, &t) in types.iter().enumerate() {
            packed |= member_code(t) << Self::shift(k);
        }
        PatternKey(packed)
    }

    /// Bit offset of member `k` (0 = oldest, in the highest bits).
    fn shift(k: usize) -> u32 {
        MEMBER_BITS * (MAX_MEMBERS - 1 - k) as u32
    }

    /// The packed codes of the present members, oldest first.
    fn codes(&self) -> impl Iterator<Item = u32> {
        let packed = self.0;
        (0..MAX_MEMBERS)
            .map(move |k| (packed >> Self::shift(k)) & ((1 << MEMBER_BITS) - 1))
            .take_while(|&code| code != 0)
    }

    /// Number of instructions in the pattern.
    pub fn len(&self) -> usize {
        self.codes().count()
    }

    /// Whether the key holds no members (never produced by collapsing).
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// The member op-types in order.
    pub fn types(&self) -> impl Iterator<Item = OpType> + '_ {
        self.codes().map(|code| {
            let v = code - 1;
            // Operand kinds fill a prefix, so an absent first kind means
            // an absent second one.
            let mut kinds = [OperandKind::Reg; 2];
            let mut n = 0;
            for k in [(v / 4) % 4, v % 4] {
                if k != 0 {
                    kinds[n] = OperandKind::ALL[k as usize - 1];
                    n += 1;
                }
            }
            OpType::new(PatClass::ALL[(v / 16) as usize], &kinds[..n])
        })
    }

    /// Appends the binary encoding to `out`: member count, then per
    /// member its class code and operand-kind codes. Part of the
    /// per-cell result codec the resumable-run store uses.
    pub fn encode_to(&self, out: &mut Vec<u8>) {
        out.push(self.len() as u8);
        for t in self.types() {
            out.push(t.class().code());
            out.push(t.kinds().count() as u8);
            out.extend(t.kinds().map(OperandKind::code));
        }
    }

    /// Decodes a key written by [`PatternKey::encode_to`].
    ///
    /// # Errors
    ///
    /// Truncation, an out-of-range member or operand count
    /// ([`WireError::BadLength`]), or an unknown class or operand-kind
    /// code ([`WireError::UnknownKind`]).
    pub fn decode_from(r: &mut Reader<'_>) -> Result<PatternKey, WireError> {
        let len = r.u8()?;
        if usize::from(len) > MAX_MEMBERS {
            return Err(WireError::BadLength(len.into()));
        }
        let mut types = Vec::with_capacity(usize::from(len));
        for _ in 0..len {
            let code = r.u8()?;
            let class = PatClass::from_code(code).ok_or(WireError::UnknownKind(code))?;
            let nkinds = r.u8()?;
            if nkinds > 2 {
                return Err(WireError::BadLength(nkinds.into()));
            }
            let mut kinds = Vec::with_capacity(usize::from(nkinds));
            for _ in 0..nkinds {
                let code = r.u8()?;
                kinds.push(OperandKind::from_code(code).ok_or(WireError::UnknownKind(code))?);
            }
            types.push(OpType::new(class, &kinds));
        }
        Ok(PatternKey::new(&types))
    }
}

/// A member's packed code (see [`PatternKey`]).
fn member_code(t: OpType) -> u32 {
    let mut kinds = t.kinds().map(|k| 1 + u32::from(k.code()));
    let k0 = kinds.next().unwrap_or(0);
    let k1 = kinds.next().unwrap_or(0);
    1 + 16 * u32::from(t.class().code()) + 4 * k0 + k1
}

impl fmt::Display for PatternKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, t) in self.types().enumerate() {
            if i > 0 {
                f.write_str("-")?;
            }
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

/// A frequency table of collapsed-group patterns.
///
/// # Examples
///
/// ```
/// use ddsc_collapse::{PatternKey, PatternTable};
/// use ddsc_isa::{OpType, OperandKind, PatClass};
///
/// let arrr = OpType::new(PatClass::Ar, &[OperandKind::Reg, OperandKind::Reg]);
/// let brc = OpType::new(PatClass::Brc, &[]);
/// let mut table = PatternTable::new();
/// table.record(PatternKey::new(&[arrr, brc]));
/// assert_eq!(table.total(), 1);
/// assert_eq!(table.top(1)[0].0.to_string(), "arrr-brc");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PatternTable {
    counts: BTreeMap<PatternKey, u64>,
    total: u64,
}

impl PatternTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        PatternTable::default()
    }

    /// Records one occurrence of a pattern.
    pub fn record(&mut self, key: PatternKey) {
        *self.counts.entry(key).or_insert(0) += 1;
        self.total += 1;
    }

    /// Total recorded groups.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct patterns.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// The count of one pattern.
    pub fn count(&self, key: &PatternKey) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// The share of one pattern among all recorded groups.
    pub fn share(&self, key: &PatternKey) -> Percent {
        Percent::new(self.count(key), self.total)
    }

    /// The `k` most frequent patterns, most frequent first (ties broken
    /// by key order for determinism).
    pub fn top(&self, k: usize) -> Vec<(PatternKey, u64)> {
        let mut all: Vec<(PatternKey, u64)> = self.counts.iter().map(|(k, &v)| (*k, v)).collect();
        all.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    /// Iterates over all `(pattern, count)` entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&PatternKey, &u64)> {
        self.counts.iter()
    }

    /// Merges another table into this one.
    pub fn merge(&mut self, other: &PatternTable) {
        for (k, v) in &other.counts {
            *self.counts.entry(*k).or_insert(0) += v;
        }
        self.total += other.total;
    }

    /// Appends the binary encoding to `out`: total, entry count, then
    /// each `(key, count)` in key order (deterministic — the map is a
    /// `BTreeMap`).
    pub fn encode_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.total.to_le_bytes());
        out.extend_from_slice(&(self.counts.len() as u32).to_le_bytes());
        for (k, &v) in &self.counts {
            k.encode_to(out);
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Decodes a table written by [`PatternTable::encode_to`].
    ///
    /// # Errors
    ///
    /// Truncation or a malformed key (see [`PatternKey::decode_from`]).
    pub fn decode_from(r: &mut Reader<'_>) -> Result<PatternTable, WireError> {
        let total = r.u64()?;
        let mut counts = BTreeMap::new();
        for _ in 0..r.u32()? {
            let key = PatternKey::decode_from(r)?;
            counts.insert(key, r.u64()?);
        }
        Ok(PatternTable { counts, total })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddsc_isa::{OperandKind, PatClass};

    fn t(class: PatClass, kinds: &[OperandKind]) -> OpType {
        OpType::new(class, kinds)
    }

    fn arrr() -> OpType {
        t(PatClass::Ar, &[OperandKind::Reg, OperandKind::Reg])
    }

    fn arri() -> OpType {
        t(PatClass::Ar, &[OperandKind::Reg, OperandKind::Imm])
    }

    fn brc() -> OpType {
        t(PatClass::Brc, &[])
    }

    #[test]
    fn display_joins_with_dashes() {
        let key = PatternKey::new(&[arri(), arri(), arri()]);
        assert_eq!(key.to_string(), "arri-arri-arri");
    }

    #[test]
    fn top_sorts_by_count_then_key() {
        let mut table = PatternTable::new();
        for _ in 0..5 {
            table.record(PatternKey::new(&[arrr(), brc()]));
        }
        for _ in 0..3 {
            table.record(PatternKey::new(&[arri(), brc()]));
        }
        table.record(PatternKey::new(&[arri(), arri()]));
        let top = table.top(2);
        assert_eq!(top[0].0.to_string(), "arrr-brc");
        assert_eq!(top[0].1, 5);
        assert_eq!(top[1].0.to_string(), "arri-brc");
        assert_eq!(table.total(), 9);
        assert_eq!(table.distinct(), 3);
    }

    #[test]
    fn share_is_fraction_of_total() {
        let mut table = PatternTable::new();
        table.record(PatternKey::new(&[arrr(), brc()]));
        table.record(PatternKey::new(&[arri(), brc()]));
        table.record(PatternKey::new(&[arri(), brc()]));
        let key = PatternKey::new(&[arri(), brc()]);
        assert!((table.share(&key).value() - 200.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = PatternTable::new();
        a.record(PatternKey::new(&[arrr(), brc()]));
        let mut b = PatternTable::new();
        b.record(PatternKey::new(&[arrr(), brc()]));
        b.record(PatternKey::new(&[arri(), brc()]));
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.count(&PatternKey::new(&[arrr(), brc()])), 2);
    }

    #[test]
    fn pattern_key_lengths() {
        assert_eq!(PatternKey::new(&[arrr(), brc()]).len(), 2);
        assert_eq!(PatternKey::new(&[arrr(), arri(), brc()]).len(), 3);
        assert!(PatternKey::new(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "group too large")]
    fn oversized_key_panics() {
        PatternKey::new(&[arrr(); 5]);
    }

    /// Every `OpType`: 7 classes × operand-kind lists of length 0–2.
    fn all_optypes() -> Vec<OpType> {
        let mut kind_lists: Vec<Vec<OperandKind>> = vec![vec![]];
        for a in OperandKind::ALL {
            kind_lists.push(vec![a]);
            for b in OperandKind::ALL {
                kind_lists.push(vec![a, b]);
            }
        }
        PatClass::ALL
            .iter()
            .flat_map(|&c| kind_lists.iter().map(move |k| t(c, k)))
            .collect()
    }

    /// All one- and two-member groups plus a seeded sample of three- and
    /// four-member ones.
    fn key_members() -> Vec<Vec<OpType>> {
        let all = all_optypes();
        let mut groups: Vec<Vec<OpType>> = all.iter().map(|&a| vec![a]).collect();
        for &a in &all {
            groups.extend(all.iter().map(|&b| vec![a, b]));
        }
        let mut rng = ddsc_util::rng::Pcg32::new(1996);
        for len in [3, 4] {
            for _ in 0..5_000 {
                let pick =
                    |rng: &mut ddsc_util::rng::Pcg32| all[rng.range(0, all.len() as u32) as usize];
                groups.push((0..len).map(|_| pick(&mut rng)).collect());
            }
        }
        groups
    }

    /// The order the key had as a derived `Ord` over
    /// `[Option<OpType>; MAX_MEMBERS]`: members compared in turn, an
    /// absent member first, each member by class then operand kinds
    /// (absent first), all in declaration order.
    fn derived_order_key(types: &[OpType]) -> [Option<OpType>; MAX_MEMBERS] {
        let mut arr = [None; MAX_MEMBERS];
        for (slot, &t) in arr.iter_mut().zip(types) {
            *slot = Some(t);
        }
        arr
    }

    #[test]
    fn packed_order_matches_the_derived_member_order() {
        let mut types = all_optypes();
        types.sort();
        types.dedup();
        assert_eq!(types.len(), 91, "every OpType, each once");
        let mut groups = key_members();
        groups.sort_by_key(|g| derived_order_key(g));
        groups.dedup();
        assert!(groups.len() > 91 * 92, "all one- and two-member keys");
        // Both orders are total, so agreeing on every adjacent pair of
        // the oracle-sorted list means agreeing on every pair.
        for pair in groups.windows(2) {
            let (a, b) = (PatternKey::new(&pair[0]), PatternKey::new(&pair[1]));
            assert!(a < b, "{a} should sort before {b}");
        }
        // A prefix sorts first, and a key equals only itself.
        let brc_only = PatternKey::new(&[brc()]);
        assert!(PatternKey::new(&[]) < brc_only);
        assert!(PatternKey::new(&[arrr()]) < PatternKey::new(&[arrr(), arrr()]));
        assert_eq!(PatternKey::new(&[brc()]), brc_only);
    }

    #[test]
    fn packed_keys_round_trip_through_the_codec() {
        for group in key_members() {
            let key = PatternKey::new(&group);
            assert_eq!(key.len(), group.len());
            assert_eq!(key.types().collect::<Vec<_>>(), group);
            let names: Vec<String> = group.iter().map(ToString::to_string).collect();
            assert_eq!(key.to_string(), names.join("-"));
            let mut bytes = Vec::new();
            key.encode_to(&mut bytes);
            // Member count, then class code, kind count and kind codes.
            let mut expected = vec![group.len() as u8];
            for t in &group {
                let kinds: Vec<u8> = t.kinds().map(OperandKind::code).collect();
                expected.extend([t.class().code(), kinds.len() as u8]);
                expected.extend(kinds);
            }
            assert_eq!(bytes, expected);
            let mut r = Reader::new(&bytes);
            let back = PatternKey::decode_from(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(back, key);
            let mut again = Vec::new();
            back.encode_to(&mut again);
            assert_eq!(again, bytes);
        }
    }

    #[test]
    fn table_codec_round_trips_and_rejects_damage() {
        let mut table = PatternTable::new();
        for _ in 0..5 {
            table.record(PatternKey::new(&[arrr(), brc()]));
        }
        table.record(PatternKey::new(&[arri(), arri(), brc()]));
        let mut bytes = Vec::new();
        table.encode_to(&mut bytes);
        let mut r = Reader::new(&bytes);
        assert_eq!(PatternTable::decode_from(&mut r).unwrap(), table);
        r.finish().unwrap();
        // Truncation at any prefix is a decode failure, not a panic.
        for keep in 0..bytes.len() {
            assert!(PatternTable::decode_from(&mut Reader::new(&bytes[..keep])).is_err());
        }
        // An out-of-range class code is rejected.
        let mut key_bytes = Vec::new();
        PatternKey::new(&[arrr()]).encode_to(&mut key_bytes);
        key_bytes[1] = 0xFF;
        assert!(matches!(
            PatternKey::decode_from(&mut Reader::new(&key_bytes)),
            Err(WireError::UnknownKind(0xFF))
        ));
    }
}
