//! Bit-sliced carrier-sense counters: every station's count of the
//! transmissions it senses, 64 stations to a word.
//!
//! Station `i` is bit `i % 64` of word `i / 64` in every bitset here. The
//! counts are stored as bit planes: plane `p` of a word holds bit `p` of the
//! counts of that word's 64 stations. Adding one to the count of every
//! station in a set (a transmission starting) is then a ripple-carry add of
//! the set's mask into the planes, and removing one is the matching
//! ripple-borrow: O(⌈N/64⌉ · log k) word operations for k transmissions on
//! the air, however many stations sense them. Two bitsets ride along, `busy`
//! (the count is nonzero) and `has_data` (the busy period the station senses
//! contains a data frame).
//!
//! Every add or subtract records the stations whose count crossed zero
//! ([`BusyCounts::crossed`]): only those change their medium view, so the
//! sensing layer runs its freeze and resume rules for exactly them, in
//! ascending id order. Single-station updates ([`BusyCounts::inc`],
//! [`BusyCounts::dec`], [`BusyCounts::set`]) work on the same planes, so a
//! station's count has one representation whichever path updates it.
//!
//! Only the planes some count reaches are in use (`depth`), and every
//! operation costs one step per plane in use: the add and subtract ripple
//! through all of them with no data-dependent early exit. A subtract drops
//! an emptied top plane, and [`BusyCounts::clear`] zeroes every count at
//! once.

use crate::topology::NodeId;
use wlan_des::snapshot::SnapshotError;

#[inline]
fn word_bit(node: NodeId) -> (usize, u64) {
    (node / 64, 1 << (node % 64))
}

/// The busy counts of `n` stations (see the module docs).
pub(crate) struct BusyCounts {
    /// Planes per word: enough bits for a count of `n + 1`.
    stride: usize,
    /// Planes that may be nonzero: every count is below `2^depth`.
    depth: usize,
    /// `planes[w * stride + p]` is bit `p` of the counts of word `w`.
    planes: Box<[u64]>,
    /// Stations whose count is nonzero.
    busy: Box<[u64]>,
    /// Stations whose current (or, while idle, last) busy period contains a
    /// data frame.
    has_data: Box<[u64]>,
    /// Stations whose count crossed zero in the last bulk add or subtract.
    crossed: Box<[u64]>,
}

// The depth and the busy bits are derived from the planes on load.
wlan_des::state!(struct BusyCounts { planes, has_data } then Self::reindex);

impl BusyCounts {
    /// `n` stations, every count zero.
    pub(crate) fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        let stride = (usize::BITS - (n + 1).leading_zeros()) as usize;
        BusyCounts {
            stride,
            depth: 0,
            planes: vec![0; words * stride].into(),
            busy: vec![0; words].into(),
            has_data: vec![0; words].into(),
            crossed: vec![0; words].into(),
        }
    }

    /// Number of 64-bit words per bitset.
    #[inline]
    pub(crate) fn words(&self) -> usize {
        self.busy.len()
    }

    /// Word `w` of the stations whose count crossed zero in the last bulk
    /// [`add`](Self::add) or [`sub`](Self::sub).
    #[inline]
    pub(crate) fn crossed(&self, w: usize) -> u64 {
        self.crossed[w]
    }

    /// Whether `node`'s count is nonzero.
    #[inline]
    pub(crate) fn is_busy(&self, node: NodeId) -> bool {
        let (w, bit) = word_bit(node);
        self.busy[w] & bit != 0
    }

    /// Whether `node`'s current (or last) busy period contains a data frame.
    #[inline]
    pub(crate) fn has_data(&self, node: NodeId) -> bool {
        let (w, bit) = word_bit(node);
        self.has_data[w] & bit != 0
    }

    /// Set `node`'s busy-has-data bit.
    #[inline]
    pub(crate) fn set_has_data(&mut self, node: NodeId, value: bool) {
        let (w, bit) = word_bit(node);
        if value {
            self.has_data[w] |= bit;
        } else {
            self.has_data[w] &= !bit;
        }
    }

    /// `node`'s count.
    pub(crate) fn count(&self, node: NodeId) -> u32 {
        let (w, bit) = word_bit(node);
        let planes = &self.planes[w * self.stride..][..self.depth];
        planes.iter().enumerate().fold(0, |count, (p, &plane)| {
            count | u32::from(plane & bit != 0) << p
        })
    }

    /// Overwrite `node`'s count.
    pub(crate) fn set(&mut self, node: NodeId, count: u32) {
        let (w, bit) = word_bit(node);
        let bits = (u32::BITS - count.leading_zeros()) as usize;
        assert!(bits <= self.stride, "busy count {count} out of range");
        self.depth = self.depth.max(bits);
        let planes = &mut self.planes[w * self.stride..][..self.depth];
        for (p, plane) in planes.iter_mut().enumerate() {
            if count >> p & 1 != 0 {
                *plane |= bit;
            } else {
                *plane &= !bit;
            }
        }
        if count != 0 {
            self.busy[w] |= bit;
        } else {
            self.busy[w] &= !bit;
        }
    }

    /// Add one to the counts of mask `m` in word `w`; returns the stations
    /// that were idle. A data frame marks every busy period in the mask as
    /// carrying data; an ACK starts data-free busy periods for the idle ones.
    #[inline]
    fn add_word(&mut self, w: usize, m: u64, is_data: bool) -> u64 {
        let crossed = m & !self.busy[w];
        let planes = &mut self.planes[w * self.stride..][..self.stride];
        // Ripple through every plane in use: the carry dies out after a
        // data-dependent number of planes, and a branch on it mispredicts
        // more often than the remaining steps cost.
        let mut carry = m;
        for plane in &mut planes[..self.depth] {
            let next = *plane & carry;
            *plane ^= carry;
            carry = next;
        }
        if carry != 0 {
            // Every count was below 2^depth, so the carry lands in an empty
            // plane; counts never exceed `n`, which `stride` bits hold.
            planes[self.depth] = carry;
            self.depth += 1;
        }
        self.busy[w] |= m;
        if is_data {
            self.has_data[w] |= m;
        } else {
            self.has_data[w] &= !crossed;
        }
        crossed
    }

    /// Remove one from the counts of mask `m` in word `w`; returns the
    /// stations whose count is now zero. A count that is already zero stays
    /// zero and counts as crossing, as the per-station rule's saturating
    /// decrement did.
    #[inline]
    fn sub_word(&mut self, w: usize, m: u64) -> u64 {
        debug_assert_eq!(m & !self.busy[w], 0, "busy count underflow");
        let planes = &mut self.planes[w * self.stride..][..self.depth];
        // One branch-free pass over every plane in use borrows and collects
        // the counts that are still nonzero.
        let mut borrow = m & self.busy[w];
        let mut nonzero = 0;
        for plane in planes.iter_mut() {
            let next = !*plane & borrow;
            *plane ^= borrow;
            nonzero |= *plane;
            borrow = next;
        }
        let crossed = m & !nonzero;
        self.busy[w] &= !crossed;
        crossed
    }

    /// Add one to the count of every station in `mask` (word by word) and
    /// record the stations that were idle in [`crossed`](Self::crossed).
    #[inline]
    pub(crate) fn add(&mut self, mut mask: impl FnMut(usize) -> u64, is_data: bool) {
        for w in 0..self.words() {
            self.crossed[w] = self.add_word(w, mask(w), is_data);
        }
    }

    /// Remove one from the count of every station in `mask` and record the
    /// stations whose count is now zero in [`crossed`](Self::crossed).
    #[inline]
    pub(crate) fn sub(&mut self, mut mask: impl FnMut(usize) -> u64) {
        for w in 0..self.words() {
            self.crossed[w] = self.sub_word(w, mask(w));
        }
        // Drop the top plane once no count reaches it.
        if self.depth > 0 {
            let top = self.depth - 1;
            if (0..self.words()).all(|w| self.planes[w * self.stride + top] == 0) {
                self.depth = top;
            }
        }
    }

    /// Zero every count, once no active station senses anything (inactive
    /// stations are recounted when they are activated).
    pub(crate) fn clear(&mut self) {
        if self.depth == 0 {
            return;
        }
        for w in 0..self.words() {
            self.planes[w * self.stride..][..self.depth].fill(0);
        }
        self.busy.fill(0);
        self.depth = 0;
    }

    /// Add one to `node`'s count; returns whether it was zero.
    #[inline]
    pub(crate) fn inc(&mut self, node: NodeId, is_data: bool) -> bool {
        let (w, bit) = word_bit(node);
        self.add_word(w, bit, is_data) != 0
    }

    /// Remove one from `node`'s count (a zero count stays zero); returns
    /// whether it is now zero.
    #[inline]
    pub(crate) fn dec(&mut self, node: NodeId) -> bool {
        let (w, bit) = word_bit(node);
        self.sub_word(w, bit) != 0
    }

    /// Derive the depth and the busy bits from loaded planes.
    fn reindex(&mut self) -> Result<(), SnapshotError> {
        self.depth = 0;
        for w in 0..self.words() {
            let planes = &self.planes[w * self.stride..][..self.stride];
            self.busy[w] = planes.iter().fold(0, |acc, &plane| acc | plane);
            if let Some(top) = planes.iter().rposition(|&plane| plane != 0) {
                self.depth = self.depth.max(top + 1);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ones;
    use proptest::prelude::*;

    /// The plain model: one `u32` count and one has-data flag per station.
    struct Model {
        count: Vec<u32>,
        has_data: Vec<bool>,
    }

    impl Model {
        /// Apply an add or subtract of `mask`; returns the crossing stations.
        fn apply(&mut self, mask: &[NodeId], add: bool, is_data: bool) -> Vec<NodeId> {
            let mut crossed = Vec::new();
            for &node in mask {
                if add {
                    if self.count[node] == 0 {
                        crossed.push(node);
                        self.has_data[node] = is_data;
                    } else {
                        self.has_data[node] |= is_data;
                    }
                    self.count[node] += 1;
                } else {
                    self.count[node] -= 1;
                    if self.count[node] == 0 {
                        crossed.push(node);
                    }
                }
            }
            crossed
        }
    }

    fn bits(n: usize, nodes: &[NodeId]) -> Vec<u64> {
        let mut words = vec![0u64; n.div_ceil(64)];
        for &node in nodes {
            words[node / 64] |= 1 << (node % 64);
        }
        words
    }

    /// The stations the last bulk update reported as crossing zero.
    fn crossings(counts: &BusyCounts) -> Vec<NodeId> {
        let crossed: Vec<_> = (0..counts.words()).map(|w| counts.crossed(w)).collect();
        ones(&crossed).collect()
    }

    fn check(counts: &BusyCounts, model: &Model) {
        for node in 0..model.count.len() {
            assert_eq!(counts.count(node), model.count[node], "count of {node}");
            assert_eq!(counts.is_busy(node), model.count[node] > 0, "busy {node}");
            assert_eq!(counts.has_data(node), model.has_data[node], "data {node}");
        }
    }

    /// Random masks are added one by one, interleaved with subtracts of
    /// masks added earlier (in a random order), until every mask is gone.
    /// At most `n` masks are live at once: a station senses at most the
    /// other `n - 1` stations' frames and one ACK.
    fn run(n: usize, ops: &[(u64, bool, u16)]) {
        let mut counts = BusyCounts::new(n);
        let mut model = Model {
            count: vec![0; n],
            has_data: vec![false; n],
        };
        let mut live: Vec<Vec<NodeId>> = Vec::new();
        let mut rng = 0x9e37_79b9_7f4a_7c15 ^ ops.len() as u64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for &(density, is_data, pick) in ops {
            // Add a mask of about density/8 of the stations...
            let mask: Vec<NodeId> = (0..n).filter(|_| next() % 8 < density).collect();
            let expected = model.apply(&mask, true, is_data);
            let words = bits(n, &mask);
            counts.add(|w| words[w], is_data);
            assert_eq!(crossings(&counts), expected, "add crossings");
            live.push(mask);
            check(&counts, &model);
            // ... and, every other step, subtract one added earlier.
            if pick % 2 == 0 || live.len() == n {
                let mask = live.swap_remove(pick as usize % live.len());
                let expected = model.apply(&mask, false, false);
                let words = bits(n, &mask);
                counts.sub(|w| words[w]);
                assert_eq!(crossings(&counts), expected, "sub crossings");
                check(&counts, &model);
            }
        }
        while let Some(mask) = live.pop() {
            let expected = model.apply(&mask, false, false);
            let words = bits(n, &mask);
            counts.sub(|w| words[w]);
            assert_eq!(crossings(&counts), expected, "drain crossings");
            check(&counts, &model);
        }
        assert_eq!(counts.depth, 0, "every plane is empty again");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn bit_sliced_counts_match_a_plain_model(
            n_idx in 0usize..6,
            ops in proptest::collection::vec((0u64..9, any::<bool>(), 0u16..1000), 1..40),
        ) {
            run([1, 63, 64, 65, 130, 1000][n_idx], &ops);
        }
    }

    #[test]
    fn single_station_updates_share_the_planes() {
        let mut counts = BusyCounts::new(130);
        counts.set(129, 5);
        assert_eq!(counts.count(129), 5);
        assert!(!counts.inc(129, false));
        assert!(counts.inc(64, true));
        assert!(counts.has_data(64));
        counts.add(|w| [0, 1, 1 << 1][w], false);
        assert_eq!((counts.count(64), counts.count(129)), (2, 7));
        counts.set(129, 1);
        assert!(counts.dec(129));
        assert!(!counts.is_busy(129));
        counts.sub(|w| [0, 1, 0][w]);
        assert_eq!(counts.crossed(1), 0);
        assert!(counts.dec(64));
        assert_eq!((counts.count(64), counts.count(129)), (0, 0));
        // Clearing zeroes every count and leaves the has-data bits alone.
        counts.set(3, 9);
        counts.add(|w| [1 << 3, 1, 0][w], true);
        counts.clear();
        assert_eq!(counts.depth, 0);
        assert!((0..130).all(|node| counts.count(node) == 0 && !counts.is_busy(node)));
        assert!(counts.has_data(3) && counts.has_data(64));
        assert!(counts.inc(3, false));
        assert_eq!(counts.count(3), 1);
    }
}
