//! Position intervals and their decomposition.
//!
//! Skeap's anchor assigns *position intervals* per priority (Phase 2) which
//! are then decomposed over the tree (Phase 3): each node slices a received
//! interval collection into a prefix for its own operations and consecutive
//! chunks for each child's sub-batch. Seap reuses the same splitting for its
//! `[1,k]` DeleteMin positions (§5.2), and KSelect for its `[1,n']`
//! representative positions (§4.3).

use dpq_arena::SmallVec;
use dpq_core::wire;

/// An inclusive interval of positions `[lo, hi]`; empty iff `lo > hi`.
/// Matches the paper's `[first, last]` convention where an interval of
/// cardinality 0 is "empty" (§3.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Inclusive lower end.
    pub lo: u64,
    /// Inclusive upper end.
    pub hi: u64,
}

impl Default for Interval {
    fn default() -> Self {
        Interval::EMPTY
    }
}

impl Interval {
    /// The canonical empty interval.
    pub const EMPTY: Interval = Interval { lo: 1, hi: 0 };

    /// `[lo, hi]` (empty when `lo > hi`).
    pub fn new(lo: u64, hi: u64) -> Self {
        Interval { lo, hi }
    }

    /// Does the interval contain no positions?
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi
    }

    /// `|[lo,hi]| = hi - lo + 1` (0 when empty).
    pub fn cardinality(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.hi - self.lo + 1
        }
    }

    /// Split off the first `k` positions: returns `(prefix, rest)`.
    /// Taking more than the cardinality yields the whole interval.
    pub fn take_prefix(self, k: u64) -> (Interval, Interval) {
        let card = self.cardinality();
        if k == 0 {
            return (Interval::EMPTY, self);
        }
        if k >= card {
            return (self, Interval::EMPTY);
        }
        (
            Interval::new(self.lo, self.lo + k - 1),
            Interval::new(self.lo + k, self.hi),
        )
    }

    /// Iterate the contained positions ascending.
    pub fn positions(self) -> impl Iterator<Item = u64> {
        self.lo..=self.hi
    }
}

wire!(struct Interval { lo, hi });

/// An ordered collection of tagged intervals — e.g. Skeap's `D_j`, which may
/// span several priorities ("a collection of at most |𝒫| intervals",
/// §3.2.2). The tag is the priority (or any other discriminator); positions
/// are consumed segment-by-segment in order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Segments {
    /// `(tag, interval)` parts in consumption order (ascending mode).
    /// Stored inline up to two parts — the common case (one priority
    /// drained plus one partially consumed) never touches the heap.
    pub parts: SmallVec<(u64, Interval), 2>,
}

impl Segments {
    /// An empty collection.
    pub fn new() -> Self {
        Segments::default()
    }

    /// Append an interval under a tag (empty intervals are dropped).
    pub fn push(&mut self, tag: u64, iv: Interval) {
        if !iv.is_empty() {
            self.parts.push((tag, iv));
        }
    }

    /// Total number of positions across all segments.
    pub fn total(&self) -> u64 {
        self.parts.iter().map(|(_, iv)| iv.cardinality()).sum()
    }

    /// Are there no positions at all?
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// Split off the first `k` positions (in segment order), preserving
    /// tags. Returns `(prefix, rest)`. Taking more than `total()` returns
    /// everything in the prefix.
    pub fn take_prefix(&self, mut k: u64) -> (Segments, Segments) {
        let mut prefix = Segments::new();
        let mut rest = Segments::new();
        for &(tag, iv) in &self.parts {
            if k == 0 {
                rest.push(tag, iv);
                continue;
            }
            let (a, b) = iv.take_prefix(k);
            k -= a.cardinality();
            prefix.push(tag, a);
            rest.push(tag, b);
        }
        (prefix, rest)
    }

    /// Decompose into consecutive chunks of the given sizes; a final chunk
    /// with whatever remains is appended when the sizes do not exhaust the
    /// collection. Sizes may over-ask: chunks drain in order until empty.
    pub fn split_by_counts(&self, counts: &[u64]) -> Vec<Segments> {
        let mut out = Vec::with_capacity(counts.len());
        let mut rest = self.clone();
        for &c in counts {
            let (chunk, r) = rest.take_prefix(c);
            out.push(chunk);
            rest = r;
        }
        out
    }

    /// Iterate all `(tag, position)` pairs in order.
    pub fn iter_positions(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.parts
            .iter()
            .flat_map(|&(tag, iv)| iv.positions().map(move |p| (tag, p)))
    }

    /// Direction-aware prefix split. With `desc = false` this is
    /// [`Segments::take_prefix`]. With `desc = true` the collection is
    /// consumed from its *end* — the convention Skeap's LIFO (stack)
    /// discipline uses, where the stored ascending order is the reverse of
    /// consumption order. Returns `(taken, rest)` in both modes.
    pub fn take_prefix_dir(&self, k: u64, desc: bool) -> (Segments, Segments) {
        if !desc {
            self.take_prefix(k)
        } else {
            let total = self.total();
            let (rest, taken) = self.take_prefix(total.saturating_sub(k));
            (taken, rest)
        }
    }
}

wire!(struct Segments { #[seq] parts });

impl dpq_core::StateHash for Interval {
    fn state_hash(&self, h: &mut dpq_core::StateHasher) {
        h.write_u64(self.lo);
        h.write_u64(self.hi);
    }
}

impl dpq_core::StateHash for Segments {
    fn state_hash(&self, h: &mut dpq_core::StateHasher) {
        self.parts.state_hash(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpq_core::BitSize;

    #[test]
    fn cardinality_and_emptiness() {
        assert_eq!(Interval::new(3, 7).cardinality(), 5);
        assert_eq!(Interval::new(3, 3).cardinality(), 1);
        assert!(Interval::EMPTY.is_empty());
        assert_eq!(Interval::EMPTY.cardinality(), 0);
    }

    #[test]
    fn take_prefix_splits_exactly() {
        let (a, b) = Interval::new(10, 19).take_prefix(4);
        assert_eq!(a, Interval::new(10, 13));
        assert_eq!(b, Interval::new(14, 19));
        let (a, b) = Interval::new(10, 19).take_prefix(10);
        assert_eq!(a, Interval::new(10, 19));
        assert!(b.is_empty());
        let (a, b) = Interval::new(10, 19).take_prefix(99);
        assert_eq!(a.cardinality(), 10);
        assert!(b.is_empty());
        let (a, b) = Interval::new(10, 19).take_prefix(0);
        assert!(a.is_empty());
        assert_eq!(b.cardinality(), 10);
    }

    #[test]
    fn segments_take_prefix_crosses_tags() {
        let mut s = Segments::new();
        s.push(1, Interval::new(4, 5)); // 2 positions of priority 1
        s.push(2, Interval::new(1, 3)); // 3 positions of priority 2
        let (p, r) = s.take_prefix(3);
        assert_eq!(p.total(), 3);
        assert_eq!(r.total(), 2);
        assert_eq!(
            p.parts,
            vec![(1, Interval::new(4, 5)), (2, Interval::new(1, 1))]
        );
        assert_eq!(r.parts, vec![(2, Interval::new(2, 3))]);
    }

    #[test]
    fn split_by_counts_is_a_partition() {
        let mut s = Segments::new();
        s.push(1, Interval::new(1, 10));
        s.push(3, Interval::new(100, 104));
        let chunks = s.split_by_counts(&[4, 0, 7, 10]);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks[0].total(), 4);
        assert_eq!(chunks[1].total(), 0);
        assert_eq!(chunks[2].total(), 7);
        assert_eq!(chunks[3].total(), 4); // only 4 left of 15
        let all: Vec<_> = chunks.iter().flat_map(|c| c.iter_positions()).collect();
        let orig: Vec<_> = s.iter_positions().collect();
        assert_eq!(all, orig);
    }

    #[test]
    fn iter_positions_yields_tagged_positions_in_order() {
        let mut s = Segments::new();
        s.push(9, Interval::new(2, 3));
        s.push(5, Interval::new(7, 7));
        let v: Vec<_> = s.iter_positions().collect();
        assert_eq!(v, vec![(9, 2), (9, 3), (5, 7)]);
    }

    #[test]
    fn push_drops_empty_intervals() {
        let mut s = Segments::new();
        s.push(1, Interval::EMPTY);
        assert!(s.parts.is_empty());
        assert!(s.is_empty());
    }

    #[test]
    fn take_prefix_dir_desc_consumes_from_the_end() {
        let mut s = Segments::new();
        s.push(1, Interval::new(1, 3));
        s.push(2, Interval::new(10, 11));
        // Desc consumption order: (2,11), (2,10), (1,3), (1,2), (1,1).
        let (taken, rest) = s.take_prefix_dir(2, true);
        assert_eq!(taken.parts, vec![(2, Interval::new(10, 11))]);
        assert_eq!(rest.parts, vec![(1, Interval::new(1, 3))]);
        let (taken, rest) = s.take_prefix_dir(4, true);
        assert_eq!(taken.total(), 4);
        assert_eq!(rest.parts, vec![(1, Interval::new(1, 1))]);
        // Over-asking takes everything.
        let (taken, rest) = s.take_prefix_dir(99, true);
        assert_eq!(taken.total(), 5);
        assert!(rest.is_empty());
    }

    #[test]
    fn take_prefix_dir_asc_equals_take_prefix() {
        let mut s = Segments::new();
        s.push(1, Interval::new(1, 5));
        let (a1, r1) = s.take_prefix_dir(2, false);
        let (a2, r2) = s.take_prefix(2);
        assert_eq!((a1, r1), (a2, r2));
    }

    #[test]
    fn bitsize_grows_with_content() {
        let mut small = Segments::new();
        small.push(1, Interval::new(1, 2));
        let mut large = small.clone();
        large.push(1 << 30, Interval::new(1 << 40, 1 << 41));
        assert!(large.bits() > small.bits());
    }
}
