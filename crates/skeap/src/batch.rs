//! Operation batches (Definition 3.1).
//!
//! A batch is a sequence `(i₁, d₁, …, i_k, d_k)` where `i_j ∈ ℕ^{|𝒫|}`
//! counts inserts per priority in the j-th *group* and `d_j ∈ ℕ` counts
//! DeleteMin()s. A node's snapshot is grouped by alternation: consecutive
//! inserts extend the current group's insert vector, consecutive deletes its
//! delete counter, and an insert *after* a delete opens the next group —
//! reproducing the paper's example where
//! `Ins(p1), Ins(p1), Del, Ins(p2), Del` becomes `((2,0),1,(0,1),1)`.
//!
//! Combining batches adds them entrywise, zero-padding the shorter one.

use dpq_arena::SmallVec;
use dpq_core::{wire, OpKind};

/// One `(i_j, d_j)` group.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BatchEntry {
    /// Inserts per priority index (length = |𝒫|). Inline up to 4
    /// priorities — the E-series universes — so a group costs no heap.
    pub ins: SmallVec<u64, 4>,
    /// DeleteMin count.
    pub del: u64,
}

impl BatchEntry {
    /// A group with no operations.
    pub fn zero(n_prios: usize) -> Self {
        BatchEntry {
            ins: SmallVec::from_elem(0, n_prios),
            del: 0,
        }
    }

    /// Total inserts across priorities.
    pub fn ins_total(&self) -> u64 {
        self.ins.iter().sum()
    }
}

/// A batch: the snapshot of one node's buffered requests, or any entrywise
/// combination of such snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// Size of the priority universe (insert vectors have this length).
    pub n_prios: usize,
    /// The alternating groups, in issue order.
    pub entries: Vec<BatchEntry>,
}

// `ins` has the fixed length Λ every node knows, so it carries no length prefix.
wire!(struct BatchEntry { #[seq(unprefixed)] ins, del });

impl Batch {
    /// A batch with no groups.
    pub fn empty(n_prios: usize) -> Self {
        Batch {
            n_prios,
            entries: Vec::new(),
        }
    }

    /// Build a batch from an issue-ordered op sequence; also returns, per
    /// op, the group index it landed in (needed to map assigned positions
    /// back onto the concrete ops in Phase 3).
    pub fn from_ops<'a>(
        n_prios: usize,
        ops: impl IntoIterator<Item = &'a OpKind>,
    ) -> (Batch, Vec<usize>) {
        let mut b = Batch::empty(n_prios);
        let mut groups = Vec::new();
        for op in ops {
            match op {
                OpKind::Insert(e) => {
                    let p = e.prio.0 as usize;
                    assert!(p < n_prios, "priority {p} out of universe 0..{n_prios}");
                    // An insert after deletes starts a new group.
                    if b.entries.last().is_none_or(|g| g.del > 0) {
                        b.entries.push(BatchEntry::zero(n_prios));
                    }
                    b.entries.last_mut().unwrap().ins[p] += 1;
                }
                OpKind::DeleteMin => {
                    if b.entries.is_empty() {
                        b.entries.push(BatchEntry::zero(n_prios));
                    }
                    b.entries.last_mut().unwrap().del += 1;
                }
            }
            groups.push(b.entries.len() - 1);
        }
        (b, groups)
    }

    /// Entrywise combination (§3.1), zero-padding the shorter batch.
    pub fn combine(&self, other: &Batch) -> Batch {
        assert_eq!(self.n_prios, other.n_prios);
        let len = self.entries.len().max(other.entries.len());
        let mut entries = Vec::with_capacity(len);
        for j in 0..len {
            let mut e = BatchEntry::zero(self.n_prios);
            for s in [self.entries.get(j), other.entries.get(j)]
                .into_iter()
                .flatten()
            {
                for (a, b) in e.ins.iter_mut().zip(&s.ins) {
                    *a += b;
                }
                e.del += s.del;
            }
            entries.push(e);
        }
        Batch {
            n_prios: self.n_prios,
            entries,
        }
    }

    /// The group `(i_j, d_j)`, with implicit zeros past the end.
    pub fn entry(&self, j: usize) -> BatchEntry {
        self.entries
            .get(j)
            .cloned()
            .unwrap_or_else(|| BatchEntry::zero(self.n_prios))
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// No groups at all (an idle node's snapshot).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total operation count.
    pub fn total_ops(&self) -> u64 {
        self.entries.iter().map(|e| e.ins_total() + e.del).sum()
    }
}

// Λ is a constant every node knows, so `n_prios` is not counted.
wire!(struct Batch { #[bits(uncounted)] n_prios, entries });

impl dpq_core::StateHash for BatchEntry {
    fn state_hash(&self, h: &mut dpq_core::StateHasher) {
        self.ins.state_hash(h);
        h.write_u64(self.del);
    }
}

impl dpq_core::StateHash for Batch {
    fn state_hash(&self, h: &mut dpq_core::StateHasher) {
        h.write_u64(self.n_prios as u64);
        self.entries.state_hash(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpq_core::BitSize;
    use dpq_core::{ElemId, Element, NodeId, Priority};

    fn ins(p: u64) -> OpKind {
        OpKind::Insert(Element::new(ElemId::compose(NodeId(0), p), Priority(p), 0))
    }

    #[test]
    fn paper_example_grouping() {
        // Ins(p=0), Ins(p=0), Del, Ins(p=1), Del with 𝒫 = {0,1}
        // → ((2,0),1,(0,1),1).
        let ops = [ins(0), ins(0), OpKind::DeleteMin, ins(1), OpKind::DeleteMin];
        let (b, groups) = Batch::from_ops(2, ops.iter());
        assert_eq!(b.entries.len(), 2);
        assert_eq!(
            b.entries[0],
            BatchEntry {
                ins: SmallVec::from_slice(&[2, 0]),
                del: 1
            }
        );
        assert_eq!(
            b.entries[1],
            BatchEntry {
                ins: SmallVec::from_slice(&[0, 1]),
                del: 1
            }
        );
        assert_eq!(groups, vec![0, 0, 0, 1, 1]);
    }

    #[test]
    fn leading_delete_occupies_group_zero() {
        let ops = [OpKind::DeleteMin, ins(0)];
        let (b, groups) = Batch::from_ops(1, ops.iter());
        assert_eq!(b.entries.len(), 2);
        assert_eq!(
            b.entries[0],
            BatchEntry {
                ins: SmallVec::from_slice(&[0]),
                del: 1
            }
        );
        assert_eq!(
            b.entries[1],
            BatchEntry {
                ins: SmallVec::from_slice(&[1]),
                del: 0
            }
        );
        assert_eq!(groups, vec![0, 1]);
    }

    #[test]
    fn combine_pads_with_zeros() {
        let (a, _) = Batch::from_ops(2, [ins(0), OpKind::DeleteMin, ins(1)].iter());
        let (b, _) = Batch::from_ops(2, [ins(1)].iter());
        let c = a.combine(&b);
        assert_eq!(c.entries.len(), 2);
        assert_eq!(
            c.entries[0],
            BatchEntry {
                ins: SmallVec::from_slice(&[1, 1]),
                del: 1
            }
        );
        assert_eq!(
            c.entries[1],
            BatchEntry {
                ins: SmallVec::from_slice(&[0, 1]),
                del: 0
            }
        );
        // Commutative.
        assert_eq!(c, b.combine(&a));
    }

    #[test]
    fn combine_empty_is_identity() {
        let (a, _) = Batch::from_ops(3, [ins(2), OpKind::DeleteMin].iter());
        assert_eq!(a.combine(&Batch::empty(3)), a);
    }

    #[test]
    fn totals_count_all_ops() {
        let (a, _) = Batch::from_ops(2, [ins(0), ins(1), OpKind::DeleteMin, ins(0)].iter());
        assert_eq!(a.total_ops(), 4);
    }

    #[test]
    fn entry_past_end_is_zero() {
        let b = Batch::empty(2);
        assert_eq!(b.entry(5), BatchEntry::zero(2));
    }

    #[test]
    fn bitsize_grows_with_entries_and_magnitudes() {
        let (small, _) = Batch::from_ops(2, [ins(0)].iter());
        let mut big = small.clone();
        big.entries[0].ins[0] = 1 << 40;
        assert!(big.bits() > small.bits());
        let longer = small.combine(&Batch {
            n_prios: 2,
            entries: vec![BatchEntry::zero(2); 8],
        });
        assert!(longer.bits() > small.bits());
    }
}
