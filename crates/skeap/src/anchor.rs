//! Phase 2 (position assignment at the anchor) and the decomposition step of
//! Phase 3 (§3.2.2–3.2.3).
//!
//! The anchor keeps `first_p ≤ last_p + 1` pointers per priority; the
//! occupied positions of priority p are exactly `[first_p, last_p]`. For
//! each group of the combined batch it allocates fresh positions to inserts
//! (extending `last_p`) and consumes the oldest positions for deletes
//! (advancing `first_p`, lowest priority first, walking up the priority
//! order until the demand is met or the heap is exhausted — leftover deletes
//! answer ⊥).
//!
//! It simultaneously materialises the paper's `value(OP)` counter (§3.3):
//! every group gets contiguous *witness* ranges (inserts first, then
//! deletes) in anchor processing order. The decomposition slices both the
//! position intervals and the witness ranges over sub-batches in the fixed
//! convention *own ops first, then children in canonical order* — the same
//! convention [`crate::batch::Batch::combine`] callers use on the way up, so
//! the two traversals agree.

use std::collections::VecDeque;

use crate::batch::{Batch, BatchEntry};
use dpq_agg::{Interval, Segments};
use dpq_arena::SmallVec;
use dpq_core::wire;

/// Positions and witness ranges assigned to one group of a (sub-)batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryAssign {
    /// Insert positions per priority index: `ins[p]` has cardinality
    /// `i_{j,p}` of the sub-batch this assign is for. Inline up to 4
    /// priorities, matching [`crate::batch::BatchEntry::ins`].
    pub ins: SmallVec<Interval, 4>,
    /// Witness range covering all `Σ_p i_{j,p}` inserts of the group.
    pub ins_seq: Interval,
    /// Delete positions, tagged by priority, oldest first. May cover fewer
    /// than `d_j` positions when the heap ran dry.
    pub del: Segments,
    /// How many of the group's deletes answer ⊥ (demand beyond `del`).
    pub bottom: u64,
    /// Witness range covering all `d_j` deletes of the group.
    pub del_seq: Interval,
    /// Consumption direction for `del`: ascending (FIFO) or descending
    /// (LIFO stack discipline) — see [`Discipline`].
    pub lifo: bool,
}

impl EntryAssign {
    /// Structural invariant: witness ranges cover exactly the ops assigned.
    pub fn check(&self) -> bool {
        let ins_total: u64 = self.ins.iter().map(Interval::cardinality).sum();
        ins_total == self.ins_seq.cardinality()
            && self.del.total() + self.bottom == self.del_seq.cardinality()
    }
}

wire!(struct EntryAssign { #[seq] ins, ins_seq, del, bottom, del_seq, lifo });

/// Which end of a priority's live positions DeleteMin consumes.
///
/// `Fifo` is the paper's Skeap/Skueue rule (oldest position first);
/// `Lifo` is the stack discipline of the \[FSS18b\] extension — the newest
/// live position first. Positions are never reused in either mode (insert
/// counters only grow), so `h(p, pos)` keys stay unique for the lifetime of
/// the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Discipline {
    /// Oldest position first — the paper's Skeap/Skueue.
    #[default]
    Fifo,
    /// Newest position first — the stack extension.
    Lifo,
}

/// The per-priority live-position state and the witness counter the anchor
/// owns.
///
/// Live positions per priority form a deque of disjoint ascending
/// intervals: inserts extend at the back with fresh positions; FIFO deletes
/// pop from the front, LIFO deletes from the back. Under FIFO the deque is
/// always a single interval — exactly the paper's `[first_p, last_p]` pair;
/// under LIFO it can fragment (pop the top, push fresh above the gap).
#[derive(Debug, Clone)]
pub struct AnchorState {
    discipline: Discipline,
    /// Next fresh position per priority (1-based, monotone).
    next: Vec<u64>,
    /// Live position intervals per priority, ascending and disjoint. One
    /// heap block per non-empty priority, at one anchor per cluster.
    live: Vec<VecDeque<Interval>>,
    /// The `count` variable of §3.3, incremented per processed request.
    witness: u64,
}

impl AnchorState {
    /// FIFO anchor — the paper's Skeap.
    pub fn new(n_prios: usize) -> Self {
        Self::with_discipline(n_prios, Discipline::Fifo)
    }

    /// An anchor with the given delete discipline.
    pub fn with_discipline(n_prios: usize, discipline: Discipline) -> Self {
        AnchorState {
            discipline,
            next: vec![1; n_prios],
            live: vec![VecDeque::new(); n_prios],
            witness: 1,
        }
    }

    /// Which end deletes consume.
    pub fn discipline(&self) -> Discipline {
        self.discipline
    }

    /// Elements currently in the heap at priority `p` (anchor's view).
    pub fn occupancy(&self, p: usize) -> u64 {
        self.live[p].iter().map(Interval::cardinality).sum()
    }

    /// Elements currently in the heap, all priorities.
    pub fn total_occupancy(&self) -> u64 {
        (0..self.next.len()).map(|p| self.occupancy(p)).sum()
    }

    /// The witness counter (next unassigned serialization number).
    pub fn witness_counter(&self) -> u64 {
        self.witness
    }

    /// Phase 2: assign positions and witness ranges to every group of the
    /// combined batch, in order.
    pub fn assign(&mut self, batch: &Batch) -> Vec<EntryAssign> {
        batch
            .entries
            .iter()
            .map(|entry| self.assign_entry(entry))
            .collect()
    }

    fn assign_entry(&mut self, entry: &BatchEntry) -> EntryAssign {
        let lifo = self.discipline == Discipline::Lifo;
        // Inserts: fresh positions [next_p, next_p + i_{j,p} − 1], appended
        // to the live back (merging when contiguous keeps FIFO at exactly
        // one interval, the paper's [first_p, last_p]).
        let ins: SmallVec<Interval, 4> = entry
            .ins
            .iter()
            .enumerate()
            .map(|(p, &cnt)| {
                let iv = Interval::new(self.next[p], self.next[p] + cnt - 1);
                if cnt > 0 {
                    self.next[p] += cnt;
                    match self.live[p].back_mut() {
                        Some(back) if back.hi + 1 == iv.lo => back.hi = iv.hi,
                        _ => self.live[p].push_back(iv),
                    }
                }
                iv
            })
            .collect();
        let ins_total = entry.ins_total();
        let ins_seq = Interval::new(self.witness, self.witness + ins_total - 1);
        self.witness += ins_total;

        // Deletes: consume live positions of the most-prioritized non-empty
        // priority first, walking up the order (§3.2.2) — from the oldest
        // end (FIFO) or the newest (LIFO).
        let mut pieces: SmallVec<(u64, Interval), 4> = SmallVec::new();
        let mut need = entry.del;
        for (p, live) in self.live.iter_mut().enumerate() {
            while need > 0 {
                let Some(edge) = (if lifo {
                    live.back_mut()
                } else {
                    live.front_mut()
                }) else {
                    break;
                };
                let take = need.min(edge.cardinality());
                let piece = if lifo {
                    let piece = Interval::new(edge.hi + 1 - take, edge.hi);
                    // take ≤ cardinality and lo ≥ 1 keep this above zero.
                    edge.hi -= take;
                    piece
                } else {
                    let piece = Interval::new(edge.lo, edge.lo + take - 1);
                    edge.lo += take;
                    piece
                };
                if edge.is_empty() {
                    if lifo {
                        live.pop_back();
                    } else {
                        live.pop_front();
                    }
                }
                pieces.push((p as u64, piece));
                need -= take;
            }
        }
        // Storage convention: consumption order is ascending iteration for
        // FIFO and *descending* iteration for LIFO, so LIFO pieces are
        // stored reversed (see `Segments::take_prefix_dir`).
        if lifo {
            pieces.as_mut_slice().reverse();
        }
        let mut del = Segments::new();
        for &(p, piece) in &pieces {
            del.push(p, piece);
        }
        let del_seq = Interval::new(self.witness, self.witness + entry.del - 1);
        self.witness += entry.del;

        let assign = EntryAssign {
            ins,
            ins_seq,
            del,
            bottom: need,
            del_seq,
            lifo,
        };
        debug_assert!(assign.check());
        assign
    }
}

/// Phase 3 decomposition: slice a subtree's assignment into chunks for the
/// parts (own batch first, then each child's sub-batch, in the order used
/// when combining). `assigns.len()` may exceed a part's batch length — the
/// excess groups simply carry zero counts for that part.
pub fn decompose(assigns: &[EntryAssign], parts: &[&Batch]) -> Vec<Vec<EntryAssign>> {
    let mut out: Vec<Vec<EntryAssign>> =
        parts.iter().map(|b| Vec::with_capacity(b.len())).collect();
    // Cursor over the group's insert positions, reused across groups. Parts
    // past a batch's length carry implicit zero counts, read through the
    // `Option` below instead of materialising a zero entry per part.
    let mut ins_rest: SmallVec<Interval, 4> = SmallVec::new();
    for (j, assign) in assigns.iter().enumerate() {
        debug_assert!(assign.check());
        ins_rest.clear();
        ins_rest.extend_from_slice(&assign.ins);
        let mut ins_seq_rest = assign.ins_seq;
        let mut del_rest = assign.del.clone();
        let mut bottom_rest = assign.bottom;
        let mut del_seq_rest = assign.del_seq;
        for (part_idx, part) in parts.iter().enumerate() {
            let e = part.entries.get(j);
            let ins: SmallVec<Interval, 4> = ins_rest
                .iter_mut()
                .enumerate()
                .map(|(p, rest)| {
                    let cnt = e.map_or(0, |e| e.ins[p]);
                    let (take, r) = rest.take_prefix(cnt);
                    debug_assert_eq!(take.cardinality(), cnt, "insert positions exhausted");
                    *rest = r;
                    take
                })
                .collect();
            let (ins_seq, r) = ins_seq_rest.take_prefix(e.map_or(0, BatchEntry::ins_total));
            ins_seq_rest = r;
            let e_del = e.map_or(0, |e| e.del);
            let (del, r) = del_rest.take_prefix_dir(e_del, assign.lifo);
            del_rest = r;
            let covered = del.total();
            let bottom = e_del - covered;
            debug_assert!(bottom <= bottom_rest, "bottom budget exceeded");
            bottom_rest -= bottom;
            let (del_seq, r) = del_seq_rest.take_prefix(e_del);
            del_seq_rest = r;
            // Only keep groups the part actually has (trim trailing zeros).
            if j < part.len() {
                out[part_idx].push(EntryAssign {
                    ins,
                    ins_seq,
                    del,
                    bottom,
                    del_seq,
                    lifo: assign.lifo,
                });
            }
        }
        debug_assert_eq!(del_rest.total(), 0, "delete positions left over");
        debug_assert_eq!(bottom_rest, 0, "bottoms left over");
        debug_assert_eq!(ins_seq_rest.cardinality(), 0);
        debug_assert_eq!(del_seq_rest.cardinality(), 0);
    }
    out
}

impl dpq_core::StateHash for EntryAssign {
    fn state_hash(&self, h: &mut dpq_core::StateHasher) {
        self.ins.state_hash(h);
        self.ins_seq.state_hash(h);
        self.del.state_hash(h);
        h.write_u64(self.bottom);
        self.del_seq.state_hash(h);
        h.write_u64(self.lifo as u64);
    }
}

impl dpq_core::StateHash for AnchorState {
    fn state_hash(&self, h: &mut dpq_core::StateHasher) {
        h.write_u64(match self.discipline {
            Discipline::Fifo => 0,
            Discipline::Lifo => 1,
        });
        self.next.state_hash(h);
        self.live.state_hash(h);
        h.write_u64(self.witness);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpq_core::OpKind;
    use dpq_core::{ElemId, Element, NodeId, Priority};

    fn ins(p: u64) -> OpKind {
        OpKind::Insert(Element::new(ElemId::compose(NodeId(0), p), Priority(p), 0))
    }

    #[test]
    fn inserts_extend_last_and_deletes_consume_first() {
        let mut a = AnchorState::new(2);
        let (b, _) = Batch::from_ops(2, [ins(0), ins(0), ins(1), OpKind::DeleteMin].iter());
        let assigns = a.assign(&b);
        assert_eq!(assigns.len(), 1);
        let g = &assigns[0];
        assert_eq!(g.ins[0], Interval::new(1, 2));
        assert_eq!(g.ins[1], Interval::new(1, 1));
        // The delete consumes position (p=0, 1) — oldest of the lowest
        // priority.
        assert_eq!(g.del.parts, vec![(0, Interval::new(1, 1))]);
        assert_eq!(g.bottom, 0);
        assert_eq!(a.occupancy(0), 1);
        assert_eq!(a.occupancy(1), 1);
    }

    #[test]
    fn deletes_walk_up_the_priority_order() {
        let mut a = AnchorState::new(3);
        // 1 element at p0, 2 at p2; then 4 deletes.
        let (b1, _) = Batch::from_ops(3, [ins(0), ins(2), ins(2)].iter());
        a.assign(&b1);
        let (b2, _) = Batch::from_ops(
            3,
            [
                OpKind::DeleteMin,
                OpKind::DeleteMin,
                OpKind::DeleteMin,
                OpKind::DeleteMin,
            ]
            .iter(),
        );
        let assigns = a.assign(&b2);
        let g = &assigns[0];
        assert_eq!(
            g.del.parts,
            vec![(0, Interval::new(1, 1)), (2, Interval::new(1, 2))]
        );
        assert_eq!(g.bottom, 1, "fourth delete answers ⊥");
        assert_eq!(a.total_occupancy(), 0);
    }

    #[test]
    fn empty_heap_deletes_all_bottom() {
        let mut a = AnchorState::new(1);
        let (b, _) = Batch::from_ops(1, [OpKind::DeleteMin, OpKind::DeleteMin].iter());
        let g = &a.assign(&b)[0];
        assert!(g.del.is_empty());
        assert_eq!(g.bottom, 2);
        assert_eq!(g.del_seq.cardinality(), 2);
    }

    #[test]
    fn witness_ranges_are_contiguous_across_groups() {
        let mut a = AnchorState::new(2);
        let (b, _) = Batch::from_ops(
            2,
            [ins(0), OpKind::DeleteMin, ins(1), OpKind::DeleteMin].iter(),
        );
        let assigns = a.assign(&b);
        assert_eq!(assigns[0].ins_seq, Interval::new(1, 1));
        assert_eq!(assigns[0].del_seq, Interval::new(2, 2));
        assert_eq!(assigns[1].ins_seq, Interval::new(3, 3));
        assert_eq!(assigns[1].del_seq, Interval::new(4, 4));
        assert_eq!(a.witness_counter(), 5);
    }

    #[test]
    fn figure1_trace() {
        // Figure 1: a 3-node chain (anchor v0 → middle → leaf) over
        // 𝒫 = {1,2} (0-indexed {0,1} here), with batches
        //   v0:     ((1,0),0)
        //   middle: ((1,0),2)
        //   leaf:   ((2,1),1)
        // (b): combined batch at v0 is ((4,1),3).
        let mk = |ops: &[OpKind]| Batch::from_ops(2, ops.iter()).0;
        let b_v0 = mk(&[ins(0)]);
        let b_mid = mk(&[ins(0), OpKind::DeleteMin, OpKind::DeleteMin]);
        let b_leaf = mk(&[ins(0), ins(0), ins(1), OpKind::DeleteMin]);
        let sub_mid = b_mid.combine(&b_leaf); // what the middle sends up
        let combined = b_v0.combine(&sub_mid);
        assert_eq!(combined.entries[0].ins, vec![4, 1]);
        assert_eq!(combined.entries[0].del, 3);

        // (c): Phase 2 gives I₁ = ([1,4],[1,1]), D₁ = ([1,3],∅) and
        // pointers last₁=4, last₂=1, first₁=4, first₂=1.
        let mut st = AnchorState::new(2);
        let assigns = st.assign(&combined);
        let g = &assigns[0];
        assert_eq!(g.ins[0], Interval::new(1, 4));
        assert_eq!(g.ins[1], Interval::new(1, 1));
        assert_eq!(g.del.parts, vec![(0, Interval::new(1, 3))]);
        assert_eq!(g.bottom, 0);
        assert_eq!(st.occupancy(0), 1); // [first₁,last₁] = [4,4]
        assert_eq!(st.occupancy(1), 1); // [first₂,last₂] = [1,1]

        // (d): decomposition down the chain. At v0 (own first, then the
        // middle's subtree): v0 keeps (([1,1],∅),(∅,∅)).
        let at_v0 = decompose(&assigns, &[&b_v0, &sub_mid]);
        assert_eq!(at_v0[0][0].ins[0], Interval::new(1, 1));
        assert!(at_v0[0][0].ins[1].is_empty());
        assert_eq!(at_v0[0][0].del.total(), 0);
        // The middle's subtree receives (([2,4],[1,1]),([1,3],∅)) and
        // splits it: middle keeps (([2,2],∅),([1,2],∅)) …
        let at_mid = decompose(&at_v0[1], &[&b_mid, &b_leaf]);
        assert_eq!(at_mid[0][0].ins[0], Interval::new(2, 2));
        assert!(at_mid[0][0].ins[1].is_empty());
        assert_eq!(at_mid[0][0].del.parts, vec![(0, Interval::new(1, 2))]);
        // … and the leaf gets (([3,4],[1,1]),([3,3],∅)) — exactly Figure 1(d).
        assert_eq!(at_mid[1][0].ins[0], Interval::new(3, 4));
        assert_eq!(at_mid[1][0].ins[1], Interval::new(1, 1));
        assert_eq!(at_mid[1][0].del.parts, vec![(0, Interval::new(3, 3))]);
    }

    #[test]
    fn decompose_distributes_bottoms_to_the_tail() {
        let mut a = AnchorState::new(1);
        let (seed, _) = Batch::from_ops(1, [ins(0)].iter());
        a.assign(&seed);
        // Three parts each demanding 1 delete; only 1 element available.
        let (d1, _) = Batch::from_ops(1, [OpKind::DeleteMin].iter());
        let combined = d1.combine(&d1).combine(&d1);
        let assigns = a.assign(&combined);
        assert_eq!(assigns[0].bottom, 2);
        let parts = decompose(&assigns, &[&d1, &d1, &d1]);
        assert_eq!(parts[0][0].del.total(), 1);
        assert_eq!(parts[0][0].bottom, 0);
        assert_eq!(parts[1][0].del.total(), 0);
        assert_eq!(parts[1][0].bottom, 1);
        assert_eq!(parts[2][0].bottom, 1);
    }

    #[test]
    fn decompose_witness_slices_are_disjoint_and_cover() {
        let mut a = AnchorState::new(2);
        let mk = |ops: &[OpKind]| Batch::from_ops(2, ops.iter()).0;
        let b1 = mk(&[ins(0), ins(1), OpKind::DeleteMin]);
        let b2 = mk(&[OpKind::DeleteMin, ins(0)]);
        let combined = b1.combine(&b2);
        let assigns = a.assign(&combined);
        let parts = decompose(&assigns, &[&b1, &b2]);
        let mut seqs: Vec<u64> = Vec::new();
        for part in &parts {
            for g in part {
                seqs.extend(g.ins_seq.positions());
                seqs.extend(g.del_seq.positions());
            }
        }
        seqs.sort_unstable();
        assert_eq!(seqs, (1..=5).collect::<Vec<_>>());
    }
}
