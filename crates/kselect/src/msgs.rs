//! KSelect's message alphabet.
//!
//! Two families: *wave* traffic on the aggregation tree (down commands from
//! the anchor, up responses toward it) and the *sorting sub-protocol* of
//! Phase 2b (candidate placement, copy distribution over the induced de
//! Bruijn trees, pairwise comparison rendezvous, and result propagation).
//! Every message is O(log n) bits — Theorem 4.2's message-size claim — which
//! the experiments verify by measuring `BitSize` on the wire.

use dpq_core::{wire, Key, NodeId};
use dpq_overlay::routing::{HopMsg, RouteMsg};

/// Down-wave commands (anchor → leaves).
#[derive(Debug, Clone)]
pub enum Cmd {
    /// Phase 1: compute the local ⌊k/n⌋-th / ⌈k/n⌉-th candidate bounds.
    P1Bounds {
        /// Current remaining rank v₀.k.
        k: u64,
        /// Number of nodes.
        n: u64,
    },
    /// Phase 1: prune candidates outside `[pmin, pmax]`, report counts.
    P1Prune {
        /// Global minimum of the local lower bounds.
        pmin: Key,
        /// Global maximum of the local upper bounds.
        pmax: Key,
    },
    /// Phase 2a / Phase 3 entry: optionally prune to the window decided in
    /// the previous iteration, then sample candidates with probability
    /// `prob` (1.0 in Phase 3).
    Sample {
        /// Sorting epoch this sample opens (scopes all sub-protocol state).
        epoch: u64,
        /// Window `[c_l, c_r]` decided by the previous iteration, if any.
        prune: Option<(Key, Key)>,
        /// Per-candidate selection probability (1.0 in Phase 3).
        prob: f64,
    },
    /// Phase 2b: the subtree's slice of positions [1,n'] plus the orders of
    /// interest (`lo`/`hi` are l and r in Phase 2, `lo == hi == k'` in
    /// Phase 3).
    Positions {
        /// Sorting epoch.
        epoch: u64,
        /// Lower order of interest (0 = none).
        lo: u64,
        /// Upper order of interest (0 = none).
        hi: u64,
        /// First position of this subtree's slice.
        first: u64,
        /// Last position of this subtree's slice.
        last: u64,
        /// Global sample size n' (copy-tree roots distribute [1, n']).
        n_prime: u64,
    },
    /// Phase 2c: count candidates strictly below `cl` / strictly above `cr`.
    WindowCount {
        /// The candidate at order l (or `Key::MIN` when l < 1).
        cl: Key,
        /// The candidate at order r (or `Key::MAX` when r > n').
        cr: Key,
    },
    /// Final broadcast of the selected element's key.
    Announce {
        /// The rank-k key.
        result: Key,
    },
}

wire!(enum Cmd {
    0 => P1Bounds { k, n },
    1 => P1Prune { pmin, pmax },
    2 => Sample { epoch, prune, prob },
    3 => Positions { epoch, lo, hi, first, last, n_prime },
    4 => WindowCount { cl, cr },
    5 => Announce { result },
});

/// Up-wave responses (leaves → anchor), combined at every inner node.
#[derive(Debug, Clone)]
pub enum Rsp {
    /// Phase 1: subtree min of local Pmins / max of local Pmaxs.
    MinMax {
        /// Subtree minimum of the ⌊k/n⌋-th local candidates.
        pmin: Key,
        /// Subtree maximum of the ⌈k/n⌉-th local candidates.
        pmax: Key,
    },
    /// Phase 1 prune & Phase 2c: candidates removed/counted below & above.
    Counts {
        /// Candidates below the window in this subtree.
        below: u64,
        /// Candidates above the window in this subtree.
        above: u64,
    },
    /// Phase 2a: number of sampled candidates in the subtree.
    SampleCount {
        /// Sampled-candidate count.
        count: u64,
    },
    /// Phase 2b completion: the candidates whose computed order hit the
    /// anchor's `lo` / `hi` orders of interest (at most one each, orders
    /// being a permutation).
    Hits {
        /// The candidate whose order equals `lo`, once computed.
        lo: Option<Key>,
        /// The candidate whose order equals `hi`, once computed.
        hi: Option<Key>,
    },
}

wire!(enum Rsp {
    0 => MinMax { pmin, pmax },
    1 => Counts { below, above },
    2 => SampleCount { count },
    3 => Hits { lo, hi },
});

/// A sampled candidate travelling to the node responsible for its position
/// (routed to `hash(KSELECT_POS, pos)`).
#[derive(Debug, Clone)]
pub struct Place {
    /// Sorting epoch.
    pub epoch: u64,
    /// Assigned position i ∈ [1, n'].
    pub pos: u64,
    /// The candidate's key.
    pub key: Key,
    /// The node that sampled the candidate — receives the computed order.
    pub origin: NodeId,
    /// Total number of sampled candidates (copies to distribute).
    pub n_prime: u64,
}

wire!(struct Place { epoch, pos, key, origin, n_prime });

/// A copy-range `([a,b], c_i)` travelling one de Bruijn hop down the induced
/// tree T(v_i) (§4.3's recursive halving).
#[derive(Debug, Clone)]
pub struct Split {
    /// Sorting epoch.
    pub epoch: u64,
    /// Candidate position i.
    pub cand: u64,
    /// The candidate's key (copied with every range).
    pub key: Key,
    /// Copy index range still to distribute: inclusive lower end.
    pub a: u64,
    /// Inclusive upper end of the range.
    pub b: u64,
    /// Copy-tree parent: where the aggregated comparison vector returns.
    pub parent: NodeId,
    /// The parent's own copy index (sentinel [`ROOT_PARENT`] at the root).
    pub parent_copy: u64,
}

/// Sentinel `parent_copy` marking the root of a copy tree.
pub const ROOT_PARENT: u64 = u64::MAX;

// `parent_copy` is capped at 2⁶², so the ROOT_PARENT sentinel costs 125 bits, not 127.
wire!(struct Split { epoch, cand, key, a, b, parent, #[bits(capped)] parent_copy });

/// Copy c_{i,j} travelling to the rendezvous `h(i,j)`.
#[derive(Debug, Clone)]
pub struct Compare {
    /// Sorting epoch.
    pub epoch: u64,
    /// Candidate position i.
    pub cand: u64,
    /// Copy index j.
    pub copy: u64,
    /// The candidate's key, compared at the rendezvous.
    pub key: Key,
    /// The copy holder v_{i,j}, receiving the comparison vector.
    pub back: NodeId,
}

wire!(struct Compare { epoch, cand, copy, key, back });

/// Everything a KSelect node sends or receives.
#[derive(Debug, Clone)]
pub enum KMsg {
    /// Anchor → leaves wave command.
    Down(Cmd),
    /// Leaves → anchor combined response.
    Up(Rsp),
    /// Sorting: candidate → position owner.
    Place(RouteMsg<Place>),
    /// Sorting: copy-range hop down a copy tree.
    Split(HopMsg<Split>),
    /// Sorting: copy → rendezvous node.
    Compare(RouteMsg<Compare>),
    /// Rendezvous → copy holder: (smaller-than-me, larger-than-me) ∈ {0,1}².
    CmpResult {
        /// Sorting epoch.
        epoch: u64,
        /// Candidate position i.
        cand: u64,
        /// Copy index j.
        copy: u64,
        /// 1 if the compared candidate is smaller than candidate i.
        smaller: u64,
        /// 1 if the compared candidate is larger than candidate i.
        larger: u64,
    },
    /// Copy-tree child → parent: aggregated comparison vector.
    CopyAgg {
        /// Sorting epoch.
        epoch: u64,
        /// Candidate position i.
        cand: u64,
        /// The parent's own copy index (locates its `CopyState`).
        parent_copy: u64,
        /// Subtree total of smaller-than-i verdicts.
        smaller: u64,
        /// Subtree total of larger-than-i verdicts.
        larger: u64,
    },
    /// Position owner → sampling origin: the candidate's computed order.
    Order {
        /// Sorting epoch.
        epoch: u64,
        /// The candidate's key.
        key: Key,
        /// Its order within the sample: (#smaller) + 1.
        order: u64,
    },
}

wire!(enum KMsg {
    0 => Down(c) as "kselect.down",
    1 => Up(rsp) as "kselect.up",
    2 => Place(m) as "kselect.place",
    3 => Split(m) as "kselect.split",
    4 => Compare(m) as "kselect.compare",
    5 => CmpResult { epoch, cand, copy, smaller, larger } as "kselect.cmp_result",
    // `parent_copy` is capped at 2⁶² as in `Split`: ROOT_PARENT costs 125 bits.
    6 => CopyAgg { epoch, cand, #[bits(capped)] parent_copy, smaller, larger } as "kselect.copy_agg",
    7 => Order { epoch, key, order } as "kselect.order",
});

impl dpq_core::StateHash for Rsp {
    fn state_hash(&self, h: &mut dpq_core::StateHasher) {
        match self {
            Rsp::MinMax { pmin, pmax } => {
                h.write_u64(1);
                pmin.state_hash(h);
                pmax.state_hash(h);
            }
            Rsp::Counts { below, above } => {
                h.write_u64(2);
                h.write_u64(*below);
                h.write_u64(*above);
            }
            Rsp::SampleCount { count } => {
                h.write_u64(3);
                h.write_u64(*count);
            }
            Rsp::Hits { lo, hi } => {
                h.write_u64(4);
                lo.state_hash(h);
                hi.state_hash(h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpq_core::BitSize;
    use dpq_core::{ElemId, Priority};

    #[test]
    fn all_messages_are_logarithmic_sized() {
        // Theorem 4.2: O(log n) bit messages. Every variant with "large"
        // contents (big counts, big ids) must stay well under a kilobit.
        let key = Key::new(Priority(1 << 50), ElemId(1 << 60));
        let msgs = [
            KMsg::Down(Cmd::P1Bounds {
                k: 1 << 50,
                n: 1 << 20,
            }),
            KMsg::Down(Cmd::P1Prune {
                pmin: key,
                pmax: key,
            }),
            KMsg::Down(Cmd::Sample {
                epoch: 1000,
                prune: Some((key, key)),
                prob: 0.5,
            }),
            KMsg::Up(Rsp::MinMax {
                pmin: key,
                pmax: key,
            }),
            KMsg::Up(Rsp::Counts {
                below: 1 << 40,
                above: 1 << 40,
            }),
            KMsg::Up(Rsp::Hits {
                lo: Some(key),
                hi: Some(key),
            }),
            KMsg::Order {
                epoch: 10,
                key,
                order: 1 << 30,
            },
        ];
        for m in &msgs {
            assert!(m.bits() < 1024, "{m:?} is {} bits", m.bits());
        }
    }
}
