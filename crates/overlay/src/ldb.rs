//! The Linearized de Bruijn network (Definition A.1).
//!
//! Each real node `v` emulates three virtual nodes: middle `m(v)` at a
//! pseudorandom label in [0,1), left `l(v) = m(v)/2` and right
//! `r(v) = (m(v)+1)/2`. All virtual nodes form a sorted cycle; consecutive
//! virtual nodes are linked by *linear edges*, virtual nodes of the same
//! real node by *virtual edges* (local, free). Consequently every left label
//! lies in [0, ½) and every right label in [½, 1) — the fact that makes the
//! aggregation tree of Appendix A acyclic.

use dpq_core::hashing::{domains, hash_to_unit, split_mix64};
use dpq_core::{wire, NodeId};

/// Which of a real node's three virtual nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VirtKind {
    /// Label `m/2`.
    Left,
    /// Label `m` (the hashed node label).
    Middle,
    /// Label `(m+1)/2`.
    Right,
}

wire!(enum VirtKind { 0 => Left {}, 1 => Middle {}, 2 => Right {} });

impl VirtKind {
    /// All three kinds, in label-derivation order.
    pub const ALL: [VirtKind; 3] = [VirtKind::Left, VirtKind::Middle, VirtKind::Right];

    /// Dense index (Left = 0, Middle = 1, Right = 2).
    pub fn index(self) -> usize {
        match self {
            VirtKind::Left => 0,
            VirtKind::Middle => 1,
            VirtKind::Right => 2,
        }
    }
}

/// Identity of a virtual node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VirtId {
    /// The emulating real node.
    pub real: NodeId,
    /// Which of its three virtual nodes.
    pub kind: VirtKind,
}

wire!(struct VirtId { real, kind });

impl VirtId {
    /// The `kind` virtual node of `real`.
    pub fn new(real: NodeId, kind: VirtKind) -> Self {
        VirtId { real, kind }
    }
}

impl std::fmt::Display for VirtId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let k = match self.kind {
            VirtKind::Left => "l",
            VirtKind::Middle => "m",
            VirtKind::Right => "r",
        };
        write!(f, "{k}({})", self.real)
    }
}

/// A virtual node with its position on the cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VirtNode {
    /// Which virtual node.
    pub id: VirtId,
    /// Its position on the [0,1) cycle.
    pub label: f64,
}

/// The label of a virtual node given its real node's middle label
/// (Definition A.1).
pub fn virt_label(kind: VirtKind, middle: f64) -> f64 {
    match kind {
        VirtKind::Left => middle / 2.0,
        VirtKind::Middle => middle,
        VirtKind::Right => (middle + 1.0) / 2.0,
    }
}

/// The assembled overlay: the sorted cycle of all `3n` virtual nodes.
///
/// Built centrally for the simulator (network *construction* is Appendix A
/// bootstrap material); [`crate::membership`] provides the incremental
/// join/leave path and accounts for its message costs.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Middle label per real node, indexed by `NodeId::index()`.
    middles: Vec<f64>,
    /// All virtual nodes sorted by label — the cycle, wrap at the ends.
    ring: Vec<VirtNode>,
    /// Ring position per virtual node: `[real][kind]`.
    pos: Vec<[usize; 3]>,
}

impl Topology {
    /// Build an overlay of `n` real nodes with labels derived from a
    /// pseudorandom hash of the node id (salted by `seed` so experiments can
    /// sample the label space).
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n >= 1, "overlay needs at least one node");
        let salt = split_mix64(seed);
        let middles = (0..n as u64)
            .map(|id| hash_to_unit(domains::LABEL, salt ^ split_mix64(id)))
            .collect();
        Self::from_middles(middles)
    }

    /// Build from explicit middle labels (tests, membership changes).
    /// Labels must be distinct and in [0,1).
    pub fn from_middles(middles: Vec<f64>) -> Self {
        let n = middles.len();
        assert!(n >= 1);
        let mut ring = Vec::with_capacity(3 * n);
        for (i, &m) in middles.iter().enumerate() {
            assert!((0.0..1.0).contains(&m), "middle label out of range");
            for kind in VirtKind::ALL {
                ring.push(VirtNode {
                    id: VirtId::new(NodeId(i as u64), kind),
                    label: virt_label(kind, m),
                });
            }
        }
        ring.sort_by(|a, b| a.label.total_cmp(&b.label));
        for w in ring.windows(2) {
            assert!(
                w[0].label < w[1].label,
                "virtual label collision at {} — perturb the seed",
                w[0].label
            );
        }
        let mut pos = vec![[usize::MAX; 3]; n];
        for (p, vn) in ring.iter().enumerate() {
            pos[vn.id.real.index()][vn.id.kind.index()] = p;
        }
        Topology { middles, ring, pos }
    }

    /// Number of real nodes.
    pub fn n(&self) -> usize {
        self.middles.len()
    }

    /// Middle label of a real node.
    pub fn middle(&self, v: NodeId) -> f64 {
        self.middles[v.index()]
    }

    /// All middle labels, indexed by `NodeId::index()`.
    pub fn middles(&self) -> &[f64] {
        &self.middles
    }

    /// Label of a virtual node.
    pub fn label(&self, id: VirtId) -> f64 {
        virt_label(id.kind, self.middles[id.real.index()])
    }

    /// Ring position (0 = smallest label).
    pub fn ring_pos(&self, id: VirtId) -> usize {
        self.pos[id.real.index()][id.kind.index()]
    }

    /// The sorted cycle.
    pub fn ring(&self) -> &[VirtNode] {
        &self.ring
    }

    /// Successor on the cycle (wraps).
    pub fn succ(&self, id: VirtId) -> VirtNode {
        let p = self.ring_pos(id);
        self.ring[(p + 1) % self.ring.len()]
    }

    /// Predecessor on the cycle (wraps).
    pub fn pred(&self, id: VirtId) -> VirtNode {
        let p = self.ring_pos(id);
        self.ring[(p + self.ring.len() - 1) % self.ring.len()]
    }

    /// The virtual node managing point `x`: the one with the greatest label
    /// ≤ x, wrapping to the maximum-label node when x precedes every label.
    /// This is the DHT's `v ≤ k < succ(v)` rule (Appendix A).
    pub fn manager_of(&self, x: f64) -> VirtId {
        debug_assert!((0.0..1.0).contains(&x));
        // partition_point: first index with label > x.
        let idx = self.ring.partition_point(|vn| vn.label <= x);
        if idx == 0 {
            self.ring[self.ring.len() - 1].id
        } else {
            self.ring[idx - 1].id
        }
    }

    /// Does virtual node `id` manage point `x`? Local check using only the
    /// node's own label and its successor's (what a real process knows).
    pub fn manages(&self, id: VirtId, x: f64) -> bool {
        let z = self.label(id);
        let s = self.succ(id).label;
        if z < s {
            z <= x && x < s
        } else {
            // Wrap pair (the maximum-label node): manages [z,1) ∪ [0,s).
            x >= z || x < s
        }
    }

    /// Number of de Bruijn bits routing uses: enough that the truncation
    /// error after the bit-prepending walk is below the expected virtual
    /// node spacing (Lemma A.2's d ≈ log n).
    pub fn route_bits(&self) -> u32 {
        let vn = (3 * self.n()).max(2) as f64;
        (vn.log2().ceil() as u32 + 2).min(52)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn left_and_right_labels_live_in_their_halves() {
        let t = Topology::new(64, 1);
        for vn in t.ring() {
            match vn.id.kind {
                VirtKind::Left => assert!(vn.label < 0.5),
                VirtKind::Right => assert!(vn.label >= 0.5),
                VirtKind::Middle => {}
            }
        }
    }

    #[test]
    fn ring_is_sorted_and_complete() {
        let t = Topology::new(17, 2);
        assert_eq!(t.ring().len(), 51);
        for w in t.ring().windows(2) {
            assert!(w[0].label < w[1].label);
        }
    }

    #[test]
    fn pred_succ_are_inverse_and_wrap() {
        let t = Topology::new(9, 3);
        for vn in t.ring() {
            let s = t.succ(vn.id);
            assert_eq!(t.pred(s.id).id, vn.id);
        }
        let first = t.ring()[0];
        let last = t.ring()[t.ring().len() - 1];
        assert_eq!(t.pred(first.id).id, last.id);
        assert_eq!(t.succ(last.id).id, first.id);
    }

    #[test]
    fn manager_is_predecessor_of_point() {
        let t = Topology::new(25, 4);
        for i in 0..1000 {
            let x = i as f64 / 1000.0;
            let mgr = t.manager_of(x);
            assert!(t.manages(mgr, x), "manager_of and manages disagree at {x}");
            assert!(t.label(mgr) <= x || x < t.ring()[0].label);
        }
    }

    #[test]
    fn manages_partitions_the_unit_interval() {
        let t = Topology::new(7, 5);
        for i in 0..500 {
            let x = (i as f64 + 0.5) / 500.0;
            let managers: Vec<_> = t.ring().iter().filter(|vn| t.manages(vn.id, x)).collect();
            assert_eq!(
                managers.len(),
                1,
                "point {x} has {} managers",
                managers.len()
            );
        }
    }

    #[test]
    fn labels_follow_the_definition() {
        let t = Topology::from_middles(vec![0.3, 0.8]);
        assert_eq!(t.label(VirtId::new(NodeId(0), VirtKind::Left)), 0.15);
        assert_eq!(t.label(VirtId::new(NodeId(0), VirtKind::Right)), 0.65);
        assert_eq!(t.label(VirtId::new(NodeId(1), VirtKind::Left)), 0.4);
        assert_eq!(t.label(VirtId::new(NodeId(1), VirtKind::Right)), 0.9);
    }

    #[test]
    fn single_node_overlay_is_valid() {
        let t = Topology::new(1, 6);
        assert_eq!(t.ring().len(), 3);
        let m = VirtId::new(NodeId(0), VirtKind::Middle);
        assert_eq!(t.succ(t.succ(t.succ(m).id).id).id, m);
    }

    #[test]
    #[should_panic(expected = "collision")]
    fn duplicate_labels_are_rejected() {
        Topology::from_middles(vec![0.4, 0.4]);
    }

    #[test]
    fn smallest_virtual_node_is_a_left_node() {
        // The aggregation-tree anchor argument relies on this.
        for seed in 0..20 {
            let t = Topology::new(50, seed);
            assert_eq!(t.ring()[0].id.kind, VirtKind::Left);
        }
    }
}
