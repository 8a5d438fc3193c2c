//! The aggregation tree (Lemma 2.2, Appendix A).
//!
//! Parent rules over virtual nodes: `p(m(v)) = l(v)`, `p(r(v)) = m(v)`,
//! `p(l(v)) = pred(l(v))`. Every parent has a strictly smaller label (left
//! labels sit in [0,½), right in [½,1)), so the relation is acyclic and
//! rooted at the globally smallest label — necessarily a left node — whose
//! real owner is the **anchor**.
//!
//! For the protocols we contract each real node's internal chain
//! `r(v) → m(v) → l(v)` into a single tree node, yielding a tree over real
//! nodes where each node has at most two children (`succ(l(v))` and
//! `succ(m(v))`, when those are left nodes) — exactly Lemma 2.2(i).

use crate::ldb::{Topology, VirtId, VirtKind};
use dpq_core::NodeId;

/// Parent of a virtual node in the aggregation tree (`None` for the root).
pub fn virt_parent(topo: &Topology, v: VirtId) -> Option<VirtId> {
    match v.kind {
        VirtKind::Middle => Some(VirtId::new(v.real, VirtKind::Left)),
        VirtKind::Right => Some(VirtId::new(v.real, VirtKind::Middle)),
        VirtKind::Left => {
            if topo.ring_pos(v) == 0 {
                None // globally smallest label: the root
            } else {
                Some(topo.pred(v).id)
            }
        }
    }
}

/// Children of a virtual node in the aggregation tree.
pub fn virt_children(topo: &Topology, v: VirtId) -> Vec<VirtId> {
    let mut out = Vec::with_capacity(2);
    match v.kind {
        VirtKind::Middle => out.push(VirtId::new(v.real, VirtKind::Right)),
        VirtKind::Left => out.push(VirtId::new(v.real, VirtKind::Middle)),
        VirtKind::Right => return out,
    }
    let s = topo.succ(v);
    // The wrap successor of the maximum-label node is the root; it is nobody's
    // child even though it is a left node.
    if s.id.kind == VirtKind::Left && topo.ring_pos(s.id) != 0 {
        out.push(s.id);
    }
    out
}

/// The anchor: the real node owning the smallest-label virtual node.
pub fn anchor_real(topo: &Topology) -> NodeId {
    let root = topo.ring()[0];
    debug_assert_eq!(root.id.kind, VirtKind::Left, "root must be a left node");
    root.id.real
}

/// Parent of a real node in the contracted tree (`None` for the anchor).
pub fn real_parent(topo: &Topology, v: NodeId) -> Option<NodeId> {
    let l = VirtId::new(v, VirtKind::Left);
    virt_parent(topo, l).map(|p| p.real)
}

/// Children of a real node in the contracted tree (at most two).
pub fn real_children(topo: &Topology, v: NodeId) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(2);
    for kind in [VirtKind::Left, VirtKind::Middle] {
        let s = topo.succ(VirtId::new(v, kind));
        if s.id.kind == VirtKind::Left && topo.ring_pos(s.id) != 0 {
            out.push(s.id.real);
        }
    }
    out
}

/// Depth of every real node (anchor = 0), computed by following parents.
pub fn real_depths(topo: &Topology) -> Vec<u32> {
    let n = topo.n();
    let mut depth = vec![u32::MAX; n];
    depth[anchor_real(topo).index()] = 0;
    for start in 0..n {
        if depth[start] != u32::MAX {
            continue;
        }
        // Walk up until a known depth, then unwind.
        let mut chain = Vec::new();
        let mut cur = NodeId(start as u64);
        while depth[cur.index()] == u32::MAX {
            chain.push(cur);
            cur = real_parent(topo, cur).expect("non-anchor node without parent");
        }
        let mut d = depth[cur.index()];
        for &v in chain.iter().rev() {
            d += 1;
            depth[v.index()] = d;
        }
    }
    depth
}

/// Height of the contracted tree (max depth). Corollary A.4: O(log n) w.h.p.
pub fn real_height(topo: &Topology) -> u32 {
    real_depths(topo).into_iter().max().unwrap_or(0)
}

/// Structural validation used by tests and by membership changes: every
/// non-anchor real node has a parent that lists it as a child, child counts
/// are ≤ 2, and all nodes are reachable from the anchor.
pub fn validate(topo: &Topology) -> Result<(), String> {
    let n = topo.n();
    let anchor = anchor_real(topo);
    let mut reach = vec![false; n];
    let mut stack = vec![anchor];
    reach[anchor.index()] = true;
    let mut edges = 0usize;
    while let Some(v) = stack.pop() {
        let kids = real_children(topo, v);
        if kids.len() > 2 {
            return Err(format!("{v} has {} children", kids.len()));
        }
        for c in kids {
            if real_parent(topo, c) != Some(v) {
                return Err(format!("parent/child mismatch at {v} -> {c}"));
            }
            if reach[c.index()] {
                return Err(format!("{c} reached twice — not a tree"));
            }
            reach[c.index()] = true;
            edges += 1;
            stack.push(c);
        }
    }
    if !reach.iter().all(|&r| r) {
        return Err("tree does not span all real nodes".into());
    }
    if edges != n - 1 {
        return Err(format!("tree has {edges} edges for {n} nodes"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ldb::Topology;

    #[test]
    fn virt_parent_labels_strictly_decrease() {
        let t = Topology::new(40, 7);
        for vn in t.ring() {
            if let Some(p) = virt_parent(&t, vn.id) {
                assert!(
                    t.label(p) < vn.label,
                    "parent {} of {} has larger label",
                    p,
                    vn.id
                );
            } else {
                assert_eq!(t.ring_pos(vn.id), 0);
            }
        }
    }

    #[test]
    fn virt_parent_child_consistency() {
        let t = Topology::new(23, 8);
        for vn in t.ring() {
            for c in virt_children(&t, vn.id) {
                assert_eq!(virt_parent(&t, c), Some(vn.id));
            }
            if let Some(p) = virt_parent(&t, vn.id) {
                assert!(
                    virt_children(&t, p).contains(&vn.id),
                    "{} missing from children of {}",
                    vn.id,
                    p
                );
            }
        }
    }

    #[test]
    fn contracted_tree_is_valid_across_sizes_and_seeds() {
        for n in [1, 2, 3, 5, 16, 100, 333] {
            for seed in 0..5 {
                let t = Topology::new(n, seed);
                validate(&t).unwrap_or_else(|e| panic!("n={n} seed={seed}: {e}"));
            }
        }
    }

    #[test]
    fn figure2_two_node_example() {
        // Figure 2 shows a 6-virtual-node LDB for two real nodes where the
        // bold tree edges are: l(u) root; m(u) under l(u); l(v) under l(u) or
        // m(u) depending on the cycle; r under m. We instantiate labels that
        // reproduce the figure's ordering l(u) < l(v) < m(u) < m(v) < r(u) <
        // r(v), i.e. middles u=0.5? — choose u.m = 0.4, v.m = 0.6:
        // l(u)=0.2 < l(v)=0.3 < m(u)=0.4 < m(v)=0.6 < r(u)=0.7 < r(v)=0.8.
        let t = Topology::from_middles(vec![0.4, 0.6]);
        let u = NodeId(0);
        let v = NodeId(1);
        assert_eq!(anchor_real(&t), u);
        // l(v) = succ(l(u)) is a left node, so v hangs under u.
        assert_eq!(real_parent(&t, v), Some(u));
        assert_eq!(real_children(&t, u), vec![v]);
        assert!(real_children(&t, v).is_empty());
        // Virtual-level: children of l(u) are m(u) and l(v).
        let lu = VirtId::new(u, VirtKind::Left);
        let kids = virt_children(&t, lu);
        assert!(kids.contains(&VirtId::new(u, VirtKind::Middle)));
        assert!(kids.contains(&VirtId::new(v, VirtKind::Left)));
        validate(&t).unwrap();
    }

    #[test]
    fn height_grows_logarithmically() {
        // Corollary A.4. Average over seeds; demand height ≤ c·log2(n) with
        // a generous constant, and that it actually grows with n.
        let avg_height = |n: usize| -> f64 {
            (0..10)
                .map(|seed| real_height(&Topology::new(n, 1000 + seed)) as f64)
                .sum::<f64>()
                / 10.0
        };
        let h64 = avg_height(64);
        let h1024 = avg_height(1024);
        assert!(h64 < 8.0 * 6.0, "height at n=64 is {h64}");
        assert!(h1024 < 8.0 * 10.0, "height at n=1024 is {h1024}");
        assert!(h1024 > h64, "height should grow with n");
        // And clearly sublinear:
        assert!(h1024 < 200.0);
    }

    #[test]
    fn depths_of_single_node() {
        let t = Topology::new(1, 0);
        assert_eq!(real_depths(&t), vec![0]);
        assert_eq!(real_height(&t), 0);
    }
}
