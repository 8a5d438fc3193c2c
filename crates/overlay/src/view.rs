//! Per-node local views.
//!
//! A real process in the paper's model knows only its own state: its three
//! virtual nodes, their cycle neighbours (`pred`/`succ` variables, Appendix
//! A), and its parent/children in the aggregation tree — all locally
//! derivable. [`NodeView`] packages exactly that knowledge; protocol state
//! machines receive a `NodeView` at construction and nothing else about the
//! topology, which keeps the implementations honest about locality.
//!
//! Physically, the knowledge lives in a shared, immutable [`ViewTable`]
//! holding one struct-of-arrays column set for all nodes, and a `NodeView`
//! is a 16-byte handle (an `Arc` plus an index) into it. A simulation of a
//! million nodes pays ~44 bytes of table per node instead of ~300 bytes of
//! per-node copies; labels are rederived from the middle labels
//! (`l = m/2`, `r = (m+1)/2`, Definition A.1) rather than stored six times.
//! The locality story is unchanged: the accessors expose exactly the fields
//! the old by-value view carried, nothing more.

use crate::ldb::{virt_label, Topology, VirtId, VirtKind};
use crate::tree;
use dpq_core::NodeId;
use std::sync::Arc;

/// What a node knows about one of its own virtual nodes.
#[derive(Debug, Clone, Copy)]
pub struct VirtView {
    /// Which virtual node this view describes.
    pub id: VirtId,
    /// Its label.
    pub label: f64,
    /// Cycle predecessor.
    pub pred: VirtId,
    /// The predecessor's label.
    pub pred_label: f64,
    /// Cycle successor.
    pub succ: VirtId,
    /// The successor's label.
    pub succ_label: f64,
}

impl VirtView {
    /// Local ownership test: does this virtual node manage point `x`?
    /// (the DHT rule `v ≤ x < succ(v)`, wrapping at the cycle ends).
    pub fn manages(&self, x: f64) -> bool {
        if self.label < self.succ_label {
            self.label <= x && x < self.succ_label
        } else {
            x >= self.label || x < self.succ_label
        }
    }
}

/// A virtual-node id packed into 32 bits: real index in the high 30, kind
/// in the low 2. Caps the overlay at 2³⁰ real nodes.
fn pack(id: VirtId) -> u32 {
    debug_assert!(id.real.0 < (1 << 30));
    ((id.real.0 as u32) << 2) | id.kind.index() as u32
}

fn unpack(p: u32) -> VirtId {
    VirtId::new(NodeId((p >> 2) as u64), VirtKind::ALL[(p & 3) as usize])
}

/// Sentinel for "no parent" / "no child" in the packed columns.
const NONE: u32 = u32::MAX;

/// The struct-of-arrays columns backing every node's [`NodeView`]. Built
/// once per topology and shared by `Arc`; immutable thereafter.
#[derive(Debug)]
pub struct ViewTable {
    route_bits: u32,
    /// Middle label per real node (left/right labels are derived).
    middles: Vec<f64>,
    /// Packed cycle predecessor per `[node][kind]`.
    preds: Vec<[u32; 3]>,
    /// Packed cycle successor per `[node][kind]`.
    succs: Vec<[u32; 3]>,
    /// Parent real-node index in the contracted tree; `NONE` at the anchor.
    parents: Vec<u32>,
    /// Child real-node indices (≤ 2), `NONE`-padded.
    children: Vec<[u32; 2]>,
    /// The anchor's index.
    root: u32,
}

impl ViewTable {
    /// Build the shared columns from a topology.
    pub fn build(topo: &Topology) -> Arc<ViewTable> {
        let n = topo.n();
        assert!(n < (1 << 30), "ViewTable packs node ids into 30 bits");
        let mut preds = Vec::with_capacity(n);
        let mut succs = Vec::with_capacity(n);
        let mut parents = Vec::with_capacity(n);
        let mut children = Vec::with_capacity(n);
        for i in 0..n as u64 {
            let v = NodeId(i);
            preds.push(VirtKind::ALL.map(|k| pack(topo.pred(VirtId::new(v, k)).id)));
            succs.push(VirtKind::ALL.map(|k| pack(topo.succ(VirtId::new(v, k)).id)));
            parents.push(match tree::real_parent(topo, v) {
                Some(p) => p.0 as u32,
                None => NONE,
            });
            let kids = tree::real_children(topo, v);
            let mut slot = [NONE; 2];
            for (s, c) in slot.iter_mut().zip(&kids) {
                *s = c.0 as u32;
            }
            children.push(slot);
        }
        Arc::new(ViewTable {
            route_bits: topo.route_bits(),
            middles: topo.middles().to_vec(),
            preds,
            succs,
            parents,
            children,
            root: tree::anchor_real(topo).0 as u32,
        })
    }

    /// The view handle for node `v`.
    pub fn view(self: &Arc<Self>, v: NodeId) -> NodeView {
        assert!(v.index() < self.middles.len());
        NodeView {
            table: Arc::clone(self),
            me: v.0 as u32,
        }
    }
}

/// A node's children in the contracted tree (at most two), by value.
/// Derefs to `&[NodeId]`, so it drops into every place the old
/// `Vec<NodeId>` field went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Children {
    buf: [NodeId; 2],
    len: u8,
}

impl std::ops::Deref for Children {
    type Target = [NodeId];
    fn deref(&self) -> &[NodeId] {
        &self.buf[..self.len as usize]
    }
}

impl IntoIterator for Children {
    type Item = NodeId;
    type IntoIter = std::iter::Take<std::array::IntoIter<NodeId, 2>>;
    fn into_iter(self) -> Self::IntoIter {
        self.buf.into_iter().take(self.len as usize)
    }
}

impl<'a> IntoIterator for &'a Children {
    type Item = &'a NodeId;
    type IntoIter = std::slice::Iter<'a, NodeId>;
    fn into_iter(self) -> Self::IntoIter {
        self[..].iter()
    }
}

impl PartialEq<Vec<NodeId>> for Children {
    fn eq(&self, other: &Vec<NodeId>) -> bool {
        self[..] == other[..]
    }
}

/// The complete local knowledge of one real node: a handle into the shared
/// [`ViewTable`].
#[derive(Clone)]
pub struct NodeView {
    table: Arc<ViewTable>,
    me: u32,
}

impl std::fmt::Debug for NodeView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeView")
            .field("me", &self.me())
            .field("n", &self.n())
            .field("parent", &self.parent())
            .field("children", &self.children())
            .finish_non_exhaustive()
    }
}

impl NodeView {
    /// Extract views for every node, all sharing one table.
    pub fn extract_all(topo: &Topology) -> Vec<NodeView> {
        let table = ViewTable::build(topo);
        (0..topo.n() as u64)
            .map(|i| table.view(NodeId(i)))
            .collect()
    }

    /// This node's id.
    pub fn me(&self) -> NodeId {
        NodeId(self.me as u64)
    }

    /// Total number of real nodes. The paper's nodes learn n via a single
    /// aggregation phase (§2.2); we hand it out at construction.
    pub fn n(&self) -> usize {
        self.table.middles.len()
    }

    /// Number of de Bruijn bits used by point routing.
    pub fn route_bits(&self) -> u32 {
        self.table.route_bits
    }

    /// The view of one of this node's own virtual nodes.
    pub fn virt(&self, kind: VirtKind) -> VirtView {
        let t = &*self.table;
        let i = self.me as usize;
        let label_of = |id: VirtId| virt_label(id.kind, t.middles[id.real.index()]);
        let pred = unpack(t.preds[i][kind.index()]);
        let succ = unpack(t.succs[i][kind.index()]);
        VirtView {
            id: VirtId::new(self.me(), kind),
            label: virt_label(kind, t.middles[i]),
            pred,
            pred_label: label_of(pred),
            succ,
            succ_label: label_of(succ),
        }
    }

    /// Left/middle/right views, indexed by `VirtKind::index()`.
    pub fn virts(&self) -> [VirtView; 3] {
        VirtKind::ALL.map(|k| self.virt(k))
    }

    /// Parent in the contracted aggregation tree (`None` at the anchor).
    pub fn parent(&self) -> Option<NodeId> {
        match self.table.parents[self.me as usize] {
            NONE => None,
            p => Some(NodeId(p as u64)),
        }
    }

    /// Children in the contracted aggregation tree (≤ 2).
    pub fn children(&self) -> Children {
        let slot = self.table.children[self.me as usize];
        let len = slot.iter().take_while(|&&c| c != NONE).count();
        let mut buf = [NodeId(0); 2];
        for (b, &c) in buf.iter_mut().zip(&slot[..len]) {
            *b = NodeId(c as u64);
        }
        Children {
            buf,
            len: len as u8,
        }
    }

    /// The aggregation-tree root, which every node knows, as it knows n.
    pub fn root(&self) -> NodeId {
        NodeId(self.table.root as u64)
    }

    /// Is this node the aggregation-tree root?
    pub fn is_anchor(&self) -> bool {
        self.table.parents[self.me as usize] == NONE
    }

    /// Which of my virtual nodes (if any) manages point `x`.
    pub fn managing_virt(&self, x: f64) -> Option<VirtId> {
        VirtKind::ALL
            .into_iter()
            .map(|k| self.virt(k))
            .find(|vv| vv.manages(x))
            .map(|vv| vv.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ldb::Topology;

    #[test]
    fn views_agree_with_topology() {
        let t = Topology::new(20, 11);
        let views = NodeView::extract_all(&t);
        for v in 0..20u64 {
            let view = &views[v as usize];
            for vv in view.virts() {
                assert_eq!(vv.label, t.label(vv.id));
                assert_eq!(vv.succ, t.succ(vv.id).id);
                assert_eq!(vv.succ_label, t.succ(vv.id).label);
                assert_eq!(vv.pred, t.pred(vv.id).id);
                assert_eq!(vv.pred_label, t.pred(vv.id).label);
            }
            assert_eq!(view.parent(), tree::real_parent(&t, NodeId(v)));
            assert_eq!(view.root(), tree::anchor_real(&t));
            assert_eq!(view.children(), tree::real_children(&t, NodeId(v)));
        }
    }

    #[test]
    fn exactly_one_anchor() {
        let t = Topology::new(33, 12);
        let anchors = NodeView::extract_all(&t)
            .iter()
            .filter(|v| v.is_anchor())
            .count();
        assert_eq!(anchors, 1);
    }

    #[test]
    fn local_manages_matches_global_manager() {
        let t = Topology::new(15, 13);
        let views = NodeView::extract_all(&t);
        for i in 0..300 {
            let x = (i as f64 + 0.3) / 300.0;
            let global = t.manager_of(x);
            let local: Vec<_> = views.iter().filter_map(|v| v.managing_virt(x)).collect();
            assert_eq!(local, vec![global]);
        }
    }

    #[test]
    fn packed_virt_ids_roundtrip() {
        for real in [0u64, 1, 7, (1 << 30) - 1] {
            for kind in VirtKind::ALL {
                let id = VirtId::new(NodeId(real), kind);
                assert_eq!(unpack(pack(id)), id);
            }
        }
    }

    #[test]
    fn handles_share_one_table() {
        let t = Topology::new(10, 3);
        let views = NodeView::extract_all(&t);
        assert!(Arc::ptr_eq(&views[0].table, &views[9].table));
        assert_eq!(std::mem::size_of::<NodeView>(), 16);
    }
}
