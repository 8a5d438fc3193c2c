//! Identifiers for nodes and heap elements.
//!
//! The paper identifies each process by a unique id `v.id ∈ ℕ` (§1.1) and
//! assumes elements can be totally ordered via a tiebreaker (§1.2). We make
//! both concrete as newtyped `u64`s so they cannot be confused with each
//! other or with raw counters.

/// Identifier of a process participating in the overlay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u64);

impl NodeId {
    /// Index into dense per-node arrays (nodes are numbered `0..n` in the
    /// simulator; overlay labels are derived by hashing this id).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Globally unique identifier of a heap element.
///
/// Uniqueness is what turns the paper's "tiebreaker" into a concrete total
/// order: elements compare by `(priority, ElemId)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ElemId(pub u64);

impl ElemId {
    /// Build an element id unique across the cluster from the inserting
    /// node's id and a local sequence number. The node id occupies the high
    /// 24 bits, which caps clusters at 2^24 nodes and per-node insert counts
    /// at 2^40 — both far above anything the polynomial-storage model of the
    /// paper (or this simulator) can reach.
    #[inline]
    pub fn compose(node: NodeId, local_seq: u64) -> Self {
        debug_assert!(node.0 < (1 << 24), "node id out of range");
        debug_assert!(local_seq < (1 << 40), "local sequence out of range");
        ElemId((node.0 << 40) | local_seq)
    }

    /// The node that created this element id.
    #[inline]
    pub fn origin(self) -> NodeId {
        NodeId(self.0 >> 40)
    }
}

impl std::fmt::Display for ElemId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}.{}", self.origin().0, self.0 & ((1 << 40) - 1))
    }
}

crate::wire!(struct NodeId(v));
crate::wire!(struct ElemId(v));

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compose_roundtrips_origin() {
        let id = ElemId::compose(NodeId(42), 7);
        assert_eq!(id.origin(), NodeId(42));
    }

    #[test]
    fn compose_is_injective_across_nodes_and_seqs() {
        let a = ElemId::compose(NodeId(1), 0);
        let b = ElemId::compose(NodeId(0), 1 << 39);
        let c = ElemId::compose(NodeId(1), 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn node_ids_order_by_value() {
        assert!(NodeId(3) < NodeId(10));
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(NodeId(5).to_string(), "v5");
        assert_eq!(ElemId::compose(NodeId(2), 9).to_string(), "e2.9");
    }
}
