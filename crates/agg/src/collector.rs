//! Waiting for children in an up-wave.

use dpq_core::NodeId;

/// Collects one value per expected child, in a fixed canonical order.
///
/// The order matters: Skeap's interval decomposition (Phase 3) must slice
/// the anchor's intervals for "own ops first, then child 1, then child 2" in
/// *exactly* the order used when the batches were combined on the way up
/// (Phase 1). Keeping children in construction order at every node makes the
/// two traversals agree.
#[derive(Debug, Clone)]
pub struct Collector<T> {
    expected: Vec<NodeId>,
    got: Vec<Option<T>>,
}

impl<T> Collector<T> {
    /// Expect one contribution from each listed child, kept in this order.
    pub fn new(children: &[NodeId]) -> Self {
        Collector {
            expected: children.to_vec(),
            got: children.iter().map(|_| None).collect(),
        }
    }

    /// Record a child's contribution. Returns `true` once every child has
    /// reported. Panics on a contribution from a non-child or a duplicate —
    /// both indicate protocol bugs the simulator should surface loudly.
    pub fn insert(&mut self, from: NodeId, value: T) -> bool {
        let idx = self
            .expected
            .iter()
            .position(|&c| c == from)
            .unwrap_or_else(|| panic!("unexpected contribution from {from}"));
        assert!(
            self.got[idx].is_none(),
            "duplicate contribution from {from}"
        );
        self.got[idx] = Some(value);
        self.is_complete()
    }

    /// Has every child reported?
    pub fn is_complete(&self) -> bool {
        self.got.iter().all(Option::is_some)
    }

    /// Drain the collected values in canonical child order, resetting the
    /// collector for the next wave.
    pub fn take(&mut self) -> Vec<(NodeId, T)> {
        assert!(self.is_complete(), "collector drained before completion");
        self.expected
            .iter()
            .zip(self.got.iter_mut())
            .map(|(&c, g)| (c, g.take().expect("checked complete")))
            .collect()
    }

    /// The children this collector waits for (canonical order).
    pub fn expected(&self) -> &[NodeId] {
        &self.expected
    }
}

impl<T: dpq_core::StateHash> dpq_core::StateHash for Collector<T> {
    fn state_hash(&self, h: &mut dpq_core::StateHasher) {
        self.expected.state_hash(h);
        self.got.state_hash(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completes_only_when_all_children_reported() {
        let mut c = Collector::new(&[NodeId(3), NodeId(7)]);
        assert!(!c.is_complete());
        assert!(!c.insert(NodeId(7), "b"));
        assert!(c.insert(NodeId(3), "a"));
        let vals = c.take();
        // Canonical order = construction order, not arrival order.
        assert_eq!(vals, vec![(NodeId(3), "a"), (NodeId(7), "b")]);
    }

    #[test]
    fn leaf_collector_is_immediately_complete() {
        let mut c: Collector<u32> = Collector::new(&[]);
        assert!(c.is_complete());
        assert!(c.take().is_empty());
    }

    #[test]
    fn take_resets_for_next_wave() {
        let mut c = Collector::new(&[NodeId(1)]);
        c.insert(NodeId(1), 10);
        assert_eq!(c.take(), vec![(NodeId(1), 10)]);
        assert!(!c.is_complete());
        c.insert(NodeId(1), 20);
        assert_eq!(c.take(), vec![(NodeId(1), 20)]);
    }

    #[test]
    #[should_panic(expected = "unexpected contribution")]
    fn foreign_contribution_panics() {
        let mut c = Collector::new(&[NodeId(1)]);
        c.insert(NodeId(2), 0);
    }

    #[test]
    #[should_panic(expected = "duplicate contribution")]
    fn duplicate_contribution_panics() {
        let mut c = Collector::new(&[NodeId(1)]);
        c.insert(NodeId(1), 0);
        c.insert(NodeId(1), 0);
    }
}
