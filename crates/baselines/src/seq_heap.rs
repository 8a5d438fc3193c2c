//! Sequential reference heaps — the oracles the semantics checkers replay
//! histories against.

use dpq_core::{Element, Key};
use std::collections::{BTreeMap, VecDeque};

/// A sequential MinHeap with a defined tie-break rule.
pub trait ReferenceHeap {
    /// Insert an element.
    fn insert(&mut self, e: Element);
    /// Remove and return the minimum, or `None` (the paper's ⊥).
    fn delete_min(&mut self) -> Option<Element>;
    /// Elements currently held.
    fn len(&self) -> usize;
    /// Is the heap empty?
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Ties within a priority break by *insertion order* (FIFO). This is
/// exactly Skeap's matching rule: the anchor consumes the oldest occupied
/// position of the lowest non-empty priority (§3.2.2).
#[derive(Debug, Default, Clone)]
pub struct FifoHeap {
    by_prio: BTreeMap<u64, VecDeque<Element>>,
    len: usize,
}

impl FifoHeap {
    /// An empty heap.
    pub fn new() -> Self {
        FifoHeap::default()
    }
}

impl ReferenceHeap for FifoHeap {
    fn insert(&mut self, e: Element) {
        self.by_prio.entry(e.prio.0).or_default().push_back(e);
        self.len += 1;
    }

    fn delete_min(&mut self) -> Option<Element> {
        let (&p, q) = self.by_prio.iter_mut().next()?;
        let e = q.pop_front().expect("queues are non-empty");
        if q.is_empty() {
            self.by_prio.remove(&p);
        }
        self.len -= 1;
        Some(e)
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// Ties within a priority break by *reverse* insertion order (LIFO) — the
/// discipline of the distributed stack of [FSS18b] that the queue/heap
/// family extends to. With a single priority this is exactly a stack.
#[derive(Debug, Default, Clone)]
pub struct LifoHeap {
    by_prio: BTreeMap<u64, VecDeque<Element>>,
    len: usize,
}

impl LifoHeap {
    /// An empty heap.
    pub fn new() -> Self {
        LifoHeap::default()
    }
}

impl ReferenceHeap for LifoHeap {
    fn insert(&mut self, e: Element) {
        self.by_prio.entry(e.prio.0).or_default().push_back(e);
        self.len += 1;
    }

    fn delete_min(&mut self) -> Option<Element> {
        let (&p, q) = self.by_prio.iter_mut().next()?;
        let e = q.pop_back().expect("queues are non-empty");
        if q.is_empty() {
            self.by_prio.remove(&p);
        }
        self.len -= 1;
        Some(e)
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// Ties break by the composite key `(priority, element id)` — the total
/// order Seap and KSelect rank by (§1.2's tiebreaker made concrete).
#[derive(Debug, Default, Clone)]
pub struct KeyHeap {
    by_key: BTreeMap<Key, Element>,
}

impl KeyHeap {
    /// An empty heap.
    pub fn new() -> Self {
        KeyHeap::default()
    }
}

impl ReferenceHeap for KeyHeap {
    fn insert(&mut self, e: Element) {
        let prev = self.by_key.insert(e.key(), e);
        assert!(prev.is_none(), "duplicate element key");
    }

    fn delete_min(&mut self) -> Option<Element> {
        let (&k, _) = self.by_key.iter().next()?;
        self.by_key.remove(&k)
    }

    fn len(&self) -> usize {
        self.by_key.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpq_core::{ElemId, NodeId, Priority};

    fn elem(node: u64, seq: u64, prio: u64) -> Element {
        Element::new(ElemId::compose(NodeId(node), seq), Priority(prio), 0)
    }

    #[test]
    fn fifo_heap_pops_lowest_priority_first() {
        let mut h = FifoHeap::new();
        h.insert(elem(0, 0, 5));
        h.insert(elem(0, 1, 1));
        h.insert(elem(0, 2, 3));
        assert_eq!(h.delete_min().unwrap().prio, Priority(1));
        assert_eq!(h.delete_min().unwrap().prio, Priority(3));
        assert_eq!(h.delete_min().unwrap().prio, Priority(5));
        assert!(h.delete_min().is_none());
    }

    #[test]
    fn fifo_heap_breaks_ties_by_insertion_order() {
        let mut h = FifoHeap::new();
        h.insert(elem(1, 0, 2)); // inserted first
        h.insert(elem(0, 0, 2)); // smaller id, inserted second
        assert_eq!(h.delete_min().unwrap().id, ElemId::compose(NodeId(1), 0));
        assert_eq!(h.delete_min().unwrap().id, ElemId::compose(NodeId(0), 0));
    }

    #[test]
    fn lifo_heap_pops_newest_within_lowest_priority() {
        let mut h = LifoHeap::new();
        h.insert(elem(0, 0, 2));
        h.insert(elem(0, 1, 2));
        h.insert(elem(0, 2, 5));
        assert_eq!(h.delete_min().unwrap().id, ElemId::compose(NodeId(0), 1));
        assert_eq!(h.delete_min().unwrap().id, ElemId::compose(NodeId(0), 0));
        assert_eq!(h.delete_min().unwrap().prio, Priority(5));
        assert!(h.delete_min().is_none());
    }

    #[test]
    fn lifo_heap_with_one_priority_is_a_stack() {
        let mut h = LifoHeap::new();
        for i in 0..5 {
            h.insert(elem(0, i, 1));
        }
        for i in (0..5).rev() {
            assert_eq!(h.delete_min().unwrap().id, ElemId::compose(NodeId(0), i));
        }
    }

    #[test]
    fn key_heap_breaks_ties_by_element_id() {
        let mut h = KeyHeap::new();
        h.insert(elem(1, 0, 2));
        h.insert(elem(0, 0, 2));
        assert_eq!(h.delete_min().unwrap().id, ElemId::compose(NodeId(0), 0));
        assert_eq!(h.delete_min().unwrap().id, ElemId::compose(NodeId(1), 0));
    }

    #[test]
    fn empty_heaps_return_bottom() {
        assert!(FifoHeap::new().delete_min().is_none());
        assert!(KeyHeap::new().delete_min().is_none());
    }
}
