//! Heap elements.

use crate::ids::ElemId;
use crate::priority::{Key, Priority};

/// An element stored in the distributed heap.
///
/// `payload` stands in for the application data an element would carry (a
/// job descriptor, a work item, …). The protocols never inspect it; it only
/// travels with the element and counts toward message size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Element {
    /// Globally unique identity (and tiebreaker).
    pub id: ElemId,
    /// The heap priority.
    pub prio: Priority,
    /// Opaque application data.
    pub payload: u64,
}

impl Element {
    /// Assemble an element.
    #[inline]
    pub fn new(id: ElemId, prio: Priority, payload: u64) -> Self {
        Element { id, prio, payload }
    }

    /// The composite total-order key of this element (§1.2 tiebreaker).
    #[inline]
    pub fn key(&self) -> Key {
        Key::new(self.prio, self.id)
    }
}

impl PartialOrd for Element {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Element {
    /// Elements order by their composite key, never by payload.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

crate::wire!(struct Element { id, prio, payload });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    fn elem(node: u64, seq: u64, prio: u64) -> Element {
        Element::new(
            ElemId::compose(NodeId(node), seq),
            Priority(prio),
            node * 100 + seq,
        )
    }

    #[test]
    fn ordering_ignores_payload() {
        let mut a = elem(0, 0, 7);
        let mut b = a;
        a.payload = 1;
        b.payload = 2;
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
    }

    #[test]
    fn ordering_matches_key_order() {
        let a = elem(0, 0, 3);
        let b = elem(1, 0, 3);
        let c = elem(0, 1, 2);
        assert!(c < a, "lower priority wins regardless of id");
        assert!(a < b, "ties broken by element id");
    }

    #[test]
    fn sort_is_total_and_stable_under_distinct_ids() {
        let mut v = [elem(2, 0, 5), elem(0, 0, 5), elem(1, 0, 1)];
        v.sort();
        assert_eq!(v[0].prio, Priority(1));
        assert_eq!(v[1].id.origin(), NodeId(0));
        assert_eq!(v[2].id.origin(), NodeId(2));
    }
}
