//! Priorities and composite ordering keys.
//!
//! The paper distinguishes two regimes: a *constant* priority universe
//! 𝒫 = {1,…,c} (Skeap, §3) and an *arbitrary* polynomial universe
//! 𝒫 = {1,…,n^q} (Seap/KSelect, §4–5). Both are totally ordered; ties between
//! elements with equal priority are broken by a tiebreaker (§1.2), which we
//! realise as the element id, yielding the composite [`Key`].

use crate::ids::ElemId;

/// A priority value. Smaller is more urgent (MinHeap semantics; the paper
/// notes property (3) of Definition 1.2 can be inverted for a MaxHeap).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Priority(pub u64);

impl Priority {
    /// The smallest priority of the universe (paper universes start at 1,
    /// but nothing in the protocols requires that; 0 is allowed).
    pub const MIN: Priority = Priority(0);
    /// Sentinel maximum, used by KSelect Phase 1 when a node holds too few
    /// candidates to name a ⌈k/n⌉-th smallest one (see DESIGN.md §deviations).
    pub const MAX: Priority = Priority(u64::MAX);
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

crate::wire!(struct Priority(v));

/// Composite total-order key: `(priority, element id)`.
///
/// This is the concrete form of the paper's "using a tiebreaker … we get a
/// total order on all elements in ℰ" (§1.2). KSelect and Seap rank elements
/// by `Key`; distinct elements always have distinct keys, so ranks are
/// unique and the k-th smallest element is well defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key {
    /// The element's priority (compared first).
    pub prio: Priority,
    /// The tiebreaker.
    pub elem: ElemId,
}

impl Key {
    /// Smaller than every real key.
    pub const MIN: Key = Key {
        prio: Priority(0),
        elem: ElemId(0),
    };
    /// Larger than every real key.
    pub const MAX: Key = Key {
        prio: Priority(u64::MAX),
        elem: ElemId(u64::MAX),
    };

    /// Compose a key.
    #[inline]
    pub fn new(prio: Priority, elem: ElemId) -> Self {
        Key { prio, elem }
    }
}

impl std::fmt::Display for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{})", self.prio, self.elem)
    }
}

crate::wire!(struct Key { prio, elem });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    #[test]
    fn key_orders_by_priority_first() {
        let a = Key::new(Priority(1), ElemId(999));
        let b = Key::new(Priority(2), ElemId(0));
        assert!(a < b);
    }

    #[test]
    fn key_breaks_ties_by_element_id() {
        let a = Key::new(Priority(5), ElemId::compose(NodeId(0), 1));
        let b = Key::new(Priority(5), ElemId::compose(NodeId(1), 0));
        assert!(a < b);
        assert_ne!(a, b);
    }

    #[test]
    fn sentinels_bracket_everything() {
        let k = Key::new(Priority(123), ElemId(456));
        assert!(Key::MIN <= k && k <= Key::MAX);
    }
}
