//! Heap operation records and matchings (§1.2, Definitions 1.1 and 1.2).

use crate::element::Element;
use crate::ids::{ElemId, NodeId};
use std::collections::HashMap;

/// Identity of the i-th request issued by a node — the paper's `OP_{v,i}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId {
    /// The issuing node.
    pub node: NodeId,
    /// Zero-based issue index at that node (paper counts from 1; the checker
    /// only relies on the per-node order, not the base).
    pub seq: u64,
}

impl std::fmt::Display for OpId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.node, self.seq)
    }
}

/// What a request asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `Insert(e)` — insert element `e` into the heap.
    Insert(Element),
    /// `DeleteMin()` — retrieve the minimum-priority element, or ⊥.
    DeleteMin,
}

crate::wire!(enum OpKind { 0 => Insert(e), 1 => DeleteMin {} });

impl OpKind {
    /// Is this an Insert() request?
    pub fn is_insert(&self) -> bool {
        matches!(self, OpKind::Insert(_))
    }
}

/// What a completed request returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpReturn {
    /// Insert acknowledged.
    Inserted,
    /// DeleteMin returned this element.
    Removed(Element),
    /// DeleteMin found the heap empty (the paper's ⊥).
    Bottom,
}

crate::wire!(enum OpReturn { 0 => Inserted {}, 1 => Removed(e), 2 => Bottom {} });

/// A fully recorded operation: what was asked, what came back, and (when the
/// protocol provides one, as Skeap does) the position of the operation in the
/// serialization witness ≺.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRecord {
    /// Which request this records.
    pub id: OpId,
    /// What was asked.
    pub kind: OpKind,
    /// What came back (None while in flight).
    pub ret: Option<OpReturn>,
    /// Global sequence number materialising the paper's `value(OP)` counter
    /// (§3.3). `None` for protocols that only promise serializability and
    /// let the checker search for a witness.
    pub witness: Option<u64>,
}

impl OpRecord {
    /// A freshly issued, not yet completed request.
    pub fn new(id: OpId, kind: OpKind) -> Self {
        OpRecord {
            id,
            kind,
            ret: None,
            witness: None,
        }
    }

    /// Has a return value been recorded?
    pub fn is_complete(&self) -> bool {
        self.ret.is_some()
    }
}

/// The matching M of Definition 1.2: pairs `(Ins_{v,i}, Del_{w,j})` where the
/// delete returned the element that the insert put in. Derived from returns:
/// every removed element id points back at the unique insert that created it.
#[derive(Debug, Default, Clone)]
pub struct MatchSet {
    /// delete op → insert op
    pub by_delete: HashMap<OpId, OpId>,
    /// insert op → delete op
    pub by_insert: HashMap<OpId, OpId>,
}

impl MatchSet {
    /// Build the matching from completed records. Fails loudly on protocol
    /// bugs: an element removed twice, or removed without ever being
    /// inserted.
    pub fn derive(records: impl IntoIterator<Item = OpRecord>) -> Result<Self, MatchError> {
        let mut inserter: HashMap<ElemId, OpId> = HashMap::new();
        let mut removals: Vec<(OpId, ElemId)> = Vec::new();
        for r in records {
            match (r.kind, r.ret) {
                (OpKind::Insert(e), _) => {
                    if let Some(prev) = inserter.insert(e.id, r.id) {
                        return Err(MatchError::DuplicateInsert {
                            elem: e.id,
                            first: prev,
                            second: r.id,
                        });
                    }
                }
                (OpKind::DeleteMin, Some(OpReturn::Removed(e))) => {
                    removals.push((r.id, e.id));
                }
                (OpKind::DeleteMin, _) => {}
            }
        }
        let mut m = MatchSet::default();
        for (del, elem) in removals {
            let ins = *inserter
                .get(&elem)
                .ok_or(MatchError::RemovedUnknown { elem, del })?;
            if m.by_insert.insert(ins, del).is_some() {
                return Err(MatchError::DoubleRemove { elem });
            }
            m.by_delete.insert(del, ins);
        }
        Ok(m)
    }

    /// Number of matched pairs.
    pub fn len(&self) -> usize {
        self.by_delete.len()
    }

    /// No pairs matched yet.
    pub fn is_empty(&self) -> bool {
        self.by_delete.is_empty()
    }
}

/// Structural violations detected while deriving a matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchError {
    /// The same element id was inserted by two different requests.
    DuplicateInsert {
        /// The element inserted twice.
        elem: ElemId,
        /// The first inserting request.
        first: OpId,
        /// The second inserting request.
        second: OpId,
    },
    /// A delete returned an element nobody inserted.
    RemovedUnknown {
        /// The phantom element.
        elem: ElemId,
        /// The returning delete.
        del: OpId,
    },
    /// Two deletes returned the same element.
    DoubleRemove {
        /// The element removed twice.
        elem: ElemId,
    },
}

impl std::fmt::Display for MatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatchError::DuplicateInsert {
                elem,
                first,
                second,
            } => write!(f, "element {elem} inserted twice ({first}, {second})"),
            MatchError::RemovedUnknown { elem, del } => {
                write!(f, "delete {del} returned {elem} which was never inserted")
            }
            MatchError::DoubleRemove { elem } => write!(f, "element {elem} removed twice"),
        }
    }
}

impl std::error::Error for MatchError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::priority::Priority;

    fn rec(node: u64, seq: u64, kind: OpKind, ret: Option<OpReturn>) -> OpRecord {
        OpRecord {
            id: OpId {
                node: NodeId(node),
                seq,
            },
            kind,
            ret,
            witness: None,
        }
    }

    fn elem(node: u64, seq: u64) -> Element {
        Element::new(ElemId::compose(NodeId(node), seq), Priority(1), 0)
    }

    #[test]
    fn derive_builds_symmetric_matching() {
        let e = elem(0, 0);
        let m = MatchSet::derive([
            rec(0, 0, OpKind::Insert(e), Some(OpReturn::Inserted)),
            rec(1, 0, OpKind::DeleteMin, Some(OpReturn::Removed(e))),
        ])
        .unwrap();
        assert_eq!(m.len(), 1);
        let ins = OpId {
            node: NodeId(0),
            seq: 0,
        };
        let del = OpId {
            node: NodeId(1),
            seq: 0,
        };
        assert_eq!(m.by_delete[&del], ins);
        assert_eq!(m.by_insert[&ins], del);
    }

    #[test]
    fn bottom_deletes_are_unmatched() {
        let m = MatchSet::derive([rec(0, 0, OpKind::DeleteMin, Some(OpReturn::Bottom))]).unwrap();
        assert!(m.is_empty());
    }

    #[test]
    fn double_remove_is_detected() {
        let e = elem(0, 0);
        let err = MatchSet::derive([
            rec(0, 0, OpKind::Insert(e), Some(OpReturn::Inserted)),
            rec(1, 0, OpKind::DeleteMin, Some(OpReturn::Removed(e))),
            rec(2, 0, OpKind::DeleteMin, Some(OpReturn::Removed(e))),
        ])
        .unwrap_err();
        assert!(matches!(err, MatchError::DoubleRemove { .. }));
    }

    #[test]
    fn phantom_remove_is_detected() {
        let err = MatchSet::derive([rec(
            1,
            0,
            OpKind::DeleteMin,
            Some(OpReturn::Removed(elem(9, 9))),
        )])
        .unwrap_err();
        assert!(matches!(err, MatchError::RemovedUnknown { .. }));
    }

    #[test]
    fn duplicate_insert_is_detected() {
        let e = elem(0, 0);
        let err = MatchSet::derive([
            rec(0, 0, OpKind::Insert(e), Some(OpReturn::Inserted)),
            rec(0, 1, OpKind::Insert(e), Some(OpReturn::Inserted)),
        ])
        .unwrap_err();
        assert!(matches!(err, MatchError::DuplicateInsert { .. }));
    }
}
