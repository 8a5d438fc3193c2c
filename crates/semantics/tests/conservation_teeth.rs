//! The conservation oracle's teeth: a balanced execution passes, and each
//! way of breaking conservation is named in the verdict.

use dpq_core::{ElemId, Element, History, NodeId, OpKind, OpReturn, Priority};
use dpq_semantics::check_conservation;

fn elem(seq: u64) -> Element {
    Element::new(
        ElemId::compose(NodeId(0), seq),
        Priority(seq % 3),
        100 + seq,
    )
}

/// Inserts of `elem(0..inserts)` at node 0, then one delete per entry of
/// `removed` at node 1 returning that element.
fn history(inserts: u64, removed: &[Element]) -> History {
    let mut h = History::new(2);
    for seq in 0..inserts {
        let id = h
            .node(NodeId(0))
            .issue(NodeId(0), OpKind::Insert(elem(seq)));
        h.node(NodeId(0)).complete(id, OpReturn::Inserted);
    }
    for e in removed {
        let id = h.node(NodeId(1)).issue(NodeId(1), OpKind::DeleteMin);
        h.node(NodeId(1)).complete(id, OpReturn::Removed(*e));
    }
    h
}

fn verdict(h: &History, residual: &[Element]) -> String {
    check_conservation(h, residual).expect_err("broken conservation accepted")
}

#[test]
fn balanced_execution_is_conserved() {
    let h = history(4, &[elem(1), elem(3)]);
    check_conservation(&h, &[elem(2), elem(0)]).unwrap();
    // A ⊥ delete and an empty heap change nothing.
    let mut h = history(1, &[elem(0)]);
    let id = h.node(NodeId(1)).issue(NodeId(1), OpKind::DeleteMin);
    h.node(NodeId(1)).complete(id, OpReturn::Bottom);
    check_conservation(&h, &[]).unwrap();
}

#[test]
fn lost_element_is_rejected() {
    let h = history(3, &[elem(0)]);
    assert!(verdict(&h, &[elem(1)]).contains("lost"));
    // The last element in id order takes the tail path of the walk.
    assert!(verdict(&h, &[elem(2)]).contains("lost"));
}

#[test]
fn minted_element_is_rejected() {
    let h = history(2, &[]);
    let v = verdict(&h, &[elem(0), elem(1), elem(7)]);
    assert!(v.contains("resident but never inserted"), "{v}");
}

#[test]
fn element_resident_twice_is_rejected() {
    let h = history(2, &[]);
    let v = verdict(&h, &[elem(0), elem(1), elem(1)]);
    assert!(v.contains("resident twice"), "{v}");
    let h = history(2, &[elem(1)]);
    let v = verdict(&h, &[elem(0), elem(1)]);
    assert!(v.contains("removed and still resident"), "{v}");
}

#[test]
fn mutated_payload_is_rejected() {
    let h = history(2, &[]);
    let mut bent = elem(1);
    bent.payload ^= 1;
    assert!(verdict(&h, &[elem(0), bent]).contains("mutated"));
    let h = history(2, &[bent]);
    assert!(verdict(&h, &[elem(0)]).contains("mutated"));
}

#[test]
fn removed_but_never_inserted_is_rejected() {
    let h = history(1, &[elem(5)]);
    let v = verdict(&h, &[elem(0)]);
    assert!(v.contains("removed but never inserted"), "{v}");
    let h = history(1, &[elem(0), elem(0)]);
    assert!(verdict(&h, &[]).contains("removed twice"));
}

#[test]
fn in_flight_insert_is_rejected() {
    let mut h = history(1, &[]);
    h.node(NodeId(0)).issue(NodeId(0), OpKind::Insert(elem(1)));
    assert!(verdict(&h, &[elem(0)]).contains("has not completed"));
}
