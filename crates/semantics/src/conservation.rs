//! Element conservation: the one oracle every tier calls.

use dpq_core::{Element, History, OpKind, OpReturn};

/// Where an accounted-for element was found.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Found {
    Removed,
    Resident,
}

/// Element conservation at quiescence: every inserted element is either
/// returned by exactly one DeleteMin or resident in exactly one DHT shard,
/// unchanged — nothing lost, nothing minted, nothing stored or returned
/// twice. `residual` is the union of the shards' contents, in any order.
///
/// Conservation is only defined once the workload has finished, so a
/// history with an Insert still in flight is rejected. O(n log n).
pub fn check_conservation(history: &History, residual: &[Element]) -> Result<(), String> {
    let mut inserted: Vec<Element> = Vec::new();
    let mut accounted: Vec<(Element, Found)> =
        residual.iter().map(|e| (*e, Found::Resident)).collect();
    for r in history.records() {
        match (r.kind, r.ret) {
            (OpKind::Insert(e), Some(OpReturn::Inserted)) => inserted.push(e),
            (OpKind::Insert(e), _) => {
                return Err(format!(
                    "conservation: insert {} of element {} has not completed",
                    r.id, e.id
                ))
            }
            (_, Some(OpReturn::Removed(e))) => accounted.push((e, Found::Removed)),
            _ => {}
        }
    }
    inserted.sort_unstable_by_key(|e| e.id);
    accounted.sort_unstable_by_key(|(e, found)| (e.id, *found));
    if let Some(w) = inserted.windows(2).find(|w| w[0].id == w[1].id) {
        return Err(format!("conservation: element {} inserted twice", w[0].id));
    }
    if let Some(w) = accounted.windows(2).find(|w| w[0].0.id == w[1].0.id) {
        let how = match (w[0].1, w[1].1) {
            (Found::Removed, Found::Removed) => "removed twice",
            (Found::Resident, Found::Resident) => "resident twice",
            _ => "removed and still resident",
        };
        return Err(format!("conservation: element {} {how}", w[0].0.id));
    }
    // Both sides are now strictly increasing in id: walk them in step.
    let mut ins = inserted.iter().peekable();
    for (e, found) in &accounted {
        if let Some(lost) = ins.next_if(|i| i.id < e.id) {
            return Err(format!("conservation: element {} lost", lost.id));
        }
        match ins.next_if(|i| i.id == e.id) {
            Some(i) if i == e => {}
            Some(i) => {
                return Err(format!(
                    "conservation: element {} mutated: inserted {i:?}, found {e:?}",
                    e.id
                ))
            }
            None => {
                return Err(format!(
                    "conservation: element {} {} but never inserted",
                    e.id,
                    match found {
                        Found::Removed => "removed",
                        Found::Resident => "resident",
                    }
                ))
            }
        }
    }
    match ins.next() {
        Some(lost) => Err(format!("conservation: element {} lost", lost.id)),
        None => Ok(()),
    }
}
