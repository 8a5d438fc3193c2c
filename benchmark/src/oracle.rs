//! The correctness gate: the same oracles the simulator tiers enforce, run
//! on what the benchmark's own clusters produced. A wrong answer fast is not
//! a result, so a violation fails the run.

use std::time::Instant;

use dpq_core::{Element, History, OpKind, OpReturn};
use dpq_semantics::{check_local_consistency, rank_error, replay, RankOrder, ReplayMode};

/// Which protocol's guarantees to hold the history to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discipline {
    /// Witness replay in FIFO order, per-node witness monotonicity.
    Skeap,
    /// The phase checker of Lemma 5.2, rank error on the refined order.
    Seap,
}

/// What the gate found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// One line per violated oracle; empty means correct.
    pub violations: Vec<String>,
    /// Largest rank error over all DeleteMins (must be 0).
    pub rank_error_max: u64,
    /// ⊥ returns ÷ DeleteMins.
    pub bottom_share: f64,
    /// Wall seconds the oracles took.
    pub oracle_s: f64,
}

impl Verdict {
    /// Did every oracle pass?
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Element conservation: every element a completed Insert added is either
/// returned by exactly one DeleteMin or still resident in some DHT shard —
/// nothing lost, nothing minted.
pub fn check_conservation(history: &History, residual: &[Element]) -> Result<(), String> {
    let key = |e: &Element| (e.prio, e.id, e.payload);
    let mut inserted = Vec::new();
    let mut accounted: Vec<Element> = residual.to_vec();
    for r in history.records() {
        match (r.kind, r.ret) {
            (OpKind::Insert(e), Some(OpReturn::Inserted)) => inserted.push(e),
            (_, Some(OpReturn::Removed(e))) => accounted.push(e),
            _ => {}
        }
    }
    inserted.sort_unstable_by_key(key);
    accounted.sort_unstable_by_key(key);
    if inserted == accounted {
        return Ok(());
    }
    Err(format!(
        "conservation: {} inserted, {} removed or resident, multisets differ",
        inserted.len(),
        accounted.len()
    ))
}

/// Run every oracle of `discipline` over a completed history.
pub fn check(discipline: Discipline, history: &History, residual: &[Element]) -> Verdict {
    let t0 = Instant::now();
    let mut v = Verdict::default();
    let mut note = |what: &str, r: Result<(), String>| {
        if let Err(e) = r {
            v.violations.push(format!("{what}: {e}"));
        }
    };
    let ranked = match discipline {
        Discipline::Skeap => {
            note(
                "local consistency",
                check_local_consistency(history).map_err(|e| e.to_string()),
            );
            note(
                "witness replay",
                replay(history, ReplayMode::Fifo).map_err(|e| e.to_string()),
            );
            rank_error(history, RankOrder::Fifo)
        }
        Discipline::Seap => {
            note(
                "seap phase order",
                seap::checker::check_seap_history(history).map_err(|e| e.to_string()),
            );
            seap::refine_witnesses(history).and_then(|h| rank_error(&h, RankOrder::KeyOrder))
        }
    };
    note("conservation", check_conservation(history, residual));
    match ranked {
        Ok(r) => {
            v.rank_error_max = r.max;
            if !r.is_strict() {
                v.violations.push(format!(
                    "rank error: max {} with {} spurious ⊥",
                    r.max, r.spurious_empty
                ));
            }
        }
        Err(e) => v.violations.push(format!("rank error: {e}")),
    }
    let (mut deletes, mut bottoms) = (0u64, 0u64);
    for r in history.records() {
        if matches!(r.kind, OpKind::DeleteMin) {
            deletes += 1;
            bottoms += u64::from(r.ret == Some(OpReturn::Bottom));
        }
    }
    v.bottom_share = if deletes == 0 {
        0.0
    } else {
        bottoms as f64 / deletes as f64
    };
    v.oracle_s = t0.elapsed().as_secs_f64();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpq_core::workload::{generate, WorkloadSpec};

    #[test]
    fn a_simulated_skeap_run_passes_and_a_doctored_one_fails() {
        // Insert-heavy, so elements are still resident at the end.
        let spec = WorkloadSpec {
            insert_ratio: 0.8,
            ..WorkloadSpec::balanced(8, 6, 3, 5)
        };
        let mut nodes = skeap::cluster::build(8, 3, 5);
        skeap::cluster::inject_all(&mut nodes, &generate(&spec));
        let mut sched = dpq_sim::SyncScheduler::new(nodes);
        let out = sched.run_until_pred(10_000, |ns| ns.iter().all(skeap::SkeapNode::all_complete));
        assert!(out.is_quiescent());
        let residual: Vec<Element> = sched
            .nodes()
            .iter()
            .flat_map(|n| n.shard.elements().map(|(_, e)| *e))
            .collect();
        let history = skeap::cluster::history(sched.nodes());
        let v = check(Discipline::Skeap, &history, &residual);
        assert!(v.ok(), "{:?}", v.violations);
        assert_eq!(v.rank_error_max, 0);

        // Lose one resident element: conservation must notice.
        assert!(!residual.is_empty());
        let v = check(Discipline::Skeap, &history, &residual[1..]);
        assert!(v.violations.iter().any(|m| m.starts_with("conservation")));
    }
}
