//! Skack — a sequentially consistent distributed *stack*, the \[FSS18b\]
//! extension of Skueue the paper's introduction points to.
//!
//! Identical machinery to Skeap/Skueue except the anchor's DeleteMin
//! discipline: pops consume the *newest* live position
//! ([`crate::anchor::Discipline::Lifo`]). Positions stay globally fresh
//! (insert counters never rewind), so the DHT keys `h(p, pos)` remain
//! unique even though the live set fragments; the anchor tracks it as a
//! deque of disjoint intervals.
//!
//! Semantics: sequential consistency with LIFO replay — the semantics
//! crate's [`dpq_semantics::ReplayMode::Lifo`] oracle.

use crate::node::{SkeapConfig, SkeapNode};
use dpq_core::{History, OpId};
use dpq_overlay::{NodeView, Topology};

/// One node of a Skack instance — a Skeap node with one priority and LIFO
/// discipline.
pub struct SkackNode(pub SkeapNode);

impl SkackNode {
    /// Push a value onto the distributed stack.
    pub fn push(&mut self, payload: u64) -> OpId {
        self.0.issue_insert(0, payload)
    }

    /// Pop the top of the stack (⊥ if empty).
    pub fn pop(&mut self) -> OpId {
        self.0.issue_delete()
    }

    /// Have all requests issued at this node completed?
    pub fn all_complete(&self) -> bool {
        self.0.all_complete()
    }
}

impl dpq_sim::Protocol for SkackNode {
    type Msg = crate::msgs::SkeapMsg;

    fn on_activate(&mut self, ctx: &mut dpq_sim::Ctx<Self::Msg>) {
        self.0.on_activate(ctx);
    }

    fn on_message(
        &mut self,
        from: dpq_core::NodeId,
        msg: Self::Msg,
        ctx: &mut dpq_sim::Ctx<Self::Msg>,
    ) {
        self.0.on_message(from, msg, ctx);
    }

    fn done(&self) -> bool {
        dpq_sim::Protocol::done(&self.0)
    }

    fn dormant(&self) -> bool {
        dpq_sim::Protocol::dormant(&self.0)
    }
}

/// Build a Skack cluster of `n` nodes.
pub fn build(n: usize, seed: u64) -> Vec<SkackNode> {
    let topo = Topology::new(n, seed);
    NodeView::extract_all(&topo)
        .into_iter()
        .map(|v| SkackNode(SkeapNode::new(v, SkeapConfig::lifo(1))))
        .collect()
}

/// Collect the merged history.
pub fn history(nodes: &[SkackNode]) -> History {
    History::merge(nodes.iter().map(|n| n.0.history.clone()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpq_core::OpReturn;
    use dpq_semantics::{check_local_consistency, replay, ReplayMode};
    use dpq_sim::SyncScheduler;

    #[test]
    fn lifo_order_from_a_single_producer() {
        let n = 5;
        let mut nodes = build(n, 93);
        for i in 1..=8u64 {
            nodes[1].push(i);
        }
        let mut sched = SyncScheduler::new(nodes);
        assert!(sched
            .run_until_pred(100_000, |ns| ns.iter().all(SkackNode::all_complete))
            .is_quiescent());
        // Pop everything from one node: strict reverse order.
        for _ in 0..8 {
            sched.nodes_mut()[3].pop();
        }
        assert!(sched
            .run_until_pred(100_000, |ns| ns.iter().all(SkackNode::all_complete))
            .is_quiescent());
        let history = history(sched.nodes());
        let mut by_witness: Vec<(u64, u64)> = history
            .records()
            .filter_map(|r| match (r.ret, r.witness) {
                (Some(OpReturn::Removed(e)), Some(w)) => Some((w, e.payload)),
                _ => None,
            })
            .collect();
        by_witness.sort();
        let payloads: Vec<u64> = by_witness.into_iter().map(|(_, p)| p).collect();
        assert_eq!(payloads, (1..=8).rev().collect::<Vec<_>>());
        replay(&history, ReplayMode::Lifo).unwrap();
        check_local_consistency(&history).unwrap();
    }

    #[test]
    fn interleaved_push_pop_cycles_stay_consistent() {
        let n = 7;
        let mut sched = SyncScheduler::new(build(n, 94));
        for wave in 0..4u64 {
            for v in 0..n {
                sched.nodes_mut()[v].push(wave * 100 + v as u64);
                if wave % 2 == 1 {
                    sched.nodes_mut()[v].pop();
                    sched.nodes_mut()[v].pop();
                }
            }
            for _ in 0..25 {
                sched.step_round();
            }
        }
        assert!(sched
            .run_until_pred(200_000, |ns| ns.iter().all(SkackNode::all_complete))
            .is_quiescent());
        // The Skeap node's dormant hint reaches the scheduler.
        assert!(sched.dormant_skips() > 0);
        let history = history(sched.nodes());
        replay(&history, ReplayMode::Lifo).unwrap();
        check_local_consistency(&history).unwrap();
    }

    #[test]
    fn pop_on_empty_stack_answers_bottom() {
        let mut nodes = build(3, 95);
        nodes[0].pop();
        nodes[2].push(7);
        let mut sched = SyncScheduler::new(nodes);
        assert!(sched
            .run_until_pred(100_000, |ns| ns.iter().all(SkackNode::all_complete))
            .is_quiescent());
        let history = history(sched.nodes());
        replay(&history, ReplayMode::Lifo).unwrap();
    }
}
