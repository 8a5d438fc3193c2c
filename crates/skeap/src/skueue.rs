//! Skueue — the sequentially consistent distributed *queue* of
//! [FSS18a] that Skeap extends ("Skeap is a simple extension of Skueue",
//! §1.4(1)).
//!
//! A queue is exactly the |𝒫| = 1 instance of Skeap: with a single
//! priority, the anchor's `[first, last]` interval is a FIFO position
//! window, inserts append at `last+1` and deletes consume from `first` —
//! enqueue/dequeue semantics with the same sequential-consistency
//! guarantee. This module packages that special case under queue
//! vocabulary, both as a faithful reproduction of the prior system and as
//! a regression anchor: any Skeap change that broke the queue case breaks
//! FIFO order visibly here.

use crate::node::{SkeapConfig, SkeapNode};
use dpq_core::{History, OpId};
use dpq_overlay::{NodeView, Topology};

/// One node of a Skueue instance — a Skeap node over a single priority.
pub struct SkueueNode(pub SkeapNode);

impl SkueueNode {
    /// Enqueue a value (payload) at the back of the queue.
    pub fn enqueue(&mut self, payload: u64) -> OpId {
        self.0.issue_insert(0, payload)
    }

    /// Dequeue the front of the queue (⊥ if empty).
    pub fn dequeue(&mut self) -> OpId {
        self.0.issue_delete()
    }

    /// Have all requests issued at this node completed?
    pub fn all_complete(&self) -> bool {
        self.0.all_complete()
    }
}

impl dpq_sim::Protocol for SkueueNode {
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

/// Build a Skueue cluster of `n` nodes.
pub fn build(n: usize, seed: u64) -> Vec<SkueueNode> {
    let topo = Topology::new(n, seed);
    NodeView::extract_all(&topo)
        .into_iter()
        .map(|v| SkueueNode(SkeapNode::new(v, SkeapConfig::fifo(1))))
        .collect()
}

/// Collect the merged history.
pub fn history(nodes: &[SkueueNode]) -> History {
    History::merge(nodes.iter().map(|n| n.0.history.clone()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpq_core::OpReturn;
    use dpq_semantics::{check_local_consistency, replay, ReplayMode};
    use dpq_sim::SyncScheduler;

    #[test]
    fn fifo_order_is_preserved_per_producer() {
        let n = 6;
        let mut nodes = build(n, 91);
        // One producer enqueues 1..=10; everyone else dequeues once the
        // inserts are in.
        for i in 1..=10u64 {
            nodes[2].enqueue(i);
        }
        let mut sched = SyncScheduler::new(nodes);
        assert!(sched
            .run_until_pred(100_000, |ns| ns.iter().all(SkueueNode::all_complete))
            .is_quiescent());
        for v in 0..n {
            sched.nodes_mut()[v].dequeue();
            sched.nodes_mut()[v].dequeue();
        }
        assert!(sched
            .run_until_pred(100_000, |ns| ns.iter().all(SkueueNode::all_complete))
            .is_quiescent());
        let history =
            dpq_core::History::merge(sched.nodes().iter().map(|n| n.0.history.clone()).collect());
        // All 10 dequeued + 2 ⊥, and — crucially — in payload order when
        // sorted by witness: FIFO.
        let mut by_witness: Vec<(u64, u64)> = history
            .records()
            .filter_map(|r| match (r.ret, r.witness) {
                (Some(OpReturn::Removed(e)), Some(w)) => Some((w, e.payload)),
                _ => None,
            })
            .collect();
        by_witness.sort();
        let payloads: Vec<u64> = by_witness.into_iter().map(|(_, p)| p).collect();
        assert_eq!(payloads, (1..=10).collect::<Vec<_>>());
        replay(&history, ReplayMode::Fifo).unwrap();
        check_local_consistency(&history).unwrap();
    }

    #[test]
    fn concurrent_producers_stay_sequentially_consistent() {
        let n = 8;
        let mut nodes = build(n, 92);
        for (v, node) in nodes.iter_mut().enumerate() {
            for i in 0..5u64 {
                node.enqueue(v as u64 * 100 + i);
            }
            node.dequeue();
            node.dequeue();
        }
        let mut sched = SyncScheduler::new(nodes);
        assert!(sched
            .run_until_pred(100_000, |ns| ns.iter().all(SkueueNode::all_complete))
            .is_quiescent());
        // The Skeap node's dormant hint reaches the scheduler.
        assert!(sched.dormant_skips() > 0);
        let history =
            dpq_core::History::merge(sched.nodes().iter().map(|n| n.0.history.clone()).collect());
        replay(&history, ReplayMode::Fifo).unwrap();
        check_local_consistency(&history).unwrap();
    }
}
