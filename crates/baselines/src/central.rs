//! The centralized-coordinator heap — the scalability strawman.
//!
//! Every node forwards each request directly to one coordinator, which
//! serves it from a local [`FifoHeap`] and replies. Trivially sequentially
//! consistent (the coordinator's arrival order *is* the serialization), but
//! the coordinator handles Θ(n·λ) messages per round: experiment B1 shows
//! its congestion growing linearly in n while Skeap's stays Õ(Λ).

use crate::seq_heap::{FifoHeap, ReferenceHeap};
use dpq_core::{NodeHistory, NodeId, OpId, OpKind, OpReturn};

/// Wire alphabet of the centralized heap.
#[derive(Debug, Clone)]
pub enum CentralMsg {
    /// Client → coordinator: one heap request.
    Request {
        /// The requester's local op sequence (routes the reply back).
        token: u64,
        /// The request itself.
        op: OpKind,
    },
    /// Coordinator → client: the answer.
    Reply {
        /// Echoed request token.
        token: u64,
        /// The heap's answer.
        ret: OpReturn,
    },
}

dpq_core::wire!(enum CentralMsg { 0 => Request { token, op }, 1 => Reply { token, ret } });

/// A node of the centralized baseline. Node 0 doubles as the coordinator.
pub struct CentralNode {
    /// This node's id.
    pub me: NodeId,
    /// Where every request goes.
    pub coordinator: NodeId,
    /// Recorded requests and returns.
    pub history: NodeHistory,
    buffer: Vec<(OpId, OpKind)>,
    heap: FifoHeap,
    outstanding: usize,
}

impl CentralNode {
    /// A node sending its requests to `coordinator`.
    pub fn new(me: NodeId, coordinator: NodeId) -> Self {
        CentralNode {
            me,
            coordinator,
            history: NodeHistory::default(),
            buffer: Vec::new(),
            heap: FifoHeap::new(),
            outstanding: 0,
        }
    }

    /// Build `n` nodes with node 0 as the coordinator.
    pub fn build_cluster(n: usize) -> Vec<CentralNode> {
        (0..n as u64)
            .map(|i| CentralNode::new(NodeId(i), NodeId(0)))
            .collect()
    }

    /// Issue a request (sent at the next activation).
    pub fn issue(&mut self, kind: OpKind) -> OpId {
        let id = self.history.issue(self.me, kind);
        self.buffer.push((id, kind));
        id
    }

    /// Have all requests issued here completed?
    pub fn all_complete(&self) -> bool {
        self.history.ops.iter().all(|r| r.is_complete())
    }
}

impl dpq_sim::Protocol for CentralNode {
    type Msg = CentralMsg;

    fn on_activate(&mut self, ctx: &mut dpq_sim::Ctx<CentralMsg>) {
        for (id, op) in std::mem::take(&mut self.buffer) {
            self.outstanding += 1;
            ctx.send(self.coordinator, CentralMsg::Request { token: id.seq, op });
        }
    }

    fn on_message(&mut self, from: NodeId, msg: CentralMsg, ctx: &mut dpq_sim::Ctx<CentralMsg>) {
        match msg {
            CentralMsg::Request { token, op } => {
                debug_assert_eq!(self.me, self.coordinator);
                let ret = match op {
                    OpKind::Insert(e) => {
                        self.heap.insert(e);
                        OpReturn::Inserted
                    }
                    OpKind::DeleteMin => match self.heap.delete_min() {
                        Some(e) => OpReturn::Removed(e),
                        None => OpReturn::Bottom,
                    },
                };
                ctx.send(from, CentralMsg::Reply { token, ret });
            }
            CentralMsg::Reply { token, ret } => {
                self.outstanding -= 1;
                self.history.complete(
                    OpId {
                        node: self.me,
                        seq: token,
                    },
                    ret,
                );
            }
        }
    }

    fn done(&self) -> bool {
        self.buffer.is_empty() && self.outstanding == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpq_core::workload::{generate, WorkloadSpec};
    use dpq_core::History;
    use dpq_sim::SyncScheduler;

    #[test]
    fn centralized_heap_completes_and_matches() {
        let mut nodes = CentralNode::build_cluster(8);
        let scripts = generate(&WorkloadSpec::balanced(8, 25, 4, 11));
        for (n, s) in nodes.iter_mut().zip(&scripts) {
            for op in s {
                n.issue(*op);
            }
        }
        let mut sched = SyncScheduler::new(nodes);
        let out = sched.run_until_quiescent(10_000);
        assert!(out.is_quiescent());
        let hist = History::merge(sched.nodes().iter().map(|n| n.history.clone()).collect());
        assert_eq!(hist.completed(), 8 * 25);
        hist.matching().expect("structurally valid matching");
    }

    #[test]
    fn coordinator_congestion_grows_with_n() {
        let congestion = |n: usize| {
            let mut nodes = CentralNode::build_cluster(n);
            for node in nodes.iter_mut() {
                node.issue(OpKind::DeleteMin);
            }
            let mut sched = SyncScheduler::new(nodes);
            sched.run_until_quiescent(1000);
            sched.metrics.congestion
        };
        let c8 = congestion(8);
        let c64 = congestion(64);
        assert!(
            c64 >= 4 * c8,
            "coordinator congestion must scale with n ({c8} -> {c64})"
        );
    }
}
