//! Per-protocol glue: how the generic runtime builds, drives, and inspects
//! each of the three node types.
//!
//! The nodes themselves are *unmodified* — exactly the types the simulator
//! schedulers drive. Each process constructs the full deterministic cluster
//! from `(n, seed, …)` the same way the sim drivers do (topology, configs,
//! and KSelect's candidate sets are pure functions of those parameters) and
//! keeps only its own node, so every process agrees on the deployment
//! without any coordination beyond the flag vector.

use crate::config::NodeConfig;
use crate::frame::ProtoId;
use dpq_core::{Element, Key, NodeId, OpId, OpKind, OpRecord};
use dpq_sim::{Protocol, QueueNode};
use kselect::{KSelectConfig, KSelectNode};
use seap::SeapNode;
use skeap::SkeapNode;

/// What the runtime needs from a protocol node beyond [`Protocol`].
pub trait NetApp: Protocol + Sized
where
    Self::Msg: Clone,
{
    /// The protocol tag carried in every handshake.
    const PROTO: ProtoId;

    /// Build this process's node from the deployment parameters.
    fn build(cfg: &NodeConfig) -> Result<Self, String>;

    /// Issue `Insert(prio, payload)`; `Err` if the protocol does not take
    /// online operations or the priority is outside its universe.
    fn enqueue(&mut self, prio: u64, payload: u64) -> Result<OpId, String>;

    /// Issue `DeleteMin()`.
    fn dequeue(&mut self) -> Result<OpId, String>;

    /// This node's op records, issue order.
    fn records(&self) -> Vec<OpRecord>;

    /// Elements resident in this node's DHT shard (conservation residual),
    /// sorted by `(prio, id)` like the sim drivers report them.
    fn residual(&self) -> Vec<Element>;

    /// KSelect's announced result, once known.
    fn result_key(&self) -> Option<Key> {
        None
    }

    /// A hint: `true` when nothing waits on this node's self-addressed
    /// messages, so the runtime may hold them until its next tick (an idle
    /// Seap anchor's next empty phase). Holding is a delivery delay, which
    /// the asynchronous model allows; the node sends the same either way.
    fn idle(&self) -> bool {
        false
    }

    /// Where a request accepted here sends a wake: the node whose
    /// [`idle`](Self::idle) hold it waits on (Seap's anchor, from the rest).
    fn wake_target(&self) -> Option<NodeId> {
        None
    }

    /// Requests issued at this node.
    fn issued(&self) -> u64;

    /// Requests completed at this node.
    fn completed(&self) -> u64;

    /// Have all issued requests completed?
    fn all_complete(&self) -> bool;

    /// [`completed`](Self::completed) and
    /// [`all_complete`](Self::all_complete) for a caller that asks again and
    /// again: `prefix` is the [`Progress::prefix`] of its previous answer
    /// (0 at first), and the requests before it are not looked at again.
    fn progress(&self, prefix: usize) -> Progress {
        Progress {
            prefix,
            completed: self.completed(),
            all_complete: self.all_complete(),
        }
    }
}

/// A node's completion state as `Status` reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    /// Every request before this index is complete.
    pub prefix: usize,
    /// Requests completed at this node.
    pub completed: u64,
    /// Have all issued requests completed?
    pub all_complete: bool,
}

/// The two per-protocol facts of a queue daemon; everything else the
/// runtime asks is answered through the [`QueueNode`] seam, once.
pub trait QueueApp: QueueNode + Sized {
    /// The protocol tag carried in every handshake.
    const PROTO: ProtoId;

    /// Build this process's node from the deployment parameters.
    fn build(cfg: &NodeConfig) -> Result<Self, String>;

    /// `Err` if `prio` is outside the protocol's priority universe.
    fn admit(&self, _prio: u64) -> Result<(), String> {
        Ok(())
    }

    /// See [`NetApp::idle`].
    fn idle(&self) -> bool {
        false
    }

    /// See [`NetApp::wake_target`].
    fn wake_target(&self) -> Option<NodeId> {
        None
    }
}

impl QueueApp for SkeapNode {
    const PROTO: ProtoId = ProtoId::Skeap;

    fn build(cfg: &NodeConfig) -> Result<Self, String> {
        if cfg.n_prios == 0 {
            return Err("--n-prios must be positive".into());
        }
        Ok(skeap::cluster::build(cfg.n, cfg.n_prios, cfg.seed).swap_remove(cfg.me as usize))
    }

    fn admit(&self, prio: u64) -> Result<(), String> {
        if prio as usize >= self.cfg.n_prios {
            return Err(format!(
                "priority {prio} outside the constant universe 0..{}",
                self.cfg.n_prios
            ));
        }
        Ok(())
    }
}

impl QueueApp for SeapNode {
    const PROTO: ProtoId = ProtoId::Seap;

    fn build(cfg: &NodeConfig) -> Result<Self, String> {
        Ok(seap::cluster::build(cfg.n, cfg.seed).swap_remove(cfg.me as usize))
    }

    fn idle(&self) -> bool {
        self.anchor_idle()
    }

    fn wake_target(&self) -> Option<NodeId> {
        (!self.view.is_anchor()).then(|| self.view.root())
    }
}

impl<Q: QueueApp> NetApp for Q
where
    Q::Msg: Clone,
{
    const PROTO: ProtoId = <Q as QueueApp>::PROTO;

    fn build(cfg: &NodeConfig) -> Result<Self, String> {
        <Q as QueueApp>::build(cfg)
    }

    fn enqueue(&mut self, prio: u64, payload: u64) -> Result<OpId, String> {
        self.admit(prio)?;
        Ok(self.issue_insert(prio, payload))
    }

    fn dequeue(&mut self) -> Result<OpId, String> {
        Ok(self.issue(OpKind::DeleteMin))
    }

    fn idle(&self) -> bool {
        QueueApp::idle(self)
    }

    fn wake_target(&self) -> Option<NodeId> {
        QueueApp::wake_target(self)
    }

    fn records(&self) -> Vec<OpRecord> {
        self.node_history().ops.clone()
    }

    fn residual(&self) -> Vec<Element> {
        dpq_sim::residual(std::slice::from_ref(self))
    }

    fn issued(&self) -> u64 {
        self.node_history().ops.len() as u64
    }

    fn completed(&self) -> u64 {
        self.progress(0).completed
    }

    fn all_complete(&self) -> bool {
        QueueNode::all_complete(self)
    }

    // Requests complete nearly in issue order, so past the all-complete
    // prefix lies only the short tail still in flight: a status poll costs
    // that tail, not the whole history.
    fn progress(&self, prefix: usize) -> Progress {
        let ops = &self.node_history().ops;
        let mut prefix = prefix.min(ops.len());
        while ops.get(prefix).is_some_and(|r| r.is_complete()) {
            prefix += 1;
        }
        let tail = ops[prefix..].iter().filter(|r| r.is_complete()).count();
        Progress {
            prefix,
            completed: (prefix + tail) as u64,
            all_complete: prefix == ops.len(),
        }
    }
}

impl NetApp for KSelectNode {
    const PROTO: ProtoId = ProtoId::KSelect;

    fn build(cfg: &NodeConfig) -> Result<Self, String> {
        if cfg.k == 0 || cfg.k > cfg.m {
            return Err(format!("--k {} out of range for --m {}", cfg.k, cfg.m));
        }
        let per_node = kselect::driver::random_candidates(cfg.n, cfg.m, cfg.prio_space, cfg.seed);
        Ok(
            kselect::driver::build(cfg.n, per_node, cfg.k, KSelectConfig::default(), cfg.seed)
                .swap_remove(cfg.me as usize),
        )
    }

    fn enqueue(&mut self, _prio: u64, _payload: u64) -> Result<OpId, String> {
        Err("kselect is a one-shot selection, not an online queue".into())
    }

    fn dequeue(&mut self) -> Result<OpId, String> {
        Err("kselect is a one-shot selection, not an online queue".into())
    }

    fn records(&self) -> Vec<OpRecord> {
        Vec::new()
    }

    fn residual(&self) -> Vec<Element> {
        Vec::new()
    }

    fn result_key(&self) -> Option<Key> {
        self.result
    }

    fn issued(&self) -> u64 {
        0
    }

    fn completed(&self) -> u64 {
        0
    }

    // The selection is "complete" at this node once the result is announced.
    fn all_complete(&self) -> bool {
        self.result.is_some()
    }
}
