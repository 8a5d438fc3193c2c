//! The protocol trait and the context handed to protocol code.

use crate::envelope::Envelope;
use dpq_core::{BitSize, Element, History, NodeHistory, NodeId, OpId, OpKind};

/// A telemetry note a protocol leaves in its [`Ctx`] for its runtime.
///
/// Runtime turns (a scheduler round or a socket-runtime tick) drain these
/// after each node runs: phase marks flow to the tracer, operation
/// completions additionally close the op's latency window in the metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtxEvent {
    /// A named protocol phase boundary.
    Phase {
        /// Phase label (e.g. `"skeap.batch"`).
        label: &'static str,
        /// Phase payload (cycle/phase/iteration number).
        value: u64,
    },
    /// An injected operation produced its return value.
    OpDone {
        /// The completed operation.
        op: OpId,
    },
}

/// Recycled backing storage for a [`Ctx`].
///
/// Each scheduler keeps one of these and threads it through every node turn
/// via [`Ctx::from_bufs`] / [`Ctx::into_bufs`], so the outbox and event
/// vectors are allocated once per scheduler instead of once per turn —
/// steady-state stepping touches the allocator only when a turn outgrows
/// every previous one.
pub(crate) struct CtxBufs<M> {
    outbox: Vec<Envelope<M>>,
    events: Vec<CtxEvent>,
}

impl<M> Default for CtxBufs<M> {
    fn default() -> Self {
        CtxBufs {
            outbox: Vec::new(),
            events: Vec::new(),
        }
    }
}

/// Execution context for one activation or message delivery.
///
/// Protocol code calls [`Ctx::send`] to emit messages; the scheduler decides
/// when they arrive (next round in the synchronous model, after an arbitrary
/// finite delay in the asynchronous model). Sends are buffered here rather
/// than applied immediately so a node can never observe its own same-round
/// sends — exactly the paper's channel semantics.
///
/// [`Ctx::phase_mark`] and [`Ctx::op_completed`] are telemetry hooks: they
/// never change protocol behavior, only what the schedulers' metrics and
/// tracer observe.
pub struct Ctx<M> {
    me: NodeId,
    now: u64,
    outbox: Vec<Envelope<M>>,
    events: Vec<CtxEvent>,
}

impl<M: BitSize> Ctx<M> {
    /// A fresh context for node `me` at logical time `now`.
    ///
    /// The schedulers thread recycled buffers through [`Ctx::from_bufs`]
    /// instead; this constructor is for runtimes that drive [`Protocol`]
    /// nodes outside the simulator (e.g. the socket runtime in `dpq-net`),
    /// and for tests.
    pub fn new(me: NodeId, now: u64) -> Self {
        Ctx {
            me,
            now,
            outbox: Vec::new(),
            events: Vec::new(),
        }
    }

    /// The node this context belongs to.
    #[inline]
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Current round (sync) or step (async). Protocols must not use this for
    /// coordination — the paper's processes have no clocks — but it is handy
    /// for tracing and for injection-rate bookkeeping in drivers.
    #[inline]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Send `msg` to `dst`. Self-sends are allowed (they arrive like any
    /// other message, one round later).
    pub fn send(&mut self, dst: NodeId, msg: M) {
        self.outbox.push(Envelope::new(self.me, dst, msg));
    }

    /// Announce a named phase boundary (e.g. a Skeap batch cycle starting,
    /// a KSelect phase transition). Pure telemetry; free when untraced.
    pub fn phase_mark(&mut self, label: &'static str, value: u64) {
        self.events.push(CtxEvent::Phase { label, value });
    }

    /// Announce that operation `op` produced its return value. Closes the
    /// op's latency window if a driver registered its injection.
    pub fn op_completed(&mut self, op: OpId) {
        self.events.push(CtxEvent::OpDone { op });
    }

    /// A context borrowing its vectors from a scheduler's recycled buffers.
    pub(crate) fn from_bufs(me: NodeId, now: u64, bufs: &mut CtxBufs<M>) -> Self {
        debug_assert!(bufs.outbox.is_empty() && bufs.events.is_empty());
        Ctx {
            me,
            now,
            outbox: std::mem::take(&mut bufs.outbox),
            events: std::mem::take(&mut bufs.events),
        }
    }

    /// Return this context's (drained) vectors to the recycled buffers.
    pub(crate) fn into_bufs(mut self, bufs: &mut CtxBufs<M>) {
        self.outbox.clear();
        self.events.clear();
        bufs.outbox = self.outbox;
        bufs.events = self.events;
    }

    /// The buffered sends, in emission order (trace pass).
    pub(crate) fn outbox(&self) -> &[Envelope<M>] {
        &self.outbox
    }

    /// Drain the buffered sends in order, keeping the vector's capacity.
    pub fn drain_outbox(&mut self) -> std::vec::Drain<'_, Envelope<M>> {
        self.outbox.drain(..)
    }

    /// Drain the telemetry notes in order, keeping the vector's capacity.
    pub fn drain_events(&mut self) -> std::vec::Drain<'_, CtxEvent> {
        self.events.drain(..)
    }

    /// Take the buffered sends, leaving an empty outbox behind.
    pub fn take_outbox(&mut self) -> Vec<Envelope<M>> {
        std::mem::take(&mut self.outbox)
    }

    /// Move another context's telemetry notes into this one — used by
    /// wrapper protocols (e.g. the reliable transport) that run their inner
    /// protocol under a private context but must not swallow its phase marks
    /// or operation completions.
    pub(crate) fn forward_events<N>(&mut self, other: &mut Ctx<N>) {
        self.events.append(&mut other.events);
    }
}

/// A distributed protocol, instantiated once per node.
///
/// Mirrors the paper's model (§1.1): nodes execute *actions* triggered either
/// by a message in their channel ([`Protocol::on_message`]) or by periodic
/// activation ([`Protocol::on_activate`]).
pub trait Protocol {
    /// The protocol's message alphabet.
    type Msg: BitSize;

    /// Called when the scheduler activates this node.
    fn on_activate(&mut self, ctx: &mut Ctx<Self::Msg>);

    /// Called for each message delivered to this node.
    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Ctx<Self::Msg>);

    /// Liveness hook: `true` when this node has no internal work left (its
    /// buffers are drained and it is not waiting on anything it would itself
    /// initiate). The scheduler stops when every node is done *and* no
    /// messages are in flight.
    fn done(&self) -> bool {
        true
    }

    /// Sleep hint. `true` promises that [`Protocol::on_activate`] sends
    /// nothing, records no [`CtxEvent`] and changes no state until this node
    /// next receives a message or is handed out through
    /// `node_mut`/`nodes_mut`. The schedulers then skip those activations
    /// without touching the node (the trace still shows them) and ask again
    /// after every turn the node does take. A runtime may ignore it — the
    /// socket runtime in `dpq-net` does — and the default never sleeps, so
    /// only a protocol whose activations are provably idle between messages
    /// should say `true`: negate the guard `on_activate` already has.
    fn dormant(&self) -> bool {
        false
    }
}

/// The queue seam: what a driver, an oracle or a runtime needs from a
/// distributed priority-queue node beyond [`Protocol`], so none of them
/// forks on *which* queue protocol it holds. Skeap and Seap implement it
/// once each; [`Reliable`](crate::Reliable) forwards it, so wrapped and bare
/// clusters read the same.
pub trait QueueNode: Protocol {
    /// Issue `kind` verbatim: an `Insert` keeps the caller's element id.
    fn issue(&mut self, kind: OpKind) -> OpId;

    /// Issue an `Insert` of a fresh element whose id the node mints.
    fn issue_insert(&mut self, prio: u64, payload: u64) -> OpId;

    /// This node's requests, in issue order, with their returns so far.
    fn node_history(&self) -> &NodeHistory;

    /// Append the elements resident in this node's DHT shard to `out`.
    fn resident(&self, out: &mut Vec<Element>);

    /// Have all requests issued at this node completed?
    fn all_complete(&self) -> bool {
        self.node_history().ops.iter().all(|r| r.is_complete())
    }
}

/// The merged history of a cluster.
pub fn history<Q: QueueNode>(nodes: &[Q]) -> History {
    History::merge(nodes.iter().map(|n| n.node_history().clone()).collect())
}

/// Every element still stored in a DHT shard, in deterministic
/// `(prio, id)` order — what conservation checks compare against the
/// history's unremoved inserts.
pub fn residual<Q: QueueNode>(nodes: &[Q]) -> Vec<Element> {
    let mut v = Vec::new();
    for n in nodes {
        n.resident(&mut v);
    }
    v.sort_unstable_by_key(|e| (e.prio, e.id));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_buffers_sends_in_order() {
        let mut ctx: Ctx<u64> = Ctx::new(NodeId(3), 17);
        assert_eq!(ctx.me(), NodeId(3));
        assert_eq!(ctx.now(), 17);
        ctx.send(NodeId(0), 1);
        ctx.send(NodeId(1), 2);
        ctx.send(NodeId(2), 3);
        let out = ctx.take_outbox();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].dst, NodeId(0));
        assert_eq!(out[2].msg, 3);
        assert!(out.iter().all(|e| e.src == NodeId(3)));
        assert!(ctx.take_outbox().is_empty());
    }
}
