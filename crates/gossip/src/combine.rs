//! Run gossip membership *beside* any existing protocol.
//!
//! [`WithGossip<P>`] multiplexes a [`GossipNode`] and an unmodified inner
//! protocol over one message alphabet, so Skeap, Seap, the DHT, or a
//! `Reliable<…>` stack gains a failure detector without touching a line of
//! its code — and every scheduler feature (fault plans, tracing, the model
//! checker's delivery policies) applies to the combined node unchanged.

use crate::proto::{GossipMsg, GossipNode};
use dpq_core::{BitSize, NodeId};
use dpq_sim::{Ctx, CtxEvent, Protocol};

/// Either an application message or a gossip frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SidecarMsg<M> {
    /// The inner protocol's traffic.
    App(M),
    /// Membership traffic.
    Gossip(GossipMsg),
}

dpq_core::wire!(enum SidecarMsg<M> { 0 => App(m) as m, 1 => Gossip(g) as g });

/// A protocol node with a gossip membership sidecar.
#[derive(Debug, Clone)]
pub struct WithGossip<P: Protocol> {
    /// The unmodified application node.
    pub app: P,
    /// The membership sidecar.
    pub gossip: GossipNode,
}

impl<P: Protocol> WithGossip<P> {
    /// Pair `app` with a gossip sidecar.
    pub fn new(app: P, gossip: GossipNode) -> Self {
        WithGossip { app, gossip }
    }

    /// Run a closure over a sub-protocol under its own context, then remap
    /// its sends through `wrap` and replay its telemetry notes.
    fn run_sub<N: BitSize>(
        ctx: &mut Ctx<SidecarMsg<P::Msg>>,
        wrap: impl Fn(N) -> SidecarMsg<P::Msg>,
        f: impl FnOnce(&mut Ctx<N>),
    ) {
        let mut sub = Ctx::new(ctx.me(), ctx.now());
        f(&mut sub);
        for env in sub.take_outbox() {
            ctx.send(env.dst, wrap(env.msg));
        }
        for ev in sub.drain_events() {
            match ev {
                CtxEvent::Phase { label, value } => ctx.phase_mark(label, value),
                CtxEvent::OpDone { op } => ctx.op_completed(op),
            }
        }
    }
}

impl<P: Protocol> Protocol for WithGossip<P> {
    type Msg = SidecarMsg<P::Msg>;

    fn on_activate(&mut self, ctx: &mut Ctx<Self::Msg>) {
        let app = &mut self.app;
        Self::run_sub(ctx, SidecarMsg::App, |sub| app.on_activate(sub));
        let gossip = &mut self.gossip;
        Self::run_sub(ctx, SidecarMsg::Gossip, |sub| gossip.on_activate(sub));
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Ctx<Self::Msg>) {
        match msg {
            SidecarMsg::App(m) => {
                let app = &mut self.app;
                Self::run_sub(ctx, SidecarMsg::App, |sub| app.on_message(from, m, sub));
            }
            SidecarMsg::Gossip(g) => {
                let gossip = &mut self.gossip;
                Self::run_sub(ctx, SidecarMsg::Gossip, |sub| {
                    gossip.on_message(from, g, sub)
                });
            }
        }
    }

    /// Quiescence is the application's call; gossip is perpetual soft state.
    fn done(&self) -> bool {
        self.app.done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::GossipConfig;
    use dpq_core::{vlq_bits, MsgKind};

    /// Tiny echo protocol for the combinator plumbing tests.
    struct Echo {
        me: NodeId,
        got: Vec<u64>,
    }

    impl Protocol for Echo {
        type Msg = u64;
        fn on_activate(&mut self, ctx: &mut Ctx<u64>) {
            if self.me == NodeId(0) && ctx.now() == 0 {
                ctx.send(NodeId(1), 42);
                ctx.phase_mark("echo.sent", 1);
            }
        }
        fn on_message(&mut self, _from: NodeId, msg: u64, ctx: &mut Ctx<u64>) {
            self.got.push(msg);
            ctx.phase_mark("echo.got", msg);
        }
    }

    fn pair() -> Vec<WithGossip<Echo>> {
        let peers = [NodeId(0), NodeId(1)];
        (0..2u64)
            .map(|i| {
                WithGossip::new(
                    Echo {
                        me: NodeId(i),
                        got: Vec::new(),
                    },
                    GossipNode::new(NodeId(i), &peers, GossipConfig::default()),
                )
            })
            .collect()
    }

    #[test]
    fn app_and_gossip_traffic_multiplex() {
        let mut sched = dpq_sim::SyncScheduler::new(pair());
        for _ in 0..6 {
            sched.step_round();
        }
        assert_eq!(sched.node(NodeId(1)).app.got, vec![42]);
        // Gossip ran beside the app: each side replicated the other's
        // heartbeat.
        for (at, of) in [(0, 1), (1, 0)] {
            let hb = sched.node(NodeId(at)).gossip.heartbeat_of(NodeId(of));
            assert!(hb.is_some(), "node {at} never learned node {of}");
        }
    }

    #[test]
    fn sidecar_msg_bits_and_kinds_delegate() {
        let app: SidecarMsg<u64> = SidecarMsg::App(7);
        assert_eq!(app.bits(), 1 + vlq_bits(7));
        assert_eq!(app.kind(), MsgKind::OTHER);
        let gsp: SidecarMsg<u64> = SidecarMsg::Gossip(GossipMsg::Ack { delta: Vec::new() });
        assert_eq!(gsp.kind(), MsgKind("gossip.ack"));
    }

    #[test]
    fn phase_marks_survive_the_wrapper() {
        use dpq_sim::{TraceEvent, VecTracer};
        let mut sched = dpq_sim::SyncScheduler::new(pair()).with_tracer(VecTracer::new());
        for _ in 0..3 {
            sched.step_round();
        }
        let marks: Vec<_> = sched
            .tracer
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::PhaseMark { .. }))
            .collect();
        assert!(!marks.is_empty(), "inner phase marks were swallowed");
    }
}
