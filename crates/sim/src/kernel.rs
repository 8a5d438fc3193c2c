//! The node turn both schedulers share.
//!
//! The paper's two execution models (§1.1) differ in one thing: *when* a
//! sent message is delivered. What a node does with a delivery or an
//! activation, and what a run records about it — fault drops, delivery
//! accounting, the [`CtxEvent`] drain, `Send` tracing, fault routing,
//! dormancy — is the same in both and is written here, once. The order of
//! the events of a turn is a format (the golden traces pin it); this is
//! the one module that knows it. The schedulers keep their clock and their
//! delivery order, pass the clock in, and take the sends back through a
//! closure.

use crate::dormant::DormantSet;
use crate::envelope::Envelope;
use crate::faults::{FaultPlan, FaultState};
use crate::metrics::Metrics;
use crate::protocol::{Ctx, CtxBufs, CtxEvent, Protocol};
use dpq_core::{NodeId, OpId};
use dpq_telemetry::{NullTelemetry, Telemetry};
use dpq_trace::{NullTracer, TraceEvent, Tracer};

/// What [`SyncScheduler`](crate::SyncScheduler) and
/// [`AsyncScheduler`](crate::AsyncScheduler) have in common — the nodes,
/// the fault layer, the metrics and both sinks — and the accessors over
/// them; each scheduler dereferences to its kernel.
pub struct Kernel<P: Protocol, T: Tracer = NullTracer, M: Telemetry = NullTelemetry> {
    pub(crate) nodes: Vec<P>,
    /// The fault plan being executed (the null plan by default).
    pub(crate) faults: FaultState,
    /// Run metrics (rounds or steps, messages, bits, congestion).
    pub metrics: Metrics,
    /// The event sink.
    pub tracer: T,
    /// The metrics sink.
    pub telemetry: M,
    /// Recycled Ctx storage: one outbox/event allocation per scheduler,
    /// not per node turn.
    bufs: CtxBufs<P::Msg>,
    /// Nodes whose activations may be skipped ([`Protocol::dormant`]).
    pub(crate) dormant: DormantSet,
}

impl<P: Protocol> Kernel<P>
where
    P::Msg: Clone,
{
    /// `n` protocol instances (index i = `NodeId(i)`): null fault plan, no
    /// sinks.
    pub(crate) fn new(nodes: Vec<P>) -> Self {
        let n = nodes.len();
        Kernel {
            nodes,
            faults: FaultState::new(FaultPlan::none(), n),
            metrics: Metrics::new(n),
            tracer: NullTracer,
            telemetry: NullTelemetry,
            bufs: CtxBufs::default(),
            dormant: DormantSet::new(n),
        }
    }
}

impl<P: Protocol, T: Tracer, M: Telemetry> Kernel<P, T, M>
where
    P::Msg: Clone,
{
    /// Execute `plan` (replaces the null plan; set before the first step).
    pub(crate) fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = FaultState::new(plan, self.nodes.len());
        self
    }

    /// Swap the sinks, keeping everything else.
    pub(crate) fn map_sinks<T2: Tracer, M2: Telemetry>(
        self,
        f: impl FnOnce(T, M) -> (T2, M2),
    ) -> Kernel<P, T2, M2> {
        let (tracer, telemetry) = f(self.tracer, self.telemetry);
        Kernel {
            nodes: self.nodes,
            faults: self.faults,
            metrics: self.metrics,
            tracer,
            telemetry,
            bufs: self.bufs,
            dormant: self.dormant,
        }
    }

    /// The fault layer's state (plan, down map, injection counters).
    pub fn faults(&self) -> &FaultState {
        &self.faults
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.nodes.len()
    }

    /// The protocol instance at `v`.
    pub fn node(&self, v: NodeId) -> &P {
        &self.nodes[v.index()]
    }

    /// Mutable access to the instance at `v` (drivers inject requests
    /// here). Wakes `v` if it was dormant.
    pub fn node_mut(&mut self, v: NodeId) -> &mut P {
        self.dormant.wake(v.index());
        &mut self.nodes[v.index()]
    }

    /// All instances.
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// Mutable access to all instances. Wakes every dormant node — in
    /// O(1), drivers call this once per injected op.
    pub fn nodes_mut(&mut self) -> &mut [P] {
        self.dormant.wake_all();
        &mut self.nodes
    }

    /// Activations (a sync round's, an async sweep's or adversary pick's)
    /// skipped so far because the node had no message and had said it was
    /// [dormant](Protocol::dormant).
    pub fn dormant_skips(&self) -> u64 {
        self.dormant.skips
    }

    /// Start `op`'s latency clock at simulated time `tick`; the trace shows
    /// the injection at the scheduler's `now`.
    pub(crate) fn note_injected(&mut self, op: OpId, tick: u64, now: u64) {
        self.metrics.note_injected(op, tick);
        if T::ENABLED {
            self.tracer.record(TraceEvent::OpInjected {
                round: now,
                node: op.node,
                op,
            });
        }
    }

    /// Open a round or step: apply a pending wake-all and fire the fault
    /// plan's crash/recover/partition transitions due by `now`.
    pub(crate) fn open_step(&mut self, now: u64) {
        self.dormant.settle();
        if self.faults.active() {
            for tr in self.faults.advance_to(now) {
                if T::ENABLED {
                    self.tracer.record(tr.to_event(now));
                }
            }
        }
    }

    /// Admit or drop one delivery: a message to a down node or across a
    /// live partition cut is destroyed and recorded as such (`false`);
    /// any other is accounted and traced as delivered (`true`).
    #[inline]
    fn admit(&mut self, env: &Envelope<P::Msg>, now: u64) -> bool {
        if let Some(reason) = self.faults.delivery_fault(env.src, env.dst) {
            self.faults.note_delivery_drop(reason);
            if T::ENABLED {
                self.tracer.record(TraceEvent::FaultDrop {
                    round: now,
                    src: env.src,
                    dst: env.dst,
                    kind: env.kind,
                    bits: env.bits,
                    reason,
                });
            }
            return false;
        }
        self.metrics.on_deliver(env.dst.index(), env.bits);
        if M::ENABLED {
            self.telemetry.on_deliver(env.kind, env.bits);
        }
        if T::ENABLED {
            self.tracer.record(TraceEvent::Deliver {
                round: now,
                src: env.src,
                dst: env.dst,
                kind: env.kind,
                bits: env.bits,
            });
        }
        true
    }

    /// As far as the trace can tell every live node's activation happens,
    /// stepped or skipped.
    #[inline]
    fn trace_activate(&mut self, me: NodeId, now: u64) {
        if T::ENABLED {
            self.tracer.record(TraceEvent::Activate {
                round: now,
                node: me,
            });
        }
    }

    /// Node `i` is due an activation with nothing delivered. If it said it
    /// was [dormant](Protocol::dormant) the activation is traced and
    /// counted here and the node is not touched — no `Ctx`, no call, no
    /// read of `nodes[i]` — and the caller goes on to the next node.
    #[inline]
    pub(crate) fn skip_activation(&mut self, i: usize, now: u64) -> bool {
        let asleep = self.dormant.skip(i);
        if asleep {
            self.trace_activate(NodeId(i as u64), now);
        }
        asleep
    }

    /// One node turn at `now`: node `i` takes what `inbox` holds for it —
    /// each message admitted or dropped — and is then activated if
    /// `activate`. If either stepped it the node is asked whether it is
    /// dormant now; its telemetry notes go to metrics, telemetry and trace
    /// (operations complete at simulated time `done_tick`), its sends are
    /// traced, and each send the fault layer lets through is handed to
    /// `enqueue` with the extra delay the layer gave it (0 without an
    /// active plan). A turn whose every message was dropped and that did
    /// not activate leaves the node untouched.
    #[inline]
    pub(crate) fn turn(
        &mut self,
        i: usize,
        now: u64,
        done_tick: u64,
        inbox: impl IntoIterator<Item = Envelope<P::Msg>>,
        activate: bool,
        mut enqueue: impl FnMut(u64, Envelope<P::Msg>),
    ) {
        let me = NodeId(i as u64);
        let mut ctx = Ctx::from_bufs(me, now, &mut self.bufs);
        let mut stepped = activate;
        for env in inbox {
            if self.admit(&env, now) {
                self.nodes[i].on_message(env.src, env.msg, &mut ctx);
                stepped = true;
            }
        }
        if activate {
            self.trace_activate(me, now);
            self.nodes[i].on_activate(&mut ctx);
        }
        if stepped {
            self.dormant.set(i, self.nodes[i].dormant());
        }
        for ev in ctx.drain_events() {
            match ev {
                CtxEvent::Phase { label, value } => {
                    if T::ENABLED {
                        self.tracer.record(TraceEvent::PhaseMark {
                            round: now,
                            node: me,
                            label,
                            value,
                        });
                    }
                }
                CtxEvent::OpDone { op } => {
                    let lat = self.metrics.note_completed(op, done_tick);
                    if M::ENABLED {
                        if let Some(lat) = lat {
                            self.telemetry.on_op_latency(lat);
                        }
                    }
                    if T::ENABLED {
                        self.tracer.record(TraceEvent::OpCompleted {
                            round: now,
                            node: me,
                            op,
                        });
                    }
                }
            }
        }
        if T::ENABLED {
            for env in ctx.outbox() {
                self.tracer.record(TraceEvent::Send {
                    round: now,
                    src: env.src,
                    dst: env.dst,
                    kind: env.kind,
                    bits: env.bits,
                });
            }
        }
        if !self.faults.active() {
            ctx.drain_outbox().for_each(|env| enqueue(0, env));
        } else {
            for env in ctx.drain_outbox() {
                self.faults
                    .route_send(now, env, &mut self.tracer, &mut enqueue);
            }
        }
        ctx.into_bufs(&mut self.bufs);
    }
}
