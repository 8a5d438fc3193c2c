//! The asynchronous scheduler — the paper's correctness model.
//!
//! §1.1: channels hold arbitrarily many messages; messages are never lost or
//! duplicated; delivery delay is arbitrary but finite (fair receipt);
//! delivery is **non-FIFO**; nodes are activated periodically. There are no
//! clocks and no bounds on relative speeds.
//!
//! We realise this as a randomized adversary: at every step, a coin decides
//! between delivering one uniformly chosen in-flight message and activating
//! one uniformly chosen node. Uniform choice over a finite in-flight set
//! gives fair receipt with probability 1; choosing uniformly (not FIFO)
//! exercises the reordering the protocols must tolerate. A deterministic
//! round-robin activation sweep is interleaved so runs terminate even when
//! the coin is unlucky.

use crate::dormant::DormantSet;
use crate::envelope::Envelope;
use crate::faults::{FaultPlan, FaultState};
use crate::flightset::FlightSet;
use crate::metrics::Metrics;
use crate::policy::{DeliveryPolicy, RandomAdversary, StepChoice};
use crate::protocol::{Ctx, CtxBufs, CtxEvent, Protocol};
use dpq_core::{NodeId, OpId};
use dpq_telemetry::{NullTelemetry, Telemetry};
use dpq_trace::{NullTracer, TraceEvent, Tracer};

/// Tunables for the asynchronous adversary.
#[derive(Debug, Clone, Copy)]
pub struct AsyncConfig {
    /// Probability that a step delivers a message (when any is in flight)
    /// rather than activating a node. Lower values starve channels longer,
    /// stressing reordering harder.
    pub deliver_bias: f64,
    /// Every this many steps, activate all nodes once in order (guarantees
    /// progress for protocols that only act on activation).
    pub sweep_every: u64,
    /// Optional bound on delivery delay, in steps. When set, a message
    /// sent at step s is *forced* to deliver by step s + bound — the
    /// bounded-delay asynchronous model, a middle ground between the
    /// synchronous rounds and the unbounded adversary. `None` (default)
    /// keeps delays arbitrary-but-finite (fair uniform choice).
    pub max_delay: Option<u64>,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        AsyncConfig {
            deliver_bias: 0.6,
            sweep_every: 64,
            max_delay: None,
        }
    }
}

/// Randomized asynchronous scheduler.
///
/// Generic over a [`Tracer`] sink like the synchronous scheduler; the time
/// axis of its events is the adversary *step* counter (there are no rounds,
/// so no `RoundEnd` events are emitted).
///
/// Also generic over a [`Telemetry`] sink (default [`NullTelemetry`],
/// `ENABLED = false`): per-delivery kind/bits, op latencies as they
/// complete, and — at every activation sweep — a measurement window
/// (messages delivered since the previous sweep), flight-set occupancy and
/// overflow-spill gauges, and the fault layer's running totals. Telemetry
/// never draws randomness, so an instrumented run is schedule-identical to
/// a bare one.
///
/// Also generic over the [`DeliveryPolicy`] that picks what each free step
/// does. The default [`RandomAdversary`] is the paper's randomized
/// adversary; `dpq-mc` plugs in scripted policies to enumerate schedules.
///
/// Optionally executes a [`FaultPlan`]. The plan draws from its own seeded
/// stream, never from the adversary's, so a null plan leaves the adversary's
/// choices — and therefore the whole run — bit-for-bit identical to a
/// scheduler constructed without one. `P::Msg: Clone` because the fault
/// layer may have to duplicate a message.
pub struct AsyncScheduler<
    P: Protocol,
    T: Tracer = NullTracer,
    D: DeliveryPolicy = RandomAdversary,
    M: Telemetry = NullTelemetry,
> {
    nodes: Vec<P>,
    /// In-flight messages, maturity-indexed when the fault layer (or a
    /// delay bound) makes readiness non-trivial.
    in_flight: FlightSet<P::Msg>,
    /// The fault plan being executed (the null plan by default).
    faults: FaultState,
    /// Run metrics (steps, messages, bits, congestion).
    pub metrics: Metrics,
    /// The event sink.
    pub tracer: T,
    /// The metrics sink.
    pub telemetry: M,
    policy: D,
    cfg: AsyncConfig,
    step: u64,
    /// `metrics.messages` at the last telemetry window boundary.
    win_base_messages: u64,
    /// Gauge/histogram handles, registered lazily at the first sweep.
    win_handles: Option<(dpq_telemetry::GaugeId, dpq_telemetry::GaugeId)>,
    /// Recycled Ctx storage: one outbox/event allocation per scheduler,
    /// not per node turn.
    bufs: CtxBufs<P::Msg>,
    /// Nodes whose activations may be skipped ([`Protocol::dormant`]).
    dormant: DormantSet,
}

impl<P: Protocol> AsyncScheduler<P>
where
    P::Msg: Clone,
{
    /// The paper's randomized adversary with the given schedule seed:
    /// default configuration, null fault plan, no sinks. The optional parts
    /// are the `with_*` setters below, applied before the first step.
    pub fn new(nodes: Vec<P>, seed: u64) -> Self {
        let n = nodes.len();
        let cfg = AsyncConfig::default();
        AsyncScheduler {
            nodes,
            in_flight: FlightSet::new(false, cfg.max_delay),
            faults: FaultState::new(FaultPlan::none(), n),
            metrics: Metrics::new(n),
            tracer: NullTracer,
            telemetry: NullTelemetry,
            policy: RandomAdversary::new(seed),
            cfg,
            step: 0,
            win_base_messages: 0,
            win_handles: None,
            bufs: CtxBufs::default(),
            dormant: DormantSet::new(n),
        }
    }
}

impl<P: Protocol, T: Tracer, D: DeliveryPolicy, M: Telemetry> AsyncScheduler<P, T, D, M>
where
    P::Msg: Clone,
{
    /// Run under a custom adversary configuration.
    pub fn with_config(mut self, cfg: AsyncConfig) -> Self {
        self.cfg = cfg;
        self.reindex_flight()
    }

    /// Execute `plan` (replaces the null plan).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = FaultState::new(plan, self.nodes.len());
        self.reindex_flight()
    }

    /// Maturity only needs indexing when ready times can differ from send
    /// steps (an active fault plan) or a delay bound must find overdue
    /// messages; otherwise the set is a plain vector. Both are fixed by
    /// the setters, which run before anything is in flight.
    fn reindex_flight(mut self) -> Self {
        assert!(
            self.in_flight.is_empty(),
            "configure the scheduler before its first step"
        );
        self.in_flight = FlightSet::new(self.faults.active(), self.cfg.max_delay);
        self
    }

    /// Let `policy` pick what each free step does.
    pub fn with_policy<D2: DeliveryPolicy>(self, policy: D2) -> AsyncScheduler<P, T, D2, M> {
        self.map_parts(|t, _, m| (t, policy, m))
    }

    /// Attach an event sink.
    pub fn with_tracer<T2: Tracer>(self, tracer: T2) -> AsyncScheduler<P, T2, D, M> {
        self.map_parts(|_, d, m| (tracer, d, m))
    }

    /// Attach a metrics sink.
    pub fn with_telemetry<M2: Telemetry>(self, telemetry: M2) -> AsyncScheduler<P, T, D, M2> {
        self.map_parts(|t, d, _| (t, d, telemetry))
    }

    fn map_parts<T2: Tracer, D2: DeliveryPolicy, M2: Telemetry>(
        self,
        f: impl FnOnce(T, D, M) -> (T2, D2, M2),
    ) -> AsyncScheduler<P, T2, D2, M2> {
        let (tracer, policy, telemetry) = f(self.tracer, self.policy, self.telemetry);
        AsyncScheduler {
            nodes: self.nodes,
            in_flight: self.in_flight,
            faults: self.faults,
            metrics: self.metrics,
            tracer,
            telemetry,
            policy,
            cfg: self.cfg,
            step: self.step,
            win_base_messages: self.win_base_messages,
            win_handles: self.win_handles,
            bufs: self.bufs,
            dormant: self.dormant,
        }
    }

    /// The delivery policy.
    pub fn policy(&self) -> &D {
        &self.policy
    }

    /// Mutable access to the delivery policy (e.g. to read a decision log).
    pub fn policy_mut(&mut self) -> &mut D {
        &mut self.policy
    }

    /// The fault layer's state (plan, down map, injection counters).
    pub fn faults(&self) -> &FaultState {
        &self.faults
    }

    /// Consume the scheduler, yielding the protocol instances and both
    /// sinks — for drivers that fold node-local state (e.g. transport
    /// counters) into the metrics sink after the run ends.
    pub fn into_parts(self) -> (Vec<P>, T, M) {
        (self.nodes, self.tracer, self.telemetry)
    }

    /// Consume the scheduler, yielding the protocol instances — used by
    /// churn drivers that rebuild a scheduler over a changed membership.
    /// Any in-flight messages are discarded; run to quiescence first.
    pub fn into_nodes(self) -> Vec<P> {
        self.nodes
    }

    /// Register that the driver just injected `op` into its issuing node;
    /// starts the op's latency clock at the current step.
    pub fn note_injected(&mut self, op: OpId) {
        self.note_injected_at(op, self.step);
    }

    /// Register an injection whose *arrival* happened at step `step` — the
    /// open-loop entry point. An open-loop driver replays a pre-drawn
    /// arrival schedule (ticks mapped onto adversary steps); the latency
    /// clock must start at the mapped arrival step, not at whatever step
    /// the driver reached when it got around to issuing the op.
    pub fn note_injected_at(&mut self, op: OpId, step: u64) {
        self.metrics.note_injected(op, step);
        if T::ENABLED {
            self.tracer.record(TraceEvent::OpInjected {
                round: self.step,
                node: op.node,
                op,
            });
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.nodes.len()
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

    /// Mutable access to the instance at `v`. Wakes `v` if it was dormant.
    pub fn node_mut(&mut self, v: NodeId) -> &mut P {
        self.dormant.wake(v.index());
        &mut self.nodes[v.index()]
    }

    /// Activations (sweep or adversary pick) skipped so far because the
    /// node had said it was [dormant](Protocol::dormant).
    pub fn dormant_skips(&self) -> u64 {
        self.dormant.skips
    }

    /// Messages currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Number of in-flight messages a [`DeliveryPolicy`] may pick from at
    /// this instant: all of them without a fault plan, only the mature
    /// ones with one. This is the `eligible` that the next non-sweep,
    /// non-forced [`step_once`](Self::step_once) will pass to the policy.
    pub fn eligible_now(&self) -> usize {
        if self.faults.active() {
            self.in_flight.eligible_count()
        } else {
            self.in_flight.len()
        }
    }

    /// Iterate over all in-flight envelopes in slot order — used by the
    /// model checker to fingerprint the channel state.
    pub fn in_flight_iter(&self) -> impl Iterator<Item = &Envelope<P::Msg>> {
        self.in_flight.iter()
    }

    /// Adversary steps taken so far.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// The adversary configuration this scheduler runs under.
    pub fn config(&self) -> &AsyncConfig {
        &self.cfg
    }

    fn run_node<F: FnOnce(&mut P, &mut Ctx<P::Msg>)>(&mut self, i: usize, f: F) {
        let me = NodeId(i as u64);
        let mut ctx = Ctx::from_bufs(me, self.step, &mut self.bufs);
        f(&mut self.nodes[i], &mut ctx);
        self.dormant.set(i, self.nodes[i].dormant());
        for ev in ctx.drain_events() {
            match ev {
                CtxEvent::Phase { label, value } => {
                    if T::ENABLED {
                        self.tracer.record(TraceEvent::PhaseMark {
                            round: self.step,
                            node: me,
                            label,
                            value,
                        });
                    }
                }
                CtxEvent::OpDone { op } => {
                    let lat = self.metrics.note_completed(op, self.step);
                    if M::ENABLED {
                        if let Some(lat) = lat {
                            self.telemetry.on_op_latency(lat);
                        }
                    }
                    if T::ENABLED {
                        self.tracer.record(TraceEvent::OpCompleted {
                            round: self.step,
                            node: me,
                            op,
                        });
                    }
                }
            }
        }
        let step = self.step;
        if T::ENABLED {
            for env in ctx.outbox() {
                self.tracer.record(TraceEvent::Send {
                    round: step,
                    src: env.src,
                    dst: env.dst,
                    kind: env.kind,
                    bits: env.bits,
                });
            }
        }
        if !self.faults.active() {
            for env in ctx.drain_outbox() {
                self.in_flight.push(step, env);
            }
        } else {
            let in_flight = &mut self.in_flight;
            let faults = &mut self.faults;
            let tracer = &mut self.tracer;
            for env in ctx.drain_outbox() {
                faults.route_send(step, env, tracer, |extra, env| {
                    in_flight.push(step + extra, env);
                });
            }
        }
        ctx.into_bufs(&mut self.bufs);
    }

    fn deliver_at(&mut self, idx: usize) {
        let env = self.in_flight.swap_remove(idx);
        if let Some(reason) = self.faults.delivery_fault(env.src, env.dst) {
            self.faults.note_delivery_drop(reason);
            if T::ENABLED {
                self.tracer.record(TraceEvent::FaultDrop {
                    round: self.step,
                    src: env.src,
                    dst: env.dst,
                    kind: env.kind,
                    bits: env.bits,
                    reason,
                });
            }
            return;
        }
        let dst = env.dst.index();
        self.metrics.on_deliver(dst, env.bits, env.kind);
        if M::ENABLED {
            self.telemetry.on_deliver(env.kind, env.bits);
        }
        if T::ENABLED {
            self.tracer.record(TraceEvent::Deliver {
                round: self.step,
                src: env.src,
                dst: env.dst,
                kind: env.kind,
                bits: env.bits,
            });
        }
        self.run_node(dst, |n, ctx| n.on_message(env.src, env.msg, ctx));
    }

    /// One activation turn (sweep or adversary pick): always traced, but a
    /// node that said it was [dormant](Protocol::dormant) is not stepped.
    fn activate(&mut self, i: usize) {
        if T::ENABLED {
            self.tracer.record(TraceEvent::Activate {
                round: self.step,
                node: NodeId(i as u64),
            });
        }
        if !self.dormant.skip(i) {
            self.run_node(i, |n, ctx| n.on_activate(ctx));
        }
    }

    /// One adversary step.
    ///
    /// With an active fault plan the step opens by firing scheduled
    /// crash/recover/partition transitions; down nodes are skipped by sweeps
    /// and uniform activation, delay-inflated messages only become eligible
    /// once mature, and a delivery attempt across a live cut (or to a down
    /// node) destroys the message.
    pub fn step_once(&mut self) {
        self.dormant.settle();
        self.step += 1;
        self.in_flight.advance(self.step);
        if self.faults.active() {
            for tr in self.faults.advance_to(self.step) {
                if T::ENABLED {
                    self.tracer.record(tr.to_event(self.step));
                }
            }
        }
        if self.cfg.sweep_every > 0 && self.step.is_multiple_of(self.cfg.sweep_every) {
            if M::ENABLED {
                self.telemetry_window();
            }
            for i in 0..self.nodes.len() {
                if !self.faults.is_down(NodeId(i as u64)) {
                    self.activate(i);
                }
            }
            return;
        }
        // Bounded-delay mode: overdue messages deliver before anything else.
        // Fault-layer delay inflation extends the bound (`ready >= sent`).
        if self.cfg.max_delay.is_some() {
            if let Some(idx) = self.in_flight.first_overdue() {
                self.deliver_at(idx);
                return;
            }
        }
        if !self.faults.active() {
            // Without a fault plan every in-flight message is eligible.
            match self
                .policy
                .decide(self.in_flight.len(), self.nodes.len(), &self.cfg)
            {
                // swap_remove of the chosen index = non-FIFO fair delivery.
                StepChoice::Deliver(k) => self.deliver_at(k),
                StepChoice::Activate(i) => self.activate(i),
            }
            return;
        }
        // Fault-aware path: only mature messages are eligible for the
        // delivery pick, and a crashed node's activation turn is consumed
        // doing nothing (fail-pause). The k-th-eligible select reproduces
        // the retired linear scan's `eligible[k]` exactly, so the random
        // adversary's choices — and the pinned golden traces — are
        // unchanged.
        let eligible = self.in_flight.eligible_count();
        match self.policy.decide(eligible, self.nodes.len(), &self.cfg) {
            StepChoice::Deliver(k) => {
                let idx = self.in_flight.pick_eligible(k);
                self.deliver_at(idx);
            }
            StepChoice::Activate(i) => {
                if !self.faults.is_down(NodeId(i as u64)) {
                    self.activate(i);
                }
            }
        }
    }

    /// Close a telemetry measurement window at a sweep boundary: deliveries
    /// since the previous sweep, the running congestion maximum, flight-set
    /// occupancy and overflow-heap spill gauges, and the fault layer's
    /// totals. Pure observation — reads scheduler state, mutates only the
    /// sink.
    fn telemetry_window(&mut self) {
        let (occ, spill) = match self.win_handles {
            Some(h) => h,
            None => {
                let h = (
                    self.telemetry.register_gauge("flightset.occupancy"),
                    self.telemetry.register_gauge("flightset.overflow_spill"),
                );
                self.win_handles = Some(h);
                h
            }
        };
        let delivered = self.metrics.messages - self.win_base_messages;
        self.win_base_messages = self.metrics.messages;
        // Async has no rounds, so the congestion figure is the running
        // per-(node, run) maximum rather than a per-window one.
        self.telemetry
            .on_window_end(delivered, self.metrics.congestion);
        self.telemetry.gauge_set(occ, self.in_flight.len() as u64);
        self.telemetry
            .gauge_set(spill, self.in_flight.overflow_len() as u64);
        if self.faults.active() {
            self.telemetry.fault_totals(self.faults.stats.totals());
        }
    }

    /// Nothing in flight and every node reports done.
    pub fn quiescent(&self) -> bool {
        self.in_flight.is_empty() && self.nodes.iter().all(Protocol::done)
    }

    /// Run until quiescence (plus `pred`) or a step budget.
    /// Returns `true` on quiescence.
    pub fn run_until(&mut self, max_steps: u64, pred: impl Fn(&[P]) -> bool) -> bool {
        let start = self.step;
        while self.step - start < max_steps {
            if self.quiescent() && pred(&self.nodes) {
                return true;
            }
            self.step_once();
        }
        self.quiescent() && pred(&self.nodes)
    }

    /// Run until quiescence or the step budget.
    pub fn run_until_quiescent(&mut self, max_steps: u64) -> bool {
        self.run_until(max_steps, |_| true)
    }

    /// Run until `pred` holds, ignoring in-flight messages — the stopping
    /// rule for perpetually cycling protocols. Returns `true` if `pred` was
    /// reached within the budget.
    pub fn run_until_pred(&mut self, max_steps: u64, pred: impl Fn(&[P]) -> bool) -> bool {
        let start = self.step;
        while self.step - start < max_steps {
            if pred(&self.nodes) {
                return true;
            }
            self.step_once();
        }
        pred(&self.nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echo protocol: node 0 sends `k` pings to everyone on first activation;
    /// receivers reply; node 0 counts pongs.
    struct Echo {
        me: usize,
        n: usize,
        k: usize,
        sent: bool,
        pongs: usize,
    }

    #[derive(Clone)]
    enum Msg {
        Ping,
        Pong,
    }

    impl dpq_core::BitSize for Msg {
        fn bits(&self) -> u64 {
            1
        }
    }

    impl Protocol for Echo {
        type Msg = Msg;

        fn on_activate(&mut self, ctx: &mut Ctx<Msg>) {
            if self.me == 0 && !self.sent {
                self.sent = true;
                for _ in 0..self.k {
                    for v in 1..self.n {
                        ctx.send(NodeId(v as u64), Msg::Ping);
                    }
                }
            }
        }

        fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Ctx<Msg>) {
            match msg {
                Msg::Ping => ctx.send(from, Msg::Pong),
                Msg::Pong => self.pongs += 1,
            }
        }

        fn done(&self) -> bool {
            self.me != 0 || (self.sent && self.pongs == self.k * (self.n - 1))
        }
    }

    fn echo(n: usize, k: usize, seed: u64) -> AsyncScheduler<Echo> {
        AsyncScheduler::new(
            (0..n)
                .map(|me| Echo {
                    me,
                    n,
                    k,
                    sent: false,
                    pongs: 0,
                })
                .collect(),
            seed,
        )
    }

    #[test]
    fn all_messages_eventually_delivered() {
        for seed in 0..10 {
            let mut s = echo(8, 5, seed);
            assert!(s.run_until_quiescent(1_000_000), "seed {seed} stalled");
            assert_eq!(s.metrics.messages, 2 * 5 * 7);
        }
    }

    #[test]
    fn runs_replay_deterministically() {
        let trace = |seed| {
            let mut s = echo(6, 3, seed);
            s.run_until_quiescent(1_000_000);
            (s.steps(), s.metrics.snapshot())
        };
        assert_eq!(trace(42), trace(42));
        assert_ne!(trace(42).0, trace(43).0);
    }

    #[test]
    fn starving_adversary_still_terminates() {
        let mut s = echo(4, 2, 9).with_config(AsyncConfig {
            deliver_bias: 0.05,
            sweep_every: 16,
            max_delay: None,
        });
        assert!(s.run_until_quiescent(2_000_000));
    }

    #[test]
    fn bounded_delay_mode_forces_timely_delivery() {
        // With a delay bound, every message arrives within `bound` steps of
        // being sent even under an extreme starvation bias.
        let mut s = echo(4, 3, 11).with_config(AsyncConfig {
            deliver_bias: 0.01, // would starve without the bound
            sweep_every: 0,     // no sweeps either
            max_delay: Some(8),
        });
        // Kick node 0 manually since sweeps are off.
        s.step_once();
        assert!(s.run_until_quiescent(500_000));
        assert_eq!(s.metrics.messages, 2 * 3 * 3);
    }

    #[test]
    fn null_fault_plan_is_bit_identical_to_no_plan() {
        // Same seed, one scheduler with an explicit null plan: the adversary
        // must make exactly the same choices.
        let run = |null_plan: bool| {
            let mut s = echo(6, 3, 42);
            if null_plan {
                s = s.with_faults(crate::faults::FaultPlan::uniform(7, 0.0, 0.0));
            }
            s.run_until_quiescent(1_000_000);
            (s.steps(), s.metrics.snapshot())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn reliable_echo_survives_drops_dups_delay_and_crash() {
        let nodes = crate::reliable::Reliable::wrap_all(
            (0..4).map(|me| Echo {
                me,
                n: 4,
                k: 3,
                sent: false,
                pongs: 0,
            }),
            256,
        );
        let plan = crate::faults::FaultPlan::uniform(3, 0.2, 0.2)
            .with_delay(0.2, 32)
            .with_crash(NodeId(2), 200, Some(1200));
        let mut s = AsyncScheduler::new(nodes, 7).with_faults(plan);
        assert!(s.run_until_quiescent(4_000_000), "run stalled under faults");
        assert_eq!(s.nodes()[0].inner().pongs, 3 * 3);
        let stats = s.faults().stats;
        assert!(stats.dropped() > 0);
        assert_eq!(stats.crashes, 1);
        assert_eq!(stats.recoveries, 1);
        // The transport had to retransmit to heal the losses.
        assert!(s.nodes().iter().any(|n| n.stats.retransmits > 0));
    }
}
