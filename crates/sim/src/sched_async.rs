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

use crate::envelope::Envelope;
use crate::faults::FaultPlan;
use crate::flightset::FlightSet;
use crate::kernel::Kernel;
use crate::policy::{DeliveryPolicy, RandomAdversary, StepChoice};
use crate::protocol::Protocol;
use dpq_core::{NodeId, OpId};
use dpq_telemetry::{NullTelemetry, Telemetry};
use dpq_trace::{NullTracer, Tracer};
use std::ops::{Deref, DerefMut};

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
}

impl Default for AsyncConfig {
    fn default() -> Self {
        AsyncConfig {
            deliver_bias: 0.6,
            sweep_every: 64,
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
///
/// Dereferences to the [`Kernel`] it shares with the synchronous scheduler
/// (nodes, fault state, `metrics`, `tracer`, `telemetry`, their accessors);
/// what is here is the delivery order — the flight set and the policy that
/// picks from it — and the step clock.
pub struct AsyncScheduler<
    P: Protocol,
    T: Tracer = NullTracer,
    D: DeliveryPolicy = RandomAdversary,
    M: Telemetry = NullTelemetry,
> {
    pub(crate) k: Kernel<P, T, M>,
    /// In-flight messages, maturity-indexed when the fault layer makes
    /// readiness non-trivial.
    in_flight: FlightSet<P::Msg>,
    policy: D,
    cfg: AsyncConfig,
    step: u64,
    /// `metrics.messages` at the last telemetry window boundary.
    win_base_messages: u64,
    /// Gauge/histogram handles, registered lazily at the first sweep.
    win_handles: Option<(dpq_telemetry::GaugeId, dpq_telemetry::GaugeId)>,
}

impl<P: Protocol, T: Tracer, D: DeliveryPolicy, M: Telemetry> Deref for AsyncScheduler<P, T, D, M> {
    type Target = Kernel<P, T, M>;
    fn deref(&self) -> &Self::Target {
        &self.k
    }
}

impl<P: Protocol, T: Tracer, D: DeliveryPolicy, M: Telemetry> DerefMut
    for AsyncScheduler<P, T, D, M>
{
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.k
    }
}

impl<P: Protocol> AsyncScheduler<P>
where
    P::Msg: Clone,
{
    /// The paper's randomized adversary with the given schedule seed:
    /// default configuration, null fault plan, no sinks. The optional parts
    /// are the `with_*` setters below, applied before the first step.
    pub fn new(nodes: Vec<P>, seed: u64) -> Self {
        AsyncScheduler {
            k: Kernel::new(nodes),
            in_flight: FlightSet::new(false),
            policy: RandomAdversary::new(seed),
            cfg: AsyncConfig::default(),
            step: 0,
            win_base_messages: 0,
            win_handles: None,
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
        self
    }

    /// Execute `plan` (replaces the null plan). Maturity only needs
    /// indexing when ready times can differ from send steps (an active
    /// plan); otherwise the flight set is a plain vector. The plan is fixed
    /// before anything is in flight.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        assert!(
            self.in_flight.is_empty(),
            "configure the scheduler before its first step"
        );
        self.k = self.k.with_faults(plan);
        self.in_flight = FlightSet::new(self.k.faults.active());
        self
    }

    /// Let `policy` pick what each free step does.
    pub fn with_policy<D2: DeliveryPolicy>(self, policy: D2) -> AsyncScheduler<P, T, D2, M> {
        self.map_parts(|k, _| (k, policy))
    }

    /// Attach an event sink.
    pub fn with_tracer<T2: Tracer>(self, tracer: T2) -> AsyncScheduler<P, T2, D, M> {
        self.map_parts(|k, d| (k.map_sinks(|_, m| (tracer, m)), d))
    }

    /// Attach a metrics sink.
    pub fn with_telemetry<M2: Telemetry>(self, telemetry: M2) -> AsyncScheduler<P, T, D, M2> {
        self.map_parts(|k, d| (k.map_sinks(|t, _| (t, telemetry)), d))
    }

    fn map_parts<T2: Tracer, D2: DeliveryPolicy, M2: Telemetry>(
        self,
        f: impl FnOnce(Kernel<P, T, M>, D) -> (Kernel<P, T2, M2>, D2),
    ) -> AsyncScheduler<P, T2, D2, M2> {
        let (k, policy) = f(self.k, self.policy);
        AsyncScheduler {
            k,
            in_flight: self.in_flight,
            policy,
            cfg: self.cfg,
            step: self.step,
            win_base_messages: self.win_base_messages,
            win_handles: self.win_handles,
        }
    }

    /// The delivery policy.
    pub fn policy(&self) -> &D {
        &self.policy
    }

    /// Consume the scheduler, yielding the protocol instances and both
    /// sinks — for drivers that fold node-local state (e.g. transport
    /// counters) into the metrics sink after the run ends.
    pub fn into_parts(self) -> (Vec<P>, T, M) {
        (self.k.nodes, self.k.tracer, self.k.telemetry)
    }

    /// Consume the scheduler, yielding the protocol instances — used by
    /// churn drivers that rebuild a scheduler over a changed membership.
    /// Any in-flight messages are discarded; run to quiescence first.
    pub fn into_nodes(self) -> Vec<P> {
        self.k.nodes
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
        self.k.note_injected(op, step, self.step);
    }

    /// Messages currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Number of in-flight messages a [`DeliveryPolicy`] may pick from at
    /// this instant: all of them without a fault plan, only the mature
    /// ones with one. This is the `eligible` that the next non-sweep
    /// [`step_once`](Self::step_once) will pass to the policy.
    pub fn eligible_now(&self) -> usize {
        if self.k.faults.active() {
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

    /// One node turn at the current step: every surviving send joins the
    /// flight set, ready after whatever delay the fault layer added.
    fn turn(&mut self, i: usize, inbox: Option<Envelope<P::Msg>>, activate: bool) {
        let (step, in_flight) = (self.step, &mut self.in_flight);
        self.k.turn(i, step, step, inbox, activate, |extra, env| {
            in_flight.push(step + extra, env)
        });
    }

    fn deliver_at(&mut self, idx: usize) {
        let env = self.in_flight.swap_remove(idx);
        self.turn(env.dst.index(), Some(env), false);
    }

    /// One activation turn (sweep or adversary pick): always traced, but a
    /// node that said it was [dormant](Protocol::dormant) is not stepped.
    fn activate(&mut self, i: usize) {
        if !self.k.skip_activation(i, self.step) {
            self.turn(i, None, true);
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
        self.step += 1;
        self.in_flight.advance(self.step);
        self.k.open_step(self.step);
        if self.cfg.sweep_every > 0 && self.step.is_multiple_of(self.cfg.sweep_every) {
            if M::ENABLED {
                self.telemetry_window();
            }
            for i in 0..self.k.nodes.len() {
                if !self.k.faults.is_down(NodeId(i as u64)) {
                    self.activate(i);
                }
            }
            return;
        }
        // Without a fault plan every in-flight message is eligible and no
        // node is down. With one, only mature messages are eligible for the
        // delivery pick, and a crashed node's activation turn is consumed
        // doing nothing (fail-pause). The k-th-eligible select reproduces
        // the retired linear scan's `eligible[k]` exactly, so the random
        // adversary's choices — and the pinned golden traces — are
        // unchanged.
        let faulty = self.k.faults.active();
        let eligible = self.eligible_now();
        match self.policy.decide(eligible, self.k.nodes.len(), &self.cfg) {
            // swap_remove of the chosen index = non-FIFO fair delivery.
            StepChoice::Deliver(k) if faulty => {
                let idx = self.in_flight.pick_eligible(k);
                self.deliver_at(idx);
            }
            StepChoice::Deliver(k) => self.deliver_at(k),
            StepChoice::Activate(i) => {
                if !self.k.faults.is_down(NodeId(i as u64)) {
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
        let telemetry = &mut self.k.telemetry;
        let (occ, spill) = *self.win_handles.get_or_insert_with(|| {
            (
                telemetry.register_gauge("flightset.occupancy"),
                telemetry.register_gauge("flightset.overflow_spill"),
            )
        });
        let delivered = self.k.metrics.messages - self.win_base_messages;
        self.win_base_messages = self.k.metrics.messages;
        // Async has no rounds, so the congestion figure is the running
        // per-(node, run) maximum rather than a per-window one.
        telemetry.on_window_end(delivered, self.k.metrics.congestion);
        telemetry.gauge_set(occ, self.in_flight.len() as u64);
        telemetry.gauge_set(spill, self.in_flight.overflow_len() as u64);
        if self.k.faults.active() {
            telemetry.fault_totals(self.k.faults.stats);
        }
    }

    /// Nothing in flight and every node reports done.
    pub fn quiescent(&self) -> bool {
        self.in_flight.is_empty() && self.k.nodes.iter().all(Protocol::done)
    }

    /// Run until quiescence (plus `pred`) or a step budget.
    /// Returns `true` on quiescence.
    pub fn run_until(&mut self, max_steps: u64, pred: impl Fn(&[P]) -> bool) -> bool {
        self.run_to(max_steps, |s| s.quiescent() && pred(&s.k.nodes))
    }

    /// Run until quiescence or the step budget.
    pub fn run_until_quiescent(&mut self, max_steps: u64) -> bool {
        self.run_until(max_steps, |_| true)
    }

    /// Run until `pred` holds, ignoring in-flight messages — the stopping
    /// rule for perpetually cycling protocols. Returns `true` if `pred` was
    /// reached within the budget.
    pub fn run_until_pred(&mut self, max_steps: u64, pred: impl Fn(&[P]) -> bool) -> bool {
        self.run_to(max_steps, |s| pred(&s.k.nodes))
    }

    fn run_to(&mut self, max_steps: u64, stop: impl Fn(&Self) -> bool) -> bool {
        let start = self.step;
        while self.step - start < max_steps {
            if stop(self) {
                return true;
            }
            self.step_once();
        }
        stop(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Ctx;

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

    dpq_core::wire!(enum Msg { 0 => Ping {}, 1 => Pong {} });

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
        });
        assert!(s.run_until_quiescent(2_000_000));
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
