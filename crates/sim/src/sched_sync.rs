//! The synchronous round scheduler — the paper's performance model.
//!
//! "For the performance analysis only, we assume the standard synchronous
//! message passing model, where time proceeds in rounds and all messages
//! that are sent out in round *i* will be processed in round *i+1*.
//! Additionally, we assume that each node is activated once in each round."
//! (§1.1)

use crate::envelope::Envelope;
use crate::faults::FaultPlan;
use crate::kernel::Kernel;
use crate::protocol::Protocol;
use dpq_core::{NodeId, OpId};
use dpq_telemetry::{NullTelemetry, Telemetry};
use dpq_trace::{NullTracer, TraceEvent, Tracer};
use std::ops::{Deref, DerefMut};

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every node reported `done()` and no messages were in flight.
    Quiescent {
        /// Rounds consumed.
        rounds: u64,
    },
    /// The round budget was exhausted first.
    Budget {
        /// Rounds consumed (= the budget).
        rounds: u64,
    },
}

impl RunOutcome {
    /// Rounds consumed by the run window.
    pub fn rounds(&self) -> u64 {
        match *self {
            RunOutcome::Quiescent { rounds } | RunOutcome::Budget { rounds } => rounds,
        }
    }

    /// Did the run reach its stopping condition (vs. exhausting the budget)?
    pub fn is_quiescent(&self) -> bool {
        matches!(self, RunOutcome::Quiescent { .. })
    }
}

/// Lock-step scheduler over `n` protocol instances.
///
/// Generic over a [`Tracer`] sink; the default [`NullTracer`] advertises
/// `ENABLED = false`, so untraced schedulers compile to exactly the code
/// they had before tracing existed. The same pattern covers telemetry: a
/// [`Telemetry`] sink (default [`NullTelemetry`], also `ENABLED = false`)
/// receives per-delivery kind/bits, per-round message/congestion windows,
/// op latencies, and fault-layer totals. Telemetry is a pure observer — no
/// randomness, no feedback into protocol state — so attaching a sink never
/// changes a run's schedule.
///
/// Optionally executes a [`FaultPlan`] (drops, duplicates, partitions,
/// crash-recover, delay inflation). The scheduler itself has no randomness,
/// and the fault layer draws from the plan's own stream, so a null plan is
/// observationally identical to no plan at all and any (plan, workload) pair
/// replays bit-for-bit. `P::Msg: Clone` because the fault layer may have to
/// duplicate a message.
///
/// Dereferences to the [`Kernel`] it shares with the asynchronous scheduler
/// (nodes, fault state, `metrics`, `tracer`, `telemetry`, their accessors);
/// what is here is the delivery order — next round, grouped by destination,
/// in send order — and the round clock.
pub struct SyncScheduler<P: Protocol, T: Tracer = NullTracer, M: Telemetry = NullTelemetry> {
    pub(crate) k: Kernel<P, T, M>,
    /// The messages deliverable this round, one flat buffer: sent last
    /// round, in send order, plus any matured delayed messages behind them.
    /// Delivered slots are `take`n during the round; at round end the fully
    /// consumed buffer swaps roles with `fresh`. Two buffers sized by peak
    /// round traffic replace `n` per-node inbox vectors, each of which
    /// pinned its own high-water capacity.
    next: Vec<Option<Envelope<P::Msg>>>,
    /// This round's sends, appended in send order. Swapped into `next` at
    /// round end — a pointer swap, where appending sends behind the
    /// deliverable prefix of one shared buffer would memmove the whole
    /// tail over the consumed prefix every round.
    fresh: Vec<Option<Envelope<P::Msg>>>,
    /// Permutation of the deliverable prefix of `next`, grouped by
    /// destination (stable: within one node, send order) — rebuilt by
    /// [`Self::regroup`] each round.
    order: Vec<u32>,
    /// Counting-sort bounds: after `regroup`, `starts[i]` is one past the
    /// end of node `i`'s row in `order`.
    starts: Vec<u32>,
    /// Messages the fault layer delayed: `(deliverable_round, envelope)`.
    future: Vec<(u64, Envelope<P::Msg>)>,
    round: u64,
    /// Simulated-time ticks per round (default 1). Open-loop workload
    /// drivers set this so op latencies are bucketed on the *simulated*
    /// time axis (arrival tick → completion tick) rather than the round
    /// index — see [`Self::set_ticks_per_round`].
    ticks_per_round: u64,
    /// Recycled scratch for the `future` maturity filter.
    future_scratch: Vec<(u64, Envelope<P::Msg>)>,
}

impl<P: Protocol, T: Tracer, M: Telemetry> Deref for SyncScheduler<P, T, M> {
    type Target = Kernel<P, T, M>;
    fn deref(&self) -> &Self::Target {
        &self.k
    }
}

impl<P: Protocol, T: Tracer, M: Telemetry> DerefMut for SyncScheduler<P, T, M> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.k
    }
}

impl<P: Protocol> SyncScheduler<P>
where
    P::Msg: Clone,
{
    /// Wrap `n` protocol instances (index i = `NodeId(i)`): null fault
    /// plan, no sinks. The optional parts are the `with_*` setters below,
    /// applied before the first step.
    pub fn new(nodes: Vec<P>) -> Self {
        SyncScheduler {
            k: Kernel::new(nodes),
            next: Vec::new(),
            fresh: Vec::new(),
            order: Vec::new(),
            starts: Vec::new(),
            future: Vec::new(),
            round: 0,
            ticks_per_round: 1,
            future_scratch: Vec::new(),
        }
    }
}

impl<P: Protocol, T: Tracer, M: Telemetry> SyncScheduler<P, T, M>
where
    P::Msg: Clone,
{
    /// Execute `plan` (replaces the null plan; set before the first step).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.k = self.k.with_faults(plan);
        self
    }

    /// Attach an event sink.
    pub fn with_tracer<T2: Tracer>(self, tracer: T2) -> SyncScheduler<P, T2, M> {
        self.map_sinks(|_, m| (tracer, m))
    }

    /// Attach a metrics sink.
    pub fn with_telemetry<M2: Telemetry>(self, telemetry: M2) -> SyncScheduler<P, T, M2> {
        self.map_sinks(|t, _| (t, telemetry))
    }

    fn map_sinks<T2: Tracer, M2: Telemetry>(
        self,
        f: impl FnOnce(T, M) -> (T2, M2),
    ) -> SyncScheduler<P, T2, M2> {
        SyncScheduler {
            k: self.k.map_sinks(f),
            next: self.next,
            fresh: self.fresh,
            order: self.order,
            starts: self.starts,
            future: self.future,
            round: self.round,
            ticks_per_round: self.ticks_per_round,
            future_scratch: self.future_scratch,
        }
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
    /// starts the op's latency clock at the current simulated time
    /// (`round × ticks_per_round`).
    pub fn note_injected(&mut self, op: OpId) {
        self.note_injected_at(op, self.now_ticks());
    }

    /// Register an injection whose *arrival* happened at simulated tick
    /// `tick` — the open-loop entry point. Closed-loop drivers inject the
    /// moment an op is born, so round and arrival coincide; an open-loop
    /// driver replays a pre-drawn arrival schedule where an op can arrive
    /// mid-round (ticks_per_round > 1) and must charge the op's latency
    /// clock from its arrival, not from the round the driver got to it.
    pub fn note_injected_at(&mut self, op: OpId, tick: u64) {
        self.k.note_injected(op, tick, self.round);
    }

    /// Set the simulated-time granularity: `ticks` per synchronous round
    /// (≥ 1; default 1, i.e. the time axis *is* the round index). With a
    /// coarser axis, completions are stamped at `round × ticks` and
    /// injections at their arrival tick, so the latency histogram buckets
    /// by simulated time. Set this before injecting anything — rescaling a
    /// clock with ops in flight would mix time bases.
    pub fn set_ticks_per_round(&mut self, ticks: u64) {
        assert!(ticks >= 1, "ticks_per_round must be >= 1");
        assert_eq!(
            self.k.metrics.pending_ops(),
            0,
            "cannot rescale the time axis with ops in flight"
        );
        self.ticks_per_round = ticks;
    }

    /// Simulated ticks per round (1 unless an open-loop driver raised it).
    pub fn ticks_per_round(&self) -> u64 {
        self.ticks_per_round
    }

    /// The current simulated time, in ticks.
    pub fn now_ticks(&self) -> u64 {
        self.round * self.ticks_per_round
    }

    /// Rounds elapsed since construction.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Messages currently in flight (sent last round and not yet processed,
    /// those sent this round, and those the fault layer is delaying).
    pub fn in_flight(&self) -> usize {
        self.next.iter().flatten().count() + self.fresh.iter().flatten().count() + self.future.len()
    }

    /// Group the deliverable messages (the whole of `next`, in global send
    /// order) by destination: a stable counting sort writing a permutation
    /// into `order` with row bounds in `starts`. Stability means that within
    /// one destination, delivery order equals send order — exactly the order
    /// the retired per-node inbox vectors produced, which the golden traces
    /// pin. Touches the allocator only while the buffers grow toward their
    /// high-water capacity.
    fn regroup(&mut self) {
        let n = self.k.nodes.len();
        let m = self.next.len();
        self.starts.clear();
        self.starts.resize(n + 1, 0);
        for env in &self.next {
            let env = env.as_ref().expect("regroup over a consumed slot");
            self.starts[env.dst.index() + 1] += 1;
        }
        for i in 1..=n {
            self.starts[i] += self.starts[i - 1];
        }
        self.order.clear();
        self.order.resize(m, 0);
        for idx in 0..m {
            let d = self.next[idx].as_ref().unwrap().dst.index();
            let pos = self.starts[d] as usize;
            self.order[pos] = idx as u32;
            self.starts[d] += 1;
        }
        // Each `starts[d]` has advanced from the beginning of row `d` to one
        // past its end; the node loop reads rows as `prev_end..starts[i]`.
    }

    /// Execute one full round: every node first processes all messages that
    /// arrived, then is activated once. Messages emitted during the round
    /// become deliverable in the next one.
    ///
    /// A node with no message this round that said it was
    /// [dormant](Protocol::dormant) is not touched: its activation is
    /// traced and skipped.
    ///
    /// With an active fault plan, the round opens by firing scheduled
    /// crash/recover/partition transitions and releasing delay-inflated
    /// messages that have matured; down nodes neither receive nor run, and
    /// deliveries crossing a live partition cut are destroyed.
    pub fn step_round(&mut self) {
        let round = self.round;
        self.k.open_step(round);
        // Release matured delay-inflated messages behind the regular
        // deliveries, preserving both the release order and the relative
        // order of what stays — one pass through a recycled scratch vector.
        if !self.future.is_empty() {
            let mut pending =
                std::mem::replace(&mut self.future, std::mem::take(&mut self.future_scratch));
            for (due, env) in pending.drain(..) {
                if due <= round {
                    self.next.push(Some(env));
                } else {
                    self.future.push((due, env));
                }
            }
            self.future_scratch = pending;
        }
        self.regroup();
        let mut begin = 0usize;
        let done_tick = self.now_ticks();
        for i in 0..self.k.nodes.len() {
            let row = begin..self.starts[i] as usize;
            begin = row.end;
            // Fail-pause: a down node is not activated, and the kernel
            // destroys its incoming traffic at admission; its protocol
            // state is untouched.
            let down = self.k.faults.is_down(NodeId(i as u64));
            if row.is_empty() && (down || self.k.skip_activation(i, round)) {
                continue;
            }
            let (next, order) = (&mut self.next, &self.order);
            let inbox = row.map(|j| {
                next[order[j] as usize]
                    .take()
                    .expect("delivery slot consumed twice")
            });
            // Queue each surviving send, honouring fault-layer delay.
            let (fresh, future) = (&mut self.fresh, &mut self.future);
            self.k
                .turn(i, round, done_tick, inbox, !down, |extra, env| {
                    if extra == 0 {
                        fresh.push(Some(env));
                    } else {
                        future.push((round + 1 + extra, env));
                    }
                });
        }
        // The deliverable buffer is fully consumed; this round's sends
        // become next round's deliverables by pointer swap (both buffers
        // keep their capacity).
        debug_assert!(self.next.iter().all(Option::is_none));
        self.next.clear();
        std::mem::swap(&mut self.next, &mut self.fresh);
        let s = self.k.metrics.this_round();
        if T::ENABLED {
            self.k.tracer.record(TraceEvent::RoundEnd {
                round,
                messages: s.messages,
                bits: s.bits,
                congestion: s.congestion,
            });
        }
        if M::ENABLED {
            self.k.telemetry.on_window_end(s.messages, s.congestion);
            self.k.telemetry.fault_totals(self.k.faults.stats);
        }
        self.k.metrics.end_round();
        self.round += 1;
    }

    /// True when nothing is in flight and every node reports done.
    pub fn quiescent(&self) -> bool {
        self.in_flight() == 0 && self.k.nodes.iter().all(Protocol::done)
    }

    /// Run until quiescence or until `max_rounds` elapse.
    pub fn run_until_quiescent(&mut self, max_rounds: u64) -> RunOutcome {
        self.run_until(max_rounds, |_| true)
    }

    /// Run until `pred` holds over the nodes, ignoring in-flight messages —
    /// for perpetually active protocols (Skeap/Seap cycle forever even with
    /// empty batches) where "the workload completed" is the stopping
    /// condition, not quiescence.
    pub fn run_until_pred(&mut self, max_rounds: u64, pred: impl Fn(&[P]) -> bool) -> RunOutcome {
        self.run_to(max_rounds, |s| pred(&s.k.nodes))
    }

    /// Run until (quiescent AND `pred` holds over the nodes) or the budget
    /// runs out. `pred` lets drivers wait for protocol-level completion that
    /// `done()` alone cannot express (e.g. "all requests answered").
    pub fn run_until(&mut self, max_rounds: u64, pred: impl Fn(&[P]) -> bool) -> RunOutcome {
        self.run_to(max_rounds, |s| s.quiescent() && pred(&s.k.nodes))
    }

    fn run_to(&mut self, max_rounds: u64, stop: impl Fn(&Self) -> bool) -> RunOutcome {
        let start = self.round;
        loop {
            // Checked before each step AND once more after the final one, so
            // a workload completing (or quiescence reached) exactly at the
            // budget boundary reports `Quiescent`, not `Budget`.
            let rounds = self.round - start;
            if stop(self) {
                return RunOutcome::Quiescent { rounds };
            }
            if rounds >= max_rounds {
                return RunOutcome::Budget { rounds };
            }
            self.step_round();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Ctx;

    /// Toy protocol: node 0 floods a token along a ring once.
    struct Ring {
        me: usize,
        n: usize,
        fired: bool,
        seen: bool,
    }

    impl Protocol for Ring {
        type Msg = u64;

        fn on_activate(&mut self, ctx: &mut Ctx<u64>) {
            if self.me == 0 && !self.fired {
                self.fired = true;
                self.seen = true;
                ctx.send(NodeId(1 % self.n as u64), 1);
            }
        }

        fn on_message(&mut self, _from: NodeId, hops: u64, ctx: &mut Ctx<u64>) {
            self.seen = true;
            let next = (self.me + 1) % self.n;
            if next != 0 {
                ctx.send(NodeId(next as u64), hops + 1);
            }
        }

        fn done(&self) -> bool {
            self.seen
        }
    }

    fn ring(n: usize) -> SyncScheduler<Ring> {
        SyncScheduler::new(
            (0..n)
                .map(|me| Ring {
                    me,
                    n,
                    fired: false,
                    seen: false,
                })
                .collect(),
        )
    }

    #[test]
    fn token_takes_one_round_per_hop() {
        let mut s = ring(8);
        let out = s.run_until_quiescent(100);
        assert!(out.is_quiescent());
        // Round 0 fires the token; hops 1..7 each take a round; one final
        // round to observe quiescence-worthy state.
        assert!(
            out.rounds() >= 8 && out.rounds() <= 9,
            "rounds = {}",
            out.rounds()
        );
        assert!(s.nodes().iter().all(|n| n.seen));
    }

    #[test]
    fn congestion_of_a_ring_walk_is_one() {
        let mut s = ring(8);
        s.run_until_quiescent(100);
        assert_eq!(s.metrics.congestion, 1);
        assert_eq!(s.metrics.messages, 7);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let mut s = ring(64);
        let out = s.run_until_quiescent(3);
        assert!(!out.is_quiescent());
        assert_eq!(out.rounds(), 3);
    }

    #[test]
    fn completion_exactly_at_budget_is_quiescent() {
        // First measure how many rounds the ring needs, then re-run with a
        // budget of exactly that: the final-round re-check must still report
        // quiescence rather than budget exhaustion.
        let mut probe = ring(8);
        let need = probe.run_until_quiescent(100).rounds();
        let mut s = ring(8);
        let out = s.run_until_quiescent(need);
        assert!(out.is_quiescent(), "completion at the boundary misreported");
        assert_eq!(out.rounds(), need);
        // Same boundary via run_until_pred.
        let mut s = ring(8);
        let out = s.run_until_pred(need, |nodes| nodes.iter().all(|n| n.seen));
        assert!(out.is_quiescent());
    }

    #[test]
    fn run_until_respects_predicate() {
        // Quiescence alone is reached immediately for a ring that never
        // fires; the predicate forces the budget path.
        let mut s = SyncScheduler::new(vec![Ring {
            me: 0,
            n: 1,
            fired: true, // never sends
            seen: true,
        }]);
        let out = s.run_until(5, |_| false);
        assert_eq!(out.rounds(), 5);
        assert!(!out.is_quiescent());
    }

    /// Claims to sleep always, and counts the activations it gets anyway.
    struct Sleeper(u64);

    impl Protocol for Sleeper {
        type Msg = u64;
        fn on_activate(&mut self, _: &mut Ctx<u64>) {
            self.0 += 1;
        }
        fn on_message(&mut self, _: NodeId, _: u64, _: &mut Ctx<u64>) {}
        fn dormant(&self) -> bool {
            true
        }
    }

    #[test]
    fn handing_nodes_out_wakes_them_once_and_nodes_mut_stays_constant_time() {
        let n = 130;
        let mut s = SyncScheduler::new((0..n).map(|_| Sleeper(0)).collect());
        let counts = |s: &SyncScheduler<Sleeper>| s.nodes().iter().map(|n| n.0).collect::<Vec<_>>();
        s.step_round(); // every node starts awake
        s.step_round(); // and was asked right after its step
        assert_eq!(counts(&s), vec![1; n]);
        assert_eq!(s.dormant_skips(), n as u64);
        let _ = s.nodes_mut();
        // The bits still stand: `nodes_mut` raised a flag, it walked nothing.
        assert!((0..n).all(|i| s.dormant.asleep(i)));
        s.step_round();
        s.step_round();
        assert_eq!(counts(&s), vec![2; n], "woken once, then asleep again");
        s.node_mut(NodeId(77));
        s.step_round();
        let mut want = vec![2; n];
        want[77] = 3;
        assert_eq!(counts(&s), want, "node_mut wakes its node only");
        assert_eq!(s.dormant_skips(), 3 * n as u64 - 1);
    }

    #[test]
    fn bare_ring_loses_its_token_under_drops() {
        // Without a reliable transport, a 30% drop plan eventually eats the
        // token and the walk stalls — motivating `Reliable`.
        let nodes: Vec<Ring> = (0..8)
            .map(|me| Ring {
                me,
                n: 8,
                fired: false,
                seen: false,
            })
            .collect();
        let mut s =
            SyncScheduler::new(nodes).with_faults(crate::faults::FaultPlan::uniform(5, 0.6, 0.0));
        let out = s.run_until_quiescent(200);
        // The walk stalls: unreached nodes never report done, and the token
        // is gone, so the budget runs out.
        assert!(!out.is_quiescent());
        assert!(!s.nodes().iter().all(|n| n.seen));
        assert!(s.faults().stats.dropped() > 0);
    }

    #[test]
    fn reliable_ring_survives_heavy_drops_and_dups() {
        let nodes: Vec<Ring> = (0..8)
            .map(|me| Ring {
                me,
                n: 8,
                fired: false,
                seen: false,
            })
            .collect();
        let wrapped = crate::reliable::Reliable::wrap_all(nodes, 4);
        let mut s = SyncScheduler::new(wrapped)
            .with_faults(crate::faults::FaultPlan::uniform(5, 0.3, 0.15));
        let out = s.run_until_quiescent(10_000);
        assert!(out.is_quiescent(), "retransmission failed to heal the walk");
        assert!(s.nodes().iter().all(|n| n.inner().seen));
        let stats = s.faults().stats;
        assert!(stats.dropped() > 0, "plan injected nothing");
    }

    #[test]
    fn reliable_ring_survives_partition_and_crash_recover() {
        let nodes: Vec<Ring> = (0..8)
            .map(|me| Ring {
                me,
                n: 8,
                fired: false,
                seen: false,
            })
            .collect();
        let wrapped = crate::reliable::Reliable::wrap_all(nodes, 4);
        let plan = crate::faults::FaultPlan::none()
            .with_partition(2, 30, vec![NodeId(3), NodeId(4)])
            .with_crash(NodeId(6), 5, Some(40));
        let mut s = SyncScheduler::new(wrapped).with_faults(plan);
        let out = s.run_until_quiescent(10_000);
        assert!(out.is_quiescent(), "walk never recovered");
        assert!(s.nodes().iter().all(|n| n.inner().seen));
        let stats = s.faults().stats;
        assert_eq!(stats.crashes, 1);
        assert_eq!(stats.recoveries, 1);
    }

    #[test]
    fn delay_inflation_slows_but_does_not_lose() {
        let nodes: Vec<Ring> = (0..8)
            .map(|me| Ring {
                me,
                n: 8,
                fired: false,
                seen: false,
            })
            .collect();
        let mut s = SyncScheduler::new(nodes)
            .with_faults(crate::faults::FaultPlan::uniform(9, 0.0, 0.0).with_delay(1.0, 5));
        let out = s.run_until_quiescent(200);
        assert!(out.is_quiescent());
        assert!(s.nodes().iter().all(|n| n.seen), "delayed ≠ lost");
        // Every hop was delayed, so the walk takes strictly longer than the
        // fault-free 8–9 rounds.
        assert!(out.rounds() > 9, "rounds = {}", out.rounds());
    }
}
