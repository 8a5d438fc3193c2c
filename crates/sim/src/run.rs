//! The one driver: run a cluster under a chosen scheduler to a completion
//! predicate and report what happened.
//!
//! A [`Run`] carries exactly the choices a run has — which scheduler (and
//! the adversary's seed), the round/step budget, an optional fault plan
//! (present ⇒ every node speaks through [`Reliable`]; absent ⇒ the bare
//! protocol), an event sink and a metrics sink. [`Run::drive`] is the
//! protocol-agnostic core; [`Run::queue`] adds the history and residual of
//! a [`QueueNode`] cluster on top of it.

use crate::faults::FaultPlan;
use crate::metrics::MetricsSnapshot;
use crate::protocol::{history, residual, Protocol, QueueNode};
use crate::reliable::Reliable;
use crate::sched_async::AsyncScheduler;
use crate::sched_sync::SyncScheduler;
use dpq_core::{Element, History, OpId};
use dpq_telemetry::{FaultTotals, LogHistogram, NullTelemetry, Telemetry};
use dpq_trace::{NullTracer, Tracer};

/// Which execution model drives the run.
#[derive(Debug, Clone, Copy)]
enum Sched {
    /// Lock-step rounds; the budget counts rounds.
    Sync,
    /// The randomized adversary with this schedule seed; the budget counts
    /// steps.
    Async(u64),
}

/// A run's choices. Build with [`Run::sync`] or [`Run::asynchronous`], then
/// add the optional parts.
#[derive(Debug, Clone)]
pub struct Run<T: Tracer = NullTracer, M: Telemetry = NullTelemetry> {
    sched: Sched,
    budget: u64,
    faults: Option<(FaultPlan, u64)>,
    tracer: T,
    telemetry: M,
}

impl Run {
    /// Synchronous rounds, at most `max_rounds` of them.
    pub fn sync(max_rounds: u64) -> Self {
        Self::with_sched(Sched::Sync, max_rounds)
    }

    /// The asynchronous adversary seeded with `sched_seed`, at most
    /// `max_steps` steps.
    pub fn asynchronous(sched_seed: u64, max_steps: u64) -> Self {
        Self::with_sched(Sched::Async(sched_seed), max_steps)
    }

    fn with_sched(sched: Sched, budget: u64) -> Self {
        Run {
            sched,
            budget,
            faults: None,
            tracer: NullTracer,
            telemetry: NullTelemetry,
        }
    }
}

impl<T: Tracer, M: Telemetry> Run<T, M> {
    /// Run over a faulty network: the scheduler executes `plan` and every
    /// node is wrapped in a [`Reliable`] transport with retransmission
    /// timeout `rto` (rounds or steps, matching the scheduler).
    pub fn faulty(mut self, plan: FaultPlan, rto: u64) -> Self {
        self.faults = Some((plan, rto));
        self
    }

    /// Attach an event sink; it comes back in the outcome.
    pub fn tracer<T2: Tracer>(self, tracer: T2) -> Run<T2, M> {
        Run {
            sched: self.sched,
            budget: self.budget,
            faults: self.faults,
            tracer,
            telemetry: self.telemetry,
        }
    }

    /// Attach a metrics sink (e.g. a [`crate::Hub`]); it comes back in the
    /// outcome.
    pub fn telemetry<M2: Telemetry>(self, telemetry: M2) -> Run<T, M2> {
        Run {
            sched: self.sched,
            budget: self.budget,
            faults: self.faults,
            tracer: self.tracer,
            telemetry,
        }
    }

    /// The protocol-agnostic core: schedule `nodes` until `done` holds at
    /// every node or the budget runs out. `injected` are the ops already
    /// issued at the nodes; their latency clocks start now.
    pub fn drive<P: Protocol>(
        mut self,
        nodes: Vec<P>,
        injected: &[OpId],
        done: impl Fn(&P) -> bool,
    ) -> Core<P, T, M>
    where
        P::Msg: Clone,
    {
        let Some((plan, rto)) = self.faults.take() else {
            return self.schedule(FaultPlan::none(), nodes, injected, done);
        };
        let mut nodes = Reliable::wrap_all(nodes, rto);
        if M::ENABLED {
            nodes.iter_mut().for_each(Reliable::enable_rtt_histogram);
        }
        let wrapped = self.schedule(plan, nodes, injected, |n| done(n.inner()));
        let mut telemetry = wrapped.telemetry;
        if M::ENABLED {
            // The schedulers mirror fault totals at window boundaries, which
            // can trail the final counters by a partial window; push the
            // end-of-run snapshot (the mirror is an idempotent set, not an
            // add), then fold in each node's transport counters.
            telemetry.fault_totals(wrapped.faults);
            for n in &wrapped.nodes {
                n.export_telemetry(&mut telemetry);
            }
        }
        let (retransmits, dup_suppressed) = wrapped.nodes.iter().fold((0, 0), |(r, d), n| {
            (r + n.stats.retransmits, d + n.stats.dup_suppressed)
        });
        Core {
            nodes: wrapped
                .nodes
                .into_iter()
                .map(Reliable::into_inner)
                .collect(),
            metrics: wrapped.metrics,
            time: wrapped.time,
            completed: wrapped.completed,
            latency_hist: wrapped.latency_hist,
            faults: wrapped.faults,
            retransmits,
            dup_suppressed,
            tracer: wrapped.tracer,
            telemetry,
        }
    }

    /// Build the chosen scheduler over `nodes`, run it, take it apart.
    fn schedule<P: Protocol>(
        self,
        plan: FaultPlan,
        nodes: Vec<P>,
        injected: &[OpId],
        done: impl Fn(&P) -> bool,
    ) -> Core<P, T, M>
    where
        P::Msg: Clone,
    {
        let all_done = |ns: &[P]| ns.iter().all(&done);
        let (completed, time, k) = match self.sched {
            Sched::Sync => {
                let mut s = SyncScheduler::new(nodes)
                    .with_faults(plan)
                    .with_tracer(self.tracer)
                    .with_telemetry(self.telemetry);
                injected.iter().for_each(|&id| s.note_injected(id));
                let out = s.run_until_pred(self.budget, all_done);
                (out.is_quiescent(), out.rounds(), s.k)
            }
            Sched::Async(seed) => {
                let mut s = AsyncScheduler::new(nodes, seed)
                    .with_faults(plan)
                    .with_tracer(self.tracer)
                    .with_telemetry(self.telemetry);
                injected.iter().for_each(|&id| s.note_injected(id));
                (s.run_until_pred(self.budget, all_done), s.steps(), s.k)
            }
        };
        Core {
            metrics: k.metrics.snapshot(),
            latency_hist: k.metrics.latency_histogram().clone(),
            faults: k.faults.stats,
            nodes: k.nodes,
            time,
            completed,
            retransmits: 0,
            dup_suppressed: 0,
            tracer: k.tracer,
            telemetry: k.telemetry,
        }
    }

    /// Drive a queue cluster until every issued request completed.
    pub fn queue<Q: QueueNode>(self, nodes: Vec<Q>, injected: &[OpId]) -> Outcome<T, M>
    where
        Q::Msg: Clone,
    {
        let core = self.drive(nodes, injected, Q::all_complete);
        Outcome {
            history: history(&core.nodes),
            residual: residual(&core.nodes),
            metrics: core.metrics,
            time: core.time,
            completed: core.completed,
            latency_hist: core.latency_hist,
            faults: core.faults,
            retransmits: core.retransmits,
            dup_suppressed: core.dup_suppressed,
            tracer: core.tracer,
            telemetry: core.telemetry,
        }
    }
}

/// What every run reports, whatever the protocol.
#[derive(Debug, Clone)]
pub struct Core<P, T = NullTracer, M = NullTelemetry> {
    /// The protocol instances as the run left them (unwrapped from their
    /// [`Reliable`] transport after a faulty run).
    pub nodes: Vec<P>,
    /// Run metrics. Only *delivered* traffic is counted; faulted copies are
    /// destroyed before accounting.
    pub metrics: MetricsSnapshot,
    /// Rounds (sync) or steps (async) consumed.
    pub time: u64,
    /// Did `done` hold everywhere within the budget?
    pub completed: bool,
    /// Log-bucketed distribution of per-operation latencies (injection to
    /// completion) — the samples behind `metrics.latency`, kept as a
    /// mergeable histogram so experiments can pool distributions across
    /// seeds in O(buckets).
    pub latency_hist: LogHistogram,
    /// What the fault layer did to the run (all zero without a plan).
    pub faults: FaultTotals,
    /// Retransmissions the transport performed to beat the drops.
    pub retransmits: u64,
    /// Duplicate deliveries the transport suppressed.
    pub dup_suppressed: u64,
    /// The event sink.
    pub tracer: T,
    /// The metrics sink; after a faulty run it also holds the final fault
    /// totals, the `reliable.*` counters and the ack-RTT histogram.
    pub telemetry: M,
}

/// Outcome of a queue workload: [`Core`] with the nodes folded into the
/// merged history and the residual heap contents.
#[derive(Debug, Clone)]
pub struct Outcome<T = NullTracer, M = NullTelemetry> {
    /// Merged per-node histories (what the protocol believes happened).
    pub history: History,
    /// Every element still stored in a DHT shard when the run ended, in
    /// deterministic `(prio, id)` order.
    pub residual: Vec<Element>,
    /// See [`Core::metrics`].
    pub metrics: MetricsSnapshot,
    /// See [`Core::time`].
    pub time: u64,
    /// Did every request complete within the budget?
    pub completed: bool,
    /// See [`Core::latency_hist`].
    pub latency_hist: LogHistogram,
    /// See [`Core::faults`].
    pub faults: FaultTotals,
    /// See [`Core::retransmits`].
    pub retransmits: u64,
    /// See [`Core::dup_suppressed`].
    pub dup_suppressed: u64,
    /// The event sink.
    pub tracer: T,
    /// See [`Core::telemetry`].
    pub telemetry: M,
}

impl<T, M> Outcome<T, M> {
    /// Take the event sink out, so traced and untraced runs of one sweep
    /// share a type.
    pub fn split_tracer(self) -> (Outcome<NullTracer, M>, T) {
        let rest = Outcome {
            history: self.history,
            residual: self.residual,
            metrics: self.metrics,
            time: self.time,
            completed: self.completed,
            latency_hist: self.latency_hist,
            faults: self.faults,
            retransmits: self.retransmits,
            dup_suppressed: self.dup_suppressed,
            tracer: NullTracer,
            telemetry: self.telemetry,
        };
        (rest, self.tracer)
    }
}
