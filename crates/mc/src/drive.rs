//! Executing one scripted schedule and fingerprinting the reached state.

use crate::policy::ScriptPolicy;
use dpq_core::{BitSize, StateHash, StateHasher};
use dpq_sim::{AsyncConfig, AsyncScheduler, FaultPlan, Protocol};

/// How a driven run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunEnd {
    /// The scenario's completion predicate held: the workload finished.
    /// (Not scheduler quiescence — Skeap and Seap cycle forever even with
    /// empty batches, so "all ops complete" is the stopping rule, exactly
    /// as in the protocols' own `run_until_pred` harnesses.)
    Terminal,
    /// The script was consumed and the next step is a fresh choice point:
    /// the state to branch from, with `branching = eligible + 1` children.
    Frontier {
        /// Number of decisions available at the next choice point.
        branching: usize,
        /// Digest of the global state (nodes + channels + faults + phase).
        fingerprint: u64,
    },
    /// The step budget ran out before quiescence — a liveness violation
    /// under fair-delivery tails, since every scenario must terminate.
    Stalled,
}

/// Everything the checker needs to know about one executed schedule.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// How the run ended.
    pub end: RunEnd,
    /// Decisions taken at every choice point passed, in order.
    pub decisions: Vec<usize>,
    /// Branching factor (`eligible + 1`) at each of those choice points.
    pub branching: Vec<usize>,
    /// Oracle verdict — `Some(description)` when a terminal state violated
    /// a correctness property, `None` for clean terminals and non-terminal
    /// ends.
    pub violation: Option<String>,
    /// Scheduler steps consumed.
    pub steps: u64,
}

impl RunReport {
    /// Did this run demonstrate a bug (safety violation or stall)?
    pub fn failed(&self) -> bool {
        self.violation.is_some() || self.end == RunEnd::Stalled
    }
}

/// Digest the scheduler's global state: every node's semantic state, the
/// in-flight multiset, the fault layer, and the two bits of *scheduler*
/// state that steer future deterministic behavior (position within the
/// sweep period, round-robin cursor).
///
/// In-flight messages are hashed as a multiset of `(src, dst, kind, bits)`
/// — slot order is deliberately ignored, because two states whose channels
/// hold the same message multiset reach the same successor states (the
/// decision alphabet ranges over the same messages, merely renumbered).
/// Payloads are approximated by their encoded size; node histories and
/// protocol state disambiguate nearly everything a bit count leaves open.
fn fingerprint<P>(sched: &AsyncScheduler<P, dpq_sim::NullTracer, ScriptPolicy>) -> u64
where
    P: Protocol + StateHash,
    P::Msg: Clone + BitSize,
{
    let mut h = StateHasher::new();
    h.write_u64(sched.n() as u64);
    for node in sched.nodes() {
        node.state_hash(&mut h);
    }
    h.write_unordered(sched.in_flight_iter(), |h, env| {
        h.write_u64(env.src.0);
        h.write_u64(env.dst.0);
        h.write_str(env.kind.as_str());
        h.write_u64(env.bits);
    });
    sched.faults().state_hash(&mut h);
    let sweep = sched.config().sweep_every;
    if sweep > 0 {
        h.write_u64(sched.steps() % sweep);
    }
    h.write_u64(sched.policy().rr() as u64);
    h.finish()
}

/// Will the *next* `step_once` consult the policy with a non-empty
/// eligible set? Requires MC scenario discipline: no delay-inflating or
/// crash faults (drop/duplicate plans keep every
/// in-flight message mature and every node up).
fn next_is_choice_point<P>(sched: &AsyncScheduler<P, dpq_sim::NullTracer, ScriptPolicy>) -> bool
where
    P: Protocol + StateHash,
    P::Msg: Clone + BitSize,
{
    let sweep = sched.config().sweep_every;
    let next = sched.steps() + 1;
    let is_sweep = sweep > 0 && next.is_multiple_of(sweep);
    !is_sweep && sched.eligible_now() >= 1
}

/// Build a scheduler over `nodes` and drive the scripted `policy`.
///
/// The run ends when `done` holds over the nodes (judged by `judge`), at
/// the first fresh choice point after the script is consumed (only when
/// `stop_at_frontier` — the DFS's expansion probe), or when `max_steps`
/// runs out (reported as [`RunEnd::Stalled`]).
#[allow(clippy::too_many_arguments)]
pub fn drive<P, D, J>(
    nodes: Vec<P>,
    cfg: AsyncConfig,
    plan: FaultPlan,
    policy: ScriptPolicy,
    stop_at_frontier: bool,
    max_steps: u64,
    done: D,
    judge: J,
) -> RunReport
where
    P: Protocol + StateHash,
    P::Msg: Clone + BitSize,
    D: Fn(&[P]) -> bool,
    J: FnOnce(&[P]) -> Option<String>,
{
    // The seed is dead: the scripted policy replaces the random adversary.
    let mut sched = AsyncScheduler::new(nodes, 0)
        .with_config(cfg)
        .with_faults(plan)
        .with_policy(policy);
    let end = loop {
        if done(sched.nodes()) {
            break RunEnd::Terminal;
        }
        if stop_at_frontier && sched.policy().exhausted() && next_is_choice_point(&sched) {
            break RunEnd::Frontier {
                branching: sched.eligible_now() + 1,
                fingerprint: fingerprint(&sched),
            };
        }
        if sched.steps() >= max_steps {
            break RunEnd::Stalled;
        }
        sched.step_once();
    };
    let violation = match end {
        RunEnd::Terminal => judge(sched.nodes()),
        _ => None,
    };
    RunReport {
        end,
        decisions: sched.policy().log().to_vec(),
        branching: sched.policy().branching().to_vec(),
        violation,
        steps: sched.steps(),
    }
}
