//! The schedule driver: replay an injection schedule against a live scheduler.
//!
//! The driver owns the open-loop clock discipline and nothing else: *when*
//! each injection fires and at which simulated tick its latency clock
//! starts. *How* an injection turns into a protocol request stays with the
//! caller (an `issue` closure), because every protocol spells "insert"
//! differently — `SkeapNode::issue_insert`, `SeapNode::issue_insert`, a
//! baseline's direct push. The driver then stamps the op's arrival via
//! `note_injected_at`, so latency is measured from the *scheduled arrival
//! tick*, not from whichever round the injection happened to land in —
//! queueing delay inside a round is real latency under open-loop load.

use crate::schedule::{Injection, Schedule};
use dpq_core::OpId;
use dpq_sim::{Protocol, SyncScheduler, Telemetry, Tracer};

/// What a drive run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriveOutcome {
    /// Requests injected (always the full schedule).
    pub injected: u64,
    /// Rounds consumed, injection horizon + drain.
    pub rounds: u64,
    /// Did the completion predicate hold before the drain budget ran out?
    pub drained: bool,
}

/// Replay `schedule` against a sync scheduler.
///
/// Rounds advance the simulated clock by `ticks_per_round` (taken from the
/// scheduler); every injection with arrival tick inside the upcoming round
/// is issued before that round steps, and its latency clock starts at its
/// *arrival* tick. After the horizon, the scheduler keeps stepping until
/// `done(nodes)` holds (protocols like Skeap never quiesce, so completion
/// is the caller's predicate), up to `drain_rounds` extra rounds.
///
/// The caller must have set `ticks_per_round` before any injection — pass
/// the value through [`SyncScheduler::set_ticks_per_round`].
pub fn drive_sync<P, T, M>(
    sched: &mut SyncScheduler<P, T, M>,
    schedule: &Schedule,
    drain_rounds: u64,
    mut issue: impl FnMut(&mut P, &Injection) -> OpId,
    done: impl Fn(&[P]) -> bool,
) -> DriveOutcome
where
    P: Protocol,
    T: Tracer,
    M: Telemetry,
    P::Msg: Clone,
{
    let tpr = sched.ticks_per_round();
    let mut next = 0usize;
    let started = sched.round();
    // Injection horizon: enough rounds to cover every scheduled tick.
    while next < schedule.injections.len() || sched.round() * tpr < schedule.ticks {
        // Everything arriving before the end of this round enters now.
        let window_end = (sched.round() + 1) * tpr;
        while next < schedule.injections.len() && schedule.injections[next].tick < window_end {
            let inj = schedule.injections[next];
            let op = issue(sched.node_mut(inj.node), &inj);
            sched.note_injected_at(op, inj.tick);
            next += 1;
        }
        sched.step_round();
    }
    // Drain: the offered load has ended; let in-flight work finish.
    let mut budget = drain_rounds;
    let mut drained = done(sched.nodes());
    while !drained && budget > 0 {
        sched.step_round();
        budget -= 1;
        drained = done(sched.nodes());
    }
    DriveOutcome {
        injected: schedule.injections.len() as u64,
        rounds: sched.round() - started,
        drained,
    }
}
