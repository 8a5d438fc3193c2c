//! The open-loop load generator: one thread, one connection per entry node.
//!
//! Every op's clock starts at its *due* time, not when it was actually
//! sent, so a stall in the cluster (or in this generator) is charged to the
//! ops that waited behind it. Completion is observed from outside, by
//! polling `Status` on the connection that has ops outstanding: the k-th
//! issue at a node is matched to the first poll that shows
//! `completed >= k`. Each entry node receives a single kind of op, so the
//! match yields a per-kind latency.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use dpq_net::ctl::{CtlClient, CtlReq, CtlResp};
use dpq_workload::{Schedule, WorkOp};

use crate::span;

/// `Status` polling period on a connection with ops outstanding. Polls sit on
/// a fixed grid of this period, not `POLL_US` after an op was issued: a
/// completion is seen at the first poll after it, and a poll train that
/// starts with each op rounds every latency up to a multiple of the period.
/// With one or no op in flight (Seap) that turned a 1–4 ms distribution into
/// spikes 1.2 ms apart, and the median jumped a whole spike when the share
/// of one crossed a half. Poisson arrivals fall anywhere on the grid, so the
/// rounding becomes an even 0–1 period on every op instead.
const POLL_US: u64 = 1_000;
/// How long after the last due time an op may still complete.
const DRAIN_DEADLINE_US: u64 = 10_000_000;

/// Entry node of every Insert.
pub const PRODUCER: usize = 0;
/// Entry node of every DeleteMin.
pub const CONSUMER: usize = 1;

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct DueOp {
    /// Microseconds after the generator's start.
    pub due_us: u64,
    /// Lane (and entry node): [`PRODUCER`] or [`CONSUMER`].
    pub lane: usize,
    /// What to send.
    pub req: CtlReq,
    /// Inside the measured window (false during warm-up)?
    pub measured: bool,
}

/// Re-home a schedule (1 tick = 1 µs) onto the two entry nodes; ops due
/// before `warmup_us` load the cluster but are not measured.
pub fn ops_from_schedule(schedule: &Schedule, warmup_us: u64) -> Vec<DueOp> {
    schedule
        .injections
        .iter()
        .map(|inj| {
            let (lane, req) = match inj.op {
                WorkOp::Insert { prio } => (
                    PRODUCER,
                    CtlReq::Enqueue {
                        prio,
                        payload: inj.client,
                    },
                ),
                WorkOp::DeleteMin => (CONSUMER, CtlReq::Dequeue),
            };
            DueOp {
                due_us: inj.tick,
                lane,
                req,
                measured: inj.tick >= warmup_us,
            }
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Pending {
    k: u64,
    due_us: u64,
    measured: bool,
}

/// Matches the k-th issue at a node to the first observation of
/// `completed >= k`.
#[derive(Debug, Default)]
pub struct Matcher {
    issued: u64,
    outstanding: VecDeque<Pending>,
}

/// One matched completion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// Observation time minus due time.
    pub latency_us: u64,
    /// Was the op inside the measured window?
    pub measured: bool,
}

impl Matcher {
    /// `already_issued` ops (prefill) were issued at this node before the
    /// generator started and have all completed.
    pub fn new(already_issued: u64) -> Matcher {
        Matcher {
            issued: already_issued,
            outstanding: VecDeque::new(),
        }
    }

    /// Record that the node accepted one more op.
    pub fn issue(&mut self, due_us: u64, measured: bool) {
        self.issued += 1;
        self.outstanding.push_back(Pending {
            k: self.issued,
            due_us,
            measured,
        });
    }

    /// The node reported `completed` at `now_us`: every outstanding op with
    /// `k <= completed` completes now.
    pub fn observe(&mut self, completed: u64, now_us: u64, out: &mut Vec<Completion>) {
        while let Some(front) = self.outstanding.front() {
            if front.k > completed {
                break;
            }
            out.push(Completion {
                latency_us: now_us.saturating_sub(front.due_us),
                measured: front.measured,
            });
            self.outstanding.pop_front();
        }
    }

    /// Ops not yet observed complete.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }
}

/// One entry node's connection and bookkeeping.
pub struct Lane {
    client: CtlClient,
    matcher: Matcher,
    /// `(time µs, node ticks)` of the first and last poll inside the window.
    ticks_seen: Option<[(u64, u64); 2]>,
}

impl Lane {
    /// Wrap a connection to a node that has already issued (and completed)
    /// `already_issued` ops.
    pub fn new(client: CtlClient, already_issued: u64) -> Lane {
        Lane {
            client,
            matcher: Matcher::new(already_issued),
            ticks_seen: None,
        }
    }
}

/// What one generator run saw.
#[derive(Debug, Default)]
pub struct LoadOutcome {
    /// Measured-window latencies per lane, ms.
    pub latency_ms: [Vec<f64>; 2],
    /// How late each measured op was sent, ms.
    pub lag_ms: Vec<f64>,
    /// Ops the nodes accepted, warm-up included.
    pub accepted: u64,
    /// Measured ops sent.
    pub attempted: u64,
    /// Measured ops the node refused.
    pub refused: u64,
    /// Measured ops still open at the drain deadline.
    pub unfinished: u64,
    /// Due time of the first measured op, µs.
    pub first_due_us: u64,
    /// Observation time of the last measured completion, µs.
    pub last_completion_us: u64,
    /// Node CPU seconds (all processes) across the measured window.
    pub window_cpu_s: f64,
    /// Logical ticks per second of the producer node across the window.
    pub ticks_per_s: f64,
}

/// Drive `ops` (sorted by due time) against the two lanes. The measured
/// window is `[window.0, window.1)` µs; `cpu` returns the node processes'
/// total CPU seconds and is read once at each edge.
pub fn run(
    ops: &[DueOp],
    lanes: &mut [Lane; 2],
    window: (u64, u64),
    cpu: &dyn Fn() -> f64,
) -> Result<LoadOutcome, String> {
    let mut out = LoadOutcome::default();
    let last_due = ops.last().map_or(0, |o| o.due_us);
    let drain_until = last_due.max(window.1) + DRAIN_DEADLINE_US;
    let mut completions = Vec::new();
    let mut cpu_marks: [Option<f64>; 2] = [None, None];
    let mut next = 0usize;
    let mut next_poll_us = 0u64;
    let t0 = Instant::now();
    let now_us = || t0.elapsed().as_micros() as u64;

    loop {
        let mut now = now_us();
        if cpu_marks[0].is_none() && now >= window.0 {
            cpu_marks[0] = Some(cpu());
        }
        if cpu_marks[1].is_none() && now >= window.1 {
            cpu_marks[1] = Some(cpu());
        }

        while next < ops.len() && ops[next].due_us <= now {
            let op = &ops[next];
            next += 1;
            let lane = &mut lanes[op.lane];
            let sent_us = now_us();
            let resp = {
                let _g = span::enter("ctl.request");
                lane.client.request(&op.req)
            };
            match resp {
                Ok(CtlResp::Issued { .. }) => {
                    lane.matcher.issue(op.due_us, op.measured);
                    out.accepted += 1;
                }
                Ok(CtlResp::Error(_)) => out.refused += u64::from(op.measured),
                other => return Err(format!("issuing {:?}: {other:?}", op.req)),
            }
            if op.measured {
                out.attempted += 1;
                out.lag_ms.push((sent_us - op.due_us) as f64 / 1e3);
                if out.attempted == 1 {
                    out.first_due_us = op.due_us;
                }
            }
            now = now_us();
        }

        let poll_due = now >= next_poll_us;
        for (i, lane) in lanes.iter_mut().enumerate() {
            if !poll_due || lane.matcher.outstanding() == 0 {
                continue;
            }
            let resp = {
                let _g = span::enter("ctl.status");
                lane.client.request(&CtlReq::Status)
            };
            let Ok(CtlResp::Status(s)) = resp else {
                return Err(format!("status on lane {i}: {resp:?}"));
            };
            now = now_us();
            if (window.0..window.1).contains(&now) {
                let seen = lane.ticks_seen.get_or_insert([(now, s.ticks); 2]);
                seen[1] = (now, s.ticks);
            }
            completions.clear();
            lane.matcher.observe(s.completed, now, &mut completions);
            for c in completions.iter().filter(|c| c.measured) {
                out.latency_ms[i].push(c.latency_us as f64 / 1e3);
                out.last_completion_us = now;
            }
        }

        if poll_due {
            next_poll_us = (now / POLL_US + 1) * POLL_US;
        }

        let open: usize = lanes.iter().map(|l| l.matcher.outstanding()).sum();
        if next == ops.len() && open == 0 && cpu_marks[1].is_some() {
            break;
        }
        if now > drain_until {
            out.unfinished = lanes
                .iter()
                .flat_map(|l| l.matcher.outstanding.iter())
                .filter(|p| p.measured)
                .count() as u64;
            break;
        }

        // Sleep to whichever comes first: the next due op, the next poll of
        // a lane with work outstanding, or the next window edge.
        let mut wake = ops.get(next).map_or(u64::MAX, |o| o.due_us);
        if open > 0 {
            wake = wake.min(next_poll_us);
        }
        for (mark, edge) in cpu_marks.iter().zip([window.0, window.1]) {
            if mark.is_none() {
                wake = wake.min(edge);
            }
        }
        let now = now_us();
        if wake > now {
            std::thread::sleep(Duration::from_micros((wake - now).min(POLL_US)));
        }
    }

    if let [Some(cpu_a), Some(cpu_b)] = cpu_marks {
        out.window_cpu_s = cpu_b - cpu_a;
    }
    if let Some([(t_a, ticks_a), (t_b, ticks_b)]) = lanes[PRODUCER].ticks_seen {
        if t_b > t_a {
            out.ticks_per_s = (ticks_b - ticks_a) as f64 / ((t_b - t_a) as f64 / 1e6);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kth_issue_matches_first_observation_of_k_completions() {
        // 3 prefill ops already done; then issues k = 4, 5, 6.
        let mut m = Matcher::new(3);
        m.issue(100, false);
        m.issue(200, true);
        m.issue(300, true);
        let mut out = Vec::new();
        // Still 3 completed: nothing matches.
        m.observe(3, 1_000, &mut out);
        assert!(out.is_empty());
        // 5 completed at t=1500: k=4 and k=5 complete together.
        m.observe(5, 1_500, &mut out);
        assert_eq!(
            out,
            vec![
                Completion {
                    latency_us: 1_400,
                    measured: false
                },
                Completion {
                    latency_us: 1_300,
                    measured: true
                },
            ]
        );
        assert_eq!(m.outstanding(), 1);
        // A stale (lower) reading never un-completes or re-completes.
        out.clear();
        m.observe(4, 1_600, &mut out);
        assert!(out.is_empty());
        m.observe(6, 2_000, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].latency_us, 1_700);
        assert_eq!(m.outstanding(), 0);
    }

    #[test]
    fn latency_never_goes_negative_on_an_early_observation() {
        let mut m = Matcher::new(0);
        m.issue(500, true);
        let mut out = Vec::new();
        m.observe(1, 400, &mut out);
        assert_eq!(out[0].latency_us, 0);
    }

    #[test]
    fn schedule_is_rehomed_by_kind_and_split_at_warmup() {
        use dpq_core::NodeId;
        use dpq_workload::Injection;
        let schedule = Schedule {
            ticks: 10,
            n: 5,
            injections: vec![
                Injection {
                    tick: 1,
                    node: NodeId(3),
                    client: 77,
                    op: WorkOp::Insert { prio: 2 },
                },
                Injection {
                    tick: 6,
                    node: NodeId(4),
                    client: 78,
                    op: WorkOp::DeleteMin,
                },
            ],
        };
        let ops = ops_from_schedule(&schedule, 5);
        assert_eq!(ops[0].lane, PRODUCER);
        assert_eq!(
            ops[0].req,
            CtlReq::Enqueue {
                prio: 2,
                payload: 77
            }
        );
        assert!(!ops[0].measured);
        assert_eq!((ops[1].lane, ops[1].measured), (CONSUMER, true));
        assert_eq!(ops[1].req, CtlReq::Dequeue);
    }
}
