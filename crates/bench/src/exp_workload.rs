//! E19 — open-loop heavy traffic: strict protocols vs relaxed priority
//! queues on identical traces (`dpq-workload`).
//!
//! Every cell replays the *same class* of open-loop schedule — arrivals
//! driven by simulated time, not by the system's readiness — through four
//! designs: Skeap and Seap (strict, distributed, sequentially consistent)
//! and k-LSM / MultiQueue models (relaxed, shared-memory-style). Three
//! families of columns price the trade the relaxed literature advertises:
//!
//! * **throughput** — completed requests per simulated tick;
//! * **p99/p999 op latency** — ticks from scheduled arrival to completion
//!   (strict: distributed rounds; relaxed: a per-lane busy-server model —
//!   each lane serves one request per tick, so queueing delay is real);
//! * **rank error** — per-dequeue distance from the ideal strict heap
//!   ([`dpq_semantics::rank_error`]), the quality metric of the k-LSM
//!   benchmark study and the MultiQueue analysis (PAPERS.md).
//!
//! The headline fact the table pins: strict protocols score rank-error 0
//! in *every* cell — sequential consistency is exactly "no disorder, at
//! distributed-latency cost" — while the relaxed designs answer in O(1)
//! ticks but pay measurable, workload-dependent disorder.

use dpq_baselines::{KLsm, MultiQueue, RelaxedPq};
use dpq_core::{DetRng, ElemId, Element, History, OpKind, OpReturn, Priority};
use dpq_semantics::{rank_error, RankErrorSummary, RankOrder};
use dpq_sim::{LatencySummary, LogHistogram, QueueNode, SyncScheduler};
use dpq_workload::{drive_sync, ArrivalSpec, MixKind, OpenLoopSpec, Schedule, WorkOp};

use crate::table::{f, Table};
use crate::ExpOpts;

/// Rounds the strict schedulers may run past the horizon to finish
/// in-flight requests.
const DRAIN_ROUNDS: u64 = 50_000;

/// The four contenders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Proto {
    Skeap,
    Seap,
    Klsm,
    Mq,
}

impl Proto {
    const ALL: [Proto; 4] = [Proto::Skeap, Proto::Seap, Proto::Klsm, Proto::Mq];

    fn name(self) -> &'static str {
        match self {
            Proto::Skeap => "skeap",
            Proto::Seap => "seap",
            Proto::Klsm => "klsm",
            Proto::Mq => "multiqueue",
        }
    }

    fn is_strict(self) -> bool {
        matches!(self, Proto::Skeap | Proto::Seap)
    }
}

/// One cell's measurements.
struct CellOut {
    offered: u64,
    lat: LatencySummary,
    elapsed_ticks: u64,
    rank: RankErrorSummary,
    drained: bool,
}

impl CellOut {
    fn throughput(&self) -> f64 {
        if self.elapsed_ticks == 0 {
            0.0
        } else {
            self.lat.count as f64 / self.elapsed_ticks as f64
        }
    }
}

/// The E19 workload grid point: shared by every proto in a cell row.
fn grid_spec(arrivals: ArrivalSpec, mix: MixKind, seed: u64) -> OpenLoopSpec {
    OpenLoopSpec {
        n: 16,
        clients: 100_000,
        rate: 8.0,
        ticks: 256,
        ticks_per_round: 4,
        insert_ratio: 0.6,
        n_prios: 16,
        arrivals,
        mix,
        seed,
    }
}

/// Run a strict protocol open-loop and score it with `rank`, the
/// protocol's own serial order handed to the rank oracle.
fn strict_cell<Q: QueueNode>(
    nodes: Vec<Q>,
    spec: &OpenLoopSpec,
    schedule: &Schedule,
    rank: impl FnOnce(&History) -> RankErrorSummary,
) -> CellOut
where
    Q::Msg: Clone,
{
    let mut sched = SyncScheduler::new(nodes);
    sched.set_ticks_per_round(spec.ticks_per_round);
    let out = drive_sync(
        &mut sched,
        schedule,
        DRAIN_ROUNDS,
        |node, inj| match inj.op {
            WorkOp::Insert { prio } => node.issue_insert(prio, inj.client),
            WorkOp::DeleteMin => node.issue(OpKind::DeleteMin),
        },
        |ns| ns.iter().all(Q::all_complete),
    );
    CellOut {
        offered: out.injected,
        lat: sched.metrics.snapshot().latency,
        elapsed_ticks: out.rounds * spec.ticks_per_round,
        rank: rank(&dpq_sim::history(sched.nodes())),
        drained: out.drained,
    }
}

/// Run a relaxed structure over the schedule under a per-lane busy-server
/// model: lane = entry node, one request served per lane per tick, requests
/// executed in arrival order with witness = execution order. The rank
/// oracle then scores the dequeue stream against the ideal strict heap.
fn relaxed_cell(q: &mut dyn RelaxedPq, spec: &OpenLoopSpec, schedule: &Schedule) -> CellOut {
    let mut h = History::new(spec.n);
    // The MultiQueue's two-choice draws: seeded per cell, independent of
    // the schedule streams.
    let mut rng = DetRng::new(spec.seed ^ 0x51ED_C0DE);
    let mut lane_free = vec![0u64; spec.n];
    let mut ins_seq = vec![0u64; spec.n];
    let mut lat_hist = LogHistogram::new();
    let mut elapsed = 0u64;
    for (w, inj) in (1u64..).zip(schedule.injections.iter()) {
        let v = inj.node;
        let lane = v.0 as usize;
        let complete = inj.tick.max(lane_free[lane]) + 1;
        lane_free[lane] = complete;
        elapsed = elapsed.max(complete);
        lat_hist.record(complete - inj.tick);
        match inj.op {
            WorkOp::Insert { prio } => {
                let e = Element::new(
                    ElemId::compose(v, ins_seq[lane]),
                    Priority(prio),
                    inj.client,
                );
                ins_seq[lane] += 1;
                let id = h.node(v).issue(v, OpKind::Insert(e));
                q.insert_from(lane, e);
                h.node(v).complete(id, OpReturn::Inserted);
                h.node(v).witness(id, w);
            }
            WorkOp::DeleteMin => {
                let id = h.node(v).issue(v, OpKind::DeleteMin);
                let ret = match q.delete_min_from(lane, &mut rng) {
                    Some(e) => OpReturn::Removed(e),
                    None => OpReturn::Bottom,
                };
                h.node(v).complete(id, ret);
                h.node(v).witness(id, w);
            }
        }
    }
    let rank = rank_error(&h, RankOrder::KeyOrder).expect("relaxed trace well-formed");
    CellOut {
        offered: schedule.injections.len() as u64,
        lat: LatencySummary::from_histogram(&lat_hist),
        elapsed_ticks: elapsed,
        rank,
        drained: true,
    }
}

/// One full cell: generate the schedule, dispatch by protocol.
fn run_cell(proto: Proto, spec: &OpenLoopSpec) -> CellOut {
    let schedule = Schedule::generate(spec);
    match proto {
        Proto::Skeap => strict_cell(
            skeap::cluster::build(spec.n, spec.n_prios as usize, spec.seed),
            spec,
            &schedule,
            |h| rank_error(h, RankOrder::Fifo).expect("skeap history well-formed"),
        ),
        // Seap's raw witness offsets inside a delete phase are
        // position-interval assignments; the serial order it claims is the
        // refined one (Lemma 5.2) — rank against that.
        Proto::Seap => strict_cell(
            seap::cluster::build(spec.n, spec.seed),
            spec,
            &schedule,
            |h| {
                let refined = seap::refine_witnesses(h).expect("seap history well-formed");
                rank_error(&refined, RankOrder::KeyOrder).expect("seap history well-formed")
            },
        ),
        Proto::Klsm => {
            // k = 8: each lane may buffer up to 8 unmerged elements.
            let mut q = KLsm::new(spec.n, 8);
            relaxed_cell(&mut q, spec, &schedule)
        }
        Proto::Mq => {
            let mut q = MultiQueue::new(spec.n, 2);
            relaxed_cell(&mut q, spec, &schedule)
        }
    }
}

/// E19: saturation throughput, tail latency, and rank error for strict vs
/// relaxed designs on identical open-loop traces.
pub fn e19_workload(opts: &ExpOpts) -> Table {
    let mut t = Table::new(
        "e19",
        "Open-loop traffic: strict (Skeap/Seap) vs relaxed (k-LSM/MultiQueue) on shared traces",
        &[
            "proto",
            "arrivals",
            "mix",
            "offered",
            "completed",
            "ticks",
            "thrpt (ops/tick)",
            "p50",
            "p99",
            "p999",
            "rank max",
            "rank mean",
            "rank p99",
            "spurious bottom",
            "drained",
        ],
    );

    // (name, spec) grid rows; `--workload` replaces the grid with the
    // user's spec, still fanned across all four protocols.
    let grid: Vec<(String, String, OpenLoopSpec)> = match &opts.workload {
        Some(spec) => {
            let arr = match spec.arrivals {
                ArrivalSpec::Poisson => "poisson",
                ArrivalSpec::Mmpp { .. } => "mmpp",
            };
            let mix = match spec.mix {
                MixKind::Uniform => "uniform",
                MixKind::Zipf { .. } => "zipf",
                MixKind::FifoAdversarial => "fifo-adv",
            };
            vec![(arr.into(), mix.into(), spec.clone())]
        }
        None => {
            let arrivals = [
                ("poisson", ArrivalSpec::Poisson),
                (
                    "mmpp",
                    ArrivalSpec::Mmpp {
                        burst_mult: 8.0,
                        dwell_calm: 32.0,
                        dwell_burst: 8.0,
                    },
                ),
            ];
            let mixes = [
                ("zipf-1.0", MixKind::Zipf { s: 1.0 }),
                ("fifo-adv", MixKind::FifoAdversarial),
            ];
            let mut g = Vec::new();
            for (ai, (an, arr)) in arrivals.into_iter().enumerate() {
                for (mi, (mn, mix)) in mixes.into_iter().enumerate() {
                    let seed = 0xE19 + (ai * 2 + mi) as u64;
                    g.push((an.to_string(), mn.to_string(), grid_spec(arr, mix, seed)));
                }
            }
            g
        }
    };

    let cells: Vec<(Proto, usize)> = Proto::ALL
        .into_iter()
        .flat_map(|p| (0..grid.len()).map(move |gi| (p, gi)))
        .collect();
    let outs = crate::runner::sweep(cells.len(), |i| {
        let (proto, gi) = cells[i];
        run_cell(proto, &grid[gi].2)
    });

    let mut strict_rank_max = 0u64;
    let mut relaxed_rank_max = 0u64;
    for ((proto, gi), out) in cells.iter().zip(&outs) {
        let (an, mn, _) = &grid[*gi];
        if proto.is_strict() {
            strict_rank_max = strict_rank_max.max(out.rank.max);
            assert_eq!(
                out.lat.count,
                out.offered,
                "{} {an}/{mn}: strict run left ops incomplete",
                proto.name()
            );
        } else {
            relaxed_rank_max = relaxed_rank_max.max(out.rank.max);
        }
        t.row(vec![
            proto.name().into(),
            an.clone(),
            mn.clone(),
            out.offered.to_string(),
            out.lat.count.to_string(),
            out.elapsed_ticks.to_string(),
            f(out.throughput()),
            out.lat.p50.to_string(),
            out.lat.p99.to_string(),
            out.lat.p999.to_string(),
            out.rank.max.to_string(),
            f(out.rank.mean),
            out.rank.p99.to_string(),
            out.rank.spurious_empty.to_string(),
            if out.drained { "yes" } else { "NO" }.into(),
        ]);
    }

    // The shootout's two pinned facts. Both deterministic under the
    // committed seeds, so regressions fail the run, not just the reader.
    assert_eq!(
        strict_rank_max, 0,
        "a strict protocol produced nonzero rank error"
    );
    if opts.workload.is_none() {
        assert!(
            relaxed_rank_max > 0,
            "relaxed baselines showed no disorder — oracle or model broken"
        );
    }
    t.note(
        "rank error: live elements strictly smaller than the dequeued one in the ideal \
         strict heap at dequeue time (k-LSM benchmark metric, PAPERS.md); strict protocols \
         are pinned at 0 in every cell",
    );
    t.note(
        "latency axes differ by design: strict = distributed protocol rounds in ticks, \
         relaxed = 1-tick-per-op busy-server lanes; the trade is ordering vs latency, \
         read rank columns against p99",
    );
    t
}
