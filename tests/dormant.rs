//! Dormancy is invisible: a scheduler that skips the activations a node
//! promised are no-ops ([`Protocol::dormant`]) must leave behind the same
//! bytes as one that steps every node every time.
//!
//! The oracle is [`Awake`], a wrapper that never says it is dormant — so it
//! is never skipped — and that checks the promise on every activation its
//! inner node *would* have slept through. Each case runs one seed on `P` and
//! on `Awake<P>` and demands equal traces, metrics, clocks, per-round state
//! hashes, histories and residuals; `dormant_skips()` must be positive on
//! the `P` side (a `dormant()` that quietly returns `false` fails too) and
//! zero on the `Awake` side.

use dpq::core::workload::{generate, WorkloadSpec};
use dpq::core::{
    state_digest, Element, NodeHistory, NodeId, OpId, OpKind, OpRecord, StateHash, StateHasher,
};
use dpq::sim::{
    fault_matrix, history, residual, AsyncScheduler, Core, Ctx, FaultPlan, MetricsSnapshot,
    Protocol, QueueNode, Reliable, Run, SyncScheduler, VecTracer,
};
use dpq_trace::export::write_jsonl;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// The oracle
// ---------------------------------------------------------------------------

/// `P`, never skipped, with the `dormant` contract asserted directly: an
/// activation entered while `P::dormant()` held must send nothing, record no
/// event and leave the state hash where it was.
struct Awake<P>(P);

impl<P: Protocol + StateHash> Protocol for Awake<P> {
    type Msg = P::Msg;

    fn on_activate(&mut self, ctx: &mut Ctx<P::Msg>) {
        if !self.0.dormant() {
            return self.0.on_activate(ctx);
        }
        let before = state_digest(&self.0);
        let mut probe = Ctx::new(ctx.me(), ctx.now());
        self.0.on_activate(&mut probe);
        let me = ctx.me();
        assert!(
            probe.take_outbox().is_empty(),
            "{me:?} said dormant and sent"
        );
        assert_eq!(
            probe.drain_events().count(),
            0,
            "{me:?} said dormant and recorded an event"
        );
        assert_eq!(
            state_digest(&self.0),
            before,
            "{me:?} said dormant and changed state"
        );
    }

    fn on_message(&mut self, from: NodeId, msg: P::Msg, ctx: &mut Ctx<P::Msg>) {
        self.0.on_message(from, msg, ctx);
    }

    fn done(&self) -> bool {
        self.0.done()
    }
}

impl<Q: QueueNode + StateHash> QueueNode for Awake<Q> {
    fn issue(&mut self, kind: OpKind) -> OpId {
        self.0.issue(kind)
    }
    fn issue_insert(&mut self, prio: u64, payload: u64) -> OpId {
        self.0.issue_insert(prio, payload)
    }
    fn node_history(&self) -> &NodeHistory {
        self.0.node_history()
    }
    fn resident(&self, out: &mut Vec<Element>) {
        self.0.resident(out)
    }
}

impl<P: StateHash> StateHash for Awake<P> {
    fn state_hash(&self, h: &mut StateHasher) {
        self.0.state_hash(h);
    }
}

// ---------------------------------------------------------------------------
// What a run leaves behind
// ---------------------------------------------------------------------------

/// See through `Awake` and `Reliable` to the protocol node, so one
/// completion predicate serves every stacking of the two.
trait Peel<P> {
    fn peel(&self) -> &P;
}

macro_rules! peel_self {
    ($($t:ty),*) => {$(
        impl Peel<$t> for $t {
            fn peel(&self) -> &$t {
                self
            }
        }
    )*};
}
peel_self!(skeap::SkeapNode, seap::SeapNode, kselect::KSelectNode);

impl<P, W: Peel<P>> Peel<P> for Awake<W> {
    fn peel(&self) -> &P {
        self.0.peel()
    }
}

impl<P, W: Protocol + Peel<P>> Peel<P> for Reliable<W>
where
    W::Msg: Clone,
{
    fn peel(&self) -> &P {
        self.inner().peel()
    }
}

fn wake<N>(nodes: Vec<N>) -> Vec<Awake<N>> {
    nodes.into_iter().map(Awake).collect()
}

/// Everything two runs of one seed must agree on, and how many activations
/// the scheduler skipped on the way.
struct Facts {
    /// The traced event stream as JSONL bytes.
    trace: Vec<u8>,
    metrics: MetricsSnapshot,
    /// Rounds or steps consumed.
    time: u64,
    /// Per-node state hashes, one row per round (sync) or sweep (async).
    digests: Vec<Vec<u64>>,
    skips: u64,
}

impl Facts {
    fn new(
        tracer: VecTracer,
        metrics: MetricsSnapshot,
        time: u64,
        digests: Vec<Vec<u64>>,
        skips: u64,
    ) -> Self {
        let mut trace = Vec::new();
        write_jsonl(&tracer.events, &mut trace).unwrap();
        Facts {
            trace,
            metrics,
            time,
            digests,
            skips,
        }
    }

    /// `self` ran `P`, `awake` ran its `Awake` twin. Names the first
    /// diverging row and node rather than dumping two traces.
    fn assert_same(&self, awake: &Facts, label: &str) {
        for (r, (a, b)) in self.digests.iter().zip(&awake.digests).enumerate() {
            if let Some(v) = (0..a.len()).find(|&v| a[v] != b[v]) {
                panic!("{label}: node {v} diverged from its Awake twin in row {r}");
            }
        }
        assert_eq!(self.digests.len(), awake.digests.len(), "{label}: rows");
        assert_eq!(self.time, awake.time, "{label}: clocks differ");
        assert_eq!(self.metrics, awake.metrics, "{label}: metrics differ");
        assert!(self.trace == awake.trace, "{label}: trace bytes differ");
    }

    /// The same, and the skip counters prove which side skipped.
    fn assert_twin(&self, awake: &Facts, label: &str) {
        self.assert_same(awake, label);
        assert!(self.skips > 0, "{label}: nothing was skipped");
        assert_eq!(awake.skips, 0, "{label}: the oracle was skipped");
    }
}

fn digests<N: StateHash>(nodes: &[N]) -> Vec<u64> {
    nodes.iter().map(state_digest).collect()
}

const SYNC_BUDGET: u64 = 400_000;
const ASYNC_BUDGET: u64 = 60_000_000;
const SYNC_RTO: u64 = 8;
const ASYNC_RTO: u64 = 1024;

/// A `before_round` that never mutates.
fn idle<S>(_: &mut S) -> bool {
    false
}

/// Round by round under the synchronous scheduler until `done` holds
/// everywhere. `before_round` may mutate the cluster (the open-loop drivers'
/// pattern) and says whether it still has mutations to make.
fn sync_facts<P, N: Protocol + StateHash + Peel<P>>(
    nodes: Vec<N>,
    plan: FaultPlan,
    ids: &[OpId],
    done: impl Fn(&P) -> bool,
    mut before_round: impl FnMut(&mut SyncScheduler<N, VecTracer>) -> bool,
) -> Facts
where
    N::Msg: Clone,
{
    let mut s = SyncScheduler::new(nodes)
        .with_faults(plan)
        .with_tracer(VecTracer::new());
    ids.iter().for_each(|&id| s.note_injected(id));
    let mut rows = Vec::new();
    while before_round(&mut s) || !s.nodes().iter().all(|n| done(n.peel())) {
        assert!(s.round() < SYNC_BUDGET, "stalled");
        s.step_round();
        rows.push(digests(s.nodes()));
    }
    let (skips, time, metrics) = (s.dormant_skips(), s.round(), s.metrics.snapshot());
    Facts::new(s.into_parts().1, metrics, time, rows, skips)
}

/// The same under the asynchronous adversary, hashing once per sweep.
fn async_facts<P, N: Protocol + StateHash + Peel<P>>(
    nodes: Vec<N>,
    plan: FaultPlan,
    ids: &[OpId],
    done: impl Fn(&P) -> bool,
) -> Facts
where
    N::Msg: Clone,
{
    let mut s = AsyncScheduler::new(nodes, 0xD02)
        .with_faults(plan)
        .with_tracer(VecTracer::new());
    ids.iter().for_each(|&id| s.note_injected(id));
    let mut rows = Vec::new();
    while !s.nodes().iter().all(|n| done(n.peel())) {
        assert!(s.steps() < ASYNC_BUDGET, "stalled");
        s.step_once();
        if s.steps().is_multiple_of(s.config().sweep_every) {
            rows.push(digests(s.nodes()));
        }
    }
    rows.push(digests(s.nodes()));
    let (skips, time, metrics) = (s.dormant_skips(), s.steps(), s.metrics.snapshot());
    Facts::new(s.into_parts().1, metrics, time, rows, skips)
}

/// One protocol through the scheduler-level matrix: {sync, async} × {clean,
/// lossy}. The lossy cells wrap in `Reliable` *inside* `Awake`, so there the
/// oracle checks the transport's own `dormant`.
fn scheduler_matrix<P: Protocol + StateHash + Peel<P>>(
    name: &str,
    build: impl Fn() -> (Vec<P>, Vec<OpId>),
    done: impl Fn(&P) -> bool + Copy,
) where
    P::Msg: Clone,
{
    let ids = build().1;
    let bare = || build().0;
    let none = FaultPlan::none;
    let clean = sync_facts(bare(), none(), &ids, done, idle);
    clean.assert_twin(
        &sync_facts(wake(bare()), none(), &ids, done, idle),
        &format!("{name}/sync/clean"),
    );
    async_facts(bare(), none(), &ids, done).assert_twin(
        &async_facts(wake(bare()), none(), &ids, done),
        &format!("{name}/async/clean"),
    );

    // Sync: the fault matrix's fullest cell (drop + dup + partition + crash,
    // so the down-node path is walked too). Async: uniform drop + dup.
    let plan = || {
        let cell = fault_matrix(NODES, 0xD0E, clean.time.max(64), 0.10, 0.10).pop();
        cell.expect("16 cells").plan
    };
    let rel = || Reliable::wrap_all(bare(), SYNC_RTO);
    sync_facts(rel(), plan(), &ids, done, idle).assert_twin(
        &sync_facts(wake(rel()), plan(), &ids, done, idle),
        &format!("{name}/sync/lossy"),
    );
    let plan = || FaultPlan::uniform(0xD0F, 0.05, 0.05);
    let rel = || Reliable::wrap_all(bare(), ASYNC_RTO);
    async_facts(rel(), plan(), &ids, done).assert_twin(
        &async_facts(wake(rel()), plan(), &ids, done),
        &format!("{name}/async/lossy"),
    );
}

/// The same four cells through the `Run` driver, whose faulty runs wrap the
/// other way round (`Reliable<Awake<P>>`) and do not show their scheduler:
/// trace bytes, metrics, clock and final node states; `extra` adds what
/// only that protocol can compare.
fn run_matrix<P: Protocol + StateHash, X: PartialEq + std::fmt::Debug>(
    name: &str,
    build: impl Fn() -> (Vec<P>, Vec<OpId>),
    done: impl Fn(&P) -> bool + Copy,
    extra: impl Fn(&[P]) -> X,
) where
    P::Msg: Clone,
{
    let scheds = [
        ("sync", Run::sync(SYNC_BUDGET), SYNC_RTO),
        ("async", Run::asynchronous(0xD03, ASYNC_BUDGET), ASYNC_RTO),
    ];
    for (sched, base, rto) in scheds {
        for faulty in [false, true] {
            let label = format!("{name}/Run::{sched}/faulty={faulty}");
            let run = match faulty {
                true => base
                    .clone()
                    .faulty(FaultPlan::uniform(0xD04, 0.05, 0.05), rto),
                false => base.clone(),
            }
            .tracer(VecTracer::new());
            let (nodes, ids) = build();
            let (plain, nodes) = core_facts(run.clone().drive(nodes, &ids, done), &label);
            let (awake, twins) =
                core_facts(run.drive(wake(build().0), &ids, |n| done(&n.0)), &label);
            plain.assert_same(&awake, &label);
            let twins: Vec<P> = twins.into_iter().map(|n| n.0).collect();
            assert_eq!(extra(&nodes), extra(&twins), "{label}");
        }
    }
}

/// The facts of a finished `Run::drive` (one digest row: the final states)
/// and its nodes.
fn core_facts<N: StateHash>(core: Core<N, VecTracer>, label: &str) -> (Facts, Vec<N>) {
    assert!(core.completed, "{label}: stalled");
    let row = vec![digests(&core.nodes)];
    let facts = Facts::new(core.tracer, core.metrics, core.time, row, 0);
    (facts, core.nodes)
}

/// Merged history and residual of a queue cluster.
fn queue_extra<Q: QueueNode>(nodes: &[Q]) -> (Vec<OpRecord>, Vec<Element>) {
    (history(nodes).records().copied().collect(), residual(nodes))
}

const NODES: usize = 6;
const OPS: usize = 3;

fn skeap_cluster() -> (Vec<skeap::SkeapNode>, Vec<OpId>) {
    let spec = WorkloadSpec::balanced(NODES, OPS, 3, 0xD10);
    let mut nodes = skeap::cluster::build(NODES, 3, spec.seed);
    let ids = skeap::cluster::inject_all(&mut nodes, &generate(&spec));
    (nodes, ids)
}

fn seap_cluster() -> (Vec<seap::SeapNode>, Vec<OpId>) {
    let spec = WorkloadSpec::balanced(NODES, OPS, 1 << 20, 0xD11);
    let mut nodes = seap::cluster::build(NODES, spec.seed);
    let ids = seap::cluster::inject_all(&mut nodes, &generate(&spec));
    (nodes, ids)
}

fn kselect_cluster() -> (Vec<kselect::KSelectNode>, Vec<OpId>) {
    let cands = kselect::driver::random_candidates(NODES, 48, 1 << 16, 0xD12);
    let cfg = kselect::KSelectConfig::default();
    (kselect::driver::build(NODES, cands, 16, cfg, 0xD12), vec![])
}

#[test]
fn skeap_runs_the_same_with_and_without_skips() {
    let done = skeap::SkeapNode::all_complete;
    scheduler_matrix("skeap", skeap_cluster, done);
    run_matrix("skeap", skeap_cluster, done, queue_extra);
}

#[test]
fn seap_runs_the_same_with_and_without_skips() {
    let done = seap::SeapNode::all_complete;
    scheduler_matrix("seap", seap_cluster, done);
    run_matrix("seap", seap_cluster, done, queue_extra);
}

#[test]
fn kselect_runs_the_same_with_and_without_skips() {
    let done = kselect::driver::decided;
    scheduler_matrix("kselect", kselect_cluster, done);
    run_matrix("kselect", kselect_cluster, done, |nodes| nodes[0].result);
}

// ---------------------------------------------------------------------------
// Teeth: the oracle catches a protocol that lies
// ---------------------------------------------------------------------------

/// Says it sleeps, yet pings its neighbour on every third activation.
struct Liar {
    activations: u64,
}

impl Protocol for Liar {
    type Msg = u64;
    fn on_activate(&mut self, ctx: &mut Ctx<u64>) {
        self.activations += 1;
        if self.activations.is_multiple_of(3) {
            ctx.send(NodeId((ctx.me().0 + 1) % 4), self.activations);
        }
    }
    fn on_message(&mut self, _: NodeId, _: u64, _: &mut Ctx<u64>) {}
    fn dormant(&self) -> bool {
        true
    }
}

impl StateHash for Liar {
    fn state_hash(&self, _: &mut StateHasher) {}
}

#[test]
#[should_panic(expected = "said dormant and sent")]
fn a_lying_dormant_trips_the_oracle() {
    let nodes = (0..4).map(|_| Awake(Liar { activations: 0 })).collect();
    let mut s = SyncScheduler::new(nodes);
    (0..4).for_each(|_| s.step_round());
}

/// ...and without the oracle the lie is visible as a changed run, which is
/// why the differential above has teeth: skipped, the liar never pings.
#[test]
fn a_lying_dormant_changes_the_run() {
    let mut s = SyncScheduler::new((0..4).map(|_| Liar { activations: 0 }).collect());
    (0..9).for_each(|_| s.step_round());
    assert_eq!(s.metrics.messages, 0, "skipped activations cannot send");
    assert_eq!(s.dormant_skips(), 4 * 8, "stepped once, then asleep");
}

// ---------------------------------------------------------------------------
// Wake on mutation
// ---------------------------------------------------------------------------

/// One injection of an open-loop driver: wait `gap` rounds, then issue at
/// `node` through `nodes_mut()[v]` or `node_mut(v)`.
#[derive(Debug, Clone)]
struct Poke {
    gap: u64,
    node: usize,
    whole_slice: bool,
    insert: bool,
    prio: u64,
}

fn pokes() -> impl Strategy<Value = Vec<Poke>> {
    let poke = (0u64..7, 0..NODES, any::<bool>(), any::<bool>(), 0u64..3).prop_map(
        |(gap, node, whole_slice, insert, prio)| Poke {
            gap,
            node,
            whole_slice,
            insert,
            prio,
        },
    );
    proptest::collection::vec(poke, 1..12)
}

/// Replay `pokes` against a cluster between rounds, then run it dry.
fn poked<Q: QueueNode, N: QueueNode + StateHash + Peel<Q>>(nodes: Vec<N>, pokes: &[Poke]) -> Facts
where
    N::Msg: Clone,
{
    let mut next = 0;
    let mut due = pokes[0].gap;
    sync_facts(nodes, FaultPlan::none(), &[], Q::all_complete, |s| {
        while next < pokes.len() && due <= s.round() {
            let p = &pokes[next];
            let node = match p.whole_slice {
                true => &mut s.nodes_mut()[p.node],
                false => s.node_mut(NodeId(p.node as u64)),
            };
            let id = match p.insert {
                true => node.issue_insert(p.prio, next as u64),
                false => node.issue(OpKind::DeleteMin),
            };
            s.note_injected(id);
            next += 1;
            due = s.round() + pokes.get(next).map_or(0, |p| p.gap);
        }
        next < pokes.len()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Requests issued between rounds reach dormant nodes exactly as they
    /// reach stepped ones.
    #[test]
    fn mutation_between_rounds_wakes_the_node(pokes in pokes(), seed in 0u64..500) {
        let skeap = || skeap::cluster::build(NODES, 3, seed);
        poked(skeap(), &pokes).assert_twin(&poked(wake(skeap()), &pokes), "skeap/poked");
        let seap = || seap::cluster::build(NODES, seed);
        poked(seap(), &pokes).assert_twin(&poked(wake(seap()), &pokes), "seap/poked");
    }
}
