//! `NodeCore`s in one process on a virtual clock: the socket runtime's turn
//! with the sockets, threads and wall clock taken out, so the root package's
//! tests exercise `dpq-net` without spawning a process.
//!
//! Batches travel as real bytes — each frame encoded when its core flushes,
//! joined with `append_frame` the way one `write` carries them, split again
//! by a `FrameDecoder` and decoded by the receiving core — and every turn
//! ends as the runtime's does: log entries first, then frames. Three
//! claims, each judged by an oracle that already exists:
//!
//! * **lock-step ≡ simulator.** Every frame produced in tick t is delivered
//!   at tick t + 1, each destination taking its senders in index order and
//!   each sender's frames in send order; then every node ticks. That is the
//!   synchronous model, so merged history, residual and clock must equal
//!   `Run::sync(..).faulty(FaultPlan::none(), RTO)`'s on the same cluster,
//!   and KSelect's key and clock `driver::run`'s.
//! * **replay ≡ live.** At every tick boundary of a lock-step run one
//!   node's core is rebuilt from the entries it has handed back so far; the
//!   rebuilt `Reliable<P>` must hash like the live one and hold as many
//!   op-latency samples.
//! * **seeded interleavings.** `RandomAdversary` picks every step:
//!   `Deliver(k)` hands the k-th batch in flight to its destination,
//!   `Activate(i)` ticks core i. A delivery ends its turn without a tick, so
//!   held acks wait for the next one. Requests are issued before the run;
//!   Seap's are then issued again, one at a time while a second run goes on,
//!   so an idle anchor's holds and the wakes that lift them are part of the
//!   schedule. Histories must pass witness replay, conservation, the Seap
//!   phase checker and rank error 0; KSelect must select the sequential
//!   answer.
//! * **holds.** An idle Seap anchor's own frames wait for its tick, a local
//!   request or a wake; a wake is never logged and never a decode error.
//!   A lone data frame's ack waits for the receiver's next tick, and its
//!   sender retransmits nothing at the smallest timeout lock-step allows.

use dpq::core::workload::{generate, WorkloadSpec};
use dpq::core::Priority;
use dpq::core::{state_digest, Element, History, Key, OpId, OpKind, OpRecord, StateHash};
use dpq::semantics::{
    check_conservation, check_local_consistency, rank_error, replay, RankOrder, ReplayMode,
};
use dpq::sim::{
    AsyncConfig, DeliveryPolicy, FaultPlan, Hub, QueueNode, RandomAdversary, ReliableMsg, Run,
    StepChoice,
};
use dpq_net::frame::{append_frame, FrameDecoder};
use dpq_net::wal::WalEntry;
use dpq_net::{from_bytes, CtlReq, CtlResp, NetApp, NodeCore, Wire};
use kselect::{KSelectConfig, KSelectNode};

const N: usize = 5;
const OPS: usize = 4;
const N_PRIOS: usize = 4;
const RTO: u64 = 8;
/// The smallest timeout lock-step delivery allows: a frame a delivery sends
/// at tick t leaves with tick t + 1's flush, its ack with the receiver's
/// tick t + 2, and the ack reaches the sender before its tick t + 3.
const LOCKSTEP_RTO: u64 = 3;
/// Lock-step ticks a run may take.
const TICKS: u64 = 20_000;
/// Adversary steps an interleaved run may take.
const STEPS: u64 = 2_000_000;
/// Adversary steps between two requests issued during an interleaved run.
const ISSUE_EVERY: u64 = 512;

/// `n` cores, the log each has handed back, and the batches in flight.
struct Cluster<P: NetApp>
where
    P::Msg: Clone + Wire,
{
    cores: Vec<NodeCore<P>>,
    logs: Vec<Vec<WalEntry>>,
    /// `(sender, destination, bytes)`, in send order.
    flight: Vec<(usize, usize, Vec<u8>)>,
}

impl<P: NetApp> Cluster<P>
where
    P::Msg: Clone + Wire,
{
    fn new(nodes: Vec<P>) -> Self {
        Self::with_rto(nodes, RTO)
    }

    fn with_rto(nodes: Vec<P>, rto: u64) -> Self {
        let cores: Vec<_> = (nodes.into_iter().enumerate())
            .map(|(i, node)| NodeCore::new(i as u64, node, rto))
            .collect();
        Cluster {
            logs: vec![Vec::new(); cores.len()],
            cores,
            flight: Vec::new(),
        }
    }

    /// Issue `scripts[i]` at core i through the control plane.
    fn issue(&mut self, scripts: &[Vec<OpKind>]) {
        for (i, script) in scripts.iter().enumerate() {
            for &op in script {
                self.ctl(i, op);
            }
            self.end_turn(i, false);
        }
    }

    /// Issue `op` at core i; the caller ends the turn.
    fn ctl(&mut self, i: usize, op: OpKind) {
        let req = match op {
            OpKind::Insert(e) => CtlReq::Enqueue {
                prio: e.prio.0,
                payload: e.payload,
            },
            OpKind::DeleteMin => CtlReq::Dequeue,
        };
        let resp = self.cores[i].ctl(req);
        assert!(matches!(resp, CtlResp::Issued { .. }), "{resp:?}");
    }

    /// What the runtime does after each input: log, then write.
    fn end_turn(&mut self, i: usize, tick: bool) {
        self.logs[i].extend(self.cores[i].take_entries());
        let flight = &mut self.flight;
        self.cores[i].flush(tick, |dst, frames| {
            let mut bytes = Vec::new();
            for frame in &frames {
                append_frame(&mut bytes, frame).expect("frame fits");
            }
            flight.push((i, dst as usize, bytes));
        });
    }

    /// Deliver the `k`-th batch in flight; returns its destination.
    fn deliver(&mut self, k: usize) -> usize {
        let (src, dst, bytes) = self.flight.remove(k);
        self.cores[dst].deliver(src as u64, split(&bytes));
        dst
    }

    /// Deliver everything in flight, oldest first, each delivery a turn of
    /// its own, until nothing is; no core ticks.
    fn settle(&mut self) {
        for _ in 0..STEPS {
            if self.flight.is_empty() {
                return;
            }
            let dst = self.deliver(0);
            self.end_turn(dst, false);
        }
        panic!("the cluster never settled: a hold was not honoured");
    }

    /// Tick core i alone.
    fn tick(&mut self, i: usize) {
        self.cores[i].tick();
        self.end_turn(i, true);
    }

    /// Lose every wake in flight.
    fn drop_wakes(&mut self) {
        for (_, _, bytes) in &mut self.flight {
            let mut kept = Vec::new();
            for frame in split(bytes).iter().filter(|f| !f.is_empty()) {
                append_frame(&mut kept, frame).expect("frame fits");
            }
            *bytes = kept;
        }
        self.flight.retain(|(_, _, bytes)| !bytes.is_empty());
    }

    /// One synchronous round.
    fn lockstep(&mut self) {
        self.flight.sort_by_key(|&(src, dst, _)| (dst, src));
        while !self.flight.is_empty() {
            self.deliver(0);
        }
        self.cores.iter_mut().for_each(NodeCore::tick);
        (0..self.cores.len()).for_each(|i| self.end_turn(i, true));
    }

    /// Lock-step rounds until `done`; returns how many.
    fn run_lockstep(&mut self, done: impl Fn(&P) -> bool) -> u64 {
        let mut ticks = 0;
        while !self.cores.iter().all(|c| done(c.node().inner())) {
            assert!(ticks < TICKS, "lock-step run stalled");
            self.lockstep();
            ticks += 1;
        }
        ticks
    }

    /// Steps drawn by the adversary until `later[i]` is issued at core i —
    /// one request every [`ISSUE_EVERY`] steps — and every node is `done`.
    fn interleave(&mut self, seed: u64, later: &[Vec<OpKind>], done: impl Fn(&P) -> bool) {
        let mut adversary = RandomAdversary::new(seed);
        let cfg = AsyncConfig::default();
        let mut later = (later.iter().enumerate())
            .flat_map(|(i, script)| script.iter().map(move |&op| (i, op)))
            .peekable();
        let mut steps = 0;
        while later.peek().is_some() || !self.cores.iter().all(|c| done(c.node().inner())) {
            assert!(steps < STEPS, "seed {seed}: interleaved run stalled");
            steps += 1;
            if steps % ISSUE_EVERY == 0 {
                if let Some((i, op)) = later.next() {
                    self.ctl(i, op);
                    self.end_turn(i, false);
                }
            }
            match adversary.decide(self.flight.len(), self.cores.len(), &cfg) {
                StepChoice::Deliver(k) => {
                    let dst = self.deliver(k);
                    self.end_turn(dst, false);
                }
                StepChoice::Activate(i) => self.tick(i),
            }
        }
    }
}

/// The frames of one batch.
fn split(bytes: &[u8]) -> Vec<Vec<u8>> {
    let (mut decoder, mut frames, mut stream) = (FrameDecoder::default(), vec![], bytes);
    while decoder
        .read_from(&mut stream, &mut frames)
        .expect("whole frames")
    {}
    frames
}

/// Counter `name` of a core's telemetry.
fn counter<P: NetApp>(core: &NodeCore<P>, name: &str) -> u64
where
    P::Msg: Clone + Wire,
{
    let mut hub = Hub::new();
    core.export_telemetry(&mut hub);
    hub.counter_by_name(name)
        .expect("a counter every core exports")
}

fn core<P: NetApp>((i, node): (usize, P)) -> NodeCore<P>
where
    P::Msg: Clone + Wire,
{
    NodeCore::new(i as u64, node, RTO)
}

/// Merged history and residual, as `Run::queue` reports them.
fn outcome<Q: NetApp + QueueNode>(cores: &[NodeCore<Q>]) -> (History, Vec<Element>)
where
    Q::Msg: Clone + Wire,
{
    let nodes = cores.iter().map(|c| c.node().node_history().clone());
    let mut residual = Vec::new();
    cores.iter().for_each(|c| c.node().resident(&mut residual));
    residual.sort_unstable_by_key(|e| (e.prio, e.id));
    (History::merge(nodes.collect()), residual)
}

fn records(h: &History) -> Vec<OpRecord> {
    h.records().copied().collect()
}

fn judge_skeap(h: &History, residual: &[Element]) {
    check_local_consistency(h).expect("local consistency");
    replay(h, ReplayMode::Fifo).expect("witness replay");
    check_conservation(h, residual).expect("conservation");
    assert_eq!(rank_error(h, RankOrder::Fifo).expect("rank error").max, 0);
}

fn judge_seap(h: &History, residual: &[Element]) {
    seap::check_seap_history(h).expect("seap phase order");
    check_conservation(h, residual).expect("conservation");
    let refined = seap::refine_witnesses(h).expect("seap witnesses");
    let errors = rank_error(&refined, RankOrder::KeyOrder).expect("rank error");
    assert_eq!(errors.max, 0);
}

fn scripts(seed: u64, n_prios: u64) -> Vec<Vec<OpKind>> {
    generate(&WorkloadSpec::balanced(N, OPS, n_prios, seed))
}

fn skeap_nodes(seed: u64) -> Vec<skeap::SkeapNode> {
    skeap::cluster::build(N, N_PRIOS, seed)
}

fn seap_nodes(seed: u64) -> Vec<seap::SeapNode> {
    seap::cluster::build(N, seed)
}

/// KSelect's candidates for `seed` and the rank to select.
fn kselect_input(seed: u64) -> (Vec<Vec<Key>>, u64) {
    (kselect::driver::random_candidates(N, 48, 1 << 16, seed), 13)
}

fn kselect_nodes(seed: u64) -> Vec<KSelectNode> {
    let (cands, k) = kselect_input(seed);
    kselect::driver::build(N, cands, k, KSelectConfig::default(), seed)
}

/// The completion predicate of a queue node.
fn complete<Q: QueueNode>(q: &Q) -> bool {
    q.all_complete()
}

/// The same queue cluster, ops issued by the same `QueueNode` calls,
/// through the synchronous simulator and through lock-step cores.
fn lockstep_matches_sync<Q: NetApp + QueueNode>(build: impl Fn() -> (Vec<Q>, Vec<OpId>))
where
    Q::Msg: Clone + Wire,
{
    let (nodes, ids) = build();
    let sim = Run::sync(TICKS)
        .faulty(FaultPlan::none(), RTO)
        .queue(nodes, &ids);
    assert!(sim.completed);
    let mut cluster = Cluster::new(build().0);
    let ticks = cluster.run_lockstep(complete);
    let (history, residual) = outcome(&cluster.cores);
    assert_eq!(records(&history), records(&sim.history));
    assert_eq!(residual, sim.residual);
    assert_eq!(ticks, sim.time);
}

#[test]
fn lockstep_cores_equal_the_synchronous_simulator() {
    for seed in [1, 2] {
        let specs = scripts(seed, N_PRIOS as u64);
        lockstep_matches_sync(|| {
            let mut nodes = skeap_nodes(seed);
            let ids = skeap::cluster::inject_all(&mut nodes, &specs);
            (nodes, ids)
        });
        let specs = scripts(seed, 1 << 20);
        lockstep_matches_sync(|| {
            let mut nodes = seap_nodes(seed);
            let ids = seap::cluster::inject_all(&mut nodes, &specs);
            (nodes, ids)
        });
        let (cands, k) = kselect_input(seed);
        let run = Run::sync(TICKS).faulty(FaultPlan::none(), RTO);
        let sim = kselect::driver::run(N, cands, k, KSelectConfig::default(), seed, run);
        let mut cluster = Cluster::new(kselect_nodes(seed));
        let ticks = cluster.run_lockstep(kselect::driver::decided);
        assert!(sim.completed);
        assert_eq!(cluster.cores[0].node().inner().result, sim.result);
        assert_eq!(ticks, sim.rounds);
    }
}

/// Rebuild node `V` from its log at every tick boundary of a lock-step run.
fn replay_matches_live<P: NetApp + StateHash>(
    build: impl Fn() -> Vec<P>,
    scripts: &[Vec<OpKind>],
    done: impl Fn(&P) -> bool,
) where
    P::Msg: Clone + Wire,
{
    const V: usize = 1;
    let mut cluster = Cluster::new(build());
    cluster.issue(scripts);
    for tick in 0.. {
        let live = &cluster.cores[V];
        let mut rebuilt = core((V, build().swap_remove(V)));
        rebuilt.replay(cluster.logs[V].iter().cloned());
        assert_eq!(
            state_digest(rebuilt.node()),
            state_digest(live.node()),
            "tick {tick}: the rebuilt node diverged"
        );
        assert_eq!(
            rebuilt.op_latency().count(),
            live.op_latency().count(),
            "tick {tick}: the rebuilt node lost latency clocks"
        );
        if cluster.cores.iter().all(|c| done(c.node().inner())) {
            break;
        }
        assert!(tick < TICKS, "lock-step run stalled");
        cluster.lockstep();
    }
    let completed = scripts.get(V).map_or(0, Vec::len) as u64;
    assert_eq!(cluster.cores[V].op_latency().count(), completed);
}

#[test]
fn a_core_rebuilt_from_its_log_equals_the_live_one() {
    let seed = 3;
    let specs = scripts(seed, N_PRIOS as u64);
    replay_matches_live(|| skeap_nodes(seed), &specs, complete);
    replay_matches_live(|| seap_nodes(seed), &scripts(seed, 1 << 20), complete);
    replay_matches_live(|| kselect_nodes(seed), &[], kselect::driver::decided);
}

#[test]
fn seeded_interleavings_pass_the_oracles() {
    for seed in 0..8 {
        let mut skeap = Cluster::new(skeap_nodes(seed));
        skeap.issue(&scripts(seed, N_PRIOS as u64));
        skeap.interleave(seed, &[], complete);
        let (history, residual) = outcome(&skeap.cores);
        judge_skeap(&history, &residual);

        let mut seap = Cluster::new(seap_nodes(seed));
        seap.issue(&scripts(seed, 1 << 20));
        seap.interleave(seed, &[], complete);
        let (history, residual) = outcome(&seap.cores);
        judge_seap(&history, &residual);

        // The same requests again, issued while the run goes on.
        let mut trickled = Cluster::new(seap_nodes(seed));
        trickled.interleave(seed, &scripts(seed, 1 << 20), complete);
        let total = |name| trickled.cores.iter().map(|c| counter(c, name)).sum::<u64>();
        assert!(total("net.paced_holds") > 0 && total("net.wakes") > 0);
        let (history, residual) = outcome(&trickled.cores);
        judge_seap(&history, &residual);

        let (cands, k) = kselect_input(seed);
        let key = kselect::driver::sequential_select(&cands, k);
        let mut kselect = Cluster::new(kselect_nodes(seed));
        kselect.interleave(seed, &[], kselect::driver::decided);
        for c in &kselect.cores {
            assert_eq!(c.node().inner().result, Some(key), "seed {seed}");
        }
    }
}

/// The anchor's own frames wait for its tick, a local request or a wake, and
/// a request whose wake is lost waits for the tick.
#[test]
fn an_idle_anchor_holds_until_its_tick_a_local_request_or_a_wake() {
    let seed = 5;
    let nodes = seap_nodes(seed);
    let anchor = nodes.iter().position(|q| q.view.is_anchor()).unwrap();
    // A node below the anchor's child: its wake skips its parent.
    let deep = (nodes.iter())
        .position(|q| q.view.parent().is_some_and(|p| p.index() != anchor))
        .expect("a node two levels below the anchor");
    let insert = |payload| OpKind::Insert(Element::new(Default::default(), Priority(9), payload));
    let mut c = Cluster::new(seap_nodes(seed));
    let holds = |c: &Cluster<_>| counter(&c.cores[anchor], "net.paced_holds");
    (0..N).for_each(|i| c.tick(i));
    c.settle();
    assert_eq!(holds(&c), 1, "an idle anchor holds its next phase");

    c.tick(anchor);
    assert!(c.flight.iter().any(|&(s, d, _)| (s, d) == (anchor, anchor)));
    c.settle();
    assert_eq!(holds(&c), 2, "the tick released one empty phase");

    c.ctl(anchor, insert(1));
    c.end_turn(anchor, false);
    c.settle();
    assert!(c.cores[anchor].node().all_complete(), "a local request");

    c.ctl(deep, OpKind::DeleteMin);
    c.end_turn(deep, false);
    c.drop_wakes();
    c.settle();
    assert!(!c.cores[deep].node().all_complete(), "no wake, no phase");
    // The released phase may be an insert phase: then a second tick.
    let released = (0..2).any(|_| {
        c.tick(anchor);
        c.settle();
        c.cores[deep].node().all_complete()
    });
    assert!(released, "the anchor's ticks released it");

    for op in [insert(2), OpKind::DeleteMin] {
        c.ctl(deep, op);
        c.end_turn(deep, false);
        c.settle();
        assert!(c.cores[deep].node().all_complete(), "a wake released it");
    }
    for (i, core) in c.cores.iter().enumerate() {
        let wakes = if i == anchor { 2 } else { 0 };
        assert_eq!(counter(core, "net.wakes"), wakes, "node {i}");
        assert_eq!(counter(core, "net.rx_decode_errors"), 0, "node {i}");
        assert_eq!(counter(core, "net.late_holds"), 0, "node {i}");
    }
    let logged = |e: &WalEntry| matches!(e, WalEntry::Deliver { frame, .. } if frame.0.is_empty());
    assert!(!c.logs.iter().flatten().any(logged), "a wake was logged");
    let mut rebuilt = core((anchor, seap_nodes(seed).swap_remove(anchor)));
    rebuilt.replay(c.logs[anchor].iter().cloned());
    assert_eq!(
        state_digest(rebuilt.node()),
        state_digest(c.cores[anchor].node())
    );
    assert_eq!(
        rebuilt.op_latency().count(),
        c.cores[anchor].op_latency().count()
    );
}

/// Decision 14's ack hold, without a clock: a lone data frame's ack leaves
/// with the receiver's next tick, in time for the lock-step timeout.
#[test]
fn a_lone_data_frame_is_acked_at_the_next_tick() {
    let seed = 1;
    let retransmits = |c: &Cluster<skeap::SkeapNode>| -> u64 {
        c.cores.iter().map(|c| c.node().stats.retransmits).sum()
    };
    for (rto, clean) in [(LOCKSTEP_RTO - 1, false), (LOCKSTEP_RTO, true)] {
        let mut c = Cluster::with_rto(skeap_nodes(seed), rto);
        c.issue(&scripts(seed, N_PRIOS as u64));
        c.run_lockstep(complete);
        assert_eq!(retransmits(&c) == 0, clean, "lock-step at rto {rto}");
    }

    let nodes = skeap_nodes(seed);
    let anchor = nodes.iter().position(|q| q.view.is_anchor()).unwrap();
    let mut c = Cluster::with_rto(nodes, LOCKSTEP_RTO);
    (0..N).for_each(|i| c.tick(i));
    // A leaf's first batch, to a parent below the anchor: the parent answers
    // it only up the tree.
    let k = (c.flight.iter())
        .position(|&(s, d, _)| s != d && d != anchor)
        .expect("a leaf two levels below the anchor");
    let (leaf, parent) = (c.flight[k].0, c.flight[k].1);
    let decode = |f: &Vec<u8>| from_bytes::<ReliableMsg<skeap::SkeapMsg>>(f).unwrap();
    let to_leaf = |c: &Cluster<_>| -> Vec<_> {
        (c.flight.iter())
            .filter(|&&(s, d, _)| (s, d) == (parent, leaf))
            .flat_map(|(_, _, bytes)| split(bytes).iter().map(decode).collect::<Vec<_>>())
            .collect()
    };
    let lone = split(&c.flight[k].2);
    assert!(matches!(lone[..], [ref f] if matches!(decode(f), ReliableMsg::Data { .. })));
    c.deliver(k);
    c.end_turn(parent, false);
    assert!(to_leaf(&c).is_empty(), "the ack left without a tick");
    c.tick(parent);
    assert!(
        matches!(to_leaf(&c)[..], [ReliableMsg::Ack { .. }]),
        "the tick flushed {:?}",
        to_leaf(&c)
    );
    // The leaf ticks once before the ack lands, as in lock-step.
    c.tick(leaf);
    let k = (c.flight.iter())
        .position(|&(s, d, _)| (s, d) == (parent, leaf))
        .unwrap();
    c.deliver(k);
    c.end_turn(leaf, false);
    (0..LOCKSTEP_RTO).for_each(|_| c.tick(leaf));
    assert_eq!(c.cores[leaf].node().stats.retransmits, 0);
    assert_eq!(c.cores[leaf].node().unacked(), 0);
}
