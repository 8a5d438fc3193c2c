//! Golden-trace pins for the real protocols.
//!
//! `golden_sync` and `golden_async` (in `dpq-sim`) pin the schedulers'
//! delivery order on toy protocols. This file pins what Skeap, Seap (with
//! its embedded KSelect) and KSelect actually send: one small run of each
//! under the synchronous scheduler, the asynchronous adversary and one
//! faulty plan, with the traced event stream serialised by `write_jsonl`
//! and hashed. Any change to a message, its order, its size or the events a
//! node records moves a hash, even when every oracle still passes.
//!
//! The same hash pins the gossip membership layer (a faulty cluster run
//! through suspicion, eviction and rejoin, plus a miniature churn storm's
//! report) and the bounded control-plane ring the experiments trace into.

use dpq::core::workload::{generate, WorkloadSpec};
use dpq::core::{NodeId, OpId};
use dpq::gossip::{run_storm, DetectorConfig, GossipConfig, GossipNode, StormConfig};
use dpq::sim::{FaultPlan, Protocol, RingTracer, Run, SyncScheduler, VecTracer};
use dpq_trace::export::write_jsonl;

const NODES: usize = 6;
const OPS: usize = 3;

/// FNV-1a over the bytes, and how many there were.
fn fnv(bytes: &[u8]) -> (u64, usize) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    (h, bytes.len())
}

/// The three runs every protocol is pinned under.
fn runs() -> [(&'static str, Run); 3] {
    [
        ("sync", Run::sync(400_000)),
        ("async", Run::asynchronous(0x601, 60_000_000)),
        (
            "faulty",
            Run::sync(400_000).faulty(FaultPlan::uniform(0x602, 0.05, 0.05), 8),
        ),
    ]
}

/// Drive `nodes` to `done` under each of [`runs`] and hash the JSONL trace.
fn hashes<P: Protocol>(
    build: impl Fn() -> (Vec<P>, Vec<OpId>),
    done: impl Fn(&P) -> bool + Copy,
) -> Vec<(&'static str, u64, usize)>
where
    P::Msg: Clone,
{
    runs()
        .into_iter()
        .map(|(label, run)| {
            let (nodes, ids) = build();
            let core = run.tracer(VecTracer::new()).drive(nodes, &ids, done);
            assert!(core.completed, "{label}: stalled");
            let mut bytes = Vec::new();
            write_jsonl(&core.tracer.events, &mut bytes).unwrap();
            let (h, len) = fnv(&bytes);
            println!("{label}: ({h}, {len})");
            (label, h, len)
        })
        .collect()
}

fn pinned(got: Vec<(&'static str, u64, usize)>, want: [(u64, usize); 3]) {
    let got: Vec<(u64, usize)> = got.into_iter().map(|(_, h, len)| (h, len)).collect();
    assert_eq!(got, want);
}

#[test]
fn skeap_trace_is_pinned() {
    let build = || {
        let spec = WorkloadSpec::balanced(NODES, OPS, 3, 0x610);
        let mut nodes = skeap::cluster::build(NODES, 3, spec.seed);
        let ids = skeap::cluster::inject_all(&mut nodes, &generate(&spec));
        (nodes, ids)
    };
    pinned(hashes(build, skeap::SkeapNode::all_complete), GOLDEN_SKEAP);
}

#[test]
fn seap_trace_is_pinned() {
    let build = || {
        let spec = WorkloadSpec::balanced(NODES, OPS, 1 << 20, 0x611);
        let mut nodes = seap::cluster::build(NODES, spec.seed);
        let ids = seap::cluster::inject_all(&mut nodes, &generate(&spec));
        (nodes, ids)
    };
    pinned(hashes(build, seap::SeapNode::all_complete), GOLDEN_SEAP);
}

#[test]
fn kselect_trace_is_pinned() {
    let build = || {
        let cands = kselect::driver::random_candidates(NODES, 48, 1 << 16, 0x612);
        let cfg = kselect::KSelectConfig::default();
        (kselect::driver::build(NODES, cands, 16, cfg, 0x612), vec![])
    };
    pinned(hashes(build, kselect::driver::decided), GOLDEN_KSELECT);
}

/// Detector tuning for simulator cadence, as the storm harness's tests use.
fn quick_gossip(threshold: f64) -> GossipConfig {
    GossipConfig {
        window: 16,
        detector: DetectorConfig {
            threshold,
            confirm_ticks: 8,
            bootstrap_mean: 8.0,
        },
        evict_ticks: 8,
        ..GossipConfig::default()
    }
}

/// 16 gossip nodes for 400 rounds under 5 % drop and duplication; node 5 is
/// down from round 40 to 200 (long enough to be confirmed and evicted) and
/// calls `rejoin` once it is back, so the tombstone and incarnation paths
/// run too.
#[test]
fn gossip_trace_is_pinned() {
    let all: Vec<NodeId> = (0..16).map(NodeId).collect();
    let nodes: Vec<GossipNode> = all
        .iter()
        .map(|&me| GossipNode::new(me, &all, quick_gossip(4.0)))
        .collect();
    let plan = FaultPlan::uniform(0x613, 0.05, 0.05).with_crash(NodeId(5), 40, Some(200));
    let mut sched = SyncScheduler::new(nodes)
        .with_faults(plan)
        .with_tracer(VecTracer::new());
    for round in 1..=400u64 {
        sched.step_round();
        if round == 201 {
            sched.node_mut(NodeId(5)).rejoin();
        }
    }
    let (nodes, tracer, _) = sched.into_parts();
    let evictions: u64 = nodes.iter().map(|g| g.stats.evictions).sum();
    let rejoins: u64 = nodes.iter().map(|g| g.stats.rejoins).sum();
    assert!(
        evictions > 0 && rejoins > 0,
        "{evictions} evictions, {rejoins} rejoins"
    );
    let mut bytes = Vec::new();
    write_jsonl(&tracer.events, &mut bytes).unwrap();
    let got = fnv(&bytes);
    println!("gossip: {got:?}");
    assert_eq!(got, GOLDEN_GOSSIP);

    // The mini storm of the storm harness's own unit test.
    let report = run_storm(&StormConfig {
        n0: 48,
        spares: 4,
        rounds: 320,
        churn_every: 40,
        warmup: 64,
        down_for: 200,
        gossip: quick_gossip(4.0),
    });
    let mut text = format!(
        "{} {} {} {} {} {} {} {} {} {} {} {}\n",
        report.rounds_run,
        report.crashes,
        report.joins,
        report.evictions,
        report.join_splices,
        report.rescinded,
        report.suspicions,
        report.confirms,
        report.fp_suspicions,
        report.fp_confirms,
        report.fp_evictions,
        report.elements,
    );
    text += &format!("{}\n", report.members_final);
    for r in &report.restorations {
        text += &format!(
            "{:?} {} {} {:?} {:?} {:?} {:?} {}\n",
            r.kind, r.node, r.at, r.detect, r.quorum, r.spliced, r.settled, r.rescinded
        );
    }
    let got = fnv(text.as_bytes());
    println!("storm: {got:?}");
    assert_eq!(got, GOLDEN_STORM);
}

/// The Skeap sync run through the bounded control-plane ring the
/// experiments attach: small enough that old events are overwritten.
#[test]
fn control_ring_is_pinned() {
    let spec = WorkloadSpec::balanced(NODES, OPS, 3, 0x610);
    let mut nodes = skeap::cluster::build(NODES, 3, spec.seed);
    let ids = skeap::cluster::inject_all(&mut nodes, &generate(&spec));
    let core = Run::sync(400_000).tracer(RingTracer::new(64)).drive(
        nodes,
        &ids,
        skeap::SkeapNode::all_complete,
    );
    assert!(core.completed);
    let dropped = core.tracer.dropped;
    assert!(dropped > 0, "the ring never filled");
    let mut bytes = Vec::new();
    write_jsonl(&core.tracer.into_events(), &mut bytes).unwrap();
    let got = (fnv(&bytes), dropped);
    println!("ring: {got:?}");
    assert_eq!(got, GOLDEN_RING);
}

// (hash, byte count) of the JSONL trace under sync, async and faulty,
// recorded from the protocols as they are. A change here means a protocol's
// message stream observably changed; do not regenerate casually.
const GOLDEN_SKEAP: [(u64, usize); 3] = [
    (5592491198267524888, 103830),
    (16928882265481870897, 108683),
    (7043474664204418879, 217101),
];
const GOLDEN_SEAP: [(u64, usize); 3] = [
    (10166397057236858465, 1072889),
    (5265268095471548497, 1197952),
    (9625049604563379172, 2231264),
];
const GOLDEN_KSELECT: [(u64, usize); 3] = [
    (10566306294729196293, 1270947),
    (752145452588411318, 1483849),
    (7150447393768085911, 2698291),
];
// (hash, byte count) of the gossip cluster's JSONL trace and of the mini
// storm's report text; the ring's pin adds its overwritten-event count.
const GOLDEN_GOSSIP: (u64, usize) = (5173311411206480804, 3311665);
const GOLDEN_STORM: (u64, usize) = (1177377532495491721, 443);
const GOLDEN_RING: ((u64, usize), u64) = ((13092807907062871979, 4358), 23);
