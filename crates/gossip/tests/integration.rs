//! Cross-layer membership tests: discovery spread, detection under message
//! loss, the rejoin path, and — the point of the crate — an unmodified
//! Skeap stack that keeps every semantic theorem while the gossip sidecar
//! suspects, confirms, and revives peers beneath it.

use dpq_core::workload::WorkloadSpec;
use dpq_core::{Element, History, NodeId};
use dpq_gossip::{DetectorConfig, GossipConfig, GossipNode, WithGossip};
use dpq_semantics::{
    check_conservation, check_heap_properties, check_local_consistency, replay, ReplayMode,
};
use dpq_sim::{AsyncScheduler, FaultPlan, Reliable, RunOutcome, SyncScheduler};

/// Detector tuning for simulator cadence: one heartbeat bump per round, so
/// short windows and a low threshold detect within tens of rounds. Matches
/// the storm harness's tuning.
fn quick(threshold: f64) -> GossipConfig {
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

/// A cluster where node 0 is the only seed contact: everyone else starts
/// knowing node 0 alone, and node 0 starts knowing everyone.
fn star(n: u64, cfg: GossipConfig) -> Vec<GossipNode> {
    let all: Vec<NodeId> = (0..n).map(NodeId).collect();
    (0..n)
        .map(|i| {
            let view: &[NodeId] = if i == 0 { &all } else { &all[..1] };
            GossipNode::new(NodeId(i), view, cfg)
        })
        .collect()
}

fn everyone_knows_everyone(nodes: &[GossipNode]) -> bool {
    let n = nodes.len() as u64;
    nodes
        .iter()
        .all(|g| (0..n).all(|p| p == g.me().0 || g.knows(NodeId(p))))
}

// ---------------------------------------------------------------------------
// Discovery: rumor spread from a single seed contact
// ---------------------------------------------------------------------------

/// From a star seed, full mutual knowledge is reached in rounds that grow
/// like log n, not like n: quadrupling the cluster must not even double the
/// spread time once past the constant floor.
#[test]
fn discovery_spreads_from_a_star_seed() {
    let spread = |n: u64| -> u64 {
        let mut sched = SyncScheduler::new(star(n, quick(8.0)));
        match sched.run_until_pred(2_000, everyone_knows_everyone) {
            RunOutcome::Quiescent { rounds } => rounds,
            out => panic!("n={n}: discovery never converged: {out:?}"),
        }
    };
    let small = spread(16);
    let large = spread(64);
    assert!(small > 0, "16 nodes converged instantly?");
    assert!(
        large <= small * 2 + 32,
        "spread rounds grew superlogarithmically: n=16 → {small}, n=64 → {large}"
    );
}

/// The same spread converges under an async adversary dropping a fifth of
/// all messages: anti-entropy is self-retransmitting, so loss only delays.
#[test]
fn discovery_survives_drops_on_the_async_scheduler() {
    let plan = FaultPlan::uniform(0xD15C0, 0.20, 0.05);
    let mut sched = AsyncScheduler::new(star(32, quick(16.0)), 0xA5EED).with_faults(plan);
    let ok = sched.run_until_pred(4_000_000, everyone_knows_everyone);
    assert!(ok, "gossip did not converge under 20% drop");
    let discovered: u64 = sched.nodes().iter().map(|g| g.stats.discoveries).sum();
    assert!(
        discovered >= 31,
        "only {discovered} discoveries for 31 unknown nodes"
    );
}

// ---------------------------------------------------------------------------
// Detection: a silent peer is confirmed and evicted, drops notwithstanding
// ---------------------------------------------------------------------------

/// Crash one node of a full-view cluster under 5% uniform drop. Every
/// survivor must walk it through suspicion → confirmation → eviction with
/// no scripted membership change, and no survivor may evict another.
#[test]
fn survivors_confirm_and_evict_a_crashed_peer() {
    let n = 24u64;
    let victim = NodeId(7);
    let all: Vec<NodeId> = (0..n).map(NodeId).collect();
    let nodes: Vec<GossipNode> = (0..n)
        .map(|i| GossipNode::new(NodeId(i), &all, quick(4.0)))
        .collect();
    let crash_at = 96;
    let plan = FaultPlan::uniform(0xDEAD5, 0.05, 0.0).with_crash(victim, crash_at, None);
    let mut sched = SyncScheduler::new(nodes).with_faults(plan);
    let out = sched.run_until_pred(4_000, |ns| {
        ns.iter().all(|g| g.me() == victim || g.is_evicted(victim))
    });
    let RunOutcome::Quiescent { rounds } = out else {
        panic!("survivors never evicted the crashed peer: {out:?}");
    };
    // Detection plus confirmation plus grace is tens of rounds at this
    // cadence — far from the budget, far from instantaneous.
    assert!(rounds > crash_at, "eviction cannot precede the crash");
    for g in sched.nodes() {
        if g.me() == victim {
            continue;
        }
        assert!(g.stats.evictions >= 1, "{:?} never ran eviction", g.me());
        for p in 0..n {
            let peer = NodeId(p);
            if peer == victim || peer == g.me() {
                continue;
            }
            assert!(
                !g.considers_dead(peer),
                "{:?} wrongly considers live {peer:?} dead",
                g.me()
            );
        }
        assert_eq!(
            g.live_view().len(),
            n as usize - 2, // everyone minus self minus the victim
            "{:?} has a distorted live view",
            g.me()
        );
    }
}

/// An evicted node that comes back must not stay ghosted: bumping its
/// incarnation outranks every tombstone, and the cluster re-admits it.
#[test]
fn an_evicted_node_rejoins_with_a_higher_incarnation() {
    let n = 8u64;
    let victim = NodeId(3);
    let all: Vec<NodeId> = (0..n).map(NodeId).collect();
    let nodes: Vec<GossipNode> = (0..n)
        .map(|i| GossipNode::new(NodeId(i), &all, quick(4.0)))
        .collect();
    // Down for 300 rounds — long past confirmation and eviction.
    let plan = FaultPlan::uniform(0x12EBB, 0.02, 0.0).with_crash(victim, 64, Some(364));
    let mut sched = SyncScheduler::new(nodes).with_faults(plan);
    let out = sched.run_until_pred(300, |ns| {
        ns.iter().all(|g| g.me() == victim || g.is_evicted(victim))
    });
    assert!(out.is_quiescent(), "eviction did not happen: {out:?}");

    // The victim recovers with its old incarnation: still tombstoned
    // everywhere. The rejoin is its own move — incarnation bump.
    sched.node_mut(victim).rejoin();
    let out = sched.run_until_pred(2_000, |ns| {
        ns.iter()
            .all(|g| g.me() == victim || (!g.is_evicted(victim) && !g.considers_dead(victim)))
    });
    assert!(out.is_quiescent(), "rejoin never took: {out:?}");
    let rejoins: u64 = sched.nodes().iter().map(|g| g.stats.rejoins).sum();
    assert!(rejoins >= 1, "no node counted the rejoin");
    for g in sched.nodes() {
        if g.me() != victim {
            assert!(
                g.live_view().contains(&victim),
                "{:?} did not re-admit the rejoined node",
                g.me()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The composite: Skeap + Reliable + gossip sidecar under the fault matrix
// ---------------------------------------------------------------------------

/// A full Skeap stack with the sidecar bolted on, under drops, dups, delay,
/// and a crash-recover: the workload completes, the history replays its
/// witness order exactly, and meanwhile the detector actually fired on the
/// crashed node (a huge eviction grace keeps membership fixed, so the app
/// layer is exercised *with* live suspicion underneath, not instead of it).
#[test]
fn skeap_with_gossip_sidecar_keeps_every_semantic_theorem_under_faults() {
    const RTO: u64 = 8;
    let n = 5usize;
    let spec = WorkloadSpec::balanced(n, 4, 3, 0x905517);
    let all: Vec<NodeId> = (0..n as u64).map(NodeId).collect();
    let sidecar = GossipConfig {
        evict_ticks: 1_000_000, // suspicion yes, membership change no
        ..quick(4.0)
    };
    let nodes: Vec<WithGossip<Reliable<skeap::SkeapNode>>> =
        Reliable::wrap_all(skeap::cluster::build(n, 3, spec.seed), RTO)
            .into_iter()
            .enumerate()
            .map(|(i, r)| WithGossip::new(r, GossipNode::new(NodeId(i as u64), &all, sidecar)))
            .collect();
    let plan = FaultPlan::uniform(0x5EED9, 0.10, 0.10)
        .with_delay(0.2, 6)
        .with_crash(NodeId(4), 30, Some(120));
    let mut sched = SyncScheduler::new(nodes).with_faults(plan);
    let scripts = dpq_core::workload::generate(&spec);
    for (node, script) in sched.nodes_mut().iter_mut().zip(&scripts) {
        for op in script {
            node.app.inner_mut().issue(*op);
        }
    }
    let out = sched.run_until_pred(400_000, |ns| {
        ns.iter().all(|wg| wg.app.inner().all_complete())
    });
    assert!(out.is_quiescent(), "composite run stalled: {out:?}");

    // Semantic theorems, verbatim from the fault matrix.
    let history = History::merge(
        sched
            .nodes()
            .iter()
            .map(|wg| wg.app.inner().history.clone())
            .collect(),
    );
    let residual: Vec<Element> = sched
        .nodes()
        .iter()
        .flat_map(|wg| wg.app.inner().shard.elements().map(|(_, e)| *e))
        .collect();
    replay(&history, ReplayMode::Fifo).unwrap_or_else(|e| panic!("witness replay: {e:?}"));
    check_local_consistency(&history).unwrap_or_else(|e| panic!("local consistency: {e:?}"));
    check_heap_properties(&history).unwrap_or_else(|e| panic!("heap properties: {e:?}"));
    check_conservation(&history, &residual).unwrap_or_else(|e| panic!("{e}"));

    // The sidecar was not idling: node 4's 90-round silence crossed the
    // suspicion threshold on at least one survivor.
    let suspicions: u64 = sched
        .nodes()
        .iter()
        .map(|wg| wg.gossip.detector().stats().suspicions)
        .sum();
    assert!(suspicions >= 1, "detector never suspected the crashed node");
    // And with the grace effectively infinite, nobody was evicted — the
    // app-layer result above was achieved on a stable membership.
    let evictions: u64 = sched
        .nodes()
        .iter()
        .map(|wg| wg.gossip.stats.evictions)
        .sum();
    assert_eq!(evictions, 0, "eviction fired despite the huge grace");
}
