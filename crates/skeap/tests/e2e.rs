//! End-to-end Skeap validation: Theorem 3.2's semantic claims checked on
//! whole-cluster executions under both execution models.

use dpq_core::workload::{generate, WorkloadSpec};
use dpq_core::OpKind;
use dpq_semantics::{check_heap_properties, check_local_consistency, replay, ReplayMode};
use dpq_sim::{AsyncConfig, AsyncScheduler, Run, SyncScheduler};
use skeap::cluster;
use skeap::SkeapNode;

fn assert_consistent(history: &dpq_core::History) {
    replay(history, ReplayMode::Fifo).unwrap_or_else(|e| panic!("replay failed: {e}"));
    check_local_consistency(history).unwrap_or_else(|e| panic!("local order: {e}"));
    check_heap_properties(history).unwrap_or_else(|e| panic!("heap property: {e}"));
}

#[test]
fn sync_runs_are_sequentially_consistent() {
    for (n, ops, prios, seed) in [
        (1usize, 40usize, 2u64, 1u64),
        (2, 30, 1, 2),
        (8, 7, 1, 6),
        (5, 25, 3, 3),
        (16, 20, 4, 4),
        (33, 12, 2, 5),
    ] {
        let spec = WorkloadSpec::balanced(n, ops, prios, seed);
        let run = cluster::run(&spec, prios as usize, Run::sync(200_000));
        assert!(run.completed, "n={n} seed={seed} did not complete");
        assert_eq!(run.history.completed(), n * ops);
        assert_consistent(&run.history);
    }
}

#[test]
fn async_runs_are_sequentially_consistent() {
    for seed in 0..8u64 {
        let spec = WorkloadSpec::balanced(9, 15, 3, 100 + seed);
        let run = cluster::run(&spec, 3, Run::asynchronous(999 - seed, 30_000_000));
        assert!(run.completed, "seed {seed} stalled");
        let history = run.history;
        assert_eq!(history.completed(), 9 * 15);
        assert_consistent(&history);
    }
}

#[test]
fn async_starving_adversary_preserves_semantics() {
    let spec = WorkloadSpec::balanced(6, 12, 2, 77);
    let mut nodes = cluster::build(spec.n, 2, spec.seed);
    cluster::inject_all(&mut nodes, &generate(&spec));
    let mut sched = AsyncScheduler::new(nodes, 1234).with_config(AsyncConfig {
        deliver_bias: 0.15,
        sweep_every: 32,
    });
    assert!(sched.run_until_pred(60_000_000, |ns| ns.iter().all(SkeapNode::all_complete)));
    assert_consistent(&cluster::history(sched.nodes()));
}

#[test]
fn delete_heavy_workload_returns_bottoms_consistently() {
    let spec = WorkloadSpec {
        n: 8,
        ops_per_node: 30,
        insert_ratio: 0.2, // far more deletes than inserts → many ⊥
        n_prios: 3,
        seed: 42,
    };
    let run = cluster::run(&spec, 3, Run::sync(200_000));
    assert!(run.completed);
    let bottoms = run
        .history
        .records()
        .filter(|r| r.ret == Some(dpq_core::OpReturn::Bottom))
        .count();
    assert!(bottoms > 0, "expected some ⊥ answers");
    assert_consistent(&run.history);
}

#[test]
fn insert_only_then_delete_only_drains_in_priority_order() {
    let n = 6;
    let mut nodes = cluster::build(n, 4, 7);
    // Every node inserts 10 elements with priorities 3,2,1,0,3,2,1,0,…
    for node in nodes.iter_mut() {
        for i in 0..10u64 {
            node.issue_insert(3 - (i % 4), i);
        }
    }
    let mut sched = SyncScheduler::new(nodes);
    assert!(sched
        .run_until_pred(50_000, |ns| ns.iter().all(SkeapNode::all_complete))
        .is_quiescent());
    // Now delete everything (plus some extra ⊥s).
    for v in 0..n {
        for _ in 0..12 {
            sched.nodes_mut()[v].issue_delete();
        }
    }
    assert!(sched
        .run_until_pred(50_000, |ns| ns.iter().all(SkeapNode::all_complete))
        .is_quiescent());
    let history = cluster::history(sched.nodes());
    assert_consistent(&history);
    // All 60 elements removed, 12 ⊥.
    let removed = history
        .records()
        .filter(|r| matches!(r.ret, Some(dpq_core::OpReturn::Removed(_))))
        .count();
    let bottoms = history
        .records()
        .filter(|r| r.ret == Some(dpq_core::OpReturn::Bottom))
        .count();
    assert_eq!(removed, 60);
    assert_eq!(bottoms, 12);
}

#[test]
fn multi_cycle_pipelining_stays_consistent() {
    // Inject in several waves with runs in between, so different batches
    // land in different cycles and position pointers wrap through many
    // states.
    let mut nodes = cluster::build(7, 2, 9);
    let mut sched = SyncScheduler::new(std::mem::take(&mut nodes));
    for wave in 0..5u64 {
        let spec = WorkloadSpec::balanced(7, 6, 2, 500 + wave);
        let scripts = generate(&spec);
        for (v, script) in scripts.iter().enumerate() {
            for op in script {
                // Re-issue inserts through issue_insert so element ids stay
                // unique across waves.
                match op {
                    OpKind::Insert(e) => {
                        sched.nodes_mut()[v].issue_insert(e.prio.0, e.payload);
                    }
                    OpKind::DeleteMin => {
                        sched.nodes_mut()[v].issue_delete();
                    }
                }
            }
        }
        // Run a short burst — not necessarily to completion — before the
        // next wave, so cycles overlap with fresh injections.
        for _ in 0..15 {
            sched.step_round();
        }
    }
    assert!(sched
        .run_until_pred(100_000, |ns| ns.iter().all(SkeapNode::all_complete))
        .is_quiescent());
    assert_consistent(&cluster::history(sched.nodes()));
}

#[test]
fn rounds_per_batch_grow_logarithmically() {
    // Corollary 3.6 shape check: rounds to complete one batch of requests
    // stay within c·log₂(n) as n grows by 64×.
    let rounds = |n: usize| {
        let spec = WorkloadSpec::balanced(n, 4, 2, 11);
        let run = cluster::run(&spec, 2, Run::sync(400_000));
        assert!(run.completed, "n={n}");
        run.time as f64
    };
    let r16 = rounds(16);
    let r1024 = rounds(1024);
    assert!(
        r1024 / r16 < (1024f64).log2() / (16f64).log2() * 3.0,
        "rounds grew superlogarithmically: {r16} -> {r1024}"
    );
}

#[test]
fn element_payloads_survive_the_heap() {
    let mut nodes = cluster::build(4, 2, 13);
    nodes[2].issue_insert(1, 0xDEAD);
    nodes[3].issue_delete();
    let mut sched = SyncScheduler::new(nodes);
    assert!(sched
        .run_until_pred(10_000, |ns| ns.iter().all(SkeapNode::all_complete))
        .is_quiescent());
    let history = cluster::history(sched.nodes());
    let removed: Vec<_> = history
        .records()
        .filter_map(|r| match r.ret {
            Some(dpq_core::OpReturn::Removed(e)) => Some(e),
            _ => None,
        })
        .collect();
    assert_eq!(removed.len(), 1);
    assert_eq!(removed[0].payload, 0xDEAD);
}
