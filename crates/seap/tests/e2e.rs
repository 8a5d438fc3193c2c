//! End-to-end Seap validation: Theorem 5.1's semantic claims checked on
//! whole-cluster executions under both execution models.

use dpq_core::workload::WorkloadSpec;
use dpq_core::OpReturn;
use dpq_sim::{AsyncConfig, AsyncScheduler, Run, SyncScheduler};
use seap::checker::check_seap_history;
use seap::cluster;
use seap::SeapNode;

#[test]
fn sync_runs_are_serializable_and_heap_consistent() {
    for (n, ops, prios, seed) in [
        (1usize, 30usize, 1u64 << 20, 1u64),
        (2, 25, 1 << 16, 2),
        (5, 20, 1 << 20, 3),
        (16, 15, 1 << 30, 4),
        (33, 10, 1 << 10, 5),
    ] {
        let spec = WorkloadSpec::balanced(n, ops, prios, seed);
        let run = cluster::run(&spec, Run::sync(500_000));
        assert!(run.completed, "n={n} seed={seed} did not complete");
        assert_eq!(run.history.completed(), n * ops);
        check_seap_history(&run.history).unwrap_or_else(|e| panic!("n={n} seed={seed}: {e}"));
    }
}

#[test]
fn async_runs_are_serializable() {
    for seed in 0..6u64 {
        let spec = WorkloadSpec::balanced(8, 12, 1 << 24, 100 + seed);
        let run = cluster::run(&spec, Run::asynchronous(777 - seed, 60_000_000));
        assert!(run.completed, "seed {seed} stalled");
        let history = run.history;
        assert_eq!(history.completed(), 8 * 12);
        check_seap_history(&history).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn async_starving_adversary_preserves_semantics() {
    let spec = WorkloadSpec::balanced(6, 10, 1 << 20, 55);
    let mut nodes = cluster::build(spec.n, spec.seed);
    cluster::inject_all(&mut nodes, &dpq_core::workload::generate(&spec));
    let mut sched = AsyncScheduler::new(nodes, 4321).with_config(AsyncConfig {
        deliver_bias: 0.2,
        sweep_every: 48,
    });
    assert!(sched.run_until_pred(120_000_000, |ns| ns.iter().all(SeapNode::all_complete)));
    check_seap_history(&cluster::history(sched.nodes())).unwrap();
}

#[test]
fn delete_heavy_workload_answers_bottom() {
    let spec = WorkloadSpec {
        n: 8,
        ops_per_node: 24,
        insert_ratio: 0.25,
        n_prios: 1 << 16,
        seed: 66,
    };
    let run = cluster::run(&spec, Run::sync(500_000));
    assert!(run.completed);
    let bottoms = run
        .history
        .records()
        .filter(|r| r.ret == Some(OpReturn::Bottom))
        .count();
    assert!(bottoms > 0, "expected ⊥ answers in a delete-heavy run");
    check_seap_history(&run.history).unwrap();
}

#[test]
fn insert_only_then_drain_completely() {
    let n = 6;
    let mut nodes = cluster::build(n, 7);
    for (v, node) in nodes.iter_mut().enumerate() {
        for i in 0..8u64 {
            node.issue_insert(1000 - i * 7 - v as u64, i);
        }
    }
    let mut sched = SyncScheduler::new(nodes);
    assert!(sched
        .run_until_pred(100_000, |ns| ns.iter().all(SeapNode::all_complete))
        .is_quiescent());
    // Drain with one extra ⊥ per node.
    for v in 0..n {
        for _ in 0..9 {
            sched.nodes_mut()[v].issue_delete();
        }
    }
    assert!(sched
        .run_until_pred(200_000, |ns| ns.iter().all(SeapNode::all_complete))
        .is_quiescent());
    let history = cluster::history(sched.nodes());
    let removed = history
        .records()
        .filter(|r| matches!(r.ret, Some(OpReturn::Removed(_))))
        .count();
    let bottoms = history
        .records()
        .filter(|r| r.ret == Some(OpReturn::Bottom))
        .count();
    assert_eq!(removed, 48);
    assert_eq!(bottoms, 6);
    check_seap_history(&history).unwrap();
    // Every shard is empty again.
    assert!(sched.nodes().iter().all(|n| n.shard.is_empty()));
}

#[test]
fn multi_wave_injection_stays_consistent() {
    let mut nodes = cluster::build(7, 9);
    let mut sched = SyncScheduler::new(std::mem::take(&mut nodes));
    for wave in 0..4u64 {
        let spec = WorkloadSpec::balanced(7, 5, 1 << 18, 900 + wave);
        let scripts = dpq_core::workload::generate(&spec);
        for (v, script) in scripts.iter().enumerate() {
            for op in script {
                match op {
                    dpq_core::OpKind::Insert(e) => {
                        sched.nodes_mut()[v].issue_insert(e.prio.0, e.payload);
                    }
                    dpq_core::OpKind::DeleteMin => {
                        sched.nodes_mut()[v].issue_delete();
                    }
                }
            }
        }
        for _ in 0..40 {
            sched.step_round();
        }
    }
    assert!(sched
        .run_until_pred(300_000, |ns| ns.iter().all(SeapNode::all_complete))
        .is_quiescent());
    check_seap_history(&cluster::history(sched.nodes())).unwrap();
}

#[test]
fn rounds_grow_logarithmically() {
    // Theorem 5.1(3) shape check.
    let rounds = |n: usize| {
        let spec = WorkloadSpec::balanced(n, 4, 1 << 20, 11);
        let run = cluster::run(&spec, Run::sync(2_000_000));
        assert!(run.completed, "n={n}");
        run.time as f64
    };
    let r16 = rounds(16);
    let r512 = rounds(512);
    assert!(
        r512 < 6.0 * r16,
        "rounds grew superlogarithmically: {r16} -> {r512}"
    );
}

#[test]
fn message_bits_stay_logarithmic_in_load() {
    // Lemma 5.5 / §1.4(3): message sizes do not scale with the injection
    // load — the decisive contrast with Skeap (Lemma 3.8).
    let max_bits = |ops: usize| {
        let spec = WorkloadSpec::balanced(16, ops, 1 << 20, 13);
        let run = cluster::run(&spec, Run::sync(2_000_000));
        assert!(run.completed);
        run.metrics.max_msg_bits
    };
    let light = max_bits(4);
    let heavy = max_bits(64);
    assert!(
        heavy < light + 128,
        "Seap message size grew with load: {light} -> {heavy} bits"
    );
    assert!(light < 1500);
}

#[test]
fn payloads_survive() {
    let mut nodes = cluster::build(4, 17);
    nodes[1].issue_insert(5, 0xFEED);
    nodes[2].issue_delete();
    let mut sched = SyncScheduler::new(nodes);
    assert!(sched
        .run_until_pred(100_000, |ns| ns.iter().all(SeapNode::all_complete))
        .is_quiescent());
    let history = cluster::history(sched.nodes());
    let removed: Vec<_> = history
        .records()
        .filter_map(|r| match r.ret {
            Some(OpReturn::Removed(e)) => Some(e),
            _ => None,
        })
        .collect();
    assert_eq!(removed.len(), 1);
    assert_eq!(removed[0].payload, 0xFEED);
}
