//! Seap robustness: extreme embedded-KSelect configurations, degenerate
//! cluster shapes, and pathological workload mixes must never break
//! serializability.

use dpq_core::workload::{generate, WorkloadSpec};
use dpq_sim::SyncScheduler;
use kselect::KSelectConfig;
use seap::checker::check_seap_history;
use seap::{cluster, SeapConfig, SeapNode};

fn run_with_config(n: usize, spec: &WorkloadSpec, cfg: SeapConfig) {
    let topo = dpq_overlay::Topology::new(n, spec.seed);
    let mut nodes = SeapNode::build_cluster(dpq_overlay::NodeView::extract_all(&topo), cfg);
    cluster::inject_all(&mut nodes, &generate(spec));
    let mut sched = SyncScheduler::new(nodes);
    assert!(sched
        .run_until_pred(3_000_000, |ns| ns.iter().all(SeapNode::all_complete))
        .is_quiescent());
    check_seap_history(&cluster::history(sched.nodes())).unwrap();
}

#[test]
fn paper_coefficients_inside_seap() {
    let mut cfg = SeapConfig::new(7);
    cfg.kselect = KSelectConfig {
        sample_coeff: 1.0,
        delta_coeff: 1.0,
        p3_threshold_coeff: 1.0,
        announce: false,
        ..KSelectConfig::default()
    };
    let spec = WorkloadSpec::balanced(12, 14, 1 << 24, 7);
    run_with_config(12, &spec, cfg);
}

#[test]
fn tight_delta_inside_seap() {
    let mut cfg = SeapConfig::new(8);
    cfg.kselect.delta_coeff = 0.05;
    let spec = WorkloadSpec::balanced(10, 12, 1 << 20, 8);
    run_with_config(10, &spec, cfg);
}

#[test]
fn forced_phase3_inside_seap() {
    let mut cfg = SeapConfig::new(9);
    cfg.kselect.max_p2_iters = 1;
    let spec = WorkloadSpec::balanced(8, 12, 1 << 20, 9);
    run_with_config(8, &spec, cfg);
}

#[test]
fn two_node_cluster_alternating_heavily() {
    let spec = WorkloadSpec {
        n: 2,
        ops_per_node: 40,
        insert_ratio: 0.5,
        n_prios: 1 << 30,
        seed: 10,
    };
    let run = cluster::run(&spec, dpq_sim::Run::sync(2_000_000));
    assert!(run.completed);
    check_seap_history(&run.history).unwrap();
}

#[test]
fn all_deletes_then_all_inserts() {
    // Every delete is issued before any insert: the first DeleteMin phases
    // answer ⊥ for everything, then the heap fills up and stays.
    let n = 6;
    let mut nodes = cluster::build(n, 11);
    for node in nodes.iter_mut() {
        for _ in 0..4 {
            node.issue_delete();
        }
    }
    let mut sched = SyncScheduler::new(nodes);
    assert!(sched
        .run_until_pred(1_000_000, |ns| ns.iter().all(SeapNode::all_complete))
        .is_quiescent());
    for (v, _) in (0..n).enumerate() {
        sched.nodes_mut()[v].issue_insert(v as u64, v as u64);
    }
    assert!(sched
        .run_until_pred(1_000_000, |ns| ns.iter().all(SeapNode::all_complete))
        .is_quiescent());
    let h = cluster::history(sched.nodes());
    let bottoms = h
        .records()
        .filter(|r| r.ret == Some(dpq_core::OpReturn::Bottom))
        .count();
    assert_eq!(bottoms, n * 4);
    check_seap_history(&h).unwrap();
    // Heap still holds the n inserted elements.
    let stored: usize = sched.nodes().iter().map(|nd| nd.shard.len()).sum();
    assert_eq!(stored, n);
    // The anchor's m agrees.
    let m = sched
        .nodes()
        .iter()
        .find_map(SeapNode::anchor_heap_size)
        .expect("one anchor");
    assert_eq!(m, n as u64);
}

#[test]
fn single_element_ping_pong() {
    // One element repeatedly inserted and removed across many supercycles:
    // the smallest possible KSelect instance (m = 1, k = 1) every phase.
    let n = 4;
    let mut sched = SyncScheduler::new(cluster::build(n, 12));
    for round in 0..8u64 {
        let who = (round % n as u64) as usize;
        sched.nodes_mut()[who].issue_insert(round, round);
        sched.nodes_mut()[(who + 1) % n].issue_delete();
        assert!(sched
            .run_until_pred(1_000_000, |ns| ns.iter().all(SeapNode::all_complete))
            .is_quiescent());
    }
    let h = cluster::history(sched.nodes());
    assert_eq!(h.completed(), 16);
    check_seap_history(&h).unwrap();
    assert!(sched.nodes().iter().all(|nd| nd.shard.is_empty()));
}
