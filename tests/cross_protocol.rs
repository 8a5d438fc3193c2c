//! Cross-crate integration: the same workload pushed through Skeap, Seap
//! and the centralized baseline must tell consistent stories.

use dpq::baselines::CentralNode;
use dpq::core::workload::{generate, WorkloadSpec};
use dpq::core::{History, OpReturn};
use dpq::sim::{Run, SyncScheduler};
use std::collections::BTreeMap;

/// The multiset of (priority, payload) pairs removed by the deletes of a
/// history, plus the ⊥ count.
fn drain_profile(h: &History) -> (BTreeMap<(u64, u64), usize>, usize) {
    let mut removed = BTreeMap::new();
    let mut bottoms = 0;
    for r in h.records() {
        match r.ret {
            Some(OpReturn::Removed(e)) => {
                *removed.entry((e.prio.0, e.payload)).or_insert(0) += 1;
            }
            Some(OpReturn::Bottom) => bottoms += 1,
            _ => {}
        }
    }
    (removed, bottoms)
}

/// With inserts strictly before deletes and enough deletes to drain, every
/// implementation must remove exactly the same element multiset (all of
/// them) and report the same ⊥ count.
#[test]
fn all_implementations_drain_identically() {
    let n = 10usize;
    let per_node = 8usize;
    let spec = WorkloadSpec {
        n,
        ops_per_node: per_node,
        insert_ratio: 1.0,
        n_prios: 4,
        seed: 314,
    };
    let ins_scripts = generate(&spec);
    let deletes_per_node = per_node + 1; // one ⊥ each

    let run = |mode: &str| -> (BTreeMap<(u64, u64), usize>, usize) {
        match mode {
            "skeap" => {
                let mut nodes = skeap::cluster::build(n, 4, 314);
                skeap::cluster::inject_all(&mut nodes, &ins_scripts);
                let mut s = SyncScheduler::new(nodes);
                assert!(s
                    .run_until_pred(200_000, |ns| ns.iter().all(skeap::SkeapNode::all_complete))
                    .is_quiescent());
                for v in 0..n {
                    for _ in 0..deletes_per_node {
                        s.nodes_mut()[v].issue_delete();
                    }
                }
                assert!(s
                    .run_until_pred(200_000, |ns| ns.iter().all(skeap::SkeapNode::all_complete))
                    .is_quiescent());
                drain_profile(&skeap::cluster::history(s.nodes()))
            }
            "seap" => {
                let mut nodes = seap::cluster::build(n, 314);
                seap::cluster::inject_all(&mut nodes, &ins_scripts);
                let mut s = SyncScheduler::new(nodes);
                assert!(s
                    .run_until_pred(500_000, |ns| ns.iter().all(seap::SeapNode::all_complete))
                    .is_quiescent());
                for v in 0..n {
                    for _ in 0..deletes_per_node {
                        s.nodes_mut()[v].issue_delete();
                    }
                }
                assert!(s
                    .run_until_pred(500_000, |ns| ns.iter().all(seap::SeapNode::all_complete))
                    .is_quiescent());
                drain_profile(&seap::cluster::history(s.nodes()))
            }
            "central" => {
                let mut nodes = CentralNode::build_cluster(n);
                for (node, script) in nodes.iter_mut().zip(&ins_scripts) {
                    for op in script {
                        node.issue(*op);
                    }
                }
                let mut s = SyncScheduler::new(nodes);
                assert!(s.run_until_quiescent(100_000).is_quiescent());
                for v in 0..n {
                    for _ in 0..deletes_per_node {
                        s.nodes_mut()[v].issue(dpq::core::OpKind::DeleteMin);
                    }
                }
                assert!(s.run_until_quiescent(100_000).is_quiescent());
                let h = History::merge(s.nodes().iter().map(|nd| nd.history.clone()).collect());
                drain_profile(&h)
            }
            _ => unreachable!(),
        }
    };

    let (skeap_rm, skeap_b) = run("skeap");
    let (seap_rm, seap_b) = run("seap");
    let (central_rm, central_b) = run("central");

    assert_eq!(skeap_rm.values().sum::<usize>(), n * per_node);
    assert_eq!(
        skeap_rm, seap_rm,
        "Skeap and Seap drained different elements"
    );
    assert_eq!(
        skeap_rm, central_rm,
        "distributed and central heaps disagree"
    );
    assert_eq!(skeap_b, n);
    assert_eq!(seap_b, n);
    assert_eq!(central_b, n);
}

/// Mixed concurrent workloads: the two protocols need not match element-
/// for-element (different tie-breaks, different serializations), but both
/// must pass their own consistency checkers and agree on aggregate counts.
#[test]
fn mixed_workloads_agree_on_aggregates() {
    for seed in [11u64, 22, 33] {
        let spec = WorkloadSpec::balanced(9, 14, 5, seed);
        let skeap_run = skeap::cluster::run(&spec, 5, Run::sync(400_000));
        assert!(skeap_run.completed);
        dpq::semantics::replay(&skeap_run.history, dpq::semantics::ReplayMode::Fifo).unwrap();

        let seap_run = seap::cluster::run(&spec, Run::sync(800_000));
        assert!(seap_run.completed);
        seap::checker::check_seap_history(&seap_run.history).unwrap();

        let (skeap_rm, skeap_b) = drain_profile(&skeap_run.history);
        let (seap_rm, seap_b) = drain_profile(&seap_run.history);
        let skeap_total: usize = skeap_rm.values().sum();
        let seap_total: usize = seap_rm.values().sum();
        // Same scripts ⇒ same number of inserts and deletes; the number of
        // matched deletes can differ by scheduling, but matched + ⊥ must
        // equal the delete count in both.
        let deletes: usize = generate(&spec)
            .iter()
            .flatten()
            .filter(|o| !o.is_insert())
            .count();
        assert_eq!(skeap_total + skeap_b, deletes);
        assert_eq!(seap_total + seap_b, deletes);
    }
}

/// On an identical constant-priority workload driven *serially* (one op
/// completes cluster-wide before the next is issued, round-robin across
/// nodes, at most one live element per priority class), Skeap's and Seap's
/// replayed sequential histories — completed ops sorted by witness — must
/// agree element-for-element: the i-th delete removes the same element
/// (same `ElemId`, same payload) in both. The workload shape makes every
/// pop uniquely determined, so the protocols' different tie-breaks (Skeap:
/// FIFO insertion ≺-order; Seap: composite-key order) never engage and any
/// divergence is a real serialization bug, not a discipline difference.
/// Both protocols compose `ElemId` from `(node, seq)`, so element identity
/// is exact.
#[test]
fn sequential_histories_agree_element_for_element() {
    const N: usize = 4;
    const N_PRIOS: usize = 3;
    const SEED: u64 = 2718;

    /// The serial script: (issuing node, op). Deterministic in SEED via a
    /// splitmix-style walk; keeps ≤1 live element per priority class by
    /// inserting the first free class and deleting once all are occupied,
    /// then drains.
    fn script() -> Vec<(usize, dpq::core::OpKind)> {
        let mut ops = Vec::new();
        let mut live = [false; N_PRIOS];
        let mut x = SEED;
        let mut rng = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for i in 0..30 {
            let node = (rng() % N as u64) as usize;
            let free = live.iter().position(|l| !l);
            // Bias toward inserting while classes are free; delete otherwise.
            if let Some(p) = free.filter(|_| rng() % 4 != 0 || !live.iter().any(|l| *l)) {
                live[p] = true;
                ops.push((
                    node,
                    dpq::core::OpKind::Insert(dpq::core::Element::new(
                        dpq::core::ElemId(u64::MAX), // assigned by the node
                        dpq::core::Priority(p as u64),
                        1000 + i,
                    )),
                ));
            } else {
                let min = live.iter().position(|l| *l).expect("checked non-empty");
                live[min] = false;
                ops.push((node, dpq::core::OpKind::DeleteMin));
            }
        }
        for l in live.iter_mut().filter(|l| **l) {
            *l = false;
            ops.push((0, dpq::core::OpKind::DeleteMin));
        }
        ops
    }

    /// The witness-ordered delete sequence: which element each successive
    /// delete of the serialization removed.
    fn drain_sequence(h: &History) -> Vec<(u64, dpq::core::ElemId, u64)> {
        let mut ops: Vec<_> = h.records().collect();
        ops.sort_by_key(|r| r.witness.expect("incomplete op in drained history"));
        ops.iter()
            .filter_map(|r| match r.ret {
                Some(OpReturn::Removed(e)) => Some((e.prio.0, e.id, e.payload)),
                _ => None,
            })
            .collect()
    }

    let serial_ops = script();

    let mut s = SyncScheduler::new(skeap::cluster::build(N, N_PRIOS, SEED));
    for &(node, op) in &serial_ops {
        match op {
            dpq::core::OpKind::Insert(e) => {
                s.nodes_mut()[node].issue_insert(e.prio.0, e.payload);
            }
            dpq::core::OpKind::DeleteMin => {
                s.nodes_mut()[node].issue_delete();
            }
        }
        assert!(s
            .run_until_pred(200_000, |ns| ns.iter().all(skeap::SkeapNode::all_complete))
            .is_quiescent());
    }
    let skeap_h = skeap::cluster::history(s.nodes());
    dpq::semantics::replay(&skeap_h, dpq::semantics::ReplayMode::Fifo).unwrap();
    let skeap_seq = drain_sequence(&skeap_h);

    let mut s = SyncScheduler::new(seap::cluster::build(N, SEED));
    for &(node, op) in &serial_ops {
        match op {
            dpq::core::OpKind::Insert(e) => {
                s.nodes_mut()[node].issue_insert(e.prio.0, e.payload);
            }
            dpq::core::OpKind::DeleteMin => {
                s.nodes_mut()[node].issue_delete();
            }
        }
        assert!(s
            .run_until_pred(500_000, |ns| ns.iter().all(seap::SeapNode::all_complete))
            .is_quiescent());
    }
    let seap_h = seap::cluster::history(s.nodes());
    seap::checker::check_seap_history(&seap_h).unwrap();
    let seap_seq = drain_sequence(&seap_h);

    let deletes = serial_ops.iter().filter(|(_, op)| !op.is_insert()).count();
    assert_eq!(
        skeap_seq.len(),
        deletes,
        "a delete hit ⊥ despite the live-set invariant"
    );
    assert_eq!(
        skeap_seq, seap_seq,
        "Skeap and Seap serialize the same serial workload differently"
    );
}

/// The facade crate re-exports the whole API surface.
#[test]
fn facade_paths_work() {
    let _ = dpq::core::Priority(3);
    let _ = dpq::overlay::Topology::new(4, 1);
    let _ = dpq::agg::Interval::new(1, 2);
    let _ = dpq::dht::DhtShard::new();
    let _ = dpq::baselines::FifoHeap::new();
    let _ = dpq::kselect::KSelectConfig::default();
    let _ = dpq::seap::SeapConfig::new(1);
    let _ = dpq::skeap::SkeapConfig::fifo(2);
}
