//! Large-scale stress tests — ignored by default (minutes in debug mode).
//! Run with:
//!
//! ```text
//! cargo test --release --test stress -- --ignored
//! ```

use dpq::core::workload::WorkloadSpec;
use dpq::semantics::{check_local_consistency, replay, ReplayMode};
use dpq::sim::Run;

#[test]
#[ignore = "large scale; run explicitly in release"]
fn skeap_four_thousand_nodes() {
    let spec = WorkloadSpec::balanced(4096, 3, 3, 1);
    let run = skeap::cluster::run(&spec, 3, Run::sync(5_000_000));
    assert!(run.completed);
    replay(&run.history, ReplayMode::Fifo).unwrap();
    check_local_consistency(&run.history).unwrap();
    // Shape check at scale: rounds far below linear.
    assert!(
        run.time < 1000,
        "4096 nodes took {} rounds — superlogarithmic",
        run.time
    );
}

#[test]
#[ignore = "large scale; run explicitly in release"]
fn kselect_on_a_million_candidates() {
    let n = 1024;
    let m = 1_048_576u64;
    let cands = kselect::driver::random_candidates(n, m, 1 << 40, 2);
    let expect = kselect::driver::sequential_select(&cands, m / 2);
    let run = kselect::driver::run(
        n,
        cands,
        m / 2,
        kselect::KSelectConfig::default(),
        2,
        Run::sync(10_000_000),
    );
    assert_eq!(run.result, Some(expect));
    assert!(
        run.metrics.max_msg_bits < 1024,
        "messages stayed logarithmic"
    );
}

#[test]
#[ignore = "large scale; run explicitly in release"]
fn seap_thousand_nodes() {
    let spec = WorkloadSpec::balanced(1024, 3, 1 << 30, 3);
    let run = seap::cluster::run(&spec, Run::sync(10_000_000));
    assert!(run.completed);
    seap::checker::check_seap_history(&run.history).unwrap();
    assert!(run.metrics.max_msg_bits < 1024);
}

#[test]
#[ignore = "large scale; run explicitly in release"]
fn skeap_sustained_load_many_cycles() {
    // 50 injection waves: the anchor's counters march far from their
    // initial state; semantics must hold through all of it.
    let n = 64;
    let mut nodes = skeap::cluster::build(n, 4, 4);
    let mut sched = dpq::sim::SyncScheduler::new(std::mem::take(&mut nodes));
    for wave in 0..50u64 {
        let spec = WorkloadSpec::balanced(n, 4, 4, 10_000 + wave);
        let scripts = dpq::core::workload::generate(&spec);
        for (v, script) in scripts.iter().enumerate() {
            for op in script {
                match op {
                    dpq::core::OpKind::Insert(e) => {
                        sched.nodes_mut()[v].issue_insert(e.prio.0, e.payload);
                    }
                    dpq::core::OpKind::DeleteMin => {
                        sched.nodes_mut()[v].issue_delete();
                    }
                }
            }
        }
        for _ in 0..10 {
            sched.step_round();
        }
    }
    assert!(sched
        .run_until_pred(5_000_000, |ns| ns
            .iter()
            .all(skeap::SkeapNode::all_complete))
        .is_quiescent());
    let history = skeap::cluster::history(sched.nodes());
    assert_eq!(history.completed(), 50 * n * 4);
    replay(&history, ReplayMode::Fifo).unwrap();
    check_local_consistency(&history).unwrap();
}
