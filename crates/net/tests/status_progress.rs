//! `Status` answers from a cursor ([`NetApp::progress`]) instead of scanning
//! the node's whole history on every poll; the answers must be the scan's.

use dpq_core::DetRng;
use dpq_net::app::{NetApp, QueueApp};
use dpq_sim::AsyncScheduler;

/// What `progress` must equal: the whole-history scan it replaced.
fn scan<Q: QueueApp>(node: &Q) -> (u64, bool) {
    let ops = &node.node_history().ops;
    let done = ops.iter().filter(|r| r.is_complete()).count() as u64;
    (done, ops.iter().all(|r| r.is_complete()))
}

/// Ops issued at random nodes and times under the asynchronous
/// scheduler's random delivery order, each node polled at random
/// moments with the cursor its previous poll left — or with 0, as a
/// runtime restarted from its WAL polls a node that already has a
/// history.
fn progress_equals_the_scan<Q: QueueApp>(nodes: Vec<Q>, seed: u64)
where
    Q::Msg: Clone,
{
    const OPS: usize = 120;
    let n = nodes.len() as u64;
    let mut sched = AsyncScheduler::new(nodes, seed);
    let mut rng = DetRng::new(seed);
    let mut cursors = vec![0usize; n as usize];
    let poll = |sched: &AsyncScheduler<Q>, v: usize, cursors: &mut [usize]| {
        let node = &sched.nodes()[v];
        let p = node.progress(cursors[v]);
        assert_eq!((p.completed, p.all_complete), scan(node));
        assert!(p.prefix >= cursors[v] && p.prefix as u64 <= p.completed);
        cursors[v] = p.prefix;
    };
    let mut issued = 0;
    while issued < OPS {
        if rng.below(40) == 0 {
            let node = &mut sched.nodes_mut()[rng.below(n) as usize];
            match rng.below(2) {
                0 => node.enqueue(rng.below(4), issued as u64).map(drop).unwrap(),
                _ => node.dequeue().map(drop).unwrap(),
            }
            issued += 1;
        }
        sched.step_once();
        let v = rng.below(n) as usize;
        if rng.below(50) == 0 {
            cursors[v] = 0;
        }
        poll(&sched, v, &mut cursors);
    }
    let all_done = |ns: &[Q]| ns.iter().all(|q| NetApp::all_complete(q));
    assert!(sched.run_until_pred(2_000_000, all_done), "cluster stuck");
    for v in 0..n as usize {
        poll(&sched, v, &mut cursors);
        assert_eq!(cursors[v] as u64, sched.nodes()[v].issued());
    }
}

#[test]
fn progress_equals_the_scan_on_skeap() {
    for seed in 1..=3 {
        progress_equals_the_scan(skeap::cluster::build(5, 4, seed), seed);
    }
}

#[test]
fn progress_equals_the_scan_on_seap() {
    for seed in 1..=3 {
        progress_equals_the_scan(seap::cluster::build(5, seed), seed);
    }
}
