//! Experiments B1–B2: baselines the paper argues against (§1.3).

use crate::table::{f, Table};
use dpq_baselines::{CentralNode, NaiveSelectNode};
use dpq_core::workload::{generate, WorkloadSpec};
use dpq_core::{DetRng, ElemId, Key, Priority};
use dpq_overlay::{tree, NodeView, Topology};
use dpq_sim::{Run, SyncScheduler};
use kselect::{driver, KSelectConfig};
use skeap::cluster as skeap_cluster;
use skeap::SkeapNode;

/// B1 — centralized-coordinator congestion grows with n; Skeap's does not.
pub fn b1_central_congestion(_opts: &crate::ExpOpts) -> Table {
    let mut t = Table::new(
        "b1",
        "Congestion vs n at fixed per-node load: centralized coordinator vs Skeap",
        &[
            "n",
            "central congestion",
            "skeap congestion",
            "central/skeap",
        ],
    );
    const NS: [usize; 4] = [16, 64, 256, 1024];
    // Even cells run the centralized baseline, odd cells Skeap, on the same
    // workload shape: 4 ops per node, injected up front.
    let congestion = crate::runner::sweep(NS.len() * 2, |c| {
        let n = NS[c / 2];
        let spec = WorkloadSpec::balanced(n, 4, 3, 21);
        let scripts = generate(&spec);
        if c % 2 == 0 {
            let mut central = CentralNode::build_cluster(n);
            for (node, script) in central.iter_mut().zip(&scripts) {
                for op in script {
                    node.issue(*op);
                }
            }
            let mut cs = SyncScheduler::new(central);
            assert!(cs.run_until_quiescent(1_000_000).is_quiescent());
            cs.metrics.congestion
        } else {
            let mut nodes = skeap_cluster::build(n, 3, 21);
            skeap_cluster::inject_all(&mut nodes, &scripts);
            let mut ss = SyncScheduler::new(nodes);
            assert!(ss
                .run_until_pred(2_000_000, |ns| ns.iter().all(SkeapNode::all_complete))
                .is_quiescent());
            ss.metrics.congestion
        }
    });
    for (ni, n) in NS.into_iter().enumerate() {
        let (cc, sc) = (congestion[ni * 2], congestion[ni * 2 + 1]);
        t.row(vec![
            n.to_string(),
            cc.to_string(),
            sc.to_string(),
            f(cc as f64 / sc as f64),
        ]);
    }
    t.note("the coordinator handles Θ(n·λ) messages per round; Skeap's max stays polylog — the §1.3 scalability argument");
    t
}

/// B2 — gather-to-root selection vs KSelect: message sizes and totals.
pub fn b2_naive_kselect(_opts: &crate::ExpOpts) -> Table {
    let mut t = Table::new(
        "b2",
        "k-selection, m = 16n candidates: gather-to-root vs KSelect",
        &[
            "n",
            "naive max msg bits",
            "kselect max msg bits",
            "bits ratio",
            "naive rounds",
            "kselect rounds",
        ],
    );
    const NS: [usize; 3] = [16, 64, 256];
    let cells = crate::runner::sweep(NS.len(), |ni| {
        let n = NS[ni];
        let m = 16 * n as u64;
        let k = m / 2;

        // Naive gather.
        let topo = Topology::new(n, 22);
        let mut rng = DetRng::new(23);
        let mut all: Vec<Key> = Vec::new();
        let nodes: Vec<NaiveSelectNode> = NodeView::extract_all(&topo)
            .into_iter()
            .map(|view| {
                let cands: Vec<Key> = (0..(m / n as u64))
                    .map(|i| Key::new(Priority(rng.below(1 << 30)), ElemId::compose(view.me(), i)))
                    .collect();
                all.extend_from_slice(&cands);
                NaiveSelectNode::new(view, cands, k)
            })
            .collect();
        let anchor = tree::anchor_real(&topo);
        let mut ns = SyncScheduler::new(nodes);
        assert!(ns.run_until_quiescent(100_000).is_quiescent());
        all.sort_unstable();
        assert_eq!(ns.node(anchor).result, Some(all[k as usize - 1]));

        // KSelect on an equally sized instance.
        let cands = driver::random_candidates(n, m, 1 << 30, 24);
        let expect = driver::sequential_select(&cands, k);
        let kr = driver::run(
            n,
            cands,
            k,
            KSelectConfig::default(),
            24,
            Run::sync(3_000_000),
        );
        assert_eq!(kr.result, Some(expect));

        (
            ns.metrics.max_msg_bits,
            kr.metrics.max_msg_bits,
            ns.metrics.rounds,
            kr.rounds,
        )
    });
    for (n, (nb, kb, nrounds, krounds)) in NS.into_iter().zip(&cells) {
        t.row(vec![
            n.to_string(),
            nb.to_string(),
            kb.to_string(),
            f(*nb as f64 / *kb as f64),
            nrounds.to_string(),
            krounds.to_string(),
        ]);
    }
    t.note("both finish in O(log n) rounds, but the naive root message carries Θ(m) keys — the [KLW07] generic-algorithm gap KSelect's copying sidesteps");
    t
}
