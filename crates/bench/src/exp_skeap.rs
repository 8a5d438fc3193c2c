//! Experiments E1–E4 and F1: Skeap (Theorem 3.2).

use crate::stats::{log_fit, mean};
use crate::table::{f, Table};
use dpq_core::workload::{generate, WorkloadSpec};
use dpq_core::OpKind;
use dpq_semantics::{check_heap_properties, check_local_consistency, replay, ReplayMode};
use dpq_sim::{Run, SyncScheduler};
use skeap::cluster;
use skeap::SkeapNode;

/// E1 — Thm 3.2(2): sequential consistency + heap consistency, validated by
/// constructive replay over adversarial asynchronous executions.
pub fn e1_semantics(_opts: &crate::ExpOpts) -> Table {
    let mut t = Table::new(
        "e1",
        "Skeap sequential & heap consistency under the async adversary (Thm 3.2(2))",
        &[
            "n",
            "ops",
            "seeds",
            "replay ok",
            "local order ok",
            "heap props ok",
        ],
    );
    const CFGS: [(usize, usize); 3] = [(4, 20), (9, 15), (17, 12)];
    const SEEDS: usize = 6;
    // One sweep cell per (cluster shape, seed): each builds and runs its own
    // adversarial execution, so the cells shard freely across --jobs workers.
    let cells = crate::runner::sweep(CFGS.len() * SEEDS, |c| {
        let (n, ops) = CFGS[c / SEEDS];
        let s = (c % SEEDS) as u64;
        let spec = WorkloadSpec::balanced(n, ops, 3, 300 + s);
        let run = cluster::run(&spec, 3, Run::asynchronous(7_000 + s, 40_000_000));
        assert!(run.completed, "async run completed");
        let h = run.history;
        (
            replay(&h, ReplayMode::Fifo).is_ok() as u32,
            check_local_consistency(&h).is_ok() as u32,
            check_heap_properties(&h).is_ok() as u32,
        )
    });
    for (ci, (n, ops)) in CFGS.into_iter().enumerate() {
        let seeds = SEEDS as u64;
        let mut ok = (0, 0, 0);
        for (a, b, c) in &cells[ci * SEEDS..(ci + 1) * SEEDS] {
            ok.0 += a;
            ok.1 += b;
            ok.2 += c;
        }
        t.row(vec![
            n.to_string(),
            (n * ops).to_string(),
            seeds.to_string(),
            format!("{}/{}", ok.0, seeds),
            format!("{}/{}", ok.1, seeds),
            format!("{}/{}", ok.2, seeds),
        ]);
    }
    t.note("pass = the protocol-supplied witness order replays exactly on a FIFO heap");
    t
}

/// E2 — Cor 3.6 / Thm 3.2(3): O(log n) rounds per batch.
pub fn e2_rounds(opts: &crate::ExpOpts) -> Table {
    let mut t = Table::new(
        "e2",
        "Skeap rounds to complete a batch vs n (Cor 3.6: O(log n) w.h.p.)",
        &[
            "n",
            "rounds (mean of 3 seeds)",
            "rounds/log2(n)",
            "op p50",
            "op p95",
            "op p99",
            "op p999",
            "op max",
        ],
    );
    let mut chrome = crate::trace_collector(opts);
    let traced = chrome.is_some();
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    const NS: [usize; 8] = [8, 16, 32, 64, 128, 256, 512, 1024];
    const SEEDS: usize = 3;
    // (n, seed) cells run in parallel; traced cells return their event logs
    // so the Chrome trace is assembled in cell order below (identical file
    // for any --jobs).
    // Every cell rides with its own telemetry hub; hubs merge exactly, so
    // the shard-local histograms fold into one experiment-wide hub in cell
    // index order below (byte-identical stream for any --jobs).
    let cells = crate::runner::sweep(NS.len() * SEEDS, |c| {
        let n = NS[c / SEEDS];
        let s = (c % SEEDS) as u64;
        let spec = WorkloadSpec::balanced(n, 4, 2, 500 + s);
        let run = Run::sync(2_000_000).telemetry(dpq_sim::Hub::new());
        if traced {
            let (run, tracer) =
                cluster::run(&spec, 2, run.tracer(crate::control_tracer())).split_tracer();
            let label = format!("e2 n={n} seed={}", 500 + s);
            (run, Some((label, tracer.into_events())))
        } else {
            (cluster::run(&spec, 2, run), None)
        }
    });
    let mut exp_hub = dpq_sim::Hub::new();
    for (run, _) in &cells {
        exp_hub.merge(&run.telemetry);
    }
    for (ni, &n) in NS.iter().enumerate() {
        let mut rounds = Vec::new();
        // Seeds pool their latency distributions by exact histogram merge —
        // O(buckets) per seed instead of re-sorting every raw sample.
        let mut lats = dpq_sim::LogHistogram::new();
        for (run, trace) in &cells[ni * SEEDS..(ni + 1) * SEEDS] {
            assert!(run.completed);
            if let (Some(ct), Some((label, events))) = (chrome.as_mut(), trace.as_ref()) {
                ct.add_run(label, events);
            }
            rounds.push(run.time as f64);
            lats.merge(&run.latency_hist);
        }
        let m = mean(&rounds);
        xs.push(n as f64);
        ys.push(m);
        let lat = dpq_sim::LatencySummary::from_histogram(&lats);
        t.row(vec![
            n.to_string(),
            f(m),
            f(m / (n as f64).log2()),
            lat.p50.to_string(),
            lat.p95.to_string(),
            lat.p99.to_string(),
            lat.p999.to_string(),
            lat.max.to_string(),
        ]);
    }
    let (a, b, r2) = log_fit(&xs, &ys);
    t.note(format!(
        "fit: rounds ≈ {}·log2(n) + {}  (r² = {:.3}) — logarithmic, as claimed",
        f(a),
        f(b),
        r2
    ));
    t.note("op latency = rounds from injection to completion, pooled over the 3 seeds");
    t.metrics_line(format!(
        "{{\"experiment\":\"e2\",\"metrics\":{}}}",
        dpq_sim::hub_to_json(&exp_hub)
    ));
    crate::write_trace(opts, chrome, "e2");
    t
}

/// Inject at rate Λ per node per round until the scripts drain, then finish.
fn run_rate(
    n: usize,
    lambda: usize,
    rounds_of_injection: usize,
    seed: u64,
) -> dpq_sim::MetricsSnapshot {
    let spec = WorkloadSpec::balanced(n, lambda * rounds_of_injection, 3, seed);
    let scripts = generate(&spec);
    let nodes = cluster::build(n, 3, seed);
    let mut sched = SyncScheduler::new(nodes);
    let mut cursor = vec![0usize; n];
    loop {
        let (ids, more) = cluster::inject_rate(sched.nodes_mut(), &scripts, &mut cursor, lambda);
        for id in ids {
            sched.note_injected(id);
        }
        sched.step_round();
        if !more {
            break;
        }
    }
    let out = sched.run_until_pred(2_000_000, |ns| ns.iter().all(SkeapNode::all_complete));
    assert!(out.is_quiescent(), "rate run did not drain");
    sched.metrics.snapshot()
}

/// Max message bits of a rate-Λ Skeap run (shared with E11's comparison).
pub fn max_bits_at_rate(n: usize, lambda: usize, seed: u64) -> u64 {
    run_rate(n, lambda, 10, seed).max_msg_bits
}

/// E3 — Lemma 3.7: congestion Õ(Λ).
pub fn e3_congestion(_opts: &crate::ExpOpts) -> Table {
    let mut t = Table::new(
        "e3",
        "Skeap congestion vs injection rate Λ at n=128 (Lemma 3.7: Õ(Λ))",
        &["Λ", "congestion", "congestion/Λ"],
    );
    const LAMBDAS: [usize; 6] = [1, 2, 4, 8, 16, 32];
    let ms = crate::runner::sweep(LAMBDAS.len(), |i| run_rate(128, LAMBDAS[i], 12, 77));
    for (lambda, m) in LAMBDAS.into_iter().zip(&ms) {
        t.row(vec![
            lambda.to_string(),
            m.congestion.to_string(),
            f(m.congestion as f64 / lambda as f64),
        ]);
    }
    t.note("congestion/Λ should stay within a polylog band — linear in Λ, as claimed");
    t
}

/// E4 — Lemma 3.8: message size O(Λ log² n) bits.
pub fn e4_message_bits(_opts: &crate::ExpOpts) -> Table {
    let mut t = Table::new(
        "e4",
        "Skeap max message size vs Λ and n (Lemma 3.8: O(Λ·log² n) bits)",
        &["n", "Λ", "max msg bits", "bits/(Λ·log²n)"],
    );
    const POINTS: [(usize, usize); 7] = [
        (64, 1),
        (64, 4),
        (64, 16),
        (256, 1),
        (256, 4),
        (256, 16),
        (1024, 4),
    ];
    let ms = crate::runner::sweep(POINTS.len(), |i| {
        let (n, lambda) = POINTS[i];
        run_rate(n, lambda, 8, 99)
    });
    for ((n, lambda), m) in POINTS.into_iter().zip(&ms) {
        let denom = lambda as f64 * (n as f64).log2().powi(2);
        t.row(vec![
            n.to_string(),
            lambda.to_string(),
            m.max_msg_bits.to_string(),
            f(m.max_msg_bits as f64 / denom),
        ]);
    }
    t.note("normalised column flat ⇒ batch messages scale like Λ·log²n — compare E11");
    t
}

/// E15 — ablation: FIFO vs LIFO discipline on identical workloads.
/// The stack variant fragments the anchor's live-position set, which can
/// lengthen delete assignments (more interval pieces per message); rounds
/// are unchanged (same wave structure).
pub fn e15_discipline_ablation(_opts: &crate::ExpOpts) -> Table {
    use dpq_overlay::{NodeView, Topology};
    let mut t = Table::new(
        "e15",
        "FIFO (Skeap) vs LIFO (stack extension): same workload, both disciplines",
        &[
            "n",
            "fifo rounds",
            "lifo rounds",
            "fifo max bits",
            "lifo max bits",
        ],
    );
    const NS: [usize; 3] = [16, 64, 256];
    // One cell per (n, discipline): even cells FIFO, odd cells LIFO.
    let cells = crate::runner::sweep(NS.len() * 2, |c| {
        let n = NS[c / 2];
        let lifo = c % 2 == 1;
        let topo = Topology::new(n, 17);
        let cfg = if lifo {
            skeap::SkeapConfig::lifo(2)
        } else {
            skeap::SkeapConfig::fifo(2)
        };
        let mut nodes = SkeapNode::build_cluster(NodeView::extract_all(&topo), cfg);
        // Alternating push-heavy / pop-heavy waves to provoke
        // fragmentation under LIFO.
        let mut sched = SyncScheduler::new(std::mem::take(&mut nodes));
        for wave in 0..4u64 {
            for v in 0..n {
                sched.nodes_mut()[v].issue_insert((v as u64 + wave) % 2, wave);
                if wave % 2 == 1 {
                    sched.nodes_mut()[v].issue_delete();
                }
            }
            let out = sched.run_until_pred(2_000_000, |ns| ns.iter().all(SkeapNode::all_complete));
            assert!(out.is_quiescent());
        }
        let mode = if lifo {
            ReplayMode::Lifo
        } else {
            ReplayMode::Fifo
        };
        replay(&cluster::history(sched.nodes()), mode).expect("semantics hold");
        (sched.round(), sched.metrics.max_msg_bits)
    });
    for (ni, n) in NS.into_iter().enumerate() {
        let (fifo, lifo) = (cells[ni * 2], cells[ni * 2 + 1]);
        t.row(vec![
            n.to_string(),
            fifo.0.to_string(),
            lifo.0.to_string(),
            fifo.1.to_string(),
            lifo.1.to_string(),
        ]);
    }
    t.note("both disciplines verified sequentially consistent against their replay oracle");
    t.note("LIFO's live set fragments, so delete assignments may carry more interval pieces");
    t
}

/// F1 — Figure 1: the worked 3-node trace, recomputed.
pub fn f1_figure1(_opts: &crate::ExpOpts) -> Table {
    use dpq_core::{ElemId, Element, NodeId, Priority};
    use skeap::{AnchorState, Batch};
    let ins = |p: u64| OpKind::Insert(Element::new(ElemId::compose(NodeId(0), p), Priority(p), 0));
    let mk = |ops: &[OpKind]| Batch::from_ops(2, ops.iter()).0;
    let b_v0 = mk(&[ins(0)]);
    let b_mid = mk(&[ins(0), OpKind::DeleteMin, OpKind::DeleteMin]);
    let b_leaf = mk(&[ins(0), ins(0), ins(1), OpKind::DeleteMin]);
    let combined = b_v0.combine(&b_mid).combine(&b_leaf);
    let mut st = AnchorState::new(2);
    let assigns = st.assign(&combined);
    let g = &assigns[0];

    let mut t = Table::new(
        "f1",
        "Figure 1 trace: batches ((1,0),0)+((1,0),2)+((2,1),1) → ((4,1),3)",
        &["quantity", "paper", "reproduced"],
    );
    t.row(vec![
        "combined batch".into(),
        "((4,1),3)".into(),
        format!(
            "(({},{}),{})",
            combined.entries[0].ins[0], combined.entries[0].ins[1], combined.entries[0].del
        ),
    ]);
    t.row(vec![
        "I₁ (prio 1)".into(),
        "[1,4]".into(),
        format!("[{},{}]", g.ins[0].lo, g.ins[0].hi),
    ]);
    t.row(vec![
        "I₁ (prio 2)".into(),
        "[1,1]".into(),
        format!("[{},{}]", g.ins[1].lo, g.ins[1].hi),
    ]);
    t.row(vec![
        "D₁".into(),
        "([1,3], ∅)".into(),
        format!("{:?}", g.del.parts),
    ]);
    t.row(vec![
        "occupancy after".into(),
        "first=(4,1), last=(4,1)".into(),
        format!("occ(p1)={}, occ(p2)={}", st.occupancy(0), st.occupancy(1)),
    ]);
    t.note("decomposition (Figure 1(d)) asserted exactly in skeap::anchor::tests::figure1_trace");
    t
}

/// E17 — the scale sweep: the dense one-op-per-node workload (the
/// `memprobe` probe's spec) at n up to 100k, the regime the node memory
/// model (DESIGN.md) unlocked. Corollary 3.6's log shape has to survive
/// scale: rounds-to-drain must keep tracking log2(n) two orders of
/// magnitude past the E2 curve. Bytes/node and peak RSS are deliberately
/// absent here — they need the counting allocator and one process per
/// point, so `memprobe` and the perf ledger own them
/// (`sim.bytes_per_node_100k`, `peak_rss_mb` on `sim_skeap_100k`).
pub fn e17_scale(_opts: &crate::ExpOpts) -> Table {
    let mut t = Table::new(
        "e17",
        "Skeap scale sweep: dense workload, n to 100k (Cor 3.6 shape at scale)",
        &["n", "rounds", "rounds/log2(n)", "Mnode-steps/s"],
    );
    const NS: [usize; 5] = [1_000, 3_162, 10_000, 31_623, 100_000];
    let runs = crate::runner::sweep(NS.len(), |c| crate::memprobe::scale_run(NS[c]));
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    for r in &runs {
        xs.push(r.n as f64);
        ys.push(r.rounds as f64);
        t.row(vec![
            r.n.to_string(),
            r.rounds.to_string(),
            f(r.rounds as f64 / (r.n as f64).log2()),
            format!("{:.1}", r.node_steps_per_sec / 1e6),
        ]);
    }
    let (a, b, r2) = log_fit(&xs, &ys);
    t.note(format!(
        "fit: rounds ≈ {}·log2(n) + {}  (r² = {:.3}) — logarithmic through n = 100k",
        f(a),
        f(b),
        r2
    ));
    t.note("memory axis of this sweep: memprobe / ledger row sim.bytes_per_node_100k");
    t
}
