//! Experiments E9–E11: Seap (Theorem 5.1) and the Skeap/Seap message-size
//! contrast (§1.4).

use crate::stats::{log_fit, mean};
use crate::table::{f, Table};
use dpq_core::workload::{generate, WorkloadSpec};
use dpq_sim::{Run, SyncScheduler};
use seap::checker::check_seap_history;
use seap::{cluster, SeapNode};

/// E9 — Thm 5.1(2): serializability + heap consistency under the async
/// adversary.
pub fn e9_semantics(_opts: &crate::ExpOpts) -> Table {
    let mut t = Table::new(
        "e9",
        "Seap serializability & heap consistency under the async adversary (Thm 5.1(2))",
        &["n", "ops", "seeds", "serializable", "heap consistent"],
    );
    const CFGS: [(usize, usize); 3] = [(4, 16), (8, 12), (15, 10)];
    const SEEDS: usize = 5;
    let cells = crate::runner::sweep(CFGS.len() * SEEDS, |c| {
        let (n, ops) = CFGS[c / SEEDS];
        let s = (c % SEEDS) as u64;
        let spec = WorkloadSpec::balanced(n, ops, 1 << 24, 400 + s);
        let run = cluster::run(&spec, Run::asynchronous(8_000 + s, 80_000_000));
        assert!(run.completed, "async run completed");
        check_seap_history(&run.history).is_ok() as u32
    });
    for (ci, (n, ops)) in CFGS.into_iter().enumerate() {
        let seeds = SEEDS as u64;
        let ok: u32 = cells[ci * SEEDS..(ci + 1) * SEEDS].iter().sum();
        t.row(vec![
            n.to_string(),
            (n * ops).to_string(),
            seeds.to_string(),
            format!("{ok}/{seeds}"),
            format!("{ok}/{seeds}"),
        ]);
    }
    t.note("pass = phase-refined order replays exactly on a key-ordered heap (Lemma 5.2)");
    t
}

/// E10 — Thm 5.1(3,4,5): rounds, congestion, message bits.
pub fn e10_costs(opts: &crate::ExpOpts) -> Table {
    let mut t = Table::new(
        "e10",
        "Seap costs vs n (Thm 5.1: O(log n) rounds, Õ(Λ) congestion, O(log n)-bit messages)",
        &[
            "n",
            "rounds",
            "rounds/log2(n)",
            "congestion",
            "max msg bits",
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
    const NS: [usize; 7] = [8, 16, 32, 64, 128, 256, 512];
    const SEEDS: usize = 3;
    // Cells carry telemetry hubs, folded into one experiment-wide hub in
    // cell index order (byte-identical metrics stream for any --jobs).
    let cells = crate::runner::sweep(NS.len() * SEEDS, |c| {
        let n = NS[c / SEEDS];
        let s = (c % SEEDS) as u64;
        let spec = WorkloadSpec::balanced(n, 4, 1 << 24, 510 + s);
        let run = Run::sync(3_000_000).telemetry(dpq_sim::Hub::new());
        let (run, trace) = if traced {
            let (run, tracer) =
                cluster::run(&spec, run.tracer(crate::control_tracer())).split_tracer();
            let label = format!("e10 n={n} seed={}", 510 + s);
            (run, Some((label, tracer.into_events())))
        } else {
            (cluster::run(&spec, run), None)
        };
        assert!(run.completed);
        check_seap_history(&run.history).expect("semantics hold");
        (run, trace)
    });
    let mut exp_hub = dpq_sim::Hub::new();
    for (run, _) in &cells {
        exp_hub.merge(&run.telemetry);
    }
    for (ni, &n) in NS.iter().enumerate() {
        let group = &cells[ni * SEEDS..(ni + 1) * SEEDS];
        if let Some(ct) = chrome.as_mut() {
            for (_, trace) in group {
                let (label, events) = trace.as_ref().expect("traced cell kept its events");
                ct.add_run(label, events);
            }
        }
        let runs: Vec<_> = group.iter().map(|(r, _)| r).collect();
        let rounds = mean(&runs.iter().map(|r| r.time as f64).collect::<Vec<_>>());
        let cong = mean(
            &runs
                .iter()
                .map(|r| r.metrics.congestion as f64)
                .collect::<Vec<_>>(),
        );
        let bits = runs.iter().map(|r| r.metrics.max_msg_bits).max().unwrap();
        let mut lats = dpq_sim::LogHistogram::new();
        for r in &runs {
            lats.merge(&r.latency_hist);
        }
        let lat = dpq_sim::LatencySummary::from_histogram(&lats);
        xs.push(n as f64);
        ys.push(rounds);
        t.row(vec![
            n.to_string(),
            f(rounds),
            f(rounds / (n as f64).log2()),
            f(cong),
            bits.to_string(),
            lat.p50.to_string(),
            lat.p95.to_string(),
            lat.p99.to_string(),
            lat.p999.to_string(),
            lat.max.to_string(),
        ]);
    }
    let (a, b, r2) = log_fit(&xs, &ys);
    t.note(format!(
        "fit: rounds ≈ {}·log2(n) + {}  (r² = {:.3})",
        f(a),
        f(b),
        r2
    ));
    t.note("op latency = rounds from injection to completion, pooled over the 3 seeds");
    t.metrics_line(format!(
        "{{\"experiment\":\"e10\",\"metrics\":{}}}",
        dpq_sim::hub_to_json(&exp_hub)
    ));
    crate::write_trace(opts, chrome, "e10");
    t
}

/// Run Seap at injection rate Λ and report the max message size.
fn seap_max_bits(n: usize, lambda: usize, seed: u64) -> u64 {
    let spec = WorkloadSpec::balanced(n, lambda * 10, 1 << 24, seed);
    let scripts = generate(&spec);
    let nodes = cluster::build(n, seed);
    let mut sched = SyncScheduler::new(nodes);
    let mut cursor = vec![0usize; n];
    loop {
        let mut more = false;
        for ((node, script), cur) in sched
            .nodes_mut()
            .iter_mut()
            .zip(&scripts)
            .zip(cursor.iter_mut())
        {
            let end = (*cur + lambda).min(script.len());
            for op in &script[*cur..end] {
                node.issue(*op);
            }
            *cur = end;
            more |= *cur < script.len();
        }
        sched.step_round();
        if !more {
            break;
        }
    }
    let out = sched.run_until_pred(3_000_000, |ns| ns.iter().all(SeapNode::all_complete));
    assert!(out.is_quiescent());
    sched.metrics.max_msg_bits
}

/// E11 — §1.4(3): Seap's O(log n)-bit messages vs Skeap's O(Λ·log²n).
pub fn e11_message_size_vs_skeap(_opts: &crate::ExpOpts) -> Table {
    let mut t = Table::new(
        "e11",
        "Max message bits vs injection rate Λ at n=128: Skeap O(Λ log²n) vs Seap O(log n)",
        &["Λ", "Skeap bits", "Seap bits", "ratio"],
    );
    const LAMBDAS: [usize; 4] = [1, 4, 16, 64];
    // Even cells run Skeap, odd cells Seap — both protocols' rate runs at
    // every Λ proceed concurrently.
    let bits = crate::runner::sweep(LAMBDAS.len() * 2, |c| {
        let lambda = LAMBDAS[c / 2];
        if c % 2 == 0 {
            crate::exp_skeap::max_bits_at_rate(128, lambda, 31)
        } else {
            seap_max_bits(128, lambda, 31)
        }
    });
    for (li, lambda) in LAMBDAS.into_iter().enumerate() {
        let (skeap_bits, seap_bits) = (bits[li * 2], bits[li * 2 + 1]);
        t.row(vec![
            lambda.to_string(),
            skeap_bits.to_string(),
            seap_bits.to_string(),
            f(skeap_bits as f64 / seap_bits as f64),
        ]);
    }
    t.note("Skeap's batch messages grow with Λ; Seap's stay flat — the paper's §1.4(3) argument for Seap at high rates");
    t
}
