//! E16: deterministic fault injection — recovery latency across the fault
//! matrix.
//!
//! The protocols promise nothing about faulty channels (the paper's model
//! has reliable, exactly-once links), so the question E16 answers is about
//! the *transport*: with Skeap behind the [`dpq_sim::Reliable`]
//! ack/retransmit layer, how many extra synchronous rounds does each fault
//! class cost, and does crash recovery stay O(timeout + log n)?

use crate::stats::{log_fit, mean};
use crate::table::{f, Table};
use dpq_core::workload::WorkloadSpec;
use dpq_core::NodeId;
use dpq_semantics::{replay, ReplayMode};
use dpq_sim::{fault_matrix, FaultCell, FaultPlan, Hub, LatencySummary, NullTracer, Outcome, Run};
use skeap::cluster;

/// Retransmission timeout in rounds (several 2-round ack RTTs).
const RTO: u64 = 8;
const OPS: usize = 3;
const SEEDS: u64 = 3;

fn run_cell(n: usize, seed: u64, plan: FaultPlan) -> Outcome<NullTracer, Hub> {
    let spec = WorkloadSpec::balanced(n, OPS, 3, seed);
    let run = Run::sync(4_000_000).faulty(plan, RTO).telemetry(Hub::new());
    let r = cluster::run(&spec, 3, run);
    assert!(r.completed, "faulty run stalled (n={n}, seed={seed})");
    replay(&r.history, ReplayMode::Fifo).expect("witness replay under faults");
    r
}

/// E16 — recovery latency by fault cell, plus the crash-recovery shape.
///
/// Runs as two parallel sweeps: first the fault-free baselines (whose mean
/// rounds place every plan's crash/partition horizon), then every (plan,
/// seed) cell of the matrix and the crash-shape series together.
pub fn e16_fault_recovery(opts: &crate::ExpOpts) -> Table {
    let mut t = Table::new(
        "e16",
        "Fault matrix: Skeap over the reliable transport — recovery cost by cell (sync rounds)",
        &[
            "cell",
            "n",
            "rounds",
            "over clean",
            "op p50",
            "op p95",
            "op p99",
            "op p999",
            "op max",
            "dropped",
            "retx",
        ],
    );
    const S: usize = SEEDS as usize;
    let n = 8usize;
    let custom = opts.faults.is_some();
    let shape_ns: &[usize] = if custom { &[] } else { &[8, 16, 32, 64] };
    // Sweep 1: clean (transport-wrapped, fault-free) baselines per n.
    let clean_ns: Vec<usize> = if custom { vec![n] } else { shape_ns.to_vec() };
    let clean_cells = crate::runner::sweep(clean_ns.len() * S, |c| {
        run_cell(clean_ns[c / S], 1600 + (c % S) as u64, FaultPlan::none()).time as f64
    });
    let clean = |cn: usize| -> f64 {
        let i = clean_ns
            .iter()
            .position(|&x| x == cn)
            .expect("baseline ran");
        mean(&clean_cells[i * S..(i + 1) * S])
    };
    let base = clean(n);
    let horizon = (base.round() as u64).max(64);
    let cells: Vec<FaultCell> = match &opts.faults {
        Some(plan) => vec![FaultCell {
            name: "custom (--faults)".into(),
            plan: plan.clone(),
        }],
        None => fault_matrix(n, 0xE16, horizon, 0.05, 0.05),
    };
    // Sweep 2: every (plan, seed) pair — the matrix rows at n = 8, then the
    // crash-recover shape series. The shape probes the cost of one
    // crash-recover cycle vs n: the down node pauses the batch pipeline
    // until it returns and retransmission refills its inbox, so the
    // overhead should track O(timeout + log n), not grow with cluster size
    // faster than the batch rounds themselves.
    let mut plans: Vec<(String, usize, FaultPlan)> = cells
        .iter()
        .map(|c| (c.name.clone(), n, c.plan.clone()))
        .collect();
    for &sn in shape_ns {
        let shorizon = (clean(sn).round() as u64).max(64);
        let plan = FaultPlan::uniform(0xE16, 0.05, 0.05).with_crash(
            NodeId(sn as u64 - 1),
            shorizon / 6,
            Some(shorizon / 3),
        );
        plans.push(("drop5+dup5+crash (shape)".into(), sn, plan));
    }
    let swept = crate::runner::sweep(plans.len() * S, |c| {
        let (_, pn, plan) = &plans[c / S];
        run_cell(*pn, 1600 + (c % S) as u64, plan.clone())
    });
    // Shard-local hubs fold into one experiment-wide hub in cell index
    // order, so the metrics stream is byte-identical for any --jobs.
    let mut exp_hub = Hub::new();
    for r in &swept {
        exp_hub.merge(&r.telemetry);
    }
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for (pi, (name, pn, _)) in plans.iter().enumerate() {
        let mut rounds = Vec::new();
        let mut lats = dpq_sim::LogHistogram::new();
        let (mut dropped, mut retx) = (0u64, 0u64);
        for r in &swept[pi * S..(pi + 1) * S] {
            rounds.push(r.time as f64);
            lats.merge(&r.latency_hist);
            dropped += r.faults.dropped();
            retx += r.retransmits;
        }
        let m = mean(&rounds);
        let lat = LatencySummary::from_histogram(&lats);
        let over = m - clean(*pn);
        if pi >= cells.len() {
            xs.push(*pn as f64);
            ys.push(over.max(1.0));
        }
        t.row(vec![
            name.clone(),
            pn.to_string(),
            f(m),
            f(over),
            lat.p50.to_string(),
            lat.p95.to_string(),
            lat.p99.to_string(),
            lat.p999.to_string(),
            lat.max.to_string(),
            dropped.to_string(),
            retx.to_string(),
        ]);
    }
    if !custom {
        let (a, b, r2) = log_fit(&xs, &ys);
        t.note(format!(
            "crash-recover overhead ≈ {}·log2(n) + {}  (r² = {:.3}); with RTO = {RTO} rounds \
             this is the O(timeout + log n) recovery shape",
            f(a),
            f(b),
            r2
        ));
    }
    t.note(
        "every run above re-validated its serialization witness by replay; \
         tests/faults.rs enforces the same grid (plus Seap and KSelect, \
         conservation, and byte-identical trace determinism) in CI",
    );
    t.note(format!(
        "clean baseline (transport-wrapped, no faults): {} rounds at n = {n}",
        f(base)
    ));
    t.metrics_line(format!(
        "{{\"experiment\":\"e16\",\"metrics\":{}}}",
        dpq_sim::hub_to_json(&exp_hub)
    ));
    t
}
