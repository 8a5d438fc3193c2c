//! E18 — membership under churn: restoration latency scaling and detector
//! false-positive rates (`dpq-gossip`).
//!
//! Two sweeps feed one table:
//!
//! * **storm rows** — seeded churn storms (a crash or join every few rounds,
//!   5% drop, conservation oracles continuous) at n ∈ {64..512}. The mean
//!   join→quorum and crash→restoration latencies are fitted against log₂ n:
//!   membership repair must sit in the O(log n) regime, not O(n).
//! * **idle rows** — clusters with **zero** churn under increasing drop
//!   rates, swept across phi thresholds. Every suspicion in these runs is by
//!   construction a false positive, so the columns read directly as the FP
//!   rate the phi-accrual detector pays at each (threshold, loss) point.

use dpq_core::NodeId;
use dpq_gossip::{run_storm, DetectorConfig, GossipConfig, GossipNode, StormConfig};
use dpq_sim::{FaultPlan, SyncScheduler};

use crate::stats::log_fit;
use crate::table::{f, Table};
use crate::ExpOpts;

/// Detector tuning shared by both sweeps: simulator cadence (one heartbeat
/// bump per gossip exchange), matching the storm harness and the churn tier.
fn gossip_cfg(threshold: f64, window: usize) -> GossipConfig {
    GossipConfig {
        window,
        detector: DetectorConfig {
            threshold,
            confirm_ticks: 8,
            bootstrap_mean: 8.0,
        },
        evict_ticks: 8,
        ..GossipConfig::default()
    }
}

/// One no-churn cluster: every suspicion/confirmation it reports is false.
/// Returns (suspicions, confirms, node-rounds).
fn idle_cell(n: u64, threshold: f64, drop: f64, rounds: u64, seed: u64) -> (u64, u64, u64) {
    let all: Vec<NodeId> = (0..n).map(NodeId).collect();
    let nodes: Vec<GossipNode> = (0..n)
        .map(|i| GossipNode::new(NodeId(i), &all, gossip_cfg(threshold, 16)))
        .collect();
    let plan = FaultPlan::uniform(seed, drop, 0.0);
    let mut sched = SyncScheduler::new(nodes).with_faults(plan);
    let _ = sched.run_until_pred(rounds, |_| false);
    let (mut susp, mut conf) = (0u64, 0u64);
    for g in sched.nodes() {
        let s = g.detector().stats();
        susp += s.suspicions;
        conf += s.confirms;
    }
    (susp, conf, n * rounds)
}

/// E18: restoration latency vs log n, FP rate vs phi threshold and drop.
pub fn e18_membership(_opts: &ExpOpts) -> Table {
    let mut t = Table::new(
        "e18",
        "Membership (gossip): restoration latency vs log n; detector FP rate vs phi x drop",
        &[
            "scenario",
            "n",
            "phi",
            "drop",
            "churn events",
            "restore (rounds)",
            "join quorum (rounds)",
            "spurious suspicions",
            "susp / 1k node-rounds",
            "spurious confirms",
        ],
    );

    // -- storm sweep: latency scaling ------------------------------------
    const NS: [usize; 4] = [64, 128, 256, 512];
    let storms = crate::runner::sweep(NS.len(), |ni| {
        let n = NS[ni];
        let cfg = StormConfig {
            n0: n,
            spares: (n / 4).max(16),
            rounds: 360,
            churn_every: 12,
            warmup: 48,
            down_for: 400,
            gossip: gossip_cfg(4.0, 0), // adaptive window, storm tuning
        };
        run_storm(&cfg)
    });
    let (mut xs, mut q_ys, mut r_ys) = (Vec::new(), Vec::new(), Vec::new());
    for (n, rep) in NS.into_iter().zip(&storms) {
        let quorum = rep.mean_join_quorum().unwrap_or(f64::NAN);
        let restore = rep.mean_restoration().unwrap_or(f64::NAN);
        xs.push(n as f64);
        q_ys.push(quorum);
        r_ys.push(restore);
        let node_rounds = (n as u64 + rep.joins) * rep.rounds_run;
        t.row(vec![
            "storm".into(),
            n.to_string(),
            "4.0".into(),
            "5%".into(),
            format!("{}+{}", rep.crashes, rep.joins),
            f(restore),
            f(quorum),
            rep.fp_suspicions.to_string(),
            f(rep.fp_suspicions as f64 * 1000.0 / node_rounds as f64),
            rep.fp_confirms.to_string(),
        ]);
    }

    // -- idle sweep: FP rate grid ----------------------------------------
    const PHIS: [f64; 3] = [2.0, 4.0, 8.0];
    const DROPS: [f64; 3] = [0.0, 0.15, 0.30];
    let grid = crate::runner::sweep(PHIS.len() * DROPS.len(), |i| {
        let (phi, drop) = (PHIS[i / DROPS.len()], DROPS[i % DROPS.len()]);
        idle_cell(64, phi, drop, 800, 0xE18 + i as u64)
    });
    for (i, (susp, conf, node_rounds)) in grid.iter().enumerate() {
        let (phi, drop) = (PHIS[i / DROPS.len()], DROPS[i % DROPS.len()]);
        t.row(vec![
            "idle".into(),
            "64".into(),
            f(phi),
            format!("{:.0}%", drop * 100.0),
            "0".into(),
            "-".into(),
            "-".into(),
            susp.to_string(),
            f(*susp as f64 * 1000.0 / *node_rounds as f64),
            conf.to_string(),
        ]);
    }

    // -- fits and verdicts -----------------------------------------------
    let (qa, qb, qr2) = log_fit(&xs, &q_ys);
    let (ra, rb, rr2) = log_fit(&xs, &r_ys);
    t.note(format!(
        "join quorum ~= {}*log2(n) + {} (R^2 = {}); restoration ~= {}*log2(n) + {} (R^2 = {})",
        f(qa),
        f(qb),
        f(qr2),
        f(ra),
        f(rb),
        f(rr2),
    ));
    t.note(
        "idle rows have zero churn, so every suspicion there is a false positive; \
         raising phi trades detection speed for silence under loss",
    );
    t
}
