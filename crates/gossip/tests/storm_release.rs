//! Release-tier churn storms. Both tests are `#[ignore]`d: they are minutes
//! of work in debug builds and are meant to run under
//! `cargo test --release -- --ignored` (the `churn` tier of
//! `scripts/check.sh` runs the bounded one; the full-scale storm is the
//! headline robustness demonstration and runs on demand).
//!
//! Every round of every storm is under the conservation oracle — `run_storm`
//! panics on any element lost, duplicated, or fabricated, on any
//! false-positive eviction splice, and on any unsettled restoration — so a
//! green test IS the robustness claim.

use dpq_gossip::{run_storm, DetectorConfig, GossipConfig, StormConfig, StormReport};

/// Detector tuning for large storms: at n in the thousands a fixed peer's
/// heartbeat advances every O(window-rotation) rounds, so thresholds sit
/// lower than the socket daemon's (where every tick carries heartbeats).
fn storm_gossip(threshold: f64) -> GossipConfig {
    GossipConfig {
        window: 0, // adaptive: max(16, known/16)
        detector: DetectorConfig {
            threshold,
            confirm_ticks: 8,
            bootstrap_mean: 8.0,
        },
        evict_ticks: 8,
        ..GossipConfig::default()
    }
}

fn assert_storm_invariants(report: &StormReport, cfg: &StormConfig) {
    // Churn actually stormed: one event every `churn_every` rounds.
    let expected_events = (cfg.rounds - cfg.warmup) / cfg.churn_every;
    assert!(
        report.crashes + report.joins >= expected_events * 9 / 10,
        "schedule under-delivered: {} crashes + {} joins for ~{expected_events} slots",
        report.crashes,
        report.joins,
    );
    // Every crash is accounted for: evicted by the detector or rescinded by
    // an early recovery — and the storm is only interesting if detection
    // usually wins the race against recovery.
    assert_eq!(
        report.evictions + report.rescinded,
        report.crashes,
        "unaccounted crashes"
    );
    assert!(
        report.evictions >= report.rescinded,
        "recoveries beat the detector {} to {} — detection too slow for down_for={}",
        report.rescinded,
        report.evictions,
        cfg.down_for,
    );
    // Splices against an already-recovered node (quorum landing inside the
    // recovery lag window) must stay rare. The run_storm oracles already
    // proved the system absorbs them — rejoin, re-home, nothing lost — so
    // the assertion is about rate, not existence.
    assert!(
        report.fp_evictions * 10 <= report.evictions.max(1),
        "{} of {} eviction splices hit a live node",
        report.fp_evictions,
        report.evictions,
    );
    // Every join spliced, every restoration closed its loop. Evicted crash
    // victims rejoin the *gossip* membership on recovery but are not
    // re-spliced as managers, so the final manager count is exact.
    assert_eq!(report.join_splices, report.joins);
    assert_eq!(
        report.members_final as u64,
        cfg.n0 as u64 + report.join_splices - report.evictions,
        "manager-set bookkeeping drifted"
    );
    assert!(report
        .restorations
        .iter()
        .all(|r| r.settled.is_some() || r.rescinded));
    // Causality of every non-rescinded timeline.
    for r in report.restorations.iter().filter(|r| !r.rescinded) {
        assert!(r.detect <= r.quorum && r.quorum <= r.spliced && r.spliced <= r.settled);
    }
}

/// The `churn` tier storm: a quarter-thousand nodes, one churn event every
/// five rounds for over a thousand rounds, 5% drop — bounded to fit a CI
/// budget of roughly a minute in release builds.
#[test]
#[ignore = "release-tier: run with scripts/check.sh churn"]
fn churn_storm_bounded() {
    let cfg = StormConfig {
        n0: 256,
        spares: 128,
        rounds: 1200,
        churn_every: 5,
        warmup: 64,
        down_for: 500,
        gossip: storm_gossip(4.0),
    };
    let report = run_storm(&cfg);
    eprintln!(
        "bounded storm: rounds_run {} crashes {} joins {} evictions {} rescinded {} \
         fp_evictions {} suspicions {} fp_suspicions {} mean_restoration {:?} \
         mean_join_quorum {:?} members_final {}",
        report.rounds_run,
        report.crashes,
        report.joins,
        report.evictions,
        report.rescinded,
        report.fp_evictions,
        report.suspicions,
        report.fp_suspicions,
        report.mean_restoration(),
        report.mean_join_quorum(),
        report.members_final,
    );
    assert_storm_invariants(&report, &cfg);
    assert!(report.crashes >= 100, "crashes {}", report.crashes);
    assert!(report.joins >= 100, "joins {}", report.joins);
}

/// The headline storm: n over two thousand, a crash or join every five
/// rounds for two thousand rounds under 5% drop, conservation and
/// exactly-once oracles continuous, membership driven end-to-end by the
/// detector. Restoration latency must sit in the O(log n) regime: the mean
/// join-to-quorum spread at n≈2048 may cost at most 2.5x the bounded
/// storm's at n≈256 (log₂ ratio 11/8 ≈ 1.4, with slack for the detector's
/// longer inter-observation gaps).
#[test]
#[ignore = "release-tier headline storm (~minutes); run explicitly"]
fn churn_storm_full_scale() {
    let small = StormConfig {
        n0: 256,
        spares: 128,
        rounds: 1200,
        churn_every: 5,
        warmup: 64,
        down_for: 500,
        gossip: storm_gossip(4.0),
    };
    let small_report = run_storm(&small);

    let cfg = StormConfig {
        n0: 2048,
        spares: 256,
        rounds: 2000,
        churn_every: 5,
        warmup: 96,
        down_for: 600,
        gossip: storm_gossip(4.0),
    };
    let report = run_storm(&cfg);
    eprintln!(
        "full-scale storm: rounds_run {} crashes {} joins {} evictions {} rescinded {} \
         fp_evictions {} suspicions {} mean_restoration {:?} mean_join_quorum {:?} \
         members_final {}",
        report.rounds_run,
        report.crashes,
        report.joins,
        report.evictions,
        report.rescinded,
        report.fp_evictions,
        report.suspicions,
        report.mean_restoration(),
        report.mean_join_quorum(),
        report.members_final,
    );
    assert_storm_invariants(&report, &cfg);
    assert!(report.crashes >= 150, "crashes {}", report.crashes);
    assert!(report.joins >= 150, "joins {}", report.joins);

    // O(log n) restoration: join quorum spread grows by at most a small
    // constant factor across an 8x size jump.
    let q_small = small_report
        .mean_join_quorum()
        .expect("small storm had join quorums");
    let q_large = report
        .mean_join_quorum()
        .expect("large storm had join quorums");
    assert!(
        q_large <= q_small * 2.5,
        "join-quorum spread not logarithmic: n=256 → {q_small:.1} rounds, n=2048 → {q_large:.1}"
    );
}
