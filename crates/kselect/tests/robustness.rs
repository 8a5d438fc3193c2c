//! Robustness: KSelect must stay *correct* under any coefficient choice —
//! the tunables trade performance, never the answer. Also exercises the
//! safety paths (guard trips, forced Phase 3, resampling).

use dpq_sim::Run;
use kselect::{driver, KSelectConfig};

fn check_with(cfg: KSelectConfig, n: usize, m: u64, k: u64, seed: u64) {
    let cands = driver::random_candidates(n, m, 1 << 24, seed);
    let expect = driver::sequential_select(&cands, k);
    let run = driver::run(n, cands, k, cfg, seed, Run::sync(5_000_000));
    assert_eq!(run.result, Some(expect), "cfg {cfg:?} broke correctness");
}

#[test]
fn paper_exact_coefficients() {
    // The paper's own √n sample and δ = √(ln n)·n^¼ (coefficients 1.0).
    let cfg = KSelectConfig {
        sample_coeff: 1.0,
        delta_coeff: 1.0,
        p3_threshold_coeff: 1.0,
        ..KSelectConfig::default()
    };
    check_with(cfg, 64, 4096, 2048, 1);
    check_with(cfg, 64, 4096, 1, 2);
    check_with(cfg, 64, 4096, 4096, 3);
}

#[test]
fn overly_tight_delta_survives_guard_trips() {
    // δ far below the w.h.p. bound: the window often misses rank k, the
    // guard skips the prune, and the protocol still converges correctly
    // (possibly via the no-progress fallback to Phase 3).
    let cfg = KSelectConfig {
        delta_coeff: 0.05,
        ..KSelectConfig::default()
    };
    for seed in 0..4 {
        check_with(cfg, 32, 2048, 777, 10 + seed);
    }
}

#[test]
fn forced_early_phase3_is_exact_but_expensive() {
    // Cap Phase 2 at a single iteration: Phase 3 then runs on a large
    // candidate set — slow, but exact.
    let cfg = KSelectConfig {
        max_p2_iters: 1,
        ..KSelectConfig::default()
    };
    check_with(cfg, 24, 1200, 600, 20);
}

#[test]
fn huge_p3_threshold_skips_sampling_entirely() {
    // Threshold above m: the run degenerates to one exact all-pairs round.
    let cfg = KSelectConfig {
        p3_threshold_coeff: 1e6,
        ..KSelectConfig::default()
    };
    check_with(cfg, 16, 300, 150, 30);
}

#[test]
fn wide_sampling_still_correct() {
    let cfg = KSelectConfig {
        sample_coeff: 16.0,
        ..KSelectConfig::default()
    };
    check_with(cfg, 32, 4096, 1234, 40);
}

#[test]
fn skewed_distribution_of_candidates() {
    // All candidates on a single node (the uniform-distribution assumption
    // broken on purpose): Phase-1 bounds degrade to sentinels but
    // correctness must survive.
    let n = 16usize;
    let m = 400u64;
    let mut cands = vec![Vec::new(); n];
    cands[7] = driver::random_candidates(1, m, 1 << 20, 50).remove(0);
    let expect = driver::sequential_select(&cands, 123);
    let run = driver::run(
        n,
        cands,
        123,
        KSelectConfig::default(),
        50,
        Run::sync(5_000_000),
    );
    assert_eq!(run.result, Some(expect));
}

#[test]
fn adversarial_sorted_placement() {
    // Node i holds the i-th contiguous block of the sorted order — the
    // worst case for per-node rank estimates.
    let n = 8usize;
    let per = 50u64;
    let cands: Vec<Vec<dpq_core::Key>> = (0..n as u64)
        .map(|v| {
            (0..per)
                .map(|i| {
                    dpq_core::Key::new(
                        dpq_core::Priority(v * per + i),
                        dpq_core::ElemId::compose(dpq_core::NodeId(v), i),
                    )
                })
                .collect()
        })
        .collect();
    for k in [1u64, 200, 400] {
        let expect = driver::sequential_select(&cands, k);
        let run = driver::run(
            n,
            cands.clone(),
            k,
            KSelectConfig::default(),
            60,
            Run::sync(5_000_000),
        );
        assert_eq!(run.result, Some(expect), "k={k}");
    }
}
