//! Differential validation of KSelect against sequential selection
//! (Theorem 4.2's correctness, across sizes, ranks, seeds and schedulers).

use dpq_sim::Run;
use kselect::{driver, KSelectConfig};

fn check(n: usize, m: u64, k: u64, seed: u64) {
    let cands = driver::random_candidates(n, m, 1 << 24, seed);
    let expect = driver::sequential_select(&cands, k);
    let run = driver::run(
        n,
        cands,
        k,
        KSelectConfig::default(),
        seed,
        Run::sync(500_000),
    );
    assert_eq!(run.result, Some(expect), "n={n} m={m} k={k} seed={seed}");
}

#[test]
fn selects_correctly_across_sizes() {
    for (n, m) in [
        (2usize, 50u64),
        (4, 200),
        (8, 64),
        (16, 1000),
        (37, 500),
        (64, 4096),
    ] {
        check(n, m, 1, 10);
        check(n, m, m / 2, 11);
        check(n, m, m, 12);
    }
}

#[test]
fn selects_correctly_across_ranks() {
    let n = 24;
    let m = 600;
    for k in [1u64, 2, 3, 10, 100, 299, 300, 301, 590, 599, 600] {
        check(n, m, k, 21);
    }
}

#[test]
fn selects_correctly_across_seeds() {
    for seed in 0..12u64 {
        check(20, 800, 397, 1000 + seed);
    }
}

#[test]
fn single_node_short_circuits() {
    check(1, 100, 37, 5);
}

#[test]
fn tiny_candidate_sets() {
    check(8, 1, 1, 6);
    check(8, 2, 2, 7);
    check(8, 8, 5, 8);
}

#[test]
fn duplicate_priorities_resolve_by_tiebreak() {
    // All elements share one priority — ranks are decided purely by the
    // element-id tiebreaker.
    let n = 12;
    let cands = driver::random_candidates(n, 300, 1, 31);
    for k in [1u64, 150, 300] {
        let expect = driver::sequential_select(&cands, k);
        let run = driver::run(
            n,
            cands.clone(),
            k,
            KSelectConfig::default(),
            31,
            Run::sync(500_000),
        );
        assert_eq!(run.result, Some(expect), "k={k}");
    }
}

#[test]
fn large_priority_universe_m_poly_n() {
    // m = n² (q = 2): exercises multiple Phase-1 iterations.
    let n = 16usize;
    let m = (n * n) as u64 * 4;
    check(n, m, m / 3, 41);
}

#[test]
fn async_adversary_selects_correctly() {
    for seed in 0..5u64 {
        let n = 10;
        let m = 300;
        let k = 123;
        let cands = driver::random_candidates(n, m, 1 << 20, 50 + seed);
        let expect = driver::sequential_select(&cands, k);
        let run = driver::run(
            n,
            cands,
            k,
            KSelectConfig::default(),
            50 + seed,
            Run::asynchronous(999 + seed, 50_000_000),
        );
        assert!(run.completed, "seed {seed} stalled");
        assert_eq!(run.result, Some(expect), "seed {seed}");
    }
}

#[test]
fn rounds_grow_logarithmically() {
    // Theorem 4.2 shape: rounds ≈ c·log n. 64× more nodes must cost far
    // less than 64× the rounds.
    let rounds = |n: usize, m: u64| {
        let cands = driver::random_candidates(n, m, 1 << 24, 61);
        let run = driver::run(
            n,
            cands,
            m / 2,
            KSelectConfig::default(),
            61,
            Run::sync(1_000_000),
        );
        run.rounds as f64
    };
    let r16 = rounds(16, 512);
    let r1024 = rounds(1024, 32_768);
    assert!(
        r1024 < 6.0 * r16,
        "rounds grew superlogarithmically: {r16} -> {r1024}"
    );
}

#[test]
fn message_bits_stay_logarithmic() {
    // Theorem 4.2: O(log n)-bit messages, independent of m.
    let max_bits = |n: usize, m: u64| {
        let cands = driver::random_candidates(n, m, 1 << 40, 71);
        let run = driver::run(
            n,
            cands,
            m / 2,
            KSelectConfig::default(),
            71,
            Run::sync(1_000_000),
        );
        run.metrics.max_msg_bits
    };
    let small = max_bits(32, 256);
    let big = max_bits(32, 8192);
    // 32× the candidates must not noticeably move the max message size.
    assert!(
        big < small + 128,
        "message size grew with m: {small} -> {big} bits"
    );
    assert!(small < 1024);
}

#[test]
fn phase_stats_match_the_lemmas() {
    let n = 64usize;
    let m = 16_384u64; // n² · 4
    let cands = driver::random_candidates(n, m, 1 << 30, 81);
    let run = driver::run(
        n,
        cands,
        m / 2,
        KSelectConfig::default(),
        81,
        Run::sync(1_000_000),
    );
    // Lemma 4.4: N after Phase 1 ∈ O(n^{3/2} log n).
    let bound = (n as f64).powf(1.5) * (n as f64).ln() * 4.0;
    assert!(
        (run.stats.n_after_p1 as f64) < bound,
        "N after phase 1 = {} exceeds O(n^1.5 log n) ≈ {bound}",
        run.stats.n_after_p1
    );
    // Lemma 4.7: Θ(1) Phase-2 iterations.
    assert!(
        run.stats.p2_iterations <= 12,
        "too many phase-2 iterations: {}",
        run.stats.p2_iterations
    );
    // Guards should essentially never trip.
    assert!(run.stats.guard_trips <= 2);
}
