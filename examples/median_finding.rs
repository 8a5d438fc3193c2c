//! Distributed median (and general quantiles) with KSelect — the standalone
//! use of the paper's §4 protocol, independent of the heaps.
//!
//! m measurements are scattered uniformly over n nodes; the cluster finds
//! the exact median, the 10th and the 99th percentile, each in O(log n)
//! simulated rounds with O(log n)-bit messages.
//!
//! ```text
//! cargo run --release --example median_finding
//! ```

use dpq::kselect::{driver, KSelectConfig};
use dpq::sim::Run;

fn main() {
    let n = 64;
    let m = 10_000u64;
    let cands = driver::random_candidates(n, m, /*priority space*/ 1 << 32, 2024);

    for (label, k) in [
        ("p10   ", m / 10),
        ("median", m / 2),
        ("p99   ", m * 99 / 100),
    ] {
        let expect = driver::sequential_select(&cands, k);
        let run = driver::run(
            n,
            cands.clone(),
            k,
            KSelectConfig::default(),
            2024,
            Run::sync(1_000_000),
        );
        assert_eq!(
            run.result,
            Some(expect),
            "{label} disagreed with the oracle"
        );
        println!(
            "{label}  rank {k:>5}  → priority {:>10}   ({} rounds, ≤{} bits/msg, congestion {})",
            expect.prio.0, run.rounds, run.metrics.max_msg_bits, run.metrics.congestion
        );
    }
    println!(
        "\nall three exact quantiles over {m} values on {n} nodes, \
         each in logarithmically many rounds ✓"
    );
}
