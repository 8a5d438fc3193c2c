//! Property-based end-to-end tests: random workloads, random cluster sizes,
//! random schedules — the semantic theorems must hold for all of them.

use dpq::core::workload::WorkloadSpec;
use dpq::semantics::{check_heap_properties, check_local_consistency, replay, ReplayMode};
use dpq::sim::Run;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// Theorem 3.2(2): every Skeap execution is sequentially consistent and
    /// heap consistent, whatever the workload mix or topology seed.
    #[test]
    fn skeap_is_always_sequentially_consistent(
        n in 2usize..12,
        ops in 1usize..16,
        n_prios in 1u64..5,
        insert_ratio in 0.1f64..0.9,
        seed in 0u64..1000,
    ) {
        let spec = WorkloadSpec { n, ops_per_node: ops, insert_ratio, n_prios, seed };
        let run = skeap::cluster::run(&spec, n_prios as usize, Run::sync(400_000));
        prop_assert!(run.completed);
        prop_assert!(replay(&run.history, ReplayMode::Fifo).is_ok());
        prop_assert!(check_local_consistency(&run.history).is_ok());
        prop_assert!(check_heap_properties(&run.history).is_ok());
    }

    /// Theorem 5.1(2): every Seap execution is serializable and heap
    /// consistent.
    #[test]
    fn seap_is_always_serializable(
        n in 2usize..10,
        ops in 1usize..12,
        insert_ratio in 0.1f64..0.9,
        seed in 0u64..1000,
    ) {
        let spec = WorkloadSpec {
            n,
            ops_per_node: ops,
            insert_ratio,
            n_prios: 1 << 20,
            seed,
        };
        let run = seap::cluster::run(&spec, Run::sync(800_000));
        prop_assert!(run.completed);
        prop_assert!(seap::checker::check_seap_history(&run.history).is_ok());
    }

    /// Theorem 4.2: KSelect always returns the true k-th smallest.
    #[test]
    fn kselect_always_matches_the_oracle(
        n in 2usize..24,
        m in 1u64..600,
        kf in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let k = 1 + ((m - 1) as f64 * kf) as u64;
        let cands = kselect::driver::random_candidates(n, m, 1 << 20, seed);
        let expect = kselect::driver::sequential_select(&cands, k);
        let run = kselect::driver::run(n, cands, k, kselect::KSelectConfig::default(), seed, Run::sync(2_000_000));
        prop_assert_eq!(run.result, Some(expect));
    }

    /// Async adversary: Skeap semantics survive arbitrary reordering.
    #[test]
    fn skeap_async_schedules_preserve_semantics(
        seed in 0u64..200,
        sched_seed in 0u64..200,
    ) {
        let spec = WorkloadSpec::balanced(5, 8, 3, seed);
        let run = skeap::cluster::run(&spec, 3, Run::asynchronous(sched_seed, 20_000_000));
        prop_assert!(run.completed, "run completed");
        let h = run.history;
        prop_assert!(replay(&h, ReplayMode::Fifo).is_ok());
        prop_assert!(check_local_consistency(&h).is_ok());
    }
}
