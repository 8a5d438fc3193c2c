//! Steady-state allocation audit for both schedulers.
//!
//! The arena/SoA refactor's contract is that simulation steady state is
//! allocation-free: every buffer the hot path touches (flat inbox, delivery
//! permutation, future heap, context recycling, per-node protocol state)
//! reaches its high-water capacity during warmup and is reused thereafter.
//! This harness installs the counting allocator as the global allocator,
//! warms each scheduler past its high-water mark, then pins the allocation
//! count to ZERO over a long measured window — any regression that puts a
//! per-step or per-round allocation back on the hot path fails loudly, not
//! as a few-percent throughput drift in the perf ledger.
//!
//! Everything here is deterministic (seeded fault plans, seeded adversary,
//! fixed round counts), so the assertion is exact, not statistical. The
//! four configurations live in one `#[test]` because the allocation
//! counter is process-global: parallel test threads would bleed counts
//! into each other's windows. The memory floor below takes [`SERIAL`] for
//! the same reason.

use dpq_bench::memprobe::{alloc_count, scale_run, CountingAlloc};
use dpq_bench::perf_probe::{probe_plan, relays, PROBE_NODES};
use dpq_core::NodeId;
use dpq_sim::{AsyncScheduler, FaultPlan, SyncScheduler};
use std::sync::Mutex;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Held by each test while it reads the process-global counters.
static SERIAL: Mutex<()> = Mutex::new(());

/// Tokens per node held in flight by the sync probe.
const SYNC_PER_NODE: u64 = 8;

/// Allocations observed over `measure` rounds after `warmup` rounds.
fn sync_steady_allocs(plan: FaultPlan, warmup: u64, measure: u64) -> u64 {
    let mut s =
        SyncScheduler::new(relays(PROBE_NODES, PROBE_NODES * SYNC_PER_NODE)).with_faults(plan);
    let target = PROBE_NODES * SYNC_PER_NODE;
    for _ in 0..warmup {
        s.step_round();
        let pop = s.in_flight() as u64;
        if pop < target {
            s.node_mut(NodeId(0)).queued += target - pop;
        }
    }
    let before = alloc_count();
    for _ in 0..measure {
        s.step_round();
        let pop = s.in_flight() as u64;
        if pop < target {
            s.node_mut(NodeId(0)).queued += target - pop;
        }
    }
    alloc_count() - before
}

/// Allocations observed over `measure` adversary steps after `warmup`.
fn async_steady_allocs(plan: FaultPlan, warmup: u64, measure: u64) -> u64 {
    let target = 1_000u64;
    let mut s = AsyncScheduler::new(relays(PROBE_NODES, target), 1).with_faults(plan);
    for _ in 0..warmup {
        s.step_once();
        let pop = s.in_flight() as u64;
        if pop < target {
            s.node_mut(NodeId(0)).queued += target - pop;
        }
    }
    let before = alloc_count();
    for _ in 0..measure {
        s.step_once();
        let pop = s.in_flight() as u64;
        if pop < target {
            s.node_mut(NodeId(0)).queued += target - pop;
        }
    }
    alloc_count() - before
}

#[test]
fn steady_state_steps_do_not_allocate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    assert!(
        dpq_bench::memprobe::counting_alloc_installed(),
        "counting allocator not installed"
    );
    // Sync scheduler: warmup must reach the flat inbox's and future heap's
    // high-water capacity. The measured window crosses round 4 096, so
    // anything that grows by doubling once per round is caught in it.
    let cases: [(&str, u64); 2] = [
        (
            "sync/null",
            sync_steady_allocs(FaultPlan::none(), 3_000, 2_000),
        ),
        (
            "sync/faulty",
            sync_steady_allocs(probe_plan(), 3_000, 2_000),
        ),
    ];
    for (name, allocs) in cases {
        assert_eq!(
            allocs, 0,
            "{name}: steady-state rounds allocated {allocs} times"
        );
    }
    // Async scheduler: same contract per adversary step.
    let cases: [(&str, u64); 2] = [
        (
            "async/null",
            async_steady_allocs(FaultPlan::none(), 100_000, 10_000),
        ),
        (
            "async/faulty",
            async_steady_allocs(probe_plan(), 100_000, 10_000),
        ),
    ];
    for (name, allocs) in cases {
        assert_eq!(
            allocs, 0,
            "{name}: steady-state steps allocated {allocs} times"
        );
    }
}

/// The memory floor: the scale probe (one op per node, Skeap under the
/// synchronous scheduler, to quiescence) at n = 10 000. Rounds and dormant
/// skips repeat exactly, so any change to delivery order, dormancy or the
/// probe workload shows here; live heap per node is 670 B at n = 10k, 100k
/// and 1M, held to the 20 % slack the retired `memprobe --check` allowed —
/// a per-node `Vec` or map creeping back into the hot structs fails this.
#[test]
fn scale_probe_counts_repeat_and_hold_the_memory_floor() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let r = scale_run(10_000);
    assert_eq!(r.rounds, 215);
    assert_eq!(r.skipped_activations, 1_804_114);
    assert!(
        r.bytes_per_node > 0.0 && r.bytes_per_node <= 804.0,
        "{} bytes/node",
        r.bytes_per_node
    );
}
