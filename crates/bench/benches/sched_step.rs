//! Criterion bench: raw scheduler stepping throughput — the metric PR 3's
//! flight-set swap targets, extended in PR 6 with telemetry-enabled cases.
//!
//! Four cases mirror the perf ledger's `sim.sync_rounds_per_s` and
//! `sim.async_steps_per_s` series (see `perf_probe`): the async adversary scheduler and the sync round
//! scheduler, each under the null fault plan and under the drop+dup+delay
//! probe plan. Two further cases (`clean+telemetry`) re-run the clean plans
//! with a live `dpq_sim::Hub` attached, so the per-delivery cost of the
//! metrics hooks is visible next to the `NullTelemetry` baseline the
//! default cases compile down to. The workload is the steady-state relay
//! ring from `perf_probe`, so one iteration here is a fixed chunk of steps
//! over a population that neither drains nor explodes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpq_bench::perf_probe::{probe_plan, relays, PROBE_INFLIGHT, PROBE_NODES};
use dpq_core::NodeId;
use dpq_sim::{AsyncScheduler, FaultPlan, Hub, NullTelemetry, SyncScheduler, Telemetry};

/// Steps per async iteration — large enough to amortize the refill check.
const ASYNC_CHUNK: u64 = 10_000;
/// Rounds per sync iteration (each round moves ~`PROBE_NODES` messages).
const SYNC_CHUNK: u64 = 200;

fn async_case<M: Telemetry>(b: &mut criterion::Bencher, plan: &FaultPlan, telemetry: M) {
    let mut s = AsyncScheduler::new(relays(PROBE_NODES, PROBE_INFLIGHT), 1)
        .with_faults(plan.clone())
        .with_telemetry(telemetry);
    while (s.in_flight() as u64) < PROBE_INFLIGHT {
        s.step_once();
    }
    b.iter(|| {
        for _ in 0..ASYNC_CHUNK {
            s.step_once();
        }
        // Fault plans destroy messages; hold the population steady
        // so every sample measures the same in-flight regime.
        let pop = s.in_flight() as u64;
        if pop < PROBE_INFLIGHT {
            s.node_mut(NodeId(0)).queued += PROBE_INFLIGHT - pop;
        }
        pop
    });
}

fn bench_async(c: &mut Criterion) {
    let mut g = c.benchmark_group("async_step");
    g.sample_size(20);
    for (name, plan) in [("clean", FaultPlan::none()), ("faulty", probe_plan())] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &plan, |b, plan| {
            async_case(b, plan, NullTelemetry)
        });
    }
    let clean = FaultPlan::none();
    g.bench_with_input(
        BenchmarkId::from_parameter("clean+telemetry"),
        &clean,
        |b, plan| async_case(b, plan, Hub::new()),
    );
    g.finish();
}

fn sync_case<M: Telemetry>(b: &mut criterion::Bencher, plan: &FaultPlan, telemetry: M) {
    let per_node = 8u64;
    let mut s = SyncScheduler::new(relays(PROBE_NODES, PROBE_NODES * per_node))
        .with_faults(plan.clone())
        .with_telemetry(telemetry);
    s.step_round();
    b.iter(|| {
        for _ in 0..SYNC_CHUNK {
            s.step_round();
        }
        let pop = s.in_flight() as u64;
        if pop < PROBE_NODES * per_node {
            s.node_mut(NodeId(0)).queued += PROBE_NODES * per_node - pop;
        }
        pop
    });
}

fn bench_sync(c: &mut Criterion) {
    let mut g = c.benchmark_group("sync_round");
    g.sample_size(20);
    for (name, plan) in [("clean", FaultPlan::none()), ("faulty", probe_plan())] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &plan, |b, plan| {
            sync_case(b, plan, NullTelemetry)
        });
    }
    let clean = FaultPlan::none();
    g.bench_with_input(
        BenchmarkId::from_parameter("clean+telemetry"),
        &clean,
        |b, plan| sync_case(b, plan, Hub::new()),
    );
    g.finish();
}

criterion_group!(benches, bench_async, bench_sync);
criterion_main!(benches);
