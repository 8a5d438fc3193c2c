//! Trace determinism: the event stream is a pure function of the seeds, and
//! recording it never perturbs the run.
//!
//! Two properties, each checked under both schedulers:
//!
//! * **replay determinism** — two runs of the same seeded workload emit
//!   byte-identical JSONL event streams;
//! * **observer neutrality** — running with the no-op tracer produces
//!   exactly the same `MetricsSnapshot` (and history) as a fully traced
//!   run, i.e. tracing is read-only.

use dpq_core::workload::WorkloadSpec;
use dpq_sim::{Hub, Run, VecTracer};
use dpq_trace::write_jsonl;
use proptest::prelude::*;
use skeap::cluster;

const N_PRIOS: usize = 2;
const MAX_ROUNDS: u64 = 2_000_000;
const MAX_STEPS: u64 = 40_000_000;

fn jsonl(events: &[dpq_sim::TraceEvent]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_jsonl(events, &mut buf).expect("write to Vec cannot fail");
    buf
}

fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (2usize..10, 1usize..5, 0u64..1 << 20)
        .prop_map(|(n, ops, seed)| WorkloadSpec::balanced(n, ops, N_PRIOS as u64, seed))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Same seeds, same bytes — synchronous scheduler.
    #[test]
    fn sync_event_streams_replay_byte_identical(spec in arb_spec()) {
        let run = || Run::sync(MAX_ROUNDS).tracer(VecTracer::new());
        let a = cluster::run(&spec, N_PRIOS, run()).tracer.into_events();
        let b = cluster::run(&spec, N_PRIOS, run()).tracer.into_events();
        prop_assert!(!a.is_empty(), "a completed run must emit events");
        prop_assert_eq!(jsonl(&a), jsonl(&b));
    }

    /// Same seeds, same bytes — asynchronous adversary.
    #[test]
    fn async_event_streams_replay_byte_identical(
        spec in arb_spec(),
        sched_seed in 0u64..1 << 20,
    ) {
        let run = || Run::asynchronous(sched_seed, MAX_STEPS).tracer(VecTracer::new());
        let a = cluster::run(&spec, N_PRIOS, run());
        let b = cluster::run(&spec, N_PRIOS, run());
        prop_assert!(a.completed && b.completed, "async runs must drain");
        prop_assert_eq!(jsonl(&a.tracer.into_events()), jsonl(&b.tracer.into_events()));
    }

    /// The no-op tracer is compile-away-equivalent to a real sink: metrics,
    /// rounds, and the merged history all match a traced run of the same
    /// workload.
    #[test]
    fn null_tracer_leaves_metrics_unchanged(spec in arb_spec()) {
        let untraced = cluster::run(&spec, N_PRIOS, Run::sync(MAX_ROUNDS));
        let traced = cluster::run(&spec, N_PRIOS, Run::sync(MAX_ROUNDS).tracer(VecTracer::new()));
        prop_assert!(untraced.completed && traced.completed);
        prop_assert_eq!(untraced.metrics, traced.metrics);
        prop_assert_eq!(untraced.time, traced.time);
        prop_assert_eq!(&untraced.latency_hist, &traced.latency_hist);
        prop_assert_eq!(
            format!("{:?}", untraced.history.nodes),
            format!("{:?}", traced.history.nodes)
        );
        prop_assert!(!traced.tracer.events.is_empty());
    }

    /// The metrics hub is as read-only as the null tracer: a telemetry-enabled
    /// run (hub attached to the scheduler, ack-RTT histograms on the
    /// transport) is RNG-draw-for-draw identical to the bare run of the same
    /// seeds — same history, metrics, fault decisions, and latency
    /// distribution — under the asynchronous adversary over a faulty network.
    #[test]
    fn telemetry_hub_leaves_faulty_async_run_unchanged(
        spec in arb_spec(),
        sched_seed in 0u64..1 << 20,
    ) {
        let plan = dpq_sim::FaultPlan::uniform(0xD1CE, 0.05, 0.05);
        let run = Run::asynchronous(sched_seed, MAX_STEPS).faulty(plan, 64);
        let bare = cluster::run(&spec, N_PRIOS, run.clone());
        let inst = cluster::run(&spec, N_PRIOS, run.telemetry(Hub::new()));
        let hub = &inst.telemetry;
        prop_assert!(bare.completed && inst.completed, "faulty runs must drain");
        prop_assert_eq!(bare.metrics, inst.metrics);
        prop_assert_eq!(bare.time, inst.time);
        prop_assert_eq!(bare.faults, inst.faults);
        prop_assert_eq!(bare.retransmits, inst.retransmits);
        prop_assert_eq!(bare.dup_suppressed, inst.dup_suppressed);
        prop_assert_eq!(&bare.latency_hist, &inst.latency_hist);
        prop_assert_eq!(
            format!("{:?}", bare.history.nodes),
            format!("{:?}", inst.history.nodes)
        );
        // And the hub observed the run it rode along with.
        prop_assert_eq!(hub.op_latency.count(), inst.latency_hist.count());
        prop_assert_eq!(&hub.op_latency, &inst.latency_hist);
        prop_assert_eq!(hub.faults, inst.faults);
        prop_assert_eq!(
            hub.counter_by_name("reliable.retransmits").unwrap_or(0),
            inst.retransmits
        );
        prop_assert_eq!(
            hub.counter_by_name("reliable.dup_suppressed").unwrap_or(0),
            inst.dup_suppressed
        );
    }
}
