//! Observer neutrality over the whole driver matrix: {sync, async} ×
//! {clean, faulty} × {no sinks, `VecTracer` + `Hub`}, for Skeap and Seap.
//! Within each (protocol, scheduler, fault) cell the history, the metrics
//! and the residual heap must not depend on who is watching. Before `Run`
//! the async × telemetry-clean and faulty × traced cells had no driver.

use dpq::core::workload::WorkloadSpec;
use dpq::core::{Element, OpRecord};
use dpq::sim::{FaultPlan, Hub, MetricsSnapshot, Outcome, Run, Telemetry, Tracer, VecTracer};

const NODES: usize = 5;
const OPS: usize = 3;

#[derive(Debug, Clone, Copy)]
enum Proto {
    Skeap,
    Seap,
}

fn drive<T: Tracer, M: Telemetry>(proto: Proto, run: Run<T, M>) -> Outcome<T, M> {
    match proto {
        Proto::Skeap => skeap::cluster::run(&WorkloadSpec::balanced(NODES, OPS, 3, 7100), 3, run),
        Proto::Seap => seap::cluster::run(&WorkloadSpec::balanced(NODES, OPS, 1 << 20, 7200), run),
    }
}

fn facts<T, M>(out: &Outcome<T, M>) -> (Vec<OpRecord>, MetricsSnapshot, Vec<Element>) {
    (
        out.history.records().copied().collect(),
        out.metrics,
        out.residual.clone(),
    )
}

#[test]
fn observers_never_change_a_run() {
    // (label, scheduler, retransmission timeout in that scheduler's time).
    let scheds = [
        ("sync", Run::sync(400_000), 8),
        ("async", Run::asynchronous(7301, 60_000_000), 1024),
    ];
    for proto in [Proto::Skeap, Proto::Seap] {
        for (sched, base, rto) in &scheds {
            for faulty in [false, true] {
                let label = format!("{proto:?}/{sched}/faulty={faulty}");
                let run = match faulty {
                    true => base
                        .clone()
                        .faulty(FaultPlan::uniform(0x0B5E, 0.05, 0.05), *rto),
                    false => base.clone(),
                };
                let bare = drive(proto, run.clone());
                let seen = drive(proto, run.tracer(VecTracer::new()).telemetry(Hub::new()));
                assert!(bare.completed && seen.completed, "{label}: stalled");
                assert_eq!(facts(&bare), facts(&seen), "{label}: sinks changed the run");
                assert_eq!(bare.time, seen.time, "{label}");
                // The sinks did observe the run they rode along with.
                assert!(!seen.tracer.events.is_empty(), "{label}: empty trace");
                assert_eq!(
                    seen.telemetry.op_latency.count() as usize,
                    NODES * OPS,
                    "{label}: hub missed op latencies"
                );
                assert_eq!(
                    seen.telemetry.counter_by_name("reliable.sent").is_some(),
                    faulty,
                    "{label}: transport counters folded iff the run was faulty"
                );
                // The hub's per-kind, latency and fault accounts are the same
                // run the always-on totals describe.
                let hub = &seen.telemetry;
                let (msgs, bits) = hub
                    .kind_totals()
                    .iter()
                    .fold((0, 0), |(m, b), k| (m + k.msgs, b + k.bits));
                assert_eq!(msgs, seen.metrics.messages, "{label}: per-kind msgs");
                assert_eq!(bits, seen.metrics.total_bits, "{label}: per-kind bits");
                assert_eq!(
                    hub.msg_bits.max(),
                    seen.metrics.max_msg_bits,
                    "{label}: largest message"
                );
                assert_eq!(hub.op_latency, seen.latency_hist, "{label}: latency");
                assert_eq!(hub.faults, seen.faults, "{label}: fault mirror");
            }
        }
    }
}
