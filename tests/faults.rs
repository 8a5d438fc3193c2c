//! Fault-matrix conformance harness: the protocols, wrapped in the
//! [`dpq::sim::Reliable`] retransmission transport, must keep every semantic
//! theorem — witness replay, local consistency, heap properties, element
//! conservation — across the full grid of {drop, dup, partition, crash}
//! fault plans, and the fault layer itself must be invisible when disabled
//! and byte-for-byte reproducible when enabled.

use dpq::core::workload::WorkloadSpec;
use dpq::core::{Element, History, OpRecord};
use dpq::semantics::{
    check_conservation, check_heap_properties, check_local_consistency, replay, ReplayMode,
};
use dpq::sim::{
    fault_matrix, FaultPlan, LatencySummary, Outcome, Run, SyncScheduler, TraceEvent, VecTracer,
};
use dpq_trace::export::write_jsonl;
use proptest::prelude::*;

/// Retransmission timeout (rounds) for synchronous fault runs: several
/// times the 2-round ack RTT, small enough that recovery stays fast.
const SYNC_RTO: u64 = 8;

/// Retransmission timeout (steps) for asynchronous fault runs. Deliveries
/// under the adversary routinely take hundreds of steps, so a timeout that
/// is too tight triggers retransmission storms (retransmits inflate the
/// in-flight queue, which inflates delivery latency, which triggers more
/// timeouts); 1024 steps sits comfortably above the typical latency while
/// still recovering drops quickly.
const ASYNC_RTO: u64 = 1024;

/// Zero lost elements, by the one conservation oracle.
fn assert_conserved(h: &History, residual: &[Element], label: &str) {
    check_conservation(h, residual).unwrap_or_else(|e| panic!("{label}: {e}"));
}

// ---------------------------------------------------------------------------
// The fault matrix: {drop} × {dup} × {partition} × {crash} × 3 protocols
// ---------------------------------------------------------------------------

/// Skeap across all 16 matrix cells: every cell completes, replays its
/// witness order exactly, and conserves every element.
#[test]
fn fault_matrix_skeap_conformance() {
    let (n, ops) = (6usize, 3usize);
    let spec = WorkloadSpec::balanced(n, ops, 3, 4100);
    let clean = skeap::cluster::run(
        &spec,
        3,
        Run::sync(200_000).faulty(FaultPlan::none(), SYNC_RTO),
    );
    assert!(clean.completed, "clean baseline stalled");
    let horizon = clean.time.max(64);
    for cell in fault_matrix(n, 0xA11CE, horizon, 0.10, 0.10) {
        let run = skeap::cluster::run(
            &spec,
            3,
            Run::sync(400_000).faulty(cell.plan.clone(), SYNC_RTO),
        );
        assert!(run.completed, "skeap stalled in cell {}", cell.name);
        let label = format!("skeap/{}", cell.name);
        replay(&run.history, ReplayMode::Fifo)
            .unwrap_or_else(|e| panic!("{label}: witness replay: {e:?}"));
        check_local_consistency(&run.history)
            .unwrap_or_else(|e| panic!("{label}: local order: {e:?}"));
        check_heap_properties(&run.history)
            .unwrap_or_else(|e| panic!("{label}: heap props: {e:?}"));
        assert_conserved(&run.history, &run.residual, &label);
        assert_eq!(
            run.latency_hist.count() as usize,
            n * ops,
            "{label}: missing op latencies"
        );
        // Recovery-latency percentiles flow through the metrics layer.
        let lat = LatencySummary::from_histogram(&run.latency_hist);
        assert!(lat.max >= lat.p50, "{label}: degenerate latency summary");
        if cell.plan.is_null() {
            assert_eq!(run.faults.dropped(), 0, "{label}: clean cell saw faults");
        }
    }
}

/// Seap across all 16 matrix cells: serializability (checker-searched
/// witnesses) plus conservation.
#[test]
fn fault_matrix_seap_conformance() {
    let (n, ops) = (6usize, 3usize);
    let spec = WorkloadSpec {
        n,
        ops_per_node: ops,
        insert_ratio: 0.6,
        n_prios: 1 << 20,
        seed: 4200,
    };
    let clean = seap::cluster::run(
        &spec,
        Run::sync(400_000).faulty(FaultPlan::none(), SYNC_RTO),
    );
    assert!(clean.completed, "clean baseline stalled");
    let horizon = clean.time.max(64);
    for cell in fault_matrix(n, 0xB0B, horizon, 0.10, 0.10) {
        let run = seap::cluster::run(
            &spec,
            Run::sync(800_000).faulty(cell.plan.clone(), SYNC_RTO),
        );
        assert!(run.completed, "seap stalled in cell {}", cell.name);
        let label = format!("seap/{}", cell.name);
        seap::checker::check_seap_history(&run.history)
            .unwrap_or_else(|e| panic!("{label}: seap checker: {e:?}"));
        assert_conserved(&run.history, &run.residual, &label);
        assert_eq!(
            run.latency_hist.count() as usize,
            n * ops,
            "{label}: missing op latencies"
        );
    }
}

/// KSelect across all 16 matrix cells: the selected key must equal the
/// sequential oracle in every surviving cell.
#[test]
fn fault_matrix_kselect_conformance() {
    let (n, m) = (6usize, 48u64);
    let k = m / 3;
    let cands = kselect::driver::random_candidates(n, m, 1 << 16, 4300);
    let expect = kselect::driver::sequential_select(&cands, k);
    let cfg = kselect::KSelectConfig::default();
    let run = Run::sync(200_000).faulty(FaultPlan::none(), SYNC_RTO);
    let clean = kselect::driver::run(n, cands.clone(), k, cfg, 4300, run);
    assert!(clean.completed, "clean baseline stalled");
    assert_eq!(clean.result, Some(expect), "clean baseline wrong");
    let horizon = clean.rounds.max(64);
    for cell in fault_matrix(n, 0xCAFE, horizon, 0.10, 0.10) {
        let run = Run::sync(400_000).faulty(cell.plan.clone(), SYNC_RTO);
        let sel = kselect::driver::run(n, cands.clone(), k, cfg, 4300, run);
        assert!(sel.completed, "kselect stalled in cell {}", cell.name);
        assert_eq!(
            sel.result,
            Some(expect),
            "kselect/{}: wrong rank-k key",
            cell.name
        );
    }
}

/// The faulted cells actually exercise the machinery: over the grid, the
/// fault layer must have dropped, duplicated, partitioned and crashed, and
/// the transport must have retransmitted and suppressed duplicates.
#[test]
fn fault_matrix_exercises_every_fault_kind() {
    let spec = WorkloadSpec::balanced(6, 3, 3, 4400);
    let clean = skeap::cluster::run(
        &spec,
        3,
        Run::sync(200_000).faulty(FaultPlan::none(), SYNC_RTO),
    );
    assert!(clean.completed);
    let mut agg = dpq::sim::FaultTotals::default();
    let (mut retransmits, mut dup_suppressed) = (0u64, 0u64);
    for cell in fault_matrix(6, 0xD00D, clean.time.max(64), 0.10, 0.10) {
        let run = skeap::cluster::run(&spec, 3, Run::sync(400_000).faulty(cell.plan, SYNC_RTO));
        assert!(run.completed);
        agg.dropped_chance += run.faults.dropped_chance;
        agg.dropped_partition += run.faults.dropped_partition;
        agg.dropped_crash += run.faults.dropped_crash;
        agg.duplicated += run.faults.duplicated;
        agg.crashes += run.faults.crashes;
        agg.recoveries += run.faults.recoveries;
        retransmits += run.retransmits;
        dup_suppressed += run.dup_suppressed;
    }
    assert!(agg.dropped_chance > 0, "no chance drops across the grid");
    assert!(
        agg.dropped_partition > 0,
        "no partition drops across the grid"
    );
    assert!(agg.dropped_crash > 0, "no crash drops across the grid");
    assert!(agg.duplicated > 0, "no duplicates across the grid");
    assert!(
        agg.crashes >= 8 && agg.recoveries >= 8,
        "crash cells misfired"
    );
    assert!(retransmits > 0, "transport never retransmitted");
    assert!(dup_suppressed > 0, "transport never suppressed a duplicate");
}

// ---------------------------------------------------------------------------
// Determinism: same (seed, plan) → byte-identical trace
// ---------------------------------------------------------------------------

fn trace_bytes(events: &[TraceEvent]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_jsonl(events, &mut buf).expect("in-memory write");
    buf
}

fn adversarial_plan() -> FaultPlan {
    FaultPlan::uniform(0x5EED, 0.15, 0.10)
        .with_delay(0.2, 6)
        .with_partition(20, 60, vec![dpq::core::NodeId(0), dpq::core::NodeId(1)])
        .with_crash(dpq::core::NodeId(4), 30, Some(90))
}

/// Acceptance: the same (seed, FaultPlan) pair yields a byte-identical
/// JSONL event stream across two fresh runs — sync and async.
#[test]
fn same_seed_same_plan_is_byte_identical() {
    let spec = WorkloadSpec::balanced(5, 3, 3, 4500);
    let sync_run = |_: u32| {
        let run = Run::sync(400_000)
            .faulty(adversarial_plan(), SYNC_RTO)
            .tracer(VecTracer::new());
        let out = skeap::cluster::run(&spec, 3, run);
        assert!(out.completed, "faulty sync run stalled");
        out.tracer.into_events()
    };
    let (a, b) = (sync_run(0), sync_run(1));
    assert!(!a.is_empty());
    assert!(
        a.iter().any(|e| matches!(
            e,
            TraceEvent::FaultDrop { .. }
                | TraceEvent::FaultDuplicate { .. }
                | TraceEvent::NodeCrash { .. }
        )),
        "adversarial plan produced no fault events"
    );
    assert_eq!(
        trace_bytes(&a),
        trace_bytes(&b),
        "sync trace not reproducible"
    );

    let async_run = |_: u32| {
        let plan = FaultPlan::uniform(0x5EED, 0.10, 0.10).with_delay(0.2, 64);
        let run = Run::asynchronous(4501, 40_000_000)
            .faulty(plan, ASYNC_RTO)
            .tracer(VecTracer::new());
        let out = skeap::cluster::run(&spec, 3, run);
        assert!(out.completed, "faulty async run stalled");
        out.tracer.into_events()
    };
    let (c, d) = (async_run(0), async_run(1));
    assert!(!c.is_empty());
    assert_eq!(
        trace_bytes(&c),
        trace_bytes(&d),
        "async trace not reproducible"
    );
}

// ---------------------------------------------------------------------------
// E1/E9-style witness exactness under the async adversary at 5% + 5%
// ---------------------------------------------------------------------------

/// E1 under fire: ≥ 15 adversarial async runs at 5% drop + 5% dup; each
/// surviving run must still replay its witness order exactly and conserve
/// elements.
#[test]
fn skeap_async_witnesses_exact_under_5pct_drop_and_dup() {
    let (mut dropped, mut retransmits) = (0u64, 0u64);
    for s in 0..15u64 {
        let spec = WorkloadSpec::balanced(4, 6, 3, 9100 + s);
        let plan = FaultPlan::uniform(0xE1_0000 + s, 0.05, 0.05);
        let run = skeap::cluster::run(
            &spec,
            3,
            Run::asynchronous(8_800 + s, 60_000_000).faulty(plan, ASYNC_RTO),
        );
        assert!(run.completed, "skeap async run {s} stalled");
        let label = format!("skeap async run {s}");
        replay(&run.history, ReplayMode::Fifo)
            .unwrap_or_else(|e| panic!("{label}: witness replay: {e:?}"));
        check_local_consistency(&run.history)
            .unwrap_or_else(|e| panic!("{label}: local order: {e:?}"));
        check_heap_properties(&run.history)
            .unwrap_or_else(|e| panic!("{label}: heap props: {e:?}"));
        assert_conserved(&run.history, &run.residual, &label);
        dropped += run.faults.dropped();
        retransmits += run.retransmits;
    }
    assert!(dropped > 0, "5% drop plan never dropped across 15 runs");
    assert!(retransmits > 0, "drops never forced a retransmission");
}

/// E9 under fire: ≥ 15 adversarial async runs at 5% drop + 5% dup; each
/// surviving run must stay serializable and conserve elements.
#[test]
fn seap_async_serializable_under_5pct_drop_and_dup() {
    let (mut dropped, mut suppressed) = (0u64, 0u64);
    for s in 0..15u64 {
        let spec = WorkloadSpec {
            n: 4,
            ops_per_node: 5,
            insert_ratio: 0.6,
            n_prios: 1 << 20,
            seed: 9200 + s,
        };
        let plan = FaultPlan::uniform(0xE9_0000 + s, 0.05, 0.05);
        let run = seap::cluster::run(
            &spec,
            Run::asynchronous(8_900 + s, 60_000_000).faulty(plan, ASYNC_RTO),
        );
        assert!(run.completed, "seap async run {s} stalled");
        let label = format!("seap async run {s}");
        seap::checker::check_seap_history(&run.history)
            .unwrap_or_else(|e| panic!("{label}: seap checker: {e:?}"));
        assert_conserved(&run.history, &run.residual, &label);
        dropped += run.faults.dropped();
        suppressed += run.dup_suppressed;
    }
    assert!(dropped > 0, "5% drop plan never dropped across 15 runs");
    assert!(suppressed > 0, "5% dup plan never forced a suppression");
}

// ---------------------------------------------------------------------------
// Satellite properties
// ---------------------------------------------------------------------------

/// A traced Skeap sync run behind the reliable transport under `plan` —
/// the faulty × traced cell of the driver.
fn skeap_sync_with_plan(spec: &WorkloadSpec, plan: FaultPlan) -> Outcome<VecTracer> {
    let run = Run::sync(400_000)
        .faulty(plan, SYNC_RTO)
        .tracer(VecTracer::new());
    let out = skeap::cluster::run(spec, 3, run);
    assert!(out.completed);
    out
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        .. ProptestConfig::default()
    })]

    /// Satellite: a FaultPlan that injects nothing is observationally
    /// invisible — identical traces (bit-for-bit as JSONL), metrics, round
    /// counts and latencies as under `FaultPlan::none()`, i.e. the E2-style
    /// numbers cannot move.
    #[test]
    fn null_fault_plan_is_observationally_invisible_skeap(
        n in 2usize..8,
        ops in 1usize..6,
        seed in 0u64..500,
        nseed in 0u64..10_000,
    ) {
        let spec = WorkloadSpec::balanced(n, ops, 3, seed);
        // Looks configured, injects nothing: zero probabilities plus a
        // delay clause with no reach.
        let null = FaultPlan::uniform(nseed, 0.0, 0.0).with_delay(0.9, 0);
        prop_assert!(null.is_null());
        let base = skeap_sync_with_plan(&spec, FaultPlan::none());
        let run = skeap_sync_with_plan(&spec, null);
        let recs: Vec<OpRecord> = run.history.records().copied().collect();
        let base_recs: Vec<OpRecord> = base.history.records().copied().collect();
        prop_assert_eq!(recs, base_recs);
        prop_assert_eq!(run.metrics, base.metrics);
        prop_assert_eq!(run.time, base.time);
        prop_assert_eq!(&run.latency_hist, &base.latency_hist);
        prop_assert_eq!(
            trace_bytes(&run.tracer.into_events()),
            trace_bytes(&base.tracer.into_events())
        );
    }

    /// Satellite (E10 numbers): the null plan is invisible to Seap's cost
    /// measurements too.
    #[test]
    fn null_fault_plan_is_observationally_invisible_seap(
        n in 2usize..7,
        ops in 1usize..5,
        seed in 0u64..500,
    ) {
        let spec = WorkloadSpec {
            n, ops_per_node: ops, insert_ratio: 0.5, n_prios: 1 << 20, seed,
        };
        let base = seap::cluster::run(&spec, Run::sync(800_000));
        prop_assert!(base.completed);
        let nodes = seap::cluster::build(spec.n, spec.seed);
        let scripts = dpq::core::workload::generate(&spec);
        let mut sched = SyncScheduler::new(nodes).with_faults(FaultPlan::uniform(seed, 0.0, 0.0));
        for id in seap::cluster::inject_all(sched.nodes_mut(), &scripts) {
            sched.note_injected(id);
        }
        let out = sched.run_until_pred(800_000, |ns| {
            ns.iter().all(seap::SeapNode::all_complete)
        });
        prop_assert!(out.is_quiescent());
        let recs: Vec<OpRecord> =
            seap::cluster::history(sched.nodes()).records().copied().collect();
        let base_recs: Vec<OpRecord> = base.history.records().copied().collect();
        prop_assert_eq!(recs, base_recs);
        prop_assert_eq!(sched.metrics.snapshot(), base.metrics);
        prop_assert_eq!(out.rounds(), base.time);
    }

    /// Satellite (E5 numbers): the null plan is invisible to KSelect.
    #[test]
    fn null_fault_plan_is_observationally_invisible_kselect(
        n in 2usize..10,
        m in 4u64..120,
        seed in 0u64..500,
    ) {
        let k = 1 + m / 2;
        let cands = kselect::driver::random_candidates(n, m, 1 << 16, seed);
        let cfg = kselect::KSelectConfig::default();
        let base = kselect::driver::run(n, cands.clone(), k, cfg, seed, Run::sync(500_000));
        let mut sched = SyncScheduler::new(kselect::driver::build(n, cands, k, cfg, seed))
            .with_faults(FaultPlan::uniform(seed, 0.0, 0.0));
        let out = sched.run_until_pred(500_000, |ns| {
            ns.iter().all(|kn: &kselect::KSelectNode| kn.result.is_some())
        });
        prop_assert!(out.is_quiescent());
        prop_assert_eq!(sched.nodes()[0].result, base.result);
        prop_assert_eq!(out.rounds(), base.rounds);
        prop_assert_eq!(sched.metrics.snapshot(), base.metrics);
    }

    /// Satellite: duplicate delivery is idempotent for Skeap — a dup-only
    /// plan (no drops, no delay) behind the reliable transport yields the
    /// same history, the same witnesses and the same final heap contents
    /// as the fault-free run.
    #[test]
    fn duplicate_delivery_is_idempotent_skeap(
        n in 2usize..7,
        ops in 1usize..5,
        seed in 0u64..300,
        dup in 0.05f64..0.6,
        fseed in 0u64..1000,
    ) {
        let spec = WorkloadSpec::balanced(n, ops, 3, seed);
        let clean = skeap::cluster::run(&spec, 3, Run::sync(400_000).faulty(FaultPlan::none(), 16));
        let dup_run = skeap::cluster::run(&spec, 3, Run::sync(400_000).faulty(FaultPlan::uniform(fseed, 0.0, dup), 16));
        prop_assert!(clean.completed && dup_run.completed);
        let a: Vec<OpRecord> = clean.history.records().copied().collect();
        let b: Vec<OpRecord> = dup_run.history.records().copied().collect();
        prop_assert_eq!(a, b);
        prop_assert_eq!(clean.residual, dup_run.residual);
    }

    /// Satellite: duplicate delivery is idempotent for Seap.
    #[test]
    fn duplicate_delivery_is_idempotent_seap(
        n in 2usize..6,
        ops in 1usize..4,
        seed in 0u64..300,
        dup in 0.05f64..0.6,
        fseed in 0u64..1000,
    ) {
        let spec = WorkloadSpec {
            n, ops_per_node: ops, insert_ratio: 0.5, n_prios: 1 << 20, seed,
        };
        let clean = seap::cluster::run(&spec, Run::sync(800_000).faulty(FaultPlan::none(), 16));
        let dup_run = seap::cluster::run(&spec, Run::sync(800_000).faulty(FaultPlan::uniform(fseed, 0.0, dup), 16));
        prop_assert!(clean.completed && dup_run.completed);
        let a: Vec<OpRecord> = clean.history.records().copied().collect();
        let b: Vec<OpRecord> = dup_run.history.records().copied().collect();
        prop_assert_eq!(a, b);
        prop_assert_eq!(clean.residual, dup_run.residual);
    }
}

/// Deterministic companion to the idempotency properties: a heavy dup-only
/// plan demonstrably injects duplicates and the transport suppresses every
/// one of them, with zero retransmissions (nothing is ever lost).
#[test]
fn heavy_duplication_is_fully_suppressed() {
    let spec = WorkloadSpec::balanced(5, 4, 3, 4600);
    let run = skeap::cluster::run(
        &spec,
        3,
        Run::sync(400_000).faulty(FaultPlan::uniform(0xD0D0, 0.0, 0.5), 16),
    );
    assert!(run.completed);
    assert!(run.faults.duplicated > 0, "0.5 dup plan never duplicated");
    assert!(
        run.dup_suppressed > 0,
        "duplicated payloads must be suppressed before the protocol"
    );
    assert_eq!(run.retransmits, 0, "dup-only plan must not lose anything");
    replay(&run.history, ReplayMode::Fifo).unwrap();
}
