//! Tier-6 wire conformance: real `dpq-node` OS processes on loopback must
//! satisfy the same correctness oracles the simulator enforces.
//!
//! Each test spawns a cluster of daemons (Unix sockets or TCP), drives a
//! generated workload through `dpq-ctl`'s client library, waits for
//! quiescence, dumps JSONL traces, and replays the merged history through
//! witness replay / seap phase checking / element conservation — the exact
//! checks `tests/property.rs` and the model checker apply to simulated runs.

mod harness;

use std::time::Duration;

use dpq_net::ctl::{CtlReq, CtlResp};
use dpq_net::ProtoId;
use dpq_semantics::{check_local_consistency, replay, ReplayMode};
use harness::{
    balanced_scripts, check_conservation, drive_workload, Cluster, ClusterSpec, Transport,
};

const QUIESCE: Duration = Duration::from_secs(60);

fn skeap_spec(name: &'static str, n: usize, seed: u64) -> ClusterSpec {
    let mut spec = ClusterSpec::new(name, ProtoId::Skeap, n, seed);
    spec.extra = vec!["--n-prios".into(), "4".into()];
    spec
}

fn run_skeap_conformance(mut spec: ClusterSpec, ops_per_node: usize) {
    let n = spec.n;
    let seed = spec.seed;
    spec.extra = vec!["--n-prios".into(), "4".into()];
    let mut cluster = Cluster::spawn(spec);
    drive_workload(
        &cluster,
        &balanced_scripts(n, ops_per_node, 4, seed ^ 0xABCD),
    );
    cluster.wait_all_complete(QUIESCE);
    let (history, residual) = cluster.collect_history();
    assert_eq!(history.len(), n * ops_per_node);
    check_local_consistency(&history).expect("local consistency");
    replay(&history, ReplayMode::Fifo).expect("witness replay");
    check_conservation(&history, residual);
    cluster.shutdown();
}

/// The small cluster `scripts/check.sh net` runs as a smoke test.
#[test]
fn smoke_three_process_uds() {
    run_skeap_conformance(skeap_spec("smoke3", 3, 7), 10);
}

#[test]
fn skeap_five_process_uds_passes_sim_oracles() {
    run_skeap_conformance(skeap_spec("skeap5uds", 5, 11), 40);
}

#[test]
fn skeap_five_process_tcp_passes_sim_oracles() {
    let mut spec = skeap_spec("skeap5tcp", 5, 13);
    spec.transport = Transport::Tcp;
    run_skeap_conformance(spec, 40);
}

#[test]
fn seap_five_process_uds_passes_sim_oracles() {
    let n = 5;
    let ops = 30;
    let mut cluster = Cluster::spawn(ClusterSpec::new("seap5uds", ProtoId::Seap, n, 17));
    // Seap takes arbitrary priorities — draw from a large universe.
    drive_workload(&cluster, &balanced_scripts(n, ops, 1 << 20, 99));
    cluster.wait_all_complete(QUIESCE);
    let (history, residual) = cluster.collect_history();
    assert_eq!(history.len(), n * ops);
    // Like `tests/property.rs`: seap's correctness statement is the phase
    // checker plus conservation — its alternating insert/delete phases do
    // not promise per-node witness order for mixed scripts, so
    // `check_local_consistency` is a skeap-only oracle.
    seap::checker::check_seap_history(&history).expect("seap phase order");
    check_conservation(&history, residual);
    cluster.shutdown();
}

#[test]
fn kselect_five_process_uds_agrees_with_sequential_selection() {
    let (n, m, k, prio_space, seed) = (5usize, 64u64, 13u64, 1u64 << 20, 23u64);
    let mut spec = ClusterSpec::new("ksel5uds", ProtoId::KSelect, n, seed);
    spec.extra = vec![
        "--m".into(),
        m.to_string(),
        "--k".into(),
        k.to_string(),
        "--prio-space".into(),
        prio_space.to_string(),
    ];
    let mut cluster = Cluster::spawn(spec);
    // The selection runs by itself; just wait for every node to learn the
    // result and compare against the sequential answer.
    cluster.wait_all_complete(QUIESCE);
    let per_node = kselect::driver::random_candidates(n, m, prio_space, seed);
    let expected = kselect::driver::sequential_select(&per_node, k);
    for i in 0..n {
        let s = cluster.status(i);
        assert_eq!(
            s.result,
            Some(expected),
            "node {i} announced {:?}, sequential answer is {expected:?}",
            s.result
        );
    }
    cluster.shutdown();
}

/// The metrics pull must work over the wire and carry both the reliable
/// transport counters and the per-peer wire families.
#[test]
fn metrics_exposition_is_served_over_the_wire() {
    let n = 3;
    let mut cluster = Cluster::spawn(skeap_spec("metrics3", n, 29));
    drive_workload(&cluster, &balanced_scripts(n, 8, 4, 31));
    cluster.wait_all_complete(QUIESCE);
    let text = match cluster.client(0).request(&CtlReq::Metrics) {
        Ok(CtlResp::Metrics(t)) => t,
        other => panic!("metrics: {other:?}"),
    };
    for family in [
        "dpq_reliable_sent",
        "dpq_reliable_acks_sent",
        "dpq_net_tx_frames_total",
        "dpq_net_rx_frames_total",
        "dpq_reliable_ack_rtt",
    ] {
        assert!(text.contains(family), "missing {family} in:\n{text}");
    }
    // Per-peer labels must name actual peers.
    assert!(
        text.contains("peer=\"1\""),
        "no per-peer labels in:\n{text}"
    );
    cluster.shutdown();
}
