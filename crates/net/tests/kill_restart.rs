//! Crash-recover conformance: SIGKILL a `dpq-node` mid-workload, restart it
//! from its write-ahead log, and demand the cluster still satisfies the
//! exactly-once oracles.
//!
//! This is the fault matrix's crash-recover cell run against *real* OS
//! processes: the kill loses every in-memory structure and every in-flight
//! frame; recovery is WAL replay plus the `Reliable` layer's retransmit and
//! dedup. The oracles at the end are the same witness-replay and element
//! conservation checks the simulator applies — duplicated or lost effects
//! of the killed node's operations would break them.

mod harness;

use std::time::{Duration, Instant};

use dpq_net::ctl::{CtlReq, CtlResp};
use dpq_net::ProtoId;
use dpq_semantics::{check_local_consistency, replay, ReplayMode};
use harness::{
    balanced_scripts, check_conservation, drive_workload, Cluster, ClusterSpec, Transport,
};

const QUIESCE: Duration = Duration::from_secs(60);

/// Kill and restart the given node between two workload halves.
fn run_kill_restart(name: &'static str, transport: Transport, seed: u64) {
    let n = 5;
    let ops = 30;
    let victim = 3; // not the anchor: the anchor's tree role is special
    let mut spec = ClusterSpec::new(name, ProtoId::Skeap, n, seed);
    spec.transport = transport;
    spec.wal = true;
    spec.extra = vec!["--n-prios".into(), "4".into()];
    let mut cluster = Cluster::spawn(spec);

    let scripts = balanced_scripts(n, ops, 4, seed ^ 0x51);
    let first: Vec<Vec<_>> = scripts.iter().map(|s| s[..ops / 2].to_vec()).collect();
    let second: Vec<Vec<_>> = scripts.iter().map(|s| s[ops / 2..].to_vec()).collect();

    drive_workload(&cluster, &first);
    let completed: Vec<u64> = (0..n).map(|i| cluster.status(i).completed).collect();
    // Kill mid-traffic: the victim has issued ops and holds shard elements.
    cluster.kill(victim);
    // Let the survivors run against the dead peer for a while — this is
    // where retransmissions pile up. Each keeps answering and keeps every
    // op it had completed.
    let window = Instant::now() + Duration::from_millis(300);
    while Instant::now() < window {
        for i in (0..n).filter(|&i| i != victim) {
            let s = cluster.status(i);
            assert!(s.completed >= completed[i], "node {i} lost completed ops");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    cluster.restart(victim);

    drive_workload(&cluster, &second);
    cluster.wait_all_complete(QUIESCE);

    // The kill must actually have been disruptive enough to exercise the
    // retransmit path, or this test proves nothing.
    assert!(
        cluster.total_retransmits() > 0,
        "kill/restart produced no retransmissions — the fault was a no-op"
    );

    let restarted = cluster.status(victim);
    assert_eq!(
        restarted.issued, ops as u64,
        "restarted node lost issued ops across the kill"
    );
    // Replay re-runs the live input path, so the ops issued before the kill
    // keep their latency clocks too.
    let text = match cluster.client(victim).request(&CtlReq::Metrics) {
        Ok(CtlResp::Metrics(t)) => t,
        other => panic!("metrics: {other:?}"),
    };
    let doc = dpq_telemetry::parse_prometheus(&text).expect("exposition parses");
    assert_eq!(
        doc.value("dpq_net_op_latency_ticks_count"),
        Some(ops as u64),
        "restarted node lost the latency clock of ops issued before the kill"
    );

    let (history, residual) = cluster.collect_history();
    assert_eq!(history.len(), n * ops);
    check_local_consistency(&history).expect("local consistency");
    replay(&history, ReplayMode::Fifo).expect("witness replay");
    check_conservation(&history, residual);
    cluster.shutdown();
}

#[test]
fn skeap_survives_sigkill_and_wal_restart_uds() {
    run_kill_restart("kill-uds", Transport::Uds, 41);
}

#[test]
fn skeap_survives_sigkill_and_wal_restart_tcp() {
    run_kill_restart("kill-tcp", Transport::Tcp, 43);
}

/// A node killed *before* it ever issued an op must also recover (empty WAL
/// replay) and the cluster must still quiesce.
#[test]
fn early_sigkill_with_empty_wal_recovers() {
    let n = 5;
    let ops = 10;
    let mut spec = ClusterSpec::new("kill-early", ProtoId::Skeap, n, 47);
    spec.wal = true;
    spec.extra = vec!["--n-prios".into(), "4".into()];
    let mut cluster = Cluster::spawn(spec);
    cluster.kill(4);
    cluster.restart(4);
    drive_workload(&cluster, &balanced_scripts(n, ops, 4, 53));
    cluster.wait_all_complete(QUIESCE);
    let (history, residual) = cluster.collect_history();
    check_local_consistency(&history).expect("local consistency");
    replay(&history, ReplayMode::Fifo).expect("witness replay");
    check_conservation(&history, residual);
    cluster.shutdown();
}
