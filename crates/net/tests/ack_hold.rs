//! Ack coalescing must not be mistaken for loss: an ack with no payload to
//! ride on leaves at the next tick boundary, far inside even a short
//! retransmission timeout.
//!
//! In a test binary of its own, so no other cluster competes for the
//! processor while ticks are being counted.

mod harness;

use std::time::Duration;

use dpq_core::OpKind;
use dpq_net::ProtoId;
use harness::{balanced_scripts, drive_workload, Cluster, ClusterSpec};

#[test]
fn a_lone_data_frame_is_acked_within_a_tick() {
    let n = 3;
    let mut spec = ClusterSpec::new("ackhold3", ProtoId::Skeap, n, 61);
    // Four ticks, a quarter of what every other wire test runs with. The
    // ticks are longer (5 ms, not 2) so that a descheduled process on a
    // busy host is not mistaken for a late ack: the hold stays under one
    // tick whatever a tick lasts.
    spec.extra = ["--n-prios", "4", "--rto", "4", "--tick-ms", "5"]
        .map(String::from)
        .to_vec();
    let mut cluster = Cluster::spawn(spec);

    // Frames sent before a peer listened were dropped and are retransmitted
    // once. Every node has answered a `Status`, so every listener is up
    // and each link follows within the dialer's 500 ms backoff ceiling:
    // count from tick 120 (0.6 s) on.
    let retransmits =
        |cluster: &Cluster| -> Vec<u64> { (0..n).map(|i| cluster.status(i).retransmits).collect() };
    while (0..n).any(|i| cluster.status(i).ticks < 120) {
        std::thread::sleep(Duration::from_millis(20));
    }
    let before = retransmits(&cluster);

    // One operation at a time, the cluster left to go quiet in between, so
    // most frames travel alone and their acks find nothing to ride on.
    let scripts = balanced_scripts(n, 8, 4, 67);
    for round in 0..8 {
        for (node, script) in scripts.iter().enumerate() {
            let mut one: Vec<Vec<OpKind>> = vec![Vec::new(); n];
            one[node] = vec![script[round]];
            drive_workload(&cluster, &one);
            cluster.wait_all_complete(Duration::from_secs(60));
        }
    }

    assert_eq!(
        retransmits(&cluster),
        before,
        "a held ack ran into the timeout"
    );
    for i in 0..n {
        assert_eq!(cluster.status(i).completed, 8, "node {i}");
    }
    cluster.shutdown();
}
