//! The runtime's single poll loop under clients that misbehave, and the
//! pacing of an idle Seap anchor.
//!
//! Every node runs exactly two threads — the poll loop and the dialer — so
//! nothing a client does can pin a thread: a peer that stalls mid-frame, a
//! ctl connection that never says hello and a ctl client that pipelines
//! requests without reading the replies each hold only their own buffers
//! while a well-behaved client's operations complete as usual.

mod harness;

use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::time::Duration;

use dpq_net::ctl::{CtlReq, CtlResp, CTL_SENDER};
use dpq_net::frame::{append_frame, write_hello, Hello, WIRE_VERSION};
use dpq_net::{to_bytes, Addr, ProtoId};
use harness::{balanced_scripts, drive_workload, Cluster, ClusterSpec};

const QUIESCE: Duration = Duration::from_secs(60);

fn threads(pid: u32) -> usize {
    std::fs::read_dir(format!("/proc/{pid}/task"))
        .expect("read the daemon's task list")
        .count()
}

/// A raw connection to a node's socket that has said hello as `proto`.
fn connect(path: &std::path::Path, cluster: &Cluster, proto: ProtoId, sender: u64) -> UnixStream {
    let mut s = UnixStream::connect(path).expect("connect to the node");
    let hello = Hello {
        version: WIRE_VERSION,
        proto,
        cluster: cluster.fingerprint,
        sender,
    };
    write_hello(&mut s, &hello).expect("say hello");
    s
}

fn ctl_path(cluster: &Cluster, i: usize) -> std::path::PathBuf {
    match &cluster.ctl_addrs[i] {
        Addr::Uds(path) => path.clone(),
        Addr::Tcp(_) => unreachable!("the harness defaults to UDS"),
    }
}

/// The value of the unlabelled counter `name` in node `i`'s metrics.
fn counter(cluster: &Cluster, i: usize, name: &str) -> u64 {
    let Ok(CtlResp::Metrics(text)) = cluster.client(i).request(&CtlReq::Metrics) else {
        panic!("metrics of node {i}");
    };
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("node {i} reports no {name}"))
}

fn issue(cluster: &Cluster, i: usize, req: CtlReq) {
    match cluster.client(i).request(&req) {
        Ok(CtlResp::Issued { .. }) => {}
        other => panic!("{req:?} at node {i}: {other:?}"),
    }
}

#[test]
fn misbehaving_clients_pin_no_thread_and_stall_no_one() {
    let n = 3;
    let mut spec = ClusterSpec::new("reactor3", ProtoId::Skeap, n, 71);
    spec.extra = ["--n-prios", "4"].map(String::from).to_vec();
    let mut cluster = Cluster::spawn(spec);

    // (a) A peer that sends half a frame and stalls.
    let mut half = connect(&cluster.dir.join("n0.sock"), &cluster, ProtoId::Skeap, 2);
    half.write_all(&[100, 0, 0, 0, 1, 2, 3]).unwrap();
    // (b) A ctl connection that never says hello.
    let mut silent = UnixStream::connect(ctl_path(&cluster, 0)).unwrap();
    // (c) A ctl client that pipelines requests and never reads a reply:
    // it writes until its socket is full, so the node has stopped reading.
    let mut flood = connect(&ctl_path(&cluster, 0), &cluster, ProtoId::Ctl, CTL_SENDER);
    flood.set_nonblocking(true).unwrap();
    let mut batch = Vec::new();
    for _ in 0..1000 {
        append_frame(&mut batch, &to_bytes(&CtlReq::Metrics)).unwrap();
    }
    let mut pipelined = 0;
    loop {
        match flood.write(&batch) {
            Ok(n) if n == batch.len() => pipelined += 1000,
            Ok(_) => break,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) => panic!("flooding ctl: {e}"),
        }
        assert!(pipelined < 10_000_000, "the node never stopped reading");
    }

    // A well-behaved client, at the node under attack and at the others.
    drive_workload(&cluster, &balanced_scripts(n, 12, 4, 73));
    cluster.wait_all_complete(QUIESCE);
    for i in 0..n {
        assert_eq!(cluster.status(i).completed, 12, "node {i}");
    }
    for (i, pid) in cluster.pids().into_iter().enumerate() {
        assert_eq!(
            threads(pid),
            2,
            "node {i} runs the loop and the dialer only"
        );
    }

    // The connection that never said hello is closed after ten seconds.
    silent
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    assert_eq!(silent.read(&mut [0; 1]).expect("closed, not timed out"), 0);
    assert_eq!(cluster.status(0).completed, 12);
    drop((half, flood));
    cluster.shutdown();
}

#[test]
fn an_idle_seap_anchor_is_paced_and_wakes_for_work() {
    let mut cluster = Cluster::spawn(ClusterSpec::new("pace2", ProtoId::Seap, 2, 79));
    std::thread::sleep(Duration::from_secs(1));
    let holds: Vec<u64> = (0..2)
        .map(|i| counter(&cluster, i, "dpq_net_paced_holds"))
        .collect();
    let anchor = holds
        .iter()
        .position(|&h| h > 0)
        .unwrap_or_else(|| panic!("no node paced an idle second: {holds:?}"));
    assert_eq!(holds[1 - anchor], 0, "only the anchor paces: {holds:?}");

    // Work at either node still gets through.
    issue(&cluster, 1 - anchor, CtlReq::Dequeue);
    cluster.wait_all_complete(QUIESCE);
    issue(
        &cluster,
        anchor,
        CtlReq::Enqueue {
            prio: 9,
            payload: 7,
        },
    );
    cluster.wait_all_complete(QUIESCE);
    cluster.shutdown();
}

#[test]
fn skeap_and_kselect_are_never_paced() {
    let mut skeap = ClusterSpec::new("pace-skeap", ProtoId::Skeap, 2, 83);
    skeap.extra = ["--n-prios", "4"].map(String::from).to_vec();
    let mut kselect = ClusterSpec::new("pace-ksel", ProtoId::KSelect, 2, 89);
    kselect.extra = ["--m", "16", "--k", "5"].map(String::from).to_vec();
    for spec in [skeap, kselect] {
        let mut cluster = Cluster::spawn(spec);
        std::thread::sleep(Duration::from_millis(500));
        for i in 0..2 {
            assert_eq!(counter(&cluster, i, "dpq_net_paced_holds"), 0, "node {i}");
        }
        cluster.shutdown();
    }
}
