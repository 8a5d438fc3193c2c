//! Multi-process test harness: spawn a loopback cluster of `dpq-node` OS
//! processes, drive a workload through the control plane, and feed the
//! dumped traces to the same oracles the simulator tests use.

// Shared by several test binaries, each of which uses a subset of the
// helpers; the unused remainder differs per binary.
#![allow(dead_code)]

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use dpq_core::{Element, History, NodeHistory, OpKind};
use dpq_net::ctl::{CtlClient, CtlReq, CtlResp, StatusInfo};
use dpq_net::trace::parse_trace;
use dpq_net::{cluster_fingerprint, gossip_fingerprint, Addr, ProtoId};

/// Which transport the cluster runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    Uds,
    Tcp,
}

/// Cluster parameters.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    pub name: &'static str,
    pub proto: ProtoId,
    pub n: usize,
    pub seed: u64,
    pub transport: Transport,
    pub wal: bool,
    /// Extra per-node flags, e.g. `["--n-prios", "4"]`.
    pub extra: Vec<String>,
}

impl ClusterSpec {
    pub fn new(name: &'static str, proto: ProtoId, n: usize, seed: u64) -> Self {
        ClusterSpec {
            name,
            proto,
            n,
            seed,
            transport: Transport::Uds,
            wal: false,
            extra: Vec::new(),
        }
    }
}

/// A running cluster. Children are killed on drop, so a panicking test
/// cannot leak daemons.
pub struct Cluster {
    pub spec: ClusterSpec,
    pub dir: PathBuf,
    pub fingerprint: u64,
    pub ctl_addrs: Vec<Addr>,
    node_args: Vec<Vec<String>>,
    procs: Vec<Option<Child>>,
}

impl Cluster {
    /// Spawn all `n` daemons and wait until every control plane answers.
    pub fn spawn(spec: ClusterSpec) -> Cluster {
        let dir =
            std::env::temp_dir().join(format!("dpq-wire-{}-{}", std::process::id(), spec.name));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create cluster temp dir");

        // Address plan. For TCP, reserve ports by binding to :0 and
        // releasing them (std listeners take SO_REUSEADDR, so the respawn
        // racing a TIME_WAIT socket is fine).
        let (listen, ctl): (Vec<Addr>, Vec<Addr>) = match spec.transport {
            Transport::Uds => (0..spec.n)
                .map(|i| {
                    (
                        Addr::Uds(dir.join(format!("n{i}.sock"))),
                        Addr::Uds(dir.join(format!("n{i}.ctl"))),
                    )
                })
                .unzip(),
            Transport::Tcp => {
                let holds: Vec<std::net::TcpListener> = (0..spec.n * 2)
                    .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("reserve port"))
                    .collect();
                let ports: Vec<u16> = holds
                    .iter()
                    .map(|l| l.local_addr().unwrap().port())
                    .collect();
                drop(holds);
                (0..spec.n)
                    .map(|i| {
                        (
                            Addr::Tcp(format!("127.0.0.1:{}", ports[2 * i])),
                            Addr::Tcp(format!("127.0.0.1:{}", ports[2 * i + 1])),
                        )
                    })
                    .unzip()
            }
        };

        let mut node_args = Vec::new();
        for i in 0..spec.n {
            let mut args: Vec<String> = vec![
                "--proto".into(),
                spec.proto.name().into(),
                "--n".into(),
                spec.n.to_string(),
                "--id".into(),
                i.to_string(),
                "--seed".into(),
                spec.seed.to_string(),
                "--listen".into(),
                listen[i].to_string(),
                "--ctl".into(),
                ctl[i].to_string(),
                "--rto".into(),
                "16".into(),
                "--tick-ms".into(),
                "2".into(),
                "--trace".into(),
                dir.join(format!("n{i}.jsonl")).display().to_string(),
            ];
            for (j, addr) in listen.iter().enumerate() {
                if j != i {
                    args.push("--peer".into());
                    args.push(format!("{j}={addr}"));
                }
            }
            if spec.wal {
                args.push("--wal".into());
                args.push(dir.join(format!("n{i}.wal")).display().to_string());
            }
            args.extend(spec.extra.iter().cloned());
            node_args.push(args);
        }

        let mut fingerprint = cluster_fingerprint(spec.proto, spec.n, spec.seed);
        if spec.extra.iter().any(|f| f == "--gossip") {
            fingerprint = gossip_fingerprint(fingerprint);
        }
        let mut cluster = Cluster {
            spec,
            dir,
            fingerprint,
            ctl_addrs: ctl,
            node_args,
            procs: Vec::new(),
        };
        for i in 0..cluster.spec.n {
            let child = cluster.launch(i);
            cluster.procs.push(Some(child));
        }
        // Every daemon must answer a status before the test proceeds.
        for i in 0..cluster.spec.n {
            cluster.status(i);
        }
        cluster
    }

    fn launch(&self, i: usize) -> Child {
        Command::new(env!("CARGO_BIN_EXE_dpq-node"))
            .args(&self.node_args[i])
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn dpq-node")
    }

    /// A fresh control connection to node `i` (retries while it boots).
    pub fn client(&self, i: usize) -> CtlClient {
        CtlClient::connect_retry(
            &self.ctl_addrs[i],
            self.fingerprint,
            Duration::from_secs(10),
        )
        .unwrap_or_else(|e| panic!("connect ctl of node {i}: {e}"))
    }

    pub fn status(&self, i: usize) -> StatusInfo {
        match self.client(i).request(&CtlReq::Status) {
            Ok(CtlResp::Status(s)) => s,
            other => panic!("status of node {i}: {other:?}"),
        }
    }

    /// The process id of every running daemon, by node.
    pub fn pids(&self) -> Vec<u32> {
        self.procs.iter().flatten().map(Child::id).collect()
    }

    /// SIGKILL node `i` — no grace, no flush; the WAL is the only survivor.
    pub fn kill(&mut self, i: usize) {
        if let Some(mut child) = self.procs[i].take() {
            child.kill().expect("kill dpq-node");
            child.wait().expect("reap dpq-node");
        }
    }

    /// Restart node `i` with its original flag vector.
    pub fn restart(&mut self, i: usize) {
        assert!(self.procs[i].is_none(), "node {i} still running");
        self.procs[i] = Some(self.launch(i));
        self.status(i); // wait until it answers
    }

    /// Poll every node until its issued ops are complete (and, for KSelect,
    /// a result is announced). Panics with full cluster state on timeout.
    pub fn wait_all_complete(&self, deadline: Duration) {
        let end = Instant::now() + deadline;
        let mut clients: Vec<CtlClient> = (0..self.spec.n).map(|i| self.client(i)).collect();
        loop {
            let statuses: Vec<StatusInfo> = clients
                .iter_mut()
                .enumerate()
                .map(|(i, c)| match c.request(&CtlReq::Status) {
                    Ok(CtlResp::Status(s)) => s,
                    other => panic!("status of node {i}: {other:?}"),
                })
                .collect();
            if statuses.iter().all(|s| s.all_complete) {
                return;
            }
            assert!(
                Instant::now() < end,
                "cluster did not quiesce within {deadline:?}: {statuses:#?}"
            );
            std::thread::sleep(Duration::from_millis(40));
        }
    }

    /// Ask every node to dump its trace, then parse and merge them into a
    /// cluster history plus the combined residual element set.
    pub fn collect_history(&self) -> (History, Vec<Element>) {
        let mut nodes = Vec::new();
        let mut residual = Vec::new();
        for i in 0..self.spec.n {
            match self.client(i).request(&CtlReq::Dump) {
                Ok(CtlResp::Dumped { .. }) => {}
                other => panic!("dump of node {i}: {other:?}"),
            }
            let path = self.dir.join(format!("n{i}.jsonl"));
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read trace {}: {e}", path.display()));
            let (records, res) = parse_trace(&text).expect("parse trace");
            nodes.push(NodeHistory { ops: records });
            residual.extend(res);
        }
        (History::merge(nodes), residual)
    }

    /// Sum of reliable-layer retransmissions across live nodes.
    pub fn total_retransmits(&self) -> u64 {
        (0..self.spec.n).map(|i| self.status(i).retransmits).sum()
    }

    /// Graceful shutdown of every still-running daemon.
    pub fn shutdown(&mut self) {
        for i in 0..self.spec.n {
            if self.procs[i].is_some() {
                if let Ok(CtlResp::Bye) = self.client(i).request(&CtlReq::Shutdown) {
                    if let Some(mut child) = self.procs[i].take() {
                        let _ = child.wait();
                    }
                }
            }
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for p in self.procs.iter_mut() {
            if let Some(mut child) = p.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Drive a generated workload through the cluster's control planes,
/// round-robin across nodes so traffic interleaves.
pub fn drive_workload(cluster: &Cluster, scripts: &[Vec<OpKind>]) {
    let mut clients: Vec<CtlClient> = (0..cluster.spec.n).map(|i| cluster.client(i)).collect();
    let ops_per_node = scripts.iter().map(Vec::len).max().unwrap_or(0);
    for round in 0..ops_per_node {
        for (i, script) in scripts.iter().enumerate() {
            let Some(op) = script.get(round) else {
                continue;
            };
            let req = match op {
                OpKind::Insert(e) => CtlReq::Enqueue {
                    prio: e.prio.0,
                    payload: e.payload,
                },
                OpKind::DeleteMin => CtlReq::Dequeue,
            };
            match clients[i].request(&req) {
                Ok(CtlResp::Issued { .. }) => {}
                other => panic!("issue {op:?} at node {i}: {other:?}"),
            }
        }
    }
}

/// Element conservation, by the one oracle every tier calls.
pub fn check_conservation(history: &History, residual: Vec<Element>) {
    dpq_semantics::check_conservation(history, &residual).unwrap_or_else(|e| panic!("{e}"));
}

/// The balanced workload the conformance tests run (a small E1-style mix).
pub fn balanced_scripts(
    n: usize,
    ops_per_node: usize,
    n_prios: u64,
    seed: u64,
) -> Vec<Vec<OpKind>> {
    dpq_core::workload::generate(&dpq_core::workload::WorkloadSpec::balanced(
        n,
        ops_per_node,
        n_prios,
        seed,
    ))
}
