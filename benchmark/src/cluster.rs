//! A loopback cluster of real `dpq-node` OS processes, and the hygiene
//! around it: children die with the harness (drop, panic, timeout), and run
//! directories live under `benchmark/out/` with relative socket paths so
//! the 108-byte UDS limit cannot bite in a deep checkout.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use dpq_net::ctl::{CtlClient, CtlReq, CtlResp, StatusInfo};
use dpq_net::{cluster_fingerprint, Addr, ProtoId};

/// Where run directories, span files and per-run results go.
pub const OUT_DIR: &str = "benchmark/out";

/// Node flags shared by every wire workload (stated in the run's output).
pub const TICK_MS: u64 = 2;
/// Reliable-layer retransmission timeout, ticks.
pub const RTO_TICKS: u64 = 16;
/// Deployment seed of the node processes. Fixed: the workload seed shapes
/// the requests, never the cluster.
pub const NODE_SEED: u64 = 42;

/// How often a starting node is asked for its first `Status`. A node without
/// a WAL is up in 3 ms, so a 1 ms period would decide a third of the reading.
const UP_POLL: Duration = Duration::from_micros(250);

/// Prefix of every run directory, and — because socket paths are relative
/// to it — the marker the stale sweep looks for in `dpq-node` command lines.
pub const RUN_MARKER: &str = "benchmark/out/run-";

/// This harness process's run directory, `benchmark/out/run-<pid>`.
pub fn run_dir() -> PathBuf {
    PathBuf::from(format!("{RUN_MARKER}{}", std::process::id()))
}

/// Shape of one cluster.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Protocol the nodes run.
    pub proto: ProtoId,
    /// Number of processes.
    pub n: usize,
    /// `--wal` on every node.
    pub wal: bool,
    /// Skeap's `--n-prios` (ignored by Seap).
    pub n_prios: u64,
}

/// A running cluster. Dropping it kills and reaps every child and removes
/// its directory, which is also what a panic unwinding through it does.
pub struct Cluster {
    /// The shape it was spawned with.
    pub spec: ClusterSpec,
    /// Its directory under the run directory.
    pub dir: PathBuf,
    fingerprint: u64,
    ctl_addrs: Vec<Addr>,
    node_args: Vec<Vec<String>>,
    procs: Vec<Option<Child>>,
    node_bin: PathBuf,
}

impl Cluster {
    /// Spawn all daemons and wait until every control plane answers.
    pub fn spawn(spec: ClusterSpec, node_bin: &Path, tag: &str) -> Result<Cluster, String> {
        let dir = run_dir().join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let listen: Vec<String> = (0..spec.n)
            .map(|i| format!("uds:{}", dir.join(format!("n{i}.sock")).display()))
            .collect();
        let ctl_addrs: Vec<Addr> = (0..spec.n)
            .map(|i| Addr::Uds(dir.join(format!("n{i}.ctl"))))
            .collect();
        let mut node_args = Vec::new();
        for i in 0..spec.n {
            let mut args: Vec<String> = [
                "--proto",
                spec.proto.name(),
                "--n",
                &spec.n.to_string(),
                "--id",
                &i.to_string(),
                "--seed",
                &NODE_SEED.to_string(),
                "--n-prios",
                &spec.n_prios.to_string(),
                "--listen",
                &listen[i],
                "--ctl",
                &ctl_addrs[i].to_string(),
                "--rto",
                &RTO_TICKS.to_string(),
                "--tick-ms",
                &TICK_MS.to_string(),
                "--trace",
                &dir.join(format!("n{i}.jsonl")).display().to_string(),
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
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
            node_args.push(args);
        }
        let mut cluster = Cluster {
            fingerprint: cluster_fingerprint(spec.proto, spec.n, NODE_SEED),
            spec,
            dir,
            ctl_addrs,
            node_args,
            procs: Vec::new(),
            node_bin: node_bin.to_path_buf(),
        };
        for i in 0..cluster.spec.n {
            let child = cluster.launch(i)?;
            cluster.procs.push(Some(child));
        }
        for i in 0..cluster.spec.n {
            cluster.wait_status(i, Duration::from_secs(10))?;
        }
        Ok(cluster)
    }

    fn launch(&self, i: usize) -> Result<Child, String> {
        Command::new(&self.node_bin)
            .args(&self.node_args[i])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", self.node_bin.display()))
    }

    /// Poll node `i` every [`UP_POLL`] until a `Status` request is answered.
    fn wait_status(&self, i: usize, wait: Duration) -> Result<(), String> {
        let deadline = Instant::now() + wait;
        loop {
            if let Ok(mut c) = CtlClient::connect(&self.ctl_addrs[i], self.fingerprint) {
                if let Ok(CtlResp::Status(_)) = c.request(&CtlReq::Status) {
                    return Ok(());
                }
            }
            if Instant::now() >= deadline {
                return Err(format!("node {i} did not answer Status within {wait:?}"));
            }
            std::thread::sleep(UP_POLL);
        }
    }

    /// A fresh control connection to node `i`.
    pub fn client(&self, i: usize) -> Result<CtlClient, String> {
        CtlClient::connect(&self.ctl_addrs[i], self.fingerprint)
            .map_err(|e| format!("connect ctl of node {i}: {e}"))
    }

    /// One `Status` over a fresh connection.
    pub fn status(&self, i: usize) -> Result<StatusInfo, String> {
        match self.client(i)?.request(&CtlReq::Status) {
            Ok(CtlResp::Status(s)) => Ok(s),
            other => Err(format!("status of node {i}: {other:?}")),
        }
    }

    /// Pids of the running nodes.
    pub fn pids(&self) -> Vec<u32> {
        self.procs.iter().flatten().map(Child::id).collect()
    }

    /// SIGKILL node `i`, restart it with its original flags, and return the
    /// time from the kill to its first `Status` reply.
    pub fn kill_restart(&mut self, i: usize) -> Result<Duration, String> {
        let mut child = self.procs[i].take().ok_or("node already down")?;
        let t0 = Instant::now();
        child.kill().map_err(|e| format!("kill node {i}: {e}"))?;
        child.wait().map_err(|e| format!("reap node {i}: {e}"))?;
        self.procs[i] = Some(self.launch(i)?);
        self.wait_status(i, Duration::from_secs(30))?;
        Ok(t0.elapsed())
    }

    /// Path of node `i`'s WAL (present only for `--wal` clusters).
    pub fn wal_path(&self, i: usize) -> PathBuf {
        self.dir.join(format!("n{i}.wal"))
    }

    /// Path node `i` dumps its JSONL op trace to.
    pub fn trace_path(&self, i: usize) -> PathBuf {
        self.dir.join(format!("n{i}.jsonl"))
    }

    /// Ask every node but `keep` to exit and reap it. The directory (WAL
    /// files) stays until the cluster is dropped; whatever did not answer
    /// is killed then.
    pub fn shutdown(&mut self, keep: Option<usize>) {
        for i in (0..self.spec.n).filter(|&i| Some(i) != keep) {
            if self.procs[i].is_none() {
                continue;
            }
            let bye = self
                .client(i)
                .ok()
                .and_then(|mut c| c.request(&CtlReq::Shutdown).ok());
            // Only a node that said Bye is taken off the kill list.
            if let Some(CtlResp::Bye) = bye {
                if let Some(mut child) = self.procs[i].take() {
                    let _ = child.wait();
                }
            }
        }
    }

    fn stop_all(&mut self) {
        for p in self.procs.iter_mut() {
            if let Some(mut child) = p.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.stop_all();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The hard per-workload timeout: after `limit`, kill this run's daemons by
/// their command-line marker and exit 3. A detached thread on purpose — it
/// must fire even when the main thread is stuck in a blocking read.
pub fn arm_watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("ledger: hard timeout after {limit:?}; killing this run's nodes");
        let marker = format!("{}/", run_dir().display());
        crate::procfs::sweep_stale(Path::new(OUT_DIR), &marker);
        std::process::exit(3);
    });
}
