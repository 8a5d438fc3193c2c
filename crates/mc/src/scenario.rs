//! The small-N scenario suites the checker explores.
//!
//! Every scenario is a *closed* system: a fixed cluster, a fixed workload
//! injected up front, and a fixed fault plan — so a run is a pure function
//! of the delivery-decision sequence and any violation is reproducible from
//! its `schedule.json` alone. Sizes follow the issue brief (3–5 nodes,
//! 6–12 operations): small enough that the interesting interleavings are
//! within DFS reach, large enough that batches, waves, and the DHT all
//! participate.

use crate::drive::{drive, RunReport};
use crate::policy::{ScriptPolicy, Tail};
use dpq_core::workload::{generate, WorkloadSpec};
use dpq_core::{History, Key, StateHash};
use dpq_semantics::{check_conservation, check_local_consistency, replay, ReplayMode};
use dpq_sim::{AsyncConfig, FaultPlan, QueueNode, Reliable};
use kselect::driver::{random_candidates, sequential_select};
use kselect::{KSelectConfig, KSelectNode};

/// The adversary configuration every scenario runs under: frequent sweeps
/// keep defer-heavy schedules progressing (sweeps are deterministic, not
/// choice points).
pub fn mc_config() -> AsyncConfig {
    AsyncConfig {
        deliver_bias: 0.6, // unused by scripted policies
        sweep_every: 8,
    }
}

/// A model-checkable system: builds itself from scratch for every schedule.
pub trait Scenario {
    /// Registry name (also the `--scenario` CLI argument).
    fn name(&self) -> &'static str;

    /// One-line description for `dpq-mc list`.
    fn describe(&self) -> String;

    /// Execute one schedule: follow `script`, continue per `tail`, stop at
    /// the first post-script choice point when `stop_at_frontier` (the DFS
    /// expansion probe) or run to quiescence / the `max_steps` stall bound
    /// otherwise. Terminal states are judged by the scenario's oracles.
    fn run(
        &self,
        script: &[usize],
        tail: Tail,
        stop_at_frontier: bool,
        max_steps: u64,
    ) -> RunReport;

    /// Step budget after which a run counts as stalled (liveness).
    fn max_steps(&self) -> u64 {
        100_000
    }
}

// ---------------------------------------------------------------- oracles

/// A queue cluster's terminal verdict: per-node order, the protocol's own
/// ordering oracle, then element conservation.
fn judge_queue<Q: QueueNode>(
    nodes: &[Q],
    order: fn(&History) -> Result<(), String>,
) -> Option<String> {
    let history = dpq_sim::history(nodes);
    check_local_consistency(&history)
        .map_err(|v| v.to_string())
        .and_then(|()| order(&history))
        .and_then(|()| check_conservation(&history, &dpq_sim::residual(nodes)))
        .err()
}

fn judge_kselect(nodes: &[&KSelectNode], expected: Key) -> Option<String> {
    nodes.iter().enumerate().find_map(|(i, n)| match n.result {
        None => Some(format!("liveness: node {i} never learned a result")),
        Some(k) if k != expected => Some(format!(
            "node {i} announced rank-k key {:?}, sequential answer is {:?}",
            k, expected
        )),
        _ => None,
    })
}

// ------------------------------------------------------------- scenarios

/// Drop/duplicate fault layer shared by every `*_drops` scenario: lossy
/// enough to exercise retransmission paths, seeded so runs stay pure
/// functions of the decision sequence.
#[derive(Debug, Clone, Copy)]
struct Drops {
    drop_p: f64,
    dup_p: f64,
    seed: u64,
    /// Retransmission timeout of the [`Reliable`] wrapper, in steps.
    timeout: u64,
}

impl Drops {
    fn plan(&self) -> FaultPlan {
        FaultPlan::uniform(self.seed, self.drop_p, self.dup_p)
    }
}

const DEFAULT_DROPS: Drops = Drops {
    drop_p: 0.15,
    dup_p: 0.1,
    seed: 0xD0_05,
    timeout: 24,
};

/// A Skeap or Seap scenario: the two differ only in how the cluster is
/// built and fed, and in which ordering oracle judges the history.
struct QueueScenario<Q> {
    name: &'static str,
    /// `"Skeap, 4 nodes x 2 ops, |P|=3"`.
    head: String,
    spec: WorkloadSpec,
    drops: Option<Drops>,
    /// Build the cluster and inject the spec's workload.
    build: fn(&WorkloadSpec) -> Vec<Q>,
    order: fn(&History) -> Result<(), String>,
}

fn skeap(name: &'static str, spec: WorkloadSpec, drops: Option<Drops>) -> Box<dyn Scenario> {
    Box::new(QueueScenario {
        name,
        head: format!(
            "Skeap, {} nodes x {} ops, |P|={}",
            spec.n, spec.ops_per_node, spec.n_prios
        ),
        spec,
        drops,
        build: |spec| {
            let mut nodes = skeap::cluster::build(spec.n, spec.n_prios as usize, spec.seed);
            skeap::cluster::inject_all(&mut nodes, &generate(spec));
            nodes
        },
        order: |h| {
            replay(h, ReplayMode::Fifo)
                .map(drop)
                .map_err(|v| v.to_string())
        },
    })
}

fn seap(name: &'static str, spec: WorkloadSpec, drops: Option<Drops>) -> Box<dyn Scenario> {
    Box::new(QueueScenario {
        name,
        head: format!("Seap, {} nodes x {} ops", spec.n, spec.ops_per_node),
        spec,
        drops,
        build: |spec| {
            let mut nodes = seap::cluster::build(spec.n, spec.seed);
            seap::cluster::inject_all(&mut nodes, &generate(spec));
            nodes
        },
        order: |h| seap::checker::check_seap_history(h).map_err(|v| v.to_string()),
    })
}

impl<Q> QueueScenario<Q> {
    fn drive<R: QueueNode + StateHash>(
        &self,
        nodes: Vec<R>,
        plan: FaultPlan,
        script: &[usize],
        tail: Tail,
        stop_at_frontier: bool,
        max_steps: u64,
    ) -> RunReport
    where
        R::Msg: Clone,
    {
        drive(
            nodes,
            mc_config(),
            plan,
            ScriptPolicy::new(script.to_vec(), tail),
            stop_at_frontier,
            max_steps,
            |ns: &[R]| ns.iter().all(R::all_complete),
            |ns| judge_queue(ns, self.order),
        )
    }
}

impl<Q: QueueNode + StateHash> Scenario for QueueScenario<Q>
where
    Q::Msg: Clone,
{
    fn name(&self) -> &'static str {
        self.name
    }

    fn describe(&self) -> String {
        let faults = if self.drops.is_some() {
            ", drop/dup faults"
        } else {
            ""
        };
        format!("{}{faults}", self.head)
    }

    fn run(
        &self,
        script: &[usize],
        tail: Tail,
        stop_at_frontier: bool,
        max_steps: u64,
    ) -> RunReport {
        let nodes = (self.build)(&self.spec);
        match self.drops {
            None => self.drive(
                nodes,
                FaultPlan::none(),
                script,
                tail,
                stop_at_frontier,
                max_steps,
            ),
            Some(d) => self.drive(
                Reliable::wrap_all(nodes, d.timeout),
                d.plan(),
                script,
                tail,
                stop_at_frontier,
                max_steps,
            ),
        }
    }
}

struct KSelectScenario {
    name: &'static str,
    n: usize,
    m: u64,
    k: u64,
    prio_space: u64,
    seed: u64,
    drops: Option<Drops>,
}

impl Scenario for KSelectScenario {
    fn name(&self) -> &'static str {
        self.name
    }

    fn describe(&self) -> String {
        format!(
            "KSelect, {} nodes, m={}, k={}{}",
            self.n,
            self.m,
            self.k,
            if self.drops.is_some() {
                ", drop/dup faults"
            } else {
                ""
            }
        )
    }

    fn run(
        &self,
        script: &[usize],
        tail: Tail,
        stop_at_frontier: bool,
        max_steps: u64,
    ) -> RunReport {
        let per_node = random_candidates(self.n, self.m, self.prio_space, self.seed);
        let expected = sequential_select(&per_node, self.k);
        let nodes = kselect::driver::build(
            self.n,
            per_node,
            self.k,
            KSelectConfig::default(),
            self.seed,
        );
        let policy = ScriptPolicy::new(script.to_vec(), tail);
        match self.drops {
            None => drive(
                nodes,
                mc_config(),
                FaultPlan::none(),
                policy,
                stop_at_frontier,
                max_steps,
                |ns: &[KSelectNode]| ns.iter().all(|n| n.result.is_some()),
                |ns| judge_kselect(&ns.iter().collect::<Vec<_>>(), expected),
            ),
            Some(d) => drive(
                Reliable::wrap_all(nodes, d.timeout),
                mc_config(),
                d.plan(),
                policy,
                stop_at_frontier,
                max_steps,
                |ns: &[Reliable<KSelectNode>]| ns.iter().all(|n| n.inner().result.is_some()),
                |ns| {
                    judge_kselect(
                        &ns.iter().map(Reliable::inner).collect::<Vec<_>>(),
                        expected,
                    )
                },
            ),
        }
    }
}

/// Every registered scenario, in CLI order.
pub fn all_scenarios() -> Vec<Box<dyn Scenario>> {
    vec![
        skeap(
            "skeap_clean",
            WorkloadSpec {
                n: 4,
                ops_per_node: 2,
                insert_ratio: 0.6,
                n_prios: 3,
                seed: 11,
            },
            None,
        ),
        skeap(
            "skeap_drops",
            WorkloadSpec {
                n: 3,
                ops_per_node: 2,
                insert_ratio: 0.6,
                n_prios: 3,
                seed: 12,
            },
            Some(DEFAULT_DROPS),
        ),
        seap(
            "seap_clean",
            WorkloadSpec {
                n: 4,
                ops_per_node: 2,
                insert_ratio: 0.6,
                n_prios: 4,
                seed: 21,
            },
            None,
        ),
        seap(
            "seap_drops",
            WorkloadSpec {
                n: 3,
                ops_per_node: 2,
                insert_ratio: 0.6,
                n_prios: 4,
                seed: 22,
            },
            Some(DEFAULT_DROPS),
        ),
        Box::new(KSelectScenario {
            name: "kselect_clean",
            n: 4,
            m: 8,
            k: 3,
            prio_space: 16,
            seed: 31,
            drops: None,
        }),
        Box::new(KSelectScenario {
            name: "kselect_drops",
            n: 4,
            m: 6,
            k: 2,
            prio_space: 16,
            seed: 32,
            drops: Some(DEFAULT_DROPS),
        }),
    ]
}

/// Look up a scenario by registry name.
pub fn by_name(name: &str) -> Option<Box<dyn Scenario>> {
    all_scenarios().into_iter().find(|s| s.name() == name)
}
