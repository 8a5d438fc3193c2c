//! Drivers: distribute candidates, run KSelect, collect results and stats.

use crate::ctl::{KSelectConfig, KStats};
use crate::node::KSelectNode;
use dpq_core::{DetRng, ElemId, Key, NodeId, Priority};
use dpq_overlay::{tree, NodeView, Topology};
use dpq_sim::{Core, FaultTotals, MetricsSnapshot, Run};

/// Generate `m` candidate keys with priorities drawn uniformly from
/// `0..prio_space` and spread them uniformly at random over `n` nodes — the
/// paper's input model for KSelect (§4).
pub fn random_candidates(n: usize, m: u64, prio_space: u64, seed: u64) -> Vec<Vec<Key>> {
    let mut rng = DetRng::new(seed ^ 0x5EEC);
    let mut per_node: Vec<Vec<Key>> = vec![Vec::new(); n];
    for i in 0..m {
        let v = rng.below(n as u64) as usize;
        let key = Key::new(
            Priority(rng.below(prio_space)),
            ElemId::compose(NodeId(v as u64), i),
        );
        per_node[v].push(key);
    }
    per_node
}

/// The sequential answer: the k-th smallest key (1-based).
pub fn sequential_select(per_node: &[Vec<Key>], k: u64) -> Key {
    let mut all: Vec<Key> = per_node.iter().flatten().copied().collect();
    all.sort_unstable();
    all[k as usize - 1]
}

/// Outcome of one KSelect run.
#[derive(Debug, Clone, Copy)]
pub struct KSelectRun {
    /// The selected rank-k key; `None` when the budget ran out first.
    pub result: Option<Key>,
    /// Did every node learn the result within the budget?
    pub completed: bool,
    /// Rounds (sync) or steps (async) until every node knew the result.
    pub rounds: u64,
    /// Message/congestion metrics of the run.
    pub metrics: MetricsSnapshot,
    /// The anchor controller's statistics.
    pub stats: KStats,
    /// Average number of copy trees a node participated in per sorting
    /// epoch (Lemma 4.5 predicts Θ(1) for Phase-2 epochs).
    pub avg_tree_memberships: f64,
    /// What the fault layer did to the run (all zero without a plan).
    pub faults: FaultTotals,
    /// Retransmissions the transport performed to beat the drops.
    pub retransmits: u64,
    /// Duplicate deliveries the transport suppressed.
    pub dup_suppressed: u64,
}

/// Build the cluster and queue the selection at the anchor.
pub fn build(
    n: usize,
    per_node: Vec<Vec<Key>>,
    k: u64,
    cfg: KSelectConfig,
    seed: u64,
) -> Vec<KSelectNode> {
    let m: u64 = per_node.iter().map(|c| c.len() as u64).sum();
    let topo = Topology::new(n, seed);
    let anchor = tree::anchor_real(&topo);
    let mut nodes: Vec<KSelectNode> = NodeView::extract_all(&topo)
        .into_iter()
        .zip(per_node)
        .map(|(view, c)| KSelectNode::new(view, c, seed ^ 0xC0DE))
        .collect();
    nodes[anchor.index()].queue_start(m, k, cfg);
    nodes
}

/// Has this node learned the selection's result? The completion predicate
/// for [`Run::drive`].
pub fn decided(node: &KSelectNode) -> bool {
    node.result.is_some()
}

/// Read a finished [`Run::drive`] over a [`build`] cluster.
pub fn summarize<T, M>(core: &Core<KSelectNode, T, M>) -> KSelectRun {
    let nodes = &core.nodes;
    // Lemma 4.5 speaks about the *sampled* sorting rounds: exclude the final
    // (Phase 3) epoch, where every remaining candidate roots a copy tree by
    // design. When only the Phase-3 epoch exists (tiny instances), fall back
    // to it.
    let max_epoch = nodes
        .iter()
        .flat_map(|n| n.tree_memberships.keys().copied())
        .max()
        .unwrap_or(1);
    let epochs = if max_epoch > 1 { max_epoch - 1 } else { 1 };
    let total_memberships: usize = nodes
        .iter()
        .map(|n| {
            n.tree_memberships
                .iter()
                .filter(|(e, _)| max_epoch == 1 || **e < max_epoch)
                .map(|(_, s)| s.len())
                .sum::<usize>()
        })
        .sum();
    let stats = nodes
        .iter()
        .find_map(|n| n.ctl.as_ref().map(|c| c.stats))
        .unwrap_or_default();
    KSelectRun {
        result: nodes[0].result.filter(|_| core.completed),
        completed: core.completed,
        rounds: core.time,
        metrics: core.metrics,
        stats,
        avg_tree_memberships: total_memberships as f64 / (nodes.len() as f64 * epochs as f64),
        faults: core.faults,
        retransmits: core.retransmits,
        dup_suppressed: core.dup_suppressed,
    }
}

/// Run a full selection as `run` says. Callers that attach sinks call
/// [`Run::drive`] themselves and [`summarize`] the core.
pub fn run(
    n: usize,
    per_node: Vec<Vec<Key>>,
    k: u64,
    cfg: KSelectConfig,
    seed: u64,
    run: Run,
) -> KSelectRun {
    summarize(&run.drive(build(n, per_node, k, cfg, seed), &[], decided))
}
