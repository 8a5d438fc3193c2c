//! Driver helpers: building Skeap clusters and feeding them workloads.

use crate::node::{SkeapConfig, SkeapNode};
use dpq_core::workload::WorkloadSpec;
use dpq_core::{OpId, OpKind};
use dpq_overlay::{NodeView, Topology};
use dpq_sim::{Outcome, Run, Telemetry, Tracer};

/// Collect the merged history of a cluster.
pub use dpq_sim::history;

/// Build the `n` protocol nodes of a Skeap instance.
pub fn build(n: usize, n_prios: usize, seed: u64) -> Vec<SkeapNode> {
    let topo = Topology::new(n, seed);
    SkeapNode::build_cluster(NodeView::extract_all(&topo), SkeapConfig::fifo(n_prios))
}

/// Issue every op of a per-node script up front, returning the issued ids
/// (callers pass them to the scheduler's `note_injected` for latency
/// accounting).
pub fn inject_all(nodes: &mut [SkeapNode], scripts: &[Vec<OpKind>]) -> Vec<OpId> {
    let mut ids = Vec::new();
    for (node, script) in nodes.iter_mut().zip(scripts) {
        for op in script {
            ids.push(node.issue(*op));
        }
    }
    ids
}

/// Issue up to `rate` ops per node from the scripts. Returns the issued ids
/// and whether any script still has ops left. Used for injection-rate (λ)
/// experiments.
pub fn inject_rate(
    nodes: &mut [SkeapNode],
    scripts: &[Vec<OpKind>],
    cursor: &mut [usize],
    rate: usize,
) -> (Vec<OpId>, bool) {
    let mut ids = Vec::new();
    let mut any_left = false;
    for ((node, script), cur) in nodes.iter_mut().zip(scripts).zip(cursor.iter_mut()) {
        let end = (*cur + rate).min(script.len());
        for op in &script[*cur..end] {
            ids.push(node.issue(*op));
        }
        *cur = end;
        any_left |= *cur < script.len();
    }
    (ids, any_left)
}

/// Run a full workload: build the cluster, inject every script up front,
/// drive it as `run` says until every request has completed.
pub fn run<T: Tracer, M: Telemetry>(
    spec: &WorkloadSpec,
    n_prios: usize,
    run: Run<T, M>,
) -> Outcome<T, M> {
    let mut nodes = build(spec.n, n_prios, spec.seed);
    let ids = inject_all(&mut nodes, &dpq_core::workload::generate(spec));
    run.queue(nodes, &ids)
}
