//! Driver helpers for Seap clusters.

use crate::node::{SeapConfig, SeapNode};
use dpq_core::workload::WorkloadSpec;
use dpq_core::{OpId, OpKind};
use dpq_overlay::{NodeView, Topology};
use dpq_sim::{Outcome, Run, Telemetry, Tracer};

/// Collect the merged history of a cluster.
pub use dpq_sim::history;

/// Build the `n` protocol nodes of a Seap instance.
pub fn build(n: usize, seed: u64) -> Vec<SeapNode> {
    let topo = Topology::new(n, seed);
    SeapNode::build_cluster(NodeView::extract_all(&topo), SeapConfig::new(seed))
}

/// Issue every op of a per-node script up front, returning the issued ids
/// (callers pass them to the scheduler's `note_injected` for latency
/// accounting). Only an insert's priority and payload are taken from the
/// script; the node mints the element id, and the golden histories pin
/// those ids.
pub fn inject_all(nodes: &mut [SeapNode], scripts: &[Vec<OpKind>]) -> Vec<OpId> {
    let mut ids = Vec::new();
    for (node, script) in nodes.iter_mut().zip(scripts) {
        for op in script {
            ids.push(match op {
                OpKind::Insert(e) => node.issue_insert(e.prio.0, e.payload),
                OpKind::DeleteMin => node.issue_delete(),
            });
        }
    }
    ids
}

/// Run a full workload: build the cluster, inject every script up front,
/// drive it as `run` says until every request has completed.
pub fn run<T: Tracer, M: Telemetry>(spec: &WorkloadSpec, run: Run<T, M>) -> Outcome<T, M> {
    let mut nodes = build(spec.n, spec.seed);
    let ids = inject_all(&mut nodes, &dpq_core::workload::generate(spec));
    run.queue(nodes, &ids)
}
