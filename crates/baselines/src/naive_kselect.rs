//! Naive distributed k-selection: ship every candidate to the root.
//!
//! The "generic algorithm" viewpoint of the related work (\[KLW07\] in §1.3)
//! only compares elements; the cheapest such strategy over a tree is to
//! gather all candidate keys at the root and select locally. It finishes in
//! O(log n) rounds too — but its messages near the root carry Θ(N) keys,
//! i.e. Θ(N log N) bits, against KSelect's O(log n). Experiment B2 plots
//! exactly that gap.

use dpq_core::{Key, NodeId};
use dpq_overlay::NodeView;
use dpq_sim::{Ctx, Protocol};

/// Up-wave payload: a bag of candidate keys.
#[derive(Debug, Clone)]
pub struct KeyBag(pub Vec<Key>);

dpq_core::wire!(struct KeyBag(v));

/// One node of the gather-to-root selection.
pub struct NaiveSelectNode {
    /// Local topology knowledge.
    pub view: NodeView,
    /// This node's local candidates.
    pub candidates: Vec<Key>,
    /// Rank to select (1-based), known at every node for simplicity.
    pub k: u64,
    received: Vec<Key>,
    reports_pending: usize,
    sent: bool,
    /// The selected key (set at the anchor).
    pub result: Option<Key>,
}

impl NaiveSelectNode {
    /// A participant holding `candidates`, selecting rank `k`.
    pub fn new(view: NodeView, candidates: Vec<Key>, k: u64) -> Self {
        let reports_pending = view.children().len();
        NaiveSelectNode {
            view,
            candidates,
            k,
            received: Vec::new(),
            reports_pending,
            sent: false,
            result: None,
        }
    }

    fn try_report(&mut self, ctx: &mut Ctx<KeyBag>) {
        if self.sent || self.reports_pending > 0 {
            return;
        }
        self.sent = true;
        let mut all = std::mem::take(&mut self.received);
        all.extend_from_slice(&self.candidates);
        match self.view.parent() {
            Some(p) => ctx.send(p, KeyBag(all)),
            None => {
                // Root: select sequentially.
                all.sort_unstable();
                self.result = all.get(self.k as usize - 1).copied();
            }
        }
    }
}

impl Protocol for NaiveSelectNode {
    type Msg = KeyBag;

    fn on_activate(&mut self, ctx: &mut Ctx<KeyBag>) {
        self.try_report(ctx);
    }

    fn on_message(&mut self, _from: NodeId, msg: KeyBag, ctx: &mut Ctx<KeyBag>) {
        self.received.extend(msg.0);
        self.reports_pending -= 1;
        self.try_report(ctx);
    }

    fn done(&self) -> bool {
        self.sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpq_core::{DetRng, ElemId, Priority};
    use dpq_overlay::{tree, Topology};
    use dpq_sim::SyncScheduler;

    fn run(n: usize, per_node: usize, k: u64, seed: u64) -> (Key, dpq_sim::MetricsSnapshot) {
        let topo = Topology::new(n, seed);
        let mut rng = DetRng::new(seed ^ 0xAB);
        let mut all: Vec<Key> = Vec::new();
        let nodes: Vec<NaiveSelectNode> = dpq_overlay::NodeView::extract_all(&topo)
            .into_iter()
            .map(|view| {
                let cands: Vec<Key> = (0..per_node)
                    .map(|i| {
                        Key::new(
                            Priority(rng.below(1 << 20)),
                            ElemId::compose(view.me(), i as u64),
                        )
                    })
                    .collect();
                all.extend_from_slice(&cands);
                NaiveSelectNode::new(view, cands, k)
            })
            .collect();
        let anchor = tree::anchor_real(&topo);
        let mut sched = SyncScheduler::new(nodes);
        let out = sched.run_until_quiescent(10_000);
        assert!(out.is_quiescent());
        all.sort_unstable();
        let expect = all[k as usize - 1];
        let got = sched.node(anchor).result.expect("anchor selected");
        assert_eq!(got, expect);
        (got, sched.metrics.snapshot())
    }

    #[test]
    fn selects_the_true_kth_smallest() {
        run(12, 8, 17, 71);
        run(5, 3, 1, 72);
        run(5, 3, 15, 73);
    }

    #[test]
    fn message_bits_grow_linearly_with_candidates() {
        let (_, small) = run(16, 4, 5, 74);
        let (_, large) = run(16, 64, 5, 74);
        // 16× the candidates → roughly 16× the max message size; demand ≥ 6×.
        assert!(large.max_msg_bits > 6 * small.max_msg_bits);
    }
}
