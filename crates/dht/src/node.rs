//! A self-contained DHT node protocol: router + shard + client.
//!
//! This is the standalone wiring used by the DHT's own end-to-end tests and
//! by experiment E12 (Lemma 2.2(iii)/(iv): request hops and storage
//! fairness). Skeap and Seap embed the same three components inside their
//! richer message enums.

use crate::client::{Completion, DhtClient};
use crate::msgs::{point_for, DhtReq, DhtResp};
use crate::shard::DhtShard;
use dpq_core::{Element, NodeId};
use dpq_overlay::routing::{advance, RouteMsg, RouteOutcome};
use dpq_overlay::NodeView;
use dpq_sim::{Ctx, Protocol};

/// Wire alphabet of the standalone DHT protocol.
#[derive(Debug, Clone)]
pub enum DhtWire {
    /// A request being routed to its key's manager.
    Route(RouteMsg<DhtReq>),
    /// A response returning to the requester.
    Resp(DhtResp),
}

dpq_core::wire!(enum DhtWire { 0 => Route(m), 1 => Resp(r) });

/// One node running only the DHT.
pub struct DhtNode {
    /// Local topology knowledge.
    pub view: NodeView,
    /// The key segments this node stores.
    pub shard: DhtShard,
    /// Outstanding-request bookkeeping.
    pub client: DhtClient,
    /// Completed requests, in completion order.
    pub completions: Vec<Completion>,
    /// Requests queued locally, sent at the next activation (the paper's
    /// nodes act "upon activation").
    queue: Vec<(f64, DhtReq)>,
}

impl DhtNode {
    /// A fresh node over the given view.
    pub fn new(view: NodeView) -> Self {
        DhtNode {
            view,
            shard: DhtShard::new(),
            client: DhtClient::new(),
            completions: Vec::new(),
            queue: Vec::new(),
        }
    }

    /// Queue a Put of `elem` under `logical` within hash `domain`.
    pub fn enqueue_put(&mut self, domain: u64, logical: u64, elem: Element, token: u64) {
        let req = self.client.put(self.view.me(), logical, elem, token);
        self.queue.push((point_for(domain, logical), req));
    }

    /// Queue a Get of `logical` within hash `domain`.
    pub fn enqueue_get(&mut self, domain: u64, logical: u64, token: u64) {
        let req = self.client.get(self.view.me(), logical, token);
        self.queue.push((point_for(domain, logical), req));
    }

    fn dispatch(&mut self, msg: RouteMsg<DhtReq>, ctx: &mut Ctx<DhtWire>) {
        match advance(&self.view, msg) {
            RouteOutcome::Delivered { payload, .. } => {
                for (to, resp) in self.shard.handle(payload) {
                    ctx.send(to, DhtWire::Resp(resp));
                }
            }
            RouteOutcome::Forward { to, msg } => ctx.send(to, DhtWire::Route(msg)),
        }
    }
}

impl Protocol for DhtNode {
    type Msg = DhtWire;

    fn on_activate(&mut self, ctx: &mut Ctx<DhtWire>) {
        for (point, req) in std::mem::take(&mut self.queue) {
            let msg = RouteMsg::start(self.view.me(), point, req);
            self.dispatch(msg, ctx);
        }
    }

    fn on_message(&mut self, _from: NodeId, msg: DhtWire, ctx: &mut Ctx<DhtWire>) {
        match msg {
            DhtWire::Route(m) => self.dispatch(m, ctx),
            DhtWire::Resp(r) => {
                let c = self.client.on_response(&r);
                self.completions.push(c);
            }
        }
    }

    fn done(&self) -> bool {
        self.queue.is_empty() && self.client.idle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpq_core::hashing::domains;
    use dpq_core::{DetRng, ElemId, Priority};
    use dpq_overlay::Topology;
    use dpq_sim::{AsyncScheduler, SyncScheduler};

    fn cluster(n: usize, seed: u64) -> Vec<DhtNode> {
        let topo = Topology::new(n, seed);
        NodeView::extract_all(&topo)
            .into_iter()
            .map(DhtNode::new)
            .collect()
    }

    fn elem(node: u64, seq: u64) -> Element {
        Element::new(ElemId::compose(NodeId(node), seq), Priority(seq), 0)
    }

    #[test]
    fn puts_then_gets_roundtrip_synchronously() {
        let mut sched = SyncScheduler::new(cluster(16, 40));
        let m = 64u64;
        for k in 0..m {
            let v = (k % 16) as usize;
            sched.nodes_mut()[v].enqueue_put(domains::SKEAP_KEY, k, elem(v as u64, k), k);
        }
        assert!(sched.run_until_quiescent(500).is_quiescent());
        for k in 0..m {
            let v = ((k + 5) % 16) as usize;
            sched.nodes_mut()[v].enqueue_get(domains::SKEAP_KEY, k, k);
        }
        assert!(sched.run_until_quiescent(500).is_quiescent());
        let got: usize = sched
            .nodes()
            .iter()
            .map(|n| {
                n.completions
                    .iter()
                    .filter(|c| matches!(c, Completion::GotElement { .. }))
                    .count()
            })
            .sum();
        assert_eq!(got as u64, m);
        assert!(sched.nodes().iter().all(|n| n.shard.is_empty()));
    }

    #[test]
    fn gets_issued_before_puts_park_and_resolve_async() {
        for seed in 0..5 {
            let mut sched = AsyncScheduler::new(cluster(12, 41), seed);
            let m = 30u64;
            // Gets first — they must park.
            for k in 0..m {
                let v = (k % 12) as usize;
                sched.nodes_mut()[v].enqueue_get(domains::SKEAP_KEY, k, k);
            }
            for k in 0..m {
                let v = ((k * 7) % 12) as usize;
                sched.nodes_mut()[v].enqueue_put(domains::SKEAP_KEY, k, elem(v as u64, k), k);
            }
            assert!(
                sched.run_until_quiescent(2_000_000),
                "seed {seed} did not quiesce"
            );
            let got: usize = sched
                .nodes()
                .iter()
                .map(|n| {
                    n.completions
                        .iter()
                        .filter(|c| matches!(c, Completion::GotElement { .. }))
                        .count()
                })
                .sum();
            assert_eq!(got as u64, m, "seed {seed}");
            let parked: usize = sched.nodes().iter().map(|n| n.shard.parked_count()).sum();
            assert_eq!(parked, 0);
        }
    }

    #[test]
    fn storage_load_is_fair() {
        // Lemma 2.2(iv): m elements spread over n nodes ⇒ m/n each on
        // expectation. With m = 64n, demand every node holds something and
        // the max load is within a small factor of the mean.
        let n = 32;
        let mut sched = SyncScheduler::new(cluster(n, 42));
        let m = 64 * n as u64;
        let mut rng = DetRng::new(7);
        for k in 0..m {
            let v = rng.below(n as u64) as usize;
            sched.nodes_mut()[v].enqueue_put(domains::SKEAP_KEY, k, elem(v as u64, k), k);
        }
        assert!(sched.run_until_quiescent(2_000).is_quiescent());
        let loads: Vec<usize> = sched.nodes().iter().map(|n| n.shard.len()).collect();
        assert_eq!(loads.iter().sum::<usize>() as u64, m);
        let mean = m as f64 / n as f64;
        let max = *loads.iter().max().unwrap() as f64;
        // Virtual-node sampling gives ~3 exponential segments per node; a
        // 6x cap on the max/mean ratio is comfortably above the expectation
        // but far below pathological skew.
        assert!(max < 6.0 * mean, "max load {max} vs mean {mean}");
    }

    #[test]
    fn request_hops_stay_logarithmic() {
        // Lemma 2.2(iii): O(log n) rounds per request w.h.p. — in the sync
        // scheduler a single request's rounds == its hops.
        for n in [8usize, 64, 256] {
            let mut sched = SyncScheduler::new(cluster(n, 43));
            sched.nodes_mut()[0].enqueue_put(domains::SKEAP_KEY, 12345, elem(0, 0), 0);
            let out = sched.run_until_quiescent(10_000);
            assert!(out.is_quiescent());
            let limit = 10.0 * (n as f64).log2() + 20.0;
            assert!(
                (out.rounds() as f64) < limit,
                "n={n}: one put took {} rounds",
                out.rounds()
            );
        }
    }
}
