//! Join/Leave integration (§1.4(4)): membership churn with element
//! handover must never lose heap contents, and the restored topology must
//! remain a valid substrate for the protocols.
//!
//! Handover runs *through the network*: each churn event queues the changed
//! segments as transfer messages and the asynchronous scheduler delivers
//! them under a lossy fault plan, with the reliable transport absorbing the
//! drops — so "no element loss" is established against real message-passing
//! semantics, not direct shard manipulation. Handover moves *both* halves of
//! a shard: the stored elements and the parked Get-until-Put registrations,
//! whose waiters would otherwise starve at a node that no longer manages
//! their key.

use std::collections::VecDeque;

use dpq::core::bitsize::tag_bits;
use dpq::core::hashing::domains;
use dpq::core::{BitSize, DetRng, ElemId, Element, MsgKind, NodeId, Priority};
use dpq::dht::{point_for, DhtReq, DhtResp, DhtShard};
use dpq::overlay::{membership, tree, Topology};
use dpq::sim::{AsyncScheduler, Ctx, FaultPlan, Protocol, Reliable};

/// Churn-layer traffic: element and parked-waiter handovers, plus the
/// client-visible Put/GetOk pair so a Get parked across a handover can
/// still be served over the network.
#[derive(Debug, Clone)]
enum ChurnMsg {
    /// One element changing homes.
    Elem { logical: u64, elem: Element },
    /// One parked Get registration changing homes.
    Parked {
        logical: u64,
        getter: NodeId,
        id: u64,
    },
    /// A client Put routed to the key's (current) owner.
    Put {
        logical: u64,
        elem: Element,
        id: u64,
    },
    /// The response a parked Get eventually receives.
    GetOk { id: u64, elem: Element },
}

impl BitSize for ChurnMsg {
    fn bits(&self) -> u64 {
        tag_bits(4)
            + match self {
                ChurnMsg::Elem { logical, elem } => logical.bits() + elem.bits(),
                ChurnMsg::Parked {
                    logical,
                    getter,
                    id,
                } => logical.bits() + getter.bits() + id.bits(),
                ChurnMsg::Put { logical, elem, id } => logical.bits() + elem.bits() + id.bits(),
                ChurnMsg::GetOk { id, elem } => id.bits() + elem.bits(),
            }
    }

    fn kind(&self) -> MsgKind {
        MsgKind("churn.xfer")
    }
}

/// The storage side of one node under churn: its shard plus the transfers
/// the current churn event obliges it to push out, plus the GetOk responses
/// it received as a getter.
struct HandoverNode {
    shard: DhtShard,
    outgoing: VecDeque<(NodeId, ChurnMsg)>,
    got: Vec<(u64, Element)>,
}

impl HandoverNode {
    fn new() -> Self {
        HandoverNode {
            shard: DhtShard::new(),
            outgoing: VecDeque::new(),
            got: Vec::new(),
        }
    }
}

impl Protocol for HandoverNode {
    type Msg = ChurnMsg;

    fn on_activate(&mut self, ctx: &mut Ctx<ChurnMsg>) {
        while let Some((dst, x)) = self.outgoing.pop_front() {
            ctx.send(dst, x);
        }
    }

    fn on_message(&mut self, _from: NodeId, x: ChurnMsg, ctx: &mut Ctx<ChurnMsg>) {
        match x {
            ChurnMsg::Elem { logical, elem } => self.shard.ingest([(logical, elem)]),
            ChurnMsg::Parked {
                logical,
                getter,
                id,
            } => {
                // The racing Put may already be here — then the Get resolves
                // on arrival; otherwise the waiter re-parks under the new
                // owner.
                if let Some((dst, DhtResp::GetOk { id, elem })) =
                    self.shard.ingest_parked(logical, getter, id)
                {
                    ctx.send(dst, ChurnMsg::GetOk { id, elem });
                }
            }
            ChurnMsg::Put { logical, elem, id } => {
                for (dst, resp) in self.shard.handle(DhtReq::Put {
                    logical,
                    elem,
                    reply_to: NodeId(0),
                    id,
                }) {
                    if let DhtResp::GetOk { id, elem } = resp {
                        ctx.send(dst, ChurnMsg::GetOk { id, elem });
                    }
                }
            }
            ChurnMsg::GetOk { id, elem } => self.got.push((id, elem)),
        }
    }

    fn done(&self) -> bool {
        self.outgoing.is_empty()
    }
}

/// Network-driven churn: topology plus one reliable-transport-wrapped
/// [`HandoverNode`] per member.
struct ChurnNet {
    topo: Topology,
    nodes: Vec<Reliable<HandoverNode>>,
    /// Per-event fault/scheduler seed counter.
    event: u64,
    /// Messages destroyed by the fault layer, summed over all events.
    dropped: u64,
}

/// Retransmission timeout in adversary steps; several sweep periods of the
/// default `AsyncConfig` so acks get a fair chance before a resend.
const XFER_TIMEOUT: u64 = 256;

impl ChurnNet {
    fn new(n: usize, seed: u64) -> Self {
        ChurnNet {
            topo: Topology::new(n, seed),
            nodes: (0..n)
                .map(|_| Reliable::new(HandoverNode::new(), XFER_TIMEOUT))
                .collect(),
            event: 0,
            dropped: 0,
        }
    }

    fn owner_in(topo: &Topology, logical: u64) -> usize {
        let point = point_for(domains::SKEAP_KEY, logical);
        topo.manager_of(point).real.index()
    }

    fn owner(&self, logical: u64) -> usize {
        Self::owner_in(&self.topo, logical)
    }

    fn put(&mut self, logical: u64, e: Element) {
        let v = self.owner(logical);
        self.nodes[v].inner_mut().shard.ingest([(logical, e)]);
    }

    fn total(&self) -> usize {
        self.nodes.iter().map(|n| n.inner().shard.len()).sum()
    }

    /// Run every queued outgoing message to quiescence through the lossy
    /// async scheduler (20% drop + 10% duplicate; seeds vary per event so
    /// each delivery sees fresh faults).
    fn deliver(&mut self) {
        self.event += 1;
        let plan = FaultPlan::uniform(0xC0DE + self.event, 0.2, 0.1);
        let mut sched =
            AsyncScheduler::new(std::mem::take(&mut self.nodes), 77 + self.event).with_faults(plan);
        assert!(
            sched.run_until_quiescent(4_000_000),
            "delivery stalled at churn event {}",
            self.event
        );
        self.dropped += sched.faults().stats.dropped();
        self.nodes = sched.into_nodes();
    }

    /// Switch to `new_topo` and re-home every element *and parked waiter*
    /// whose manager changed — through the scheduler, under message drops.
    /// Nodes keep what they still own; everything else crosses the (lossy)
    /// network and the reliable transport must deliver it exactly once.
    fn rehome_over_network(&mut self, new_topo: Topology) {
        let new_n = new_topo.n();
        // A join appends members; give them empty nodes before transfers.
        while self.nodes.len() < new_n {
            self.nodes
                .push(Reliable::new(HandoverNode::new(), XFER_TIMEOUT));
        }
        for (i, node) in self.nodes.iter_mut().enumerate() {
            let inner = node.inner_mut();
            for (logical, elem) in inner.shard.drain_all() {
                let dst = Self::owner_in(&new_topo, logical);
                if dst == i && i < new_n {
                    inner.shard.ingest([(logical, elem)]);
                } else {
                    inner
                        .outgoing
                        .push_back((NodeId(dst as u64), ChurnMsg::Elem { logical, elem }));
                }
            }
            for (logical, getter, id) in inner.shard.drain_parked() {
                let dst = Self::owner_in(&new_topo, logical);
                if dst == i && i < new_n {
                    assert!(
                        inner.shard.ingest_parked(logical, getter, id).is_none(),
                        "kept waiter resolved against a kept element?"
                    );
                } else {
                    inner.outgoing.push_back((
                        NodeId(dst as u64),
                        ChurnMsg::Parked {
                            logical,
                            getter,
                            id,
                        },
                    ));
                }
            }
        }
        self.deliver();
        // A leave removes the tail member — by now it has handed everything
        // over: elements *and* waiters.
        for gone in self.nodes.drain(new_n..) {
            assert!(
                gone.inner().shard.is_empty(),
                "leaving node still held elements"
            );
            assert_eq!(
                gone.inner().shard.parked_count(),
                0,
                "leaving node stranded a parked Get"
            );
        }
        self.topo = new_topo;
    }
}

#[test]
fn churn_preserves_every_element_over_lossy_network() {
    let mut net = ChurnNet::new(8, 51);
    let mut rng = DetRng::new(52);
    let m = 200u64;
    for k in 0..m {
        let e = Element::new(ElemId::compose(NodeId(0), k), Priority(rng.below(100)), k);
        net.put(k, e);
    }
    assert_eq!(net.total(), m as usize);

    // 15 churn events: joins and leaves interleaved, every handover pushed
    // through the lossy async scheduler.
    for i in 0..15u64 {
        let n = net.topo.n();
        if i % 3 == 2 && n > 4 {
            let (t2, _) = membership::leave_last(&net.topo);
            net.rehome_over_network(t2);
        } else {
            let label = membership::join_label(53, 900 + i);
            let (t2, stats) = membership::join(&net.topo, NodeId(i % n as u64), label);
            assert!(stats.locate_hops < 200);
            net.rehome_over_network(t2);
        }
        tree::validate(&net.topo).expect("tree stays valid under churn");
        assert_eq!(net.total(), m as usize, "elements lost at churn event {i}");
    }
    assert!(net.dropped > 0, "the fault plan never exercised a drop");

    // Every element is still retrievable under its key at the right owner,
    // exactly once (duplicate deliveries suppressed by the transport).
    for k in 0..m {
        let v = net.owner(k);
        let copies = net
            .nodes
            .iter()
            .map(|n| {
                n.inner()
                    .shard
                    .elements()
                    .filter(|(logical, _)| *logical == k)
                    .count()
            })
            .sum::<usize>();
        assert_eq!(copies, 1, "key {k} not exactly-once after churn");
        assert!(
            net.nodes[v]
                .inner()
                .shard
                .elements()
                .any(|(logical, _)| logical == k),
            "key {k} not at its owner after churn"
        );
    }
}

/// A Get that parked before its owner was evicted must still be answered:
/// the waiter's registration rides the handover to the new owner, and the
/// Put — whichever side of the handover it lands on — finds it. This is the
/// race the detector opens: eviction splices can move a key range while the
/// Put that would resolve a parked Get is still in flight.
#[test]
fn parked_get_survives_handover_racing_eviction() {
    // Find a key the tail node owns: leave_last then plays the eviction.
    let find_victim_key = |net: &ChurnNet| -> u64 {
        (0..10_000)
            .find(|&k| net.owner(k) == net.topo.n() - 1)
            .expect("some key at the tail node")
    };
    let getter = NodeId(0);
    let elem = |k: u64| Element::new(ElemId::compose(NodeId(9), k), Priority(k), 7);

    // Ordering A: the handover finishes first. The registration waits at
    // the new owner; the Put arrives afterwards over the network and serves
    // the getter.
    let mut net = ChurnNet::new(8, 51);
    let k = find_victim_key(&net);
    let old = net.owner(k);
    let parked = net.nodes[old].inner_mut().shard.handle(DhtReq::Get {
        logical: k,
        reply_to: getter,
        id: 1000,
    });
    assert!(parked.is_empty(), "Get before Put must park");
    let (t2, _) = membership::leave_last(&net.topo);
    net.rehome_over_network(t2);
    let new = net.owner(k);
    assert_ne!(new, old, "eviction must have moved the key");
    assert_eq!(
        net.nodes[new].inner().shard.parked_count(),
        1,
        "waiter did not travel with the handover"
    );
    let src = (new + 1) % net.nodes.len();
    net.nodes[src].inner_mut().outgoing.push_back((
        NodeId(new as u64),
        ChurnMsg::Put {
            logical: k,
            elem: elem(k),
            id: 2000,
        },
    ));
    net.deliver();
    assert_eq!(
        net.nodes[getter.index()].inner().got,
        vec![(1000, elem(k))],
        "parked Get was not served after the handover"
    );
    assert!(net
        .nodes
        .iter()
        .all(|n| n.inner().shard.parked_count() == 0));

    // Ordering B: the Put wins the race. It is re-routed to the new owner
    // and stored there before the old owner's parked transfer arrives; the
    // registration resolves on ingest and the GetOk crosses the network.
    let mut net = ChurnNet::new(8, 51);
    let k = find_victim_key(&net);
    let old = net.owner(k);
    let parked = net.nodes[old].inner_mut().shard.handle(DhtReq::Get {
        logical: k,
        reply_to: getter,
        id: 1001,
    });
    assert!(parked.is_empty(), "Get before Put must park");
    let (t2, _) = membership::leave_last(&net.topo);
    let new = ChurnNet::owner_in(&t2, k);
    assert_ne!(new, old);
    // The re-routed Put lands at the new owner pre-handover.
    net.nodes[new].inner_mut().shard.ingest([(k, elem(k))]);
    net.rehome_over_network(t2);
    assert_eq!(
        net.nodes[getter.index()].inner().got,
        vec![(1001, elem(k))],
        "parked Get was not served when the Put won the race"
    );
    assert!(net
        .nodes
        .iter()
        .all(|n| n.inner().shard.parked_count() == 0));
    assert!(
        !net.nodes[new]
            .inner()
            .shard
            .elements()
            .any(|(logical, _)| logical == k),
        "the element should have been consumed by the waiter"
    );
}
