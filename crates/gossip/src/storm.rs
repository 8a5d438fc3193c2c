//! The churn-storm harness: sustained detector-driven membership churn.
//!
//! A storm runs `n0` live nodes (plus a pool of dormant spares) under the
//! synchronous scheduler with a seeded fault plan: every few rounds a member
//! crashes (fail-pause, recovering later) or a spare wakes up and joins.
//! Nothing splices the membership by fiat — the driver acts only on what the
//! *protocol* reports:
//!
//! * a crashed member leaves the topology only once a quorum of live
//!   members' phi-accrual detectors independently consider it dead;
//! * a joiner enters the topology only once a quorum of live members has
//!   discovered it through gossip.
//!
//! The driver plays the role of the LDB splice executor (the constant-round
//! pred/succ surgery of §1.4(4)): [`dpq_overlay::membership`] does the
//! topology math and the DHT-style element handover rides a [`Reliable`]
//! transport. Crash victims keep their shard across the pause (fail-pause),
//! discover on recovery that the membership moved on, bump their gossip
//! incarnation ([`GossipNode::rejoin`]) and re-home everything they still
//! hold.
//!
//! Two oracles run continuously:
//!
//! * **conservation** — every element placed at round 0 exists somewhere (a
//!   shard or an unacked move buffer) at every scan;
//! * **exactly-once** — no element is ever present in two shards at once
//!   (single extraction plus the reliable layer's dedup make this hold).
//!
//! At the end the storm drains: churn stops, everyone recovers, handovers
//! settle, and every element must sit in exactly the shard the final
//! topology assigns it.

use crate::combine::WithGossip;
use crate::proto::{GossipConfig, GossipNode};
use dpq_core::{hash_to_unit, DetRng, ElemId, Element, NodeId, Priority};
use dpq_dht::DhtShard;
use dpq_overlay::{membership, Topology};
use dpq_sim::{Ctx, FaultPlan, Protocol, Reliable, SyncScheduler};

/// Hash domain for element placement points.
const ELEM_DOMAIN: u64 = 0xE1E0;
/// Master seed: fault plan, churn schedule, gossip RNGs, labels.
const SEED: u64 = 0x5702E;
/// Uniform message drop probability.
const DROP: f64 = 0.05;
/// Uniform message duplication probability.
const DUP: f64 = 0.01;
/// Elements seeded per founding member.
const ELEMS_PER_NODE: usize = 4;
/// Fraction of live members that must agree before the driver splices.
const QUORUM: f64 = 0.5;
/// Reliable-transport retransmit timeout (rounds).
const XFER_TIMEOUT: u64 = 24;
/// Conservation-oracle cadence (rounds).
const ORACLE_EVERY: u64 = 32;
/// Extra rounds allowed for the post-storm drain before the harness
/// declares a livelock.
const DRAIN_MAX: u64 = 3000;

/// Element-handover traffic between homes.
#[derive(Debug, Clone, PartialEq, Eq)]
enum XferMsg {
    /// Re-home a batch of `(logical key, element)` pairs.
    Move {
        /// Sender-unique transfer id.
        id: u64,
        /// The pairs changing home.
        pairs: Vec<(u64, Element)>,
    },
    /// Transfer `id` has been ingested.
    MoveAck {
        /// The acknowledged transfer.
        id: u64,
    },
}

dpq_core::wire!(enum XferMsg {
    0 => Move { id, pairs } as "storm.move",
    1 => MoveAck { id } as "storm.move_ack",
});

/// One node's element home: a DHT shard plus move bookkeeping. Runs under
/// [`Reliable`], so moves are exactly-once and survive drops and pauses.
#[derive(Debug, Clone, Default)]
struct HomeNode {
    /// The stored elements.
    shard: DhtShard,
    /// Moves queued by the membership layer, sent on next activation.
    outgoing: Vec<(NodeId, XferMsg)>,
    /// Unacked moves `(id, pairs)` — the conservation copy until the new
    /// home acknowledges.
    pending: Vec<(u64, Vec<(u64, Element)>)>,
    next_id: u64,
}

impl HomeNode {
    /// Queue `pairs` for transfer to `dst`. The pairs must already be out of
    /// the shard (extracted by the caller); a copy stays in `pending` until
    /// the ack lands, so the element is never unaccounted for.
    fn start_move(&mut self, dst: NodeId, pairs: Vec<(u64, Element)>) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.pending.push((id, pairs.clone()));
        self.outgoing.push((dst, XferMsg::Move { id, pairs }));
        id
    }

    /// Is transfer `id` still unacked?
    fn move_in_flight(&self, id: u64) -> bool {
        self.pending.iter().any(|p| p.0 == id)
    }

    /// Element ids currently held in the conservation buffer.
    fn buffered_elems(&self) -> impl Iterator<Item = ElemId> + '_ {
        self.pending
            .iter()
            .flat_map(|(_, pairs)| pairs.iter().map(|(_, e)| e.id))
    }
}

impl Protocol for HomeNode {
    type Msg = XferMsg;

    fn on_activate(&mut self, ctx: &mut Ctx<XferMsg>) {
        for (dst, msg) in self.outgoing.drain(..) {
            ctx.send(dst, msg);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: XferMsg, ctx: &mut Ctx<XferMsg>) {
        match msg {
            XferMsg::Move { id, pairs } => {
                self.shard.ingest(pairs);
                ctx.send(from, XferMsg::MoveAck { id });
            }
            XferMsg::MoveAck { id } => {
                self.pending.retain(|p| p.0 != id);
            }
        }
    }

    fn done(&self) -> bool {
        self.outgoing.is_empty() && self.pending.is_empty()
    }
}

/// The full storm node: gossip membership beside a reliable element home.
type StormNode = WithGossip<Reliable<HomeNode>>;

/// Churn event flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnKind {
    /// A member pauses (and later recovers).
    Crash,
    /// A dormant spare wakes and joins.
    Join,
}

/// Per-churn-event restoration timeline (rounds are absolute).
#[derive(Debug, Clone)]
pub struct Restoration {
    /// Crash or join.
    pub kind: ChurnKind,
    /// Scheduler id of the churned node.
    pub node: u64,
    /// Round the event fired.
    pub at: u64,
    /// Crash: first live member considered the victim dead. Join: first
    /// live member discovered the joiner.
    pub detect: Option<u64>,
    /// A quorum of live members agreed.
    pub quorum: Option<u64>,
    /// The driver executed the topology splice.
    pub spliced: Option<u64>,
    /// Every handover this event triggered fully acknowledged.
    pub settled: Option<u64>,
    /// Crash only: the victim recovered before quorum, so no eviction
    /// happened — detector pressure but no membership change.
    pub rescinded: bool,
}

/// Storm shape and tuning.
#[derive(Debug, Clone)]
pub struct StormConfig {
    /// Founding membership size.
    pub n0: usize,
    /// Dormant spares available to join.
    pub spares: usize,
    /// Rounds during which churn events fire.
    pub rounds: u64,
    /// One churn event every this many rounds (alternating crash/join).
    pub churn_every: u64,
    /// Warmup rounds before the first churn event.
    pub warmup: u64,
    /// Rounds a crashed node stays down.
    pub down_for: u64,
    /// Gossip layer tuning (detector thresholds live here).
    pub gossip: GossipConfig,
}

/// What a storm run produced. The run itself panics on oracle violations;
/// the report carries the measurements.
#[derive(Debug, Clone, Default)]
pub struct StormReport {
    /// Rounds actually stepped (storm + drain).
    pub rounds_run: u64,
    /// Crash events fired.
    pub crashes: u64,
    /// Join events fired.
    pub joins: u64,
    /// Detector-driven eviction splices executed.
    pub evictions: u64,
    /// Discovery-driven join splices executed.
    pub join_splices: u64,
    /// Crashes that recovered before quorum (no eviction).
    pub rescinded: u64,
    /// Per-event timelines.
    pub restorations: Vec<Restoration>,
    /// Sum over nodes of detector suspicions.
    pub suspicions: u64,
    /// Sum over nodes of detector confirmations.
    pub confirms: u64,
    /// Suspicions cancelled by a later heartbeat (false alarms).
    pub fp_suspicions: u64,
    /// Confirmations cancelled by a later heartbeat.
    pub fp_confirms: u64,
    /// Ground-truth false evictions: splices executed against a node that
    /// was actually up at splice time.
    pub fp_evictions: u64,
    /// Elements seeded (and conserved).
    pub elements: usize,
    /// Final membership size.
    pub members_final: usize,
}

impl StormReport {
    /// Mean rounds from churn event to topology splice, over events that
    /// spliced.
    pub fn mean_restoration(&self) -> Option<f64> {
        let xs: Vec<u64> = self
            .restorations
            .iter()
            .filter_map(|r| Some(r.spliced? - r.at))
            .collect();
        if xs.is_empty() {
            None
        } else {
            Some(xs.iter().sum::<u64>() as f64 / xs.len() as f64)
        }
    }

    /// Mean rounds from a join event to quorum discovery — the rumor-spread
    /// quantity that scales with log n.
    pub fn mean_join_quorum(&self) -> Option<f64> {
        let xs: Vec<u64> = self
            .restorations
            .iter()
            .filter(|r| r.kind == ChurnKind::Join)
            .filter_map(|r| Some(r.quorum? - r.at))
            .collect();
        if xs.is_empty() {
            None
        } else {
            Some(xs.iter().sum::<u64>() as f64 / xs.len() as f64)
        }
    }
}

/// Scheduled churn: what the fault plan will do, fixed up front so the plan
/// and the driver agree bit-for-bit.
#[derive(Debug, Clone, Copy)]
struct ChurnEvent {
    round: u64,
    kind: ChurnKind,
    node: u64,
    /// Crash: recovery round. Join: the join round itself.
    recover: u64,
}

/// Driver-side tracking of one in-flight churn event.
struct PendingChurn {
    rest: usize,
    kind: ChurnKind,
    node: u64,
    recover: u64,
    spliced: bool,
    rehomed: bool,
    /// Round of the last nudge that bumped the recovered-un-spliced victim's
    /// incarnation (clears straggler tombstones so the rescind can land).
    /// Re-armed periodically: a straggler can evict *after* a nudge, with a
    /// tombstone at the bumped incarnation only a further bump outranks.
    last_nudge: Option<u64>,
    /// `(sender sched-id, move id)` pairs this event waits on.
    moves: Vec<(u64, u64)>,
}

struct Driver {
    topo: Topology,
    /// Scheduler id of topology node `k`.
    members: Vec<u64>,
    /// Down flags by scheduler id (mirror of the fault schedule).
    down: Vec<bool>,
}

impl Driver {
    fn member_pos(&self, node: u64) -> Option<usize> {
        self.members.iter().position(|&m| m == node)
    }

    fn owner_of(&self, point: f64) -> u64 {
        self.members[self.topo.manager_of(point).real.index()]
    }

    fn up_members(&self) -> impl Iterator<Item = u64> + '_ {
        self.members
            .iter()
            .copied()
            .filter(|&m| !self.down[m as usize])
    }
}

fn elem_point(key: u64) -> f64 {
    hash_to_unit(ELEM_DOMAIN, key)
}

/// Move every misplaced element at every up node (members after a splice,
/// recovered evictees, stragglers that received a stale move) to its current
/// owner. Returns the `(sender, move id)` pairs started.
fn rebalance(sched: &mut SyncScheduler<StormNode>, driver: &Driver) -> Vec<(u64, u64)> {
    let mut started = Vec::new();
    for src in 0..driver.down.len() as u64 {
        if driver.down[src as usize] {
            continue;
        }
        let home = sched.node_mut(NodeId(src)).app.inner_mut();
        let moved = home
            .shard
            .extract_pairs(|k, _| driver.owner_of(elem_point(k)) != src);
        if moved.is_empty() {
            continue;
        }
        // Group by destination, preserving key order.
        let mut by_dst: Vec<(u64, Vec<(u64, Element)>)> = Vec::new();
        for (k, e) in moved {
            let dst = driver.owner_of(elem_point(k));
            match by_dst.iter_mut().find(|d| d.0 == dst) {
                Some(d) => d.1.push((k, e)),
                None => by_dst.push((dst, vec![(k, e)])),
            }
        }
        for (dst, pairs) in by_dst {
            let id = home.start_move(NodeId(dst), pairs);
            started.push((src, id));
        }
    }
    started
}

/// Conservation + exactly-once scan. Panics on violation.
fn conservation_scan(sched: &SyncScheduler<StormNode>, expected: &[ElemId], round: u64) {
    let mut in_shards: Vec<ElemId> = Vec::with_capacity(expected.len());
    let mut buffered: Vec<ElemId> = Vec::new();
    for node in sched.nodes() {
        let home = node.app.inner();
        for (_, e) in home.shard.elements() {
            in_shards.push(e.id);
        }
        buffered.extend(home.buffered_elems());
    }
    in_shards.sort_unstable();
    assert!(
        in_shards.windows(2).all(|w| w[0] != w[1]),
        "round {round}: element duplicated across shards"
    );
    buffered.sort_unstable();
    for id in expected {
        let present = in_shards.binary_search(id).is_ok() || buffered.binary_search(id).is_ok();
        assert!(present, "round {round}: element {id} lost");
    }
}

/// The deterministic churn schedule: alternating crash/join, crash victims
/// drawn without replacement from founders that are up at schedule time.
fn schedule(cfg: &StormConfig, rng: &mut DetRng) -> Vec<ChurnEvent> {
    let mut events = Vec::new();
    let mut crashed: Vec<bool> = vec![false; cfg.n0];
    let mut next_spare = 0usize;
    let mut r = cfg.warmup;
    let mut flip = false;
    while r < cfg.rounds {
        let kind = if flip {
            ChurnKind::Join
        } else {
            ChurnKind::Crash
        };
        flip = !flip;
        match kind {
            ChurnKind::Crash => {
                let candidates: Vec<u64> = (0..cfg.n0 as u64)
                    .filter(|&v| !crashed[v as usize])
                    .collect();
                // Never storm away more than half the founders.
                if candidates.len() > cfg.n0 / 2 {
                    let node = *rng.pick(&candidates);
                    crashed[node as usize] = true;
                    events.push(ChurnEvent {
                        round: r,
                        kind,
                        node,
                        recover: r + cfg.down_for,
                    });
                }
            }
            ChurnKind::Join => {
                if next_spare < cfg.spares {
                    let node = (cfg.n0 + next_spare) as u64;
                    next_spare += 1;
                    events.push(ChurnEvent {
                        round: r,
                        kind,
                        node,
                        recover: r,
                    });
                }
            }
        }
        r += cfg.churn_every;
    }
    events
}

/// Run one churn storm. Panics on any oracle violation; returns the
/// measurement report otherwise.
pub fn run_storm(cfg: &StormConfig) -> StormReport {
    let total = cfg.n0 + cfg.spares;
    let mut rng = DetRng::new(SEED).split(0x57);
    let events = schedule(cfg, &mut rng);

    // Fault plan: uniform noise + the whole churn schedule as crash events.
    // A spare "joins" by recovering from a crash that began at round 0.
    let mut plan = FaultPlan::uniform(SEED ^ 0xFA117, DROP, DUP);
    for ev in &events {
        plan = match ev.kind {
            ChurnKind::Crash => plan.with_crash(NodeId(ev.node), ev.round, Some(ev.recover)),
            ChurnKind::Join => plan.with_crash(NodeId(ev.node), 0, Some(ev.round)),
        };
    }
    // Spares never scheduled to join stay down for the whole run.
    let joining: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == ChurnKind::Join)
        .map(|e| e.node)
        .collect();
    for s in cfg.n0 as u64..total as u64 {
        if !joining.contains(&s) {
            plan = plan.with_crash(NodeId(s), 0, None);
        }
    }

    // Nodes: founders know the founding set; spares know a few seed contacts.
    let founders: Vec<NodeId> = (0..cfg.n0 as u64).map(NodeId).collect();
    let mut gcfg = cfg.gossip;
    gcfg.seed ^= SEED;
    let nodes: Vec<StormNode> = (0..total as u64)
        .map(|i| {
            let peers: Vec<NodeId> = if (i as usize) < cfg.n0 {
                founders.clone()
            } else {
                let mut r = rng.split(0x5EED ^ i);
                (0..5).map(|_| NodeId(r.below(cfg.n0 as u64))).collect()
            };
            WithGossip::new(
                Reliable::new(HomeNode::default(), XFER_TIMEOUT),
                GossipNode::new(NodeId(i), &peers, gcfg),
            )
        })
        .collect();
    let mut sched = SyncScheduler::new(nodes).with_faults(plan);

    // Topology over the founders; members[k] = scheduler id of topo node k.
    let mut driver = Driver {
        topo: Topology::new(cfg.n0, SEED ^ 0x7090),
        members: (0..cfg.n0 as u64).collect(),
        down: (0..total).map(|i| i >= cfg.n0).collect(),
    };

    // Seed elements directly into their owners' shards (initial condition).
    let m = cfg.n0 * ELEMS_PER_NODE;
    let mut expected: Vec<ElemId> = Vec::with_capacity(m);
    for key in 0..m as u64 {
        let owner = driver.owner_of(elem_point(key));
        let elem = Element::new(ElemId::compose(NodeId(0), key), Priority(key), 0);
        expected.push(elem.id);
        sched
            .node_mut(NodeId(owner))
            .app
            .inner_mut()
            .shard
            .ingest([(key, elem)]);
    }
    expected.sort_unstable();

    let mut report = StormReport {
        elements: m,
        ..StormReport::default()
    };
    let mut pending: Vec<PendingChurn> = Vec::new();
    let mut next_event = 0usize;
    let max_recover = events.iter().map(|e| e.recover).max().unwrap_or(0);
    let horizon = cfg.rounds.max(max_recover) + DRAIN_MAX;

    let mut r = 0u64;
    loop {
        sched.step_round();
        r += 1;

        // 1. Fire scheduled churn events.
        while next_event < events.len() && events[next_event].round < r {
            let ev = events[next_event];
            next_event += 1;
            let rest = report.restorations.len();
            report.restorations.push(Restoration {
                kind: ev.kind,
                node: ev.node,
                at: ev.round,
                detect: None,
                quorum: None,
                spliced: None,
                settled: None,
                rescinded: false,
            });
            match ev.kind {
                ChurnKind::Crash => {
                    report.crashes += 1;
                    driver.down[ev.node as usize] = true;
                }
                ChurnKind::Join => {
                    report.joins += 1;
                    driver.down[ev.node as usize] = false;
                }
            }
            pending.push(PendingChurn {
                rest,
                kind: ev.kind,
                node: ev.node,
                recover: ev.recover,
                spliced: false,
                rehomed: false,
                last_nudge: None,
                moves: Vec::new(),
            });
        }

        // 2. Recoveries: crashed nodes coming back this round.
        let mut rehome = false;
        for p in pending.iter_mut() {
            if p.kind == ChurnKind::Crash && p.recover == r {
                driver.down[p.node as usize] = false;
                if p.spliced {
                    // Evicted while away: new incarnation, re-home all.
                    sched.node_mut(NodeId(p.node)).gossip.rejoin();
                    p.rehomed = true;
                    rehome = true;
                }
            }
        }
        if rehome {
            let moves = rebalance(&mut sched, &driver);
            if let Some(p) = pending.iter_mut().rev().find(|p| p.rehomed) {
                p.moves.extend(moves);
            }
        }

        // 3. Poll protocol verdicts and splice on quorum.
        let up: Vec<u64> = driver.up_members().collect();
        let quorum_size = (((up.len().saturating_sub(1)) as f64 * QUORUM).ceil()).max(1.0) as usize;
        let mut splices: Vec<usize> = Vec::new();
        for (pi, p) in pending.iter_mut().enumerate() {
            if p.spliced {
                continue;
            }
            let target = NodeId(p.node);
            let voters = up.iter().filter(|&&v| v != p.node);
            let agreed = match p.kind {
                ChurnKind::Crash => voters
                    .filter(|&&v| sched.node(NodeId(v)).gossip.considers_dead(target))
                    .count(),
                ChurnKind::Join => voters
                    .filter(|&&v| sched.node(NodeId(v)).gossip.knows(target))
                    .count(),
            };
            let rest = &mut report.restorations[p.rest];
            if agreed > 0 && rest.detect.is_none() {
                rest.detect = Some(r);
            }
            if agreed >= quorum_size {
                if rest.quorum.is_none() {
                    rest.quorum = Some(r);
                }
                splices.push(pi);
            } else if p.kind == ChurnKind::Crash && !driver.down[p.node as usize] && r > p.recover {
                // Recovered before quorum: the event rescinds once every
                // voter's suspicion clears. Stragglers that already evicted
                // locally hold a tombstone at the old incarnation, which a
                // plain heartbeat cannot lift — nudge the victim to bump its
                // incarnation so they reconcile.
                if agreed == 0 {
                    rest.rescinded = true;
                    rest.settled = Some(r);
                    report.rescinded += 1;
                    p.spliced = true;
                    p.rehomed = true;
                } else if r >= p.recover + 16 && p.last_nudge.is_none_or(|t| r >= t + 32) {
                    sched.node_mut(target).gossip.rejoin();
                    p.last_nudge = Some(r);
                }
            }
        }
        for pi in splices {
            let p = &mut pending[pi];
            match p.kind {
                ChurnKind::Crash => {
                    let Some(pos) = driver.member_pos(p.node) else {
                        continue;
                    };
                    let (next, _) = membership::leave_at(&driver.topo, NodeId(pos as u64));
                    driver.topo = next;
                    driver.members.remove(pos);
                    report.evictions += 1;
                    if !driver.down[p.node as usize] {
                        report.fp_evictions += 1;
                    }
                }
                ChurnKind::Join => {
                    let label = membership::join_label(SEED ^ 0x7090, p.node);
                    let (next, _) = membership::join(&driver.topo, NodeId(0), label);
                    driver.topo = next;
                    driver.members.push(p.node);
                    report.join_splices += 1;
                }
            }
            report.restorations[p.rest].spliced = Some(r);
            p.spliced = true;
            // A crash victim that was evicted while already back up re-homes
            // immediately; one still down re-homes at recovery (step 2).
            if p.kind == ChurnKind::Crash && !driver.down[p.node as usize] {
                sched.node_mut(NodeId(p.node)).gossip.rejoin();
                p.rehomed = true;
            }
            p.moves.extend(rebalance(&mut sched, &driver));
        }

        // 4. Settle: an event closes when its splice happened, its victim
        //    (if any) re-homed, and all its moves are acked.
        pending.retain_mut(|p| {
            if !p.spliced {
                return true;
            }
            if p.kind == ChurnKind::Crash && !p.rehomed {
                return true; // waiting for the victim's recovery
            }
            let busy = p
                .moves
                .iter()
                .any(|&(src, id)| sched.node(NodeId(src)).app.inner().move_in_flight(id));
            if busy {
                return true;
            }
            let rest = &mut report.restorations[p.rest];
            if rest.settled.is_none() {
                rest.settled = Some(r);
            }
            false
        });

        // 5. Oracles + periodic stray sweep (elements that landed at a node
        //    after the splice whose rebalance would have moved them).
        if r.is_multiple_of(ORACLE_EVERY) {
            conservation_scan(&sched, &expected, r);
            rebalance(&mut sched, &driver);
        }

        // 6. Termination: all events fired and settled, all moves drained.
        if next_event == events.len() && pending.is_empty() {
            let drained = sched.nodes().iter().all(|n| n.app.done());
            if drained {
                break;
            }
        }
        assert!(
            r < horizon,
            "storm failed to settle within {horizon} rounds \
             ({} pending events, {} nodes not drained): {:?}",
            pending.len(),
            sched.nodes().iter().filter(|n| !n.app.done()).count(),
            pending
                .iter()
                .map(|p| (p.kind, p.node, p.spliced, p.rehomed, p.moves.len()))
                .collect::<Vec<_>>()
        );
    }

    // Final sweep to a fixed point, then the placement oracle.
    loop {
        let moves = rebalance(&mut sched, &driver);
        if moves.is_empty() {
            break;
        }
        let deadline = r + DRAIN_MAX;
        while moves
            .iter()
            .any(|&(src, id)| sched.node(NodeId(src)).app.inner().move_in_flight(id))
        {
            sched.step_round();
            r += 1;
            assert!(r < deadline, "final sweep failed to drain");
        }
    }
    conservation_scan(&sched, &expected, r);
    for key in 0..m as u64 {
        let owner = driver.owner_of(elem_point(key));
        let held = sched
            .node(NodeId(owner))
            .app
            .inner()
            .shard
            .elements()
            .any(|(k, _)| k == key);
        assert!(held, "element {key} not at its final owner {owner}");
    }

    for node in sched.nodes() {
        let d = node.gossip.detector().stats();
        report.suspicions += d.suspicions;
        report.confirms += d.confirms;
        report.fp_suspicions += d.fp_suspicions;
        report.fp_confirms += d.fp_confirms;
    }
    report.rounds_run = r;
    report.members_final = driver.members.len();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::DetectorConfig;

    #[test]
    fn home_node_moves_elements_exactly_once() {
        let nodes: Vec<Reliable<HomeNode>> =
            Reliable::wrap_all((0..2).map(|_| HomeNode::default()), 8);
        let mut sched = SyncScheduler::new(nodes);
        let e = Element::new(ElemId::compose(NodeId(0), 1), Priority(1), 0);
        let id = sched
            .node_mut(NodeId(0))
            .inner_mut()
            .start_move(NodeId(1), vec![(5, e)]);
        let out = sched.run_until_quiescent(200);
        assert!(
            matches!(out, dpq_sim::RunOutcome::Quiescent { .. }),
            "{out:?}"
        );
        assert_eq!(sched.node(NodeId(1)).inner().shard.len(), 1);
        assert!(!sched.node(NodeId(0)).inner().move_in_flight(id));
    }

    fn quick_gossip(threshold: f64) -> GossipConfig {
        GossipConfig {
            window: 16,
            detector: DetectorConfig {
                threshold,
                confirm_ticks: 8,
                bootstrap_mean: 8.0,
            },
            evict_ticks: 8,
            ..GossipConfig::default()
        }
    }

    /// A miniature storm: small n, fast cadence, the full lifecycle —
    /// crash, detect, quorum, eviction splice, handover, recovery, rejoin,
    /// re-home — with the conservation oracles on throughout.
    #[test]
    fn mini_storm_conserves_and_restores() {
        let cfg = StormConfig {
            n0: 48,
            spares: 4,
            rounds: 320,
            churn_every: 40,
            warmup: 64,
            down_for: 200,
            gossip: quick_gossip(4.0),
        };
        let report = run_storm(&cfg);
        assert!(report.crashes >= 3, "crashes {}", report.crashes);
        assert!(report.joins >= 3, "joins {}", report.joins);
        // The detector must have driven at least one real eviction splice,
        // and every join must eventually splice.
        assert!(
            report.evictions + report.rescinded == report.crashes,
            "unaccounted crash: {report:?}"
        );
        assert!(report.evictions >= 1, "no detector-driven eviction");
        assert_eq!(report.join_splices, report.joins);
        // Every restoration closed its loop.
        assert!(report
            .restorations
            .iter()
            .all(|r| r.settled.is_some() || r.rescinded));
        // Quorum follows detection, splice follows quorum.
        for rest in report.restorations.iter().filter(|r| !r.rescinded) {
            assert!(rest.detect <= rest.quorum && rest.quorum <= rest.spliced);
        }
    }

    #[test]
    fn storm_is_deterministic() {
        let cfg = StormConfig {
            n0: 32,
            spares: 2,
            rounds: 160,
            churn_every: 48,
            warmup: 48,
            down_for: 140,
            gossip: quick_gossip(3.0),
        };
        let a = run_storm(&cfg);
        let b = run_storm(&cfg);
        assert_eq!(a.rounds_run, b.rounds_run);
        assert_eq!(a.evictions, b.evictions);
        assert_eq!(a.confirms, b.confirms);
        let sp = |r: &StormReport| -> Vec<Option<u64>> {
            r.restorations.iter().map(|x| x.spliced).collect()
        };
        assert_eq!(sp(&a), sp(&b));
    }
}
