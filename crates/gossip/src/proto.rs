//! The gossip protocol node: anti-entropy exchanges plus the eviction
//! lifecycle, as an ordinary [`Protocol`] — so both schedulers, the fault
//! plans, the model checker, and the socket runtime drive it unchanged.
//!
//! Each activation a node bumps its own heartbeat and initiates one
//! three-way exchange:
//!
//! ```text
//! A → B  Syn    { digest window }            "here's what I know (a slice)"
//! B → A  SynAck { delta, want }              "here's what you're missing;
//!                                             tell me about these"
//! A → B  Ack    { delta }                    "here you go"
//! ```
//!
//! The digest is a *rotating window* over the membership rather than the
//! full view: a full digest is O(n) per message, which at storm scale turns
//! every round into O(n²) traffic. A window of w entries visits the whole
//! view every ⌈n/w⌉ rounds, so freshness still propagates epidemically while
//! messages stay MTU-sized. The sender's own line is always included — a
//! node is the authority on itself, and this is how joiners advertise.
//!
//! Heartbeat version progress feeds the phi-accrual [`FailureDetector`];
//! confirmed-dead peers are evicted after a grace period: removed from the
//! gossip target set, their state dropped, and a tombstone keyed by
//! incarnation left behind so stragglers cannot gossip the ghost back in. A
//! genuinely returning node bumps its incarnation ([`GossipNode::rejoin`]),
//! which outranks the tombstone everywhere.

use crate::detector::{DetectorConfig, FailureDetector, Health, Verdict};
use crate::state::{DigestEntry, GossipState, NodeDelta};
use dpq_core::{DetRng, NodeId};
use dpq_sim::{Ctx, Protocol};

/// The gossip message alphabet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GossipMsg {
    /// Round opener: a digest window.
    Syn {
        /// `(node, incarnation, max_version)` lines, sender's own first.
        window: Vec<DigestEntry>,
    },
    /// Reply: missing entries plus a pull request.
    SynAck {
        /// Entries the Syn's digest proved the sender lacks.
        delta: Vec<NodeDelta>,
        /// Digest lines the responder knows *less* about — please send.
        want: Vec<DigestEntry>,
    },
    /// Exchange closer: the pulled entries.
    Ack {
        /// Entries answering the `want`.
        delta: Vec<NodeDelta>,
    },
}

dpq_core::wire!(enum GossipMsg {
    0 => Syn { window } as "gossip.syn",
    1 => SynAck { delta, want } as "gossip.synack",
    2 => Ack { delta } as "gossip.ack",
});

/// Activation gap treated as "I was paused" — triggers a detector rebase
/// instead of suspecting every peer at once.
const RESUME_GAP: u64 = 16;

/// Gossip layer tuning.
#[derive(Debug, Clone, Copy)]
pub struct GossipConfig {
    /// Digest window width; `0` = adaptive `max(16, known/16)`.
    pub window: usize,
    /// Failure-detector tuning.
    pub detector: DetectorConfig,
    /// Grace ticks between a peer's confirmation and its eviction.
    pub evict_ticks: u64,
    /// Per-node RNG stream seed.
    pub seed: u64,
}

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig {
            window: 0,
            detector: DetectorConfig::default(),
            evict_ticks: 8,
            seed: 0x60551,
        }
    }
}

/// Cumulative gossip-layer counters.
#[derive(Debug, Clone, Default)]
pub struct GossipStats {
    /// Nodes first learned about via gossip.
    pub discoveries: u64,
    /// Evicted nodes that returned with a higher incarnation.
    pub rejoins: u64,
    /// Peers evicted by the local lifecycle.
    pub evictions: u64,
}

/// A membership node: replicated heartbeats + failure detector + eviction.
#[derive(Debug, Clone)]
pub struct GossipNode {
    me: NodeId,
    cfg: GossipConfig,
    rng: DetRng,
    state: GossipState,
    detector: FailureDetector,
    /// Live gossip targets (view minus self minus evicted), sorted.
    targets: Vec<NodeId>,
    /// `(node, incarnation)` eviction tombstones, sorted by node.
    tombstones: Vec<(NodeId, u64)>,
    /// Confirmed-dead peers awaiting their eviction grace: `(peer,
    /// evict_at)`.
    evict_queue: Vec<(NodeId, u64)>,
    /// Scratch for detector verdicts.
    verdicts: Vec<Verdict>,
    last_activation: Option<u64>,
    /// Rotation cursor of the digest window.
    cursor: usize,
    /// Cumulative counters.
    pub stats: GossipStats,
}

impl GossipNode {
    /// A node knowing `peers` as its initial membership (a joiner passes its
    /// seed contacts; an original member passes the founding set).
    pub fn new(me: NodeId, peers: &[NodeId], cfg: GossipConfig) -> Self {
        let mut state = GossipState::new(me);
        state.set_heartbeat(0);
        let mut detector = FailureDetector::new(cfg.detector);
        let mut targets: Vec<NodeId> = peers.iter().copied().filter(|&p| p != me).collect();
        targets.sort_unstable();
        targets.dedup();
        for &p in &targets {
            detector.register(p, 0);
        }
        GossipNode {
            me,
            rng: DetRng::new(cfg.seed).split(me.0),
            cfg,
            state,
            detector,
            targets,
            tombstones: Vec::new(),
            evict_queue: Vec::new(),
            verdicts: Vec::new(),
            last_activation: None,
            cursor: 0,
            stats: GossipStats::default(),
        }
    }

    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The failure detector (read side).
    pub fn detector(&self) -> &FailureDetector {
        &self.detector
    }

    /// Current live view: peers this node would gossip with.
    pub fn live_view(&self) -> &[NodeId] {
        &self.targets
    }

    /// Has this node heard of `peer` (and not evicted it)?
    pub fn knows(&self, peer: NodeId) -> bool {
        self.targets.binary_search(&peer).is_ok()
    }

    /// Does this node currently consider `peer` dead — either Confirmed by
    /// the detector or already evicted?
    pub fn considers_dead(&self, peer: NodeId) -> bool {
        matches!(self.detector.health(peer), Some(Health::Confirmed { .. }))
            || self.is_evicted(peer)
    }

    /// Has the local lifecycle evicted `peer`?
    pub fn is_evicted(&self, peer: NodeId) -> bool {
        self.tombstones.binary_search_by_key(&peer, |e| e.0).is_ok()
    }

    /// Heartbeat counter gossip has replicated for `peer`.
    pub fn heartbeat_of(&self, peer: NodeId) -> Option<u64> {
        self.state.heartbeat(peer)
    }

    /// Rejoin after having been evicted elsewhere: bump the incarnation so
    /// the new life outranks every tombstone held against the old one. The
    /// membership layer calls this when a recovered node learns it was
    /// declared dead.
    pub fn rejoin(&mut self) {
        self.state.bump_incarnation();
        self.last_activation = None; // force a detector rebase on next tick
    }

    fn tombstone_at(&self, node: NodeId) -> Option<u64> {
        self.tombstones
            .binary_search_by_key(&node, |e| e.0)
            .ok()
            .map(|i| self.tombstones[i].1)
    }

    fn effective_window(&self) -> usize {
        if self.cfg.window > 0 {
            self.cfg.window
        } else {
            (self.state.len() / 16).max(16)
        }
    }

    fn add_target(&mut self, peer: NodeId, now: u64) {
        if peer == self.me {
            return;
        }
        if let Err(i) = self.targets.binary_search(&peer) {
            self.targets.insert(i, peer);
            self.detector.register(peer, now);
        }
    }

    /// Execute a local eviction: drop the peer's state and detector record,
    /// tombstone its incarnation.
    fn evict(&mut self, peer: NodeId) {
        let inc = self.state.freshness(peer).map_or(0, |f| f.0);
        if let Ok(i) = self.targets.binary_search(&peer) {
            self.targets.remove(i);
        }
        self.detector.forget(peer);
        self.state.forget(peer);
        match self.tombstones.binary_search_by_key(&peer, |e| e.0) {
            Ok(i) => self.tombstones[i].1 = self.tombstones[i].1.max(inc),
            Err(i) => self.tombstones.insert(i, (peer, inc)),
        }
        self.stats.evictions += 1;
    }

    /// The rotating digest window starting at the cursor, own line first.
    fn window(&mut self) -> Vec<DigestEntry> {
        let known = self.state.len();
        let w = self.effective_window().min(known);
        let mut out = Vec::with_capacity(w + 1);
        out.push(
            self.state
                .digest_entry(self.me)
                .expect("own record always present"),
        );
        for k in 0..w {
            let node = self.state.node_at((self.cursor + k) % known);
            if node != self.me {
                out.push(self.state.digest_entry(node).expect("indexed id"));
            }
        }
        self.cursor = (self.cursor + w) % known.max(1);
        out
    }

    fn apply_delta(&mut self, delta: &[NodeDelta], now: u64) {
        for nd in delta {
            if nd.node == self.me {
                continue;
            }
            // Tombstoned lives stay dead; higher incarnations void the stone.
            if let Some(t) = self.tombstone_at(nd.node) {
                if nd.incarnation <= t {
                    continue;
                }
                let i = self
                    .tombstones
                    .binary_search_by_key(&nd.node, |e| e.0)
                    .expect("tombstone present");
                self.tombstones.remove(i);
                self.stats.rejoins += 1;
            }
            let out = self.state.apply(nd);
            if out.discovered {
                self.stats.discoveries += 1;
            }
            if out.discovered || out.advanced {
                self.add_target(nd.node, now);
            }
            if out.advanced {
                if let Some(Verdict::Revived(_)) = self.detector.observe(nd.node, now) {
                    // Back from the dead before eviction: cancel the grace.
                    self.evict_queue.retain(|e| e.0 != nd.node);
                }
            }
        }
    }

    fn delta_for(&self, digest: &[DigestEntry], budget: usize) -> Vec<NodeDelta> {
        let tomb = &self.tombstones;
        self.state.delta_for(digest, budget, |n| {
            tomb.binary_search_by_key(&n, |e| e.0).is_ok()
        })
    }

    /// Run the detector + eviction lifecycle for this activation.
    fn lifecycle(&mut self, now: u64) {
        let mut verdicts = std::mem::take(&mut self.verdicts);
        verdicts.clear();
        self.detector.tick(now, &mut verdicts);
        for v in &verdicts {
            match *v {
                Verdict::Confirmed(peer) => {
                    self.evict_queue.push((peer, now + self.cfg.evict_ticks));
                }
                Verdict::Revived(peer) => {
                    self.evict_queue.retain(|e| e.0 != peer);
                }
                Verdict::Suspected(_) => {}
            }
        }
        self.verdicts = verdicts;
        let mut due = 0;
        while due < self.evict_queue.len() {
            if self.evict_queue[due].1 <= now {
                let (peer, _) = self.evict_queue.remove(due);
                self.evict(peer);
            } else {
                due += 1;
            }
        }
    }
}

impl Protocol for GossipNode {
    type Msg = GossipMsg;

    fn on_activate(&mut self, ctx: &mut Ctx<GossipMsg>) {
        let now = ctx.now();
        // Pause detection: a long activation gap means *we* were down (or
        // this is our first breath) — silence observed across it says
        // nothing about the peers.
        match self.last_activation {
            Some(prev) if now.saturating_sub(prev) <= RESUME_GAP => {}
            _ => self.detector.rebase_all(now),
        }
        self.last_activation = Some(now);
        let hb = self.state.heartbeat(self.me).unwrap_or(0);
        self.state.set_heartbeat(hb + 1);
        self.lifecycle(now);
        if self.targets.is_empty() {
            return;
        }
        let peer = *self.rng.pick(&self.targets);
        let window = self.window();
        ctx.send(peer, GossipMsg::Syn { window });
    }

    fn on_message(&mut self, from: NodeId, msg: GossipMsg, ctx: &mut Ctx<GossipMsg>) {
        let now = ctx.now();
        // An evicted ghost is ignored — unless it speaks for itself with a
        // higher incarnation. The leading line of a Syn window is the
        // sender's own record, so a genuinely rejoining node (which bumped
        // its incarnation) lifts its tombstone here; without this, two
        // mutually-evicted nodes could never reconcile (each drops the
        // other's Syn, so the higher incarnation is never seen).
        if let Some(stone) = self.tombstone_at(from) {
            let rejoined = matches!(
                &msg,
                GossipMsg::Syn { window }
                    if window.first().is_some_and(|d| d.node == from && d.incarnation > stone)
            );
            if !rejoined {
                return;
            }
            let i = self
                .tombstones
                .binary_search_by_key(&from, |e| e.0)
                .expect("tombstone present");
            self.tombstones.remove(i);
            self.stats.rejoins += 1;
        }
        let budget = self.effective_window() * 4;
        match msg {
            GossipMsg::Syn { window } => {
                let delta = self.delta_for(&window, budget);
                let tomb = &self.tombstones;
                let want = self.state.wants(&window, |n, inc| {
                    tomb.binary_search_by_key(&n, |e| e.0)
                        .is_ok_and(|i| tomb[i].1 >= inc)
                });
                ctx.send(from, GossipMsg::SynAck { delta, want });
            }
            GossipMsg::SynAck { delta, want } => {
                self.apply_delta(&delta, now);
                let delta = self.delta_for(&want, budget);
                ctx.send(from, GossipMsg::Ack { delta });
            }
            GossipMsg::Ack { delta } => {
                self.apply_delta(&delta, now);
            }
        }
    }

    /// Gossip is perpetual soft state — it never blocks quiescence.
    fn done(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::K_HEARTBEAT;
    use dpq_core::{BitSize, MsgKind};

    #[test]
    fn gossip_msg_bits_scale_with_payload() {
        let small = GossipMsg::Syn { window: Vec::new() };
        let big = GossipMsg::Syn {
            window: (0..32)
                .map(|i| DigestEntry {
                    node: NodeId(i),
                    incarnation: 0,
                    max_version: i,
                })
                .collect(),
        };
        assert!(big.bits() > small.bits() + 32);
        assert_eq!(small.kind(), MsgKind("gossip.syn"));
    }

    #[test]
    fn window_rotates_and_always_leads_with_self() {
        let peers: Vec<NodeId> = (0..40).map(NodeId).collect();
        let mut node = GossipNode::new(NodeId(3), &peers, GossipConfig::default());
        // Feed the state so the view is the full peer set.
        for &p in &peers {
            if p != NodeId(3) {
                node.apply_delta(
                    &[NodeDelta {
                        node: p,
                        incarnation: 0,
                        entries: vec![(K_HEARTBEAT, 1, 1)],
                    }],
                    0,
                );
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..8 {
            let w = node.window();
            assert_eq!(w[0].node, NodeId(3));
            seen.extend(w.iter().map(|d| d.node));
        }
        // A few rotations cover every known node.
        assert_eq!(seen.len(), 40);
    }

    #[test]
    fn eviction_tombstones_block_regossip_until_rejoin() {
        let mut node = GossipNode::new(NodeId(0), &[NodeId(1), NodeId(2)], GossipConfig::default());
        node.apply_delta(
            &[NodeDelta {
                node: NodeId(1),
                incarnation: 0,
                entries: vec![(K_HEARTBEAT, 1, 1)],
            }],
            0,
        );
        node.evict(NodeId(1));
        assert!(node.is_evicted(NodeId(1)));
        assert!(!node.knows(NodeId(1)));
        // Stale gossip about the ghost is ignored…
        node.apply_delta(
            &[NodeDelta {
                node: NodeId(1),
                incarnation: 0,
                entries: vec![(K_HEARTBEAT, 9, 9)],
            }],
            21,
        );
        assert!(!node.knows(NodeId(1)));
        // …but a higher incarnation (rejoin) lifts the tombstone.
        node.apply_delta(
            &[NodeDelta {
                node: NodeId(1),
                incarnation: 1,
                entries: vec![(K_HEARTBEAT, 1, 1)],
            }],
            22,
        );
        assert!(node.knows(NodeId(1)));
        assert!(!node.is_evicted(NodeId(1)));
        assert_eq!(node.stats.rejoins, 1);
        assert_eq!(node.stats.evictions, 1);
    }
}
