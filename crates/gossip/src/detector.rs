//! The suspicion → confirmation lifecycle over phi-accrual windows.
//!
//! Each peer carries an [`ArrivalWindow`]; the detector turns phi crossings
//! into state transitions:
//!
//! * **Alive** — phi below threshold.
//! * **Suspect** — phi crossed the threshold at `since`; any heartbeat
//!   progress cancels the suspicion (and counts a false positive).
//! * **Confirmed** — phi stayed above threshold for `confirm_ticks` after
//!   `since`; the peer is considered dead. Heartbeat progress still revives
//!   it (a *confirmed* false positive), because fail-pause nodes can return.
//!
//! Eviction itself — dropping the peer and tombstoning its incarnation — is
//! the caller's move ([`crate::proto::GossipNode`]); the detector only
//! renders verdicts.
//!
//! Scanning every peer every tick would cost O(n) per node per round —
//! O(n²) per simulated round, fatal at storm scale. Instead every peer has a
//! *deadline*: the logical time its phi first crosses the threshold if it
//! stays silent. Deadlines sit in a lazy min-heap; a tick only pops due
//! entries and re-validates them against the live window (observations make
//! heap entries stale; stale pops are re-armed, not trusted).

use crate::phi::ArrivalWindow;
use dpq_core::NodeId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Detector tuning.
#[derive(Debug, Clone, Copy)]
pub struct DetectorConfig {
    /// Suspicion threshold: phi at which Alive → Suspect.
    pub threshold: f64,
    /// Ticks a suspicion must survive before it hardens into Confirmed.
    pub confirm_ticks: u64,
    /// Assumed mean inter-arrival before two real samples exist.
    pub bootstrap_mean: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            threshold: 8.0,
            confirm_ticks: 16,
            bootstrap_mean: 32.0,
        }
    }
}

/// A peer's detector verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Heartbeats flowing.
    Alive,
    /// Phi crossed the threshold at the contained tick.
    Suspect {
        /// When suspicion began.
        since: u64,
    },
    /// Suspicion survived the confirmation delay: considered dead.
    Confirmed {
        /// When suspicion began (eviction latency is measured from here).
        since: u64,
        /// When the suspicion hardened.
        at: u64,
    },
}

/// A state transition surfaced by [`FailureDetector::tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Alive → Suspect.
    Suspected(NodeId),
    /// Suspect → Confirmed.
    Confirmed(NodeId),
    /// Suspect/Confirmed → Alive on heartbeat progress (a false positive).
    Revived(NodeId),
}

/// Lifecycle counters (cumulative).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectorStats {
    /// Alive → Suspect transitions.
    pub suspicions: u64,
    /// Suspect → Confirmed transitions.
    pub confirms: u64,
    /// Suspicions cancelled by a live heartbeat.
    pub fp_suspicions: u64,
    /// Confirmations cancelled by a live heartbeat — the detector declared
    /// dead a node that was merely slow or partitioned.
    pub fp_confirms: u64,
}

#[derive(Debug, Clone)]
struct PeerRecord {
    window: ArrivalWindow,
    health: Health,
    /// Bumped on every observation; heap entries carry the stamp they were
    /// armed at, so a pop can tell whether it is stale.
    stamp: u64,
}

/// Phi-accrual failure detector over a set of peers.
#[derive(Debug, Clone)]
pub struct FailureDetector {
    cfg: DetectorConfig,
    /// Sorted by node id.
    peers: Vec<(NodeId, PeerRecord)>,
    /// `(deadline, node, stamp)` lazy min-heap.
    deadlines: BinaryHeap<Reverse<(u64, NodeId, u64)>>,
    stats: DetectorStats,
}

impl FailureDetector {
    /// A detector with no peers yet.
    pub fn new(cfg: DetectorConfig) -> Self {
        FailureDetector {
            cfg,
            peers: Vec::new(),
            deadlines: BinaryHeap::new(),
            stats: DetectorStats::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.cfg
    }

    /// Cumulative lifecycle counters.
    pub fn stats(&self) -> DetectorStats {
        self.stats
    }

    /// Number of tracked peers.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// No peers tracked.
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    fn idx(&self, peer: NodeId) -> Option<usize> {
        self.peers.binary_search_by_key(&peer, |e| e.0).ok()
    }

    fn arm(&mut self, peer: NodeId, deadline: u64, stamp: u64) {
        self.deadlines.push(Reverse((deadline, peer, stamp)));
    }

    /// Start tracking `peer`, treating `now` as first contact. No-op if
    /// already tracked.
    pub fn register(&mut self, peer: NodeId, now: u64) {
        if let Err(i) = self.peers.binary_search_by_key(&peer, |e| e.0) {
            let rec = PeerRecord {
                window: ArrivalWindow::new(now),
                health: Health::Alive,
                stamp: 0,
            };
            let deadline = rec
                .window
                .deadline(self.cfg.threshold, self.cfg.bootstrap_mean);
            self.peers.insert(i, (peer, rec));
            self.arm(peer, deadline, 0);
        }
    }

    /// Stop tracking `peer` (eviction executed, or peer left cleanly).
    pub fn forget(&mut self, peer: NodeId) {
        if let Some(i) = self.idx(peer) {
            self.peers.remove(i);
        }
        // Heap entries for the peer die lazily on pop.
    }

    /// Heartbeat progress for `peer` at `now`. Returns `Some(Verdict::
    /// Revived)` when this cancels a suspicion or confirmation.
    pub fn observe(&mut self, peer: NodeId, now: u64) -> Option<Verdict> {
        let threshold = self.cfg.threshold;
        let bootstrap = self.cfg.bootstrap_mean;
        let i = self.idx(peer)?;
        let rec = &mut self.peers[i].1;
        rec.window.observe(now);
        rec.stamp += 1;
        let stamp = rec.stamp;
        let deadline = rec.window.deadline(threshold, bootstrap);
        let was = rec.health;
        rec.health = Health::Alive;
        self.arm(peer, deadline, stamp);
        match was {
            Health::Alive => None,
            Health::Suspect { .. } => {
                self.stats.fp_suspicions += 1;
                Some(Verdict::Revived(peer))
            }
            Health::Confirmed { .. } => {
                self.stats.fp_confirms += 1;
                Some(Verdict::Revived(peer))
            }
        }
    }

    /// The observer itself was paused: swallow the silence for every peer
    /// instead of suspecting the whole world at once.
    pub fn rebase_all(&mut self, now: u64) {
        let threshold = self.cfg.threshold;
        let bootstrap = self.cfg.bootstrap_mean;
        let mut rearm = Vec::with_capacity(self.peers.len());
        for (peer, rec) in &mut self.peers {
            rec.window.rebase(now);
            rec.stamp += 1;
            rec.health = Health::Alive;
            rearm.push((*peer, rec.window.deadline(threshold, bootstrap), rec.stamp));
        }
        for (peer, deadline, stamp) in rearm {
            self.arm(peer, deadline, stamp);
        }
    }

    /// Advance the detector clock, surfacing transitions due at `now`.
    pub fn tick(&mut self, now: u64, out: &mut Vec<Verdict>) {
        while let Some(&Reverse((deadline, peer, stamp))) = self.deadlines.peek() {
            if deadline > now {
                break;
            }
            self.deadlines.pop();
            let Some(i) = self.idx(peer) else { continue };
            let threshold = self.cfg.threshold;
            let bootstrap = self.cfg.bootstrap_mean;
            let confirm = self.cfg.confirm_ticks;
            let rec = &mut self.peers[i].1;
            if rec.stamp != stamp {
                continue; // observation outran this deadline
            }
            match rec.health {
                Health::Alive => {
                    if rec.window.phi(now, bootstrap) >= threshold {
                        rec.health = Health::Suspect { since: now };
                        rec.stamp += 1;
                        let s = rec.stamp;
                        self.stats.suspicions += 1;
                        out.push(Verdict::Suspected(peer));
                        self.arm(peer, now + confirm, s);
                    } else {
                        // Deadline computed from an older mean; re-arm.
                        rec.stamp += 1;
                        let s = rec.stamp;
                        let d = rec.window.deadline(threshold, bootstrap).max(now + 1);
                        self.arm(peer, d, s);
                    }
                }
                Health::Suspect { since } => {
                    if rec.window.phi(now, bootstrap) >= threshold {
                        rec.health = Health::Confirmed { since, at: now };
                        rec.stamp += 1;
                        self.stats.confirms += 1;
                        out.push(Verdict::Confirmed(peer));
                    } else {
                        // Mean drifted; drop back without counting an FP
                        // (no observation arrived — phi math simply moved).
                        rec.health = Health::Alive;
                        rec.stamp += 1;
                        let s = rec.stamp;
                        let d = rec.window.deadline(threshold, bootstrap).max(now + 1);
                        self.arm(peer, d, s);
                    }
                }
                Health::Confirmed { .. } => {}
            }
        }
    }

    /// Current verdict for `peer` (`None` when untracked).
    pub fn health(&self, peer: NodeId) -> Option<Health> {
        self.idx(peer).map(|i| self.peers[i].1.health)
    }

    /// Current phi for `peer`.
    pub fn phi(&self, peer: NodeId, now: u64) -> Option<f64> {
        self.idx(peer)
            .map(|i| self.peers[i].1.window.phi(now, self.cfg.bootstrap_mean))
    }

    /// Tracked peers and their verdicts, ascending by id.
    pub fn peers(&self) -> impl Iterator<Item = (NodeId, Health)> + '_ {
        self.peers.iter().map(|(p, r)| (*p, r.health))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DetectorConfig {
        DetectorConfig {
            threshold: 3.0,
            confirm_ticks: 5,
            bootstrap_mean: 8.0,
        }
    }

    fn drive(d: &mut FailureDetector, peer: NodeId, upto: u64, every: u64, out: &mut Vec<Verdict>) {
        let mut t = 0;
        while t < upto {
            t += 1;
            if every > 0 && t % every == 0 {
                d.observe(peer, t);
            }
            d.tick(t, out);
        }
    }

    #[test]
    fn steady_heartbeats_stay_alive() {
        let mut d = FailureDetector::new(cfg());
        d.register(NodeId(1), 0);
        let mut out = Vec::new();
        drive(&mut d, NodeId(1), 500, 4, &mut out);
        assert!(out.is_empty(), "verdicts: {out:?}");
        assert_eq!(d.health(NodeId(1)), Some(Health::Alive));
        assert_eq!(d.stats().suspicions, 0);
    }

    #[test]
    fn silence_suspects_then_confirms() {
        let mut d = FailureDetector::new(cfg());
        d.register(NodeId(1), 0);
        let mut out = Vec::new();
        // Heartbeats every 4 ticks until t=100, then silence.
        drive(&mut d, NodeId(1), 100, 4, &mut out);
        assert!(out.is_empty());
        let mut t = 100;
        while t < 300 {
            t += 1;
            d.tick(t, &mut out);
        }
        assert!(matches!(out[0], Verdict::Suspected(NodeId(1))), "{out:?}");
        assert!(matches!(out[1], Verdict::Confirmed(NodeId(1))), "{out:?}");
        // phi=3 with mean 4 crosses at ~28 ticks of silence; confirm 5 later.
        let Health::Confirmed { since, at } = d.health(NodeId(1)).unwrap() else {
            panic!("not confirmed");
        };
        assert!((125..=135).contains(&since), "since {since}");
        assert_eq!(at, since + 5);
        assert_eq!(d.stats().confirms, 1);
    }

    #[test]
    fn late_heartbeat_revives_and_counts_fp() {
        let mut d = FailureDetector::new(cfg());
        d.register(NodeId(1), 0);
        let mut out = Vec::new();
        drive(&mut d, NodeId(1), 100, 4, &mut out);
        // Silence long enough to confirm, then a heartbeat returns.
        let mut t = 100;
        while t < 250 {
            t += 1;
            d.tick(t, &mut out);
        }
        assert_eq!(d.stats().confirms, 1);
        let v = d.observe(NodeId(1), 251);
        assert_eq!(v, Some(Verdict::Revived(NodeId(1))));
        assert_eq!(d.health(NodeId(1)), Some(Health::Alive));
        assert_eq!(d.stats().fp_confirms, 1);
        // And it can be re-suspected later.
        out.clear();
        let mut t = 251;
        while t < 500 {
            t += 1;
            d.tick(t, &mut out);
        }
        assert!(out
            .iter()
            .any(|v| matches!(v, Verdict::Suspected(NodeId(1)))));
    }

    #[test]
    fn rebase_prevents_mass_suspicion_after_observer_pause() {
        let mut d = FailureDetector::new(cfg());
        for p in 1..=5 {
            d.register(NodeId(p), 0);
        }
        let mut out = Vec::new();
        for t in 1..=40 {
            if t % 4 == 0 {
                for p in 1..=5 {
                    d.observe(NodeId(p), t);
                }
            }
            d.tick(t, &mut out);
        }
        // Observer paused until t=1000; rebase instead of ticking across.
        d.rebase_all(1000);
        d.tick(1000, &mut out);
        d.tick(1001, &mut out);
        assert!(out.is_empty(), "{out:?}");
        assert!((1..=5).all(|p| d.health(NodeId(p)) == Some(Health::Alive)));
    }

    #[test]
    fn forget_drops_the_peer() {
        let mut d = FailureDetector::new(cfg());
        d.register(NodeId(1), 0);
        d.forget(NodeId(1));
        assert!(d.health(NodeId(1)).is_none());
        let mut out = Vec::new();
        // Stale heap entries must not panic or resurrect the peer.
        for t in 1..200 {
            d.tick(t, &mut out);
        }
        assert!(out.is_empty());
        assert!(d.is_empty());
    }

    #[test]
    fn faster_cadence_tightens_detection_latency() {
        // The adaptive property: detection latency tracks the observed
        // cadence, not a fixed timeout.
        let mut latency = Vec::new();
        for every in [2u64, 8] {
            let mut d = FailureDetector::new(cfg());
            d.register(NodeId(1), 0);
            let mut out = Vec::new();
            drive(&mut d, NodeId(1), 200, every, &mut out);
            let mut t = 200;
            while d.stats().confirms == 0 && t < 2000 {
                t += 1;
                d.tick(t, &mut out);
            }
            latency.push(t - 200);
        }
        assert!(
            latency[0] * 2 < latency[1],
            "fast cadence {} vs slow {}",
            latency[0],
            latency[1]
        );
    }
}
