//! Versioned per-node heartbeat records with anti-entropy reconciliation.
//!
//! Every node publishes one heartbeat counter about *itself*; gossip
//! replicates everyone's counter everywhere. Each bump advances a per-node
//! version, so "what does peer B know about node X that I don't" compresses
//! to a single integer comparison: B's `max_version` for X against mine. A
//! digest is a list of `(node, incarnation, max_version)` triples; a delta
//! carries a node's heartbeat only when its version exceeds the digest's
//! watermark — scuttlebutt-style.
//!
//! Incarnations order *lifetimes*: a node that rejoins after being declared
//! dead bumps its incarnation, which outranks every version of the previous
//! life and voids eviction tombstones held against it.

use dpq_core::{wire, NodeId};

/// The heartbeat's key in a [`NodeDelta`] entry, the only key any node
/// writes. Version progress on it is the liveness signal the failure
/// detector consumes.
pub const K_HEARTBEAT: u64 = 0;
/// One digest line: "for `node`'s life `incarnation` I have seen every write
/// up to `max_version`".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestEntry {
    /// The node the line describes.
    pub node: NodeId,
    /// That node's lifetime counter as known to the digest's sender.
    pub incarnation: u64,
    /// Highest entry version seen for that lifetime.
    pub max_version: u64,
}

wire!(struct DigestEntry { node, incarnation, max_version });

/// The writes one delta carries for one node: everything the recipient's
/// digest proved it was missing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeDelta {
    /// The node whose state the entries describe.
    pub node: NodeId,
    /// The lifetime the entries belong to.
    pub incarnation: u64,
    /// `(key, value, version)` triples, version-ascending.
    pub entries: Vec<(u64, u64, u64)>,
}

wire!(struct NodeDelta { node, incarnation, entries });

/// What applying one [`NodeDelta`] changed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApplyOutcome {
    /// The node was previously unknown (first discovery).
    pub discovered: bool,
    /// The node's `(incarnation, max_version)` advanced — a fresh sign of
    /// life the failure detector should observe.
    pub advanced: bool,
    /// Entries actually merged (stale ones are dropped silently).
    pub applied: u64,
}

/// Everything one node knows about one (other) node: its heartbeat in one
/// lifetime.
#[derive(Debug, Clone, Copy, Default)]
struct NodeRecord {
    incarnation: u64,
    heartbeat: u64,
    /// Version of `heartbeat`; 0 until the first one arrives.
    version: u64,
}

/// One node's replicated view of the whole membership's heartbeats.
#[derive(Debug, Clone)]
pub struct GossipState {
    me: NodeId,
    /// Sorted by node id.
    nodes: Vec<(NodeId, NodeRecord)>,
}

impl GossipState {
    /// A fresh view knowing only `me` (incarnation 0, no heartbeat yet).
    pub fn new(me: NodeId) -> Self {
        GossipState {
            me,
            nodes: vec![(me, NodeRecord::default())],
        }
    }

    /// Number of nodes this view has state for (including `me`).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when only `me` is known.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    fn idx(&self, node: NodeId) -> Option<usize> {
        self.nodes.binary_search_by_key(&node, |e| e.0).ok()
    }

    /// Is `node` present in the view?
    pub fn knows(&self, node: NodeId) -> bool {
        self.idx(node).is_some()
    }

    /// The id at sorted position `i` — the rotation cursor of the digest
    /// window walks these positions.
    pub fn node_at(&self, i: usize) -> NodeId {
        self.nodes[i].0
    }

    fn own(&mut self) -> &mut NodeRecord {
        let i = self.idx(self.me).expect("own record always present");
        &mut self.nodes[i].1
    }

    /// Publish `value` as **my own** heartbeat, bumping my version.
    pub fn set_heartbeat(&mut self, value: u64) {
        let rec = self.own();
        rec.heartbeat = value;
        rec.version += 1;
    }

    /// `node`'s heartbeat (`None` until one has arrived).
    pub fn heartbeat(&self, node: NodeId) -> Option<u64> {
        let rec = &self.nodes[self.idx(node)?].1;
        (rec.version > 0).then_some(rec.heartbeat)
    }

    /// `(incarnation, max_version)` for `node` — the freshness watermark.
    pub fn freshness(&self, node: NodeId) -> Option<(u64, u64)> {
        self.idx(node)
            .map(|i| (self.nodes[i].1.incarnation, self.nodes[i].1.version))
    }

    /// Start a new lifetime for **my own** record: incarnation + 1, versions
    /// restart. Rejoin after eviction calls this; the higher incarnation
    /// outranks tombstones everywhere.
    pub fn bump_incarnation(&mut self) {
        let rec = self.own();
        // Re-publish the heartbeat immediately so the new life is visible.
        *rec = NodeRecord {
            incarnation: rec.incarnation + 1,
            heartbeat: rec.heartbeat + 1,
            version: 1,
        };
    }

    /// My digest line for `node` (`None` if unknown).
    pub fn digest_entry(&self, node: NodeId) -> Option<DigestEntry> {
        self.idx(node).map(|i| DigestEntry {
            node,
            incarnation: self.nodes[i].1.incarnation,
            max_version: self.nodes[i].1.version,
        })
    }

    /// Everything I know that the digest's sender provably lacks, capped at
    /// `budget` entries total. `skip` filters nodes I refuse to gossip about
    /// (eviction tombstones).
    pub fn delta_for(
        &self,
        digest: &[DigestEntry],
        budget: usize,
        mut skip: impl FnMut(NodeId) -> bool,
    ) -> Vec<NodeDelta> {
        let mut out = Vec::new();
        for d in digest {
            if out.len() >= budget || skip(d.node) {
                continue;
            }
            let Some(i) = self.idx(d.node) else { continue };
            let rec = self.nodes[i].1;
            let floor = match rec.incarnation.cmp(&d.incarnation) {
                std::cmp::Ordering::Greater => 0, // new life: send everything
                std::cmp::Ordering::Equal => d.max_version,
                std::cmp::Ordering::Less => continue,
            };
            if rec.version > floor {
                out.push(NodeDelta {
                    node: d.node,
                    incarnation: rec.incarnation,
                    entries: vec![(K_HEARTBEAT, rec.heartbeat, rec.version)],
                });
            }
        }
        out
    }

    /// The digest lines where the *sender* knows more than I do — what I
    /// should ask it for. Unknown nodes come back as `(inc, 0)` watermarks.
    /// `skip` suppresses asking about nodes I hold a tombstone for **at or
    /// above** the advertised incarnation.
    pub fn wants(
        &self,
        digest: &[DigestEntry],
        mut skip: impl FnMut(NodeId, u64) -> bool,
    ) -> Vec<DigestEntry> {
        let mut out = Vec::new();
        for d in digest {
            if skip(d.node, d.incarnation) {
                continue;
            }
            let mine = self.freshness(d.node).unwrap_or((0, 0));
            let theirs = (d.incarnation, d.max_version);
            let unknown = self.idx(d.node).is_none();
            if unknown || theirs > mine {
                out.push(DigestEntry {
                    node: d.node,
                    incarnation: if unknown { 0 } else { mine.0 },
                    max_version: if unknown { 0 } else { mine.1 },
                });
            }
        }
        out
    }

    /// Merge one node's delta. Stale incarnations are rejected wholesale;
    /// within the current incarnation, the heartbeat's version decides.
    /// Entries under any key but [`K_HEARTBEAT`] are ignored: no node
    /// writes one.
    pub fn apply(&mut self, nd: &NodeDelta) -> ApplyOutcome {
        let mut out = ApplyOutcome::default();
        let i = match self.nodes.binary_search_by_key(&nd.node, |e| e.0) {
            Ok(i) => i,
            Err(i) => {
                if nd.node == self.me {
                    return out; // never let peers rewrite my own record
                }
                self.nodes.insert(i, (nd.node, NodeRecord::default()));
                out.discovered = true;
                i
            }
        };
        if nd.node == self.me {
            // Gossip echoes of my own state can never outrank my local
            // writes within my current life; a *higher* incarnation echo
            // would mean a split-brain duplicate id — reject it too.
            return out;
        }
        let rec = &mut self.nodes[i].1;
        let before = (rec.incarnation, rec.version);
        if nd.incarnation < rec.incarnation {
            return out;
        }
        if nd.incarnation > rec.incarnation {
            *rec = NodeRecord {
                incarnation: nd.incarnation,
                ..NodeRecord::default()
            };
        }
        for &(key, value, version) in &nd.entries {
            if key == K_HEARTBEAT && version > rec.version {
                rec.heartbeat = value;
                rec.version = version;
                out.applied += 1;
            }
        }
        out.advanced = (rec.incarnation, rec.version) > before;
        out
    }

    /// Drop `node`'s record entirely (eviction executes this; a tombstone in
    /// the caller stops it from flowing back in).
    pub fn forget(&mut self, node: NodeId) {
        if node == self.me {
            return;
        }
        if let Some(i) = self.idx(node) {
            self.nodes.remove(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_of(s: &GossipState, nodes: &[u64]) -> Vec<DigestEntry> {
        nodes
            .iter()
            .filter_map(|&n| s.digest_entry(NodeId(n)))
            .collect()
    }

    fn zero_watermark(node: u64) -> DigestEntry {
        DigestEntry {
            node: NodeId(node),
            incarnation: 0,
            max_version: 0,
        }
    }

    #[test]
    fn set_bumps_versions_monotonically() {
        let mut s = GossipState::new(NodeId(1));
        assert_eq!(s.heartbeat(NodeId(1)), None);
        s.set_heartbeat(10);
        s.set_heartbeat(11);
        assert_eq!(s.heartbeat(NodeId(1)), Some(11));
        assert_eq!(s.freshness(NodeId(1)), Some((0, 2)));
    }

    #[test]
    fn delta_carries_only_missing_entries() {
        let mut a = GossipState::new(NodeId(0));
        a.set_heartbeat(1);
        a.set_heartbeat(2);
        let mut b = GossipState::new(NodeId(1));
        // b asks with a zero watermark for node 0: only the latest
        // heartbeat travels.
        let delta = a.delta_for(&[zero_watermark(0)], 64, |_| false);
        assert_eq!(delta.len(), 1);
        assert_eq!(delta[0].entries, vec![(K_HEARTBEAT, 2, 2)]);
        for nd in &delta {
            b.apply(nd);
        }
        assert_eq!(b.heartbeat(NodeId(0)), Some(2));
        // Now b is caught up: same digest produces an empty delta.
        let caught_up = digest_of(&b, &[0]);
        assert!(a.delta_for(&caught_up, 64, |_| false).is_empty());
    }

    #[test]
    fn apply_reports_advancement_and_discovery() {
        let mut a = GossipState::new(NodeId(0));
        a.set_heartbeat(1);
        let delta = a.delta_for(&[zero_watermark(0)], 64, |_| false);
        let mut b = GossipState::new(NodeId(1));
        let out = b.apply(&delta[0]);
        assert!(out.discovered && out.advanced);
        assert_eq!(out.applied, 1);
        // Replaying the same delta is a no-op.
        let again = b.apply(&delta[0]);
        assert!(!again.discovered && !again.advanced);
        assert_eq!(again.applied, 0);
    }

    #[test]
    fn apply_ignores_keys_other_than_the_heartbeat() {
        let mut b = GossipState::new(NodeId(1));
        let out = b.apply(&NodeDelta {
            node: NodeId(0),
            incarnation: 0,
            entries: vec![(7, 70, 5), (K_HEARTBEAT, 3, 2)],
        });
        assert_eq!(out.applied, 1);
        assert_eq!(b.heartbeat(NodeId(0)), Some(3));
        assert_eq!(b.freshness(NodeId(0)), Some((0, 2)));
    }

    #[test]
    fn higher_incarnation_resets_the_record() {
        let mut a = GossipState::new(NodeId(0));
        for hb in 1..=5 {
            a.set_heartbeat(hb);
        }
        let mut b = GossipState::new(NodeId(1));
        for nd in a.delta_for(&[zero_watermark(0)], 64, |_| false) {
            b.apply(&nd);
        }
        assert_eq!(b.freshness(NodeId(0)), Some((0, 5)));
        a.bump_incarnation();
        assert_eq!(a.heartbeat(NodeId(0)), Some(6));
        // The new life is sent whole to a peer still on the old one.
        let nd = a.delta_for(&digest_of(&b, &[0]), 64, |_| false);
        assert_eq!(nd[0].incarnation, 1);
        let out = b.apply(&nd[0]);
        assert!(out.advanced);
        // The old life's version is gone.
        assert_eq!(b.freshness(NodeId(0)), Some((1, 1)));
        assert_eq!(b.heartbeat(NodeId(0)), Some(6));
        // Stale writes from the old incarnation are rejected wholesale.
        let stale = NodeDelta {
            node: NodeId(0),
            incarnation: 0,
            entries: vec![(K_HEARTBEAT, 91, 50)],
        };
        let res = b.apply(&stale);
        assert_eq!(res.applied, 0);
        assert_eq!(b.heartbeat(NodeId(0)), Some(6));
    }

    #[test]
    fn wants_flags_unknown_and_stale_nodes() {
        let mut a = GossipState::new(NodeId(0));
        a.set_heartbeat(1);
        let b = GossipState::new(NodeId(1));
        let digest = digest_of(&a, &[0]);
        let wants = b.wants(&digest, |_, _| false);
        assert_eq!(wants.len(), 1);
        assert_eq!(wants[0].max_version, 0);
        // A tombstone suppresses the want.
        let none = b.wants(&digest, |n, inc| n == NodeId(0) && inc == 0);
        assert!(none.is_empty());
    }

    #[test]
    fn own_record_resists_echoes() {
        let mut a = GossipState::new(NodeId(0));
        a.set_heartbeat(5);
        let echo = NodeDelta {
            node: NodeId(0),
            incarnation: 0,
            entries: vec![(K_HEARTBEAT, 999, 40)],
        };
        a.apply(&echo);
        assert_eq!(a.heartbeat(NodeId(0)), Some(5));
    }

    #[test]
    fn forget_removes_and_budget_caps() {
        let mut a = GossipState::new(NodeId(0));
        for n in 1..10 {
            a.apply(&NodeDelta {
                node: NodeId(n),
                incarnation: 0,
                entries: vec![(K_HEARTBEAT, n, 1)],
            });
        }
        let all: Vec<DigestEntry> = (1..10).map(zero_watermark).collect();
        let d = a.delta_for(&all, 4, |_| false);
        assert_eq!(d.len(), 4);
        let mut b = GossipState::new(NodeId(10));
        b.apply(&d[0]);
        assert!(b.knows(NodeId(1)));
        b.forget(NodeId(1));
        assert!(!b.knows(NodeId(1)));
    }
}
