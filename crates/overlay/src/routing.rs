//! Point routing over the LDB (Lemma A.2).
//!
//! To route to a point `x ∈ [0,1)` we emulate classical de Bruijn
//! bit-prepending (§2.1) in the continuous label space: starting from a
//! middle virtual node with label `z`, prepending bit `b` moves to the point
//! `(b+z)/2` — which is *exactly* the label of that node's own left or right
//! virtual node, so the de Bruijn hop itself is a free virtual edge. Between
//! hops the message walks linearly (succ pointers) to the nearest middle
//! virtual node — O(1) expected linear hops since every third virtual node
//! is a middle — and after all `d ≈ log₂(3n)` bits are consumed it walks
//! linearly to the manager of `x`. Total: O(log n) message hops w.h.p.,
//! which experiment E13 measures.
//!
//! The logic is a pure function ([`advance`]) over a [`NodeView`], so every
//! protocol embeds it without duplicating state, and locality is enforced by
//! the type: a node can only move the message along edges it actually has.

use crate::ldb::{VirtId, VirtKind};
use crate::view::NodeView;
use dpq_core::{wire, NodeId};

/// A message being routed to the manager of `target`.
#[derive(Debug, Clone)]
pub struct RouteMsg<M> {
    /// Destination point in `[0,1)`.
    pub target: f64,
    /// The virtual node currently holding the message (always owned by the
    /// real node processing it).
    pub at: VirtId,
    /// De Bruijn bits consumed so far.
    pub steps_done: u32,
    /// Direction flag for the between-hops walk to the nearest middle
    /// virtual node: normally succ-ward, but flipped to pred-ward when the
    /// walk reaches the ring maximum — wrapping past 1.0 would replace a
    /// near-1 label with a near-0 one and destroy the converging de Bruijn
    /// recurrence (labels live on the *line* [0,1), only the cycle edges
    /// wrap).
    pub walk_back: bool,
    /// The payload being carried.
    pub payload: M,
}

impl<M> RouteMsg<M> {
    /// Start a route at `from`'s middle virtual node.
    pub fn start(from: NodeId, target: f64, payload: M) -> Self {
        debug_assert!((0.0..1.0).contains(&target));
        RouteMsg {
            target,
            at: VirtId::new(from, VirtKind::Middle),
            steps_done: 0,
            walk_back: false,
            payload,
        }
    }
}

wire!(struct RouteMsg<M> { target, at, steps_done, walk_back, payload });

/// Result of advancing a route at one real node.
#[derive(Debug)]
pub enum RouteOutcome<M> {
    /// The message reached the virtual node managing `target`.
    Delivered {
        /// The managing virtual node (the DHT slot owner).
        at: VirtId,
        /// The carried payload.
        payload: M,
    },
    /// The message must cross a linear edge to another real node.
    Forward {
        /// The next real node.
        to: NodeId,
        /// The route state to hand over.
        msg: RouteMsg<M>,
    },
}

/// Like [`RouteOutcome`] but keeps the payload boxed through forwards —
/// convenience alias for protocol code.
pub type RouteProgress<M> = RouteOutcome<M>;

/// Advance the route as far as possible inside the real node `view.me()`.
///
/// Free moves (virtual edges between the node's own virtual nodes, and
/// consecutive cycle positions that happen to belong to the same real node)
/// are looped through locally; the function returns on delivery or when the
/// next hop crosses to a different real node.
pub fn advance<M>(view: &NodeView, mut msg: RouteMsg<M>) -> RouteOutcome<M> {
    debug_assert_eq!(msg.at.real, view.me(), "message at a foreign virtual node");
    let d = view.route_bits();
    let scale = (1u64 << d) as f64;
    let truncated = (msg.target * scale) as u64 & ((1 << d) - 1);
    loop {
        let vv = view.virt(msg.at.kind);
        let next = if msg.steps_done < d {
            if msg.at.kind == VirtKind::Middle {
                // De Bruijn hop: prepend bit t_{d - steps_done}, landing on
                // our own left (bit 0) or right (bit 1) virtual node.
                let bit = (truncated >> msg.steps_done) & 1 == 1;
                msg.steps_done += 1;
                msg.walk_back = false;
                msg.at = VirtId::new(
                    view.me(),
                    if bit { VirtKind::Right } else { VirtKind::Left },
                );
                continue;
            }
            // Walk to the nearest middle virtual node: succ-ward until the
            // ring maximum, then pred-ward (never across the wrap — see
            // `walk_back`).
            if msg.walk_back {
                vv.pred
            } else if vv.succ_label > vv.label {
                vv.succ
            } else {
                msg.walk_back = true;
                vv.pred
            }
        } else {
            // All bits consumed: walk linearly to the manager of target.
            if vv.manages(msg.target) {
                return RouteOutcome::Delivered {
                    at: msg.at,
                    payload: msg.payload,
                };
            }
            if msg.target >= vv.label {
                vv.succ
            } else {
                vv.pred
            }
        };
        if next.real == view.me() {
            msg.at = next;
        } else {
            msg.at = next;
            return RouteOutcome::Forward { to: next.real, msg };
        }
    }
}

/// A single emulated de Bruijn *edge* (used by KSelect's copy-distribution
/// trees, §4.3): from a real node's middle label `z`, the 0-child lives at
/// point `z/2` (its own left virtual node) and the 1-child at `(1+z)/2` (its
/// right) — the message jumps there over the free virtual edge and then
/// walks linearly to the first *middle* virtual node, which is the child's
/// holder. Expected O(1) linear hops (every third ring position is a
/// middle).
#[derive(Debug, Clone)]
pub struct HopMsg<M> {
    /// The virtual node currently holding the hop.
    pub at: VirtId,
    /// Whether the walk flipped to pred-ward at the ring maximum.
    pub walk_back: bool,
    /// The payload being carried.
    pub payload: M,
}

wire!(struct HopMsg<M> { at, walk_back, payload });

/// Result of advancing a hop inside one real node.
#[derive(Debug)]
pub enum HopOutcome<M> {
    /// The payload reached the middle virtual node of `view.me()`.
    Arrived {
        /// The carried payload.
        payload: M,
    },
    /// The walk crosses to another real node.
    Forward {
        /// The next real node.
        to: NodeId,
        /// The hop to hand over.
        msg: HopMsg<M>,
    },
}

/// Start a de Bruijn hop from `view.me()`'s middle toward its `bit`-child and
/// advance as far as possible locally.
pub fn hop_start<M>(view: &NodeView, bit: bool, payload: M) -> HopOutcome<M> {
    let at = VirtId::new(
        view.me(),
        if bit { VirtKind::Right } else { VirtKind::Left },
    );
    hop_advance(
        view,
        HopMsg {
            at,
            walk_back: false,
            payload,
        },
    )
}

/// Advance a hop at the real node currently holding it.
pub fn hop_advance<M>(view: &NodeView, mut msg: HopMsg<M>) -> HopOutcome<M> {
    debug_assert_eq!(msg.at.real, view.me());
    loop {
        if msg.at.kind == VirtKind::Middle {
            return HopOutcome::Arrived {
                payload: msg.payload,
            };
        }
        let vv = view.virt(msg.at.kind);
        let next = if msg.walk_back {
            vv.pred
        } else if vv.succ_label > vv.label {
            vv.succ
        } else {
            msg.walk_back = true;
            vv.pred
        };
        msg.at = next;
        if next.real != view.me() {
            return HopOutcome::Forward { to: next.real, msg };
        }
    }
}

/// Analysis helper: run a whole route over a built topology, returning the
/// sequence of real nodes the message visits (message hops = `path.len()-1`)
/// and the virtual node it was delivered at.
pub fn route_path(topo: &crate::ldb::Topology, from: NodeId, target: f64) -> (Vec<NodeId>, VirtId) {
    let mut path = vec![from];
    let mut msg = RouteMsg::start(from, target, ());
    let table = crate::view::ViewTable::build(topo);
    loop {
        let view = table.view(msg.at.real);
        match advance(&view, msg) {
            RouteOutcome::Delivered { at, .. } => return (path, at),
            RouteOutcome::Forward { to, msg: m } => {
                path.push(to);
                // Safety net against topology bugs: a route should never
                // take more than a few multiples of the ring length.
                assert!(
                    path.len() <= 10 * 3 * topo.n() + 100,
                    "route to {target} did not terminate"
                );
                msg = m;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ldb::Topology;
    use dpq_core::BitSize;

    #[test]
    fn routes_reach_the_manager() {
        let t = Topology::new(40, 21);
        for i in 0..200 {
            let x = (i as f64 + 0.7) / 200.0;
            let from = NodeId((i % 40) as u64);
            let (_, at) = route_path(&t, from, x);
            assert_eq!(at, t.manager_of(x), "wrong manager for {x}");
        }
    }

    #[test]
    fn single_node_routes_locally() {
        let t = Topology::new(1, 22);
        let (path, at) = route_path(&t, NodeId(0), 0.42);
        assert_eq!(path, vec![NodeId(0)]);
        assert_eq!(at, t.manager_of(0.42));
    }

    #[test]
    fn hop_counts_are_logarithmic() {
        // Lemma A.2 shape check: average hops grow like log n, and are far
        // below n.
        let avg_hops = |n: usize, seed: u64| -> f64 {
            let t = Topology::new(n, seed);
            let mut total = 0usize;
            let cases = 100;
            for i in 0..cases {
                let x = (i as f64 + 0.5) / cases as f64;
                let from = NodeId((i * 7 % n) as u64);
                total += route_path(&t, from, x).0.len() - 1;
            }
            total as f64 / cases as f64
        };
        let h64 = avg_hops(64, 5);
        let h1024 = avg_hops(1024, 5);
        assert!(h64 > 0.0);
        assert!(h1024 > h64, "hops should grow with n");
        assert!(
            h1024 < 12.0 * (1024f64).log2(),
            "hops at n=1024 look superlogarithmic: {h1024}"
        );
        // Sub-linear by a wide margin:
        assert!(h1024 < 200.0);
    }

    #[test]
    fn routes_to_extreme_points() {
        let t = Topology::new(30, 23);
        for x in [0.0, 1e-9, 0.999_999_9] {
            let (_, at) = route_path(&t, NodeId(3), x);
            assert_eq!(at, t.manager_of(x));
        }
    }

    #[test]
    fn route_msg_bits_are_logarithmic_in_ids() {
        let small = RouteMsg::start(NodeId(1), 0.5, 0u64);
        let large = RouteMsg::start(NodeId(1 << 20), 0.5, 0u64);
        assert!(large.bits() > small.bits());
        assert!(large.bits() < small.bits() + 64);
    }

    /// Analysis helper for tests: run one hop to completion.
    fn hop_path(t: &Topology, from: NodeId, bit: bool) -> (Vec<NodeId>, NodeId) {
        let mut path = vec![from];
        let table = crate::view::ViewTable::build(t);
        let mut out = hop_start(&table.view(from), bit, ());
        loop {
            match out {
                HopOutcome::Arrived { .. } => return (path.clone(), *path.last().unwrap()),
                HopOutcome::Forward { to, msg } => {
                    path.push(to);
                    assert!(path.len() < 3 * t.n() + 10, "hop did not terminate");
                    out = hop_advance(&table.view(to), msg);
                }
            }
        }
    }

    #[test]
    fn hops_land_on_a_nearby_middle() {
        let t = Topology::new(64, 25);
        for v in 0..64u64 {
            for bit in [false, true] {
                let (path, holder) = hop_path(&t, NodeId(v), bit);
                // Cheap in messages…
                assert!(path.len() <= 25, "hop took {} forwards", path.len());
                // …and correct in label space: the holder's middle label is
                // the first middle at-or-after the jump point on the line
                // (or the nearest below when the walk hit the ring top).
                let jump = (t.middle(NodeId(v)) + if bit { 1.0 } else { 0.0 }) / 2.0;
                let dist = (t.middle(holder) - jump).abs();
                assert!(
                    dist < 0.25,
                    "holder middle {} too far from jump {jump}",
                    t.middle(holder)
                );
            }
        }
    }

    #[test]
    fn hop_on_single_node_overlay_stays_local() {
        let t = Topology::new(1, 26);
        let (path, holder) = hop_path(&t, NodeId(0), true);
        assert_eq!(path, vec![NodeId(0)]);
        assert_eq!(holder, NodeId(0));
    }

    #[test]
    fn all_pairs_small_overlay() {
        let t = Topology::new(5, 24);
        for from in 0..5u64 {
            for i in 0..50 {
                let x = (i as f64 + 0.1) / 50.0;
                let (_, at) = route_path(&t, NodeId(from), x);
                assert_eq!(at, t.manager_of(x));
            }
        }
    }
}
