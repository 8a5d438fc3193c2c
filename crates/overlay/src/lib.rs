//! # dpq-overlay
//!
//! The network substrate of the paper: the **Linearized de Bruijn network**
//! (Definition A.1) and the **aggregation tree** it induces (Lemma 2.2,
//! Appendix A).
//!
//! Every real process emulates three *virtual nodes* — left, middle, right —
//! whose labels are `m/2`, `m`, `(m+1)/2` for a pseudorandom middle label
//! `m ∈ [0,1)`. All virtual nodes are arranged on a sorted cycle (linear
//! edges) and each real node's virtual nodes are mutually connected (virtual
//! edges). On top of this cycle:
//!
//! * [`tree`] derives the aggregation tree: `p(m(v)) = l(v)`,
//!   `p(r(v)) = m(v)`, `p(l(v)) = pred(l(v))`, contracted to a binary tree
//!   over real nodes of height O(log n) w.h.p. (Corollary A.4);
//! * [`routing`] emulates de Bruijn bit-prepending (Definition 2.1) over the
//!   cycle, reaching the manager of any point of [0,1) in O(log n) hops
//!   w.h.p. (Lemma A.2);
//! * [`membership`] splices nodes in and out of the cycle (Join/Leave,
//!   §1.4(4)).

#![warn(missing_docs)]

pub mod ldb;
pub mod membership;
pub mod routing;
pub mod tree;
pub mod view;

pub use ldb::{Topology, VirtId, VirtKind, VirtNode};
pub use routing::{
    hop_advance, hop_start, route_path, HopMsg, HopOutcome, RouteMsg, RouteOutcome, RouteProgress,
};
pub use view::{Children, NodeView, ViewTable, VirtView};
