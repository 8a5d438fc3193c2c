//! # dpq-agg
//!
//! Shared machinery for *aggregation phases* (§2.2): the up-wave in which
//! each node combines its children's values with its own and forwards the
//! result toward the anchor, and the down-wave in which the anchor's answer
//! is decomposed back over the same sub-batch structure.
//!
//! The protocols (Skeap §3, KSelect §4, Seap §5) each define their own wave
//! payloads and phase sequencing; what they share is bookkeeping:
//!
//! * [`Collector`] — "wait until each w ∈ C(v) has sent its value" with
//!   values kept in a canonical child order, so interval decomposition is
//!   deterministic across the tree;
//! * [`Interval`] / [`Segments`] — position intervals and priority-tagged
//!   interval collections with prefix splitting, the core of Skeap Phase 2/3
//!   and of Seap's position assignment.

#![warn(missing_docs)]

pub mod collector;
pub mod intervals;

pub use collector::Collector;
pub use intervals::{Interval, Segments};
