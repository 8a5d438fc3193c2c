//! # skeap
//!
//! **Skeap** (§3 of Feldmann & Scheideler, SPAA 2019): a distributed heap
//! for a *constant* number of priorities, guaranteeing **sequential
//! consistency** and **heap consistency** (Theorem 3.2). Batches of
//! operations are aggregated to the anchor over the aggregation tree,
//! assigned position intervals per priority, decomposed back down, and
//! resolved against the DHT — O(log n) rounds per batch w.h.p., congestion
//! Õ(Λ), messages of O(Λ log² n) bits.
//!
//! ```
//! use dpq_core::workload::WorkloadSpec;
//! use dpq_sim::Run;
//!
//! let run = skeap::cluster::run(&WorkloadSpec::balanced(8, 20, 3, 7), 3, Run::sync(10_000));
//! assert!(run.completed);
//! assert_eq!(run.history.completed(), 8 * 20);
//! ```

#![warn(missing_docs)]

pub mod anchor;
pub mod batch;
pub mod cluster;
pub mod msgs;
pub mod node;

pub use anchor::{decompose, AnchorState, Discipline, EntryAssign};
pub use batch::{Batch, BatchEntry};
pub use msgs::SkeapMsg;
pub use node::{slot_key, SkeapConfig, SkeapNode};
