//! # seap
//!
//! **Seap** (§5 of Feldmann & Scheideler, SPAA 2019): a distributed heap
//! for an *arbitrary* (polynomial) priority universe, guaranteeing
//! **serializability** and **heap consistency** (Theorem 5.1) with only
//! **O(log n)-bit messages** — the decisive improvement over Skeap's
//! O(Λ log² n) batches. Insert and DeleteMin requests are processed in
//! alternating global phases; the DeleteMin phase finds the k-th smallest
//! key with the embedded [`kselect`] protocol, re-stores the k smallest
//! elements under position keys, and hands each deleting node a position
//! sub-interval to fetch.
//!
//! ```
//! use dpq_core::workload::WorkloadSpec;
//! use dpq_sim::Run;
//!
//! let run = seap::cluster::run(&WorkloadSpec::balanced(8, 20, 1 << 20, 3), Run::sync(100_000));
//! assert!(run.completed);
//! seap::checker::check_seap_history(&run.history).unwrap();
//! ```

#![warn(missing_docs)]

pub mod checker;
pub mod cluster;
pub mod msgs;
pub mod node;

pub use checker::{check_seap_history, refine_witnesses};
pub use msgs::SeapMsg;
pub use node::{poskey, witness_phase, SeapConfig, SeapNode};
