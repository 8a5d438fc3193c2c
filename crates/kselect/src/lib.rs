//! # kselect
//!
//! **KSelect** (§4 of Feldmann & Scheideler, SPAA 2019): distributed
//! k-selection over m = poly(n) elements spread uniformly over n nodes, in
//! O(log n) rounds w.h.p. with O(log n)-bit messages and Õ(1) congestion
//! (Theorem 4.2).
//!
//! Three phases: (1) `log₂(q)+1` prune iterations using each node's local
//! ⌊k/n⌋-th/⌈k/n⌉-th candidates, shrinking the candidate set to
//! Õ(n^{3/2}); (2) repeated sampling of ≈√n representatives, *distributed
//! sorting* of the sample via copy-distribution trees and pairwise
//! rendezvous comparisons, and pruning to a δ-window around the expected
//! rank; (3) an exact all-pairs round on the O(√n) survivors.
//!
//! ```
//! use kselect::{driver, KSelectConfig};
//!
//! let cands = driver::random_candidates(16, 400, 1 << 20, 7);
//! let expect = driver::sequential_select(&cands, 123);
//! let run = driver::run(16, cands, 123, KSelectConfig::default(), 7, dpq_sim::Run::sync(100_000));
//! assert_eq!(run.result, Some(expect));
//! ```

#![warn(missing_docs)]

pub mod ctl;
pub mod driver;
pub mod msgs;
pub mod node;

pub use ctl::{AnchorCtl, KSelectConfig, KStats};
pub use msgs::{Cmd, KMsg, Rsp};
pub use node::KSelectNode;
