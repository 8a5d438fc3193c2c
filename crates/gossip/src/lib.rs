//! Anti-entropy gossip membership with phi-accrual failure detection.
//!
//! The paper delegates Join()/Leave() to Skueue's splice procedure and
//! assumes somebody *notices* that a node is gone. This crate is that
//! somebody: a scuttlebutt-style membership layer in which every node
//! replicates a versioned heartbeat record per peer (digest → delta
//! exchanges over a rotating window), reads heartbeat version progress as a
//! liveness signal through a phi-accrual detector, and walks dead peers
//! through a suspicion → confirmation → eviction lifecycle whose output
//! *drives* the LDB splice and DHT handover machinery — instead of a harness
//! editing the membership vector by fiat.
//!
//! Layers:
//!
//! * [`state`] — the replicated heartbeat records and their reconciliation.
//! * [`phi`] — phi-accrual suspicion over heartbeat inter-arrival windows.
//! * [`detector`] — the lifecycle state machine, deadline-heap scheduled.
//! * [`proto`] — [`GossipNode`]: the above as an ordinary `Protocol`.
//! * [`combine`] — [`WithGossip`]: bolt membership onto any protocol node.
//! * [`storm`] — the churn-storm harness: thousands of nodes, continuous
//!   crash/join, detector-driven splices, conservation oracles.

pub mod combine;
pub mod detector;
pub mod phi;
pub mod proto;
pub mod state;
pub mod storm;

pub use combine::{SidecarMsg, WithGossip};
pub use detector::{DetectorConfig, DetectorStats, FailureDetector, Health, Verdict};
pub use phi::ArrivalWindow;
pub use proto::{GossipConfig, GossipMsg, GossipNode, GossipStats};
pub use state::{DigestEntry, NodeDelta, K_HEARTBEAT};
pub use storm::{run_storm, StormConfig, StormReport};
