//! # dpq-core
//!
//! Shared foundation types for the Skeap & Seap distributed priority queue
//! suite (reproduction of Feldmann & Scheideler, SPAA 2019).
//!
//! This crate is deliberately dependency-light: it defines the vocabulary the
//! whole workspace speaks — elements and priorities (§1.2 of the paper),
//! operation records and matchings (Definitions 1.1/1.2), deterministic
//! pseudorandom hashing (the paper's "publicly known pseudorandom hash
//! function"), the bit-size accounting used by every message-size
//! experiment (Lemmas 3.8 and 5.5), and the wire codec whose
//! [`wire!`](crate::wire!) declarations state each message's layout and
//! cost once.

#![warn(missing_docs)]

pub mod bitsize;
pub mod element;
pub mod hashing;
pub mod history;
pub mod ids;
pub mod ops;
pub mod priority;
pub mod rng;
pub mod statehash;
pub mod text;
pub mod wire;
pub mod workload;

pub use bitsize::{vlq_bits, BitSize, MsgKind};
pub use element::Element;
pub use hashing::{hash_pair_unit, hash_to_unit, hash_u64, split_mix64};
pub use history::{History, NodeHistory};
pub use ids::{ElemId, NodeId};
pub use ops::{MatchSet, OpId, OpKind, OpRecord, OpReturn};
pub use priority::{Key, Priority};
pub use rng::DetRng;
pub use statehash::{state_digest, StateHash, StateHasher};
