//! Arena building blocks for compact node state.
//!
//! The simulated node cores (skeap, seap, dht, reliable links) were built
//! on idiomatic-but-pointer-heavy containers: `Vec<VecDeque<_>>` interval
//! queues, per-assign `Vec` clones, `BTreeMap`-per-link bookkeeping. Each
//! is correct in isolation; at n = 100k–1M nodes the per-container
//! overheads (three pointers and a heap header each, VecDeque's minimum
//! capacity, BTreeMap node fan-out) dominate the actual protocol state.
//!
//! This crate provides the two layouts the memory-compact core is built
//! from, both dependency-free and both invariant-checked by unit and
//! property tests:
//!
//! - [`SmallVec`]: a pooled small-vector that stores up to `N` elements
//!   inline and spills to a heap `Vec` only past that. Popping back under
//!   the threshold returns to inline storage but *keeps* the spill
//!   capacity, so a buffer that oscillates around `N` allocates once.
//! - [`LinkedDeques`]: many logical deques multiplexed over one slot
//!   arena with an intrusive free list — the replacement for
//!   `Vec<VecDeque<Interval>>` where most queues are empty but the
//!   aggregate is large.

mod deques;
mod smallvec;

pub use deques::LinkedDeques;
pub use smallvec::SmallVec;
