//! Arena building blocks for compact node state.
//!
//! The simulated node cores (skeap, seap, dht, reliable links) hold many
//! short buffers — per-priority insert counts, interval pieces — that are
//! almost always a handful of elements long. At n = 100k–1M nodes a heap
//! block per such buffer is allocator traffic on every step.
//!
//! [`SmallVec`] is the one layout this crate provides, dependency-free and
//! invariant-checked by unit and property tests: a pooled small-vector that
//! stores up to `N` elements inline and spills to a heap `Vec` only past
//! that. Popping back under the threshold returns to inline storage but
//! *keeps* the spill capacity, so a buffer that oscillates around `N`
//! allocates once.

mod smallvec;

pub use smallvec::SmallVec;
