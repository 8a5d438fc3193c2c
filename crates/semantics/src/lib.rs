//! # dpq-semantics
//!
//! Checkers for the paper's semantic guarantees over recorded execution
//! histories:
//!
//! * **Serializability / sequential consistency** (Definition 1.1) via
//!   [`replay()`](replay::replay): the protocol hands every operation a *witness* — its
//!   position in the claimed total order ≺ — and the checker replays ≺ on a
//!   sequential reference heap, demanding identical returns. A successful
//!   replay *constructs* the equivalent serial execution; adding the
//!   per-node witness-monotonicity check upgrades the verdict to sequential
//!   consistency.
//! * **Heap consistency** (Definition 1.2) via [`heap_props`]: the three
//!   properties checked literally against ≺ and the matching M.
//! * **Element conservation** via [`check_conservation`]: at quiescence,
//!   inserted = removed ⊎ resident, element for element.
//! * **Rank error** via [`rank_error`]: not a pass/fail check but a
//!   *measurement* — per-dequeue distance from the ideal strict heap, the
//!   quality metric relaxed priority queues are graded on (PAPERS.md:
//!   k-LSM benchmark, MultiQueue).

#![warn(missing_docs)]

pub mod conservation;
pub mod heap_props;
pub mod rank_error;
pub mod replay;

pub use conservation::check_conservation;
pub use heap_props::check_heap_properties;
pub use rank_error::{rank_error, RankErrorSummary, RankOrder};
pub use replay::{check_local_consistency, check_witnesses, replay, ReplayMode, Violation};
