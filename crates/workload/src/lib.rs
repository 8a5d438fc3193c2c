//! # dpq-workload — open-loop heavy-traffic workload engine
//!
//! The experiments before this crate drove Skeap/Seap closed-loop: fixed
//! per-node scripts, one injection per node per round, uniform priorities.
//! Real deployments look nothing like that — traffic arrives when *users*
//! decide, not when the system is ready (open loop), intensities burst,
//! priorities skew, and millions of logical clients funnel through a few
//! dozen entry nodes. This crate makes that traffic a deterministic,
//! replayable artifact:
//!
//! * [`zipf`] — rejection-free Zipf sampling (Walker–Vose alias method);
//! * [`arrivals`] — Poisson and 2-state MMPP arrival processes on a
//!   fractional-tick time axis;
//! * [`mix`] — priority mixes: uniform, Zipf, FIFO/LIFO-adversarial,
//!   sawtooth, hot-key contention;
//! * [`spec`] — the workload description + its flat TOML form
//!   (`--workload <spec.toml>` on the experiment binary);
//! * [`schedule`] — the materialised injection schedule, a *pure function*
//!   of the spec with a canonical byte form (determinism pins live on it);
//! * [`drive`] — the replay driver for the synchronous scheduler, stamping
//!   each op's latency clock at its scheduled arrival tick.
//!
//! Everything is seeded through [`dpq_core::DetRng`] streams — no wall
//! clock, no OS randomness — so a spec names a workload the way a seed
//! names a run, byte-for-byte, across `--jobs` shards and machines.

#![warn(missing_docs)]

pub mod arrivals;
pub mod drive;
pub mod mix;
pub mod schedule;
pub mod spec;
pub mod zipf;

pub use arrivals::{exp_draw, Arrivals, Mmpp, MmppEvent, MmppState, Poisson};
pub use drive::{drive_sync, DriveOutcome};
pub use mix::{Mix, MixKind};
pub use schedule::{Injection, Schedule, WorkOp};
pub use spec::{ArrivalSpec, OpenLoopSpec};
pub use zipf::{AliasTable, Zipf};
