//! # dpq-trace
//!
//! Structured event tracing for the dpq simulator.
//!
//! The simulator's [`Metrics`](../dpq_sim/struct.Metrics.html) answer *how
//! much* a run cost under the paper's §1.1 model (rounds, congestion,
//! message bits); this crate answers *why*: a stream of [`TraceEvent`]s —
//! sends, deliveries, activations, round boundaries, protocol phase marks,
//! operation inject/complete pairs, and fault-layer events (message drops
//! with their reason, injected duplicates, node crash/recover, partition
//! cut/heal) — captured by a [`Tracer`] sink and exported as JSONL or Chrome
//! trace-event JSON (loadable in Perfetto or `chrome://tracing`).
//!
//! Tracing is zero-cost when off: the schedulers are generic over the sink
//! and the default [`NullTracer`] advertises `ENABLED = false` as an
//! associated constant, so every event-construction site is guarded by a
//! constant the optimizer deletes.

#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod tracer;

pub use event::{DropReason, TraceEvent};
pub use export::{write_jsonl, ChromeTrace};
pub use tracer::{NullTracer, RingTracer, Tracer, VecTracer};
