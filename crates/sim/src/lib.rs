//! # dpq-sim
//!
//! Deterministic message-passing simulator implementing exactly the two
//! execution models of the paper (§1.1):
//!
//! * the **asynchronous message passing model** used for correctness —
//!   channels hold arbitrarily many messages, delivery is delayed by an
//!   arbitrary finite amount, non-FIFO, never lost or duplicated, with fair
//!   receipt ([`AsyncScheduler`]);
//! * the **standard synchronous model** used for performance analysis only —
//!   time proceeds in rounds, messages sent in round *i* are processed in
//!   round *i+1*, and each node is activated once per round
//!   ([`SyncScheduler`]).
//!
//! Protocols are state machines implementing [`Protocol`]; the scheduler
//! owns one instance per node and drives it through message deliveries and
//! activations. The two models differ only in when a sent message is
//! delivered: each scheduler keeps its delivery order and its clock, and
//! what a node turn does and records — fault drops, delivery accounting,
//! completions, `Send` tracing, fault routing, dormancy — is written once,
//! in the [`Kernel`] both dereference to. All randomness is seeded ([`dpq_core::DetRng`]), so every
//! run replays bit-for-bit.

#![warn(missing_docs)]

mod dormant;
pub mod envelope;
pub mod faults;
mod flightset;
mod kernel;
pub mod metrics;
pub mod policy;
pub mod protocol;
pub mod reliable;
pub mod run;
pub mod sched_async;
pub mod sched_sync;

pub use envelope::Envelope;
pub use faults::{
    fault_matrix, CrashEvent, DelayInflation, FaultCell, FaultPlan, FaultState, FaultTransition,
    LinkFault, Partition, SendVerdict,
};
pub use kernel::Kernel;
pub use metrics::{LatencySummary, Metrics, MetricsSnapshot, RoundSample};
pub use policy::{DeliveryPolicy, RandomAdversary, StepChoice};
pub use protocol::{history, residual, Ctx, CtxEvent, Protocol, QueueNode};
pub use reliable::{Reliable, ReliableMsg, ReliableStats};
pub use run::{Core, Outcome, Run};
pub use sched_async::{AsyncConfig, AsyncScheduler};
pub use sched_sync::{RunOutcome, SyncScheduler};

// Re-exported so drivers can plug in a sink without naming dpq-trace.
pub use dpq_trace::{NullTracer, RingTracer, TraceEvent, Tracer, VecTracer};

// Likewise for dpq-telemetry: the streaming metrics layer.
pub use dpq_telemetry::{
    hub_to_json, prometheus_text, CounterId, FaultTotals, GaugeId, HistId, Hub, LogHistogram,
    NullTelemetry, Telemetry,
};
