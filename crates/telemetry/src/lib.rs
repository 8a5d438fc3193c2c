//! # dpq-telemetry
//!
//! Streaming, constant-memory metrics for the dpq workspace.
//!
//! Where `dpq-trace` captures *why* a run behaved as it did (an event
//! stream), this crate measures *how much* it cost — as distributions, not
//! point summaries, and in O(instruments) memory no matter how long the run:
//!
//! * [`LogHistogram`] — log-bucketed HDR-style histogram: fixed ~34 KB
//!   footprint, O(1) record, exact associative/commutative merge, and every
//!   quantile within ≤1% relative error of exact nearest-rank (0.39% by
//!   construction; property-tested).
//! * [`Telemetry`] / [`NullTelemetry`] / [`Hub`] — the statically-dispatched
//!   sink trait the schedulers and transports call, its zero-cost-when-off
//!   null implementation (the `Tracer` pattern), and the concrete aggregator
//!   with a handle-based counter/gauge/histogram registry.
//! * [`export`] — Prometheus text exposition (with a parser: writer output
//!   round-trips byte-for-byte) and a single-line JSON record for the
//!   `--metrics` JSONL stream.
//!
//! Telemetry is a pure observer: it draws no randomness and feeds nothing
//! back into protocol state, so an enabled run is RNG-draw-for-draw
//! identical to a disabled one — pinned by the trace-determinism tests.

#![warn(missing_docs)]

pub mod export;
pub mod hist;
pub mod sink;
pub mod wire;

pub use export::{
    hub_to_json, json_escape, parse_prometheus, prometheus_text, render_exposition, Exposition,
    Family, Sample,
};
pub use hist::LogHistogram;
pub use sink::{
    CounterId, FaultTotals, GaugeId, HistId, Hub, KindTotals, NullTelemetry, Telemetry,
};
pub use wire::{prometheus_wire_text, PeerWire, WireMetrics};
