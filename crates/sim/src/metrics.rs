//! Run metrics: the paper's cost model plus per-operation latency, always
//! on and in constant memory.
//!
//! The paper's cost measures (§1.1): *rounds* until an operation batch
//! completes, *congestion* — "the maximum number of messages that need to be
//! handled by a node in one round" — and per-message *bit size* (Lemmas 3.8,
//! 5.5, Theorem 4.2). The schedulers update a [`Metrics`] instance as they
//! run; experiments read a [`MetricsSnapshot`] afterwards and the full
//! latency distribution through [`Metrics::latency_histogram`]. Per-kind
//! and per-window views are a sink's business (`dpq_telemetry::Hub`), not
//! this struct's.
//!
//! Latencies land in a `dpq-telemetry` [`LogHistogram`] — O(1) record, fixed
//! footprint, ≤1% relative quantile error — so a run's memory does not grow
//! with completed operations and [`Metrics::snapshot`] is O(buckets).

use dpq_core::OpId;
use dpq_telemetry::LogHistogram;
use std::collections::HashMap;

/// The open round's traffic so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundSample {
    /// Messages delivered in the round.
    pub messages: u64,
    /// Payload bits delivered in the round.
    pub bits: u64,
    /// Maximum messages one node handled in the round.
    pub congestion: u64,
}

/// Order statistics over completed operation latencies (in rounds/steps).
///
/// Percentiles use the nearest-rank method; all fields are zero when no
/// operation has completed. Built either exactly from a raw sample slice
/// ([`LatencySummary::from_samples`], the test oracle) or in O(buckets) from
/// a streaming histogram ([`LatencySummary::from_histogram`], what the
/// simulator reports — each percentile within ≤1% of the exact value, `max`
/// exact).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Operations completed.
    pub count: u64,
    /// Median latency.
    pub p50: u64,
    /// 90th-percentile latency.
    pub p90: u64,
    /// 95th-percentile latency.
    pub p95: u64,
    /// 99th-percentile latency.
    pub p99: u64,
    /// 99.9th-percentile latency.
    pub p999: u64,
    /// Maximum latency.
    pub max: u64,
}

impl LatencySummary {
    /// Exact nearest-rank summary of a latency sample (need not be sorted).
    /// O(n log n) — kept as the exact oracle for tests and small samples.
    pub fn from_samples(samples: &[u64]) -> LatencySummary {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let rank = |p: f64| -> u64 {
            let r = (p * sorted.len() as f64).ceil() as usize;
            sorted[r.clamp(1, sorted.len()) - 1]
        };
        LatencySummary {
            count: sorted.len() as u64,
            p50: rank(0.50),
            p90: rank(0.90),
            p95: rank(0.95),
            p99: rank(0.99),
            p999: rank(0.999),
            max: *sorted.last().unwrap(),
        }
    }

    /// Summary of a streaming histogram — O(buckets), each percentile
    /// within the histogram's documented ≤1% relative error, `max` exact.
    pub fn from_histogram(h: &LogHistogram) -> LatencySummary {
        if h.is_empty() {
            return LatencySummary::default();
        }
        LatencySummary {
            count: h.count(),
            p50: h.quantile(0.50),
            p90: h.quantile(0.90),
            p95: h.quantile(0.95),
            p99: h.quantile(0.99),
            p999: h.quantile(0.999),
            max: h.max(),
        }
    }
}

/// Mutable counters owned by a scheduler.
#[derive(Debug, Clone)]
pub struct Metrics {
    /// Rounds elapsed (synchronous scheduler only; async counts steps).
    pub rounds: u64,
    /// Total messages delivered.
    pub messages: u64,
    /// Total payload bits delivered.
    pub total_bits: u64,
    /// Largest single message, in bits.
    pub max_msg_bits: u64,
    /// Max over (node, round) of messages handled — the paper's congestion.
    pub congestion: u64,
    /// Messages handled per node in the *current* round (scratch space).
    per_node_this_round: Vec<u64>,
    /// The current round's running sample (scratch space).
    this_round: RoundSample,
    /// Injection time of operations still awaiting completion.
    pending_ops: HashMap<OpId, u64>,
    /// Completed-operation latency distribution (streaming, O(buckets)).
    latency_hist: LogHistogram,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new(0)
    }
}

impl Metrics {
    /// Fresh counters for an `n`-node run.
    pub fn new(n: usize) -> Self {
        Metrics {
            rounds: 0,
            messages: 0,
            total_bits: 0,
            max_msg_bits: 0,
            congestion: 0,
            per_node_this_round: vec![0; n],
            this_round: RoundSample::default(),
            pending_ops: HashMap::new(),
            latency_hist: LogHistogram::new(),
        }
    }

    /// Record a delivery of a `bits`-bit message to `node_index` in the
    /// current round.
    #[inline]
    pub fn on_deliver(&mut self, node_index: usize, bits: u64) {
        self.messages += 1;
        self.total_bits += bits;
        self.max_msg_bits = self.max_msg_bits.max(bits);
        self.this_round.messages += 1;
        self.this_round.bits += bits;
        let c = &mut self.per_node_this_round[node_index];
        *c += 1;
        if *c > self.this_round.congestion {
            self.this_round.congestion = *c;
        }
        if *c > self.congestion {
            self.congestion = *c;
        }
    }

    /// The current (still open) round's running sample.
    #[inline]
    pub fn this_round(&self) -> RoundSample {
        self.this_round
    }

    /// Close the current round: bump the round counter and reset the
    /// per-round scratch.
    pub fn end_round(&mut self) {
        self.rounds += 1;
        self.this_round = RoundSample::default();
        self.per_node_this_round.fill(0);
    }

    /// The completed-operation latency distribution: full quantile access
    /// (p50/p90/p99/p999/max), exact merge across runs, O(buckets) memory.
    pub fn latency_histogram(&self) -> &LogHistogram {
        &self.latency_hist
    }

    /// Record that `op` entered the system at logical time `now`. Until a
    /// matching [`Metrics::note_completed`], the op counts as pending.
    pub fn note_injected(&mut self, op: OpId, now: u64) {
        self.pending_ops.insert(op, now);
    }

    /// Record that `op` produced its return value at logical time `now`,
    /// returning the latency it contributed. Ops never noted as injected
    /// return `None` and are ignored (protocol-internal traffic).
    pub fn note_completed(&mut self, op: OpId, now: u64) -> Option<u64> {
        let t0 = self.pending_ops.remove(&op)?;
        // A drained table releases its buckets: a bulk workload (e.g. one
        // op per node at n = 10⁵) would otherwise pin the whole-wave
        // capacity for the rest of the run. The threshold keeps small
        // steady-state populations from thrashing the allocator.
        if self.pending_ops.is_empty() && self.pending_ops.capacity() > 64 {
            self.pending_ops = HashMap::new();
        }
        let lat = now.saturating_sub(t0);
        self.latency_hist.record(lat);
        Some(lat)
    }

    /// Operations injected but not yet completed.
    pub fn pending_ops(&self) -> usize {
        self.pending_ops.len()
    }

    /// Immutable copy of the current counters. O(buckets) — the latency
    /// summary reads the streaming histogram; nothing is cloned or sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            rounds: self.rounds,
            messages: self.messages,
            total_bits: self.total_bits,
            max_msg_bits: self.max_msg_bits,
            congestion: self.congestion,
            latency: LatencySummary::from_histogram(&self.latency_hist),
        }
    }
}

/// Immutable view of a run's costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Rounds elapsed.
    pub rounds: u64,
    /// Messages delivered.
    pub messages: u64,
    /// Total payload bits delivered.
    pub total_bits: u64,
    /// Largest single message in bits.
    pub max_msg_bits: u64,
    /// Max messages handled by one node in one round.
    pub congestion: u64,
    /// Order statistics over completed operation latencies.
    pub latency: LatencySummary,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpq_core::NodeId;

    #[test]
    fn congestion_tracks_per_round_maximum() {
        let mut m = Metrics::new(3);
        m.on_deliver(0, 10);
        m.on_deliver(0, 10);
        m.on_deliver(1, 10);
        assert_eq!(m.congestion, 2);
        m.end_round();
        // New round: node 0 handles one message; max stays 2.
        m.on_deliver(0, 10);
        assert_eq!(m.congestion, 2);
        m.on_deliver(2, 10);
        m.on_deliver(2, 10);
        m.on_deliver(2, 10);
        assert_eq!(m.congestion, 3);
    }

    #[test]
    fn totals_accumulate() {
        let mut m = Metrics::new(1);
        m.on_deliver(0, 5);
        m.on_deliver(0, 7);
        let s = m.snapshot();
        assert_eq!(s.messages, 2);
        assert_eq!(s.total_bits, 12);
        assert_eq!(s.max_msg_bits, 7);
    }

    #[test]
    fn latency_tracks_inject_to_complete() {
        let op = |seq| OpId {
            node: NodeId(0),
            seq,
        };
        let mut m = Metrics::new(1);
        m.note_injected(op(0), 2);
        m.note_injected(op(1), 2);
        assert_eq!(m.note_completed(op(0), 5), Some(3));
        // Unknown op: ignored.
        assert_eq!(m.note_completed(op(99), 9), None);
        assert_eq!(m.latency_histogram().count(), 1);
        assert_eq!(m.pending_ops(), 1);
        assert_eq!(m.note_completed(op(1), 12), Some(10));
        let s = m.snapshot().latency;
        assert_eq!(s.count, 2);
        assert_eq!(s.p50, 3);
        assert_eq!((s.p95, s.p99, s.p999), (10, 10, 10));
        assert_eq!(s.max, 10);
    }

    #[test]
    fn latency_summary_percentiles_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        let s = LatencySummary::from_samples(&samples);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, 50);
        assert_eq!(s.p90, 90);
        assert_eq!(s.p95, 95);
        assert_eq!(s.p99, 99);
        assert_eq!(s.p999, 100);
        assert_eq!(s.max, 100);
        assert_eq!(LatencySummary::from_samples(&[]), LatencySummary::default());
        let one = LatencySummary::from_samples(&[7]);
        assert_eq!((one.p50, one.p99, one.max), (7, 7, 7));
    }

    #[test]
    fn histogram_summary_matches_exact_on_small_values() {
        // Latencies below 256 land in exact buckets, so the streaming
        // summary must equal the exact oracle bit-for-bit.
        let samples: Vec<u64> = (1..=200).collect();
        let mut m = Metrics::new(1);
        let op = |seq| OpId {
            node: NodeId(0),
            seq,
        };
        for (i, &lat) in samples.iter().enumerate() {
            m.note_injected(op(i as u64), 0);
            m.note_completed(op(i as u64), lat);
        }
        assert_eq!(m.snapshot().latency, LatencySummary::from_samples(&samples));
    }
}
