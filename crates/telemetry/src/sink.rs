//! The telemetry sink abstraction: a statically-dispatched hook trait the
//! schedulers and transports call into, with a zero-cost null implementation
//! and a concrete [`Hub`] that aggregates everything into constant-memory
//! instruments.
//!
//! The wiring mirrors `dpq-trace`'s `Tracer`: the scheduler is generic over
//! `M: Telemetry`, every call site is guarded by `if M::ENABLED`, and the
//! default [`NullTelemetry`] has `ENABLED = false` with `#[inline(always)]`
//! empty bodies — the disabled configuration compiles to the exact code that
//! existed before the hooks, which is what the check.sh perf tier gate
//! verifies. Crucially, telemetry draws **no randomness** and never feeds
//! back into protocol state, so enabling it cannot perturb a run: the
//! trace-determinism pins in `crates/skeap/tests/` hold with a `Hub`
//! attached.

use crate::hist::LogHistogram;
use dpq_core::MsgKind;

/// Handle to a registered counter (index into the hub's counter table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(pub(crate) u32);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(pub(crate) u32);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(pub(crate) u32);

/// Counters over the faults a run actually injected: the sim's fault layer
/// counts into one, a run's outcome carries it, and a sink holds the last
/// one mirrored to it. Defined here (not in the sim) so the dependency keeps
/// pointing sim → telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultTotals {
    /// Messages dropped by the per-link coin at send time.
    pub dropped_chance: u64,
    /// Messages dropped at delivery time because the link was partitioned.
    pub dropped_partition: u64,
    /// Messages dropped at delivery time because the receiver was down.
    pub dropped_crash: u64,
    /// Extra copies injected by the duplicate coin.
    pub duplicated: u64,
    /// Messages given extra delay.
    pub delayed: u64,
    /// Crash transitions fired.
    pub crashes: u64,
    /// Recovery transitions fired.
    pub recoveries: u64,
}

impl FaultTotals {
    /// Total messages destroyed, over all reasons.
    pub fn dropped(&self) -> u64 {
        self.dropped_chance + self.dropped_partition + self.dropped_crash
    }
}

/// Statically-dispatched telemetry hooks.
///
/// Implementations must be pure observers: no randomness, no feedback into
/// the caller. All hooks take `&mut self` so the enabled path can record
/// without interior mutability.
pub trait Telemetry {
    /// Whether this sink records anything. Call sites guard on this so the
    /// `false` case is dead-code-eliminated.
    const ENABLED: bool = true;

    /// A message envelope of `kind` carrying `bits` payload bits was
    /// delivered.
    fn on_deliver(&mut self, kind: MsgKind, bits: u64);

    /// A measurement window (sync round, or async sweep interval) closed
    /// with `messages` deliveries, the busiest node receiving `congestion`
    /// of them.
    fn on_window_end(&mut self, messages: u64, congestion: u64);

    /// An operation completed after `latency` time units.
    fn on_op_latency(&mut self, latency: u64);

    /// Register (or look up) a counter by name, returning its handle.
    /// Disabled sinks return a dummy handle that the mutation hooks ignore.
    fn register_counter(&mut self, name: &'static str) -> CounterId;

    /// Register (or look up) a gauge by name.
    fn register_gauge(&mut self, name: &'static str) -> GaugeId;

    /// Register (or look up) a histogram by name.
    fn register_histogram(&mut self, name: &'static str) -> HistId;

    /// Set gauge `id` to `value` (tracks last and peak).
    fn gauge_set(&mut self, id: GaugeId, value: u64);

    /// Add `by` to counter `id`.
    fn counter_add(&mut self, id: CounterId, by: u64);

    /// Record `value` into histogram `id`.
    fn hist_record(&mut self, id: HistId, value: u64);

    /// Merge a whole pre-aggregated histogram into histogram `id` — how
    /// node-local distributions (e.g. per-node ack RTTs) fold into the run
    /// sink without replaying samples.
    fn hist_merge(&mut self, id: HistId, h: &LogHistogram);

    /// Mirror the fault layer's absolute counters (idempotent set, not add).
    fn fault_totals(&mut self, totals: FaultTotals);
}

/// The no-op sink: `ENABLED = false`, every hook an empty inline body.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullTelemetry;

impl Telemetry for NullTelemetry {
    const ENABLED: bool = false;

    #[inline(always)]
    fn on_deliver(&mut self, _kind: MsgKind, _bits: u64) {}
    #[inline(always)]
    fn on_window_end(&mut self, _messages: u64, _congestion: u64) {}
    #[inline(always)]
    fn on_op_latency(&mut self, _latency: u64) {}
    #[inline(always)]
    fn register_counter(&mut self, _name: &'static str) -> CounterId {
        CounterId(0)
    }
    #[inline(always)]
    fn register_gauge(&mut self, _name: &'static str) -> GaugeId {
        GaugeId(0)
    }
    #[inline(always)]
    fn register_histogram(&mut self, _name: &'static str) -> HistId {
        HistId(0)
    }
    #[inline(always)]
    fn gauge_set(&mut self, _id: GaugeId, _value: u64) {}
    #[inline(always)]
    fn counter_add(&mut self, _id: CounterId, _by: u64) {}
    #[inline(always)]
    fn hist_record(&mut self, _id: HistId, _value: u64) {}
    #[inline(always)]
    fn hist_merge(&mut self, _id: HistId, _h: &LogHistogram) {}
    #[inline(always)]
    fn fault_totals(&mut self, _totals: FaultTotals) {}
}

/// A named counter cell.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Counter {
    name: &'static str,
    value: u64,
}

/// A named gauge cell tracking the last set value and the peak.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Gauge {
    name: &'static str,
    last: u64,
    peak: u64,
}

/// A named histogram cell.
#[derive(Debug, Clone, PartialEq, Eq)]
struct NamedHist {
    name: &'static str,
    hist: LogHistogram,
}

/// Per-message-kind delivery totals (few kinds; linear scan, first-seen
/// order so exposition output is deterministic for a deterministic run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindTotals {
    /// The message family.
    pub kind: MsgKind,
    /// Envelopes delivered.
    pub msgs: u64,
    /// Payload bits delivered.
    pub bits: u64,
}

/// The concrete aggregating sink: well-known instruments for the scheduler
/// hooks plus a handle-based registry for layer-specific extras
/// (`Reliable`'s retransmit counters, `FlightSet`'s occupancy gauges, …).
///
/// Memory is O(instruments), never O(events): each histogram is a fixed
/// [`LogHistogram`]; counters and gauges are single cells. Two hubs from
/// shard-local runs [`merge`](Hub::merge) exactly, by instrument name.
#[derive(Debug, Clone, PartialEq)]
pub struct Hub {
    /// Completed-op latency distribution (time units).
    pub op_latency: LogHistogram,
    /// Per-delivery payload size distribution (bits).
    pub msg_bits: LogHistogram,
    /// Deliveries per measurement window.
    pub window_messages: LogHistogram,
    /// Per-window congestion (busiest node's deliveries).
    pub window_congestion: LogHistogram,
    /// Fault-layer absolute totals (last mirror).
    pub faults: FaultTotals,
    kinds: Vec<KindTotals>,
    counters: Vec<Counter>,
    gauges: Vec<Gauge>,
    hists: Vec<NamedHist>,
}

impl Default for Hub {
    fn default() -> Self {
        Hub::new()
    }
}

impl Hub {
    /// An empty hub with the well-known instruments allocated.
    pub fn new() -> Self {
        Hub {
            op_latency: LogHistogram::new(),
            msg_bits: LogHistogram::new(),
            window_messages: LogHistogram::new(),
            window_congestion: LogHistogram::new(),
            faults: FaultTotals::default(),
            kinds: Vec::new(),
            counters: Vec::new(),
            gauges: Vec::new(),
            hists: Vec::new(),
        }
    }

    /// Register (or look up) a counter by name. Names are `'static` so
    /// registration is alloc-free and merge can match by identity of
    /// content.
    pub fn counter(&mut self, name: &'static str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|c| c.name == name) {
            return CounterId(i as u32);
        }
        self.counters.push(Counter { name, value: 0 });
        CounterId((self.counters.len() - 1) as u32)
    }

    /// Register (or look up) a gauge by name.
    pub fn gauge(&mut self, name: &'static str) -> GaugeId {
        if let Some(i) = self.gauges.iter().position(|g| g.name == name) {
            return GaugeId(i as u32);
        }
        self.gauges.push(Gauge {
            name,
            last: 0,
            peak: 0,
        });
        GaugeId((self.gauges.len() - 1) as u32)
    }

    /// Register (or look up) a histogram by name.
    pub fn histogram(&mut self, name: &'static str) -> HistId {
        if let Some(i) = self.hists.iter().position(|h| h.name == name) {
            return HistId(i as u32);
        }
        self.hists.push(NamedHist {
            name,
            hist: LogHistogram::new(),
        });
        HistId((self.hists.len() - 1) as u32)
    }

    /// Look up a counter's value by name (exposition/tests).
    pub fn counter_by_name(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Per-message-kind delivery totals, in first-seen order.
    pub fn kind_totals(&self) -> &[KindTotals] {
        &self.kinds
    }

    /// Iterate `(name, value)` over registered counters, registration order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|c| (c.name, c.value))
    }

    /// Iterate `(name, last, peak)` over registered gauges.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, u64, u64)> + '_ {
        self.gauges.iter().map(|g| (g.name, g.last, g.peak))
    }

    /// Iterate `(name, histogram)` over registered histograms.
    pub fn hists(&self) -> impl Iterator<Item = (&'static str, &LogHistogram)> + '_ {
        self.hists.iter().map(|h| (h.name, &h.hist))
    }

    /// Fold another hub in, matching registry instruments by name:
    /// counters and kind totals add, gauges keep the max of both peaks (and
    /// of lasts — "last" across shards has no global order, so the merged
    /// value is the max, which is what occupancy-style gauges want),
    /// histograms merge exactly, fault totals add. Used by the sharded
    /// sweep runner; merging shard hubs in index order is deterministic
    /// regardless of `--jobs`.
    pub fn merge(&mut self, other: &Hub) {
        self.op_latency.merge(&other.op_latency);
        self.msg_bits.merge(&other.msg_bits);
        self.window_messages.merge(&other.window_messages);
        self.window_congestion.merge(&other.window_congestion);
        self.faults.dropped_chance += other.faults.dropped_chance;
        self.faults.dropped_partition += other.faults.dropped_partition;
        self.faults.dropped_crash += other.faults.dropped_crash;
        self.faults.duplicated += other.faults.duplicated;
        self.faults.delayed += other.faults.delayed;
        self.faults.crashes += other.faults.crashes;
        self.faults.recoveries += other.faults.recoveries;
        for kt in &other.kinds {
            match self.kinds.iter_mut().find(|k| k.kind == kt.kind) {
                Some(k) => {
                    k.msgs += kt.msgs;
                    k.bits += kt.bits;
                }
                None => self.kinds.push(*kt),
            }
        }
        for c in &other.counters {
            let id = self.counter(c.name);
            self.counters[id.0 as usize].value += c.value;
        }
        for g in &other.gauges {
            let id = self.gauge(g.name);
            let mine = &mut self.gauges[id.0 as usize];
            mine.last = mine.last.max(g.last);
            mine.peak = mine.peak.max(g.peak);
        }
        for h in &other.hists {
            let id = self.histogram(h.name);
            self.hists[id.0 as usize].hist.merge(&h.hist);
        }
    }
}

impl Telemetry for Hub {
    const ENABLED: bool = true;

    #[inline]
    fn on_deliver(&mut self, kind: MsgKind, bits: u64) {
        self.msg_bits.record(bits);
        // Kinds are `&'static str` literals, so a repeated kind from the
        // same call site hits the pointer-identity check without a memcmp.
        match self
            .kinds
            .iter_mut()
            .find(|k| std::ptr::eq(k.kind.0, kind.0) || k.kind == kind)
        {
            Some(k) => {
                k.msgs += 1;
                k.bits += bits;
            }
            None => self.kinds.push(KindTotals {
                kind,
                msgs: 1,
                bits,
            }),
        }
    }

    #[inline]
    fn on_window_end(&mut self, messages: u64, congestion: u64) {
        self.window_messages.record(messages);
        self.window_congestion.record(congestion);
    }

    #[inline]
    fn on_op_latency(&mut self, latency: u64) {
        self.op_latency.record(latency);
    }

    fn register_counter(&mut self, name: &'static str) -> CounterId {
        self.counter(name)
    }

    fn register_gauge(&mut self, name: &'static str) -> GaugeId {
        self.gauge(name)
    }

    fn register_histogram(&mut self, name: &'static str) -> HistId {
        self.histogram(name)
    }

    #[inline]
    fn gauge_set(&mut self, id: GaugeId, value: u64) {
        let g = &mut self.gauges[id.0 as usize];
        g.last = value;
        g.peak = g.peak.max(value);
    }

    #[inline]
    fn counter_add(&mut self, id: CounterId, by: u64) {
        self.counters[id.0 as usize].value += by;
    }

    #[inline]
    fn hist_record(&mut self, id: HistId, value: u64) {
        self.hists[id.0 as usize].hist.record(value);
    }

    fn hist_merge(&mut self, id: HistId, h: &LogHistogram) {
        self.hists[id.0 as usize].hist.merge(h);
    }

    #[inline]
    fn fault_totals(&mut self, totals: FaultTotals) {
        self.faults = totals;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_handles_are_stable_and_deduplicated() {
        let mut hub = Hub::new();
        let a = hub.counter("reliable.retransmits");
        let b = hub.counter("reliable.dup_suppressed");
        let a2 = hub.counter("reliable.retransmits");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        hub.counter_add(a, 3);
        hub.counter_add(b, 1);
        hub.counter_add(a2, 2);
        assert_eq!(
            hub.counters().collect::<Vec<_>>(),
            [("reliable.retransmits", 5), ("reliable.dup_suppressed", 1)]
        );
    }

    #[test]
    fn gauges_track_last_and_peak() {
        let mut hub = Hub::new();
        let g = hub.gauge("flightset.occupancy");
        hub.gauge_set(g, 7);
        hub.gauge_set(g, 40);
        hub.gauge_set(g, 12);
        assert_eq!(
            hub.gauges().collect::<Vec<_>>(),
            [("flightset.occupancy", 12, 40)]
        );
    }

    #[test]
    fn merge_matches_by_name_across_registration_orders() {
        let mut a = Hub::new();
        let ac = a.counter("x");
        let ag = a.gauge("occ");
        a.counter_add(ac, 2);
        a.gauge_set(ag, 10);
        a.on_deliver(MsgKind("dht.req"), 100);
        a.on_op_latency(4);

        let mut b = Hub::new();
        let bc_y = b.counter("y"); // registered before "x" — order differs
        let bc_x = b.counter("x");
        b.counter_add(bc_y, 7);
        b.counter_add(bc_x, 5);
        let bg = b.gauge("occ");
        b.gauge_set(bg, 3);
        b.on_deliver(MsgKind("dht.req"), 50);
        b.on_deliver(MsgKind("skeap.batch"), 900);
        b.on_op_latency(9);

        a.merge(&b);
        assert_eq!(a.counter_by_name("x"), Some(7));
        assert_eq!(a.counter_by_name("y"), Some(7));
        assert_eq!(a.gauges().collect::<Vec<_>>(), [("occ", 10, 10)]);
        assert_eq!(a.op_latency.count(), 2);
        let kinds = a.kind_totals();
        assert_eq!(kinds.len(), 2);
        assert_eq!((kinds[0].msgs, kinds[0].bits), (2, 150));
    }

    #[test]
    fn null_sink_is_disabled() {
        const { assert!(!NullTelemetry::ENABLED) };
        const { assert!(Hub::ENABLED) };
    }

    #[test]
    fn fault_totals_mirror_is_idempotent() {
        let mut hub = Hub::new();
        let t = FaultTotals {
            dropped_chance: 5,
            duplicated: 2,
            ..FaultTotals::default()
        };
        hub.fault_totals(t);
        hub.fault_totals(t);
        assert_eq!(hub.faults, t);
    }
}
