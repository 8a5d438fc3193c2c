//! Trace sinks: the [`Tracer`] trait and its built-in implementations.

use crate::event::TraceEvent;

/// A sink for [`TraceEvent`]s.
///
/// Schedulers are generic over their tracer with [`NullTracer`] as the
/// default type parameter, and guard every event-construction site with
/// `if T::ENABLED { .. }`. Because `ENABLED` is an associated *constant*,
/// the no-op instantiation compiles to exactly the untraced code — tracing
/// costs nothing unless a real sink is plugged in.
pub trait Tracer {
    /// Whether this sink wants events at all. Sites constructing events
    /// should be guarded by this constant so `NullTracer` compiles away.
    const ENABLED: bool = true;

    /// Accept one event.
    fn record(&mut self, ev: TraceEvent);
}

/// The default sink: drops everything, compiles away.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullTracer;

impl Tracer for NullTracer {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _ev: TraceEvent) {}
}

/// Unbounded sink keeping every event it is offered. Use for short runs and
/// tests; long runs should prefer [`RingTracer`].
#[derive(Debug, Clone, Default)]
pub struct VecTracer {
    /// The captured stream, in arrival order.
    pub events: Vec<TraceEvent>,
}

impl VecTracer {
    /// An empty sink.
    pub fn new() -> Self {
        VecTracer::default()
    }

    /// Consume the sink, yielding the captured stream.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

impl Tracer for VecTracer {
    fn record(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }
}

/// Bounded ring-buffer sink for the control plane.
///
/// Keeps at most `capacity` of the *most recent* control-plane events
/// ([`TraceEvent::is_control`]); older ones are overwritten and counted in
/// [`RingTracer::dropped`]. Per-message events are never stored (and not
/// counted as dropped), so traces stay small at the largest scales.
#[derive(Debug, Clone)]
pub struct RingTracer {
    buf: Vec<TraceEvent>,
    head: usize,
    capacity: usize,
    /// Control-plane events evicted because the buffer was full.
    pub dropped: u64,
}

impl RingTracer {
    /// A ring of `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "RingTracer capacity must be positive");
        RingTracer {
            buf: Vec::with_capacity(capacity.min(4096)),
            head: 0,
            capacity,
            dropped: 0,
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the ring, yielding the retained events oldest-first.
    pub fn into_events(self) -> Vec<TraceEvent> {
        let RingTracer { mut buf, head, .. } = self;
        buf.rotate_left(head);
        buf
    }
}

impl Tracer for RingTracer {
    fn record(&mut self, ev: TraceEvent) {
        if !ev.is_control() {
            return;
        }
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpq_core::NodeId;

    fn mark(round: u64) -> TraceEvent {
        TraceEvent::PhaseMark {
            round,
            node: NodeId(0),
            label: "t",
            value: round,
        }
    }

    #[test]
    fn vec_tracer_keeps_order() {
        let mut t = VecTracer::new();
        for r in 0..5 {
            t.record(mark(r));
        }
        let rounds: Vec<u64> = t.into_events().iter().map(|e| e.round()).collect();
        assert_eq!(rounds, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let mut t = RingTracer::new(3);
        for r in 0..7 {
            t.record(mark(r));
        }
        assert_eq!(t.dropped, 4);
        let rounds: Vec<u64> = t.into_events().iter().map(|e| e.round()).collect();
        assert_eq!(rounds, vec![4, 5, 6]);
    }

    #[test]
    fn ring_keeps_only_control_events() {
        let mut t = RingTracer::new(8);
        t.record(TraceEvent::Activate {
            round: 1,
            node: NodeId(0),
        });
        t.record(TraceEvent::RoundEnd {
            round: 2,
            messages: 0,
            bits: 0,
            congestion: 0,
        });
        assert_eq!(t.len(), 1);
        assert_eq!(t.dropped, 0);
    }

    #[test]
    fn null_tracer_is_disabled() {
        const { assert!(!NullTracer::ENABLED) };
        const { assert!(VecTracer::ENABLED && RingTracer::ENABLED) };
    }
}
