//! Injection schedules: the materialised, replayable form of a workload.
//!
//! [`Schedule::generate`] is a pure function of the spec — no scheduler
//! state, no wall clock — so the same spec produces byte-identical
//! schedules everywhere: across `--jobs` shards, across machines, across
//! sessions. `to_bytes`/`fingerprint` exist precisely so tests can pin
//! that claim.

use crate::spec::OpenLoopSpec;
use dpq_core::{hash_u64, DetRng, NodeId};

/// Stream-split tags for the independent randomness lanes of a schedule.
/// Keeping arrival gaps, client picks, op kinds, and priorities on separate
/// streams means changing e.g. the insert ratio cannot perturb the arrival
/// times.
const STREAM_ARRIVALS: u64 = 0;
const STREAM_CLIENTS: u64 = 1;
const STREAM_KIND: u64 = 2;
const STREAM_MIX: u64 = 3;

/// Hash domain for the stable client → entry-node map.
const DOMAIN_CLIENT_NODE: u64 = 0x77_6f_72_6b; // "work"

/// What one arrival asks the heap to do. Element identity is *not* part of
/// the schedule: nodes self-assign `ElemId`s at issue time, exactly as the
/// closed-loop drivers do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkOp {
    /// Insert at this priority; the payload carries the client id.
    Insert {
        /// Priority drawn from the spec's mix.
        prio: u64,
    },
    /// Remove the minimum.
    DeleteMin,
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    /// Arrival time, integer simulated ticks.
    pub tick: u64,
    /// Entry node (stable hash of the client).
    pub node: NodeId,
    /// Logical client issuing the request.
    pub client: u64,
    /// The request.
    pub op: WorkOp,
}

/// A complete injection schedule, time-ordered.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Horizon the schedule was generated for, ticks.
    pub ticks: u64,
    /// Cluster size arrivals were multiplexed over.
    pub n: usize,
    /// Time-ordered injections.
    pub injections: Vec<Injection>,
}

impl Schedule {
    /// Generate the schedule for a spec. Pure: same spec → same bytes.
    pub fn generate(spec: &OpenLoopSpec) -> Schedule {
        spec.validate();
        let root = DetRng::new(spec.seed);
        let mut rng_arr = root.split(STREAM_ARRIVALS);
        let mut rng_cli = root.split(STREAM_CLIENTS);
        let mut rng_kind = root.split(STREAM_KIND);
        let mut rng_mix = root.split(STREAM_MIX);
        let mut arrivals = spec.arrivals();
        let mix = spec.mix();
        let mut injections = Vec::new();
        let mut t = 0.0f64;
        loop {
            t += arrivals.next_gap(&mut rng_arr);
            let tick = t as u64;
            if !(t.is_finite() && tick < spec.ticks) {
                break;
            }
            let client = rng_cli.below(spec.clients);
            let node = NodeId(hash_u64(DOMAIN_CLIENT_NODE, client) % spec.n as u64);
            let op = if rng_kind.chance(spec.insert_ratio) {
                WorkOp::Insert {
                    prio: mix.next_prio(&mut rng_mix),
                }
            } else {
                WorkOp::DeleteMin
            };
            injections.push(Injection {
                tick,
                node,
                client,
                op,
            });
        }
        Schedule {
            ticks: spec.ticks,
            n: spec.n,
            injections,
        }
    }

    /// Number of scheduled requests.
    pub fn len(&self) -> usize {
        self.injections.len()
    }

    /// Is the schedule empty?
    pub fn is_empty(&self) -> bool {
        self.injections.is_empty()
    }

    /// Canonical byte serialisation (little-endian field concat) — the
    /// unit of the byte-identity determinism pin.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.injections.len() * 33);
        out.extend_from_slice(&self.ticks.to_le_bytes());
        out.extend_from_slice(&(self.n as u64).to_le_bytes());
        for inj in &self.injections {
            out.extend_from_slice(&inj.tick.to_le_bytes());
            out.extend_from_slice(&inj.node.0.to_le_bytes());
            out.extend_from_slice(&inj.client.to_le_bytes());
            match inj.op {
                WorkOp::Insert { prio } => {
                    out.push(1);
                    out.extend_from_slice(&prio.to_le_bytes());
                }
                WorkOp::DeleteMin => {
                    out.push(0);
                    out.extend_from_slice(&0u64.to_le_bytes());
                }
            }
        }
        out
    }

    /// FNV-1a 64 digest of [`Self::to_bytes`] — a compact pin for golden
    /// tests.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in self.to_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::MixKind;
    use crate::spec::ArrivalSpec;

    #[test]
    fn generation_is_pure() {
        let spec = OpenLoopSpec::base();
        let a = Schedule::generate(&spec);
        let b = Schedule::generate(&spec);
        assert_eq!(a, b);
        assert_eq!(a.to_bytes(), b.to_bytes());
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn arrival_count_tracks_rate_times_horizon() {
        let mut spec = OpenLoopSpec::base();
        spec.rate = 4.0;
        spec.ticks = 1000;
        let s = Schedule::generate(&spec);
        let expected = 4.0 * 1000.0;
        let err = (s.len() as f64 - expected).abs() / expected;
        assert!(err < 0.10, "count {} vs expected {expected}", s.len());
    }

    #[test]
    fn injections_are_time_ordered_and_in_horizon() {
        let mut spec = OpenLoopSpec::base();
        spec.arrivals = ArrivalSpec::Mmpp {
            burst_mult: 8.0,
            dwell_calm: 16.0,
            dwell_burst: 4.0,
        };
        let s = Schedule::generate(&spec);
        assert!(!s.is_empty());
        let mut prev = 0;
        for inj in &s.injections {
            assert!(inj.tick >= prev);
            assert!(inj.tick < spec.ticks);
            assert!(inj.node.0 < spec.n as u64);
            assert!(inj.client < spec.clients);
            prev = inj.tick;
        }
    }

    #[test]
    fn clients_map_to_stable_nodes() {
        let spec = OpenLoopSpec::base();
        let s = Schedule::generate(&spec);
        let mut seen: std::collections::HashMap<u64, NodeId> = std::collections::HashMap::new();
        for inj in &s.injections {
            let prev = seen.insert(inj.client, inj.node);
            if let Some(prev) = prev {
                assert_eq!(prev, inj.node, "client {} moved nodes", inj.client);
            }
        }
    }

    #[test]
    fn seed_changes_the_schedule() {
        let a = Schedule::generate(&OpenLoopSpec::base());
        let mut spec = OpenLoopSpec::base();
        spec.seed = 2;
        let b = Schedule::generate(&spec);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn insert_ratio_shapes_the_op_mix() {
        let mut spec = OpenLoopSpec::base();
        spec.rate = 16.0;
        spec.ticks = 1000;
        spec.insert_ratio = 0.8;
        let s = Schedule::generate(&spec);
        let inserts = s
            .injections
            .iter()
            .filter(|i| matches!(i.op, WorkOp::Insert { .. }))
            .count();
        let frac = inserts as f64 / s.len() as f64;
        assert!((0.77..0.83).contains(&frac), "insert fraction {frac}");
    }

    #[test]
    fn fifo_mix_schedules_only_priority_zero() {
        let mut spec = OpenLoopSpec::base();
        spec.mix = MixKind::FifoAdversarial;
        for inj in &Schedule::generate(&spec).injections {
            if let WorkOp::Insert { prio } = inj.op {
                assert_eq!(prio, 0);
            }
        }
    }
}
