//! Seap's message alphabet.
//!
//! Every variant is O(log n) bits (Lemma 5.5): counts, single intervals,
//! keys — never batches. The embedded KSelect traffic is O(log n) by
//! Theorem 4.2.

use dpq_agg::Interval;
use dpq_core::bitsize::{tag_bits, vlq_bits};
use dpq_core::{BitSize, Key, MsgKind};
use dpq_dht::{DhtReq, DhtResp};
use dpq_overlay::routing::RouteMsg;
use kselect::KMsg;

/// Everything a Seap node sends or receives.
#[derive(Debug, Clone)]
pub enum SeapMsg {
    /// Down: begin phase `phase` — snapshot the matching buffer (inserts on
    /// even phases, deletes on odd) and aggregate counts.
    Begin {
        /// The phase being opened (even = insert, odd = delete).
        phase: u64,
    },
    /// Up: subtree request count for the phase.
    CountUp {
        /// Phase the count belongs to.
        phase: u64,
        /// Subtree request count.
        count: u64,
    },
    /// Down (insert phases): start storing; `wit` is the subtree's slice of
    /// the phase's serialization-witness range.
    StartInserts {
        /// Phase being worked.
        phase: u64,
        /// The subtree's slice of the witness range.
        wit: Interval,
    },
    /// Down (delete phases): KSelect finished — count stored elements with
    /// key ≤ `key_k`.
    CountBelow {
        /// Phase being worked.
        phase: u64,
        /// The rank-k_eff key KSelect found.
        key_k: Key,
    },
    /// Up: subtree count of stored elements ≤ key_k.
    StoreCountUp {
        /// Phase the count belongs to.
        phase: u64,
        /// Subtree count of stored elements ≤ key_k.
        count: u64,
    },
    /// Down (delete phases): the subtree's position slices. `store` is the
    /// slice of `[1,k_eff]` its stored small elements re-store at; `del` the
    /// slice its DeleteMin()s fetch (shorter than the subtree's delete count
    /// when the heap ran dry — the tail answers ⊥); `wit` the witness range
    /// for all its deletes.
    Assign {
        /// Phase being worked.
        phase: u64,
        /// The rank-k_eff key (None when nothing is fetchable).
        key_k: Option<Key>,
        /// Position slice this subtree's stored small elements re-store at.
        store: Interval,
        /// Position slice this subtree's deletes fetch.
        del: Interval,
        /// Witness range for this subtree's deletes.
        wit: Interval,
    },
    /// Up: the subtree finished all its phase work (puts confirmed, gets
    /// answered).
    DoneUp {
        /// Phase that completed in this subtree.
        phase: u64,
    },
    /// Embedded KSelect traffic (§5.2 uses KSelect to find the rank-k key).
    K(KMsg),
    /// DHT requests routed over the LDB.
    Dht(RouteMsg<DhtReq>),
    /// DHT responses.
    Resp(DhtResp),
}

impl From<KMsg> for SeapMsg {
    fn from(m: KMsg) -> Self {
        SeapMsg::K(m)
    }
}

impl BitSize for SeapMsg {
    fn bits(&self) -> u64 {
        tag_bits(10)
            + match self {
                SeapMsg::Begin { phase } => vlq_bits(*phase),
                SeapMsg::CountUp { phase, count } => vlq_bits(*phase) + vlq_bits(*count),
                SeapMsg::StartInserts { phase, wit } => vlq_bits(*phase) + wit.bits(),
                SeapMsg::CountBelow { phase, key_k } => vlq_bits(*phase) + key_k.bits(),
                SeapMsg::StoreCountUp { phase, count } => vlq_bits(*phase) + vlq_bits(*count),
                SeapMsg::Assign {
                    phase,
                    key_k,
                    store,
                    del,
                    wit,
                } => vlq_bits(*phase) + key_k.bits() + store.bits() + del.bits() + wit.bits(),
                SeapMsg::DoneUp { phase } => vlq_bits(*phase),
                SeapMsg::K(m) => m.bits(),
                SeapMsg::Dht(m) => m.bits(),
                SeapMsg::Resp(r) => r.bits(),
            }
    }

    fn kind(&self) -> MsgKind {
        match self {
            SeapMsg::Begin { .. } => MsgKind("seap.begin"),
            SeapMsg::CountUp { .. } => MsgKind("seap.count_up"),
            SeapMsg::StartInserts { .. } => MsgKind("seap.start_inserts"),
            SeapMsg::CountBelow { .. } => MsgKind("seap.count_below"),
            SeapMsg::StoreCountUp { .. } => MsgKind("seap.store_count_up"),
            SeapMsg::Assign { .. } => MsgKind("seap.assign"),
            SeapMsg::DoneUp { .. } => MsgKind("seap.done_up"),
            SeapMsg::K(m) => m.kind(),
            SeapMsg::Dht(_) => MsgKind("dht.req"),
            SeapMsg::Resp(_) => MsgKind("dht.resp"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpq_core::{ElemId, Priority};

    #[test]
    fn control_messages_are_small() {
        let key = Key::new(Priority(1 << 50), ElemId(1 << 55));
        let msgs = [
            SeapMsg::Begin { phase: 1 << 30 },
            SeapMsg::CountUp {
                phase: 9,
                count: 1 << 40,
            },
            SeapMsg::Assign {
                phase: 9,
                key_k: Some(key),
                store: Interval::new(1, 1 << 40),
                del: Interval::new(1, 1 << 40),
                wit: Interval::new(1 << 50, 1 << 51),
            },
        ];
        for m in &msgs {
            assert!(m.bits() < 1024, "{m:?} is {} bits", m.bits());
        }
    }
}
