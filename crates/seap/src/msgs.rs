//! Seap's message alphabet.
//!
//! Every variant is O(log n) bits (Lemma 5.5): counts, single intervals,
//! keys — never batches. The embedded KSelect traffic is O(log n) by
//! Theorem 4.2.

use dpq_agg::Interval;
use dpq_core::{wire, Key};
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

wire!(enum SeapMsg {
    0 => Begin { phase } as "seap.begin",
    1 => CountUp { phase, count } as "seap.count_up",
    2 => StartInserts { phase, wit } as "seap.start_inserts",
    3 => CountBelow { phase, key_k } as "seap.count_below",
    4 => StoreCountUp { phase, count } as "seap.store_count_up",
    5 => Assign { phase, key_k, store, del, wit } as "seap.assign",
    6 => DoneUp { phase } as "seap.done_up",
    7 => K(m) as m,
    8 => Dht(m) as "dht.req",
    9 => Resp(m) as "dht.resp",
});

#[cfg(test)]
mod tests {
    use super::*;
    use dpq_core::BitSize;
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
