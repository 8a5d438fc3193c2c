//! Skeap's message alphabet.

use crate::anchor::EntryAssign;
use crate::batch::Batch;
use dpq_core::wire;
use dpq_dht::{DhtReq, DhtResp};
use dpq_overlay::routing::RouteMsg;

/// Everything a Skeap node sends or receives.
#[derive(Debug, Clone)]
pub enum SkeapMsg {
    /// Phase 1: a combined sub-batch travelling toward the anchor.
    BatchUp {
        /// The sender's batch cycle.
        cycle: u64,
        /// The subtree's combined batch.
        batch: Batch,
    },
    /// Phase 3: position/witness assignments travelling away from the
    /// anchor.
    Down {
        /// The batch cycle being resolved.
        cycle: u64,
        /// Per-group assignments for the receiving subtree.
        assigns: Vec<EntryAssign>,
    },
    /// Phase 4: a DHT request being routed over the LDB.
    Dht(RouteMsg<DhtReq>),
    /// A DHT response returning to the requester.
    Resp(DhtResp),
}

wire!(enum SkeapMsg {
    0 => BatchUp { cycle, batch } as "skeap.batch_up",
    1 => Down { cycle, assigns } as "skeap.down",
    2 => Dht(m) as "dht.req",
    3 => Resp(m) as "dht.resp",
});

#[cfg(test)]
mod tests {
    use super::*;
    use dpq_core::BitSize;
    use dpq_core::OpKind;

    #[test]
    fn batch_messages_grow_with_batch_content() {
        let empty = SkeapMsg::BatchUp {
            cycle: 0,
            batch: Batch::empty(2),
        };
        let ops: Vec<OpKind> = (0..20).map(|_| OpKind::DeleteMin).collect();
        let (b, _) = Batch::from_ops(2, ops.iter());
        let full = SkeapMsg::BatchUp { cycle: 0, batch: b };
        assert!(full.bits() > empty.bits());
    }
}
