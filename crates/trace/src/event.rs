//! The trace event model.

use dpq_core::{MsgKind, NodeId, OpId};

/// Why the fault layer destroyed a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The link's random drop coin fired at send time.
    Chance,
    /// The link crossed an active partition cut at delivery time.
    Partition,
    /// The destination node was crashed at delivery time.
    Crash,
}

impl DropReason {
    /// Stable lowercase label used by the exporters.
    pub fn as_str(&self) -> &'static str {
        match self {
            DropReason::Chance => "chance",
            DropReason::Partition => "partition",
            DropReason::Crash => "crash",
        }
    }
}

/// One observable moment in a simulated run.
///
/// `round` is the scheduler's logical clock: the round counter under the
/// synchronous scheduler, the step counter under the asynchronous one. All
/// events carry it so a stream can be merged, windowed, or exported on a
/// shared time axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A node placed a message in its outbox.
    Send {
        /// Logical time of the send.
        round: u64,
        /// Sending node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Message family, for per-kind attribution.
        kind: MsgKind,
        /// Encoded size of the message in bits.
        bits: u64,
    },
    /// The scheduler handed a message to its destination.
    Deliver {
        /// Logical time of the delivery.
        round: u64,
        /// Original sender.
        src: NodeId,
        /// Receiving node.
        dst: NodeId,
        /// Message family, for per-kind attribution.
        kind: MsgKind,
        /// Encoded size of the message in bits.
        bits: u64,
    },
    /// A node took its activation turn.
    Activate {
        /// Logical time of the activation.
        round: u64,
        /// The activated node.
        node: NodeId,
    },
    /// A synchronous round (or async sweep) closed.
    RoundEnd {
        /// The round that just ended.
        round: u64,
        /// Messages delivered during it.
        messages: u64,
        /// Bits delivered during it.
        bits: u64,
        /// Maximum messages any single node received during it.
        congestion: u64,
    },
    /// A protocol announced a named phase boundary (Skeap batch cycle,
    /// Seap phase, KSelect Phase 1/2/3 transition).
    PhaseMark {
        /// Logical time of the mark.
        round: u64,
        /// Node that emitted the mark (usually the anchor).
        node: NodeId,
        /// Phase label, e.g. `"skeap.batch"` or `"kselect.phase2"`.
        label: &'static str,
        /// Phase-specific payload (cycle number, phase number, iteration).
        value: u64,
    },
    /// A queue operation entered the system.
    OpInjected {
        /// Logical time of injection.
        round: u64,
        /// Node that issued the operation.
        node: NodeId,
        /// The operation's identity.
        op: OpId,
    },
    /// A queue operation produced its return value.
    OpCompleted {
        /// Logical time of completion.
        round: u64,
        /// Node whose operation completed.
        node: NodeId,
        /// The operation's identity.
        op: OpId,
    },
    /// The fault layer destroyed a message — the trace shows exactly which
    /// message died, and why.
    FaultDrop {
        /// Logical time of the drop.
        round: u64,
        /// Original sender.
        src: NodeId,
        /// Intended destination.
        dst: NodeId,
        /// Message family of the lost message.
        kind: MsgKind,
        /// Encoded size of the lost message in bits.
        bits: u64,
        /// Why the message died.
        reason: DropReason,
    },
    /// The fault layer injected an extra copy of a message at send time.
    FaultDuplicate {
        /// Logical time of the duplication.
        round: u64,
        /// Original sender.
        src: NodeId,
        /// Destination (both copies share it).
        dst: NodeId,
        /// Message family of the duplicated message.
        kind: MsgKind,
    },
    /// A node crash-stopped (fail-pause: state is retained, but the node
    /// neither runs nor receives until a matching [`TraceEvent::NodeRecover`]).
    NodeCrash {
        /// Logical time of the crash.
        round: u64,
        /// The crashed node.
        node: NodeId,
    },
    /// A crashed node came back (with its pre-crash state).
    NodeRecover {
        /// Logical time of the recovery.
        round: u64,
        /// The recovered node.
        node: NodeId,
    },
    /// A scheduled partition cut went live.
    PartitionStart {
        /// Logical time the cut activates.
        round: u64,
        /// Index of the partition in the plan.
        id: u64,
        /// Number of nodes on the island side of the cut.
        island: u64,
    },
    /// A scheduled partition healed.
    PartitionHeal {
        /// Logical time the cut heals.
        round: u64,
        /// Index of the partition in the plan.
        id: u64,
    },
}

impl TraceEvent {
    /// The event's logical time.
    pub fn round(&self) -> u64 {
        match *self {
            TraceEvent::Send { round, .. }
            | TraceEvent::Deliver { round, .. }
            | TraceEvent::Activate { round, .. }
            | TraceEvent::RoundEnd { round, .. }
            | TraceEvent::PhaseMark { round, .. }
            | TraceEvent::OpInjected { round, .. }
            | TraceEvent::OpCompleted { round, .. }
            | TraceEvent::FaultDrop { round, .. }
            | TraceEvent::FaultDuplicate { round, .. }
            | TraceEvent::NodeCrash { round, .. }
            | TraceEvent::NodeRecover { round, .. }
            | TraceEvent::PartitionStart { round, .. }
            | TraceEvent::PartitionHeal { round, .. } => round,
        }
    }

    /// Is this a control-plane event: a round end, a phase mark, an op
    /// injection or completion, or a (rare, load-bearing) fault event? The
    /// per-message events — sends, deliveries, activations — are not; they
    /// dominate stream volume.
    pub fn is_control(&self) -> bool {
        !matches!(
            self,
            TraceEvent::Send { .. } | TraceEvent::Deliver { .. } | TraceEvent::Activate { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_event_reports_its_round_and_plane() {
        let node = NodeId(3);
        let op = OpId { node, seq: 1 };
        let kind = MsgKind("test");
        let evs = [
            TraceEvent::Send {
                round: 1,
                src: node,
                dst: node,
                kind,
                bits: 8,
            },
            TraceEvent::Deliver {
                round: 2,
                src: node,
                dst: node,
                kind,
                bits: 8,
            },
            TraceEvent::Activate { round: 3, node },
            TraceEvent::RoundEnd {
                round: 4,
                messages: 1,
                bits: 8,
                congestion: 1,
            },
            TraceEvent::PhaseMark {
                round: 5,
                node,
                label: "p",
                value: 0,
            },
            TraceEvent::OpInjected { round: 6, node, op },
            TraceEvent::OpCompleted { round: 7, node, op },
            TraceEvent::FaultDrop {
                round: 8,
                src: node,
                dst: node,
                kind,
                bits: 8,
                reason: DropReason::Chance,
            },
            TraceEvent::FaultDuplicate {
                round: 9,
                src: node,
                dst: node,
                kind,
            },
            TraceEvent::NodeCrash { round: 10, node },
            TraceEvent::NodeRecover { round: 11, node },
            TraceEvent::PartitionStart {
                round: 12,
                id: 0,
                island: 2,
            },
            TraceEvent::PartitionHeal { round: 13, id: 0 },
        ];
        for (i, ev) in evs.iter().enumerate() {
            assert_eq!(ev.round(), i as u64 + 1);
            // Send, Deliver and Activate come first; everything after them,
            // fault events included, is control plane.
            assert_eq!(ev.is_control(), i >= 3, "{ev:?}");
        }
        assert_eq!(DropReason::Partition.as_str(), "partition");
    }
}
