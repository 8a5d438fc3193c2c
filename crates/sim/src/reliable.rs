//! Reliable transport: ack + timeout retransmission + duplicate suppression.
//!
//! The paper's asynchronous model (§1.1) delays and reorders messages but
//! never loses or duplicates them, and Skeap/Seap lean on that: collectors
//! reject double contributions, the DHT client rejects unknown acks, phase
//! machines assert cycle agreement. Rather than weakening those assertions —
//! they are exactly what makes the protocols auditable — [`Reliable`]
//! restores the paper's channel semantics *on top of* a faulty network, the
//! classic transport argument (and the recovery shape the same authors'
//! Skueue paper motivates): the inner protocol runs unmodified over
//! exactly-once, arbitrary-finite-delay, non-FIFO channels, while the
//! wrapper absorbs drops, duplicates, partitions, and crash-recover gaps.
//!
//! Mechanism, per ordered link (src, dst):
//!
//! * every payload is wrapped in [`ReliableMsg::Data`] with a link-local
//!   sequence number — `(src, dst, seq)` is the message id;
//! * the receiver always acks, *then* deduplicates: ids at or above a
//!   contiguous-delivery watermark are tracked in a sorted run, ids below it
//!   (or in the run) are suppressed, so the inner protocol sees each id
//!   exactly once no matter how often the network replays it;
//! * every ack carries the receiver's contiguous-delivery watermark as a
//!   *cumulative* acknowledgement: on receipt the sender drops all buffered
//!   payloads below it, so a lost per-seq ack can never pin a payload copy
//!   forever — any later ack on the link frees it. This is what bounds
//!   per-link sender memory under ack loss;
//! * the sender buffers unacked payloads and retransmits on activation once
//!   `timeout` logical time units have passed since the last send — under
//!   fair activation every surviving link eventually delivers, so a plan
//!   whose faults all heal cannot stall a run;
//! * [`Reliable::done`] holds only when the inner protocol is done *and*
//!   every send has been acked, which keeps the schedulers' quiescence
//!   detection honest under in-flight loss.
//!
//! Per-peer state lives in sorted flat vectors (a node talks to O(log n)
//! peers, so binary search beats pointer-chasing a `BTreeMap`), iterated in
//! key order so retransmission order, traces, and metrics stay
//! deterministic — and the state-hash digest format is unchanged from the
//! earlier tree-map representation. Sequence numbers are issued
//! monotonically, so the unacked buffer and the out-of-order run stay
//! sorted by construction: appends, not insert-sorts, on the hot path.

use crate::protocol::{Ctx, Protocol, QueueNode};
use dpq_core::{BitSize, Element, NodeHistory, NodeId, OpId, OpKind};
use dpq_telemetry::{LogHistogram, Telemetry};

/// Transport envelope of [`Reliable`]: a payload with a link-local sequence
/// number, or an ack for one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReliableMsg<M> {
    /// A payload copy. `(sender, receiver, seq)` identifies the message.
    Data {
        /// Link-local sequence number.
        seq: u64,
        /// The inner protocol's message.
        msg: M,
    },
    /// Acknowledges receipt (not necessarily first receipt) of `seq`.
    Ack {
        /// The acknowledged sequence number.
        seq: u64,
        /// Cumulative acknowledgement: every seq `< cum` has been delivered
        /// to the receiver's inner protocol, so the sender may discard them
        /// all — even those whose individual acks were lost.
        cum: u64,
    },
}

// Data frames keep the payload's kind so per-kind attribution in the
// metrics and experiments still describes the protocol, not the transport;
// only acks show up as transport traffic.
dpq_core::wire!(enum ReliableMsg<M> {
    0 => Data { seq, msg } as msg,
    1 => Ack { seq, cum } as "rel.ack",
});

/// Sender-side state of one ordered link.
#[derive(Debug, Clone)]
struct TxLink<M> {
    /// Sequence number the next fresh payload will take.
    next_seq: u64,
    /// Unacked payloads `(seq, payload, logical time of last transmission)`,
    /// sorted by seq — fresh sends take increasing seqs, so appends keep it
    /// sorted.
    unacked: Vec<(u64, M, u64)>,
}

impl<M> Default for TxLink<M> {
    fn default() -> Self {
        TxLink {
            next_seq: 0,
            unacked: Vec::new(),
        }
    }
}

impl<M> TxLink<M> {
    /// Drop every buffered payload below the receiver's cumulative
    /// watermark, and release the buffer's capacity once it fully drains so
    /// a burst on a link that then goes quiet doesn't pin its high-water
    /// allocation for the rest of the run.
    fn prune_below(&mut self, cum: u64) {
        let cut = self.unacked.partition_point(|e| e.0 < cum);
        if cut > 0 {
            self.unacked.drain(..cut);
        }
        if self.unacked.is_empty() && self.unacked.capacity() > 32 {
            self.unacked = Vec::new();
        }
    }
}

/// Receiver-side state of one ordered link.
#[derive(Debug, Clone, Default)]
struct RxLink {
    /// Every seq `< watermark` has been delivered to the inner protocol.
    watermark: u64,
    /// Delivered seqs `>= watermark` (out-of-order arrivals), sorted.
    seen: Vec<u64>,
}

impl RxLink {
    /// Record first delivery of `seq`; `false` if it is a duplicate.
    fn accept(&mut self, seq: u64) -> bool {
        if seq < self.watermark {
            return false;
        }
        let at = match self.seen.binary_search(&seq) {
            Ok(_) => return false,
            Err(at) => at,
        };
        self.seen.insert(at, seq);
        // Compact: slide the watermark over any now-contiguous prefix so the
        // run stays small on mostly-ordered links.
        let mut run = 0;
        while run < self.seen.len() && self.seen[run] == self.watermark + run as u64 {
            run += 1;
        }
        if run > 0 {
            self.watermark += run as u64;
            self.seen.drain(..run);
        }
        true
    }
}

/// Counters over one node's transport activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReliableStats {
    /// Fresh payloads sent (first transmissions).
    pub sent: u64,
    /// Payload retransmissions triggered by the timeout.
    pub retransmits: u64,
    /// Duplicate deliveries suppressed before the inner protocol saw them.
    pub dup_suppressed: u64,
    /// Acks emitted (every data frame received triggers one).
    pub acks_sent: u64,
}

/// Wraps a [`Protocol`] with ack/retransmit/dedup transport so it survives a
/// faulty network unchanged. See the module docs for the mechanism.
#[derive(Debug, Clone)]
pub struct Reliable<P: Protocol>
where
    P::Msg: Clone,
{
    inner: P,
    timeout: u64,
    /// Per-destination sender links, sorted by peer id.
    tx: Vec<(NodeId, TxLink<P::Msg>)>,
    /// Per-source receiver links, sorted by peer id.
    rx: Vec<(NodeId, RxLink)>,
    /// Transport counters.
    pub stats: ReliableStats,
    /// Ack round-trip histogram (logical time from last transmission of a
    /// payload to its ack), `None` unless
    /// [`enable_rtt_histogram`](Reliable::enable_rtt_histogram) was called —
    /// so uninstrumented transports pay one pointer of storage and a
    /// never-taken branch. Excluded from the state hash, like `stats`.
    rtt: Option<Box<LogHistogram>>,
}

/// The link for `peer` in a sorted link table, created on first use.
fn link_mut<T: Default>(links: &mut Vec<(NodeId, T)>, peer: NodeId) -> &mut T {
    let at = match links.binary_search_by_key(&peer, |e| e.0) {
        Ok(at) => at,
        Err(at) => {
            links.insert(at, (peer, T::default()));
            at
        }
    };
    &mut links[at].1
}

impl<P: Protocol> Reliable<P>
where
    P::Msg: Clone,
{
    /// Wrap `inner`, retransmitting unacked payloads every `timeout` logical
    /// time units. The timeout must exceed one network round trip (≥ 3 under
    /// the synchronous scheduler, comfortably more under an asynchronous
    /// adversary — a too-small value only costs duplicate traffic, never
    /// correctness, since the receiver deduplicates).
    pub fn new(inner: P, timeout: u64) -> Self {
        assert!(timeout > 0, "retransmission timeout must be positive");
        Reliable {
            inner,
            timeout,
            tx: Vec::new(),
            rx: Vec::new(),
            stats: ReliableStats::default(),
            rtt: None,
        }
    }

    /// Start recording ack round-trip times into a streaming histogram.
    /// RTT is measured from the *last* transmission of a payload (the
    /// retransmission timer restarts the clock) to the arrival of its ack.
    pub fn enable_rtt_histogram(&mut self) {
        if self.rtt.is_none() {
            self.rtt = Some(Box::new(LogHistogram::new()));
        }
    }

    /// Fold this node's transport activity into a telemetry sink: the
    /// `reliable.*` counters and — when enabled — the ack RTT histogram.
    /// Drivers call this once per node after (or during) a run; counters
    /// are cumulative, so call it exactly once per node per run.
    pub fn export_telemetry<M: Telemetry>(&self, sink: &mut M) {
        if !M::ENABLED {
            return;
        }
        let sent = sink.register_counter("reliable.sent");
        let retx = sink.register_counter("reliable.retransmits");
        let dups = sink.register_counter("reliable.dup_suppressed");
        let acks = sink.register_counter("reliable.acks_sent");
        sink.counter_add(sent, self.stats.sent);
        sink.counter_add(retx, self.stats.retransmits);
        sink.counter_add(dups, self.stats.dup_suppressed);
        sink.counter_add(acks, self.stats.acks_sent);
        if let Some(rtt) = &self.rtt {
            let id = sink.register_histogram("reliable.ack_rtt");
            sink.hist_merge(id, rtt);
        }
    }

    /// Wrap every node of a cluster with the same timeout.
    pub fn wrap_all(nodes: impl IntoIterator<Item = P>, timeout: u64) -> Vec<Self> {
        nodes
            .into_iter()
            .map(|p| Reliable::new(p, timeout))
            .collect()
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The wrapped protocol, mutably (drivers inject operations through
    /// this).
    pub fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }

    /// Unwrap, discarding transport state.
    pub fn into_inner(self) -> P {
        self.inner
    }

    /// Total payloads currently awaiting an ack, over all links.
    pub fn unacked(&self) -> usize {
        self.tx.iter().map(|(_, l)| l.unacked.len()).sum()
    }

    /// Does no link hold a payload awaiting its ack?
    fn all_acked(&self) -> bool {
        self.tx.iter().all(|(_, l)| l.unacked.is_empty())
    }

    /// Resident transport entries over all links: buffered unacked payloads
    /// plus out-of-order dedup seqs. This is the quantity the cumulative-ack
    /// watermark and prefix compaction keep bounded — the per-link memory
    /// plateau property tests pin it.
    pub fn resident_entries(&self) -> usize {
        self.tx.iter().map(|(_, l)| l.unacked.len()).sum::<usize>()
            + self.rx.iter().map(|(_, l)| l.seen.len()).sum::<usize>()
    }

    /// Run `f` against the inner protocol under an inner context, then wrap
    /// and buffer whatever it sent and forward its telemetry.
    fn run_inner(
        &mut self,
        ctx: &mut Ctx<ReliableMsg<P::Msg>>,
        f: impl FnOnce(&mut P, &mut Ctx<P::Msg>),
    ) {
        let mut inner_ctx = Ctx::new(ctx.me(), ctx.now());
        f(&mut self.inner, &mut inner_ctx);
        let now = ctx.now();
        for env in inner_ctx.take_outbox() {
            let link = link_mut(&mut self.tx, env.dst);
            let seq = link.next_seq;
            link.next_seq += 1;
            link.unacked.push((seq, env.msg.clone(), now));
            self.stats.sent += 1;
            ctx.send(env.dst, ReliableMsg::Data { seq, msg: env.msg });
        }
        ctx.forward_events(&mut inner_ctx);
    }
}

impl<P: Protocol> Protocol for Reliable<P>
where
    P::Msg: Clone,
{
    type Msg = ReliableMsg<P::Msg>;

    fn on_activate(&mut self, ctx: &mut Ctx<Self::Msg>) {
        self.run_inner(ctx, |p, c| p.on_activate(c));
        // Retransmit overdue payloads straight out of the buffers — links in
        // peer order, payloads in seq order, so every downstream trace is
        // deterministic.
        let now = ctx.now();
        let timeout = self.timeout;
        for (dst, link) in &mut self.tx {
            for (seq, msg, last_sent) in &mut link.unacked {
                if now.saturating_sub(*last_sent) >= timeout {
                    *last_sent = now;
                    self.stats.retransmits += 1;
                    ctx.send(
                        *dst,
                        ReliableMsg::Data {
                            seq: *seq,
                            msg: msg.clone(),
                        },
                    );
                }
            }
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Ctx<Self::Msg>) {
        match msg {
            ReliableMsg::Ack { seq, cum } => {
                if let Ok(at) = self.tx.binary_search_by_key(&from, |e| e.0) {
                    let link = &mut self.tx[at].1;
                    if let Ok(at) = link.unacked.binary_search_by_key(&seq, |e| e.0) {
                        let (_, _, last_sent) = link.unacked.remove(at);
                        if let Some(rtt) = &mut self.rtt {
                            rtt.record(ctx.now().saturating_sub(last_sent));
                        }
                    }
                    // Cumulative prune: everything below the receiver's
                    // watermark has been delivered, whether or not its own
                    // ack survived the network. (No RTT sample for these —
                    // the matching transmission is unknowable.)
                    link.prune_below(cum);
                }
            }
            ReliableMsg::Data { seq, msg } => {
                // Dedup first so the ack can carry the updated watermark,
                // but the ack still precedes any inner replies in the
                // outbox — and is sent even for duplicates, since the
                // previous ack may itself have been lost.
                let link = link_mut(&mut self.rx, from);
                let fresh = link.accept(seq);
                let cum = link.watermark;
                ctx.send(from, ReliableMsg::Ack { seq, cum });
                self.stats.acks_sent += 1;
                if fresh {
                    self.run_inner(ctx, |p, c| p.on_message(from, msg, c));
                } else {
                    self.stats.dup_suppressed += 1;
                }
            }
        }
    }

    fn done(&self) -> bool {
        self.inner.done() && self.all_acked()
    }

    /// An activation is the inner one plus the retransmission scan, which
    /// has nothing to walk — now or later — while no payload is unacked.
    fn dormant(&self) -> bool {
        self.inner.dormant() && self.all_acked()
    }
}

impl<Q: QueueNode> QueueNode for Reliable<Q>
where
    Q::Msg: Clone,
{
    fn issue(&mut self, kind: OpKind) -> OpId {
        self.inner.issue(kind)
    }

    fn issue_insert(&mut self, prio: u64, payload: u64) -> OpId {
        self.inner.issue_insert(prio, payload)
    }

    fn node_history(&self) -> &NodeHistory {
        self.inner.node_history()
    }

    fn resident(&self, out: &mut Vec<Element>) {
        self.inner.resident(out)
    }
}

impl<P: Protocol + dpq_core::StateHash> dpq_core::StateHash for Reliable<P>
where
    P::Msg: Clone + dpq_core::BitSize,
{
    fn state_hash(&self, h: &mut dpq_core::StateHasher) {
        // Payloads are approximated by their encoded size: `P::Msg` need
        // not implement StateHash, and the inner protocol state plus the
        // (dst, seq, last-sent) structure disambiguates almost everything
        // a bit count leaves ambiguous. `stats` is telemetry — excluded.
        self.inner.state_hash(h);
        h.write_u64(self.tx.len() as u64);
        for (dst, link) in &self.tx {
            dst.state_hash(h);
            h.write_u64(link.next_seq);
            h.write_u64(link.unacked.len() as u64);
            for (seq, msg, last) in &link.unacked {
                h.write_u64(*seq);
                h.write_u64(msg.bits());
                h.write_u64(*last);
            }
        }
        h.write_u64(self.rx.len() as u64);
        for (src, link) in &self.rx {
            src.state_hash(h);
            h.write_u64(link.watermark);
            link.seen.state_hash(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpq_core::{vlq_bits, MsgKind};

    /// Toy inner protocol: records every delivery, replies `x + 1` to even
    /// payloads, never initiates.
    #[derive(Default)]
    struct Recorder {
        seen: Vec<(NodeId, u64)>,
    }

    impl Protocol for Recorder {
        type Msg = u64;
        fn on_activate(&mut self, _ctx: &mut Ctx<u64>) {}
        fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Ctx<u64>) {
            self.seen.push((from, msg));
            if msg.is_multiple_of(2) {
                ctx.send(from, msg + 1);
            }
        }
    }

    fn data(seq: u64, msg: u64) -> ReliableMsg<u64> {
        ReliableMsg::Data { seq, msg }
    }

    #[test]
    fn duplicate_delivery_is_suppressed_but_still_acked() {
        let mut node = Reliable::new(Recorder::default(), 8);
        let peer = NodeId(1);
        for _ in 0..3 {
            let mut ctx = Ctx::new(NodeId(0), 1);
            node.on_message(peer, data(0, 42), &mut ctx);
            let out = ctx.take_outbox();
            // Every copy is acked, even suppressed ones, and the ack carries
            // the post-delivery watermark.
            assert!(out
                .iter()
                .any(|e| e.dst == peer && e.msg == ReliableMsg::Ack { seq: 0, cum: 1 }));
        }
        assert_eq!(node.inner().seen, vec![(peer, 42)], "inner saw it once");
        assert_eq!(node.stats.dup_suppressed, 2);
        assert_eq!(node.stats.acks_sent, 3);
    }

    #[test]
    fn out_of_order_ids_dedup_and_compact() {
        let mut rx = RxLink::default();
        assert!(rx.accept(2));
        assert!(rx.accept(0));
        assert!(!rx.accept(0), "below-watermark replay");
        assert!(rx.accept(1));
        assert_eq!(rx.watermark, 3, "contiguous prefix compacted");
        assert!(rx.seen.is_empty());
        assert!(!rx.accept(2), "replay of a compacted id");
    }

    #[test]
    fn retransmission_fires_after_timeout_until_acked() {
        let mut node = Reliable::new(Recorder::default(), 4);
        let peer = NodeId(1);
        // Inner replies to an even payload → one unacked data frame at t=0.
        let mut ctx = Ctx::new(NodeId(0), 0);
        node.on_message(peer, data(0, 10), &mut ctx);
        assert_eq!(node.unacked(), 1);
        // Before the timeout: no retransmission.
        let mut ctx = Ctx::new(NodeId(0), 3);
        node.on_activate(&mut ctx);
        assert!(ctx.take_outbox().is_empty());
        // At the timeout: the frame goes out again, same id.
        let mut ctx = Ctx::new(NodeId(0), 4);
        node.on_activate(&mut ctx);
        let out = ctx.take_outbox();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].msg, data(0, 11));
        assert_eq!(node.stats.retransmits, 1);
        // The clock restarts from the retransmission.
        let mut ctx = Ctx::new(NodeId(0), 6);
        node.on_activate(&mut ctx);
        assert!(ctx.take_outbox().is_empty());
        // Ack lands → done, and no further retransmissions ever.
        assert!(!node.done());
        let mut ctx = Ctx::new(NodeId(0), 7);
        node.on_message(peer, ReliableMsg::Ack { seq: 0, cum: 1 }, &mut ctx);
        assert!(node.done());
        let mut ctx = Ctx::new(NodeId(0), 100);
        node.on_activate(&mut ctx);
        assert!(ctx.take_outbox().is_empty());
    }

    #[test]
    fn stale_ack_is_harmless() {
        let mut node = Reliable::new(Recorder::default(), 4);
        let mut ctx = Ctx::new(NodeId(0), 0);
        node.on_message(NodeId(2), ReliableMsg::Ack { seq: 99, cum: 0 }, &mut ctx);
        assert!(node.done());
    }

    #[test]
    fn cumulative_ack_prunes_unacked_even_when_per_seq_acks_were_lost() {
        let mut node = Reliable::new(Recorder::default(), 64);
        let peer = NodeId(1);
        // Four even payloads → four buffered replies on the link to `peer`.
        let mut ctx = Ctx::new(NodeId(0), 0);
        for (seq, payload) in [(0, 2), (1, 4), (2, 6), (3, 8)] {
            node.on_message(peer, data(seq, payload), &mut ctx);
        }
        assert_eq!(node.unacked(), 4);
        // Acks for replies 0..=2 are all lost; only the ack for seq 3
        // arrives, carrying the receiver's cumulative watermark past all of
        // them. Every buffered copy below it is released at once.
        let mut ctx = Ctx::new(NodeId(0), 5);
        node.on_message(peer, ReliableMsg::Ack { seq: 3, cum: 4 }, &mut ctx);
        assert_eq!(node.unacked(), 0);
        assert!(node.done());
    }

    /// One-way firehose: node 0 pushes `total` payloads at `rate` per round
    /// to node 1, which just counts them.
    struct Pump {
        me: u64,
        total: u64,
        rate: u64,
        sent: u64,
        got: u64,
    }

    impl Protocol for Pump {
        type Msg = u64;
        fn on_activate(&mut self, ctx: &mut Ctx<u64>) {
            if self.me == 0 {
                for _ in 0..self.rate.min(self.total - self.sent) {
                    ctx.send(NodeId(1), self.sent);
                    self.sent += 1;
                }
            }
        }
        fn on_message(&mut self, _from: NodeId, _msg: u64, _ctx: &mut Ctx<u64>) {
            self.got += 1;
        }
        fn done(&self) -> bool {
            self.me != 0 || self.sent == self.total
        }
    }

    /// The memory-plateau property: streaming 10k payloads over one link at
    /// 5% loss, the transport's resident state (sender unacked buffer +
    /// receiver out-of-order run) stays bounded by the retransmission
    /// window — it must NOT grow with the number of messages pushed through
    /// the link. The cumulative-ack watermark is what makes this hold even
    /// when acks themselves are lost: without it, every lost ack would pin
    /// its payload copy until its individual ack was retried through.
    #[test]
    fn per_link_memory_plateaus_under_sustained_loss() {
        const TOTAL: u64 = 10_000;
        const RATE: u64 = 20;
        let nodes = (0..2).map(|me| Pump {
            me,
            total: TOTAL,
            rate: RATE,
            sent: 0,
            got: 0,
        });
        let wrapped = Reliable::wrap_all(nodes, 8);
        let mut s = crate::sched_sync::SyncScheduler::new(wrapped)
            .with_faults(crate::faults::FaultPlan::uniform(0x9E1A, 0.05, 0.0));
        // Warm up a quarter of the stream, then record the plateau the rest
        // of the run must stay under.
        let resident = |s: &crate::sched_sync::SyncScheduler<Reliable<Pump>>| -> usize {
            s.nodes().iter().map(Reliable::resident_entries).sum()
        };
        let mut early_peak = 0;
        while s.node(NodeId(0)).inner().sent < TOTAL / 4 {
            s.step_round();
            early_peak = early_peak.max(resident(&s));
        }
        let mut late_peak = 0;
        for _ in 0..20_000 {
            if s.quiescent() {
                break;
            }
            s.step_round();
            late_peak = late_peak.max(resident(&s));
        }
        assert!(s.quiescent(), "stream never drained");
        assert_eq!(s.node(NodeId(1)).inner().got, TOTAL, "payloads lost");
        assert_eq!(resident(&s), 0, "state not released at quiescence");
        // The plateau: the steady-state peak is set by rate × timeout, not
        // by stream length. The relative bound allows for extreme-value
        // growth (the late window is ~15× longer, so it samples rarer
        // loss-burst coincidences); the absolute bound is the window-shaped
        // cap that anything scaling with TOTAL (= 10_000) blows through.
        assert!(
            late_peak <= (4 * early_peak).max(64),
            "resident transport state grew with stream length: \
             early peak {early_peak}, late peak {late_peak}"
        );
        assert!(
            (late_peak as u64) < 8 * RATE * 8,
            "resident state ({late_peak}) is not bounded by the \
             rate × timeout window"
        );
    }

    /// Partition-heal, isolated to the ack algebra: a long partition builds
    /// a deep retransmit backlog (every frame resent many times, no ack ever
    /// back), and then the FIRST ack to cross the healed link — carrying the
    /// receiver's cumulative watermark — releases the entire backlog at
    /// once. No per-seq ack replay, no second round trip.
    #[test]
    fn one_cumulative_ack_after_heal_prunes_the_whole_backlog() {
        const BACKLOG: u64 = 256;
        let mut node = Reliable::new(Recorder::default(), 4);
        let peer = NodeId(1);
        // Even payloads → one buffered reply each; the "partition": acks
        // simply never arrive.
        let mut ctx = Ctx::new(NodeId(0), 0);
        for seq in 0..BACKLOG {
            node.on_message(peer, data(seq, 2 * seq), &mut ctx);
        }
        assert_eq!(node.unacked() as u64, BACKLOG);
        // Many timeout cycles pass during the partition: the full backlog is
        // retransmitted over and over but stays pinned.
        for cycle in 1..=20u64 {
            let mut ctx = Ctx::new(NodeId(0), cycle * 4);
            node.on_activate(&mut ctx);
        }
        assert_eq!(node.stats.retransmits, 20 * BACKLOG);
        assert_eq!(
            node.unacked() as u64,
            BACKLOG,
            "backlog leaked mid-partition"
        );
        // Heal. The receiver had delivered everything before the cut (or
        // catches up from the retransmit burst); its next ack — one message
        // — carries cum past the whole backlog.
        let mut ctx = Ctx::new(NodeId(0), 100);
        node.on_message(
            peer,
            ReliableMsg::Ack {
                seq: BACKLOG - 1,
                cum: BACKLOG,
            },
            &mut ctx,
        );
        assert_eq!(node.unacked(), 0, "backlog survived the cumulative ack");
        assert_eq!(node.resident_entries(), 0, "resident state not released");
        assert!(node.done());
        // And nothing is ever retransmitted again.
        let mut ctx = Ctx::new(NodeId(0), 1000);
        node.on_activate(&mut ctx);
        assert!(ctx.take_outbox().is_empty());
    }

    /// The memory plateau holds ACROSS a partition-heal boundary: resident
    /// state necessarily grows while the cut pins frames, but once healed it
    /// must fall back to the rate × timeout plateau — the stream's history
    /// (everything pushed before and during the cut) must leave no residue.
    #[test]
    fn per_link_memory_replateaus_after_partition_heal() {
        const TOTAL: u64 = 10_000;
        const RATE: u64 = 20;
        const CUT: u64 = 60;
        const HEAL: u64 = 160;
        let nodes = (0..2).map(|me| Pump {
            me,
            total: TOTAL,
            rate: RATE,
            sent: 0,
            got: 0,
        });
        let wrapped = Reliable::wrap_all(nodes, 8);
        let plan = crate::faults::FaultPlan::uniform(0x43A1, 0.05, 0.0).with_partition(
            CUT,
            HEAL,
            vec![NodeId(0)],
        );
        let mut s = crate::sched_sync::SyncScheduler::new(wrapped).with_faults(plan);
        let resident = |s: &crate::sched_sync::SyncScheduler<Reliable<Pump>>| -> usize {
            s.nodes().iter().map(Reliable::resident_entries).sum()
        };
        // Phase 1: the pre-cut plateau.
        let mut pre_peak = 0;
        for _ in 0..CUT {
            s.step_round();
            pre_peak = pre_peak.max(resident(&s));
        }
        // Phase 2: the cut. The sender keeps pushing; everything pins.
        let mut cut_peak = 0;
        for _ in CUT..HEAL {
            s.step_round();
            cut_peak = cut_peak.max(resident(&s));
        }
        assert!(
            cut_peak > 2 * pre_peak,
            "the partition never actually pinned frames \
             (pre {pre_peak}, during {cut_peak})"
        );
        // Phase 3: heal. Allow one drain window (the pinned backlog flushes
        // through retransmission), then the plateau must be back — for the
        // whole remainder of the 10k-payload stream.
        for _ in 0..64 {
            s.step_round();
        }
        let mut post_peak = 0;
        for _ in 0..20_000 {
            if s.quiescent() {
                break;
            }
            s.step_round();
            post_peak = post_peak.max(resident(&s));
        }
        assert!(s.quiescent(), "stream never drained after heal");
        assert_eq!(s.node(NodeId(1)).inner().got, TOTAL, "payloads lost");
        assert_eq!(resident(&s), 0, "state not released at quiescence");
        assert!(
            post_peak <= (4 * pre_peak).max(64),
            "plateau did not recover after heal: pre {pre_peak}, post {post_peak}"
        );
        assert!(
            post_peak < cut_peak,
            "post-heal peak ({post_peak}) should sit below the \
             partition peak ({cut_peak})"
        );
    }

    #[test]
    fn sequence_numbers_are_per_link() {
        let mut node = Reliable::new(Recorder::default(), 8);
        // Two even payloads from two peers → replies take seq 0 on each link.
        let mut ctx = Ctx::new(NodeId(0), 0);
        node.on_message(NodeId(1), data(0, 2), &mut ctx);
        node.on_message(NodeId(2), data(0, 4), &mut ctx);
        let frames: Vec<_> = ctx
            .take_outbox()
            .into_iter()
            .filter(|e| matches!(e.msg, ReliableMsg::Data { .. }))
            .collect();
        assert_eq!(frames.len(), 2);
        assert!(frames
            .iter()
            .all(|e| matches!(e.msg, ReliableMsg::Data { seq: 0, .. })));
        assert_ne!(frames[0].dst, frames[1].dst);
    }

    #[test]
    fn transport_framing_is_priced_and_attributed() {
        let d = data(5, 300);
        assert_eq!(d.bits(), 1 + vlq_bits(5) + 300u64.bits());
        assert_eq!(d.kind(), 300u64.kind(), "data keeps the payload kind");
        let a: ReliableMsg<u64> = ReliableMsg::Ack { seq: 5, cum: 3 };
        assert_eq!(a.kind(), MsgKind("rel.ack"));
        assert_eq!(a.bits(), 1 + vlq_bits(5) + vlq_bits(3));
    }
}
