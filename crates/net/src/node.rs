//! The node core: one `Reliable<P>` and every decision the runtime makes
//! about it, with no I/O.
//!
//! Three inputs drive a [`NodeCore`]: a [`tick`](NodeCore::tick) advances
//! the logical clock and activates the node (dormant or not — the hint is
//! for schedulers that skip, and a tick never does); a
//! [`deliver`](NodeCore::deliver) decodes one sender's frames, counting
//! and dropping undecodable ones as the message loss `Reliable` absorbs;
//! [`ctl`](NodeCore::ctl) answers status, enqueue and dequeue. After each
//! call the caller takes the log entries it accepted
//! ([`take_entries`](NodeCore::take_entries)), then the frames owed to each
//! destination ([`flush`](NodeCore::flush)), encoded only when taken —
//! log first, frames after, as [`crate::wal`]'s recovery argument needs.
//! A frame is one encoded `ReliableMsg`, or empty for a wake: one encoding
//! and one decode path (DESIGN.md decision 25).
//!
//! Acks ride along: a destination owed nothing but `ReliableMsg::Ack`
//! frames is not flushed at the end of an ordinary turn, so its acks leave
//! with the next payload for it or at the next tick — less than a tick
//! later, far inside the retransmission timeout.
//!
//! An idle node's own frames wait for its next tick, a local request or a
//! peer's wake, an unlogged empty frame (DESIGN.md decision 21).
//!
//! Recovery is the same code: [`replay`](NodeCore::replay) feeds logged
//! entries through the input handling the live calls use and drops what
//! they send unencoded, so a restarted node re-derives everything the live
//! one derived, op-latency clocks included.

use std::collections::BTreeMap;

use crate::app::NetApp;
use crate::ctl::{CtlReq, CtlResp, StatusInfo};
use crate::wal::{CtlOpKind, WalEntry};
use crate::wire::{from_bytes, to_bytes, RawBytes, Wire};
use dpq_core::{BitSize, NodeId, OpId};
use dpq_sim::{Ctx, CtxEvent, Hub, LogHistogram, Protocol, Reliable, ReliableMsg, Telemetry};

/// A frame owed to a destination, kept as a message until it is taken.
enum Frame<M> {
    App(ReliableMsg<M>),
    /// Empty: no app frame encodes to nothing.
    Wake,
}

impl<M: Wire> Frame<M> {
    /// Anything but a bare ack.
    fn is_payload(&self) -> bool {
        !matches!(self, Frame::App(ReliableMsg::Ack { .. }))
    }

    fn encode(&self) -> Vec<u8> {
        match self {
            Frame::App(msg) => to_bytes(msg),
            Frame::Wake => Vec::new(),
        }
    }
}

/// One node and everything that decides what it does. Generic over the
/// protocol via [`NetApp`].
pub struct NodeCore<P: NetApp>
where
    P::Msg: Clone + Wire,
{
    me: NodeId,
    node: Reliable<P>,
    /// Logical clock: advances once per tick (not per delivery), so the
    /// retransmission timeout keeps its "activations since last send"
    /// meaning from the simulator.
    now: u64,
    /// What the current turn owes each destination (`me` included: the
    /// protocols send to their own node like to any other).
    out: BTreeMap<u64, Vec<Frame<P::Msg>>>,
    /// Inputs accepted since the caller last took them.
    entries: Vec<WalEntry>,
    /// Every request before this index is complete: where `Status` resumes
    /// its count.
    op_prefix: usize,
    /// `op → issue tick`, for the op-latency histogram.
    op_issued: BTreeMap<OpId, u64>,
    op_latency: LogHistogram,
    rx_decode_errors: u64,
    /// `me`'s frames wait in `out` for the next tick, a local op or a wake.
    held: bool,
    /// Holds still waived by the last wake.
    waive: u8,
    /// A wake was taken and no busy node has queued itself a payload since.
    owed: bool,
    paced_holds: u64,
    wakes: u64,
    /// Holds that ended at the tick while a wake was owed.
    late_holds: u64,
}

impl<P: NetApp> NodeCore<P>
where
    P::Msg: Clone + Wire,
{
    /// Node `me` running `node` over `Reliable` (timeout `rto_ticks`).
    pub fn new(me: u64, node: P, rto_ticks: u64) -> Self {
        let mut node = Reliable::new(node, rto_ticks);
        node.enable_rtt_histogram();
        NodeCore {
            me: NodeId(me),
            node,
            now: 0,
            out: BTreeMap::new(),
            entries: Vec::new(),
            op_prefix: 0,
            op_issued: BTreeMap::new(),
            op_latency: LogHistogram::new(),
            rx_decode_errors: 0,
            held: false,
            waive: 0,
            owed: false,
            paced_holds: 0,
            wakes: 0,
            late_holds: 0,
        }
    }

    /// Advance the clock and activate the node.
    pub fn tick(&mut self) {
        self.now += 1;
        self.entries.push(WalEntry::Activate { now: self.now });
        let sent = self.step(Reliable::on_activate);
        queue(&mut self.out, sent);
    }

    /// Deliver the frames `from` sent, in order.
    pub fn deliver(&mut self, from: u64, frames: Vec<Vec<u8>>) {
        for bytes in frames {
            if bytes.is_empty() {
                (self.held, self.waive, self.owed) = (false, 2, true);
                self.wakes += 1;
                continue;
            }
            let Ok(msg) = from_bytes(&bytes) else {
                self.rx_decode_errors += 1;
                continue;
            };
            self.entries.push(WalEntry::Deliver {
                now: self.now,
                from,
                frame: RawBytes(bytes),
            });
            let sent = self.step(|node, ctx| node.on_message(NodeId(from), msg, ctx));
            if queue(&mut self.out, sent) && !self.held {
                if !self.node.inner().idle() {
                    self.owed = false;
                } else if self.waive > 0 {
                    self.waive -= 1;
                } else {
                    self.held = true;
                    self.paced_holds += 1;
                }
            }
        }
    }

    /// Answer one of the control requests that touch the node — `Status`,
    /// `Enqueue`, `Dequeue`; the rest are the caller's.
    pub fn ctl(&mut self, req: CtlReq) -> CtlResp {
        let op = match req {
            CtlReq::Status => return CtlResp::Status(self.status()),
            CtlReq::Enqueue { prio, payload } => CtlOpKind::Insert { prio, payload },
            CtlReq::Dequeue => CtlOpKind::DeleteMin,
            other => return CtlResp::Error(format!("{other:?} is not a node request")),
        };
        self.entries.push(WalEntry::CtlOp { now: self.now, op });
        let id = match self.issue(op) {
            Ok(id) => id,
            Err(e) => return CtlResp::Error(e),
        };
        self.held = false;
        if let Some(to) = self.node.inner().wake_target() {
            self.out.entry(to.0).or_default().push(Frame::Wake);
        }
        CtlResp::Issued {
            node: id.node.0,
            seq: id.seq,
        }
    }

    /// The inputs accepted since the last call, in order: what must be on
    /// the log before anything they caused leaves the process.
    pub fn take_entries(&mut self) -> std::vec::Drain<'_, WalEntry> {
        self.entries.drain(..)
    }

    /// End of a turn: hand `send` the frames of every destination owed a
    /// payload — or, at a tick, owed anything — encoded now, in send order,
    /// except the node's own while they are held.
    pub fn flush(&mut self, tick: bool, mut send: impl FnMut(u64, Vec<Vec<u8>>)) {
        if tick && std::mem::take(&mut self.held) {
            self.late_holds += u64::from(self.owed);
        }
        let (me, held) = (self.me.0, self.held);
        for (&dst, frames) in &mut self.out {
            if dst == me && held {
                continue;
            }
            if (tick && !frames.is_empty()) || frames.iter().any(Frame::is_payload) {
                send(dst, frames.drain(..).map(|f| f.encode()).collect());
            }
        }
    }

    /// Re-apply logged inputs to this (fresh) core, through the handling the
    /// live calls use; what they send is dropped unencoded. Anything the
    /// original run sent either was acked (so the peer moved on), is still
    /// unacked after replay (so it retransmits), or was an ack a peer will
    /// re-earn by retransmitting its data frame.
    pub fn replay(&mut self, entries: impl IntoIterator<Item = WalEntry>) {
        for entry in entries {
            self.now = entry.now();
            match entry {
                WalEntry::Activate { .. } => drop(self.step(Reliable::on_activate)),
                WalEntry::Deliver { from, frame, .. } => {
                    if let Ok(msg) = from_bytes(&frame.0) {
                        drop(self.step(|node, ctx| node.on_message(NodeId(from), msg, ctx)));
                    }
                }
                WalEntry::CtlOp { op, .. } => {
                    let _ = self.issue(op);
                }
            }
        }
    }

    /// The node.
    pub fn node(&self) -> &Reliable<P> {
        &self.node
    }

    /// Ticks from each op's issue to its completion.
    pub fn op_latency(&self) -> &LogHistogram {
        &self.op_latency
    }

    /// Fold the node's counters into `hub`: the transport's, the decode
    /// errors, the holds and wakes, and op latency.
    pub fn export_telemetry(&self, hub: &mut Hub) {
        self.node.export_telemetry(hub);
        for (name, v) in [
            ("net.rx_decode_errors", self.rx_decode_errors),
            ("net.paced_holds", self.paced_holds),
            ("net.wakes", self.wakes),
            ("net.late_holds", self.late_holds),
        ] {
            let id = hub.register_counter(name);
            hub.counter_add(id, v);
        }
        let op = hub.register_histogram("net.op_latency_ticks");
        hub.hist_merge(op, &self.op_latency);
    }

    /// One step of the node at the current tick: close the latency clocks of
    /// the ops it completed and hand back what it sent.
    fn step(
        &mut self,
        f: impl FnOnce(&mut Reliable<P>, &mut Ctx<ReliableMsg<P::Msg>>),
    ) -> Ctx<ReliableMsg<P::Msg>> {
        let mut ctx = Ctx::new(self.me, self.now);
        f(&mut self.node, &mut ctx);
        for ev in ctx.drain_events() {
            if let CtxEvent::OpDone { op } = ev {
                if let Some(issued) = self.op_issued.remove(&op) {
                    self.op_latency.record(self.now.saturating_sub(issued));
                }
            }
        }
        ctx
    }

    fn issue(&mut self, op: CtlOpKind) -> Result<OpId, String> {
        let id = match op {
            CtlOpKind::Insert { prio, payload } => self.node.inner_mut().enqueue(prio, payload),
            CtlOpKind::DeleteMin => self.node.inner_mut().dequeue(),
        }?;
        self.op_issued.insert(id, self.now);
        Ok(id)
    }

    fn status(&mut self) -> StatusInfo {
        let inner = self.node.inner();
        let progress = inner.progress(self.op_prefix);
        self.op_prefix = progress.prefix;
        StatusInfo {
            node: self.me.0,
            proto: P::PROTO.name().to_string(),
            issued: inner.issued(),
            completed: progress.completed,
            all_complete: progress.all_complete,
            result: inner.result_key(),
            ticks: self.now,
            retransmits: self.node.stats.retransmits,
            dup_suppressed: self.node.stats.dup_suppressed,
            unacked: self.node.unacked() as u64,
        }
    }
}

/// Queue what a step sent as frames of the current turn; true if a payload
/// went to the node itself.
fn queue<M: Wire + BitSize>(
    out: &mut BTreeMap<u64, Vec<Frame<M>>>,
    mut sent: Ctx<ReliableMsg<M>>,
) -> bool {
    let (me, mut mine) = (sent.me(), false);
    for env in sent.drain_outbox() {
        let f = Frame::App(env.msg);
        mine |= env.dst == me && f.is_payload();
        out.entry(env.dst.0).or_default().push(f);
    }
    mine
}
