//! The node runtime: drives one `Reliable<P>` over real sockets.
//!
//! A single event loop owns the node. Peer reader threads and control
//! connections feed one queue — a reader pushes everything one `read`
//! carried as one event — and the loop takes *turns*: it handles whatever
//! is already queued, then writes what the node produced, one `write` per
//! peer, on this thread (see [`crate::peers`]). Three kinds of input:
//!
//! * **tick** — every `tick_ms` the logical clock advances and the node is
//!   activated, exactly the simulator's periodic-activation model. The
//!   `Reliable` layer's retransmission timeout is measured in these ticks.
//! * **delivery** — an inbound frame is decoded and delivered via
//!   `on_message`. Undecodable frames are counted and dropped — to the
//!   protocol that is just message loss, which the transport absorbs.
//! * **control** — a `dpq-ctl` request (status / enqueue / dequeue / dump /
//!   metrics / shutdown) runs between node turns, so the control plane can
//!   never observe a half-applied protocol step.
//!
//! Acks ride along: a destination owed nothing but `ReliableMsg::Ack`
//! frames is written at the next payload for it or at the next tick,
//! whichever is first, so an ack waits less than one tick — far inside the
//! retransmission timeout — and rarely costs a `write` of its own.
//!
//! With `--wal` every input is appended to the write-ahead log *before* the
//! node processes it, and outbound frames are flushed only *after* the
//! append — the end of the turn is after every append of the turn (see
//! [`crate::wal`] for the recovery argument). On restart the log replays
//! through a fresh node with outputs suppressed, then the loop resumes at
//! the recorded tick.

use std::collections::BTreeMap;
use std::io;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::app::NetApp;
use crate::config::NodeConfig;
use crate::ctl::{serve_ctl, CtlReq, CtlResp, StatusInfo};
use crate::peers::PeerManager;
use crate::trace::render_trace;
use crate::transport::Listener;
use crate::wal::{CtlOpKind, Wal, WalEntry};
use crate::wire::{from_bytes, to_bytes, RawBytes, Wire};
use dpq_core::{NodeId, OpId};
use dpq_gossip::{DetectorConfig, GossipConfig, GossipMsg, GossipNode};
use dpq_sim::{Ctx, CtxEvent, Hub, LogHistogram, Protocol, Reliable, ReliableMsg};
use dpq_telemetry::{prometheus_text, prometheus_wire_text};

/// Frame lane tags, used only when the gossip sidecar is on: byte 0 of every
/// peer frame says which state machine it belongs to. With gossip off the
/// wire format is byte-identical to a sidecar-less build (and the cluster
/// fingerprint differs, so mixed clusters refuse each other's hellos).
const LANE_APP: u8 = 0;
/// Membership lane (see [`LANE_APP`]).
const LANE_GOSSIP: u8 = 1;

/// Most queued events one turn handles before it writes and looks at the
/// clock again, so a flood of input can neither starve the tick nor hold
/// back replies.
const TURN_EVENTS: usize = 256;

/// How long a `Shutdown` waits for the ctl thread to put `Bye` on the wire.
const BYE_WAIT: Duration = Duration::from_millis(100);

/// One unit of work for the runtime's event loop.
pub enum Event {
    /// Inbound peer frames, everything one `read` carried:
    /// `(sender, payloads)`.
    Net(u64, Vec<Vec<u8>>),
    /// A control request, where to send its response, and a channel the
    /// ctl thread closes once that response is on the socket.
    Ctl(CtlReq, mpsc::Sender<CtlResp>, mpsc::Receiver<()>),
}

/// Frames one destination is owed at the end of the turn.
#[derive(Default)]
struct Outbound {
    frames: Vec<Vec<u8>>,
    /// Something other than a bare ack is among them.
    payload: bool,
}

/// Transmission ticks of the data frames still awaiting an ack, and the
/// per-peer ack round-trip histograms they feed.
#[derive(Default)]
struct AckRtt {
    /// `dst → seq → tick of last transmission`.
    pending: BTreeMap<u64, BTreeMap<u64, u64>>,
    /// Ack RTT per peer, in ticks.
    hist: BTreeMap<u64, LogHistogram>,
}

impl AckRtt {
    fn sent(&mut self, dst: u64, seq: u64, now: u64) {
        self.pending.entry(dst).or_default().insert(seq, now);
    }

    /// `from` acknowledged `seq` and everything below `cum`. Payloads freed
    /// only by the cumulative part (their own ack was lost) are forgotten
    /// without a sample — which transmission the peer saw is unknowable.
    fn acked(&mut self, from: u64, seq: u64, cum: u64, now: u64) {
        let Some(pending) = self.pending.get_mut(&from) else {
            return;
        };
        if let Some(sent) = pending.remove(&seq) {
            let rtt = now.saturating_sub(sent);
            self.hist.entry(from).or_default().record(rtt);
        }
        while let Some(oldest) = pending.first_entry().filter(|e| *e.key() < cum) {
            oldest.remove();
        }
    }
}

/// The runtime driving one node. Generic over the protocol via [`NetApp`].
pub struct NodeRuntime<P: NetApp>
where
    P::Msg: Clone + Wire,
{
    cfg: NodeConfig,
    node: Reliable<P>,
    /// Logical clock: advances once per activation tick (not per delivery),
    /// so the retransmission timeout keeps its "activations since last
    /// send" meaning from the simulator.
    now: u64,
    wal: Option<Wal>,
    peers: PeerManager,
    events: mpsc::Receiver<Event>,
    /// Self-addressed frames re-enter the event queue here: the protocols
    /// freely send to their own node (the simulator delivers those like any
    /// other message), but no peer connection exists for `me`.
    loopback: mpsc::Sender<Event>,
    /// What the current turn owes each destination (`me` included).
    out: BTreeMap<u64, Outbound>,
    ack_rtt: AckRtt,
    /// Every request before this index is complete: where `Status` resumes
    /// its count.
    op_prefix: usize,
    /// `op → issue tick`, for the op-latency histogram.
    op_issued: BTreeMap<OpId, u64>,
    op_latency: LogHistogram,
    rx_decode_errors: u64,
    /// The membership sidecar (`--gossip`). Never WAL-logged: membership is
    /// soft state a restarted node re-learns by gossiping, and replaying
    /// stale heartbeats would only poison the detector.
    gossip: Option<Box<GossipNode>>,
    /// Peers the detector made us retire / later revive at the peer manager.
    detector_retires: u64,
    /// See [`Self::detector_retires`].
    detector_revives: u64,
}

impl<P: NetApp> NodeRuntime<P>
where
    P::Msg: Clone + Wire,
{
    /// Build the node (replaying the WAL if one is configured), bind both
    /// listeners, and connect to the peers.
    pub fn start(cfg: NodeConfig) -> io::Result<Self> {
        let inner = P::build(&cfg).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let mut node = Reliable::new(inner, cfg.rto_ticks);
        node.enable_rtt_histogram();

        let me = NodeId(cfg.me);
        let mut now = 0u64;
        let wal = match &cfg.wal {
            None => None,
            Some(path) => {
                let (wal, entries) = Wal::open(path)?;
                if let Some(last) = entries.last() {
                    now = last.now() + 1;
                }
                for entry in &entries {
                    replay_entry(&mut node, me, entry);
                }
                Some(wal)
            }
        };

        let (events_tx, events_rx) = mpsc::channel::<Event>();
        let fingerprint = cfg.fingerprint();
        let peers = {
            let events_tx = events_tx.clone();
            PeerManager::start_batched(
                cfg.me,
                P::PROTO,
                fingerprint,
                &cfg.listen,
                &cfg.peers,
                move |from, frames| events_tx.send(Event::Net(from, frames)).is_ok(),
            )?
        };

        let ctl_listener = Listener::bind(&cfg.ctl)?;
        {
            let events_tx = events_tx.clone();
            std::thread::Builder::new()
                .name("dpq-ctl".into())
                .spawn(move || serve_ctl(ctl_listener, fingerprint, events_tx))?;
        }

        let gossip = cfg.gossip.then(|| {
            let view: Vec<NodeId> = cfg.peers.keys().map(|&p| NodeId(p)).collect();
            let gcfg = GossipConfig {
                detector: DetectorConfig {
                    threshold: cfg.phi,
                    ..DetectorConfig::default()
                },
                evict_ticks: cfg.evict_ticks,
                seed: cfg.seed ^ 0x60551,
                ..GossipConfig::default()
            };
            Box::new(GossipNode::new(me, &view, gcfg))
        });

        Ok(NodeRuntime {
            cfg,
            node,
            now,
            wal,
            peers,
            events: events_rx,
            loopback: events_tx,
            out: BTreeMap::new(),
            ack_rtt: AckRtt::default(),
            op_prefix: 0,
            op_issued: BTreeMap::new(),
            op_latency: LogHistogram::new(),
            rx_decode_errors: 0,
            gossip,
            detector_retires: 0,
            detector_revives: 0,
        })
    }

    /// Run until a `Shutdown` request arrives.
    pub fn run(mut self) -> io::Result<()> {
        let tick = Duration::from_millis(self.cfg.tick_ms.max(1));
        let mut next_tick = Instant::now() + tick;
        loop {
            let now = Instant::now();
            if now >= next_tick {
                self.on_tick()?;
                self.flush_out(true);
                // Ticks are due on a fixed grid, so the work of a tick does
                // not stretch the period; a loop that fell more than a
                // period behind re-anchors instead of firing a burst.
                next_tick += tick;
                if next_tick + tick < now {
                    next_tick = now + tick;
                }
            }
            let wait = next_tick.saturating_duration_since(Instant::now());
            let mut next = match self.events.recv_timeout(wait) {
                Ok(event) => Some(event),
                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                Err(mpsc::RecvTimeoutError::Disconnected) => return Ok(()),
            };
            let mut budget = TURN_EVENTS;
            while let Some(event) = next {
                match event {
                    Event::Net(from, frames) => {
                        for bytes in frames {
                            self.on_net(from, bytes)?;
                        }
                    }
                    Event::Ctl(req, reply, written) => {
                        if self.on_ctl(req, &reply)? {
                            // Exiting closes the socket under the ctl thread;
                            // give it the moment it needs to write `Bye`.
                            let _ = written.recv_timeout(BYE_WAIT);
                            self.peers.shutdown();
                            return Ok(());
                        }
                    }
                }
                budget -= 1;
                next = (budget > 0).then(|| self.events.try_recv().ok()).flatten();
            }
            self.flush_out(false);
        }
    }

    fn log(&mut self, entry: &WalEntry) -> io::Result<()> {
        match &mut self.wal {
            Some(wal) => wal.append(entry),
            None => Ok(()),
        }
    }

    fn on_tick(&mut self) -> io::Result<()> {
        self.now += 1;
        self.log(&WalEntry::Activate { now: self.now })?;
        let mut ctx = Ctx::new(NodeId(self.cfg.me), self.now);
        self.node.on_activate(&mut ctx);
        self.absorb(ctx);
        self.gossip_tick();
        Ok(())
    }

    /// One sidecar activation: heartbeat, detector lifecycle, Syn fanout —
    /// then reconcile the detector's verdicts with the peer manager.
    fn gossip_tick(&mut self) {
        let Some(g) = self.gossip.as_mut() else {
            return;
        };
        let mut ctx = Ctx::new(NodeId(self.cfg.me), self.now);
        g.on_activate(&mut ctx);
        queue_gossip(&mut self.out, ctx);
        for &peer in self.cfg.peers.keys() {
            let dead = g.considers_dead(NodeId(peer));
            if dead != self.peers.is_retired(peer) {
                if dead {
                    self.peers.retire(peer);
                    self.detector_retires += 1;
                } else {
                    self.peers.revive(peer);
                    self.detector_revives += 1;
                }
            }
        }
    }

    /// A membership-lane frame: decode, deliver to the sidecar, flush its
    /// replies. Never WAL-logged (soft state).
    fn on_gossip_frame(&mut self, from: u64, payload: &[u8]) {
        let Some(g) = self.gossip.as_mut() else {
            return;
        };
        let msg: GossipMsg = match from_bytes(payload) {
            Ok(m) => m,
            Err(_) => {
                self.rx_decode_errors += 1;
                return;
            }
        };
        let mut ctx = Ctx::new(NodeId(self.cfg.me), self.now);
        g.on_message(NodeId(from), msg, &mut ctx);
        queue_gossip(&mut self.out, ctx);
    }

    fn on_net(&mut self, from: u64, mut bytes: Vec<u8>) -> io::Result<()> {
        if self.gossip.is_some() {
            // Sidecar lanes: strip the tag so the WAL keeps storing plain
            // app frames and replay stays format-compatible.
            match bytes.first() {
                Some(&LANE_APP) => {
                    bytes.remove(0);
                }
                Some(&LANE_GOSSIP) => {
                    self.on_gossip_frame(from, &bytes[1..]);
                    return Ok(());
                }
                _ => {
                    self.rx_decode_errors += 1;
                    return Ok(());
                }
            }
        }
        let msg: ReliableMsg<P::Msg> = match from_bytes(&bytes) {
            Ok(m) => m,
            Err(_) => {
                self.rx_decode_errors += 1;
                return Ok(());
            }
        };
        self.log(&WalEntry::Deliver {
            now: self.now,
            from,
            frame: RawBytes(bytes),
        })?;
        if let ReliableMsg::Ack { seq, cum } = msg {
            self.ack_rtt.acked(from, seq, cum, self.now);
        }
        let mut ctx = Ctx::new(NodeId(self.cfg.me), self.now);
        self.node.on_message(NodeId(from), msg, &mut ctx);
        self.absorb(ctx);
        Ok(())
    }

    /// Encode the node's buffered sends into this turn's outbound batches
    /// and absorb its telemetry notes. Called only after the triggering
    /// input was logged; the batches are written when the turn ends.
    fn absorb(&mut self, mut ctx: Ctx<ReliableMsg<P::Msg>>) {
        for env in ctx.take_outbox() {
            let dst = env.dst.0;
            if let ReliableMsg::Data { seq, .. } = &env.msg {
                self.ack_rtt.sent(dst, *seq, self.now);
            }
            let bytes = if self.gossip.is_some() {
                let mut b = vec![LANE_APP];
                env.msg.encode(&mut b);
                b
            } else {
                to_bytes(&env.msg)
            };
            let out = self.out.entry(dst).or_default();
            out.frames.push(bytes);
            out.payload |= !matches!(env.msg, ReliableMsg::Ack { .. });
        }
        for ev in ctx.drain_events() {
            if let CtxEvent::OpDone { op } = ev {
                if let Some(issued) = self.op_issued.remove(&op) {
                    self.op_latency.record(self.now.saturating_sub(issued));
                }
            }
        }
    }

    /// End of a turn: one write per destination that is owed a payload —
    /// or, at a tick, owed anything — carrying every frame queued for it.
    /// Self-addressed frames re-enter the event queue the same way.
    fn flush_out(&mut self, tick: bool) {
        for (&dst, out) in &mut self.out {
            if out.frames.is_empty() || !(out.payload || tick) {
                continue;
            }
            if dst == self.cfg.me {
                let frames = std::mem::take(&mut out.frames);
                let _ = self.loopback.send(Event::Net(dst, frames));
            } else {
                self.peers.send_batch(dst, &out.frames);
                out.frames.clear();
            }
            out.payload = false;
        }
    }

    fn status(&mut self) -> StatusInfo {
        let inner = self.node.inner();
        let progress = inner.progress(self.op_prefix);
        self.op_prefix = progress.prefix;
        StatusInfo {
            node: self.cfg.me,
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

    fn metrics_text(&self) -> String {
        let mut hub = Hub::new();
        self.node.export_telemetry(&mut hub);
        {
            use dpq_sim::Telemetry;
            let id = hub.register_counter("net.rx_decode_errors");
            hub.counter_add(id, self.rx_decode_errors);
            let op = hub.register_histogram("net.op_latency_ticks");
            hub.hist_merge(op, &self.op_latency);
            if let Some(g) = &self.gossip {
                g.export_telemetry(&mut hub);
                let r = hub.register_counter("net.detector_retires");
                hub.counter_add(r, self.detector_retires);
                let v = hub.register_counter("net.detector_revives");
                hub.counter_add(v, self.detector_revives);
            }
        }
        let mut wire = self.peers.wire_metrics();
        for (&peer, hist) in &self.ack_rtt.hist {
            wire.peer_mut(peer).ack_rtt.merge(hist);
        }
        wire.fold_into(&mut hub);
        let mut text = prometheus_text(&hub);
        text.push_str(&prometheus_wire_text(&wire));
        text
    }

    /// Handle one control request; `true` means shut down.
    fn on_ctl(&mut self, req: CtlReq, reply: &mpsc::Sender<CtlResp>) -> io::Result<bool> {
        let resp = match req {
            CtlReq::Status => CtlResp::Status(self.status()),
            CtlReq::Enqueue { prio, payload } => {
                self.log(&WalEntry::CtlOp {
                    now: self.now,
                    op: CtlOpKind::Insert { prio, payload },
                })?;
                match self.node.inner_mut().enqueue(prio, payload) {
                    Ok(id) => {
                        self.op_issued.insert(id, self.now);
                        CtlResp::Issued {
                            node: id.node.0,
                            seq: id.seq,
                        }
                    }
                    Err(e) => CtlResp::Error(e),
                }
            }
            CtlReq::Dequeue => {
                self.log(&WalEntry::CtlOp {
                    now: self.now,
                    op: CtlOpKind::DeleteMin,
                })?;
                match self.node.inner_mut().dequeue() {
                    Ok(id) => {
                        self.op_issued.insert(id, self.now);
                        CtlResp::Issued {
                            node: id.node.0,
                            seq: id.seq,
                        }
                    }
                    Err(e) => CtlResp::Error(e),
                }
            }
            CtlReq::Dump => match &self.cfg.trace {
                None => CtlResp::Error("no --trace path configured".into()),
                Some(path) => {
                    let inner = self.node.inner();
                    let records = inner.records();
                    let residual = inner.residual();
                    match std::fs::write(path, render_trace(&records, &residual)) {
                        Ok(()) => CtlResp::Dumped {
                            records: records.len() as u64,
                        },
                        Err(e) => CtlResp::Error(format!("writing trace: {e}")),
                    }
                }
            },
            CtlReq::Metrics => CtlResp::Metrics(self.metrics_text()),
            CtlReq::Shutdown => {
                let _ = reply.send(CtlResp::Bye);
                return Ok(true);
            }
        };
        let _ = reply.send(resp);
        Ok(false)
    }
}

/// Queue the membership sidecar's sends, lane-tagged, as payloads of the
/// current turn.
fn queue_gossip(out: &mut BTreeMap<u64, Outbound>, mut ctx: Ctx<GossipMsg>) {
    for env in ctx.take_outbox() {
        let mut bytes = vec![LANE_GOSSIP];
        env.msg.encode(&mut bytes);
        let out = out.entry(env.dst.0).or_default();
        out.frames.push(bytes);
        out.payload = true;
    }
}

/// Re-apply one logged input to a fresh node, outputs suppressed. Anything
/// the original run sent either was acked (so the peer moved on), is still
/// in `tx.unacked` after replay (so it retransmits), or was an ack a peer
/// will re-earn by retransmitting its data frame.
fn replay_entry<P: NetApp>(node: &mut Reliable<P>, me: NodeId, entry: &WalEntry)
where
    P::Msg: Clone + Wire,
{
    match entry {
        WalEntry::Activate { now } => {
            let mut ctx = Ctx::new(me, *now);
            node.on_activate(&mut ctx);
        }
        WalEntry::Deliver { now, from, frame } => {
            if let Ok(msg) = from_bytes::<ReliableMsg<P::Msg>>(&frame.0) {
                let mut ctx = Ctx::new(me, *now);
                node.on_message(NodeId(*from), msg, &mut ctx);
            }
        }
        WalEntry::CtlOp { now: _, op } => {
            let _ = match op {
                CtlOpKind::Insert { prio, payload } => node.inner_mut().enqueue(*prio, *payload),
                CtlOpKind::DeleteMin => node.inner_mut().dequeue(),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inner protocol: node 0 sends one number per activation, nobody
    /// replies.
    struct Counter(u64);

    impl Protocol for Counter {
        type Msg = u64;
        fn on_activate(&mut self, ctx: &mut Ctx<u64>) {
            if ctx.me() == NodeId(0) && self.0 < 40 {
                ctx.send(NodeId(1), self.0);
                self.0 += 1;
            }
        }
        fn on_message(&mut self, _: NodeId, _: u64, _: &mut Ctx<u64>) {}
    }

    /// Two `Reliable` nodes over a link that loses three acks in four,
    /// tracked the way `absorb`/`on_net` track a live link. Most payloads
    /// are freed by a later ack's cumulative part and never retransmitted,
    /// so their own ack never comes: the table must forget them anyway.
    #[test]
    fn ack_rtt_table_drains_when_acks_are_lost() {
        let mut a = Reliable::new(Counter(0), 4);
        let mut b = Reliable::new(Counter(0), 4);
        let mut rtt = AckRtt::default();
        let (mut acks, mut peak) = (0, 0);
        for now in 1..200 {
            let mut ctx = Ctx::new(NodeId(0), now);
            a.on_activate(&mut ctx);
            for env in ctx.take_outbox() {
                let ReliableMsg::Data { seq, .. } = &env.msg else {
                    panic!("node 0 receives no data, so it sends no acks");
                };
                rtt.sent(1, *seq, now);
                let mut ctx = Ctx::new(NodeId(1), now);
                b.on_message(NodeId(0), env.msg, &mut ctx);
                for ack in ctx.take_outbox() {
                    acks += 1;
                    if acks % 4 != 0 {
                        continue;
                    }
                    let ReliableMsg::Ack { seq, cum } = ack.msg else {
                        panic!("node 1 only acks");
                    };
                    rtt.acked(1, seq, cum, now);
                    a.on_message(NodeId(1), ack.msg, &mut Ctx::new(NodeId(0), now));
                }
            }
            peak = peak.max(rtt.pending[&1].len());
            assert!(rtt.pending[&1].len() <= a.unacked());
        }
        assert!(peak > 1, "no ack was ever outstanding");
        assert_eq!(a.unacked(), 0, "the exchange did not finish");
        assert!(rtt.pending[&1].is_empty(), "leaked {:?}", rtt.pending);
        assert!(rtt.hist[&1].count() > 0 && rtt.hist[&1].count() < 40);
    }
}
