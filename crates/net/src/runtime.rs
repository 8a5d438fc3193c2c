//! The node runtime: the I/O shell around one [`NodeCore`].
//!
//! Everything that decides is the core's ([`crate::node`]); this module
//! owns what touches the outside: the sockets, the wall clock, the
//! write-ahead log file and the trace file.
//!
//! One thread does all of it. Each *turn* it waits in one `ppoll(2)` on the
//! peer and ctl listeners and every accepted connection, until a socket is
//! ready, the next tick is due or held frames are released; then it hands
//! the core the self-addressed frames of the previous turn, does one read
//! per ready socket — peer frames go to the core as they are decoded, ctl
//! requests are answered in arrival order — and ends the turn with one
//! write per destination ([`crate::peers`], decision 14's single flush).
//! Every `tick_ms`, on a fixed grid, the core ticks and every destination
//! is flushed, held acks included. A control request runs between node
//! inputs, so the control plane never observes a half-applied protocol
//! step. The only other thread is the peer dialer, which keeps blocking
//! connects off the loop.
//!
//! With `--wal` the entries a core call accepted are appended before its
//! ctl reply is queued and before the turn's frames are written (see
//! [`crate::wal`]). On restart the core replays the log and the loop
//! resumes at the recorded tick.
//!
//! An idle node is paced: while [`NetApp::idle`] holds after a turn, that
//! turn's self-addressed frames wait `PACE` before they are delivered, or
//! less if an `Enqueue` or `Dequeue` arrives. Delivery in the protocols'
//! asynchronous model may be delayed by any finite time, so this is a
//! schedule the simulator's oracles already cover.

use std::io;
use std::time::{Duration, Instant};

use crate::app::NetApp;
use crate::config::NodeConfig;
use crate::ctl::{self, CtlReq, CtlResp};
use crate::node::NodeCore;
use crate::peers::PeerManager;
use crate::poll::{PollSet, Server};
use crate::trace::render_trace;
use crate::wal::Wal;
use crate::wire::Wire;
use dpq_core::NodeId;
use dpq_gossip::{DetectorConfig, GossipConfig, GossipNode};
use dpq_sim::{Hub, Telemetry};
use dpq_telemetry::{prometheus_text, prometheus_wire_text};

/// How long an idle node holds its self-addressed frames: long enough that
/// an idle Seap anchor's empty phases stop spinning, short against the
/// default 2 ms tick.
const PACE: Duration = Duration::from_micros(200);

/// The runtime driving one node. Generic over the protocol via [`NetApp`].
pub struct NodeRuntime<P: NetApp>
where
    P::Msg: Clone + Wire,
{
    cfg: NodeConfig,
    core: NodeCore<P>,
    wal: Option<Wal>,
    peers: PeerManager,
    /// The peer listener and the connections it accepted.
    inbound: Server,
    /// The ctl listener and the clients' connections.
    ctl: Server,
    /// Self-addressed frames, delivered at the start of the next turn: no
    /// peer connection exists for `me`.
    loopback: Vec<Vec<u8>>,
    /// While `Some`, `loopback` is held until then (see [`PACE`]).
    release_at: Option<Instant>,
    /// Turns whose self-addressed frames were held.
    paced_holds: u64,
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
        let node = P::build(&cfg).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
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
            GossipNode::new(NodeId(cfg.me), &view, gcfg)
        });
        let mut core = NodeCore::new(cfg.me, node, cfg.rto_ticks, gossip);
        let wal = match &cfg.wal {
            None => None,
            Some(path) => {
                let (wal, entries) = Wal::open(path)?;
                core.replay(entries);
                Some(wal)
            }
        };

        let fingerprint = cfg.fingerprint();
        let (peers, inbound) =
            PeerManager::listen(cfg.me, P::PROTO, fingerprint, &cfg.listen, &cfg.peers)?;
        let ctl = ctl::listen(&cfg.ctl, fingerprint)?;

        Ok(NodeRuntime {
            cfg,
            core,
            wal,
            peers,
            inbound,
            ctl,
            loopback: Vec::new(),
            release_at: None,
            paced_holds: 0,
            detector_retires: 0,
            detector_revives: 0,
        })
    }

    /// Run until a `Shutdown` request arrives.
    pub fn run(mut self) -> io::Result<()> {
        let tick = Duration::from_millis(self.cfg.tick_ms.max(1));
        let mut next_tick = Instant::now() + tick;
        let mut set = PollSet::default();
        loop {
            let now = Instant::now();
            if now >= next_tick {
                self.core.tick();
                self.log()?;
                self.apply_detector();
                self.flush(true);
                // Ticks are due on a fixed grid, so the work of a tick does
                // not stretch the period; a loop that fell more than a
                // period behind re-anchors instead of firing a burst.
                next_tick += tick;
                if next_tick + tick < now {
                    next_tick = now + tick;
                }
            }
            let wake = match self.release_at {
                _ if self.loopback.is_empty() => next_tick,
                Some(at) => at.min(next_tick),
                None => now,
            };
            set.clear();
            self.inbound.register(&mut set);
            self.ctl.register(&mut set);
            set.wait(wake.saturating_duration_since(Instant::now()))?;

            let now = Instant::now();
            if self.release_at.is_none_or(|at| now >= at) {
                self.release_at = None;
                let frames = std::mem::take(&mut self.loopback);
                if !frames.is_empty() {
                    self.core.deliver(self.cfg.me, frames);
                }
            }
            let core = &mut self.core;
            let deliver = |from, frames| core.deliver(from, frames);
            self.peers.read(&mut self.inbound, &set, now, deliver);
            self.log()?;
            self.ctl.poll(&set, now);
            while let Some((conn, req)) = ctl::next_request(&mut self.ctl) {
                let resp = match req {
                    CtlReq::Shutdown => {
                        ctl::reply(&mut self.ctl, conn, &CtlResp::Bye);
                        self.peers.shutdown();
                        return Ok(());
                    }
                    CtlReq::Dump => self.dump(),
                    CtlReq::Metrics => CtlResp::Metrics(self.metrics_text()),
                    req => self.core.ctl(req),
                };
                if matches!(resp, CtlResp::Issued { .. }) {
                    // Work arrived: whatever was paced leaves this turn.
                    self.release_at = None;
                }
                self.log()?;
                ctl::reply(&mut self.ctl, conn, &resp);
            }
            self.flush(false);
        }
    }

    /// Append the entries the core accepted since the last call.
    fn log(&mut self) -> io::Result<()> {
        for entry in self.core.take_entries() {
            if let Some(wal) = &mut self.wal {
                wal.append(&entry)?;
            }
        }
        Ok(())
    }

    /// Retire the peers the detector considers dead at the peer manager,
    /// and revive the ones it no longer does.
    fn apply_detector(&mut self) {
        if !self.cfg.gossip {
            return;
        }
        for &peer in self.cfg.peers.keys() {
            match (self.core.considers_dead(peer), self.peers.is_retired(peer)) {
                (true, false) => {
                    self.peers.retire(peer);
                    self.detector_retires += 1;
                }
                (false, true) => {
                    self.peers.revive(peer);
                    self.detector_revives += 1;
                }
                _ => {}
            }
        }
    }

    /// End of a turn: one write per destination the core releases;
    /// self-addressed frames wait for the next turn, or for [`PACE`] if the
    /// node is idle.
    fn flush(&mut self, tick: bool) {
        let (me, peers, loopback) = (self.cfg.me, &self.peers, &mut self.loopback);
        self.core.flush(tick, |dst, frames| {
            if dst == me {
                loopback.extend(frames);
            } else {
                peers.send_batch(dst, &frames);
            }
        });
        if self.release_at.is_none() && !self.loopback.is_empty() && self.core.node().inner().idle()
        {
            self.release_at = Some(Instant::now() + PACE);
            self.paced_holds += 1;
        }
    }

    fn dump(&self) -> CtlResp {
        let Some(path) = &self.cfg.trace else {
            return CtlResp::Error("no --trace path configured".into());
        };
        let inner = self.core.node().inner();
        let records = inner.records();
        match std::fs::write(path, render_trace(&records, &inner.residual())) {
            Ok(()) => CtlResp::Dumped {
                records: records.len() as u64,
            },
            Err(e) => CtlResp::Error(format!("writing trace: {e}")),
        }
    }

    fn metrics_text(&self) -> String {
        let mut hub = Hub::new();
        self.core.export_telemetry(&mut hub);
        let paced = hub.register_counter("net.paced_holds");
        hub.counter_add(paced, self.paced_holds);
        if self.cfg.gossip {
            let r = hub.register_counter("net.detector_retires");
            hub.counter_add(r, self.detector_retires);
            let v = hub.register_counter("net.detector_revives");
            hub.counter_add(v, self.detector_revives);
        }
        let wire = self.peers.wire_metrics();
        wire.fold_into(&mut hub);
        let mut text = prometheus_text(&hub);
        text.push_str(&prometheus_wire_text(&wire));
        text
    }
}
