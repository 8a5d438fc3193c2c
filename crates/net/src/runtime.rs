//! The node runtime: the I/O shell around one [`NodeCore`].
//!
//! Everything that decides is the core's ([`crate::node`]); this module
//! owns what touches the outside: the peer links, the event queue, the
//! wall clock, the ctl thread, the write-ahead log file and the trace file.
//!
//! A single event loop owns the core. Peer reader threads and control
//! connections feed one queue — a reader pushes everything one `read`
//! carried as one event — and the loop takes *turns*: it hands the core
//! whatever is already queued, then writes what the node produced, one
//! `write` per peer, on this thread (see [`crate::peers`]). Every `tick_ms`,
//! on a fixed grid, the core ticks and every destination is flushed, held
//! acks included. A control request runs between node inputs, so the
//! control plane never observes a half-applied protocol step.
//!
//! With `--wal` the entries a core call accepted are appended before its
//! ctl reply is sent and before the turn's frames are written (see
//! [`crate::wal`]). On restart the core replays the log and the loop
//! resumes at the recorded tick.

use std::io;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::app::NetApp;
use crate::config::NodeConfig;
use crate::ctl::{serve_ctl, CtlReq, CtlResp};
use crate::node::NodeCore;
use crate::peers::PeerManager;
use crate::trace::render_trace;
use crate::transport::Listener;
use crate::wal::Wal;
use crate::wire::Wire;
use dpq_core::NodeId;
use dpq_gossip::{DetectorConfig, GossipConfig, GossipNode};
use dpq_sim::{Hub, Telemetry};
use dpq_telemetry::{prometheus_text, prometheus_wire_text};

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

/// The runtime driving one node. Generic over the protocol via [`NetApp`].
pub struct NodeRuntime<P: NetApp>
where
    P::Msg: Clone + Wire,
{
    cfg: NodeConfig,
    core: NodeCore<P>,
    wal: Option<Wal>,
    peers: PeerManager,
    events: mpsc::Receiver<Event>,
    /// Where self-addressed frames re-enter the event queue: no peer
    /// connection exists for `me`.
    loopback: mpsc::Sender<Event>,
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

        Ok(NodeRuntime {
            cfg,
            core,
            wal,
            peers,
            events: events_rx,
            loopback: events_tx,
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
                        self.core.deliver(from, frames);
                        self.log()?;
                    }
                    Event::Ctl(CtlReq::Shutdown, reply, written) => {
                        let _ = reply.send(CtlResp::Bye);
                        // Exiting closes the socket under the ctl thread;
                        // give it the moment it needs to write `Bye`.
                        let _ = written.recv_timeout(BYE_WAIT);
                        self.peers.shutdown();
                        return Ok(());
                    }
                    Event::Ctl(req, reply, _) => {
                        let resp = match req {
                            CtlReq::Dump => self.dump(),
                            CtlReq::Metrics => CtlResp::Metrics(self.metrics_text()),
                            req => self.core.ctl(req),
                        };
                        self.log()?;
                        let _ = reply.send(resp);
                    }
                }
                budget -= 1;
                next = (budget > 0).then(|| self.events.try_recv().ok()).flatten();
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
    /// self-addressed frames re-enter the event queue.
    fn flush(&mut self, tick: bool) {
        let (me, peers, loopback) = (self.cfg.me, &self.peers, &self.loopback);
        self.core.flush(tick, |dst, frames| {
            if dst == me {
                let _ = loopback.send(Event::Net(dst, frames));
            } else {
                peers.send_batch(dst, &frames);
            }
        });
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
