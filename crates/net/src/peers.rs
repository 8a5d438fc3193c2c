//! Peer connection manager: the caller of [`PeerManager::send_batch`] writes
//! the peer's socket itself, one dialer thread brings links up, and the
//! inbound connections are polled by the runtime's loop (or, for
//! [`PeerManager::start`], by one helper thread running the same poller) —
//! no thread per connection.
//!
//! Connections are *unidirectional*: node `i` dials node `j` for its `i → j`
//! traffic, so each ordered pair owns exactly one stream and there is no
//! simultaneous-open tie to break. The outbound half of a link is a
//! non-blocking connection plus a bounded byte buffer behind one mutex. A
//! send appends whole frames to the buffer and writes as much as the socket
//! takes, so a frame costs no thread hand-off on its way out; what the
//! socket refuses (a short write) or what was sent while the link was still
//! connecting stays buffered, on frame boundaries, and goes out with the
//! next send or when the dialer brings the link up. Frames that do not fit
//! the buffer or that wait on a connect that fails are *dropped* whole and
//! counted in
//! [`PeerWire::send_drops`](dpq_telemetry::PeerWire) — the `Reliable` layer
//! above retransmits, which is exactly the fault model it was built for.
//! Nothing here blocks the sending thread, and nothing gives up on a peer:
//! the dialer retries a dead one for as long as the node runs, its delays
//! growing to [`Backoff`]'s 500 ms cap.
//!
//! An inbound connection is non-blocking from its `accept` on and owns one
//! [`FrameDecoder`](crate::frame::FrameDecoder) for its lifetime: its first
//! frame must be a valid hello within five seconds, after which every
//! `read` yields the complete frames it carried, so a peer that stalls
//! mid-frame holds only its own partial frame.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Write as _};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use crate::backoff::Backoff;
use crate::frame::{append_frame, complete_frames, write_hello, Hello, ProtoId, WIRE_VERSION};
use crate::poll::{PollSet, Server};
use crate::transport::{Addr, Conn};
use dpq_telemetry::WireMetrics;

/// Per-peer bound on bytes accepted but not yet written: frames sent while
/// the link connects, or behind a reader that has stopped reading. Sized
/// for the burst a whole batch cycle can emit; overflow drops (and counts)
/// rather than blocking the runtime.
const SEND_BUFFER: usize = 256 * 1024;

/// Longest the dialer waits on one TCP address before trying the others.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);
/// How long an accepted connection may take to say hello.
const HELLO_WAIT: Duration = Duration::from_secs(5);
/// Longest wait of [`PeerManager::start`]'s poller before it looks at the
/// shutdown flag again.
const SHUTDOWN_POLL: Duration = Duration::from_millis(200);

/// One configured peer: counters for both directions and the outbound
/// half of the link.
#[derive(Default)]
struct Link {
    tx_frames: AtomicU64,
    tx_bytes: AtomicU64,
    rx_frames: AtomicU64,
    rx_bytes: AtomicU64,
    reconnects: AtomicU64,
    send_drops: AtomicU64,
    out: Mutex<Outbox>,
}

impl Link {
    fn out(&self) -> MutexGuard<'_, Outbox> {
        self.out
            .lock()
            .expect("a sender or the dialer panicked holding the link")
    }
}

#[derive(Default)]
struct Outbox {
    /// `Some` while the link is up; the dialer fills it, a failed write
    /// empties it.
    conn: Option<Conn>,
    /// Whole frames, length prefixes included, not yet fully written.
    buf: Vec<u8>,
    /// Bytes of `buf` the connection has taken; always inside its first
    /// frame, so a link that breaks mid-frame resends that frame whole.
    written: usize,
}

impl Outbox {
    /// Write as much of `buf` as the connection takes without blocking and
    /// count the frames that went out whole. Returns `true` if the link
    /// broke: it is then down and `buf` is back on a frame boundary.
    fn flush(&mut self, c: &Link) -> bool {
        let Some(conn) = self.conn.as_mut() else {
            return false;
        };
        let mut broke = false;
        while !broke && self.written < self.buf.len() {
            match conn.write(&self.buf[self.written..]) {
                Ok(0) => broke = true,
                Ok(n) => self.written += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => broke = true,
            }
        }
        let (sent, frames, payload) = frames_within(&self.buf, self.written);
        c.tx_frames.fetch_add(frames, Ordering::Relaxed);
        c.tx_bytes.fetch_add(payload, Ordering::Relaxed);
        self.buf.drain(..sent);
        self.written -= sent;
        if broke {
            self.conn = None;
            self.written = 0;
        }
        broke
    }

    /// Drop (and count) everything buffered for a peer that cannot take
    /// frames. Only for a link that is down, where `buf` holds whole frames.
    fn drop_buffered(&mut self, c: &Link) {
        let (_, frames, _) = frames_within(&self.buf, self.buf.len());
        c.send_drops.fetch_add(frames, Ordering::Relaxed);
        self.buf.clear();
    }
}

/// The whole frames inside `buf[..limit]`, `buf` starting on a frame
/// boundary: `(bytes they span, how many, their payload bytes)`.
fn frames_within(buf: &[u8], limit: usize) -> (usize, u64, u64) {
    let (mut at, mut frames, mut payload) = (0, 0, 0);
    for (p, end) in complete_frames(&buf[..limit]) {
        at = end;
        frames += 1;
        payload += p.len() as u64;
    }
    (at, frames, payload)
}

struct Shared {
    shutdown: AtomicBool,
    /// Fixed key set: one entry per configured peer.
    links: BTreeMap<u64, Link>,
}

/// One node's links: frames are written on the caller's thread, one dialer
/// thread brings links up, and inbound frames are read by whoever polls
/// the listener.
pub struct PeerManager {
    shared: Arc<Shared>,
    /// Parked while every link is up; unparked to redial.
    dialer: Thread,
}

impl PeerManager {
    /// Bind `listen` and start dialing every entry of `peers`; a helper
    /// thread polls the inbound connections and passes on one
    /// `(sender, payload)` message per frame, in stream order, until the
    /// receiver is dropped. The runtime instead polls them in its own loop.
    pub fn start(
        me: u64,
        proto: ProtoId,
        cluster: u64,
        listen: &Addr,
        peers: &BTreeMap<u64, Addr>,
        inbox: mpsc::Sender<(u64, Vec<u8>)>,
    ) -> std::io::Result<PeerManager> {
        let (manager, mut inbound) = Self::listen(me, proto, cluster, listen, peers)?;
        let rx = PeerManager {
            shared: Arc::clone(&manager.shared),
            dialer: manager.dialer.clone(),
        };
        let (mut set, mut consumer) = (PollSet::default(), true);
        thread::Builder::new()
            .name("dpq-rx".into())
            .spawn(move || {
                while consumer && !rx.shared.shutdown.load(Ordering::SeqCst) {
                    set.clear();
                    inbound.register(&mut set);
                    if set.wait(SHUTDOWN_POLL).is_err() {
                        return;
                    }
                    rx.read(&mut inbound, &set, Instant::now(), |from, frames| {
                        for frame in frames {
                            consumer &= inbox.send((from, frame)).is_ok();
                        }
                    });
                }
            })?;
        Ok(manager)
    }

    /// Bind `listen` and start dialing every entry of `peers`; the caller
    /// polls the inbound connections and reads them with
    /// [`PeerManager::read`].
    pub(crate) fn listen(
        me: u64,
        proto: ProtoId,
        cluster: u64,
        listen: &Addr,
        peers: &BTreeMap<u64, Addr>,
    ) -> std::io::Result<(PeerManager, Server)> {
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            links: peers.keys().map(|&p| (p, Link::default())).collect(),
        });
        let inbound = Server::bind(listen, proto, cluster, HELLO_WAIT)?;

        let hello = Hello {
            version: WIRE_VERSION,
            proto,
            cluster,
            sender: me,
        };
        // Seeded by the ordered pair so every dialer draws its own schedule —
        // peers that observed the same crash do not stampede the restart.
        let dials = peers
            .iter()
            .map(|(&peer, addr)| Dial {
                peer,
                addr: addr.clone(),
                backoff: Backoff::new(me.wrapping_mul(0x9E37_79B9).wrapping_add(peer)),
                not_before: Instant::now(),
                connected_before: false,
            })
            .collect();
        let dialer = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("dpq-dial".into())
                .spawn(move || dial_loop(dials, hello, shared))?
                .thread()
                .clone()
        };

        Ok((PeerManager { shared, dialer }, inbound))
    }

    /// Poll `inbound` (see [`Server::poll`]) and hand `deliver` every frame
    /// it read, with its sender, in stream order.
    pub(crate) fn read(
        &self,
        inbound: &mut Server,
        set: &PollSet,
        now: Instant,
        mut deliver: impl FnMut(u64, Vec<Vec<u8>>),
    ) {
        inbound.poll(set, now);
        for c in &mut inbound.conns {
            let (Some(from), false) = (c.from, c.inbox.is_empty()) else {
                continue;
            };
            if let Some(link) = self.shared.links.get(&from) {
                let bytes: usize = c.inbox.iter().map(Vec::len).sum();
                link.rx_frames
                    .fetch_add(c.inbox.len() as u64, Ordering::Relaxed);
                link.rx_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
            }
            deliver(from, std::mem::take(&mut c.inbox));
        }
    }

    /// Send one frame to `dst`; see [`PeerManager::send_batch`].
    pub fn send(&self, dst: u64, frame: Vec<u8>) {
        self.send_batch(dst, &[frame]);
    }

    /// Write `frames` to `dst` in one `write`. Never blocks: what the
    /// socket does not take now waits in the link's bounded buffer, and a
    /// frame that does not fit there is dropped whole and counted (the
    /// reliable layer retransmits).
    pub fn send_batch(&self, dst: u64, frames: &[Vec<u8>]) {
        let Some(link) = self.shared.links.get(&dst) else {
            return;
        };
        let mut out = link.out();
        let mut dropped = 0;
        for frame in frames {
            // An empty buffer takes any legal frame, however large.
            let fits = out.buf.is_empty() || out.buf.len() + 4 + frame.len() <= SEND_BUFFER;
            if !fits || append_frame(&mut out.buf, frame).is_err() {
                dropped += 1;
            }
        }
        let broke = out.flush(link);
        drop(out);
        link.send_drops.fetch_add(dropped, Ordering::Relaxed);
        if broke {
            self.dialer.unpark();
        }
    }

    /// Snapshot the per-peer counters.
    pub fn wire_metrics(&self) -> WireMetrics {
        let mut w = WireMetrics::new();
        for (&peer, link) in &self.shared.links {
            let pw = w.peer_mut(peer);
            pw.tx_frames = link.tx_frames.load(Ordering::Relaxed);
            pw.tx_bytes = link.tx_bytes.load(Ordering::Relaxed);
            pw.rx_frames = link.rx_frames.load(Ordering::Relaxed);
            pw.rx_bytes = link.rx_bytes.load(Ordering::Relaxed);
            pw.reconnects = link.reconnects.load(Ordering::Relaxed);
            pw.send_drops = link.send_drops.load(Ordering::Relaxed);
        }
        w
    }

    /// Ask every thread to wind down. The dialer leaves at once,
    /// [`PeerManager::start`]'s poller within one wait; process exit reaps
    /// whatever is left.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.dialer.unpark();
    }
}

/// The dialer's private state for one peer.
struct Dial {
    peer: u64,
    addr: Addr,
    backoff: Backoff,
    /// Earliest time of the next connect attempt.
    not_before: Instant,
    connected_before: bool,
}

/// Connect, say hello, and leave the connection non-blocking for its
/// senders.
fn dial(addr: &Addr, hello: &Hello) -> std::io::Result<Conn> {
    let mut conn = Conn::connect(addr, CONNECT_TIMEOUT)?;
    write_hello(&mut conn, hello)?;
    conn.set_nonblocking(true)?;
    Ok(conn)
}

/// Bring every link that is down back up, each on its own backoff
/// schedule; park while there is nothing to dial. A sender that finds its
/// link broken and shutdown unpark this thread.
fn dial_loop(mut dials: Vec<Dial>, hello: Hello, shared: Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        let mut wake: Option<Instant> = None;
        for d in &mut dials {
            let link = &shared.links[&d.peer];
            if link.out().conn.is_some() {
                continue;
            }
            if Instant::now() >= d.not_before {
                let up = dial(&d.addr, &hello).is_ok_and(|conn| {
                    // Whoever brings the link up writes what waited.
                    let mut out = link.out();
                    out.conn = Some(conn);
                    !out.flush(link)
                });
                if up {
                    d.backoff.reset();
                    d.not_before = Instant::now();
                    if d.connected_before {
                        link.reconnects.fetch_add(1, Ordering::Relaxed);
                    }
                    d.connected_before = true;
                    continue;
                }
                link.out().drop_buffered(link);
                d.not_before = Instant::now() + d.backoff.next_delay();
            }
            wake = Some(wake.map_or(d.not_before, |w| w.min(d.not_before)));
        }
        match wake {
            Some(at) => thread::park_timeout(at.saturating_duration_since(Instant::now())),
            None => thread::park(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_sock(name: &str) -> Addr {
        let dir = std::env::temp_dir();
        Addr::Uds(dir.join(format!("dpq-peers-{}-{name}.sock", std::process::id())))
    }

    type Inbox = mpsc::Receiver<(u64, Vec<u8>)>;

    fn manager(me: u64, cluster: u64, listen: &Addr, peer: u64, at: &Addr) -> (PeerManager, Inbox) {
        let (tx, rx) = mpsc::channel();
        let peers = BTreeMap::from([(peer, at.clone())]);
        let m = PeerManager::start(me, ProtoId::Skeap, cluster, listen, &peers, tx).unwrap();
        (m, rx)
    }

    #[test]
    fn frames_flow_between_two_managers() {
        let (a_addr, b_addr) = (temp_sock("a"), temp_sock("b"));
        let (a, a_rx) = manager(0, 7, &a_addr, 1, &b_addr);
        let (b, b_rx) = manager(1, 7, &b_addr, 0, &a_addr);

        // Sent while the link may still be connecting: waits, then flows.
        a.send(1, vec![1, 2, 3]);
        let (from, payload) = b_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((from, payload), (0, vec![1, 2, 3]));

        b.send(0, vec![9]);
        let (from, payload) = a_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((from, payload), (1, vec![9]));

        let wm = a.wire_metrics();
        assert_eq!(wm.peer(1).unwrap().tx_frames, 1);
        assert_eq!(wm.peer(1).unwrap().tx_bytes, 3);
        assert_eq!(wm.peer(1).unwrap().rx_frames, 1);

        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn cross_cluster_connections_are_refused() {
        let (a_addr, b_addr) = (temp_sock("x1"), temp_sock("x2"));
        // b expects cluster 99; a dials with cluster 7 → b drops the
        // connection at the handshake and no frame is ever delivered.
        let (a, _a_rx) = manager(0, 7, &a_addr, 1, &b_addr);
        let (b, b_rx) = manager(1, 99, &b_addr, 0, &a_addr);
        a.send(1, vec![5]);
        assert!(b_rx.recv_timeout(Duration::from_millis(800)).is_err());
        a.shutdown();
        b.shutdown();
    }
}
