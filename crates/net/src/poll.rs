//! The reactor's parts: a [`PollSet`] handed to Linux `ppoll(2)`, rebuilt
//! every turn, and a [`Server`] — a listener and the connections it
//! accepted, all non-blocking. `std` has no readiness API, so this module
//! declares `ppoll` itself and holds the crate's only `unsafe` block;
//! `ppoll` rather than `poll` because its `timespec` keeps the wait
//! sub-millisecond, which the tick grid and idle pacing need.

use std::io::{self, ErrorKind, Write as _};
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::time::{Duration, Instant};

use crate::frame::{FrameDecoder, Hello, ProtoId};
use crate::transport::{Addr, Conn, Listener};

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

/// `struct timespec`.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;
/// Error, hang-up, bad descriptor: always reported, and each means the
/// next read or write returns at once.
const POLLFAIL: c_short = 0x008 | 0x010 | 0x020;

extern "C" {
    fn ppoll(fds: *mut PollFd, n: c_ulong, tmo: *const Timespec, mask: *const c_void) -> c_int;
}

/// The descriptors one wait watches, in the order they were added.
#[derive(Default)]
pub(crate) struct PollSet {
    fds: Vec<PollFd>,
}

impl PollSet {
    /// Forget every descriptor.
    pub(crate) fn clear(&mut self) {
        self.fds.clear();
    }

    /// Watch `fd` for input if `read`, for room to write if `write`;
    /// returns its slot. Failures are reported either way.
    pub(crate) fn add(&mut self, fd: &impl AsRawFd, read: bool, write: bool) -> usize {
        let events = if read { POLLIN } else { 0 } | if write { POLLOUT } else { 0 };
        let fd = fd.as_raw_fd();
        self.fds.push(PollFd {
            fd,
            events,
            revents: 0,
        });
        self.fds.len() - 1
    }

    /// Block until a watched descriptor is ready or `timeout` has passed;
    /// a signal ends the wait early with nothing ready.
    pub(crate) fn wait(&mut self, timeout: Duration) -> io::Result<()> {
        let ts = Timespec {
            tv_sec: timeout.as_secs().min(3600) as c_long,
            tv_nsec: timeout.subsec_nanos() as c_long,
        };
        let (fds, n) = (self.fds.as_mut_ptr(), self.fds.len() as c_ulong);
        // SAFETY: `fds` points at `n` initialised `#[repr(C)]` `pollfd`s in
        // a `Vec` this call borrows exclusively, so the kernel reads and
        // writes only inside it; `ts` is a valid `timespec` that outlives
        // the call, and a null mask leaves the signal mask as it is. To
        // `ppoll` a descriptor is a number: a closed one reads `POLLNVAL`.
        if unsafe { ppoll(fds, n, &ts, std::ptr::null()) } >= 0 {
            return Ok(());
        }
        match io::Error::last_os_error() {
            e if e.kind() == ErrorKind::Interrupted => Ok(()),
            e => Err(e),
        }
    }

    /// Will a read of slot `i` return without blocking?
    pub(crate) fn readable(&self, i: usize) -> bool {
        self.fds[i].revents & (POLLIN | POLLFAIL) != 0
    }

    /// Will a write to slot `i` return without blocking?
    pub(crate) fn writable(&self, i: usize) -> bool {
        self.fds[i].revents & (POLLOUT | POLLFAIL) != 0
    }
}

/// A listener and the connections it accepted. Each connection must open
/// with a valid hello within the server's `hello_wait`; after that every
/// frame it sends lands in its `inbox`.
pub(crate) struct Server {
    listener: Listener,
    proto: ProtoId,
    cluster: u64,
    hello_wait: Duration,
    pub(crate) conns: Vec<Accepted>,
    /// The listener's slot in the poll set; the connections follow it.
    slot: usize,
}

/// One accepted connection.
pub(crate) struct Accepted {
    conn: Conn,
    decoder: FrameDecoder,
    /// The sender its hello named, once the hello has arrived.
    pub(crate) from: Option<u64>,
    /// When a connection that has not said hello is dropped.
    deadline: Instant,
    /// Frames read and not yet taken. The connection is read again only
    /// once they are all taken, so a client that is not answered does not
    /// grow this past one read.
    pub(crate) inbox: Vec<Vec<u8>>,
    /// Bytes for the other end that the socket has not taken yet.
    pub(crate) out: Vec<u8>,
}

impl Accepted {
    /// Write what the socket takes of `out`; `false` if the connection
    /// broke (it then polls as readable and reads as closed).
    pub(crate) fn flush(&mut self) -> bool {
        while !self.out.is_empty() {
            match self.conn.write(&self.out) {
                Ok(0) => return false,
                Ok(n) => drop(self.out.drain(..n)),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return e.kind() == ErrorKind::WouldBlock,
            }
        }
        true
    }
}

impl Server {
    /// Bind `addr` for connections that say hello as `proto` of `cluster`.
    pub(crate) fn bind(
        addr: &Addr,
        proto: ProtoId,
        cluster: u64,
        hello_wait: Duration,
    ) -> io::Result<Server> {
        let listener = Listener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            proto,
            cluster,
            hello_wait,
            conns: Vec::new(),
            slot: 0,
        })
    }

    /// Watch the listener, every connection with an empty inbox for input,
    /// and every connection with bytes to write for room.
    pub(crate) fn register(&mut self, set: &mut PollSet) {
        self.slot = set.add(&self.listener, true, false);
        for c in &self.conns {
            set.add(&c.conn, c.inbox.is_empty(), !c.out.is_empty());
        }
    }

    /// Write, then read once, every connection `set` reports ready, then
    /// accept what the listener holds. A connection that closed, failed,
    /// or opened with a bad hello or none in time is dropped.
    pub(crate) fn poll(&mut self, set: &PollSet, now: Instant) {
        let (proto, cluster) = (self.proto, self.cluster);
        let mut slot = self.slot;
        self.conns.retain_mut(|c| {
            slot += 1;
            let keep = c.from.is_some() || now < c.deadline;
            if set.writable(slot) && !c.flush() {
                return false;
            }
            if !set.readable(slot) || !c.inbox.is_empty() {
                return keep;
            }
            match c.decoder.read_from(&mut c.conn, &mut c.inbox) {
                Ok(true) => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
                Ok(false) | Err(_) => return false,
            }
            if c.from.is_none() && !c.inbox.is_empty() {
                match Hello::accept(&c.inbox.remove(0), proto, cluster) {
                    Ok(hello) => c.from = Some(hello.sender),
                    Err(_) => return false,
                }
            }
            c.from.is_some() || keep
        });
        if set.readable(self.slot) {
            while let Ok(conn) = self.listener.accept() {
                if conn.set_nonblocking(true).is_ok() {
                    self.conns.push(Accepted {
                        conn,
                        decoder: FrameDecoder::default(),
                        from: None,
                        deadline: now + self.hello_wait,
                        inbox: Vec::new(),
                        out: Vec::new(),
                    });
                }
            }
        }
    }
}
