//! The control plane: what `dpq-ctl` (and the test harness) speaks to a
//! `dpq-node` daemon.
//!
//! Same framing and handshake as the data plane, under [`ProtoId::Ctl`];
//! one request frame, one response frame, repeat. The client half here is a
//! plain library so the conformance harness drives clusters without shelling
//! out to the `dpq-ctl` binary. The daemon's half has no thread of its own:
//! the runtime's poll loop reads the ctl connections beside the peer links
//! and answers each request between node inputs.

use std::io::{self, Write as _};
use std::time::{Duration, Instant};

use crate::frame::{
    append_frame, read_frame, write_frame, write_hello, Hello, ProtoId, WIRE_VERSION,
};
use crate::poll::Server;
use crate::transport::{Addr, Conn};
use crate::wire::{from_bytes, to_bytes, wire};
use dpq_core::Key;

/// A control request.
#[derive(Debug, Clone, PartialEq)]
pub enum CtlReq {
    /// Node and workload progress.
    Status,
    /// Issue `Insert(prio, payload)` at this node.
    Enqueue {
        /// The element's priority.
        prio: u64,
        /// The element's payload.
        payload: u64,
    },
    /// Issue `DeleteMin()` at this node.
    Dequeue,
    /// Write the node's JSONL op-record trace (and residual elements) to
    /// its `--trace` path.
    Dump,
    /// The telemetry hub + per-peer wire counters, as Prometheus text.
    Metrics,
    /// Drain and exit cleanly.
    Shutdown,
}

wire!(enum CtlReq {
    0 => Status {},
    1 => Enqueue { prio, payload },
    2 => Dequeue {},
    3 => Dump {},
    4 => Metrics {},
    5 => Shutdown {},
});

/// A node's progress snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct StatusInfo {
    /// This node's id.
    pub node: u64,
    /// Protocol in force.
    pub proto: String,
    /// Requests issued at this node.
    pub issued: u64,
    /// Requests completed at this node.
    pub completed: u64,
    /// Have all issued requests completed?
    pub all_complete: bool,
    /// KSelect's announced result, once known.
    pub result: Option<Key>,
    /// Logical ticks elapsed (including WAL-replayed ones).
    pub ticks: u64,
    /// Reliable-layer retransmissions so far.
    pub retransmits: u64,
    /// Reliable-layer duplicate deliveries suppressed so far.
    pub dup_suppressed: u64,
    /// Payloads currently awaiting an ack.
    pub unacked: u64,
}

wire!(struct StatusInfo {
    node,
    proto,
    issued,
    completed,
    all_complete,
    result,
    ticks,
    retransmits,
    dup_suppressed,
    unacked,
});

/// A control response.
#[derive(Debug, Clone, PartialEq)]
pub enum CtlResp {
    /// Answer to [`CtlReq::Status`].
    Status(StatusInfo),
    /// An operation was issued, with its id `(node, seq)`.
    Issued {
        /// Issuing node.
        node: u64,
        /// The op's per-node sequence number.
        seq: u64,
    },
    /// Answer to [`CtlReq::Dump`]: how many op records were written.
    Dumped {
        /// Records written to the trace file.
        records: u64,
    },
    /// Answer to [`CtlReq::Metrics`]: Prometheus text exposition.
    Metrics(String),
    /// The request failed; the daemon stays up.
    Error(String),
    /// Acknowledges [`CtlReq::Shutdown`]; the daemon exits after sending.
    Bye,
}

wire!(enum CtlResp {
    0 => Status(s),
    1 => Issued { node, seq },
    2 => Dumped { records },
    3 => Metrics(text),
    4 => Error(why),
    5 => Bye {},
});

/// Sender id a ctl client announces in its hello (not a cluster node).
pub const CTL_SENDER: u64 = u64::MAX;

/// A blocking control-plane client.
pub struct CtlClient {
    conn: Conn,
}

impl CtlClient {
    /// Connect and handshake.
    pub fn connect(addr: &Addr, cluster: u64) -> io::Result<CtlClient> {
        let mut conn = Conn::connect(addr, Duration::from_secs(10))?;
        write_hello(
            &mut conn,
            &Hello {
                version: WIRE_VERSION,
                proto: ProtoId::Ctl,
                cluster,
                sender: CTL_SENDER,
            },
        )?;
        conn.flush()?;
        conn.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(CtlClient { conn })
    }

    /// Connect, retrying while the daemon is still coming up.
    pub fn connect_retry(addr: &Addr, cluster: u64, wait: Duration) -> io::Result<CtlClient> {
        let deadline = Instant::now() + wait;
        loop {
            match CtlClient::connect(addr, cluster) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }

    /// One request/response exchange.
    pub fn request(&mut self, req: &CtlReq) -> io::Result<CtlResp> {
        write_frame(&mut self.conn, &to_bytes(req))?;
        self.conn.flush()?;
        let frame = read_frame(&mut self.conn)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed"))?;
        from_bytes(&frame).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// How long an accepted ctl connection may take to say hello.
const HELLO_WAIT: Duration = Duration::from_secs(10);

/// Bind the daemon's ctl listener at `addr`, for clients of deployment
/// `cluster`. The runtime's loop polls it; a connection's requests are
/// answered in order, and only while nothing of an earlier reply waits to
/// be written, so a client that sends and never reads holds one read of
/// requests and one reply.
pub(crate) fn listen(addr: &Addr, cluster: u64) -> io::Result<Server> {
    Server::bind(addr, ProtoId::Ctl, cluster, HELLO_WAIT)
}

/// The next request to answer, with its connection. An undecodable
/// request is answered here, with an error.
pub(crate) fn next_request(ctl: &mut Server) -> Option<(usize, CtlReq)> {
    loop {
        let i = ctl
            .conns
            .iter()
            .position(|c| c.out.is_empty() && !c.inbox.is_empty())?;
        match from_bytes(&ctl.conns[i].inbox.remove(0)) {
            Ok(req) => return Some((i, req)),
            Err(e) => reply(ctl, i, &CtlResp::Error(format!("bad request: {e}"))),
        }
    }
}

/// Queue `resp` on connection `conn` and write what the socket takes.
pub(crate) fn reply(ctl: &mut Server, conn: usize, resp: &CtlResp) {
    let c = &mut ctl.conns[conn];
    // A reply above `MAX_FRAME` is not sent; its client times out.
    let _ = append_frame(&mut c.out, &to_bytes(resp));
    if !c.flush() {
        // Dropped by the next poll.
        c.inbox.clear();
        c.out.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctl_messages_round_trip() {
        let reqs = [
            CtlReq::Status,
            CtlReq::Enqueue {
                prio: 3,
                payload: 99,
            },
            CtlReq::Dequeue,
            CtlReq::Dump,
            CtlReq::Metrics,
            CtlReq::Shutdown,
        ];
        for req in &reqs {
            assert_eq!(&from_bytes::<CtlReq>(&to_bytes(req)).unwrap(), req);
        }
        let resps = [
            CtlResp::Status(StatusInfo {
                node: 2,
                proto: "skeap".into(),
                issued: 10,
                completed: 7,
                all_complete: false,
                result: None,
                ticks: 12345,
                retransmits: 2,
                dup_suppressed: 1,
                unacked: 3,
            }),
            CtlResp::Issued { node: 2, seq: 5 },
            CtlResp::Dumped { records: 10 },
            CtlResp::Metrics("dpq_x 1\n".into()),
            CtlResp::Error("nope".into()),
            CtlResp::Bye,
        ];
        for resp in &resps {
            assert_eq!(&from_bytes::<CtlResp>(&to_bytes(resp)).unwrap(), resp);
        }
    }
}
