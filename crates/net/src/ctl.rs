//! The control plane: what `dpq-ctl` (and the test harness) speaks to a
//! `dpq-node` daemon.
//!
//! Same framing and handshake as the data plane, under [`ProtoId::Ctl`];
//! one request frame, one response frame, repeat. The client half here is a
//! plain library so the conformance harness drives clusters without shelling
//! out to the `dpq-ctl` binary.

use std::io::{self, Write as _};
use std::time::{Duration, Instant};

use crate::frame::{
    read_frame, read_hello, write_frame, write_hello, Hello, ProtoId, WIRE_VERSION,
};
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

/// Accept ctl connections on `listener` and forward each request into the
/// runtime's event queue together with a reply channel. One thread per
/// connection; requests across connections serialize through the queue.
pub fn serve_ctl(
    listener: crate::transport::Listener,
    cluster: u64,
    events: std::sync::mpsc::Sender<crate::runtime::Event>,
) {
    loop {
        let Ok(conn) = listener.accept() else {
            return;
        };
        let events = events.clone();
        let _ = std::thread::Builder::new()
            .name("dpq-ctl-conn".into())
            .spawn(move || ctl_conn(conn, cluster, events));
    }
}

fn ctl_conn(mut conn: Conn, cluster: u64, events: std::sync::mpsc::Sender<crate::runtime::Event>) {
    let _ = conn.set_read_timeout(Some(Duration::from_secs(10)));
    if read_hello(&mut conn, ProtoId::Ctl, cluster).is_err() {
        return;
    }
    let _ = conn.set_read_timeout(None);
    loop {
        let frame = match read_frame(&mut conn) {
            Ok(Some(f)) => f,
            _ => return,
        };
        let req: CtlReq = match from_bytes(&frame) {
            Ok(r) => r,
            Err(e) => {
                let resp = CtlResp::Error(format!("bad request: {e}"));
                if write_frame(&mut conn, &to_bytes(&resp)).is_err() {
                    return;
                }
                continue;
            }
        };
        let shutdown = req == CtlReq::Shutdown;
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        // Dropped once the response is on the socket (or abandoned): a
        // runtime that is about to exit waits on the other end for that.
        let (_written, written_rx) = std::sync::mpsc::channel();
        if events
            .send(crate::runtime::Event::Ctl(req, reply_tx, written_rx))
            .is_err()
        {
            return;
        }
        let resp = match reply_rx.recv_timeout(Duration::from_secs(30)) {
            Ok(r) => r,
            Err(_) => CtlResp::Error("runtime did not answer".into()),
        };
        if write_frame(&mut conn, &to_bytes(&resp)).is_err() || conn.flush().is_err() {
            return;
        }
        if shutdown {
            return;
        }
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
