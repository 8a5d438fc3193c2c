//! dpq-net: the wire runtime — real sockets under the simulated protocols.
//!
//! Everything above the transport is the *same code* the simulator runs:
//! the `Protocol` nodes (`on_activate`/`on_message`) and the `Reliable`
//! exactly-once layer are driven unmodified. This crate supplies what the
//! simulator faked:
//!
//! * [`wire`] — the panic-free binary codec (LEB128 varints, one-byte tags)
//!   of [`dpq_core::wire`](mod@dpq_core::wire), whose `wire!` declarations
//!   sit next to each protocol message type, plus the raw bytes of the WAL;
//! * [`frame`] — length-prefixed framing with a versioned handshake, so two
//!   clusters on one host cannot cross-connect;
//! * [`transport`] — Unix-domain-socket and TCP listeners/connections
//!   behind one [`Addr`](transport::Addr) type;
//! * [`peers`] — the links: whoever sends writes the peer's non-blocking
//!   socket itself, a whole batch per `write`; one dialer thread reconnects
//!   with backoff; inbound connections are polled, not given threads, and
//!   each `read` yields every frame it carried; bounded per-peer send
//!   buffers (overflow is message loss, which `Reliable` absorbs);
//! * [`node`] — the sans-I/O node core: one `Reliable` node driven by
//!   ticks, deliveries and control requests, handing back the log entries
//!   it accepted and then the frames it owes, acks riding along; WAL
//!   replay runs through the same input handling;
//! * [`runtime`] — the I/O shell around the core: one thread waiting in
//!   `ppoll(2)` on every socket (the crate's one `unsafe` block, in a
//!   private module), a wall-clock tick, one flush per turn, pacing for an
//!   idle node, and an optional event-sourced [`wal`] for crash-recover;
//! * [`ctl`] — the `dpq-ctl` control plane (status, enqueue/dequeue, trace
//!   dump, Prometheus metrics pull, shutdown): a blocking client, and the
//!   daemon's non-blocking server half that the runtime's loop polls;
//! * [`app`] — the [`NetApp`](app::NetApp) glue binding Skeap, Seap, and
//!   KSelect nodes to the runtime;
//! * [`trace`] — JSONL op-record traces the wire-conformance harness feeds
//!   back through the simulator's witness-replay and conservation oracles.
//!
//! The binaries `dpq-node` (daemon) and `dpq-ctl` (client) are thin shells
//! over these modules.

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod app;
pub mod backoff;
pub mod config;
pub mod ctl;
pub mod frame;
pub mod node;
pub mod peers;
mod poll;
pub mod runtime;
pub mod trace;
pub mod transport;
pub mod wal;
pub mod wire;

pub use app::NetApp;
pub use backoff::Backoff;
pub use config::{cluster_fingerprint, NodeConfig};
pub use ctl::{CtlClient, CtlReq, CtlResp, StatusInfo};
pub use frame::{ProtoId, MAX_FRAME, WIRE_VERSION};
pub use node::NodeCore;
pub use runtime::NodeRuntime;
pub use transport::{Addr, Conn, Listener};
pub use wire::{from_bytes, to_bytes, Wire, WireError};
