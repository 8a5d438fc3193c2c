//! dpq-net: the wire runtime — real sockets under the simulated protocols.
//!
//! Everything above the transport is the *same code* the simulator runs:
//! the `Protocol` nodes (`on_activate`/`on_message`) and the `Reliable`
//! exactly-once layer are driven unmodified. This crate supplies what the
//! simulator faked:
//!
//! * [`wire`] — a hand-rolled, panic-free binary codec (LEB128 varints,
//!   one-byte tags) and the `wire!` macro that derives a type's encode and
//!   decode from its field list; [`codec`] — one such declaration per
//!   protocol message type;
//! * [`frame`] — length-prefixed framing with a versioned handshake, so two
//!   clusters on one host cannot cross-connect;
//! * [`transport`] — Unix-domain-socket and TCP listeners/connections
//!   behind one [`Addr`](transport::Addr) type;
//! * [`peers`] — the links: whoever sends writes the peer's non-blocking
//!   socket itself, a whole batch per `write`; one dialer thread reconnects
//!   with backoff, one reader per inbound connection decodes every frame a
//!   `read` carried; bounded per-peer send buffers (overflow is message
//!   loss, which `Reliable` absorbs);
//! * [`node`] — the sans-I/O node core: one `Reliable` node driven by
//!   ticks, deliveries and control requests, handing back the log entries
//!   it accepted and then the frames it owes, acks riding along; WAL
//!   replay runs through the same input handling;
//! * [`runtime`] — the I/O shell around the core: a single-threaded event
//!   loop on a wall-clock tick, one flush per turn, and an optional
//!   event-sourced [`wal`] for crash-recover;
//! * [`ctl`] — the `dpq-ctl` control plane (status, enqueue/dequeue, trace
//!   dump, Prometheus metrics pull, shutdown);
//! * [`app`] — the [`NetApp`](app::NetApp) glue binding Skeap, Seap, and
//!   KSelect nodes to the runtime;
//! * [`trace`] — JSONL op-record traces the wire-conformance harness feeds
//!   back through the simulator's witness-replay and conservation oracles.
//!
//! The binaries `dpq-node` (daemon) and `dpq-ctl` (client) are thin shells
//! over these modules.

#![warn(missing_docs)]

pub mod app;
pub mod backoff;
pub mod codec;
pub mod config;
pub mod ctl;
pub mod frame;
pub mod node;
pub mod peers;
pub mod runtime;
pub mod trace;
pub mod transport;
pub mod wal;
pub mod wire;

pub use app::NetApp;
pub use backoff::Backoff;
pub use config::{cluster_fingerprint, gossip_fingerprint, NodeConfig};
pub use ctl::{CtlClient, CtlReq, CtlResp, StatusInfo};
pub use frame::{ProtoId, MAX_FRAME, WIRE_VERSION};
pub use node::NodeCore;
pub use runtime::{Event, NodeRuntime};
pub use transport::{Addr, Conn, Listener};
pub use wire::{from_bytes, to_bytes, Wire, WireError};
