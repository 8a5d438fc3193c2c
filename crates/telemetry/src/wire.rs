//! Per-peer wire-level transport metrics for the socket runtime.
//!
//! The [`Hub`](crate::Hub) registry keys instruments by `&'static str`, which
//! is exactly right for a fixed instrument set but cannot express "one
//! counter per peer" for a cluster size known only at runtime. This module
//! adds the missing shape: [`WireMetrics`] holds one [`PeerWire`] record per
//! remote node — frame/byte counters for both directions, reconnect and
//! send-drop counts — and renders them as *labelled* Prometheus families
//! (`dpq_net_tx_frames_total{peer="3"}`), the per-peer detail the aggregate
//! exposition cannot carry.
//!
//! Like every sink in this crate it is a pure observer with deterministic
//! iteration (peers in `BTreeMap` order) and a
//! [`fold_into`](WireMetrics::fold_into) bridge that collapses the per-peer
//! detail into `net.*` aggregate instruments of an ordinary [`Telemetry`]
//! sink.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::sink::Telemetry;

/// Wire counters for one direction-pair with a single remote peer.
#[derive(Debug, Clone, Default)]
pub struct PeerWire {
    /// Frames written to this peer (data and acks alike).
    pub tx_frames: u64,
    /// Payload bytes written to this peer (excluding length prefixes).
    pub tx_bytes: u64,
    /// Frames received from this peer.
    pub rx_frames: u64,
    /// Payload bytes received from this peer.
    pub rx_bytes: u64,
    /// Times the outbound connection to this peer was (re-)established
    /// after the first successful connect.
    pub reconnects: u64,
    /// Frames dropped because the outbound connection was down or its
    /// queue full — the reliable layer retransmits, so these are lossage
    /// accounting, not lost messages.
    pub send_drops: u64,
}

impl PeerWire {
    /// Fold `other` into `self` (counters add).
    pub fn merge(&mut self, other: &PeerWire) {
        self.tx_frames += other.tx_frames;
        self.tx_bytes += other.tx_bytes;
        self.rx_frames += other.rx_frames;
        self.rx_bytes += other.rx_bytes;
        self.reconnects += other.reconnects;
        self.send_drops += other.send_drops;
    }
}

/// One node's view of its wire activity, keyed by remote peer id.
#[derive(Debug, Clone, Default)]
pub struct WireMetrics {
    peers: BTreeMap<u64, PeerWire>,
}

impl WireMetrics {
    /// An empty record set.
    pub fn new() -> Self {
        WireMetrics::default()
    }

    /// The record for `peer`, created zeroed on first touch.
    pub fn peer_mut(&mut self, peer: u64) -> &mut PeerWire {
        self.peers.entry(peer).or_default()
    }

    /// The record for `peer`, if any activity was recorded.
    pub fn peer(&self, peer: u64) -> Option<&PeerWire> {
        self.peers.get(&peer)
    }

    /// All per-peer records in ascending peer order.
    pub fn peers(&self) -> impl Iterator<Item = (u64, &PeerWire)> {
        self.peers.iter().map(|(&p, w)| (p, w))
    }

    /// Aggregate over all peers.
    pub fn totals(&self) -> PeerWire {
        let mut t = PeerWire::default();
        for w in self.peers.values() {
            t.merge(w);
        }
        t
    }

    /// Collapse the per-peer detail into aggregate `net.*` instruments of an
    /// ordinary sink: `net.tx_frames`, `net.tx_bytes`, `net.rx_frames`,
    /// `net.rx_bytes`, `net.reconnects` and `net.send_drops` counters.
    /// Counters are cumulative — call once per sink per run, like
    /// [`Reliable::export_telemetry`](../dpq_sim/struct.Reliable.html).
    pub fn fold_into<T: Telemetry>(&self, sink: &mut T) {
        if !T::ENABLED {
            return;
        }
        let t = self.totals();
        for (name, v) in [
            ("net.tx_frames", t.tx_frames),
            ("net.tx_bytes", t.tx_bytes),
            ("net.rx_frames", t.rx_frames),
            ("net.rx_bytes", t.rx_bytes),
            ("net.reconnects", t.reconnects),
            ("net.send_drops", t.send_drops),
        ] {
            let id = sink.register_counter(name);
            sink.counter_add(id, v);
        }
    }
}

/// Render the per-peer families in the Prometheus text exposition format,
/// peer label on every sample. Output is deterministic (peer order) and
/// parseable by [`parse_prometheus`](crate::parse_prometheus).
pub fn prometheus_wire_text(w: &WireMetrics) -> String {
    type Family = (&'static str, fn(&PeerWire) -> u64);
    let mut out = String::new();
    let families: [Family; 6] = [
        ("net_tx_frames_total", |p| p.tx_frames),
        ("net_tx_bytes_total", |p| p.tx_bytes),
        ("net_rx_frames_total", |p| p.rx_frames),
        ("net_rx_bytes_total", |p| p.rx_bytes),
        ("net_reconnects_total", |p| p.reconnects),
        ("net_send_drops_total", |p| p.send_drops),
    ];
    for (name, get) in families {
        let _ = writeln!(out, "# TYPE dpq_{name} counter");
        for (peer, pw) in w.peers() {
            let _ = writeln!(out, "dpq_{name}{{peer=\"{peer}\"}} {}", get(pw));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::{parse_prometheus, render_exposition};
    use crate::sink::Hub;

    fn sample() -> WireMetrics {
        let mut w = WireMetrics::new();
        let p1 = w.peer_mut(1);
        p1.tx_frames = 10;
        p1.tx_bytes = 900;
        let p3 = w.peer_mut(3);
        p3.rx_frames = 7;
        p3.rx_bytes = 512;
        p3.reconnects = 2;
        p3.send_drops = 1;
        w
    }

    #[test]
    fn totals_aggregate_all_peers() {
        let t = sample().totals();
        assert_eq!(t.tx_frames, 10);
        assert_eq!(t.rx_frames, 7);
        assert_eq!(t.reconnects, 2);
        assert_eq!(t.send_drops, 1);
    }

    #[test]
    fn fold_into_hub_registers_net_instruments() {
        let mut hub = Hub::new();
        sample().fold_into(&mut hub);
        let counters: std::collections::BTreeMap<_, _> = hub.counters().collect();
        assert_eq!(counters["net.tx_frames"], 10);
        assert_eq!(counters["net.rx_bytes"], 512);
        assert_eq!(counters["net.send_drops"], 1);
    }

    #[test]
    fn wire_exposition_is_labelled_and_parseable() {
        let text = prometheus_wire_text(&sample());
        assert!(text.contains("dpq_net_tx_frames_total{peer=\"1\"} 10"));
        assert!(text.contains("dpq_net_reconnects_total{peer=\"3\"} 2"));
        let doc = parse_prometheus(&text).expect("writer output parses");
        assert_eq!(render_exposition(&doc), text, "parse ∘ render round-trips");
        assert_eq!(doc.families.len(), 6);
    }
}
