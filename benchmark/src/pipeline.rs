//! A single-threaded replica of the node loop, owned by the benchmark, so
//! every layer boundary can carry a span without touching `crates/`.
//!
//! n × `Reliable<Spanned<P>>` are driven on a virtual clock exactly as
//! `NodeRuntime` drives one: a tick activates the node, a ctl op is issued
//! between turns, an inbound frame is decoded and delivered. What leaves a
//! node goes through the real `to_bytes`, the real `write_frame` /
//! `read_frame` over a `UnixStream::pair`, the real `from_bytes`, and — for
//! the WAL variant — the real `Wal::append` before the node sees the input.
//! A frame arrives [`HOP_US`] of virtual time after it was sent — about what
//! a loopback hop takes (`peers.hop_us_p50`) — because Seap's phases are
//! message-driven: with instant delivery an idle cluster would spin through
//! empty phases forever without the clock ever advancing. The replica shows
//! where CPU goes per operation, not where latency waits.

use std::collections::VecDeque;
use std::io::Write as _;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Instant;

use dpq_core::NodeId;
use dpq_net::ctl::CtlReq;
use dpq_net::frame::{read_frame, write_frame};
use dpq_net::wal::{CtlOpKind, Wal, WalEntry};
use dpq_net::wire::RawBytes;
use dpq_net::{from_bytes, to_bytes, NetApp, NodeConfig, Wire};
use dpq_sim::{Ctx, Protocol, Reliable, ReliableMsg};

use crate::cluster::{NODE_SEED, RTO_TICKS, TICK_MS};
use crate::loadgen::DueOp;
use crate::span::{self, LayerNames, SpanId, Spanned};

/// Virtual microseconds the replica keeps ticking after the last op while
/// waiting for every op to complete.
const DRAIN_US: u64 = 5_000_000;
/// Virtual microseconds between a frame's send and its delivery.
pub const HOP_US: u64 = 100;

struct Frame {
    /// Virtual delivery time.
    at_us: u64,
    from: u64,
    to: usize,
    bytes: Vec<u8>,
    cause: SpanId,
}

/// Counts the replica made itself (spans give the times).
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplicaCounts {
    /// Wall seconds of the measured part (after prefill).
    pub wall_s: f64,
    /// Ctl ops issued in the measured part.
    pub ops: u64,
    /// Messages encoded.
    pub msgs: u64,
    /// Bytes those encodings took.
    pub msg_bytes: u64,
    /// Messages delivered to `Reliable::on_message`.
    pub delivered: u64,
    /// Did every op complete within the drain allowance?
    pub all_complete: bool,
}

struct Replica<P: NetApp + LayerNames>
where
    P::Msg: Clone + Wire,
{
    nodes: Vec<Reliable<Spanned<P>>>,
    wals: Vec<Option<Wal>>,
    /// Logical clock, one per node like the daemons (they tick in step here).
    now: u64,
    /// Virtual time, µs.
    vt_us: u64,
    next_tick_us: u64,
    /// In flight, ordered by delivery time (constant hop, monotone clock).
    queue: VecDeque<Frame>,
    tx: UnixStream,
    rx: UnixStream,
    counts: ReplicaCounts,
}

fn node_config(proto: &str, n: usize, id: usize, n_prios: u64) -> Result<NodeConfig, String> {
    let flags = format!(
        "--proto {proto} --n {n} --id {id} --seed {NODE_SEED} --n-prios {n_prios} \
         --listen uds:unused --ctl uds:unused"
    );
    let args: Vec<String> = flags.split_whitespace().map(String::from).collect();
    NodeConfig::parse_args(&args)
}

impl<P: NetApp + LayerNames> Replica<P>
where
    P::Msg: Clone + Wire,
{
    fn build(n: usize, n_prios: u64, wal_dir: Option<&Path>) -> Result<Self, String> {
        let mut nodes = Vec::new();
        let mut wals = Vec::new();
        for id in 0..n {
            let cfg = node_config(P::PROTO.name(), n, id, n_prios)?;
            nodes.push(Reliable::new(Spanned(P::build(&cfg)?), RTO_TICKS));
            wals.push(match wal_dir {
                None => None,
                Some(dir) => {
                    let path = dir.join(format!("replica-n{id}.wal"));
                    let _ = std::fs::remove_file(&path);
                    let (wal, _) = Wal::open(&path).map_err(|e| format!("open wal: {e}"))?;
                    Some(wal)
                }
            });
        }
        let (tx, rx) = UnixStream::pair().map_err(|e| format!("socket pair: {e}"))?;
        Ok(Replica {
            nodes,
            wals,
            now: 0,
            vt_us: 0,
            next_tick_us: TICK_MS * 1000,
            queue: VecDeque::new(),
            tx,
            rx,
            counts: ReplicaCounts::default(),
        })
    }

    fn log(&mut self, node: usize, entry: &WalEntry) -> Result<(), String> {
        if let Some(wal) = &mut self.wals[node] {
            let _g = span::enter("wal.append");
            wal.append(entry).map_err(|e| format!("wal append: {e}"))?;
        }
        Ok(())
    }

    /// What `NodeRuntime::flush` does with a turn's outbox: encode, then
    /// loop back or frame onto the socket. The frame is read back at once so
    /// the socket buffer never holds more than one; it is *delivered* a hop
    /// later.
    fn flush(&mut self, me: usize, mut ctx: Ctx<ReliableMsg<P::Msg>>) -> Result<(), String> {
        let at_us = self.vt_us + HOP_US;
        for env in ctx.take_outbox() {
            let bytes = {
                let _g = span::enter("codec.encode");
                to_bytes(&env.msg)
            };
            self.counts.msgs += 1;
            self.counts.msg_bytes += bytes.len() as u64;
            let to = env.dst.0 as usize;
            if to == me {
                self.queue.push_back(Frame {
                    at_us,
                    from: me as u64,
                    to,
                    bytes,
                    cause: span::current(),
                });
                continue;
            }
            let cause = {
                let _g = span::enter("frame.write");
                write_frame(&mut self.tx, &bytes)
                    .and_then(|_| self.tx.flush())
                    .map_err(|e| format!("write frame: {e}"))?;
                span::current()
            };
            let bytes = {
                let _g = span::enter("frame.read");
                read_frame(&mut self.rx)
                    .map_err(|e| format!("read frame: {e}"))?
                    .ok_or("socket pair closed")?
            };
            self.queue.push_back(Frame {
                at_us,
                from: me as u64,
                to,
                bytes,
                cause,
            });
        }
        Ok(())
    }

    fn tick(&mut self) -> Result<(), String> {
        self.now += 1;
        for me in 0..self.nodes.len() {
            let _root = span::enter("pipeline.tick");
            self.log(me, &WalEntry::Activate { now: self.now })?;
            let mut ctx = Ctx::new(NodeId(me as u64), self.now);
            {
                let _g = span::enter("reliable.on_activate");
                self.nodes[me].on_activate(&mut ctx);
            }
            self.flush(me, ctx)?;
        }
        Ok(())
    }

    /// Run ticks and deliveries, in virtual-time order, up to `until_us`.
    fn advance_to(&mut self, until_us: u64) -> Result<(), String> {
        loop {
            let frame_at = self.queue.front().map_or(u64::MAX, |f| f.at_us);
            let at = frame_at.min(self.next_tick_us);
            if at > until_us {
                break;
            }
            self.vt_us = at;
            if frame_at <= self.next_tick_us {
                self.deliver_one()?;
            } else {
                self.tick()?;
                self.next_tick_us += TICK_MS * 1000;
            }
        }
        self.vt_us = until_us;
        Ok(())
    }

    /// Log, then issue — the order `NodeRuntime::on_ctl` uses.
    fn ctl(&mut self, node: usize, req: &CtlReq) -> Result<(), String> {
        let _root = span::enter("pipeline.ctl");
        match *req {
            CtlReq::Enqueue { prio, payload } => {
                let op = CtlOpKind::Insert { prio, payload };
                self.log(node, &WalEntry::CtlOp { now: self.now, op })?;
                self.nodes[node].inner_mut().0.enqueue(prio, payload)?;
            }
            CtlReq::Dequeue => {
                let op = CtlOpKind::DeleteMin;
                self.log(node, &WalEntry::CtlOp { now: self.now, op })?;
                self.nodes[node].inner_mut().0.dequeue()?;
            }
            _ => return Err(format!("not a queue op: {req:?}")),
        }
        Ok(())
    }

    fn deliver_one(&mut self) -> Result<(), String> {
        let f = self.queue.pop_front().expect("advance_to saw a frame");
        span::set_cause(f.cause);
        let _root = span::enter("pipeline.deliver");
        let msg: ReliableMsg<P::Msg> = {
            let _g = span::enter("codec.decode");
            from_bytes(&f.bytes).map_err(|e| format!("decode: {e}"))?
        };
        self.log(
            f.to,
            &WalEntry::Deliver {
                now: self.now,
                from: f.from,
                frame: RawBytes(f.bytes),
            },
        )?;
        let mut ctx = Ctx::new(NodeId(f.to as u64), self.now);
        {
            let _g = span::enter("reliable.on_message");
            self.nodes[f.to].on_message(NodeId(f.from), msg, &mut ctx);
        }
        self.counts.delivered += 1;
        self.flush(f.to, ctx)
    }

    fn all_complete(&self) -> bool {
        self.nodes.iter().all(|n| n.inner().0.all_complete())
    }

    /// Keep the clock running until every issued op completed, for at most
    /// `DRAIN_US`.
    fn quiesce(&mut self) -> Result<bool, String> {
        let give_up = self.vt_us + DRAIN_US;
        while !self.all_complete() && self.vt_us < give_up {
            self.advance_to(self.vt_us + TICK_MS * 1000)?;
        }
        Ok(self.all_complete())
    }
}

/// Replay `ops` (those due before `horizon_us`) through the replica after
/// `prefill` inserts at the producer. Spans are recorded iff the caller has
/// switched the recorder on; prefill runs before the clock starts either
/// way, and the recorder is restarted after it so its spans are discarded.
pub fn run<P: NetApp + LayerNames>(
    n: usize,
    n_prios: u64,
    prefill: &[CtlReq],
    ops: &[DueOp],
    horizon_us: u64,
    wal_dir: Option<&Path>,
    record: bool,
) -> Result<ReplicaCounts, String>
where
    P::Msg: Clone + Wire,
{
    let mut r = Replica::<P>::build(n, n_prios, wal_dir)?;
    for req in prefill {
        r.ctl(crate::loadgen::PRODUCER, req)?;
    }
    if !r.quiesce()? {
        return Err("replica prefill did not quiesce".into());
    }
    r.counts = ReplicaCounts::default();
    if record {
        span::start_recording();
    }

    let t0 = Instant::now();
    let start_us = r.vt_us;
    for op in ops.iter().take_while(|o| o.due_us < horizon_us) {
        r.advance_to(start_us + op.due_us)?;
        r.ctl(op.lane, &op.req)?;
        r.counts.ops += 1;
    }
    r.advance_to(start_us + horizon_us)?;
    r.counts.all_complete = r.quiesce()?;
    r.counts.wall_s = t0.elapsed().as_secs_f64();
    Ok(r.counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::{CONSUMER, PRODUCER};

    fn small_ops(count: u64, gap_us: u64) -> Vec<DueOp> {
        (0..count)
            .map(|i| {
                let (lane, req) = if i % 2 == 0 {
                    (
                        PRODUCER,
                        CtlReq::Enqueue {
                            prio: i % 4,
                            payload: i,
                        },
                    )
                } else {
                    (CONSUMER, CtlReq::Dequeue)
                };
                DueOp {
                    due_us: i * gap_us,
                    lane,
                    req,
                    measured: true,
                }
            })
            .collect()
    }

    fn prefill(count: u64) -> Vec<CtlReq> {
        (0..count)
            .map(|i| CtlReq::Enqueue {
                prio: i % 4,
                payload: 1000 + i,
            })
            .collect()
    }

    /// Every op completes, and the recorded spans form trees whose self
    /// times add up to the root spans (nothing is counted twice or lost).
    #[test]
    fn skeap_replica_completes_and_spans_tile() {
        let ops = small_ops(40, 5_000);
        let counts =
            run::<skeap::SkeapNode>(3, 4, &prefill(20), &ops, 200_000, None, true).unwrap();
        let spans = span::take_spans();
        assert!(counts.all_complete);
        assert_eq!(counts.ops, 40);
        assert!(counts.msgs > 0 && counts.delivered > 0);
        let roots: u64 = spans
            .iter()
            .filter(|s| s.parent == 0)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        assert_eq!(span::self_times(&spans).iter().sum::<u64>(), roots);
        // Deliveries are caused by the span that emitted the frame.
        assert!(spans
            .iter()
            .any(|s| s.name == "pipeline.deliver" && s.cause != 0));
        for name in ["codec.encode", "frame.write", "frame.read", "codec.decode"] {
            assert!(spans.iter().any(|s| s.name == name), "no {name} span");
        }
    }

    /// Seap's phases are message-driven: with instant delivery this never
    /// returns. The virtual hop must let the clock advance.
    #[test]
    fn seap_replica_completes() {
        let ops = small_ops(20, 10_000);
        let counts =
            run::<seap::SeapNode>(3, 65_536, &prefill(10), &ops, 200_000, None, false).unwrap();
        assert!(counts.all_complete);
        assert_eq!(counts.ops, 20);
    }
}
