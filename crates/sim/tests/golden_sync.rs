//! Golden-trace regression pins for the sync scheduler's delivery order.
//!
//! The async twin (`golden_async.rs`) pins the adversary's choices; this
//! file pins the lock-step scheduler: per-round inbox grouping, the fault
//! layer's drop/duplicate/delay draws, and partition/crash handling all
//! feed the `Deliver` sequence hashed here. Any change to round structure
//! or fault-draw order shows up as a hash mismatch even when aggregate
//! metrics stay identical.

use dpq_core::{BitSize, NodeId};
use dpq_sim::{FaultPlan, Protocol, SyncScheduler, TraceEvent, VecTracer};

/// Gossip protocol: node 0 seeds `k` rumors; every delivery forwards the
/// rumor to a deterministically-chosen next hop until its TTL is spent.
struct Gossip {
    me: u64,
    n: u64,
    k: u64,
    fired: bool,
    heard: u64,
}

#[derive(Clone, Copy)]
struct Rumor {
    ttl: u64,
    id: u64,
}

impl BitSize for Rumor {
    fn bits(&self) -> u64 {
        8
    }
}

impl Protocol for Gossip {
    type Msg = Rumor;

    fn on_activate(&mut self, ctx: &mut dpq_sim::Ctx<Rumor>) {
        if self.me == 0 && !self.fired {
            self.fired = true;
            for id in 0..self.k {
                ctx.send(NodeId(1 + id % (self.n - 1)), Rumor { ttl: 12, id });
            }
        }
    }

    fn on_message(&mut self, _from: NodeId, msg: Rumor, ctx: &mut dpq_sim::Ctx<Rumor>) {
        self.heard += 1;
        if msg.ttl > 0 {
            let next = (self.me + 1 + msg.id % (self.n - 1)) % self.n;
            ctx.send(
                NodeId(next),
                Rumor {
                    ttl: msg.ttl - 1,
                    id: msg.id,
                },
            );
        }
    }

    fn done(&self) -> bool {
        self.me != 0 || self.fired
    }
}

fn cluster(n: u64, k: u64) -> Vec<Gossip> {
    (0..n)
        .map(|me| Gossip {
            me,
            n,
            k,
            fired: false,
            heard: 0,
        })
        .collect()
}

/// FNV-1a over the full delivery sequence (round, src, dst of every
/// `Deliver`, in order). Any reordering, insertion, or loss changes it.
fn delivery_hash(events: &[TraceEvent]) -> (u64, u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    let mut count = 0;
    for ev in events {
        if let TraceEvent::Deliver {
            round, src, dst, ..
        } = ev
        {
            fold(*round);
            fold(src.0);
            fold(dst.0);
            count += 1;
        }
    }
    (h, count)
}

fn run(plan: FaultPlan) -> (u64, u64) {
    let mut s = SyncScheduler::new(cluster(8, 24))
        .with_faults(plan)
        .with_tracer(VecTracer::new());
    assert!(
        s.run_until_quiescent(100_000).is_quiescent(),
        "golden run stalled"
    );
    delivery_hash(&s.into_parts().1.into_events())
}

#[test]
fn clean_sync_delivery_order_is_pinned() {
    let got = run(FaultPlan::none());
    println!("sync clean: {got:?}");
    assert_eq!(got, (GOLDEN_CLEAN.0, GOLDEN_CLEAN.1));
}

#[test]
fn drop_dup_sync_delivery_order_is_pinned() {
    let got = run(FaultPlan::uniform(7, 0.1, 0.1));
    println!("sync dropdup: {got:?}");
    assert_eq!(got, (GOLDEN_DROPDUP.0, GOLDEN_DROPDUP.1));
}

#[test]
fn delay_inflated_sync_delivery_order_is_pinned() {
    // Delayed messages leave the per-round inbox flow and re-enter from the
    // future queue — the ordering interaction this pin guards.
    let got = run(FaultPlan::uniform(9, 0.05, 0.05).with_delay(0.5, 24));
    println!("sync delay: {got:?}");
    assert_eq!(got, (GOLDEN_DELAY.0, GOLDEN_DELAY.1));
}

#[test]
fn crash_partition_sync_delivery_order_is_pinned() {
    let plan = FaultPlan::uniform(13, 0.05, 0.05)
        .with_delay(0.3, 16)
        .with_partition(20, 60, vec![NodeId(0), NodeId(1), NodeId(2)])
        .with_crash(NodeId(7), 30, Some(90));
    let got = run(plan);
    println!("sync crashpart: {got:?}");
    assert_eq!(got, (GOLDEN_CRASHPART.0, GOLDEN_CRASHPART.1));
}

// (hash, delivery count) pairs recorded from the current sync scheduler —
// do not regenerate casually: changing them means the lock-step delivery
// order observably changed.
const GOLDEN_CLEAN: (u64, u64) = (13682112990610279717, 312);
const GOLDEN_DROPDUP: (u64, u64) = (13593993032917349604, 296);
const GOLDEN_DELAY: (u64, u64) = (2511658400706417397, 364);
const GOLDEN_CRASHPART: (u64, u64) = (2826278598742490346, 147);
