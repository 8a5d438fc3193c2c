//! Golden-trace regression pins for the async scheduler's delivery order.
//!
//! The E1/E9/E16 replay guarantees rest on one property: the same
//! `(workload, seed, plan)` triple always produces the same adversary
//! choices and therefore the same `Deliver` sequence. PR 3 swapped the
//! scheduler's in-flight set from a linear-scanned `Vec` to a
//! maturity-indexed structure; these hashes were recorded against the
//! pre-swap implementation, so they prove the delivery order — not just the
//! aggregate metrics — survived the data-structure change, for every
//! adversary mode (clean, drop+dup, delay-inflated, crash+partition).

use dpq_core::{BitSize, NodeId};
use dpq_sim::{AsyncConfig, AsyncScheduler, Ctx, FaultPlan, Protocol, TraceEvent, VecTracer};

/// Gossip protocol: node 0 seeds `k` rumors; every delivery forwards the
/// rumor to a deterministically-chosen next hop until its TTL is spent.
/// Keeps tens of messages in flight so the uniform pick has real choices.
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

    fn on_activate(&mut self, ctx: &mut Ctx<Rumor>) {
        if self.me == 0 && !self.fired {
            self.fired = true;
            for id in 0..self.k {
                ctx.send(NodeId(1 + id % (self.n - 1)), Rumor { ttl: 12, id });
            }
        }
    }

    fn on_message(&mut self, _from: NodeId, msg: Rumor, ctx: &mut Ctx<Rumor>) {
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
        // Node 0 must fire first; after that, quiescence = no rumors left
        // in flight.
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

/// FNV-1a over the full delivery sequence (step, src, dst of every
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

fn run(cfg: AsyncConfig, plan: FaultPlan, seed: u64) -> (u64, u64) {
    let mut s = AsyncScheduler::new(cluster(8, 24), seed)
        .with_config(cfg)
        .with_faults(plan)
        .with_tracer(VecTracer::new());
    assert!(s.run_until_quiescent(4_000_000), "golden run stalled");
    delivery_hash(&s.into_parts().1.into_events())
}

#[test]
fn clean_adversary_delivery_order_is_pinned() {
    let got = run(AsyncConfig::default(), FaultPlan::none(), 42);
    println!("clean: {got:?}");
    assert_eq!(got, (GOLDEN_CLEAN.0, GOLDEN_CLEAN.1));
}

#[test]
fn drop_dup_adversary_delivery_order_is_pinned() {
    let got = run(AsyncConfig::default(), FaultPlan::uniform(7, 0.1, 0.1), 43);
    println!("dropdup: {got:?}");
    assert_eq!(got, (GOLDEN_DROPDUP.0, GOLDEN_DROPDUP.1));
}

#[test]
fn delay_inflated_delivery_order_is_pinned() {
    // Delay inflation makes maturity matter: the eligible set is a strict,
    // step-varying subset of the in-flight set. This is the case the
    // calendar-queue swap had to reproduce draw-for-draw.
    let got = run(
        AsyncConfig::default(),
        FaultPlan::uniform(9, 0.05, 0.05).with_delay(0.5, 24),
        44,
    );
    println!("delay: {got:?}");
    assert_eq!(got, (GOLDEN_DELAY.0, GOLDEN_DELAY.1));
}

#[test]
fn crash_partition_delivery_order_is_pinned() {
    let plan = FaultPlan::uniform(13, 0.05, 0.05)
        .with_delay(0.3, 16)
        .with_partition(200, 600, vec![NodeId(0), NodeId(1), NodeId(2)])
        .with_crash(NodeId(7), 300, Some(900));
    let got = run(AsyncConfig::default(), plan, 46);
    println!("crashpart: {got:?}");
    assert_eq!(got, (GOLDEN_CRASHPART.0, GOLDEN_CRASHPART.1));
}

// (hash, delivery count) pairs recorded from the pre-calendar-queue
// implementation (commit 917a412's scheduler) — do not regenerate casually:
// changing them means the adversary's observable behavior changed.
const GOLDEN_CLEAN: (u64, u64) = (8455165682273346209, 312);
const GOLDEN_DROPDUP: (u64, u64) = (5184878632652896977, 278);
const GOLDEN_DELAY: (u64, u64) = (11376872511150059462, 365);
const GOLDEN_CRASHPART: (u64, u64) = (7882770073916925538, 125);
