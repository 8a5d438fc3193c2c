//! Channel-semantics tests: the model of §1.1 promises messages are never
//! lost and never duplicated, with fair receipt — under *both* schedulers.
//! A tagging protocol makes every message uniquely identifiable and counts
//! exactly-once delivery.

use dpq_core::{BitSize, DetRng, NodeId};
use dpq_sim::{AsyncConfig, AsyncScheduler, Ctx, Protocol, SyncScheduler};
use std::collections::HashSet;

#[derive(Debug, Clone, Copy)]
struct Tagged {
    tag: u64,
}

impl BitSize for Tagged {
    fn bits(&self) -> u64 {
        64
    }
}

/// Every node sends `per_peer` uniquely tagged messages to every other
/// node, then records what it receives.
struct Spammer {
    me: usize,
    n: usize,
    per_peer: u64,
    fired: bool,
    seen: HashSet<u64>,
    duplicates: usize,
}

impl Spammer {
    fn new(me: usize, n: usize, per_peer: u64) -> Self {
        Spammer {
            me,
            n,
            per_peer,
            fired: false,
            seen: HashSet::new(),
            duplicates: 0,
        }
    }

    fn expected(&self) -> usize {
        (self.n - 1) * self.per_peer as usize
    }
}

impl Protocol for Spammer {
    type Msg = Tagged;

    fn on_activate(&mut self, ctx: &mut Ctx<Tagged>) {
        if self.fired {
            return;
        }
        self.fired = true;
        for dst in 0..self.n {
            if dst == self.me {
                continue;
            }
            for i in 0..self.per_peer {
                // Tag = (src, dst, i) packed: globally unique.
                let tag = ((self.me as u64) << 40) | ((dst as u64) << 20) | i;
                ctx.send(NodeId(dst as u64), Tagged { tag });
            }
        }
    }

    fn on_message(&mut self, _from: NodeId, msg: Tagged, _ctx: &mut Ctx<Tagged>) {
        if !self.seen.insert(msg.tag) {
            self.duplicates += 1;
        }
    }

    fn done(&self) -> bool {
        self.fired && self.seen.len() == self.expected()
    }
}

fn build(n: usize, per_peer: u64) -> Vec<Spammer> {
    (0..n).map(|me| Spammer::new(me, n, per_peer)).collect()
}

fn assert_exactly_once(nodes: &[Spammer]) {
    for node in nodes {
        assert_eq!(node.duplicates, 0, "node {} saw duplicates", node.me);
        assert_eq!(
            node.seen.len(),
            node.expected(),
            "node {} lost messages",
            node.me
        );
        // And all tags are addressed to us.
        for tag in &node.seen {
            assert_eq!(((tag >> 20) & 0xFFFFF) as usize, node.me);
        }
    }
}

#[test]
fn sync_scheduler_delivers_exactly_once() {
    let mut sched = SyncScheduler::new(build(9, 20));
    assert!(sched.run_until_quiescent(1000).is_quiescent());
    assert_exactly_once(sched.nodes());
    assert_eq!(sched.metrics.messages, 9 * 8 * 20);
}

#[test]
fn async_scheduler_delivers_exactly_once_for_many_seeds() {
    for seed in 0..20 {
        let mut sched = AsyncScheduler::new(build(6, 10), seed);
        assert!(sched.run_until_quiescent(5_000_000), "seed {seed} stalled");
        assert_exactly_once(sched.nodes());
        assert_eq!(sched.metrics.messages, 6 * 5 * 10);
    }
}

#[test]
fn async_reordering_actually_happens() {
    // Sanity that the adversary is adversarial: one sender, one receiver,
    // sequence tags; the arrival order must differ from the send order for
    // most seeds.
    struct Seq {
        me: usize,
        fired: bool,
        arrivals: Vec<u64>,
    }
    impl Protocol for Seq {
        type Msg = Tagged;
        fn on_activate(&mut self, ctx: &mut Ctx<Tagged>) {
            if self.me == 0 && !self.fired {
                self.fired = true;
                for i in 0..50 {
                    ctx.send(NodeId(1), Tagged { tag: i });
                }
            }
        }
        fn on_message(&mut self, _f: NodeId, m: Tagged, _c: &mut Ctx<Tagged>) {
            self.arrivals.push(m.tag);
        }
        fn done(&self) -> bool {
            self.me == 0 || self.arrivals.len() == 50
        }
    }
    let mut reordered = 0;
    for seed in 0..10 {
        let nodes = vec![
            Seq {
                me: 0,
                fired: false,
                arrivals: vec![],
            },
            Seq {
                me: 1,
                fired: false,
                arrivals: vec![],
            },
        ];
        let mut sched = AsyncScheduler::new(nodes, seed);
        assert!(sched.run_until_quiescent(1_000_000));
        let arr = &sched.nodes()[1].arrivals;
        assert_eq!(arr.len(), 50);
        let sorted = arr.windows(2).all(|w| w[0] <= w[1]);
        if !sorted {
            reordered += 1;
        }
        // All 50 distinct tags made it.
        let set: HashSet<u64> = arr.iter().copied().collect();
        assert_eq!(set.len(), 50);
    }
    assert!(
        reordered >= 9,
        "only {reordered}/10 runs reordered — adversary too tame"
    );
}

#[test]
fn starving_config_still_guarantees_fair_receipt() {
    let mut rng = DetRng::new(0);
    for _ in 0..5 {
        let seed = rng.next_u64_inline();
        let mut sched = AsyncScheduler::new(build(4, 8), seed).with_config(AsyncConfig {
            deliver_bias: 0.05,
            sweep_every: 16,
        });
        assert!(
            sched.run_until_quiescent(20_000_000),
            "stalled at seed {seed}"
        );
        assert_exactly_once(sched.nodes());
    }
}
