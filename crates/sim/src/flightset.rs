//! The async scheduler's in-flight set: a maturity-bucketed calendar queue.
//!
//! Before PR 3 the scheduler kept `Vec<Flight>` and, on every fault-aware
//! step, rebuilt the *eligible* list (messages whose fault-inflated ready
//! time has arrived) with a full O(|in-flight|) scan plus a fresh `Vec` —
//! the dominant cost at 10k+ in-flight messages. This module replaces the
//! scan with incremental maturity tracking while reproducing the old
//! behavior **exactly**, draw for draw:
//!
//! * Storage stays a dense `Vec` with `swap_remove` delivery, so slot order
//!   evolves precisely as the old code's vector did.
//! * A calendar wheel (ready-time buckets over a fixed horizon, heap
//!   overflow beyond it) matures each delayed message at exactly its ready
//!   step — O(1) amortized per message, since each message is bucketed once
//!   and drained once.
//! * A Fenwick tree over slot positions indexes the mature set, so "the
//!   k-th eligible message in slot order" — the exact pick the old scan's
//!   `eligible[k]` made — is a single O(log |slots|) select. When nothing
//!   is immature (every plan without delay inflation) the pick degenerates
//!   to direct indexing: O(1).
//!
//! Flight slots are addressed through a generation-indexed free-list of
//! stable ids, so wheel entries survive `swap_remove` reshuffles and stale
//! events (a message delivered before its maturity event fires) are
//! rejected by generation mismatch. Steady-state stepping allocates
//! nothing: slots, id tables, wheel buckets, and the drain scratch all
//! recycle their capacity.
//!
//! Determinism: none of this touches the adversary's RNG. The scheduler
//! draws exactly the coins it used to (`chance` once when the eligible set
//! is non-empty, `below(eligible_count)` once per delivery), and the
//! position this module returns for draw `k` equals the old `eligible[k]`
//! — pinned by `tests/golden_async.rs` against pre-swap traces.

use crate::envelope::Envelope;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Free-slot sentinel in the id → position table.
const NO_POS: u32 = u32::MAX;

/// Number of calendar buckets (must be a power of two). Covers every fault
/// plan with `delay.max_extra` below the wheel span without touching the
/// overflow heap.
const WHEEL_BUCKETS: usize = 64;

/// One in-flight message: its stable id and the payload. The ready time is
/// not stored — the wheel and the rank index fully capture maturity.
struct Slot<M> {
    id: u32,
    env: Envelope<M>,
}

/// A calendar wheel: events within `WHEEL_BUCKETS` steps of now go into the
/// ring, farther ones into a min-heap, both drained exactly at their step.
struct Wheel {
    buckets: Vec<Vec<(u32, u32)>>,
    overflow: BinaryHeap<Reverse<(u64, u32, u32)>>,
    pending: usize,
}

impl Wheel {
    fn new() -> Wheel {
        Wheel {
            buckets: (0..WHEEL_BUCKETS).map(|_| Vec::new()).collect(),
            overflow: BinaryHeap::new(),
            pending: 0,
        }
    }

    /// Schedule `(id, generation)` to fire at step `at` (strictly in the
    /// future relative to `now`).
    fn push(&mut self, at: u64, now: u64, id: u32, generation: u32) {
        debug_assert!(at > now);
        self.pending += 1;
        if at - now < WHEEL_BUCKETS as u64 {
            self.buckets[(at as usize) & (WHEEL_BUCKETS - 1)].push((id, generation));
        } else {
            self.overflow.push(Reverse((at, id, generation)));
        }
    }

    /// Move every event scheduled for `now` into `out`.
    fn drain_due(&mut self, now: u64, out: &mut Vec<(u32, u32)>) {
        if self.pending == 0 {
            return;
        }
        let bucket = &mut self.buckets[(now as usize) & (WHEEL_BUCKETS - 1)];
        self.pending -= bucket.len();
        out.append(bucket);
        while let Some(&Reverse((at, id, generation))) = self.overflow.peek() {
            if at > now {
                break;
            }
            self.overflow.pop();
            self.pending -= 1;
            out.push((id, generation));
        }
    }
}

/// Fenwick (binary indexed) tree over slot positions with membership bits,
/// supporting O(log n) set/clear/select-k over the marked positions.
struct RankIndex {
    tree: Vec<u32>,
    /// Current membership per position (the tree stores prefix sums of it).
    bits: Vec<bool>,
    /// Power-of-two logical size the select descend walks.
    size: usize,
    count: usize,
}

impl RankIndex {
    fn new() -> RankIndex {
        RankIndex {
            tree: vec![0; 3], // 1-based: size + 1 entries
            bits: vec![false; 2],
            size: 2,
            count: 0,
        }
    }

    /// Ensure position `i` is addressable, growing (and rebuilding) the
    /// tree geometrically — amortized O(1) per insertion.
    fn reserve(&mut self, i: usize) {
        if i < self.size {
            return;
        }
        let mut size = self.size;
        while size <= i {
            size *= 2;
        }
        self.bits.resize(size, false);
        self.size = size;
        self.tree = vec![0; size + 1];
        let bits = std::mem::take(&mut self.bits);
        for (p, _) in bits.iter().enumerate().filter(|(_, b)| **b) {
            let mut j = p + 1;
            while j <= size {
                self.tree[j] += 1;
                j += j & j.wrapping_neg();
            }
        }
        self.bits = bits;
    }

    fn is_set(&self, i: usize) -> bool {
        i < self.bits.len() && self.bits[i]
    }

    fn set(&mut self, i: usize) {
        self.reserve(i);
        if self.bits[i] {
            return;
        }
        self.bits[i] = true;
        self.count += 1;
        let mut j = i + 1;
        while j <= self.size {
            self.tree[j] += 1;
            j += j & j.wrapping_neg();
        }
    }

    fn clear(&mut self, i: usize) {
        if !self.is_set(i) {
            return;
        }
        self.bits[i] = false;
        self.count -= 1;
        let mut j = i + 1;
        while j <= self.size {
            self.tree[j] -= 1;
            j += j & j.wrapping_neg();
        }
    }

    /// Position of the `k`-th marked slot (0-based), in position order.
    fn select(&self, k: usize) -> usize {
        debug_assert!(k < self.count);
        let mut remaining = (k + 1) as u32;
        let mut pos = 0usize;
        let mut half = self.size;
        while half > 0 {
            let next = pos + half;
            if next <= self.size && self.tree[next] < remaining {
                remaining -= self.tree[next];
                pos = next;
            }
            half /= 2;
        }
        pos // tree is 1-based, so `pos` is already the 0-based position
    }
}

/// The in-flight message set. `indexed` chooses whether maturity is
/// maintained; without it this is exactly the old plain vector.
pub(crate) struct FlightSet<M> {
    slots: Vec<Slot<M>>,
    /// id → slot position (`NO_POS` when free).
    pos: Vec<u32>,
    /// id → generation, bumped on free; stale wheel events compare this.
    generation: Vec<u32>,
    free_ids: Vec<u32>,
    /// Mature = ready ≤ now. Maintained only when `indexed`.
    mature: RankIndex,
    mature_wheel: Wheel,
    /// Whether ids, the wheel and the rank index are maintained at all.
    indexed: bool,
    now: u64,
    drain_scratch: Vec<(u32, u32)>,
}

impl<M> FlightSet<M> {
    /// `indexed` when a fault plan can inflate ready times.
    pub(crate) fn new(indexed: bool) -> FlightSet<M> {
        FlightSet {
            slots: Vec::new(),
            pos: Vec::new(),
            generation: Vec::new(),
            free_ids: Vec::new(),
            mature: RankIndex::new(),
            mature_wheel: Wheel::new(),
            indexed,
            now: 0,
            drain_scratch: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Events currently parked in the calendar wheel's overflow heap —
    /// deferrals beyond the wheel horizon. A telemetry gauge: persistent
    /// nonzero spill means the wheel span is undersized for the workload's
    /// delay distribution.
    pub(crate) fn overflow_len(&self) -> usize {
        self.mature_wheel.overflow.len()
    }

    /// All in-flight envelopes in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Envelope<M>> {
        self.slots.iter().map(|s| &s.env)
    }

    fn alloc_id(&mut self) -> u32 {
        if let Some(id) = self.free_ids.pop() {
            return id;
        }
        let id = self.pos.len() as u32;
        self.pos.push(NO_POS);
        self.generation.push(0);
        id
    }

    /// Add a message that becomes deliverable at step `ready`.
    pub(crate) fn push(&mut self, ready: u64, env: Envelope<M>) {
        let at = self.slots.len();
        let id = if self.indexed {
            let id = self.alloc_id();
            self.pos[id as usize] = at as u32;
            if ready <= self.now {
                self.mature.set(at);
            } else {
                self.mature_wheel
                    .push(ready, self.now, id, self.generation[id as usize]);
            }
            id
        } else {
            0
        };
        self.slots.push(Slot { id, env });
    }

    /// Advance the maturity clock to `now`, firing due wheel events. Must
    /// be called once per scheduler step, with `now` increasing by 1.
    pub(crate) fn advance(&mut self, now: u64) {
        self.now = now;
        if !self.indexed {
            return;
        }
        let mut due = std::mem::take(&mut self.drain_scratch);
        self.mature_wheel.drain_due(now, &mut due);
        for (id, generation) in due.drain(..) {
            if self.generation[id as usize] == generation {
                let p = self.pos[id as usize];
                debug_assert_ne!(p, NO_POS);
                self.mature.set(p as usize);
            }
        }
        self.drain_scratch = due;
    }

    /// Number of messages with `ready <= now` (requires `indexed`).
    pub(crate) fn eligible_count(&self) -> usize {
        debug_assert!(self.indexed);
        self.mature.count
    }

    /// Slot position of the `k`-th eligible message in slot order — exactly
    /// the `eligible[k]` of the old per-step scan.
    pub(crate) fn pick_eligible(&self, k: usize) -> usize {
        if self.mature.count == self.slots.len() {
            return k; // nothing immature: eligible order == slot order
        }
        self.mature.select(k)
    }

    /// Remove and return the message at slot `idx`, exactly like the old
    /// `Vec::swap_remove`: the last slot (if any) moves into `idx`.
    pub(crate) fn swap_remove(&mut self, idx: usize) -> Envelope<M> {
        let last = self.slots.len() - 1;
        if self.indexed {
            let id = self.slots[idx].id as usize;
            self.pos[id] = NO_POS;
            self.generation[id] = self.generation[id].wrapping_add(1);
            self.free_ids.push(id as u32);
            self.mature.clear(idx);
            if idx != last {
                let moved_id = self.slots[last].id as usize;
                self.pos[moved_id] = idx as u32;
                if self.mature.is_set(last) {
                    self.mature.clear(last);
                    self.mature.set(idx);
                }
            }
        }
        self.slots.swap_remove(idx).env
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpq_core::NodeId;

    fn env(tag: u64) -> Envelope<u64> {
        Envelope::new(NodeId(0), NodeId(1), tag)
    }

    /// Reference model: the old Vec<(ready, tag)> with a linear scan.
    struct Model {
        flights: Vec<(u64, u64)>,
    }

    impl Model {
        fn eligible(&self, now: u64) -> Vec<usize> {
            self.flights
                .iter()
                .enumerate()
                .filter(|(_, f)| f.0 <= now)
                .map(|(i, _)| i)
                .collect()
        }
    }

    #[test]
    fn matches_linear_scan_model_under_churn() {
        // Deterministic pseudo-random workload: pushes with varying delays,
        // removals by pseudo-random eligible rank; every step cross-checks
        // eligible count and pick against the O(n)-scan model.
        let mut fs: FlightSet<u64> = FlightSet::new(true);
        let mut model = Model {
            flights: Vec::new(),
        };
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut tag = 0u64;
        for now in 1..1200u64 {
            fs.advance(now);
            for _ in 0..(rng() % 4) {
                let extra = rng() % 90; // exercises the overflow heap too
                let ready = now + extra;
                fs.push(ready, env(tag));
                model.flights.push((ready, tag));
                tag += 1;
            }
            let elig = model.eligible(now);
            assert_eq!(fs.eligible_count(), elig.len(), "count at now={now}");
            if !elig.is_empty() && rng() % 3 != 0 {
                let k = (rng() % elig.len() as u64) as usize;
                let idx = fs.pick_eligible(k);
                assert_eq!(idx, elig[k], "pick k={k} at now={now}");
                let got = fs.swap_remove(idx);
                let want = model.flights.swap_remove(idx);
                assert_eq!(got.msg, want.1, "payload at now={now}");
            }
            assert_eq!(fs.len(), model.flights.len());
        }
        assert!(tag > 500, "workload too small to be meaningful");
    }

    #[test]
    fn unindexed_mode_is_a_plain_vector() {
        let mut fs: FlightSet<u64> = FlightSet::new(false);
        for i in 0..100 {
            fs.push(0, env(i));
        }
        assert_eq!(fs.len(), 100);
        // swap_remove semantics: last element replaces the removed slot.
        let gone = fs.swap_remove(3);
        assert_eq!(gone.msg, 3);
        assert_eq!(fs.swap_remove(3).msg, 99);
        assert_eq!(fs.len(), 98);
        assert!(fs.pos.is_empty(), "no id table in unindexed mode");
    }

    #[test]
    fn stale_wheel_events_are_ignored_by_generation() {
        let mut fs: FlightSet<u64> = FlightSet::new(true);
        fs.advance(1);
        fs.push(5, env(0)); // immature; maturity event scheduled at 5
        assert_eq!(fs.eligible_count(), 0);
        fs.swap_remove(0); // removed before its event fires
        fs.push(8, env(1)); // reuses the freed id with a bumped generation

        // The stale event at 5 must not mark the reused slot mature; the
        // new message's own event (8) is not yet due.
        for now in 2..=7 {
            fs.advance(now);
            assert_eq!(fs.eligible_count(), 0, "stale event fired at now={now}");
        }
        fs.advance(8);
        assert_eq!(fs.eligible_count(), 1);
        assert_eq!(fs.pick_eligible(0), 0);
    }

    #[test]
    fn rank_index_select_matches_naive() {
        let mut ri = RankIndex::new();
        let marked = [3usize, 5, 17, 40, 41, 100, 255];
        for &m in &marked {
            ri.set(m);
        }
        assert_eq!(ri.count, marked.len());
        for (k, &m) in marked.iter().enumerate() {
            assert_eq!(ri.select(k), m);
        }
        ri.clear(17);
        assert_eq!(ri.select(2), 40);
        ri.set(0);
        assert_eq!(ri.select(0), 0);
    }
}
