//! Deterministic fault injection.
//!
//! The paper proves Skeap/Seap correct under an asynchronous adversary that
//! delays and reorders but never loses, duplicates, or partitions messages
//! (§1.1). A production deployment sees all of those, so the schedulers
//! accept a [`FaultPlan`]: a seeded, fully deterministic description of
//!
//! * per-link **drop** and **duplicate** probabilities (a global pair plus
//!   per-link overrides),
//! * scheduled **partitions** with heal times (links crossing the cut drop
//!   messages at delivery time while the cut is live),
//! * **crash-stop** and **crash-recover** node events (fail-pause: a down
//!   node neither runs nor receives, its state and stored elements survive),
//! * per-message **delay inflation** (a message is withheld for extra
//!   logical time before it becomes deliverable).
//!
//! All randomness comes from the plan's own [`DetRng`] stream, *separate*
//! from the scheduler's adversary stream — so attaching an all-zero plan
//! leaves a run bit-for-bit identical to an unfaulted one, and the same
//! `(seed, plan)` pair always replays the same faults. Every injected fault
//! is surfaced through `dpq-trace` ([`dpq_trace::TraceEvent::FaultDrop`]
//! et al.), so a trace shows exactly which message died and why.
//!
//! Protocols survive a plan only if they retransmit and deduplicate — see
//! [`crate::reliable::Reliable`] — and only if every fault heals (partitions
//! end, crashed nodes recover). A crash-stop with no recovery is expressible
//! (`recover: None`) for tests that probe safety under permanent loss.

use crate::envelope::Envelope;
use dpq_core::text::{parse_f64, parse_u64, toml_kv, toml_lines};
use dpq_core::{DetRng, NodeId};
use dpq_telemetry::FaultTotals;
use dpq_trace::{DropReason, TraceEvent, Tracer};

/// Per-link override of the global drop/duplicate probabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFault {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Probability a message on this link is dropped at send time.
    pub drop: f64,
    /// Probability a message on this link is duplicated at send time.
    pub dup: f64,
}

/// A scheduled network partition: while `start <= now < heal`, every link
/// with exactly one endpoint in `island` is cut. Messages attempting
/// delivery across the cut are dropped (senders see silence, exactly like a
/// real partition); messages within either side flow normally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Logical time (round/step) the cut activates, inclusive.
    pub start: u64,
    /// Logical time the cut heals, exclusive. Must be > `start`.
    pub heal: u64,
    /// One side of the cut; the complement is the other side.
    pub island: Vec<NodeId>,
}

/// A scheduled node crash. Fail-pause semantics: from `at` until `recover`
/// (forever when `None` — crash-stop), the node is neither activated nor
/// delivered to; messages addressed to it die at delivery time. Its state —
/// protocol state, DHT shard, transport buffers — survives, so a recovering
/// node resumes exactly where it stopped and retransmission heals the gap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// The node that crashes.
    pub node: NodeId,
    /// Logical time of the crash, inclusive.
    pub at: u64,
    /// Logical time of recovery (exclusive down-window end), or `None` for
    /// crash-stop. Must be > `at` when present.
    pub recover: Option<u64>,
}

/// Per-message delay inflation: with probability `prob`, a sent message is
/// withheld for an extra `1..=max_extra` logical time units (uniform)
/// before it becomes deliverable.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DelayInflation {
    /// Probability a message is delayed.
    pub prob: f64,
    /// Maximum extra delay, in rounds/steps. Zero disables inflation.
    pub max_extra: u64,
}

/// A complete, seeded fault schedule for one run.
///
/// `FaultPlan::default()` (= [`FaultPlan::none`]) injects nothing and is
/// observationally identical to running without a fault layer at all.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed of the plan's private randomness stream (drop/dup/delay coins).
    pub seed: u64,
    /// Global per-message drop probability.
    pub drop: f64,
    /// Global per-message duplicate probability.
    pub dup: f64,
    /// Per-link overrides (first match wins; falls back to the globals).
    pub links: Vec<LinkFault>,
    /// Scheduled partitions.
    pub partitions: Vec<Partition>,
    /// Scheduled crashes.
    pub crashes: Vec<CrashEvent>,
    /// Per-message delay inflation.
    pub delay: DelayInflation,
}

impl FaultPlan {
    /// The empty plan: no faults, observationally identical to no fault
    /// layer.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan with uniform drop/duplicate probabilities on every link.
    pub fn uniform(seed: u64, drop: f64, dup: f64) -> Self {
        FaultPlan {
            seed,
            drop,
            dup,
            ..FaultPlan::default()
        }
    }

    /// Add a per-link override.
    pub fn with_link(mut self, src: NodeId, dst: NodeId, drop: f64, dup: f64) -> Self {
        self.links.push(LinkFault {
            src,
            dst,
            drop,
            dup,
        });
        self
    }

    /// Add a scheduled partition.
    pub fn with_partition(mut self, start: u64, heal: u64, island: Vec<NodeId>) -> Self {
        self.partitions.push(Partition {
            start,
            heal,
            island,
        });
        self
    }

    /// Add a scheduled crash (`recover: None` = crash-stop).
    pub fn with_crash(mut self, node: NodeId, at: u64, recover: Option<u64>) -> Self {
        self.crashes.push(CrashEvent { node, at, recover });
        self
    }

    /// Enable per-message delay inflation.
    pub fn with_delay(mut self, prob: f64, max_extra: u64) -> Self {
        self.delay = DelayInflation { prob, max_extra };
        self
    }

    /// Does this plan inject nothing at all?
    pub fn is_null(&self) -> bool {
        self.drop == 0.0
            && self.dup == 0.0
            && self.links.is_empty()
            && self.partitions.is_empty()
            && self.crashes.is_empty()
            && (self.delay.prob == 0.0 || self.delay.max_extra == 0)
    }

    /// Panic if the plan is malformed or references a node outside `0..n`.
    pub fn validate(&self, n: usize) {
        let prob_ok = |p: f64| (0.0..=1.0).contains(&p);
        assert!(prob_ok(self.drop), "drop probability out of [0,1]");
        assert!(prob_ok(self.dup), "dup probability out of [0,1]");
        assert!(prob_ok(self.delay.prob), "delay probability out of [0,1]");
        let node_ok = |v: NodeId| (v.index()) < n;
        for l in &self.links {
            assert!(prob_ok(l.drop) && prob_ok(l.dup), "link probability");
            assert!(node_ok(l.src) && node_ok(l.dst), "link endpoint >= n");
        }
        for p in &self.partitions {
            assert!(p.heal > p.start, "partition heals no later than it starts");
            assert!(p.island.iter().all(|&v| node_ok(v)), "island node >= n");
        }
        for c in &self.crashes {
            assert!(node_ok(c.node), "crash node >= n");
            if let Some(r) = c.recover {
                assert!(r > c.at, "recovery no later than the crash");
            }
        }
    }

    /// Parse a plan from the `--faults` TOML dialect (see module docs of
    /// [`crate::faults`] and `scripts/check.sh` for examples):
    ///
    /// ```toml
    /// seed = 7
    /// drop = 0.05
    /// dup = 0.05
    ///
    /// [delay]
    /// prob = 0.1
    /// max_extra = 16
    ///
    /// [[partition]]
    /// start = 2000
    /// heal = 6000
    /// island = [0, 1, 2]
    ///
    /// [[crash]]
    /// node = 3
    /// at = 1500
    /// recover = 9000      # omit for crash-stop
    ///
    /// [[link]]
    /// src = 0
    /// dst = 4
    /// drop = 0.25
    /// dup = 0.0
    /// ```
    ///
    /// Only this flat subset of TOML is understood (the workspace takes no
    /// parser dependency); unknown keys are errors so typos surface loudly.
    pub fn from_toml(text: &str) -> Result<FaultPlan, String> {
        parse_toml(text)
    }
}

/// What the fault layer decided about one sent message.
///
/// `copies` is 0 (dropped at send time), 1, or 2 (duplicated); each copy
/// carries its own extra delay in `extra[i]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendVerdict {
    /// Number of copies actually entering the network.
    pub copies: u8,
    /// Extra delivery delay of each copy, in logical time units.
    pub extra: [u64; 2],
}

impl SendVerdict {
    /// The no-fault verdict: one copy, no extra delay.
    pub const CLEAN: SendVerdict = SendVerdict {
        copies: 1,
        extra: [0, 0],
    };
}

/// A crash/partition transition that fired while advancing the fault clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTransition {
    /// A node went down.
    Crash {
        /// The crashed node.
        node: NodeId,
    },
    /// A node came back.
    Recover {
        /// The recovered node.
        node: NodeId,
    },
    /// A partition cut went live.
    PartitionStart {
        /// Index of the partition in the plan.
        id: u64,
        /// Size of the island side.
        island: u64,
    },
    /// A partition cut healed.
    PartitionHeal {
        /// Index of the partition in the plan.
        id: u64,
    },
}

impl FaultTransition {
    /// The trace event announcing this transition at logical time `round`.
    pub fn to_event(self, round: u64) -> TraceEvent {
        match self {
            FaultTransition::Crash { node } => TraceEvent::NodeCrash { round, node },
            FaultTransition::Recover { node } => TraceEvent::NodeRecover { round, node },
            FaultTransition::PartitionStart { id, island } => {
                TraceEvent::PartitionStart { round, id, island }
            }
            FaultTransition::PartitionHeal { id } => TraceEvent::PartitionHeal { round, id },
        }
    }
}

/// Runtime state the schedulers drive: the plan, its private randomness, the
/// fault clock, and the per-node up/down bitmap.
#[derive(Debug, Clone)]
pub struct FaultState {
    plan: FaultPlan,
    rng: DetRng,
    /// Fast path: false for null plans — every hook returns immediately.
    active: bool,
    /// Logical time the state has been advanced to.
    now: u64,
    /// First logical time whose scheduled events have NOT fired yet.
    next: u64,
    down: Vec<bool>,
    /// Injection counters.
    pub stats: FaultTotals,
}

impl FaultState {
    /// Wrap a validated plan for an `n`-node run.
    pub fn new(plan: FaultPlan, n: usize) -> Self {
        plan.validate(n);
        let active = !plan.is_null();
        let rng = DetRng::new(plan.seed ^ 0xFA17_FA17);
        FaultState {
            plan,
            rng,
            active,
            now: 0,
            next: 0,
            down: vec![false; n],
            stats: FaultTotals::default(),
        }
    }

    /// Does this state inject anything at all? Schedulers use this to skip
    /// every fault hook on the (default) null plan.
    #[inline]
    pub fn active(&self) -> bool {
        self.active
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Is `v` currently crashed?
    #[inline]
    pub fn is_down(&self, v: NodeId) -> bool {
        self.active && self.down[v.index()]
    }

    /// Number of currently-down nodes.
    pub fn down_count(&self) -> usize {
        self.down.iter().filter(|d| **d).count()
    }

    /// Advance the fault clock to `now`, firing every scheduled crash,
    /// recovery, and partition transition in `[last_advanced+1, now]`
    /// (deterministic order: by time, then plan order, crashes before
    /// partitions). The scheduler converts the returned transitions into
    /// trace events.
    pub fn advance_to(&mut self, now: u64) -> Vec<FaultTransition> {
        self.now = now;
        if !self.active || self.next > now {
            return Vec::new();
        }
        let (lo, hi) = (self.next, now);
        self.next = now + 1;
        let in_window = |t: u64| t >= lo && t <= hi;
        // (time, kind-order, plan-index) keyed merge of all transitions.
        let mut fired: Vec<(u64, u8, usize, FaultTransition)> = Vec::new();
        for (i, c) in self.plan.crashes.iter().enumerate() {
            if in_window(c.at) {
                fired.push((c.at, 0, i, FaultTransition::Crash { node: c.node }));
            }
            if let Some(r) = c.recover {
                if in_window(r) {
                    fired.push((r, 1, i, FaultTransition::Recover { node: c.node }));
                }
            }
        }
        for (i, p) in self.plan.partitions.iter().enumerate() {
            if in_window(p.start) {
                fired.push((
                    p.start,
                    2,
                    i,
                    FaultTransition::PartitionStart {
                        id: i as u64,
                        island: p.island.len() as u64,
                    },
                ));
            }
            if in_window(p.heal) {
                fired.push((
                    p.heal,
                    3,
                    i,
                    FaultTransition::PartitionHeal { id: i as u64 },
                ));
            }
        }
        fired.sort_by_key(|&(t, k, i, _)| (t, k, i));
        let out: Vec<FaultTransition> = fired.into_iter().map(|(_, _, _, tr)| tr).collect();
        for tr in &out {
            match *tr {
                FaultTransition::Crash { node } => {
                    self.down[node.index()] = true;
                    self.stats.crashes += 1;
                }
                FaultTransition::Recover { node } => {
                    self.down[node.index()] = false;
                    self.stats.recoveries += 1;
                }
                _ => {}
            }
        }
        out
    }

    /// Is the `a`—`b` link currently cut by an active partition?
    pub fn cut(&self, a: NodeId, b: NodeId) -> bool {
        if !self.active || a == b {
            return false;
        }
        self.plan.partitions.iter().any(|p| {
            p.start <= self.now
                && self.now < p.heal
                && (p.island.contains(&a) != p.island.contains(&b))
        })
    }

    /// Delivery-time check: why (if at all) a message from `src` to `dst`
    /// dies right now. Crash dominates partition in attribution.
    pub fn delivery_fault(&self, src: NodeId, dst: NodeId) -> Option<DropReason> {
        if !self.active {
            return None;
        }
        if self.down[dst.index()] {
            return Some(DropReason::Crash);
        }
        if self.cut(src, dst) {
            return Some(DropReason::Partition);
        }
        None
    }

    /// Record a delivery-time drop in the stats.
    pub fn note_delivery_drop(&mut self, reason: DropReason) {
        match reason {
            DropReason::Chance => self.stats.dropped_chance += 1,
            DropReason::Partition => self.stats.dropped_partition += 1,
            DropReason::Crash => self.stats.dropped_crash += 1,
        }
    }

    /// Send-time verdict for one message: how many copies enter the network
    /// and with what extra delay. Self-sends are exempt (local delivery has
    /// no physical link to fail).
    pub fn on_send(&mut self, src: NodeId, dst: NodeId) -> SendVerdict {
        if !self.active || src == dst {
            return SendVerdict::CLEAN;
        }
        let (drop, dup) = self
            .plan
            .links
            .iter()
            .find(|l| l.src == src && l.dst == dst)
            .map(|l| (l.drop, l.dup))
            .unwrap_or((self.plan.drop, self.plan.dup));
        if drop > 0.0 && self.rng.chance(drop) {
            self.stats.dropped_chance += 1;
            return SendVerdict {
                copies: 0,
                extra: [0, 0],
            };
        }
        let copies = if dup > 0.0 && self.rng.chance(dup) {
            self.stats.duplicated += 1;
            2
        } else {
            1
        };
        let mut extra = [0u64; 2];
        let d = self.plan.delay;
        if d.prob > 0.0 && d.max_extra > 0 {
            for e in extra.iter_mut().take(copies as usize) {
                if self.rng.chance(d.prob) {
                    *e = self.rng.range(1, d.max_extra);
                    self.stats.delayed += 1;
                }
            }
        }
        SendVerdict { copies, extra }
    }

    /// Route one outgoing message through the send-time fault pipeline:
    /// draw the verdict, emit the matching trace events, and hand every
    /// surviving copy to `enqueue` together with its extra delay. This is
    /// the one shared implementation of the drop/duplicate/delay branch
    /// both schedulers execute per message; the event order (a lone
    /// `FaultDrop`, or enqueue-original → `FaultDuplicate` → enqueue-copy)
    /// is part of the pinned golden traces — don't reorder it.
    pub(crate) fn route_send<M: Clone, T: Tracer>(
        &mut self,
        now: u64,
        env: Envelope<M>,
        tracer: &mut T,
        mut enqueue: impl FnMut(u64, Envelope<M>),
    ) {
        let verdict = self.on_send(env.src, env.dst);
        if verdict.copies == 0 {
            if T::ENABLED {
                tracer.record(TraceEvent::FaultDrop {
                    round: now,
                    src: env.src,
                    dst: env.dst,
                    kind: env.kind,
                    bits: env.bits,
                    reason: DropReason::Chance,
                });
            }
            return;
        }
        let dup = (verdict.copies == 2).then(|| env.clone());
        enqueue(verdict.extra[0], env);
        if let Some(copy) = dup {
            if T::ENABLED {
                tracer.record(TraceEvent::FaultDuplicate {
                    round: now,
                    src: copy.src,
                    dst: copy.dst,
                    kind: copy.kind,
                });
            }
            enqueue(verdict.extra[1], copy);
        }
    }
}

// ---------------------------------------------------------------------------
// Fault-matrix cells
// ---------------------------------------------------------------------------

/// One cell of the fault-matrix conformance grid: a named plan.
#[derive(Debug, Clone)]
pub struct FaultCell {
    /// Short cell label, e.g. `"drop5+dup5+part"`.
    pub name: String,
    /// The cell's plan.
    pub plan: FaultPlan,
}

/// The standard conformance grid: the cross product of
/// {no drop, `drop`} × {no dup, `dup`} × {no partition, one half-split
/// partition} × {no crash, one crash-recover}, 16 cells.
///
/// Times are placed relative to `horizon`, the expected logical run length
/// (rounds for the synchronous scheduler, steps for the asynchronous one):
/// the partition cuts the first ⌈n/3⌉ nodes away during
/// `[horizon/8, horizon/4)`, and the crash takes down node `n-1` (never the
/// anchor of a fresh topology, which keeps the victim interesting but the
/// phase sequencer alive for recovery-latency attribution) during
/// `[horizon/6, horizon/3)`. Every fault heals, so a retransmitting protocol
/// must eventually finish every cell.
pub fn fault_matrix(n: usize, seed: u64, horizon: u64, drop: f64, dup: f64) -> Vec<FaultCell> {
    assert!(n >= 2, "matrix needs at least two nodes");
    let island: Vec<NodeId> = (0..n.div_ceil(3)).map(|v| NodeId(v as u64)).collect();
    let victim = NodeId(n as u64 - 1);
    let mut cells = Vec::new();
    for &with_drop in &[false, true] {
        for &with_dup in &[false, true] {
            for &with_part in &[false, true] {
                for &with_crash in &[false, true] {
                    let mut plan = FaultPlan::uniform(
                        seed,
                        if with_drop { drop } else { 0.0 },
                        if with_dup { dup } else { 0.0 },
                    );
                    let mut name = Vec::new();
                    if with_drop {
                        name.push(format!("drop{}", (drop * 100.0).round() as u64));
                    }
                    if with_dup {
                        name.push(format!("dup{}", (dup * 100.0).round() as u64));
                    }
                    if with_part {
                        plan = plan.with_partition(horizon / 8, horizon / 4, island.clone());
                        name.push("part".into());
                    }
                    if with_crash {
                        plan = plan.with_crash(victim, horizon / 6, Some(horizon / 3));
                        name.push("crash".into());
                    }
                    let name = if name.is_empty() {
                        "clean".to_string()
                    } else {
                        name.join("+")
                    };
                    cells.push(FaultCell { name, plan });
                }
            }
        }
    }
    cells
}

// ---------------------------------------------------------------------------
// TOML subset parser
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Top,
    Delay,
    Partition,
    Crash,
    Link,
}

fn parse_node_list(v: &str, line: usize) -> Result<Vec<NodeId>, String> {
    let inner = v
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| format!("line {line}: expected [a, b, ...], got `{v}`"))?;
    inner
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| parse_u64(s, line).map(NodeId))
        .collect()
}

fn parse_toml(text: &str) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan::none();
    let mut section = Section::Top;
    for (line_no, line) in toml_lines(text) {
        if let Some(header) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
            section = match header.trim() {
                "partition" => {
                    plan.partitions.push(Partition {
                        start: 0,
                        heal: 0,
                        island: Vec::new(),
                    });
                    Section::Partition
                }
                "crash" => {
                    plan.crashes.push(CrashEvent {
                        node: NodeId(0),
                        at: 0,
                        recover: None,
                    });
                    Section::Crash
                }
                "link" => {
                    plan.links.push(LinkFault {
                        src: NodeId(0),
                        dst: NodeId(0),
                        drop: 0.0,
                        dup: 0.0,
                    });
                    Section::Link
                }
                other => return Err(format!("line {line_no}: unknown table `[[{other}]]`")),
            };
            continue;
        }
        if let Some(header) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            section = match header.trim() {
                "delay" => Section::Delay,
                other => return Err(format!("line {line_no}: unknown section `[{other}]`")),
            };
            continue;
        }
        let (key, value) = toml_kv(line, line_no)?;
        match section {
            Section::Top => match key {
                "seed" => plan.seed = parse_u64(value, line_no)?,
                "drop" => plan.drop = parse_f64(value, line_no)?,
                "dup" => plan.dup = parse_f64(value, line_no)?,
                _ => return Err(format!("line {line_no}: unknown key `{key}`")),
            },
            Section::Delay => match key {
                "prob" => plan.delay.prob = parse_f64(value, line_no)?,
                "max_extra" => plan.delay.max_extra = parse_u64(value, line_no)?,
                _ => return Err(format!("line {line_no}: unknown delay key `{key}`")),
            },
            Section::Partition => {
                let p = plan.partitions.last_mut().expect("section implies entry");
                match key {
                    "start" => p.start = parse_u64(value, line_no)?,
                    "heal" => p.heal = parse_u64(value, line_no)?,
                    "island" => p.island = parse_node_list(value, line_no)?,
                    _ => return Err(format!("line {line_no}: unknown partition key `{key}`")),
                }
            }
            Section::Crash => {
                let c = plan.crashes.last_mut().expect("section implies entry");
                match key {
                    "node" => c.node = NodeId(parse_u64(value, line_no)?),
                    "at" => c.at = parse_u64(value, line_no)?,
                    "recover" => c.recover = Some(parse_u64(value, line_no)?),
                    _ => return Err(format!("line {line_no}: unknown crash key `{key}`")),
                }
            }
            Section::Link => {
                let l = plan.links.last_mut().expect("section implies entry");
                match key {
                    "src" => l.src = NodeId(parse_u64(value, line_no)?),
                    "dst" => l.dst = NodeId(parse_u64(value, line_no)?),
                    "drop" => l.drop = parse_f64(value, line_no)?,
                    "dup" => l.dup = parse_f64(value, line_no)?,
                    _ => return Err(format!("line {line_no}: unknown link key `{key}`")),
                }
            }
        }
    }
    Ok(plan)
}

impl dpq_core::StateHash for FaultState {
    fn state_hash(&self, h: &mut dpq_core::StateHasher) {
        // The plan itself is static configuration (already part of the
        // scenario identity); what varies along an execution is the fault
        // RNG stream, the transition clock, and the down map. `stats` is
        // telemetry and deliberately excluded.
        self.rng.state_hash(h);
        h.write_u64(self.now);
        h.write_u64(self.next);
        self.down.state_hash(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_plan_is_inert() {
        let mut st = FaultState::new(FaultPlan::none(), 4);
        assert!(!st.active());
        assert_eq!(st.on_send(NodeId(0), NodeId(1)), SendVerdict::CLEAN);
        assert!(st.advance_to(100).is_empty());
        assert_eq!(st.delivery_fault(NodeId(0), NodeId(1)), None);
        assert!(!st.is_down(NodeId(2)));
        assert_eq!(st.stats, FaultTotals::default());
    }

    #[test]
    fn drop_rate_is_roughly_honoured_and_deterministic() {
        let run = |seed| {
            let mut st = FaultState::new(FaultPlan::uniform(seed, 0.3, 0.0), 2);
            let mut dropped = 0;
            for _ in 0..10_000 {
                if st.on_send(NodeId(0), NodeId(1)).copies == 0 {
                    dropped += 1;
                }
            }
            dropped
        };
        let d = run(1);
        assert!((2_500..3_500).contains(&d), "drop count {d} far from 30%");
        assert_eq!(run(1), d, "same seed must replay the same faults");
        assert_ne!(run(2), d);
    }

    #[test]
    fn self_sends_are_exempt() {
        let mut st = FaultState::new(FaultPlan::uniform(0, 1.0, 1.0), 2);
        for _ in 0..100 {
            assert_eq!(st.on_send(NodeId(1), NodeId(1)), SendVerdict::CLEAN);
        }
    }

    #[test]
    fn duplicates_and_delays_compose() {
        let mut st = FaultState::new(FaultPlan::uniform(3, 0.0, 1.0).with_delay(1.0, 8), 2);
        let v = st.on_send(NodeId(0), NodeId(1));
        assert_eq!(v.copies, 2);
        assert!(v.extra[0] >= 1 && v.extra[0] <= 8);
        assert!(v.extra[1] >= 1 && v.extra[1] <= 8);
        assert_eq!(st.stats.duplicated, 1);
        assert_eq!(st.stats.delayed, 2);
    }

    #[test]
    fn per_link_override_beats_global() {
        let plan = FaultPlan::uniform(0, 0.0, 0.0).with_link(NodeId(0), NodeId(1), 1.0, 0.0);
        let mut st = FaultState::new(plan, 3);
        assert_eq!(st.on_send(NodeId(0), NodeId(1)).copies, 0);
        // Other direction and other links use the (zero) globals.
        assert_eq!(st.on_send(NodeId(1), NodeId(0)).copies, 1);
        assert_eq!(st.on_send(NodeId(0), NodeId(2)).copies, 1);
    }

    #[test]
    fn crash_window_downs_the_node_and_recovers() {
        let plan = FaultPlan::none().with_crash(NodeId(1), 10, Some(20));
        let mut st = FaultState::new(plan, 3);
        assert!(st.advance_to(9).is_empty());
        assert!(!st.is_down(NodeId(1)));
        let tr = st.advance_to(10);
        assert_eq!(tr, vec![FaultTransition::Crash { node: NodeId(1) }]);
        assert!(st.is_down(NodeId(1)));
        assert_eq!(
            st.delivery_fault(NodeId(0), NodeId(1)),
            Some(DropReason::Crash)
        );
        assert_eq!(st.delivery_fault(NodeId(1), NodeId(0)), None);
        // Jumping the clock past the recovery still fires it exactly once.
        let tr = st.advance_to(25);
        assert_eq!(tr, vec![FaultTransition::Recover { node: NodeId(1) }]);
        assert!(!st.is_down(NodeId(1)));
        assert!(st.advance_to(30).is_empty());
        assert_eq!(st.stats.crashes, 1);
        assert_eq!(st.stats.recoveries, 1);
    }

    #[test]
    fn crash_stop_never_recovers() {
        let plan = FaultPlan::none().with_crash(NodeId(0), 5, None);
        let mut st = FaultState::new(plan, 2);
        st.advance_to(1_000_000);
        assert!(st.is_down(NodeId(0)));
        assert_eq!(st.down_count(), 1);
    }

    #[test]
    fn partition_cuts_exactly_the_crossing_links() {
        let plan = FaultPlan::none().with_partition(5, 15, vec![NodeId(0), NodeId(1)]);
        let mut st = FaultState::new(plan, 4);
        st.advance_to(4);
        assert!(!st.cut(NodeId(0), NodeId(2)));
        let tr = st.advance_to(5);
        assert_eq!(
            tr,
            vec![FaultTransition::PartitionStart { id: 0, island: 2 }]
        );
        assert!(st.cut(NodeId(0), NodeId(2)));
        assert!(st.cut(NodeId(3), NodeId(1)));
        assert!(!st.cut(NodeId(0), NodeId(1)), "within the island");
        assert!(!st.cut(NodeId(2), NodeId(3)), "within the mainland");
        assert_eq!(
            st.delivery_fault(NodeId(0), NodeId(2)),
            Some(DropReason::Partition)
        );
        let tr = st.advance_to(15);
        assert_eq!(tr, vec![FaultTransition::PartitionHeal { id: 0 }]);
        assert!(!st.cut(NodeId(0), NodeId(2)));
    }

    #[test]
    fn transitions_fire_in_time_order() {
        let plan = FaultPlan::none()
            .with_partition(7, 9, vec![NodeId(0)])
            .with_crash(NodeId(1), 8, Some(9))
            .with_crash(NodeId(2), 7, None);
        let mut st = FaultState::new(plan, 3);
        let tr = st.advance_to(20);
        assert_eq!(
            tr,
            vec![
                FaultTransition::Crash { node: NodeId(2) },
                FaultTransition::PartitionStart { id: 0, island: 1 },
                FaultTransition::Crash { node: NodeId(1) },
                FaultTransition::Recover { node: NodeId(1) },
                FaultTransition::PartitionHeal { id: 0 },
            ]
        );
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_is_rejected() {
        FaultState::new(FaultPlan::uniform(0, 1.5, 0.0), 2);
    }

    #[test]
    #[should_panic(expected = ">= n")]
    fn out_of_range_node_is_rejected() {
        FaultState::new(FaultPlan::none().with_crash(NodeId(9), 0, None), 2);
    }

    #[test]
    fn matrix_covers_the_cross_product() {
        let cells = fault_matrix(6, 1, 8000, 0.05, 0.05);
        assert_eq!(cells.len(), 16);
        assert_eq!(cells[0].name, "clean");
        assert!(cells[0].plan.is_null());
        assert!(cells.iter().any(|c| c.name == "drop5+dup5+part+crash"));
        // Every faulty cell heals: all partitions end, all crashes recover.
        for c in &cells {
            c.plan.validate(6);
            assert!(c.plan.crashes.iter().all(|e| e.recover.is_some()));
        }
        // Names are unique.
        let mut names: Vec<&str> = cells.iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 16);
    }

    #[test]
    fn toml_roundtrip_covers_every_section() {
        let text = r#"
# a full plan
seed = 7
drop = 0.05
dup = 0.1   # inline comment

[delay]
prob = 0.5
max_extra = 16

[[partition]]
start = 100
heal = 200
island = [0, 1, 2]

[[crash]]
node = 3
at = 150
recover = 400

[[crash]]
node = 1
at = 500

[[link]]
src = 0
dst = 4
drop = 0.25
dup = 0.0
"#;
        let plan = FaultPlan::from_toml(text).expect("parses");
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.drop, 0.05);
        assert_eq!(plan.dup, 0.1);
        assert_eq!(
            plan.delay,
            DelayInflation {
                prob: 0.5,
                max_extra: 16
            }
        );
        assert_eq!(
            plan.partitions,
            vec![Partition {
                start: 100,
                heal: 200,
                island: vec![NodeId(0), NodeId(1), NodeId(2)],
            }]
        );
        assert_eq!(plan.crashes.len(), 2);
        assert_eq!(plan.crashes[0].recover, Some(400));
        assert_eq!(
            plan.crashes[1],
            CrashEvent {
                node: NodeId(1),
                at: 500,
                recover: None
            }
        );
        assert_eq!(plan.links.len(), 1);
        plan.validate(5);
    }

    #[test]
    fn toml_rejects_unknown_keys() {
        assert!(FaultPlan::from_toml("dorp = 0.1").is_err());
        assert!(FaultPlan::from_toml("[delays]\nprob = 1").is_err());
        assert!(FaultPlan::from_toml("[[crashes]]\nnode = 1").is_err());
        assert!(FaultPlan::from_toml("drop 0.1").is_err());
        assert!(FaultPlan::from_toml("drop = zero").is_err());
        assert!(FaultPlan::from_toml("[[partition]]\nisland = 3").is_err());
    }

    #[test]
    fn empty_toml_is_the_null_plan() {
        let plan = FaultPlan::from_toml("# nothing\n").unwrap();
        assert!(plan.is_null());
        assert_eq!(plan, FaultPlan::none());
    }
}
