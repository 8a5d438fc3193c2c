//! The Seap per-node state machine (§5).
//!
//! Seap alternates global **Insert phases** (even phase numbers) and
//! **DeleteMin phases** (odd):
//!
//! * Insert phase: aggregate the number of buffered inserts to the anchor,
//!   broadcast "start", store every element under a fresh uniformly random
//!   DHT key, wait for all confirmations (completion wave).
//! * DeleteMin phase: aggregate the number of buffered deletes, run the
//!   embedded **KSelect** for the rank-`k_eff` key (k_eff = min(k, m)),
//!   count/collect the k_eff smallest stored elements, re-store them under
//!   position keys `h(phase, pos)` via interval decomposition, hand each
//!   deleting node a sub-interval of positions to fetch (excess deletes
//!   answer ⊥), wait for completion.
//!
//! Each operation receives a witness value `phase · 2³² + offset`; the
//! phase-aware checker ([`crate::checker`]) refines delete order within a
//! phase by returned key — legitimate because Seap promises only
//! serializability, not local consistency (§1.4(3)).
//!
//! Position keys embed the phase (`poskey`), which makes key reuse across
//! phases impossible by construction rather than by barrier — a deliberate
//! tightening of the paper's plain `h(pos)` (see DESIGN.md).

use crate::msgs::SeapMsg;
use dpq_agg::{Collector, Interval};
use dpq_core::hashing::domains;
use dpq_core::{DetRng, Element, Key, NodeHistory, NodeId, OpId, OpKind, OpReturn};
use dpq_dht::client::Completion;
use dpq_dht::{point_for, DhtClient, DhtReq, DhtShard};
use dpq_overlay::routing::{advance, RouteMsg, RouteOutcome};
use dpq_overlay::NodeView;
use dpq_sim::{Ctx, Protocol, QueueNode};
use kselect::{KMsg, KSelectConfig, KSelectNode};

/// Logical-key namespaces: random insert keys live below `POS_BASE`,
/// position keys above.
const POS_BASE: u64 = 1 << 63;

/// Position key for (phase, pos): distinct across phases by construction.
#[inline]
pub fn poskey(phase: u64, pos: u64) -> u64 {
    debug_assert!(phase < (1 << 22) && pos < (1 << 40));
    POS_BASE | (phase << 40) | pos
}

/// DHT-client token space: operation tokens are the op's issue sequence
/// (small); reposition puts use this offset.
const REPOS_TOKEN: u64 = 1 << 40;

/// Witness encoding: `phase << 32 | offset`.
#[inline]
pub fn witness_phase(w: u64) -> u64 {
    w >> 32
}

fn wit_interval(phase: u64, count: u64) -> Interval {
    if count == 0 {
        Interval::EMPTY
    } else {
        Interval::new(phase << 32, (phase << 32) + count - 1)
    }
}

/// Configuration of a Seap instance.
#[derive(Debug, Clone, Copy)]
pub struct SeapConfig {
    /// Configuration of the embedded KSelect (announce is forced off).
    pub kselect: KSelectConfig,
    /// Seed for insert-key randomness and KSelect sampling.
    pub seed: u64,
}

impl SeapConfig {
    /// Default configuration (embedded KSelect with announce off).
    pub fn new(seed: u64) -> Self {
        SeapConfig {
            kselect: KSelectConfig {
                announce: false,
                ..KSelectConfig::default()
            },
            seed,
        }
    }
}

/// Anchor sub-state within a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AStage {
    InsCount,
    InsWork,
    DelCount,
    KSel,
    StoreCount,
    DelWork,
}

/// Anchor bookkeeping.
#[derive(Debug)]
struct SeapAnchor {
    stage: AStage,
    /// Heap size (the paper's v₀.m): elements stored under random keys.
    m: u64,
    k_del: u64,
    k_eff: u64,
    key_k: Option<Key>,
    /// The last request count wave aggregated zero. Read only by
    /// [`SeapNode::anchor_idle`], and not part of the state hash.
    counted_none: bool,
}

/// One Seap node.
pub struct SeapNode {
    /// Local topology knowledge.
    pub view: NodeView,
    /// Instance configuration.
    pub cfg: SeapConfig,
    /// Recorded requests and returns.
    pub history: NodeHistory,
    rng: DetRng,
    ins_buf: Vec<(OpId, Element)>,
    del_buf: Vec<OpId>,
    elem_seq: u64,

    phase: u64,
    started: bool,
    snapshot_ins: Vec<(OpId, Element)>,
    snapshot_del: Vec<OpId>,

    collector_count: Collector<u64>,
    own_count: Option<u64>,
    child_ins_counts: Vec<u64>,
    child_del_counts: Vec<u64>,
    child_store_counts: Vec<u64>,

    collector_done: Collector<()>,
    awaiting_done: bool,
    pending_acks: usize,
    pending_gets: usize,
    repos_seq: u64,

    ks: Option<KSelectNode>,
    anchor: Option<SeapAnchor>,

    /// This node's DHT storage.
    pub shard: DhtShard,
    client: DhtClient,
}

impl SeapNode {
    /// A fresh node; the anchor (per the view) gets the phase sequencer.
    pub fn new(view: NodeView, cfg: SeapConfig) -> Self {
        let collector_count = Collector::new(&view.children());
        let collector_done = Collector::new(&view.children());
        let anchor = view.is_anchor().then_some(SeapAnchor {
            stage: AStage::InsCount,
            m: 0,
            k_del: 0,
            k_eff: 0,
            key_k: None,
            counted_none: false,
        });
        let rng = DetRng::new(cfg.seed ^ 0x5EA9).split(view.me().0);
        SeapNode {
            view,
            cfg,
            history: NodeHistory::default(),
            rng,
            ins_buf: Vec::new(),
            del_buf: Vec::new(),
            elem_seq: 0,
            phase: 0,
            started: false,
            snapshot_ins: Vec::new(),
            snapshot_del: Vec::new(),
            collector_count,
            own_count: None,
            child_ins_counts: Vec::new(),
            child_del_counts: Vec::new(),
            child_store_counts: Vec::new(),
            collector_done,
            awaiting_done: false,
            pending_acks: 0,
            pending_gets: 0,
            repos_seq: 0,
            ks: None,
            anchor,
            shard: DhtShard::new(),
            client: DhtClient::new(),
        }
    }

    /// One node per view, sharing a configuration.
    pub fn build_cluster(views: Vec<NodeView>, cfg: SeapConfig) -> Vec<SeapNode> {
        views.into_iter().map(|v| SeapNode::new(v, cfg)).collect()
    }

    /// Issue an Insert of a fresh element.
    pub fn issue_insert(&mut self, prio: u64, payload: u64) -> OpId {
        let e = Element::new(
            dpq_core::ElemId::compose(self.view.me(), self.elem_seq),
            dpq_core::Priority(prio),
            payload,
        );
        self.elem_seq += 1;
        self.issue(OpKind::Insert(e))
    }

    /// Issue a DeleteMin.
    pub fn issue_delete(&mut self) -> OpId {
        self.issue(OpKind::DeleteMin)
    }

    /// Issue a request (buffered until the matching phase's snapshot).
    pub fn issue(&mut self, kind: OpKind) -> OpId {
        let id = self.history.issue(self.view.me(), kind);
        match kind {
            OpKind::Insert(e) => self.ins_buf.push((id, e)),
            OpKind::DeleteMin => self.del_buf.push(id),
        }
        id
    }

    /// Have all requests issued at this node completed?
    pub fn all_complete(&self) -> bool {
        self.history.ops.iter().all(|r| r.is_complete())
    }

    /// The phase this node believes is current.
    pub fn phase(&self) -> u64 {
        self.phase
    }

    /// The anchor's heap-size counter `v₀.m` (§5.1): elements stored under
    /// random keys, updated by ±k at each phase boundary. `None` at
    /// non-anchor nodes.
    pub fn anchor_heap_size(&self) -> Option<u64> {
        self.anchor.as_ref().map(|a| a.m)
    }

    /// Is this the anchor between two phases, after a phase that counted
    /// no requests, with none buffered here? Then nothing waits on the
    /// `Begin` it sent itself for the next phase. Reads state only; what
    /// the node sends does not depend on it.
    pub fn anchor_idle(&self) -> bool {
        self.anchor.as_ref().is_some_and(|a| {
            a.counted_none
                && matches!(a.stage, AStage::InsCount | AStage::DelCount)
                && self.own_count.is_none()
        }) && self.ins_buf.is_empty()
            && self.del_buf.is_empty()
    }

    // ---- DHT plumbing ---------------------------------------------------

    fn dispatch_dht(&mut self, msg: RouteMsg<DhtReq>, ctx: &mut Ctx<SeapMsg>) {
        match advance(&self.view, msg) {
            RouteOutcome::Delivered { payload, .. } => {
                for (to, resp) in self.shard.handle(payload) {
                    ctx.send(to, SeapMsg::Resp(resp));
                }
            }
            RouteOutcome::Forward { to, msg } => ctx.send(to, SeapMsg::Dht(msg)),
        }
    }

    fn put(&mut self, logical: u64, elem: Element, token: u64, ctx: &mut Ctx<SeapMsg>) {
        self.pending_acks += 1;
        let req = self.client.put(self.view.me(), logical, elem, token);
        let msg = RouteMsg::start(
            self.view.me(),
            point_for(domains::SEAP_INSERT, logical),
            req,
        );
        self.dispatch_dht(msg, ctx);
    }

    fn get(&mut self, logical: u64, token: u64, ctx: &mut Ctx<SeapMsg>) {
        self.pending_gets += 1;
        let req = self.client.get(self.view.me(), logical, token);
        let msg = RouteMsg::start(
            self.view.me(),
            point_for(domains::SEAP_INSERT, logical),
            req,
        );
        self.dispatch_dht(msg, ctx);
    }

    // ---- embedded KSelect ------------------------------------------------

    /// The heap contents this node stores, as KSelect candidates: only the
    /// random-key namespace — racing position-key puts must never leak in.
    fn heap_keys(&self) -> Vec<Key> {
        self.shard
            .elements()
            .filter(|(logical, _)| *logical < POS_BASE)
            .map(|(_, e)| e.key())
            .collect()
    }

    /// Take this phase's embedded KSelect instance out of `self` (split
    /// borrows), building it from the heap contents on first use.
    fn take_ks(&mut self) -> KSelectNode {
        self.ks.take().unwrap_or_else(|| {
            KSelectNode::new(
                self.view.clone(),
                self.heap_keys(),
                self.cfg.seed ^ self.phase.wrapping_mul(0x9E37_79B9),
            )
        })
    }

    fn delegate_k(&mut self, from: NodeId, msg: KMsg, ctx: &mut Ctx<SeapMsg>) {
        let mut ks = self.take_ks();
        ks.handle_message(from, msg, ctx);
        let finished = ks.result;
        self.ks = Some(ks);
        if self.view.is_anchor() {
            if let Some(key_k) = finished {
                let a = self.anchor.as_mut().expect("anchor state");
                if a.stage == AStage::KSel {
                    a.stage = AStage::StoreCount;
                    a.key_k = Some(key_k);
                    let phase = self.phase;
                    self.process(SeapMsg::CountBelow { phase, key_k }, ctx);
                }
            }
        }
    }

    // ---- wave handling ----------------------------------------------------

    fn forward_down(&mut self, msg: SeapMsg, ctx: &mut Ctx<SeapMsg>) {
        for child in self.view.children() {
            ctx.send(child, msg.clone());
        }
    }

    /// Handle a protocol message (shared by `on_message` and by the anchor
    /// injecting the commands it generates).
    fn process(&mut self, msg: SeapMsg, ctx: &mut Ctx<SeapMsg>) {
        match msg {
            SeapMsg::Begin { phase } => {
                // Non-anchor nodes learn phase transitions from this wave;
                // the anchor advanced its counter before emitting it.
                assert!(
                    phase == self.phase || phase == self.phase + 1,
                    "Begin for phase {phase} at {} in phase {}",
                    self.view.me(),
                    self.phase
                );
                self.phase = phase;
                if self.view.is_anchor() {
                    ctx.phase_mark("seap.phase", phase);
                }
                self.collector_count = Collector::new(&self.view.children());
                let count = if phase % 2 == 0 {
                    self.snapshot_ins = std::mem::take(&mut self.ins_buf);
                    self.snapshot_ins.len() as u64
                } else {
                    self.snapshot_del = std::mem::take(&mut self.del_buf);
                    self.snapshot_del.len() as u64
                };
                self.own_count = Some(count);
                self.forward_down(SeapMsg::Begin { phase }, ctx);
                self.try_count_up(false, ctx);
            }
            SeapMsg::CountUp { phase, count } => {
                assert_eq!(phase & !1, self.phase & !1, "count for wrong supercycle");
                // Arrival handled by the collector; `from` is threaded via
                // on_message, which calls `count_arrived` instead.
                unreachable!("CountUp is handled in on_message ({phase},{count})")
            }
            SeapMsg::StartInserts { phase, wit } => {
                assert_eq!(phase, self.phase);
                self.begin_work_wave();
                // Slice the witness range: own inserts first, then children.
                let (own, mut rest) = wit.take_prefix(self.snapshot_ins.len() as u64);
                let children = self.view.children();
                let counts = self.child_ins_counts.clone();
                for (child, cnt) in children.iter().zip(&counts) {
                    let (slice, r) = rest.take_prefix(*cnt);
                    rest = r;
                    ctx.send(*child, SeapMsg::StartInserts { phase, wit: slice });
                }
                debug_assert_eq!(rest.cardinality(), 0);
                let snapshot = std::mem::take(&mut self.snapshot_ins);
                let mut w = own;
                for (id, elem) in &snapshot {
                    let (one, r) = w.take_prefix(1);
                    w = r;
                    self.history.witness(*id, one.lo);
                    // A fresh uniformly random key in the insert namespace.
                    let logical = self.rng.next_u64_inline() & (POS_BASE - 1);
                    self.put(logical, *elem, id.seq, ctx);
                }
                self.try_send_done(ctx);
            }
            SeapMsg::CountBelow { phase, key_k } => {
                assert_eq!(phase, self.phase);
                // KSelect is over for this phase; drop the working copy.
                self.ks = None;
                self.collector_count = Collector::new(&self.view.children());
                let count = self
                    .shard
                    .elements()
                    .filter(|(logical, e)| *logical < POS_BASE && e.key() <= key_k)
                    .count() as u64;
                self.own_count = Some(count);
                self.forward_down(SeapMsg::CountBelow { phase, key_k }, ctx);
                self.try_count_up(true, ctx);
            }
            SeapMsg::StoreCountUp { .. } => {
                unreachable!("StoreCountUp is handled in on_message")
            }
            SeapMsg::Assign {
                phase,
                key_k,
                store,
                del,
                wit,
            } => {
                assert_eq!(phase, self.phase);
                self.begin_work_wave();
                // Slice all three ranges (own first, then children).
                let own_store_cnt = key_k.map_or(0, |kk| {
                    self.shard
                        .elements()
                        .filter(|(l, e)| *l < POS_BASE && e.key() <= kk)
                        .count() as u64
                });
                let (own_store, mut store_rest) = store.take_prefix(own_store_cnt);
                let (own_del, mut del_rest) = del.take_prefix(self.snapshot_del.len() as u64);
                let (own_wit, mut wit_rest) = wit.take_prefix(self.snapshot_del.len() as u64);
                let children = self.view.children();
                // Without a preceding StoreCount wave (k_eff = 0) the store
                // counts are vacuously zero — `child_store_counts` would be
                // stale or empty, and a short vector would silently truncate
                // the zip below and starve the children of their Assign.
                let store_counts = if key_k.is_some() {
                    self.child_store_counts.clone()
                } else {
                    vec![0; children.len()]
                };
                let del_counts = self.child_del_counts.clone();
                assert_eq!(store_counts.len(), children.len());
                assert_eq!(del_counts.len(), children.len());
                for ((child, scnt), dcnt) in children.iter().zip(&store_counts).zip(&del_counts) {
                    let (s, sr) = store_rest.take_prefix(*scnt);
                    store_rest = sr;
                    let (d, dr) = del_rest.take_prefix(*dcnt);
                    del_rest = dr;
                    let (w, wr) = wit_rest.take_prefix(*dcnt);
                    wit_rest = wr;
                    ctx.send(
                        *child,
                        SeapMsg::Assign {
                            phase,
                            key_k,
                            store: s,
                            del: d,
                            wit: w,
                        },
                    );
                }
                debug_assert_eq!(store_rest.cardinality(), 0);
                debug_assert_eq!(wit_rest.cardinality(), 0);

                // Re-store our smallest elements under position keys, in
                // ascending key order onto ascending positions.
                if let Some(kk) = key_k {
                    let extracted = self
                        .shard
                        .extract_matching(|l, e| l < POS_BASE && e.key() <= kk);
                    debug_assert_eq!(extracted.len() as u64, own_store.cardinality());
                    for (elem, pos) in extracted.into_iter().zip(own_store.positions()) {
                        let token = REPOS_TOKEN + self.repos_seq;
                        self.repos_seq += 1;
                        self.put(poskey(phase, pos), elem, token, ctx);
                    }
                }

                // Resolve our deletes: positions first, ⊥ for the rest.
                let snapshot = std::mem::take(&mut self.snapshot_del);
                let mut d = own_del;
                let mut w = own_wit;
                for id in &snapshot {
                    let (wone, wr) = w.take_prefix(1);
                    w = wr;
                    self.history.witness(*id, wone.lo);
                    let (done, dr) = d.take_prefix(1);
                    d = dr;
                    if done.cardinality() == 1 {
                        self.get(poskey(phase, done.lo), id.seq, ctx);
                    } else {
                        self.history.complete(*id, OpReturn::Bottom);
                        ctx.op_completed(*id);
                    }
                }
                self.try_send_done(ctx);
            }
            SeapMsg::DoneUp { .. } => unreachable!("DoneUp is handled in on_message"),
            SeapMsg::K(_) => unreachable!("K is handled in on_message"),
            SeapMsg::Dht(_) | SeapMsg::Resp(_) => unreachable!("DHT handled in on_message"),
        }
    }

    fn begin_work_wave(&mut self) {
        self.collector_done = Collector::new(&self.view.children());
        self.awaiting_done = true;
        debug_assert_eq!(self.pending_acks, 0);
        debug_assert_eq!(self.pending_gets, 0);
    }

    /// Count waves (request counts and store counts) complete when own
    /// count and all children's are in.
    fn try_count_up(&mut self, store_wave: bool, ctx: &mut Ctx<SeapMsg>) {
        if self.own_count.is_none() || !self.collector_count.is_complete() {
            return;
        }
        let contributions = self.collector_count.take();
        let counts: Vec<u64> = contributions.iter().map(|(_, c)| *c).collect();
        let total = self.own_count.take().expect("checked") + counts.iter().sum::<u64>();
        if store_wave {
            self.child_store_counts = counts;
        } else if self.phase.is_multiple_of(2) {
            self.child_ins_counts = counts;
        } else {
            self.child_del_counts = counts;
        }
        match self.view.parent() {
            Some(p) => {
                let phase = self.phase;
                let msg = if store_wave {
                    SeapMsg::StoreCountUp {
                        phase,
                        count: total,
                    }
                } else {
                    SeapMsg::CountUp {
                        phase,
                        count: total,
                    }
                };
                ctx.send(p, msg);
            }
            None => self.anchor_on_count(total, store_wave, ctx),
        }
    }

    fn try_send_done(&mut self, ctx: &mut Ctx<SeapMsg>) {
        if !self.awaiting_done
            || self.pending_acks > 0
            || self.pending_gets > 0
            || !self.collector_done.is_complete()
        {
            return;
        }
        self.awaiting_done = false;
        let _ = self.collector_done.take();
        match self.view.parent() {
            Some(p) => ctx.send(p, SeapMsg::DoneUp { phase: self.phase }),
            None => self.anchor_on_done(ctx),
        }
    }

    // ---- anchor transitions ----------------------------------------------

    fn anchor_on_count(&mut self, total: u64, store_wave: bool, ctx: &mut Ctx<SeapMsg>) {
        let phase = self.phase;
        let a = self.anchor.as_mut().expect("anchor state");
        if store_wave {
            assert_eq!(a.stage, AStage::StoreCount);
            assert_eq!(total, a.k_eff, "store count must equal k_eff");
            a.stage = AStage::DelWork;
            a.m -= a.k_eff;
            let key_k = a.key_k;
            let k_eff = a.k_eff;
            let k_del = a.k_del;
            self.process(
                SeapMsg::Assign {
                    phase,
                    key_k,
                    store: if k_eff > 0 {
                        Interval::new(1, k_eff)
                    } else {
                        Interval::EMPTY
                    },
                    del: if k_eff > 0 {
                        Interval::new(1, k_eff)
                    } else {
                        Interval::EMPTY
                    },
                    wit: wit_interval(phase, k_del),
                },
                ctx,
            );
            return;
        }
        a.counted_none = total == 0;
        if phase.is_multiple_of(2) {
            assert_eq!(a.stage, AStage::InsCount);
            a.stage = AStage::InsWork;
            a.m += total;
            self.process(
                SeapMsg::StartInserts {
                    phase,
                    wit: wit_interval(phase, total),
                },
                ctx,
            );
        } else {
            assert_eq!(a.stage, AStage::DelCount);
            a.k_del = total;
            a.k_eff = total.min(a.m);
            if a.k_eff > 0 {
                a.stage = AStage::KSel;
                let (m, k_eff) = (a.m, a.k_eff);
                let kcfg = self.cfg.kselect;
                ctx.phase_mark("seap.kselect", phase);
                // The anchor's embedded instance starts the selection.
                let mut ks = self.take_ks();
                ks.start_select(m, k_eff, kcfg, ctx);
                let finished = ks.result;
                self.ks = Some(ks);
                if let Some(key_k) = finished {
                    // Single-node clusters finish synchronously.
                    let a = self.anchor.as_mut().expect("anchor state");
                    a.stage = AStage::StoreCount;
                    a.key_k = Some(key_k);
                    self.process(SeapMsg::CountBelow { phase, key_k }, ctx);
                }
            } else {
                // Nothing to fetch: every delete answers ⊥ (or there are no
                // deletes at all); run the assignment wave with empty
                // position ranges so witnesses still get distributed.
                a.stage = AStage::DelWork;
                a.key_k = None;
                let k_del = a.k_del;
                self.process(
                    SeapMsg::Assign {
                        phase,
                        key_k: None,
                        store: Interval::EMPTY,
                        del: Interval::EMPTY,
                        wit: wit_interval(phase, k_del),
                    },
                    ctx,
                );
            }
        }
    }

    fn anchor_on_done(&mut self, ctx: &mut Ctx<SeapMsg>) {
        let a = self.anchor.as_mut().expect("anchor state");
        match a.stage {
            AStage::InsWork => a.stage = AStage::DelCount,
            AStage::DelWork => {
                a.stage = AStage::InsCount;
                a.key_k = None;
            }
            s => panic!("done wave in stage {s:?}"),
        }
        self.phase += 1;
        let phase = self.phase;
        // Deferred via a self-send: an empty phase must still cost a round,
        // and a direct call would recurse unboundedly on idle single-node
        // clusters (phases chain synchronously when no DHT round-trip
        // intervenes).
        ctx.send(self.view.me(), SeapMsg::Begin { phase });
    }
}

impl QueueNode for SeapNode {
    fn issue(&mut self, kind: OpKind) -> OpId {
        SeapNode::issue(self, kind)
    }

    fn issue_insert(&mut self, prio: u64, payload: u64) -> OpId {
        SeapNode::issue_insert(self, prio, payload)
    }

    fn node_history(&self) -> &NodeHistory {
        &self.history
    }

    fn resident(&self, out: &mut Vec<Element>) {
        out.extend(self.shard.elements().map(|(_, e)| *e));
    }
}

impl Protocol for SeapNode {
    type Msg = SeapMsg;

    fn on_activate(&mut self, ctx: &mut Ctx<SeapMsg>) {
        if self.view.is_anchor() && !self.started {
            self.started = true;
            self.process(SeapMsg::Begin { phase: 0 }, ctx);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: SeapMsg, ctx: &mut Ctx<SeapMsg>) {
        match msg {
            SeapMsg::CountUp { phase, count } => {
                assert_eq!(phase, self.phase, "count for wrong phase");
                self.collector_count.insert(from, count);
                self.try_count_up(false, ctx);
            }
            SeapMsg::StoreCountUp { phase, count } => {
                assert_eq!(phase, self.phase);
                self.collector_count.insert(from, count);
                self.try_count_up(true, ctx);
            }
            SeapMsg::DoneUp { phase } => {
                assert_eq!(phase, self.phase, "done for wrong phase");
                self.collector_done.insert(from, ());
                self.try_send_done(ctx);
            }
            SeapMsg::K(m) => self.delegate_k(from, m, ctx),
            SeapMsg::Dht(m) => self.dispatch_dht(m, ctx),
            SeapMsg::Resp(r) => {
                match self.client.on_response(&r) {
                    Completion::PutDone { token } => {
                        self.pending_acks -= 1;
                        if token < REPOS_TOKEN {
                            let id = OpId {
                                node: self.view.me(),
                                seq: token,
                            };
                            self.history.complete(id, OpReturn::Inserted);
                            ctx.op_completed(id);
                        }
                    }
                    Completion::GotElement { token, elem } => {
                        self.pending_gets -= 1;
                        let id = OpId {
                            node: self.view.me(),
                            seq: token,
                        };
                        self.history.complete(id, OpReturn::Removed(elem));
                        ctx.op_completed(id);
                    }
                }
                self.try_send_done(ctx);
            }
            other => self.process(other, ctx),
        }
    }

    fn done(&self) -> bool {
        self.ins_buf.is_empty() && self.del_buf.is_empty() && self.all_complete()
    }

    /// Phases are message-driven; only the anchor's first activation acts.
    fn dormant(&self) -> bool {
        self.started || !self.view.is_anchor()
    }
}

impl dpq_core::StateHash for SeapAnchor {
    fn state_hash(&self, h: &mut dpq_core::StateHasher) {
        h.write_u64(match self.stage {
            AStage::InsCount => 0,
            AStage::InsWork => 1,
            AStage::DelCount => 2,
            AStage::KSel => 3,
            AStage::StoreCount => 4,
            AStage::DelWork => 5,
        });
        h.write_u64(self.m);
        h.write_u64(self.k_del);
        h.write_u64(self.k_eff);
        self.key_k.state_hash(h);
    }
}

impl dpq_core::StateHash for SeapNode {
    fn state_hash(&self, h: &mut dpq_core::StateHasher) {
        // `view`/`cfg` are static per scenario; the RNG drives the random
        // DHT keys and is real state.
        self.history.state_hash(h);
        self.rng.state_hash(h);
        self.ins_buf.state_hash(h);
        self.del_buf.state_hash(h);
        h.write_u64(self.elem_seq);
        h.write_u64(self.phase);
        h.write_u64(self.started as u64);
        self.snapshot_ins.state_hash(h);
        self.snapshot_del.state_hash(h);
        self.collector_count.state_hash(h);
        self.own_count.state_hash(h);
        self.child_ins_counts.state_hash(h);
        self.child_del_counts.state_hash(h);
        self.child_store_counts.state_hash(h);
        self.collector_done.state_hash(h);
        h.write_u64(self.awaiting_done as u64);
        h.write_u64(self.pending_acks as u64);
        h.write_u64(self.pending_gets as u64);
        h.write_u64(self.repos_seq);
        self.ks.state_hash(h);
        self.anchor.state_hash(h);
        self.shard.state_hash(h);
        self.client.state_hash(h);
    }
}
