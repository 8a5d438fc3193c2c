//! The Skeap per-node state machine (§3.2).
//!
//! Each node runs a perpetual cycle of the four phases:
//!
//! 1. snapshot the local request buffer into a batch, wait for the
//!    children's combined batches, combine (own first, then children in
//!    canonical order) and send up;
//! 2. (anchor only) assign position intervals and witness ranges;
//! 3. receive the subtree's assignment, slice it for own ops and for each
//!    child, forward the children's slices;
//! 4. turn own assignments into DHT Puts/Gets (⊥-deletes complete
//!    immediately) and return to Phase 1.
//!
//! Cycles run even when batches are empty — an inner node cannot know its
//! subtree is idle without hearing from the children — which matches the
//! paper's perpetually active aggregation. Drivers therefore stop runs on a
//! workload predicate ([`SkeapNode::all_complete`]) rather than quiescence.

use crate::anchor::{decompose, AnchorState, Discipline, EntryAssign};
use crate::batch::Batch;
use crate::msgs::SkeapMsg;
use dpq_agg::Collector;
use dpq_core::hashing::domains;
use dpq_core::{NodeHistory, NodeId, OpId, OpKind, OpReturn};
use dpq_dht::client::Completion;
use dpq_dht::{point_for, DhtClient, DhtShard};
use dpq_overlay::routing::{advance, RouteMsg, RouteOutcome};
use dpq_overlay::NodeView;
use dpq_sim::{Ctx, Protocol, QueueNode};

/// Pack a (priority, position) pair into the DHT's logical key space —
/// the concrete form of the paper's `h(p, pos)` (§3.2.4).
#[inline]
pub fn slot_key(p: u64, pos: u64) -> u64 {
    debug_assert!(p < (1 << 16), "priority index too large to pack");
    debug_assert!(pos < (1 << 48), "position too large to pack");
    (p << 48) | pos
}

/// Configuration shared by all nodes of a Skeap instance.
#[derive(Debug, Clone, Copy)]
pub struct SkeapConfig {
    /// Size of the constant priority universe 𝒫 = {0,…,c−1}.
    pub n_prios: usize,
    /// DeleteMin discipline within a priority: FIFO (the paper's Skeap)
    /// or LIFO (the stack extension).
    pub discipline: Discipline,
}

impl SkeapConfig {
    /// The paper's Skeap: FIFO within each priority.
    pub fn fifo(n_prios: usize) -> Self {
        SkeapConfig {
            n_prios,
            discipline: Discipline::Fifo,
        }
    }

    /// The stack-discipline variant.
    pub fn lifo(n_prios: usize) -> Self {
        SkeapConfig {
            n_prios,
            discipline: Discipline::Lifo,
        }
    }
}

/// One Skeap node.
pub struct SkeapNode {
    /// Local topology knowledge.
    pub view: NodeView,
    /// Instance configuration.
    pub cfg: SkeapConfig,
    /// Recorded requests and returns (merged into a `History` by drivers).
    pub history: NodeHistory,
    /// Requests issued but not yet snapshotted into a batch.
    buffer: Vec<(OpId, OpKind)>,
    /// Monotone element-id counter for inserts created via
    /// [`SkeapNode::issue_insert`].
    elem_seq: u64,

    // ---- cycle state ----
    cycle: u64,
    snapshotted: bool,
    snapshot: Vec<(OpId, OpKind)>,
    groups: Vec<usize>,
    own_batch: Batch,
    collector: Collector<Batch>,
    /// Children's combined sub-batches for the current cycle, canonical
    /// order (memorized in Phase 1, needed for Phase 3 decomposition).
    sub_batches: Vec<Batch>,
    sent_up: bool,
    /// Batches for the *next* cycle arriving before we finished this one.
    early: Vec<(NodeId, u64, Batch)>,

    /// Phase-2 state — only the anchor carries one. Boxed so the n−1
    /// non-anchor nodes pay one pointer, not an inline `AnchorState`.
    anchor: Option<Box<AnchorState>>,

    // ---- DHT ----
    /// This node's DHT storage.
    pub shard: DhtShard,
    client: DhtClient,
}

impl SkeapNode {
    /// A fresh node; the anchor (per the view) gets the Phase-2 state.
    pub fn new(view: NodeView, cfg: SkeapConfig) -> Self {
        let collector = Collector::new(&view.children());
        let anchor = view
            .is_anchor()
            .then(|| Box::new(AnchorState::with_discipline(cfg.n_prios, cfg.discipline)));
        SkeapNode {
            view,
            cfg,
            history: NodeHistory::default(),
            buffer: Vec::new(),
            elem_seq: 0,
            cycle: 0,
            snapshotted: false,
            snapshot: Vec::new(),
            groups: Vec::new(),
            own_batch: Batch::empty(cfg.n_prios),
            collector,
            sub_batches: Vec::new(),
            sent_up: false,
            early: Vec::new(),
            anchor,
            shard: DhtShard::new(),
            client: DhtClient::new(),
        }
    }

    /// Build one node per real node of a topology.
    pub fn build_cluster(views: Vec<NodeView>, cfg: SkeapConfig) -> Vec<SkeapNode> {
        views.into_iter().map(|v| SkeapNode::new(v, cfg)).collect()
    }

    /// Issue a request (buffered until the next cycle's snapshot).
    pub fn issue(&mut self, kind: OpKind) -> OpId {
        if let OpKind::Insert(e) = &kind {
            assert!(
                (e.prio.0 as usize) < self.cfg.n_prios,
                "priority outside the constant universe"
            );
        }
        let id = self.history.issue(self.view.me(), kind);
        self.buffer.push((id, kind));
        id
    }

    /// Issue an Insert of a fresh element with the given priority.
    pub fn issue_insert(&mut self, prio: u64, payload: u64) -> OpId {
        let e = dpq_core::Element::new(
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

    /// Have all requests issued at this node completed?
    pub fn all_complete(&self) -> bool {
        self.history.ops.iter().all(|r| r.is_complete())
    }

    /// The batch cycle this node is currently in.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The anchor's view of the heap size — positions allocated but not yet
    /// consumed, summed over all priorities (`Σ_p last_p − first_p + 1`).
    /// `None` at non-anchor nodes; a real deployment would expose this via
    /// one counting aggregation (§2.2).
    pub fn anchor_heap_size(&self) -> Option<u64> {
        self.anchor.as_deref().map(AnchorState::total_occupancy)
    }

    fn dispatch_dht(&mut self, msg: RouteMsg<dpq_dht::DhtReq>, ctx: &mut Ctx<SkeapMsg>) {
        match advance(&self.view, msg) {
            RouteOutcome::Delivered { payload, .. } => {
                for (to, resp) in self.shard.handle(payload) {
                    ctx.send(to, SkeapMsg::Resp(resp));
                }
            }
            RouteOutcome::Forward { to, msg } => ctx.send(to, SkeapMsg::Dht(msg)),
        }
    }

    /// Phase 1 completion check: combine and send up (or run Phase 2 at the
    /// anchor).
    fn try_advance(&mut self, ctx: &mut Ctx<SkeapMsg>) {
        if !self.snapshotted || self.sent_up || !self.collector.is_complete() {
            return;
        }
        let children = self.collector.take();
        let mut combined = self.own_batch.clone();
        self.sub_batches = children
            .into_iter()
            .map(|(_, b)| {
                combined = combined.combine(&b);
                b
            })
            .collect();
        self.sent_up = true;
        if self.anchor.is_some() {
            // The anchor closing Phase 1 and running Phase 2 is the batch
            // cycle's global heartbeat — mark it for traces.
            ctx.phase_mark("skeap.batch", self.cycle);
            let assigns = self
                .anchor
                .as_mut()
                .expect("checked above")
                .assign(&combined);
            self.handle_down(assigns, ctx);
        } else {
            let parent = self.view.parent().expect("non-anchor has a parent");
            ctx.send(
                parent,
                SkeapMsg::BatchUp {
                    cycle: self.cycle,
                    batch: combined,
                },
            );
        }
    }

    /// Phases 3 and 4: slice the subtree assignment, forward child slices,
    /// resolve own ops into DHT traffic, and start the next cycle.
    fn handle_down(&mut self, assigns: Vec<EntryAssign>, ctx: &mut Ctx<SkeapMsg>) {
        let parts: Vec<&Batch> = std::iter::once(&self.own_batch)
            .chain(self.sub_batches.iter())
            .collect();
        let mut chunks = decompose(&assigns, &parts);
        // Forward children's slices (chunks[1..] in canonical child order).
        for (i, child) in self.collector.expected().to_vec().into_iter().enumerate() {
            ctx.send(
                child,
                SkeapMsg::Down {
                    cycle: self.cycle,
                    assigns: std::mem::take(&mut chunks[1 + i]),
                },
            );
        }
        // Phase 4 on own ops, in issue order.
        let mut own = std::mem::take(&mut chunks[0]);
        let snapshot = std::mem::take(&mut self.snapshot);
        let groups = std::mem::take(&mut self.groups);
        for ((id, kind), &j) in snapshot.iter().zip(&groups) {
            let g = &mut own[j];
            match kind {
                OpKind::Insert(e) => {
                    let p = e.prio.0 as usize;
                    let (one, rest) = g.ins[p].take_prefix(1);
                    assert_eq!(one.cardinality(), 1, "insert position missing");
                    g.ins[p] = rest;
                    let (w, rest) = g.ins_seq.take_prefix(1);
                    g.ins_seq = rest;
                    self.history.witness(*id, w.lo);
                    let logical = slot_key(p as u64, one.lo);
                    let req = self.client.put(self.view.me(), logical, *e, id.seq);
                    let msg = RouteMsg::start(
                        self.view.me(),
                        point_for(domains::SKEAP_KEY, logical),
                        req,
                    );
                    self.dispatch_dht(msg, ctx);
                }
                OpKind::DeleteMin => {
                    let (w, rest) = g.del_seq.take_prefix(1);
                    g.del_seq = rest;
                    // Seeded bug for the model checker's mutation smoke
                    // test: clearing the low bit of the delete witness
                    // collides adjacent witnesses, which the replay oracle
                    // must catch (never compiled into normal builds).
                    #[cfg(mc_mutate)]
                    self.history.witness(*id, w.lo & !1);
                    #[cfg(not(mc_mutate))]
                    self.history.witness(*id, w.lo);
                    let (one, rest) = g.del.take_prefix_dir(1, g.lifo);
                    g.del = rest;
                    let slot = one.iter_positions().next();
                    if let Some((p, pos)) = slot {
                        let logical = slot_key(p, pos);
                        let req = self.client.get(self.view.me(), logical, id.seq);
                        let msg = RouteMsg::start(
                            self.view.me(),
                            point_for(domains::SKEAP_KEY, logical),
                            req,
                        );
                        self.dispatch_dht(msg, ctx);
                    } else {
                        assert!(g.bottom > 0, "delete with neither position nor ⊥");
                        g.bottom -= 1;
                        self.history.complete(*id, OpReturn::Bottom);
                        ctx.op_completed(*id);
                    }
                }
            }
        }
        for g in &own {
            assert_eq!(g.ins_seq.cardinality(), 0, "unassigned insert witnesses");
            assert_eq!(g.del_seq.cardinality(), 0, "unassigned delete witnesses");
            assert_eq!(g.bottom, 0, "unassigned ⊥ deletes");
        }

        // Back to Phase 1 for the next cycle. `Collector::take` in
        // `try_advance` already reset the collector in place; `own_batch`
        // is replaced by an empty batch (not merely cleared) so an idle
        // node's resident footprint does not retain its last batch.
        self.cycle += 1;
        self.snapshotted = false;
        self.sent_up = false;
        self.sub_batches.clear();
        self.own_batch = Batch::empty(self.cfg.n_prios);
        for (from, cycle, batch) in std::mem::take(&mut self.early) {
            assert_eq!(cycle, self.cycle, "stale early batch");
            self.collector.insert(from, batch);
        }
    }
}

impl QueueNode for SkeapNode {
    fn issue(&mut self, kind: OpKind) -> OpId {
        SkeapNode::issue(self, kind)
    }

    fn issue_insert(&mut self, prio: u64, payload: u64) -> OpId {
        SkeapNode::issue_insert(self, prio, payload)
    }

    fn node_history(&self) -> &NodeHistory {
        &self.history
    }

    fn resident(&self, out: &mut Vec<dpq_core::Element>) {
        out.extend(self.shard.elements().map(|(_, e)| *e));
    }
}

impl Protocol for SkeapNode {
    type Msg = SkeapMsg;

    fn on_activate(&mut self, ctx: &mut Ctx<SkeapMsg>) {
        if !self.snapshotted {
            let snapshot = std::mem::take(&mut self.buffer);
            let kinds: Vec<OpKind> = snapshot.iter().map(|(_, k)| *k).collect();
            let (batch, groups) = Batch::from_ops(self.cfg.n_prios, kinds.iter());
            self.snapshot = snapshot;
            self.own_batch = batch;
            self.groups = groups;
            self.snapshotted = true;
        }
        self.try_advance(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: SkeapMsg, ctx: &mut Ctx<SkeapMsg>) {
        match msg {
            SkeapMsg::BatchUp { cycle, batch } => {
                if cycle == self.cycle {
                    self.collector.insert(from, batch);
                    self.try_advance(ctx);
                } else if cycle == self.cycle + 1 {
                    self.early.push((from, cycle, batch));
                } else {
                    panic!(
                        "batch for cycle {cycle} at node {} in cycle {}",
                        self.view.me(),
                        self.cycle
                    );
                }
            }
            SkeapMsg::Down { cycle, assigns } => {
                assert_eq!(cycle, self.cycle, "down-wave for wrong cycle");
                assert!(self.sent_up, "down-wave before sending up");
                self.handle_down(assigns, ctx);
            }
            SkeapMsg::Dht(m) => self.dispatch_dht(m, ctx),
            SkeapMsg::Resp(r) => match self.client.on_response(&r) {
                Completion::PutDone { token } => {
                    let id = OpId {
                        node: self.view.me(),
                        seq: token,
                    };
                    self.history.complete(id, OpReturn::Inserted);
                    ctx.op_completed(id);
                }
                Completion::GotElement { token, elem } => {
                    let id = OpId {
                        node: self.view.me(),
                        seq: token,
                    };
                    self.history.complete(id, OpReturn::Removed(elem));
                    ctx.op_completed(id);
                }
            },
        }
    }

    fn done(&self) -> bool {
        self.buffer.is_empty() && self.client.idle() && self.all_complete()
    }

    /// `on_activate`'s two guards, negated: the snapshot is taken, and
    /// `try_advance` returns at once until a `BatchUp` completes the
    /// collector or the `Down` wave opens the next cycle.
    fn dormant(&self) -> bool {
        self.snapshotted && (self.sent_up || !self.collector.is_complete())
    }
}

impl dpq_core::StateHash for SkeapNode {
    fn state_hash(&self, h: &mut dpq_core::StateHasher) {
        // `view` and `cfg` are static per scenario and excluded; everything
        // that evolves along an execution is written.
        self.history.state_hash(h);
        self.buffer.state_hash(h);
        h.write_u64(self.elem_seq);
        h.write_u64(self.cycle);
        h.write_u64(self.snapshotted as u64);
        self.snapshot.state_hash(h);
        h.write_u64(self.groups.len() as u64);
        for g in &self.groups {
            h.write_u64(*g as u64);
        }
        self.own_batch.state_hash(h);
        self.collector.state_hash(h);
        self.sub_batches.state_hash(h);
        h.write_u64(self.sent_up as u64);
        self.early.state_hash(h);
        // `Option<&T>` hashes the same bytes as `Option<T>` — the box is
        // a layout detail.
        self.anchor.as_deref().state_hash(h);
        self.shard.state_hash(h);
        self.client.state_hash(h);
    }
}
