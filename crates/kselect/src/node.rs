//! The KSelect per-node state machine (§4).
//!
//! Nodes hold candidate sets `v.C`, answer the anchor's wave commands, and
//! — during the distributed-sorting sub-protocol (Phase 2b) — play up to
//! four roles at once, all keyed by `(epoch, candidate, copy)` so that
//! messages from concurrently draining epochs can never cross wires:
//!
//! * **origin**: sampled candidates, awaits their computed orders;
//! * **copy-tree holder** `v_{i,j}`: owns copy j of candidate i, spawns the
//!   child ranges over emulated de Bruijn edges, sends its copy to the
//!   rendezvous, aggregates the comparison vectors back up;
//! * **rendezvous** `w_{i,j}`: matches the two copies of the unordered pair
//!   {i, j} and returns the comparison verdicts;
//! * **tree node**: combines wave responses from its children.
//!
//! Every send goes through a [`Ctx`] whose message type embeds [`KMsg`]
//! (`M: From<KMsg>`): standalone that is `Ctx<KMsg>` itself, and inside
//! Seap's DeleteMin phase (§5.2) it is Seap's own context, whose `K`
//! variant wraps each message. The protocol logic exists exactly once.

use crate::ctl::{AnchorCtl, KSelectConfig};
use crate::msgs::{Cmd, Compare, KMsg, Place, Rsp, Split, ROOT_PARENT};
use dpq_agg::Collector;
use dpq_core::hashing::{domains, hash_pair_unit, hash_to_unit, split_mix64};
use dpq_core::{BitSize, DetRng, Key, NodeId};
use dpq_overlay::routing::{advance, hop_advance, hop_start, HopOutcome, RouteMsg, RouteOutcome};
use dpq_overlay::NodeView;
use dpq_sim::{Ctx, Protocol};
use std::collections::HashMap;

/// Rendezvous point for the pair {i, j} in a given epoch.
fn pair_point(epoch: u64, i: u64, j: u64) -> f64 {
    hash_pair_unit(domains::KSELECT_PAIR ^ split_mix64(epoch), i, j)
}

/// Home point of position `pos` in a given epoch.
fn pos_point(epoch: u64, pos: u64) -> f64 {
    hash_to_unit(domains::KSELECT_POS ^ split_mix64(epoch), pos)
}

/// State of one held copy `c_{i,j}`.
#[derive(Debug)]
struct CopyState {
    parent: NodeId,
    parent_copy: u64,
    expected_children: u8,
    got_children: u8,
    own: Option<(u64, u64)>,
    acc_smaller: u64,
    acc_larger: u64,
}

impl CopyState {
    fn complete(&self) -> bool {
        self.own.is_some() && self.got_children == self.expected_children
    }

    fn totals(&self) -> (u64, u64) {
        let (s, l) = self.own.expect("checked complete");
        (self.acc_smaller + s, self.acc_larger + l)
    }
}

/// First arrival at a rendezvous node.
#[derive(Debug)]
struct PendingCompare {
    cand: u64,
    copy: u64,
    key: Key,
    back: NodeId,
}

/// One KSelect node.
pub struct KSelectNode {
    /// Local topology knowledge.
    pub view: NodeView,
    rng: DetRng,
    /// Local candidates `v.C`, kept sorted ascending.
    pub cands: Vec<Key>,

    // Wave machinery.
    collector: Collector<Rsp>,
    own_rsp: Option<Rsp>,
    /// Child subtree sample counts memorized during the SampleCount wave
    /// (canonical child order), needed to decompose Positions.
    child_samples: Vec<u64>,

    // Sorting (origin role).
    epoch: u64,
    lo_hi: (u64, u64),
    own_samples: Vec<Key>,
    pending_orders: usize,
    awaiting_hits: bool,
    hit_lo: Option<Key>,
    hit_hi: Option<Key>,

    // Sorting (holder / rendezvous / root roles).
    copies: HashMap<(u64, u64, u64), CopyState>,
    rendezvous: HashMap<(u64, u64, u64), PendingCompare>,
    placed: HashMap<(u64, u64), (Key, NodeId)>,
    /// Distinct copy trees this node has held a copy of, per epoch —
    /// experiment E8 (Lemma 4.5) reads this.
    pub tree_memberships: HashMap<u64, std::collections::HashSet<u64>>,

    /// The anchor's controller.
    pub ctl: Option<AnchorCtl>,
    /// A selection queued via [`KSelectNode::queue_start`], fired at the
    /// next activation (the paper's nodes act "upon activation").
    pending_start: Option<(u64, u64, KSelectConfig)>,
    /// Whether the anchor broadcasts the result (standalone mode). Embedded
    /// mode (Seap) turns this off: the enclosing protocol carries the
    /// result in its own next wave, and a stray broadcast would outlive the
    /// embedded instance.
    announce: bool,
    /// The announced result (set at every node once selection finishes).
    pub result: Option<Key>,
}

impl KSelectNode {
    /// A node holding `cands` (sorted internally); `seed` drives sampling.
    pub fn new(view: NodeView, cands: Vec<Key>, seed: u64) -> Self {
        let mut cands = cands;
        cands.sort_unstable();
        let collector = Collector::new(&view.children());
        let rng = DetRng::new(seed).split(view.me().0);
        KSelectNode {
            view,
            rng,
            cands,
            collector,
            own_rsp: None,
            child_samples: Vec::new(),
            epoch: 0,
            lo_hi: (0, 0),
            own_samples: Vec::new(),
            pending_orders: 0,
            awaiting_hits: false,
            hit_lo: None,
            hit_hi: None,
            copies: HashMap::new(),
            rendezvous: HashMap::new(),
            placed: HashMap::new(),
            tree_memberships: HashMap::new(),
            ctl: None,
            pending_start: None,
            announce: true,
            result: None,
        }
    }

    /// Queue a selection of rank `k` among `m` candidates; it starts at the
    /// anchor's next activation. Must be called on the anchor node.
    pub fn queue_start(&mut self, m: u64, k: u64, cfg: KSelectConfig) {
        assert!(self.view.is_anchor(), "queue_start on a non-anchor node");
        self.pending_start = Some((m, k, cfg));
    }

    /// Kick off a selection of rank `k` among `m` total candidates. Must be
    /// called on the anchor node; `m` and `n` are what a real deployment
    /// would obtain with one counting aggregation (§2.2).
    pub fn start_select(
        &mut self,
        m: u64,
        k: u64,
        cfg: KSelectConfig,
        ctx: &mut Ctx<impl BitSize + From<KMsg>>,
    ) {
        assert!(self.view.is_anchor(), "start_select on a non-anchor node");
        if self.view.n() == 1 {
            // Degenerate single-node instance: select locally.
            assert!(k >= 1 && k <= self.cands.len() as u64);
            self.result = Some(self.cands[k as usize - 1]);
            return;
        }
        self.announce = cfg.announce;
        let (ctl, first) = AnchorCtl::start(self.view.n() as u64, m, k, cfg);
        self.ctl = Some(ctl);
        self.process_cmd(first, ctx);
    }

    // ---- wave plumbing -------------------------------------------------

    fn process_cmd(&mut self, cmd: Cmd, ctx: &mut Ctx<impl BitSize + From<KMsg>>) {
        // The anchor originates every wave: one mark per wave, named after
        // the algorithm phase the command opens (§4's phase structure).
        if self.view.is_anchor() {
            let (label, value) = match &cmd {
                Cmd::P1Bounds { k, .. } => ("kselect.phase1", *k),
                Cmd::P1Prune { .. } => ("kselect.phase1_prune", 0),
                Cmd::Sample { epoch, prob, .. } if *prob >= 1.0 => ("kselect.phase3", *epoch),
                Cmd::Sample { epoch, .. } => ("kselect.phase2", *epoch),
                Cmd::Positions { epoch, .. } => ("kselect.sort", *epoch),
                Cmd::WindowCount { .. } => ("kselect.window", 0),
                Cmd::Announce { .. } => ("kselect.done", 0),
            };
            ctx.phase_mark(label, value);
        }
        // Waves are strictly sequential per node, so one collector serves
        // them all; reset it for commands that expect an up-response.
        match &cmd {
            Cmd::Announce { .. } => {}
            _ => {
                self.collector = Collector::new(&self.view.children());
                self.own_rsp = None;
            }
        }
        match cmd {
            Cmd::P1Bounds { k, n } => {
                let idx_min = k / n; // ⌊k/n⌋, 1-based rank into sorted cands
                let idx_max = k.div_ceil(n);
                let pmin = if idx_min >= 1 && self.cands.len() as u64 >= idx_min {
                    self.cands[idx_min as usize - 1]
                } else {
                    Key::MIN
                };
                let pmax = if idx_max >= 1 && self.cands.len() as u64 >= idx_max {
                    self.cands[idx_max as usize - 1]
                } else {
                    Key::MAX
                };
                self.own_rsp = Some(Rsp::MinMax { pmin, pmax });
                self.forward_down(Cmd::P1Bounds { k, n }, ctx);
                self.try_send_up(ctx);
            }
            Cmd::P1Prune { pmin, pmax } => {
                let below = self.cands.iter().filter(|&&c| c < pmin).count() as u64;
                let above = self.cands.iter().filter(|&&c| c > pmax).count() as u64;
                self.cands.retain(|c| pmin <= *c && *c <= pmax);
                self.own_rsp = Some(Rsp::Counts { below, above });
                self.forward_down(Cmd::P1Prune { pmin, pmax }, ctx);
                self.try_send_up(ctx);
            }
            Cmd::Sample { epoch, prune, prob } => {
                if let Some((cl, cr)) = prune {
                    self.cands.retain(|c| cl <= *c && *c <= cr);
                }
                self.epoch = epoch;
                self.hit_lo = None;
                self.hit_hi = None;
                self.awaiting_hits = false;
                self.own_samples = if prob >= 1.0 {
                    self.cands.clone()
                } else {
                    self.cands
                        .iter()
                        .copied()
                        .filter(|_| self.rng.chance(prob))
                        .collect()
                };
                self.own_rsp = Some(Rsp::SampleCount {
                    count: self.own_samples.len() as u64,
                });
                self.forward_down(Cmd::Sample { epoch, prune, prob }, ctx);
                self.try_send_up(ctx);
            }
            Cmd::Positions {
                epoch,
                lo,
                hi,
                first,
                last,
                n_prime,
            } => {
                assert_eq!(epoch, self.epoch, "positions for a stale epoch");
                self.lo_hi = (lo, hi);
                self.awaiting_hits = true;
                self.pending_orders = self.own_samples.len();
                // Own samples take the first positions, children's subtrees
                // the rest, in canonical child order — same convention as
                // everywhere else.
                let mut cursor = first;
                let own_samples = std::mem::take(&mut self.own_samples);
                for key in &own_samples {
                    let place = Place {
                        epoch,
                        pos: cursor,
                        key: *key,
                        origin: self.view.me(),
                        n_prime,
                    };
                    let msg = RouteMsg::start(self.view.me(), pos_point(epoch, cursor), place);
                    self.dispatch_place(msg, ctx);
                    cursor += 1;
                }
                self.own_samples = own_samples;
                let children: Vec<NodeId> = self.collector.expected().to_vec();
                let counts = self.child_samples.clone();
                for (child, cnt) in children.into_iter().zip(counts) {
                    ctx.send(
                        child,
                        KMsg::Down(Cmd::Positions {
                            epoch,
                            lo,
                            hi,
                            first: cursor,
                            last: cursor + cnt - 1,
                            n_prime,
                        })
                        .into(),
                    );
                    cursor += cnt;
                }
                debug_assert_eq!(cursor, last + 1, "position decomposition mismatch");
                self.try_send_hits(ctx);
            }
            Cmd::WindowCount { cl, cr } => {
                let below = self.cands.iter().filter(|&&c| c < cl).count() as u64;
                let above = self.cands.iter().filter(|&&c| c > cr).count() as u64;
                self.own_rsp = Some(Rsp::Counts { below, above });
                self.forward_down(Cmd::WindowCount { cl, cr }, ctx);
                self.try_send_up(ctx);
            }
            Cmd::Announce { result } => {
                self.result = Some(result);
                if self.announce {
                    self.forward_down(Cmd::Announce { result }, ctx);
                }
            }
        }
    }

    fn forward_down(&mut self, cmd: Cmd, ctx: &mut Ctx<impl BitSize + From<KMsg>>) {
        for child in self.view.children() {
            ctx.send(child, KMsg::Down(cmd.clone()).into());
        }
    }

    fn combine(a: Rsp, b: &Rsp) -> Rsp {
        match (a, b) {
            (Rsp::MinMax { pmin, pmax }, Rsp::MinMax { pmin: p2, pmax: q2 }) => Rsp::MinMax {
                pmin: pmin.min(*p2),
                pmax: pmax.max(*q2),
            },
            (
                Rsp::Counts { below, above },
                Rsp::Counts {
                    below: b2,
                    above: a2,
                },
            ) => Rsp::Counts {
                below: below + b2,
                above: above + a2,
            },
            (Rsp::SampleCount { count }, Rsp::SampleCount { count: c2 }) => {
                Rsp::SampleCount { count: count + c2 }
            }
            (Rsp::Hits { lo, hi }, Rsp::Hits { lo: l2, hi: h2 }) => {
                let merge = |a: Option<Key>, b: Option<Key>| match (a, b) {
                    (Some(x), None) | (None, Some(x)) => Some(x),
                    (None, None) => None,
                    (Some(_), Some(_)) => panic!("two candidates share an order"),
                };
                Rsp::Hits {
                    lo: merge(lo, *l2),
                    hi: merge(hi, *h2),
                }
            }
            (a, b) => panic!("mixed wave responses: {a:?} vs {b:?}"),
        }
    }

    /// Combine and propagate an up-wave once own contribution and all
    /// children's are in (not used for the Hits wave, which has its own
    /// gating on pending orders).
    fn try_send_up(&mut self, ctx: &mut Ctx<impl BitSize + From<KMsg>>) {
        if self.own_rsp.is_none() || !self.collector.is_complete() {
            return;
        }
        let contributions = self.collector.take();
        // Memorize child sample counts for the Positions decomposition.
        if matches!(self.own_rsp, Some(Rsp::SampleCount { .. })) {
            self.child_samples = contributions
                .iter()
                .map(|(_, r)| match r {
                    Rsp::SampleCount { count } => *count,
                    other => panic!("expected SampleCount, got {other:?}"),
                })
                .collect();
        }
        let mut combined = self.own_rsp.take().expect("checked");
        for (_, r) in &contributions {
            combined = Self::combine(combined, r);
        }
        self.send_or_turn(combined, ctx);
    }

    fn send_or_turn(&mut self, combined: Rsp, ctx: &mut Ctx<impl BitSize + From<KMsg>>) {
        match self.view.parent() {
            Some(p) => ctx.send(p, KMsg::Up(combined).into()),
            None => {
                let next = self
                    .ctl
                    .as_mut()
                    .expect("anchor has a controller")
                    .on_up(combined);
                self.process_cmd(next, ctx);
            }
        }
    }

    /// The Hits wave completes when the node knows its l/r targets, every
    /// sampled candidate's order came back, and the children reported.
    fn try_send_hits(&mut self, ctx: &mut Ctx<impl BitSize + From<KMsg>>) {
        if !self.awaiting_hits || self.pending_orders > 0 || !self.collector.is_complete() {
            return;
        }
        self.awaiting_hits = false;
        let contributions = self.collector.take();
        let mut combined = Rsp::Hits {
            lo: self.hit_lo.take(),
            hi: self.hit_hi.take(),
        };
        for (_, r) in &contributions {
            combined = Self::combine(combined, r);
        }
        self.send_or_turn(combined, ctx);
    }

    // ---- sorting sub-protocol ------------------------------------------

    fn dispatch_place(&mut self, msg: RouteMsg<Place>, ctx: &mut Ctx<impl BitSize + From<KMsg>>) {
        match advance(&self.view, msg) {
            RouteOutcome::Delivered { payload, .. } => self.on_placed(payload, ctx),
            RouteOutcome::Forward { to, msg } => ctx.send(to, KMsg::Place(msg).into()),
        }
    }

    /// This node is v_i for the placed candidate: remember the origin and
    /// start distributing the n' copies.
    fn on_placed(&mut self, p: Place, ctx: &mut Ctx<impl BitSize + From<KMsg>>) {
        self.placed.insert((p.epoch, p.pos), (p.key, p.origin));
        self.hold_copy_range(
            Split {
                epoch: p.epoch,
                cand: p.pos,
                key: p.key,
                a: 1,
                b: p.n_prime,
                parent: self.view.me(),
                parent_copy: ROOT_PARENT,
            },
            ctx,
        );
    }

    /// Become the holder of copy range [a,b] of a candidate: keep the
    /// middle index, spawn the halves over de Bruijn hops, send our copy to
    /// its rendezvous.
    fn hold_copy_range(&mut self, s: Split, ctx: &mut Ctx<impl BitSize + From<KMsg>>) {
        debug_assert!(s.a <= s.b);
        let j = (s.a + s.b) / 2;
        self.tree_memberships
            .entry(s.epoch)
            .or_default()
            .insert(s.cand);
        let mut expected = 0u8;
        for (lo, hi, bit) in [(s.a, j.wrapping_sub(1), false), (j + 1, s.b, true)] {
            if lo > hi || hi == u64::MAX {
                continue;
            }
            expected += 1;
            let child = Split {
                epoch: s.epoch,
                cand: s.cand,
                key: s.key,
                a: lo,
                b: hi,
                parent: self.view.me(),
                parent_copy: j,
            };
            match hop_start(&self.view, bit, child) {
                HopOutcome::Arrived { payload } => self.hold_copy_range(payload, ctx),
                HopOutcome::Forward { to, msg } => ctx.send(to, KMsg::Split(msg).into()),
            }
        }
        let prev = self.copies.insert(
            (s.epoch, s.cand, j),
            CopyState {
                parent: s.parent,
                parent_copy: s.parent_copy,
                expected_children: expected,
                got_children: 0,
                own: None,
                acc_smaller: 0,
                acc_larger: 0,
            },
        );
        debug_assert!(prev.is_none(), "copy ({}, {}) held twice", s.cand, j);
        let cmp = Compare {
            epoch: s.epoch,
            cand: s.cand,
            copy: j,
            key: s.key,
            back: self.view.me(),
        };
        let msg = RouteMsg::start(self.view.me(), pair_point(s.epoch, s.cand, j), cmp);
        self.dispatch_compare(msg, ctx);
    }

    fn dispatch_compare(
        &mut self,
        msg: RouteMsg<Compare>,
        ctx: &mut Ctx<impl BitSize + From<KMsg>>,
    ) {
        match advance(&self.view, msg) {
            RouteOutcome::Delivered { payload, .. } => self.on_rendezvous(payload, ctx),
            RouteOutcome::Forward { to, msg } => ctx.send(to, KMsg::Compare(msg).into()),
        }
    }

    /// This node is w_{i,j}: match the two copies of the unordered pair.
    fn on_rendezvous(&mut self, c: Compare, ctx: &mut Ctx<impl BitSize + From<KMsg>>) {
        if c.cand == c.copy {
            // A candidate's own copy: contributes (0,0).
            ctx.send(
                c.back,
                KMsg::CmpResult {
                    epoch: c.epoch,
                    cand: c.cand,
                    copy: c.copy,
                    smaller: 0,
                    larger: 0,
                }
                .into(),
            );
            return;
        }
        let rkey = (c.epoch, c.cand.min(c.copy), c.cand.max(c.copy));
        match self.rendezvous.remove(&rkey) {
            None => {
                self.rendezvous.insert(
                    rkey,
                    PendingCompare {
                        cand: c.cand,
                        copy: c.copy,
                        key: c.key,
                        back: c.back,
                    },
                );
            }
            Some(first) => {
                debug_assert_eq!(first.cand, c.copy, "copies of the wrong pair met");
                debug_assert_eq!(first.copy, c.cand);
                // `first` is copy c_{j,i}, `c` is copy c_{i,j}: each learns
                // whether the *other* candidate is smaller than its own.
                let (c_smaller, first_smaller) = if c.key < first.key {
                    (0u64, 1u64)
                } else {
                    (1, 0)
                };
                ctx.send(
                    c.back,
                    KMsg::CmpResult {
                        epoch: c.epoch,
                        cand: c.cand,
                        copy: c.copy,
                        smaller: c_smaller,
                        larger: 1 - c_smaller,
                    }
                    .into(),
                );
                ctx.send(
                    first.back,
                    KMsg::CmpResult {
                        epoch: c.epoch,
                        cand: first.cand,
                        copy: first.copy,
                        smaller: first_smaller,
                        larger: 1 - first_smaller,
                    }
                    .into(),
                );
            }
        }
    }

    fn on_copy_progress(&mut self, key: (u64, u64, u64), ctx: &mut Ctx<impl BitSize + From<KMsg>>) {
        let state = self.copies.get(&key).expect("copy state exists");
        if !state.complete() {
            return;
        }
        let state = self.copies.remove(&key).expect("just seen");
        let (smaller, larger) = state.totals();
        let (epoch, cand, _) = key;
        if state.parent_copy == ROOT_PARENT {
            // Root of T(v_i): the totals cover all n' copies; order = L+1.
            let (ckey, origin) = self
                .placed
                .remove(&(epoch, cand))
                .expect("root holds the placement record");
            ctx.send(
                origin,
                KMsg::Order {
                    epoch,
                    key: ckey,
                    order: smaller + 1,
                }
                .into(),
            );
        } else {
            ctx.send(
                state.parent,
                KMsg::CopyAgg {
                    epoch,
                    cand,
                    parent_copy: state.parent_copy,
                    smaller,
                    larger,
                }
                .into(),
            );
        }
    }
}

impl KSelectNode {
    /// Activation hook: fires a queued selection at the anchor. Standalone
    /// through [`Protocol::on_activate`], or from an enclosing protocol.
    pub fn handle_activate(&mut self, ctx: &mut Ctx<impl BitSize + From<KMsg>>) {
        if let Some((m, k, cfg)) = self.pending_start.take() {
            self.start_select(m, k, cfg, ctx);
        }
    }

    /// Message hook: standalone through [`Protocol::on_message`], or from
    /// an enclosing protocol that unwrapped `msg` from its own alphabet.
    pub fn handle_message(
        &mut self,
        from: NodeId,
        msg: KMsg,
        ctx: &mut Ctx<impl BitSize + From<KMsg>>,
    ) {
        match msg {
            KMsg::Down(cmd) => self.process_cmd(cmd, ctx),
            KMsg::Up(rsp) => {
                self.collector.insert(from, rsp);
                self.try_send_up(ctx);
                self.try_send_hits(ctx);
            }
            KMsg::Place(m) => self.dispatch_place(m, ctx),
            KMsg::Split(m) => match hop_advance(&self.view, m) {
                HopOutcome::Arrived { payload } => self.hold_copy_range(payload, ctx),
                HopOutcome::Forward { to, msg } => ctx.send(to, KMsg::Split(msg).into()),
            },
            KMsg::Compare(m) => self.dispatch_compare(m, ctx),
            KMsg::CmpResult {
                epoch,
                cand,
                copy,
                smaller,
                larger,
            } => {
                let key = (epoch, cand, copy);
                let state = self.copies.get_mut(&key).expect("result for unknown copy");
                debug_assert!(state.own.is_none());
                state.own = Some((smaller, larger));
                self.on_copy_progress(key, ctx);
            }
            KMsg::CopyAgg {
                epoch,
                cand,
                parent_copy,
                smaller,
                larger,
            } => {
                let key = (epoch, cand, parent_copy);
                let state = self.copies.get_mut(&key).expect("agg for unknown copy");
                state.acc_smaller += smaller;
                state.acc_larger += larger;
                state.got_children += 1;
                debug_assert!(state.got_children <= state.expected_children);
                self.on_copy_progress(key, ctx);
            }
            KMsg::Order { epoch, key, order } => {
                assert_eq!(epoch, self.epoch, "order for a stale epoch");
                self.pending_orders -= 1;
                if order == self.lo_hi.0 {
                    debug_assert!(self.hit_lo.is_none());
                    self.hit_lo = Some(key);
                }
                if order == self.lo_hi.1 {
                    debug_assert!(self.hit_hi.is_none());
                    self.hit_hi = Some(key);
                }
                self.try_send_hits(ctx);
            }
        }
    }

    /// No sorting roles left open at this node.
    pub fn roles_drained(&self) -> bool {
        self.copies.is_empty() && self.rendezvous.is_empty() && self.placed.is_empty()
    }
}

impl Protocol for KSelectNode {
    type Msg = KMsg;

    fn on_activate(&mut self, ctx: &mut Ctx<KMsg>) {
        self.handle_activate(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: KMsg, ctx: &mut Ctx<KMsg>) {
        self.handle_message(from, msg, ctx);
    }

    fn done(&self) -> bool {
        self.roles_drained()
    }

    /// An activation only fires a queued selection.
    fn dormant(&self) -> bool {
        self.pending_start.is_none()
    }
}

impl dpq_core::StateHash for CopyState {
    fn state_hash(&self, h: &mut dpq_core::StateHasher) {
        self.parent.state_hash(h);
        h.write_u64(self.parent_copy);
        h.write_u64(self.expected_children as u64);
        h.write_u64(self.got_children as u64);
        self.own.state_hash(h);
        h.write_u64(self.acc_smaller);
        h.write_u64(self.acc_larger);
    }
}

impl dpq_core::StateHash for PendingCompare {
    fn state_hash(&self, h: &mut dpq_core::StateHasher) {
        h.write_u64(self.cand);
        h.write_u64(self.copy);
        self.key.state_hash(h);
        self.back.state_hash(h);
    }
}

impl dpq_core::StateHash for KSelectNode {
    fn state_hash(&self, h: &mut dpq_core::StateHasher) {
        // `view` is static per scenario; the RNG is real state (it drives
        // sampling), as is everything below. Unordered maps are hashed as
        // multisets so rebuild order never matters.
        self.rng.state_hash(h);
        self.cands.state_hash(h);
        self.collector.state_hash(h);
        self.own_rsp.state_hash(h);
        self.child_samples.state_hash(h);
        h.write_u64(self.epoch);
        h.write_u64(self.lo_hi.0);
        h.write_u64(self.lo_hi.1);
        self.own_samples.state_hash(h);
        h.write_u64(self.pending_orders as u64);
        h.write_u64(self.awaiting_hits as u64);
        self.hit_lo.state_hash(h);
        self.hit_hi.state_hash(h);
        h.write_unordered(self.copies.iter(), |h, (k, v)| {
            k.state_hash(h);
            v.state_hash(h);
        });
        h.write_unordered(self.rendezvous.iter(), |h, (k, v)| {
            k.state_hash(h);
            v.state_hash(h);
        });
        h.write_unordered(self.placed.iter(), |h, (k, v)| {
            k.state_hash(h);
            v.state_hash(h);
        });
        h.write_unordered(self.tree_memberships.iter(), |h, (k, set)| {
            h.write_u64(*k);
            h.write_unordered(set.iter(), |h, m| h.write_u64(*m));
        });
        self.ctl.state_hash(h);
        self.pending_start.state_hash(h);
        h.write_u64(self.announce as u64);
        self.result.state_hash(h);
    }
}
