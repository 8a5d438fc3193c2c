//! The anchor's control state machine: sequencing KSelect's waves.
//!
//! The anchor owns the global counters `v₀.N` (remaining candidates) and
//! `v₀.k` (remaining rank) and advances the protocol one wave at a time:
//! `log₂(q)+1` Phase-1 iterations (propagate bounds → prune), Phase-2
//! iterations (sample → sort → window-count → prune) until `N` falls under
//! the Phase-3 threshold, then one exact all-pairs round.

use crate::msgs::{Cmd, Rsp};
use dpq_core::Key;

/// Tunables. The paper fixes shapes (√n samples, δ ∈ Θ(√(log n)·n^¼));
/// the coefficients are free constants that trade pruning speed against
/// guard-trip probability.
#[derive(Debug, Clone, Copy)]
pub struct KSelectConfig {
    /// Sample ≈ `sample_coeff·√n` representatives per Phase-2 iteration.
    pub sample_coeff: f64,
    /// δ = ⌈delta_coeff·√(ln n)·n^¼⌉.
    pub delta_coeff: f64,
    /// Enter Phase 3 once `N ≤ p3_threshold_coeff·√n`.
    pub p3_threshold_coeff: f64,
    /// Safety cap on Phase-2 iterations before forcing Phase 3.
    pub max_p2_iters: u32,
    /// Whether the anchor broadcasts the final result over the tree
    /// (standalone mode). Embedded uses turn this off.
    pub announce: bool,
}

impl Default for KSelectConfig {
    fn default() -> Self {
        KSelectConfig {
            sample_coeff: 4.0,
            delta_coeff: 1.0,
            p3_threshold_coeff: 4.0,
            max_p2_iters: 40,
            announce: true,
        }
    }
}

/// Observable run statistics (experiments E6–E8).
#[derive(Debug, Clone, Copy, Default)]
pub struct KStats {
    /// N after the Phase-1 iterations (Lemma 4.4's bound).
    pub n_after_p1: u64,
    /// Completed Phase-2 iterations (Lemma 4.7 predicts Θ(1)).
    pub p2_iterations: u32,
    /// Iterations where the w.h.p. window missed rank k (expected ≈ 0).
    pub guard_trips: u32,
    /// Iterations where sampling selected nothing and was repeated.
    pub resamples: u32,
    /// N when Phase 3 started.
    pub n_at_p3: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    P1Bounds,
    P1Prune,
    P2Sample,
    P2Sort,
    P2Window,
    P3Sample,
    P3Sort,
    Done,
}

/// Anchor-side sequencing of the protocol.
#[derive(Debug)]
pub struct AnchorCtl {
    cfg: KSelectConfig,
    n: u64,
    /// Remaining candidates (the paper's v₀.N).
    pub n_remaining: u64,
    /// Remaining rank (the paper's v₀.k).
    pub k: u64,
    phase: Phase,
    p1_iters_left: u32,
    epoch: u64,
    n_prime: u64,
    cl: Key,
    cr: Key,
    pending_prune: Option<(Key, Key)>,
    no_progress_streak: u32,
    /// Observable run statistics.
    pub stats: KStats,
    /// The selected key, once Phase 3 finishes.
    pub result: Option<Key>,
}

impl AnchorCtl {
    /// Begin a selection of rank `k` among `m` candidates on `n` nodes.
    /// Returns the first down-wave command.
    pub fn start(n: u64, m: u64, k: u64, cfg: KSelectConfig) -> (AnchorCtl, Cmd) {
        assert!(n >= 1 && m >= 1 && (1..=m).contains(&k), "need 1 ≤ k ≤ m");
        // q with m ≤ n^q; Phase 1 runs log₂(q)+1 iterations (§4.1).
        let q = if n <= 1 {
            1.0
        } else {
            ((m as f64).ln() / (n as f64).ln()).max(1.0)
        };
        let p1_iters = (q.log2().max(0.0).ceil() as u32) + 1;
        let mut ctl = AnchorCtl {
            cfg,
            n,
            n_remaining: m,
            k,
            phase: Phase::P1Bounds,
            p1_iters_left: p1_iters,
            epoch: 0,
            n_prime: 0,
            cl: Key::MIN,
            cr: Key::MAX,
            pending_prune: None,
            no_progress_streak: 0,
            stats: KStats::default(),
            result: None,
        };
        let cmd = if ctl.below_p3_threshold() {
            ctl.stats.n_after_p1 = ctl.n_remaining;
            ctl.enter_p3_sample()
        } else {
            Cmd::P1Bounds { k: ctl.k, n: ctl.n }
        };
        (ctl, cmd)
    }

    fn p3_threshold(&self) -> u64 {
        (self.cfg.p3_threshold_coeff * (self.n as f64).sqrt()).ceil() as u64
    }

    fn below_p3_threshold(&self) -> bool {
        self.n_remaining <= self.p3_threshold()
    }

    fn delta(&self) -> u64 {
        let nf = self.n as f64;
        (self.cfg.delta_coeff * nf.ln().max(1.0).sqrt() * nf.powf(0.25)).ceil() as u64
    }

    fn enter_p2_sample(&mut self) -> Cmd {
        self.phase = Phase::P2Sample;
        self.epoch += 1;
        let prob =
            (self.cfg.sample_coeff * (self.n as f64).sqrt() / self.n_remaining as f64).min(1.0);
        Cmd::Sample {
            epoch: self.epoch,
            prune: self.pending_prune.take(),
            prob,
        }
    }

    fn enter_p3_sample(&mut self) -> Cmd {
        self.phase = Phase::P3Sample;
        self.epoch += 1;
        self.stats.n_at_p3 = self.n_remaining;
        Cmd::Sample {
            epoch: self.epoch,
            prune: self.pending_prune.take(),
            prob: 1.0,
        }
    }

    fn after_p2_or_p1(&mut self) -> Cmd {
        if self.below_p3_threshold()
            || self.stats.p2_iterations >= self.cfg.max_p2_iters
            || self.no_progress_streak >= 2
        {
            self.enter_p3_sample()
        } else {
            self.enter_p2_sample()
        }
    }

    /// Advance on a completed up-wave; returns the next down-wave command
    /// (the anchor also processes it locally).
    pub fn on_up(&mut self, rsp: Rsp) -> Cmd {
        match (self.phase, rsp) {
            (Phase::P1Bounds, Rsp::MinMax { pmin, pmax }) => {
                self.phase = Phase::P1Prune;
                Cmd::P1Prune { pmin, pmax }
            }
            (Phase::P1Prune, Rsp::Counts { below, above }) => {
                self.n_remaining -= below + above;
                self.k -= below;
                debug_assert!(self.k >= 1 && self.k <= self.n_remaining);
                self.p1_iters_left -= 1;
                if self.p1_iters_left > 0 && !self.below_p3_threshold() {
                    self.phase = Phase::P1Bounds;
                    Cmd::P1Bounds {
                        k: self.k,
                        n: self.n,
                    }
                } else {
                    self.stats.n_after_p1 = self.n_remaining;
                    self.after_p2_or_p1()
                }
            }
            (Phase::P2Sample, Rsp::SampleCount { count }) => {
                if count == 0 {
                    self.stats.resamples += 1;
                    return self.enter_p2_sample();
                }
                self.n_prime = count;
                let expected = self.k as f64 * count as f64 / self.n_remaining as f64;
                let delta = self.delta() as f64;
                let l = (expected - delta).floor();
                let r = (expected + delta).ceil();
                let lo = if l >= 1.0 { l as u64 } else { 0 };
                let hi = if r <= count as f64 { r as u64 } else { 0 };
                self.phase = Phase::P2Sort;
                Cmd::Positions {
                    epoch: self.epoch,
                    lo,
                    hi,
                    first: 1,
                    last: count,
                    n_prime: count,
                }
            }
            (Phase::P2Sort, Rsp::Hits { lo, hi }) => {
                self.cl = lo.unwrap_or(Key::MIN);
                self.cr = hi.unwrap_or(Key::MAX);
                self.phase = Phase::P2Window;
                Cmd::WindowCount {
                    cl: self.cl,
                    cr: self.cr,
                }
            }
            (Phase::P2Window, Rsp::Counts { below, above }) => {
                self.stats.p2_iterations += 1;
                let in_window = self.k > below && self.k <= self.n_remaining - above;
                if in_window && below + above > 0 {
                    self.pending_prune = Some((self.cl, self.cr));
                    self.n_remaining -= below + above;
                    self.k -= below;
                    self.no_progress_streak = 0;
                } else {
                    if !in_window {
                        self.stats.guard_trips += 1;
                    }
                    self.no_progress_streak += 1;
                }
                self.after_p2_or_p1()
            }
            (Phase::P3Sample, Rsp::SampleCount { count }) => {
                debug_assert_eq!(count, self.n_remaining, "Phase 3 selects everything");
                self.n_prime = count;
                self.phase = Phase::P3Sort;
                Cmd::Positions {
                    epoch: self.epoch,
                    lo: self.k,
                    hi: self.k,
                    first: 1,
                    last: count,
                    n_prime: count,
                }
            }
            (Phase::P3Sort, Rsp::Hits { lo, .. }) => {
                let result = lo.expect("rank k exists in Phase 3");
                self.result = Some(result);
                self.phase = Phase::Done;
                Cmd::Announce { result }
            }
            (phase, rsp) => panic!("unexpected response {rsp:?} in phase {phase:?}"),
        }
    }
}

impl dpq_core::StateHash for KSelectConfig {
    fn state_hash(&self, h: &mut dpq_core::StateHasher) {
        self.sample_coeff.state_hash(h);
        self.delta_coeff.state_hash(h);
        self.p3_threshold_coeff.state_hash(h);
        h.write_u64(self.max_p2_iters as u64);
        h.write_u64(self.announce as u64);
    }
}

impl dpq_core::StateHash for AnchorCtl {
    fn state_hash(&self, h: &mut dpq_core::StateHasher) {
        // `stats` is mostly telemetry, but `p2_iterations` gates the forced
        // drop into Phase 3 (`after_p2_or_p1`), so it is real state.
        self.cfg.state_hash(h);
        h.write_u64(self.n);
        h.write_u64(self.n_remaining);
        h.write_u64(self.k);
        h.write_u64(match self.phase {
            Phase::P1Bounds => 0,
            Phase::P1Prune => 1,
            Phase::P2Sample => 2,
            Phase::P2Sort => 3,
            Phase::P2Window => 4,
            Phase::P3Sample => 5,
            Phase::P3Sort => 6,
            Phase::Done => 7,
        });
        h.write_u64(self.p1_iters_left as u64);
        h.write_u64(self.epoch);
        h.write_u64(self.n_prime);
        self.cl.state_hash(h);
        self.cr.state_hash(h);
        self.pending_prune.state_hash(h);
        h.write_u64(self.no_progress_streak as u64);
        h.write_u64(self.stats.p2_iterations as u64);
        self.result.state_hash(h);
    }
}
