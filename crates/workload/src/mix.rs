//! Priority mixes: which priority the next insert carries.
//!
//! Skeap's priority universe is constant and small (`prio < n_prios`, a
//! hard assertion in `SkeapNode::issue`), so every mix maps into
//! `0..n_prios`. The adversarial mix, **FifoAdversarial**, puts every
//! insert at priority 0: the heap degenerates to a FIFO on the ElemId
//! tiebreaker; relaxed queues that shortcut on priority alone reorder
//! freely here, so rank error is maximally visible.

use crate::zipf::Zipf;
use dpq_core::DetRng;

/// The shape of the priority distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MixKind {
    /// Uniform over the universe.
    Uniform,
    /// Zipf(s)-skewed: priority k with probability ∝ (k+1)^-s.
    Zipf {
        /// Skew exponent.
        s: f64,
    },
    /// All inserts at priority 0 (FIFO on the tiebreaker).
    FifoAdversarial,
}

/// A priority generator over `0..n_prios`.
#[derive(Debug, Clone)]
pub struct Mix {
    kind: MixKind,
    n_prios: u64,
    zipf: Option<Zipf>,
}

impl Mix {
    /// Build a mix over the universe `0..n_prios`.
    pub fn new(kind: MixKind, n_prios: u64) -> Self {
        assert!(n_prios > 0, "priority universe must be non-empty");
        let zipf = match kind {
            MixKind::Zipf { s } => Some(Zipf::new(n_prios, s)),
            _ => None,
        };
        Mix {
            kind,
            n_prios,
            zipf,
        }
    }

    /// Priority of the next insert. Always `< n_prios`.
    pub fn next_prio(&self, rng: &mut DetRng) -> u64 {
        match self.kind {
            MixKind::Uniform => rng.below(self.n_prios),
            MixKind::Zipf { .. } => self.zipf.as_ref().expect("zipf built in new").sample(rng),
            MixKind::FifoAdversarial => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(kind: MixKind, n_prios: u64, count: usize) -> Vec<u64> {
        let m = Mix::new(kind, n_prios);
        let mut rng = DetRng::new(5);
        (0..count).map(|_| m.next_prio(&mut rng)).collect()
    }

    #[test]
    fn every_mix_stays_in_universe() {
        for kind in [
            MixKind::Uniform,
            MixKind::Zipf { s: 1.0 },
            MixKind::FifoAdversarial,
        ] {
            for p in draws(kind, 5, 1000) {
                assert!(p < 5, "{kind:?} escaped the universe: {p}");
            }
        }
    }

    #[test]
    fn fifo_is_all_zero() {
        assert!(draws(MixKind::FifoAdversarial, 8, 100)
            .iter()
            .all(|&p| p == 0));
    }

    #[test]
    fn zipf_mix_skews_low() {
        let d = draws(MixKind::Zipf { s: 1.2 }, 16, 10_000);
        let low = d.iter().filter(|&&p| p < 4).count();
        assert!(low > 6_000, "low-priority mass {low}");
    }

    #[test]
    fn single_prio_universe_never_panics() {
        for kind in [
            MixKind::Uniform,
            MixKind::Zipf { s: 1.0 },
            MixKind::FifoAdversarial,
        ] {
            assert!(draws(kind, 1, 100).iter().all(|&p| p == 0));
        }
    }
}
