//! Phi-accrual suspicion over heartbeat inter-arrival times.
//!
//! Hayashibara et al.'s phi-accrual detector outputs a *suspicion level*
//! rather than a boolean: `phi(t) = -log10 P(next heartbeat arrives after
//! t)`. We model inter-arrival times with an exponential tail fitted to the
//! sampled mean — `P(T > t) = exp(-t/mean)` — giving the closed form
//! `phi(t) = t / (mean · ln 10)`. Crossing `phi = k` therefore means the
//! silence has lasted `k` times longer than `mean · ln 10 ≈ 2.30 · mean`,
//! and each unit of threshold multiplies the tolerated silence (and divides
//! the false-positive odds by 10, under the model).
//!
//! Time here is *logical* (scheduler rounds or runtime ticks) — the paper's
//! processes have no wall clocks, and neither does the simulator.

/// `1 / ln 10`: converts elapsed-over-mean into decimal digits of surprise.
const INV_LN10: f64 = std::f64::consts::LOG10_E;

/// Sliding window over the last few heartbeat inter-arrival intervals for
/// one peer.
#[derive(Debug, Clone)]
pub struct ArrivalWindow {
    /// Ring of recent intervals.
    ring: [u64; Self::CAP],
    len: usize,
    at: usize,
    sum: u64,
    /// Logical time of the most recent heartbeat observation.
    last: u64,
}

impl ArrivalWindow {
    /// Number of intervals retained; small so the detector adapts quickly
    /// when gossip pressure changes (e.g. membership growth stretches the
    /// mean inter-observation gap).
    pub const CAP: usize = 16;

    /// A window bootstrapped at `now` — the registration instant counts as
    /// the first observation so silence is measured from first contact.
    pub fn new(now: u64) -> Self {
        ArrivalWindow {
            ring: [0; Self::CAP],
            len: 0,
            at: 0,
            sum: 0,
            last: now,
        }
    }

    /// Record a heartbeat observation at `now`.
    pub fn observe(&mut self, now: u64) {
        let dt = now.saturating_sub(self.last);
        self.last = now;
        if self.len == Self::CAP {
            self.sum -= self.ring[self.at];
        } else {
            self.len += 1;
        }
        self.ring[self.at] = dt;
        self.sum += dt;
        self.at = (self.at + 1) % Self::CAP;
    }

    /// Forget the elapsed silence without counting it as an interval — used
    /// when the *observer* was paused (crash-recover, long GC): the gap says
    /// nothing about the peer.
    pub fn rebase(&mut self, now: u64) {
        self.last = now;
    }

    /// Mean sampled interval, or `bootstrap` before enough samples exist.
    /// Clamped below by 1 so a burst of same-round observations cannot make
    /// every future silence look infinitely surprising.
    pub fn mean(&self, bootstrap: f64) -> f64 {
        if self.len < 2 {
            bootstrap.max(1.0)
        } else {
            (self.sum as f64 / self.len as f64).max(1.0)
        }
    }

    /// Suspicion level at `now`.
    pub fn phi(&self, now: u64, bootstrap: f64) -> f64 {
        let t = now.saturating_sub(self.last) as f64;
        t * INV_LN10 / self.mean(bootstrap)
    }

    /// Logical time at which `phi` will first reach `threshold` if the peer
    /// stays silent — the detector's re-check deadline.
    pub fn deadline(&self, threshold: f64, bootstrap: f64) -> u64 {
        let t = threshold * self.mean(bootstrap) / INV_LN10;
        self.last + (t.ceil() as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phi_grows_linearly_with_silence() {
        let mut w = ArrivalWindow::new(0);
        for t in (10..=100).step_by(10) {
            w.observe(t);
        }
        // Mean interval is 10; phi at 23 rounds of silence ≈ 1 decimal digit.
        let p1 = w.phi(100 + 23, 8.0);
        assert!((p1 - 1.0).abs() < 0.05, "phi {p1}");
        let p2 = w.phi(100 + 46, 8.0);
        assert!((p2 - 2.0).abs() < 0.1, "phi {p2}");
        assert!(w.phi(100, 8.0) == 0.0);
    }

    #[test]
    fn bootstrap_mean_governs_until_samples_arrive() {
        let w = ArrivalWindow::new(0);
        // One (implicit) observation: bootstrap mean 4 → phi 1 at ~9.2.
        assert!(w.phi(4, 4.0) < 0.5);
        assert!(w.phi(40, 4.0) > 3.0);
    }

    #[test]
    fn deadline_matches_phi_crossing() {
        let mut w = ArrivalWindow::new(0);
        for t in (5..=50).step_by(5) {
            w.observe(t);
        }
        let d = w.deadline(3.0, 8.0);
        assert!(w.phi(d, 8.0) >= 3.0);
        assert!(w.phi(d - 2, 8.0) < 3.0);
    }

    #[test]
    fn rebase_swallows_the_gap() {
        let mut w = ArrivalWindow::new(0);
        for t in (5..=25).step_by(5) {
            w.observe(t);
        }
        w.rebase(1000);
        assert_eq!(w.phi(1000, 8.0), 0.0);
        // The gap did not pollute the sampled mean.
        assert!((w.mean(8.0) - 5.0).abs() < 0.01);
    }

    #[test]
    fn window_slides() {
        let mut w = ArrivalWindow::new(0);
        let mut t = 0;
        for _ in 0..ArrivalWindow::CAP {
            t += 100;
            w.observe(t);
        }
        // Now fill with fast intervals; the old slow ones age out.
        for _ in 0..ArrivalWindow::CAP {
            t += 2;
            w.observe(t);
        }
        assert!((w.mean(8.0) - 2.0).abs() < 0.01);
    }
}
