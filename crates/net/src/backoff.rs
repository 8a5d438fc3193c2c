//! Reconnect backoff with **decorrelated jitter** and a hard cap.
//!
//! Deterministic doubling (`10, 20, 40, … 500ms`) synchronises every dialer
//! that observed the same failure: when a node restarts, all of its peers'
//! dialers wake on the same schedule and stampede the fresh listener
//! together. Decorrelated jitter breaks the lockstep — each delay is drawn
//! uniformly from `[base, min(cap, prev · 3)]`, so retries spread out while
//! still growing geometrically in expectation and never exceeding the cap.
//!
//! The first delay after a reset is exactly `base` (fail fast once), and a
//! successful connection resets the schedule.

use std::time::Duration;

/// The first delay after a reset, in milliseconds.
const BASE_MS: u64 = 10;
/// The longest delay, in milliseconds.
const CAP_MS: u64 = 500;

/// A decorrelated-jitter backoff schedule. Deterministic given its seed, so
/// tests can pin the exact draw sequence while distinct dialers (seeded by
/// peer id) still decorrelate.
#[derive(Debug, Clone)]
pub struct Backoff {
    prev_ms: Option<u64>,
    state: u64,
}

impl Backoff {
    /// A schedule starting at 10 ms and hard-capped at 500 ms.
    pub fn new(seed: u64) -> Backoff {
        Backoff {
            prev_ms: None,
            state: seed,
        }
    }

    /// Next xorshift64* draw — small, fast, and plenty for jitter.
    fn rand(&mut self) -> u64 {
        let mut x = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        self.state = x;
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// The next delay to sleep before re-dialing.
    pub fn next_delay(&mut self) -> Duration {
        let ms = match self.prev_ms {
            // Fail fast exactly once, then decorrelate.
            None => BASE_MS,
            Some(prev) => {
                let hi = prev.saturating_mul(3).min(CAP_MS);
                BASE_MS + self.rand() % (hi - BASE_MS + 1)
            }
        };
        self.prev_ms = Some(ms);
        Duration::from_millis(ms)
    }

    /// A connection succeeded: the next failure starts over from `base`.
    pub fn reset(&mut self) {
        self.prev_ms = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: Duration = Duration::from_millis(BASE_MS);
    const CAP: Duration = Duration::from_millis(CAP_MS);

    /// Every delay the schedule can ever produce sits inside `[base, cap]`,
    /// and the first one after (re)set is exactly `base`.
    #[test]
    fn envelope_holds_for_the_whole_schedule() {
        for seed in 0..32u64 {
            let mut b = Backoff::new(seed);
            assert_eq!(b.next_delay(), BASE, "first delay fails fast");
            for _ in 0..200 {
                let d = b.next_delay();
                assert!(d >= BASE, "delay {d:?} below base");
                assert!(d <= CAP, "delay {d:?} above cap");
            }
            b.reset();
            assert_eq!(b.next_delay(), BASE, "reset restarts at base");
        }
    }

    /// The schedule actually grows toward the cap: within a few retries the
    /// upper envelope `min(cap, prev·3)` admits cap-sized delays, and long
    /// runs do reach the top quartile.
    #[test]
    fn schedule_reaches_the_cap_region() {
        let mut b = Backoff::new(7);
        let max = (0..200).map(|_| b.next_delay().as_millis()).max().unwrap();
        assert!(max > 375, "200 retries never exceeded {max}ms");
    }

    /// Two dialers with different seeds do not retry in lockstep — the whole
    /// point of the jitter.
    #[test]
    fn distinct_seeds_decorrelate() {
        let mut a = Backoff::new(1);
        let mut b = Backoff::new(2);
        let sa: Vec<Duration> = (0..20).map(|_| a.next_delay()).collect();
        let sb: Vec<Duration> = (0..20).map(|_| b.next_delay()).collect();
        assert_ne!(sa, sb);
        // And the same seed is reproducible, so tests can pin schedules.
        let mut a2 = Backoff::new(1);
        let sa2: Vec<Duration> = (0..20).map(|_| a2.next_delay()).collect();
        assert_eq!(sa, sa2);
    }

    /// Expected growth: the mean of many schedules ramps up — retry k=8
    /// averages well above retry k=1 across seeds.
    #[test]
    fn delays_grow_geometrically_in_expectation() {
        let (mut early, mut late) = (0u128, 0u128);
        for seed in 0..64u64 {
            let mut b = Backoff::new(seed);
            let s: Vec<u128> = (0..9).map(|_| b.next_delay().as_millis()).collect();
            early += s[1];
            late += s[8];
        }
        assert!(late > early * 2, "late {late} vs early {early}");
    }
}
