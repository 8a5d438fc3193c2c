//! Steady-state scheduler throughput measurement.
//!
//! A synthetic relay protocol keeps a fixed population of messages in
//! flight: every delivered token is immediately forwarded to the next node,
//! and the probe tops the population back up between measurement chunks
//! (fault plans destroy messages, so the population would otherwise decay).
//! Throughput is reported as adversary steps per second (async scheduler)
//! and rounds per second (sync scheduler), each measured with the null plan
//! and with a drop+dup+delay plan — the series the perf ledger carries as
//! `sim.sync_rounds_per_s` and `sim.async_steps_per_s` (`benchmark/`).

use dpq_core::{BitSize, NodeId};
use dpq_sim::{AsyncScheduler, Ctx, FaultPlan, Protocol, SyncScheduler};
use std::time::Instant;

/// Relay node: forwards every received token to the next node on the ring
/// and emits `queued` fresh tokens (spread round-robin) when activated.
pub struct Relay {
    me: u64,
    n: u64,
    /// Fresh tokens to emit on the next activation (the probe's injection
    /// valve — it refills this on node 0 to hold the population steady).
    pub queued: u64,
    spray: u64,
}

/// The unit message relayed around the probe ring.
#[derive(Clone, Copy)]
pub struct Token;

impl BitSize for Token {
    fn bits(&self) -> u64 {
        1
    }
}

impl Protocol for Relay {
    type Msg = Token;

    fn on_activate(&mut self, ctx: &mut Ctx<Token>) {
        for _ in 0..self.queued {
            self.spray = (self.spray + 1) % self.n;
            let dst = if self.spray == self.me {
                (self.spray + 1) % self.n
            } else {
                self.spray
            };
            ctx.send(NodeId(dst), Token);
        }
        self.queued = 0;
    }

    fn on_message(&mut self, _from: NodeId, _msg: Token, ctx: &mut Ctx<Token>) {
        ctx.send(NodeId((self.me + 1) % self.n), Token);
    }

    fn done(&self) -> bool {
        false
    }
}

/// Build an `n`-node relay ring with `seeded` tokens queued on node 0.
pub fn relays(n: u64, seeded: u64) -> Vec<Relay> {
    (0..n)
        .map(|me| Relay {
            me,
            n,
            queued: if me == 0 { seeded } else { 0 },
            spray: me,
        })
        .collect()
}

/// The fault plan the `*_faulty` metrics run under: light loss and
/// duplication plus delay inflation, so the maturity-tracking path (the
/// pre-PR-3 O(|in-flight|) scan) is exercised on every step.
pub fn probe_plan() -> FaultPlan {
    FaultPlan::uniform(0xBEEF, 0.02, 0.02).with_delay(0.1, 16)
}

/// Number of nodes in the probe cluster.
pub const PROBE_NODES: u64 = 64;
/// Target in-flight population for the async probe (the ISSUE's 10k regime).
pub const PROBE_INFLIGHT: u64 = 10_000;

/// Measure async-scheduler throughput in steps/sec under `plan`.
pub fn async_steps_per_sec(plan: FaultPlan, min_secs: f64) -> f64 {
    let mut s = AsyncScheduler::new(relays(PROBE_NODES, PROBE_INFLIGHT), 1).with_faults(plan);
    // Prime: one sweep activation emits the initial population.
    while (s.in_flight() as u64) < PROBE_INFLIGHT {
        s.step_once();
    }
    let chunk = 10_000u64;
    let t0 = Instant::now();
    let mut steps = 0u64;
    loop {
        for _ in 0..chunk {
            s.step_once();
        }
        steps += chunk;
        // Top the population back up (drops shrink it; dups grow it).
        let pop = s.in_flight() as u64;
        if pop < PROBE_INFLIGHT {
            s.node_mut(NodeId(0)).queued += PROBE_INFLIGHT - pop;
        }
        if t0.elapsed().as_secs_f64() >= min_secs {
            return steps as f64 / t0.elapsed().as_secs_f64();
        }
    }
}

/// Measure sync-scheduler throughput in rounds/sec under `plan`. Every node
/// relays its inbox each round, so each round moves ~`PROBE_NODES` messages.
pub fn sync_rounds_per_sec(plan: FaultPlan, min_secs: f64) -> f64 {
    let per_node = 8u64;
    let mut s = SyncScheduler::new(relays(PROBE_NODES, PROBE_NODES * per_node)).with_faults(plan);
    s.step_round(); // emit the initial population
    let chunk = 2_000u64;
    let t0 = Instant::now();
    let mut rounds = 0u64;
    loop {
        for _ in 0..chunk {
            s.step_round();
        }
        rounds += chunk;
        let pop = s.in_flight() as u64;
        if pop < PROBE_NODES * per_node {
            s.node_mut(NodeId(0)).queued += PROBE_NODES * per_node - pop;
        }
        if t0.elapsed().as_secs_f64() >= min_secs {
            return rounds as f64 / t0.elapsed().as_secs_f64();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relay_population_is_sustained() {
        // Clean plan: the relay keeps exactly the seeded population moving.
        let mut s = AsyncScheduler::new(relays(8, 100), 3);
        for _ in 0..2_000 {
            s.step_once();
        }
        assert_eq!(s.in_flight(), 100);
    }
}
