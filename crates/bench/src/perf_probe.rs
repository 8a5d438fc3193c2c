//! Steady-state scheduler throughput measurement.
//!
//! A synthetic relay protocol keeps a fixed population of messages in
//! flight: every delivered token is immediately forwarded to the next node,
//! and the probe tops the population back up between measurement chunks
//! (fault plans destroy messages, so the population would otherwise decay).
//! Throughput is reported as adversary steps per second (async scheduler)
//! and rounds per second (sync scheduler), each measured with the null plan
//! and with a drop+dup+delay plan — the four headline metrics tracked in
//! `BENCH_*.json`.

use dpq_core::{BitSize, NodeId};
use dpq_sim::{
    AsyncScheduler, Ctx, FaultPlan, Hub, NullTelemetry, Protocol, SyncScheduler, Telemetry,
};
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
    async_steps_per_sec_with(plan, min_secs, NullTelemetry)
}

/// [`async_steps_per_sec`] with a live metrics hub attached — the "enabled"
/// half of BENCH_pr6's telemetry-overhead pair.
pub fn async_steps_per_sec_telemetry(plan: FaultPlan, min_secs: f64) -> f64 {
    async_steps_per_sec_with(plan, min_secs, Hub::new())
}

fn async_steps_per_sec_with<M: Telemetry>(plan: FaultPlan, min_secs: f64, telemetry: M) -> f64 {
    let mut s = AsyncScheduler::new(relays(PROBE_NODES, PROBE_INFLIGHT), 1)
        .with_faults(plan)
        .with_telemetry(telemetry);
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
    sync_rounds_per_sec_with(plan, min_secs, NullTelemetry)
}

/// [`sync_rounds_per_sec`] with a live metrics hub attached.
pub fn sync_rounds_per_sec_telemetry(plan: FaultPlan, min_secs: f64) -> f64 {
    sync_rounds_per_sec_with(plan, min_secs, Hub::new())
}

fn sync_rounds_per_sec_with<M: Telemetry>(plan: FaultPlan, min_secs: f64, telemetry: M) -> f64 {
    let per_node = 8u64;
    let mut s = SyncScheduler::new(relays(PROBE_NODES, PROBE_NODES * per_node))
        .with_faults(plan)
        .with_telemetry(telemetry);
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

/// The four headline throughput metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfMetrics {
    /// Async scheduler, null plan: adversary steps per second.
    pub async_clean_steps_per_sec: f64,
    /// Async scheduler, drop+dup+delay plan: adversary steps per second.
    pub async_faulty_steps_per_sec: f64,
    /// Sync scheduler, null plan: rounds per second.
    pub sync_clean_rounds_per_sec: f64,
    /// Sync scheduler, drop+dup+delay plan: rounds per second.
    pub sync_faulty_rounds_per_sec: f64,
}

/// Metric key names, in the order `zip_named` yields them.
pub const METRIC_NAMES: [&str; 4] = [
    "async_clean_steps_per_sec",
    "async_faulty_steps_per_sec",
    "sync_clean_rounds_per_sec",
    "sync_faulty_rounds_per_sec",
];

impl PerfMetrics {
    fn values(&self) -> [f64; 4] {
        [
            self.async_clean_steps_per_sec,
            self.async_faulty_steps_per_sec,
            self.sync_clean_rounds_per_sec,
            self.sync_faulty_rounds_per_sec,
        ]
    }

    /// Pair this snapshot's metrics with another's, by name.
    pub fn zip_named(&self, other: &PerfMetrics) -> Vec<(&'static str, f64, f64)> {
        METRIC_NAMES
            .iter()
            .zip(self.values())
            .zip(other.values())
            .map(|((n, a), b)| (*n, a, b))
            .collect()
    }

    /// Render as a flat JSON object with `prefix` on every key.
    pub fn to_json(&self, prefix: &str) -> String {
        let kv: Vec<String> = METRIC_NAMES
            .iter()
            .zip(self.values())
            .map(|(n, v)| format!("  \"{prefix}{n}\": {v:.0}"))
            .collect();
        format!("{{\n{}\n}}", kv.join(",\n"))
    }

    /// Extract `prefix`-keyed metrics from a flat JSON object (the dialect
    /// `to_json` and `scripts/bench-snapshot.sh` write; the workspace takes
    /// no JSON-parser dependency).
    pub fn from_json(text: &str, prefix: &str) -> Result<PerfMetrics, String> {
        let mut vals = [None; 4];
        for (slot, name) in vals.iter_mut().zip(METRIC_NAMES) {
            *slot = Some(json_number(text, &format!("{prefix}{name}"))?);
        }
        let [a, b, c, d] = vals.map(Option::unwrap);
        Ok(PerfMetrics {
            async_clean_steps_per_sec: a,
            async_faulty_steps_per_sec: b,
            sync_clean_rounds_per_sec: c,
            sync_faulty_rounds_per_sec: d,
        })
    }
}

/// Find `"key": <number>` in a flat JSON object.
fn json_number(text: &str, key: &str) -> Result<f64, String> {
    let needle = format!("\"{key}\"");
    let at = text
        .find(&needle)
        .ok_or_else(|| format!("key `{key}` not found"))?;
    let rest = &text[at + needle.len()..];
    let rest = rest
        .trim_start()
        .strip_prefix(':')
        .ok_or_else(|| format!("key `{key}`: expected `:`"))?
        .trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end]
        .parse::<f64>()
        .map_err(|_| format!("key `{key}`: not a number"))
}

/// Measure all four metrics (a few seconds of wall-clock).
pub fn measure_all() -> PerfMetrics {
    let secs = 1.5;
    PerfMetrics {
        async_clean_steps_per_sec: async_steps_per_sec(FaultPlan::none(), secs),
        async_faulty_steps_per_sec: async_steps_per_sec(probe_plan(), secs),
        sync_clean_rounds_per_sec: sync_rounds_per_sec(FaultPlan::none(), secs),
        sync_faulty_rounds_per_sec: sync_rounds_per_sec(probe_plan(), secs),
    }
}

/// Measure the telemetry overhead pair: async clean steps/s with the no-op
/// sink (`NullTelemetry`, the default everywhere) vs with a live
/// [`dpq_sim::Hub`] recording every delivery. The clean async path is the
/// hottest configuration, so it bounds the per-event cost of the hooks.
pub fn measure_telemetry_pair() -> (f64, f64) {
    let secs = 1.5;
    (
        async_steps_per_sec(FaultPlan::none(), secs),
        async_steps_per_sec_telemetry(FaultPlan::none(), secs),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip() {
        let m = PerfMetrics {
            async_clean_steps_per_sec: 1000.0,
            async_faulty_steps_per_sec: 2000.0,
            sync_clean_rounds_per_sec: 3000.0,
            sync_faulty_rounds_per_sec: 4000.0,
        };
        let j = m.to_json("after_");
        let back = PerfMetrics::from_json(&j, "after_").unwrap();
        assert_eq!(m, back);
        assert!(PerfMetrics::from_json(&j, "before_").is_err());
    }

    #[test]
    fn json_number_handles_surrounding_keys() {
        let text = r#"{ "jobs": 4, "after_x": 12.5, "suite": 9 }"#;
        assert_eq!(json_number(text, "after_x").unwrap(), 12.5);
        assert_eq!(json_number(text, "jobs").unwrap(), 4.0);
        assert!(json_number(text, "missing").is_err());
    }

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
