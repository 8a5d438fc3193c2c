//! Open-loop workload specs and their on-disk TOML form.
//!
//! A spec is a *pure description*: the injection schedule is a deterministic
//! function of the spec alone ([`crate::schedule::Schedule::generate`]), so
//! a spec + seed names a workload the way a seed names a run. The TOML
//! parser follows the workspace convention (see `dpq-sim`'s fault plans):
//! hand-rolled, line-based, flat `key = value`, unknown keys are hard
//! errors — a typo must fail loudly, not silently run the default workload.

use crate::arrivals::{Arrivals, Mmpp, Poisson};
use crate::mix::{Mix, MixKind};
use dpq_core::text::{parse_f64, parse_str, parse_u64, toml_kv, toml_lines};

/// Which arrival process drives injections.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalSpec {
    /// Memoryless Poisson stream at the spec's `rate`.
    Poisson,
    /// 2-state MMPP: calm at `rate`, bursts at `rate × burst_mult`.
    Mmpp {
        /// Burst-state intensity multiplier (≥ 1).
        burst_mult: f64,
        /// Mean calm-state dwell, ticks.
        dwell_calm: f64,
        /// Mean burst-state dwell, ticks.
        dwell_burst: f64,
    },
}

/// A complete open-loop workload description.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopSpec {
    /// Cluster size the trace is multiplexed over.
    pub n: usize,
    /// Logical clients. Each arrival is attributed to a uniformly drawn
    /// client; a client always enters through the same (hashed) node, so
    /// millions of clients funnel through n stable entry points.
    pub clients: u64,
    /// Cluster-wide arrival rate, requests per simulated tick (the calm
    /// rate for MMPP).
    pub rate: f64,
    /// Horizon: arrivals are generated for ticks `0..ticks`.
    pub ticks: u64,
    /// Simulated ticks per scheduler round (the open-loop time base; see
    /// `SyncScheduler::set_ticks_per_round`).
    pub ticks_per_round: u64,
    /// Probability an arrival is an Insert (the rest are DeleteMin).
    pub insert_ratio: f64,
    /// Priority universe size (Skeap asserts `prio < n_prios`).
    pub n_prios: u64,
    /// Arrival process.
    pub arrivals: ArrivalSpec,
    /// Priority mix for inserts.
    pub mix: MixKind,
    /// Workload seed.
    pub seed: u64,
}

impl OpenLoopSpec {
    /// A small, balanced Poisson/uniform default — the starting point the
    /// TOML file mutates.
    pub fn base() -> Self {
        OpenLoopSpec {
            n: 8,
            clients: 10_000,
            rate: 4.0,
            ticks: 128,
            ticks_per_round: 4,
            insert_ratio: 0.6,
            n_prios: 16,
            arrivals: ArrivalSpec::Poisson,
            mix: MixKind::Uniform,
            seed: 1,
        }
    }

    /// Panic on a nonsensical spec (zero nodes, rates, horizons…).
    pub fn validate(&self) {
        assert!(self.n > 0, "spec needs nodes");
        assert!(self.clients > 0, "spec needs clients");
        assert!(
            self.rate > 0.0 && self.rate.is_finite(),
            "rate must be positive"
        );
        assert!(self.ticks > 0, "horizon must be positive");
        assert!(self.ticks_per_round > 0, "ticks_per_round must be positive");
        assert!(
            (0.0..=1.0).contains(&self.insert_ratio),
            "insert_ratio must be a probability"
        );
        assert!(self.n_prios > 0, "priority universe must be non-empty");
        if let ArrivalSpec::Mmpp {
            burst_mult,
            dwell_calm,
            dwell_burst,
        } = self.arrivals
        {
            assert!(burst_mult >= 1.0, "burst_mult must be >= 1");
            assert!(
                dwell_calm > 0.0 && dwell_burst > 0.0,
                "dwells must be positive"
            );
        }
    }

    /// Materialise the arrival process.
    pub fn arrivals(&self) -> Arrivals {
        match self.arrivals {
            ArrivalSpec::Poisson => Arrivals::Poisson(Poisson::new(self.rate)),
            ArrivalSpec::Mmpp {
                burst_mult,
                dwell_calm,
                dwell_burst,
            } => Arrivals::Mmpp(Mmpp::new(self.rate, burst_mult, dwell_calm, dwell_burst)),
        }
    }

    /// Materialise the priority mix.
    pub fn mix(&self) -> Mix {
        Mix::new(self.mix, self.n_prios)
    }

    /// Parse the flat TOML form. Every key optional (defaults from
    /// [`OpenLoopSpec::base`]); unknown keys are errors.
    pub fn from_toml(text: &str) -> Result<OpenLoopSpec, String> {
        let mut spec = OpenLoopSpec::base();
        // Mix/arrival parameters arrive in any key order; collect raw and
        // assemble at the end.
        let mut arrivals = "poisson".to_string();
        let mut burst_mult = 8.0;
        let mut dwell_calm = 32.0;
        let mut dwell_burst = 8.0;
        let mut mix = "uniform".to_string();
        let mut zipf_s = 1.0;
        for (line_no, line) in toml_lines(text) {
            let (key, value) = toml_kv(line, line_no)?;
            match key {
                "n" => spec.n = parse_u64(value, line_no)? as usize,
                "clients" => spec.clients = parse_u64(value, line_no)?,
                "rate" => spec.rate = parse_f64(value, line_no)?,
                "ticks" => spec.ticks = parse_u64(value, line_no)?,
                "ticks_per_round" => spec.ticks_per_round = parse_u64(value, line_no)?,
                "insert_ratio" => spec.insert_ratio = parse_f64(value, line_no)?,
                "n_prios" => spec.n_prios = parse_u64(value, line_no)?,
                "seed" => spec.seed = parse_u64(value, line_no)?,
                "arrivals" => arrivals = parse_str(value, line_no)?,
                "burst_mult" => burst_mult = parse_f64(value, line_no)?,
                "dwell_calm" => dwell_calm = parse_f64(value, line_no)?,
                "dwell_burst" => dwell_burst = parse_f64(value, line_no)?,
                "mix" => mix = parse_str(value, line_no)?,
                "zipf_s" => zipf_s = parse_f64(value, line_no)?,
                _ => return Err(format!("line {line_no}: unknown key `{key}`")),
            }
        }
        spec.arrivals = match arrivals.as_str() {
            "poisson" => ArrivalSpec::Poisson,
            "mmpp" => ArrivalSpec::Mmpp {
                burst_mult,
                dwell_calm,
                dwell_burst,
            },
            other => return Err(format!("unknown arrivals `{other}` (poisson|mmpp)")),
        };
        spec.mix = match mix.as_str() {
            "uniform" => MixKind::Uniform,
            "zipf" => MixKind::Zipf { s: zipf_s },
            "fifo" => MixKind::FifoAdversarial,
            other => return Err(format!("unknown mix `{other}` (uniform|zipf|fifo)")),
        };
        spec.validate();
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_spec_round_trips() {
        let text = r#"
            # E19 heavy-traffic cell
            n = 16
            clients = 1_000_000
            rate = 8.5
            ticks = 256
            ticks_per_round = 4
            insert_ratio = 0.7
            n_prios = 32
            seed = 42
            arrivals = "mmpp"
            burst_mult = 4.0
            dwell_calm = 64.0
            dwell_burst = 16.0
            mix = "zipf"
            zipf_s = 1.2
        "#;
        let spec = OpenLoopSpec::from_toml(text).expect("parses");
        assert_eq!(spec.n, 16);
        assert_eq!(spec.clients, 1_000_000);
        assert_eq!(spec.rate, 8.5);
        assert_eq!(spec.ticks, 256);
        assert_eq!(spec.insert_ratio, 0.7);
        assert_eq!(
            spec.arrivals,
            ArrivalSpec::Mmpp {
                burst_mult: 4.0,
                dwell_calm: 64.0,
                dwell_burst: 16.0
            }
        );
        assert_eq!(spec.mix, MixKind::Zipf { s: 1.2 });
        assert_eq!(spec.seed, 42);
    }

    #[test]
    fn defaults_fill_unset_keys() {
        let spec = OpenLoopSpec::from_toml("seed = 9").expect("parses");
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.n, OpenLoopSpec::base().n);
        assert_eq!(spec.arrivals, ArrivalSpec::Poisson);
        assert_eq!(spec.mix, MixKind::Uniform);
    }

    #[test]
    fn unknown_keys_are_rejected() {
        assert!(OpenLoopSpec::from_toml("rtae = 3.0").is_err());
        assert!(OpenLoopSpec::from_toml("arrivals = poisson").is_err()); // unquoted
        assert!(OpenLoopSpec::from_toml("arrivals = \"bursty\"").is_err());
        assert!(OpenLoopSpec::from_toml("mix = \"zpif\"").is_err());
        assert!(OpenLoopSpec::from_toml("mix = \"hotkey\"").is_err());
        assert!(OpenLoopSpec::from_toml("n 16").is_err());
    }

    #[test]
    fn every_mix_name_parses() {
        for (name, extra) in [("uniform", ""), ("zipf", "zipf_s = 0.8"), ("fifo", "")] {
            let text = format!("mix = \"{name}\"\n{extra}");
            OpenLoopSpec::from_toml(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}
