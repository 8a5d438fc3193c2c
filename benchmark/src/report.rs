//! Metric names, units and directions — the vocabulary every later perf or
//! simplicity PR quotes — and the result line the driver reads.

/// One metric definition. `bound` is the relative worsening that counts as
/// a regression; per-layer rows have none.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Final name.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Regression bound (end-to-end only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees. Reported by untraced runs.
pub const END_TO_END: &[MetricDef] = &[
    e2e("insert_p50_ms", "ms", "lower", 0.25),
    e2e("delete_p50_ms", "ms", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("node_cpu_us_per_op", "us", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.10),
    e2e("recovery_s", "s", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Where the time goes. Reported by traced runs; a row that does not apply
/// to the workload being run reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    layer("ctl.request_us_p50", "us", "lower"),
    layer("ctl.status_us_p50", "us", "lower"),
    layer("ctl.latency_p90_ms", "ms", "lower"),
    layer("ctl.latency_p99_ms", "ms", "lower"),
    layer("ctl.latency_max_ms", "ms", "lower"),
    layer("ctl.insert_p90_ms", "ms", "lower"),
    layer("ctl.delete_p90_ms", "ms", "lower"),
    layer("ctl.generator_lag_p99_ms", "ms", "lower"),
    layer("ctl.generator_lag_max_ms", "ms", "lower"),
    layer("ctl.samples", "count", "higher"),
    layer("runtime.ticks_per_s", "1/s", "higher"),
    layer("runtime.op_latency_ticks_mean", "ticks", "lower"),
    layer("runtime.idle_cpu_cores", "cores", "lower"),
    layer("runtime.threads_per_node", "count", "lower"),
    layer("runtime.rx_decode_errors", "count", "lower"),
    layer("reliable.data_per_op", "count", "lower"),
    layer("reliable.acks_per_op", "count", "lower"),
    layer("reliable.retransmits", "count", "lower"),
    layer("reliable.dup_suppressed", "count", "lower"),
    layer("reliable.ack_rtt_ticks_mean", "ticks", "lower"),
    layer("reliable.self_ns_per_msg", "ns", "lower"),
    layer("reliable.share", "share", "lower"),
    layer("peers.tx_frames_per_op", "count", "lower"),
    layer("peers.tx_bytes_per_op", "bytes", "lower"),
    layer("peers.bytes_per_frame", "bytes", "higher"),
    layer("peers.send_drops", "count", "lower"),
    layer("peers.reconnects", "count", "lower"),
    layer("peers.hop_us_p50", "us", "lower"),
    layer("wal.bytes_per_op", "bytes", "lower"),
    layer("wal.entries_per_op", "count", "lower"),
    layer("wal.append_us_p50", "us", "lower"),
    layer("wal.open_ms", "ms", "lower"),
    layer("wal.share", "share", "lower"),
    layer("codec.encode_ns_per_msg", "ns", "lower"),
    layer("codec.decode_ns_per_msg", "ns", "lower"),
    layer("codec.bytes_per_msg", "bytes", "lower"),
    layer("codec.msgs_per_op", "count", "lower"),
    layer("codec.share", "share", "lower"),
    layer("frame.write_ns_per_frame", "ns", "lower"),
    layer("frame.read_ns_per_frame", "ns", "lower"),
    layer("frame.share", "share", "lower"),
    layer("skeap.on_message_ns", "ns", "lower"),
    layer("skeap.on_activate_ns", "ns", "lower"),
    layer("skeap.share", "share", "lower"),
    layer("seap.on_message_ns", "ns", "lower"),
    layer("seap.on_activate_ns", "ns", "lower"),
    layer("seap.share", "share", "lower"),
    layer("sim.node_steps_per_s_10k", "1/s", "higher"),
    layer("sim.node_steps_per_s_100k", "1/s", "higher"),
    layer("sim.rounds_100k", "count", "lower"),
    layer("sim.sched_share_10k", "share", "lower"),
    layer("sim.skeap_share_10k", "share", "lower"),
    layer("sim.sched_share_100k", "share", "lower"),
    layer("sim.skeap_share_100k", "share", "lower"),
    layer("sim.bytes_per_node_100k", "bytes", "lower"),
    layer("sim.sync_rounds_per_s", "1/s", "higher"),
    layer("sim.async_steps_per_s", "1/s", "higher"),
    layer("semantics.rank_error_max", "count", "lower"),
    layer("semantics.bottom_share", "share", "lower"),
    layer("semantics.failed_share", "share", "lower"),
    layer("semantics.oracle_s", "s", "lower"),
    layer("trace.overhead_share", "share", "lower"),
    layer("trace.self_time_coverage", "share", "higher"),
];

/// Measured values, by metric name.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Record `name = value`. The name must be a defined metric and the
    /// value finite; both are harness bugs otherwise.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "undefined metric {name}"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let value = value + 0.0; // an empty f64 sum is -0.0; print it as 0
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The recorded value, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Did every oracle pass?
    pub correct: bool,
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Of those, refused or not completed by the drain deadline.
    pub failed: u64,
    /// Metric values.
    pub values: Values,
    /// Free-form lines for the human reader (conditions, warnings).
    pub notes: Vec<String>,
}

/// The metric set a run reports: end-to-end when untraced, per-layer when
/// traced.
pub fn reported(traced: bool) -> &'static [MetricDef] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The driver's result line. Every metric of the reported set is present;
/// one the workload has no reading for is 0.
pub fn result_json(r: &RunResult, traced: bool) -> String {
    let metrics: Vec<String> = reported(traced)
        .iter()
        .map(|d| {
            let v = r.values.get(d.name).unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// Human-readable table of the reported set.
pub fn table(r: &RunResult, traced: bool) -> String {
    let mut out = String::new();
    for d in reported(traced) {
        let v = r.values.get(d.name).unwrap_or(0.0);
        out.push_str(&format!("  {:<34} {:>16.4} {}\n", d.name, v, d.unit));
    }
    out
}

/// Pull `"name": {"value": <v>` out of a result line this module wrote.
pub fn value_from_json(line: &str, name: &str) -> Option<f64> {
    let pat = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Pull a top-level `"key": <token>` (bool or integer) out of a result line.
pub fn field_from_json<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_and_fills_missing_rows_with_zero() {
        let mut r = RunResult {
            correct: true,
            attempted: 10_000,
            failed: 0,
            ..RunResult::default()
        };
        r.values.set("insert_p50_ms", 4.4123);
        r.values.set("setup_s", 0.8127);
        let line = result_json(&r, false);
        assert_eq!(value_from_json(&line, "insert_p50_ms"), Some(4.4123));
        assert_eq!(value_from_json(&line, "setup_s"), Some(0.8127));
        assert_eq!(value_from_json(&line, "recovery_s"), Some(0.0));
        assert_eq!(value_from_json(&line, "nope"), None);
        assert_eq!(field_from_json(&line, "correct"), Some("true"));
        assert_eq!(field_from_json(&line, "attempted"), Some("10000"));
        assert_eq!(field_from_json(&line, "failed"), Some("0"));
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.better == "lower" || d.better == "higher");
            assert!(d.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s"));
    }

    /// `BENCHMARK.json` is written by hand; it must list exactly the
    /// metrics and workloads this harness reports.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let text = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
        for d in END_TO_END {
            let row = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                d.better,
                d.bound.expect("end-to-end metrics are bounded")
            );
            assert!(text.contains(&row), "BENCHMARK.json lacks {row}");
        }
        for d in PER_LAYER {
            let row = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name, d.unit, d.better
            );
            assert!(text.contains(&row), "BENCHMARK.json lacks {row}");
        }
        let rows = text.matches("\"better\"").count();
        assert_eq!(rows, END_TO_END.len() + PER_LAYER.len());
        for w in crate::WORKLOADS {
            assert!(text.contains(&format!("{{\"name\": \"{w}\"")));
        }
        assert_eq!(text.matches("\"why\"").count(), crate::WORKLOADS.len());
    }
}
