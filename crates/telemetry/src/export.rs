//! Exposition formats: Prometheus text format and single-line JSON.
//!
//! Both writers are deterministic — instruments render in registration
//! order, kinds in first-seen order, and every value is an integer — so a
//! deterministic run produces byte-identical exposition output regardless of
//! sweep sharding. The Prometheus writer is paired with a small parser for
//! the same subset of the format; `render` ∘ `parse` is the identity on
//! writer output (the golden-file round-trip test in
//! `tests/exposition_golden.rs`), which is the contract the future network
//! daemon will serve over HTTP.
//!
//! No serialization dependency anywhere: JSON is assembled by hand with
//! `dpq_core::text`'s escaping, shared with `dpq-trace`'s exporters.

use crate::hist::LogHistogram;
use crate::sink::Hub;
pub use dpq_core::text::json_escape;
use std::fmt::Write as _;

/// Metric name prefix for everything this workspace exposes.
const PREFIX: &str = "dpq";

/// Map an instrument name ("reliable.ack_rtt") to a Prometheus-legal
/// metric-name suffix ("reliable_ack_rtt").
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn write_histogram(out: &mut String, name: &str, h: &LogHistogram) {
    let _ = writeln!(out, "# TYPE {PREFIX}_{name} histogram");
    let mut cum = 0u64;
    for (_, hi, c) in h.nonzero_buckets() {
        cum += c;
        let _ = writeln!(out, "{PREFIX}_{name}_bucket{{le=\"{hi}\"}} {cum}");
    }
    let _ = writeln!(out, "{PREFIX}_{name}_bucket{{le=\"+Inf\"}} {}", h.count());
    let _ = writeln!(out, "{PREFIX}_{name}_sum {}", h.sum());
    let _ = writeln!(out, "{PREFIX}_{name}_count {}", h.count());
}

/// Render a hub in the Prometheus text exposition format (0.0.4).
pub fn prometheus_text(hub: &Hub) -> String {
    let mut out = String::new();

    // Well-known histograms first, fixed order.
    write_histogram(&mut out, "op_latency", &hub.op_latency);
    write_histogram(&mut out, "msg_bits", &hub.msg_bits);
    write_histogram(&mut out, "window_messages", &hub.window_messages);
    write_histogram(&mut out, "window_congestion", &hub.window_congestion);

    // Per-kind delivery totals.
    let _ = writeln!(out, "# TYPE {PREFIX}_msgs_total counter");
    for kt in hub.kind_totals() {
        let _ = writeln!(
            out,
            "{PREFIX}_msgs_total{{kind=\"{}\"}} {}",
            kt.kind.as_str(),
            kt.msgs
        );
    }
    let _ = writeln!(out, "# TYPE {PREFIX}_msg_bits_total counter");
    for kt in hub.kind_totals() {
        let _ = writeln!(
            out,
            "{PREFIX}_msg_bits_total{{kind=\"{}\"}} {}",
            kt.kind.as_str(),
            kt.bits
        );
    }

    // Fault-layer totals.
    let f = &hub.faults;
    let _ = writeln!(out, "# TYPE {PREFIX}_fault_events_total counter");
    for (reason, v) in [
        ("dropped_chance", f.dropped_chance),
        ("dropped_partition", f.dropped_partition),
        ("dropped_crash", f.dropped_crash),
        ("duplicated", f.duplicated),
        ("delayed", f.delayed),
        ("crashes", f.crashes),
        ("recoveries", f.recoveries),
    ] {
        let _ = writeln!(
            out,
            "{PREFIX}_fault_events_total{{reason=\"{reason}\"}} {v}"
        );
    }

    // Registered instruments, registration order.
    for (name, v) in hub.counters() {
        let n = sanitize(name);
        let _ = writeln!(out, "# TYPE {PREFIX}_{n} counter");
        let _ = writeln!(out, "{PREFIX}_{n} {v}");
    }
    for (name, last, peak) in hub.gauges() {
        let n = sanitize(name);
        let _ = writeln!(out, "# TYPE {PREFIX}_{n} gauge");
        let _ = writeln!(out, "{PREFIX}_{n} {last}");
        let _ = writeln!(out, "# TYPE {PREFIX}_{n}_peak gauge");
        let _ = writeln!(out, "{PREFIX}_{n}_peak {peak}");
    }
    for (name, h) in hub.hists() {
        write_histogram(&mut out, &sanitize(name), h);
    }
    out
}

/// One sample line of an exposition: metric name, labels, integer value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Full metric name, including any `_bucket`/`_sum`/`_count` suffix.
    pub name: String,
    /// Label pairs in source order (empty for unlabelled samples).
    pub labels: Vec<(String, String)>,
    /// The value, kept as the source token so re-rendering is byte-exact.
    pub value: String,
}

/// A `# TYPE` family and its samples, in source order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Family {
    /// Family metric name from the `# TYPE` line.
    pub name: String,
    /// Declared type: `counter`, `gauge`, or `histogram`.
    pub kind: String,
    /// Sample lines following the declaration.
    pub samples: Vec<Sample>,
}

/// A parsed exposition document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Exposition {
    /// Families in source order.
    pub families: Vec<Family>,
}

impl Exposition {
    /// Sum of a family's sample values, parsed as integers.
    pub fn family_total(&self, name: &str) -> Option<u64> {
        let fam = self.families.iter().find(|f| f.name == name)?;
        fam.samples
            .iter()
            .map(|s| s.value.parse::<u64>().ok())
            .sum()
    }

    /// The value of the single sample named `name` with no labels.
    pub fn value(&self, name: &str) -> Option<u64> {
        self.families
            .iter()
            .flat_map(|f| f.samples.iter())
            .find(|s| s.name == name && s.labels.is_empty())
            .and_then(|s| s.value.parse().ok())
    }
}

fn parse_labels(src: &str, lineno: usize) -> Result<Vec<(String, String)>, String> {
    // src is the text between `{` and `}`: k="v",k2="v2"
    let mut labels = Vec::new();
    let mut rest = src;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("line {lineno}: label without '='"))?;
        let key = rest[..eq].to_string();
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err(format!("line {lineno}: unquoted label value"));
        }
        let close = after[1..]
            .find('"')
            .ok_or_else(|| format!("line {lineno}: unterminated label value"))?;
        let val = after[1..1 + close].to_string();
        labels.push((key, val));
        rest = &after[close + 2..];
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped;
        } else if !rest.is_empty() {
            return Err(format!("line {lineno}: junk after label value"));
        }
    }
    Ok(labels)
}

/// Parse the subset of the Prometheus text format that
/// [`prometheus_text`] emits: `# TYPE` declarations followed by sample
/// lines `name[{labels}] value`.
pub fn parse_prometheus(text: &str) -> Result<Exposition, String> {
    let mut doc = Exposition::default();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it
                .next()
                .ok_or_else(|| format!("line {lineno}: TYPE without name"))?;
            let kind = it
                .next()
                .ok_or_else(|| format!("line {lineno}: TYPE without kind"))?;
            doc.families.push(Family {
                name: name.to_string(),
                kind: kind.to_string(),
                samples: Vec::new(),
            });
            continue;
        }
        if line.starts_with('#') {
            continue; // other comments
        }
        let (name_part, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {lineno}: sample without value"))?;
        let (name, labels) = match name_part.find('{') {
            Some(open) => {
                let close = name_part
                    .rfind('}')
                    .ok_or_else(|| format!("line {lineno}: unterminated labels"))?;
                (
                    name_part[..open].to_string(),
                    parse_labels(&name_part[open + 1..close], lineno)?,
                )
            }
            None => (name_part.to_string(), Vec::new()),
        };
        let fam = doc
            .families
            .last_mut()
            .ok_or_else(|| format!("line {lineno}: sample before any TYPE line"))?;
        fam.samples.push(Sample {
            name,
            labels,
            value: value.to_string(),
        });
    }
    Ok(doc)
}

/// Re-render a parsed exposition. For documents produced by
/// [`prometheus_text`], `render(parse(text)) == text` byte-for-byte.
pub fn render_exposition(doc: &Exposition) -> String {
    let mut out = String::new();
    for fam in &doc.families {
        let _ = writeln!(out, "# TYPE {} {}", fam.name, fam.kind);
        for s in &fam.samples {
            out.push_str(&s.name);
            if !s.labels.is_empty() {
                out.push('{');
                for (i, (k, v)) in s.labels.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{k}=\"{v}\"");
                }
                out.push('}');
            }
            let _ = writeln!(out, " {}", s.value);
        }
    }
    out
}

fn hist_json(h: &LogHistogram) -> String {
    format!(
        "{{\"count\":{},\"sum\":{},\"min\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{},\"max\":{}}}",
        h.count(),
        h.sum(),
        h.min(),
        h.quantile(0.50),
        h.quantile(0.90),
        h.quantile(0.99),
        h.quantile(0.999),
        h.max(),
    )
}

/// Render a hub as one JSON object on a single line — the record format of
/// the `--metrics <path>` JSONL stream. Deterministic field order; integer
/// values only.
pub fn hub_to_json(hub: &Hub) -> String {
    let mut out = String::from("{");
    let _ = write!(out, "\"op_latency\":{}", hist_json(&hub.op_latency));
    let _ = write!(out, ",\"msg_bits\":{}", hist_json(&hub.msg_bits));
    let _ = write!(
        out,
        ",\"window_messages\":{}",
        hist_json(&hub.window_messages)
    );
    let _ = write!(
        out,
        ",\"window_congestion\":{}",
        hist_json(&hub.window_congestion)
    );
    let f = &hub.faults;
    let _ = write!(
        out,
        ",\"faults\":{{\"dropped_chance\":{},\"dropped_partition\":{},\"dropped_crash\":{},\"duplicated\":{},\"delayed\":{},\"crashes\":{},\"recoveries\":{}}}",
        f.dropped_chance,
        f.dropped_partition,
        f.dropped_crash,
        f.duplicated,
        f.delayed,
        f.crashes,
        f.recoveries
    );
    out.push_str(",\"kinds\":[");
    for (i, kt) in hub.kind_totals().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"kind\":\"{}\",\"msgs\":{},\"bits\":{}}}",
            json_escape(kt.kind.as_str()),
            kt.msgs,
            kt.bits
        );
    }
    out.push_str("],\"counters\":{");
    for (i, (name, v)) in hub.counters().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{v}", json_escape(name));
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, last, peak)) in hub.gauges().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"last\":{last},\"peak\":{peak}}}",
            json_escape(name)
        );
    }
    out.push_str("},\"hists\":{");
    for (i, (name, h)) in hub.hists().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", json_escape(name), hist_json(h));
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{FaultTotals, Telemetry};
    use dpq_core::MsgKind;

    fn sample_hub() -> Hub {
        let mut hub = Hub::new();
        for v in [3u64, 17, 17, 400, 9000] {
            hub.on_op_latency(v);
        }
        hub.on_deliver(MsgKind("skeap.batch_up"), 512);
        hub.on_deliver(MsgKind("dht.req"), 96);
        hub.on_deliver(MsgKind("dht.req"), 100);
        hub.on_window_end(3, 2);
        let c = hub.counter("reliable.retransmits");
        hub.counter_add(c, 4);
        let g = hub.gauge("flightset.occupancy");
        hub.gauge_set(g, 11);
        hub.gauge_set(g, 5);
        let h = hub.histogram("reliable.ack_rtt");
        hub.hist_record(h, 6);
        hub.hist_record(h, 30);
        hub.fault_totals(FaultTotals {
            dropped_chance: 2,
            delayed: 1,
            ..FaultTotals::default()
        });
        hub
    }

    #[test]
    fn exposition_round_trips_byte_for_byte() {
        let text = prometheus_text(&sample_hub());
        let doc = parse_prometheus(&text).expect("parse");
        assert_eq!(render_exposition(&doc), text);
    }

    #[test]
    fn exposition_totals_are_consistent() {
        let hub = sample_hub();
        let doc = parse_prometheus(&prometheus_text(&hub)).expect("parse");
        assert_eq!(doc.family_total("dpq_msgs_total"), Some(3));
        assert_eq!(doc.family_total("dpq_msg_bits_total"), Some(708));
        assert_eq!(doc.value("dpq_op_latency_count"), Some(5));
        assert_eq!(
            doc.value("dpq_op_latency_sum"),
            Some(3 + 17 + 17 + 400 + 9000)
        );
        assert_eq!(doc.value("dpq_reliable_retransmits"), Some(4));
        assert_eq!(doc.value("dpq_flightset_occupancy"), Some(5));
        assert_eq!(doc.value("dpq_flightset_occupancy_peak"), Some(11));
        assert_eq!(doc.value("dpq_reliable_ack_rtt_count"), Some(2));
        assert_eq!(doc.family_total("dpq_fault_events_total"), Some(3));
    }

    #[test]
    fn histogram_bucket_lines_are_cumulative() {
        let hub = sample_hub();
        let doc = parse_prometheus(&prometheus_text(&hub)).expect("parse");
        let fam = doc
            .families
            .iter()
            .find(|f| f.name == "dpq_op_latency")
            .expect("family");
        assert_eq!(fam.kind, "histogram");
        let buckets: Vec<u64> = fam
            .samples
            .iter()
            .filter(|s| s.name == "dpq_op_latency_bucket")
            .map(|s| s.value.parse().unwrap())
            .collect();
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "not cumulative");
        assert_eq!(*buckets.last().unwrap(), 5); // +Inf == count
    }

    #[test]
    fn json_line_is_single_line_and_stable() {
        let hub = sample_hub();
        let a = hub_to_json(&hub);
        let b = hub_to_json(&hub.clone());
        assert_eq!(a, b);
        assert!(!a.contains('\n'));
        assert!(a.starts_with('{') && a.ends_with('}'));
        assert!(a.contains("\"op_latency\":{\"count\":5"));
        assert!(a.contains("\"reliable.retransmits\":4"));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
