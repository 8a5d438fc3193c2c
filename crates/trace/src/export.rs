//! Exporters: JSONL and Chrome trace-event JSON.
//!
//! Both formats are hand-rolled (the workspace takes no serialization
//! dependency): every emitted value is an integer or a string this crate
//! escapes itself.

use crate::event::TraceEvent;
use dpq_core::text::json_escape;
use std::io::{self, Write};

/// Serialize one event as a single-line JSON object (no trailing newline).
pub fn event_to_json(ev: &TraceEvent) -> String {
    match *ev {
        TraceEvent::Send {
            round,
            src,
            dst,
            kind,
            bits,
        } => format!(
            r#"{{"type":"send","round":{round},"src":{},"dst":{},"kind":"{}","bits":{bits}}}"#,
            src.0,
            dst.0,
            json_escape(kind.as_str()),
        ),
        TraceEvent::Deliver {
            round,
            src,
            dst,
            kind,
            bits,
        } => format!(
            r#"{{"type":"deliver","round":{round},"src":{},"dst":{},"kind":"{}","bits":{bits}}}"#,
            src.0,
            dst.0,
            json_escape(kind.as_str()),
        ),
        TraceEvent::Activate { round, node } => {
            format!(r#"{{"type":"activate","round":{round},"node":{}}}"#, node.0)
        }
        TraceEvent::RoundEnd {
            round,
            messages,
            bits,
            congestion,
        } => format!(
            r#"{{"type":"round_end","round":{round},"messages":{messages},"bits":{bits},"congestion":{congestion}}}"#,
        ),
        TraceEvent::PhaseMark {
            round,
            node,
            label,
            value,
        } => format!(
            r#"{{"type":"phase_mark","round":{round},"node":{},"label":"{}","value":{value}}}"#,
            node.0,
            json_escape(label),
        ),
        TraceEvent::OpInjected { round, node, op } => format!(
            r#"{{"type":"op_injected","round":{round},"node":{},"op":"{op}"}}"#,
            node.0,
        ),
        TraceEvent::OpCompleted { round, node, op } => format!(
            r#"{{"type":"op_completed","round":{round},"node":{},"op":"{op}"}}"#,
            node.0,
        ),
        TraceEvent::FaultDrop {
            round,
            src,
            dst,
            kind,
            bits,
            reason,
        } => format!(
            r#"{{"type":"fault_drop","round":{round},"src":{},"dst":{},"kind":"{}","bits":{bits},"reason":"{}"}}"#,
            src.0,
            dst.0,
            json_escape(kind.as_str()),
            reason.as_str(),
        ),
        TraceEvent::FaultDuplicate {
            round,
            src,
            dst,
            kind,
        } => format!(
            r#"{{"type":"fault_duplicate","round":{round},"src":{},"dst":{},"kind":"{}"}}"#,
            src.0,
            dst.0,
            json_escape(kind.as_str()),
        ),
        TraceEvent::NodeCrash { round, node } => {
            format!(
                r#"{{"type":"node_crash","round":{round},"node":{}}}"#,
                node.0
            )
        }
        TraceEvent::NodeRecover { round, node } => format!(
            r#"{{"type":"node_recover","round":{round},"node":{}}}"#,
            node.0
        ),
        TraceEvent::PartitionStart { round, id, island } => {
            format!(r#"{{"type":"partition_start","round":{round},"id":{id},"island":{island}}}"#,)
        }
        TraceEvent::PartitionHeal { round, id } => {
            format!(r#"{{"type":"partition_heal","round":{round},"id":{id}}}"#)
        }
    }
}

/// Write a stream as JSON Lines: one object per event, one event per line.
pub fn write_jsonl<W: Write>(events: &[TraceEvent], w: &mut W) -> io::Result<()> {
    for ev in events {
        writeln!(w, "{}", event_to_json(ev))?;
    }
    Ok(())
}

/// Builder for a Chrome trace-event file covering one or more runs.
///
/// Each run added via [`ChromeTrace::add_run`] becomes its own process
/// (`pid`) named by a `process_name` metadata record, so Perfetto or
/// `chrome://tracing` shows e.g. every `(n, seed)` cell of an experiment as
/// a separate labeled track group. Within a run, the time axis (`ts`,
/// nominally microseconds) is the simulator's round counter.
///
/// Event mapping:
/// - `RoundEnd` → three counter tracks (`messages`, `bits`, `congestion`);
/// - `PhaseMark` → process-scoped instant events named by their label;
/// - `OpInjected`/`OpCompleted` → async begin/end pairs keyed by the op id,
///   so per-operation latency renders as a span;
/// - `Send`/`Deliver`/`Activate` → thread-scoped instants on the node's row.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    records: Vec<String>,
    next_pid: u64,
}

impl ChromeTrace {
    /// An empty trace file.
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    /// Number of runs added so far.
    pub fn runs(&self) -> u64 {
        self.next_pid
    }

    /// Add one run's event stream under its own process track, returning the
    /// pid assigned to it.
    pub fn add_run(&mut self, name: &str, events: &[TraceEvent]) -> u64 {
        let pid = self.next_pid;
        self.next_pid += 1;
        self.records.push(format!(
            r#"{{"name":"process_name","ph":"M","pid":{pid},"tid":0,"args":{{"name":"{}"}}}}"#,
            json_escape(name),
        ));
        for ev in events {
            self.push_event(pid, ev);
        }
        pid
    }

    fn push_event(&mut self, pid: u64, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Send { round, src, dst, kind, bits } => self.records.push(format!(
                r#"{{"name":"send {}","cat":"msg","ph":"i","s":"t","pid":{pid},"tid":{},"ts":{round},"args":{{"dst":{},"bits":{bits}}}}}"#,
                json_escape(kind.as_str()),
                src.0,
                dst.0,
            )),
            TraceEvent::Deliver { round, src, dst, kind, bits } => self.records.push(format!(
                r#"{{"name":"deliver {}","cat":"msg","ph":"i","s":"t","pid":{pid},"tid":{},"ts":{round},"args":{{"src":{},"bits":{bits}}}}}"#,
                json_escape(kind.as_str()),
                dst.0,
                src.0,
            )),
            TraceEvent::Activate { round, node } => self.records.push(format!(
                r#"{{"name":"activate","cat":"sched","ph":"i","s":"t","pid":{pid},"tid":{},"ts":{round}}}"#,
                node.0,
            )),
            TraceEvent::RoundEnd { round, messages, bits, congestion } => {
                for (track, v) in [
                    ("messages", messages),
                    ("bits", bits),
                    ("congestion", congestion),
                ] {
                    self.records.push(format!(
                        r#"{{"name":"{track}","cat":"round","ph":"C","pid":{pid},"ts":{round},"args":{{"{track}":{v}}}}}"#,
                    ));
                }
            }
            TraceEvent::PhaseMark { round, node, label, value } => self.records.push(format!(
                r#"{{"name":"{}","cat":"phase","ph":"i","s":"p","pid":{pid},"tid":{},"ts":{round},"args":{{"value":{value}}}}}"#,
                json_escape(label),
                node.0,
            )),
            TraceEvent::OpInjected { round, node, op } => self.records.push(format!(
                r#"{{"name":"op {op}","cat":"op","ph":"b","id":"{op}","pid":{pid},"tid":{},"ts":{round}}}"#,
                node.0,
            )),
            TraceEvent::OpCompleted { round, node, op } => self.records.push(format!(
                r#"{{"name":"op {op}","cat":"op","ph":"e","id":"{op}","pid":{pid},"tid":{},"ts":{round}}}"#,
                node.0,
            )),
            TraceEvent::FaultDrop { round, src, dst, kind, bits, reason } => {
                self.records.push(format!(
                    r#"{{"name":"drop {} ({})","cat":"fault","ph":"i","s":"t","pid":{pid},"tid":{},"ts":{round},"args":{{"src":{},"bits":{bits}}}}}"#,
                    json_escape(kind.as_str()),
                    reason.as_str(),
                    dst.0,
                    src.0,
                ))
            }
            TraceEvent::FaultDuplicate { round, src, dst, kind } => {
                self.records.push(format!(
                    r#"{{"name":"dup {}","cat":"fault","ph":"i","s":"t","pid":{pid},"tid":{},"ts":{round},"args":{{"dst":{}}}}}"#,
                    json_escape(kind.as_str()),
                    src.0,
                    dst.0,
                ))
            }
            TraceEvent::NodeCrash { round, node } => self.records.push(format!(
                r#"{{"name":"crash","cat":"fault","ph":"i","s":"p","pid":{pid},"tid":{},"ts":{round}}}"#,
                node.0,
            )),
            TraceEvent::NodeRecover { round, node } => self.records.push(format!(
                r#"{{"name":"recover","cat":"fault","ph":"i","s":"p","pid":{pid},"tid":{},"ts":{round}}}"#,
                node.0,
            )),
            TraceEvent::PartitionStart { round, id, island } => self.records.push(format!(
                r#"{{"name":"partition {id}","cat":"fault","ph":"i","s":"p","pid":{pid},"tid":0,"ts":{round},"args":{{"island":{island}}}}}"#,
            )),
            TraceEvent::PartitionHeal { round, id } => self.records.push(format!(
                r#"{{"name":"heal {id}","cat":"fault","ph":"i","s":"p","pid":{pid},"tid":0,"ts":{round}}}"#,
            )),
        }
    }

    /// Write the accumulated file: `{"traceEvents":[...]}`.
    pub fn write<W: Write>(&self, w: &mut W) -> io::Result<()> {
        write!(w, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
        for (i, rec) in self.records.iter().enumerate() {
            if i > 0 {
                write!(w, ",")?;
            }
            write!(w, "\n{rec}")?;
        }
        write!(w, "\n]}}")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpq_core::{MsgKind, NodeId, OpId};

    fn sample_events() -> Vec<TraceEvent> {
        let node = NodeId(1);
        let op = OpId { node, seq: 0 };
        vec![
            TraceEvent::OpInjected { round: 0, node, op },
            TraceEvent::Send {
                round: 0,
                src: node,
                dst: NodeId(0),
                kind: MsgKind("test.msg"),
                bits: 12,
            },
            TraceEvent::RoundEnd {
                round: 0,
                messages: 1,
                bits: 12,
                congestion: 1,
            },
            TraceEvent::PhaseMark {
                round: 1,
                node: NodeId(0),
                label: "p\"x",
                value: 7,
            },
            TraceEvent::OpCompleted { round: 1, node, op },
            TraceEvent::FaultDrop {
                round: 2,
                src: node,
                dst: NodeId(0),
                kind: MsgKind("test.msg"),
                bits: 12,
                reason: crate::event::DropReason::Partition,
            },
            TraceEvent::NodeCrash {
                round: 3,
                node: NodeId(0),
            },
            TraceEvent::PartitionStart {
                round: 4,
                id: 1,
                island: 3,
            },
        ]
    }

    /// Minimal structural JSON validation: balanced braces/brackets outside
    /// strings, properly terminated strings. Catches malformed hand-rolled
    /// output without a parser dependency.
    fn check_balanced(s: &str) {
        let mut depth: i64 = 0;
        let mut in_str = false;
        let mut escape = false;
        for c in s.chars() {
            if in_str {
                if escape {
                    escape = false;
                } else if c == '\\' {
                    escape = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced close in {s}");
        }
        assert!(!in_str, "unterminated string in {s}");
        assert_eq!(depth, 0, "unbalanced JSON: {s}");
    }

    #[test]
    fn jsonl_is_one_valid_object_per_line() {
        let mut buf = Vec::new();
        write_jsonl(&sample_events(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 8);
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            check_balanced(line);
        }
        assert!(text.contains(r#""type":"op_injected""#));
        assert!(text.contains(r#""op":"v1#0""#));
        assert!(text.contains(r#""type":"fault_drop""#));
        assert!(text.contains(r#""reason":"partition""#));
        assert!(text.contains(r#""type":"node_crash""#));
        assert!(text.contains(r#""type":"partition_start""#));
    }

    #[test]
    fn chrome_trace_is_structurally_valid_json() {
        let mut t = ChromeTrace::new();
        t.add_run("run a", &sample_events());
        t.add_run("run b", &sample_events());
        let mut buf = Vec::new();
        t.write(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        check_balanced(&text);
        assert!(text.contains(r#""name":"process_name""#));
        assert!(text.contains(r#""pid":1"#));
        // Phase label with a quote must be escaped.
        assert!(text.contains(r#"p\"x"#));
        // Async begin/end pair for the op.
        assert!(text.contains(r#""ph":"b""#) && text.contains(r#""ph":"e""#));
        // One counter record per RoundEnd metric.
        assert_eq!(text.matches(r#""cat":"round""#).count(), 6);
    }
}
