//! JSONL op-record traces: what each `dpq-node` process writes and the
//! conformance harness reads back.
//!
//! One flat JSON object per line, hand-rolled like `dpq-mc`'s
//! `schedule.json` (the workspace carries no serde) and round-trip-tested.
//! Two line shapes:
//!
//! * `{"t":"op","node":…,"seq":…,"kind":"ins"|"del",…,"ret":…,"wit":…}` —
//!   one completed (or still-open) operation record;
//! * `{"t":"res","e_id":…,"e_prio":…,"e_pay":…}` — one element still
//!   resident in the node's DHT shard at dump time (the conservation
//!   oracle's residual set).
//!
//! The harness merges the `op` lines of all processes into a
//! [`History`](dpq_core::History) and feeds it to the same witness-replay /
//! conservation oracles the simulator tests use.

use std::fmt::Write as _;

use dpq_core::text::{json_str, json_u64};
use dpq_core::{ElemId, Element, NodeId, OpId, OpKind, OpRecord, OpReturn, Priority};

fn push_elem(out: &mut String, prefix: &str, e: &Element) {
    let _ = write!(
        out,
        ",\"{prefix}_id\":{},\"{prefix}_prio\":{},\"{prefix}_pay\":{}",
        e.id.0, e.prio.0, e.payload
    );
}

fn parse_elem(line: &str, prefix: &str) -> Option<Element> {
    Some(Element {
        id: ElemId(json_u64(line, &format!("{prefix}_id"))?),
        prio: Priority(json_u64(line, &format!("{prefix}_prio"))?),
        payload: json_u64(line, &format!("{prefix}_pay"))?,
    })
}

/// Render one op record as a JSONL line (no trailing newline).
pub fn op_line(r: &OpRecord) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"t\":\"op\",\"node\":{},\"seq\":{}",
        r.id.node.0, r.id.seq
    );
    match &r.kind {
        OpKind::Insert(e) => {
            out.push_str(",\"kind\":\"ins\"");
            push_elem(&mut out, "e", e);
        }
        OpKind::DeleteMin => out.push_str(",\"kind\":\"del\""),
    }
    match &r.ret {
        None => out.push_str(",\"ret\":\"none\""),
        Some(OpReturn::Inserted) => out.push_str(",\"ret\":\"inserted\""),
        Some(OpReturn::Bottom) => out.push_str(",\"ret\":\"bottom\""),
        Some(OpReturn::Removed(e)) => {
            out.push_str(",\"ret\":\"removed\"");
            push_elem(&mut out, "r", e);
        }
    }
    if let Some(w) = r.witness {
        let _ = write!(out, ",\"wit\":{w}");
    }
    out.push('}');
    out
}

/// Render one residual element as a JSONL line (no trailing newline).
pub fn residual_line(e: &Element) -> String {
    let mut out = String::from("{\"t\":\"res\"");
    push_elem(&mut out, "e", e);
    out.push('}');
    out
}

/// Render a node's full trace: every op record, then every residual element.
pub fn render_trace(records: &[OpRecord], residual: &[Element]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&op_line(r));
        out.push('\n');
    }
    for e in residual {
        out.push_str(&residual_line(e));
        out.push('\n');
    }
    out
}

/// Parse a trace back into `(records, residual)`. Lines that do not parse
/// are errors — a trace is machine-written, so leniency would only mask
/// bugs.
pub fn parse_trace(text: &str) -> Result<(Vec<OpRecord>, Vec<Element>), String> {
    let mut records = Vec::new();
    let mut residual = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fail = |what: &str| format!("line {}: {what}: {line}", i + 1);
        match json_str(line, "t").as_deref() {
            Some("op") => {
                let id = OpId {
                    node: NodeId(json_u64(line, "node").ok_or_else(|| fail("missing node"))?),
                    seq: json_u64(line, "seq").ok_or_else(|| fail("missing seq"))?,
                };
                let kind = match json_str(line, "kind").as_deref() {
                    Some("ins") => OpKind::Insert(
                        parse_elem(line, "e").ok_or_else(|| fail("missing insert element"))?,
                    ),
                    Some("del") => OpKind::DeleteMin,
                    _ => return Err(fail("bad kind")),
                };
                let ret = match json_str(line, "ret").as_deref() {
                    Some("none") => None,
                    Some("inserted") => Some(OpReturn::Inserted),
                    Some("bottom") => Some(OpReturn::Bottom),
                    Some("removed") => Some(OpReturn::Removed(
                        parse_elem(line, "r").ok_or_else(|| fail("missing removed element"))?,
                    )),
                    _ => return Err(fail("bad ret")),
                };
                records.push(OpRecord {
                    id,
                    kind,
                    ret,
                    witness: json_u64(line, "wit"),
                });
            }
            Some("res") => {
                residual.push(parse_elem(line, "e").ok_or_else(|| fail("bad residual"))?);
            }
            _ => return Err(fail("unknown line type")),
        }
    }
    Ok((records, residual))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn elem(id: u64, prio: u64, pay: u64) -> Element {
        Element::new(ElemId(id), Priority(prio), pay)
    }

    #[test]
    fn traces_round_trip() {
        let records = vec![
            OpRecord {
                id: OpId {
                    node: NodeId(0),
                    seq: 0,
                },
                kind: OpKind::Insert(elem(77, 3, 41)),
                ret: Some(OpReturn::Inserted),
                witness: Some(12),
            },
            OpRecord {
                id: OpId {
                    node: NodeId(2),
                    seq: 1,
                },
                kind: OpKind::DeleteMin,
                ret: Some(OpReturn::Removed(elem(77, 3, 41))),
                witness: Some(13),
            },
            OpRecord {
                id: OpId {
                    node: NodeId(2),
                    seq: 2,
                },
                kind: OpKind::DeleteMin,
                ret: Some(OpReturn::Bottom),
                witness: Some(14),
            },
            OpRecord {
                id: OpId {
                    node: NodeId(1),
                    seq: 0,
                },
                kind: OpKind::DeleteMin,
                ret: None,
                witness: None,
            },
        ];
        let residual = vec![elem(5, 0, 1), elem(9, 2, 2)];
        let text = render_trace(&records, &residual);
        let (r2, e2) = parse_trace(&text).unwrap();
        assert_eq!(r2, records);
        assert_eq!(e2, residual);
    }

    #[test]
    fn garbage_lines_are_errors() {
        assert!(parse_trace("{\"t\":\"op\"}").is_err());
        assert!(parse_trace("not json").is_err());
        assert!(parse_trace("{\"t\":\"wat\"}").is_err());
        assert!(parse_trace("").unwrap().0.is_empty());
    }
}
