//! `schedule.json`: the on-disk form of a failing schedule.
//!
//! Hand-rolled reader/writer (the workspace carries no serde): the format
//! is a flat JSON object with a known key set, written and parsed by the
//! functions here and round-trip-tested. Decisions plus scenario name are
//! sufficient to reproduce a failure bit-for-bit via
//! [`crate::policy::replay_schedule`].

use dpq_core::text::{json_escape, json_str, json_u64, json_value};

/// A serializable failing schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Registry name of the scenario that failed.
    pub scenario: String,
    /// The (shrunk) decision sequence.
    pub decisions: Vec<usize>,
    /// Human-readable violation description.
    pub violation: String,
    /// Length of the unshrunk sequence, for the record.
    pub original_len: usize,
}

impl Schedule {
    /// Serialize to the `schedule.json` text.
    pub fn to_json(&self) -> String {
        let decisions = self
            .decisions
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\n  \"scenario\": \"{}\",\n  \"decisions\": [{}],\n  \"violation\": \"{}\",\n  \"original_len\": {}\n}}\n",
            json_escape(&self.scenario),
            decisions,
            json_escape(&self.violation),
            self.original_len
        )
    }

    /// Parse the `schedule.json` text. Tolerates whitespace/key-order
    /// variations of the writer's dialect; rejects anything missing the
    /// required keys.
    pub fn from_json(text: &str) -> Result<Schedule, String> {
        let scenario = json_str(text, "scenario")
            .ok_or("schedule.json: missing or malformed string \"scenario\"")?;
        let violation = json_str(text, "violation").unwrap_or_default();
        let decisions = array_field(text, "decisions")?;
        let original_len = json_u64(text, "original_len").unwrap_or(decisions.len() as u64);
        Ok(Schedule {
            scenario,
            decisions,
            violation,
            original_len: original_len as usize,
        })
    }
}

fn array_field(text: &str, key: &str) -> Result<Vec<usize>, String> {
    let v = json_value(text, key)
        .ok_or_else(|| format!("schedule.json: missing key {key:?}"))?
        .strip_prefix('[')
        .ok_or_else(|| format!("schedule.json: {key:?} is not an array"))?;
    let end = v
        .find(']')
        .ok_or_else(|| format!("schedule.json: unterminated array for {key:?}"))?;
    let body = v[..end].trim();
    if body.is_empty() {
        return Ok(Vec::new());
    }
    body.split(',')
        .map(|tok| {
            tok.trim()
                .parse::<usize>()
                .map_err(|e| format!("schedule.json: bad decision {:?}: {e}", tok.trim()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let s = Schedule {
            scenario: "skeap_clean".into(),
            decisions: vec![0, 3, 1, 2],
            violation: "witness 6 assigned \"twice\"\nsecond line\rthird".into(),
            original_len: 57,
        };
        let parsed = Schedule::from_json(&s.to_json()).expect("parse");
        assert_eq!(parsed, s);
        // Files written before the writers were unified spell CR `\u000d`.
        let old = s.to_json().replace("\\r", "\\u000d");
        assert_eq!(Schedule::from_json(&old).expect("parse"), s);
    }

    #[test]
    fn empty_decisions_round_trip() {
        let s = Schedule {
            scenario: "seap_drops".into(),
            decisions: Vec::new(),
            violation: String::new(),
            original_len: 0,
        };
        assert_eq!(Schedule::from_json(&s.to_json()).expect("parse"), s);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Schedule::from_json("{}").is_err());
        assert!(Schedule::from_json("{\"scenario\": \"x\"}").is_err());
        assert!(Schedule::from_json("{\"scenario\": \"x\", \"decisions\": [1, oops]}").is_err());
    }
}
