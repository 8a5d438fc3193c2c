//! The text formats the workspace reads and writes by hand (it takes no
//! serialization dependency): JSON string escaping, flat-object field
//! scanning, and the flat TOML of fault plans and workload specs.

use std::fmt::Write as _;

/// Escape `s` for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The text right after `"key":` in a flat JSON object: the value of the
/// first quoted `key` that a colon follows (whitespace allowed on either
/// side of it), running to the end of `text`.
pub fn json_value<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\"");
    let mut from = 0;
    while let Some(at) = text[from..].find(&needle) {
        from += at + needle.len();
        if let Some(v) = text[from..].trim_start().strip_prefix(':') {
            return Some(v.trim_start());
        }
    }
    None
}

/// The unsigned integer field `key` of a flat JSON object.
pub fn json_u64(text: &str, key: &str) -> Option<u64> {
    let v = json_value(text, key)?;
    let end = v.find(|c: char| !c.is_ascii_digit()).unwrap_or(v.len());
    v[..end].parse().ok()
}

/// The string field `key` of a flat JSON object, unescaped: reads what
/// [`json_escape`] writes and any other `\uXXXX`.
pub fn json_str(text: &str, key: &str) -> Option<String> {
    let mut chars = json_value(text, key)?.strip_prefix('"')?.chars();
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                }
                c => out.push(c),
            },
            c => out.push(c),
        }
    }
}

/// The meaningful lines of a flat TOML document — `[table]`, `[[table]]`
/// or `key = value` — with `#` comments and blank lines removed, trimmed
/// and numbered from 1.
pub fn toml_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .map(|(i, raw)| (i + 1, raw.split_once('#').map_or(raw, |(l, _)| l).trim()))
        .filter(|(_, line)| !line.is_empty())
}

/// Split a `key = value` line.
pub fn toml_kv(line: &str, line_no: usize) -> Result<(&str, &str), String> {
    let (key, value) = line
        .split_once('=')
        .ok_or_else(|| format!("line {line_no}: expected `key = value`"))?;
    Ok((key.trim(), value.trim()))
}

/// A TOML integer value (`_` digit separators allowed).
pub fn parse_u64(value: &str, line_no: usize) -> Result<u64, String> {
    value
        .replace('_', "")
        .parse()
        .map_err(|_| format!("line {line_no}: expected integer, got `{value}`"))
}

/// A TOML number value.
pub fn parse_f64(value: &str, line_no: usize) -> Result<f64, String> {
    value
        .parse()
        .map_err(|_| format!("line {line_no}: expected number, got `{value}`"))
}

/// A TOML double-quoted string value (no escapes).
pub fn parse_str(value: &str, line_no: usize) -> Result<String, String> {
    value
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("line {line_no}: expected a quoted string, got `{value}`"))
}
