//! A minimal JSON value + writer, so the bench runners can emit
//! machine-readable baselines next to their human tables.
//!
//! The offline `serde` shim carries no serialisation (see
//! `crates/shims/serde`), and the baselines only need numbers, strings,
//! arrays and objects — a ~100-line tree type keeps the JSON honest
//! (escaped, finite, deterministic key order) without a new dependency.
//! Files written here (`BENCH_cpu_kernel.json`, `BENCH_placement.json`)
//! are the perf trajectory future PRs diff against, and what CI uploads
//! as artifacts.

use std::fmt::Write as _;

/// One JSON value. Build objects with [`Json::obj`] and leaves with
/// `.into()`; keys keep their insertion order so output is
/// deterministic run to run. [`Json::parse`] reads a baseline back so
/// `--check` runs can diff fresh measurements against it.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Finite numbers render as shortest-round-trip decimals; NaN and
    /// infinities (meaningless in a baseline) render as `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Render with two-space indentation (stable, diff-friendly).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    /// Render to `path`, replacing any previous baseline.
    pub fn write_to_file(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }

    /// Parse a baseline file previously written by [`Json::render`].
    ///
    /// This is a strict parser for the subset this module emits (it
    /// accepts any whitespace and rejects trailing garbage); errors
    /// carry the byte offset so a corrupt baseline is loud, not a
    /// silently-passing check.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// Look up a key in an object; `None` for absent keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let pad = |out: &mut String, d: usize| {
            for _ in 0..d {
                out.push_str("  ");
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => {
                out.push('"');
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
                out.push('"');
            }
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, depth + 1);
                    item.render_into(out, depth + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                pad(out, depth);
                out.push(']');
            }
            Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Json::Obj(fields) => {
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    pad(out, depth + 1);
                    Json::Str(key.clone()).render_into(out, depth + 1);
                    out.push_str(": ");
                    value.render_into(out, depth + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                pad(out, depth);
                out.push('}');
            }
        }
    }
}

/// `value.into()` for the leaves a bench row is made of.
macro_rules! json_from {
    ($($t:ty => $make:expr),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                $make(v)
            }
        }
    )*};
}
json_from!(
    bool => Json::Bool,
    f64 => Json::Num,
    u64 => |v| Json::Num(v as f64),
    usize => |v| Json::Num(v as f64),
    &str => |v: &str| Json::Str(v.into()),
    String => Json::Str,
    Vec<Json> => Json::Arr
);

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", b as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                fields.push((key, parse_value(bytes, pos)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    let text = std::str::from_utf8(bytes).map_err(|_| "invalid utf-8".to_string())?;
    let mut chars = text[*pos..].char_indices().peekable();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => {
                *pos += i + 1;
                return Ok(out);
            }
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 't')) => out.push('\t'),
                Some((_, '/')) => out.push('/'),
                Some((j, 'u')) => {
                    let hex = text[*pos..].get(j + 1..j + 5).ok_or("truncated \\u")?;
                    let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                    out.push(char::from_u32(code).ok_or("bad \\u codepoint")?);
                    for _ in 0..4 {
                        chars.next();
                    }
                }
                other => return Err(format!("bad escape {other:?}")),
            },
            c => out.push(c),
        }
    }
    Err("unterminated string".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_structures_deterministically() {
        let v = Json::obj(vec![
            ("name", "cpu_kernel".into()),
            ("rows", Json::Arr(vec![Json::Num(1.0), Json::Num(2.5)])),
            ("empty", Json::Arr(vec![])),
            ("nested", Json::obj(vec![("ok", Json::Bool(true))])),
        ]);
        let out = v.render();
        assert_eq!(
            out,
            "{\n  \"name\": \"cpu_kernel\",\n  \"rows\": [\n    1,\n    2.5\n  ],\n  \
             \"empty\": [],\n  \"nested\": {\n    \"ok\": true\n  }\n}\n"
        );
        assert_eq!(v.render(), out, "rendering is deterministic");
    }

    #[test]
    fn escapes_strings_and_nulls_non_finite_numbers() {
        let v = Json::Arr(vec![
            "a\"b\\c\nd\u{1}".into(),
            Json::Num(f64::NAN),
            Json::Num(f64::INFINITY),
            Json::Null,
        ]);
        let out = v.render();
        assert!(out.contains("\"a\\\"b\\\\c\\nd\\u0001\""));
        assert_eq!(out.matches("null").count(), 3);
    }

    #[test]
    fn parse_round_trips_what_render_emits() {
        let v = Json::obj(vec![
            ("bench", "cpu_kernel".into()),
            ("smoke", Json::Bool(false)),
            ("threads", Json::Num(8.0)),
            (
                "rows",
                Json::Arr(vec![Json::obj(vec![
                    ("workload", "sparse".into()),
                    ("speedup_single_query", Json::Num(8.25)),
                    ("negative", Json::Num(-0.5)),
                    ("nothing", Json::Null),
                ])]),
            ),
            ("escaped", "a\"b\\c\nd\u{1}".into()),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::obj(vec![])),
        ]);
        let parsed = Json::parse(&v.render()).unwrap();
        assert_eq!(parsed, v);
    }

    #[test]
    fn accessors_navigate_parsed_baselines() {
        let doc =
            Json::parse("{\"rows\": [{\"workload\": \"dense\", \"speedup_single_query\": 2.5}]}")
                .unwrap();
        let rows = doc.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(
            rows[0].get("workload").and_then(Json::as_str),
            Some("dense")
        );
        assert_eq!(
            rows[0].get("speedup_single_query").and_then(Json::as_f64),
            Some(2.5)
        );
        assert_eq!(doc.get("missing"), None);
        assert_eq!(rows[0].get("workload").and_then(Json::as_f64), None);
    }

    #[test]
    fn parse_rejects_garbage_loudly() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
    }
}
