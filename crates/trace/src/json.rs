//! The workspace's one JSON implementation: a dependency-free value
//! parser and the string escaper every writer uses. The service's
//! wire protocol and job journal, the [`crate::JsonReport`] writer and
//! the bench gates all go through this module.

use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts. The wire grammar
/// nests a handful of levels; the bound turns a hostile line of
/// brackets into an `Err` instead of a stack overflow.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value (numbers keep both integer and float readings).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as u64, if integral and in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is `true` or `false`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one JSON document (trailing whitespace allowed).
///
/// # Errors
///
/// A byte offset + message for malformed input, or for arrays and
/// objects nested more than 64 deep.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut pos = 0usize;
    let v = parse_value(text, &mut pos, 0)?;
    skip_ws(text.as_bytes(), &mut pos);
    if pos != text.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Value, String> {
    let b = text.as_bytes();
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(&open @ (b'{' | b'[')) => {
            if depth >= MAX_DEPTH {
                return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
            }
            let (is_obj, close) = (open == b'{', if open == b'{' { b'}' } else { b']' });
            let (mut fields, mut items) = (Vec::new(), Vec::new());
            *pos += 1;
            skip_ws(b, pos);
            let mut done = b.get(*pos) == Some(&close);
            while !done {
                if is_obj {
                    skip_ws(b, pos);
                    if b.get(*pos) != Some(&b'"') {
                        return Err(format!("object key at byte {pos} is not a string"));
                    }
                    let key = parse_string(text, pos)?;
                    skip_ws(b, pos);
                    if b.get(*pos) != Some(&b':') {
                        return Err(format!("expected ':' at byte {pos}"));
                    }
                    *pos += 1;
                    fields.push((key, parse_value(text, pos, depth + 1)?));
                } else {
                    items.push(parse_value(text, pos, depth + 1)?);
                }
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(&c) if c == close => done = true,
                    _ => return Err(format!("expected ',' or '{}' at byte {pos}", close as char)),
                }
            }
            *pos += 1;
            Ok(if is_obj {
                Value::Obj(fields)
            } else {
                Value::Arr(items)
            })
        }
        Some(b'"') => parse_string(text, pos).map(Value::Str),
        Some(b't') => parse_lit(b, pos, "true").map(|()| Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false").map(|()| Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null").map(|()| Value::Null),
        Some(_) => parse_number(text, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(text: &str, pos: &mut usize) -> Result<Value, String> {
    let b = text.as_bytes();
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    // Only ASCII bytes were consumed, so `start..pos` is a char range.
    text[start..*pos]
        .parse::<f64>()
        .map(Value::Num)
        .map_err(|_| format!("invalid number at byte {start}"))
}

/// Parses the string literal opening at `pos`. Unescaped runs are
/// copied as whole `&str` slices, so a string costs time linear in its
/// length; run boundaries sit on ASCII `"` / `\` bytes, which are
/// always char boundaries of the `&str` input.
fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let b = text.as_bytes();
    debug_assert_eq!(b.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        let run = b[*pos..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\')
            .ok_or("unterminated string")?;
        out.push_str(&text[*pos..*pos + run]);
        *pos += run;
        if b[*pos] == b'"' {
            *pos += 1;
            return Ok(out);
        }
        *pos += 1;
        match b.get(*pos) {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b't') => out.push('\t'),
            Some(b'r') => out.push('\r'),
            Some(b'b') => out.push('\u{8}'),
            Some(b'f') => out.push('\u{c}'),
            Some(b'u') => {
                let hex = text
                    .get(*pos + 1..*pos + 5)
                    .ok_or("truncated \\u escape".to_string())?;
                let code = u32::from_str_radix(hex, 16)
                    .map_err(|_| format!("invalid \\u escape at byte {pos}"))?;
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                *pos += 4;
            }
            _ => return Err(format!("invalid escape at byte {pos}")),
        }
        *pos += 1;
    }
}

/// Escapes `s` as the inside of a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"a\"}",
            "[1,]",
            "{\"a\":1} extra",
            "\"unterminated",
            "\"bad escape \\q\"",
            "\"short \\u12\"",
            "nul",
            "{1:2}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parser_handles_escapes_and_unicode() {
        let v = parse(r#""a\"b\\c\ndAé\u00e9\/""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAéé/"));
        assert_eq!(escape("a\"b\\c\nd"), r#"a\"b\\c\nd"#);
        let text = "multi-byte ✓ runs \u{1} and \"quotes\"";
        assert_eq!(
            parse(&format!("\"{}\"", escape(text))).unwrap().as_str(),
            Some(text)
        );
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = parse(&deep).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
        let hostile = "{\"a\":".repeat(1_000_000);
        assert!(parse(&hostile).is_err());
    }
}
