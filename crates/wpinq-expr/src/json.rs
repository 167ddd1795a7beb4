//! A minimal, dependency-free JSON document model with a deterministic writer.
//!
//! The build container has no crates.io access, so the wire format is hand-rolled on top
//! of this module instead of serde. Two properties matter more than generality:
//!
//! * **Determinism**: the writer emits object members in insertion order and renders every
//!   scalar through a canonical formatter (`{}` for integers; Rust's shortest-round-trip
//!   `{}` for floats), so equal documents produce byte-equal text — the golden-fixture CI
//!   check and the byte-identical-release property tests depend on this.
//! * **Exact integers**: numbers are kept as their raw decimal token, so a full-range
//!   `u64`/`i64` survives a parse → write cycle without passing through `f64`.

use std::fmt::Write as _;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its raw decimal token (never routed through `f64`).
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; member order is preserved (and emitted) as authored.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds a number node from anything with a canonical `Display` form.
    pub fn num(n: impl std::fmt::Display) -> Json {
        Json::Num(n.to_string())
    }

    /// Builds a number node from a float. JSON cannot represent NaN/±∞ (Rust's `{}`
    /// would emit the unparseable tokens `NaN`/`inf`), so non-finite values encode as
    /// `null` — which readers then reject with a clean wire error instead of producing
    /// a document the parser itself chokes on.
    pub fn f64(value: f64) -> Json {
        if value.is_finite() {
            Json::Num(value.to_string())
        } else {
            Json::Null
        }
    }

    /// Builds a string node.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Looks up an object member by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array items, when this node is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string payload, when this node is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The raw numeric token, when this node is a number.
    pub fn as_num(&self) -> Option<&str> {
        match self {
            Json::Num(s) => Some(s),
            _ => None,
        }
    }

    /// Parses the numeric token as `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_num()?.parse().ok()
    }

    /// Parses the numeric token as `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        self.as_num()?.parse().ok()
    }

    /// Parses the numeric token as `f64` (exact round trip for tokens the writer emitted,
    /// since Rust's float formatter prints shortest-round-trip decimals).
    pub fn as_f64(&self) -> Option<f64> {
        self.as_num()?.parse().ok()
    }

    /// The boolean payload, when this node is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace). Deterministic: equal documents yield
    /// byte-equal output.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation (the golden-fixture format).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline(out, indent, depth);
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent, depth + 1);
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                newline(out, indent, depth);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document, rejecting trailing garbage.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError::at(pos, "trailing characters after document"));
        }
        Ok(value)
    }
}

fn newline(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
}

/// Appends a float exactly as [`Json::f64`] prints it (`null` when non-finite), for
/// writers that stream a document into a `String` without building the tree.
pub fn write_f64(out: &mut String, value: f64) {
    if value.is_finite() {
        let _ = write!(out, "{value}");
    } else {
        out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

/// A parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl JsonError {
    fn at(offset: usize, message: impl Into<String>) -> JsonError {
        JsonError {
            offset,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), JsonError> {
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(JsonError::at(*pos, format!("expected '{}'", c as char)))
    }
}

/// The deepest array/object nesting [`Json::parse`] accepts. The parser recurses once
/// per level, so without a cap a line of `[`s overflows the thread's stack and aborts the
/// process; no document the protocol defines comes near this depth.
pub const MAX_DEPTH: usize = 128;

/// The depth inside a container opened at `pos` by a value at `depth`, refused past
/// [`MAX_DEPTH`].
fn nested(pos: usize, depth: usize) -> Result<usize, JsonError> {
    if depth == MAX_DEPTH {
        return Err(JsonError::at(
            pos,
            format!("nesting deeper than {MAX_DEPTH} levels"),
        ));
    }
    Ok(depth + 1)
}

/// Parses one value at `depth` enclosing arrays/objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(JsonError::at(*pos, "unexpected end of input")),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            let inner = nested(*pos, depth)?;
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, inner)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(JsonError::at(*pos, "expected ',' or ']' in array")),
                }
            }
        }
        Some(b'{') => {
            let inner = nested(*pos, depth)?;
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, inner)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(JsonError::at(*pos, "expected ',' or '}' in object")),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(JsonError::at(*pos, format!("unexpected byte 0x{c:02x}"))),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    keyword: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(keyword.as_bytes()) {
        *pos += keyword.len();
        Ok(value)
    } else {
        Err(JsonError::at(*pos, format!("expected '{keyword}'")))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    // The token is ASCII by construction, and the raw text is what gets stored.
    let token = std::str::from_utf8(&bytes[start..*pos]).expect("number tokens are ASCII");
    if !is_number(token) {
        return Err(JsonError::at(start, format!("malformed number '{token}'")));
    }
    Ok(Json::Num(token.to_string()))
}

/// The decimal grammar `f64::from_str` accepts over a number token's alphabet:
/// `-? (digits [. digits?] | . digits) ([eE] [+-]? digits)?`.
fn is_number(token: &str) -> bool {
    let all_digits = |s: &str| s.bytes().all(|b| b.is_ascii_digit());
    let (mantissa, exponent) = match token.split_once(['e', 'E']) {
        Some((mantissa, e)) => (mantissa, Some(e.strip_prefix(['+', '-']).unwrap_or(e))),
        None => (token, None),
    };
    let mantissa = mantissa.strip_prefix('-').unwrap_or(mantissa);
    let (whole, fraction) = mantissa.split_once('.').unwrap_or((mantissa, ""));
    all_digits(whole)
        && all_digits(fraction)
        && !(whole.is_empty() && fraction.is_empty())
        && exponent.is_none_or(|e| !e.is_empty() && all_digits(e))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(JsonError::at(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| JsonError::at(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| JsonError::at(*pos, "malformed \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| JsonError::at(*pos, "malformed \\u escape"))?;
                        // Surrogate pairs are not needed by the wire format; reject them.
                        let c = char::from_u32(code)
                            .ok_or_else(|| JsonError::at(*pos, "unsupported \\u escape"))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(JsonError::at(*pos, "unsupported escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or escape at once. Both
                // delimiters are ASCII, so the run ends on a character boundary.
                let start = *pos;
                while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| JsonError::at(start, "invalid UTF-8"))?;
                out.push_str(run);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_compact_and_pretty() {
        let doc = Json::Obj(vec![
            ("version".into(), Json::num(1u32)),
            (
                "items".into(),
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::num(-7i64)]),
            ),
            ("name".into(), Json::str("a\"b\\c\nd")),
        ]);
        for text in [doc.to_compact(), doc.to_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), doc);
        }
    }

    #[test]
    fn full_range_integers_survive() {
        let doc = Json::Arr(vec![Json::num(u64::MAX), Json::num(i64::MIN)]);
        let parsed = Json::parse(&doc.to_compact()).unwrap();
        assert_eq!(parsed.as_arr().unwrap()[0].as_u64(), Some(u64::MAX));
        assert_eq!(parsed.as_arr().unwrap()[1].as_i64(), Some(i64::MIN));
    }

    #[test]
    fn floats_round_trip_exactly_via_shortest_decimal() {
        for bits in [
            0x3fe5555555555555u64,
            0x400921fb54442d18,
            0x0010000000000000,
        ] {
            let x = f64::from_bits(bits);
            let doc = Json::num(x);
            let back = Json::parse(&doc.to_compact()).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), bits);
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let error = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(error.offset, MAX_DEPTH);
        // Far past the cap the parser still answers instead of overflowing its stack.
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(50_000)).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nope").is_err());
    }

    /// Strings are copied run by run between quotes and escapes: every escape and
    /// multi-byte characters must survive at the start, the end and both sides of a run.
    #[test]
    fn strings_decode_across_run_boundaries() {
        let cases = [
            (r#""""#, ""),
            (r#""plain""#, "plain"),
            (r#""\n""#, "\n"),
            (
                r#""a\"b\\c\/d\ne\rf\tg\bh\fi""#,
                "a\"b\\c/d\ne\rf\tg\u{8}h\u{c}i",
            ),
            (r#""\"\\\/\n\r\t\b\f""#, "\"\\/\n\r\t\u{8}\u{c}"),
            (r#""é\n→\t𝛆""#, "é\n→\t𝛆"),
            (r#""\né""#, "\né"),
            (r#""𝛆\\""#, "𝛆\\"),
            (r#""\u00e9""#, "é"),
            (r#""a\u00e9b""#, "aéb"),
            (r#""é\u2192𝛆\u0041""#, "é→𝛆A"),
            (r#""\u0041\u0042""#, "AB"),
        ];
        for (text, expected) in cases {
            assert_eq!(
                Json::parse(text),
                Ok(Json::str(expected)),
                "decoding {text}"
            );
            // And the writer's escapes read back, in an object key as well.
            let doc = Json::Obj(vec![(expected.to_string(), Json::str(expected))]);
            assert_eq!(Json::parse(&doc.to_compact()), Ok(doc));
        }
        for (text, offset) in [
            (r#""abc"#, 4),
            (r#""é\"#, 4),
            (r#""ab\x""#, 4),
            (r#""ab\u12""#, 4),
            (r#""ab\ud800""#, 4),
        ] {
            assert_eq!(Json::parse(text).unwrap_err().offset, offset, "{text}");
        }
    }

    /// Reading a string is linear in its length: a `release_columnar` payload of a few
    /// megabytes must parse at once (per-character revalidation of the remaining input
    /// took minutes on this).
    #[test]
    fn long_strings_parse_in_linear_time() {
        let body = "QUJD+/é".repeat(400_000);
        let parsed = Json::parse(&format!("[\"{body}\\n\"]")).unwrap();
        assert_eq!(parsed, Json::Arr(vec![Json::Str(format!("{body}\n"))]));
    }

    /// The number grammar accepts exactly what `f64::from_str` accepts over the token
    /// alphabet (checked on every token of up to six characters), and stores the token.
    #[test]
    fn number_grammar_matches_float_parsing() {
        let alphabet = b"07.eE+-";
        let mut tokens: Vec<Vec<u8>> = vec![Vec::new()];
        for _ in 0..6 {
            for i in 0..tokens.len() {
                for &c in alphabet {
                    let mut next = tokens[i].clone();
                    next.push(c);
                    tokens.push(next);
                }
            }
            tokens.sort();
            tokens.dedup();
        }
        for token in tokens {
            let text = std::str::from_utf8(&token).unwrap();
            assert_eq!(
                is_number(text),
                !text.starts_with('+') && text.parse::<f64>().is_ok(),
                "token '{text}'"
            );
        }
        assert_eq!(Json::parse("-0.50e+07"), Ok(Json::Num("-0.50e+07".into())));
    }

    #[test]
    fn malformed_numbers_are_rejected_at_their_first_byte() {
        for (text, offset) in [
            ("1e", 0),
            ("--1", 0),
            ("1.2.3", 0),
            ("[1,1e+]", 3),
            ("{\"a\":-}", 5),
            ("[-.e1]", 1),
        ] {
            let error = Json::parse(text).unwrap_err();
            assert_eq!(error.offset, offset, "{text}");
            assert!(error.message.starts_with("malformed number"), "{error}");
        }
        // A leading plus never starts a value.
        let error = Json::parse("+1").unwrap_err();
        assert_eq!(
            (error.offset, error.message.as_str()),
            (0, "unexpected byte 0x2b")
        );
    }

    #[test]
    fn writer_is_deterministic() {
        let doc = Json::Obj(vec![
            ("b".into(), Json::num(2u32)),
            ("a".into(), Json::num(1u32)),
        ]);
        assert_eq!(doc.to_compact(), "{\"b\":2,\"a\":1}");
    }
}
