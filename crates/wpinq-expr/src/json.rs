//! A minimal, dependency-free JSON document model with a deterministic writer, and the
//! pull [`Reader`] that both [`Json::parse`] and the streaming decoders read through.
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

use std::borrow::Cow;
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
        let mut reader = Reader::new(text);
        let value = Json::read(&mut reader)?;
        reader.end()?;
        Ok(value)
    }

    /// Reads the reader's next value as a document.
    pub fn read(reader: &mut Reader<'_>) -> Result<Json, JsonError> {
        Ok(match reader.peek()? {
            b'n' | b't' | b'f' => reader.literal()?.map_or(Json::Null, Json::Bool),
            b'"' => Json::Str(reader.str()?.into_owned()),
            b'[' => {
                reader.begin()?;
                let mut items = Vec::new();
                while reader.has_next()? {
                    items.push(Json::read(reader)?);
                }
                Json::Arr(items)
            }
            b'{' => {
                reader.begin()?;
                let mut members = Vec::new();
                while let Some(key) = reader.next_key()? {
                    members.push((key.into_owned(), Json::read(reader)?));
                }
                Json::Obj(members)
            }
            _ => Json::Num(reader.number()?.to_string()),
        })
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

/// The deepest array/object nesting a [`Reader`] (and so [`Json::parse`]) accepts.
/// Readers recurse once per level, so without a cap a line of `[`s overflows the thread's
/// stack and aborts the process; no document the protocol defines comes near this depth.
pub const MAX_DEPTH: usize = 128;

/// A pull reader over JSON text: the one tokenizer behind [`Json::parse`] and every
/// decoder that reads a document without building it.
///
/// [`peek`](Self::peek) tells what comes next, and the matching method reads it. Arrays
/// are stepped with [`has_next`](Self::has_next) before each item, objects with
/// [`next_key`](Self::next_key) before each member; both consume the closing bracket when
/// they report the end. A clone is a saved position: it reads the same bytes again.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    /// The document; tokens and unescaped strings are borrowed slices of it.
    text: &'a str,
    pos: usize,
    /// Containers open at `pos`.
    depth: usize,
    /// Set when a container was just opened: the next step reads no separator.
    opened: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            pos: 0,
            depth: 0,
            opened: false,
        }
    }

    /// Skips whitespace; the next byte, if any.
    #[inline]
    fn ws(&mut self) -> Option<u8> {
        let bytes = self.text.as_bytes();
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(self.pos) {
            self.pos += 1;
        }
        bytes.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.ws() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::at(self.pos, format!("expected '{}'", c as char)))
        }
    }

    /// The first byte of the next value, which tells its kind: `n`, `t` or `f`, `"`, `[`,
    /// `{`, or `-` or a digit for a number. Any other byte is an error.
    #[inline]
    pub fn peek(&mut self) -> Result<u8, JsonError> {
        match self.ws() {
            None => Err(JsonError::at(self.pos, "unexpected end of input")),
            Some(c @ (b'n' | b't' | b'f' | b'"' | b'[' | b'{' | b'-' | b'0'..=b'9')) => Ok(c),
            Some(c) => Err(JsonError::at(
                self.pos,
                format!("unexpected byte 0x{c:02x}"),
            )),
        }
    }

    /// Succeeds when only whitespace is left.
    pub fn end(&mut self) -> Result<(), JsonError> {
        let trailing = "trailing characters after document";
        self.ws()
            .map_or(Ok(()), |_| Err(JsonError::at(self.pos, trailing)))
    }

    /// Reads `null` (as `None`), `true` or `false`.
    pub fn literal(&mut self) -> Result<Option<bool>, JsonError> {
        let (keyword, value) = match self.ws() {
            Some(b'n') => ("null", None),
            Some(b't') => ("true", Some(true)),
            _ => ("false", Some(false)),
        };
        if !self.text[self.pos..].starts_with(keyword) {
            return Err(JsonError::at(self.pos, format!("expected '{keyword}'")));
        }
        self.pos += keyword.len();
        Ok(value)
    }

    /// Reads a number as its raw token: the longest run of `0-9 . e E + -`, which must
    /// follow the grammar `f64::from_str` accepts over that alphabet,
    /// `-? (digits [. digits?] | . digits) ([eE] [+-]? digits)?`.
    #[inline]
    pub fn number(&mut self) -> Result<&'a str, JsonError> {
        self.ws();
        let (bytes, start) = (self.text.as_bytes(), self.pos);
        let mut pos = start;
        let digits = |pos: &mut usize| {
            let run = bytes[*pos..]
                .iter()
                .take_while(|b| b.is_ascii_digit())
                .count();
            *pos += run;
            run
        };
        pos += usize::from(bytes.get(pos) == Some(&b'-'));
        let mut count = digits(&mut pos);
        if bytes.get(pos) == Some(&b'.') {
            pos += 1;
            count += digits(&mut pos);
        }
        let mut valid = count > 0;
        if let Some(b'e' | b'E') = bytes.get(pos) {
            pos += 1;
            pos += usize::from(matches!(bytes.get(pos), Some(b'+' | b'-')));
            valid &= digits(&mut pos) > 0;
        }
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = bytes.get(pos) {
            valid = false;
            pos += 1;
        }
        self.pos = pos;
        // ASCII by construction, so both ends are character boundaries.
        let token = &self.text[start..self.pos];
        if !valid {
            return Err(JsonError::at(start, format!("malformed number '{token}'")));
        }
        Ok(token)
    }

    /// Reads a number as `T` (`u64`, `i64` or `f64`); `None` when it does not parse as `T`
    /// or is not a number. Those types parse only tokens the grammar of
    /// [`number`](Self::number) accepts, so the parse is the token's one check.
    #[inline]
    pub fn parse<T: std::str::FromStr>(&mut self) -> Result<Option<T>, JsonError> {
        if !matches!(self.peek()?, b'-' | b'0'..=b'9') {
            return Ok(None);
        }
        let (bytes, start) = (self.text.as_bytes(), self.pos);
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = bytes.get(self.pos) {
            self.pos += 1;
        }
        Ok(self.text[start..self.pos].parse().ok())
    }

    /// Reads a string, borrowed from the input unless it contains an escape.
    pub fn str(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let bytes = self.text.as_bytes();
        let mut out = String::new();
        loop {
            // Take the whole run up to the next quote or escape at once. Both delimiters
            // are ASCII, so the run ends on a character boundary.
            let start = self.pos;
            while !matches!(bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            let run = &self.text[start..self.pos];
            match bytes.get(self.pos) {
                None => return Err(JsonError::at(self.pos, "unterminated string")),
                Some(b'"') if out.is_empty() => {
                    self.pos += 1;
                    return Ok(Cow::Borrowed(run));
                }
                Some(b'"') => {
                    self.pos += 1;
                    out.push_str(run);
                    return Ok(Cow::Owned(out));
                }
                _ => {}
            }
            out.push_str(run);
            self.pos += 1;
            match bytes.get(self.pos) {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    let pos = self.pos;
                    let hex = bytes
                        .get(pos + 1..pos + 5)
                        .ok_or_else(|| JsonError::at(pos, "truncated \\u escape"))?;
                    let hex = std::str::from_utf8(hex)
                        .map_err(|_| JsonError::at(pos, "malformed \\u escape"))?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| JsonError::at(pos, "malformed \\u escape"))?;
                    // Surrogate pairs are not needed by the wire format; reject them.
                    let c = char::from_u32(code)
                        .ok_or_else(|| JsonError::at(pos, "unsupported \\u escape"))?;
                    out.push(c);
                    self.pos += 4;
                }
                _ => return Err(JsonError::at(self.pos, "unsupported escape")),
            }
            self.pos += 1;
        }
    }

    /// Enters the array or object that comes next, refused past [`MAX_DEPTH`]; step
    /// through it with [`has_next`](Self::has_next) or [`next_key`](Self::next_key).
    #[inline]
    pub fn begin(&mut self) -> Result<(), JsonError> {
        if !matches!(self.ws(), Some(b'[' | b'{')) {
            return Err(JsonError::at(self.pos, "expected '[' or '{'"));
        }
        if self.depth == MAX_DEPTH {
            let message = format!("nesting deeper than {MAX_DEPTH} levels");
            return Err(JsonError::at(self.pos, message));
        }
        self.pos += 1;
        self.depth += 1;
        self.opened = true;
        Ok(())
    }

    /// Steps past a separator or the container's closing `bracket`: `false` at the end.
    #[inline]
    fn step(&mut self, bracket: u8, error: &str) -> Result<bool, JsonError> {
        let opened = std::mem::take(&mut self.opened);
        match self.ws() {
            Some(c) if c == bracket => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ if opened => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(JsonError::at(self.pos, error)),
        }
    }

    /// Whether another item follows in the array being read; `false` consumes its `]`.
    #[inline]
    pub fn has_next(&mut self) -> Result<bool, JsonError> {
        self.step(b']', "expected ',' or ']' in array")
    }

    /// The next member's key, its `:` consumed, or `None` once the object's `}` is read.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        if !self.step(b'}', "expected ',' or '}' in object")? {
            return Ok(None);
        }
        let key = self.str()?;
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Reads past the next value, checking its syntax.
    pub fn skip_value(&mut self) -> Result<(), JsonError> {
        match self.peek()? {
            b'n' | b't' | b'f' => self.literal().map(drop),
            b'"' => self.str().map(drop),
            b'[' => {
                self.begin()?;
                while self.has_next()? {
                    self.skip_value()?;
                }
                Ok(())
            }
            b'{' => {
                self.begin()?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
            _ => self.number().map(drop),
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
    /// alphabet (checked on every token of up to six characters), and stores the token;
    /// `Reader::parse`, which leaves the check to the numeric parsers, accepts no more.
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
            let valid = Reader::new(text).number().is_ok();
            assert_eq!(
                valid,
                !text.starts_with('+') && text.parse::<f64>().is_ok(),
                "token '{text}'"
            );
            // `parse` leaves the check to the numeric parsers, which accept no more.
            if text.starts_with(|c: char| c == '-' || c.is_ascii_digit()) {
                let parse = |text| Reader::new(text).parse::<f64>().unwrap().map(f64::to_bits);
                let exact = valid.then(|| text.parse::<f64>().unwrap().to_bits());
                assert_eq!(parse(text), exact, "token '{text}'");
                let integer = Reader::new(text).parse::<i64>().unwrap().is_some()
                    || Reader::new(text).parse::<u64>().unwrap().is_some();
                assert!(valid || !integer, "token '{text}'");
            }
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
    fn reader_borrows_strings_without_escapes() {
        let mut reader = Reader::new(r#" [ "plain" , "a\nb", "é" ] "#);
        reader.begin().unwrap();
        assert!(reader.has_next().unwrap());
        assert!(matches!(reader.str().unwrap(), Cow::Borrowed("plain")));
        assert!(reader.has_next().unwrap());
        assert!(matches!(reader.str().unwrap(), Cow::Owned(s) if s == "a\nb"));
        assert!(reader.has_next().unwrap());
        assert!(matches!(reader.str().unwrap(), Cow::Borrowed("é")));
        assert!(!reader.has_next().unwrap());
        assert!(reader.end().is_ok());
    }

    /// Skipping checks what parsing checks, at the same offsets, and a clone taken before a
    /// skip reads the skipped value again.
    #[test]
    fn skip_value_checks_what_parse_checks() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        for text in [
            nested(MAX_DEPTH),
            nested(MAX_DEPTH + 1),
            "[".repeat(200_000),
            r#"{"a":[1,{"b":null}],"c":"x\u0041","d":-0.5e3}"#.to_string(),
            r#"{"a":1,}"#.to_string(),
            "[1,]".to_string(),
            "[1 2]".to_string(),
            "nul".to_string(),
            "1 2".to_string(),
        ] {
            let mut reader = Reader::new(&text);
            let mut saved = reader.clone();
            let skipped = reader.skip_value().and_then(|()| reader.end());
            assert_eq!(skipped.err(), Json::parse(&text).err(), "{text:.40}");
            if let Ok(tree) = Json::parse(&text) {
                assert_eq!(Json::read(&mut saved), Ok(tree));
            }
        }
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
