//! A small, dependency-free JSON implementation for the wire protocol.
//!
//! The build environment is offline (the workspace's `serde` is a marker
//! stand-in), so the service speaks JSON through this module: a value
//! tree, a deterministic writer, and one strict lexer — the borrowing
//! pull [`Reader`] — under both [`parse`] (which builds a tree) and the
//! wire decoder (which builds requests without one). Design points:
//!
//! * **Integers are exact.** Numbers without fraction/exponent parse into
//!   `i64` (or `u64` via [`Json::as_u64`]) and print without a decimal
//!   point, so `i64` immediates and 64-bit counters round-trip bit-exactly
//!   — floats only appear when a document really contains them.
//! * **Objects preserve insertion order** (a `Vec` of pairs, not a map),
//!   so encoding is deterministic and responses diff cleanly.
//! * **Strict parsing**: trailing garbage, unterminated strings, control
//!   characters in strings, and depth bombs are errors, not surprises.
//! * **Borrowed text**: the reader hands out keys and escape-free strings
//!   as slices of the input; only escaped strings allocate.

use std::borrow::Cow;
use std::fmt;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number with no fractional part, kept exact.
    Int(i64),
    /// A number with a fraction or exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A convenience constructor for objects.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup on objects (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `i64`, when it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `u64`, when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Float(v) => {
                if v.is_finite() {
                    let s = format!("{v}");
                    // `{}` on a whole f64 prints no ".0"; force one so the
                    // value re-parses as the Float it is.
                    if s.contains(['.', 'e', 'E']) {
                        out.push_str(&s);
                    } else {
                        out.push_str(&s);
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null"); // JSON has no NaN/Inf
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Serializes to single-line JSON (the wire format is line-delimited, so
/// no pretty printing); `to_string()` comes with it.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure, with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut reader = Reader::new(input);
    let first = reader.event()?;
    let value = reader.tree(first)?;
    reader.finish()?;
    Ok(value)
}

const MAX_DEPTH: usize = 128;

/// One step of a [`Reader`]'s walk through a document.
#[derive(Debug, Clone, PartialEq)]
pub enum Event<'a> {
    /// `{`: the object's keys follow, then [`Event::ObjectEnd`].
    ObjectStart,
    /// `}`.
    ObjectEnd,
    /// `[`: the array's values follow, then [`Event::ArrayEnd`].
    ArrayStart,
    /// `]`.
    ArrayEnd,
    /// An object key; the next event starts its value.
    Key(Cow<'a, str>),
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number with no fractional part, kept exact.
    Int(i64),
    /// A number with a fraction or exponent.
    Float(f64),
    /// A string value.
    Str(Cow<'a, str>),
}

/// What the grammar allows at the reader's position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// A value: the document start, or after a key's `:`.
    Value,
    /// `]` or the first value of an array.
    FirstItem,
    /// `}` or the first key of an object.
    FirstKey,
    /// `,` or the enclosing container's closer; the end of the document
    /// at depth 0.
    Separator,
}

/// A borrowing pull parser: yields a document one [`Event`] at a time,
/// with the same strictness, depth cap and error offsets as [`parse`]
/// (which is a tree builder on top of it). Keys and strings without
/// escapes borrow from the input; only escaped ones allocate.
///
/// ```
/// use satmapit_service::json::{Event, Reader};
///
/// let mut reader = Reader::new(r#"{"op":"health","pad":[1,2]}"#);
/// assert_eq!(reader.event().unwrap(), Event::ObjectStart);
/// assert_eq!(reader.next_key().unwrap().as_deref(), Some("op"));
/// assert_eq!(reader.event().unwrap(), Event::Str("health".into()));
/// assert_eq!(reader.next_key().unwrap().as_deref(), Some("pad"));
/// reader.skip_value().unwrap();
/// assert_eq!(reader.next_key().unwrap(), None);
/// reader.finish().unwrap();
/// ```
#[derive(Debug)]
pub struct Reader<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Open containers.
    depth: usize,
    /// Bit `d` is set when the container opened at depth `d` is an
    /// object. The depth cap keeps `d` below 128.
    objects: u128,
    expect: Expect,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `input`.
    pub fn new(input: &'a str) -> Reader<'a> {
        Reader {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
            objects: 0,
            expect: Expect::Value,
        }
    }

    /// The number of containers currently open.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The next event. After an error the reader's state is unspecified.
    ///
    /// # Errors
    ///
    /// Malformed JSON at the reader's position, or a read past the end of
    /// the document.
    pub fn event(&mut self) -> Result<Event<'a>, JsonError> {
        self.skip_ws();
        match self.expect {
            Expect::Value => self.value(),
            Expect::FirstItem if self.peek() == Some(b']') => Ok(self.close(Event::ArrayEnd)),
            Expect::FirstItem => self.value(),
            Expect::FirstKey if self.peek() == Some(b'}') => Ok(self.close(Event::ObjectEnd)),
            Expect::FirstKey => self.key(),
            Expect::Separator if self.depth == 0 => {
                Err(self.err("read past the end of the document"))
            }
            Expect::Separator => {
                let object = (self.objects >> (self.depth - 1)) & 1 == 1;
                match (self.peek(), object) {
                    (Some(b','), _) => {
                        self.pos += 1;
                        self.skip_ws();
                        if object {
                            self.key()
                        } else {
                            self.value()
                        }
                    }
                    (Some(b']'), false) => Ok(self.close(Event::ArrayEnd)),
                    (Some(b'}'), true) => Ok(self.close(Event::ObjectEnd)),
                    (_, false) => Err(self.err("expected `,` or `]`")),
                    (_, true) => Err(self.err("expected `,` or `}`")),
                }
            }
        }
    }

    /// Inside an object: the next key, or `None` once the object has
    /// closed.
    ///
    /// # Errors
    ///
    /// Malformed JSON, or a reader that is not between an object's
    /// members.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        match self.event()? {
            Event::Key(key) => Ok(Some(key)),
            Event::ObjectEnd => Ok(None),
            _ => Err(self.err("expected an object member")),
        }
    }

    /// Inside an array: the first event of the next value, or `None` once
    /// the array has closed.
    ///
    /// # Errors
    ///
    /// Malformed JSON.
    pub fn next_item(&mut self) -> Result<Option<Event<'a>>, JsonError> {
        match self.event()? {
            Event::ArrayEnd => Ok(None),
            first => Ok(Some(first)),
        }
    }

    /// Reads the rest of the value that began with `first`; a scalar is
    /// already complete.
    ///
    /// # Errors
    ///
    /// Malformed JSON inside the value.
    pub fn skip(&mut self, first: &Event<'a>) -> Result<(), JsonError> {
        match first {
            Event::ObjectStart | Event::ArrayStart => self.skip_to(self.depth - 1),
            _ => Ok(()),
        }
    }

    /// Reads and discards one whole value.
    ///
    /// # Errors
    ///
    /// Malformed JSON inside the value.
    pub fn skip_value(&mut self) -> Result<(), JsonError> {
        let first = self.event()?;
        self.skip(&first)
    }

    /// Reads events until no more than `depth` containers are open — from
    /// anywhere inside a value, back out to its end.
    ///
    /// # Errors
    ///
    /// Malformed JSON on the way.
    pub fn skip_to(&mut self, depth: usize) -> Result<(), JsonError> {
        while self.depth > depth {
            self.event()?;
        }
        Ok(())
    }

    /// Builds the tree of the value that began with `first`.
    fn tree(&mut self, first: Event<'a>) -> Result<Json, JsonError> {
        Ok(match first {
            Event::Null => Json::Null,
            Event::Bool(b) => Json::Bool(b),
            Event::Int(v) => Json::Int(v),
            Event::Float(v) => Json::Float(v),
            Event::Str(s) => Json::Str(s.into_owned()),
            Event::ArrayStart => {
                let mut items = Vec::new();
                while let Some(first) = self.next_item()? {
                    items.push(self.tree(first)?);
                }
                Json::Arr(items)
            }
            Event::ObjectStart => {
                let mut pairs = Vec::new();
                while let Some(key) = self.next_key()? {
                    let first = self.event()?;
                    pairs.push((key.into_owned(), self.tree(first)?));
                }
                Json::Obj(pairs)
            }
            Event::ObjectEnd | Event::ArrayEnd | Event::Key(_) => {
                return Err(self.err("expected a value"))
            }
        })
    }

    /// Checks that the document is complete: one whole value, then only
    /// whitespace.
    ///
    /// # Errors
    ///
    /// An unfinished value, or trailing characters after the document.
    pub fn finish(&mut self) -> Result<(), JsonError> {
        if self.depth > 0 || self.expect != Expect::Separator {
            return Err(self.err("unexpected end of input"));
        }
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after document"));
        }
        Ok(())
    }

    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, event: Event<'a>) -> Result<Event<'a>, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(event)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    /// Opens a container at the current depth.
    fn open(&mut self, object: bool, event: Event<'a>) -> Event<'a> {
        self.objects &= !(1 << self.depth);
        self.objects |= u128::from(object) << self.depth;
        self.depth += 1;
        self.pos += 1;
        self.expect = if object {
            Expect::FirstKey
        } else {
            Expect::FirstItem
        };
        event
    }

    /// Consumes the closer of the innermost container.
    fn close(&mut self, event: Event<'a>) -> Event<'a> {
        self.depth -= 1;
        self.pos += 1;
        self.expect = Expect::Separator;
        event
    }

    fn key(&mut self) -> Result<Event<'a>, JsonError> {
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.expect = Expect::Value;
        Ok(Event::Key(key))
    }

    fn value(&mut self) -> Result<Event<'a>, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.expect = Expect::Separator;
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Event::Null),
            Some(b't') => self.literal("true", Event::Bool(true)),
            Some(b'f') => self.literal("false", Event::Bool(false)),
            Some(b'"') => Ok(Event::Str(self.string()?)),
            Some(b'[') => Ok(self.open(false, Event::ArrayStart)),
            Some(b'{') => Ok(self.open(true, Event::ObjectStart)),
            Some(_) => self.number(),
        }
    }

    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let mut out: Option<String> = None;
        loop {
            let start = self.pos;
            // Fast path: a run of plain bytes at once. We only stop at
            // ASCII delimiters, so both ends are char boundaries.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            let run = &self.input[start..self.pos];
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match out {
                        // No escape seen: borrow the whole string.
                        None => Cow::Borrowed(run),
                        Some(mut out) => {
                            out.push_str(run);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = out.get_or_insert_with(String::new);
                    out.push_str(run);
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            self.pos += 1;
                            out.push(self.unicode_escape()?);
                            continue; // hex4 already advanced pos
                        }
                        _ => return Err(self.err("invalid escape")),
                    };
                    out.push(c);
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    /// The character of a `\u` escape whose `\u` has been consumed.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.hex4()?;
        let c = if (0xD800..0xDC00).contains(&first) {
            // High surrogate: require the paired low.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let second = self.hex4()?;
                if !(0xDC00..0xE000).contains(&second) {
                    return Err(self.err("unpaired surrogate"));
                }
                let combined = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                char::from_u32(combined)
            } else {
                return Err(self.err("unpaired surrogate"));
            }
        } else if (0xDC00..0xE000).contains(&first) {
            return Err(self.err("unpaired surrogate"));
        } else {
            char::from_u32(first)
        };
        c.ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.bytes[self.pos];
            let digit = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            v = (v << 4) | digit;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Event<'a>, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_digits = self.digits()?;
        if int_digits > 1 && self.bytes[self.pos - int_digits] == b'0' {
            return Err(self.err("leading zero"));
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = &self.input[start..self.pos];
        if !is_float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Event::Int(v));
            }
            // Out-of-i64-range integers degrade to float rather than error
            // (JSON places no bound; we keep the closest representable).
        }
        text.parse::<f64>()
            .map(Event::Float)
            .map_err(|_| self.err("invalid number"))
    }

    fn digits(&mut self) -> Result<usize, JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected digit"));
        }
        Ok(self.pos - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-7",
            "9223372036854775807",
            "\"hi\"",
        ] {
            let v = parse(text).unwrap();
            assert_eq!(v.to_string(), text);
        }
    }

    #[test]
    fn integers_stay_exact() {
        assert_eq!(parse("9223372036854775807").unwrap(), Json::Int(i64::MAX));
        assert_eq!(parse("-9223372036854775808").unwrap(), Json::Int(i64::MIN));
        assert_eq!(parse("1.5").unwrap(), Json::Float(1.5));
        assert_eq!(parse("1e3").unwrap(), Json::Float(1000.0));
    }

    #[test]
    fn nested_structures() {
        let text = r#"{"a":[1,2,{"b":null}],"c":"x"}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.to_string(), text);
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
    }

    #[test]
    fn string_escapes() {
        let v = parse(r#""a\n\t\"\\\u0041\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v, Json::Str("a\n\t\"\\Aé😀".to_string()));
        // And the writer escapes back to parseable form.
        let round = parse(&v.to_string()).unwrap();
        assert_eq!(round, v);
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"abc",
            "{\"a\"}",
            "01",
            "1.",
            "tru",
            "[1]x",
            "\"\\u12\"",
            "\"\\ud800\"",
            "nul",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn depth_bomb_rejected() {
        let bomb = "[".repeat(100_000);
        assert!(parse(&bomb).is_err());
    }

    #[test]
    fn whole_floats_reparse_as_floats() {
        let v = Json::Float(3.0);
        assert_eq!(v.to_string(), "3.0");
        assert_eq!(parse("3.0").unwrap(), v);
    }
}
