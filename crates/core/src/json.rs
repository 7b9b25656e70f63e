//! A minimal JSON reader/writer for the kernel artifacts' export format.
//!
//! The build is fully offline (no `serde`), so the crate brings its own
//! JSON: a small value tree ([`JsonValue`]), a strict recursive descent
//! parser ([`JsonValue::parse`]) and a deterministic pretty-printer
//! ([`JsonValue::write`]). `KernelArtifact::{to_json, from_json}` export
//! and import artifacts with them; the cache's own files are binary
//! (`KernelArtifact::to_bytes`). Two properties matter for the export:
//!
//! * **Bit-exact float round-trips.** Numbers are written with Rust's
//!   shortest-round-trip `Display` for `f64`, so `parse(write(v)) == v`
//!   bit-for-bit for every finite value — an exported artifact keeps the
//!   exact cost and latency numbers of the synthesis that produced it.
//! * **Deterministic output.** Objects store their members in a `BTreeMap`,
//!   so the same artifact always serializes to the same bytes.
//!
//! ```
//! use hexcute_core::json::JsonValue;
//!
//! let v = JsonValue::parse(r#"{"latency_us": 1.25, "name": "gemm"}"#)?;
//! assert_eq!(v.get("latency_us").and_then(JsonValue::as_f64), Some(1.25));
//! let round = JsonValue::parse(&v.write())?;
//! assert_eq!(round, v);
//! # Ok::<(), hexcute_core::json::JsonError>(())
//! ```

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; members are kept sorted so output is deterministic.
    Obj(BTreeMap<String, JsonValue>),
}

/// A parse error: byte offset into the input plus a message.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset at which parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl JsonValue {
    /// Parses a JSON document. Trailing non-whitespace is an error, so a
    /// truncated or garbage-appended artifact file is rejected rather than
    /// silently half-read, and so is nesting deeper than 128 arrays and
    /// objects.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first malformed byte.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut r = Reader::new(text);
        let value = r.value()?;
        r.finish()?;
        Ok(value)
    }

    /// Serializes the value as pretty-printed JSON (2-space indent, members
    /// in sorted order, floats in shortest-round-trip form).
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_into(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => write_number(out, *n),
            JsonValue::Str(s) => write_string(out, s),
            JsonValue::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write_into(out, indent + 1);
                    if i + 1 != items.len() {
                        out.push(',');
                    }
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            JsonValue::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write_into(out, indent + 1);
                    if i + 1 != members.len() {
                        out.push(',');
                    }
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `usize`, if it is a non-negative integral number.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_f64()
            .filter(|&n| n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64)
            .map(|n| n as usize)
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up an object member.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.get(key),
            _ => None,
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Writes `n` so that parsing the text recovers the exact bits: Rust's
/// `Display` for `f64` is the shortest decimal form that round-trips.
/// Non-finite values are not valid JSON and are written as `null` (the
/// artifact structs never contain them; a `null` where a number is expected
/// is then rejected on read).
fn write_number(out: &mut String, n: f64) {
    if n.is_finite() {
        let _ = write!(out, "{n}");
    } else {
        out.push_str("null");
    }
}

/// Writes `s` quoted, escaping `"`, `\` and the control characters. Runs
/// of other characters are copied whole: every byte of a multi-byte UTF-8
/// sequence is at least `0x80`, so a run never ends inside a character.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            b'\r' => "\\r",
            0..=0x1f => "", // `\u00XX`, written below
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{byte:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// The lexer and recursive descent behind [`JsonValue::parse`].
struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

/// The deepest nesting of arrays and objects a document may have.
/// Artifacts nest four levels deep; the bound makes a file of brackets an
/// error instead of a stack overflow.
const MAX_DEPTH: usize = 128;

impl<'a> Reader<'a> {
    /// A reader at the first value of `text`.
    fn new(text: &'a str) -> Self {
        let mut r = Reader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        r.skip_ws();
        r
    }

    /// Ends the document: only whitespace may follow the last value.
    fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters after the document"))
        }
    }

    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        loop {
            self.pos += spaces(&self.bytes[self.pos..]);
            match self.peek() {
                Some(b'\t' | b'\n' | b'\r') => self.pos += 1,
                _ => return,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, text: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(())
        } else {
            Err(self.err(format!("expected `{text}`")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => {
                let mut members = BTreeMap::new();
                self.members(|r, key| {
                    let value = r.value()?;
                    members.insert(key.into_owned(), value);
                    Ok(())
                })?;
                Ok(JsonValue::Obj(members))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.elements(|r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Ok(JsonValue::Arr(items))
            }
            Some(b'"') => Ok(JsonValue::Str(self.string()?.into_owned())),
            Some(b't') => self.literal("true").map(|()| JsonValue::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| JsonValue::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number().map(JsonValue::Num),
            Some(other) => Err(self.err(format!("unexpected byte {:?}", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Enters one more array or object.
    fn descend(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(format!("nested deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    /// Reads the object whose `{` is next, handing each key to `member`,
    /// which must read exactly one value.
    fn members(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.expect(b'{')?;
        self.descend()?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    /// Reads the array whose `[` is next, calling `item` to read each item.
    fn elements(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.expect(b'[')?;
        self.descend()?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    /// Reads a string literal. Without escapes it is borrowed from the
    /// text; otherwise the runs between escapes are copied whole. Every run
    /// ends at an ASCII byte, so it is a whole `str` slice.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            self.pos += plain_run(&self.bytes[start..]);
            let text = &self.text[start..self.pos];
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(text),
                        Some(mut out) => {
                            out.push_str(text);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(text);
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let code = self.hex4()?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u escape (surrogate)"))?,
                            );
                        }
                        other => {
                            return Err(self.err(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                Some(_) => return Err(self.err("unescaped control character")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("non-ASCII \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("non-hex \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<f64, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map_err(|_| self.err(format!("malformed number `{text}`")))
    }
}

const LANES: u64 = 0x0101_0101_0101_0101;
const HIGH_BITS: u64 = 0x8080_8080_8080_8080;

/// The length of the prefix of `bytes` that needs no attention inside a
/// string: no `"`, `\\` or control byte. Eight bytes at a time: a byte is
/// flagged by the has-zero-byte trick. A borrow can also flag bytes above
/// a flagged one, never below, so the lowest flag is always exact.
fn plain_run(bytes: &[u8]) -> usize {
    let zero = |v: u64| v.wrapping_sub(LANES) & !v & HIGH_BITS;
    let mut i = 0;
    while let Some(chunk) = bytes.get(i..i + 8) {
        let x = u64::from_le_bytes(chunk.try_into().expect("an 8-byte chunk"));
        let flags = zero(x ^ (LANES * u64::from(b'"')))
            | zero(x ^ (LANES * u64::from(b'\\')))
            | (x.wrapping_sub(LANES * 0x20) & !x & HIGH_BITS);
        if flags != 0 {
            return i + flags.trailing_zeros() as usize / 8;
        }
        i += 8;
    }
    i + bytes[i..]
        .iter()
        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
        .unwrap_or(bytes.len() - i)
}

/// The number of leading spaces in `bytes`, eight at a time.
fn spaces(bytes: &[u8]) -> usize {
    let mut i = 0;
    while let Some(chunk) = bytes.get(i..i + 8) {
        let other = u64::from_le_bytes(chunk.try_into().expect("an 8-byte chunk")) ^ (LANES * 0x20);
        if other != 0 {
            return i + other.trailing_zeros() as usize / 8;
        }
        i += 8;
    }
    i + bytes[i..].iter().take_while(|&&b| b == b' ').count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structures() {
        let text = r#"{"a": [1, 2.5, -3e2], "b": {"nested": true, "s": "hi\nthere"}, "n": null}"#;
        let v = JsonValue::parse(text).unwrap();
        let round = JsonValue::parse(&v.write()).unwrap();
        assert_eq!(v, round);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(
            v.get("b").unwrap().get("s").unwrap().as_str(),
            Some("hi\nthere")
        );
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for bits in [
            0x3ff0_0000_0000_0001u64, // 1.0 + ulp
            0x3fb9_9999_9999_999au64, // 0.1
            0x7fef_ffff_ffff_ffffu64, // f64::MAX
            0x0000_0000_0000_0001u64, // smallest subnormal
            0xbff8_0000_0000_0000u64, // -1.5
        ] {
            let v = f64::from_bits(bits);
            let text = JsonValue::Num(v).write();
            let parsed = JsonValue::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(parsed.to_bits(), bits, "{v} did not round-trip");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\": }",
            "{\"a\": 1} trailing",
            "\"unterminated",
            "nul",
            "{\"a\" 1}",
            "[1 2]",
            "\u{1}",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_instead_of_overflowing_the_stack() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(JsonValue::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(JsonValue::parse(&nested(MAX_DEPTH + 1)).is_err());
        let objects = format!(
            "{}1{}",
            "{\"a\": ".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(JsonValue::parse(&objects).is_err());
        assert!(JsonValue::parse(&"[".repeat(1_000_000)).is_err());
    }

    #[test]
    fn unicode_and_escapes() {
        let v = JsonValue::parse(r#""swizzle ∘ layout \"q\"""#).unwrap();
        assert_eq!(v.as_str(), Some("swizzle ∘ layout \"q\""));
        // Multibyte characters survive writing too.
        let s = JsonValue::Str("a∘b".to_string());
        assert_eq!(JsonValue::parse(&s.write()).unwrap(), s);
    }

    #[test]
    fn word_scans_match_the_bytewise_definitions() {
        // One byte of every value at every offset of a word and its tail,
        // over backgrounds that sit next to the special bytes.
        for background in [b'a', b' ', b'!', b'#', b'[', b']', 0x7f, 0x80, 0xe2, 0xff] {
            for len in 0..18 {
                for at in 0..len {
                    for b in 0..=255u8 {
                        let mut bytes = vec![background; len];
                        bytes[at] = b;
                        let run = bytes
                            .iter()
                            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                            .unwrap_or(len);
                        assert_eq!(plain_run(&bytes), run, "{bytes:?}");
                        bytes.iter_mut().take(at).for_each(|b| *b = b' ');
                        let lead = bytes.iter().take_while(|&&b| b == b' ').count();
                        assert_eq!(spaces(&bytes), lead, "{bytes:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn string_runs_escape_like_the_per_character_definition() {
        // The definition `write_string` copies runs of: one rule per
        // character.
        fn per_character(s: &str) -> String {
            let mut out = String::from('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        let every_ascii: String = (0u8..0x80).map(char::from).collect();
        for s in [
            "",
            "plain",
            every_ascii.as_str(),
            "é\"ß\\中\n🚀\u{1}\u{7f}\u{2028}",
            "\"\"\\\\\u{0}",
        ] {
            let mut streamed = String::new();
            write_string(&mut streamed, s);
            assert_eq!(streamed, per_character(s), "{s:?}");
        }
    }

    #[test]
    fn usize_accessor_rejects_fractions_and_negatives() {
        assert_eq!(JsonValue::Num(3.0).as_usize(), Some(3));
        assert_eq!(JsonValue::Num(3.5).as_usize(), None);
        assert_eq!(JsonValue::Num(-1.0).as_usize(), None);
        assert_eq!(JsonValue::Str("3".into()).as_usize(), None);
    }
}
