//! JSON, the one implementation: a strict parser into [`JsonValue`] and an
//! append-only writer ([`Obj`], [`Arr`]) that every wire format renders
//! through — the query format ([`crate::query`]), the corpus pipeline's
//! NDJSON lines, and the daemon's response bodies.
//!
//! The build environment has no JSON dependency, so both halves are
//! small and hand-written. The parser is strict enough to reject the
//! malformed bodies an HTTP endpoint will inevitably see, and bounded
//! ([`MAX_JSON_NESTING`]) so a hostile body cannot overflow a worker
//! stack.
//!
//! The writer only ever appends to the caller's `String`: keys, escaped
//! strings and numbers go straight into the output buffer, so rendering
//! allocates nothing per value (the buffer grows, values never get a
//! `String` of their own). Nesting is lexical — [`Obj::obj`] and
//! [`Obj::arr`] take a closure that writes the inner value:
//!
//! ```
//! use rextract_extraction::json::{object, JsonValue};
//!
//! let body = object(|o| {
//!     o.str("wrapper", "search")
//!         .num("position", 7)
//!         .obj("workers", |w| w.num("alive", 2))
//!         .nums("positions", [7])
//! });
//! assert_eq!(
//!     body,
//!     r#"{"wrapper":"search","position":7,"workers":{"alive":2},"positions":[7]}"#
//! );
//! assert!(JsonValue::parse(&body).is_ok());
//! ```

use std::fmt::Write as _;

/// Deepest array/object nesting [`JsonValue::parse`] accepts. The parser
/// and everything that walks a parsed value recurse once per level, so
/// this bound keeps a hostile body from overflowing a 2 MiB worker stack;
/// query definitions nest a few levels per plan operator.
pub const MAX_JSON_NESTING: usize = 128;

/// Append `s` to `out` as a JSON string literal, quotes included. `"`,
/// `\` and the control characters below U+0020 are escaped; everything
/// else (U+007F, U+2028, non-BMP characters) is valid raw in JSON and is
/// copied through. Runs between escapes are copied as whole slices.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[start..i]);
        if esc.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(esc);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Append one object to `out`; `f` writes its fields.
pub fn write_object(out: &mut String, f: impl FnOnce(Obj<'_>) -> Obj<'_>) {
    out.push('{');
    f(Obj { out, first: true }).out.push('}');
}

/// Render one object into a fresh `String`; `f` writes its fields.
pub fn object(f: impl FnOnce(Obj<'_>) -> Obj<'_>) -> String {
    let mut out = String::new();
    write_object(&mut out, f);
    out
}

/// The fields of one JSON object being appended to a buffer. Every
/// method writes one `"name":value` field (a comma first, after the
/// first field) and hands the writer back for chaining.
pub struct Obj<'a> {
    out: &'a mut String,
    first: bool,
}

impl Obj<'_> {
    fn key(&mut self, name: &str) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        write_str(self.out, name);
        self.out.push(':');
        self.out
    }

    pub fn str(mut self, name: &str, value: &str) -> Self {
        write_str(self.key(name), value);
        self
    }

    pub fn num(mut self, name: &str, value: u64) -> Self {
        let _ = write!(self.key(name), "{value}");
        self
    }

    /// A fractional value, rendered with three decimals.
    pub fn float(mut self, name: &str, value: f64) -> Self {
        let _ = write!(self.key(name), "{value:.3}");
        self
    }

    pub fn bool(mut self, name: &str, value: bool) -> Self {
        let _ = write!(self.key(name), "{value}");
        self
    }

    /// A nested object; `f` writes its fields.
    pub fn obj(mut self, name: &str, f: impl FnOnce(Obj<'_>) -> Obj<'_>) -> Self {
        write_object(self.key(name), f);
        self
    }

    /// A nested array; `f` writes its items.
    pub fn arr(mut self, name: &str, f: impl FnOnce(Arr<'_>) -> Arr<'_>) -> Self {
        write_array(self.key(name), f);
        self
    }

    /// An array of numbers.
    pub fn nums(self, name: &str, items: impl IntoIterator<Item = u64>) -> Self {
        self.arr(name, |a| items.into_iter().fold(a, Arr::num))
    }

    /// An array of strings.
    pub fn strs<'s>(self, name: &str, items: impl IntoIterator<Item = &'s str>) -> Self {
        self.arr(name, |a| items.into_iter().fold(a, Arr::str))
    }
}

fn write_array(out: &mut String, f: impl FnOnce(Arr<'_>) -> Arr<'_>) {
    out.push('[');
    f(Arr { out, first: true }).out.push(']');
}

/// The items of one JSON array being appended to a buffer; the array
/// counterpart of [`Obj`].
pub struct Arr<'a> {
    out: &'a mut String,
    first: bool,
}

impl Arr<'_> {
    fn item(&mut self) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out
    }

    pub fn str(mut self, value: &str) -> Self {
        write_str(self.item(), value);
        self
    }

    pub fn num(mut self, value: u64) -> Self {
        let _ = write!(self.item(), "{value}");
        self
    }

    /// A nested object; `f` writes its fields.
    pub fn obj(mut self, f: impl FnOnce(Obj<'_>) -> Obj<'_>) -> Self {
        write_object(self.item(), f);
        self
    }

    /// A nested array; `f` writes its items.
    pub fn arr(mut self, f: impl FnOnce(Arr<'_>) -> Arr<'_>) -> Self {
        write_array(self.item(), f);
        self
    }
}

/// A parsed JSON value. Object fields keep document order (duplicates:
/// first wins via [`JsonValue::get`]).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parse one JSON document (trailing garbage rejected).
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = JsonParser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }

    /// The first field named `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(o) => Some(o),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct JsonParser<'t> {
    bytes: &'t [u8],
    pos: usize,
    /// Arrays/objects currently open, bounded by [`MAX_JSON_NESTING`].
    depth: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("expected {word:?} at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_JSON_NESTING => Err(format!(
                "nesting deeper than {MAX_JSON_NESTING} levels at byte {}",
                self.pos
            )),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true").map(|()| JsonValue::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| JsonValue::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Parse one array or object one nesting level deeper.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    /// The four hex digits of a `\u` escape starting at `at`.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(at..at + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| "truncated \\u escape".to_string())?;
        u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape {hex:?}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy the run up to the next escape or quote.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4(self.pos)?;
                            self.pos += 4;
                            // A high surrogate must be followed by an
                            // escaped low one; together they name one
                            // non-BMP character.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                                    return Err("lone high surrogate".to_string());
                                }
                                let low = self.hex4(self.pos + 2)?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(format!(
                                        "high surrogate followed by \\u{low:04x}, not a low surrogate"
                                    ));
                                }
                                self.pos += 6;
                                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                code
                            };
                            out.push(
                                char::from_u32(c)
                                    .ok_or_else(|| format!("invalid code point {c:#x}"))?,
                            );
                        }
                        other => {
                            return Err(format!("bad escape \\{}", other as char));
                        }
                    }
                }
                Some(_) => return Err("control character in string".to_string()),
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
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
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(JsonValue::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn writer_escapes_and_nests() {
        let mut s = String::new();
        write_str(&mut s, "a\"b\\c\nd\u{1}\u{7f}😀");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\u{7f}😀\"");
        let body = object(|o| {
            o.str("na\"me", "x\"y")
                .num("n", 3)
                .bool("ok", true)
                .float("rate", 0.9)
                .nums("empty", [])
                .strs("names", ["a", "b"])
                .arr("pairs", |a| a.arr(|p| p.num(3).num(9)).obj(|o| o))
        });
        assert_eq!(
            body,
            r#"{"na\"me":"x\"y","n":3,"ok":true,"rate":0.900,"empty":[],"names":["a","b"],"pairs":[[3,9],{}]}"#
        );
        // Appends: what the buffer held before is kept.
        let mut out = String::from("x");
        write_object(&mut out, |o| o);
        assert_eq!(out, "x{}");
    }

    /// A string drawn from the characters a JSON writer can get wrong:
    /// quotes, backslashes, every C0 control, DEL, U+2028, non-BMP
    /// characters and plain text.
    fn nasty(rng: &mut SmallRng) -> String {
        const PICKS: &[char] = &[
            '"',
            '\\',
            '\u{7f}',
            '\u{2028}',
            '😀',
            '\u{10ffff}',
            'é',
            'a',
            '/',
        ];
        let len = rng.gen_range(0..12);
        (0..len)
            .map(|_| match rng.gen_range(0..3) {
                0 => char::from_u32(rng.gen_range(0..0x20) as u32).unwrap(),
                _ => PICKS[rng.gen_range(0..PICKS.len() as u64) as usize],
            })
            .collect()
    }

    #[test]
    fn written_strings_parse_back_to_themselves() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..500 {
            let (key, value, item) = (nasty(&mut rng), nasty(&mut rng), nasty(&mut rng));
            let text = object(|o| o.str(&key, &value).strs("items", [item.as_str()]));
            let parsed = JsonValue::parse(&text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
            assert_eq!(
                parsed,
                JsonValue::Obj(vec![
                    (key.clone(), JsonValue::Str(value)),
                    ("items".into(), JsonValue::Arr(vec![JsonValue::Str(item)])),
                ]),
                "{text:?}"
            );
        }
    }

    #[test]
    fn parser_handles_escapes_and_rejects_garbage() {
        assert_eq!(
            JsonValue::parse(r#""a\"b\\c\ndA😀""#).unwrap(),
            JsonValue::Str("a\"b\\c\ndA😀".to_string())
        );
        assert_eq!(JsonValue::parse("-12.5e1").unwrap(), JsonValue::Num(-125.0));
        assert_eq!(
            JsonValue::parse("[true, false, null]").unwrap(),
            JsonValue::Arr(vec![
                JsonValue::Bool(true),
                JsonValue::Bool(false),
                JsonValue::Null
            ])
        );
        let v = JsonValue::parse(r#"{"a": 1, "a": 2}"#).unwrap();
        assert_eq!(v.get("a"), Some(&JsonValue::Num(1.0)), "first wins");
        assert_eq!(v.get("b"), None);
        for bad in ["{", "[1,]", "\"unterminated", "{} trailing", "nul", "+5"] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn surrogate_pairs_must_be_high_then_low() {
        assert_eq!(
            JsonValue::parse(r#""\uD83D\uDE00""#).unwrap(),
            JsonValue::Str("😀".into())
        );
        // A high surrogate followed by anything but a low one is an
        // error, not an overflow (debug) or a wrong character (release).
        for bad in [
            r#""\uD800\uD800""#,
            r#""\uD800\u0041""#,
            r#""\uD800""#,
            r#""\uDC00""#,
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // A daemon worker's 2 MiB stack, where 9,000 `[` used to abort.
        let err = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| JsonValue::parse(&"[".repeat(1 << 20)).unwrap_err())
            .unwrap()
            .join()
            .unwrap();
        assert!(err.contains("nesting deeper"), "{err}");
        let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(JsonValue::parse(&arrays(MAX_JSON_NESTING)).is_ok());
        assert!(JsonValue::parse(&arrays(MAX_JSON_NESTING + 1)).is_err());
    }
}
