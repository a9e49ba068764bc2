//! The workspace's one JSON module: a strict-subset parser, a typed reader
//! over the parsed value, and a string escaper.
//!
//! Every artefact that crosses a JSON boundary — JSONL event lines, metric
//! snapshots, the tsdb index, sweep cells, the orchestrator's spool files —
//! is read through [`parse`] and the `*_field` accessors on [`JsonValue`],
//! and every free-text string a canonical emitter writes goes through
//! [`escape`], so the workspace needs no serde dependency. There is
//! deliberately no generic *writer*: each emitter is one `format!` template
//! pinned byte-for-byte by a golden file, in three different layouts.
//!
//! Input here is hostile (a feed line, a file on disk): nothing in this
//! module panics, and nesting deeper than [`MAX_DEPTH`] is a parse error
//! rather than unbounded recursion.
//!
//! ```
//! use rideshare_types::json::{escape, parse};
//!
//! let v = parse("{\"schema\":\"demo/1\",\"at\":9223372036854775807,\"row\":[3,\"-7\"]}").unwrap();
//! v.expect_schema("demo/1").unwrap();
//! assert_eq!(v.num_field::<i64>("at"), Ok(i64::MAX));
//! let row = v.field("row").unwrap().row::<2>().unwrap();
//! assert_eq!(row.num_field::<usize>(0), Ok(3));
//! assert_eq!(row.quoted_num_field::<i128>(1), Ok(-7));
//! assert_eq!(v.num_field::<u8>("at").unwrap_err(), "field \"at\" is not a valid u8");
//! assert_eq!(parse(&escape("tab\there")).unwrap().as_str(), Some("tab\there"));
//! ```

use std::any::type_name;
use std::fmt::Write as _;
use std::str::FromStr;

/// Deepest array/object nesting [`parse`] accepts. The deepest format in
/// the workspace nests five levels; the bound exists so a hostile line of
/// 60 000 `[` is a typed error, not a stack overflow.
pub const MAX_DEPTH: usize = 32;

/// A parsed JSON value from [`parse`].
///
/// Numbers are kept as their raw text so 64-bit integers survive exactly
/// (an `f64` intermediate would corrupt timestamps and the metrics
/// crate's i128 fixed-point accumulators above 2^53); the caller parses
/// the text with the precision it needs.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A number, as raw unparsed text.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, JsonValue)>),
    /// The `null` literal (the sweep schema emits it for undefined ratios).
    Null,
    /// A `true`/`false` literal.
    Bool(bool),
}

/// What a typed accessor looks a member up by: an object key (`&str`) or
/// an array index (`usize`). Errors name it as `field "key"` or `cell 3`.
pub trait JsonKey: Copy {
    /// The member of `v` this key selects, if `v` has one.
    fn find(self, v: &JsonValue) -> Option<&JsonValue>;
    /// How error messages name the member.
    fn label(self) -> String;
}

impl JsonKey for &str {
    #[inline]
    fn find(self, v: &JsonValue) -> Option<&JsonValue> {
        v.get(self)
    }

    fn label(self) -> String {
        format!("field {self:?}")
    }
}

impl JsonKey for usize {
    #[inline]
    fn find(self, v: &JsonValue) -> Option<&JsonValue> {
        v.arr()?.get(self)
    }

    fn label(self) -> String {
        format!("cell {self}")
    }
}

impl JsonValue {
    /// Looks up a key of an object.
    #[inline]
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    #[inline]
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as raw number text, if it is a number.
    #[inline]
    #[must_use]
    pub fn num(&self) -> Option<&str> {
        match self {
            JsonValue::Num(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    #[inline]
    #[must_use]
    pub fn arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    // -- The typed reader. Every accessor returns `Err(String)` naming the
    // key or cell, so a caller keeps its own error type with one `map_err`.

    /// The member under `key`.
    ///
    /// # Errors
    ///
    /// `missing field "key"` / `missing cell 3`.
    #[inline]
    pub fn field(&self, key: impl JsonKey) -> Result<&JsonValue, String> {
        key.find(self)
            .ok_or_else(|| format!("missing {}", key.label()))
    }

    /// The string member under `key`.
    ///
    /// # Errors
    ///
    /// Names the key when it is absent or not a string.
    #[inline]
    pub fn str_field(&self, key: impl JsonKey) -> Result<&str, String> {
        self.field(key)?
            .as_str()
            .ok_or_else(|| format!("{} is not a string", key.label()))
    }

    /// The number member under `key`, parsed from its raw text as `T` —
    /// every digit of a 64-bit integer survives, and a value `T` cannot
    /// hold is an error, never a wrap or a rounding.
    ///
    /// # Errors
    ///
    /// Names the key when it is absent, not a number, or not a valid `T`.
    #[inline]
    pub fn num_field<T: FromStr>(&self, key: impl JsonKey) -> Result<T, String> {
        let text = self
            .field(key)?
            .num()
            .ok_or_else(|| format!("{} is not a number", key.label()))?;
        parse_as(text, key)
    }

    /// The *string* member under `key` holding a number (how the canonical
    /// formats carry i128 accumulators, which JSON readers elsewhere would
    /// round), parsed as `T`.
    ///
    /// # Errors
    ///
    /// Names the key when it is absent, not a string, or not a valid `T`.
    #[inline]
    pub fn quoted_num_field<T: FromStr>(&self, key: impl JsonKey) -> Result<T, String> {
        parse_as(self.str_field(key)?, key)
    }

    /// The array member under `key`.
    ///
    /// # Errors
    ///
    /// Names the key when it is absent or not an array.
    #[inline]
    pub fn arr_field(&self, key: impl JsonKey) -> Result<&[JsonValue], String> {
        self.field(key)?
            .arr()
            .ok_or_else(|| format!("{} is not an array", key.label()))
    }

    /// The boolean member under `key`.
    ///
    /// # Errors
    ///
    /// Names the key when it is absent or not `true`/`false`.
    pub fn bool_field(&self, key: impl JsonKey) -> Result<bool, String> {
        self.field(key)?
            .as_bool()
            .ok_or_else(|| format!("{} is not a boolean", key.label()))
    }

    /// The value itself, checked to be an array of exactly `N` cells — a
    /// fixed-arity table row, whose cells the accessors above then read by
    /// index.
    ///
    /// # Errors
    ///
    /// Says what was found instead: not an array, or the cell count.
    #[inline]
    pub fn row<const N: usize>(&self) -> Result<&JsonValue, String> {
        match self.arr() {
            Some(cells) if cells.len() == N => Ok(self),
            Some(cells) => Err(format!("row has {} cells, expected {N}", cells.len())),
            None => Err(format!("row is not an array of {N} cells")),
        }
    }

    /// Checks the object's `"schema"` member equals `tag`.
    ///
    /// # Errors
    ///
    /// `missing field "schema"` when there is no tag, `schema "x",
    /// expected "y"` when there is another.
    pub fn expect_schema(&self, tag: &str) -> Result<(), String> {
        let found = self.str_field("schema")?;
        if found == tag {
            Ok(())
        } else {
            Err(format!("schema {found:?}, expected {tag:?}"))
        }
    }
}

fn parse_as<T: FromStr>(text: &str, key: impl JsonKey) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{} is not a valid {}", key.label(), type_name::<T>()))
}

struct JsonParser<'a> {
    s: &'a str,
    pos: usize,
    depth: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                char::from(c),
                self.pos,
                self.peek().map(char::from)
            ))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(char::from),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.eat(b'{')?;
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
            self.eat(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(char::from)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(char::from)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                self.pos += 1;
            }
            // Both delimiters are ASCII, so the run between them starts
            // and ends on char boundaries of the `&str` input.
            out.push_str(&self.s[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    out.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'u' => self.unicode_escape()?,
                        other => {
                            return Err(format!("unsupported escape '\\{}'", char::from(other)))
                        }
                    });
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    /// The scalar a `\uXXXX` escape denotes, `self.pos` just past the `u`.
    /// A high surrogate must be followed by a `\uXXXX` low surrogate (the
    /// pair is one scalar); any other surrogate is an error.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let at = self.pos;
        let bad = |why: &str| format!("{why} in \\u escape at byte {at}");
        let hi = self.hex4().ok_or_else(|| bad("expected four hex digits"))?;
        let code = match hi {
            0xD800..=0xDBFF => {
                let lo = if self.s[self.pos..].starts_with("\\u") {
                    self.pos += 2;
                    self.hex4()
                } else {
                    None
                };
                match lo {
                    Some(lo @ 0xDC00..=0xDFFF) => 0x1_0000 + ((hi - 0xD800) << 10) + (lo - 0xDC00),
                    _ => return Err(bad("high surrogate without a low surrogate")),
                }
            }
            _ => hi,
        };
        char::from_u32(code).ok_or_else(|| bad("lone low surrogate"))
    }

    /// Reads exactly four hex digits as a number and steps past them.
    fn hex4(&mut self) -> Option<u32> {
        let digits = self.s.get(self.pos..self.pos + 4)?;
        if !digits.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        self.pos += 4;
        u32::from_str_radix(digits, 16).ok()
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("empty number at byte {start}"));
        }
        Ok(JsonValue::Num(self.s[start..self.pos].to_string()))
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.s.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("unexpected literal at byte {}", self.pos))
        }
    }
}

/// Parses a strict subset of JSON (objects, arrays, strings, numbers, and
/// the `null`/`true`/`false` literals) — exactly what the wire, snapshot,
/// and sweep formats emit, nested at most [`MAX_DEPTH`] deep.
///
/// # Errors
///
/// Returns a description of the first syntax error, with its byte offset.
pub fn parse(s: &str) -> Result<JsonValue, String> {
    let mut p = JsonParser {
        s,
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != s.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

/// Escapes `v` as a JSON string literal (quotes included). Complete:
/// quotes, backslashes and every control character are escaped, and
/// [`parse`] reads the result back to exactly `v`.
#[must_use]
pub fn escape(v: &str) -> String {
    let mut s = String::with_capacity(v.len() + 2);
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if c < '\u{20}' => {
                let _ = write!(s, "\\u{:04x}", u32::from(c));
            }
            c => s.push(c),
        }
    }
    s.push('"');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parser_keeps_integer_precision() {
        let v = parse("{\"at\":9223372036854775807}").unwrap();
        assert_eq!(v.get("at").unwrap().num(), Some("9223372036854775807"));
    }

    #[test]
    fn parser_accepts_literals() {
        let v = parse("{\"ratio\": null, \"bound\": true, \"off\": false}").unwrap();
        assert_eq!(v.get("ratio"), Some(&JsonValue::Null));
        assert_eq!(v.get("bound").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("off").unwrap().as_bool(), Some(false));
        assert_ne!(v.get("bound"), Some(&JsonValue::Null));
        assert!(parse("nul").is_err());
        assert!(parse("truthy").is_err());
    }

    #[test]
    fn nesting_is_bounded_not_recursive_to_the_stack() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}")
        );
        // Objects count too, siblings do not.
        let objects = format!(
            "{}1{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&objects).unwrap_err().starts_with("nesting deeper"));
        assert!(parse(&format!("[{}]", "[],".repeat(1000) + "[]")).is_ok());
        // The input that aborted the daemon: unclosed, 60 kB deep.
        assert!(parse(&"[".repeat(60_000)).is_err());
    }

    #[test]
    fn unicode_escapes_decode_or_fail_typed() {
        let s = |text: &str| parse(text).map(|v| v.as_str().map(str::to_string));
        assert_eq!(s("\"\\u0001\\u001f\""), Ok(Some("\u{1}\u{1f}".into())));
        assert_eq!(s("\"\\u00e9\\u20AC\""), Ok(Some("é€".into())));
        assert_eq!(s("\"\\ud83d\\ude00!\""), Ok(Some("😀!".into())));
        for bad in [
            "\"\\u12\"",          // short
            "\"\\u12g4\"",        // not hex
            "\"\\u+123\"",        // a sign is not a hex digit
            "\"\\ud83d\"",        // lone high surrogate
            "\"\\ud83dx\"",       // high surrogate, then no escape
            "\"\\ud83d\\u0041\"", // high surrogate, then a non-surrogate
            "\"\\ude00\"",        // lone low surrogate
            "\"\\u00é9\"",        // multi-byte char inside the digits
            "\"\\u",              // input ends inside the escape
        ] {
            let err = s(bad).expect_err(bad);
            assert!(err.contains("\\u escape at byte"), "{bad}: {err}");
        }
    }

    /// The object every accessor row below reads.
    fn fixture() -> JsonValue {
        parse(
            "{\"schema\":\"demo/1\",\"s\":\"text\",\"n\":300,\"big\":9007199254740993,\
             \"q\":\"-170141183460469231731687303715884105728\",\"a\":[1,\"2\",true],\
             \"b\":false,\"f\":1.5,\"z\":null}",
        )
        .unwrap()
    }

    /// The error of a call that must fail.
    fn err<T>(r: Result<T, String>) -> String {
        r.err().unwrap_or_else(|| "no error".into())
    }

    #[test]
    fn accessors_name_the_key_on_every_failure() {
        let v = fixture();
        let table = [
            // key absent
            (err(v.field("nope")), "missing field \"nope\""),
            (err(v.str_field("nope")), "missing field \"nope\""),
            (err(v.num_field::<u8>("nope")), "missing field \"nope\""),
            (
                err(v.quoted_num_field::<i128>("nope")),
                "missing field \"nope\"",
            ),
            (err(v.arr_field("nope")), "missing field \"nope\""),
            (err(v.bool_field("nope")), "missing field \"nope\""),
            // wrong JSON type
            (err(v.str_field("n")), "field \"n\" is not a string"),
            (err(v.num_field::<u8>("s")), "field \"s\" is not a number"),
            (err(v.num_field::<i128>("q")), "field \"q\" is not a number"),
            (
                err(v.quoted_num_field::<i128>("n")),
                "field \"n\" is not a string",
            ),
            (err(v.arr_field("s")), "field \"s\" is not an array"),
            (err(v.bool_field("z")), "field \"z\" is not a boolean"),
            // number out of range (or of the wrong shape) for T
            (err(v.num_field::<u8>("n")), "field \"n\" is not a valid u8"),
            (
                err(v.num_field::<usize>("f")),
                "field \"f\" is not a valid usize",
            ),
            (
                err(v.quoted_num_field::<i64>("q")),
                "field \"q\" is not a valid i64",
            ),
            (
                err(v.quoted_num_field::<i128>("s")),
                "field \"s\" is not a valid i128",
            ),
        ];
        for (got, want) in table {
            assert_eq!(got, want);
        }
        assert_eq!(v.str_field("s"), Ok("text"));
        assert_eq!(v.num_field::<u16>("n"), Ok(300));
        assert_eq!(v.num_field::<f64>("f"), Ok(1.5));
        assert_eq!(v.bool_field("b"), Ok(false));
        assert_eq!(v.arr_field("a").map(<[JsonValue]>::len), Ok(3));
    }

    #[test]
    fn rows_check_arity_and_name_the_cell() {
        let v = fixture();
        let a = v.field("a").unwrap();
        assert_eq!(err(a.row::<2>()), "row has 3 cells, expected 2");
        assert_eq!(
            err(v.field("s").unwrap().row::<3>()),
            "row is not an array of 3 cells"
        );
        let row = a.row::<3>().unwrap();
        assert_eq!(row.num_field::<usize>(0), Ok(1));
        assert_eq!(row.quoted_num_field::<i128>(1), Ok(2));
        assert_eq!(row.bool_field(2), Ok(true));
        assert_eq!(err(row.num_field::<usize>(1)), "cell 1 is not a number");
        assert_eq!(err(row.str_field(2)), "cell 2 is not a string");
        assert_eq!(err(row.field(3)), "missing cell 3");
        // An index into a non-array is simply absent.
        assert_eq!(err(v.field(0)), "missing cell 0");
    }

    #[test]
    fn schema_check_tells_missing_from_other() {
        let v = fixture();
        assert_eq!(v.expect_schema("demo/1"), Ok(()));
        assert_eq!(
            err(v.expect_schema("demo/2")),
            "schema \"demo/1\", expected \"demo/2\""
        );
        let schema_of = |text: &str| err(parse(text).unwrap().expect_schema("demo/1"));
        assert_eq!(schema_of("{}"), "missing field \"schema\"");
        assert_eq!(schema_of("[1]"), "missing field \"schema\"");
        assert_eq!(
            schema_of("{\"schema\":1}"),
            "field \"schema\" is not a string"
        );
    }

    #[test]
    fn wide_integers_keep_every_digit() {
        let v = fixture();
        // 2^53 + 1: the first integer an f64 intermediate would corrupt.
        assert_eq!(v.num_field::<i64>("big"), Ok(9_007_199_254_740_993));
        assert_eq!(v.num_field::<u64>("big"), Ok(9_007_199_254_740_993));
        assert_eq!(v.quoted_num_field::<i128>("q"), Ok(i128::MIN));
        let max = parse(&format!("[\"{}\",{}]", i128::MAX, u64::MAX)).unwrap();
        assert_eq!(max.quoted_num_field::<i128>(0), Ok(i128::MAX));
        assert_eq!(max.num_field::<u64>(1), Ok(u64::MAX));
        assert!(max.num_field::<i64>(1).is_err());
    }

    #[test]
    fn escaping_is_complete() {
        assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escape("\r\t\u{1}\u{1f} é"), "\"\\r\\t\\u0001\\u001f é\"");
    }

    /// Arbitrary scalars, weighted toward what an escaper gets wrong:
    /// control characters, quotes and backslashes.
    fn arb_char() -> impl Strategy<Value = char> {
        prop_oneof![
            4 => (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap()),
            2 => prop_oneof![Just('"'), Just('\\'), Just('/'), Just('u')],
            3 => (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap()),
            // Surrogates are not scalars; fold them onto U+FFFD.
            3 => (0x80u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}')),
        ]
    }

    proptest! {
        #[test]
        fn parse_inverts_escape(chars in collection::vec(arb_char(), 0..40)) {
            let s: String = chars.into_iter().collect();
            prop_assert_eq!(parse(&escape(&s)), Ok(JsonValue::Str(s)));
        }
    }
}
