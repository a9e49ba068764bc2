//! The workspace's one JSON module: one strict-subset grammar with two
//! readers over it, typed accessors for each, and a string escaper.
//!
//! - **The tree**, [`parse`] into a [`JsonValue`], is for documents:
//!   metric snapshots, the tsdb index, sweep cells, the orchestrator's
//!   spool files. It is owned (keys and number texts are `String`s)
//!   because its readers keep it after the text is gone — a file is read
//!   into a local, parsed, and the tree returned — and read it by key as
//!   often as they like through the `*_field` accessors.
//! - **The member walk**, [`for_each_member`], is for feed lines, which
//!   are read once each, hundreds of thousands a second. It hands over
//!   each member's key and the exact text of its value, syntax checked,
//!   and builds nothing; [`read_str`], [`read_num`] and [`read_row`] then
//!   read the members a caller wants straight from that text, with the
//!   messages of the matching tree accessors. JSONL event lines are read
//!   this way, except a task line in the wire writer's own layout: that
//!   one is read in a forward pass over the layout's literal text, which
//!   takes each number's extent from [`number_span`], the rule the
//!   grammar uses, and its value from [`read_num`].
//!
//! Both readers run the same token readers under the same nesting bound,
//! so a text one refuses the other refuses too, with the same message at
//! the same byte offset. Every free-text string a canonical emitter writes
//! goes through [`escape`], so the workspace needs no serde dependency.
//! There is still deliberately no generic *writer*: each emitter is its
//! own layout pinned byte-for-byte by a golden file or a test oracle. There
//! is one number writer, [`write_f64`], the grammar's number rule run
//! backwards: it writes the bytes of `f64`'s `Display` (the shortest
//! decimal that reads back to the same bits) at a fraction of the cost,
//! and the wire's JSONL and CSV event lines write every float with it.
//!
//! Input here is hostile (a feed line, a file on disk): nothing in this
//! module panics, and nesting deeper than [`MAX_DEPTH`] is a parse error
//! rather than unbounded recursion.
//!
//! ```
//! use rideshare_types::json::{escape, for_each_member, parse, read_num, read_row};
//!
//! let text = "{\"schema\":\"demo/1\",\"at\":9223372036854775807,\"row\":[3,\"-7\"]}";
//! let v = parse(text).unwrap();
//! v.expect_schema("demo/1").unwrap();
//! assert_eq!(v.num_field::<i64>("at"), Ok(i64::MAX));
//! let row = v.field("row").unwrap().row::<2>().unwrap();
//! assert_eq!(row.num_field::<usize>(0), Ok(3));
//! assert_eq!(row.quoted_num_field::<i128>(1), Ok(-7));
//! assert_eq!(v.num_field::<u8>("at").unwrap_err(), "field \"at\" is not a valid u8");
//! assert_eq!(parse(&escape("tab\there")).unwrap().as_str(), Some("tab\there"));
//!
//! // The same text, walked: nothing is built until a member is read.
//! let mut at = None;
//! let mut row = None;
//! for_each_member(text, |key, raw| match key {
//!     "at" => at = Some(raw),
//!     "row" => row = Some(raw),
//!     _ => {}
//! })
//! .unwrap();
//! assert_eq!(read_num::<i64>(at.unwrap(), "at"), Ok(i64::MAX));
//! assert_eq!(read_row::<2>(row.unwrap()), Ok(["3", "\"-7\""]));
//! assert_eq!(read_num::<u8>(at.unwrap(), "at").unwrap_err(), "field \"at\" is not a valid u8");
//! ```

// Hostile bytes reach this file: a panic here is a denial of service,
// so failures are typed errors. Test code may panic (clippy.toml).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::any::type_name;
use std::borrow::Cow;
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
            .ok_or_else(|| not_a(key, "a string"))
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
            .ok_or_else(|| not_a(key, "a number"))?;
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
        self.field(key)?.arr().ok_or_else(|| not_a(key, "an array"))
    }

    /// The boolean member under `key`.
    ///
    /// # Errors
    ///
    /// Names the key when it is absent or not `true`/`false`.
    pub fn bool_field(&self, key: impl JsonKey) -> Result<bool, String> {
        self.field(key)?
            .as_bool()
            .ok_or_else(|| not_a(key, "a boolean"))
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
        check_arity::<N>(self.arr().map(<[JsonValue]>::len)).map(|()| self)
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

// -- The messages both readers' accessors share.

fn not_a(key: impl JsonKey, what: &str) -> String {
    format!("{} is not {what}", key.label())
}

fn parse_as<T: FromStr>(text: &str, key: impl JsonKey) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{} is not a valid {}", key.label(), type_name::<T>()))
}

/// `Ok` when a row of `cells` cells (`None`: not an array) has exactly `N`.
fn check_arity<const N: usize>(cells: Option<usize>) -> Result<(), String> {
    match cells {
        Some(n) if n == N => Ok(()),
        Some(n) => Err(format!("row has {n} cells, expected {N}")),
        None => Err(format!("row is not an array of {N} cells")),
    }
}

/// Whether a value starting with byte `c` is a number.
fn starts_number(c: u8) -> bool {
    c == b'-' || c.is_ascii_digit()
}

/// The longest prefix of `text` made of the bytes a number's text may
/// hold (digits, signs, `.`, `e`, `E`): the extent the grammar gives the
/// number a value starts with. Whether it is a number of some type is left
/// to [`read_num`].
///
/// ```
/// assert_eq!(rideshare_types::json::number_span("-8.6e1],"), "-8.6e1");
/// assert_eq!(rideshare_types::json::number_span(" 1"), "");
/// ```
#[must_use]
pub fn number_span(text: &str) -> &str {
    let len = text
        .bytes()
        .take_while(|&c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        .count();
    // Every byte counted is ASCII, so `len` is a char boundary.
    &text[..len]
}

/// The grammar: one cursor over the text, read into a tree
/// ([`JsonParser::value`]) and by the member walk ([`JsonParser::skip`]
/// for each value) through the same token readers.
struct JsonParser<'a> {
    s: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> JsonParser<'a> {
    fn new(s: &'a str) -> Self {
        Self {
            s,
            pos: 0,
            depth: 0,
        }
    }

    /// The text from byte `start` to the cursor.
    fn since(&self, start: usize) -> &'a str {
        &self.s[start..self.pos]
    }

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

    fn unexpected(&self) -> String {
        format!(
            "unexpected {:?} at byte {}",
            self.peek().map(char::from),
            self.pos
        )
    }

    /// Runs `read` on the array or object at the cursor one nesting level
    /// down, refusing a level past [`MAX_DEPTH`].
    fn nested<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<T, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = read(self);
        self.depth -= 1;
        v
    }

    /// Builds the value at the cursor: the tree reader.
    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(|p| {
                let mut fields = Vec::new();
                p.members(|p, key| {
                    fields.push((key.into_owned(), p.value()?));
                    Ok(())
                })?;
                Ok(JsonValue::Obj(fields))
            }),
            Some(b'[') => self.nested(|p| {
                let mut items = Vec::new();
                p.items(|p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(JsonValue::Arr(items))
            }),
            Some(b'"') => Ok(JsonValue::Str(self.string()?.into_owned())),
            Some(c) if starts_number(c) => Ok(JsonValue::Num(self.number().to_owned())),
            Some(b'n' | b't' | b'f') => {
                Ok(self.literal()?.map_or(JsonValue::Null, JsonValue::Bool))
            }
            _ => Err(self.unexpected()),
        }
    }

    /// Steps over the value at the cursor, checked exactly as [`Self::value`]
    /// checks it, building no tree: how the member walk passes a value.
    fn skip(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(|p| p.members(|p, _| p.skip())),
            Some(b'[') => self.nested(|p| p.items(Self::skip)),
            Some(b'"') => self.string().map(drop),
            Some(c) if starts_number(c) => {
                self.number();
                Ok(())
            }
            Some(b'n' | b't' | b'f') => self.literal().map(drop),
            _ => Err(self.unexpected()),
        }
    }

    /// Reads the object at the cursor. Each key goes to `member` with the
    /// cursor before its value, which `member` must read.
    fn members(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.eat(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
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

    /// Reads the array at the cursor, calling `item` with the cursor before
    /// each cell, which `item` must read.
    fn items(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.eat(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
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

    /// Steps over the value at the cursor and returns its exact text.
    fn raw(&mut self) -> Result<&'a str, String> {
        self.skip_ws();
        let start = self.pos;
        self.skip()?;
        Ok(self.since(start))
    }

    /// Reads the string literal at the cursor, checking every escape. The
    /// text is borrowed unless the literal holds an escape.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.eat(b'"')?;
        let mut out: Option<String> = None;
        loop {
            let start = self.pos;
            while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                self.pos += 1;
            }
            // Both delimiters are ASCII, so the run between them starts
            // and ends on char boundaries of the `&str` input.
            let run = self.since(start);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match out {
                        None => Cow::Borrowed(run),
                        Some(mut out) => {
                            out.push_str(run);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(_) => {
                    let out = out.get_or_insert_with(String::new);
                    out.push_str(run);
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

    /// The number text at the cursor, which [`starts_number`]. Its syntax
    /// is left to whoever parses it as the type it needs.
    fn number(&mut self) -> &'a str {
        let span = number_span(&self.s[self.pos..]);
        self.pos += span.len();
        span
    }

    /// The `null` (`None`), `true` or `false` literal at the cursor.
    fn literal(&mut self) -> Result<Option<bool>, String> {
        let rest = &self.s.as_bytes()[self.pos..];
        for (word, value) in [("null", None), ("true", Some(true)), ("false", Some(false))] {
            if rest.starts_with(word.as_bytes()) {
                self.pos += word.len();
                return Ok(value);
            }
        }
        Err(format!("unexpected literal at byte {}", self.pos))
    }

    /// Checks that only whitespace follows the document.
    fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.s.len() {
            Ok(())
        } else {
            Err(format!("trailing garbage at byte {}", self.pos))
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
    let mut p = JsonParser::new(s);
    let v = p.value()?;
    p.end()?;
    Ok(v)
}

/// Walks the members of the object `text` holds, in order, building
/// nothing: `f` gets each member's key, decoded, and the exact text of its
/// value, whose syntax is already checked. Keys are handed over as written,
/// repeats included. A valid `text` that is not an object has no members,
/// just as [`JsonValue::get`] finds none in it.
///
/// `text` is checked whole, to the same grammar, nesting bound and messages
/// as [`parse`]: the walk succeeds exactly when `parse` does, and then the
/// members it handed over are the tree's, each raw text `parse`-ing to the
/// tree's value for that member. When the walk fails, `f` may already have
/// seen the members before the error.
///
/// # Errors
///
/// The message [`parse`] returns for the same text.
pub fn for_each_member<'a>(text: &'a str, mut f: impl FnMut(&str, &'a str)) -> Result<(), String> {
    let mut p = JsonParser::new(text);
    p.skip_ws();
    if p.peek() == Some(b'{') {
        p.nested(|p| {
            p.members(|p, key| {
                f(&key, p.raw()?);
                Ok(())
            })
        })?;
    } else {
        p.skip()?;
    }
    p.end()
}

/// The string a member's raw text holds (as [`for_each_member`] or
/// [`read_row`] hand it over), decoded — borrowed from `raw` unless the
/// string holds an escape. The walk's twin of [`JsonValue::str_field`].
///
/// # Errors
///
/// `field "key" is not a string` / `cell 3 is not a string`.
pub fn read_str(raw: &str, key: impl JsonKey) -> Result<Cow<'_, str>, String> {
    let mut p = JsonParser::new(raw);
    p.string()
        .ok()
        .filter(|_| p.pos == raw.len())
        .ok_or_else(|| not_a(key, "a string"))
}

/// The number a member's raw text holds (as [`for_each_member`] or
/// [`read_row`] hand it over), parsed as `T`. The walk's twin of
/// [`JsonValue::num_field`]: every digit of a 64-bit integer survives, and
/// a value `T` cannot hold is an error.
///
/// # Errors
///
/// Names the key or cell when the value is not a number, or not a valid `T`.
pub fn read_num<T: FromStr>(raw: &str, key: impl JsonKey) -> Result<T, String> {
    if !raw.bytes().next().is_some_and(starts_number) {
        return Err(not_a(key, "a number"));
    }
    parse_as(raw, key)
}

/// Appends `x` exactly as `format!("{x}")` writes it: the shortest
/// decimal that reads back to the same bits, in fixed notation (`-0`,
/// `NaN` and `inf` included). The write-side twin of the grammar's number
/// rule: every finite value it writes is one [`number_span`] and reads
/// back through [`read_num`] to the same `f64`, bit for bit.
///
/// ```
/// use rideshare_types::json::write_f64;
///
/// let mut line = String::new();
/// for x in [0.1, -0.0, 1e21, 5e-7, f64::MIN_POSITIVE] {
///     write_f64(&mut line, x);
///     line.push(' ');
/// }
/// assert_eq!(line, format!("0.1 -0 {} {} {} ", 1e21, 5e-7, f64::MIN_POSITIVE));
/// ```
pub fn write_f64(out: &mut String, x: f64) {
    if x.is_nan() {
        out.push_str("NaN");
        return;
    }
    if x.is_sign_negative() {
        out.push('-');
    }
    if x.is_infinite() {
        out.push_str("inf");
        return;
    }
    if x == 0.0 {
        out.push('0');
        return;
    }
    let (digits, exp) = crate::ryu::shortest(x.abs().to_bits());
    let len = digits.ilog10() as usize + 1;
    // The digits, after a spare byte that lets the whole part move left
    // of a point. All are ASCII.
    let mut text = [0; 18];
    write_digits(&mut text[1..=len], digits);
    let ascii = |bytes| std::str::from_utf8(bytes).unwrap_or_default();
    // The value is 0.<digits> × 10^point.
    let point = exp + len as i32;
    let lead = point.unsigned_abs() as usize;
    if point <= 0 {
        out.push_str("0.");
        out.extend(std::iter::repeat_n('0', lead));
        out.push_str(ascii(&text[1..=len]));
    } else if lead < len {
        text.copy_within(1..=lead, 0);
        text[lead] = b'.';
        out.push_str(ascii(&text[..=len]));
    } else {
        out.push_str(ascii(&text[1..=len]));
        out.extend(std::iter::repeat_n('0', lead - len));
    }
}

/// `"00" "01" … "99"`: two digits per table read.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Fills `out` with the last `out.len()` decimal digits of `n`.
fn write_digits(out: &mut [u8], mut n: u64) {
    let mut end = out.len();
    while end >= 2 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        out[end - 2..end].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        end -= 2;
    }
    if end == 1 {
        out[0] = b'0' + (n % 10) as u8;
    }
}

/// The `N` cells of the fixed-arity row a member's raw text holds (as
/// [`for_each_member`] hands it over), each as its own raw text for the
/// readers above. The walk's twin of [`JsonValue::row`].
///
/// # Errors
///
/// Says what was found instead: not an array, or the cell count.
pub fn read_row<const N: usize>(raw: &str) -> Result<[&str; N], String> {
    let mut p = JsonParser::new(raw);
    let mut cells = [""; N];
    let mut count = 0;
    let is_array = p.peek() == Some(b'[')
        && p.items(|p| {
            let cell = p.raw()?;
            if let Some(slot) = cells.get_mut(count) {
                *slot = cell;
            }
            count += 1;
            Ok(())
        })
        .is_ok()
        && p.pos == raw.len();
    check_arity::<N>(is_array.then_some(count))?;
    Ok(cells)
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

    #[test]
    fn member_walk_hands_over_each_value_as_written() {
        let bs = '\\';
        let text = format!(
            " {{ \"a\" : [1, {{\"b\":null}}] ,\"k{bs}u0065y\":\"v{bs}n\",\"a\":-0.5e3,\"z\":{{}} }} "
        );
        let mut members = Vec::new();
        for_each_member(&text, |key, raw| members.push((key.to_string(), raw))).unwrap();
        let want = [
            ("a", "[1, {\"b\":null}]"),
            ("key", "\"v\\n\""),
            ("a", "-0.5e3"),
            ("z", "{}"),
        ];
        assert_eq!(members.len(), want.len());
        for ((key, raw), (want_key, want_raw)) in members.iter().zip(want) {
            assert_eq!((key.as_str(), *raw), (want_key, want_raw));
        }
        // Any other valid document has no members; an invalid one fails
        // as `parse` does.
        for text in ["[1,2]", "\"s\"", "7", " null "] {
            assert_eq!(for_each_member(text, |_, _| panic!("{text}")), Ok(()));
        }
        assert_eq!(
            for_each_member("{\"a\":1,}", |_, _| {}),
            Err("expected '\"' at byte 7, found Some('}')".into())
        );
    }

    #[test]
    fn borrowed_readers_borrow_unless_they_must_decode() {
        assert!(matches!(
            read_str("\"plain\"", "k"),
            Ok(Cow::Borrowed("plain"))
        ));
        let escaped = read_str("\"tab\\there\"", "k");
        assert!(matches!(&escaped, Ok(Cow::Owned(s)) if s == "tab\there"));
        assert_eq!(err(read_str("7", "k")), "field \"k\" is not a string");
        assert_eq!(err(read_str("\"open", 2)), "cell 2 is not a string");
        assert_eq!(read_num::<u32>("42", "k"), Ok(42));
        assert_eq!(
            err(read_num::<u32>("[42]", "k")),
            "field \"k\" is not a number"
        );
        assert_eq!(err(read_num::<u32>("-1", 0)), "cell 0 is not a valid u32");
        assert_eq!(read_row::<2>("[ 1 ,[2,3]]"), Ok(["1", "[2,3]"]));
        assert_eq!(err(read_row::<2>("[1,2,3]")), "row has 3 cells, expected 2");
        assert_eq!(err(read_row::<2>("[]")), "row has 0 cells, expected 2");
        assert_eq!(err(read_row::<2>("{}")), "row is not an array of 2 cells");
        assert_eq!(err(read_row::<2>("[1,2")), "row is not an array of 2 cells");
    }

    /// Writes a JSON-ish value drawn from `r`: keys repeat (once through an
    /// escape), strings carry escapes, numbers come in shapes `str::parse`
    /// refuses, and some arrays nest right at the depth bound.
    fn write_doc(r: &mut impl Iterator<Item = u64>, depth: usize, out: &mut String) {
        let n = r.next().unwrap_or(0);
        let u = |hex: &str| format!("{}u{hex}", '\\');
        out.push_str([" ", "", "", "\t", "\r\n"][(n >> 8) as usize % 5]);
        let pick = (n >> 16) as usize;
        match n % 10 {
            0..=2 if depth < 4 => {
                let keys = ["a", "b", "event", "k", &u("0061")];
                out.push('{');
                for i in 0..pick % 5 {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("\"{}\":", keys[(pick >> (3 * i)) % keys.len()]));
                    write_doc(r, depth + 1, out);
                }
                out.push('}');
            }
            3 if depth < 4 => {
                out.push('[');
                for i in 0..pick % 4 {
                    if i > 0 {
                        out.push(',');
                    }
                    write_doc(r, depth + 1, out);
                }
                out.push(']');
            }
            4 => {
                let strings = [
                    "\"a\"".to_string(),
                    "\"\"".into(),
                    format!("\"x{}\"", u("0041")),
                    "\"q\\\"/\\\\\"".into(),
                    "\"é\"".into(),
                    format!("\"{}{}\"", u("d83d"), u("de00")),
                ];
                out.push_str(&strings[pick % strings.len()]);
            }
            5 => {
                let k = MAX_DEPTH - 2 + pick % 4;
                out.push_str(&format!("{}{}", "[".repeat(k), "]".repeat(k)));
            }
            6 => out.push_str(["null", "true", "false"][pick % 3]),
            _ => {
                let numbers = [
                    "0",
                    "-1",
                    "12.5e3",
                    "1e999",
                    "01",
                    "1-2",
                    "-",
                    "4294967296",
                    "0.1",
                    "2",
                ];
                out.push_str(numbers[pick % numbers.len()]);
            }
        }
    }

    /// A document from [`write_doc`] (an object three times in four), then
    /// up to three characters inserted, deleted or replaced.
    fn arb_doc() -> impl Strategy<Value = String> {
        const NOISE: [char; 12] = ['{', '}', '[', ']', ':', ',', '"', '\\', '1', '-', ' ', 'é'];
        (
            collection::vec(any::<u64>(), 64),
            collection::vec((0u8..3, any::<u64>(), 0..NOISE.len()), 0..4),
        )
            .prop_map(|(recipe, edits)| {
                let mut r = recipe.into_iter();
                let top = r.next().unwrap_or(0);
                // `n % 10 == 0` draws an object.
                let top = if top % 4 == 0 { top } else { top - top % 10 };
                let mut doc = String::new();
                write_doc(&mut std::iter::once(top).chain(r), 0, &mut doc);
                let mut chars: Vec<char> = doc.chars().collect();
                for (op, at, noise) in edits {
                    let at = usize::try_from(at % (chars.len() as u64 + 1)).unwrap();
                    match op {
                        0 => chars.insert(at, NOISE[noise]),
                        _ if at == chars.len() => {}
                        1 => drop(chars.remove(at)),
                        _ => chars[at] = NOISE[noise],
                    }
                }
                chars.into_iter().collect()
            })
    }

    /// The walk accepts exactly what `parse` accepts, refuses the rest with
    /// its message, and hands over the tree's members: each raw text parses
    /// to the member's value, and each borrowed reader answers as the tree's
    /// accessor for that member does.
    fn assert_walk_reads_the_tree(doc: &str) {
        let mut members = Vec::new();
        let walked = for_each_member(doc, |key, raw| members.push((key.to_string(), raw)));
        let fields = match parse(doc) {
            Err(e) => return assert_eq!(walked, Err(e), "{doc}"),
            Ok(JsonValue::Obj(fields)) => fields,
            Ok(_) => Vec::new(),
        };
        assert_eq!(walked, Ok(()), "{doc}");
        assert_eq!(members.len(), fields.len(), "{doc}");
        for ((key, raw), (tree_key, value)) in members.into_iter().zip(fields) {
            assert_eq!(key, tree_key, "{doc}");
            assert_eq!(parse(raw).as_ref(), Ok(&value), "{doc}");
            let k = key.as_str();
            let one = JsonValue::Obj(vec![(key.clone(), value)]);
            assert_eq!(
                read_str(raw, k).map(Cow::into_owned),
                one.str_field(k).map(str::to_owned)
            );
            assert_eq!(read_num::<i64>(raw, k), one.num_field::<i64>(k));
            assert_eq!(
                read_num::<f64>(raw, k).map(f64::to_bits),
                one.num_field::<f64>(k).map(f64::to_bits)
            );
            let row = one.field(k).and_then(JsonValue::row::<2>);
            match read_row::<2>(raw) {
                Err(e) => assert_eq!(Err(e), row.map(drop), "{raw}"),
                Ok(cells) => {
                    let row = row.unwrap();
                    for (i, cell) in cells.into_iter().enumerate() {
                        assert_eq!(parse(cell).as_ref().ok(), row.field(i).ok(), "{raw}");
                        assert_eq!(read_num::<u32>(cell, i), row.num_field::<u32>(i));
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn member_walk_reads_what_the_tree_holds(doc in arb_doc()) {
            assert_walk_reads_the_tree(&doc);
        }
    }

    /// `write_f64` against `Display`, byte for byte.
    fn assert_writes_like_display(x: f64) {
        let mut out = String::new();
        write_f64(&mut out, x);
        assert_eq!(out, format!("{x}"), "bits {:#018x}", x.to_bits());
    }

    /// SplitMix64: a seeded stream of bit patterns, every one a valid `f64`.
    fn bit_patterns(mut state: u64) -> impl Iterator<Item = f64> {
        std::iter::from_fn(move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            Some(f64::from_bits(z ^ (z >> 31)))
        })
    }

    #[test]
    fn f64_writer_matches_display_on_random_bit_patterns() {
        bit_patterns(50)
            .take(1_000_000)
            .for_each(assert_writes_like_display);
    }

    #[test]
    #[ignore = "heavy: 100M bit patterns, release only"]
    fn f64_writer_matches_display_on_100m_bit_patterns() {
        bit_patterns(0x5eed)
            .take(100_000_000)
            .for_each(assert_writes_like_display);
    }

    #[test]
    fn f64_writer_matches_display_on_the_edges() {
        let named = [
            0.0,
            -0.0,
            5e-324,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE - 5e-324,
            f64::MAX,
            f64::EPSILON,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.1,
            1.0 / 3.0,
            2f64.powi(53) + 2.0,
        ];
        // Powers of ten from 1e-324 (which reads as 0) to 1e308, each with
        // its neighbours one ulp either side, and both signs.
        let decades = (-324..=308).flat_map(|e: i32| {
            let x: f64 = format!("1e{e}").parse().unwrap();
            [x.next_down(), x, x.next_up()]
        });
        // Every power of two, and small integers and short decimals.
        let binades = (-1074..=1023).map(|e| 2f64.powi(e));
        let short = (0..=2000).flat_map(|n| [f64::from(n), f64::from(n) / 1000.0]);
        for x in named.into_iter().chain(decades).chain(binades).chain(short) {
            assert_writes_like_display(x);
            assert_writes_like_display(-x);
        }
    }

    #[test]
    fn f64_writer_rounds_a_tie_up() {
        // 1658206780088562.25 is exact; .2 and .3 are equally near and both
        // read back to it. Ryū's reference prints .2 (to even).
        let tie = f64::from_bits(0x4317_9085_685d_83c9);
        let mut out = String::new();
        write_f64(&mut out, tie);
        assert_eq!(out, "1658206780088562.3");
        // Every n + 1/4 and n + 3/4 in [2^50, 2^51) is such a tie; so are
        // the subnormals, whose exact decimals end in ...5.
        let ties = (0..20_000u64).map(|k| {
            let n = 2f64.powi(50) + (k * 56_294_995_342) as f64;
            n + if k % 2 == 0 { 0.25 } else { 0.75 }
        });
        let subnormals = (1..20_000u64).map(f64::from_bits);
        ties.chain(subnormals).for_each(assert_writes_like_display);
    }
}
