//! A minimal JSON encoder/decoder shared across the workspace.
//!
//! The workspace must build with an empty registry, so there is no serde;
//! the bench files, the `dram-serve` request/response bodies and the
//! load generator all go through this one module instead of each
//! carrying a private escaper.
//!
//! The decoder is a strict recursive-descent parser over the full JSON
//! grammar (RFC 8259): objects, arrays, strings with `\uXXXX` escapes
//! (including surrogate pairs), numbers, booleans and `null`. Object
//! members keep their source order, so a parse → write round trip is
//! deterministic.
//!
//! The writers put numbers into text without `fmt`, byte for byte as
//! `{}` prints them ([`write_f64`]): an integer below 2^53 as its
//! digits, and any other value as the shortest digits that read back as
//! it, from an in-tree Ryū kernel, never with an exponent. Of two
//! shortest candidates exactly as near, the one farther from zero is
//! written, as `{}` writes it: `2^49 + 0.25` is `562949953421312.3`.
//!
//! ```
//! use dram_units::json::Value;
//!
//! let v = Value::parse(r#"{"preset": "ddr3", "variation": 0.2}"#).unwrap();
//! assert_eq!(v.get("preset").and_then(Value::as_str), Some("ddr3"));
//! assert_eq!(v.get("variation").and_then(Value::as_f64), Some(0.2));
//! assert_eq!(v.to_string(), r#"{"preset":"ddr3","variation":0.2}"#);
//! ```

use std::fmt;

/// Maximum nesting depth the parser accepts. Deep enough for any real
/// payload, shallow enough that hostile input cannot blow the stack.
const MAX_DEPTH: usize = 64;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; members keep their source/insertion order.
    Obj(Vec<(String, Value)>),
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// Human-readable description of what went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Value {
    /// Parses a complete JSON document. Trailing non-whitespace is an
    /// error, as is nesting deeper than an internal safety limit.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with the byte offset of the first problem.
    pub fn parse(input: &str) -> Result<Value, JsonError> {
        Parser::new(input).document()
    }

    /// Object member lookup (first match). `None` on non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(members) => Some(members),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    /// Writes compact JSON (no whitespace). Non-finite numbers — which
    /// JSON cannot represent — serialize as `null`. The document is
    /// rendered into one `String` by the text writers and handed to `f`
    /// whole.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::with_capacity(self.written_len());
        self.write_to(&mut out);
        f.write_str(&out)
    }
}

impl Value {
    /// About the length [`fmt::Display`] writes, to size its buffer
    /// once: a number counts 24 bytes, and a string a sixteenth more
    /// than its text for escapes, one a line in a description.
    fn written_len(&self) -> usize {
        match self {
            Value::Null | Value::Bool(_) => 5,
            Value::Num(_) => 24,
            Value::Str(s) => s.len() + s.len() / 16 + 2,
            Value::Arr(items) => 1 + items.iter().map(|v| v.written_len() + 1).sum::<usize>(),
            Value::Obj(members) => {
                1 + members
                    .iter()
                    .map(|(k, v)| k.len() + 4 + v.written_len())
                    .sum::<usize>()
            }
        }
    }

    /// Appends the document to `out` as [`fmt::Display`] writes it.
    fn write_to(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_number(out, *n),
            Value::Str(s) => write_string(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_to(out);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write_to(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Num(n)
    }
}

impl From<u64> for Value {
    #[allow(clippy::cast_precision_loss)]
    fn from(n: u64) -> Self {
        Value::Num(n as f64)
    }
}

impl From<usize> for Value {
    #[allow(clippy::cast_precision_loss)]
    fn from(n: usize) -> Self {
        Value::Num(n as f64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Self {
        Value::Arr(items)
    }
}

/// Appends `s` to `out` as a JSON string literal, quotes included,
/// exactly as `Value::Str(s)` writes it, for writers that put a document
/// together as text.
///
/// This is the one escaper of the workspace: the [`Value`] writer, the
/// server's error bodies and its `/v1/evaluate` replies are written
/// through it. Runs that need no escape are found eight bytes at a time
/// by `run_end`, the reader's scan, and written whole; every byte that
/// ends one is ASCII, so each run ends on a character boundary.
pub fn write_string(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let bytes = s.as_bytes();
    let mut run = 0;
    loop {
        let end = run_end(bytes, run);
        out.push_str(&s[run..end]);
        let Some(&b) = bytes.get(end) else { break };
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            // Any other stop is a control byte, below 0x20.
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 15)]));
            }
        }
        run = end + 1;
    }
    out.push('"');
}

/// Appends `n` to `out` exactly as `Value::Num(n)` writes it: as
/// [`write_f64`] does, or `null` when `n` is not finite, which JSON
/// cannot represent.
pub fn write_number(out: &mut String, n: f64) {
    if n.is_finite() {
        write_f64(out, n);
    } else {
        out.push_str("null");
    }
}

/// Appends `n` to `out` exactly as `format!("{n}")` writes it, `NaN` and
/// `inf` included, for text that is not JSON, such as a written
/// description.
///
/// An integer of magnitude below 2^53 is exact and written as its
/// digits. Any other finite value is written as the shortest digits that
/// read back as it, from the in-tree Ryū kernel, laid out as `{}` lays
/// them out: never with an exponent, with zeros to the point or after
/// it as the digits need.
pub fn write_f64(out: &mut String, n: f64) {
    const EXACT: f64 = 9_007_199_254_740_992.0;
    if n.is_nan() {
        out.push_str("NaN");
        return;
    }
    if n.is_sign_negative() {
        out.push('-');
    }
    let n = n.abs();
    if n.is_infinite() {
        out.push_str("inf");
        return;
    }
    // The text is put together at the end of `buf`, which starts as
    // zeros: 17 digits, a point and up to 20 zeros after it fit.
    let mut buf = [b'0'; 40];
    // Below 2^53 the cast truncates exactly, so an integral `n` comes
    // back from it.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let whole = n as u64;
    #[allow(clippy::cast_precision_loss)]
    let (start, zeros) = if n < EXACT && whole as f64 == n {
        (digits(&mut buf, whole), 0)
    } else {
        let bits = n.to_bits();
        // The exponent field is 11 bits wide, and the sign bit is clear.
        #[allow(clippy::cast_possible_truncation)]
        let (significand, exponent) =
            shortest::shortest(bits & ((1 << 52) - 1), (bits >> 52) as u32);
        let start = digits(&mut buf, significand);
        // Digits before the point; zeros follow the point first when
        // it is negative.
        #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
        let point = (buf.len() - start) as i32 + exponent;
        match (exponent, point) {
            // 2^53 or more: the digits, then zeros to the point.
            (0.., _) => (start, exponent.unsigned_abs()),
            (_, 1..) => {
                // The whole digits move one left to open the point.
                let point = start + point.unsigned_abs() as usize;
                buf.copy_within(start..point, start - 1);
                buf[point - 1] = b'.';
                (start - 1, 0)
            }
            (_, -20..) => {
                // `0.`, then the zeros `buf` already holds.
                let start = start - point.unsigned_abs() as usize - 2;
                buf[start + 1] = b'.';
                (start, 0)
            }
            _ => {
                // More zeros after the point than `buf` holds: rare.
                out.push_str("0.");
                push_zeros(out, point.unsigned_abs());
                (start, 0)
            }
        }
    };
    // SAFETY: `buf` holds ASCII only, so its bytes are UTF-8: it starts
    // as `b'0'`, `digits` writes ASCII digits, and the only other byte
    // written to it is the point `b'.'`.
    out.push_str(unsafe { std::str::from_utf8_unchecked(&buf[start..]) });
    push_zeros(out, zeros);
}

/// Two ASCII digits for each number below 100.
const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Writes the decimal digits of `n`, ASCII, to the end of `buf` and
/// returns where they start. Groups of eight digits are split off
/// first, and each group is split into pairs apart from the others.
fn digits(buf: &mut [u8], mut n: u64) -> usize {
    let pair = |k: u32| {
        let k = 2 * k as usize;
        [PAIRS[k], PAIRS[k + 1]]
    };
    let mut start = buf.len();
    while n >= 100_000_000 {
        // A remainder below 10^8 fits in 32 bits.
        #[allow(clippy::cast_possible_truncation)]
        let group = (n % 100_000_000) as u32;
        n /= 100_000_000;
        let (high, low) = (group / 10_000, group % 10_000);
        start -= 8;
        buf[start..start + 2].copy_from_slice(&pair(high / 100));
        buf[start + 2..start + 4].copy_from_slice(&pair(high % 100));
        buf[start + 4..start + 6].copy_from_slice(&pair(low / 100));
        buf[start + 6..start + 8].copy_from_slice(&pair(low % 100));
    }
    // Below 10^8 now.
    #[allow(clippy::cast_possible_truncation)]
    let mut n = n as u32;
    while n >= 10 {
        start -= 2;
        buf[start..start + 2].copy_from_slice(&pair(n % 100));
        n /= 100;
    }
    // A last single digit, or the one digit of zero.
    if n > 0 || start == buf.len() {
        start -= 1;
        // Below 10, so one ASCII digit.
        #[allow(clippy::cast_possible_truncation)]
        let digit = n as u8;
        buf[start] = b'0' + digit;
    }
    start
}

/// Appends `count` zeros.
fn push_zeros(out: &mut String, mut count: u32) {
    const ZEROS: &str = "0000000000000000000000000000000000000000000000000000000000000000";
    while count > 0 {
        let run = count.min(64);
        out.push_str(&ZEROS[..run as usize]);
        count -= run;
    }
}

/// The byte loop [`write_string`]'s run scan replaced, kept as its
/// reference.
#[cfg(test)]
fn write_escaped_reference(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.write_str(&s[run..i])?;
        run = i + 1;
        match b {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\t' => out.write_str("\\t")?,
            b'\r' => out.write_str("\\r")?,
            _ => write!(out, "\\u{b:04x}")?,
        }
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Strings decode through [`Parser::string_reference`], for the
    /// differential fuzz.
    #[cfg(test)]
    reference: bool,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            #[cfg(test)]
            reference: false,
        }
    }

    /// The whole text as one document: trailing non-whitespace is an
    /// error.
    fn document(mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        let v = self.value(0)?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after document"));
        }
        Ok(v)
    }

    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            members.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: `0` alone or a nonzero digit run.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected digit after `.`"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected digit in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err(format!("unparseable number `{text}`")))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        #[cfg(test)]
        if self.reference {
            return self.string_reference();
        }
        self.expect(b'"')?;
        // The text up to the next `"` bounds the decoded length: escapes
        // only shrink. An escaped quote before the closing one makes the
        // bound short, and the string grows past it.
        let bound = self.text[self.pos..].find('"').unwrap_or(0);
        let mut out = String::with_capacity(bound);
        loop {
            // A run of plain bytes, copied whole. It ends at an ASCII
            // byte or at the end of the text, so it is whole UTF-8
            // scalars of the (str-backed) input, already validated.
            let start = self.pos;
            self.pos = run_end(self.bytes, start);
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => self.escape(&mut out)?,
                Some(_) => return Err(self.err("unescaped control character")),
            }
        }
    }

    /// Decodes the escape at `pos` (a `\`) onto `out`, leaving `pos`
    /// past it.
    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
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
                let hi = self.hex4()?;
                let c = if (0xD800..0xDC00).contains(&hi) {
                    // High surrogate: a `\uXXXX` low surrogate must follow.
                    if self.peek() != Some(b'\\') {
                        return Err(self.err("unpaired surrogate"));
                    }
                    self.pos += 1;
                    if self.peek() != Some(b'u') {
                        return Err(self.err("unpaired surrogate"));
                    }
                    self.pos += 1;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(cp).ok_or_else(|| self.err("invalid surrogate pair"))?
                } else {
                    char::from_u32(hi).ok_or_else(|| self.err("invalid code point"))?
                };
                // hex4 leaves pos past the digits.
                out.push(c);
                return Ok(());
            }
            _ => return Err(self.err("invalid escape")),
        };
        out.push(c);
        self.pos += 1;
        Ok(())
    }

    /// The decoder [`Parser::string`] replaced, kept as its reference.
    #[cfg(test)]
    fn string_reference(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // High surrogate: a `\uXXXX` low surrogate
                                // must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid code point"))?
                            };
                            out.push(c);
                            // hex4 leaves pos past the digits; skip the
                            // shared `pos += 1` below.
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(self.err("unescaped control character"));
                }
                Some(_) => {
                    // Copy the whole run up to the next quote, escape or
                    // control byte. Those are ASCII, so in the (valid,
                    // str-backed) input the run is whole UTF-8 scalars,
                    // and each byte is validated once.
                    let start = self.pos;
                    while matches!(self.peek(), Some(b) if b >= 0x20 && b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    /// Reads four ASCII hex digits, returning the code unit and leaving
    /// `pos` just past them. A sign is not a digit: `\u+12a` is refused.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let mut v = 0;
        for &b in &self.bytes[self.pos..end] {
            let digit = char::from(b)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            v = v * 16 + digit;
        }
        self.pos = end;
        Ok(v)
    }
}

/// Where the run of plain string bytes from `i` ends: at the first `"`,
/// `\` or control byte, or at the end of `bytes`.
///
/// Eight bytes are tested at a time. For a byte `b` and a bound `c` of at
/// most 0x80, the high bit of `(b - c) & !b` is set exactly when `b < c`:
/// `c` is 0x20 for control bytes, and 1 for a `"` or `\` once XOR has
/// turned it to 0. In the whole word a byte that borrows also sets bits
/// in the bytes above it, so only the lowest set bit is exact; it is the
/// first byte that ends the run.
fn run_end(bytes: &[u8], mut i: usize) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    while let Some(chunk) = bytes.get(i..i + 8) {
        let x = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        let quote = x ^ (ONES * u64::from(b'"'));
        let backslash = x ^ (ONES * u64::from(b'\\'));
        let stops = (x.wrapping_sub(ONES * 0x20) & !x
            | quote.wrapping_sub(ONES) & !quote
            | backslash.wrapping_sub(ONES) & !backslash)
            & HIGH;
        if stops != 0 {
            return i + (stops.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while matches!(bytes.get(i), Some(&b) if b >= 0x20 && b != b'"' && b != b'\\') {
        i += 1;
    }
    i
}

/// Convenience: builds an object value from key/value pairs.
#[must_use]
pub fn obj(members: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod fuzz;
mod shortest;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse("true").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse(" false ").unwrap(), Value::Bool(false));
        assert_eq!(Value::parse("42").unwrap(), Value::Num(42.0));
        assert_eq!(Value::parse("-0.5e2").unwrap(), Value::Num(-50.0));
        assert_eq!(
            Value::parse(r#""hi\nthere""#).unwrap(),
            Value::Str("hi\nthere".into())
        );
    }

    #[test]
    fn parses_nested_structures_in_order() {
        let v = Value::parse(r#"{"b": [1, {"x": null}], "a": "s"}"#).unwrap();
        let members = v.as_object().unwrap();
        assert_eq!(members[0].0, "b");
        assert_eq!(members[1].0, "a");
        let arr = v.get("b").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].get("x"), Some(&Value::Null));
    }

    #[test]
    fn parses_unicode_escapes() {
        assert_eq!(
            Value::parse(r#""\u00e9\uD83D\uDE00""#).unwrap(),
            Value::Str("é😀".into())
        );
        assert!(Value::parse(r#""\uD83D""#).is_err(), "unpaired surrogate");
        assert!(Value::parse(r#""\uZZZZ""#).is_err());
    }

    /// Plain runs between escapes are copied whole, multi-byte scalars
    /// included, and a raw control byte is reported at its own offset.
    #[test]
    fn string_runs_keep_scalars_and_control_offsets() {
        let long = "dram é😀 ".repeat(4096);
        let doc = format!(r#"{{"text":"{long}\n{long}"}}"#);
        let v = Value::parse(&doc).unwrap();
        let text = v.get("text").and_then(Value::as_str);
        assert_eq!(text, Some(format!("{long}\n{long}").as_str()));
        let err = Value::parse("\"ab\u{1}c\"").unwrap_err();
        assert_eq!(err.offset, 3);
        assert_eq!(err.message, "unescaped control character");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            r#"{"a": 1"#,
            "[1, 2",
            "[1,]",
            r#"{"a" 1}"#,
            "01",
            "1.",
            "1e",
            "nul",
            "\"abc",
            "{} extra",
            "1 2",
        ] {
            assert!(Value::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_excessive_nesting() {
        let deep = "[".repeat(80) + &"]".repeat(80);
        assert!(Value::parse(&deep).is_err());
        let ok = "[".repeat(20) + &"]".repeat(20);
        assert!(Value::parse(&ok).is_ok());
    }

    #[test]
    fn writer_roundtrips() {
        let text = r#"{"name":"x\"y","n":1.5,"flags":[true,false,null],"o":{}}"#;
        let v = Value::parse(text).unwrap();
        assert_eq!(v.to_string(), text);
        assert_eq!(Value::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn escape_matches_legacy_bench_escaper() {
        let escape = |s: &str| {
            let mut out = String::new();
            write_string(&mut out, s);
            out
        };
        assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
        assert_eq!(escape("plain"), "\"plain\"");
    }

    /// The exact bytes of a document with every escape class, non-ASCII
    /// text, nesting and the awkward numbers: the writer's output format.
    #[test]
    fn writer_pins_exact_bytes() {
        let doc = obj(vec![
            (
                "key \"q\" \\ \u{1f}",
                "line\nfeed\ttab\rcr\u{1f}unit \"q\" \\".into(),
            ),
            ("text", "Grüße, 東京 😀".into()),
            (
                "nested",
                vec![
                    Value::Null,
                    true.into(),
                    vec![obj(vec![("k", Value::Arr(vec![]))]), obj(vec![])].into(),
                ]
                .into(),
            ),
            (
                "numbers",
                vec![
                    (-0.0).into(),
                    1e21.into(),
                    5e-324.into(),
                    f64::NAN.into(),
                    (-1.5).into(),
                ]
                .into(),
            ),
        ]);
        let want = format!(
            "{}{}{}",
            r#"{"key \"q\" \\ \u001f":"line\nfeed\ttab\rcr\u001funit \"q\" \\","#,
            r#""text":"Grüße, 東京 😀","nested":[null,true,[{"k":[]},{}]],"#,
            format_args!(
                r#""numbers":[-0,1000000000000000000000,0.{}5,null,-1.5]}}"#,
                "0".repeat(323)
            ),
        );
        assert_eq!(doc.to_string(), want);
    }

    #[test]
    fn non_finite_numbers_write_as_null() {
        assert_eq!(Value::Num(f64::NAN).to_string(), "null");
        assert_eq!(Value::Num(f64::INFINITY).to_string(), "null");
    }

    /// `write_f64` writes what `{}` writes: signed zeros, subnormals,
    /// the integers about 2^53 and every power of ten to 1e16 with its
    /// neighbours, non-finite values, every power of two and of ten with
    /// the values one ulp either side, the exact ties between two
    /// shortest candidates, then a million seeded bit patterns.
    #[test]
    fn write_f64_matches_display() {
        let check = |x: f64| {
            let mut out = String::new();
            write_f64(&mut out, x);
            assert_eq!(out, format!("{x}"), "{:#018x}", x.to_bits());
        };
        // A tie goes away from zero, not to the even digit.
        let tie = 2f64.powi(49) + 0.25;
        check(tie);
        assert_eq!(format!("{tie}"), "562949953421312.3");
        let two53 = 9_007_199_254_740_992.0_f64;
        let mut fixed = vec![
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            f64::MAX,
            f64::MIN,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            i64::MAX as f64,
            i64::MIN as f64,
            0.5,
            -0.5,
            0.1 + 0.2,
        ];
        for d in [-2.0, -1.0, 0.0, 1.0, 2.0] {
            fixed.extend([two53 + d, -(two53 + d)]);
        }
        let mut ten = 1.0_f64;
        for _ in 0..=16 {
            fixed.extend([ten - 1.0, ten, ten + 1.0, -ten, 0.5 * ten, ten / 3.0]);
            ten *= 10.0;
        }
        fixed.into_iter().for_each(check);
        // At a power of two the gap below is half the gap above, so its
        // rounding interval is lopsided; 2^-1022 is the one whose gaps
        // are equal.
        let powers_of_two = (-1074..=1023).map(|e: i32| {
            f64::from_bits(match u32::try_from(e + 1074) {
                Ok(shift) if shift < 52 => 1 << shift,
                _ => u64::try_from(e + 1023).expect("a normal exponent") << 52,
            })
        });
        let powers_of_ten = (-323..=308).map(|k| format!("1e{k}").parse::<f64>().expect("a power"));
        for x in powers_of_two.chain(powers_of_ten) {
            for y in [x.next_down(), x, x.next_up()] {
                check(y);
                check(-y);
            }
        }
        // Exact ties: in [2^49, 2^50) a value k + n/8 and in [2^50, 2^51)
        // a value k + n/4 whose shortest digits end in .25 or .75 lies
        // halfway between two candidates.
        let mut ties = crate::rng::SplitMix64::new(0x71E5);
        for (low, steps) in [(1u64 << 49, 8u32), (1u64 << 50, 4)] {
            for k in [low, 2 * low - 1]
                .into_iter()
                .chain((0..2_000).map(|_| low + ties.next_u64() % low))
            {
                for n in 0..steps {
                    check(k as f64 + f64::from(n) / f64::from(steps));
                }
            }
        }
        let mut rng = crate::rng::SplitMix64::new(0xF64D_1591);
        for _ in 0..10_000 {
            check((rng.next_u64() % 10_000_000_000_000_001) as f64);
        }
        for _ in 0..1_000_000 {
            check(f64::from_bits(rng.next_u64()));
        }
    }

    /// The escaper gives the byte loop's text: seeded strings of up to
    /// 64 bytes that put each escape class, a plain byte and multi-byte
    /// characters at every offset mod 8, text of description size and
    /// the two shipped description files.
    #[test]
    fn write_escaped_matches_the_byte_loop() {
        let check = |s: &str| {
            let (mut got, mut want) = (String::new(), String::new());
            write_string(&mut got, s);
            write_escaped_reference(&mut want, s).expect("a String");
            assert_eq!(got, want, "{s:?}");
        };
        const PIECES: [&str; 12] = [
            "\"", "\\", "\n", "\t", "\r", "\u{0}", "\u{1f}", "\u{7f}", "a", "é", "東", "😀",
        ];
        let mut rng = crate::rng::SplitMix64::new(0xE5CA_9E00);
        for len in 0..=64 {
            for piece in PIECES {
                for offset in 0..8 {
                    let mut s = "x".repeat(offset);
                    while s.len() < len {
                        s.push_str(if rng.range_usize(4) == 0 {
                            piece
                        } else {
                            PIECES[rng.range_usize(PIECES.len())]
                        });
                        if rng.range_usize(3) == 0 {
                            s.push_str(&"y".repeat(rng.range_usize(12)));
                        }
                    }
                    check(&s);
                    check(&format!("{s}{piece}"));
                }
            }
        }
        check("");
        let text = "Signal DataW class=wdata wires=io toggle=0.5\n".repeat(100);
        check(&format!("# {text}Device name=\"ddr3 \\ x16\"\n{text}"));
        for shipped in [
            include_str!("../../dsl/descriptions/ddr3_1gb_x16_55nm.dram"),
            include_str!("../../dsl/descriptions/ddr5_16gb_x16_18nm.dram"),
        ] {
            check(shipped);
        }
    }

    #[test]
    fn text_writers_match_the_value_writer() {
        let mut out = String::new();
        for n in [
            0.0,
            -0.0,
            1e21,
            5e-324,
            -1.5,
            0.1 + 0.2,
            f64::NAN,
            f64::NEG_INFINITY,
        ] {
            out.clear();
            write_number(&mut out, n);
            assert_eq!(out, Value::Num(n).to_string(), "{n:?}");
        }
        for s in ["", "plain", "q\"b\\s\u{1}\n\t\r", "Grüße, 東京 😀"] {
            out.clear();
            write_string(&mut out, s);
            assert_eq!(out, Value::from(s).to_string(), "{s:?}");
        }
    }

    #[test]
    fn from_impls_build_values() {
        let v = obj(vec![
            ("b", true.into()),
            ("n", 3usize.into()),
            ("s", "str".into()),
            ("a", vec![Value::Null].into()),
        ]);
        assert_eq!(v.to_string(), r#"{"b":true,"n":3,"s":"str","a":[null]}"#);
    }
}
