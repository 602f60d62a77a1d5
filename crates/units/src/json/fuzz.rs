//! Seeded fuzz of the JSON decoder. No input, however mangled, may panic
//! it, and each class of mangling asserts the exact verdict:
//!
//! - truncations of generated documents fail at the byte and with the
//!   message the grammar predicts for where the cut fell;
//! - bad escapes, lone and reversed surrogates and raw control bytes
//!   fail at their own byte with their own message;
//! - nesting past the depth limit fails where the first value too deep
//!   starts, and nesting at the limit parses;
//! - numbers past the range of `f64` parse to infinities (which write
//!   back as `null`), not to errors;
//! - bit flips, whose verdict no short rule predicts, give exactly what
//!   the decoder gave before its string reader was rewritten: the
//!   differential arm, which also pins [`Parser::string`] to
//!   [`Parser::string_reference`] on random string literals.
//!
//! Inputs come from a fixed-seed [`SplitMix64`], one stream per class,
//! so a failure reproduces by re-running the test, and every assertion
//! message carries its input.

use super::{obj, write_string, JsonError, Parser, Value, MAX_DEPTH};
use crate::rng::SplitMix64;

const FUZZ_SEED: u64 = 0x150A_F022;

/// Generated documents per class.
const DOCUMENTS: usize = 60;
const BIT_FLIPS: usize = 2_000;
const STRING_LITERALS: usize = 6_000;
const ESCAPE_CASES: usize = 400;

/// An independent random stream per class: adding a class never shifts
/// the cases another sees.
fn stream(class: &str) -> SplitMix64 {
    let mut salt: u64 = 0xcbf2_9ce4_8422_2325;
    for b in class.as_bytes() {
        salt ^= u64::from(*b);
        salt = salt.wrapping_mul(0x0000_0100_0000_01b3);
    }
    SplitMix64::new(FUZZ_SEED ^ salt)
}

fn at(offset: usize, message: &str) -> JsonError {
    JsonError {
        offset,
        message: message.to_string(),
    }
}

/// [`Value::parse`], failing the test with the input attached if the
/// decoder unwinds.
fn parse(class: &str, input: &str) -> Result<Value, JsonError> {
    std::panic::catch_unwind(|| Value::parse(input))
        .unwrap_or_else(|_| panic!("decoder panicked on a {class} case; input: {input:?}"))
}

/// The whole decoder with strings read by [`Parser::string_reference`].
fn parse_reference(input: &str) -> Result<Value, JsonError> {
    Parser {
        reference: true,
        ..Parser::new(input)
    }
    .document()
}

/// A character for generated strings: mostly plain ASCII, and every
/// character the writer escapes or passes through raw.
fn any_char(r: &mut SplitMix64) -> char {
    match r.range_u32(10) {
        0 => *r.pick(&[
            '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{1f}', '\u{8}', '\u{c}',
        ]),
        1 => *r.pick(&['é', 'µ', '東', '😀', '\u{7f}', '\u{a0}', '\u{2028}']),
        _ => (0x20 + r.range_u32(0x5f) as u8) as char,
    }
}

fn any_string(r: &mut SplitMix64, max_len: usize) -> String {
    let len = r.range_usize(max_len + 1);
    (0..len).map(|_| any_char(r)).collect()
}

/// A finite number whose shortest text takes every form the writer
/// prints: integers, fractions, huge and tiny magnitudes, negative zero.
fn any_number(r: &mut SplitMix64) -> f64 {
    match r.range_u32(5) {
        0 => f64::from(r.range_u32(1000)) - 500.0,
        1 => r.range_f64(-1.0, 1.0),
        2 => -0.0,
        _ => {
            let v = f64::from_bits(r.next_u64());
            if v.is_finite() {
                v
            } else {
                1.5e300
            }
        }
    }
}

/// A random document of nesting depth at most `depth`.
fn any_value(r: &mut SplitMix64, depth: usize) -> Value {
    match r.range_u32(if depth == 0 { 4 } else { 6 }) {
        0 => r
            .pick(&[Value::Null, Value::Bool(true), Value::Bool(false)])
            .clone(),
        1 => Value::Num(any_number(r)),
        2 | 3 => Value::Str(any_string(r, 40)),
        4 => Value::Arr(
            (0..r.range_usize(4))
                .map(|_| any_value(r, depth - 1))
                .collect(),
        ),
        _ => Value::Obj(
            (0..r.range_usize(4))
                .map(|_| (any_string(r, 8), any_value(r, depth - 1)))
                .collect(),
        ),
    }
}

/// A generated object document, with a request-like member first.
fn any_document(r: &mut SplitMix64) -> Value {
    let mut members = vec![("description".to_string(), Value::Str(any_string(r, 300)))];
    if let Value::Obj(more) = any_value(r, 4) {
        members.extend(more);
    }
    Value::Obj(members)
}

/// A document's compact text, with the error each prefix of it gives:
/// `cuts[k]` is the verdict on `text[..k]`, `None` where `k` splits a
/// character.
struct Cuts {
    text: String,
    cuts: Vec<Option<JsonError>>,
}

impl Cuts {
    fn of(doc: &Value) -> Self {
        let mut c = Cuts {
            text: String::new(),
            cuts: vec![Some(at(0, "unexpected end of input"))],
        };
        c.value(doc, "the document is whole");
        assert_eq!(
            c.text,
            doc.to_string(),
            "the model writes what the writer does"
        );
        c
    }

    /// Appends `piece`; a cut right after it fails with `message` at
    /// `offset`, or at the new end when `offset` is `None`.
    fn push(&mut self, piece: &str, offset: Option<usize>, message: &str) {
        self.text.push_str(piece);
        self.cuts.resize(self.text.len(), None);
        self.cuts
            .push(Some(at(offset.unwrap_or(self.text.len()), message)));
    }

    /// Appends `v`; a cut after the whole of it fails with `after`, what
    /// its container expects next.
    fn value(&mut self, v: &Value, after: &str) {
        let start = self.text.len();
        match v {
            Value::Null | Value::Bool(_) => {
                let word = v.to_string();
                let (head, last) = word.split_at(word.len() - 1);
                for b in head.chars() {
                    self.push(&b.to_string(), Some(start), &format!("expected `{word}`"));
                }
                self.push(last, None, after);
            }
            Value::Num(_) => {
                for c in v.to_string().chars() {
                    let message = match c {
                        '-' => "expected digit",
                        '.' => "expected digit after `.`",
                        _ => after,
                    };
                    self.push(&c.to_string(), None, message);
                }
            }
            Value::Str(s) => {
                let mut literal = String::new();
                write_string(&mut literal, s);
                let body = &literal[1..literal.len() - 1];
                self.push("\"", None, "unterminated string");
                let mut chars = body.chars();
                while let Some(c) = chars.next() {
                    if c != '\\' {
                        self.push(&c.to_string(), None, "unterminated string");
                        continue;
                    }
                    self.push("\\", None, "invalid escape");
                    let letter = chars.next().expect("the writer's escapes are whole");
                    if letter == 'u' {
                        self.push("u", None, "truncated \\u escape");
                        let hex_start = self.text.len();
                        for i in 0..4 {
                            let digit = chars.next().expect("four hex digits").to_string();
                            if i < 3 {
                                self.push(&digit, Some(hex_start), "truncated \\u escape");
                            } else {
                                self.push(&digit, None, "unterminated string");
                            }
                        }
                    } else {
                        self.push(&letter.to_string(), None, "unterminated string");
                    }
                }
                self.push("\"", None, after);
            }
            Value::Arr(items) => {
                self.push("[", None, "unexpected end of input");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        self.push(",", None, "unexpected end of input");
                    }
                    self.value(item, "expected `,` or `]` in array");
                }
                self.push("]", None, after);
            }
            Value::Obj(members) => {
                self.push("{", None, "expected `\"`");
                for (i, (key, item)) in members.iter().enumerate() {
                    if i > 0 {
                        self.push(",", None, "expected `\"`");
                    }
                    self.value(&Value::Str(key.clone()), "expected `:`");
                    self.push(":", None, "unexpected end of input");
                    self.value(item, "expected `,` or `}` in object");
                }
                self.push("}", None, after);
            }
        }
    }
}

#[test]
fn generated_documents_parse_back_to_the_value_written() {
    let mut r = stream("roundtrip");
    for _ in 0..DOCUMENTS {
        let doc = any_document(&mut r);
        let text = doc.to_string();
        assert_eq!(parse("roundtrip", &text), Ok(doc), "{text:?}");
    }
}

#[test]
fn truncations_fail_where_and_how_the_grammar_says() {
    let mut r = stream("truncation");
    let mut cases = 0;
    for _ in 0..DOCUMENTS {
        let model = Cuts::of(&any_document(&mut r));
        for (k, want) in model.cuts.iter().enumerate() {
            let Some(want) = want else { continue };
            if k == model.text.len() {
                continue;
            }
            let cut = &model.text[..k];
            assert_eq!(parse("truncation", cut), Err(want.clone()), "{cut:?}");
            cases += 1;
        }
    }
    assert!(cases > 10_000, "only {cases} truncations");
}

#[test]
fn bad_escapes_fail_at_their_letter() {
    // Every ASCII byte after a backslash, then non-ASCII ones.
    let letters = (0u8..0x80)
        .map(char::from)
        .chain(['é', '東', '😀'])
        .filter(|&c| c != 'u');
    for letter in letters {
        let input = format!("{{\"k\":\"ab\\{letter}cd\"}}");
        let decoded = match letter {
            '"' | '\\' | '/' => Some(letter),
            'b' => Some('\u{8}'),
            'f' => Some('\u{c}'),
            'n' => Some('\n'),
            'r' => Some('\r'),
            't' => Some('\t'),
            _ => None,
        };
        let want = match decoded {
            Some(c) => Ok(obj(vec![("k", format!("ab{c}cd").into())])),
            None => Err(at(9, "invalid escape")),
        };
        assert_eq!(parse("escape", &input), want, "{input:?}");
    }
    let mut r = stream("escape");
    for _ in 0..ESCAPE_CASES {
        // Four characters after `\u`, some not hex digits.
        let hex: String = (0..4)
            .map(|_| {
                *r.pick(&[
                    '0', '7', 'a', 'F', 'd', 'G', 'x', ' ', '"', '\\', 'é', '+', '-',
                ])
            })
            .collect();
        let input = format!("\"\\u{hex}\"");
        let want = if hex.chars().all(|c| c.is_ascii_hexdigit()) {
            let code = u32::from_str_radix(&hex, 16).expect("hex digits");
            match code {
                0xD800..=0xDBFF => Err(at(7, "unpaired surrogate")),
                0xDC00..=0xDFFF => Err(at(7, "invalid code point")),
                _ => Ok(Value::Str(
                    char::from_u32(code).expect("a scalar").to_string(),
                )),
            }
        } else {
            Err(at(3, "invalid \\u escape"))
        };
        assert_eq!(parse("escape", &input), want, "{input:?}");
    }
    // Escapes cut short by the end of the text, and a signed one.
    for (input, want) in [
        ("\"\\", at(2, "invalid escape")),
        ("\"\\u", at(3, "truncated \\u escape")),
        ("\"\\u12", at(3, "truncated \\u escape")),
        ("\"\\u123", at(3, "truncated \\u escape")),
        ("\"\\u1234", at(7, "unterminated string")),
        ("\"\\u+12a\"", at(3, "invalid \\u escape")),
    ] {
        assert_eq!(parse("escape", input), Err(want), "{input:?}");
    }
}

#[test]
fn lone_and_reversed_surrogates_fail_with_their_own_message() {
    let mut r = stream("surrogate");
    let hex = |r: &mut SplitMix64, lo: u32, hi: u32| {
        let code = lo + r.range_u32(hi - lo);
        if r.chance(0.5) {
            format!("{code:04x}")
        } else {
            format!("{code:04X}")
        }
    };
    for _ in 0..ESCAPE_CASES {
        let high = hex(&mut r, 0xD800, 0xDC00);
        let low = hex(&mut r, 0xDC00, 0xE000);
        let other = hex(&mut r, 0x20, 0xD800);
        let tail = *r.pick(&["", "x", "\\n", "\\\\"]);
        // `"\uHIGH` is 7 bytes; what follows it decides the verdict.
        let (input, want) = match r.range_u32(5) {
            0 => {
                let input = format!("\"\\u{high}{tail}\"");
                let offset = if tail.starts_with('\\') { 8 } else { 7 };
                (input, Err(at(offset, "unpaired surrogate")))
            }
            1 => (
                format!("\"\\u{high}\\u{other}\""),
                Err(at(13, "invalid low surrogate")),
            ),
            2 => (
                format!("\"\\u{low}\\u{high}\""),
                Err(at(7, "invalid code point")),
            ),
            3 => (
                format!("\"\\u{low}{tail}\""),
                Err(at(7, "invalid code point")),
            ),
            _ => {
                let (h, l) = (
                    u32::from_str_radix(&high, 16).expect("hex"),
                    u32::from_str_radix(&low, 16).expect("hex"),
                );
                let c = char::from_u32(0x10000 + ((h - 0xD800) << 10) + (l - 0xDC00));
                (
                    format!("\"\\u{high}\\u{low}\""),
                    Ok(Value::Str(c.expect("a pair is a scalar").to_string())),
                )
            }
        };
        assert_eq!(parse("surrogate", &input), want, "{input:?}");
    }
}

#[test]
fn raw_control_bytes_fail_at_their_byte() {
    let mut r = stream("control");
    for _ in 0..ESCAPE_CASES {
        let c = char::from(r.range_u32(0x20) as u8);
        let prefix: String = (0..r.range_usize(40))
            .map(|_| (b'a' + r.range_u32(26) as u8) as char)
            .collect();
        // Inside a string, at any distance from the opening quote.
        let input = format!("{{\"k\":\"{prefix}{c}z\"}}");
        let want = Err(at(6 + prefix.len(), "unescaped control character"));
        assert_eq!(parse("control", &input), want, "{input:?}");
        // Where a value starts: whitespace if JSON calls it so.
        let input = format!("{{\"k\":{c}1}}");
        let want = if matches!(c, '\t' | '\n' | '\r') {
            Ok(obj(vec![("k", 1.0.into())]))
        } else {
            Err(at(5, &format!("unexpected character `{c}`")))
        };
        assert_eq!(parse("control", &input), want, "{input:?}");
    }
}

#[test]
fn nesting_past_the_limit_fails_where_the_first_value_too_deep_starts() {
    let mut r = stream("nesting");
    for _ in 0..ESCAPE_CASES {
        let levels = MAX_DEPTH - 3 + r.range_usize(8);
        let mut text = String::new();
        let mut too_deep = None;
        for depth in 0..levels {
            if depth == MAX_DEPTH + 1 {
                too_deep = Some(text.len());
            }
            text.push_str(if r.chance(0.5) { "[" } else { "{\"a\":" });
        }
        if levels == MAX_DEPTH + 1 {
            too_deep = Some(text.len());
        }
        text.push('0');
        let closers: String = text
            .bytes()
            .rev()
            .filter_map(|b| match b {
                b'[' => Some(']'),
                b'{' => Some('}'),
                _ => None,
            })
            .collect();
        text.push_str(&closers);
        let got = parse("nesting", &text);
        match too_deep {
            Some(offset) => assert_eq!(got, Err(at(offset, "nesting too deep")), "{text:?}"),
            None => assert!(got.is_ok(), "{levels} levels: {got:?}"),
        }
    }
}

#[test]
fn numbers_past_the_range_of_f64_parse_to_infinities() {
    let mut r = stream("infinity");
    for _ in 0..ESCAPE_CASES {
        let sign = if r.chance(0.5) { "-" } else { "" };
        let mantissa = format!("{}.{}", 1 + r.range_u32(9), r.range_u32(1000));
        let text = match r.range_u32(3) {
            0 => format!("{sign}{mantissa}e{}", 309 + r.range_u32(5000)),
            1 => format!("{sign}{mantissa}E+{}", 309 + r.range_u32(50)),
            _ => format!("{sign}1{}", "0".repeat(309 + r.range_usize(200))),
        };
        let want = if sign.is_empty() {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        };
        let doc = format!("{{\"n\":{text}}}");
        let got = parse("infinity", &doc);
        assert_eq!(got, Ok(obj(vec![("n", want.into())])), "{doc:?}");
        assert_eq!(got.expect("parses").to_string(), "{\"n\":null}");
    }
}

#[test]
fn bit_flipped_documents_decode_as_the_reference_does() {
    let mut r = stream("bit flip");
    let docs: Vec<String> = (0..DOCUMENTS)
        .map(|_| any_document(&mut r).to_string())
        .collect();
    for case in 0..BIT_FLIPS {
        let mut bytes = docs[case % docs.len()].as_bytes().to_vec();
        for _ in 0..=r.range_usize(3) {
            let at = r.range_usize(bytes.len());
            bytes[at] ^= 1 << r.range_u32(8);
        }
        let input = String::from_utf8_lossy(&bytes);
        assert_eq!(
            parse("bit flip", &input),
            parse_reference(&input),
            "{input:?}"
        );
    }
}

/// The differential arm on string literals alone: the same string or
/// error, and the same position after it, as the reference reader, over
/// runs long and short enough to end anywhere in an eight-byte chunk.
#[test]
fn string_reader_matches_its_reference() {
    let mut r = stream("string");
    for _ in 0..STRING_LITERALS {
        let mut literal = String::from("\"");
        for _ in 0..r.range_usize(6) {
            let run = r.range_usize(24);
            literal.extend((0..run).map(|_| (b'a' + r.range_u32(26) as u8) as char));
            let special = *r.pick(&[
                "\\n",
                "\\\"",
                "\\u00e9",
                "\\uD83D\\uDE00",
                "\\uDE00",
                "\\uD83D",
                "\\q",
                "\\",
                "\u{1}",
                "é😀",
                "\"",
                "",
            ]);
            literal.push_str(special);
        }
        if r.chance(0.8) {
            literal.push('"');
        }
        let mut now = Parser::new(&literal);
        let mut before = Parser {
            reference: true,
            ..Parser::new(&literal)
        };
        assert_eq!(
            (now.string(), now.pos),
            (before.string(), before.pos),
            "{literal:?}"
        );
    }
}
