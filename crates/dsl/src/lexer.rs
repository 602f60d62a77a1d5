//! Line lexer for the DRAM description language.
//!
//! The language is line-oriented, matching the paper's §III.B excerpts:
//!
//! ```text
//! FloorplanPhysical
//! CellArray BL=v BitsPerBL=512 BLtype=open
//! Vertical blocks = A1 P1 P2 P1 A1
//! SizeVertical A1=3396um P1=200um P2=530um
//! ```
//!
//! Each non-empty, non-comment line lexes into a head word and a list of
//! arguments, where an argument is either `key=value` or a bare word.
//! Values may be double-quoted to contain spaces. `#` and `//` start
//! comments. A free-standing `=` after a bare word attaches the remaining
//! words to that key as a list (the paper's `Vertical blocks = A1 P1 ...`
//! and `Pattern loop= act nop ...` forms).
//!
//! [`Lexer`] splits the text in one pass over its bytes and hands the
//! parser one [`Line`] at a time. Heads, keys, values and list words are
//! slices of the text, held in buffers the lexer reuses for every line,
//! so a whole description lexes into a few allocations. ASCII bytes are
//! classified by table; a non-ASCII byte decodes one `char`, so every
//! Unicode whitespace character separates words.

use std::borrow::Cow;

use crate::error::DslError;

/// One argument of a lexed line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Arg<'a> {
    /// A `key=value` pair.
    KeyValue {
        /// The key, verbatim.
        key: &'a str,
        /// The value, with quotes stripped.
        value: Cow<'a, str>,
    },
    /// A `key = w1 w2 w3 …` list assignment. It is always the line's
    /// last argument, and the words after the `=` are its list.
    KeyList {
        /// The key, verbatim.
        key: &'a str,
    },
    /// A bare word.
    Bare(&'a str),
}

/// One lexed line, valid until the [`Lexer`] splits the next one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Line<'a, 'b> {
    /// 1-based source line number, for diagnostics.
    pub number: usize,
    /// The first word of the line.
    pub head: &'b str,
    /// The remaining arguments.
    pub args: &'b [Arg<'a>],
    /// The words of the line's [`Arg::KeyList`], if it has one.
    list: &'b [Cow<'a, str>],
}

impl<'a, 'b> Line<'a, 'b> {
    /// Looks up the value of a `key=value` argument; keys match
    /// case-insensitively.
    pub fn value(&self, key: &str) -> Option<&'b str> {
        self.args.iter().find_map(|a| match a {
            Arg::KeyValue { key: k, value } if k.eq_ignore_ascii_case(key) => Some(&**value),
            _ => None,
        })
    }

    /// Looks up the words of a `key = list` argument; keys match
    /// case-insensitively.
    pub fn list(&self, key: &str) -> Option<&'b [Cow<'a, str>]> {
        self.args
            .iter()
            .any(|a| matches!(a, Arg::KeyList { key: k } if k.eq_ignore_ascii_case(key)))
            .then_some(self.list)
    }

    /// All `key=value` pairs of the line, in order, keys verbatim.
    pub fn pairs(&self) -> impl Iterator<Item = (&'a str, &'b str)> {
        self.args.iter().filter_map(|a| match a {
            Arg::KeyValue { key, value } => Some((*key, &**value)),
            _ => None,
        })
    }
}

/// What the byte loop does with a byte.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Part of a word.
    Word,
    /// Part of a word, and a `key=value` split point.
    Equals,
    /// Ends a word: the ASCII characters `char::is_whitespace` accepts,
    /// but `\n`.
    Space,
    /// Ends the line.
    Newline,
    Quote,
    Hash,
    Slash,
    /// Starts a multi-byte `char`, which may be whitespace.
    NonAscii,
}

const CLASSES: [Class; 256] = {
    let mut t = [Class::Word; 256];
    t[b'=' as usize] = Class::Equals;
    t[b'\t' as usize] = Class::Space;
    t[0x0b] = Class::Space;
    t[0x0c] = Class::Space;
    t[b'\r' as usize] = Class::Space;
    t[b' ' as usize] = Class::Space;
    t[b'\n' as usize] = Class::Newline;
    t[b'"' as usize] = Class::Quote;
    t[b'#' as usize] = Class::Hash;
    t[b'/' as usize] = Class::Slash;
    let mut b = 0x80;
    while b < 256 {
        t[b] = Class::NonAscii;
        b += 1;
    }
    t
};

/// Where the run of [`Class::Word`] bytes from `i` ends, give or take: at
/// the first byte below `!` (whitespace and control bytes), `"`, `#`,
/// `/`, `=` or non-ASCII byte, or at the end of `bytes`. The byte loop
/// classifies that byte itself, so a control byte, which is a word byte,
/// only ends the run early.
///
/// Eight bytes are tested at a time. For a byte `b` and a bound `c` of at
/// most 0x80, the high bit of `(b - c) & !b` is set exactly when `b < c`:
/// `c` is 0x21 for spaces, and 1 for a byte XOR has turned to 0. In the
/// whole word a byte that borrows also sets bits in the bytes above it,
/// so only the lowest set bit is exact; it is the first byte that ends
/// the run.
fn word_end(bytes: &[u8], mut i: usize) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let zero = |v: u64| v.wrapping_sub(ONES) & !v;
    while let Some(chunk) = bytes.get(i..i + 8) {
        let x = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        let stops = (x.wrapping_sub(ONES * 0x21) & !x
            | zero(x ^ (ONES * u64::from(b'"')))
            | zero(x ^ (ONES * u64::from(b'#')))
            | zero(x ^ (ONES * u64::from(b'/')))
            | zero(x ^ (ONES * u64::from(b'=')))
            | x)
            & HIGH;
        if stops != 0 {
            return i + (stops.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while bytes
        .get(i)
        .is_some_and(|&b| CLASSES[usize::from(b)] == Class::Word)
    {
        i += 1;
    }
    i
}

/// `a` followed by `b`, borrowed unless both are non-empty.
fn join<'a>(a: &'a str, b: &'a str) -> Cow<'a, str> {
    match (a.is_empty(), b.is_empty()) {
        (_, true) => Cow::Borrowed(a),
        (true, false) => Cow::Borrowed(b),
        (false, false) => Cow::Owned([a, b].concat()),
    }
}

/// Splits a description text into [`Line`]s, one per call of
/// [`Lexer::next_line`].
#[derive(Debug)]
pub(crate) struct Lexer<'a> {
    text: &'a str,
    /// Where the next line starts.
    pos: usize,
    /// The number of the line last split.
    number: usize,
    head: Option<Cow<'a, str>>,
    args: Vec<Arg<'a>>,
    list: Vec<Cow<'a, str>>,
    /// The last argument is a [`Arg::KeyList`] taking every later word.
    in_list: bool,
    /// An `=` followed no bare word. Reported once the whole line has
    /// split, so a quoting error later on the line wins.
    stray_equals: bool,
}

impl<'a> Lexer<'a> {
    pub fn new(text: &'a str) -> Self {
        Self {
            text,
            pos: 0,
            number: 0,
            head: None,
            // One allocation holds the arguments of every directive.
            args: Vec::with_capacity(16),
            list: Vec::new(),
            in_list: false,
            stray_equals: false,
        }
    }

    /// The next line that holds a word, or the error that ends the
    /// text's lexing: an unterminated or misplaced quote, or a stray `=`.
    /// Lines end in `\n`; a `\r` before it is whitespace.
    pub fn next_line(&mut self) -> Option<Result<Line<'a, '_>, DslError>> {
        while self.pos < self.text.len() {
            self.number += 1;
            match self.split_line() {
                Ok(true) => {
                    return Some(Ok(Line {
                        number: self.number,
                        head: self.head.as_deref().unwrap_or_default(),
                        args: &self.args,
                        list: &self.list,
                    }))
                }
                Ok(false) => {}
                Err(e) => {
                    self.pos = self.text.len();
                    return Some(Err(e));
                }
            }
        }
        None
    }

    /// Splits the line at `pos` into words, honoring double quotes and
    /// stripping comments, and moves `pos` past it. `Ok(false)` for a
    /// line with no words.
    fn split_line(&mut self) -> Result<bool, DslError> {
        self.head = None;
        self.args.clear();
        self.list.clear();
        self.in_list = false;
        self.stray_equals = false;
        let text = self.text;
        let bytes = text.as_bytes();
        let mut i = self.pos;
        // Start of the unquoted word being read, if any, and of its
        // first `=`.
        let mut start = None;
        let mut eq = None;
        let end = loop {
            let Some(&b) = bytes.get(i) else { break i };
            match CLASSES[usize::from(b)] {
                Class::Word => {
                    start.get_or_insert(i);
                    i = word_end(bytes, i + 1);
                    continue;
                }
                Class::Equals => {
                    start.get_or_insert(i);
                    eq.get_or_insert(i);
                }
                Class::Space => {
                    if let Some(s) = start.take() {
                        self.push(&text[s..i], "", eq.take().map(|e| e - s));
                    }
                }
                Class::Newline => break i,
                Class::Hash => break comment_end(text, i),
                Class::Slash if bytes.get(i + 1) == Some(&b'/') => break comment_end(text, i),
                Class::Slash => {
                    start.get_or_insert(i);
                }
                Class::Quote => {
                    // `key="..."`: the quoted text splices onto the
                    // pending word.
                    let prefix = match start.take() {
                        None => None,
                        Some(s) if bytes[i - 1] == b'=' => {
                            Some((&text[s..i], eq.take().map(|e| e - s)))
                        }
                        Some(_) => {
                            return Err(DslError::syntax(
                                self.number,
                                "quote may only start a word or follow `=`",
                            ))
                        }
                    };
                    let open = i + 1;
                    let close = bytes[open..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\n')
                        .map(|k| open + k)
                        .filter(|&k| bytes[k] == b'"')
                        .ok_or_else(|| {
                            DslError::syntax(self.number, "unterminated string literal")
                        })?;
                    let quoted = &text[open..close];
                    match prefix {
                        None => self.push(quoted, "", quoted.find('=')),
                        Some((prefix, eq)) => self.push(prefix, quoted, eq),
                    }
                    i = close + 1;
                    continue;
                }
                Class::NonAscii => {
                    let c = text[i..].chars().next().expect("a char starts at i");
                    if c.is_whitespace() {
                        if let Some(s) = start.take() {
                            self.push(&text[s..i], "", eq.take().map(|e| e - s));
                        }
                    } else {
                        start.get_or_insert(i);
                    }
                    i += c.len_utf8();
                    continue;
                }
            }
            i += 1;
        };
        if let Some(s) = start {
            self.push(&text[s..i], "", eq.map(|e| e - s));
        }
        self.pos = end + 1;
        if self.stray_equals {
            return Err(DslError::syntax(
                self.number,
                "`=` must follow a bare key word",
            ));
        }
        Ok(self.head.is_some())
    }

    /// Files one word: `text` with `quoted` spliced onto its end, where
    /// `quoted` is non-empty only for `prefix="quoted"`; `eq` is the
    /// offset of the first `=` in `text`.
    fn push(&mut self, text: &'a str, quoted: &'a str, eq: Option<usize>) {
        if self.stray_equals {
            return;
        }
        if self.head.is_none() {
            self.head = Some(join(text, quoted));
            return;
        }
        if self.in_list {
            self.list.push(join(text, quoted));
            return;
        }
        if text == "=" && quoted.is_empty() {
            // `blocks = A1 P1 …`: the previous bare word is the key, the
            // rest of the line is the list.
            match self.args.pop() {
                Some(Arg::Bare(key)) => self.open_list(key),
                _ => self.stray_equals = true,
            }
            return;
        }
        let Some(eq) = eq else {
            self.args.push(Arg::Bare(text));
            return;
        };
        let value = join(&text[eq + 1..], quoted);
        if value.is_empty() {
            // `loop= act nop …`: list form with the `=` glued to the key.
            self.open_list(&text[..eq]);
        } else {
            self.args.push(Arg::KeyValue {
                key: &text[..eq],
                value,
            });
        }
    }

    fn open_list(&mut self, key: &'a str) {
        self.args.push(Arg::KeyList { key });
        self.in_list = true;
    }
}

/// Where the line of a comment starting at `at` ends: its `\n`, or the
/// end of the text.
fn comment_end(text: &str, at: usize) -> usize {
    text[at..].find('\n').map_or(text.len(), |k| at + k)
}

/// The two-stage lexer the one-pass [`Lexer`] replaced: the whole text
/// split into a `Vec` of lines first, each line's arguments in a `Vec` of
/// its own. Kept as the reference of the differential fuzzes here and in
/// the parser.
#[cfg(test)]
pub(crate) mod reference {
    use std::borrow::Cow;

    use crate::error::DslError;

    /// One argument of a lexed line.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Arg<'a> {
        /// A `key=value` pair.
        KeyValue {
            /// The key, verbatim.
            key: &'a str,
            /// The value, with quotes stripped.
            value: Cow<'a, str>,
        },
        /// A `key = w1 w2 w3 …` list assignment (everything after the `=`).
        KeyList {
            /// The key, verbatim.
            key: &'a str,
            /// The listed words.
            values: Vec<Cow<'a, str>>,
        },
        /// A bare word.
        Bare(&'a str),
    }

    /// One lexed line of input.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Line<'a> {
        /// 1-based source line number, for diagnostics.
        pub number: usize,
        /// The first word of the line.
        pub head: Cow<'a, str>,
        /// The remaining arguments.
        pub args: Vec<Arg<'a>>,
    }

    impl<'a> Line<'a> {
        /// Looks up the value of a `key=value` argument.
        #[must_use]
        pub fn value(&self, key: &str) -> Option<&str> {
            self.args.iter().find_map(|a| match a {
                Arg::KeyValue { key: k, value } if k.eq_ignore_ascii_case(key) => Some(&**value),
                _ => None,
            })
        }

        /// Looks up the words of a `key = list` argument.
        #[must_use]
        pub fn list(&self, key: &str) -> Option<&[Cow<'a, str>]> {
            self.args.iter().find_map(|a| match a {
                Arg::KeyList { key: k, values } if k.eq_ignore_ascii_case(key) => {
                    Some(values.as_slice())
                }
                _ => None,
            })
        }

        /// All `key=value` pairs of the line, in order.
        pub fn pairs(&self) -> impl Iterator<Item = (&'a str, &str)> {
            self.args.iter().filter_map(|a| match a {
                Arg::KeyValue { key, value } => Some((*key, &**value)),
                _ => None,
            })
        }

        /// Runs `f` on this line in the form the one-pass lexer gives
        /// the section parser.
        pub fn as_one_pass<R>(&self, f: impl FnOnce(&super::Line<'a, '_>) -> R) -> R {
            let mut list: &[Cow<'a, str>] = &[];
            let args: Vec<super::Arg<'a>> = self
                .args
                .iter()
                .map(|a| match a {
                    Arg::KeyValue { key, value } => super::Arg::KeyValue {
                        key,
                        value: value.clone(),
                    },
                    Arg::KeyList { key, values } => {
                        list = values;
                        super::Arg::KeyList { key }
                    }
                    Arg::Bare(w) => super::Arg::Bare(w),
                })
                .collect();
            f(&super::Line {
                number: self.number,
                head: &self.head,
                args: &args,
                list,
            })
        }
    }

    /// One word of a line: `text`, with `quoted` spliced onto its end.
    /// `quoted` is non-empty only for `prefix="quoted"`, where `text` is the
    /// prefix and ends in `=`; every other word is the single slice `text`.
    #[derive(Clone, Copy)]
    struct Word<'a> {
        text: &'a str,
        quoted: &'a str,
    }

    impl<'a> Word<'a> {
        /// A word that is one slice of the input.
        fn plain(text: &'a str) -> Self {
            Self { text, quoted: "" }
        }
    }

    /// `a` followed by `b`, borrowed unless both are non-empty.
    fn join<'a>(a: &'a str, b: &'a str) -> Cow<'a, str> {
        match (a.is_empty(), b.is_empty()) {
            (_, true) => Cow::Borrowed(a),
            (true, false) => Cow::Borrowed(b),
            (false, false) => Cow::Owned([a, b].concat()),
        }
    }

    /// Assembles a [`Line`] from its words as they are split off.
    #[derive(Default)]
    struct LineBuilder<'a> {
        head: Option<Cow<'a, str>>,
        args: Vec<Arg<'a>>,
        /// The last argument is a [`Arg::KeyList`] taking every later word.
        in_list: bool,
        /// An `=` followed no bare word. Reported once the whole line has
        /// split, so a quoting error later on the line wins.
        stray_equals: bool,
    }

    impl<'a> LineBuilder<'a> {
        fn push(&mut self, word: Word<'a>) {
            if self.stray_equals {
                return;
            }
            if self.head.is_none() {
                self.head = Some(join(word.text, word.quoted));
                // One allocation holds the arguments of most directives.
                self.args = Vec::with_capacity(8);
                return;
            }
            if self.in_list {
                if let Some(Arg::KeyList { values, .. }) = self.args.last_mut() {
                    values.push(join(word.text, word.quoted));
                }
                return;
            }
            if word.text == "=" && word.quoted.is_empty() {
                // `blocks = A1 P1 …`: the previous bare word is the key, the
                // rest of the line is the list.
                match self.args.pop() {
                    Some(Arg::Bare(key)) => self.open_list(key),
                    _ => self.stray_equals = true,
                }
                return;
            }
            let Some(eq) = word.text.find('=') else {
                self.args.push(Arg::Bare(word.text));
                return;
            };
            let value = join(&word.text[eq + 1..], word.quoted);
            if value.is_empty() {
                // `loop= act nop …`: list form with the `=` glued to the key.
                self.open_list(&word.text[..eq]);
            } else {
                self.args.push(Arg::KeyValue {
                    key: &word.text[..eq],
                    value,
                });
            }
        }

        fn open_list(&mut self, key: &'a str) {
            self.args.push(Arg::KeyList {
                key,
                values: Vec::new(),
            });
            self.in_list = true;
        }

        fn finish(self, number: usize) -> Result<Option<Line<'a>>, DslError> {
            if self.stray_equals {
                return Err(DslError::syntax(number, "`=` must follow a bare key word"));
            }
            Ok(self.head.map(|head| Line {
                number,
                head,
                args: self.args,
            }))
        }
    }

    /// Splits one raw line into words, honoring double quotes and stripping
    /// comments, and assembles them into a [`Line`] (`None` for a line with
    /// no words).
    fn lex_line(raw: &str, number: usize) -> Result<Option<Line<'_>>, DslError> {
        let bytes = raw.as_bytes();
        let mut line = LineBuilder::default();
        // Start of the unquoted word being read, if any.
        let mut start = None;
        let mut i = 0;
        while let Some(&b) = bytes.get(i) {
            match b {
                b'"' => {
                    // `key="..."`: the quoted text splices onto the pending word.
                    let prefix = match start.take() {
                        None => "",
                        Some(s) if bytes[i - 1] == b'=' => &raw[s..i],
                        Some(_) => {
                            return Err(DslError::syntax(
                                number,
                                "quote may only start a word or follow `=`",
                            ))
                        }
                    };
                    let open = i + 1;
                    let close = raw[open..]
                        .find('"')
                        .map(|k| open + k)
                        .ok_or_else(|| DslError::syntax(number, "unterminated string literal"))?;
                    let quoted = &raw[open..close];
                    line.push(if prefix.is_empty() {
                        Word::plain(quoted)
                    } else {
                        Word {
                            text: prefix,
                            quoted,
                        }
                    });
                    i = close + 1;
                    continue;
                }
                b'#' => break,
                b'/' if bytes.get(i + 1) == Some(&b'/') => break,
                // The ASCII characters `char::is_whitespace` accepts.
                b'\t' | b'\n' | 0x0b | 0x0c | b'\r' | b' ' => {
                    if let Some(s) = start.take() {
                        line.push(Word::plain(&raw[s..i]));
                    }
                }
                0x80.. => {
                    let c = raw[i..].chars().next().expect("a char starts at i");
                    if c.is_whitespace() {
                        if let Some(s) = start.take() {
                            line.push(Word::plain(&raw[s..i]));
                        }
                    } else {
                        start.get_or_insert(i);
                    }
                    i += c.len_utf8();
                    continue;
                }
                _ => {
                    start.get_or_insert(i);
                }
            }
            i += 1;
        }
        if let Some(s) = start {
            line.push(Word::plain(&raw[s..i]));
        }
        line.finish(number)
    }

    /// Lexes the full input into lines.
    ///
    /// # Errors
    ///
    /// Returns a [`DslError`] with the offending line number for malformed
    /// quoting or a stray `=`.
    pub fn lex(input: &str) -> Result<Vec<Line<'_>>, DslError> {
        let mut out = Vec::new();
        for (idx, raw) in input.lines().enumerate() {
            if let Some(line) = lex_line(raw, idx + 1)? {
                out.push(line);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::reference::{self, Arg, Line};
    use super::*;
    use dram_units::rng::SplitMix64;

    impl<'a> Lexer<'a> {
        /// The line last split, in the reference's owned form.
        fn snapshot(&self) -> Line<'a> {
            let args = self
                .args
                .iter()
                .map(|a| match a {
                    super::Arg::KeyValue { key, value } => Arg::KeyValue {
                        key,
                        value: value.clone(),
                    },
                    super::Arg::KeyList { key } => Arg::KeyList {
                        key,
                        values: self.list.clone(),
                    },
                    super::Arg::Bare(w) => Arg::Bare(w),
                })
                .collect();
            Line {
                number: self.number,
                head: self.head.clone().expect("a split line has a head"),
                args,
            }
        }
    }

    /// Every line the one-pass lexer splits, in the reference's form.
    fn lex(input: &str) -> Result<Vec<Line<'_>>, DslError> {
        let mut lexer = Lexer::new(input);
        let mut out = Vec::new();
        while let Some(line) = lexer.next_line() {
            line?;
            out.push(lexer.snapshot());
        }
        Ok(out)
    }

    #[test]
    fn lexes_key_values() {
        let lines = lex("CellArray BL=v BitsPerBL=512 BLtype=open").expect("lexes");
        assert_eq!(lines.len(), 1);
        let l = &lines[0];
        assert_eq!(l.head, "CellArray");
        assert_eq!(l.value("BL"), Some("v"));
        assert_eq!(l.value("BitsPerBL"), Some("512"));
        assert_eq!(l.value("bltype"), Some("open"), "keys are case-insensitive");
        assert_eq!(l.value("missing"), None);
    }

    #[test]
    fn lexes_list_assignment_with_spaced_equals() {
        let lines = lex("Vertical blocks = A1 P1 P2 P1 A1").expect("lexes");
        let l = &lines[0];
        assert_eq!(l.head, "Vertical");
        assert_eq!(
            l.list("blocks").expect("list"),
            &["A1", "P1", "P2", "P1", "A1"]
        );
    }

    #[test]
    fn lexes_glued_list_assignment() {
        // The paper writes `Pattern loop= act nop wrt nop rd nop pre nop`.
        let lines = lex("Pattern loop= act nop wrt nop rd nop pre nop").expect("lexes");
        let l = &lines[0];
        assert_eq!(l.head, "Pattern");
        assert_eq!(l.list("loop").expect("list").len(), 8);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let input = "\n# full comment\nA x=1 # trailing\n// slashes too\nB y=2 // end\n";
        let lines = lex(input).expect("lexes");
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].value("x"), Some("1"));
        assert_eq!(lines[1].value("y"), Some("2"));
        assert_eq!(lines[1].number, 5);
    }

    #[test]
    fn quoted_values_keep_spaces() {
        let lines = lex("LogicBlock name=\"clock tree and DLL\" gates=4000").expect("lexes");
        assert_eq!(lines[0].value("name"), Some("clock tree and DLL"));
        assert_eq!(lines[0].value("gates"), Some("4000"));
    }

    #[test]
    fn words_borrow_from_the_input() {
        let lines =
            lex("LogicBlock name=\"clock tree\" blocks = A1 P1\nx a=b=\"c d\"").expect("lexes");
        assert!(matches!(lines[0].head, Cow::Borrowed("LogicBlock")));
        assert!(matches!(
            &lines[0].args[0],
            Arg::KeyValue {
                key: "name",
                value: Cow::Borrowed("clock tree")
            }
        ));
        assert!(lines[0]
            .list("blocks")
            .expect("list")
            .iter()
            .all(|w| matches!(w, Cow::Borrowed(_))));
        // The one spliced form: an earlier `=` keeps `b=` in the value.
        assert!(matches!(
            &lines[1].args[0],
            Arg::KeyValue { key: "a", value: Cow::Owned(v) } if v == "b=c d"
        ));
    }

    #[test]
    fn lexer_errors_have_exact_texts() {
        for (input, line, message) in [
            (
                "A\nB ab\"c\"",
                2,
                "quote may only start a word or follow `=`",
            ),
            ("A \"oops", 1, "unterminated string literal"),
            ("A name=\"oops", 1, "unterminated string literal"),
            ("A name=\"oops\nB=\"", 1, "unterminated string literal"),
            ("A\n\nB = x", 3, "`=` must follow a bare key word"),
            // A quoting error later on the line wins over a stray `=`.
            ("B = x \"oops", 1, "unterminated string literal"),
        ] {
            let err = lex(input).expect_err(input);
            assert_eq!((err.line(), err.message()), (line, message), "{input:?}");
        }
    }

    #[test]
    fn unicode_whitespace_separates_words() {
        let lines = lex("A\u{a0}x=1\u{3000}y=2\u{85}z\u{0b}w").expect("lexes");
        assert_eq!(lines[0].head, "A");
        assert_eq!(lines[0].value("x"), Some("1"));
        assert_eq!(lines[0].value("y"), Some("2"));
        assert_eq!(lines[0].args[2..], [Arg::Bare("z"), Arg::Bare("w")]);
    }

    #[test]
    fn line_numbers_are_one_based() {
        let lines = lex("first\nsecond").expect("lexes");
        assert_eq!(lines[0].number, 1);
        assert_eq!(lines[1].number, 2);
    }

    #[test]
    fn carriage_returns_end_words_not_lines() {
        let lines = lex("A x=1\r\nB y=\"2\"\r\n\r\nC\rz=3\r").expect("lexes");
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[1].value("y"), Some("2"));
        assert_eq!((lines[2].number, lines[2].value("z")), (4, Some("3")));
    }

    #[test]
    fn pairs_iterates_in_order() {
        let lines = lex("T a=1 b=2 c=3").expect("lexes");
        let pairs: Vec<_> = lines[0].pairs().collect();
        assert_eq!(pairs, vec![("a", "1"), ("b", "2"), ("c", "3")]);
    }

    /// The lexer preserves key/value structure for generated identifiers.
    #[test]
    fn lexer_roundtrips_key_values() {
        let mut r = SplitMix64::new(0xF005);
        let alpha = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
        let alnum = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
        let valchars = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789.";
        for _ in 0..256 {
            let mut key = String::new();
            key.push(*r.pick(alpha) as char);
            let extra = r.range_usize(11);
            for _ in 0..extra {
                key.push(*r.pick(alnum) as char);
            }
            let vlen = 1 + r.range_usize(10);
            let value: String = (0..vlen).map(|_| *r.pick(valchars) as char).collect();
            let line = format!("Head {key}={value}");
            let lines = lex(&line).expect("lexes");
            assert_eq!(lines.len(), 1, "key={key} value={value}");
            assert_eq!(
                lines[0].value(&key),
                Some(value.as_str()),
                "key={key} value={value}"
            );
        }
    }

    /// Characters of `crates/dsl/tests/fuzz.rs`'s `any_char`, plus every
    /// ASCII separator and three non-ASCII whitespace characters.
    fn any_char(r: &mut SplitMix64) -> char {
        match r.range_u32(9) {
            0 => '\n',
            1 => *r.pick(&['=', ' ', '\t', '#', '.', '-', '_', '"', '/']),
            2 => *r.pick(&['µ', 'Ω', '²', 'é', '漢', '🦀']),
            3 => *r.pick(&['\r', '\u{0b}', '\u{a0}', '\u{3000}', '\u{85}']),
            _ => (0x20 + r.range_u32(0x5F) as u8) as char,
        }
    }

    /// Every preset the stack ships, as description-language source.
    pub(crate) fn preset_sources() -> Vec<String> {
        use dram_scaling::presets as p;
        let mut out = vec![crate::write(
            &dram_core::reference::ddr3_1g_x16_55nm(),
            None,
        )];
        for desc in [
            p::sdr_128m_170nm(),
            p::ddr2_1g_75nm(),
            p::ddr2_1g_65nm(),
            p::ddr3_1g_65nm(),
            p::ddr3_1g_55nm(),
            p::ddr3_2g_55nm(),
            p::ddr5_16g_18nm(),
        ] {
            out.push(crate::write(&desc, None));
        }
        out
    }

    /// The lexer fuzz corpus: hand-picked edge cases, then every preset
    /// truncated, bit-flipped and with a line or a word doubled, then
    /// random text over [`any_char`]; seeded, so equal runs see equal
    /// inputs.
    pub(crate) fn fuzz_corpus() -> Vec<String> {
        let mut inputs: Vec<String> = [
            "a=b=\"c d\"",
            "H a=b=\"c d\" k= x a=b=\"e\"",
            "\"a=b=\"c d\"",
            "k=\"\" x y",
            "H k=\"\" x y",
            "a =\"\" b",
            "H a =\"\" b",
            "\"=\"",
            "H a \"=\" b c",
            "\"\"",
            "H \"\" x",
            "ab\"cd\"",
            "\"ab\"cd \"ef\"\"gh\"",
            "H k=\"a # b\" j=\"c // d\" \"#\" \"//\"",
            "a#b",
            "a/b",
            "a//b",
            "H x=0.25fF/um y=1//2",
            "A x=1\r\nB y=\"2\"\r\n\r\nC = z\r\n",
            "A x=1\nB \"open",
            "A x=1\nB y=\"open",
            "A y=\"open\nB x=\"1\"",
            "A y=\"a\rb\" z=\"c\r\"\r",
            "H = a b",
            "H a = = b",
            "H k==v ==",
            "=\"x\" ==\"y\"",
        ]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
        for source in preset_sources() {
            let lines: Vec<&str> = source.lines().collect();
            let mut rng = SplitMix64::new(0x1E8E_D1FF ^ source.len() as u64);
            for _ in 0..120 {
                inputs.push(source[..rng.range_usize(source.len())].to_string());
            }
            for _ in 0..120 {
                let mut bytes = source.as_bytes().to_vec();
                for _ in 0..=rng.range_usize(3) {
                    let at = rng.range_usize(bytes.len());
                    bytes[at] ^= 1 << rng.range_u32(8);
                }
                inputs.push(String::from_utf8_lossy(&bytes).into_owned());
            }
            for case in 0..120 {
                let mut mutated: Vec<String> = lines.iter().map(|l| (*l).to_string()).collect();
                let at = rng.range_usize(mutated.len());
                if case % 2 == 0 {
                    let line = mutated[at].clone();
                    mutated.insert(at, line);
                } else {
                    let tokens: Vec<&str> = mutated[at].split_whitespace().collect();
                    if tokens.is_empty() {
                        continue;
                    }
                    let t = rng.range_usize(tokens.len());
                    let mut rebuilt = tokens.clone();
                    rebuilt.insert(t, tokens[t]);
                    mutated[at] = rebuilt.join(" ");
                }
                inputs.push(mutated.join("\n"));
            }
        }
        let mut rng = SplitMix64::new(0xF001_1E8E);
        for _ in 0..8_000 {
            let len = rng.range_usize(160);
            inputs.push((0..len).map(|_| any_char(&mut rng)).collect());
        }
        inputs
    }

    /// A one-pass line answers every lookup as the reference's line does:
    /// each word of the line as a key, in its own, upper and lower case,
    /// through [`Line::value`] and [`Line::list`], and [`Line::pairs`].
    fn lookups_match(line: &super::Line<'_, '_>, want: &Line<'_>, input: &str) {
        let words = want.args.iter().map(|a| match a {
            Arg::KeyValue { key, .. } | Arg::KeyList { key, .. } | Arg::Bare(key) => *key,
        });
        for word in words.chain(["loop", "blocks", "name"]) {
            for key in [
                word.to_string(),
                word.to_ascii_uppercase(),
                word.to_ascii_lowercase(),
            ] {
                assert_eq!(line.value(&key), want.value(&key), "{key:?} in {input:?}");
                assert_eq!(line.list(&key), want.list(&key), "{key:?} in {input:?}");
            }
        }
        assert!(line.pairs().eq(want.pairs()), "{input:?}");
    }

    /// Seeded differential fuzz: over random text, mangled presets and
    /// hand-picked edge cases, the one-pass lexer yields the same lines
    /// (number, head, every argument's kind, key and text, borrowed or
    /// spliced), answering the same lookups, and the same first error
    /// (line and message) as the two-stage lexer it replaced.
    #[test]
    fn fuzz_lexer_matches_reference() {
        let inputs = fuzz_corpus();
        assert!(inputs.len() >= 10_000, "only {} inputs", inputs.len());
        let (mut clean, mut errors) = (0, Vec::new());
        for input in &inputs {
            let expected = reference::lex(input);
            assert_eq!(lex(input), expected, "{input:?}");
            if let Ok(lines) = &expected {
                let mut lexer = Lexer::new(input);
                for want in lines {
                    let line = lexer.next_line().expect("a line").expect("lexes");
                    lookups_match(&line, want, input);
                }
            }
            match expected {
                Ok(_) => clean += 1,
                Err(e) => errors.push(e.message().to_string()),
            }
        }
        // The corpus reaches every verdict, not just the first error.
        assert!(clean > 2_000, "only {clean} inputs lex cleanly");
        for message in [
            "quote may only start a word or follow `=`",
            "unterminated string literal",
            "`=` must follow a bare key word",
        ] {
            assert!(
                errors.iter().any(|e| e == message),
                "no input ends in {message:?}"
            );
        }
    }
}
