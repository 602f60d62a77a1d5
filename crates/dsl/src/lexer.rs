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
//! A lexed [`Line`] borrows from the input: each line is split in one pass
//! over its bytes, and heads, keys, values and list words are slices of
//! the text. ASCII bytes are classified directly; a non-ASCII byte decodes
//! one `char`, so every Unicode whitespace character separates words.

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

/// The lexer this module's one-pass lexer replaced: every word copied
/// into a `String`, then every head, key, value and list word copied
/// again. Kept as the reference of the differential fuzz below.
#[cfg(test)]
mod reference {
    use crate::error::DslError;

    #[derive(Debug, PartialEq, Eq)]
    pub enum Arg {
        KeyValue { key: String, value: String },
        KeyList { key: String, values: Vec<String> },
        Bare(String),
    }

    #[derive(Debug, PartialEq, Eq)]
    pub struct Line {
        pub number: usize,
        pub head: String,
        pub args: Vec<Arg>,
    }

    impl From<&super::Line<'_>> for Line {
        fn from(line: &super::Line<'_>) -> Self {
            let args = line
                .args
                .iter()
                .map(|a| match a {
                    super::Arg::KeyValue { key, value } => Arg::KeyValue {
                        key: (*key).to_string(),
                        value: value.to_string(),
                    },
                    super::Arg::KeyList { key, values } => Arg::KeyList {
                        key: (*key).to_string(),
                        values: values.iter().map(ToString::to_string).collect(),
                    },
                    super::Arg::Bare(w) => Arg::Bare((*w).to_string()),
                })
                .collect();
            Self {
                number: line.number,
                head: line.head.to_string(),
                args,
            }
        }
    }

    fn split_words(raw: &str, number: usize) -> Result<Vec<String>, DslError> {
        let mut words = Vec::new();
        let mut current = String::new();
        let mut in_quotes = false;
        let mut chars = raw.chars().peekable();
        while let Some(c) = chars.next() {
            if in_quotes {
                if c == '"' {
                    in_quotes = false;
                    // An empty quoted string is a valid (empty) word.
                    words.push(std::mem::take(&mut current));
                } else {
                    current.push(c);
                }
                continue;
            }
            match c {
                '"' => {
                    in_quotes = true;
                    // `key="..."`: splice the quoted text onto the pending word.
                    if !current.is_empty() && !current.ends_with('=') {
                        return Err(DslError::syntax(
                            number,
                            "quote may only start a word or follow `=`",
                        ));
                    }
                    if current.ends_with('=') {
                        // Consume the quoted part into the same word.
                        let mut quoted = String::new();
                        let mut closed = false;
                        for qc in chars.by_ref() {
                            if qc == '"' {
                                closed = true;
                                break;
                            }
                            quoted.push(qc);
                        }
                        if !closed {
                            return Err(DslError::syntax(number, "unterminated string literal"));
                        }
                        current.push_str(&quoted);
                        words.push(std::mem::take(&mut current));
                        in_quotes = false;
                    }
                }
                '#' => break,
                '/' if chars.peek() == Some(&'/') => break,
                c if c.is_whitespace() => {
                    if !current.is_empty() {
                        words.push(std::mem::take(&mut current));
                    }
                }
                c => current.push(c),
            }
        }
        if in_quotes {
            return Err(DslError::syntax(number, "unterminated string literal"));
        }
        if !current.is_empty() {
            words.push(current);
        }
        Ok(words)
    }

    pub fn lex(input: &str) -> Result<Vec<Line>, DslError> {
        let mut out = Vec::new();
        for (idx, raw) in input.lines().enumerate() {
            let number = idx + 1;
            let words = split_words(raw, number)?;
            if words.is_empty() {
                continue;
            }
            let head = words[0].clone();
            let mut args = Vec::new();
            let mut i = 1;
            while i < words.len() {
                let w = &words[i];
                if w == "=" {
                    let key = match args.pop() {
                        Some(Arg::Bare(k)) => k,
                        _ => {
                            return Err(DslError::syntax(number, "`=` must follow a bare key word"))
                        }
                    };
                    let values = words[i + 1..].to_vec();
                    args.push(Arg::KeyList { key, values });
                    break;
                }
                if let Some(eq) = w.find('=') {
                    let (key, value) = w.split_at(eq);
                    let value = &value[1..];
                    if value.is_empty() {
                        let values = words[i + 1..].to_vec();
                        args.push(Arg::KeyList {
                            key: key.to_string(),
                            values,
                        });
                        break;
                    }
                    args.push(Arg::KeyValue {
                        key: key.to_string(),
                        value: value.to_string(),
                    });
                } else {
                    args.push(Arg::Bare(w.clone()));
                }
                i += 1;
            }
            out.push(Line { number, head, args });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_units::rng::SplitMix64;

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
    fn pairs_iterates_in_order() {
        let lines = lex("T a=1 b=2 c=3").expect("lexes");
        let pairs: Vec<_> = lines[0].pairs().collect();
        assert_eq!(pairs, vec![("a", "1"), ("b", "2"), ("c", "3")]);
    }

    /// The lexer's lines, copied into the reference's owned form.
    fn owned(input: &str) -> Result<Vec<reference::Line>, DslError> {
        lex(input).map(|lines| lines.iter().map(reference::Line::from).collect())
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
    fn preset_sources() -> Vec<String> {
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

    /// Seeded differential fuzz: over random text, mangled presets and
    /// hand-picked edge cases, the lexer yields the same lines (number,
    /// head, every argument's kind, key and text) and the same first
    /// error (line and message) as the reference lexer it replaced.
    #[test]
    fn fuzz_lexer_matches_reference() {
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
        assert!(inputs.len() >= 10_000, "only {} inputs", inputs.len());
        let (mut clean, mut errors) = (0, Vec::new());
        for input in &inputs {
            let expected = reference::lex(input);
            assert_eq!(owned(input), expected, "{input:?}");
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
