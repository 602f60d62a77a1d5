//! Operation patterns (§III.B.4).
//!
//! A pattern is "a series of commands which is assumed to repeat in a
//! continuous loop", one command per control-clock cycle. The paper's
//! example `Pattern loop= act nop wrt nop rd nop pre nop` is eight slots:
//! the device power is the slot-weighted mix of the command powers plus
//! the ever-present clock/background power.

use crate::error::ModelError;

/// One slot of a command pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Command {
    /// Row activate (`act`).
    Activate,
    /// Row precharge (`pre`).
    Precharge,
    /// Column read (`rd`).
    Read,
    /// Column write (`wrt`).
    Write,
    /// No operation (`nop`).
    Nop,
    /// CKE-low power-down entry (`pde`): the clock tree gates off and
    /// the device holds at IDD2P/IDD3P until [`Command::PowerDownExit`].
    PowerDownEnter,
    /// CKE-high power-down exit (`pdx`).
    PowerDownExit,
    /// Self-refresh entry (`sre`): CKE low with the device refreshing
    /// itself from its internal oscillator (IDD6).
    SelfRefreshEnter,
    /// Self-refresh exit (`srx`).
    SelfRefreshExit,
    /// One auto-refresh command (`ref`), refreshing a batch of rows.
    Refresh,
}

impl Command {
    /// All commands, in display order.
    pub const ALL: [Command; 10] = [
        Command::Activate,
        Command::Precharge,
        Command::Read,
        Command::Write,
        Command::Nop,
        Command::PowerDownEnter,
        Command::PowerDownExit,
        Command::SelfRefreshEnter,
        Command::SelfRefreshExit,
        Command::Refresh,
    ];

    /// The mnemonic used in pattern strings (the paper's spelling).
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            Command::Activate => "act",
            Command::Precharge => "pre",
            Command::Read => "rd",
            Command::Write => "wrt",
            Command::Nop => "nop",
            Command::PowerDownEnter => "pde",
            Command::PowerDownExit => "pdx",
            Command::SelfRefreshEnter => "sre",
            Command::SelfRefreshExit => "srx",
            Command::Refresh => "ref",
        }
    }

    /// Every spelling [`Command::from_mnemonic`] accepts, lower-case:
    /// the paper's mnemonics plus common aliases.
    const SPELLINGS: [(&'static str, Command); 16] = [
        ("act", Command::Activate),
        ("activate", Command::Activate),
        ("pre", Command::Precharge),
        ("precharge", Command::Precharge),
        ("rd", Command::Read),
        ("read", Command::Read),
        ("wrt", Command::Write),
        ("wr", Command::Write),
        ("write", Command::Write),
        ("nop", Command::Nop),
        ("-", Command::Nop),
        ("pde", Command::PowerDownEnter),
        ("pdx", Command::PowerDownExit),
        ("sre", Command::SelfRefreshEnter),
        ("srx", Command::SelfRefreshExit),
        ("ref", Command::Refresh),
    ];

    /// Parses one mnemonic, ignoring ASCII case. Accepts the paper's
    /// spellings plus common aliases (`read`, `write`, `wr`, `activate`,
    /// `precharge`). Allocates nothing.
    #[must_use]
    pub fn from_mnemonic(s: &str) -> Option<Self> {
        Self::from_mnemonic_bytes(s.as_bytes())
    }

    /// [`Command::from_mnemonic`] for a token a byte-level parser has
    /// not turned into `str`; bytes outside ASCII never match.
    #[must_use]
    #[inline]
    pub fn from_mnemonic_bytes(token: &[u8]) -> Option<Self> {
        // Byte by byte rather than `<[u8]>::eq_ignore_ascii_case`, which
        // calls an out-of-line std helper for every entry it compares.
        Self::SPELLINGS
            .iter()
            .find(|(spelling, _)| {
                spelling.len() == token.len()
                    && spelling
                        .bytes()
                        .zip(token)
                        .all(|(s, t)| s == t.to_ascii_lowercase())
            })
            .map(|&(_, command)| command)
    }

    /// Whether this command only moves the CKE power state (power-down
    /// and self-refresh entries/exits) — no row or column work, so the
    /// charge model prices it at zero and the state machine bills the
    /// *time* spent in the state instead.
    #[must_use]
    pub fn is_state_transition(self) -> bool {
        matches!(
            self,
            Command::PowerDownEnter
                | Command::PowerDownExit
                | Command::SelfRefreshEnter
                | Command::SelfRefreshExit
        )
    }
}

impl core::fmt::Display for Command {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A repeating command loop, one command per control-clock cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    slots: Vec<Command>,
}

impl Pattern {
    /// Creates a pattern from explicit slots.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyPattern`] if `slots` is empty.
    pub fn new(slots: Vec<Command>) -> Result<Self, ModelError> {
        if slots.is_empty() {
            return Err(ModelError::EmptyPattern);
        }
        Ok(Self { slots })
    }

    /// Parses a whitespace-separated pattern string, e.g. the paper's
    /// `"act nop wrt nop rd nop pre nop"`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadParameter`] naming the unknown token, or
    /// [`ModelError::EmptyPattern`] for an empty string.
    ///
    /// # Examples
    ///
    /// ```
    /// use dram_core::pattern::{Command, Pattern};
    /// # fn main() -> Result<(), dram_core::ModelError> {
    /// let p = Pattern::parse("act nop wrt nop rd nop pre nop")?;
    /// assert_eq!(p.len(), 8);
    /// assert_eq!(p.share(Command::Nop), 0.5);
    /// # Ok(())
    /// # }
    /// ```
    pub fn parse(text: &str) -> Result<Self, ModelError> {
        let slots = text
            .split_whitespace()
            .map(|tok| {
                Command::from_mnemonic(tok).ok_or_else(|| ModelError::BadParameter {
                    name: "pattern",
                    reason: format!("unknown command `{tok}`"),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Self::new(slots)
    }

    /// The paper's verification pattern: one activate, write, read and
    /// precharge in eight cycles.
    #[must_use]
    pub fn paper_example() -> Self {
        Self {
            slots: vec![
                Command::Activate,
                Command::Nop,
                Command::Write,
                Command::Nop,
                Command::Read,
                Command::Nop,
                Command::Precharge,
                Command::Nop,
            ],
        }
    }

    /// The command slots.
    #[must_use]
    pub fn slots(&self) -> &[Command] {
        &self.slots
    }

    /// Number of slots in the loop.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the pattern has no slots (never true for a constructed
    /// pattern).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of slots holding `cmd`.
    #[must_use]
    pub fn count(&self, cmd: Command) -> usize {
        self.slots.iter().filter(|&&c| c == cmd).count()
    }

    /// Fraction of slots holding `cmd`.
    #[must_use]
    pub fn share(&self, cmd: Command) -> f64 {
        self.count(cmd) as f64 / self.slots.len() as f64
    }
}

impl core::fmt::Display for Pattern {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let mut first = true;
        for c in &self.slots {
            if !first {
                f.write_str(" ")?;
            }
            write!(f, "{c}")?;
            first = false;
        }
        Ok(())
    }
}

impl core::str::FromStr for Pattern {
    type Err = ModelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_paper_example() {
        let p = Pattern::parse("act nop wrt nop rd nop pre nop").expect("parses");
        assert_eq!(p, Pattern::paper_example());
        assert_eq!(p.len(), 8);
        assert_eq!(p.count(Command::Activate), 1);
        assert_eq!(p.count(Command::Nop), 4);
        assert!((p.share(Command::Activate) - 0.125).abs() < 1e-12);
        assert!((p.share(Command::Nop) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn parse_aliases_and_case() {
        let p = Pattern::parse("ACT Read WRITE wr PRE -").expect("parses");
        assert_eq!(
            p.slots(),
            &[
                Command::Activate,
                Command::Read,
                Command::Write,
                Command::Write,
                Command::Precharge,
                Command::Nop
            ]
        );
    }

    #[test]
    fn parse_rejects_unknown_token() {
        let err = Pattern::parse("act refresh").unwrap_err();
        assert!(err.to_string().contains("refresh"));
    }

    #[test]
    fn empty_pattern_is_rejected() {
        assert_eq!(Pattern::parse("").unwrap_err(), ModelError::EmptyPattern);
        assert_eq!(Pattern::new(vec![]).unwrap_err(), ModelError::EmptyPattern);
    }

    #[test]
    fn display_roundtrips() {
        let p = Pattern::paper_example();
        let text = p.to_string();
        assert_eq!(text, "act nop wrt nop rd nop pre nop");
        let back: Pattern = text.parse().expect("roundtrip");
        assert_eq!(back, p);
    }

    #[test]
    fn mnemonic_roundtrip_for_all_commands() {
        for cmd in Command::ALL {
            assert_eq!(Command::from_mnemonic(cmd.mnemonic()), Some(cmd));
        }
        assert_eq!(Command::from_mnemonic("bogus"), None);
        for (spelling, cmd) in [
            ("ACT", Command::Activate),
            ("PreCharge", Command::Precharge),
            ("READ", Command::Read),
            ("Wr", Command::Write),
            ("WRITE", Command::Write),
            ("-", Command::Nop),
        ] {
            assert_eq!(Command::from_mnemonic(spelling), Some(cmd), "{spelling}");
            assert_eq!(Command::from_mnemonic_bytes(spelling.as_bytes()), Some(cmd));
        }
        for bogus in [&b"ac"[..], b"acts", b"", b"act\xff", b"\xc3\xa4ct"] {
            assert_eq!(Command::from_mnemonic_bytes(bogus), None, "{bogus:?}");
        }
    }

    #[test]
    fn state_transitions_are_classified() {
        assert!(Command::PowerDownEnter.is_state_transition());
        assert!(Command::SelfRefreshExit.is_state_transition());
        assert!(!Command::Refresh.is_state_transition());
        assert!(!Command::Activate.is_state_transition());
        assert!(!Command::Nop.is_state_transition());
        assert_eq!(Command::from_mnemonic("REF"), Some(Command::Refresh));
    }
}
