//! Streaming trace ingestion: an incremental line decoder and a
//! power-state-machine energy fold, both O(1) in trace length, and
//! [`write_trace`], which renders a [`Schedule`] in the decoder's grammar.
//!
//! [`TraceDecoder`] is the one reader of trace text and [`StreamFold`]
//! the one implementation of trace billing. [`crate::simulate`] pushes
//! an in-memory [`Schedule`]'s commands through the fold; the server's
//! `POST /v1/trace` endpoint and `dram-power --trace` feed their bytes
//! through [`TraceDecoder::feed`] into a [`crate::TraceSession`] that
//! folds them, never materializing the command list — so every path
//! agrees bit for bit by construction. The fold runs the explicit
//! five-state CKE machine of `docs/TRACES.md`: `Active`, `Standby`,
//! `PrechargePowerDown`, `ActivePowerDown` and `SelfRefresh`, with
//! entry/exit latencies and per-state powers from the charge model.

use core::fmt::Write as _;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use dram_core::timing::{Schedule, TimedCommand};
use dram_core::{Command, Dram, PowerState};
use dram_units::{Joules, Seconds, Watts};

use crate::energy::{PowerDownPolicy, StateBreakdown, TraceReport};

/// Process-wide count of commands folded from traces.
pub fn trace_commands_total() -> &'static Arc<dram_obs::Counter> {
    static COUNTER: OnceLock<Arc<dram_obs::Counter>> = OnceLock::new();
    COUNTER.get_or_init(|| {
        dram_obs::Registry::global()
            .counter("dram_trace_commands_total", "Commands folded from traces.")
    })
}

/// Process-wide count of trace bytes fed through streaming decoders.
pub fn trace_bytes_total() -> &'static Arc<dram_obs::Counter> {
    static COUNTER: OnceLock<Arc<dram_obs::Counter>> = OnceLock::new();
    COUNTER.get_or_init(|| {
        dram_obs::Registry::global().counter(
            "dram_trace_bytes_total",
            "Bytes fed through streaming trace decoders.",
        )
    })
}

/// Process-wide per-state cycle counters of trace accounting.
fn state_cycles_total() -> &'static [Arc<dram_obs::Counter>; 5] {
    static COUNTERS: OnceLock<[Arc<dram_obs::Counter>; 5]> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        PowerState::ALL.map(|s| {
            dram_obs::Registry::global().counter(
                &format!("dram_trace_state_cycles_{}_total", s.label()),
                "Cycles billed to this power state across traces.",
            )
        })
    })
}

/// What went wrong in a streamed trace, as a machine-checkable kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceErrorKind {
    /// A line failed to parse (bad integer, unknown mnemonic, wrong
    /// token count).
    Syntax,
    /// A `!directive` the decoder does not know.
    UnknownDirective,
    /// A line exceeded [`TraceDecoder::MAX_LINE_BYTES`].
    LineTooLong,
    /// A command cycle went backwards.
    NonMonotonicCycle,
    /// A work command was issued while the device was in a CKE-low
    /// state (only the matching exit command may wake it).
    CommandWhileAsleep,
    /// An auto-refresh command while the device refreshes itself.
    RefreshDuringSelfRefresh,
    /// An illegal state-machine transition (unpaired exit, entry while
    /// banks are open, command inside an exit-latency window, ...).
    BadTransition,
    /// The declared trace length ends before the last billed cycle.
    TraceTooShort,
    /// A command breaks a bank-timing rule that
    /// [`dram_core::timing::TimingChecker`] enforces.
    Timing,
}

impl TraceErrorKind {
    /// Stable snake_case label (used in error JSON).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TraceErrorKind::Syntax => "syntax",
            TraceErrorKind::UnknownDirective => "unknown_directive",
            TraceErrorKind::LineTooLong => "line_too_long",
            TraceErrorKind::NonMonotonicCycle => "non_monotonic_cycle",
            TraceErrorKind::CommandWhileAsleep => "command_while_asleep",
            TraceErrorKind::RefreshDuringSelfRefresh => "refresh_during_self_refresh",
            TraceErrorKind::BadTransition => "bad_transition",
            TraceErrorKind::TraceTooShort => "trace_too_short",
            TraceErrorKind::Timing => "timing",
        }
    }
}

/// A typed decode/billing error with the 1-based source line (0 when
/// the error is not tied to a line, e.g. raised at `finish`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line number, 0 if unknown.
    pub line: u64,
    /// The machine-checkable kind.
    pub kind: TraceErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl TraceError {
    /// An error of `kind` at line 0, for the decoder to stamp.
    pub fn new(kind: TraceErrorKind, message: impl Into<String>) -> Self {
        Self {
            line: 0,
            kind,
            message: message.into(),
        }
    }

    fn at(line: u64, kind: TraceErrorKind, message: impl Into<String>) -> Self {
        Self {
            line,
            kind,
            message: message.into(),
        }
    }

    /// An error formatted only once it is raised, kept out of line so
    /// the paths that check for it stay small enough to inline.
    #[cold]
    #[inline(never)]
    fn raised(line: u64, kind: TraceErrorKind, message: core::fmt::Arguments<'_>) -> Self {
        Self::at(line, kind, message.to_string())
    }

    /// A command whose cycle goes backwards, at `line` (0 for the fold).
    #[cold]
    #[inline(never)]
    fn backwards(line: u64, cycle: u64, last: u64) -> Self {
        Self::raised(
            line,
            TraceErrorKind::NonMonotonicCycle,
            format_args!("cycle {cycle} after cycle {last}"),
        )
    }

    /// Stamps a line number if the error does not carry one yet.
    #[must_use]
    pub fn with_line(mut self, line: u64) -> Self {
        if self.line == 0 {
            self.line = line;
        }
        self
    }
}

impl core::fmt::Display for TraceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            f.write_str(&self.message)
        }
    }
}

impl std::error::Error for TraceError {}

/// One decoded event of the streaming trace format.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A `cycle command [bank]` line.
    Command(TimedCommand),
    /// A `!preset <name>` directive (device selection).
    Preset(String),
    /// A `!policy ...` directive (controller power-down policy).
    Policy(PowerDownPolicy),
    /// A `!length <cycles>` directive (declared trace length).
    Length(u64),
}

/// Where a [`TraceDecoder`] delivers what it decodes: each command line
/// through [`Self::command`], and each `!directive` through
/// [`Self::directive`].
///
/// Commands have a path of their own so that a sink's per-command work
/// inlines into the decoder's loop, with no [`TraceEvent`] built around
/// each command; directives take the slower, general path. Any
/// `FnMut(TraceEvent) -> Result<(), TraceError>` closure is a sink that
/// takes both as events.
///
/// A sink's error ends decoding; the decoder stamps it with the line it
/// was decoding, unless the error carries a line already.
pub trait TraceSink {
    /// Takes a command, in trace order, once the decoder has checked
    /// that its cycle does not go backwards.
    ///
    /// # Errors
    ///
    /// Any [`TraceError`]; it ends decoding.
    fn command(&mut self, command: TimedCommand) -> Result<(), TraceError>;

    /// Takes a directive: a [`TraceEvent`] other than
    /// [`TraceEvent::Command`].
    ///
    /// # Errors
    ///
    /// Any [`TraceError`]; it ends decoding.
    fn directive(&mut self, directive: TraceEvent) -> Result<(), TraceError>;
}

impl<F> TraceSink for F
where
    F: FnMut(TraceEvent) -> Result<(), TraceError>,
{
    #[inline]
    fn command(&mut self, command: TimedCommand) -> Result<(), TraceError> {
        self(TraceEvent::Command(command))
    }

    #[inline]
    fn directive(&mut self, directive: TraceEvent) -> Result<(), TraceError> {
        self(directive)
    }
}

/// A resumable decoder for the line-oriented streaming trace format.
///
/// Feed it byte chunks in any split — commands may straddle chunk
/// boundaries — and it hands what it decodes to a [`TraceSink`]: a
/// closure over [`TraceEvent`]s, or a type with a command path of its
/// own, such as [`crate::TraceSession`]. Memory is O(1): the only
/// buffered state is the partial last line, bounded by
/// [`Self::MAX_LINE_BYTES`].
///
/// Grammar: one event per line; blank lines and lines that start with
/// `#` are skipped, and a `#` later in a line is not a comment. A
/// command line is `cycle mnemonic [bank]`, its tokens separated by
/// ASCII whitespace: a `u64` cycle and a `u32` bank in decimal, each
/// with an optional leading `+`, and any ASCII-case spelling that
/// [`Command::from_mnemonic`] accepts. Directive words are separated by
/// the same ASCII whitespace.
///
/// The single-space spelling that [`write_trace`] and the other writers
/// emit — `cycle mnemonic [bank]` with one space before each token, no
/// sign and a bare `\n` — is decoded on a faster path through the same
/// grammar: a line that strays from it at any byte is read again from
/// its start by the full scan, so both give the same events and the same
/// errors.
///
/// ```
/// use dram_workload::{PowerDownPolicy, TraceCommand, TraceDecoder, TraceError};
/// use dram_workload::{TraceEvent, TraceSink};
///
/// let trace = [
///     "# device selection",
///     "!preset ddr3_1g_x16_55nm",
///     "# never | aggressive | <thr> <exit> [<sr_thr> <sr_exit>]",
///     "!policy aggressive",
///     "# declared trace length in cycles",
///     "!length 100000",
///     "# cycle mnemonic [bank]",
///     "0 act 0",
///     "12 rd 0",
///     "28 pre 0",
///     "# CKE-low entry and exit (no bank operand)",
///     "40 pde",
///     "900 pdx",
/// ]
/// .join("\n");
///
/// // A closure sink takes every event.
/// let mut events = Vec::new();
/// let mut sink = |event: TraceEvent| {
///     events.push(event);
///     Ok(())
/// };
/// let mut decoder = TraceDecoder::new();
/// decoder.feed(trace.as_bytes(), &mut sink)?;
/// decoder.finish(&mut sink)?;
/// assert_eq!(events.len(), 8);
/// assert_eq!(events[0], TraceEvent::Preset("ddr3_1g_x16_55nm".into()));
/// assert_eq!(events[1], TraceEvent::Policy(PowerDownPolicy::AGGRESSIVE));
/// assert_eq!(events[2], TraceEvent::Length(100_000));
///
/// // A struct sink takes commands on a path of their own.
/// #[derive(Default)]
/// struct Counts {
///     commands: u64,
///     last_cycle: u64,
///     directives: u64,
/// }
/// impl TraceSink for Counts {
///     fn command(&mut self, command: TraceCommand) -> Result<(), TraceError> {
///         self.commands += 1;
///         self.last_cycle = command.cycle;
///         Ok(())
///     }
///     fn directive(&mut self, _: TraceEvent) -> Result<(), TraceError> {
///         self.directives += 1;
///         Ok(())
///     }
/// }
/// let mut counts = Counts::default();
/// let mut decoder = TraceDecoder::new();
/// decoder.feed(trace.as_bytes(), &mut counts)?;
/// decoder.finish(&mut counts)?;
/// assert_eq!((counts.commands, counts.last_cycle, counts.directives), (5, 900, 3));
/// # Ok::<(), dram_workload::TraceError>(())
/// ```
#[derive(Debug, Default)]
pub struct TraceDecoder {
    carry: Vec<u8>,
    line: u64,
    /// The cycle of the last command line, 0 before the first: no
    /// cycle is below it then.
    last_cycle: u64,
    bytes: u64,
}

impl TraceDecoder {
    /// Longest accepted line, newline excluded, which bounds the
    /// decoder's memory. Every line is held to it, whatever the chunking.
    pub const MAX_LINE_BYTES: usize = 256;

    /// A fresh decoder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes buffered for a line still awaiting its newline — bounded
    /// by [`Self::MAX_LINE_BYTES`] (the O(1)-memory invariant).
    #[must_use]
    pub fn carry_len(&self) -> usize {
        self.carry.len()
    }

    /// Total bytes fed so far.
    #[must_use]
    pub fn bytes_fed(&self) -> u64 {
        self.bytes
    }

    /// Feeds one chunk, handing every completed line's command or
    /// directive to `sink`.
    ///
    /// # Errors
    ///
    /// Returns the first [`TraceError`] from parsing or from the sink
    /// (sink errors are stamped with the current line number).
    #[inline]
    pub fn feed<S: TraceSink>(&mut self, chunk: &[u8], sink: &mut S) -> Result<(), TraceError> {
        self.bytes += chunk.len() as u64;
        trace_bytes_total().add(chunk.len() as u64);
        let mut rest = chunk;
        if !self.carry.is_empty() {
            // Complete the line the previous chunk left open.
            let Some(end) = newline(rest, 0) else {
                return self.stash(rest);
            };
            self.stash(&rest[..end])?;
            rest = &rest[end + 1..];
            self.decode_carry(sink)?;
        }
        loop {
            let len = if let Some((command, len)) = single_space_command(rest) {
                self.line += 1;
                self.command(command, sink)?;
                len
            } else if let Some(len) = self.next_line(rest, sink)? {
                len
            } else {
                break;
            };
            rest = &rest[len..];
        }
        self.stash(rest)
    }

    /// Flushes a final line that arrived without a trailing newline.
    ///
    /// # Errors
    ///
    /// Returns the first [`TraceError`] from parsing or from the sink.
    pub fn finish<S: TraceSink>(&mut self, sink: &mut S) -> Result<(), TraceError> {
        if self.carry.is_empty() {
            return Ok(());
        }
        self.decode_carry(sink)
    }

    /// Buffers the start of a line still awaiting its newline.
    fn stash(&mut self, bytes: &[u8]) -> Result<(), TraceError> {
        self.check_line_budget(self.carry.len() + bytes.len())?;
        self.carry.extend_from_slice(bytes);
        Ok(())
    }

    fn check_line_budget(&self, len: usize) -> Result<(), TraceError> {
        if len > Self::MAX_LINE_BYTES {
            return Err(TraceError::at(
                self.line + 1,
                TraceErrorKind::LineTooLong,
                format!("line exceeds {} bytes", Self::MAX_LINE_BYTES),
            ));
        }
        Ok(())
    }

    /// Decodes the carried line, ended with a newline here so that a
    /// final line without one decodes like every other line.
    fn decode_carry<S: TraceSink>(&mut self, sink: &mut S) -> Result<(), TraceError> {
        let mut carried = core::mem::take(&mut self.carry);
        carried.push(b'\n');
        let decoded = self.next_line(&carried, sink);
        carried.clear();
        self.carry = carried;
        decoded.map(drop)
    }

    /// Decodes the line at the start of `bytes` into `sink` and returns
    /// its length with the newline; `None` while `bytes` holds no
    /// newline.
    fn next_line<S: TraceSink>(
        &mut self,
        bytes: &[u8],
        sink: &mut S,
    ) -> Result<Option<usize>, TraceError> {
        let (scanned, at) = scan_line(bytes);
        let Some(end) = newline(bytes, at) else {
            return Ok(None);
        };
        self.check_line_budget(end)?;
        self.line += 1;
        match scanned {
            Scanned::Command(command) => self.command(command, sink)?,
            Scanned::Other => {
                if let Some(directive) = Self::parse_other(self.line, &bytes[..end])? {
                    sink.directive(directive)
                        .map_err(|e| e.with_line(self.line))?;
                }
            }
            Scanned::Malformed(fault) => return Err(fault.error(self.line, &bytes[..end], at)),
        }
        Ok(Some(end + 1))
    }

    /// Hands a command to the sink unless its cycle goes backwards,
    /// stamping the sink's errors with the line.
    #[inline]
    fn command<S: TraceSink>(
        &mut self,
        command: TimedCommand,
        sink: &mut S,
    ) -> Result<(), TraceError> {
        if command.cycle < self.last_cycle {
            return Err(TraceError::backwards(
                self.line,
                command.cycle,
                self.last_cycle,
            ));
        }
        self.last_cycle = command.cycle;
        sink.command(command).map_err(|e| e.with_line(self.line))
    }

    /// A blank, `#` comment or `!` directive line.
    fn parse_other(line: u64, raw: &[u8]) -> Result<Option<TraceEvent>, TraceError> {
        let text = line_text(line, raw)?.trim_start_matches(is_space_char);
        match text.strip_prefix('!') {
            Some(directive) => Self::parse_directive(line, directive).map(Some),
            None => Ok(None),
        }
    }

    /// A directive's words, separated by ASCII whitespace as a command
    /// line's tokens are.
    fn parse_directive(line: u64, directive: &str) -> Result<TraceEvent, TraceError> {
        let mut tokens = directive.split(is_space_char).filter(|t| !t.is_empty());
        let name = tokens.next().unwrap_or("");
        let rest: Vec<&str> = tokens.collect();
        let syntax = |m: String| TraceError::at(line, TraceErrorKind::Syntax, m);
        match name {
            "preset" => match rest.as_slice() {
                [p] => Ok(TraceEvent::Preset((*p).to_string())),
                _ => Err(syntax("!preset takes exactly one name".into())),
            },
            "length" => match rest.as_slice() {
                [n] => n
                    .parse::<u64>()
                    .map(TraceEvent::Length)
                    .map_err(|_| syntax(format!("bad !length value {n:?}"))),
                _ => Err(syntax("!length takes exactly one cycle count".into())),
            },
            "policy" => {
                let policy =
                    match rest.as_slice() {
                        ["never"] => PowerDownPolicy::NEVER,
                        ["aggressive"] => PowerDownPolicy::AGGRESSIVE,
                        [thr, exit] | [thr, exit, "-", "-"] => PowerDownPolicy {
                            threshold_cycles: parse_u64(line, "threshold", thr)?,
                            exit_latency_cycles: parse_u64(line, "exit latency", exit)?,
                            ..PowerDownPolicy::NEVER
                        },
                        [thr, exit, sr_thr, sr_exit] => PowerDownPolicy {
                            threshold_cycles: parse_u64(line, "threshold", thr)?,
                            exit_latency_cycles: parse_u64(line, "exit latency", exit)?,
                            self_refresh_threshold_cycles: parse_u64(
                                line,
                                "self-refresh threshold",
                                sr_thr,
                            )?,
                            self_refresh_exit_latency_cycles: parse_u64(
                                line,
                                "self-refresh exit latency",
                                sr_exit,
                            )?,
                        },
                        _ => return Err(syntax(
                            "!policy takes never | aggressive | <thr> <exit> [<sr_thr> <sr_exit>]"
                                .into(),
                        )),
                    };
                Ok(TraceEvent::Policy(policy))
            }
            other => Err(TraceError::at(
                line,
                TraceErrorKind::UnknownDirective,
                format!("unknown directive !{other}"),
            )),
        }
    }
}

/// Renders a schedule as a trace in the grammar [`TraceDecoder`] reads:
/// a comment header, a `!length` directive so an idle tail survives the
/// round trip, then one `cycle mnemonic bank` line per command, the bank
/// always written.
#[must_use]
pub fn write_trace(trace: &Schedule) -> String {
    let mut out = format!("# cycle command bank\n!length {}\n", trace.cycles());
    for c in trace.commands() {
        let _ = writeln!(out, "{} {} {}", c.cycle, c.command, c.bank);
    }
    out
}

/// A line's bytes as text; a line that is not UTF-8 is a `syntax` error.
fn line_text(line: u64, raw: &[u8]) -> Result<&str, TraceError> {
    core::str::from_utf8(raw)
        .map_err(|_| TraceError::at(line, TraceErrorKind::Syntax, "line is not UTF-8"))
}

/// What one scan of a line found.
#[derive(Debug, Clone, Copy)]
enum Scanned {
    /// A well-formed `cycle mnemonic [bank]` command.
    Command(TimedCommand),
    /// A blank, `#` comment or `!` directive line.
    Other,
    /// A command line that breaks the grammar.
    Malformed(Fault),
}

/// How a command line breaks the grammar.
#[derive(Debug, Clone, Copy)]
enum Fault {
    BadCycle,
    MissingMnemonic,
    UnknownCommand,
    BadBank,
    TrailingTokens,
}

impl Fault {
    /// The `syntax` error for the command line `raw` whose scan stopped
    /// at the token at `at`: formatted only once a line has failed.
    #[cold]
    fn error(self, line: u64, raw: &[u8], at: usize) -> TraceError {
        let text = match line_text(line, raw) {
            Ok(text) => text,
            Err(e) => return e,
        };
        // A token starts at the line's start or after an ASCII byte, and
        // ends at an ASCII byte or the line's end: both are char
        // boundaries.
        let token = &text[at..token_end(raw, at)];
        let message = match self {
            Fault::BadCycle => format!("bad cycle {token:?}"),
            Fault::MissingMnemonic => "missing command mnemonic".to_owned(),
            Fault::UnknownCommand => format!("unknown command {token:?}"),
            Fault::BadBank => format!("bad bank {token:?}"),
            Fault::TrailingTokens => format!(
                "trailing tokens after {:?}",
                text.trim_matches(is_space_char)
            ),
        };
        TraceError::at(line, TraceErrorKind::Syntax, message)
    }
}

/// The six ASCII bytes `char::is_whitespace` accepts: the newline ends
/// a line, the other five separate its tokens.
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t'..=b'\r')
}

/// [`is_space`] for a `char`: no other character separates or trims.
fn is_space_char(c: char) -> bool {
    u8::try_from(c).is_ok_and(is_space)
}

/// The offset of the first byte at or after `i` that is not a token
/// separator.
fn skip_spaces(bytes: &[u8], mut i: usize) -> usize {
    while bytes.get(i).is_some_and(|&b| b != b'\n' && is_space(b)) {
        i += 1;
    }
    i
}

/// The offset of the whitespace byte that ends the token at `i`, or the
/// length of `bytes` if none does.
fn token_end(bytes: &[u8], i: usize) -> usize {
    bytes[i..]
        .iter()
        .position(|&b| is_space(b))
        .map_or(bytes.len(), |n| i + n)
}

/// The offset of the first newline at or after `i`.
#[inline]
fn newline(bytes: &[u8], i: usize) -> Option<usize> {
    bytes[i..].iter().position(|&b| b == b'\n').map(|n| i + n)
}

/// The decimal token at `i` read as `str::parse::<u64>` reads it (an
/// optional `+`, then digits, without overflow), and the offset of the
/// whitespace byte that ends it. `None` if the token is no such number
/// or runs off the end of `bytes`.
fn decimal(bytes: &[u8], i: usize) -> Option<(u64, usize)> {
    let first = i + usize::from(bytes.get(i) == Some(&b'+'));
    let mut i = first;
    let mut value = 0u64;
    while let Some(&b) = bytes.get(i) {
        if !b.is_ascii_digit() {
            break;
        }
        value = value.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
        i += 1;
    }
    (i > first && bytes.get(i).is_some_and(|&b| is_space(b))).then_some((value, i))
}

/// Scans the line at the start of `bytes` in one pass. Returns what the
/// line holds and the offset the scan stopped at: the newline after a
/// command, else the token that settled the verdict, with the line's
/// newline at or after it. A scan that runs off the end of `bytes`
/// stops there, where no newline follows, so the line waits for more.
fn scan_line(bytes: &[u8]) -> (Scanned, usize) {
    let start = skip_spaces(bytes, 0);
    if matches!(bytes.get(start), Some(b'\n' | b'#' | b'!')) {
        return (Scanned::Other, start);
    }
    let Some((cycle, i)) = decimal(bytes, start) else {
        return (Scanned::Malformed(Fault::BadCycle), start);
    };
    let word = skip_spaces(bytes, i);
    if bytes.get(word) == Some(&b'\n') {
        return (Scanned::Malformed(Fault::MissingMnemonic), word);
    }
    let i = token_end(bytes, word);
    let Some(command) = Command::from_mnemonic_bytes(&bytes[word..i]) else {
        return (Scanned::Malformed(Fault::UnknownCommand), word);
    };
    let mut at = skip_spaces(bytes, i);
    let mut bank = 0;
    if bytes.get(at) != Some(&b'\n') {
        let Some((Ok(value), i)) = decimal(bytes, at).map(|(v, i)| (u32::try_from(v), i)) else {
            return (Scanned::Malformed(Fault::BadBank), at);
        };
        bank = value;
        at = skip_spaces(bytes, i);
        if bytes.get(at) != Some(&b'\n') {
            return (Scanned::Malformed(Fault::TrailingTokens), at);
        }
    }
    let command = TimedCommand {
        cycle,
        bank,
        command,
    };
    (Scanned::Command(command), at)
}

/// The command line at the start of `bytes` in the spelling every writer
/// in the repository emits: 1 to 19 cycle digits, one space, a mnemonic
/// of graphic ASCII bytes, optionally one space and 1 to 9 bank digits,
/// then `\n`. Returns the command and the line's length with its
/// newline, or `None` at the first byte this spelling does not expect,
/// the end of `bytes` included. [`scan_line`] reads every line this
/// accepts to the same command, so a `None` only sends the line there.
#[inline]
fn single_space_command(bytes: &[u8]) -> Option<(TimedCommand, usize)> {
    let (cycle, i) = digits(bytes, 0, 19)?;
    if bytes.get(i) != Some(&b' ') {
        return None;
    }
    let word = i + 1;
    let mut i = word;
    while bytes.get(i).is_some_and(|b| (0x21..=0x7e).contains(b)) {
        i += 1;
    }
    let command = Command::from_mnemonic_bytes(&bytes[word..i])?;
    let mut bank = 0;
    if bytes.get(i) == Some(&b' ') {
        let (value, end) = digits(bytes, i + 1, 9)?;
        bank = u32::try_from(value).ok()?;
        i = end;
    }
    let command = TimedCommand {
        cycle,
        bank,
        command,
    };
    (bytes.get(i) == Some(&b'\n')).then_some((command, i + 1))
}

/// The run of 1 to `max` decimal digits at `start` as a number, and the
/// offset after it; `None` for no digit or more than `max`. Up to 19
/// digits always fit a `u64`.
#[inline]
fn digits(bytes: &[u8], start: usize, max: usize) -> Option<(u64, usize)> {
    let mut value = 0u64;
    let mut i = start;
    while let Some(&b) = bytes.get(i) {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            break;
        }
        if i - start == max {
            return None;
        }
        value = value * 10 + u64::from(digit);
        i += 1;
    }
    (i > start).then_some((value, i))
}

fn parse_u64(line: u64, what: &str, token: &str) -> Result<u64, TraceError> {
    token.parse::<u64>().map_err(|_| {
        TraceError::at(
            line,
            TraceErrorKind::Syntax,
            format!("bad {what} {token:?}"),
        )
    })
}

/// The device's explicit CKE-low residency, while commands say so.
#[derive(Debug, Clone, Copy)]
struct Sleep {
    /// State billed once the entry latency has elapsed.
    state: PowerState,
    /// State the entry-latency cycles bill at (the clock tree is still
    /// running while the device falls asleep).
    pre_state: PowerState,
    /// Entry-latency cycles not yet billed.
    entry_remaining: u64,
}

/// A single-pass energy fold over a command sequence, with an explicit
/// five-state power-state machine: the one implementation of trace
/// billing.
///
/// The fold consumes one [`TimedCommand`] at a time and keeps O(1)
/// state: per-state powers and command energies are hoisted from the
/// charge model at construction, so [`StreamFold::push`] never touches
/// the model again. [`crate::simulate`] drives it over an in-memory
/// [`Schedule`]; a [`crate::TraceSession`] drives it from a
/// [`TraceDecoder`] for the server and `dram-power --trace`.
/// Explicit CKE commands ([`Command::PowerDownEnter`] and friends) drive
/// the machine directly; idle gaps while awake are tiered by the
/// [`PowerDownPolicy`].
///
/// Billing rules (also in `docs/TRACES.md`):
///
/// * Every command cycle bills at the awake state in force *before* the
///   command executes (`Active` if any bank is open, else `Standby`).
/// * Explicit entries bill [`Self::PD_ENTRY_CYCLES`] /
///   [`Self::SR_ENTRY_CYCLES`] at the pre-entry state before the CKE-low
///   power applies; explicit exits bill their own cycle and the policy's
///   exit latency at the awake state, and any non-nop command inside
///   that window, the exit's own cycle included, is a
///   [`TraceErrorKind::BadTransition`].
/// * Awake idle gaps tier into power-down past `threshold_cycles` and —
///   only with all banks precharged — into self-refresh past
///   `self_refresh_threshold_cycles`, each minus its exit latency.
/// * The fold counts whole cycles per state; [`Self::finish`] prices
///   each state once, as its power × its cycles × the cycle time.
#[derive(Debug)]
pub struct StreamFold {
    policy: PowerDownPolicy,
    /// Each command's charge-model energy, indexed by `Command as usize`.
    command_energies: [Joules; Command::ALL.len()],
    /// [`Self::command_energies`] for the row commands `act` and `pre`,
    /// zero for the rest.
    row_energies: [Joules; Command::ALL.len()],
    state_power: [Watts; 5],
    cycle_time: f64,
    bits_per_column: f64,
    banks: u32,
    open: Vec<bool>,
    open_count: u32,
    cursor: u64,
    /// The cycle of the last command folded, 0 before the first.
    last_cycle: u64,
    sleep: Option<Sleep>,
    cycles: [u64; 5],
    command_energy: Joules,
    row_energy: Joules,
    column_accesses: u64,
    commands: u64,
    started: Instant,
}

impl StreamFold {
    /// Cycles to fall into power-down after the entry command (billed
    /// at the pre-entry state).
    pub const PD_ENTRY_CYCLES: u64 = 3;
    /// Cycles to fall into self-refresh after the entry command.
    pub const SR_ENTRY_CYCLES: u64 = 8;

    /// Builds a fold for one device; all model lookups happen here.
    #[must_use]
    pub fn new(dram: &Dram, policy: PowerDownPolicy) -> Self {
        let spec = &dram.description().spec;
        let mut command_energies = [Joules::ZERO; Command::ALL.len()];
        let mut row_energies = [Joules::ZERO; Command::ALL.len()];
        for command in Command::ALL {
            let energy = dram.command_energy(command);
            command_energies[command as usize] = energy;
            if matches!(command, Command::Activate | Command::Precharge) {
                row_energies[command as usize] = energy;
            }
        }
        Self {
            policy,
            command_energies,
            row_energies,
            state_power: PowerState::ALL.map(|s| dram.state_power(s)),
            cycle_time: 1.0 / spec.control_clock.hertz(),
            bits_per_column: f64::from(spec.bits_per_column_access()),
            banks: spec.banks(),
            open: vec![false; spec.banks() as usize],
            open_count: 0,
            cursor: 0,
            last_cycle: 0,
            sleep: None,
            cycles: [0; 5],
            command_energy: Joules::ZERO,
            row_energy: Joules::ZERO,
            column_accesses: 0,
            commands: 0,
            started: Instant::now(),
        }
    }

    /// Replaces the policy. Only legal before the first command.
    ///
    /// # Errors
    ///
    /// [`TraceErrorKind::BadTransition`] after the first command — the
    /// already-billed prefix used the old tiering.
    pub fn set_policy(&mut self, policy: PowerDownPolicy) -> Result<(), TraceError> {
        if self.commands > 0 {
            return Err(TraceError::new(
                TraceErrorKind::BadTransition,
                "!policy must precede the first command",
            ));
        }
        self.policy = policy;
        Ok(())
    }

    /// Commands folded so far.
    #[must_use]
    pub fn commands(&self) -> u64 {
        self.commands
    }

    #[inline]
    fn bill(&mut self, state: PowerState, cycles: u64) {
        self.cycles[state as usize] += cycles;
    }

    #[inline]
    fn awake_state(&self) -> PowerState {
        if self.open_count > 0 {
            PowerState::ActiveStandby
        } else {
            PowerState::PrechargedStandby
        }
    }

    /// Bills an awake idle window with the policy's tiering.
    #[inline]
    fn bill_awake_gap(&mut self, gap: u64) {
        let awake = self.awake_state();
        // The self-refresh tier needs all banks precharged; power-down
        // has an open-bank variant.
        let sr = if self.open_count == 0 && gap > self.policy.self_refresh_threshold_cycles {
            gap.saturating_sub(self.policy.self_refresh_threshold_cycles)
                .saturating_sub(self.policy.self_refresh_exit_latency_cycles)
        } else {
            0
        };
        let pd = if gap > self.policy.threshold_cycles {
            gap.saturating_sub(self.policy.threshold_cycles)
                .saturating_sub(self.policy.exit_latency_cycles)
                .saturating_sub(sr)
        } else {
            0
        };
        let pd_state = if self.open_count > 0 {
            PowerState::ActivePowerDown
        } else {
            PowerState::PrechargePowerDown
        };
        self.bill(awake, gap - pd - sr);
        self.bill(pd_state, pd);
        self.bill(PowerState::SelfRefresh, sr);
    }

    /// Bills an explicitly-slept window: entry latency at the pre-entry
    /// state, the rest at the CKE-low state.
    fn bill_sleep_gap(&mut self, gap: u64) {
        let Some(sleep) = self.sleep.as_mut() else {
            return;
        };
        let entry = gap.min(sleep.entry_remaining);
        sleep.entry_remaining -= entry;
        let (pre, state) = (sleep.pre_state, sleep.state);
        self.bill(pre, entry);
        self.bill(state, gap - entry);
    }

    /// Folds one command into the accounting.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] (line 0 — the decoder stamps it) on any
    /// state-machine violation; see [`TraceErrorKind`].
    // Always inlined, with the awake path, so that a decoder's sink folds
    // each command in the decoder's own loop; the asleep path and every
    // error stay out of line.
    #[inline(always)]
    pub fn push(&mut self, c: TimedCommand) -> Result<(), TraceError> {
        if c.command == Command::Nop {
            return Ok(());
        }
        if c.cycle < self.last_cycle {
            return Err(TraceError::backwards(0, c.cycle, self.last_cycle));
        }
        if c.bank >= self.banks && Self::addresses_bank(c.command) {
            return Err(TraceError::raised(
                0,
                TraceErrorKind::Syntax,
                format_args!("bank {} of {}", c.bank, self.banks),
            ));
        }

        if self.sleep.is_some() {
            self.push_asleep(c)?;
        } else {
            self.push_awake(c)?;
        }

        self.last_cycle = c.cycle;
        self.commands += 1;
        self.command_energy += self.command_energies[c.command as usize];
        self.row_energy += self.row_energies[c.command as usize];
        Ok(())
    }

    #[inline]
    fn addresses_bank(command: Command) -> bool {
        matches!(
            command,
            Command::Activate | Command::Precharge | Command::Read | Command::Write
        )
    }

    fn push_asleep(&mut self, c: TimedCommand) -> Result<(), TraceError> {
        let sleep = self.sleep.expect("asleep");
        let in_self_refresh = sleep.state == PowerState::SelfRefresh;
        let exit_latency = match c.command {
            Command::PowerDownExit if !in_self_refresh => self.policy.exit_latency_cycles,
            Command::SelfRefreshExit if in_self_refresh => {
                self.policy.self_refresh_exit_latency_cycles
            }
            Command::PowerDownExit | Command::SelfRefreshExit => {
                return Err(TraceError::new(
                    TraceErrorKind::BadTransition,
                    format!(
                        "{} does not exit {}",
                        c.command.mnemonic(),
                        sleep.state.label()
                    ),
                ));
            }
            Command::Refresh if in_self_refresh => {
                return Err(TraceError::new(
                    TraceErrorKind::RefreshDuringSelfRefresh,
                    format!("refresh at cycle {}: device is refreshing itself", c.cycle),
                ));
            }
            other => {
                return Err(TraceError::new(
                    TraceErrorKind::CommandWhileAsleep,
                    format!(
                        "{} at cycle {} while in {}",
                        other.mnemonic(),
                        c.cycle,
                        sleep.state.label()
                    ),
                ));
            }
        };
        if c.cycle < self.cursor {
            return Err(TraceError::new(
                TraceErrorKind::BadTransition,
                format!("exit at cycle {} overlaps the entry command", c.cycle),
            ));
        }
        let cursor = Self::billed_through(c, exit_latency)?;
        self.bill_sleep_gap(c.cycle - self.cursor);
        self.sleep = None;
        // The exit command cycle and the wake latency run with the
        // clock tree restarting: billed at the awake state.
        let awake = self.awake_state();
        self.bill(awake, cursor - c.cycle);
        self.cursor = cursor;
        Ok(())
    }

    /// The cursor once `c` has billed its own cycle and `latency` exit
    /// cycles after it. The cursor is the first unbilled cycle, so the
    /// last billable cycle is `u64::MAX - 1`; a command that would bill
    /// past it is a [`TraceErrorKind::Syntax`] error.
    #[inline]
    fn billed_through(c: TimedCommand, latency: u64) -> Result<u64, TraceError> {
        match c
            .cycle
            .checked_add(1)
            .and_then(|end| end.checked_add(latency))
        {
            Some(cursor) => Ok(cursor),
            None => Err(Self::past_the_last_cycle(c, latency)),
        }
    }

    #[cold]
    #[inline(never)]
    fn past_the_last_cycle(c: TimedCommand, latency: u64) -> TraceError {
        let exit = if latency > 0 {
            format!(" plus {latency} exit cycles")
        } else {
            String::new()
        };
        TraceError::new(
            TraceErrorKind::Syntax,
            format!(
                "{} at cycle {}{exit} passes the last billable cycle, {}",
                c.command.mnemonic(),
                c.cycle,
                u64::MAX - 1
            ),
        )
    }

    #[inline(always)]
    fn push_awake(&mut self, c: TimedCommand) -> Result<(), TraceError> {
        if c.cycle < self.cursor {
            // A pile-up on the last command's own cycle is legal when
            // that command billed no exit latency, so the cursor sits
            // one past it (the cycle is already billed). Anything else
            // sits inside an exit-latency window, the exit's own cycle
            // included.
            if c.cycle != self.last_cycle || self.cursor != c.cycle + 1 {
                return Err(TraceError::raised(
                    0,
                    TraceErrorKind::BadTransition,
                    format_args!(
                        "command at cycle {} inside an exit-latency window ending at {}",
                        c.cycle, self.cursor
                    ),
                ));
            }
        } else {
            let cursor = Self::billed_through(c, 0)?;
            self.bill_awake_gap(c.cycle - self.cursor);
            let awake = self.awake_state();
            self.bill(awake, 1);
            self.cursor = cursor;
        }
        match c.command {
            Command::Activate => {
                let slot = &mut self.open[c.bank as usize];
                if !*slot {
                    *slot = true;
                    self.open_count += 1;
                }
            }
            Command::Precharge => {
                let slot = &mut self.open[c.bank as usize];
                if *slot {
                    *slot = false;
                    self.open_count -= 1;
                }
            }
            Command::Read | Command::Write => {
                self.column_accesses += 1;
            }
            Command::Refresh => {
                if self.open_count > 0 {
                    return Err(TraceError::raised(
                        0,
                        TraceErrorKind::BadTransition,
                        format_args!("refresh at cycle {} with open banks", c.cycle),
                    ));
                }
            }
            Command::PowerDownEnter => {
                let pre = self.awake_state();
                self.sleep = Some(Sleep {
                    state: if self.open_count > 0 {
                        PowerState::ActivePowerDown
                    } else {
                        PowerState::PrechargePowerDown
                    },
                    pre_state: pre,
                    entry_remaining: Self::PD_ENTRY_CYCLES,
                });
            }
            Command::SelfRefreshEnter => {
                if self.open_count > 0 {
                    return Err(TraceError::raised(
                        0,
                        TraceErrorKind::BadTransition,
                        format_args!("self-refresh entry at cycle {} with open banks", c.cycle),
                    ));
                }
                self.sleep = Some(Sleep {
                    state: PowerState::SelfRefresh,
                    pre_state: PowerState::PrechargedStandby,
                    entry_remaining: Self::SR_ENTRY_CYCLES,
                });
            }
            Command::PowerDownExit | Command::SelfRefreshExit => {
                return Err(TraceError::raised(
                    0,
                    TraceErrorKind::BadTransition,
                    format_args!("{} at cycle {} while awake", c.command.mnemonic(), c.cycle),
                ));
            }
            Command::Nop => {}
        }
        Ok(())
    }

    /// Bills the idle tail and closes the accounting into a
    /// [`TraceReport`]. `length` is the declared trace length (from a
    /// `!length` directive); without one the trace ends right after its
    /// last billed cycle.
    ///
    /// # Errors
    ///
    /// [`TraceErrorKind::TraceTooShort`] if `length` ends before a
    /// cycle that was already billed.
    pub fn finish(mut self, length: Option<u64>) -> Result<TraceReport, TraceError> {
        let end = match length {
            Some(l) if l < self.cursor => {
                return Err(TraceError::new(
                    TraceErrorKind::TraceTooShort,
                    format!("!length {l} ends before billed cycle {}", self.cursor),
                ));
            }
            Some(l) => l,
            None => self.cursor,
        };
        let tail = end - self.cursor;
        if self.sleep.is_some() {
            // The device is left asleep: no exit latency is billed.
            self.bill_sleep_gap(tail);
        } else {
            self.bill_awake_gap(tail);
        }
        self.cursor = end;

        let cycles = self.cycles;
        let states = StateBreakdown {
            cycles,
            energy: core::array::from_fn(|i| {
                self.state_power[i] * Seconds::new(cycles[i] as f64 * self.cycle_time)
            }),
        };
        let command_energy = self.command_energy;
        let background_energy =
            states.energy(PowerState::ActiveStandby) + states.energy(PowerState::PrechargedStandby);
        let power_down_energy = states.energy(PowerState::PrechargePowerDown)
            + states.energy(PowerState::ActivePowerDown);
        let self_refresh_energy = states.energy(PowerState::SelfRefresh);
        let power_down_cycles = states.cycles(PowerState::PrechargePowerDown)
            + states.cycles(PowerState::ActivePowerDown);
        let self_refresh_cycles = states.cycles(PowerState::SelfRefresh);
        let energy = command_energy + background_energy + power_down_energy + self_refresh_energy;
        let duration = Seconds::new(end as f64 * self.cycle_time);
        let bits = self.column_accesses as f64 * self.bits_per_column;
        let average_power = if duration.seconds() > 0.0 {
            Watts::new(energy.joules() / duration.seconds())
        } else {
            Watts::ZERO
        };
        let energy_per_bit = if bits > 0.0 {
            energy / bits
        } else {
            Joules::ZERO
        };

        trace_commands_total().add(self.commands);
        let cycle_counters = state_cycles_total();
        for s in PowerState::ALL {
            cycle_counters[s as usize].add(states.cycles(s));
        }
        dram_obs::ManualSpan::new("workload.fold", self.started, Instant::now())
            .arg("commands", self.commands)
            .arg("cycles", end)
            .commit();

        Ok(TraceReport {
            energy,
            duration,
            average_power,
            energy_per_bit,
            command_energy,
            background_energy,
            power_down_energy,
            power_down_cycles,
            bits,
            row_energy: self.row_energy,
            self_refresh_energy,
            self_refresh_cycles,
            states,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_core::reference::ddr3_1g_x16_55nm;

    fn model() -> Dram {
        Dram::new(ddr3_1g_x16_55nm()).expect("valid")
    }

    fn decode_all(input: &[u8], chunk: usize) -> Result<Vec<TraceEvent>, TraceError> {
        let mut events = Vec::new();
        let mut decoder = TraceDecoder::new();
        let mut sink = |e: TraceEvent| {
            events.push(e);
            Ok(())
        };
        for piece in input.chunks(chunk.max(1)) {
            decoder.feed(piece, &mut sink)?;
            assert!(decoder.carry_len() <= TraceDecoder::MAX_LINE_BYTES);
        }
        decoder.finish(&mut sink)?;
        Ok(events)
    }

    /// A struct sink: records each command and directive through its own
    /// method, and refuses the `fail_at`-th event (1-based) with an
    /// error that carries no line, for the decoder to stamp.
    #[derive(Debug, Default)]
    struct Recorder {
        events: Vec<TraceEvent>,
        fail_at: Option<usize>,
    }

    impl Recorder {
        fn take(&mut self, event: TraceEvent) -> Result<(), TraceError> {
            if self.fail_at == Some(self.events.len() + 1) {
                return Err(TraceError::new(
                    TraceErrorKind::BadTransition,
                    format!("sink refused {event:?}"),
                ));
            }
            self.events.push(event);
            Ok(())
        }
    }

    impl TraceSink for Recorder {
        fn command(&mut self, command: TimedCommand) -> Result<(), TraceError> {
            self.take(TraceEvent::Command(command))
        }

        fn directive(&mut self, directive: TraceEvent) -> Result<(), TraceError> {
            assert!(
                !matches!(directive, TraceEvent::Command(_)),
                "a command took the directive path"
            );
            self.take(directive)
        }
    }

    /// Feeds `input` cut at `cuts` (piece lengths, the rest in one
    /// piece) to a [`Recorder`]: the events before the first error, and
    /// that error.
    fn decode_into(recorder: &mut Recorder, input: &[u8], cuts: &[usize]) -> Option<TraceError> {
        let mut decoder = TraceDecoder::new();
        let mut rest = input;
        for &cut in cuts {
            let (piece, tail) = rest.split_at(cut.min(rest.len()));
            rest = tail;
            if let Err(e) = decoder.feed(piece, recorder) {
                return Some(e);
            }
            assert!(decoder.carry_len() <= TraceDecoder::MAX_LINE_BYTES);
        }
        decoder
            .feed(rest, recorder)
            .and_then(|()| decoder.finish(recorder))
            .err()
    }

    #[test]
    fn decoder_is_split_invariant() {
        let input = b"# comment\n!preset ddr3_1g_x16_55nm\n!policy aggressive\n0 act 2\n12 rd 2\n28 pre 2\n!length 100\n";
        let whole = decode_all(input, input.len()).expect("whole");
        for chunk in [1, 2, 3, 7, 16] {
            assert_eq!(
                decode_all(input, chunk).expect("split"),
                whole,
                "chunk {chunk}"
            );
            let cuts = vec![chunk; input.len() / chunk];
            let mut recorder = Recorder::default();
            assert_eq!(decode_into(&mut recorder, input, &cuts), None);
            assert_eq!(recorder.events, whole, "struct sink, chunk {chunk}");
        }
        assert_eq!(whole.len(), 6);
        assert!(matches!(&whole[0], TraceEvent::Preset(p) if p == "ddr3_1g_x16_55nm"));
        assert!(matches!(whole[1], TraceEvent::Policy(p) if p == PowerDownPolicy::AGGRESSIVE));
        assert!(matches!(
            whole[2],
            TraceEvent::Command(TimedCommand {
                cycle: 0,
                bank: 2,
                command: Command::Activate
            })
        ));
        assert!(matches!(whole[5], TraceEvent::Length(100)));
    }

    #[test]
    fn decoder_accepts_final_line_without_newline() {
        let events = decode_all(b"0 act 0\n5 pre 0", 4).expect("ok");
        assert_eq!(events.len(), 2);
    }

    /// An error a sink raises from `command` or from `directive` comes
    /// back stamped with the line of the command or directive it
    /// refused, on the single-space path, the full scan and a final
    /// line without a newline alike; an error that carries a line keeps
    /// it.
    #[test]
    fn sink_errors_are_stamped_with_their_own_line() {
        let input = b"# header\n!policy never\n0 act 0\n\n12\trd 0\n!length 90\n28 pre 0";
        // Event n (1-based) sits on line lines[n - 1].
        let lines = [2, 3, 5, 6, 7];
        for (n, &line) in lines.iter().enumerate() {
            for chunk in [1, 5, input.len()] {
                let mut recorder = Recorder {
                    fail_at: Some(n + 1),
                    ..Recorder::default()
                };
                let cuts = vec![chunk; input.len() / chunk];
                let err = decode_into(&mut recorder, input, &cuts).expect("refused");
                assert_eq!(err.line, line, "event {} chunk {chunk}", n + 1);
                assert_eq!(recorder.events.len(), n, "event {} chunk {chunk}", n + 1);
            }
        }
        let mut decoder = TraceDecoder::new();
        let err = decoder
            .feed(b"0 act 0\n", &mut |_: TraceEvent| {
                Err(TraceError::at(99, TraceErrorKind::Syntax, "already placed"))
            })
            .unwrap_err();
        assert_eq!(err.line, 99);
    }

    /// A command on an exit's own cycle sits inside the exit-latency
    /// window like any later cycle of it: a `bad_transition` after `pdx`
    /// and after `srx` under every policy with an exit latency. Under
    /// `never` no exit latency is billed, and the pile-up stays legal.
    #[test]
    fn a_command_on_an_exits_own_cycle_is_inside_its_window() {
        let dram = model();
        let cmd = |cycle, command| TimedCommand {
            cycle,
            bank: 0,
            command,
        };
        let custom = PowerDownPolicy {
            threshold_cycles: 64,
            exit_latency_cycles: 10,
            self_refresh_threshold_cycles: 8192,
            self_refresh_exit_latency_cycles: 600,
        };
        let pairs = [
            (Command::PowerDownEnter, Command::PowerDownExit),
            (Command::SelfRefreshEnter, Command::SelfRefreshExit),
        ];
        for (enter, exit) in pairs {
            for policy in [PowerDownPolicy::AGGRESSIVE, custom, PowerDownPolicy::NEVER] {
                let latency = match exit {
                    Command::PowerDownExit => policy.exit_latency_cycles,
                    _ => policy.self_refresh_exit_latency_cycles,
                };
                let asleep_then = |next: TimedCommand| {
                    let mut fold = StreamFold::new(&dram, policy);
                    fold.push(cmd(0, enter)).expect("enters");
                    fold.push(cmd(1000, exit)).expect("exits");
                    fold.push(next).map(|()| fold)
                };
                let piled = asleep_then(cmd(1000, Command::Activate));
                if latency == 0 {
                    let report = piled
                        .expect("no exit latency: the pile-up is legal")
                        .finish(None)
                        .expect("report");
                    assert_eq!(report.states.total_cycles(), 1001, "{exit:?} {policy:?}");
                    continue;
                }
                let err = piled.unwrap_err();
                assert_eq!(
                    err.kind,
                    TraceErrorKind::BadTransition,
                    "{exit:?} {policy:?}"
                );
                assert_eq!(
                    err.message,
                    format!(
                        "command at cycle 1000 inside an exit-latency window ending at {}",
                        1001 + latency
                    )
                );
                assert!(asleep_then(cmd(1000 + latency, Command::Activate)).is_err());
                asleep_then(cmd(1001 + latency, Command::Activate))
                    .expect("legal once the window ends");
            }
        }
        // A pile-up on a command that billed no exit latency stays legal.
        let mut fold = StreamFold::new(&dram, PowerDownPolicy::AGGRESSIVE);
        for c in [
            cmd(0, Command::Activate),
            cmd(0, Command::Read),
            cmd(0, Command::Precharge),
        ] {
            fold.push(c).expect("same-cycle pile-up");
        }
        assert_eq!(fold.finish(None).expect("report").states.total_cycles(), 1);
    }

    #[test]
    fn decoder_rejects_garbage_with_line_numbers() {
        let err = decode_all(b"0 act 0\nbogus line here\n", 5).unwrap_err();
        assert_eq!(err.kind, TraceErrorKind::Syntax);
        assert_eq!(err.line, 2);
        let err = decode_all(b"!teleport now\n", 3).unwrap_err();
        assert_eq!(err.kind, TraceErrorKind::UnknownDirective);
        let err = decode_all(b"5 act 0\n3 act 1\n", 100).unwrap_err();
        assert_eq!(err.kind, TraceErrorKind::NonMonotonicCycle);
        assert_eq!(err.line, 2);
        let long = vec![b'x'; 2 * TraceDecoder::MAX_LINE_BYTES];
        let err = decode_all(&long, 64).unwrap_err();
        assert_eq!(err.kind, TraceErrorKind::LineTooLong);
        // Every complete line is held to the budget however the bytes
        // were split, a single chunk included: a command padded with
        // spaces, a long comment, and garbage that would otherwise be a
        // syntax error.
        let padded = [&b"0 act 0"[..], &[b' '; 300], b"\n"].concat();
        let comment = [&b"0 act 0\n#"[..], &[b'c'; 5_000], b"\n"].concat();
        let garbage = [&long[..], b"\n"].concat();
        for (input, line) in [(&padded, 1), (&comment, 2), (&garbage, 1)] {
            for chunk in [64, 150, input.len()] {
                let err = decode_all(input, chunk).unwrap_err();
                assert_eq!(err.kind, TraceErrorKind::LineTooLong, "chunk {chunk}");
                assert_eq!(err.line, line, "chunk {chunk}");
            }
        }
    }

    /// Each way a command line can break the grammar, with the exact
    /// message it gets.
    #[test]
    fn malformed_command_lines_get_exact_messages() {
        for (text, message) in [
            (&b"x act 0"[..], r#"bad cycle "x""#),
            (b"+ act 0", r#"bad cycle "+""#),
            (b"-5 act 0", r#"bad cycle "-5""#),
            (b"5act 0", r#"bad cycle "5act""#),
            (
                b"18446744073709551616 act",
                r#"bad cycle "18446744073709551616""#,
            ),
            (b"5", "missing command mnemonic"),
            (b" 5 \t ", "missing command mnemonic"),
            (b"5 rdx 0", r#"unknown command "rdx""#),
            (b"5 act 4294967296", r#"bad bank "4294967296""#),
            (b"5 act # note", r##"bad bank "#""##),
            (b"5 act 0 x", r#"trailing tokens after "5 act 0 x""#),
            (b"\t5 act 0 x \r", r#"trailing tokens after "5 act 0 x""#),
            (b"5 act\xff 0", "line is not UTF-8"),
            (b"# comment \xff", "line is not UTF-8"),
        ] {
            let input = [&b"0 nop\n"[..], text, b"\n"].concat();
            let err = decode_all(&input, input.len()).unwrap_err();
            assert_eq!(err.kind, TraceErrorKind::Syntax, "{text:?}");
            assert_eq!(err.line, 2, "{text:?}");
            assert_eq!(err.message, message, "{text:?}");
            assert_eq!(reference_decode(&input).1, Some(err), "{text:?}");
        }
    }

    /// The lexical rules: any of the five in-line ASCII whitespace bytes
    /// separate tokens, CRLF ends lines, numbers take a leading `+`, and
    /// mnemonics and their aliases match in any ASCII case.
    #[test]
    fn decoder_accepts_ascii_whitespace_signs_and_any_case() {
        let text =
            b"\t+0\x0bACT\x0c+2\r\n 12 Read 2 \r\n28\tPreCharge\t2\n40 PDE\n\x0b\r\n44 pdx\n";
        let command = |cycle, command, bank| {
            TraceEvent::Command(TimedCommand {
                cycle,
                bank,
                command,
            })
        };
        let expected = vec![
            command(0, Command::Activate, 2),
            command(12, Command::Read, 2),
            command(28, Command::Precharge, 2),
            command(40, Command::PowerDownEnter, 0),
            command(44, Command::PowerDownExit, 0),
        ];
        for chunk in [1, 3, text.len()] {
            assert_eq!(decode_all(text, chunk).expect("decodes"), expected);
        }
        assert_eq!(reference_decode(text), (expected, None));
    }

    /// The text between `open` and `close` after the first `section` of
    /// `source`.
    fn quoted<'a>(source: &'a str, section: &str, open: &str, close: &str) -> &'a str {
        let body = &source[source.find(section).expect(section)..];
        let start = body.find(open).expect(open) + open.len();
        &body[start..start + body[start..].find(close).expect(close)]
    }

    /// The grammar example of docs/TRACES.md.
    fn documented_grammar_example() -> &'static str {
        let doc = include_str!("../../../docs/TRACES.md");
        quoted(doc, "## Trace grammar", "```text\n", "```")
    }

    /// The grammar example of docs/TRACES.md decodes as written.
    #[test]
    fn documented_grammar_example_decodes() {
        let events = decode_all(documented_grammar_example().as_bytes(), 7).expect("decodes");
        assert_eq!(events.len(), 11);
    }

    /// The hand-written traces — the docs/TRACES.md grammar example and
    /// the trace examples/trace_streaming.rs uploads — keep the bank
    /// timing of the 55 nm DDR3 reference they name.
    #[test]
    fn hand_written_traces_are_timing_legal() {
        let example = include_str!("../../../examples/trace_streaming.rs");
        let d = ddr3_1g_x16_55nm();
        for text in [
            documented_grammar_example(),
            quoted(example, "const TRACE", "\"\\\n", "\";"),
        ] {
            let commands: Vec<TimedCommand> = decode_all(text.as_bytes(), text.len())
                .expect("decodes")
                .into_iter()
                .filter_map(|e| match e {
                    TraceEvent::Command(c) => Some(c),
                    _ => None,
                })
                .collect();
            assert!(commands.len() > 4, "{text}");
            Schedule::new(commands, u64::MAX)
                .expect("builds")
                .validate_trace(&d.timing, d.spec.control_clock, d.spec.banks())
                .unwrap_or_else(|e| panic!("{e} in\n{text}"));
        }
    }

    /// Only ASCII whitespace separates command tokens: a line split by
    /// U+3000 and U+00A0, which the `str` reference splits, is one
    /// malformed cycle token.
    #[test]
    fn non_ascii_whitespace_does_not_separate_command_tokens() {
        let text = "0 act 0\n5\u{3000}act\u{a0}3\n";
        let err = decode_all(text.as_bytes(), text.len()).unwrap_err();
        assert_eq!(err.kind, TraceErrorKind::Syntax);
        assert_eq!(err.line, 2);
        assert_eq!(
            err.message,
            format!("bad cycle {:?}", "5\u{3000}act\u{a0}3")
        );
        let (events, error) = reference_decode(text.as_bytes());
        assert_eq!((events.len(), error), (2, None));
    }

    /// Directive lines follow the same rule: U+00A0, U+2003 and U+3000
    /// neither separate a directive's words nor trim its line.
    #[test]
    fn non_ascii_whitespace_does_not_separate_directive_words() {
        for (directive, kind, message) in [
            (
                "!preset\u{a0}ddr3_1g_x16_55nm",
                TraceErrorKind::UnknownDirective,
                "unknown directive !preset\u{a0}ddr3_1g_x16_55nm".to_owned(),
            ),
            (
                "!policy\u{2003}aggressive",
                TraceErrorKind::UnknownDirective,
                "unknown directive !policy\u{2003}aggressive".to_owned(),
            ),
            (
                "!length 100\u{3000}",
                TraceErrorKind::Syntax,
                format!("bad !length value {:?}", "100\u{3000}"),
            ),
        ] {
            let text = format!("0 act 0\n{directive}\n");
            let err = decode_all(text.as_bytes(), text.len()).unwrap_err();
            assert_eq!((err.kind, err.line, err.message), (kind, 2, message));
        }
    }

    #[test]
    fn decoder_parses_custom_policy() {
        let events = decode_all(b"!policy 32 8 1000 100\n", 100).expect("ok");
        assert_eq!(
            events,
            vec![TraceEvent::Policy(PowerDownPolicy {
                threshold_cycles: 32,
                exit_latency_cycles: 8,
                self_refresh_threshold_cycles: 1000,
                self_refresh_exit_latency_cycles: 100,
            })]
        );
    }

    /// Hand-computed power-down micro-trace: entry and exit latencies
    /// straddle the billing exactly as documented in docs/TRACES.md.
    #[test]
    fn power_down_billing_matches_hand_computation() {
        let dram = model();
        let mut fold = StreamFold::new(&dram, PowerDownPolicy::AGGRESSIVE);
        for (cycle, command, bank) in [
            (0, Command::Activate, 0),
            (10, Command::Precharge, 0),
            (20, Command::PowerDownEnter, 0),
            (100, Command::PowerDownExit, 0),
        ] {
            fold.push(TimedCommand {
                cycle,
                bank,
                command,
            })
            .expect("legal");
        }
        let r = fold.finish(Some(200)).expect("report");
        // act@0 bills its cycle at Standby (banks closed before it);
        // cycles 1..9 are Active; pre@10 bills at Active. 11..19 are
        // Standby; pde@20 at Standby; of the 79 asleep cycles 21..99,
        // 3 are entry latency (Standby) and 76 PrechargePowerDown;
        // pdx@100 bills 1+6 exit cycles at Standby. The 93-cycle tail
        // 107..199 tiers into 16 threshold + 6 exit at Standby and 71
        // in power-down.
        assert_eq!(r.states.cycles, [10, 43, 147, 0, 0]);
        assert_eq!(r.states.total_cycles(), 200);
        assert_eq!(r.power_down_cycles, 147);
        assert_eq!(r.self_refresh_cycles, 0);
        // Each state's energy is its power × its cycles × the cycle time,
        // computed once: exactly this expression, to the bit.
        let ct = 1.0 / dram.description().spec.control_clock.hertz();
        let expect =
            |s: PowerState, cycles: u64| dram.state_power(s) * Seconds::new(cycles as f64 * ct);
        assert_eq!(
            r.states.energy(PowerState::ActiveStandby),
            expect(PowerState::ActiveStandby, 10)
        );
        assert_eq!(
            r.states.energy(PowerState::PrechargedStandby),
            expect(PowerState::PrechargedStandby, 43)
        );
        assert_eq!(
            r.power_down_energy,
            expect(PowerState::PrechargePowerDown, 147)
        );
        let cmd = dram.command_energy(Command::Activate) + dram.command_energy(Command::Precharge);
        assert_eq!(r.command_energy, cmd);
    }

    /// Hand-computed self-refresh micro-trace.
    #[test]
    fn self_refresh_billing_matches_hand_computation() {
        let dram = model();
        let mut fold = StreamFold::new(&dram, PowerDownPolicy::AGGRESSIVE);
        fold.push(TimedCommand {
            cycle: 0,
            bank: 0,
            command: Command::SelfRefreshEnter,
        })
        .expect("legal");
        fold.push(TimedCommand {
            cycle: 5000,
            bank: 0,
            command: Command::SelfRefreshExit,
        })
        .expect("legal");
        let r = fold.finish(Some(6000)).expect("report");
        // sre@0 at Standby; 8 entry cycles at Standby then 4991 in
        // self-refresh; srx@5000 bills 1+512 at Standby (cursor 5513);
        // the 487-cycle tail tiers 22 Standby + 465 power-down.
        assert_eq!(r.self_refresh_cycles, 4991);
        assert_eq!(r.states.cycles, [0, 544, 465, 0, 4991]);
        assert_eq!(r.states.total_cycles(), 6000);
    }

    #[test]
    fn state_machine_rejects_illegal_transitions() {
        let dram = model();
        let cmd = |cycle, command| TimedCommand {
            cycle,
            bank: 0,
            command,
        };
        // Refresh while the device refreshes itself: the typed error.
        let mut fold = StreamFold::new(&dram, PowerDownPolicy::NEVER);
        fold.push(cmd(0, Command::SelfRefreshEnter)).expect("ok");
        let err = fold.push(cmd(100, Command::Refresh)).unwrap_err();
        assert_eq!(err.kind, TraceErrorKind::RefreshDuringSelfRefresh);
        // Work while asleep.
        let mut fold = StreamFold::new(&dram, PowerDownPolicy::NEVER);
        fold.push(cmd(0, Command::PowerDownEnter)).expect("ok");
        let err = fold.push(cmd(50, Command::Activate)).unwrap_err();
        assert_eq!(err.kind, TraceErrorKind::CommandWhileAsleep);
        // Mismatched exit.
        let mut fold = StreamFold::new(&dram, PowerDownPolicy::NEVER);
        fold.push(cmd(0, Command::PowerDownEnter)).expect("ok");
        let err = fold.push(cmd(50, Command::SelfRefreshExit)).unwrap_err();
        assert_eq!(err.kind, TraceErrorKind::BadTransition);
        // Exit while awake.
        let mut fold = StreamFold::new(&dram, PowerDownPolicy::NEVER);
        let err = fold.push(cmd(0, Command::PowerDownExit)).unwrap_err();
        assert_eq!(err.kind, TraceErrorKind::BadTransition);
        // Self-refresh entry with an open bank.
        let mut fold = StreamFold::new(&dram, PowerDownPolicy::NEVER);
        fold.push(cmd(0, Command::Activate)).expect("ok");
        let err = fold.push(cmd(10, Command::SelfRefreshEnter)).unwrap_err();
        assert_eq!(err.kind, TraceErrorKind::BadTransition);
        // Command inside the exit-latency window.
        let mut fold = StreamFold::new(&dram, PowerDownPolicy::AGGRESSIVE);
        fold.push(cmd(0, Command::PowerDownEnter)).expect("ok");
        fold.push(cmd(50, Command::PowerDownExit)).expect("ok");
        let err = fold.push(cmd(53, Command::Activate)).unwrap_err();
        assert_eq!(err.kind, TraceErrorKind::BadTransition);
        // ...but legal exactly at the end of the window (50 + 1 + 6).
        let mut fold = StreamFold::new(&dram, PowerDownPolicy::AGGRESSIVE);
        fold.push(cmd(0, Command::PowerDownEnter)).expect("ok");
        fold.push(cmd(50, Command::PowerDownExit)).expect("ok");
        fold.push(cmd(57, Command::Activate)).expect("legal");
        // Declared length shorter than billed cycles.
        let mut fold = StreamFold::new(&dram, PowerDownPolicy::NEVER);
        fold.push(cmd(90, Command::Activate)).expect("ok");
        let err = fold.finish(Some(10)).unwrap_err();
        assert_eq!(err.kind, TraceErrorKind::TraceTooShort);
    }

    /// The last billable cycle is `u64::MAX - 1`: a command there is
    /// billed, and a command or an exit latency that would bill past it
    /// is refused as `syntax` instead of wrapping the cursor.
    #[test]
    fn billing_past_the_last_cycle_is_refused() {
        let dram = model();
        let cmd = |cycle, command| TimedCommand {
            cycle,
            bank: 0,
            command,
        };
        let mut fold = StreamFold::new(&dram, PowerDownPolicy::NEVER);
        fold.push(cmd(0, Command::Activate)).expect("ok");
        fold.push(cmd(u64::MAX - 1, Command::Precharge))
            .expect("the last billable cycle");
        let report = fold.finish(None).expect("ends at u64::MAX");
        assert_eq!(report.states.cycles.iter().sum::<u64>(), u64::MAX);

        let mut fold = StreamFold::new(&dram, PowerDownPolicy::NEVER);
        fold.push(cmd(0, Command::Activate)).expect("ok");
        let err = fold.push(cmd(u64::MAX, Command::Precharge)).unwrap_err();
        assert_eq!(err.kind, TraceErrorKind::Syntax);
        assert_eq!(
            err.message,
            "pre at cycle 18446744073709551615 passes the last billable cycle, \
             18446744073709551614"
        );

        let sleepy = |exit_latency_cycles| PowerDownPolicy {
            exit_latency_cycles,
            ..PowerDownPolicy::NEVER
        };
        let mut fold = StreamFold::new(&dram, sleepy(u64::MAX - 101));
        fold.push(cmd(0, Command::PowerDownEnter)).expect("ok");
        fold.push(cmd(100, Command::PowerDownExit))
            .expect("the exit latency ends at the last billable cycle");
        let report = fold.finish(None).expect("ends at u64::MAX");
        assert_eq!(report.states.cycles.iter().sum::<u64>(), u64::MAX);
        let mut fold = StreamFold::new(&dram, sleepy(u64::MAX));
        fold.push(cmd(0, Command::PowerDownEnter)).expect("ok");
        let err = fold.push(cmd(100, Command::PowerDownExit)).unwrap_err();
        assert_eq!(err.kind, TraceErrorKind::Syntax);
        assert_eq!(
            err.message,
            "pdx at cycle 100 plus 18446744073709551615 exit cycles passes the last \
             billable cycle, 18446744073709551614"
        );
    }

    /// Every field of a report, as bits: equal vectors mean bit-identical
    /// reports. The destructuring fails to compile if a field is added.
    fn report_bits(r: &TraceReport) -> Vec<u64> {
        let TraceReport {
            energy,
            duration,
            average_power,
            energy_per_bit,
            command_energy,
            background_energy,
            power_down_energy,
            power_down_cycles,
            bits,
            row_energy,
            self_refresh_energy,
            self_refresh_cycles,
            states,
        } = *r;
        let mut out = vec![
            energy.joules().to_bits(),
            duration.seconds().to_bits(),
            average_power.watts().to_bits(),
            energy_per_bit.joules().to_bits(),
            command_energy.joules().to_bits(),
            background_energy.joules().to_bits(),
            power_down_energy.joules().to_bits(),
            power_down_cycles,
            bits.to_bits(),
            row_energy.joules().to_bits(),
            self_refresh_energy.joules().to_bits(),
            self_refresh_cycles,
        ];
        out.extend(states.cycles);
        out.extend(states.energy.iter().map(|e| e.joules().to_bits()));
        out
    }

    /// `simulate` over an in-memory trace and the decoder feeding a fold
    /// over the same trace as [`write_trace`] renders it give
    /// bit-identical reports, for every generator shape, page policy and
    /// power-down policy, whatever the chunking.
    #[test]
    fn in_memory_and_streamed_folds_are_bit_identical() {
        use crate::generator::{generate_validated, WorkloadSpec};
        let dram = model();
        let shapes = [
            WorkloadSpec::streaming(300, 5),
            WorkloadSpec::random(300, 7),
            WorkloadSpec::sparse(150, 13),
        ];
        for shape in shapes {
            for spec in [shape, shape.with_closed_page()] {
                for policy in [PowerDownPolicy::NEVER, PowerDownPolicy::AGGRESSIVE] {
                    let w = generate_validated(&dram, &spec).expect("generates");
                    let batch = crate::energy::simulate(&dram, &w.trace, policy).expect("legal");
                    let text = format!(
                        "!policy {} {} {} {}\n{}",
                        policy.threshold_cycles,
                        policy.exit_latency_cycles,
                        policy.self_refresh_threshold_cycles,
                        policy.self_refresh_exit_latency_cycles,
                        write_trace(&w.trace)
                    );
                    for chunk in [1, 7, 4096] {
                        let mut fold = StreamFold::new(&dram, PowerDownPolicy::NEVER);
                        let mut length = None;
                        let mut decoder = TraceDecoder::new();
                        let mut sink = |e: TraceEvent| match e {
                            TraceEvent::Command(c) => fold.push(c),
                            TraceEvent::Policy(p) => fold.set_policy(p),
                            TraceEvent::Length(l) => {
                                length = Some(l);
                                Ok(())
                            }
                            TraceEvent::Preset(_) => unreachable!("no preset rendered"),
                        };
                        for piece in text.as_bytes().chunks(chunk) {
                            decoder.feed(piece, &mut sink).expect("legal");
                        }
                        decoder.finish(&mut sink).expect("legal");
                        let streamed = fold.finish(length).expect("report");
                        assert_eq!(
                            report_bits(&streamed),
                            report_bits(&batch),
                            "{spec:?} {policy:?} chunk {chunk}"
                        );
                    }
                }
            }
        }
    }

    /// The decoder's carry — the only state that could grow with the
    /// trace — stays bounded across a 100k-command stream.
    #[test]
    fn streaming_memory_is_constant() {
        let dram = model();
        let mut fold = StreamFold::new(&dram, PowerDownPolicy::AGGRESSIVE);
        let mut decoder = TraceDecoder::new();
        let mut line = String::new();
        let mut max_carry = 0usize;
        for i in 0..100_000u64 {
            use core::fmt::Write as _;
            line.clear();
            let cycle = i * 40;
            let (mnemonic, bank) = match i % 4 {
                0 => ("act", i % 8),
                1 => ("rd", i % 8),
                2 => ("wr", i % 8),
                _ => ("pre", i % 8),
            };
            let _ = writeln!(line, "{cycle} {mnemonic} {bank}");
            // Feed in deliberately awkward 7-byte chunks.
            for piece in line.as_bytes().chunks(7) {
                decoder
                    .feed(piece, &mut |e| match e {
                        TraceEvent::Command(c) => fold.push(c),
                        _ => Ok(()),
                    })
                    .expect("legal");
                max_carry = max_carry.max(decoder.carry_len());
            }
        }
        assert!(max_carry <= TraceDecoder::MAX_LINE_BYTES);
        assert_eq!(fold.commands(), 100_000);
        let report = fold.finish(None).expect("report");
        assert_eq!(report.states.total_cycles(), 100_000 * 40 - 39);
    }

    /// Identical folds on 8 threads produce bit-identical reports —
    /// the accounting has no hidden shared state.
    #[test]
    fn fold_is_deterministic_across_threads() {
        let dram = model();
        let run = |dram: &Dram| {
            let mut fold = StreamFold::new(dram, PowerDownPolicy::AGGRESSIVE);
            for (cycle, command) in [
                (0, Command::Activate),
                (12, Command::Read),
                (28, Command::Precharge),
                (40, Command::PowerDownEnter),
                (900, Command::PowerDownExit),
                (1000, Command::Refresh),
                (1100, Command::SelfRefreshEnter),
                (90_000, Command::SelfRefreshExit),
            ] {
                fold.push(TimedCommand {
                    cycle,
                    bank: 0,
                    command,
                })
                .expect("legal");
            }
            fold.finish(Some(100_000)).expect("report")
        };
        let reference = run(&dram);
        let reports: Vec<TraceReport> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8).map(|_| scope.spawn(|| run(&dram))).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("join"))
                .collect()
        });
        for r in reports {
            assert_eq!(
                r.energy.joules().to_bits(),
                reference.energy.joules().to_bits()
            );
            assert_eq!(r.states.cycles, reference.states.cycles);
            for s in PowerState::ALL {
                assert_eq!(
                    r.states.energy(s).joules().to_bits(),
                    reference.states.energy(s).joules().to_bits()
                );
            }
        }
        assert_eq!(reference.states.total_cycles(), 100_000);
        assert!(reference.self_refresh_cycles > 80_000);
    }

    /// Seeded fuzz: arbitrary byte chunks must never panic the decoder
    /// (mirrors crates/dsl/tests/fuzz_no_panic.rs).
    #[test]
    fn fuzz_decoder_never_panics() {
        let mut state = 0x5eed_cafe_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for _ in 0..500 {
            let len = (next() % 300) as usize;
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    // Bias toward trace-ish bytes so parsing goes deep.
                    match next() % 8 {
                        0 => b'\n',
                        1 => b' ',
                        2 => b'!',
                        3..=5 => b'0' + (next() % 10) as u8,
                        6 => b"actprewr#"[(next() % 9) as usize],
                        _ => (next() % 256) as u8,
                    }
                })
                .collect();
            let mut decoder = TraceDecoder::new();
            let mut sink = |_: TraceEvent| Ok(());
            let mut offset = 0usize;
            while offset < bytes.len() {
                let take = 1 + (next() % 40) as usize;
                let end = (offset + take).min(bytes.len());
                if decoder.feed(&bytes[offset..end], &mut sink).is_err() {
                    break;
                }
                assert!(decoder.carry_len() <= TraceDecoder::MAX_LINE_BYTES);
                offset = end;
            }
            let _ = decoder.finish(&mut sink);
        }
    }

    /// The `str` command-line parser the decoder ran before its byte
    /// scan, kept as the reference the scan is tested against: Unicode
    /// `split_whitespace`, `str::parse` and [`Command::from_mnemonic`].
    fn parse_command(
        line: u64,
        text: &str,
        last_cycle: &mut Option<u64>,
    ) -> Result<TraceEvent, TraceError> {
        let syntax = |m: String| TraceError::at(line, TraceErrorKind::Syntax, m);
        let mut tokens = text.split_whitespace();
        let cycle_tok = tokens.next().unwrap_or("");
        let cycle = cycle_tok
            .parse::<u64>()
            .map_err(|_| syntax(format!("bad cycle {cycle_tok:?}")))?;
        let mnemonic = tokens
            .next()
            .ok_or_else(|| syntax("missing command mnemonic".into()))?;
        let command = Command::from_mnemonic(mnemonic)
            .ok_or_else(|| syntax(format!("unknown command {mnemonic:?}")))?;
        let bank = match tokens.next() {
            Some(b) => b
                .parse::<u32>()
                .map_err(|_| syntax(format!("bad bank {b:?}")))?,
            None => 0,
        };
        if tokens.next().is_some() {
            return Err(syntax(format!("trailing tokens after {text:?}")));
        }
        if let Some(last) = *last_cycle {
            if cycle < last {
                return Err(TraceError::at(
                    line,
                    TraceErrorKind::NonMonotonicCycle,
                    format!("cycle {cycle} after cycle {last}"),
                ));
            }
        }
        *last_cycle = Some(cycle);
        Ok(TraceEvent::Command(TimedCommand {
            cycle,
            bank,
            command,
        }))
    }

    /// The `str` decoder fed `input` whole, with the line budget held on
    /// every line: per line a `str::from_utf8` pass, a Unicode `trim`,
    /// then the directive parser or [`parse_command`]. Returns the
    /// events before the first error, and that error.
    fn reference_decode(input: &[u8]) -> (Vec<TraceEvent>, Option<TraceError>) {
        let (events, error) = reference_decode_lines(input);
        (events.into_iter().map(|(_, event)| event).collect(), error)
    }

    /// [`reference_decode`] with each event's 1-based line.
    fn reference_decode_lines(input: &[u8]) -> (Vec<(u64, TraceEvent)>, Option<TraceError>) {
        let mut events = Vec::new();
        let mut last_cycle = None;
        let lines: Vec<&[u8]> = input.split(|&b| b == b'\n').collect();
        for (i, raw) in lines.iter().enumerate() {
            let line = i as u64 + 1;
            if i + 1 == lines.len() && raw.is_empty() {
                break;
            }
            let parsed = if raw.len() > TraceDecoder::MAX_LINE_BYTES {
                Err(TraceError::at(
                    line,
                    TraceErrorKind::LineTooLong,
                    format!("line exceeds {} bytes", TraceDecoder::MAX_LINE_BYTES),
                ))
            } else {
                core::str::from_utf8(raw)
                    .map_err(|_| TraceError::at(line, TraceErrorKind::Syntax, "line is not UTF-8"))
                    .and_then(|text| {
                        let text = text.trim();
                        if text.is_empty() || text.starts_with('#') {
                            Ok(None)
                        } else if let Some(directive) = text.strip_prefix('!') {
                            TraceDecoder::parse_directive(line, directive).map(Some)
                        } else {
                            parse_command(line, text, &mut last_cycle).map(Some)
                        }
                    })
            };
            match parsed {
                Ok(event) => events.extend(event.map(|event| (line, event))),
                Err(e) => return (events, Some(e)),
            }
        }
        (events, None)
    }

    /// Seeded differential fuzz: the byte scan, fed at random split
    /// points, emits exactly the reference's events and first error
    /// (kind, line and message) on trace-shaped inputs — every number,
    /// sign, mnemonic and alias in mixed case, all six ASCII whitespace
    /// bytes, comments, directives, over-long numbers and lines, and
    /// single-space lines at the edges of the short branch — after
    /// bit flips and stray high bytes. Inputs holding non-ASCII
    /// whitespace are skipped: only ASCII whitespace separates command
    /// tokens now. A closure sink and a struct [`TraceSink`] get the
    /// same events and error at the same split, and a struct sink that
    /// refuses a random event of a clean input gets its error back
    /// stamped with that event's line.
    #[test]
    fn fuzz_decoder_matches_str_reference() {
        const SPACES: [u8; 6] = [b' ', b'\t', b'\n', 0x0b, 0x0c, b'\r'];
        let words: Vec<&str> =
            "act activate pre precharge rd read wrt wr write nop - pde pdx sre srx ref rdx ac acts bogus # !"
                .split(' ')
                .collect();
        const DIRECTIVES: [&str; 10] = [
            "!preset ddr3_1g_x16_55nm",
            "!policy aggressive",
            "!policy never",
            "!policy 32 8",
            "!policy 32 8 1000 100",
            "!length 100000",
            "!length +7 8",
            "!teleport now",
            "! length 5",
            "!preset",
        ];
        let mut state = 0xd1ff_5eed_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let space = |input: &mut Vec<u8>, next: &mut dyn FnMut() -> usize| {
            // Mostly in-line separators, now and then a newline.
            input.push(match SPACES[next() % SPACES.len()] {
                b'\n' if !next().is_multiple_of(4) => b' ',
                byte => byte,
            });
        };
        let (mut skipped, mut clean, mut kinds) = (0, 0, Vec::new());
        // Sink errors raised from `directive` and from `command`.
        let mut refused = [0; 2];
        for case in 0..10_000 {
            let mut input = Vec::new();
            let mut cycle = 0u64;
            for _ in 0..next() % 24 {
                match next() % 16 {
                    0 => input.extend_from_slice(b"# a comment, 0 act 0"),
                    1 => input.extend_from_slice(DIRECTIVES[next() % DIRECTIVES.len()].as_bytes()),
                    2 => {
                        let filler = [b' ', b'x', b'7', b'#'][next() % 4];
                        input.extend_from_slice(b"1 act 0");
                        input.resize(input.len() + 240 + next() % 40, filler);
                    }
                    3 => {
                        input.extend_from_slice(b"1");
                        for _ in 0..18 + next() % 4 {
                            input.push(b'0' + (next() % 10) as u8);
                        }
                        input.extend_from_slice(b" act 4294967295");
                    }
                    4 => (0..next() % 4).for_each(|_| space(&mut input, &mut next)),
                    5 => {
                        // A single-space line at the edges of the
                        // decoder's short branch: cycles of 19 and 20
                        // digits, banks of 9 and 10, the 9-byte
                        // `precharge`, a byte at or above 0x80 inside the
                        // mnemonic, a trailing space.
                        cycle = match next() % 3 {
                            0 => cycle.max(10u64.pow(19) - 25) + next() as u64 % 50,
                            _ => cycle + next() as u64 % 50,
                        };
                        input.extend_from_slice(cycle.to_string().as_bytes());
                        input.push(b' ');
                        let mut word = ["precharge", "activate", "pre", "act", "rd", "wr", "pdx"]
                            [next() % 7]
                            .as_bytes()
                            .to_vec();
                        match next() % 16 {
                            0 => word.insert(next() % word.len(), 0xff),
                            1 => word.splice(1..1, "é".bytes()).for_each(drop),
                            2 => word.make_ascii_uppercase(),
                            _ => {}
                        }
                        input.extend_from_slice(&word);
                        let bank = match next() % 8 {
                            0 => None,
                            1 => Some(format!("{}", 999_999_990 + next() % 20)),
                            2 => Some(format!("{:0>1$}", next() % 8, 9 + next() % 2)),
                            3 => Some(["4294967295", "4294967296"][next() % 2].to_owned()),
                            _ => Some(format!("{}", next() % 8)),
                        };
                        if let Some(bank) = bank {
                            input.push(b' ');
                            input.extend_from_slice(bank.as_bytes());
                        }
                        if next().is_multiple_of(8) {
                            input.push(b' ');
                        }
                    }
                    _ => {
                        if next() % 4 == 0 {
                            space(&mut input, &mut next);
                        }
                        match next() % 16 {
                            0 => input.push(b'+'),
                            1 => input.push(b'-'),
                            _ => {}
                        }
                        cycle = match next() % 24 {
                            0 => cycle.saturating_sub(next() as u64 % 100),
                            1 => cycle + ((next() as u64) << 12),
                            _ => cycle + next() as u64 % 50,
                        };
                        input.extend_from_slice(cycle.to_string().as_bytes());
                        (0..1 + next() % 2).for_each(|_| space(&mut input, &mut next));
                        for &b in words[next() % words.len()].as_bytes() {
                            let upper = next() % 2 == 0;
                            input.push(if upper { b.to_ascii_uppercase() } else { b });
                        }
                        if next() % 3 != 0 {
                            space(&mut input, &mut next);
                            if next() % 8 == 0 {
                                input.push(b'+');
                            }
                            let bank = match next() % 16 {
                                0 => 4_294_967_296,
                                _ => next() as u64 % 8,
                            };
                            input.extend_from_slice(bank.to_string().as_bytes());
                        }
                        if next() % 10 == 0 {
                            space(&mut input, &mut next);
                            input.extend_from_slice(b"# note");
                        }
                        if next() % 4 == 0 {
                            space(&mut input, &mut next);
                        }
                    }
                }
                input.extend_from_slice(if next() % 6 == 0 { b"\r\n" } else { b"\n" });
            }
            if next() % 2 == 0 && !input.is_empty() {
                for _ in 0..1 + next() % 3 {
                    let at = next() % input.len();
                    input[at] ^= 1 << (next() % 8);
                }
            }
            if next() % 3 == 0 {
                let at = next() % (input.len() + 1);
                input.insert(at, 0x80 | (next() % 128) as u8);
            }
            if next() % 4 == 0 {
                input.pop();
            }
            let text = String::from_utf8_lossy(&input);
            if text.chars().any(|c| !c.is_ascii() && c.is_whitespace()) {
                skipped += 1;
                continue;
            }
            let expected = reference_decode(&input);
            let mut cuts = Vec::new();
            let mut left = input.len();
            while left > 0 {
                let take = match next() % 4 {
                    0 => left,
                    _ => (1 + next() % 40).min(left),
                };
                cuts.push(take);
                left -= take;
            }
            let mut events = Vec::new();
            let mut sink = |e: TraceEvent| {
                events.push(e);
                Ok(())
            };
            let mut decoder = TraceDecoder::new();
            let mut rest = &input[..];
            let mut pieces = cuts.iter();
            let fed = loop {
                let Some(&take) = pieces.next() else {
                    break decoder.finish(&mut sink);
                };
                let (piece, tail) = rest.split_at(take);
                rest = tail;
                if let Err(e) = decoder.feed(piece, &mut sink) {
                    break Err(e);
                }
                assert!(decoder.carry_len() <= TraceDecoder::MAX_LINE_BYTES);
            };
            let got = (events, fed.err());
            assert_eq!(got, expected, "case {case}: {text:?}");
            let mut recorder = Recorder::default();
            let error = decode_into(&mut recorder, &input, &cuts);
            assert_eq!(
                (recorder.events, error),
                expected,
                "struct sink, case {case}"
            );
            match &got.1 {
                Some(e) => kinds.push(e.kind),
                None => clean += 1,
            }
            let (lines, None) = reference_decode_lines(&input) else {
                continue;
            };
            if lines.is_empty() {
                continue;
            }
            // Half the time a directive, which clean inputs hold few of.
            let directives: Vec<usize> = (0..lines.len())
                .filter(|&i| !matches!(lines[i].1, TraceEvent::Command(_)))
                .collect();
            let at = match directives.len() {
                n if n > 0 && next().is_multiple_of(2) => directives[next() % n],
                _ => next() % lines.len(),
            };
            let mut recorder = Recorder {
                fail_at: Some(at + 1),
                ..Recorder::default()
            };
            let error = decode_into(&mut recorder, &input, &cuts).expect("refused");
            assert_eq!(error.line, lines[at].0, "refused event {at}, case {case}");
            assert_eq!(recorder.events.len(), at, "case {case}");
            refused[usize::from(matches!(lines[at].1, TraceEvent::Command(_)))] += 1;
        }
        // The inputs reach every verdict, not just the first error.
        assert!(skipped < 100, "{skipped} inputs skipped");
        assert!(clean > 300, "only {clean} inputs decode cleanly");
        assert!(
            refused.iter().all(|&n| n > 10),
            "sink errors raised: {refused:?}"
        );
        for kind in [
            TraceErrorKind::Syntax,
            TraceErrorKind::LineTooLong,
            TraceErrorKind::NonMonotonicCycle,
            TraceErrorKind::UnknownDirective,
        ] {
            assert!(kinds.contains(&kind), "no input ends in {}", kind.label());
        }
    }
}
