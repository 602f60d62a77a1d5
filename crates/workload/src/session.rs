//! The one meaning of a trace's directives: [`TraceSession`], with a
//! [`TraceDevice`] for the part that differs by reader.

use dram_core::timing::TimedCommand;

use crate::energy::{PowerDownPolicy, TraceReport};
use crate::stream::{StreamFold, TraceDecoder, TraceError, TraceErrorKind, TraceEvent, TraceSink};

/// What differs by trace reader: what `!preset NAME` means, and where
/// the fold's model comes from.
pub trait TraceDevice {
    /// Takes, or refuses, a `!preset NAME` before the first command line.
    ///
    /// # Errors
    ///
    /// A [`TraceError`] for a name the reader refuses.
    fn preset(&mut self, name: &str) -> Result<(), TraceError>;

    /// Builds the fold at the first command line, under `policy`.
    ///
    /// # Errors
    ///
    /// A [`TraceError`] if there is no model to fold on.
    fn fold(&mut self, policy: PowerDownPolicy) -> Result<StreamFold, TraceError>;
}

/// The [`TraceSink`] every trace reader folds through, so the directive
/// rules of `docs/TRACES.md` hold for all of them:
///
/// * the first command line, `nop` included, builds the fold, and a
///   `!preset` after it is a [`TraceErrorKind::BadTransition`];
/// * a `!policy` before it sets the fold's policy, and one after it goes
///   to [`StreamFold::set_policy`], which refuses it once a non-`nop`
///   command was billed;
/// * the last `!length` wins;
/// * a trace without a command line is a `syntax` error with no line.
///
/// Each command after the first goes straight to [`StreamFold::push`],
/// inlined into the decoder's loop.
#[derive(Debug)]
pub struct TraceSession<D> {
    device: D,
    policy: PowerDownPolicy,
    length: Option<u64>,
    fold: Option<StreamFold>,
}

impl<D: TraceDevice> TraceSession<D> {
    /// A session under [`PowerDownPolicy::NEVER`] until a `!policy`.
    #[must_use]
    pub fn new(device: D) -> Self {
        Self {
            device,
            policy: PowerDownPolicy::NEVER,
            length: None,
            fold: None,
        }
    }

    /// The reader's device.
    #[must_use]
    pub fn device(&self) -> &D {
        &self.device
    }

    /// Flushes `decoder`'s last line into the session and closes the fold
    /// into the command count and the report. A reader that wraps the
    /// session in a sink of its own flushes the decoder through it first.
    ///
    /// # Errors
    ///
    /// The decoder's or the fold's [`TraceError`], or `syntax` if the
    /// trace has no command line.
    pub fn finish(&mut self, decoder: &mut TraceDecoder) -> Result<(u64, TraceReport), TraceError> {
        decoder.finish(self)?;
        let fold = self
            .fold
            .take()
            .ok_or_else(|| TraceError::new(TraceErrorKind::Syntax, "trace contains no commands"))?;
        let commands = fold.commands();
        fold.finish(self.length).map(|report| (commands, report))
    }

    #[inline(never)]
    fn first_command(&mut self, command: TimedCommand) -> Result<(), TraceError> {
        let fold = self.device.fold(self.policy)?;
        self.fold.insert(fold).push(command)
    }
}

impl<D: TraceDevice> TraceSink for TraceSession<D> {
    #[inline]
    fn command(&mut self, command: TimedCommand) -> Result<(), TraceError> {
        match &mut self.fold {
            Some(fold) => fold.push(command),
            None => self.first_command(command),
        }
    }

    fn directive(&mut self, directive: TraceEvent) -> Result<(), TraceError> {
        match (directive, &mut self.fold) {
            (TraceEvent::Command(command), _) => self.command(command),
            (TraceEvent::Preset(_), Some(_)) => Err(TraceError::new(
                TraceErrorKind::BadTransition,
                "!preset must precede the first command",
            )),
            (TraceEvent::Preset(name), None) => self.device.preset(&name),
            (TraceEvent::Policy(policy), Some(fold)) => fold.set_policy(policy),
            (TraceEvent::Policy(policy), None) => {
                self.policy = policy;
                Ok(())
            }
            (TraceEvent::Length(cycles), _) => {
                self.length = Some(cycles);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use dram_core::reference::ddr3_1g_x16_55nm;
    use dram_core::{Command, Dram};

    use super::*;

    /// Folds on the reference model and takes the one `!preset` name
    /// `reference`.
    struct Reference<'a>(&'a Dram);

    impl TraceDevice for Reference<'_> {
        fn preset(&mut self, name: &str) -> Result<(), TraceError> {
            if name == "reference" {
                return Ok(());
            }
            Err(TraceError::new(
                TraceErrorKind::Syntax,
                format!("unknown preset `{name}`"),
            ))
        }

        fn fold(&mut self, policy: PowerDownPolicy) -> Result<StreamFold, TraceError> {
            Ok(StreamFold::new(self.0, policy))
        }
    }

    /// The four billed commands of every priced trace below, the 1,960
    /// idle cycles between them past the aggressive threshold.
    const BODY: &str = "0 act 0\n28 pre 0\n2000 act 0\n2040 pre 0\n";

    /// What `BODY` folds to under `policy` and `length`.
    fn expected(dram: &Dram, policy: PowerDownPolicy, length: Option<u64>) -> (u64, TraceReport) {
        let mut fold = StreamFold::new(dram, policy);
        for (cycle, command) in [
            (0, Command::Activate),
            (28, Command::Precharge),
            (2000, Command::Activate),
            (2040, Command::Precharge),
        ] {
            fold.push(TimedCommand {
                cycle,
                bank: 0,
                command,
            })
            .expect("legal");
        }
        (fold.commands(), fold.finish(length).expect("bills"))
    }

    /// The directive rules, one row each: a trace and the policy and
    /// length it prices `BODY` under, or the kind and line it is refused
    /// at. Every row is read whole and a byte at a time.
    #[test]
    fn directives_follow_the_session_rules() {
        let dram = Dram::new(ddr3_1g_x16_55nm()).expect("builds");
        let aggressive = PowerDownPolicy::AGGRESSIVE;
        let never = PowerDownPolicy::NEVER;
        assert_ne!(
            expected(&dram, aggressive, None),
            expected(&dram, never, None),
            "BODY must tell the policies apart"
        );
        let priced = |policy, length| Ok(expected(&dram, policy, length));
        let refused = |kind, line| Err((kind, line));
        let bad_transition = TraceErrorKind::BadTransition;
        let syntax = TraceErrorKind::Syntax;
        for (trace, want) in [
            // No `!policy`: NEVER.
            (BODY.to_owned(), priced(never, None)),
            // A `!policy` before the first command line applies...
            (
                format!("!policy aggressive\n{BODY}"),
                priced(aggressive, None),
            ),
            // ...and after a leading `nop`, which bills nothing, still does.
            (
                format!("0 nop\n!policy aggressive\n{BODY}"),
                priced(aggressive, None),
            ),
            // After a billed command it is refused at its own line.
            (
                format!("0 act 0\n!policy aggressive\n{BODY}"),
                refused(bad_transition, 2),
            ),
            // A `!preset` goes to the device before the first command
            // line, and is refused after any, `nop` included.
            (format!("!preset reference\n{BODY}"), priced(never, None)),
            (format!("!preset other\n{BODY}"), refused(syntax, 1)),
            (
                format!("0 nop\n!preset reference\n{BODY}"),
                refused(bad_transition, 2),
            ),
            (
                format!("0 act 0\n!preset reference\n{BODY}"),
                refused(bad_transition, 2),
            ),
            // The last `!length` wins, wherever it stands.
            (
                format!("!length 9000\n{BODY}!length 5000\n"),
                priced(never, Some(5000)),
            ),
            (
                format!("!length 5000\n{BODY}!length 9000"),
                priced(never, Some(9000)),
            ),
            // No command line: `syntax` with no line.
            (String::new(), refused(syntax, 0)),
            ("# comments only\n".to_owned(), refused(syntax, 0)),
            (
                "!preset reference\n!policy never\n!length 10\n".to_owned(),
                refused(syntax, 0),
            ),
        ] {
            for chunk in [trace.len().max(1), 1] {
                let mut session = TraceSession::new(Reference(&dram));
                let mut decoder = TraceDecoder::new();
                let got = trace
                    .as_bytes()
                    .chunks(chunk)
                    .try_for_each(|piece| decoder.feed(piece, &mut session))
                    .and_then(|()| session.finish(&mut decoder))
                    .map_err(|e| (e.kind, e.line));
                assert_eq!(got, want, "{trace:?} in {chunk}-byte chunks");
            }
        }
    }
}
