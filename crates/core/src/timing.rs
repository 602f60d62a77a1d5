//! Bank-level timing validation and command schedules.
//!
//! "Concurrent operation of banks is ... limited to that portion of an
//! operation that takes place inside a bank" (§II): interleaved patterns
//! like IDD7 are only legal if the per-bank row timings (tRC, tRAS, tRP,
//! tRCD) and the shared-resource timings (tRRD and tFAW on the row logic,
//! tCCD on the shared data bus, tRP before and tRFC after a refresh)
//! hold. This module
//! provides a cycle-accurate, incremental [`TimingChecker`] — the one
//! implementation of those rules, which schedules as well as checks: it
//! says when a command becomes legal ([`TimingChecker::earliest`]) as
//! well as whether it is ([`TimingChecker::check`]), so the workload
//! generator and the trace benchmark issue every command through it —
//! and [`Schedule`], the one command schedule type. A datasheet loop
//! (IDD0, IDD1, IDD4R/W, IDD7) is a schedule read as one pass of a
//! repeating loop; a controller trace in `dram-workload` is a schedule
//! read as a finite sequence. Both checks run the schedule's commands
//! through a checker in one loop.

use dram_units::{Hertz, Seconds};

use crate::error::ModelError;
use crate::params::Timing;
use crate::pattern::Command;

/// Converts a timing parameter to clock cycles, rounding up but tolerating
/// floating-point noise (35 ns at 800 MHz is 28 cycles, not 29).
#[must_use]
pub fn to_cycles(s: Seconds, clock: Hertz) -> u64 {
    (s.seconds() * clock.hertz() - 1e-6).ceil().max(0.0) as u64
}

/// The first cycle `gap` cycles after `stamp`, the issue cycle of an
/// event; every cycle if the event has not happened.
fn after(stamp: Option<u64>, gap: u64) -> u64 {
    stamp.map_or(0, |s| s.saturating_add(gap))
}

/// Row state of one bank as the checker tracks it: whether a row is
/// open, and the issue cycles of its last activate and precharge.
#[derive(Debug, Clone, Copy)]
struct BankTiming {
    open: bool,
    last_act: Option<u64>,
    last_pre: Option<u64>,
}

/// The windows of one command, unused slots `None`.
type Windows = [Option<Window>; 5];

/// `list` in the slots of a [`Windows`].
// This and `TimingChecker::windows` are always inlined, so that a check
// keeps the list in registers instead of copying it (about twice as
// fast on a stream of legal commands).
#[inline(always)]
fn padded<const N: usize>(list: [Window; N]) -> Windows {
    let mut slots = [None; 5];
    for (slot, w) in slots.iter_mut().zip(list) {
        *slot = Some(w);
    }
    slots
}

/// One timing window a command must clear: the rule, whether it is
/// measured on the addressed bank's own commands or on a resource the
/// banks share, and the first cycle it allows.
#[derive(Debug, Clone, Copy)]
struct Window {
    rule: &'static str,
    own_bank: bool,
    opens: u64,
}

/// An incremental checker of the per-bank and shared-resource timing
/// rules.
///
/// Feed it commands in issue order; [`Self::check`] rejects the first
/// one that addresses a bank out of range (only `act`, `pre`, `rd` and
/// `wr` address one), activates an open bank,
/// breaks tRC, tRP, tRRD, tFAW or tRFC on an activate, breaks tRAS on a
/// precharge, accesses a closed bank or breaks tRCD or tCCD on a column
/// command, or refreshes with a bank open, within tRP of a precharge on
/// any bank or within tRFC of a refresh.
/// [`Self::earliest`] gives the
/// first cycle that clears every window a command is held to, read from
/// the same list. The state is O(banks) plus the issue cycles of the
/// last four activates (the tFAW window), so it can run over a stream of
/// any length. CKE transitions carry no bank-timing constraints here;
/// the trace fold enforces their pairing.
#[derive(Debug, Clone)]
pub struct TimingChecker {
    trc: u64,
    tras: u64,
    trp: u64,
    trcd: u64,
    trrd: u64,
    tfaw: u64,
    tccd: u64,
    trfc: u64,
    banks: Vec<BankTiming>,
    last_any_act: Option<u64>,
    /// The last precharge on any bank: a refresh waits tRP after it.
    last_any_pre: Option<u64>,
    last_column: Option<u64>,
    last_ref: Option<u64>,
    /// Issue cycles of the last four activates, a ring whose oldest
    /// entry sits at `oldest_act`.
    recent_acts: [Option<u64>; 4],
    oldest_act: usize,
}

impl TimingChecker {
    /// A checker for `banks` banks in the `initial` state, with the row
    /// timings rounded to cycles of `clock` and the column-to-column
    /// delay of `timing.tccd_cycles`.
    #[must_use]
    pub fn new(timing: &Timing, clock: Hertz, banks: u32, initial: InitialBankState) -> Self {
        let cycles = |s: Seconds| to_cycles(s, clock);
        let bank = BankTiming {
            open: matches!(initial, InitialBankState::AllOpen),
            last_act: None,
            last_pre: None,
        };
        Self {
            trc: cycles(timing.trc),
            tras: cycles(timing.tras),
            trp: cycles(timing.trp),
            trcd: cycles(timing.trcd),
            trrd: cycles(timing.trrd),
            tfaw: cycles(timing.tfaw),
            tccd: u64::from(timing.tccd_cycles),
            trfc: cycles(timing.trfc),
            banks: vec![bank; banks as usize],
            last_any_act: None,
            last_any_pre: None,
            last_column: None,
            last_ref: None,
            recent_acts: [None; 4],
            oldest_act: 0,
        }
    }

    /// Checks `command` on `bank` at `cycle` against every rule, then
    /// records its effect.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::TimingViolation`] naming the violated rule.
    pub fn check(&mut self, cycle: u64, bank: u32, command: Command) -> Result<(), ModelError> {
        self.issue(cycle, bank, command, true)
    }

    /// The first cycle at which `command` on `bank` clears every timing
    /// window of the commands issued so far. Whether the bank's state
    /// allows the command is no window: [`Self::check`] at this cycle
    /// still refuses an activate to an open bank, a column command to a
    /// closed one or a refresh with a bank open.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::TimingViolation`] if `command` addresses a
    /// bank out of range.
    pub fn earliest(&self, bank: u32, command: Command) -> Result<u64, ModelError> {
        let windows = self.windows(bank, command)?;
        Ok(windows.iter().flatten().map(|w| w.opens).max().unwrap_or(0))
    }

    /// The windows `command` on `bank` must clear, in the order
    /// [`Self::check`] reports them: the one list of the timing rules.
    #[inline(always)]
    fn windows(&self, bank: u32, command: Command) -> Result<Windows, ModelError> {
        let w = |rule, own_bank, stamp, gap| {
            let opens = after(stamp, gap);
            Window {
                rule,
                own_bank,
                opens,
            }
        };
        Ok(match command {
            Command::Activate => {
                let b = self.bank(bank)?;
                padded([
                    w("tRC", true, b.last_act, self.trc),
                    w("tRP", true, b.last_pre, self.trp),
                    w("tRRD", false, self.last_any_act, self.trrd),
                    w("tFAW", false, self.recent_acts[self.oldest_act], self.tfaw),
                    w("tRFC", false, self.last_ref, self.trfc),
                ])
            }
            // Precharging a precharged bank is a legal no-op.
            Command::Precharge => match self.bank(bank)? {
                b if b.open => padded([w("tRAS", true, b.last_act, self.tras)]),
                _ => padded([]),
            },
            Command::Read | Command::Write => {
                let b = self.bank(bank)?;
                let tccd = w("tCCD", false, self.last_column, self.tccd);
                padded([w("tRCD", true, b.last_act, self.trcd), tccd])
            }
            Command::Refresh => padded([
                w("tRP", false, self.last_any_pre, self.trp),
                w("tRFC", false, self.last_ref, self.trfc),
            ]),
            _ => padded([]),
        })
    }

    /// The state of `bank`, which a command that addresses a bank must
    /// name in range.
    fn bank(&self, bank: u32) -> Result<&BankTiming, ModelError> {
        self.banks
            .get(bank as usize)
            .ok_or_else(|| ModelError::TimingViolation {
                message: format!("command addresses bank {bank} of {}", self.banks.len()),
            })
    }

    /// Issues `commands` shifted by `offset` cycles: checked when
    /// `strict`, otherwise only recorded — a warm-up pass that brings the
    /// bank state to steady state. The one loop both [`Schedule`] checks
    /// drive.
    fn pass(
        &mut self,
        commands: &[TimedCommand],
        offset: u64,
        strict: bool,
    ) -> Result<(), ModelError> {
        commands
            .iter()
            .try_for_each(|c| self.issue(offset + c.cycle, c.bank, c.command, strict))
    }

    fn issue(
        &mut self,
        cycle: u64,
        bank: u32,
        command: Command,
        strict: bool,
    ) -> Result<(), ModelError> {
        let windows = self.windows(bank, command)?;
        if strict {
            let fail = |message: String| Err(ModelError::TimingViolation { message });
            let open = |b: u32| self.banks[b as usize].open;
            match command {
                Command::Activate if open(bank) => {
                    return fail(format!("activate to open bank {bank} at cycle {cycle}"));
                }
                Command::Read | Command::Write if !open(bank) => {
                    return fail(format!(
                        "column access to closed bank {bank} at cycle {cycle}"
                    ));
                }
                // Auto-refresh requires every bank precharged.
                Command::Refresh if self.banks.iter().any(|b| b.open) => {
                    return fail(format!("refresh with open banks at cycle {cycle}"));
                }
                _ => {}
            }
            if let Some(w) = windows.iter().flatten().find(|w| cycle < w.opens) {
                let rule = w.rule;
                return fail(if w.own_bank {
                    format!("{rule} violated on bank {bank} at cycle {cycle}")
                } else {
                    format!("{rule} violated at cycle {cycle}")
                });
            }
        }
        match command {
            Command::Activate => {
                let b = &mut self.banks[bank as usize];
                b.open = true;
                b.last_act = Some(cycle);
                self.last_any_act = Some(cycle);
                self.recent_acts[self.oldest_act] = Some(cycle);
                self.oldest_act = (self.oldest_act + 1) % self.recent_acts.len();
            }
            Command::Precharge => {
                let b = &mut self.banks[bank as usize];
                b.open = false;
                b.last_pre = Some(cycle);
                self.last_any_pre = Some(cycle);
            }
            Command::Read | Command::Write => self.last_column = Some(cycle),
            Command::Refresh => self.last_ref = Some(cycle),
            _ => {}
        }
        Ok(())
    }
}

/// A command scheduled at a clock cycle on a specific bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedCommand {
    /// Issue cycle at the control clock (0-based, below its schedule's
    /// cycle count).
    pub cycle: u64,
    /// Bank index.
    pub bank: u32,
    /// The command.
    pub command: Command,
}

/// Initial bank state assumed when checking a loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitialBankState {
    /// All banks precharged (IDD0-style loops).
    AllClosed,
    /// All banks open (IDD4-style loops, rows activated beforehand).
    AllOpen,
}

/// A bank-annotated command schedule at the control clock: a cycle count
/// and the commands issued within it.
///
/// A datasheet loop reads it as one pass of a repeating loop
/// ([`Self::validate_loop`], `Dram::timed_pattern_power`); a controller
/// trace reads it as a finite sequence that ends at its cycle count
/// ([`Self::validate_trace`], and the fold, generator and writer of
/// `dram-workload`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    commands: Vec<TimedCommand>,
    cycles: u64,
}

impl Schedule {
    /// Creates a schedule of `cycles` cycles: nops are dropped and the
    /// commands sorted by cycle.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyPattern`] if the schedule has no cycles,
    /// and [`ModelError::BadParameter`] if a command lies at or past its
    /// end.
    pub fn new(mut commands: Vec<TimedCommand>, cycles: u64) -> Result<Self, ModelError> {
        if cycles == 0 {
            return Err(ModelError::EmptyPattern);
        }
        commands.retain(|c| c.command != Command::Nop);
        commands.sort_by_key(|c| c.cycle);
        if let Some(last) = commands.last().filter(|c| c.cycle >= cycles) {
            return Err(ModelError::BadParameter {
                name: "schedule",
                reason: format!(
                    "command {} at cycle {} outside schedule of {cycles} cycles",
                    last.command, last.cycle
                ),
            });
        }
        Ok(Self { commands, cycles })
    }

    /// The scheduled commands (nops removed), sorted by cycle.
    #[must_use]
    pub fn commands(&self) -> &[TimedCommand] {
        &self.commands
    }

    /// Length in control-clock cycles: one loop pass, or the whole trace.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Occurrences of a given command.
    #[must_use]
    pub fn count(&self, cmd: Command) -> usize {
        self.commands.iter().filter(|c| c.command == cmd).count()
    }

    /// The IDD0 loop: one activate and one precharge on bank 0, repeating
    /// every tRC.
    ///
    /// # Errors
    ///
    /// Returns an error if the timing rounds to a zero-length loop.
    pub fn idd0(timing: &Timing, clock: Hertz) -> Result<Self, ModelError> {
        let cycles = |s: Seconds| -> u64 { to_cycles(s, clock) };
        // Rounding tRAS and tRP up independently can exceed the rounded
        // tRC; the loop must cover both.
        let loop_cycles = cycles(timing.trc)
            .max(cycles(timing.tras) + cycles(timing.trp))
            .max(2);
        let pre_at = cycles(timing.tras).min(loop_cycles - 1).max(1);
        Self::new(
            vec![
                TimedCommand {
                    cycle: 0,
                    bank: 0,
                    command: Command::Activate,
                },
                TimedCommand {
                    cycle: pre_at,
                    bank: 0,
                    command: Command::Precharge,
                },
            ],
            loop_cycles,
        )
    }

    /// The IDD1 loop: one activate, one read and one precharge on bank
    /// 0, repeating every tRC.
    ///
    /// # Errors
    ///
    /// Returns an error if the timing rounds to a zero-length loop.
    pub fn idd1(timing: &Timing, clock: Hertz) -> Result<Self, ModelError> {
        let cycles = |s: Seconds| -> u64 { to_cycles(s, clock) };
        let loop_cycles = cycles(timing.trc)
            .max(cycles(timing.tras) + cycles(timing.trp))
            .max(3);
        let rd_at = cycles(timing.trcd).clamp(1, loop_cycles - 2);
        let pre_at = cycles(timing.tras).clamp(rd_at + 1, loop_cycles - 1);
        Self::new(
            vec![
                TimedCommand {
                    cycle: 0,
                    bank: 0,
                    command: Command::Activate,
                },
                TimedCommand {
                    cycle: rd_at,
                    bank: 0,
                    command: Command::Read,
                },
                TimedCommand {
                    cycle: pre_at,
                    bank: 0,
                    command: Command::Precharge,
                },
            ],
            loop_cycles,
        )
    }

    /// The IDD4 loop: seamless column bursts every tCCD on rotating banks
    /// (rows already open). `cmd` selects read (IDD4R) or write (IDD4W).
    ///
    /// # Errors
    ///
    /// Returns an error for a zero tCCD or bank count.
    pub fn idd4(cmd: Command, timing: &Timing, banks: u32) -> Result<Self, ModelError> {
        let tccd = timing.tccd_cycles;
        if tccd == 0 || banks == 0 {
            return Err(ModelError::BadParameter {
                name: "idd4",
                reason: "tCCD and bank count must be positive".into(),
            });
        }
        let slots = banks.min(4);
        let commands = (0..slots)
            .map(|i| TimedCommand {
                cycle: u64::from(i * tccd),
                bank: i % banks,
                command: cmd,
            })
            .collect();
        Self::new(commands, u64::from(slots * tccd))
    }

    /// An IDD7-style loop: bank-interleaved activates at tRRD with a
    /// column burst per activate, precharging each bank before its next
    /// activate. With enough banks this saturates both the row and the
    /// column machinery.
    ///
    /// # Errors
    ///
    /// Returns an error if the timing produces an empty loop.
    pub fn idd7(timing: &Timing, clock: Hertz, banks: u32) -> Result<Self, ModelError> {
        let cycles = |s: Seconds| -> u64 { to_cycles(s, clock) };
        let banks = banks.max(1);
        // Activate spacing: limited by tRRD between banks, and by tRC/banks
        // for re-visiting the same bank; also cannot outrun the data bus.
        let spacing = cycles(timing.trrd)
            .max(
                (cycles(timing.trc).max(cycles(timing.tras) + cycles(timing.trp)))
                    .div_ceil(u64::from(banks)),
            )
            // At most four activates per tFAW window.
            .max(cycles(timing.tfaw).div_ceil(4))
            .max(u64::from(timing.tccd_cycles))
            .max(1);
        let trcd = cycles(timing.trcd).max(1);
        let tras = cycles(timing.tras).max(trcd + 1);
        let loop_cycles = spacing * u64::from(banks);
        let mut commands = Vec::new();
        for b in 0..banks {
            let base = spacing * u64::from(b);
            commands.push(TimedCommand {
                cycle: base,
                bank: b,
                command: Command::Activate,
            });
            commands.push(TimedCommand {
                cycle: (base + trcd) % loop_cycles,
                bank: b,
                command: Command::Read,
            });
            commands.push(TimedCommand {
                cycle: (base + tras) % loop_cycles,
                bank: b,
                command: Command::Precharge,
            });
        }
        Self::new(commands, loop_cycles)
    }

    /// Checks the schedule as a repeating loop against the per-bank and
    /// shared-resource timing constraints: a warm-up pass from `initial`,
    /// then two checked passes.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::TimingViolation`] describing the first
    /// violated constraint.
    pub fn validate_loop(
        &self,
        timing: &Timing,
        clock: Hertz,
        banks: u32,
        initial: InitialBankState,
    ) -> Result<(), ModelError> {
        let mut checker = TimingChecker::new(timing, clock, banks, initial);
        // Pass 0 is a warm-up: a loop may schedule a wrapped command
        // (e.g. the read of the last bank's activate) that only makes sense
        // in steady state. Constraints are enforced from pass 1 on.
        checker.pass(&self.commands, 0, false)?;
        for iteration in 1..3 {
            checker.pass(&self.commands, iteration * self.cycles, true)?;
        }
        Ok(())
    }

    /// Checks the schedule as a finite trace, one pass from all banks
    /// precharged, against the per-bank and shared-resource timing
    /// constraints.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::TimingViolation`] for the first violation.
    pub fn validate_trace(
        &self,
        timing: &Timing,
        clock: Hertz,
        banks: u32,
    ) -> Result<(), ModelError> {
        let mut checker = TimingChecker::new(timing, clock, banks, InitialBankState::AllClosed);
        checker.pass(&self.commands, 0, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ddr3_1g_x16_55nm;

    fn fixture() -> (Timing, Hertz) {
        let d = ddr3_1g_x16_55nm();
        (d.timing, d.spec.control_clock)
    }

    /// A schedule of `cycles` cycles from `(cycle, bank, command)`
    /// triples.
    fn schedule(commands: &[(u64, u32, Command)], cycles: u64) -> Result<Schedule, ModelError> {
        let commands = commands
            .iter()
            .map(|&(cycle, bank, command)| TimedCommand {
                cycle,
                bank,
                command,
            })
            .collect();
        Schedule::new(commands, cycles)
    }

    #[test]
    fn idd0_loop_is_valid_and_trc_long() {
        let (t, f) = fixture();
        let p = Schedule::idd0(&t, f).expect("builds");
        // 49 ns at 800 MHz = 40 cycles.
        assert_eq!(p.cycles(), 40);
        assert_eq!(p.count(Command::Activate), 1);
        assert_eq!(p.count(Command::Precharge), 1);
        p.validate_loop(&t, f, 8, InitialBankState::AllClosed)
            .expect("IDD0 loop is legal");
        // Activate rate is 1/tRC.
        let rate = f.megahertz() * p.count(Command::Activate) as f64 / p.cycles() as f64;
        assert!((rate - 20.0).abs() < 0.5);
    }

    #[test]
    fn idd4_loop_is_seamless_and_valid() {
        let (t, f) = fixture();
        let p = Schedule::idd4(Command::Read, &t, 8).expect("builds");
        assert_eq!(p.cycles(), 16);
        assert_eq!(p.count(Command::Read), 4);
        p.validate_loop(&t, f, 8, InitialBankState::AllOpen)
            .expect("IDD4R loop is legal");
        // One read per tCCD: rate = clock/4.
        let rate = f.megahertz() * p.count(Command::Read) as f64 / p.cycles() as f64;
        assert!((rate - 200.0).abs() < 1e-6);
    }

    #[test]
    fn idd4_on_closed_banks_is_rejected() {
        let (t, f) = fixture();
        let p = Schedule::idd4(Command::Read, &t, 8).expect("builds");
        let err = p
            .validate_loop(&t, f, 8, InitialBankState::AllClosed)
            .unwrap_err();
        assert!(err.to_string().contains("closed bank"));
    }

    #[test]
    fn idd7_loop_is_valid() {
        let (t, f) = fixture();
        let p = Schedule::idd7(&t, f, 8).expect("builds");
        p.validate_loop(&t, f, 8, InitialBankState::AllClosed)
            .expect("IDD7 loop is legal");
        assert_eq!(p.count(Command::Activate), 8);
        assert_eq!(p.count(Command::Read), 8);
        assert_eq!(p.count(Command::Precharge), 8);
        // Activates are spaced at least tRC/8 apart, so all eight fit.
        assert!(p.cycles() >= 40);
    }

    #[test]
    fn trc_violation_is_detected() {
        use Command::{Activate as Act, Precharge as Pre};
        let (t, f) = fixture();
        // Activate + precharge squeezed into half a tRC: cycle 28 lies
        // outside a 20-cycle loop, and a command at the cycle count lies
        // outside it too -> construction errors.
        assert!(schedule(&[(0, 0, Act), (28, 0, Pre)], 20).is_err());
        assert!(schedule(&[(100, 0, Act)], 100).is_err());
        let p = schedule(&[(0, 0, Act), (15, 0, Pre)], 20).expect("builds");
        let err = p
            .validate_loop(&t, f, 8, InitialBankState::AllClosed)
            .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("tRC") || msg.contains("tRAS") || msg.contains("tRP"),
            "{msg}"
        );
    }

    #[test]
    fn tccd_violation_is_detected() {
        let (t, f) = fixture();
        let p = schedule(&[(0, 0, Command::Read), (1, 1, Command::Read)], 8).expect("builds");
        let err = p
            .validate_loop(&t, f, 8, InitialBankState::AllOpen)
            .unwrap_err();
        assert!(err.to_string().contains("tCCD"));
    }

    #[test]
    fn tfaw_violation_is_detected() {
        let (t, f) = fixture();
        // Five activates on different banks at tRRD spacing (6 cycles):
        // the fifth lands 24 cycles after the first, inside the 32-cycle
        // tFAW window. Each bank precharges after tRAS so the loop is
        // otherwise legal.
        let mut cmds: Vec<TimedCommand> = Vec::new();
        for i in 0..5u32 {
            let base = u64::from(i) * 6;
            cmds.push(TimedCommand {
                cycle: base,
                bank: i,
                command: Command::Activate,
            });
            cmds.push(TimedCommand {
                cycle: base + 30,
                bank: i,
                command: Command::Precharge,
            });
        }
        let p = Schedule::new(cmds, 128).expect("builds");
        let err = p
            .validate_loop(&t, f, 8, InitialBankState::AllClosed)
            .unwrap_err();
        assert!(err.to_string().contains("tFAW"), "{err}");
    }

    #[test]
    fn four_activates_within_the_window_are_legal() {
        let (t, f) = fixture();
        // Exactly four activates at tRRD spacing, next group a full tFAW
        // later: legal.
        let mut cmds = Vec::new();
        for group in 0..2u64 {
            for i in 0..4u64 {
                let base = group * 40 + i * 6;
                let bank = u32::try_from(group * 4 + i).expect("bank");
                cmds.push(TimedCommand {
                    cycle: base,
                    bank,
                    command: Command::Activate,
                });
                cmds.push(TimedCommand {
                    cycle: base + 30,
                    bank,
                    command: Command::Precharge,
                });
            }
        }
        let p = Schedule::new(cmds, 128).expect("builds");
        p.validate_loop(&t, f, 8, InitialBankState::AllClosed)
            .expect("four per window is legal");
    }

    #[test]
    fn activate_to_open_bank_is_detected() {
        let (t, f) = fixture();
        let p = schedule(&[(0, 0, Command::Activate)], 60).expect("builds");
        // Second iteration activates the still-open bank.
        let err = p
            .validate_loop(&t, f, 8, InitialBankState::AllClosed)
            .unwrap_err();
        assert!(err.to_string().contains("open bank"));
    }

    #[test]
    fn nops_are_dropped_and_commands_sorted() {
        use Command::{Activate as Act, Nop, Precharge as Pre};
        for (commands, cycles) in [
            ([(5, 0, Pre), (2, 0, Nop), (0, 0, Act)], 10),
            ([(10, 0, Pre), (5, 0, Nop), (0, 0, Act)], 100),
        ] {
            let p = schedule(&commands, cycles).expect("builds");
            assert_eq!(p.commands().len(), 2);
            assert_eq!(p.commands()[0].command, Command::Activate);
            assert_eq!(p.count(Command::Activate), 1);
        }
    }

    #[test]
    fn zero_loop_is_rejected() {
        assert!(Schedule::new(vec![], 0).is_err());
    }

    #[test]
    fn legal_access_sequence_validates() {
        use Command::{
            Activate as Act, PowerDownEnter as Pde, PowerDownExit as Pdx, Precharge as Pre,
            Read as Rd, Refresh as Ref,
        };
        let (timing, clock) = fixture();
        // act @0, rd @12 (tRCD=12 cycles at 800 MHz), pre @28 (tRAS), next
        // act @40 (tRC).
        let access = [
            (0, 0, Act),
            (12, 0, Rd),
            (28, 0, Pre),
            (40, 0, Act),
            (52, 0, Rd),
        ];
        // Only act, pre, rd and wr address a bank: the CKE transitions and
        // an all-bank refresh pass whatever bank they carry.
        let bankless = [(0, 9, Pde), (100, 9, Pdx), (200, 9, Ref)];
        for commands in [&access[..], &bankless] {
            let t = schedule(commands, 300).expect("builds");
            t.validate_trace(&timing, clock, 8).expect("legal");
        }
    }

    /// One trace per rule `validate_trace` enforces, each breaking only
    /// that rule first. The 55 nm DDR3 reference at 800 MHz: tRC 40,
    /// tRAS 28, tRP 12, tRCD 12, tRRD 6, tFAW 32, tCCD 4 and tRFC 88
    /// cycles, 8 banks.
    #[test]
    fn early_read_is_rejected() {
        use Command::{Activate as Act, Precharge as Pre, Read as Rd, Refresh as Ref};
        let (timing, clock) = fixture();
        let trace = |commands: &[(u64, u32, Command)]| schedule(commands, 100).expect("builds");
        let cases = [
            (
                "tRC violated on bank 0",
                trace(&[(0, 0, Act), (28, 0, Pre), (39, 0, Act)]),
            ),
            (
                "tRP violated on bank 0",
                trace(&[(0, 0, Act), (30, 0, Pre), (40, 0, Act)]),
            ),
            ("tRRD violated", trace(&[(0, 0, Act), (5, 1, Act)])),
            (
                "tFAW",
                trace(&[
                    (0, 0, Act),
                    (6, 1, Act),
                    (12, 2, Act),
                    (18, 3, Act),
                    (24, 4, Act),
                ]),
            ),
            (
                "tRAS violated on bank 0",
                trace(&[(0, 0, Act), (20, 0, Pre)]),
            ),
            ("tRCD violated on bank 0", trace(&[(0, 0, Act), (3, 0, Rd)])),
            (
                "tCCD violated",
                trace(&[(0, 0, Act), (6, 1, Act), (18, 0, Rd), (20, 1, Rd)]),
            ),
            (
                "refresh with open banks",
                trace(&[(0, 0, Act), (10, 0, Ref)]),
            ),
            ("command addresses bank 8 of 8", trace(&[(0, 8, Act)])),
            (
                "activate to open bank 0",
                trace(&[(0, 0, Act), (50, 0, Act)]),
            ),
            ("column access to closed bank 2", trace(&[(0, 2, Rd)])),
            (
                "tRFC violated at cycle 1",
                trace(&[(0, 0, Ref), (1, 0, Act)]),
            ),
            (
                "tRFC violated at cycle 87",
                trace(&[(0, 0, Ref), (87, 0, Ref)]),
            ),
            (
                "tRP violated at cycle 28",
                trace(&[(0, 0, Act), (28, 0, Pre), (28, 0, Ref)]),
            ),
        ];
        for (rule, t) in cases {
            let err = t.validate_trace(&timing, clock, 8).unwrap_err();
            assert!(err.to_string().contains(rule), "{rule}: {err}");
        }
    }
}
