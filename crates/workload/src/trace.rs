//! Finite command traces and their timing validation.
//!
//! Where [`dram_core::timing::TimedPattern`] models the repeating loops
//! of datasheet current specifications, a [`Trace`] is a finite command
//! sequence — what a memory controller actually issues. The §V systems
//! papers (Hur & Lin's power management, Zheng's mini-rank) reason about
//! such traces, so the reproduction provides them as a first-class
//! substrate.

use dram_core::params::Timing;
use dram_core::timing::{InitialBankState, TimingChecker};
use dram_core::{Command, ModelError};
use dram_units::Hertz;

/// One issued command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCommand {
    /// Issue cycle (control clock).
    pub cycle: u64,
    /// Bank index.
    pub bank: u32,
    /// The command.
    pub command: Command,
}

/// A finite, time-annotated command sequence.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    commands: Vec<TraceCommand>,
    length_cycles: u64,
}

impl Trace {
    /// Creates a trace; commands are sorted by cycle, nops dropped.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadParameter`] if a command lies beyond the
    /// trace length.
    pub fn new(mut commands: Vec<TraceCommand>, length_cycles: u64) -> Result<Self, ModelError> {
        commands.retain(|c| c.command != Command::Nop);
        commands.sort_by_key(|c| c.cycle);
        if let Some(last) = commands.last() {
            if last.cycle >= length_cycles {
                return Err(ModelError::BadParameter {
                    name: "trace",
                    reason: format!(
                        "command at cycle {} beyond trace of {length_cycles} cycles",
                        last.cycle
                    ),
                });
            }
        }
        Ok(Self {
            commands,
            length_cycles,
        })
    }

    /// The commands, sorted by cycle.
    #[must_use]
    pub fn commands(&self) -> &[TraceCommand] {
        &self.commands
    }

    /// Trace length in control-clock cycles.
    #[must_use]
    pub fn length_cycles(&self) -> u64 {
        self.length_cycles
    }

    /// Number of occurrences of a command.
    #[must_use]
    pub fn count(&self, cmd: Command) -> usize {
        self.commands.iter().filter(|c| c.command == cmd).count()
    }

    /// Validates the trace against the per-bank and shared-resource
    /// timing constraints (cold start: all banks precharged) by running
    /// its commands through a [`TimingChecker`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::TimingViolation`] for the first violation.
    pub fn validate(&self, timing: &Timing, clock: Hertz, banks: u32) -> Result<(), ModelError> {
        let mut checker = TimingChecker::new(
            timing,
            clock,
            banks,
            timing.tccd_cycles,
            InitialBankState::AllClosed,
        );
        self.commands
            .iter()
            .try_for_each(|c| checker.check(c.cycle, c.bank, c.command))
    }

    /// Idle gaps between consecutive commands, in cycles — the windows a
    /// power-down policy can exploit.
    #[must_use]
    pub fn idle_gaps(&self) -> Vec<u64> {
        let mut gaps = Vec::new();
        let mut cursor = 0u64;
        for c in &self.commands {
            if c.cycle > cursor {
                gaps.push(c.cycle - cursor);
            }
            cursor = c.cycle + 1;
        }
        if self.length_cycles > cursor {
            gaps.push(self.length_cycles - cursor);
        }
        gaps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_core::reference::ddr3_1g_x16_55nm;

    fn fixture() -> (Timing, Hertz) {
        let d = ddr3_1g_x16_55nm();
        (d.timing, d.spec.control_clock)
    }

    #[test]
    fn trace_sorts_and_drops_nops() {
        let t = Trace::new(
            vec![
                TraceCommand {
                    cycle: 10,
                    bank: 0,
                    command: Command::Precharge,
                },
                TraceCommand {
                    cycle: 5,
                    bank: 0,
                    command: Command::Nop,
                },
                TraceCommand {
                    cycle: 0,
                    bank: 0,
                    command: Command::Activate,
                },
            ],
            100,
        )
        .expect("builds");
        assert_eq!(t.commands().len(), 2);
        assert_eq!(t.commands()[0].command, Command::Activate);
        assert_eq!(t.count(Command::Activate), 1);
    }

    #[test]
    fn out_of_range_command_is_rejected() {
        let t = Trace::new(
            vec![TraceCommand {
                cycle: 100,
                bank: 0,
                command: Command::Activate,
            }],
            100,
        );
        assert!(t.is_err());
    }

    #[test]
    fn legal_access_sequence_validates() {
        let (timing, clock) = fixture();
        // act @0, rd @12 (tRCD=12 cycles at 800 MHz), pre @28 (tRAS), next
        // act @40 (tRC).
        let t = Trace::new(
            vec![
                TraceCommand {
                    cycle: 0,
                    bank: 0,
                    command: Command::Activate,
                },
                TraceCommand {
                    cycle: 12,
                    bank: 0,
                    command: Command::Read,
                },
                TraceCommand {
                    cycle: 28,
                    bank: 0,
                    command: Command::Precharge,
                },
                TraceCommand {
                    cycle: 40,
                    bank: 0,
                    command: Command::Activate,
                },
                TraceCommand {
                    cycle: 52,
                    bank: 0,
                    command: Command::Read,
                },
            ],
            100,
        )
        .expect("builds");
        t.validate(&timing, clock, 8).expect("legal");
    }

    /// One trace per rule `validate` enforces, each breaking only that
    /// rule first. The 55 nm DDR3 reference at 800 MHz: tRC 40, tRAS 28,
    /// tRP 12, tRCD 12, tRRD 6, tFAW 32 and tCCD 4 cycles, 8 banks.
    #[test]
    fn early_read_is_rejected() {
        use Command::{Activate as Act, Precharge as Pre, Read as Rd, Refresh as Ref};
        let (timing, clock) = fixture();
        let trace = |commands: &[(u64, u32, Command)]| {
            let commands = commands
                .iter()
                .map(|&(cycle, bank, command)| TraceCommand {
                    cycle,
                    bank,
                    command,
                })
                .collect();
            Trace::new(commands, 100).expect("builds")
        };
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
        ];
        for (rule, t) in cases {
            let err = t.validate(&timing, clock, 8).unwrap_err();
            assert!(err.to_string().contains(rule), "{rule}: {err}");
        }
    }

    #[test]
    fn idle_gaps_are_found() {
        let t = Trace::new(
            vec![
                TraceCommand {
                    cycle: 0,
                    bank: 0,
                    command: Command::Activate,
                },
                TraceCommand {
                    cycle: 20,
                    bank: 0,
                    command: Command::Precharge,
                },
            ],
            100,
        )
        .expect("builds");
        // gap between cycle 1..20 (19 cycles) and 21..100 (79 cycles)
        assert_eq!(t.idle_gaps(), vec![19, 79]);
    }
}
