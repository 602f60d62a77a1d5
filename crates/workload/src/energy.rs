//! Trace-driven energy accounting: total energy, average power, energy
//! per bit, and the effect of a memory-controller power-down policy.
//!
//! This module holds the policy and the report, broken down by the five
//! billable [`PowerState`]s; the billing itself lives once, in
//! [`crate::StreamFold`]. [`simulate`] prices an in-memory [`Schedule`]
//! by pushing its commands through that fold, so it and the streamed
//! path agree bit for bit.

use dram_core::lowpower::PowerState;
use dram_core::timing::Schedule;
use dram_core::Dram;
use dram_units::{Joules, Seconds, Watts};

use crate::stream::{StreamFold, TraceError};

/// A CKE power-down policy of the memory controller (§V: Hur & Lin
/// schedule power-down usage against its re-entry latency), with a
/// second, deeper tier: after `self_refresh_threshold_cycles` of idling
/// the controller moves the device from power-down into self-refresh
/// (IDD6), trading the long tXS-style exit latency for the lowest
/// standing power. It parameterizes [`crate::StreamFold`], the fold
/// behind both [`simulate`] and the streamed path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PowerDownPolicy {
    /// Enter power-down when the device has been idle this many cycles.
    pub threshold_cycles: u64,
    /// Cycles needed to exit power-down before the next command (the
    /// performance cost; energy-wise these cycles run at standby power).
    pub exit_latency_cycles: u64,
    /// Enter self-refresh when the device has been idle this many
    /// cycles (counted from the same idle start as `threshold_cycles`,
    /// so it must be the larger of the two). `u64::MAX` disables the
    /// tier.
    pub self_refresh_threshold_cycles: u64,
    /// Cycles needed to exit self-refresh before the next command
    /// (tXS-scale, much longer than the power-down exit); billed at
    /// standby power like the power-down exit latency.
    pub self_refresh_exit_latency_cycles: u64,
}

impl PowerDownPolicy {
    /// No power-down: the device idles in standby.
    pub const NEVER: PowerDownPolicy = PowerDownPolicy {
        threshold_cycles: u64::MAX,
        exit_latency_cycles: 0,
        self_refresh_threshold_cycles: u64::MAX,
        self_refresh_exit_latency_cycles: 0,
    };

    /// An aggressive policy: power down after 16 idle cycles with a
    /// 6-cycle exit, and drop into self-refresh once an idle window
    /// stretches past 4096 cycles, paying a 512-cycle exit — the deeper
    /// tier only wins on gaps long enough to amortize that latency.
    pub const AGGRESSIVE: PowerDownPolicy = PowerDownPolicy {
        threshold_cycles: 16,
        exit_latency_cycles: 6,
        self_refresh_threshold_cycles: 4096,
        self_refresh_exit_latency_cycles: 512,
    };
}

/// Per-state cycle and energy totals of one trace accounting pass,
/// indexed by [`PowerState`] (`state as usize`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StateBreakdown {
    /// Cycles spent in each state.
    pub cycles: [u64; 5],
    /// Background energy billed in each state: the state's power times
    /// its cycles times the cycle time.
    pub energy: [Joules; 5],
}

impl StateBreakdown {
    /// Cycles spent in `state`.
    #[must_use]
    pub fn cycles(&self, state: PowerState) -> u64 {
        self.cycles[state as usize]
    }

    /// Energy billed in `state`.
    #[must_use]
    pub fn energy(&self, state: PowerState) -> Joules {
        self.energy[state as usize]
    }

    /// Total cycles across all states.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.cycles.iter().sum()
    }
}

/// Energy accounting result for one trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceReport {
    /// Total external energy over the trace.
    pub energy: Joules,
    /// Trace duration.
    pub duration: Seconds,
    /// Average external power.
    pub average_power: Watts,
    /// Energy per transferred bit.
    pub energy_per_bit: Joules,
    /// Energy spent in command (row + column) work.
    pub command_energy: Joules,
    /// Background energy billed awake (`active` plus `standby`).
    pub background_energy: Joules,
    /// Energy spent in power-down (precharge and active).
    pub power_down_energy: Joules,
    /// Cycles spent in power-down (precharge and active).
    pub power_down_cycles: u64,
    /// Bits transferred.
    pub bits: f64,
    /// Energy spent in row (activate + precharge) commands — the
    /// quantity the §V row-granularity schemes attack.
    pub row_energy: Joules,
    /// Energy spent in self-refresh.
    pub self_refresh_energy: Joules,
    /// Cycles spent in self-refresh.
    pub self_refresh_cycles: u64,
    /// Per-state cycle/energy breakdown of the background accounting.
    pub states: StateBreakdown,
}

impl TraceReport {
    /// Row-operation share of the command energy: the quantity the §V
    /// row-granularity schemes attack. Zero for a trace without commands.
    #[must_use]
    pub fn row_energy_share(&self) -> f64 {
        if self.command_energy.joules() > 0.0 {
            self.row_energy.joules() / self.command_energy.joules()
        } else {
            0.0
        }
    }
}

/// Computes the energy of an in-memory schedule, read as a finite trace,
/// under a power-down policy by pushing its commands through a
/// [`StreamFold`] and closing it at the schedule's cycle count. The
/// billing rules are the fold's (see `docs/TRACES.md`).
///
/// # Errors
///
/// The fold's [`TraceError`] (line 0) for a command its power-state
/// machine rejects — a work command while powered down, an unpaired
/// exit, a self-refresh entry or refresh with a bank open, a bank out
/// of range — or a trace length that ends inside an exit latency.
pub fn simulate(
    dram: &Dram,
    trace: &Schedule,
    policy: PowerDownPolicy,
) -> Result<TraceReport, TraceError> {
    let mut fold = StreamFold::new(dram, policy);
    for &c in trace.commands() {
        fold.push(c)?;
    }
    fold.finish(Some(trace.cycles()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, WorkloadSpec};
    use dram_core::reference::ddr3_1g_x16_55nm;
    use dram_core::timing::TimedCommand;
    use dram_core::{Command, Dram, DramDescription, Pattern};
    use dram_units::rng::SplitMix64;

    fn model() -> Dram {
        Dram::new(ddr3_1g_x16_55nm()).expect("valid")
    }

    #[test]
    fn energy_components_sum() {
        let dram = model();
        let w = generate(&dram, &WorkloadSpec::random(300, 5)).expect("ok");
        let r = simulate(&dram, &w.trace, PowerDownPolicy::NEVER).expect("legal");
        let sum = r.command_energy + r.background_energy + r.power_down_energy;
        assert!((r.energy.joules() - sum.joules()).abs() < 1e-15);
        assert_eq!(r.power_down_cycles, 0);
        assert!(r.energy_per_bit.picojoules() > 1.0);
    }

    #[test]
    fn random_traffic_costs_more_per_bit_than_streaming() {
        // §IV.C: the Idd7-style random pattern "more closely replicates
        // power consumption in a system" and costs more than streaming.
        let dram = model();
        let stream = generate(&dram, &WorkloadSpec::streaming(800, 11)).expect("ok");
        let random = generate(&dram, &WorkloadSpec::random(800, 11)).expect("ok");
        let epb = |trace| {
            simulate(&dram, trace, PowerDownPolicy::NEVER)
                .expect("legal")
                .energy_per_bit
        };
        let (e_stream, e_random) = (epb(&stream.trace), epb(&random.trace));
        assert!(
            e_random.joules() > 1.5 * e_stream.joules(),
            "random {} vs streaming {}",
            e_random,
            e_stream
        );
    }

    #[test]
    fn power_down_saves_energy_on_sparse_traffic() {
        let dram = model();
        let w = generate(&dram, &WorkloadSpec::sparse(100, 13)).expect("ok");
        let never = simulate(&dram, &w.trace, PowerDownPolicy::NEVER).expect("legal");
        let aggressive = simulate(&dram, &w.trace, PowerDownPolicy::AGGRESSIVE).expect("legal");
        assert!(aggressive.power_down_cycles > 0);
        assert!(
            aggressive.energy < never.energy,
            "power-down should save: {} vs {}",
            aggressive.energy,
            never.energy
        );
        // On sparse traffic the saving is substantial.
        let saving = 1.0 - aggressive.energy.joules() / never.energy.joules();
        assert!(saving > 0.2, "saving {saving}");
    }

    #[test]
    fn power_down_is_irrelevant_for_saturated_traffic() {
        let dram = model();
        let w = generate(&dram, &WorkloadSpec::streaming(500, 17)).expect("ok");
        let never = simulate(&dram, &w.trace, PowerDownPolicy::NEVER).expect("legal");
        let aggressive = simulate(&dram, &w.trace, PowerDownPolicy::AGGRESSIVE).expect("legal");
        let saving = 1.0 - aggressive.energy.joules() / never.energy.joules();
        assert!(
            saving < 0.10,
            "saving {saving} too high for saturated traffic"
        );
    }

    #[test]
    fn row_share_is_high_for_random_low_for_streaming() {
        let dram = model();
        let stream = generate(&dram, &WorkloadSpec::streaming(600, 19)).expect("ok");
        let random = generate(&dram, &WorkloadSpec::random(600, 19)).expect("ok");
        let share = |trace| {
            simulate(&dram, trace, PowerDownPolicy::NEVER)
                .expect("legal")
                .row_energy_share()
        };
        let s = share(&stream.trace);
        let r = share(&random.trace);
        assert!(r > 0.5, "random row share {r}");
        assert!(s < r / 2.0, "streaming row share {s} vs random {r}");
    }

    /// The eight preset devices the server names.
    fn every_preset() -> [DramDescription; 8] {
        use dram_scaling::presets;
        [
            ddr3_1g_x16_55nm(),
            presets::sdr_128m_170nm(),
            presets::ddr2_1g_75nm(),
            presets::ddr2_1g_65nm(),
            presets::ddr3_1g_65nm(),
            presets::ddr3_1g_55nm(),
            presets::ddr3_2g_55nm(),
            presets::ddr5_16g_18nm(),
        ]
    }

    /// A `length`-cycle trace of `commands`, all on bank 0.
    fn bank0_trace(commands: &[(u64, Command)], length: u64) -> Schedule {
        let commands = commands
            .iter()
            .map(|&(cycle, command)| TimedCommand {
                cycle,
                bank: 0,
                command,
            })
            .collect();
        Schedule::new(commands, length).expect("builds")
    }

    /// A nap: powered down from cycle 0 to 1000 of 2000.
    const NAP: [(u64, Command); 2] = [(0, Command::PowerDownEnter), (1000, Command::PowerDownExit)];

    /// Every command kind once, in a legal order.
    const EVERY_KIND: [(u64, Command); 10] = [
        (0, Command::Activate),
        (12, Command::Read),
        (16, Command::Write),
        (28, Command::Precharge),
        (50, Command::Nop),
        (100, Command::Refresh),
        (300, Command::PowerDownEnter),
        (900, Command::PowerDownExit),
        (1000, Command::SelfRefreshEnter),
        (90_000, Command::SelfRefreshExit),
    ];

    /// The fold's per-command energies sum to the naive
    /// `Dram::command_energy` recomputation bit for bit, on every preset
    /// and for traces that carry every command kind: the random and
    /// sparse generator shapes, the nap of
    /// `explicit_cke_commands_bill_power_down`, and `ref`, `pde`/`pdx`
    /// and `sre`/`srx` in one trace.
    #[test]
    fn single_pass_matches_per_command_recomputation() {
        for description in every_preset() {
            let name = description.name.clone();
            let dram = Dram::new(description).expect("valid");
            let random = generate(&dram, &WorkloadSpec::random(400, 29)).expect("ok");
            let sparse = generate(&dram, &WorkloadSpec::sparse(150, 13)).expect("ok");
            let traces = [
                random.trace.clone(),
                sparse.trace,
                bank0_trace(&NAP, 2000),
                bank0_trace(&EVERY_KIND, 100_000),
            ];
            for trace in &traces {
                let r = simulate(&dram, trace, PowerDownPolicy::NEVER).expect("legal");
                // Summed from +0.0, as the fold sums: `Iterator::sum` of
                // no floats is -0.0.
                let naive = |row_only: bool| {
                    trace
                        .commands()
                        .iter()
                        .filter(|c| {
                            !row_only || matches!(c.command, Command::Activate | Command::Precharge)
                        })
                        .fold(Joules::ZERO, |sum, c| sum + dram.command_energy(c.command))
                };
                let (naive_row, naive_all) = (naive(true), naive(false));
                assert_eq!(
                    r.row_energy.joules().to_bits(),
                    naive_row.joules().to_bits(),
                    "{name}"
                );
                assert_eq!(
                    r.command_energy.joules().to_bits(),
                    naive_all.joules().to_bits(),
                    "{name}"
                );
            }
            // The folded idle accounting agrees with a standalone pass
            // over the idle gaps: before each command and after the last.
            let policy = PowerDownPolicy::AGGRESSIVE;
            let trace = &random.trace;
            let starts = trace
                .commands()
                .iter()
                .map(|c| c.cycle)
                .chain([trace.cycles()]);
            let ends = [0]
                .into_iter()
                .chain(trace.commands().iter().map(|c| c.cycle + 1));
            let mut pd = 0u64;
            for gap in starts
                .zip(ends)
                .map(|(start, end)| start.saturating_sub(end))
            {
                if gap > policy.threshold_cycles {
                    pd += gap
                        .saturating_sub(policy.threshold_cycles)
                        .saturating_sub(policy.exit_latency_cycles);
                }
            }
            let folded = simulate(&dram, &random.trace, policy).expect("legal");
            assert_eq!(folded.power_down_cycles, pd, "{name}");
            // And the share derives from the report's own fields.
            let r = simulate(&dram, &random.trace, PowerDownPolicy::NEVER).expect("legal");
            assert_eq!(
                r.row_energy_share().to_bits(),
                (r.row_energy.joules() / r.command_energy.joules()).to_bits(),
                "{name}"
            );
        }
    }

    #[test]
    fn self_refresh_tier_engages_on_long_gaps() {
        let dram = model();
        // One access episode, then ~40k idle cycles: far past the
        // AGGRESSIVE self-refresh threshold.
        let trace = bank0_trace(&[(0, Command::Activate), (30, Command::Precharge)], 40_000);
        let pd_only = PowerDownPolicy {
            self_refresh_threshold_cycles: u64::MAX,
            self_refresh_exit_latency_cycles: 0,
            ..PowerDownPolicy::AGGRESSIVE
        };
        let two_tier = simulate(&dram, &trace, PowerDownPolicy::AGGRESSIVE).expect("legal");
        let shallow = simulate(&dram, &trace, pd_only).expect("legal");
        assert!(two_tier.self_refresh_cycles > 30_000);
        assert_eq!(shallow.self_refresh_cycles, 0);
        // Self-refresh sits below standby but above power-down, so the
        // deep tier costs more than idealized power-down-forever yet the
        // breakdown must still cover every cycle exactly once. The bank
        // is open over cycles 1..=30: the 29-cycle gap tiers 7 cycles
        // into active power-down (29 - 16 threshold - 6 exit) and bills
        // the other 22, plus the precharge's own cycle, as `active`.
        assert_eq!(two_tier.states.total_cycles(), 40_000);
        assert_eq!(two_tier.states.cycles(PowerState::ActiveStandby), 23);
        assert_eq!(two_tier.states.cycles(PowerState::ActivePowerDown), 7);
        assert_eq!(
            two_tier.states.cycles(PowerState::SelfRefresh),
            two_tier.self_refresh_cycles
        );
        let sum = two_tier.command_energy
            + two_tier.background_energy
            + two_tier.power_down_energy
            + two_tier.self_refresh_energy;
        assert!((two_tier.energy.joules() - sum.joules()).abs() < 1e-15);
        // IDD6 > IDD2P in this model, so the deep tier reports more
        // energy than pretending power-down could hold indefinitely.
        assert!(two_tier.energy > shallow.energy);
    }

    /// Explicit CKE commands in an in-memory trace drive the power-state
    /// machine exactly as they do on the streamed path.
    #[test]
    fn explicit_cke_commands_bill_power_down() {
        let dram = model();
        let desc = dram.description();
        let legal = |trace: &Schedule| {
            trace
                .validate_trace(&desc.timing, desc.spec.control_clock, desc.spec.banks())
                .expect("bank timing is legal");
        };
        let nap = bank0_trace(&NAP, 2000);
        legal(&nap);
        let r = simulate(&dram, &nap, PowerDownPolicy::NEVER).expect("legal");
        // pde@0 bills its cycle and 3 entry cycles at standby, 4..=999
        // are powered down, pdx@1000 wakes with no exit latency, and the
        // 999-cycle tail idles in standby.
        assert_eq!(r.power_down_cycles, 996);
        assert_eq!(r.states.cycles(PowerState::PrechargePowerDown), 996);
        assert_eq!(r.states.cycles(PowerState::PrechargedStandby), 1004);
        // Work while powered down is a typed error, not an energy.
        let busy = bank0_trace(
            &[
                (0, Command::PowerDownEnter),
                (500, Command::Activate),
                (1000, Command::PowerDownExit),
            ],
            2000,
        );
        legal(&busy);
        let err = simulate(&dram, &busy, PowerDownPolicy::NEVER).unwrap_err();
        assert_eq!(err.kind, crate::TraceErrorKind::CommandWhileAsleep);
    }

    #[test]
    fn empty_trace_is_background_only() {
        let dram = model();
        let trace = Schedule::new(vec![], 1000).expect("ok");
        let r = simulate(&dram, &trace, PowerDownPolicy::NEVER).expect("legal");
        assert_eq!(r.command_energy, Joules::ZERO);
        assert_eq!(r.bits, 0.0);
        assert_eq!(r.energy_per_bit, Joules::ZERO);
        assert!(r.background_energy.joules() > 0.0);
    }

    /// Units in the last place between two finite floats of one sign.
    fn ulps(a: f64, b: f64) -> u64 {
        a.to_bits().abs_diff(b.to_bits())
    }

    /// A loop is a trace: one pass of each datasheet loop (IDD0, IDD1,
    /// IDD4R, IDD4W, IDD7) and of the §IV.B mixed workload, folded as a
    /// finite trace, averages to the loop price of
    /// `Dram::timed_pattern_power` within 4 ulps on every preset. The two
    /// reach the same price by different arithmetic (energy over duration
    /// against power per loop), so one loop is pinned: over many loops
    /// the fold's running sums drift further apart.
    #[test]
    fn one_loop_as_a_trace_prices_as_the_loop() {
        for description in every_preset() {
            let name = description.name.clone();
            let dram = Dram::new(description).expect("valid");
            let desc = dram.description();
            let (timing, clock, banks) = (&desc.timing, desc.spec.control_clock, desc.spec.banks());
            let loops = [
                ("IDD0", Schedule::idd0(timing, clock).expect("builds")),
                ("IDD1", Schedule::idd1(timing, clock).expect("builds")),
                (
                    "IDD4R",
                    Schedule::idd4(Command::Read, timing, banks).expect("builds"),
                ),
                (
                    "IDD4W",
                    Schedule::idd4(Command::Write, timing, banks).expect("builds"),
                ),
                (
                    "IDD7",
                    Schedule::idd7(timing, clock, banks).expect("builds"),
                ),
                ("mixed", dram.mixed_workload()),
            ];
            for (pattern_name, pattern) in loops {
                let traced = simulate(&dram, &pattern, PowerDownPolicy::NEVER)
                    .expect("legal")
                    .average_power
                    .watts();
                let looped = dram.timed_pattern_power(&pattern).power.watts();
                assert!(
                    ulps(traced, looped) <= 4,
                    "{name} {pattern_name}: trace {traced} vs loop {looped}"
                );
            }
        }
    }

    /// `Dram::pattern_power` prices a slot loop as `E·f/n`, and
    /// `Dram::timed_pattern_power` prices the same slots as a bank-0
    /// schedule as `E·(1/(n/f))`. The two round differently (a third of
    /// seeded patterns differ by 1 or 2 ulps), so they stay apart and are
    /// pinned within 4 ulps: on the paper example and on seeded patterns
    /// of 1 to 1,024 slots, on every preset.
    #[test]
    fn slot_patterns_price_as_their_bank0_schedule() {
        const KINDS: [Command; 6] = [
            Command::Activate,
            Command::Precharge,
            Command::Read,
            Command::Write,
            Command::Nop,
            Command::Refresh,
        ];
        let mut rng = SplitMix64::new(0x5107_7e57);
        for description in every_preset() {
            let name = description.name.clone();
            let dram = Dram::new(description).expect("valid");
            let mut patterns = vec![Pattern::paper_example()];
            patterns.extend((0..200).map(|_| {
                let len = 1 + rng.range_usize(1024);
                Pattern::new((0..len).map(|_| *rng.pick(&KINDS)).collect()).expect("non-empty")
            }));
            for pattern in patterns {
                let slots: Vec<(u64, Command)> =
                    (0u64..).zip(pattern.slots().iter().copied()).collect();
                let schedule = bank0_trace(&slots, pattern.len() as u64);
                let slotted = dram.pattern_power(&pattern).power.watts();
                let timed = dram.timed_pattern_power(&schedule).power.watts();
                assert!(
                    ulps(slotted, timed) <= 4,
                    "{name}, {} slots: pattern {slotted} vs schedule {timed}",
                    pattern.len()
                );
            }
        }
    }

    /// The trace simulator and the analytic IDD7 estimate must agree on
    /// the random-access regime within a factor-level tolerance.
    #[test]
    fn trace_energy_agrees_with_analytic_idd7_scale() {
        let dram = model();
        let w = generate(&dram, &WorkloadSpec::random(2000, 23)).expect("ok");
        let r = simulate(&dram, &w.trace, PowerDownPolicy::NEVER).expect("legal");
        let analytic = dram.energy_per_bit_random();
        let ratio = r.energy_per_bit.joules() / analytic.joules();
        assert!(
            (0.4..2.5).contains(&ratio),
            "trace {} vs analytic {} (ratio {ratio})",
            r.energy_per_bit,
            analytic
        );
    }
}
