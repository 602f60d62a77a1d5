//! Workload generation: an open-page memory-controller model that turns
//! an abstract access stream (read share, row-buffer hit rate, bank
//! locality, intensity) into a timing-legal command trace.
//!
//! The generator is deterministic for a given seed, so figure-regenerating
//! benches produce stable numbers.

use dram_core::timing::{to_cycles, Schedule, TimedCommand};
use dram_core::{Command, Dram, ModelError};
use dram_units::rng::SplitMix64;

/// Row-buffer management policy of the modeled controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PagePolicy {
    /// Keep rows open after an access (exploits locality; misses pay a
    /// precharge before the next activate).
    #[default]
    OpenPage,
    /// Auto-precharge after every access (every access pays a full row
    /// cycle but never a miss penalty — the policy that pairs with the
    /// §V small-page schemes).
    ClosedPage,
}

/// Abstract description of an access stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Number of column accesses to issue.
    pub accesses: usize,
    /// Fraction of accesses that are reads.
    pub read_fraction: f64,
    /// Probability that an access hits the currently open row of its
    /// bank (given it targets a bank with an open row).
    pub row_hit_rate: f64,
    /// Average gap between access arrivals, in control-clock cycles
    /// (1.0 = fully saturated request stream).
    pub arrival_gap_cycles: f64,
    /// RNG seed; equal seeds give equal traces.
    pub seed: u64,
    /// Row-buffer management policy.
    pub policy: PagePolicy,
}

impl WorkloadSpec {
    /// The same stream under the closed-page policy.
    #[must_use]
    pub fn with_closed_page(mut self) -> Self {
        self.policy = PagePolicy::ClosedPage;
        self
    }

    /// A saturated streaming workload: high row hit rate, back-to-back
    /// arrivals.
    #[must_use]
    pub fn streaming(accesses: usize, seed: u64) -> Self {
        Self {
            accesses,
            read_fraction: 0.67,
            row_hit_rate: 0.95,
            arrival_gap_cycles: 1.0,
            seed,
            policy: PagePolicy::OpenPage,
        }
    }

    /// A random-access workload: every access misses the row buffer
    /// (the IDD7-like worst case of §IV.B).
    #[must_use]
    pub fn random(accesses: usize, seed: u64) -> Self {
        Self {
            accesses,
            read_fraction: 0.5,
            row_hit_rate: 0.0,
            arrival_gap_cycles: 2.0,
            seed,
            policy: PagePolicy::OpenPage,
        }
    }

    /// A sparse, latency-bound workload with long idle gaps — the regime
    /// where power-down policies (§V, Hur & Lin) pay off.
    #[must_use]
    pub fn sparse(accesses: usize, seed: u64) -> Self {
        Self {
            accesses,
            read_fraction: 0.7,
            row_hit_rate: 0.4,
            arrival_gap_cycles: 200.0,
            seed,
            policy: PagePolicy::OpenPage,
        }
    }
}

/// Generation statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GeneratorStats {
    /// Accesses that hit an open row (no row cycle needed).
    pub row_hits: usize,
    /// Accesses that required precharge + activate.
    pub row_misses: usize,
    /// Accesses to banks with no open row (activate only).
    pub row_empty: usize,
}

/// A generated trace plus its statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedWorkload {
    /// The command trace.
    pub trace: Schedule,
    /// Hit/miss statistics.
    pub stats: GeneratorStats,
}

/// Per-bank scheduling state of the simple in-order open-page controller.
#[derive(Debug, Clone, Copy)]
struct BankState {
    open_row: Option<u64>,
    earliest_act: u64,
    earliest_column: u64,
    earliest_pre: u64,
}

/// Generates a legal trace for the device's timing.
///
/// The controller is in-order and open-page: a row hit issues just the
/// column command; a miss precharges and re-activates; an empty bank
/// activates. Commands are pushed to the earliest legal cycle.
///
/// # Errors
///
/// Returns [`ModelError`] if the specification is degenerate (zero
/// accesses is allowed and yields an empty trace).
pub fn generate(dram: &Dram, spec: &WorkloadSpec) -> Result<GeneratedWorkload, ModelError> {
    if !(0.0..=1.0).contains(&spec.read_fraction) || !(0.0..=1.0).contains(&spec.row_hit_rate) {
        return Err(ModelError::BadParameter {
            name: "workload",
            reason: "read_fraction and row_hit_rate must be in 0..=1".into(),
        });
    }
    if spec.arrival_gap_cycles < 0.0 || !spec.arrival_gap_cycles.is_finite() {
        return Err(ModelError::BadParameter {
            name: "workload.arrival_gap_cycles",
            reason: "must be finite and non-negative".into(),
        });
    }

    let desc = dram.description();
    let timing = &desc.timing;
    let clock = desc.spec.control_clock;
    let banks = desc.spec.banks();
    let rows = desc.spec.rows_per_bank();
    let cyc = |s| to_cycles(s, clock);
    let (trc, tras, trp, trcd, trrd, tfaw) = (
        cyc(timing.trc),
        cyc(timing.tras),
        cyc(timing.trp),
        cyc(timing.trcd),
        cyc(timing.trrd),
        cyc(timing.tfaw),
    );
    let tccd = u64::from(timing.tccd_cycles);

    let mut rng = SplitMix64::new(spec.seed);
    let mut bank_state = vec![
        BankState {
            open_row: None,
            earliest_act: 0,
            earliest_column: 0,
            earliest_pre: 0
        };
        banks as usize
    ];
    let mut commands = Vec::new();
    let mut stats = GeneratorStats::default();
    let mut next_any_act = 0u64;
    let mut next_column = 0u64;
    let mut recent_acts: std::collections::VecDeque<u64> = std::collections::VecDeque::new();
    let mut arrival = 0f64;
    let mut cursor = 0u64;

    for _ in 0..spec.accesses {
        arrival += if spec.arrival_gap_cycles <= 1.0 {
            spec.arrival_gap_cycles
        } else {
            // Exponential-ish jitter around the mean gap.
            rng.range_f64(0.5, 1.5) * spec.arrival_gap_cycles
        };
        let t_arrival = (arrival as u64).max(cursor);
        let bank = rng.range_u32(banks);
        let b = bank as usize;
        let is_read = rng.chance(spec.read_fraction);
        let column_cmd = if is_read {
            Command::Read
        } else {
            Command::Write
        };

        // Decide the target row.
        let target_row = match bank_state[b].open_row {
            Some(open) if rng.chance(spec.row_hit_rate) => {
                stats.row_hits += 1;
                open
            }
            Some(open) => {
                stats.row_misses += 1;
                // A different row: precharge then activate.
                let t_pre = t_arrival.max(bank_state[b].earliest_pre);
                commands.push(TimedCommand {
                    cycle: t_pre,
                    bank,
                    command: Command::Precharge,
                });
                bank_state[b].open_row = None;
                bank_state[b].earliest_act = bank_state[b].earliest_act.max(t_pre + trp);
                (open + 1) % rows
            }
            None => {
                stats.row_empty += 1;
                rng.range_u64(rows)
            }
        };

        // Activate if the bank is closed.
        if bank_state[b].open_row.is_none() {
            let mut t_act = t_arrival.max(bank_state[b].earliest_act).max(next_any_act);
            if recent_acts.len() == 4 {
                t_act = t_act.max(recent_acts[0] + tfaw);
            }
            commands.push(TimedCommand {
                cycle: t_act,
                bank,
                command: Command::Activate,
            });
            bank_state[b].open_row = Some(target_row);
            bank_state[b].earliest_column = t_act + trcd;
            bank_state[b].earliest_pre = t_act + tras;
            bank_state[b].earliest_act = t_act + trc;
            next_any_act = t_act + trrd;
            recent_acts.push_back(t_act);
            if recent_acts.len() > 4 {
                recent_acts.pop_front();
            }
        }

        // Column command.
        let t_col = t_arrival
            .max(bank_state[b].earliest_column)
            .max(next_column);
        commands.push(TimedCommand {
            cycle: t_col,
            bank,
            command: column_cmd,
        });
        next_column = t_col + tccd;
        cursor = t_col;

        // Closed-page policy: auto-precharge once tRAS allows.
        if spec.policy == PagePolicy::ClosedPage {
            let t_pre = bank_state[b].earliest_pre.max(t_col + 1);
            commands.push(TimedCommand {
                cycle: t_pre,
                bank,
                command: Command::Precharge,
            });
            bank_state[b].open_row = None;
            bank_state[b].earliest_act = bank_state[b].earliest_act.max(t_pre + trp);
            cursor = cursor.max(t_pre);
        }
    }

    // Close all banks at the end so the trace is self-contained.
    let mut end = cursor;
    for (i, b) in bank_state.iter().enumerate() {
        if b.open_row.is_some() {
            let t_pre = b.earliest_pre.max(cursor + 1);
            commands.push(TimedCommand {
                cycle: t_pre,
                bank: u32::try_from(i).expect("bank index fits"),
                command: Command::Precharge,
            });
            end = end.max(t_pre);
        }
    }

    let trace = Schedule::new(commands, end + trp.max(1))?;
    Ok(GeneratedWorkload { trace, stats })
}

/// Convenience: generate and assert legality in one step (used by tests
/// and benches; the generator is constructed to always emit legal
/// traces).
///
/// # Errors
///
/// Returns [`ModelError`] if generation fails.
///
/// # Panics
///
/// Panics if the generated trace violates timing — that would be a bug
/// in the generator, not in the caller's input.
pub fn generate_validated(
    dram: &Dram,
    spec: &WorkloadSpec,
) -> Result<GeneratedWorkload, ModelError> {
    let w = generate(dram, spec)?;
    let desc = dram.description();
    w.trace
        .validate_trace(&desc.timing, desc.spec.control_clock, desc.spec.banks())
        .expect("generator emits legal traces");
    Ok(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_core::reference::ddr3_1g_x16_55nm;

    fn model() -> Dram {
        Dram::new(ddr3_1g_x16_55nm()).expect("valid")
    }

    #[test]
    fn generated_traces_are_legal() {
        let dram = model();
        for spec in [
            WorkloadSpec::streaming(500, 1),
            WorkloadSpec::random(500, 2),
            WorkloadSpec::sparse(100, 3),
        ] {
            let w = generate_validated(&dram, &spec).expect("generates");
            assert_eq!(
                w.trace.count(Command::Read) + w.trace.count(Command::Write),
                spec.accesses
            );
        }
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let dram = model();
        let a = generate(&dram, &WorkloadSpec::random(200, 42)).expect("ok");
        let b = generate(&dram, &WorkloadSpec::random(200, 42)).expect("ok");
        assert_eq!(a.trace, b.trace);
        let c = generate(&dram, &WorkloadSpec::random(200, 43)).expect("ok");
        assert_ne!(a.trace, c.trace);
    }

    #[test]
    fn hit_rate_controls_row_cycling() {
        let dram = model();
        let streaming = generate(&dram, &WorkloadSpec::streaming(1000, 7)).expect("ok");
        let random = generate(&dram, &WorkloadSpec::random(1000, 7)).expect("ok");
        assert!(
            streaming.trace.count(Command::Activate) < random.trace.count(Command::Activate) / 2,
            "streaming {} acts vs random {}",
            streaming.trace.count(Command::Activate),
            random.trace.count(Command::Activate)
        );
        assert!(streaming.stats.row_hits > 700);
        assert_eq!(random.stats.row_hits, 0);
    }

    #[test]
    fn sparse_workloads_have_long_idle_gaps() {
        let dram = model();
        let w = generate(&dram, &WorkloadSpec::sparse(50, 9)).expect("ok");
        let t = &w.trace;
        let starts = t.commands().iter().map(|c| c.cycle).chain([t.cycles()]);
        let ends = [0].into_iter().chain(t.commands().iter().map(|c| c.cycle + 1));
        let max_gap = starts.zip(ends).map(|(s, e)| s.saturating_sub(e)).max().unwrap_or(0);
        assert!(max_gap > 50, "max idle gap {max_gap}");
    }

    #[test]
    fn bad_fractions_are_rejected() {
        let dram = model();
        let mut spec = WorkloadSpec::random(10, 0);
        spec.read_fraction = 1.5;
        assert!(generate(&dram, &spec).is_err());
        let mut spec = WorkloadSpec::random(10, 0);
        spec.arrival_gap_cycles = f64::NAN;
        assert!(generate(&dram, &spec).is_err());
    }

    #[test]
    fn zero_accesses_yield_empty_trace() {
        let dram = model();
        let w = generate(&dram, &WorkloadSpec::random(0, 0)).expect("ok");
        assert!(w.trace.commands().is_empty());
    }
}

#[cfg(test)]
mod page_policy_tests {
    use super::*;
    use crate::energy::{simulate, PowerDownPolicy};
    use dram_core::reference::ddr3_1g_x16_55nm;

    fn model() -> Dram {
        Dram::new(ddr3_1g_x16_55nm()).expect("valid")
    }

    #[test]
    fn closed_page_traces_are_legal() {
        let dram = model();
        for spec in [
            WorkloadSpec::streaming(400, 21).with_closed_page(),
            WorkloadSpec::random(400, 21).with_closed_page(),
        ] {
            let w = generate_validated(&dram, &spec).expect("generates");
            // Every access pays a full row cycle.
            assert_eq!(w.trace.count(Command::Activate), spec.accesses);
            assert_eq!(w.trace.count(Command::Precharge), spec.accesses);
        }
    }

    #[test]
    fn closed_page_wastes_energy_on_streaming_locality() {
        // The crossover the policies are about: with high locality, open
        // page amortizes row cycles; closed page pays one per access.
        let dram = model();
        let open = generate_validated(&dram, &WorkloadSpec::streaming(600, 23)).expect("ok");
        let closed =
            generate_validated(&dram, &WorkloadSpec::streaming(600, 23).with_closed_page())
                .expect("ok");
        let epb = |trace| {
            simulate(&dram, trace, PowerDownPolicy::NEVER)
                .expect("legal")
                .energy_per_bit
        };
        let (e_open, e_closed) = (epb(&open.trace), epb(&closed.trace));
        assert!(
            e_closed.joules() > 2.0 * e_open.joules(),
            "closed {} vs open {}",
            e_closed,
            e_open
        );
    }

    #[test]
    fn policies_converge_without_locality() {
        // With zero row hits, open page pays pre+act per access anyway:
        // the two policies cost about the same per bit.
        let dram = model();
        let open = generate_validated(&dram, &WorkloadSpec::random(600, 29)).expect("ok");
        let closed = generate_validated(&dram, &WorkloadSpec::random(600, 29).with_closed_page())
            .expect("ok");
        let epb = |trace| {
            simulate(&dram, trace, PowerDownPolicy::NEVER)
                .expect("legal")
                .energy_per_bit
        };
        let (e_open, e_closed) = (epb(&open.trace), epb(&closed.trace));
        let ratio = e_closed.joules() / e_open.joules();
        assert!((0.7..1.4).contains(&ratio), "ratio {ratio}");
    }
}
