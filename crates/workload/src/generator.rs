//! Workload generation: an open-page memory-controller model that turns
//! an abstract access stream (read share, row-buffer hit rate, bank
//! locality, intensity) into a timing-legal command trace. Every command
//! is issued through a [`TimingChecker`], at the first cycle it allows:
//! the generator schedules by the rules traces are checked against.
//!
//! The generator is deterministic for a given seed, so figure-regenerating
//! benches produce stable numbers.

use dram_core::timing::{to_cycles, InitialBankState, Schedule, TimedCommand, TimingChecker};
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

/// Generates a legal trace for the device's timing.
///
/// The controller is in-order and open-page: a row hit issues just the
/// column command; a miss precharges and re-activates; an empty bank
/// activates. Every command is issued through a [`TimingChecker`] at the
/// first cycle from its arrival that the checker allows, so the trace
/// keeps every rule the checker holds traces to, and the generator keeps
/// no timing state of its own.
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
    let clock = desc.spec.control_clock;
    let banks = desc.spec.banks();
    let rows = desc.spec.rows_per_bank();

    let mut checker = TimingChecker::new(&desc.timing, clock, banks, InitialBankState::AllClosed);
    let mut commands = Vec::new();
    // Issues `command` on `bank` at the first cycle from `from` that the
    // checker allows; returns that cycle.
    let mut issue = |from: u64, bank: u32, command: Command| {
        let cycle = from.max(checker.earliest(bank, command)?);
        checker.check(cycle, bank, command)?;
        commands.push(TimedCommand {
            cycle,
            bank,
            command,
        });
        Ok::<_, ModelError>(cycle)
    };
    let mut rng = SplitMix64::new(spec.seed);
    let mut open_rows: Vec<Option<u64>> = vec![None; banks as usize];
    let mut stats = GeneratorStats::default();
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
        let column = if rng.chance(spec.read_fraction) {
            Command::Read
        } else {
            Command::Write
        };

        // Open the target row unless it is the open one.
        match open_rows[b] {
            Some(_) if rng.chance(spec.row_hit_rate) => stats.row_hits += 1,
            Some(open) => {
                stats.row_misses += 1;
                // A different row: precharge then activate.
                issue(t_arrival, bank, Command::Precharge)?;
                issue(t_arrival, bank, Command::Activate)?;
                open_rows[b] = Some((open + 1) % rows);
            }
            None => {
                stats.row_empty += 1;
                open_rows[b] = Some(rng.range_u64(rows));
                issue(t_arrival, bank, Command::Activate)?;
            }
        }

        let t_col = issue(t_arrival, bank, column)?;
        cursor = t_col;

        // Closed-page policy: auto-precharge once tRAS allows.
        if spec.policy == PagePolicy::ClosedPage {
            cursor = cursor.max(issue(t_col + 1, bank, Command::Precharge)?);
            open_rows[b] = None;
        }
    }

    // Close all banks at the end so the trace is self-contained.
    let mut end = cursor;
    for (bank, row) in (0..banks).zip(&open_rows) {
        if row.is_some() {
            end = end.max(issue(cursor + 1, bank, Command::Precharge)?);
        }
    }

    let trp = to_cycles(desc.timing.trp, clock);
    let trace = Schedule::new(commands, end + trp.max(1))?;
    Ok(GeneratedWorkload { trace, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_core::reference::ddr3_1g_x16_55nm;

    fn model() -> Dram {
        Dram::new(ddr3_1g_x16_55nm()).expect("valid")
    }

    /// `Schedule::validate_trace` re-checks a generated trace, sorted,
    /// with a checker of its own.
    pub(super) fn legal(dram: &Dram, spec: &WorkloadSpec) -> GeneratedWorkload {
        let w = generate(dram, spec).expect("generates");
        let desc = dram.description();
        w.trace
            .validate_trace(&desc.timing, desc.spec.control_clock, desc.spec.banks())
            .expect("generator emits legal traces");
        w
    }

    #[test]
    fn generated_traces_are_legal() {
        let dram = model();
        for spec in [
            WorkloadSpec::streaming(500, 1),
            WorkloadSpec::random(500, 2),
            WorkloadSpec::sparse(100, 3),
        ] {
            let w = legal(&dram, &spec);
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
        let ends = [0]
            .into_iter()
            .chain(t.commands().iter().map(|c| c.cycle + 1));
        let max_gap = starts
            .zip(ends)
            .map(|(s, e)| s.saturating_sub(e))
            .max()
            .unwrap_or(0);
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
            let w = super::tests::legal(&dram, &spec);
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
        let open = generate(&dram, &WorkloadSpec::streaming(600, 23)).expect("ok");
        let closed =
            generate(&dram, &WorkloadSpec::streaming(600, 23).with_closed_page()).expect("ok");
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
        let open = generate(&dram, &WorkloadSpec::random(600, 29)).expect("ok");
        let closed =
            generate(&dram, &WorkloadSpec::random(600, 29).with_closed_page()).expect("ok");
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
