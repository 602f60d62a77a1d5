//! The top-level model: validation, the Fig. 4 pipeline, datasheet
//! currents, pattern power, and energy metrics.
//!
//! [`Dram::new`] runs the whole flow of Fig. 4 up to the per-operation
//! power: parse/validate the description, resolve geometry, extract wire
//! and device capacitances, book per-operation charges, and convert them
//! to energies. Pattern power and IDD currents are then cheap queries.

use std::sync::OnceLock;

use dram_units::json::{self, Value};
use dram_units::{Amperes, BitsPerSecond, Joules, Watts};

use crate::area::AreaReport;
use crate::charges::ChargeModel;
use crate::error::ModelError;
use crate::geometry::Geometry;
use crate::params::{DramDescription, Specification};
use crate::pattern::{Command, Pattern};
use crate::perturb::{BuildPhase, DirtySet};
use crate::power::{static_power, Operation, OperationEnergy};
use crate::timing::{InitialBankState, Schedule, TimedCommand};

/// Process-wide count of model builds ([`Dram::new`] calls and cache
/// misses), registered once.
fn model_builds_total() -> &'static std::sync::Arc<dram_obs::Counter> {
    static COUNTER: std::sync::OnceLock<std::sync::Arc<dram_obs::Counter>> =
        std::sync::OnceLock::new();
    COUNTER.get_or_init(|| {
        dram_obs::Registry::global().counter(
            "dram_model_builds_total",
            "DRAM models built from a description (cache misses included).",
        )
    })
}

/// Process-wide count of differential rebuilds ([`Dram::rebuild_from`]
/// and the engine's perturbation fast path), registered once.
pub(crate) fn model_rebuilds_total() -> &'static std::sync::Arc<dram_obs::Counter> {
    static COUNTER: std::sync::OnceLock<std::sync::Arc<dram_obs::Counter>> =
        std::sync::OnceLock::new();
    COUNTER.get_or_init(|| {
        dram_obs::Registry::global().counter(
            "dram_model_rebuilds_total",
            "Differential model rebuilds (dirty phases only, base model reused).",
        )
    })
}

/// Process-wide count of build phases skipped by differential rebuilds
/// (phases whose outputs were reused from the base model), registered
/// once. Validation is never counted: every rebuild re-validates.
pub(crate) fn rebuild_phases_skipped_total() -> &'static std::sync::Arc<dram_obs::Counter> {
    static COUNTER: std::sync::OnceLock<std::sync::Arc<dram_obs::Counter>> =
        std::sync::OnceLock::new();
    COUNTER.get_or_init(|| {
        dram_obs::Registry::global().counter(
            "dram_rebuild_phases_skipped_total",
            "Build phases reused from the base model across differential rebuilds.",
        )
    })
}

/// Number of refresh commands that cover the whole device (JEDEC: 8192
/// per refresh window).
pub const REFRESH_COMMANDS_PER_WINDOW: u64 = 8192;

/// A validated DRAM power model.
#[derive(Debug, Clone)]
pub struct Dram {
    desc: DramDescription,
    geom: Geometry,
    activate: OperationEnergy,
    precharge: OperationEnergy,
    read: OperationEnergy,
    write: OperationEnergy,
    clock_cycle: OperationEnergy,
    /// The reply [`write_evaluate_body`] writes for this model, kept on
    /// the first [`Dram::evaluate_body`] call. Every build starts it
    /// empty.
    body: OnceLock<Box<str>>,
}

/// Average power, supply current and background share of one pattern run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSummary {
    /// Average external power.
    pub power: Watts,
    /// Average external supply current (`power / Vdd`), the quantity
    /// datasheets specify.
    pub current: Amperes,
    /// Background (clock + static) share of the power.
    pub background: Watts,
}

/// The datasheet current report (Fig. 8/9 compare IDD0, IDD4R, IDD4W).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IddReport {
    /// One-bank activate/precharge loop at tRC.
    pub idd0: Amperes,
    /// One-bank activate/read/precharge loop at tRC.
    pub idd1: Amperes,
    /// Precharged standby, clock running.
    pub idd2n: Amperes,
    /// Precharge power-down (CKE low, banks closed).
    pub idd2p: Amperes,
    /// Active standby (approximated as IDD2N; the model books no DC
    /// difference between open and closed banks).
    pub idd3n: Amperes,
    /// Active power-down (CKE low, bank open).
    pub idd3p: Amperes,
    /// Seamless read bursts.
    pub idd4r: Amperes,
    /// Seamless write bursts.
    pub idd4w: Amperes,
    /// Burst refresh at tRFC.
    pub idd5: Amperes,
    /// Self-refresh.
    pub idd6: Amperes,
    /// Bank-interleaved activate/read/precharge at maximum rate.
    pub idd7: Amperes,
}

/// Names one datasheet current of an [`IddReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IddKind {
    /// Activate/precharge loop current.
    Idd0,
    /// Activate/read/precharge loop current.
    Idd1,
    /// Precharged standby current.
    Idd2n,
    /// Precharge power-down current.
    Idd2p,
    /// Active standby current.
    Idd3n,
    /// Active power-down current.
    Idd3p,
    /// Burst read current.
    Idd4r,
    /// Burst write current.
    Idd4w,
    /// Burst refresh current.
    Idd5,
    /// Self-refresh current.
    Idd6,
    /// Interleaved activate/read/precharge current.
    Idd7,
}

impl IddKind {
    /// All kinds in datasheet order.
    pub const ALL: [IddKind; 11] = [
        IddKind::Idd0,
        IddKind::Idd1,
        IddKind::Idd2n,
        IddKind::Idd2p,
        IddKind::Idd3n,
        IddKind::Idd3p,
        IddKind::Idd4r,
        IddKind::Idd4w,
        IddKind::Idd5,
        IddKind::Idd6,
        IddKind::Idd7,
    ];

    /// The datasheet symbol.
    #[must_use]
    pub fn symbol(self) -> &'static str {
        match self {
            IddKind::Idd0 => "IDD0",
            IddKind::Idd1 => "IDD1",
            IddKind::Idd2n => "IDD2N",
            IddKind::Idd2p => "IDD2P",
            IddKind::Idd3n => "IDD3N",
            IddKind::Idd3p => "IDD3P",
            IddKind::Idd4r => "IDD4R",
            IddKind::Idd4w => "IDD4W",
            IddKind::Idd5 => "IDD5",
            IddKind::Idd6 => "IDD6",
            IddKind::Idd7 => "IDD7",
        }
    }
}

impl core::fmt::Display for IddKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.symbol())
    }
}

impl IddReport {
    /// Looks up one current by kind.
    #[must_use]
    pub fn get(&self, kind: IddKind) -> Amperes {
        match kind {
            IddKind::Idd0 => self.idd0,
            IddKind::Idd1 => self.idd1,
            IddKind::Idd2n => self.idd2n,
            IddKind::Idd2p => self.idd2p,
            IddKind::Idd3n => self.idd3n,
            IddKind::Idd3p => self.idd3p,
            IddKind::Idd4r => self.idd4r,
            IddKind::Idd4w => self.idd4w,
            IddKind::Idd5 => self.idd5,
            IddKind::Idd6 => self.idd6,
            IddKind::Idd7 => self.idd7,
        }
    }
}

impl core::fmt::Display for IddReport {
    /// Renders the datasheet-style current table, one symbol per line.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        for kind in IddKind::ALL {
            writeln!(
                f,
                "{:<6} {:>8.1} mA",
                kind.symbol(),
                self.get(kind).milliamperes()
            )?;
        }
        Ok(())
    }
}

impl Dram {
    /// Builds and validates the model (Fig. 4 pipeline through
    /// "calculate power of each operation").
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if any parameter is out of range or the
    /// floorplan, specification and signaling are mutually inconsistent.
    pub fn new(desc: DramDescription) -> Result<Self, ModelError> {
        let _build = dram_obs::span("model.build");
        let geom = Self::check(&desc)?;
        Ok(Self::assemble(desc, geom))
    }

    /// The build phases that can fail, validation and geometry, run on a
    /// borrowed description; counts the build. The model cache runs them
    /// before it takes the description, so a failed one can still be
    /// filed in its negative cache.
    pub(crate) fn check(desc: &DramDescription) -> Result<Geometry, ModelError> {
        model_builds_total().inc();
        {
            let _s = dram_obs::span("model.validate");
            validate(desc)?;
        }
        let _s = dram_obs::span("model.geometry");
        Geometry::new(desc)
    }

    /// The build phases that cannot fail (devices, charges and power)
    /// on a description that passed [`Dram::check`] with `geom`. The
    /// model keeps the description it is handed, and each charge ledger
    /// moves into its energy ledger.
    pub(crate) fn assemble(desc: DramDescription, geom: Geometry) -> Self {
        let m = {
            let _s = dram_obs::span("model.devices");
            ChargeModel::new(&desc, &geom)
        };
        let [act, pre, rd, wr, clk] = {
            let _s = dram_obs::span("model.charges");
            [
                m.activate(),
                m.precharge(),
                m.read(),
                m.write(),
                m.clock_cycle(),
            ]
        };
        let _s = dram_obs::span("model.power");
        let e = &desc.electrical;
        let activate = OperationEnergy::from_charges(Operation::Activate, act, e);
        let precharge = OperationEnergy::from_charges(Operation::Precharge, pre, e);
        let read = OperationEnergy::from_charges(Operation::Read, rd, e);
        let write = OperationEnergy::from_charges(Operation::Write, wr, e);
        let clock_cycle = OperationEnergy::from_charges(Operation::ClockCycle, clk, e);
        Self {
            desc,
            geom,
            activate,
            precharge,
            read,
            write,
            clock_cycle,
            body: OnceLock::new(),
        }
    }

    /// Rebuilds the model for an edited description, re-running only the
    /// dirty build phases and reusing this model's outputs for the rest.
    ///
    /// `dirty` must cover every phase whose inputs differ between
    /// `self.description()` and `desc` — [`crate::Perturbation::dirty_set`]
    /// derives exactly that for parameter edits. Phases re-run with the
    /// same code as [`Dram::new`], so the result is bit-identical to a
    /// fresh build of `desc`. Validation always re-runs (any edit can push
    /// a parameter out of range); the devices and charges phases share the
    /// charge-model construction and re-run together.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] exactly when `Dram::new(desc.clone())`
    /// would.
    pub fn rebuild_from(
        &self,
        desc: &DramDescription,
        dirty: DirtySet,
    ) -> Result<Self, ModelError> {
        let _build = dram_obs::span("model.rebuild").arg("dirty", dirty.len());
        model_rebuilds_total().inc();
        validate(desc)?;
        let geometry_dirty = dirty.contains(BuildPhase::Geometry);
        let geom = if geometry_dirty {
            Geometry::new(desc)?
        } else {
            self.geom.clone()
        };
        let charges_dirty =
            dirty.contains(BuildPhase::Devices) || dirty.contains(BuildPhase::Charges);
        let e = &desc.electrical;
        let (energies, skipped) = if charges_dirty {
            let m = ChargeModel::new(desc, &geom);
            let energies = (
                OperationEnergy::from_charges(Operation::Activate, m.activate(), e),
                OperationEnergy::from_charges(Operation::Precharge, m.precharge(), e),
                OperationEnergy::from_charges(Operation::Read, m.read(), e),
                OperationEnergy::from_charges(Operation::Write, m.write(), e),
                OperationEnergy::from_charges(Operation::ClockCycle, m.clock_cycle(), e),
            );
            (energies, u64::from(!geometry_dirty))
        } else if dirty.contains(BuildPhase::Power) {
            // Charges are clean: re-run only the charge-to-energy
            // conversion on the stored ledgers.
            (
                (
                    self.activate.with_electrical(e),
                    self.precharge.with_electrical(e),
                    self.read.with_electrical(e),
                    self.write.with_electrical(e),
                    self.clock_cycle.with_electrical(e),
                ),
                3,
            )
        } else {
            (
                (
                    self.activate.clone(),
                    self.precharge.clone(),
                    self.read.clone(),
                    self.write.clone(),
                    self.clock_cycle.clone(),
                ),
                4,
            )
        };
        rebuild_phases_skipped_total().add(skipped);
        let (activate, precharge, read, write, clock_cycle) = energies;
        Ok(Self {
            desc: desc.clone(),
            geom,
            activate,
            precharge,
            read,
            write,
            clock_cycle,
            body: OnceLock::new(),
        })
    }

    /// The validated description.
    #[must_use]
    pub fn description(&self) -> &DramDescription {
        &self.desc
    }

    /// The resolved geometry.
    #[must_use]
    pub fn geometry(&self) -> &Geometry {
        &self.geom
    }

    /// Itemized energy of one basic operation.
    #[must_use]
    pub fn operation_energy(&self, op: Operation) -> &OperationEnergy {
        match op {
            Operation::Activate => &self.activate,
            Operation::Precharge => &self.precharge,
            Operation::Read => &self.read,
            Operation::Write => &self.write,
            Operation::ClockCycle => &self.clock_cycle,
        }
    }

    /// External energy of one command occurrence (nop costs only the
    /// background cycle, which is accounted separately). CKE state
    /// transitions are free as *commands* — their cost is the time spent
    /// in the state, billed by [`Dram::state_power`]; one auto-refresh
    /// prices the activate+precharge of every row it refreshes
    /// ([`Dram::refresh_command_energy`]).
    #[must_use]
    pub fn command_energy(&self, cmd: Command) -> Joules {
        energy_of(cmd, &self.desc.spec, |op| {
            self.operation_energy(op).external()
        })
    }

    /// Continuous background power: clock/control/always-on logic at the
    /// control clock plus the constant current sink.
    #[must_use]
    pub fn background_power(&self) -> Watts {
        self.clock_cycle.external() * self.desc.spec.control_clock
            + static_power(&self.desc.electrical)
    }

    /// Average power of a simple command loop (§III.B.4): each slot takes
    /// one control-clock cycle; command energies are spread over the loop
    /// and the background runs throughout.
    #[must_use]
    pub fn pattern_power(&self, pattern: &Pattern) -> PowerSummary {
        let f = self.desc.spec.control_clock;
        let n = pattern.len() as f64;
        let command_energy: Joules = pattern
            .slots()
            .iter()
            .map(|&c| self.command_energy(c))
            .sum();
        let background = self.background_power();
        let power = background + command_energy * f / n;
        self.summarize(power, background)
    }

    /// Like [`Self::pattern_power`], but first checks that the loop is
    /// timing-legal when issued to a single bank at the device's control
    /// clock.
    ///
    /// The paper's example `act nop wrt nop rd nop pre nop` is legal on
    /// the SDR-era devices it illustrates but much too fast for one bank
    /// at a DDR3 clock — this variant catches such mismatches.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::TimingViolation`] naming the violated
    /// constraint.
    pub fn pattern_power_checked(&self, pattern: &Pattern) -> Result<PowerSummary, ModelError> {
        let commands: Vec<TimedCommand> = pattern
            .slots()
            .iter()
            .enumerate()
            .map(|(cycle, &command)| TimedCommand {
                cycle: cycle as u64,
                bank: 0,
                command,
            })
            .collect();
        Schedule::new(commands, pattern.len() as u64)?.validate_loop(
            &self.desc.timing,
            self.desc.spec.control_clock,
            self.desc.spec.banks(),
            InitialBankState::AllClosed,
        )?;
        Ok(self.pattern_power(pattern))
    }

    /// Average power of a bank-annotated schedule read as a repeating
    /// loop.
    #[must_use]
    pub fn timed_pattern_power(&self, pattern: &Schedule) -> PowerSummary {
        let energies = Operation::ALL.map(|op| self.operation_energy(op).external());
        loop_power(&self.desc, &energies, pattern)
    }

    fn summarize(&self, power: Watts, background: Watts) -> PowerSummary {
        PowerSummary {
            power,
            current: power / self.desc.electrical.vdd,
            background,
        }
    }

    /// The standard datasheet current report.
    ///
    /// # Panics
    ///
    /// Never panics for a validated model: the standard loops are always
    /// constructible from validated timing.
    #[must_use]
    pub fn idd(&self) -> IddReport {
        self.idd_with(&self.idd7_loop().0)
    }

    /// [`Self::idd`], given the priced IDD7 loop.
    fn idd_with(&self, idd7: &PowerSummary) -> IddReport {
        let spec = &self.desc.spec;
        let timing = &self.desc.timing;
        let f = spec.control_clock;
        let vdd = self.desc.electrical.vdd;
        let background = self.background_power();
        let idd2n = background / vdd;

        let idd0 = {
            let p = Schedule::idd0(timing, f).expect("validated timing builds IDD0");
            self.timed_pattern_power(&p).current
        };
        let idd1 = {
            let p = Schedule::idd1(timing, f).expect("validated timing builds IDD1");
            self.timed_pattern_power(&p).current
        };
        let idd4r = {
            let p = Schedule::idd4(Command::Read, timing, spec.banks())
                .expect("validated timing builds IDD4R");
            self.timed_pattern_power(&p).current
        };
        let idd4w = {
            let p = Schedule::idd4(Command::Write, timing, spec.banks())
                .expect("validated timing builds IDD4W");
            self.timed_pattern_power(&p).current
        };
        let idd5 = {
            let refresh_energy = self.refresh_command_energy();
            let p = background + Watts::new(refresh_energy.joules() / timing.trfc.seconds());
            p / vdd
        };

        let idd2p = self.state_power(crate::lowpower::PowerState::PrechargePowerDown) / vdd;
        let idd6 = self.state_power(crate::lowpower::PowerState::SelfRefresh) / vdd;

        IddReport {
            idd0,
            idd1,
            idd2n,
            idd2p,
            idd3n: idd2n,
            idd3p: idd2p,
            idd4r,
            idd4w,
            idd5,
            idd6,
            idd7: idd7.current,
        }
    }

    /// The IDD7 loop, built and priced once: its power, and the bit rate
    /// its reads transfer. [`Self::idd`] reads the current and
    /// [`Self::energy_per_bit_random`] divides the power by the rate.
    fn idd7_loop(&self) -> (PowerSummary, BitsPerSecond) {
        let spec = &self.desc.spec;
        let pattern = Schedule::idd7(&self.desc.timing, spec.control_clock, spec.banks())
            .expect("validated timing builds IDD7");
        let bits_per_loop =
            pattern.count(Command::Read) as f64 * f64::from(spec.bits_per_column_access());
        let loop_time = pattern.cycles() as f64 / spec.control_clock.hertz();
        (
            self.timed_pattern_power(&pattern),
            BitsPerSecond::new(bits_per_loop / loop_time),
        )
    }

    /// The paper's sensitivity workload: an IDD7-style interleaved loop
    /// "but with half of the read operations replaced by write operations"
    /// (§IV.B).
    ///
    /// # Panics
    ///
    /// Never panics for a validated model.
    #[must_use]
    pub fn mixed_workload(&self) -> Schedule {
        let spec = &self.desc.spec;
        let base = Schedule::idd7(&self.desc.timing, spec.control_clock, spec.banks())
            .expect("validated timing builds IDD7");
        let commands: Vec<TimedCommand> = base
            .commands()
            .iter()
            .map(|c| {
                if c.command == Command::Read && c.bank % 2 == 1 {
                    TimedCommand {
                        command: Command::Write,
                        ..*c
                    }
                } else {
                    *c
                }
            })
            .collect();
        Schedule::new(commands, base.cycles()).expect("same loop stays valid")
    }

    /// Power of the mixed activate/read/write/precharge workload used for
    /// the sensitivity Pareto (Fig. 10, Table III).
    #[must_use]
    pub fn mixed_workload_power(&self) -> PowerSummary {
        self.timed_pattern_power(&self.mixed_workload())
    }

    /// Energy per transferred bit while streaming column accesses with the
    /// row already open (the paper's IDD4-style metric: "only the energy
    /// of the read and write in the DRAM logic and data wiring").
    #[must_use]
    pub fn energy_per_bit_streaming(&self) -> Joules {
        let e_per_access = (self.read.external() + self.write.external()) * 0.5;
        e_per_access / f64::from(self.desc.spec.bits_per_column_access())
    }

    /// Energy per transferred bit under the random-access IDD7-style
    /// workload (activate/precharge interleaved with the column stream,
    /// "to more closely replicate power consumption in a system").
    /// Includes the background power share.
    #[must_use]
    pub fn energy_per_bit_random(&self) -> Joules {
        let (idd7, rate) = self.idd7_loop();
        idd7.power / rate
    }

    /// Die area breakdown.
    #[must_use]
    pub fn area(&self) -> AreaReport {
        AreaReport::new(&self.desc, &self.geom)
    }

    /// The `/v1/evaluate` reply text, written by [`write_evaluate_body`]
    /// on the first call and kept for the life of the model, so later
    /// calls render nothing. [`evaluate_document`] is its parse.
    #[must_use]
    pub fn evaluate_body(&self) -> &str {
        self.body.get_or_init(|| {
            let mut text = String::new();
            write_evaluate_body(self, &mut text);
            text.into_boxed_str()
        })
    }
}

/// External energy of one `cmd` on a device of `spec`, given each
/// operation's external energy: the one command price. One
/// auto-refresh is the activate + precharge of every row it refreshes
/// ([`crate::lowpower::rows_per_refresh`] of them).
fn energy_of(cmd: Command, spec: &Specification, external: impl Fn(Operation) -> Joules) -> Joules {
    match cmd {
        Command::Activate => external(Operation::Activate),
        Command::Precharge => external(Operation::Precharge),
        Command::Read => external(Operation::Read),
        Command::Write => external(Operation::Write),
        Command::Refresh => {
            (external(Operation::Activate) + external(Operation::Precharge))
                * crate::lowpower::rows_per_refresh(u64::from(spec.banks()) * spec.rows_per_bank())
        }
        Command::Nop
        | Command::PowerDownEnter
        | Command::PowerDownExit
        | Command::SelfRefreshEnter
        | Command::SelfRefreshExit => Joules::ZERO,
    }
}

/// Average power of `schedule` read as a repeating loop on a device
/// described by `desc`, from the external energies of its operations in
/// [`Operation::ALL`] order (§III.B.4): the command energies spread over
/// the loop time, plus the background of clock cycles and the constant
/// sink. [`Dram::timed_pattern_power`] and the engine's sweep fast path
/// both price loops here.
pub(crate) fn loop_power(
    desc: &DramDescription,
    energies: &[Joules; 5],
    schedule: &Schedule,
) -> PowerSummary {
    let f = desc.spec.control_clock;
    let loop_time = schedule.cycles() as f64 / f.hertz();
    let command_energy: Joules = schedule
        .commands()
        .iter()
        .map(|c| energy_of(c.command, &desc.spec, |op| energies[op as usize]))
        .sum();
    let background = energies[Operation::ClockCycle as usize] * f + static_power(&desc.electrical);
    let power = background + command_energy * dram_units::Seconds::new(loop_time).to_hertz();
    PowerSummary {
        power,
        current: power / desc.electrical.vdd,
        background,
    }
}

/// Appends the `dram-serve` `/v1/evaluate` reply for one model to `out`:
/// datasheet currents, per-operation energies, background power, energy
/// per bit and die area, as compact JSON text.
///
/// This is the one rendering of the reply. A miss writes it once,
/// [`Dram::evaluate_body`] keeps it for hits, and `/v1/batch` splices
/// it per item, so batch entries are byte-identical to single
/// `/v1/evaluate` bodies. Keys, key order, escaping and numbers are
/// exactly what [`Value`]'s `Display` writes for [`evaluate_document`].
pub fn write_evaluate_body(dram: &Dram, out: &mut String) {
    // The reply runs to about 900 bytes; reserving once spares the
    // doubling steps.
    out.reserve(1024);
    let (idd7, idd7_rate) = dram.idd7_loop();
    let idd = dram.idd_with(&idd7);
    out.push_str("{\"name\":");
    json::write_string(out, &dram.description().name);
    out.push_str(",\"idd_ma\":{");
    for (i, &k) in IddKind::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_string(out, k.symbol());
        out.push(':');
        json::write_number(out, idd.get(k).amperes() * 1e3);
    }
    out.push_str("},\"operations\":{");
    for (i, &op) in Operation::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let e = dram.operation_energy(op);
        json::write_string(out, op.name());
        out.push_str(":{\"external_pj\":");
        json::write_number(out, e.external().joules() * 1e12);
        out.push_str(",\"internal_pj\":");
        json::write_number(out, e.internal().joules() * 1e12);
        out.push('}');
    }
    out.push_str("},\"background_w\":");
    json::write_number(out, dram.background_power().watts());
    out.push_str(",\"energy_per_bit_pj\":{\"streaming\":");
    json::write_number(out, dram.energy_per_bit_streaming().joules() * 1e12);
    out.push_str(",\"random\":");
    json::write_number(out, (idd7.power / idd7_rate).joules() * 1e12);
    out.push_str("},\"die_area_mm2\":");
    json::write_number(out, dram.area().die.square_meters() * 1e6);
    out.push('}');
}

/// The `/v1/evaluate` reply for one model as a document: the parse of
/// the text [`write_evaluate_body`] writes, which [`Value`] round-trips
/// exactly (shortest float text, keys in order), so
/// `evaluate_document(dram).to_string()` is that text byte for byte.
#[must_use]
pub fn evaluate_document(dram: &Dram) -> Value {
    let mut text = String::new();
    write_evaluate_body(dram, &mut text);
    Value::parse(&text).expect("the evaluate reply is valid JSON")
}

/// Validates parameter ranges that the geometry pass does not cover.
pub(crate) fn validate(desc: &DramDescription) -> Result<(), ModelError> {
    let e = &desc.electrical;
    let bad = |name: &'static str, reason: String| ModelError::BadParameter { name, reason };

    for (name, v) in [
        ("electrical.vdd", e.vdd),
        ("electrical.vint", e.vint),
        ("electrical.vbl", e.vbl),
        ("electrical.vpp", e.vpp),
    ] {
        if !(v.volts() > 0.0 && v.is_finite()) {
            return Err(bad(name, format!("voltage {v} must be positive")));
        }
    }
    if e.vpp <= e.vbl {
        return Err(bad(
            "electrical.vpp",
            format!(
                "wordline boost {} must exceed the bitline voltage {} for full write-back",
                e.vpp, e.vbl
            ),
        ));
    }
    for (name, eff) in [
        ("electrical.eff_vint", e.eff_vint),
        ("electrical.eff_vbl", e.eff_vbl),
        ("electrical.eff_vpp", e.eff_vpp),
    ] {
        if !(eff > 0.0 && eff <= 1.0) {
            return Err(bad(name, format!("efficiency {eff} must be in (0, 1]")));
        }
    }
    if e.constant_current.amperes() < 0.0 {
        return Err(bad(
            "electrical.constant_current",
            "must be non-negative".into(),
        ));
    }

    let s = &desc.spec;
    if s.io_width == 0 || s.prefetch == 0 || s.burst_length == 0 {
        return Err(bad(
            "spec",
            "io_width, prefetch and burst_length must be positive".into(),
        ));
    }
    if s.control_clock.hertz() <= 0.0 || s.data_clock.hertz() <= 0.0 {
        return Err(bad(
            "spec.clock",
            "clock frequencies must be positive".into(),
        ));
    }
    if s.datarate_per_pin.bits_per_second() <= 0.0 {
        return Err(bad("spec.datarate_per_pin", "must be positive".into()));
    }

    let t = &desc.timing;
    for (name, v) in [
        ("timing.trc", t.trc),
        ("timing.tras", t.tras),
        ("timing.trp", t.trp),
        ("timing.trcd", t.trcd),
        ("timing.trrd", t.trrd),
        ("timing.tfaw", t.tfaw),
        ("timing.trfc", t.trfc),
        ("timing.trefi", t.trefi),
    ] {
        if v.seconds() <= 0.0 {
            return Err(bad(name, "must be positive".into()));
        }
    }
    if t.trc < t.tras {
        return Err(bad("timing.trc", "row cycle must cover tRAS".into()));
    }
    if t.tfaw < t.trrd {
        return Err(bad(
            "timing.tfaw",
            "four-activate window cannot be shorter than tRRD".into(),
        ));
    }
    if t.tccd_cycles == 0 {
        return Err(bad("timing.tccd_cycles", "must be positive".into()));
    }

    let tech = &desc.technology;
    if tech.bitline_cap.farads() <= 0.0 || tech.cell_cap.farads() <= 0.0 {
        return Err(bad(
            "technology",
            "bitline and cell capacitance must be positive".into(),
        ));
    }
    if !(0.0..=1.0).contains(&tech.bl_to_wl_cap_share) {
        return Err(bad(
            "technology.bl_to_wl_cap_share",
            "must be in 0..=1".into(),
        ));
    }
    if tech.bits_per_csl_per_subarray == 0 {
        return Err(bad(
            "technology.bits_per_csl_per_subarray",
            "must be positive".into(),
        ));
    }
    for (name, m) in [
        ("technology.tox_logic", tech.tox_logic),
        ("technology.tox_high_voltage", tech.tox_high_voltage),
        ("technology.tox_cell", tech.tox_cell),
        ("technology.lmin_logic", tech.lmin_logic),
        ("technology.lmin_high_voltage", tech.lmin_high_voltage),
        ("floorplan.wordline_pitch", desc.floorplan.wordline_pitch),
        ("floorplan.bitline_pitch", desc.floorplan.bitline_pitch),
    ] {
        if m.meters() <= 0.0 {
            return Err(bad(name, "must be positive".into()));
        }
    }

    for b in &desc.logic_blocks {
        if !(b.gate_density > 0.0 && b.gate_density <= 1.0) {
            return Err(bad(
                "logic_block.gate_density",
                format!("`{}` out of (0,1]", b.name),
            ));
        }
        if b.toggle_rate < 0.0 {
            return Err(bad(
                "logic_block.toggle_rate",
                format!("`{}` negative", b.name),
            ));
        }
    }
    for sig in &desc.signaling.signals {
        if sig.toggle_rate < 0.0 {
            return Err(bad(
                "signaling.toggle_rate",
                format!("`{}` negative", sig.name),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ddr3_1g_x16_55nm;

    fn model() -> Dram {
        Dram::new(ddr3_1g_x16_55nm()).expect("reference builds")
    }

    #[test]
    fn rebuild_from_equals_fresh_build_per_dirty_tier() {
        use crate::perturb::{ParamId, Perturbation};
        let base = model();
        // One representative parameter per dirty tier: geometry, devices,
        // charges, power, and the empty set.
        for (param, factor) in [
            (ParamId::SaStripeWidth, 1.3),
            (ParamId::SenseAmpDeviceWidth, 1.2),
            (ParamId::BitlineCap, 0.8),
            (ParamId::EffVpp, 0.9),
            (ParamId::ConstantCurrent, 1.5),
        ] {
            let pert = Perturbation::single(param, factor);
            let mut desc = ddr3_1g_x16_55nm();
            pert.apply(&mut desc);
            let fresh = Dram::new(desc.clone()).expect("perturbed builds");
            let diff = base
                .rebuild_from(&desc, pert.dirty_set())
                .expect("rebuild succeeds");
            assert_eq!(diff.geometry(), fresh.geometry(), "{param}");
            for op in Operation::ALL {
                assert_eq!(
                    diff.operation_energy(op),
                    fresh.operation_energy(op),
                    "{param} {op}"
                );
            }
            let (a, b) = (diff.mixed_workload_power(), fresh.mixed_workload_power());
            assert_eq!(
                a.power.watts().to_bits(),
                b.power.watts().to_bits(),
                "{param}"
            );
        }
    }

    #[test]
    fn rebuild_from_revalidates_unconditionally() {
        use crate::perturb::{ParamId, Perturbation};
        let base = model();
        // EffVpp only dirties the power phase, but pushing it negative
        // must still be rejected by the always-on validation.
        let pert = Perturbation::single(ParamId::EffVpp, -1.0);
        let mut desc = ddr3_1g_x16_55nm();
        pert.apply(&mut desc);
        assert!(base.rebuild_from(&desc, pert.dirty_set()).is_err());
    }

    #[test]
    fn idd_report_has_datasheet_shape() {
        let m = model();
        let idd = m.idd();
        // Ordering constraints every real datasheet satisfies.
        assert!(
            idd.idd0 > idd.idd2n,
            "IDD0 {} vs IDD2N {}",
            idd.idd0,
            idd.idd2n
        );
        assert!(idd.idd4r > idd.idd0);
        assert!(idd.idd4w > idd.idd0);
        assert!(idd.idd7 > idd.idd0);
        assert!(idd.idd5 > idd.idd2n);
        // Magnitudes: DDR3 x16 class (broad guards; the datasheet crate
        // compares against the vendor corpus).
        let ma = |a: Amperes| a.milliamperes();
        assert!(
            ma(idd.idd2n) > 5.0 && ma(idd.idd2n) < 60.0,
            "IDD2N {}",
            idd.idd2n
        );
        assert!(
            ma(idd.idd0) > 25.0 && ma(idd.idd0) < 120.0,
            "IDD0 {}",
            idd.idd0
        );
        assert!(
            ma(idd.idd4r) > 60.0 && ma(idd.idd4r) < 300.0,
            "IDD4R {}",
            idd.idd4r
        );
        assert!(
            ma(idd.idd4w) > 60.0 && ma(idd.idd4w) < 300.0,
            "IDD4W {}",
            idd.idd4w
        );
    }

    #[test]
    fn pattern_power_matches_manual_mix() {
        let m = model();
        let p = Pattern::paper_example();
        let summary = m.pattern_power(&p);
        let f = m.description().spec.control_clock;
        let manual = m.background_power()
            + (m.command_energy(Command::Activate)
                + m.command_energy(Command::Write)
                + m.command_energy(Command::Read)
                + m.command_energy(Command::Precharge))
                * f
                / 8.0;
        assert!((summary.power.watts() - manual.watts()).abs() < 1e-12);
        assert!(summary.power > summary.background);
    }

    #[test]
    fn idd_kind_lookup_and_display() {
        let m = model();
        let idd = m.idd();
        for kind in IddKind::ALL {
            assert!(idd.get(kind).amperes() > 0.0, "{kind}");
        }
        assert_eq!(idd.get(IddKind::Idd0), idd.idd0);
        assert_eq!(idd.get(IddKind::Idd7), idd.idd7);
        let table = idd.to_string();
        assert!(table.contains("IDD4R"));
        assert!(table.contains("IDD6"));
        assert_eq!(table.lines().count(), IddKind::ALL.len());
    }

    #[test]
    fn checked_pattern_rejects_too_fast_loops() {
        // The paper's 8-slot example at a DDR3-1600 clock squeezes a full
        // row cycle into 10 ns — physically impossible for one bank.
        let m = model();
        let p = Pattern::paper_example();
        let err = m.pattern_power_checked(&p).unwrap_err();
        assert!(matches!(err, ModelError::TimingViolation { .. }), "{err}");

        // At an SDR-era clock (and burst occupancy) the same loop is
        // legal — the configuration the paper's example illustrates.
        let mut desc = ddr3_1g_x16_55nm();
        desc.spec.control_clock = dram_units::Hertz::from_mhz(100.0);
        desc.spec.data_clock = desc.spec.control_clock;
        desc.spec.prefetch = 4;
        desc.spec.burst_length = 4;
        desc.timing.tccd_cycles = 2;
        let slow = Dram::new(desc).expect("valid");
        let summary = slow.pattern_power_checked(&p).expect("legal at 100 MHz");
        assert!(summary.power > summary.background);
    }

    #[test]
    fn all_nop_pattern_is_background_only() {
        let m = model();
        let p = Pattern::parse("nop nop nop nop").expect("parses");
        let s = m.pattern_power(&p);
        assert!((s.power.watts() - m.background_power().watts()).abs() < 1e-15);
    }

    #[test]
    fn energy_per_bit_ordering_and_magnitude() {
        let m = model();
        let streaming = m.energy_per_bit_streaming();
        let random = m.energy_per_bit_random();
        // Random access pays activate/precharge on top of the stream.
        assert!(random > streaming);
        // DDR3-class core energy: a few pJ/bit streaming, tens random.
        let pj = streaming.picojoules();
        assert!(pj > 0.5 && pj < 20.0, "streaming {pj} pJ/bit");
        let pj = random.picojoules();
        assert!(pj > 2.0 && pj < 100.0, "random {pj} pJ/bit");
    }

    #[test]
    fn mixed_workload_has_reads_and_writes() {
        let m = model();
        let p = m.mixed_workload();
        assert!(p.count(Command::Read) > 0);
        assert!(p.count(Command::Write) > 0);
        assert_eq!(
            p.count(Command::Read) + p.count(Command::Write),
            p.count(Command::Activate)
        );
        let s = m.mixed_workload_power();
        assert!(s.power > m.background_power());
    }

    #[test]
    fn validation_rejects_bad_electrical() {
        let mut d = ddr3_1g_x16_55nm();
        d.electrical.eff_vpp = 0.0;
        assert!(matches!(Dram::new(d), Err(ModelError::BadParameter { .. })));

        let mut d = ddr3_1g_x16_55nm();
        d.electrical.vpp = dram_units::Volts::new(1.0); // below Vbl
        assert!(Dram::new(d).is_err());

        let mut d = ddr3_1g_x16_55nm();
        d.timing.trc = dram_units::Seconds::from_ns(10.0); // < tRAS
        assert!(Dram::new(d).is_err());
    }

    #[test]
    fn background_power_is_tens_of_milliwatts() {
        let m = model();
        let mw = m.background_power().milliwatts();
        assert!(mw > 10.0 && mw < 100.0, "background {mw} mW");
    }

    #[test]
    fn higher_voltage_means_more_power() {
        let m = model();
        let base = m.mixed_workload_power().power;
        let mut d = ddr3_1g_x16_55nm();
        d.electrical.vint = dram_units::Volts::new(d.electrical.vint.volts() * 1.2);
        let m2 = Dram::new(d).expect("builds");
        assert!(m2.mixed_workload_power().power > base);
    }

    /// The stored body is the rendered document on every call, and a
    /// rebuild renders its own instead of inheriting the base model's.
    #[test]
    fn evaluate_body_is_never_stale() {
        use crate::perturb::{ParamId, Perturbation};
        let base = model();
        let want = evaluate_document(&base).to_string();
        assert_eq!(base.evaluate_body(), want, "first call");
        assert_eq!(base.evaluate_body(), want, "stored copy");

        let pert = Perturbation::single(ParamId::BitlineCap, 0.8);
        let mut perturbed = ddr3_1g_x16_55nm();
        pert.apply(&mut perturbed);
        let rebuilt = base
            .rebuild_from(&perturbed, pert.dirty_set())
            .expect("perturbed builds");
        let fresh = Dram::new(perturbed).expect("perturbed builds");
        assert_eq!(rebuilt.evaluate_body(), fresh.evaluate_body());
        assert_ne!(rebuilt.evaluate_body(), base.evaluate_body());
    }
}

/// Summary of the key extracted capacitances (Fig. 4, step "Calculate
/// wire and device capacitances") — the intermediate artifact between
/// the description and the charge ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacitanceReport {
    /// One local wordline (cell gates + poly wire + driver junctions +
    /// coupling share).
    pub local_wordline: dram_units::Farads,
    /// One master wordline (metal wire + driver-stripe input gates +
    /// decoder junctions).
    pub master_wordline: dram_units::Farads,
    /// One column select line across its shared blocks.
    pub column_select: dram_units::Farads,
    /// One bitline (description input, echoed for completeness).
    pub bitline: dram_units::Farads,
    /// One storage cell (description input).
    pub cell: dram_units::Farads,
    /// Per-wire capacitance of each signaling path, `(name, capacitance)`.
    pub signal_paths: Vec<(String, dram_units::Farads)>,
}

impl Dram {
    /// Extracts the capacitance summary for this device.
    #[must_use]
    pub fn capacitances(&self) -> CapacitanceReport {
        let m = ChargeModel::new(&self.desc, &self.geom);
        CapacitanceReport {
            local_wordline: m.local_wordline_capacitance(),
            master_wordline: m.master_wordline_capacitance(),
            column_select: m.column_select_capacitance(),
            bitline: self.desc.technology.bitline_cap,
            cell: self.desc.technology.cell_cap,
            signal_paths: self
                .desc
                .signaling
                .signals
                .iter()
                .map(|s| (s.name.clone(), m.path_capacitance_per_wire(s)))
                .collect(),
        }
    }
}

#[cfg(test)]
mod capacitance_tests {
    use super::*;
    use crate::reference::ddr3_1g_x16_55nm;

    #[test]
    fn capacitance_report_is_consistent() {
        let dram = Dram::new(ddr3_1g_x16_55nm()).expect("valid");
        let c = dram.capacitances();
        // Hierarchy: cell < LWL < MWL; CSL in the MWL class.
        assert!(c.cell < c.local_wordline);
        assert!(c.local_wordline < c.master_wordline);
        assert!(c.column_select.femtofarads() > 100.0);
        assert_eq!(c.bitline, dram.description().technology.bitline_cap);
        // Every declared signal has a path capacitance.
        assert_eq!(
            c.signal_paths.len(),
            dram.description().signaling.signals.len()
        );
        for (name, cap) in &c.signal_paths {
            assert!(cap.femtofarads() > 1.0, "{name}: {cap}");
        }
    }
}
