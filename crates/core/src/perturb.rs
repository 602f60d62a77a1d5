//! Phase-level dirty tracking for differential model rebuilds, and the
//! perturbable-parameter registry of the §IV.B sensitivity analysis.
//!
//! [`crate::Dram::new`] runs five phases in a fixed dependency chain —
//! validate → geometry → devices → charges → power — and every scalar
//! model input of Table I feeds a known *earliest* phase. A perturbation
//! of one parameter therefore only dirties that phase and everything
//! downstream of it: changing a wire capacitance re-books charges and
//! re-converts power but reuses the resolved geometry and device loads;
//! changing a rail efficiency re-runs only the power conversion.
//!
//! [`ParamId`] names each perturbable parameter (moved here from the
//! sensitivity crate so the core engine can reason about dirty sets),
//! [`DirtySet`] is the downstream-closed set of phases a change invalidates,
//! and [`Perturbation`] is a small edit list (parameter × factor) that
//! [`crate::EvalEngine::evaluate_perturbations`] and
//! [`crate::Dram::rebuild_from`] consume.

use crate::params::{DramDescription, SegmentSpec};

/// One of the five build phases of [`crate::Dram::new`], in dependency
/// order. Each phase consumes the outputs of every phase before it, so
/// dirtying a phase transitively dirties all downstream phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BuildPhase {
    /// Parameter-range and consistency validation.
    Validate,
    /// Floorplan resolution (sub-array grid, block extents, wire lengths).
    Geometry,
    /// Device-load extraction (sense-amplifier and wordline-driver loads).
    Devices,
    /// Per-operation charge booking.
    Charges,
    /// Charge-to-energy conversion at the rail voltages and efficiencies.
    Power,
}

impl BuildPhase {
    /// All phases, in dependency order.
    pub const ALL: [BuildPhase; 5] = [
        BuildPhase::Validate,
        BuildPhase::Geometry,
        BuildPhase::Devices,
        BuildPhase::Charges,
        BuildPhase::Power,
    ];

    /// Position in the dependency chain (0 = validate … 4 = power).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            BuildPhase::Validate => 0,
            BuildPhase::Geometry => 1,
            BuildPhase::Devices => 2,
            BuildPhase::Charges => 3,
            BuildPhase::Power => 4,
        }
    }

    /// The phase name as it appears in the obs span names
    /// (`model.validate` … `model.power`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BuildPhase::Validate => "validate",
            BuildPhase::Geometry => "geometry",
            BuildPhase::Devices => "devices",
            BuildPhase::Charges => "charges",
            BuildPhase::Power => "power",
        }
    }
}

impl core::fmt::Display for BuildPhase {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// A downstream-closed set of dirty build phases.
///
/// Closure is an invariant, not a convention: the only constructors are
/// [`DirtySet::EMPTY`], [`DirtySet::ALL`], [`DirtySet::from_phase`]
/// (a phase plus everything after it) and [`DirtySet::union`], all of
/// which preserve it. A rebuild can therefore find the work to redo by
/// locating the *earliest* dirty phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DirtySet(u8);

impl DirtySet {
    /// Nothing dirty: the rebuilt model is a clone of the base.
    pub const EMPTY: DirtySet = DirtySet(0);

    /// Everything dirty: equivalent to a full [`crate::Dram::new`].
    pub const ALL: DirtySet = DirtySet(0b1_1111);

    /// The set containing `phase` and every phase downstream of it (the
    /// dependency chain makes anything less inconsistent).
    #[must_use]
    pub fn from_phase(phase: BuildPhase) -> Self {
        DirtySet((Self::ALL.0 >> phase.index()) << phase.index())
    }

    /// Whether `phase` is dirty.
    #[must_use]
    pub fn contains(self, phase: BuildPhase) -> bool {
        self.0 & (1 << phase.index()) != 0
    }

    /// The union of two dirty sets (still downstream-closed).
    #[must_use]
    pub fn union(self, other: DirtySet) -> Self {
        DirtySet(self.0 | other.0)
    }

    /// Whether no phase is dirty.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of dirty phases.
    #[must_use]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// The dirty phases, in dependency order.
    pub fn phases(self) -> impl Iterator<Item = BuildPhase> {
        BuildPhase::ALL
            .into_iter()
            .filter(move |p| self.contains(*p))
    }

    /// The earliest dirty phase, if any.
    #[must_use]
    pub fn earliest(self) -> Option<BuildPhase> {
        self.phases().next()
    }
}

/// Input group of a perturbable parameter (the Table I grouping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamCategory {
    /// Voltage domains, efficiencies and static current.
    Electrical,
    /// Process technology parameters.
    Technology,
    /// Physical floorplan dimensions.
    Floorplan,
    /// Miscellaneous peripheral logic blocks.
    Logic,
    /// Signaling floorplan (toggle rates, re-drivers).
    Signaling,
}

impl core::fmt::Display for ParamCategory {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            ParamCategory::Electrical => "electrical",
            ParamCategory::Technology => "technology",
            ParamCategory::Floorplan => "floorplan",
            ParamCategory::Logic => "logic",
            ParamCategory::Signaling => "signaling",
        };
        f.write_str(s)
    }
}

/// A perturbable model parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamId {
    // --- electrical -----------------------------------------------------
    /// External supply voltage (excluded from the Fig. 10 chart: power is
    /// directly proportional to it, as the paper notes).
    Vdd,
    /// Internal logic voltage Vint.
    Vint,
    /// Bitline voltage Vbl.
    Vbl,
    /// Wordline boost voltage Vpp.
    Vpp,
    /// Vint generator efficiency.
    EffVint,
    /// Vbl generator efficiency.
    EffVbl,
    /// Vpp pump efficiency.
    EffVpp,
    /// Constant current adder.
    ConstantCurrent,
    // --- technology -------------------------------------------------------
    /// Gate oxide thickness, logic.
    ToxLogic,
    /// Gate oxide thickness, high-voltage devices.
    ToxHighVoltage,
    /// Gate oxide thickness, cell access transistor.
    ToxCell,
    /// Minimum channel length, logic.
    LminLogic,
    /// Minimum channel length, high-voltage devices.
    LminHighVoltage,
    /// Junction capacitance per width, logic.
    JunctionCapLogic,
    /// Junction capacitance per width, high-voltage.
    JunctionCapHighVoltage,
    /// Cell access transistor width.
    CellAccessWidth,
    /// Cell access transistor length.
    CellAccessLength,
    /// Bitline capacitance.
    BitlineCap,
    /// Cell capacitance.
    CellCap,
    /// Bitline-to-wordline coupling share.
    BlToWlShare,
    /// Specific wire capacitance, master wordline.
    CWireMwl,
    /// Specific wire capacitance, local wordline.
    CWireLwl,
    /// Specific wire capacitance, signaling wires.
    CWireSignal,
    /// Master wordline pre-decode ratio.
    PredecodeRatio,
    /// Master wordline decoder switching activity.
    MwlDecoderSwitching,
    /// Master wordline decoder device widths.
    MwlDecoderWidth,
    /// Wordline controller load device widths.
    WlControllerWidth,
    /// Sub-wordline driver device widths.
    SwdWidth,
    /// Sense-amplifier device widths (sense pairs, equalize, switches,
    /// set drivers).
    SenseAmpDeviceWidth,
    // --- floorplan ---------------------------------------------------------
    /// Sense-amplifier stripe width.
    SaStripeWidth,
    /// Local wordline driver stripe width.
    LwdStripeWidth,
    // --- peripheral logic ----------------------------------------------------
    /// Number of logic gates (all miscellaneous blocks).
    LogicGates,
    /// Width of NFET logic devices.
    LogicNmosWidth,
    /// Width of PFET logic devices.
    LogicPmosWidth,
    /// Logic layout (gate) density.
    LogicGateDensity,
    /// Logic wiring density.
    LogicWiringDensity,
    // --- signaling -------------------------------------------------------------
    /// Toggle rates of the signaling buses.
    SignalToggleRate,
    /// Re-driver (buffer) device widths in the signaling floorplan.
    BufferWidth,
}

impl ParamId {
    /// Every perturbable parameter.
    pub const ALL: [ParamId; 38] = [
        ParamId::Vdd,
        ParamId::Vint,
        ParamId::Vbl,
        ParamId::Vpp,
        ParamId::EffVint,
        ParamId::EffVbl,
        ParamId::EffVpp,
        ParamId::ConstantCurrent,
        ParamId::ToxLogic,
        ParamId::ToxHighVoltage,
        ParamId::ToxCell,
        ParamId::LminLogic,
        ParamId::LminHighVoltage,
        ParamId::JunctionCapLogic,
        ParamId::JunctionCapHighVoltage,
        ParamId::CellAccessWidth,
        ParamId::CellAccessLength,
        ParamId::BitlineCap,
        ParamId::CellCap,
        ParamId::BlToWlShare,
        ParamId::CWireMwl,
        ParamId::CWireLwl,
        ParamId::CWireSignal,
        ParamId::PredecodeRatio,
        ParamId::MwlDecoderSwitching,
        ParamId::MwlDecoderWidth,
        ParamId::WlControllerWidth,
        ParamId::SwdWidth,
        ParamId::SenseAmpDeviceWidth,
        ParamId::SaStripeWidth,
        ParamId::LwdStripeWidth,
        ParamId::LogicGates,
        ParamId::LogicNmosWidth,
        ParamId::LogicPmosWidth,
        ParamId::LogicGateDensity,
        ParamId::LogicWiringDensity,
        ParamId::SignalToggleRate,
        ParamId::BufferWidth,
    ];

    /// Human-readable name matching the Table III row labels where the
    /// paper names the parameter.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ParamId::Vdd => "External voltage Vdd",
            ParamId::Vint => "Internal voltage Vint",
            ParamId::Vbl => "Bitline voltage",
            ParamId::Vpp => "Wordline voltage",
            ParamId::EffVint => "Generator efficiency Vint",
            ParamId::EffVbl => "Generator efficiency Vbl",
            ParamId::EffVpp => "Pump efficiency Vpp",
            ParamId::ConstantCurrent => "Constant current adder",
            ParamId::ToxLogic => "Gate oxide thickness",
            ParamId::ToxHighVoltage => "Gate oxide thickness HV",
            ParamId::ToxCell => "Gate oxide thickness cell",
            ParamId::LminLogic => "Min gate length logic",
            ParamId::LminHighVoltage => "Min gate length HV",
            ParamId::JunctionCapLogic => "Junction capacitance logic",
            ParamId::JunctionCapHighVoltage => "Junction capacitance HV",
            ParamId::CellAccessWidth => "Access transistor width",
            ParamId::CellAccessLength => "Access transistor length",
            ParamId::BitlineCap => "Bitline capacitance",
            ParamId::CellCap => "Cell capacitance",
            ParamId::BlToWlShare => "BL-to-WL coupling share",
            ParamId::CWireMwl => "Wire capacitance master wordline",
            ParamId::CWireLwl => "Wire capacitance sub-wordline",
            ParamId::CWireSignal => "Specific wire capacitance",
            ParamId::PredecodeRatio => "Pre-decode ratio",
            ParamId::MwlDecoderSwitching => "MWL decoder switching",
            ParamId::MwlDecoderWidth => "MWL decoder width",
            ParamId::WlControllerWidth => "WL controller width",
            ParamId::SwdWidth => "Sub-wordline driver width",
            ParamId::SenseAmpDeviceWidth => "Sense amplifier device width",
            ParamId::SaStripeWidth => "SA stripe width",
            ParamId::LwdStripeWidth => "LWD stripe width",
            ParamId::LogicGates => "Number of logic gates",
            ParamId::LogicNmosWidth => "Width NFET logic",
            ParamId::LogicPmosWidth => "Width PFET logic",
            ParamId::LogicGateDensity => "Logic device density",
            ParamId::LogicWiringDensity => "Logic wiring density",
            ParamId::SignalToggleRate => "Signal toggle rate",
            ParamId::BufferWidth => "Re-driver width",
        }
    }

    /// The Table I group this parameter belongs to.
    #[must_use]
    pub fn category(self) -> ParamCategory {
        match self {
            ParamId::Vdd
            | ParamId::Vint
            | ParamId::Vbl
            | ParamId::Vpp
            | ParamId::EffVint
            | ParamId::EffVbl
            | ParamId::EffVpp
            | ParamId::ConstantCurrent => ParamCategory::Electrical,
            ParamId::ToxLogic
            | ParamId::ToxHighVoltage
            | ParamId::ToxCell
            | ParamId::LminLogic
            | ParamId::LminHighVoltage
            | ParamId::JunctionCapLogic
            | ParamId::JunctionCapHighVoltage
            | ParamId::CellAccessWidth
            | ParamId::CellAccessLength
            | ParamId::BitlineCap
            | ParamId::CellCap
            | ParamId::BlToWlShare
            | ParamId::CWireMwl
            | ParamId::CWireLwl
            | ParamId::CWireSignal
            | ParamId::PredecodeRatio
            | ParamId::MwlDecoderSwitching
            | ParamId::MwlDecoderWidth
            | ParamId::WlControllerWidth
            | ParamId::SwdWidth
            | ParamId::SenseAmpDeviceWidth => ParamCategory::Technology,
            ParamId::SaStripeWidth | ParamId::LwdStripeWidth => ParamCategory::Floorplan,
            ParamId::LogicGates
            | ParamId::LogicNmosWidth
            | ParamId::LogicPmosWidth
            | ParamId::LogicGateDensity
            | ParamId::LogicWiringDensity => ParamCategory::Logic,
            ParamId::SignalToggleRate | ParamId::BufferWidth => ParamCategory::Signaling,
        }
    }

    /// Whether the Fig. 10 chart includes this parameter (the paper plots
    /// everything except the external supply, whose effect is exactly
    /// proportional).
    #[must_use]
    pub fn in_pareto_chart(self) -> bool {
        self != ParamId::Vdd
    }

    /// The build phases a change of this parameter invalidates: the
    /// earliest phase that reads the parameter, closed downstream.
    ///
    /// The mapping follows where each input is consumed: stripe widths
    /// enter the floorplan resolution; the device widths, oxides and
    /// junction capacitances that form the sense-amplifier and
    /// wordline-driver loads enter the devices phase; wire capacitances,
    /// toggle rates, logic blocks and the internal rail voltages (which
    /// set `Q = C·V`) enter the charge booking; Vdd and the generator
    /// efficiencies only scale charges into external energy. The constant
    /// current adder is read at query time, never during the build, so
    /// its dirty set is empty. Validation is *not* tracked here — every
    /// rebuild path re-validates unconditionally, because any edit can
    /// push a parameter out of range.
    #[must_use]
    pub fn dirty_set(self) -> DirtySet {
        match self {
            ParamId::Vdd | ParamId::EffVint | ParamId::EffVbl | ParamId::EffVpp => {
                DirtySet::from_phase(BuildPhase::Power)
            }
            ParamId::ConstantCurrent => DirtySet::EMPTY,
            ParamId::Vint
            | ParamId::Vbl
            | ParamId::Vpp
            | ParamId::ToxCell
            | ParamId::LminLogic
            | ParamId::CellAccessWidth
            | ParamId::CellAccessLength
            | ParamId::BitlineCap
            | ParamId::CellCap
            | ParamId::BlToWlShare
            | ParamId::CWireMwl
            | ParamId::CWireLwl
            | ParamId::CWireSignal
            | ParamId::PredecodeRatio
            | ParamId::MwlDecoderSwitching
            | ParamId::MwlDecoderWidth
            | ParamId::WlControllerWidth
            | ParamId::LogicGates
            | ParamId::LogicNmosWidth
            | ParamId::LogicPmosWidth
            | ParamId::LogicGateDensity
            | ParamId::LogicWiringDensity
            | ParamId::SignalToggleRate
            | ParamId::BufferWidth => DirtySet::from_phase(BuildPhase::Charges),
            ParamId::ToxLogic
            | ParamId::ToxHighVoltage
            | ParamId::LminHighVoltage
            | ParamId::JunctionCapLogic
            | ParamId::JunctionCapHighVoltage
            | ParamId::SwdWidth
            | ParamId::SenseAmpDeviceWidth => DirtySet::from_phase(BuildPhase::Devices),
            ParamId::SaStripeWidth | ParamId::LwdStripeWidth => {
                DirtySet::from_phase(BuildPhase::Geometry)
            }
        }
    }

    /// Applies a multiplicative factor to this parameter.
    pub fn apply(self, desc: &mut DramDescription, factor: f64) {
        let e = &mut desc.electrical;
        let t = &mut desc.technology;
        let fp = &mut desc.floorplan;
        match self {
            ParamId::Vdd => e.vdd = e.vdd * factor,
            ParamId::Vint => e.vint = e.vint * factor,
            ParamId::Vbl => e.vbl = e.vbl * factor,
            ParamId::Vpp => e.vpp = e.vpp * factor,
            ParamId::EffVint => e.eff_vint = (e.eff_vint * factor).min(1.0),
            ParamId::EffVbl => e.eff_vbl = (e.eff_vbl * factor).min(1.0),
            ParamId::EffVpp => e.eff_vpp = (e.eff_vpp * factor).min(1.0),
            ParamId::ConstantCurrent => e.constant_current = e.constant_current * factor,
            ParamId::ToxLogic => t.tox_logic = t.tox_logic * factor,
            ParamId::ToxHighVoltage => t.tox_high_voltage = t.tox_high_voltage * factor,
            ParamId::ToxCell => t.tox_cell = t.tox_cell * factor,
            ParamId::LminLogic => t.lmin_logic = t.lmin_logic * factor,
            ParamId::LminHighVoltage => t.lmin_high_voltage = t.lmin_high_voltage * factor,
            ParamId::JunctionCapLogic => {
                t.junction_cap_logic = t.junction_cap_logic * factor;
            }
            ParamId::JunctionCapHighVoltage => {
                t.junction_cap_high_voltage = t.junction_cap_high_voltage * factor;
            }
            ParamId::CellAccessWidth => t.cell_access_width = t.cell_access_width * factor,
            ParamId::CellAccessLength => t.cell_access_length = t.cell_access_length * factor,
            ParamId::BitlineCap => t.bitline_cap = t.bitline_cap * factor,
            ParamId::CellCap => t.cell_cap = t.cell_cap * factor,
            ParamId::BlToWlShare => {
                t.bl_to_wl_cap_share = (t.bl_to_wl_cap_share * factor).min(1.0);
            }
            ParamId::CWireMwl => t.c_wire_mwl = t.c_wire_mwl * factor,
            ParamId::CWireLwl => t.c_wire_lwl = t.c_wire_lwl * factor,
            ParamId::CWireSignal => t.c_wire_signal = t.c_wire_signal * factor,
            ParamId::PredecodeRatio => {
                t.mwl_predecode_ratio = (t.mwl_predecode_ratio * factor).min(1.0);
            }
            ParamId::MwlDecoderSwitching => t.mwl_decoder_switching *= factor,
            ParamId::MwlDecoderWidth => {
                t.mwl_decoder_nmos_width = t.mwl_decoder_nmos_width * factor;
                t.mwl_decoder_pmos_width = t.mwl_decoder_pmos_width * factor;
            }
            ParamId::WlControllerWidth => {
                t.wl_controller_nmos_width = t.wl_controller_nmos_width * factor;
                t.wl_controller_pmos_width = t.wl_controller_pmos_width * factor;
            }
            ParamId::SwdWidth => {
                t.swd_nmos_width = t.swd_nmos_width * factor;
                t.swd_pmos_width = t.swd_pmos_width * factor;
                t.swd_restore_nmos_width = t.swd_restore_nmos_width * factor;
            }
            ParamId::SenseAmpDeviceWidth => {
                for d in [
                    &mut t.sa_nmos_sense,
                    &mut t.sa_pmos_sense,
                    &mut t.sa_equalize,
                    &mut t.sa_bit_switch,
                    &mut t.sa_bitline_mux,
                    &mut t.sa_nset,
                    &mut t.sa_pset,
                ] {
                    d.width = d.width * factor;
                }
            }
            ParamId::SaStripeWidth => fp.sa_stripe_width = fp.sa_stripe_width * factor,
            ParamId::LwdStripeWidth => fp.lwd_stripe_width = fp.lwd_stripe_width * factor,
            ParamId::LogicGates => {
                for b in &mut desc.logic_blocks {
                    b.gates = ((f64::from(b.gates) * factor).round() as u32).max(1);
                }
            }
            ParamId::LogicNmosWidth => {
                for b in &mut desc.logic_blocks {
                    b.avg_nmos_width = b.avg_nmos_width * factor;
                }
            }
            ParamId::LogicPmosWidth => {
                for b in &mut desc.logic_blocks {
                    b.avg_pmos_width = b.avg_pmos_width * factor;
                }
            }
            ParamId::LogicGateDensity => {
                for b in &mut desc.logic_blocks {
                    b.gate_density = (b.gate_density * factor).min(1.0);
                }
            }
            ParamId::LogicWiringDensity => {
                for b in &mut desc.logic_blocks {
                    b.wiring_density = (b.wiring_density * factor).min(1.0);
                }
            }
            ParamId::SignalToggleRate => {
                for s in &mut desc.signaling.signals {
                    s.toggle_rate *= factor;
                }
            }
            ParamId::BufferWidth => {
                for s in &mut desc.signaling.signals {
                    for seg in &mut s.segments {
                        let buffer = match seg {
                            SegmentSpec::Between { buffer, .. }
                            | SegmentSpec::Inside { buffer, .. } => buffer,
                        };
                        if let Some(b) = buffer {
                            b.nmos_width = b.nmos_width * factor;
                            b.pmos_width = b.pmos_width * factor;
                        }
                    }
                }
            }
        }
    }
}

impl core::fmt::Display for ParamId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// An ordered list of multiplicative parameter edits applied to a base
/// description — the unit of work of
/// [`crate::EvalEngine::evaluate_perturbations`].
///
/// Edits apply in list order, which matters for repeated edits of the
/// same parameter and mirrors the call order of sequential
/// [`ParamId::apply`] invocations.
#[derive(Debug, Clone, PartialEq)]
pub struct Perturbation {
    edits: Vec<(ParamId, f64)>,
}

impl Perturbation {
    /// A perturbation from an explicit edit list.
    #[must_use]
    pub fn new(edits: Vec<(ParamId, f64)>) -> Self {
        Self { edits }
    }

    /// A single-parameter edit.
    #[must_use]
    pub fn single(param: ParamId, factor: f64) -> Self {
        Self {
            edits: vec![(param, factor)],
        }
    }

    /// A two-parameter edit (`a` applied before `b`).
    #[must_use]
    pub fn pair(a: ParamId, factor_a: f64, b: ParamId, factor_b: f64) -> Self {
        Self {
            edits: vec![(a, factor_a), (b, factor_b)],
        }
    }

    /// The edits, in application order.
    #[must_use]
    pub fn edits(&self) -> &[(ParamId, f64)] {
        &self.edits
    }

    /// Applies every edit to `desc`, in order.
    pub fn apply(&self, desc: &mut DramDescription) {
        for (param, factor) in &self.edits {
            param.apply(desc, *factor);
        }
    }

    /// The union of the edited parameters' dirty sets.
    #[must_use]
    pub fn dirty_set(&self) -> DirtySet {
        self.edits
            .iter()
            .fold(DirtySet::EMPTY, |acc, (p, _)| acc.union(p.dirty_set()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ddr3_1g_x16_55nm;

    #[test]
    fn all_list_is_deduplicated() {
        let mut seen = std::collections::HashSet::new();
        for p in ParamId::ALL {
            assert!(seen.insert(p), "{p} duplicated");
        }
    }

    #[test]
    fn every_parameter_changes_the_description() {
        let base = ddr3_1g_x16_55nm();
        for p in ParamId::ALL {
            let mut d = base.clone();
            p.apply(&mut d, 1.2);
            assert_ne!(d, base, "{p} had no effect");
        }
    }

    #[test]
    fn factor_one_is_identity_for_continuous_params() {
        let base = ddr3_1g_x16_55nm();
        for p in ParamId::ALL {
            if p == ParamId::LogicGates {
                continue; // rounding
            }
            let mut d = base.clone();
            p.apply(&mut d, 1.0);
            assert_eq!(d, base, "{p} not identity at factor 1");
        }
    }

    #[test]
    fn every_parameter_has_a_category() {
        use std::collections::HashMap;
        let mut counts: HashMap<ParamCategory, usize> = HashMap::new();
        for p in ParamId::ALL {
            *counts.entry(p.category()).or_default() += 1;
        }
        assert_eq!(counts.len(), 5, "all five Table I groups represented");
        assert_eq!(counts.values().sum::<usize>(), ParamId::ALL.len());
        assert_eq!(counts[&ParamCategory::Electrical], 8);
    }

    #[test]
    fn vdd_is_excluded_from_chart() {
        assert!(!ParamId::Vdd.in_pareto_chart());
        assert!(ParamId::Vint.in_pareto_chart());
        let plotted = ParamId::ALL.iter().filter(|p| p.in_pareto_chart()).count();
        assert_eq!(plotted, ParamId::ALL.len() - 1);
    }

    #[test]
    fn clamped_parameters_stay_in_range() {
        let mut d = ddr3_1g_x16_55nm();
        ParamId::EffVint.apply(&mut d, 2.0);
        assert!(d.electrical.eff_vint <= 1.0);
        ParamId::LogicGateDensity.apply(&mut d, 100.0);
        assert!(d.logic_blocks.iter().all(|b| b.gate_density <= 1.0));
    }

    #[test]
    fn dirty_sets_are_downstream_closed() {
        for p in ParamId::ALL {
            let d = p.dirty_set();
            if let Some(earliest) = d.earliest() {
                assert_eq!(d, DirtySet::from_phase(earliest), "{p} not closed");
            } else {
                assert_eq!(p, ParamId::ConstantCurrent, "only the adder is clean");
            }
        }
    }

    #[test]
    fn from_phase_contains_self_and_downstream() {
        let d = DirtySet::from_phase(BuildPhase::Devices);
        assert!(!d.contains(BuildPhase::Validate));
        assert!(!d.contains(BuildPhase::Geometry));
        assert!(d.contains(BuildPhase::Devices));
        assert!(d.contains(BuildPhase::Charges));
        assert!(d.contains(BuildPhase::Power));
        assert_eq!(d.len(), 3);
        assert_eq!(DirtySet::from_phase(BuildPhase::Validate), DirtySet::ALL);
        assert_eq!(
            DirtySet::from_phase(BuildPhase::Power)
                .phases()
                .collect::<Vec<_>>(),
            vec![BuildPhase::Power]
        );
        assert!(DirtySet::EMPTY.is_empty());
        assert_eq!(DirtySet::EMPTY.earliest(), None);
    }

    #[test]
    fn union_takes_the_earliest_phase() {
        let a = DirtySet::from_phase(BuildPhase::Power);
        let b = DirtySet::from_phase(BuildPhase::Geometry);
        assert_eq!(a.union(b), DirtySet::from_phase(BuildPhase::Geometry));
        assert_eq!(a.union(DirtySet::EMPTY), a);
    }

    #[test]
    fn dirty_phase_population_matches_the_build() {
        // Spot-check the mapping against where Dram::new actually reads
        // each parameter.
        use BuildPhase::{Charges, Devices, Geometry, Power};
        assert_eq!(ParamId::Vdd.dirty_set(), DirtySet::from_phase(Power));
        assert_eq!(ParamId::EffVpp.dirty_set(), DirtySet::from_phase(Power));
        assert_eq!(ParamId::Vint.dirty_set(), DirtySet::from_phase(Charges));
        assert_eq!(
            ParamId::BitlineCap.dirty_set(),
            DirtySet::from_phase(Charges)
        );
        assert_eq!(
            ParamId::SenseAmpDeviceWidth.dirty_set(),
            DirtySet::from_phase(Devices)
        );
        assert_eq!(
            ParamId::SaStripeWidth.dirty_set(),
            DirtySet::from_phase(Geometry)
        );
        assert!(ParamId::ConstantCurrent.dirty_set().is_empty());
        // Every parameter that leaves geometry clean must not feed the
        // floorplan resolution (which reads floorplan + spec only).
        for p in ParamId::ALL {
            if !p.dirty_set().contains(Geometry) {
                assert_ne!(p.category(), ParamCategory::Floorplan, "{p}");
            }
        }
    }

    #[test]
    fn perturbation_applies_in_order_and_unions_dirt() {
        let base = ddr3_1g_x16_55nm();
        let pert = Perturbation::pair(ParamId::Vint, 1.2, ParamId::BitlineCap, 0.8);
        let mut d = base.clone();
        pert.apply(&mut d);
        let mut manual = base.clone();
        ParamId::Vint.apply(&mut manual, 1.2);
        ParamId::BitlineCap.apply(&mut manual, 0.8);
        assert_eq!(d, manual);
        assert_eq!(pert.dirty_set(), DirtySet::from_phase(BuildPhase::Charges));
        assert_eq!(
            Perturbation::single(ParamId::Vdd, 1.1).dirty_set(),
            DirtySet::from_phase(BuildPhase::Power)
        );
        assert_eq!(pert.edits().len(), 2);
        assert_eq!(
            Perturbation::new(vec![(ParamId::Vdd, 1.1)]),
            Perturbation::single(ParamId::Vdd, 1.1)
        );
    }
}
