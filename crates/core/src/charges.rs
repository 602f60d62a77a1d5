//! Charge accounting per basic operation (Fig. 4, step "Determine charge
//! associated with activate, precharge, read and write operation").
//!
//! The model partitions each operation into named charge/discharge events.
//! For each event it records the charge drawn from one of the four voltage
//! domains; [`crate::power`] later converts domain charge into external
//! supply energy via the rail voltage and generator efficiency.
//!
//! Accounting convention: an item's `charge` is the charge the rail
//! *delivers* for the event. A capacitor swung rail-to-rail draws `C·V`
//! when it charges and nothing when it discharges, so a full
//! activate/precharge cycle books `C·V` once (on the edge that charges).
//! The bitline midlevel precharge is adiabatic (true and complement are
//! shorted), exactly as §III.A notes, and therefore books no charge.

use std::borrow::Cow;

use dram_units::{Coulombs, Farads, Joules, Meters, Volts};

use crate::devices::{
    cell_access_gate, gate_capacitance, junction_capacitance, BufferLoads, SenseAmpLoads,
    WordlineDriverLoads,
};
use crate::geometry::Geometry;
use crate::params::{
    ActiveDuring, DeviceGeometry, DramDescription, Electrical, LogicBlock, SegmentSpec,
    SignalClass, SignalSpec, WireCount,
};
use crate::voltage::VoltageDomain;

/// Average fraction of cells storing the level that must be restored
/// against the rail during activation (random data).
pub const DATA_ACTIVITY: f64 = 0.5;

/// Wire-length-per-gate factor for miscellaneous logic blocks: average
/// local routing per gate, as a multiple of the gate-area square root.
pub const LOGIC_WIRE_FACTOR: f64 = 7.0;

/// Functional group of a charge contributor; used for breakdown reports
/// and the array-vs-periphery share analysis of §IV.B.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContributorGroup {
    /// Master and local wordlines, drivers, decoders.
    Wordlines,
    /// Bitline sensing and cell restore.
    Bitlines,
    /// Sense-amplifier control (set lines, equalize).
    SenseAmps,
    /// Row-path peripheral logic.
    RowLogic,
    /// Column-path peripheral logic.
    ColumnLogic,
    /// Local/master datalines and the center-stripe data buses.
    DataPath,
    /// Address buses and predecode wiring.
    AddressBus,
    /// Clock distribution and control bus.
    ClockControl,
    /// Miscellaneous always-on peripheral logic.
    PeripheralLogic,
}

impl ContributorGroup {
    /// All groups, in display order.
    pub const ALL: [ContributorGroup; 9] = [
        ContributorGroup::Wordlines,
        ContributorGroup::Bitlines,
        ContributorGroup::SenseAmps,
        ContributorGroup::RowLogic,
        ContributorGroup::ColumnLogic,
        ContributorGroup::DataPath,
        ContributorGroup::AddressBus,
        ContributorGroup::ClockControl,
        ContributorGroup::PeripheralLogic,
    ];

    /// Whether the group belongs to the cell-array side of the die (the
    /// paper's §IV.B observes power shifting away from these groups over
    /// generations).
    #[must_use]
    pub fn is_array_related(self) -> bool {
        matches!(
            self,
            ContributorGroup::Wordlines | ContributorGroup::Bitlines | ContributorGroup::SenseAmps
        )
    }
}

impl core::fmt::Display for ContributorGroup {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            ContributorGroup::Wordlines => "wordlines",
            ContributorGroup::Bitlines => "bitlines",
            ContributorGroup::SenseAmps => "sense amps",
            ContributorGroup::RowLogic => "row logic",
            ContributorGroup::ColumnLogic => "column logic",
            ContributorGroup::DataPath => "data path",
            ContributorGroup::AddressBus => "address bus",
            ContributorGroup::ClockControl => "clock/control",
            ContributorGroup::PeripheralLogic => "peripheral logic",
        };
        f.write_str(s)
    }
}

/// One named charge contribution of an operation.
#[derive(Debug, Clone, PartialEq)]
pub struct ChargeItem {
    /// Human-readable contributor name: a fixed name is borrowed, and
    /// only a per-block `logic: {name}` label owns its text.
    pub label: Cow<'static, str>,
    /// Functional group.
    pub group: ContributorGroup,
    /// Domain the charge is drawn from.
    pub domain: VoltageDomain,
    /// Charge delivered by the rail for one occurrence of the operation.
    pub charge: Coulombs,
}

/// All charge contributions of one basic operation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OperationCharges {
    /// Individual contributors.
    pub items: Vec<ChargeItem>,
}

impl OperationCharges {
    /// Total charge drawn from one domain.
    #[must_use]
    pub fn domain_charge(&self, domain: VoltageDomain) -> Coulombs {
        self.items
            .iter()
            .filter(|i| i.domain == domain)
            .map(|i| i.charge)
            .sum()
    }

    /// Total charge drawn from one contributor group (across domains;
    /// charges at different rails are not physically commensurable, but the
    /// per-group *energy* computed downstream is — this raw sum is only
    /// used by tests).
    #[must_use]
    pub fn group_charge(&self, group: ContributorGroup) -> Coulombs {
        self.items
            .iter()
            .filter(|i| i.group == group)
            .map(|i| i.charge)
            .sum()
    }

    fn push(
        &mut self,
        label: Cow<'static, str>,
        group: ContributorGroup,
        domain: VoltageDomain,
        charge: Coulombs,
    ) {
        debug_assert!(
            charge.coulombs() >= 0.0,
            "negative charge for `{label}`: {charge:?}"
        );
        self.items.push(ChargeItem {
            label,
            group,
            domain,
            charge,
        });
    }
}

/// Label of a charge event before materialization. The itemized ledger
/// borrows a fixed name and formats only a logic block's; the batch
/// kernel drops it, so the hot path never allocates.
#[derive(Debug, Clone, Copy)]
enum ChargeLabel<'a> {
    /// A fixed contributor name.
    Static(&'static str),
    /// A per-block logic item, labelled `logic: {name}`.
    Logic(&'a str),
}

impl ChargeLabel<'_> {
    fn materialize(self) -> Cow<'static, str> {
        match self {
            ChargeLabel::Static(s) => Cow::Borrowed(s),
            ChargeLabel::Logic(name) => Cow::Owned(format!("logic: {name}")),
        }
    }
}

/// Destination of the charge events one operation emits. The emit
/// functions below book every event exactly once through this trait, so
/// the itemized ledger ([`OperationCharges`]) and the struct-of-arrays
/// kernel ([`ChargeBatch`]) are fed the *same* charges by construction.
trait ChargeSink {
    fn push(
        &mut self,
        label: ChargeLabel<'_>,
        group: ContributorGroup,
        domain: VoltageDomain,
        charge: Coulombs,
    );
}

impl ChargeSink for OperationCharges {
    fn push(
        &mut self,
        label: ChargeLabel<'_>,
        group: ContributorGroup,
        domain: VoltageDomain,
        charge: Coulombs,
    ) {
        OperationCharges::push(self, label.materialize(), group, domain, charge);
    }
}

/// Index of a domain in the flat rail tables of [`ChargeBatch`]; follows
/// [`VoltageDomain::ALL`] order (Vpp, Vbl, Vint, Vdd).
fn domain_code(domain: VoltageDomain) -> u8 {
    match domain {
        VoltageDomain::Vpp => 0,
        VoltageDomain::Vbl => 1,
        VoltageDomain::Vint => 2,
        VoltageDomain::Vdd => 3,
    }
}

struct BatchSink<'b> {
    q: &'b mut Vec<f64>,
    domain: &'b mut Vec<u8>,
}

impl ChargeSink for BatchSink<'_> {
    fn push(
        &mut self,
        label: ChargeLabel<'_>,
        _group: ContributorGroup,
        domain: VoltageDomain,
        charge: Coulombs,
    ) {
        debug_assert!(
            charge.coulombs() >= 0.0,
            "negative charge for `{}`: {charge:?}",
            label.materialize()
        );
        self.q.push(charge.coulombs());
        self.domain.push(domain_code(domain));
    }
}

/// Struct-of-arrays charge ledger over all five operations of one device:
/// contiguous f64 charge lanes plus a parallel rail-code lane, segmented
/// by operation in [`crate::Operation::ALL`] order.
///
/// This is the sweep-kernel representation: [`ChargeBatch::fill`] books
/// the exact charges of [`ChargeModel`]'s itemized operations without
/// label allocation, and [`ChargeBatch::op_externals`] converts the lanes
/// to external energy for any [`Electrical`] operating point. Conversion
/// is elementwise over the lanes; the per-operation reduction deliberately
/// stays in ledger order so the result is bit-identical to summing
/// [`crate::OperationEnergy`] items (no float reassociation).
#[derive(Debug, Clone, Default)]
pub struct ChargeBatch {
    q: Vec<f64>,
    domain: Vec<u8>,
    ends: [usize; 5],
}

impl ChargeBatch {
    /// Books the charges of every operation of `model`, reusing existing
    /// lane capacity.
    pub fn fill(&mut self, model: &ChargeModel<'_>) {
        self.q.clear();
        self.domain.clear();
        let mut ends = [0usize; 5];
        {
            let mut sink = BatchSink {
                q: &mut self.q,
                domain: &mut self.domain,
            };
            model.emit_activate(&mut sink);
            ends[0] = sink.q.len();
            model.emit_precharge(&mut sink);
            ends[1] = sink.q.len();
            model.emit_read(&mut sink);
            ends[2] = sink.q.len();
            model.emit_write(&mut sink);
            ends[3] = sink.q.len();
            model.emit_clock_cycle(&mut sink);
            ends[4] = sink.q.len();
        }
        self.ends = ends;
    }

    /// A filled batch for `model`.
    #[must_use]
    pub fn from_model(model: &ChargeModel<'_>) -> Self {
        let mut batch = Self::default();
        batch.fill(model);
        batch
    }

    /// Total number of booked charge events across all operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Whether the batch holds no events (i.e. was never filled).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// External (supply) energy of each operation at the given operating
    /// point, in [`crate::Operation::ALL`] order.
    ///
    /// Each event converts as `(q · Vdd) / η(domain)` — exactly
    /// [`VoltageDomain::external_energy`] — and events sum in ledger
    /// order, so every value is bit-identical to
    /// `OperationEnergy::from_charges(..).external()`.
    #[must_use]
    pub fn op_externals(&self, e: &Electrical) -> [Joules; 5] {
        let vdd = e.vdd.volts();
        let effs = [e.eff_vpp, e.eff_vbl, e.eff_vint, 1.0];
        let mut out = [Joules::ZERO; 5];
        let mut start = 0usize;
        for (op, end) in self.ends.into_iter().enumerate() {
            let mut acc = 0.0;
            for k in start..end {
                acc += (self.q[k] * vdd) / effs[usize::from(self.domain[k])];
            }
            out[op] = Joules::new(acc);
            start = end;
        }
        out
    }
}

/// Precomputed loads and geometry for charge evaluation of one device.
#[derive(Debug, Clone)]
pub struct ChargeModel<'a> {
    desc: &'a DramDescription,
    geom: &'a Geometry,
    sa: SenseAmpLoads,
    lwd: WordlineDriverLoads,
}

impl<'a> ChargeModel<'a> {
    /// Builds the charge model from a description and its resolved
    /// geometry.
    #[must_use]
    pub fn new(desc: &'a DramDescription, geom: &'a Geometry) -> Self {
        let folded = desc.floorplan.bitline_architecture.has_bitline_mux();
        Self {
            desc,
            geom,
            sa: SenseAmpLoads::new(&desc.technology, folded),
            lwd: WordlineDriverLoads::new(&desc.technology),
        }
    }

    /// The sense-amplifier loads in use.
    #[must_use]
    pub fn sense_amp_loads(&self) -> SenseAmpLoads {
        self.sa
    }

    /// The local wordline driver loads in use.
    #[must_use]
    pub fn wordline_driver_loads(&self) -> WordlineDriverLoads {
        self.lwd
    }

    // ------------------------------------------------------------------
    // signaling floorplan helpers
    // ------------------------------------------------------------------

    /// Number of parallel wires of a signal path.
    #[must_use]
    pub fn wire_count(&self, wires: WireCount) -> u32 {
        let s = &self.desc.spec;
        match wires {
            WireCount::Explicit(n) => n,
            WireCount::PerIo => s.io_width,
            WireCount::RowAddressBits => s.row_address_bits,
            WireCount::ColumnAddressBits => s.column_address_bits,
            WireCount::BankAddressBits => s.bank_address_bits,
            WireCount::ControlSignals => s.control_signals,
            WireCount::ClockWires => s.clock_wires,
        }
    }

    /// Per-wire capacitance of a signal path: wire segments at the general
    /// signaling capacitance plus the loads of every inserted re-driver.
    #[must_use]
    pub fn path_capacitance_per_wire(&self, spec: &SignalSpec) -> Farads {
        let tech = &self.desc.technology;
        spec.segments
            .iter()
            .map(|seg| {
                let wire = tech.c_wire_signal * self.geom.segment_length(seg);
                let buffer = match seg {
                    SegmentSpec::Between { buffer, .. } | SegmentSpec::Inside { buffer, .. } => {
                        buffer
                            .map(|b| BufferLoads::new(b, tech).total())
                            .unwrap_or(Farads::ZERO)
                    }
                };
                wire + buffer
            })
            .sum()
    }

    /// Charge one *event* (command, clock cycle) moves on a path: all
    /// wires, weighted by the toggle rate, swung to Vint.
    #[must_use]
    pub fn path_charge_per_event(&self, spec: &SignalSpec) -> Coulombs {
        let c = self.path_capacitance_per_wire(spec) * f64::from(self.wire_count(spec.wires));
        (c * self.vint()) * spec.toggle_rate
    }

    /// Charge one transferred *bit* moves on a data path: the per-wire
    /// path capacitance, weighted by the toggle rate, swung to Vint. (128
    /// core wires at 1/8 rate move the same charge per bit as 16 interface
    /// wires at full rate, so per-bit accounting absorbs the serialization
    /// ratio.)
    #[must_use]
    pub fn path_charge_per_bit(&self, spec: &SignalSpec) -> Coulombs {
        (self.path_capacitance_per_wire(spec) * self.vint()) * spec.toggle_rate
    }

    fn class_charge_per_event(&self, class: SignalClass) -> Coulombs {
        self.desc
            .signaling
            .of_class(class)
            .map(|s| self.path_charge_per_event(s))
            .sum()
    }

    fn class_charge_per_bit(&self, class: SignalClass) -> Coulombs {
        self.desc
            .signaling
            .of_class(class)
            .map(|s| self.path_charge_per_bit(s))
            .sum()
    }

    // ------------------------------------------------------------------
    // logic block helpers
    // ------------------------------------------------------------------

    /// Total switched capacitance of a miscellaneous logic block: device
    /// capacitance of its gates plus local wiring estimated from the block
    /// area (§III.B.5).
    #[must_use]
    pub fn logic_block_capacitance(&self, b: &LogicBlock) -> Farads {
        let tech = &self.desc.technology;
        let l = tech.lmin_logic;
        let cg_n = gate_capacitance(
            DeviceGeometry {
                width: b.avg_nmos_width,
                length: l,
            },
            tech.tox_logic,
        );
        let cg_p = gate_capacitance(
            DeviceGeometry {
                width: b.avg_pmos_width,
                length: l,
            },
            tech.tox_logic,
        );
        let cj_n = junction_capacitance(b.avg_nmos_width, tech.junction_cap_logic);
        let cj_p = junction_capacitance(b.avg_pmos_width, tech.junction_cap_logic);
        // Per gate: `transistors_per_gate` devices, alternating N and P.
        let device_per_gate = (cg_n + cg_p + cj_n + cj_p) * (b.transistors_per_gate / 2.0);

        // Block area from gate count, average device footprint, and layout
        // density; local wiring per gate grows with the gate pitch.
        let avg_width = (b.avg_nmos_width + b.avg_pmos_width) * 0.5;
        let footprint = avg_width * l;
        let area_per_gate = footprint * (b.transistors_per_gate / b.gate_density);
        let gate_pitch = Meters::new(area_per_gate.square_meters().sqrt());
        let wire_per_gate = gate_pitch * (LOGIC_WIRE_FACTOR * b.wiring_density);
        let wire_cap_per_gate = tech.c_wire_signal * wire_per_gate;

        (device_per_gate + wire_cap_per_gate) * f64::from(b.gates)
    }

    /// Emits one charge item per logic block matching `filter`, for one
    /// triggering event (one command, or one clock cycle for background
    /// blocks). Itemizing per block keeps the §III.B.5 fit parameters
    /// visible in every breakdown.
    fn emit_logic_items(
        &self,
        sink: &mut impl ChargeSink,
        group: ContributorGroup,
        filter: impl Fn(&ActiveDuring) -> bool,
    ) {
        for b in self
            .desc
            .logic_blocks
            .iter()
            .filter(|b| filter(&b.active_during))
        {
            let q = (self.logic_block_capacitance(b) * self.vint()) * b.toggle_rate;
            sink.push(ChargeLabel::Logic(&b.name), group, VoltageDomain::Vint, q);
        }
    }

    fn vint(&self) -> Volts {
        self.desc.electrical.vint
    }

    fn vbl(&self) -> Volts {
        self.desc.electrical.vbl
    }

    fn vpp(&self) -> Volts {
        self.desc.electrical.vpp
    }

    // ------------------------------------------------------------------
    // array helpers
    // ------------------------------------------------------------------

    /// Capacitance of one local wordline: cell access gates, poly wire,
    /// driver junctions, and the share of bitline capacitance coupling to
    /// the wordline.
    #[must_use]
    pub fn local_wordline_capacitance(&self) -> Farads {
        let tech = &self.desc.technology;
        let fp = &self.desc.floorplan;
        let cells = f64::from(fp.bits_per_local_wordline);
        let gates = cell_access_gate(tech) * cells;
        let wire = tech.c_wire_lwl * self.geom.local_wordline_length();
        // Each wordline/bitline crossing carries its bitline's coupling
        // share divided over that bitline's cells.
        let coupling =
            tech.bitline_cap * (tech.bl_to_wl_cap_share * cells / f64::from(fp.bits_per_bitline));
        gates + wire + self.lwd.output_junction + coupling
    }

    /// Capacitance of one master wordline: metal wire, the input gates of
    /// every local wordline driver stripe it crosses, and its decoder
    /// junctions.
    #[must_use]
    pub fn master_wordline_capacitance(&self) -> Farads {
        let tech = &self.desc.technology;
        let wire = tech.c_wire_mwl * self.geom.master_wordline_length();
        let stripes = f64::from(self.geom.sub_cols + 1);
        let driver_gates = self.lwd.input_gate * stripes;
        let decoder_junction =
            junction_capacitance(tech.mwl_decoder_nmos_width, tech.junction_cap_high_voltage)
                + junction_capacitance(tech.mwl_decoder_pmos_width, tech.junction_cap_high_voltage);
        wire + driver_gates + decoder_junction
    }

    /// Capacitance of one column select line across `blocks_per_csl`
    /// blocks: metal wire plus the bit-switch gates it drives in every
    /// sense-amplifier stripe it crosses.
    #[must_use]
    pub fn column_select_capacitance(&self) -> Farads {
        let fp = &self.desc.floorplan;
        let tech = &self.desc.technology;
        let blocks = f64::from(fp.blocks_per_csl.max(1));
        let wire = tech.c_wire_signal * self.geom.column_select_length(fp.blocks_per_csl);
        let stripes = f64::from(self.geom.sub_rows + 1) * blocks;
        let gates = self.sa.bit_switch_gate * (f64::from(tech.bits_per_csl_per_subarray) * stripes);
        wire + gates
    }

    // ------------------------------------------------------------------
    // operations
    // ------------------------------------------------------------------

    /// Charges of one activate command: row addressing, wordline system,
    /// bitline sensing and cell restore, sense-amp set, and row logic.
    #[must_use]
    pub fn activate(&self) -> OperationCharges {
        let mut op = OperationCharges::default();
        self.emit_activate(&mut op);
        op
    }

    fn emit_activate(&self, sink: &mut impl ChargeSink) {
        let tech = &self.desc.technology;
        let spec = &self.desc.spec;
        let page = spec.page_bits() as f64;
        let sub_cols = f64::from(self.geom.sub_cols);

        // --- addressing -------------------------------------------------
        sink.push(
            ChargeLabel::Static("row address bus"),
            ContributorGroup::AddressBus,
            VoltageDomain::Vint,
            self.class_charge_per_event(SignalClass::RowAddress),
        );
        sink.push(
            ChargeLabel::Static("bank address bus"),
            ContributorGroup::AddressBus,
            VoltageDomain::Vint,
            self.class_charge_per_event(SignalClass::BankAddress),
        );
        sink.push(
            ChargeLabel::Static("command on control bus"),
            ContributorGroup::ClockControl,
            VoltageDomain::Vint,
            self.class_charge_per_event(SignalClass::Control),
        );
        // Predecode wires run the height of the row-logic stripe.
        let predecode_wires = tech.mwl_predecode_ratio * 2.0 * f64::from(spec.row_address_bits);
        let c_predecode = tech.c_wire_signal * self.geom.block_along_bl * predecode_wires;
        sink.push(
            ChargeLabel::Static("row predecode wires"),
            ContributorGroup::AddressBus,
            VoltageDomain::Vint,
            c_predecode * self.vint(),
        );

        // --- wordline system ---------------------------------------------
        let l_hv = tech.lmin_high_voltage;
        let dec_gates = gate_capacitance(
            DeviceGeometry {
                width: tech.mwl_decoder_nmos_width,
                length: l_hv,
            },
            tech.tox_high_voltage,
        ) + gate_capacitance(
            DeviceGeometry {
                width: tech.mwl_decoder_pmos_width,
                length: l_hv,
            },
            tech.tox_high_voltage,
        );
        sink.push(
            ChargeLabel::Static("master wordline decoder"),
            ContributorGroup::Wordlines,
            VoltageDomain::Vpp,
            (dec_gates * tech.mwl_decoder_switching) * self.vpp(),
        );
        sink.push(
            ChargeLabel::Static("master wordline"),
            ContributorGroup::Wordlines,
            VoltageDomain::Vpp,
            self.master_wordline_capacitance() * self.vpp(),
        );
        // Wordline driver select (phase) lines: a wire along the block and
        // the controller load devices in every driver stripe.
        let ctrl_gates = gate_capacitance(
            DeviceGeometry {
                width: tech.wl_controller_nmos_width,
                length: l_hv,
            },
            tech.tox_high_voltage,
        ) + gate_capacitance(
            DeviceGeometry {
                width: tech.wl_controller_pmos_width,
                length: l_hv,
            },
            tech.tox_high_voltage,
        );
        let c_select =
            tech.c_wire_signal * self.geom.master_wordline_length() + ctrl_gates * (sub_cols + 1.0);
        sink.push(
            ChargeLabel::Static("wordline driver select"),
            ContributorGroup::Wordlines,
            VoltageDomain::Vpp,
            c_select * self.vpp(),
        );
        sink.push(
            ChargeLabel::Static("local wordlines"),
            ContributorGroup::Wordlines,
            VoltageDomain::Vpp,
            (self.local_wordline_capacitance() * sub_cols) * self.vpp(),
        );

        // --- bitline sensing ----------------------------------------------
        // One bitline of each sensed pair charges from the equalize
        // midlevel to Vbl.
        let half_vbl = self.vbl() * 0.5;
        sink.push(
            ChargeLabel::Static("bitline sensing"),
            ContributorGroup::Bitlines,
            VoltageDomain::Vbl,
            (tech.bitline_cap * page) * half_vbl,
        );
        sink.push(
            ChargeLabel::Static("cell restore"),
            ContributorGroup::Bitlines,
            VoltageDomain::Vbl,
            (tech.cell_cap * (page * DATA_ACTIVITY)) * half_vbl,
        );

        // --- sense amplifier set ------------------------------------------
        let set_junction = (self.sa.nset_junction + self.sa.pset_junction) * page;
        let set_wires = tech.c_wire_signal * self.geom.master_wordline_length() * 2.0;
        sink.push(
            ChargeLabel::Static("sense amplifier set lines"),
            ContributorGroup::SenseAmps,
            VoltageDomain::Vbl,
            (set_junction + set_wires) * half_vbl,
        );
        // One set-driver pair per activated stripe segment, two stripes
        // (above/below) per sub-array.
        sink.push(
            ChargeLabel::Static("set drivers"),
            ContributorGroup::SenseAmps,
            VoltageDomain::Vint,
            (self.sa.set_driver_gate * (2.0 * sub_cols)) * self.vint(),
        );

        // --- row logic -----------------------------------------------------
        self.emit_logic_items(sink, ContributorGroup::RowLogic, |a| a.activate);
    }

    /// Charges of one precharge command: equalize line recharge, decoder
    /// deselect, and row logic. Bitline equalization itself is adiabatic
    /// (pair shorting) and books nothing.
    #[must_use]
    pub fn precharge(&self) -> OperationCharges {
        let mut op = OperationCharges::default();
        self.emit_precharge(&mut op);
        op
    }

    fn emit_precharge(&self, sink: &mut impl ChargeSink) {
        let tech = &self.desc.technology;
        let spec = &self.desc.spec;
        let page = spec.page_bits() as f64;
        let sub_cols = f64::from(self.geom.sub_cols);

        // Equalize lines rise back to Vpp over the whole page.
        let eq_gates = self.sa.equalize_gate * page;
        let eq_wires = tech.c_wire_signal * (self.geom.local_dataline_length() * (2.0 * sub_cols));
        sink.push(
            ChargeLabel::Static("equalize lines"),
            ContributorGroup::SenseAmps,
            VoltageDomain::Vpp,
            (eq_gates + eq_wires) * self.vpp(),
        );

        // Decoder deselect switching (about half an activate's decoder
        // activity).
        let l_hv = tech.lmin_high_voltage;
        let dec_gates = gate_capacitance(
            DeviceGeometry {
                width: tech.mwl_decoder_nmos_width,
                length: l_hv,
            },
            tech.tox_high_voltage,
        ) + gate_capacitance(
            DeviceGeometry {
                width: tech.mwl_decoder_pmos_width,
                length: l_hv,
            },
            tech.tox_high_voltage,
        );
        sink.push(
            ChargeLabel::Static("master wordline decoder deselect"),
            ContributorGroup::Wordlines,
            VoltageDomain::Vpp,
            (dec_gates * (0.5 * tech.mwl_decoder_switching)) * self.vpp(),
        );

        sink.push(
            ChargeLabel::Static("bank address bus"),
            ContributorGroup::AddressBus,
            VoltageDomain::Vint,
            self.class_charge_per_event(SignalClass::BankAddress),
        );
        sink.push(
            ChargeLabel::Static("command on control bus"),
            ContributorGroup::ClockControl,
            VoltageDomain::Vint,
            self.class_charge_per_event(SignalClass::Control),
        );
        self.emit_logic_items(sink, ContributorGroup::RowLogic, |a| a.precharge);
    }

    /// Shared column-access charges (read and write): column addressing,
    /// column select line, local and master datalines, column logic.
    fn column_common(&self, sink: &mut impl ChargeSink) {
        let tech = &self.desc.technology;
        let spec = &self.desc.spec;
        let bits = f64::from(spec.bits_per_column_access());

        sink.push(
            ChargeLabel::Static("column address bus"),
            ContributorGroup::AddressBus,
            VoltageDomain::Vint,
            self.class_charge_per_event(SignalClass::ColumnAddress),
        );
        sink.push(
            ChargeLabel::Static("bank address bus"),
            ContributorGroup::AddressBus,
            VoltageDomain::Vint,
            self.class_charge_per_event(SignalClass::BankAddress),
        );
        sink.push(
            ChargeLabel::Static("command on control bus"),
            ContributorGroup::ClockControl,
            VoltageDomain::Vint,
            self.class_charge_per_event(SignalClass::Control),
        );
        sink.push(
            ChargeLabel::Static("column select line"),
            ContributorGroup::ColumnLogic,
            VoltageDomain::Vint,
            self.column_select_capacitance() * self.vint(),
        );
        // Local datalines: short differential runs in the sense-amplifier
        // stripe at the array voltage; one line of each pair swings.
        let c_ldq =
            tech.c_wire_signal * self.geom.local_dataline_length() + self.sa.bit_switch_gate; // switch junctions ≈ gate-order load
        sink.push(
            ChargeLabel::Static("local datalines"),
            ContributorGroup::DataPath,
            VoltageDomain::Vbl,
            (c_ldq * bits) * self.vbl(),
        );
        // Master datalines: long differential pairs to the column logic;
        // precharged, so one line swings for every transferred bit.
        let c_mdq = tech.c_wire_signal * self.geom.master_dataline_length();
        sink.push(
            ChargeLabel::Static("master datalines"),
            ContributorGroup::DataPath,
            VoltageDomain::Vint,
            (c_mdq * bits) * self.vint(),
        );
    }

    /// Charges of one read command transferring `io_width × prefetch`
    /// bits.
    #[must_use]
    pub fn read(&self) -> OperationCharges {
        let mut op = OperationCharges::default();
        self.emit_read(&mut op);
        op
    }

    fn emit_read(&self, sink: &mut impl ChargeSink) {
        let bits = f64::from(self.desc.spec.bits_per_column_access());
        self.column_common(sink);
        sink.push(
            ChargeLabel::Static("read data bus"),
            ContributorGroup::DataPath,
            VoltageDomain::Vint,
            self.class_charge_per_bit(SignalClass::ReadData) * bits,
        );
        self.emit_logic_items(sink, ContributorGroup::ColumnLogic, |a| a.read);
    }

    /// Charges of one write command transferring `io_width × prefetch`
    /// bits: the read path plus flipping the written sense amplifiers,
    /// bitlines and cells.
    #[must_use]
    pub fn write(&self) -> OperationCharges {
        let mut op = OperationCharges::default();
        self.emit_write(&mut op);
        op
    }

    fn emit_write(&self, sink: &mut impl ChargeSink) {
        let tech = &self.desc.technology;
        let bits = f64::from(self.desc.spec.bits_per_column_access());
        self.column_common(sink);
        sink.push(
            ChargeLabel::Static("write data bus"),
            ContributorGroup::DataPath,
            VoltageDomain::Vint,
            self.class_charge_per_bit(SignalClass::WriteData) * bits,
        );
        // Half the written bits flip their sense amplifier: the newly-high
        // bitline charges rail-to-rail, and the cell is rewritten.
        let flips = bits * DATA_ACTIVITY;
        sink.push(
            ChargeLabel::Static("bitline write flip"),
            ContributorGroup::Bitlines,
            VoltageDomain::Vbl,
            ((tech.bitline_cap + tech.cell_cap) * flips) * self.vbl(),
        );
        self.emit_logic_items(sink, ContributorGroup::ColumnLogic, |a| a.write);
    }

    /// Background charges of one control-clock cycle: clock distribution,
    /// idle command/address input activity, and always-on logic. This is
    /// what a device burns every cycle regardless of commands.
    #[must_use]
    pub fn clock_cycle(&self) -> OperationCharges {
        let mut op = OperationCharges::default();
        self.emit_clock_cycle(&mut op);
        op
    }

    fn emit_clock_cycle(&self, sink: &mut impl ChargeSink) {
        sink.push(
            ChargeLabel::Static("clock distribution"),
            ContributorGroup::ClockControl,
            VoltageDomain::Vint,
            self.class_charge_per_event(SignalClass::Clock),
        );
        self.emit_logic_items(sink, ContributorGroup::PeripheralLogic, |a| a.always);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ddr3_1g_x16_55nm;

    fn model_fixture() -> (DramDescription, Geometry) {
        let desc = ddr3_1g_x16_55nm();
        let geom = Geometry::new(&desc).expect("reference is valid");
        (desc, geom)
    }

    #[test]
    fn activate_is_dominated_by_bitlines() {
        let (desc, geom) = model_fixture();
        let m = ChargeModel::new(&desc, &geom);
        let act = m.activate();
        let bl = act.group_charge(ContributorGroup::Bitlines);
        let wl = act.group_charge(ContributorGroup::Wordlines);
        assert!(bl.coulombs() > 0.0 && wl.coulombs() > 0.0);
        // 16 K bitlines at ~65 fF half-swing dwarf 32 local wordlines.
        assert!(bl > wl);
        // Order of magnitude: hundreds of picocoulombs on Vbl.
        let q_vbl = act.domain_charge(VoltageDomain::Vbl).coulombs();
        assert!(q_vbl > 2e-10 && q_vbl < 3e-9, "Vbl activate charge {q_vbl}");
    }

    #[test]
    fn local_wordline_capacitance_magnitude() {
        let (desc, geom) = model_fixture();
        let m = ChargeModel::new(&desc, &geom);
        let c = m.local_wordline_capacitance().femtofarads();
        // Wire + 512 cell gates + coupling: of order 100 fF.
        assert!(c > 40.0 && c < 400.0, "LWL cap {c} fF");
    }

    #[test]
    fn master_wordline_capacitance_magnitude() {
        let (desc, geom) = model_fixture();
        let m = ChargeModel::new(&desc, &geom);
        let c = m.master_wordline_capacitance().femtofarads();
        // ~2 mm of metal plus 33 driver stripes: of order 500 fF.
        assert!(c > 200.0 && c < 2000.0, "MWL cap {c} fF");
    }

    #[test]
    fn read_and_write_share_column_path() {
        let (desc, geom) = model_fixture();
        let m = ChargeModel::new(&desc, &geom);
        let rd = m.read();
        let wr = m.write();
        // Both carry the column select line item.
        assert!(rd.items.iter().any(|i| i.label == "column select line"));
        assert!(wr.items.iter().any(|i| i.label == "column select line"));
        // Writes additionally flip bitlines.
        assert!(wr.items.iter().any(|i| i.label == "bitline write flip"));
        assert!(!rd.items.iter().any(|i| i.label == "bitline write flip"));
        // The flip makes a write move more Vbl charge than a read.
        assert!(wr.domain_charge(VoltageDomain::Vbl) > rd.domain_charge(VoltageDomain::Vbl));
    }

    #[test]
    fn precharge_books_equalize_on_vpp() {
        let (desc, geom) = model_fixture();
        let m = ChargeModel::new(&desc, &geom);
        let pre = m.precharge();
        let eq = pre
            .items
            .iter()
            .find(|i| i.label == "equalize lines")
            .expect("equalize present");
        assert_eq!(eq.domain, VoltageDomain::Vpp);
        assert!(eq.charge.coulombs() > 0.0);
        // Precharge is much cheaper than activate (equalize is adiabatic).
        let act = m.activate();
        let e = |op: &OperationCharges| -> f64 {
            VoltageDomain::ALL
                .iter()
                .map(|&d| op.domain_charge(d).coulombs() * d.voltage(&desc.electrical).volts())
                .sum()
        };
        assert!(e(&pre) < 0.5 * e(&act));
    }

    #[test]
    fn clock_cycle_is_small_next_to_operations() {
        let (desc, geom) = model_fixture();
        let m = ChargeModel::new(&desc, &geom);
        let nop = m.clock_cycle();
        let act = m.activate();
        assert!(nop.domain_charge(VoltageDomain::Vint) < act.domain_charge(VoltageDomain::Vbl));
        assert!(nop.items.iter().all(|i| i.charge.coulombs() >= 0.0));
    }

    #[test]
    fn charges_scale_with_page_size() {
        // Doubling the page (wider IO at same column bits) must roughly
        // double activate bitline charge.
        let (desc, geom) = model_fixture();
        let m = ChargeModel::new(&desc, &geom);
        let base = m.activate().group_charge(ContributorGroup::Bitlines);

        let mut desc2 = ddr3_1g_x16_55nm();
        desc2.spec.row_address_bits -= 1; // keep density constant
        desc2.spec.column_address_bits += 1;
        let geom2 = Geometry::new(&desc2).expect("valid");
        let m2 = ChargeModel::new(&desc2, &geom2);
        let doubled = m2.activate().group_charge(ContributorGroup::Bitlines);
        let ratio = doubled.coulombs() / base.coulombs();
        assert!((ratio - 2.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn logic_block_capacitance_scales_with_gates() {
        let (desc, geom) = model_fixture();
        let m = ChargeModel::new(&desc, &geom);
        let mut b = desc.logic_blocks[0].clone();
        let c1 = m.logic_block_capacitance(&b);
        b.gates *= 2;
        let c2 = m.logic_block_capacitance(&b);
        assert!((c2.farads() / c1.farads() - 2.0).abs() < 1e-9);
    }

    /// Golden tests: the headline ledger items match their closed-form
    /// expressions exactly (the spec of §III's charge accounting).
    #[test]
    fn bitline_sensing_matches_closed_form() {
        let (desc, geom) = model_fixture();
        let m = ChargeModel::new(&desc, &geom);
        let act = m.activate();
        let item = act
            .items
            .iter()
            .find(|i| i.label == "bitline sensing")
            .expect("present");
        // Q = page · C_bl · V_bl/2
        let expected = desc.spec.page_bits() as f64
            * desc.technology.bitline_cap.farads()
            * desc.electrical.vbl.volts()
            / 2.0;
        assert!(
            (item.charge.coulombs() - expected).abs() < 1e-18,
            "{} vs {expected}",
            item.charge.coulombs()
        );
        assert_eq!(item.domain, VoltageDomain::Vbl);
    }

    #[test]
    fn cell_restore_matches_closed_form() {
        let (desc, geom) = model_fixture();
        let m = ChargeModel::new(&desc, &geom);
        let act = m.activate();
        let item = act
            .items
            .iter()
            .find(|i| i.label == "cell restore")
            .expect("present");
        // Q = page · α · C_cell · V_bl/2
        let expected = desc.spec.page_bits() as f64
            * DATA_ACTIVITY
            * desc.technology.cell_cap.farads()
            * desc.electrical.vbl.volts()
            / 2.0;
        assert!((item.charge.coulombs() - expected).abs() < 1e-18);
    }

    #[test]
    fn write_flip_matches_closed_form() {
        let (desc, geom) = model_fixture();
        let m = ChargeModel::new(&desc, &geom);
        let wr = m.write();
        let item = wr
            .items
            .iter()
            .find(|i| i.label == "bitline write flip")
            .expect("present");
        // Q = bits · α · (C_bl + C_cell) · V_bl
        let expected = f64::from(desc.spec.bits_per_column_access())
            * DATA_ACTIVITY
            * (desc.technology.bitline_cap.farads() + desc.technology.cell_cap.farads())
            * desc.electrical.vbl.volts();
        assert!((item.charge.coulombs() - expected).abs() < 1e-18);
    }

    #[test]
    fn master_dataline_charge_matches_closed_form() {
        let (desc, geom) = model_fixture();
        let m = ChargeModel::new(&desc, &geom);
        let rd = m.read();
        let item = rd
            .items
            .iter()
            .find(|i| i.label == "master datalines")
            .expect("present");
        // Q = bits · c_sig · L_mdq · V_int
        let expected = f64::from(desc.spec.bits_per_column_access())
            * desc.technology.c_wire_signal.farads_per_meter()
            * geom.master_dataline_length().meters()
            * desc.electrical.vint.volts();
        assert!(
            (item.charge.coulombs() - expected).abs() < 1e-18,
            "{} vs {expected}",
            item.charge.coulombs()
        );
    }

    #[test]
    fn csl_capacitance_scales_with_shared_blocks() {
        let desc1 = ddr3_1g_x16_55nm();
        let geom1 = Geometry::new(&desc1).expect("valid");
        let m1 = ChargeModel::new(&desc1, &geom1);
        let c1 = m1.column_select_capacitance();

        let mut desc2 = ddr3_1g_x16_55nm();
        desc2.floorplan.blocks_per_csl = 2;
        let geom2 = Geometry::new(&desc2).expect("valid");
        let m2 = ChargeModel::new(&desc2, &geom2);
        let c2 = m2.column_select_capacitance();
        // Wire and gates both double with the shared span.
        assert!((c2.farads() / c1.farads() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn clock_charge_scales_with_wire_count() {
        let (desc, geom) = model_fixture();
        let m = ChargeModel::new(&desc, &geom);
        let base = m.clock_cycle().domain_charge(VoltageDomain::Vint);

        let mut desc2 = ddr3_1g_x16_55nm();
        desc2.spec.clock_wires *= 2;
        let geom2 = Geometry::new(&desc2).expect("valid");
        let m2 = ChargeModel::new(&desc2, &geom2);
        let doubled = m2.clock_cycle().domain_charge(VoltageDomain::Vint);
        // Only the clock-path share doubles; total must strictly grow.
        assert!(doubled > base);
        assert!(doubled.coulombs() < base.coulombs() * 2.0);
    }

    #[test]
    fn path_charge_per_event_is_wires_times_per_bit() {
        let (desc, geom) = model_fixture();
        let m = ChargeModel::new(&desc, &geom);
        for sig in &desc.signaling.signals {
            let per_event = m.path_charge_per_event(sig).coulombs();
            let per_bit = m.path_charge_per_bit(sig).coulombs();
            let wires = f64::from(m.wire_count(sig.wires));
            assert!(
                (per_event - per_bit * wires).abs() < 1e-18,
                "signal {}",
                sig.name
            );
        }
    }

    #[test]
    fn logic_items_are_itemized_by_block_name() {
        let (desc, geom) = model_fixture();
        let m = ChargeModel::new(&desc, &geom);
        let rd = m.read();
        let logic_items: Vec<_> = rd
            .items
            .iter()
            .filter(|i| i.label.starts_with("logic: "))
            .collect();
        // All column-op blocks appear individually.
        let expected = desc
            .logic_blocks
            .iter()
            .filter(|b| b.active_during.read)
            .count();
        assert_eq!(logic_items.len(), expected);
        assert!(logic_items
            .iter()
            .any(|i| i.label.contains("column control")));
    }

    #[test]
    fn bl_to_wl_coupling_adds_to_local_wordline() {
        let (desc, geom) = model_fixture();
        let m = ChargeModel::new(&desc, &geom);
        let with = m.local_wordline_capacitance();

        let mut desc2 = ddr3_1g_x16_55nm();
        desc2.technology.bl_to_wl_cap_share = 0.0;
        let geom2 = Geometry::new(&desc2).expect("valid");
        let m2 = ChargeModel::new(&desc2, &geom2);
        let without = m2.local_wordline_capacitance();
        let delta_ff = with.femtofarads() - without.femtofarads();
        // 0.15 share of a 70 fF bitline over 512/512 cells: 10.5 fF.
        assert!(
            (delta_ff - 10.5).abs() < 0.2,
            "coupling delta {delta_ff} fF"
        );
    }

    #[test]
    fn charge_batch_matches_itemized_ledger_bitwise() {
        let (desc, geom) = model_fixture();
        let m = ChargeModel::new(&desc, &geom);
        let batch = ChargeBatch::from_model(&m);
        let ops = [
            m.activate(),
            m.precharge(),
            m.read(),
            m.write(),
            m.clock_cycle(),
        ];
        assert_eq!(
            batch.len(),
            ops.iter().map(|o| o.items.len()).sum::<usize>()
        );
        assert!(!batch.is_empty());
        let ext = batch.op_externals(&desc.electrical);
        for (i, op) in ops.iter().enumerate() {
            let expected: Joules = op
                .items
                .iter()
                .map(|it| it.domain.external_energy(it.charge, &desc.electrical))
                .sum();
            assert_eq!(
                ext[i].joules().to_bits(),
                expected.joules().to_bits(),
                "operation #{i} external energy differs"
            );
        }
    }

    #[test]
    fn charge_batch_refill_is_idempotent() {
        let (desc, geom) = model_fixture();
        let m = ChargeModel::new(&desc, &geom);
        let mut batch = ChargeBatch::from_model(&m);
        let first = batch.op_externals(&desc.electrical);
        batch.fill(&m);
        let second = batch.op_externals(&desc.electrical);
        for (a, b) in first.iter().zip(second.iter()) {
            assert_eq!(a.joules().to_bits(), b.joules().to_bits());
        }
    }

    #[test]
    fn wire_count_resolution() {
        let (desc, geom) = model_fixture();
        let m = ChargeModel::new(&desc, &geom);
        assert_eq!(m.wire_count(WireCount::PerIo), 16);
        assert_eq!(m.wire_count(WireCount::RowAddressBits), 13);
        assert_eq!(m.wire_count(WireCount::ColumnAddressBits), 10);
        assert_eq!(m.wire_count(WireCount::BankAddressBits), 3);
        assert_eq!(m.wire_count(WireCount::ControlSignals), 10);
        assert_eq!(m.wire_count(WireCount::ClockWires), 2);
        assert_eq!(m.wire_count(WireCount::Explicit(7)), 7);
    }
}
