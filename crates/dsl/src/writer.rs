//! Pretty-printer: renders a [`DramDescription`] back into description-
//! language text that [`crate::parse`] accepts (round-trip property).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dram_core::params::{
    ActiveDuring, Axis, BitlineArchitecture, BlockCoord, BufferDevice, DeviceGeometry,
    DramDescription, SegmentSpec, SignalClass, WireCount,
};
use dram_core::Pattern;
use dram_units::json::write_f64;
use dram_units::{Farads, FaradsPerMeter, Meters, Seconds};

fn class_name(c: SignalClass) -> &'static str {
    match c {
        SignalClass::WriteData => "wdata",
        SignalClass::ReadData => "rdata",
        SignalClass::RowAddress => "rowaddr",
        SignalClass::ColumnAddress => "coladdr",
        SignalClass::BankAddress => "bankaddr",
        SignalClass::Control => "control",
        SignalClass::Clock => "clock",
    }
}

fn axis_name(a: Axis) -> &'static str {
    match a {
        Axis::Vertical => "v",
        Axis::Horizontal => "h",
    }
}

/// The text a description is written into, every field appended in
/// place: numbers as `{}` writes them, through [`write_f64`].
struct Text(String);

impl Text {
    fn str(&mut self, s: &str) -> &mut Self {
        self.0.push_str(s);
        self
    }

    fn num(&mut self, x: f64) -> &mut Self {
        write_f64(&mut self.0, x);
        self
    }

    fn int(&mut self, n: u32) -> &mut Self {
        self.num(f64::from(n))
    }

    /// An index: as a `u32` when it fits one, as every index of a real
    /// floorplan does.
    fn index(&mut self, i: usize) -> &mut Self {
        match u32::try_from(i) {
            Ok(i) => self.int(i),
            Err(_) => {
                let _ = write!(self.0, "{i}");
                self
            }
        }
    }

    fn um(&mut self, m: Meters) -> &mut Self {
        self.num(m.micrometers()).str("um")
    }

    fn dev(&mut self, d: DeviceGeometry) -> &mut Self {
        self.num(d.width.micrometers()).str("x").um(d.length)
    }

    fn cpl(&mut self, c: FaradsPerMeter) -> &mut Self {
        self.num(c.ff_per_um()).str("fF/um")
    }

    fn cap(&mut self, c: Farads) -> &mut Self {
        self.num(c.femtofarads()).str("fF")
    }

    fn ns(&mut self, s: Seconds) -> &mut Self {
        self.num(s.nanoseconds()).str("ns")
    }

    /// A list of words, one space between them.
    fn words(&mut self, words: &[String]) -> &mut Self {
        for (i, w) in words.iter().enumerate() {
            if i > 0 {
                self.str(" ");
            }
            self.str(w);
        }
        self
    }

    fn wires(&mut self, w: WireCount) -> &mut Self {
        match w {
            WireCount::Explicit(n) => self.int(n),
            WireCount::PerIo => self.str("io"),
            WireCount::RowAddressBits => self.str("rowadd"),
            WireCount::ColumnAddressBits => self.str("coladd"),
            WireCount::BankAddressBits => self.str("bankadd"),
            WireCount::ControlSignals => self.str("control"),
            WireCount::ClockWires => self.str("clock"),
        }
    }

    /// The operations a block is active during, comma-separated.
    fn active(&mut self, a: ActiveDuring) -> &mut Self {
        let parts = [
            (a.always, "always"),
            (a.activate, "act"),
            (a.precharge, "pre"),
            (a.read, "rd"),
            (a.write, "wrt"),
        ];
        let mut first = true;
        for (_, name) in parts.iter().filter(|(on, _)| *on) {
            if !first {
                self.str(",");
            }
            first = false;
            self.str(name);
        }
        self
    }

    fn buffer(&mut self, buffer: Option<&BufferDevice>) -> &mut Self {
        if let Some(b) = buffer {
            self.str(" NchW=").num(b.nmos_width.micrometers());
            self.str(" PchW=").num(b.pmos_width.micrometers());
        }
        self
    }

    fn coord(&mut self, c: BlockCoord) -> &mut Self {
        self.index(c.x).str("_").index(c.y)
    }
}

/// Bytes to reserve for a description's text and pattern: the fixed
/// lines, then a bound per name, block, size, signal, segment, logic
/// block and command. Every description the tests write fits, so the
/// text is allocated once.
fn capacity(desc: &DramDescription, pattern: Option<&Pattern>) -> usize {
    let fp = &desc.floorplan;
    let words = |w: &[String]| w.iter().map(|s| s.len() + 1).sum::<usize>();
    let sizes = |m: &BTreeMap<String, Meters>| m.keys().map(|k| k.len() + 32).sum::<usize>();
    let signals: usize = desc
        .signaling
        .signals
        .iter()
        .map(|s| 64 + s.name.len() + s.segments.len() * (s.name.len() + 96))
        .sum();
    let blocks: usize = desc.logic_blocks.iter().map(|b| b.name.len() + 200).sum();
    let commands = pattern.map_or(0, |p| 16 + 6 * p.len());
    2048 + 2 * desc.name.len()
        + words(&fp.horizontal_blocks)
        + words(&fp.vertical_blocks)
        + sizes(&fp.horizontal_sizes)
        + sizes(&fp.vertical_sizes)
        + signals
        + blocks
        + commands
}

/// Renders a description (and optional pattern) as description-language
/// text.
///
/// # Examples
///
/// ```
/// use dram_core::reference::ddr3_1g_x16_55nm;
/// let text = dram_dsl::write(&ddr3_1g_x16_55nm(), None);
/// let parsed = dram_dsl::parse(&text)?;
/// assert_eq!(parsed.description.spec.io_width, 16);
/// # Ok::<(), dram_dsl::DslError>(())
/// ```
#[must_use]
pub fn write(desc: &DramDescription, pattern: Option<&Pattern>) -> String {
    let mut o = Text(String::with_capacity(capacity(desc, pattern)));
    let fp = &desc.floorplan;
    let t = &desc.technology;
    let e = &desc.electrical;
    let s = &desc.spec;
    let tm = &desc.timing;

    o.str("# ").str(&desc.name).str("\n");
    o.str("Device name=\"").str(&desc.name).str("\"\n\n");

    // --- physical floorplan ------------------------------------------
    o.str("FloorplanPhysical\n");
    let bltype = match fp.bitline_architecture {
        BitlineArchitecture::Open => "open",
        BitlineArchitecture::Folded => "folded",
        BitlineArchitecture::Vertical4F2 => "4f2",
    };
    o.str("CellArray BL=").str(axis_name(fp.bitline_direction));
    o.str(" BitsPerBL=").int(fp.bits_per_bitline);
    o.str(" BitsPerLWL=").int(fp.bits_per_local_wordline);
    o.str(" BLtype=").str(bltype).str("\n");
    o.str("CellArray WLpitch=").um(fp.wordline_pitch);
    o.str(" BLpitch=").um(fp.bitline_pitch).str("\n");
    o.str("CellArray SAStripe=").um(fp.sa_stripe_width);
    o.str(" LWDStripe=").um(fp.lwd_stripe_width);
    o.str(" BlocksPerCSL=").int(fp.blocks_per_csl).str("\n");
    o.str("Horizontal blocks = ")
        .words(&fp.horizontal_blocks)
        .str("\n");
    o.str("Vertical blocks = ")
        .words(&fp.vertical_blocks)
        .str("\n");
    for (head, sizes) in [
        ("SizeHorizontal", &fp.horizontal_sizes),
        ("SizeVertical", &fp.vertical_sizes),
    ] {
        if sizes.is_empty() {
            continue;
        }
        o.str(head);
        for (k, v) in sizes {
            o.str(" ").str(k).str("=").um(*v);
        }
        o.str("\n");
    }
    o.str("\n");

    // --- signaling ----------------------------------------------------
    o.str("FloorplanSignaling\n");
    for sig in &desc.signaling.signals {
        o.str("Signal ").str(&sig.name);
        o.str(" class=").str(class_name(sig.class));
        o.str(" wires=").wires(sig.wires);
        o.str(" toggle=").num(sig.toggle_rate).str("\n");
        for (i, seg) in sig.segments.iter().enumerate() {
            o.str(&sig.name).index(i).str(" ");
            match seg {
                SegmentSpec::Inside {
                    at,
                    fraction,
                    dir,
                    buffer,
                    mux,
                } => {
                    o.str("inside=").coord(*at);
                    o.str(" fraction=").num(*fraction);
                    o.str(" dir=").str(axis_name(*dir));
                    if let Some(m) = mux {
                        o.str(" mux=1:").int(*m);
                    }
                    o.buffer(buffer.as_ref());
                }
                SegmentSpec::Between { from, to, buffer } => {
                    o.str("start=").coord(*from).str(" end=").coord(*to);
                    o.buffer(buffer.as_ref());
                }
            }
            o.str("\n");
        }
    }
    o.str("\n");

    // --- technology ----------------------------------------------------
    o.str("Technology\n");
    o.str("Oxides ToxLogic=").um(t.tox_logic);
    o.str(" ToxHV=").um(t.tox_high_voltage);
    o.str(" ToxCell=").um(t.tox_cell).str("\n");
    o.str("Devices LminLogic=").um(t.lmin_logic);
    o.str(" CjLogic=").cpl(t.junction_cap_logic);
    o.str(" LminHV=").um(t.lmin_high_voltage);
    o.str(" CjHV=").cpl(t.junction_cap_high_voltage).str("\n");
    o.str("Cell CellL=").um(t.cell_access_length);
    o.str(" CellW=").um(t.cell_access_width);
    o.str(" CBitline=").cap(t.bitline_cap);
    o.str(" CCell=").cap(t.cell_cap);
    o.str(" BLtoWLShare=").num(t.bl_to_wl_cap_share).str("\n");
    o.str("RowPath CWireMWL=").cpl(t.c_wire_mwl);
    o.str(" PredecodeRatio=").num(t.mwl_predecode_ratio);
    o.str(" MWLDecN=").um(t.mwl_decoder_nmos_width);
    o.str(" MWLDecP=").um(t.mwl_decoder_pmos_width);
    o.str(" MWLDecSwitch=")
        .num(t.mwl_decoder_switching)
        .str("\n");
    o.str("RowPath WLCtrlN=").um(t.wl_controller_nmos_width);
    o.str(" WLCtrlP=").um(t.wl_controller_pmos_width);
    o.str(" SWDN=").um(t.swd_nmos_width);
    o.str(" SWDP=").um(t.swd_pmos_width);
    o.str(" SWDRestore=").um(t.swd_restore_nmos_width);
    o.str(" CWireLWL=").cpl(t.c_wire_lwl).str("\n");
    o.str("SenseAmp SANSense=").dev(t.sa_nmos_sense);
    o.str(" SAPSense=").dev(t.sa_pmos_sense);
    o.str(" SAEq=").dev(t.sa_equalize);
    o.str(" SABitSwitch=").dev(t.sa_bit_switch);
    o.str(" SABLMux=").dev(t.sa_bitline_mux).str("\n");
    o.str("SenseAmp SANSet=").dev(t.sa_nset);
    o.str(" SAPSet=").dev(t.sa_pset);
    o.str(" BitsPerCSL=")
        .int(t.bits_per_csl_per_subarray)
        .str("\n");
    o.str("Wiring CWireSignal=")
        .cpl(t.c_wire_signal)
        .str("\n\n");

    // --- electrical ------------------------------------------------------
    o.str("Electrical\n");
    o.str("Supply Vdd=").num(e.vdd.volts());
    o.str("V Vint=").num(e.vint.volts());
    o.str("V Vbl=").num(e.vbl.volts());
    o.str("V Vpp=").num(e.vpp.volts()).str("V\n");
    o.str("Generator EffVint=").num(e.eff_vint);
    o.str(" EffVbl=").num(e.eff_vbl);
    o.str(" EffVpp=").num(e.eff_vpp);
    o.str(" ConstCurrent=")
        .num(e.constant_current.milliamperes());
    o.str("mA\n\n");

    // --- specification ----------------------------------------------------
    o.str("Specification\n");
    o.str("IO width=").int(s.io_width);
    o.str(" datarate=")
        .num(s.datarate_per_pin.gbps())
        .str("Gbps\n");
    o.str("Clock number=").int(s.clock_wires);
    o.str(" frequency=")
        .num(s.data_clock.megahertz())
        .str("MHz\n");
    o.str("Control frequency=").num(s.control_clock.megahertz());
    o.str("MHz bankadd=").int(s.bank_address_bits);
    o.str(" rowadd=").int(s.row_address_bits);
    o.str(" coladd=").int(s.column_address_bits);
    o.str(" misc=").int(s.control_signals).str("\n");
    o.str("Access prefetch=").int(s.prefetch);
    o.str(" burst=").int(s.burst_length).str("\n\n");

    // --- timing --------------------------------------------------------
    o.str("Timing\n");
    o.str("Row tRC=").ns(tm.trc);
    o.str(" tRAS=").ns(tm.tras);
    o.str(" tRP=").ns(tm.trp);
    o.str(" tRCD=").ns(tm.trcd);
    o.str(" tRRD=").ns(tm.trrd);
    o.str(" tFAW=").ns(tm.tfaw).str("\n");
    o.str("Column tCCD=").int(tm.tccd_cycles).str("\n");
    o.str("Refresh tRFC=").ns(tm.trfc);
    o.str(" tREFI=").ns(tm.trefi).str("\n\n");

    // --- logic blocks ---------------------------------------------------
    for b in &desc.logic_blocks {
        o.str("LogicBlock name=\"").str(&b.name);
        o.str("\" gates=").int(b.gates);
        o.str(" Wn=").um(b.avg_nmos_width);
        o.str(" Wp=").um(b.avg_pmos_width);
        o.str(" tpg=").num(b.transistors_per_gate);
        o.str(" gatedensity=").num(b.gate_density);
        o.str(" wiredensity=").num(b.wiring_density);
        o.str(" active=").active(b.active_during);
        o.str(" toggle=").num(b.toggle_rate).str("\n");
    }

    if let Some(p) = pattern {
        let _ = writeln!(o.0, "\nPattern loop= {p}");
    }
    o.0
}

/// The writer [`write`] replaced, kept as its byte-for-byte reference.
#[cfg(test)]
pub(crate) mod reference {
    use std::fmt::Write as _;

    use dram_core::params::{
        ActiveDuring, Axis, BitlineArchitecture, DeviceGeometry, DramDescription, SegmentSpec,
        SignalClass, WireCount,
    };
    use dram_core::Pattern;
    use dram_units::Meters;

    fn um(m: Meters) -> String {
        format!("{}um", m.micrometers())
    }

    fn dev(d: DeviceGeometry) -> String {
        format!("{}x{}um", d.width.micrometers(), d.length.micrometers())
    }

    fn class_name(c: SignalClass) -> &'static str {
        match c {
            SignalClass::WriteData => "wdata",
            SignalClass::ReadData => "rdata",
            SignalClass::RowAddress => "rowaddr",
            SignalClass::ColumnAddress => "coladdr",
            SignalClass::BankAddress => "bankaddr",
            SignalClass::Control => "control",
            SignalClass::Clock => "clock",
        }
    }

    fn wires_name(w: WireCount) -> String {
        match w {
            WireCount::Explicit(n) => n.to_string(),
            WireCount::PerIo => "io".into(),
            WireCount::RowAddressBits => "rowadd".into(),
            WireCount::ColumnAddressBits => "coladd".into(),
            WireCount::BankAddressBits => "bankadd".into(),
            WireCount::ControlSignals => "control".into(),
            WireCount::ClockWires => "clock".into(),
        }
    }

    fn active_name(a: ActiveDuring) -> String {
        let mut parts = Vec::new();
        if a.always {
            parts.push("always");
        }
        if a.activate {
            parts.push("act");
        }
        if a.precharge {
            parts.push("pre");
        }
        if a.read {
            parts.push("rd");
        }
        if a.write {
            parts.push("wrt");
        }
        parts.join(",")
    }

    /// The text [`super::write`] gives, written field by field through
    /// `format!`.
    pub fn write(desc: &DramDescription, pattern: Option<&Pattern>) -> String {
        let mut out = String::new();
        let fp = &desc.floorplan;
        let t = &desc.technology;
        let e = &desc.electrical;
        let s = &desc.spec;
        let tm = &desc.timing;

        let _ = writeln!(out, "# {}", desc.name);
        let _ = writeln!(out, "Device name=\"{}\"", desc.name);
        let _ = writeln!(out);

        // --- physical floorplan ------------------------------------------
        let _ = writeln!(out, "FloorplanPhysical");
        let bl = match fp.bitline_direction {
            Axis::Vertical => "v",
            Axis::Horizontal => "h",
        };
        let bltype = match fp.bitline_architecture {
            BitlineArchitecture::Open => "open",
            BitlineArchitecture::Folded => "folded",
            BitlineArchitecture::Vertical4F2 => "4f2",
        };
        let _ = writeln!(
            out,
            "CellArray BL={bl} BitsPerBL={} BitsPerLWL={} BLtype={bltype}",
            fp.bits_per_bitline, fp.bits_per_local_wordline
        );
        let _ = writeln!(
            out,
            "CellArray WLpitch={} BLpitch={}",
            um(fp.wordline_pitch),
            um(fp.bitline_pitch)
        );
        let _ = writeln!(
            out,
            "CellArray SAStripe={} LWDStripe={} BlocksPerCSL={}",
            um(fp.sa_stripe_width),
            um(fp.lwd_stripe_width),
            fp.blocks_per_csl
        );
        let _ = writeln!(
            out,
            "Horizontal blocks = {}",
            fp.horizontal_blocks.join(" ")
        );
        let _ = writeln!(out, "Vertical blocks = {}", fp.vertical_blocks.join(" "));
        if !fp.horizontal_sizes.is_empty() {
            let sizes: Vec<String> = fp
                .horizontal_sizes
                .iter()
                .map(|(k, v)| format!("{k}={}", um(*v)))
                .collect();
            let _ = writeln!(out, "SizeHorizontal {}", sizes.join(" "));
        }
        if !fp.vertical_sizes.is_empty() {
            let sizes: Vec<String> = fp
                .vertical_sizes
                .iter()
                .map(|(k, v)| format!("{k}={}", um(*v)))
                .collect();
            let _ = writeln!(out, "SizeVertical {}", sizes.join(" "));
        }
        let _ = writeln!(out);

        // --- signaling ----------------------------------------------------
        let _ = writeln!(out, "FloorplanSignaling");
        for sig in &desc.signaling.signals {
            let _ = writeln!(
                out,
                "Signal {} class={} wires={} toggle={}",
                sig.name,
                class_name(sig.class),
                wires_name(sig.wires),
                sig.toggle_rate
            );
            for (i, seg) in sig.segments.iter().enumerate() {
                let _ = write!(out, "{}{i} ", sig.name);
                match seg {
                    SegmentSpec::Inside {
                        at,
                        fraction,
                        dir,
                        buffer,
                        mux,
                    } => {
                        let dir = match dir {
                            Axis::Horizontal => "h",
                            Axis::Vertical => "v",
                        };
                        let _ = write!(out, "inside={at} fraction={fraction} dir={dir}");
                        if let Some(m) = mux {
                            let _ = write!(out, " mux=1:{m}");
                        }
                        if let Some(b) = buffer {
                            let _ = write!(
                                out,
                                " NchW={} PchW={}",
                                b.nmos_width.micrometers(),
                                b.pmos_width.micrometers()
                            );
                        }
                    }
                    SegmentSpec::Between { from, to, buffer } => {
                        let _ = write!(out, "start={from} end={to}");
                        if let Some(b) = buffer {
                            let _ = write!(
                                out,
                                " NchW={} PchW={}",
                                b.nmos_width.micrometers(),
                                b.pmos_width.micrometers()
                            );
                        }
                    }
                }
                let _ = writeln!(out);
            }
        }
        let _ = writeln!(out);

        // --- technology ----------------------------------------------------
        let _ = writeln!(out, "Technology");
        let cpl = |c: dram_units::FaradsPerMeter| format!("{}fF/um", c.ff_per_um());
        let cap = |c: dram_units::Farads| format!("{}fF", c.femtofarads());
        let _ = writeln!(
            out,
            "Oxides ToxLogic={} ToxHV={} ToxCell={}",
            um(t.tox_logic),
            um(t.tox_high_voltage),
            um(t.tox_cell)
        );
        let _ = writeln!(
            out,
            "Devices LminLogic={} CjLogic={} LminHV={} CjHV={}",
            um(t.lmin_logic),
            cpl(t.junction_cap_logic),
            um(t.lmin_high_voltage),
            cpl(t.junction_cap_high_voltage)
        );
        let _ = writeln!(
            out,
            "Cell CellL={} CellW={} CBitline={} CCell={} BLtoWLShare={}",
            um(t.cell_access_length),
            um(t.cell_access_width),
            cap(t.bitline_cap),
            cap(t.cell_cap),
            t.bl_to_wl_cap_share
        );
        let _ = writeln!(
            out,
            "RowPath CWireMWL={} PredecodeRatio={} MWLDecN={} MWLDecP={} MWLDecSwitch={}",
            cpl(t.c_wire_mwl),
            t.mwl_predecode_ratio,
            um(t.mwl_decoder_nmos_width),
            um(t.mwl_decoder_pmos_width),
            t.mwl_decoder_switching
        );
        let _ = writeln!(
            out,
            "RowPath WLCtrlN={} WLCtrlP={} SWDN={} SWDP={} SWDRestore={} CWireLWL={}",
            um(t.wl_controller_nmos_width),
            um(t.wl_controller_pmos_width),
            um(t.swd_nmos_width),
            um(t.swd_pmos_width),
            um(t.swd_restore_nmos_width),
            cpl(t.c_wire_lwl)
        );
        let _ = writeln!(
            out,
            "SenseAmp SANSense={} SAPSense={} SAEq={} SABitSwitch={} SABLMux={}",
            dev(t.sa_nmos_sense),
            dev(t.sa_pmos_sense),
            dev(t.sa_equalize),
            dev(t.sa_bit_switch),
            dev(t.sa_bitline_mux)
        );
        let _ = writeln!(
            out,
            "SenseAmp SANSet={} SAPSet={} BitsPerCSL={}",
            dev(t.sa_nset),
            dev(t.sa_pset),
            t.bits_per_csl_per_subarray
        );
        let _ = writeln!(out, "Wiring CWireSignal={}", cpl(t.c_wire_signal));
        let _ = writeln!(out);

        // --- electrical ------------------------------------------------------
        let _ = writeln!(out, "Electrical");
        let _ = writeln!(
            out,
            "Supply Vdd={}V Vint={}V Vbl={}V Vpp={}V",
            e.vdd.volts(),
            e.vint.volts(),
            e.vbl.volts(),
            e.vpp.volts()
        );
        let _ = writeln!(
            out,
            "Generator EffVint={} EffVbl={} EffVpp={} ConstCurrent={}mA",
            e.eff_vint,
            e.eff_vbl,
            e.eff_vpp,
            e.constant_current.milliamperes()
        );
        let _ = writeln!(out);

        // --- specification ----------------------------------------------------
        let _ = writeln!(out, "Specification");
        let _ = writeln!(
            out,
            "IO width={} datarate={}Gbps",
            s.io_width,
            s.datarate_per_pin.gbps()
        );
        let _ = writeln!(
            out,
            "Clock number={} frequency={}MHz",
            s.clock_wires,
            s.data_clock.megahertz()
        );
        let _ = writeln!(
            out,
            "Control frequency={}MHz bankadd={} rowadd={} coladd={} misc={}",
            s.control_clock.megahertz(),
            s.bank_address_bits,
            s.row_address_bits,
            s.column_address_bits,
            s.control_signals
        );
        let _ = writeln!(
            out,
            "Access prefetch={} burst={}",
            s.prefetch, s.burst_length
        );
        let _ = writeln!(out);

        // --- timing --------------------------------------------------------
        let ns = |x: dram_units::Seconds| format!("{}ns", x.nanoseconds());
        let _ = writeln!(out, "Timing");
        let _ = writeln!(
            out,
            "Row tRC={} tRAS={} tRP={} tRCD={} tRRD={} tFAW={}",
            ns(tm.trc),
            ns(tm.tras),
            ns(tm.trp),
            ns(tm.trcd),
            ns(tm.trrd),
            ns(tm.tfaw)
        );
        let _ = writeln!(out, "Column tCCD={}", tm.tccd_cycles);
        let _ = writeln!(out, "Refresh tRFC={} tREFI={}", ns(tm.trfc), ns(tm.trefi));
        let _ = writeln!(out);

        // --- logic blocks ---------------------------------------------------
        for b in &desc.logic_blocks {
            let _ = writeln!(
                out,
                "LogicBlock name=\"{}\" gates={} Wn={} Wp={} tpg={} gatedensity={} \
                 wiredensity={} active={} toggle={}",
                b.name,
                b.gates,
                um(b.avg_nmos_width),
                um(b.avg_pmos_width),
                b.transistors_per_gate,
                b.gate_density,
                b.wiring_density,
                active_name(b.active_during),
                b.toggle_rate
            );
        }

        if let Some(p) = pattern {
            let _ = writeln!(out);
            let _ = writeln!(out, "Pattern loop= {p}");
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dram_core::{ParamId, Perturbation};
    use dram_units::rng::SplitMix64;

    /// The eight preset devices: the reference, then the roadmap presets.
    pub(crate) fn presets() -> Vec<DramDescription> {
        use dram_scaling::presets as p;
        vec![
            dram_core::reference::ddr3_1g_x16_55nm(),
            p::sdr_128m_170nm(),
            p::ddr2_1g_75nm(),
            p::ddr2_1g_65nm(),
            p::ddr3_1g_65nm(),
            p::ddr3_1g_55nm(),
            p::ddr3_2g_55nm(),
            p::ddr5_16g_18nm(),
        ]
    }

    /// The parameters a cold benchmark request edits, each by up to ±5 %.
    const COLD_PARAMS: [ParamId; 8] = [
        ParamId::Vdd,
        ParamId::Vint,
        ParamId::CellCap,
        ParamId::BitlineCap,
        ParamId::CWireSignal,
        ParamId::ToxLogic,
        ParamId::JunctionCapLogic,
        ParamId::SaStripeWidth,
    ];

    /// The presets, both shipped files, 1,000 presets with three ±5 %
    /// edits of [`COLD_PARAMS`] (full-mantissa numbers, as a service
    /// receives them) and 1,000 with one ±20 % edit of any parameter.
    fn descriptions() -> Vec<DramDescription> {
        let mut out = presets();
        for text in [
            include_str!("../descriptions/ddr3_1gb_x16_55nm.dram"),
            include_str!("../descriptions/ddr5_16gb_x16_18nm.dram"),
        ] {
            out.push(crate::parse_description(text).expect("shipped files parse"));
        }
        let bases = presets();
        let mut rng = SplitMix64::new(0x5752_17E5);
        for i in 0..1_000 {
            let edits = (0..3)
                .map(|_| (*rng.pick(&COLD_PARAMS), rng.range_f64(0.95, 1.05)))
                .collect();
            let mut desc = bases[i % bases.len()].clone();
            Perturbation::new(edits).apply(&mut desc);
            out.push(desc);
        }
        for i in 0..1_000 {
            let mut desc = bases[i % bases.len()].clone();
            Perturbation::single(*rng.pick(&ParamId::ALL), rng.range_f64(0.8, 1.2))
                .apply(&mut desc);
            out.push(desc);
        }
        out
    }

    /// `write` gives the reference's bytes, with and without a pattern,
    /// and its text fits the capacity it reserves, so it is allocated
    /// once. Quoted into JSON, the text escapes its quotes, backslashes
    /// and newlines, the only bytes a written description needs escaped.
    #[test]
    fn write_matches_the_reference_byte_for_byte() {
        let pattern = Pattern::paper_example();
        let descriptions = descriptions();
        assert!(descriptions.len() > 2_000);
        for desc in &descriptions {
            for pattern in [None, Some(&pattern)] {
                let text = write(desc, pattern);
                assert_eq!(text, reference::write(desc, pattern));
                let mut quoted = String::new();
                dram_units::json::write_string(&mut quoted, &text);
                let escaped = text
                    .replace('\\', "\\\\")
                    .replace('"', "\\\"")
                    .replace('\n', "\\n");
                assert_eq!(quoted, format!("\"{escaped}\""));
                let capacity = capacity(desc, pattern);
                assert!(text.len() <= capacity, "{} bytes", text.len());
            }
        }
    }

    /// Numbers, names and indices no preset holds: integers past 2^32
    /// and 2^53, `-0`, non-finite values, an empty activity set and an
    /// index past `u32`.
    #[test]
    fn unusual_fields_match_the_reference() {
        let mut desc = dram_core::reference::ddr3_1g_x16_55nm();
        desc.name = "a \"quoted\" name, µ".into();
        desc.electrical.vdd = dram_units::Volts::new(-0.0);
        desc.electrical.vint = dram_units::Volts::new(f64::NAN);
        desc.electrical.vbl = dram_units::Volts::new(f64::NEG_INFINITY);
        desc.electrical.vpp = dram_units::Volts::new(9_007_199_254_740_993.0);
        desc.electrical.eff_vint = 4_294_967_296.0;
        desc.electrical.eff_vbl = -12.0;
        desc.electrical.eff_vpp = 1e300;
        desc.logic_blocks[0].active_during = ActiveDuring::default();
        desc.floorplan.horizontal_sizes.clear();
        if let Some(SegmentSpec::Inside { at, .. } | SegmentSpec::Between { from: at, .. }) =
            desc.signaling.signals[0].segments.first_mut()
        {
            at.x = usize::MAX;
        }
        assert_eq!(write(&desc, None), reference::write(&desc, None));
    }
}
