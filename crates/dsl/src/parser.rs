//! Parser for the DRAM description language (Fig. 4, steps "Parse input
//! file" and "Syntax check").
//!
//! The file is organized in the sections of §III.B: `FloorplanPhysical`,
//! `FloorplanSignaling`, `Technology`, `Electrical`, `Specification`,
//! `Timing`, plus free-standing `Device`, `LogicBlock` and `Pattern`
//! directives. See `descriptions/ddr3_1gb_x16_55nm.dram` for a complete
//! example.

use std::collections::BTreeMap;

use dram_core::params::{
    Axis, BitlineArchitecture, BufferDevice, DeviceGeometry, DramDescription, Electrical,
    LogicBlock, PhysicalFloorplan, SegmentSpec, SignalClass, SignalSpec, SignalingFloorplan,
    Specification, Technology, Timing, WireCount,
};
use dram_core::Pattern;
use dram_units::{Amperes, BitsPerSecond, Farads, FaradsPerMeter, Hertz, Meters, Seconds, Volts};

use crate::error::DslError;
use crate::lexer::{Lexer, Line};
use crate::value;

/// Result of parsing a description file.
#[derive(Debug, Clone)]
pub struct ParsedFile {
    /// The assembled device description.
    pub description: DramDescription,
    /// The operation pattern, if the file contained a `Pattern` directive.
    pub pattern: Option<Pattern>,
}

/// Parses a complete description file.
///
/// # Errors
///
/// Returns a [`DslError`] naming the offending line for syntax errors,
/// unknown keys or sections, and a file-level error listing any missing
/// required parameters.
///
/// # Examples
///
/// ```
/// let text = include_str!("../descriptions/ddr3_1gb_x16_55nm.dram");
/// let parsed = dram_dsl::parse(text)?;
/// assert_eq!(parsed.description.spec.density_bits(), 1 << 30);
/// # Ok::<(), dram_dsl::DslError>(())
/// ```
pub fn parse(input: &str) -> Result<ParsedFile, DslError> {
    let _s = dram_obs::span("dsl.parse").arg("bytes", input.len());
    parses_total().inc();
    let mut parser = Parser::default();
    let mut lines = Lexer::new(input);
    // Each line is parsed as soon as it is split. The first parse error
    // waits for the rest of the text to lex: a lex error on any line
    // wins over it.
    let mut failed = None;
    while let Some(line) = lines.next_line() {
        let line = line?;
        if failed.is_none() {
            failed = parser.dispatch(&line).err();
        }
    }
    match failed {
        Some(e) => Err(e),
        None => parser.finish(),
    }
}

/// Process-wide count of [`parse`] calls, registered once.
fn parses_total() -> &'static std::sync::Arc<dram_obs::Counter> {
    static COUNTER: std::sync::OnceLock<std::sync::Arc<dram_obs::Counter>> =
        std::sync::OnceLock::new();
    COUNTER.get_or_init(|| {
        dram_obs::Registry::global().counter(
            "dram_dsl_parses_total",
            "Description-language parses attempted.",
        )
    })
}

/// Parses a description file, discarding any pattern directive.
///
/// # Errors
///
/// See [`parse`].
pub fn parse_description(input: &str) -> Result<DramDescription, DslError> {
    parse(input).map(|p| p.description)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    None,
    FloorplanPhysical,
    FloorplanSignaling,
    Technology,
    Electrical,
    Specification,
    Timing,
}

#[derive(Debug)]
struct Parser {
    section: Section,
    /// The [`REQUIRED`] parameters seen so far: bit `i` for `REQUIRED[i]`.
    seen: u64,
    name: String,
    fp: PhysicalFloorplan,
    tech: Technology,
    elec: Electrical,
    spec: Specification,
    timing: Timing,
    signals: Vec<SignalSpec>,
    logic_blocks: Vec<LogicBlock>,
    pattern: Option<Pattern>,
}

impl Default for Parser {
    fn default() -> Self {
        Self {
            section: Section::None,
            seen: 0,
            name: String::new(),
            fp: PhysicalFloorplan {
                bitline_direction: Axis::Vertical,
                bits_per_bitline: 0,
                bits_per_local_wordline: 0,
                bitline_architecture: BitlineArchitecture::Open,
                blocks_per_csl: 1,
                wordline_pitch: Meters::ZERO,
                bitline_pitch: Meters::ZERO,
                sa_stripe_width: Meters::ZERO,
                lwd_stripe_width: Meters::ZERO,
                horizontal_blocks: Vec::new(),
                vertical_blocks: Vec::new(),
                horizontal_sizes: BTreeMap::new(),
                vertical_sizes: BTreeMap::new(),
            },
            tech: Technology {
                tox_logic: Meters::ZERO,
                tox_high_voltage: Meters::ZERO,
                tox_cell: Meters::ZERO,
                lmin_logic: Meters::ZERO,
                junction_cap_logic: FaradsPerMeter::ZERO,
                lmin_high_voltage: Meters::ZERO,
                junction_cap_high_voltage: FaradsPerMeter::ZERO,
                cell_access_length: Meters::ZERO,
                cell_access_width: Meters::ZERO,
                bitline_cap: Farads::ZERO,
                cell_cap: Farads::ZERO,
                bl_to_wl_cap_share: 0.0,
                bits_per_csl_per_subarray: 0,
                c_wire_mwl: FaradsPerMeter::ZERO,
                mwl_predecode_ratio: 0.0,
                mwl_decoder_nmos_width: Meters::ZERO,
                mwl_decoder_pmos_width: Meters::ZERO,
                mwl_decoder_switching: 0.0,
                wl_controller_nmos_width: Meters::ZERO,
                wl_controller_pmos_width: Meters::ZERO,
                swd_nmos_width: Meters::ZERO,
                swd_pmos_width: Meters::ZERO,
                swd_restore_nmos_width: Meters::ZERO,
                c_wire_lwl: FaradsPerMeter::ZERO,
                sa_nmos_sense: DeviceGeometry {
                    width: Meters::ZERO,
                    length: Meters::ZERO,
                },
                sa_pmos_sense: DeviceGeometry {
                    width: Meters::ZERO,
                    length: Meters::ZERO,
                },
                sa_equalize: DeviceGeometry {
                    width: Meters::ZERO,
                    length: Meters::ZERO,
                },
                sa_bit_switch: DeviceGeometry {
                    width: Meters::ZERO,
                    length: Meters::ZERO,
                },
                sa_bitline_mux: DeviceGeometry {
                    width: Meters::ZERO,
                    length: Meters::ZERO,
                },
                sa_nset: DeviceGeometry {
                    width: Meters::ZERO,
                    length: Meters::ZERO,
                },
                sa_pset: DeviceGeometry {
                    width: Meters::ZERO,
                    length: Meters::ZERO,
                },
                c_wire_signal: FaradsPerMeter::ZERO,
            },
            elec: Electrical {
                vdd: Volts::ZERO,
                vint: Volts::ZERO,
                vbl: Volts::ZERO,
                vpp: Volts::ZERO,
                eff_vint: 0.0,
                eff_vbl: 0.0,
                eff_vpp: 0.0,
                constant_current: Amperes::ZERO,
            },
            spec: Specification {
                io_width: 0,
                datarate_per_pin: BitsPerSecond::ZERO,
                clock_wires: 0,
                data_clock: Hertz::ZERO,
                control_clock: Hertz::ZERO,
                bank_address_bits: 0,
                row_address_bits: 0,
                column_address_bits: 0,
                control_signals: 0,
                prefetch: 0,
                burst_length: 0,
            },
            timing: Timing {
                trc: Seconds::ZERO,
                tras: Seconds::ZERO,
                trp: Seconds::ZERO,
                trcd: Seconds::ZERO,
                trrd: Seconds::ZERO,
                tfaw: Seconds::ZERO,
                trfc: Seconds::ZERO,
                trefi: Seconds::ZERO,
                tccd_cycles: 0,
            },
            signals: Vec::new(),
            logic_blocks: Vec::new(),
            pattern: None,
        }
    }
}

/// Parameters that must appear in every description.
const REQUIRED: &[&str] = &[
    "CellArray.BitsPerBL",
    "CellArray.BitsPerLWL",
    "CellArray.WLpitch",
    "CellArray.BLpitch",
    "CellArray.SAStripe",
    "CellArray.LWDStripe",
    "Horizontal.blocks",
    "Vertical.blocks",
    "Technology.ToxLogic",
    "Technology.ToxHV",
    "Technology.ToxCell",
    "Technology.LminLogic",
    "Technology.CjLogic",
    "Technology.LminHV",
    "Technology.CjHV",
    "Technology.CellL",
    "Technology.CellW",
    "Technology.CBitline",
    "Technology.CCell",
    "Technology.BitsPerCSL",
    "Technology.CWireMWL",
    "Technology.CWireLWL",
    "Technology.CWireSignal",
    "Technology.SANSense",
    "Technology.SAPSense",
    "Technology.SAEq",
    "Technology.SABitSwitch",
    "Technology.SANSet",
    "Technology.SAPSet",
    "Technology.SWDN",
    "Technology.SWDP",
    "Technology.SWDRestore",
    "Electrical.Vdd",
    "Electrical.Vint",
    "Electrical.Vbl",
    "Electrical.Vpp",
    "Electrical.EffVint",
    "Electrical.EffVbl",
    "Electrical.EffVpp",
    "IO.width",
    "IO.datarate",
    "Clock.frequency",
    "Control.frequency",
    "Control.bankadd",
    "Control.rowadd",
    "Control.coladd",
    "Access.prefetch",
    "Access.burst",
    "Timing.tRC",
    "Timing.tRAS",
    "Timing.tRP",
    "Timing.tRCD",
    "Timing.tRRD",
    "Timing.tFAW",
    "Timing.tRFC",
    "Timing.tREFI",
    "Timing.tCCD",
];

const _: () = assert!(
    REQUIRED.len() <= 64,
    "`Parser::seen` has one bit per required key"
);

/// The bit of a required key in `Parser::seen`: its position in
/// [`REQUIRED`]. Called in const context, so no key is compared at run
/// time and a misspelt key fails the build.
const fn bit(key: &str) -> u64 {
    let mut i = 0;
    while i < REQUIRED.len() {
        let (a, b) = (REQUIRED[i].as_bytes(), key.as_bytes());
        if a.len() == b.len() {
            let mut j = 0;
            while j < a.len() && a[j] == b[j] {
                j += 1;
            }
            if j == a.len() {
                return 1 << i;
            }
        }
        i += 1;
    }
    panic!("not a required key")
}

impl Parser {
    /// The parsed file, once every line has been dispatched, or the
    /// list of required parameters no line gave.
    fn finish(self) -> Result<ParsedFile, DslError> {
        let missing: Vec<&str> = REQUIRED
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.seen & (1 << i) == 0)
            .map(|(_, key)| *key)
            .collect();
        if !missing.is_empty() {
            return Err(DslError::new(
                0,
                format!("missing required parameters: {}", missing.join(", ")),
            ));
        }
        let description = DramDescription {
            name: self.name,
            floorplan: self.fp,
            signaling: SignalingFloorplan {
                signals: self.signals,
            },
            technology: self.tech,
            electrical: self.elec,
            spec: self.spec,
            timing: self.timing,
            logic_blocks: self.logic_blocks,
        };
        Ok(ParsedFile {
            description,
            pattern: self.pattern,
        })
    }

    fn dispatch(&mut self, line: &Line<'_, '_>) -> Result<(), DslError> {
        // Section headers and free-standing directives first.
        match line.head {
            "FloorplanPhysical" => {
                self.section = Section::FloorplanPhysical;
                return Ok(());
            }
            "FloorplanSignaling" => {
                self.section = Section::FloorplanSignaling;
                return Ok(());
            }
            "Technology" => {
                self.section = Section::Technology;
                return Ok(());
            }
            "Electrical" => {
                self.section = Section::Electrical;
                return Ok(());
            }
            "Specification" => {
                self.section = Section::Specification;
                return Ok(());
            }
            "Timing" if line.args.is_empty() => {
                self.section = Section::Timing;
                return Ok(());
            }
            "Device" => return self.parse_device(line),
            "LogicBlock" => return self.parse_logic_block(line),
            "Pattern" => return self.parse_pattern(line),
            _ => {}
        }
        match self.section {
            Section::None => Err(DslError::new(
                line.number,
                format!("`{}` before any section header", line.head),
            )),
            Section::FloorplanPhysical => self.parse_floorplan(line),
            Section::FloorplanSignaling => self.parse_signaling(line),
            Section::Technology => self.parse_technology(line),
            Section::Electrical => self.parse_electrical(line),
            Section::Specification => self.parse_specification(line),
            Section::Timing => self.parse_timing(line),
        }
    }

    fn mark(&mut self, bit: u64) {
        self.seen |= bit;
    }

    fn parse_device(&mut self, line: &Line<'_, '_>) -> Result<(), DslError> {
        if let Some(name) = line.value("name") {
            self.name = name.to_string();
            Ok(())
        } else {
            Err(DslError::new(
                line.number,
                "Device directive needs name=\"...\"",
            ))
        }
    }

    fn parse_pattern(&mut self, line: &Line<'_, '_>) -> Result<(), DslError> {
        let words = line
            .list("loop")
            .ok_or_else(|| DslError::new(line.number, "Pattern directive needs `loop= ...`"))?;
        let text = words.join(" ");
        let pattern = Pattern::parse(&text)
            .map_err(|e| DslError::new(line.number, format!("bad pattern: {e}")))?;
        self.pattern = Some(pattern);
        Ok(())
    }

    fn parse_logic_block(&mut self, line: &Line<'_, '_>) -> Result<(), DslError> {
        let n = line.number;
        let get = |key: &str| -> Result<&str, DslError> {
            line.value(key)
                .ok_or_else(|| DslError::new(n, format!("LogicBlock needs `{key}=`")))
        };
        let wrap = |key: &str, e: String| DslError::new(n, format!("{key}: {e}"));
        let block = LogicBlock {
            name: get("name")?.to_string(),
            gates: value::integer(get("gates")?).map_err(|e| wrap("gates", e))?,
            avg_nmos_width: value::length(get("Wn")?).map_err(|e| wrap("Wn", e))?,
            avg_pmos_width: value::length(get("Wp")?).map_err(|e| wrap("Wp", e))?,
            transistors_per_gate: value::number(get("tpg")?).map_err(|e| wrap("tpg", e))?,
            gate_density: value::fraction(get("gatedensity")?)
                .map_err(|e| wrap("gatedensity", e))?,
            wiring_density: value::fraction(get("wiredensity")?)
                .map_err(|e| wrap("wiredensity", e))?,
            active_during: value::active_during(get("active")?).map_err(|e| wrap("active", e))?,
            toggle_rate: value::fraction(get("toggle")?).map_err(|e| wrap("toggle", e))?,
        };
        self.logic_blocks.push(block);
        Ok(())
    }

    fn parse_floorplan(&mut self, line: &Line<'_, '_>) -> Result<(), DslError> {
        let n = line.number;
        match line.head {
            "CellArray" => {
                for (key, val) in line.pairs() {
                    let wrap = |e: String| DslError::new(n, format!("{key}: {e}"));
                    match key {
                        "BL" => {
                            self.fp.bitline_direction = match val {
                                "v" => Axis::Vertical,
                                "h" => Axis::Horizontal,
                                other => {
                                    return Err(DslError::new(
                                        n,
                                        format!("BL direction must be v or h, got `{other}`"),
                                    ))
                                }
                            };
                        }
                        "BitsPerBL" => {
                            self.fp.bits_per_bitline = value::integer(val).map_err(wrap)?;
                            self.mark(const { bit("CellArray.BitsPerBL") });
                        }
                        "BitsPerLWL" => {
                            self.fp.bits_per_local_wordline = value::integer(val).map_err(wrap)?;
                            self.mark(const { bit("CellArray.BitsPerLWL") });
                        }
                        "BLtype" => {
                            self.fp.bitline_architecture = match val {
                                "open" => BitlineArchitecture::Open,
                                "folded" => BitlineArchitecture::Folded,
                                "4f2" | "vertical" => BitlineArchitecture::Vertical4F2,
                                other => {
                                    return Err(DslError::new(
                                        n,
                                        format!("BLtype must be open/folded/4f2, got `{other}`"),
                                    ))
                                }
                            };
                        }
                        "WLpitch" => {
                            self.fp.wordline_pitch = value::length(val).map_err(wrap)?;
                            self.mark(const { bit("CellArray.WLpitch") });
                        }
                        "BLpitch" => {
                            self.fp.bitline_pitch = value::length(val).map_err(wrap)?;
                            self.mark(const { bit("CellArray.BLpitch") });
                        }
                        "SAStripe" => {
                            self.fp.sa_stripe_width = value::length(val).map_err(wrap)?;
                            self.mark(const { bit("CellArray.SAStripe") });
                        }
                        "LWDStripe" => {
                            self.fp.lwd_stripe_width = value::length(val).map_err(wrap)?;
                            self.mark(const { bit("CellArray.LWDStripe") });
                        }
                        "BlocksPerCSL" => {
                            self.fp.blocks_per_csl = value::integer(val).map_err(wrap)?;
                        }
                        other => {
                            return Err(DslError::new(
                                n,
                                format!("unknown CellArray key `{other}`"),
                            ))
                        }
                    }
                }
                Ok(())
            }
            "Horizontal" => {
                let blocks = line
                    .list("blocks")
                    .ok_or_else(|| DslError::new(n, "Horizontal needs `blocks = A1 P1 ...`"))?;
                self.fp.horizontal_blocks = blocks.iter().map(|b| b.to_string()).collect();
                self.mark(const { bit("Horizontal.blocks") });
                Ok(())
            }
            "Vertical" => {
                let blocks = line
                    .list("blocks")
                    .ok_or_else(|| DslError::new(n, "Vertical needs `blocks = A1 P1 ...`"))?;
                self.fp.vertical_blocks = blocks.iter().map(|b| b.to_string()).collect();
                self.mark(const { bit("Vertical.blocks") });
                Ok(())
            }
            "SizeHorizontal" | "SizeVertical" => {
                let sizes = if line.head == "SizeHorizontal" {
                    &mut self.fp.horizontal_sizes
                } else {
                    &mut self.fp.vertical_sizes
                };
                for (key, val) in line.pairs() {
                    // Array block sizes are computed by the model; explicit
                    // entries for them are accepted and ignored.
                    if PhysicalFloorplan::is_array_type(key) {
                        continue;
                    }
                    let m =
                        value::length(val).map_err(|e| DslError::new(n, format!("{key}: {e}")))?;
                    sizes.insert(key.to_string(), m);
                }
                Ok(())
            }
            other => Err(DslError::new(
                n,
                format!("unknown FloorplanPhysical directive `{other}`"),
            )),
        }
    }

    fn parse_signaling(&mut self, line: &Line<'_, '_>) -> Result<(), DslError> {
        let n = line.number;
        if line.head == "Signal" {
            // Declaration: `Signal DataW class=wdata wires=io toggle=50%`.
            let name = match line.args.first() {
                Some(crate::lexer::Arg::Bare(name)) => (*name).to_string(),
                _ => return Err(DslError::new(n, "Signal needs a name word first")),
            };
            let class = match line.value("class") {
                Some("wdata") => SignalClass::WriteData,
                Some("rdata") => SignalClass::ReadData,
                Some("rowaddr") => SignalClass::RowAddress,
                Some("coladdr") => SignalClass::ColumnAddress,
                Some("bankaddr") => SignalClass::BankAddress,
                Some("control") => SignalClass::Control,
                Some("clock") => SignalClass::Clock,
                Some(other) => {
                    return Err(DslError::new(n, format!("unknown signal class `{other}`")))
                }
                None => return Err(DslError::new(n, "Signal needs `class=`")),
            };
            let wires = match line.value("wires") {
                Some("io") => WireCount::PerIo,
                Some("rowadd") => WireCount::RowAddressBits,
                Some("coladd") => WireCount::ColumnAddressBits,
                Some("bankadd") => WireCount::BankAddressBits,
                Some("control") => WireCount::ControlSignals,
                Some("clock") => WireCount::ClockWires,
                Some(numeric) => WireCount::Explicit(
                    value::integer(numeric).map_err(|e| DslError::new(n, format!("wires: {e}")))?,
                ),
                None => return Err(DslError::new(n, "Signal needs `wires=`")),
            };
            let toggle = match line.value("toggle") {
                Some(t) => {
                    value::fraction(t).map_err(|e| DslError::new(n, format!("toggle: {e}")))?
                }
                None => 0.5,
            };
            self.signals.push(SignalSpec {
                name,
                class,
                wires,
                toggle_rate: toggle,
                segments: Vec::new(),
            });
            return Ok(());
        }

        // Segment line: head is `<signal><index>`, e.g. `DataW0`.
        let owner = self
            .signals
            .iter_mut()
            .filter(|s| {
                line.head.starts_with(&s.name)
                    && line.head[s.name.len()..]
                        .chars()
                        .all(|c| c.is_ascii_digit())
                    && line.head.len() > s.name.len()
            })
            .max_by_key(|s| s.name.len());
        let Some(owner) = owner else {
            return Err(DslError::new(
                n,
                format!("segment `{}` does not match any declared Signal", line.head),
            ));
        };

        let buffer = match (line.value("NchW"), line.value("PchW")) {
            (Some(nw), Some(pw)) => {
                let parse_width = |s: &str, key: &str| -> Result<Meters, DslError> {
                    // The paper writes bare numbers (µm); accept units too.
                    if let Ok(v) = value::number(s) {
                        Ok(Meters::from_um(v))
                    } else {
                        value::length(s).map_err(|e| DslError::new(n, format!("{key}: {e}")))
                    }
                };
                Some(BufferDevice {
                    nmos_width: parse_width(nw, "NchW")?,
                    pmos_width: parse_width(pw, "PchW")?,
                })
            }
            (None, None) => None,
            _ => {
                return Err(DslError::new(
                    n,
                    "buffer needs both NchW= and PchW= (or neither)",
                ))
            }
        };

        let segment = if let Some(at) = line.value("inside") {
            let at = value::coordinate(at).map_err(|e| DslError::new(n, format!("inside: {e}")))?;
            let fraction = line
                .value("fraction")
                .map(value::fraction)
                .transpose()
                .map_err(|e| DslError::new(n, format!("fraction: {e}")))?
                .unwrap_or(1.0);
            let dir = match line.value("dir") {
                Some("h") | None => Axis::Horizontal,
                Some("v") => Axis::Vertical,
                Some(other) => {
                    return Err(DslError::new(
                        n,
                        format!("dir must be h or v, got `{other}`"),
                    ))
                }
            };
            let mux = line
                .value("mux")
                .map(value::mux_ratio)
                .transpose()
                .map_err(|e| DslError::new(n, format!("mux: {e}")))?;
            SegmentSpec::Inside {
                at,
                fraction,
                dir,
                buffer,
                mux,
            }
        } else if let (Some(from), Some(to)) = (line.value("start"), line.value("end")) {
            let from =
                value::coordinate(from).map_err(|e| DslError::new(n, format!("start: {e}")))?;
            let to = value::coordinate(to).map_err(|e| DslError::new(n, format!("end: {e}")))?;
            SegmentSpec::Between { from, to, buffer }
        } else {
            return Err(DslError::new(
                n,
                "segment needs either `inside=` or `start=`/`end=`",
            ));
        };
        owner.segments.push(segment);
        Ok(())
    }

    fn parse_technology(&mut self, line: &Line<'_, '_>) -> Result<(), DslError> {
        let n = line.number;
        for (key, val) in line.pairs() {
            let wrap = |e: String| DslError::new(n, format!("{key}: {e}"));
            let t = &mut self.tech;
            match key {
                "ToxLogic" => {
                    t.tox_logic = value::length(val).map_err(wrap)?;
                    self.mark(const { bit("Technology.ToxLogic") });
                }
                "ToxHV" => {
                    t.tox_high_voltage = value::length(val).map_err(wrap)?;
                    self.mark(const { bit("Technology.ToxHV") });
                }
                "ToxCell" => {
                    t.tox_cell = value::length(val).map_err(wrap)?;
                    self.mark(const { bit("Technology.ToxCell") });
                }
                "LminLogic" => {
                    t.lmin_logic = value::length(val).map_err(wrap)?;
                    self.mark(const { bit("Technology.LminLogic") });
                }
                "CjLogic" => {
                    t.junction_cap_logic = value::capacitance_per_length(val).map_err(wrap)?;
                    self.mark(const { bit("Technology.CjLogic") });
                }
                "LminHV" => {
                    t.lmin_high_voltage = value::length(val).map_err(wrap)?;
                    self.mark(const { bit("Technology.LminHV") });
                }
                "CjHV" => {
                    t.junction_cap_high_voltage =
                        value::capacitance_per_length(val).map_err(wrap)?;
                    self.mark(const { bit("Technology.CjHV") });
                }
                "CellL" => {
                    t.cell_access_length = value::length(val).map_err(wrap)?;
                    self.mark(const { bit("Technology.CellL") });
                }
                "CellW" => {
                    t.cell_access_width = value::length(val).map_err(wrap)?;
                    self.mark(const { bit("Technology.CellW") });
                }
                "CBitline" => {
                    t.bitline_cap = value::capacitance(val).map_err(wrap)?;
                    self.mark(const { bit("Technology.CBitline") });
                }
                "CCell" => {
                    t.cell_cap = value::capacitance(val).map_err(wrap)?;
                    self.mark(const { bit("Technology.CCell") });
                }
                "BLtoWLShare" => {
                    t.bl_to_wl_cap_share = value::fraction(val).map_err(wrap)?;
                }
                "BitsPerCSL" => {
                    t.bits_per_csl_per_subarray = value::integer(val).map_err(wrap)?;
                    self.mark(const { bit("Technology.BitsPerCSL") });
                }
                "CWireMWL" => {
                    t.c_wire_mwl = value::capacitance_per_length(val).map_err(wrap)?;
                    self.mark(const { bit("Technology.CWireMWL") });
                }
                "PredecodeRatio" => {
                    t.mwl_predecode_ratio = value::fraction(val).map_err(wrap)?;
                }
                "MWLDecN" => t.mwl_decoder_nmos_width = value::length(val).map_err(wrap)?,
                "MWLDecP" => t.mwl_decoder_pmos_width = value::length(val).map_err(wrap)?,
                "MWLDecSwitch" => t.mwl_decoder_switching = value::number(val).map_err(wrap)?,
                "WLCtrlN" => t.wl_controller_nmos_width = value::length(val).map_err(wrap)?,
                "WLCtrlP" => t.wl_controller_pmos_width = value::length(val).map_err(wrap)?,
                "SWDN" => {
                    t.swd_nmos_width = value::length(val).map_err(wrap)?;
                    self.mark(const { bit("Technology.SWDN") });
                }
                "SWDP" => {
                    t.swd_pmos_width = value::length(val).map_err(wrap)?;
                    self.mark(const { bit("Technology.SWDP") });
                }
                "SWDRestore" => {
                    t.swd_restore_nmos_width = value::length(val).map_err(wrap)?;
                    self.mark(const { bit("Technology.SWDRestore") });
                }
                "CWireLWL" => {
                    t.c_wire_lwl = value::capacitance_per_length(val).map_err(wrap)?;
                    self.mark(const { bit("Technology.CWireLWL") });
                }
                "SANSense" => {
                    t.sa_nmos_sense = value::device(val).map_err(wrap)?;
                    self.mark(const { bit("Technology.SANSense") });
                }
                "SAPSense" => {
                    t.sa_pmos_sense = value::device(val).map_err(wrap)?;
                    self.mark(const { bit("Technology.SAPSense") });
                }
                "SAEq" => {
                    t.sa_equalize = value::device(val).map_err(wrap)?;
                    self.mark(const { bit("Technology.SAEq") });
                }
                "SABitSwitch" => {
                    t.sa_bit_switch = value::device(val).map_err(wrap)?;
                    self.mark(const { bit("Technology.SABitSwitch") });
                }
                "SABLMux" => t.sa_bitline_mux = value::device(val).map_err(wrap)?,
                "SANSet" => {
                    t.sa_nset = value::device(val).map_err(wrap)?;
                    self.mark(const { bit("Technology.SANSet") });
                }
                "SAPSet" => {
                    t.sa_pset = value::device(val).map_err(wrap)?;
                    self.mark(const { bit("Technology.SAPSet") });
                }
                "CWireSignal" => {
                    t.c_wire_signal = value::capacitance_per_length(val).map_err(wrap)?;
                    self.mark(const { bit("Technology.CWireSignal") });
                }
                other => {
                    return Err(DslError::new(
                        n,
                        format!("unknown Technology key `{other}`"),
                    ))
                }
            }
        }
        Ok(())
    }

    fn parse_electrical(&mut self, line: &Line<'_, '_>) -> Result<(), DslError> {
        let n = line.number;
        for (key, val) in line.pairs() {
            let wrap = |e: String| DslError::new(n, format!("{key}: {e}"));
            match key {
                "Vdd" => {
                    self.elec.vdd = value::voltage(val).map_err(wrap)?;
                    self.mark(const { bit("Electrical.Vdd") });
                }
                "Vint" => {
                    self.elec.vint = value::voltage(val).map_err(wrap)?;
                    self.mark(const { bit("Electrical.Vint") });
                }
                "Vbl" => {
                    self.elec.vbl = value::voltage(val).map_err(wrap)?;
                    self.mark(const { bit("Electrical.Vbl") });
                }
                "Vpp" => {
                    self.elec.vpp = value::voltage(val).map_err(wrap)?;
                    self.mark(const { bit("Electrical.Vpp") });
                }
                "EffVint" => {
                    self.elec.eff_vint = value::fraction(val).map_err(wrap)?;
                    self.mark(const { bit("Electrical.EffVint") });
                }
                "EffVbl" => {
                    self.elec.eff_vbl = value::fraction(val).map_err(wrap)?;
                    self.mark(const { bit("Electrical.EffVbl") });
                }
                "EffVpp" => {
                    self.elec.eff_vpp = value::fraction(val).map_err(wrap)?;
                    self.mark(const { bit("Electrical.EffVpp") });
                }
                "ConstCurrent" => {
                    self.elec.constant_current = value::current(val).map_err(wrap)?;
                }
                other => {
                    return Err(DslError::new(
                        n,
                        format!("unknown Electrical key `{other}`"),
                    ))
                }
            }
        }
        Ok(())
    }

    fn parse_specification(&mut self, line: &Line<'_, '_>) -> Result<(), DslError> {
        let n = line.number;
        match line.head {
            "IO" => {
                for (key, val) in line.pairs() {
                    let wrap = |e: String| DslError::new(n, format!("{key}: {e}"));
                    match key {
                        "width" => {
                            self.spec.io_width = value::integer(val).map_err(wrap)?;
                            self.mark(const { bit("IO.width") });
                        }
                        "datarate" => {
                            self.spec.datarate_per_pin = value::datarate(val).map_err(wrap)?;
                            self.mark(const { bit("IO.datarate") });
                        }
                        other => return Err(DslError::new(n, format!("unknown IO key `{other}`"))),
                    }
                }
                Ok(())
            }
            "Clock" => {
                for (key, val) in line.pairs() {
                    let wrap = |e: String| DslError::new(n, format!("{key}: {e}"));
                    match key {
                        "number" => self.spec.clock_wires = value::integer(val).map_err(wrap)?,
                        "frequency" => {
                            self.spec.data_clock = value::frequency(val).map_err(wrap)?;
                            self.mark(const { bit("Clock.frequency") });
                        }
                        other => {
                            return Err(DslError::new(n, format!("unknown Clock key `{other}`")))
                        }
                    }
                }
                Ok(())
            }
            "Control" => {
                for (key, val) in line.pairs() {
                    let wrap = |e: String| DslError::new(n, format!("{key}: {e}"));
                    match key {
                        "frequency" => {
                            self.spec.control_clock = value::frequency(val).map_err(wrap)?;
                            self.mark(const { bit("Control.frequency") });
                        }
                        "bankadd" => {
                            self.spec.bank_address_bits = value::integer(val).map_err(wrap)?;
                            self.mark(const { bit("Control.bankadd") });
                        }
                        "rowadd" => {
                            self.spec.row_address_bits = value::integer(val).map_err(wrap)?;
                            self.mark(const { bit("Control.rowadd") });
                        }
                        "coladd" => {
                            self.spec.column_address_bits = value::integer(val).map_err(wrap)?;
                            self.mark(const { bit("Control.coladd") });
                        }
                        "misc" => {
                            self.spec.control_signals = value::integer(val).map_err(wrap)?;
                        }
                        other => {
                            return Err(DslError::new(n, format!("unknown Control key `{other}`")))
                        }
                    }
                }
                Ok(())
            }
            "Access" => {
                for (key, val) in line.pairs() {
                    let wrap = |e: String| DslError::new(n, format!("{key}: {e}"));
                    match key {
                        "prefetch" => {
                            self.spec.prefetch = value::integer(val).map_err(wrap)?;
                            self.mark(const { bit("Access.prefetch") });
                        }
                        "burst" => {
                            self.spec.burst_length = value::integer(val).map_err(wrap)?;
                            self.mark(const { bit("Access.burst") });
                        }
                        other => {
                            return Err(DslError::new(n, format!("unknown Access key `{other}`")))
                        }
                    }
                }
                Ok(())
            }
            other => Err(DslError::new(
                n,
                format!("unknown Specification directive `{other}`"),
            )),
        }
    }

    fn parse_timing(&mut self, line: &Line<'_, '_>) -> Result<(), DslError> {
        let n = line.number;
        if line.head != "Row" && line.head != "Column" && line.head != "Refresh" {
            return Err(DslError::new(
                n,
                format!(
                    "unknown Timing directive `{}` (use Row/Column/Refresh)",
                    line.head
                ),
            ));
        }
        for (key, val) in line.pairs() {
            let wrap = |e: String| DslError::new(n, format!("{key}: {e}"));
            match key {
                "tRC" => {
                    self.timing.trc = value::time(val).map_err(wrap)?;
                    self.mark(const { bit("Timing.tRC") });
                }
                "tRAS" => {
                    self.timing.tras = value::time(val).map_err(wrap)?;
                    self.mark(const { bit("Timing.tRAS") });
                }
                "tRP" => {
                    self.timing.trp = value::time(val).map_err(wrap)?;
                    self.mark(const { bit("Timing.tRP") });
                }
                "tRCD" => {
                    self.timing.trcd = value::time(val).map_err(wrap)?;
                    self.mark(const { bit("Timing.tRCD") });
                }
                "tRRD" => {
                    self.timing.trrd = value::time(val).map_err(wrap)?;
                    self.mark(const { bit("Timing.tRRD") });
                }
                "tFAW" => {
                    self.timing.tfaw = value::time(val).map_err(wrap)?;
                    self.mark(const { bit("Timing.tFAW") });
                }
                "tRFC" => {
                    self.timing.trfc = value::time(val).map_err(wrap)?;
                    self.mark(const { bit("Timing.tRFC") });
                }
                "tREFI" => {
                    self.timing.trefi = value::time(val).map_err(wrap)?;
                    self.mark(const { bit("Timing.tREFI") });
                }
                "tCCD" => {
                    self.timing.tccd_cycles = value::integer(val).map_err(wrap)?;
                    self.mark(const { bit("Timing.tCCD") });
                }
                other => return Err(DslError::new(n, format!("unknown Timing key `{other}`"))),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_lists_every_required_parameter_in_declaration_order() {
        assert_eq!(REQUIRED.len(), 57);
        let err = parse("").unwrap_err();
        assert_eq!(
            err.to_string(),
            format!(
                "description error: missing required parameters: {}",
                REQUIRED.join(", ")
            )
        );
        assert!(err.message().starts_with(
            "missing required parameters: CellArray.BitsPerBL, CellArray.BitsPerLWL, "
        ));
        assert!(err.message().ends_with(", Timing.tREFI, Timing.tCCD"));
    }

    #[test]
    fn a_lex_error_on_a_later_line_wins_over_a_parse_error() {
        // Line 1 alone fails "before any section header"; the rest of the
        // input is still lexed.
        let err = parse("CellArray x=1\nA \"oops").unwrap_err();
        assert_eq!(
            (err.line(), err.message()),
            (2, "unterminated string literal")
        );
    }

    /// The two-stage parse the one-pass [`parse`] replaced: the whole
    /// text lexed into lines first, then each line dispatched.
    fn two_stage(input: &str) -> Result<ParsedFile, DslError> {
        let lines = crate::lexer::reference::lex(input)?;
        let mut parser = Parser::default();
        for line in &lines {
            line.as_one_pass(|l| parser.dispatch(l))?;
        }
        parser.finish()
    }

    /// What a parse gives, in a comparable form: the description, the
    /// pattern and the content key, or the error.
    type Verdict = Result<(DramDescription, Option<Pattern>, u64), DslError>;

    fn verdict(parsed: Result<ParsedFile, DslError>) -> Verdict {
        parsed.map(|p| {
            let key = dram_core::content_key(&p.description);
            (p.description, p.pattern, key)
        })
    }

    /// Every description the crate can vouch for: each preset's written
    /// source, both shipped `.dram` files, every example of the language
    /// reference appended to the shipped sample, and seeded edits of the
    /// presets written back, as a service receives them.
    fn shipped_and_written() -> Vec<String> {
        const SAMPLE: &str = include_str!("../descriptions/ddr3_1gb_x16_55nm.dram");
        const DOC: &str = include_str!("../../../docs/DSL.md");
        let mut out = crate::lexer::tests::preset_sources();
        out.push(SAMPLE.to_string());
        out.push(include_str!("../descriptions/ddr5_16gb_x16_18nm.dram").to_string());
        let start = DOC
            .find("\n## Sections and directives\n")
            .expect("section exists");
        let section = DOC[start + 1..].split("\n## ").next().expect("section");
        for block in section.split("```text\n").skip(1) {
            let example = block.split("```").next().expect("block is closed");
            out.push(format!("{SAMPLE}\n{example}"));
        }
        let bases: Vec<DramDescription> = out
            .iter()
            .take(8)
            .map(|text| parse(text).expect("presets parse").description)
            .collect();
        let mut rng = dram_units::rng::SplitMix64::new(0xC01D_DE5C);
        for i in 0..400 {
            let mut desc = bases[i % bases.len()].clone();
            for _ in 0..3 {
                let param = rng.pick(&dram_core::ParamId::ALL);
                param.apply(&mut desc, rng.range_f64(0.9, 1.1));
            }
            out.push(crate::write(&desc, None));
        }
        out
    }

    #[test]
    fn shipped_and_written_descriptions_parse_as_the_reference_does() {
        for text in shipped_and_written() {
            let got = verdict(parse(&text));
            assert!(got.is_ok(), "{got:?}\n{text}");
            assert_eq!(got, verdict(two_stage(&text)), "{text}");
        }
    }

    /// Seeded differential fuzz: over the lexer's corpus and presets
    /// with values, keys and words mangled, the one-pass parse gives the
    /// same description, pattern and content key, or the same error (line
    /// and message), as the two-stage parse. That holds the deferred
    /// errors: a lex error on any line wins over a parse error on an
    /// earlier one.
    #[test]
    fn one_pass_parse_matches_the_two_stage_reference() {
        let mut inputs = crate::lexer::tests::fuzz_corpus();
        let mut rng = dram_units::rng::SplitMix64::new(0x0DE5_C0DE);
        let sources = crate::lexer::tests::preset_sources();
        for case in 0..4_000 {
            let source = &sources[case % sources.len()];
            let mut words: Vec<String> = source.split(' ').map(str::to_string).collect();
            for _ in 0..=rng.range_usize(2) {
                let at = rng.range_usize(words.len());
                let word = &words[at];
                words[at] = match rng.range_u32(8) {
                    // A value's number or unit changed.
                    0 => word.replacen(|c: char| c.is_ascii_digit(), "x", 1),
                    1 => {
                        let unit = *rng.pick(&["nm", "µm", "UM", "u m", "mm"]);
                        word.replace("um", unit)
                    }
                    2 => format!("{word}{}", rng.pick(&["e", "e5", "1e999", "%", ".", "x2"])),
                    // A key's case, or a word lost or doubled.
                    3 => word.to_ascii_lowercase(),
                    4 => String::new(),
                    5 => format!("{word} {word}"),
                    // A quote or an `=` where none belongs.
                    6 => format!("{word}{}", rng.pick(&["\"", "=", " = ", "\"x y\""])),
                    _ => {
                        let equals = *rng.pick(&[" = ", "==", "=\""]);
                        word.replace('=', equals)
                    }
                };
            }
            inputs.push(words.join(" "));
        }
        assert!(inputs.len() >= 10_000, "only {} inputs", inputs.len());
        let (mut clean, mut errors) = (0, std::collections::BTreeSet::new());
        for input in &inputs {
            let want = verdict(two_stage(input));
            assert_eq!(verdict(parse(input)), want, "{input:?}");
            match want {
                Ok(_) => clean += 1,
                Err(e) => {
                    errors.insert(e.message().split('`').next().unwrap_or("").to_string());
                }
            }
        }
        // The corpus reaches clean parses and many kinds of error.
        assert!(clean > 100, "only {clean} inputs parse");
        assert!(
            errors.len() > 20,
            "only {} kinds of error: {errors:?}",
            errors.len()
        );
    }
}
