//! Generation presets: complete [`DramDescription`]s for every roadmap
//! node, built by scaling the 55 nm DDR3 calibration reference along the
//! curves of Fig. 5–7 and applying the structural disruptions of
//! Table II.

use std::collections::BTreeMap;

use dram_core::params::{
    Axis, BitlineArchitecture, DeviceGeometry, DramDescription, Electrical, PhysicalFloorplan,
    Specification,
};
use dram_core::reference::{canonical_logic_blocks, canonical_signaling, ddr3_1g_x16_55nm};
use dram_units::{Amperes, Meters};

use crate::curves::ScalingParam;
use crate::interface::Interface;
use crate::node::{TechNode, ROADMAP};

/// Full specification of a preset device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PresetSpec {
    /// Feature size in nm.
    pub feature_nm: f64,
    /// Interface generation.
    pub interface: Interface,
    /// Density in megabits.
    pub density_mbit: u64,
    /// I/O width (4, 8 or 16).
    pub io_width: u32,
}

impl PresetSpec {
    /// The mainstream x16 device of a roadmap node.
    #[must_use]
    pub fn for_node(node: &TechNode) -> Self {
        Self {
            feature_nm: node.feature_nm,
            interface: node.interface,
            density_mbit: node.density_mbit,
            io_width: 16,
        }
    }

    fn tech_node(&self) -> TechNode {
        TechNode {
            feature_nm: self.feature_nm,
            year: 0,
            interface: self.interface,
            density_mbit: self.density_mbit,
        }
    }
}

fn log2_exact(x: u64, what: &str) -> u32 {
    assert!(x.is_power_of_two(), "{what} = {x} must be a power of two");
    x.trailing_zeros()
}

/// Builds the complete description of a preset device.
///
/// # Panics
///
/// Panics if density, banks, page size and I/O width are not mutually
/// consistent powers of two — the roadmap constants and the documented
/// I/O widths (4/8/16) always are.
#[must_use]
pub fn build(spec: &PresetSpec) -> DramDescription {
    let node = spec.tech_node();
    let reference = ddr3_1g_x16_55nm();
    let iface = spec.interface;
    let f = Meters::from_nm(spec.feature_nm);
    let factor = |p: ScalingParam| p.factor(&node);
    let scale_len = |m: Meters, p: ScalingParam| m * factor(p);

    // --- organization ---------------------------------------------------
    let banks: u32 = match iface {
        Interface::Ddr2 if spec.density_mbit >= 1024 => 8,
        _ => iface.banks(),
    };
    let page_bits: u64 = (iface.page_bits_x16() * u64::from(spec.io_width) / 16).max(8 * 1024);
    let density_bits = spec.density_mbit * (1 << 20);
    let coladd = log2_exact(page_bits / u64::from(spec.io_width), "columns");
    let rowadd = log2_exact(density_bits / (u64::from(banks) * page_bits), "rows");

    let architecture = if spec.feature_nm > 70.0 {
        BitlineArchitecture::Folded
    } else if spec.feature_nm > 37.0 {
        BitlineArchitecture::Open
    } else {
        BitlineArchitecture::Vertical4F2
    };
    let (wlp, blp) = match architecture {
        BitlineArchitecture::Folded | BitlineArchitecture::Vertical4F2 => (f * 2.0, f * 2.0),
        BitlineArchitecture::Open => (f * 3.0, f * 2.0),
    };
    let bits_per_bitline = if spec.feature_nm > 100.0 { 256 } else { 512 };

    // --- floorplan grid --------------------------------------------------
    let (bank_cols, bank_rows) = match banks {
        4 => (2usize, 2usize),
        8 => (4, 2),
        16 => (4, 4),
        32 => (8, 4),
        other => panic!("unsupported bank count {other}"),
    };
    let mut horizontal_blocks = Vec::new();
    for i in 0..(2 * bank_cols - 1) {
        horizontal_blocks.push(if i % 2 == 0 {
            "A1".to_string()
        } else {
            "P1".to_string()
        });
    }
    let vertical_blocks: Vec<String> = match bank_rows {
        2 => ["A1", "P1", "P2", "P1", "A1"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        4 => ["A1", "P1", "A1", "P1", "P2", "P1", "A1", "P1", "A1"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        other => panic!("unsupported bank row count {other}"),
    };
    let misc = factor(ScalingParam::MiscLogicWidth);
    let p1 = Meters::from_um(200.0) * misc;
    let p2 = Meters::from_um(530.0) * (misc * iface.logic_complexity().sqrt());
    let horizontal_sizes = BTreeMap::from([("P1".to_string(), p1)]);
    let vertical_sizes = BTreeMap::from([("P1".to_string(), p1), ("P2".to_string(), p2)]);

    let floorplan = PhysicalFloorplan {
        bitline_direction: Axis::Vertical,
        bits_per_bitline,
        bits_per_local_wordline: 512,
        bitline_architecture: architecture,
        blocks_per_csl: 1,
        wordline_pitch: wlp,
        bitline_pitch: blp,
        sa_stripe_width: scale_len(
            reference.floorplan.sa_stripe_width,
            ScalingParam::SaStripeWidth,
        ),
        lwd_stripe_width: scale_len(
            reference.floorplan.lwd_stripe_width,
            ScalingParam::LwdStripeWidth,
        ),
        horizontal_blocks,
        vertical_blocks,
        horizontal_sizes,
        vertical_sizes,
    };

    // --- technology -------------------------------------------------------
    let r = &reference.technology;
    let dev = |d: DeviceGeometry, wp: ScalingParam, lp: ScalingParam| DeviceGeometry {
        width: d.width * factor(wp),
        length: d.length * factor(lp),
    };
    use ScalingParam as P;
    let technology = dram_core::params::Technology {
        tox_logic: scale_len(r.tox_logic, P::ToxLogic),
        tox_high_voltage: scale_len(r.tox_high_voltage, P::ToxHighVoltage),
        tox_cell: scale_len(r.tox_cell, P::ToxCell),
        lmin_logic: scale_len(r.lmin_logic, P::LminLogic),
        junction_cap_logic: r.junction_cap_logic * factor(P::JunctionCap),
        lmin_high_voltage: scale_len(r.lmin_high_voltage, P::LminHighVoltage),
        junction_cap_high_voltage: r.junction_cap_high_voltage * factor(P::JunctionCap),
        cell_access_length: scale_len(r.cell_access_length, P::CellAccessLength),
        cell_access_width: scale_len(r.cell_access_width, P::CellAccessWidth),
        bitline_cap: r.bitline_cap * factor(P::BitlineCap),
        cell_cap: r.cell_cap * factor(P::CellCap),
        bl_to_wl_cap_share: r.bl_to_wl_cap_share,
        bits_per_csl_per_subarray: r.bits_per_csl_per_subarray,
        c_wire_mwl: r.c_wire_mwl * factor(P::WireCapPerLength),
        mwl_predecode_ratio: r.mwl_predecode_ratio,
        mwl_decoder_nmos_width: scale_len(r.mwl_decoder_nmos_width, P::RowCircuitWidth),
        mwl_decoder_pmos_width: scale_len(r.mwl_decoder_pmos_width, P::RowCircuitWidth),
        mwl_decoder_switching: r.mwl_decoder_switching,
        wl_controller_nmos_width: scale_len(r.wl_controller_nmos_width, P::RowCircuitWidth),
        wl_controller_pmos_width: scale_len(r.wl_controller_pmos_width, P::RowCircuitWidth),
        swd_nmos_width: scale_len(r.swd_nmos_width, P::RowCircuitWidth),
        swd_pmos_width: scale_len(r.swd_pmos_width, P::RowCircuitWidth),
        swd_restore_nmos_width: scale_len(r.swd_restore_nmos_width, P::RowCircuitWidth),
        c_wire_lwl: r.c_wire_lwl * factor(P::WireCapPerLength),
        sa_nmos_sense: dev(r.sa_nmos_sense, P::SenseAmpWidth, P::SenseAmpLength),
        sa_pmos_sense: dev(r.sa_pmos_sense, P::SenseAmpWidth, P::SenseAmpLength),
        sa_equalize: dev(r.sa_equalize, P::SenseAmpWidth, P::SenseAmpLength),
        sa_bit_switch: dev(r.sa_bit_switch, P::SenseAmpWidth, P::SenseAmpLength),
        sa_bitline_mux: dev(r.sa_bitline_mux, P::SenseAmpWidth, P::SenseAmpLength),
        sa_nset: dev(r.sa_nset, P::SenseAmpWidth, P::SenseAmpLength),
        sa_pset: dev(r.sa_pset, P::SenseAmpWidth, P::SenseAmpLength),
        c_wire_signal: r.c_wire_signal * factor(P::WireCapPerLength),
    };

    // --- electrical / spec / timing -----------------------------------------
    let (eff_vint, eff_vbl, eff_vpp) = iface.generator_efficiencies();
    let electrical = Electrical {
        vdd: iface.vdd(),
        vint: iface.vint(),
        vbl: iface.vbl(),
        vpp: iface.vpp(),
        eff_vint,
        eff_vbl,
        eff_vpp,
        constant_current: Amperes::from_ma(iface.constant_current_ma()),
    };
    let spec_out = Specification {
        io_width: spec.io_width,
        datarate_per_pin: iface.datarate(),
        clock_wires: iface.clock_wires(),
        data_clock: iface.control_clock(),
        control_clock: iface.control_clock(),
        bank_address_bits: log2_exact(u64::from(banks), "banks"),
        row_address_bits: rowadd,
        column_address_bits: coladd,
        control_signals: 10,
        prefetch: iface.prefetch(),
        burst_length: iface.burst_length(),
    };

    // --- logic blocks --------------------------------------------------------
    let complexity = iface.logic_complexity();
    let logic_blocks = canonical_logic_blocks()
        .into_iter()
        .map(|mut b| {
            // The interface FIFO/pre-driver block scales with the
            // serialization depth; everything else with the general
            // peripheral complexity of the generation.
            let mut gates = f64::from(b.gates);
            if b.name.contains("FIFO") {
                gates *= f64::from(iface.prefetch()) / 8.0;
            } else {
                gates *= complexity;
            }
            b.gates = (gates.round() as u32).max(100);
            b.avg_nmos_width = b.avg_nmos_width * misc;
            b.avg_pmos_width = b.avg_pmos_width * misc;
            b
        })
        .collect();

    let signaling = canonical_signaling(bank_cols, bank_rows, misc);

    let density_name = if spec.density_mbit >= 1024 {
        format!("{}Gb", spec.density_mbit / 1024)
    } else {
        format!("{}Mb", spec.density_mbit)
    };
    DramDescription {
        name: format!(
            "{density_name} {} x{} {}nm",
            iface.name(),
            spec.io_width,
            spec.feature_nm
        ),
        floorplan,
        signaling,
        technology,
        electrical,
        spec: spec_out,
        timing: iface.timing(),
        logic_blocks,
    }
}

/// Mainstream x16 preset for a roadmap node.
#[must_use]
pub fn preset(node: &TechNode) -> DramDescription {
    build(&PresetSpec::for_node(node))
}

/// All mainstream x16 generations in roadmap order.
#[must_use]
pub fn all_generations() -> Vec<DramDescription> {
    ROADMAP.iter().map(preset).collect()
}

/// Changes the per-pin data rate (and bus clocks) of a description — the
/// speed-grade axis of Fig. 8/9.
#[must_use]
pub fn with_datarate(
    mut desc: DramDescription,
    datarate: dram_units::BitsPerSecond,
) -> DramDescription {
    let beats = if desc.spec.prefetch == 1 { 1.0 } else { 2.0 };
    let clock = dram_units::Hertz::new(datarate.bits_per_second() / beats);
    desc.spec.datarate_per_pin = datarate;
    desc.spec.data_clock = clock;
    desc.spec.control_clock = clock;
    desc.name = format!("{} @{}Mbps", desc.name, datarate.mbps().round());
    desc
}

/// The 128 Mb SDR device in 170 nm (Table III, Fig. 10).
#[must_use]
pub fn sdr_128m_170nm() -> DramDescription {
    preset(TechNode::by_feature(170.0).expect("roadmap node"))
}

/// The 1 Gb DDR2 device in 75 nm (Fig. 8 verification).
#[must_use]
pub fn ddr2_1g_75nm() -> DramDescription {
    preset(TechNode::by_feature(75.0).expect("roadmap node"))
}

/// The 1 Gb DDR2 device in 65 nm (Fig. 8 verification; the 65 nm node ran
/// DDR2 and DDR3 side by side).
#[must_use]
pub fn ddr2_1g_65nm() -> DramDescription {
    build(&PresetSpec {
        feature_nm: 65.0,
        interface: Interface::Ddr2,
        density_mbit: 1024,
        io_width: 16,
    })
}

/// The 1 Gb DDR3 device in 65 nm (Fig. 9 verification).
#[must_use]
pub fn ddr3_1g_65nm() -> DramDescription {
    preset(TechNode::by_feature(65.0).expect("roadmap node"))
}

/// The 1 Gb DDR3 device in 55 nm (Fig. 9 verification; matches the
/// calibration reference organization).
#[must_use]
pub fn ddr3_1g_55nm() -> DramDescription {
    preset(TechNode::by_feature(55.0).expect("roadmap node"))
}

/// The 2 Gb DDR3 device in 55 nm (Table III, §IV.B).
#[must_use]
pub fn ddr3_2g_55nm() -> DramDescription {
    build(&PresetSpec {
        feature_nm: 55.0,
        interface: Interface::Ddr3,
        density_mbit: 2048,
        io_width: 16,
    })
}

/// The hypothetical 16 Gb DDR5 device in 18 nm (Table III, Fig. 10).
#[must_use]
pub fn ddr5_16g_18nm() -> DramDescription {
    preset(TechNode::by_feature(18.0).expect("roadmap node"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_core::Dram;

    #[test]
    fn every_roadmap_preset_builds_a_valid_model() {
        // Batch-build all nodes concurrently through the engine; order is
        // preserved so failures still name the offending node.
        let engine = dram_core::EvalEngine::new().threads(4);
        let descs = all_generations();
        let models = engine.evaluate_many(&descs);
        for (node, model) in ROADMAP.iter().zip(models) {
            let dram = model.unwrap_or_else(|e| panic!("{node}: preset invalid: {e:?}"));
            let die = dram.area().die.square_millimeters();
            assert!(
                (20.0..=90.0).contains(&die),
                "{node}: die {die} mm² outside the commodity window"
            );
            let eff = dram.area().array_efficiency();
            assert!(
                (0.35..=0.75).contains(&eff),
                "{node}: array efficiency {eff}"
            );
        }
    }

    #[test]
    fn reference_node_preset_matches_calibration_magnitudes() {
        let dram = Dram::new(ddr3_1g_55nm()).expect("builds");
        let idd = dram.idd();
        // Same organization as the hand-calibrated reference; currents in
        // the same band.
        assert!(idd.idd0.milliamperes() > 35.0 && idd.idd0.milliamperes() < 90.0);
        assert!(idd.idd4r.milliamperes() > 100.0 && idd.idd4r.milliamperes() < 260.0);
    }

    #[test]
    fn named_presets_build() {
        for desc in [
            sdr_128m_170nm(),
            ddr2_1g_75nm(),
            ddr2_1g_65nm(),
            ddr3_1g_65nm(),
            ddr3_2g_55nm(),
            ddr5_16g_18nm(),
        ] {
            let name = desc.name.clone();
            Dram::new(desc).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn io_width_variants_build() {
        let node = TechNode::by_feature(55.0).unwrap();
        for io in [4, 8, 16] {
            let desc = build(&PresetSpec {
                io_width: io,
                ..PresetSpec::for_node(node)
            });
            let dram = Dram::new(desc).expect("x4/x8/x16 variants build");
            assert_eq!(dram.description().spec.io_width, io);
            // Density is independent of I/O width.
            assert_eq!(dram.description().spec.density_bits(), 1 << 30);
        }
    }

    #[test]
    fn narrower_io_draws_less_column_current() {
        let node = TechNode::by_feature(55.0).unwrap();
        let x16 = Dram::new(build(&PresetSpec::for_node(node))).unwrap();
        let x4 = Dram::new(build(&PresetSpec {
            io_width: 4,
            ..PresetSpec::for_node(node)
        }))
        .unwrap();
        assert!(x4.idd().idd4r < x16.idd().idd4r);
    }

    #[test]
    fn with_datarate_rescales_clocks() {
        let desc = with_datarate(ddr3_1g_55nm(), dram_units::BitsPerSecond::from_mbps(1066.0));
        assert!((desc.spec.control_clock.megahertz() - 533.0).abs() < 1.0);
        let dram = Dram::new(desc).expect("derated device builds");
        // Slower clock, lower currents than the full-speed part.
        let fast = Dram::new(ddr3_1g_55nm()).unwrap();
        assert!(dram.idd().idd4r < fast.idd().idd4r);
    }

    #[test]
    fn energy_per_bit_declines_across_roadmap() {
        // Fig. 13's central trend: random-access energy per bit falls from
        // the 170 nm SDR generation to the 16 nm DDR5 generation.
        let gens = all_generations();
        let first = Dram::new(gens.first().unwrap().clone()).unwrap();
        let last = Dram::new(gens.last().unwrap().clone()).unwrap();
        let e0 = first.energy_per_bit_random().picojoules();
        let e1 = last.energy_per_bit_random().picojoules();
        assert!(
            e0 / e1 > 5.0,
            "energy per bit should fall by a large factor: {e0} -> {e1} pJ/bit"
        );
    }

    #[test]
    fn array_power_share_declines_across_roadmap() {
        // §IV.B / Table III: the share of array-related power shrinks from
        // old to new generations (shift to wiring and logic).
        let old = Dram::new(sdr_128m_170nm()).unwrap();
        let new = Dram::new(ddr5_16g_18nm()).unwrap();
        let share = |d: &Dram| {
            let act = d.operation_energy(dram_core::Operation::Activate);
            let rd = d.operation_energy(dram_core::Operation::Read);
            // Mixed workload: weight row and column ops equally.
            let array = act.external().joules() * act.array_share()
                + rd.external().joules() * rd.array_share();
            array / (act.external().joules() + rd.external().joules())
        };
        assert!(
            share(&old) > share(&new),
            "array share should decline: {} -> {}",
            share(&old),
            share(&new)
        );
    }
}
