//! A complete, calibrated reference description: the paper's running
//! example of a 1 Gb DDR3 x16 device in a 55 nm technology (Fig. 1).
//!
//! This description doubles as documentation of every model input and as
//! the canonical fixture for the crate's tests. The technology-roadmap
//! crate generates descriptions for all other generations by scaling from
//! descriptions like this one.

use std::collections::BTreeMap;

use dram_units::{Amperes, BitsPerSecond, Farads, FaradsPerMeter, Hertz, Meters, Seconds, Volts};

use crate::params::{
    ActiveDuring, Axis, BitlineArchitecture, BlockCoord, BufferDevice, DeviceGeometry,
    DramDescription, Electrical, LogicBlock, PhysicalFloorplan, SegmentSpec, SignalClass,
    SignalSpec, SignalingFloorplan, Specification, Technology, Timing, WireCount,
};

/// Builds the canonical signaling floorplan of Fig. 1 for a grid of
/// `bank_cols` × `bank_rows` banks: write and read data buses with a 1:8
/// (de)serializer at the center pads and re-drivers along the way,
/// address and control buses from the center stripe, and the clock
/// distribution. Every buffer width is scaled by `misc`, the
/// miscellaneous-logic width factor of a roadmap node. The reference
/// device is the 4 × 2 grid at `misc` 1.0, whose center-stripe block is
/// the paper's `3_2`.
#[must_use]
pub fn canonical_signaling(bank_cols: usize, bank_rows: usize, misc: f64) -> SignalingFloorplan {
    let h_len = 2 * bank_cols - 1;
    let v_len = if bank_rows == 2 { 5 } else { 9 };
    let h_mid = bank_cols - 1; // always an odd (P) column for even cols
    let v_mid = v_len / 2; // the P2 center stripe row
    let center = BlockCoord::new(h_mid, v_mid);
    // A representative column-logic block under a middle-distance bank,
    // the endpoint of data and column-address runs (averaging over the
    // bank columns gives about this distance), and a representative
    // row-logic block next to a far bank.
    let column_logic = BlockCoord::new((h_mid + 1).min(h_len - 1), v_mid - 1);
    let row_logic = BlockCoord::new((h_mid + 2).min(h_len - 2), 0);

    let buf = |w_um: f64| BufferDevice {
        nmos_width: Meters::from_um(w_um * misc),
        pmos_width: Meters::from_um(2.0 * w_um * misc),
    };
    let big = buf(9.6);
    let small = buf(4.8);

    let data_segments = vec![
        // Serializer/deserializer and pad-local routing in the center
        // stripe (the paper's `DataW0 inside=0_2 fraction=25% dir=h
        // mux=1:8`, transplanted to the center block of the grid).
        SegmentSpec::Inside {
            at: center,
            fraction: 0.25,
            dir: Axis::Horizontal,
            buffer: Some(big),
            mux: Some(8),
        },
        // Run along the center stripe and turn into the column logic of
        // the target bank.
        SegmentSpec::Between {
            from: center,
            to: column_logic,
            buffer: Some(big),
        },
        // Distribution inside the column logic stripe to the master array
        // dataline heads.
        SegmentSpec::Inside {
            at: column_logic,
            fraction: 0.5,
            dir: Axis::Horizontal,
            buffer: Some(small),
            mux: None,
        },
    ];
    let addr = |to: BlockCoord| {
        vec![
            SegmentSpec::Inside {
                at: center,
                fraction: 0.25,
                dir: Axis::Horizontal,
                buffer: Some(small),
                mux: None,
            },
            SegmentSpec::Between {
                from: center,
                to,
                buffer: Some(small),
            },
        ]
    };
    SignalingFloorplan {
        signals: vec![
            SignalSpec {
                name: "DataW".into(),
                class: SignalClass::WriteData,
                wires: WireCount::PerIo,
                toggle_rate: 0.5,
                segments: data_segments.clone(),
            },
            SignalSpec {
                name: "DataR".into(),
                class: SignalClass::ReadData,
                wires: WireCount::PerIo,
                toggle_rate: 0.5,
                segments: data_segments,
            },
            SignalSpec {
                name: "RowAddr".into(),
                class: SignalClass::RowAddress,
                wires: WireCount::RowAddressBits,
                toggle_rate: 0.5,
                segments: addr(row_logic),
            },
            SignalSpec {
                name: "ColAddr".into(),
                class: SignalClass::ColumnAddress,
                wires: WireCount::ColumnAddressBits,
                toggle_rate: 0.5,
                segments: addr(column_logic),
            },
            SignalSpec {
                name: "BankAddr".into(),
                class: SignalClass::BankAddress,
                wires: WireCount::BankAddressBits,
                toggle_rate: 0.5,
                segments: vec![SegmentSpec::Inside {
                    at: center,
                    fraction: 0.3,
                    dir: Axis::Horizontal,
                    buffer: Some(small),
                    mux: None,
                }],
            },
            SignalSpec {
                name: "Control".into(),
                class: SignalClass::Control,
                wires: WireCount::ControlSignals,
                toggle_rate: 0.25,
                segments: vec![SegmentSpec::Inside {
                    at: center,
                    fraction: 0.5,
                    dir: Axis::Horizontal,
                    buffer: Some(small),
                    mux: None,
                }],
            },
            SignalSpec {
                name: "Clock".into(),
                class: SignalClass::Clock,
                // A clock transitions twice per cycle.
                wires: WireCount::ClockWires,
                toggle_rate: 2.0,
                segments: vec![
                    SegmentSpec::Inside {
                        at: center,
                        fraction: 1.0,
                        dir: Axis::Horizontal,
                        buffer: Some(big),
                        mux: None,
                    },
                    SegmentSpec::Between {
                        from: center,
                        to: column_logic,
                        buffer: Some(small),
                    },
                ],
            },
        ],
    }
}

/// Default miscellaneous logic blocks for a DDR3-class device. Gate counts
/// are the fit parameters of the model (§III.B.5), calibrated against the
/// DDR3 datasheet corpus (see `dram-datasheet`).
#[must_use]
pub fn canonical_logic_blocks() -> Vec<LogicBlock> {
    let block = |name: &str, gates: u32, active: ActiveDuring, toggle: f64| LogicBlock {
        name: name.into(),
        gates,
        avg_nmos_width: Meters::from_um(0.5),
        avg_pmos_width: Meters::from_um(0.8),
        transistors_per_gate: 4.0,
        gate_density: 0.20,
        wiring_density: 0.5,
        active_during: active,
        toggle_rate: toggle,
    };
    vec![
        block("clock tree and DLL", 4000, ActiveDuring::ALWAYS, 1.0),
        block("command/address input", 3000, ActiveDuring::ALWAYS, 0.15),
        block(
            "row control and redundancy match",
            6000,
            ActiveDuring::ROW_OPS,
            1.0,
        ),
        block(
            "column control and decode",
            9000,
            ActiveDuring::COLUMN_OPS,
            1.0,
        ),
        block(
            "data path, secondary sense-amplifiers and serializer",
            26000,
            ActiveDuring::COLUMN_OPS,
            1.0,
        ),
        // Interface FIFO stages and output pre-driver chains: large
        // devices toggling per transferred beat; gate count is the fit
        // knob that lands IDD4R/W in the vendor band.
        LogicBlock {
            name: "interface FIFO and output pre-drivers".into(),
            gates: 18000,
            avg_nmos_width: Meters::from_um(1.2),
            avg_pmos_width: Meters::from_um(2.0),
            transistors_per_gate: 4.0,
            gate_density: 0.20,
            wiring_density: 0.5,
            active_during: ActiveDuring::COLUMN_OPS,
            toggle_rate: 1.0,
        },
        block("test and housekeeping", 1500, ActiveDuring::ALWAYS, 0.05),
    ]
}

/// The reference device: 1 Gb DDR3 x16 in a 55 nm open-bitline (6F²)
/// technology, interface at DDR3-1600.
///
/// # Examples
///
/// ```
/// use dram_core::reference::ddr3_1g_x16_55nm;
/// let desc = ddr3_1g_x16_55nm();
/// assert_eq!(desc.spec.density_bits(), 1 << 30);
/// ```
#[must_use]
pub fn ddr3_1g_x16_55nm() -> DramDescription {
    DramDescription {
        name: "1Gb DDR3 x16 55nm".into(),
        floorplan: PhysicalFloorplan {
            bitline_direction: Axis::Vertical,
            bits_per_bitline: 512,
            bits_per_local_wordline: 512,
            bitline_architecture: BitlineArchitecture::Open,
            blocks_per_csl: 1,
            wordline_pitch: Meters::from_nm(165.0),
            bitline_pitch: Meters::from_nm(110.0),
            sa_stripe_width: Meters::from_um(10.0),
            lwd_stripe_width: Meters::from_um(6.0),
            horizontal_blocks: vec![
                "A1".into(),
                "P1".into(),
                "A1".into(),
                "P1".into(),
                "A1".into(),
                "P1".into(),
                "A1".into(),
            ],
            vertical_blocks: vec![
                "A1".into(),
                "P1".into(),
                "P2".into(),
                "P1".into(),
                "A1".into(),
            ],
            horizontal_sizes: BTreeMap::from([("P1".to_string(), Meters::from_um(200.0))]),
            vertical_sizes: BTreeMap::from([
                ("P1".to_string(), Meters::from_um(200.0)),
                ("P2".to_string(), Meters::from_um(530.0)),
            ]),
        },
        signaling: canonical_signaling(4, 2, 1.0),
        technology: Technology {
            tox_logic: Meters::from_nm(5.0),
            tox_high_voltage: Meters::from_nm(7.0),
            tox_cell: Meters::from_nm(6.0),
            lmin_logic: Meters::from_nm(90.0),
            junction_cap_logic: FaradsPerMeter::from_ff_per_um(0.8),
            lmin_high_voltage: Meters::from_nm(150.0),
            junction_cap_high_voltage: FaradsPerMeter::from_ff_per_um(1.0),
            cell_access_length: Meters::from_nm(80.0),
            cell_access_width: Meters::from_nm(60.0),
            bitline_cap: Farads::from_ff(70.0),
            cell_cap: Farads::from_ff(24.0),
            bl_to_wl_cap_share: 0.15,
            bits_per_csl_per_subarray: 4,
            c_wire_mwl: FaradsPerMeter::from_ff_per_um(0.25),
            mwl_predecode_ratio: 0.5,
            mwl_decoder_nmos_width: Meters::from_um(0.6),
            mwl_decoder_pmos_width: Meters::from_um(0.9),
            mwl_decoder_switching: 4.0,
            wl_controller_nmos_width: Meters::from_um(2.0),
            wl_controller_pmos_width: Meters::from_um(4.0),
            swd_nmos_width: Meters::from_um(0.6),
            swd_pmos_width: Meters::from_um(0.8),
            swd_restore_nmos_width: Meters::from_um(0.3),
            c_wire_lwl: FaradsPerMeter::from_ff_per_um(1.2),
            sa_nmos_sense: DeviceGeometry::from_um(0.7, 0.10),
            sa_pmos_sense: DeviceGeometry::from_um(0.5, 0.10),
            sa_equalize: DeviceGeometry::from_um(0.2, 0.09),
            sa_bit_switch: DeviceGeometry::from_um(0.4, 0.09),
            sa_bitline_mux: DeviceGeometry::from_um(0.4, 0.09),
            sa_nset: DeviceGeometry::from_um(50.0, 0.15),
            sa_pset: DeviceGeometry::from_um(50.0, 0.15),
            c_wire_signal: FaradsPerMeter::from_ff_per_um(0.30),
        },
        electrical: Electrical {
            vdd: Volts::new(1.5),
            vint: Volts::new(1.3),
            vbl: Volts::new(1.2),
            vpp: Volts::new(2.9),
            eff_vint: 0.95,
            eff_vbl: 0.92,
            eff_vpp: 0.21,
            constant_current: Amperes::from_ma(10.0),
        },
        spec: Specification {
            io_width: 16,
            datarate_per_pin: BitsPerSecond::from_gbps(1.6),
            clock_wires: 2,
            data_clock: Hertz::from_mhz(800.0),
            control_clock: Hertz::from_mhz(800.0),
            bank_address_bits: 3,
            row_address_bits: 13,
            column_address_bits: 10,
            control_signals: 10,
            prefetch: 8,
            burst_length: 8,
        },
        timing: Timing {
            trc: Seconds::from_ns(49.0),
            tras: Seconds::from_ns(35.0),
            trp: Seconds::from_ns(14.0),
            trcd: Seconds::from_ns(14.0),
            trrd: Seconds::from_ns(7.5),
            tfaw: Seconds::from_ns(40.0),
            trfc: Seconds::from_ns(110.0),
            trefi: Seconds::from_ns(7800.0),
            tccd_cycles: 4,
        },
        logic_blocks: canonical_logic_blocks(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_description_is_self_consistent() {
        let desc = ddr3_1g_x16_55nm();
        assert_eq!(desc.spec.banks(), 8);
        assert_eq!(desc.spec.page_bits(), 16384);
        assert_eq!(desc.spec.density_bits(), 1 << 30);
        // Floorplan grid matches the paper's 7 x 5 coordinate system.
        assert_eq!(desc.floorplan.horizontal_blocks.len(), 7);
        assert_eq!(desc.floorplan.vertical_blocks.len(), 5);
        // Geometry must validate.
        let g = crate::geometry::Geometry::new(&desc).expect("reference must be valid");
        assert_eq!(g.banks.len(), 8);
    }

    #[test]
    fn signaling_covers_all_classes() {
        let s = canonical_signaling(4, 2, 1.0);
        for class in SignalClass::ALL {
            assert!(
                s.of_class(class).count() > 0,
                "no signal of class {class:?} in canonical floorplan"
            );
        }
    }

    #[test]
    fn logic_blocks_cover_background_row_and_column() {
        let blocks = canonical_logic_blocks();
        assert!(blocks.iter().any(|b| b.active_during.always));
        assert!(blocks.iter().any(|b| b.active_during.activate));
        assert!(blocks.iter().any(|b| b.active_during.read));
        for b in &blocks {
            assert!(b.gates > 0);
            assert!(b.toggle_rate > 0.0 && b.toggle_rate <= 1.0);
            assert!(b.gate_density > 0.0 && b.gate_density < 1.0);
        }
    }
}
