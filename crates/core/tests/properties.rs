//! Randomized tests of the core model: geometry invariants under random
//! organizations, timing-pattern legality, pattern parsing, and charge
//! accounting scaling laws.
//!
//! Driven by deterministic [`SplitMix64`] loops instead of `proptest` so
//! the workspace resolves offline; every assertion prints the drawn
//! inputs for reproduction.

use dram_core::geometry::Geometry;
use dram_core::reference::ddr3_1g_x16_55nm;
use dram_core::timing::{InitialBankState, Schedule};
use dram_core::{Command, Dram, Pattern};
use dram_units::rng::SplitMix64;
use dram_units::{Meters, Seconds};

/// Random but self-consistent address organization around the reference
/// density: (bits_per_bl, bits_per_lwl, col bits, row bits). Density is
/// fixed at 1 Gb x16 with 8 banks -> row + col = 23.
fn organization(r: &mut SplitMix64) -> (u32, u32, u32, u32) {
    let bl_exp = 8 + r.range_u32(3); // 8..=10
    let lwl_exp = 9 + r.range_u32(2); // 9..=10
    let col = 9 + r.range_u32(3); // 9..=11
    let row = 23 - col;
    (1 << bl_exp, 1 << lwl_exp, col, row)
}

#[test]
fn geometry_invariants_hold_for_random_organizations() {
    let mut r = SplitMix64::new(0xC001);
    for _ in 0..64 {
        let (bpb, bplwl, col, row) = organization(&mut r);
        let wlp_nm = r.range_f64(100.0, 300.0);
        let blp_nm = r.range_f64(80.0, 200.0);
        let stripe_um = r.range_f64(3.0, 20.0);

        let mut desc = ddr3_1g_x16_55nm();
        desc.floorplan.bits_per_bitline = bpb;
        desc.floorplan.bits_per_local_wordline = bplwl;
        desc.spec.column_address_bits = col;
        desc.spec.row_address_bits = row;
        desc.floorplan.wordline_pitch = Meters::from_nm(wlp_nm);
        desc.floorplan.bitline_pitch = Meters::from_nm(blp_nm);
        desc.floorplan.sa_stripe_width = Meters::from_um(stripe_um);

        // Organizations that do not divide evenly must be rejected, the
        // rest must produce consistent geometry.
        let page = desc.spec.page_bits();
        let rows = desc.spec.rows_per_bank();
        let divisible =
            page.is_multiple_of(u64::from(bplwl)) && rows.is_multiple_of(u64::from(bpb));
        let ctx = format!("bpb={bpb} bplwl={bplwl} col={col} row={row}");
        match Geometry::new(&desc) {
            Ok(g) => {
                assert!(divisible, "{ctx}");
                // Capacity conservation.
                let bits = g.banks.len() as u64
                    * u64::from(g.sub_rows)
                    * u64::from(g.sub_cols)
                    * u64::from(bpb)
                    * u64::from(bplwl);
                assert_eq!(bits, desc.spec.density_bits(), "{ctx}");
                // The die contains its banks.
                assert!(g.die_width.meters() > 0.0, "{ctx}");
                assert!(
                    g.die_area().square_meters()
                        > g.block_along_wl.meters() * g.block_along_bl.meters() * 8.0 * 0.99,
                    "{ctx}"
                );
                // Wire lengths are consistent with the grid.
                assert!(
                    (g.master_wordline_length().meters() - g.block_along_wl.meters()).abs() < 1e-12,
                    "{ctx}"
                );
            }
            Err(_) => assert!(!divisible, "{ctx}"),
        }
    }
}

#[test]
fn standard_loops_stay_legal_under_random_timing() {
    let mut r = SplitMix64::new(0xC002);
    for _ in 0..64 {
        let trc_ns = r.range_f64(35.0, 80.0);
        let tras_frac = r.range_f64(0.55, 0.8);
        let trcd_ns = r.range_f64(10.0, 20.0);
        let trrd_ns = r.range_f64(4.0, 12.0);
        let clock_mhz = r.range_f64(200.0, 1000.0);

        let mut desc = ddr3_1g_x16_55nm();
        desc.timing.trc = Seconds::from_ns(trc_ns);
        desc.timing.tras = Seconds::from_ns(trc_ns * tras_frac);
        desc.timing.trp = Seconds::from_ns(trc_ns * (1.0 - tras_frac));
        desc.timing.trcd = Seconds::from_ns(trcd_ns.min(trc_ns * tras_frac * 0.8));
        desc.timing.trrd = Seconds::from_ns(trrd_ns);
        desc.spec.control_clock = dram_units::Hertz::from_mhz(clock_mhz);
        desc.spec.data_clock = desc.spec.control_clock;

        let timing = &desc.timing;
        let clock = desc.spec.control_clock;

        let idd0 = Schedule::idd0(timing, clock).expect("builds");
        assert!(idd0
            .validate_loop(timing, clock, 8, InitialBankState::AllClosed)
            .is_ok());

        let idd1 = Schedule::idd1(timing, clock).expect("builds");
        assert!(
            idd1.validate_loop(timing, clock, 8, InitialBankState::AllClosed)
                .is_ok(),
            "idd1 illegal at trc={trc_ns} clock={clock_mhz}"
        );

        let idd7 = Schedule::idd7(timing, clock, 8).expect("builds");
        assert!(
            idd7.validate_loop(timing, clock, 8, InitialBankState::AllClosed)
                .is_ok(),
            "idd7 illegal at trc={trc_ns} trrd={trrd_ns} clock={clock_mhz}"
        );
    }
}

#[test]
fn idd_report_is_finite_and_ordered_under_random_timing() {
    let mut r = SplitMix64::new(0xC003);
    for _ in 0..64 {
        let trc_ns = r.range_f64(40.0, 70.0);
        let clock_mhz = r.range_f64(300.0, 900.0);
        let mut desc = ddr3_1g_x16_55nm();
        desc.timing.trc = Seconds::from_ns(trc_ns);
        desc.timing.tras = Seconds::from_ns(trc_ns * 0.7);
        desc.spec.control_clock = dram_units::Hertz::from_mhz(clock_mhz);
        desc.spec.data_clock = desc.spec.control_clock;
        let dram = Dram::new(desc).expect("valid");
        let idd = dram.idd();
        for i in [
            idd.idd0, idd.idd1, idd.idd2n, idd.idd2p, idd.idd4r, idd.idd4w, idd.idd5, idd.idd6,
            idd.idd7,
        ] {
            assert!(
                i.amperes().is_finite() && i.amperes() > 0.0,
                "trc={trc_ns} clock={clock_mhz}"
            );
        }
        assert!(idd.idd1 >= idd.idd0, "trc={trc_ns} clock={clock_mhz}");
        assert!(idd.idd0 > idd.idd2n, "trc={trc_ns} clock={clock_mhz}");
        assert!(idd.idd2n > idd.idd2p, "trc={trc_ns} clock={clock_mhz}");
        assert!(idd.idd6 > idd.idd2p, "trc={trc_ns} clock={clock_mhz}");
    }
}

#[test]
fn pattern_parser_never_panics() {
    let mut r = SplitMix64::new(0xC004);
    for _ in 0..256 {
        let n = r.range_usize(12);
        let tokens: Vec<String> = (0..n)
            .map(|_| {
                let len = 1 + r.range_usize(6);
                (0..len)
                    .map(|_| (b'a' + r.range_u32(26) as u8) as char)
                    .collect()
            })
            .collect();
        let text = tokens.join(" ");
        let _ = Pattern::parse(&text); // must not panic
    }
}

#[test]
fn pattern_roundtrip() {
    let mut r = SplitMix64::new(0xC005);
    let universe = [
        Command::Activate,
        Command::Precharge,
        Command::Read,
        Command::Write,
        Command::Nop,
    ];
    for _ in 0..64 {
        let n = 1 + r.range_usize(31);
        let cmds: Vec<Command> = (0..n).map(|_| *r.pick(&universe)).collect();
        let p = Pattern::new(cmds).expect("nonempty");
        let text = p.to_string();
        let back = Pattern::parse(&text).expect("own output parses");
        assert_eq!(back, p);
    }
}

#[test]
fn activate_energy_scales_linearly_with_bitline_cap() {
    let base = Dram::new(ddr3_1g_x16_55nm()).expect("valid");
    let base_item = base
        .operation_energy(dram_core::Operation::Activate)
        .items
        .iter()
        .find(|i| i.label == "bitline sensing")
        .expect("item")
        .external
        .joules();
    let mut r = SplitMix64::new(0xC006);
    for _ in 0..32 {
        let scale = r.range_f64(0.5, 2.0);
        let mut desc = ddr3_1g_x16_55nm();
        desc.technology.bitline_cap = desc.technology.bitline_cap * scale;
        let scaled = Dram::new(desc).expect("valid");
        let scaled_item = scaled
            .operation_energy(dram_core::Operation::Activate)
            .items
            .iter()
            .find(|i| i.label == "bitline sensing")
            .expect("item")
            .external
            .joules();
        assert!(
            (scaled_item / base_item - scale).abs() < 1e-9,
            "scale={scale}"
        );
    }
}
