//! Cross-crate randomized tests: random perturbations of a valid device
//! must keep the model physical, monotone where physics is monotone, and
//! round-trippable through the description language; random command
//! streams find the timing checker's two answers in agreement.
//!
//! Driven by deterministic [`SplitMix64`] loops instead of `proptest` so
//! the workspace resolves offline.

use dram_energy::model::reference::ddr3_1g_x16_55nm;
use dram_energy::sensitivity::ParamId;
use dram_energy::units::rng::SplitMix64;
use dram_energy::{dsl, Dram};

const CASES: usize = 48;

/// Multiplicative factors close enough to 1 that every parameter stays in
/// its validated range.
fn factor(r: &mut SplitMix64) -> f64 {
    r.range_f64(0.7, 1.3)
}

/// Any combination of in-range parameter perturbations yields a valid
/// model with positive, finite power.
#[test]
fn perturbed_devices_stay_physical() {
    let mut r = SplitMix64::new(0xE001);
    for _ in 0..CASES {
        let f_bl = factor(&mut r);
        let f_cell = factor(&mut r);
        let f_wire = factor(&mut r);
        let f_gates = factor(&mut r);
        let f_vint = r.range_f64(0.85, 1.15);
        let ctx = format!("bl={f_bl} cell={f_cell} wire={f_wire} gates={f_gates} vint={f_vint}");
        let mut desc = ddr3_1g_x16_55nm();
        ParamId::BitlineCap.apply(&mut desc, f_bl);
        ParamId::CellCap.apply(&mut desc, f_cell);
        ParamId::CWireSignal.apply(&mut desc, f_wire);
        ParamId::LogicGates.apply(&mut desc, f_gates);
        ParamId::Vint.apply(&mut desc, f_vint);
        let dram = Dram::new(desc).expect("perturbed device stays valid");
        let p = dram.mixed_workload_power();
        assert!(p.power.watts() > 0.0, "{ctx}");
        assert!(p.power.watts().is_finite(), "{ctx}");
        assert!(p.power >= p.background, "{ctx}");
        let idd = dram.idd();
        assert!(idd.idd0 > idd.idd2n, "{ctx}");
        assert!(idd.idd4r > idd.idd2n, "{ctx}");
    }
}

/// Power is monotone in the capacitive parameters: more capacitance never
/// reduces power.
#[test]
fn power_is_monotone_in_capacitance() {
    let base = Dram::new(ddr3_1g_x16_55nm()).expect("valid");
    let base_power = base.mixed_workload_power().power;
    let mut r = SplitMix64::new(0xE002);
    for _ in 0..12 {
        let f = r.range_f64(1.0, 1.5);
        for param in [
            ParamId::BitlineCap,
            ParamId::CellCap,
            ParamId::CWireSignal,
            ParamId::CWireLwl,
            ParamId::CWireMwl,
            ParamId::JunctionCapLogic,
        ] {
            let mut desc = ddr3_1g_x16_55nm();
            param.apply(&mut desc, f);
            let up = Dram::new(desc).expect("valid");
            assert!(
                up.mixed_workload_power().power.watts() >= base_power.watts() - 1e-12,
                "{param}: factor {f} reduced power"
            );
        }
    }
}

/// Power is exactly linear in Vdd (charge-transfer accounting).
#[test]
fn power_is_linear_in_vdd() {
    let base = Dram::new(ddr3_1g_x16_55nm()).expect("valid");
    let p0 = base.mixed_workload_power().power.watts();
    let mut r = SplitMix64::new(0xE003);
    for _ in 0..CASES {
        let f = r.range_f64(0.8, 1.2);
        let mut desc = ddr3_1g_x16_55nm();
        ParamId::Vdd.apply(&mut desc, f);
        let scaled = Dram::new(desc).expect("valid");
        let p1 = scaled.mixed_workload_power().power.watts();
        assert!(
            (p1 / p0 - f).abs() < 1e-9,
            "ratio {} vs factor {f}",
            p1 / p0
        );
    }
}

/// The description language round-trips any perturbed device with
/// bit-identical model outputs (to floating-point printing).
#[test]
fn dsl_roundtrip_on_perturbed_devices() {
    let mut r = SplitMix64::new(0xE004);
    for _ in 0..CASES {
        let f_bl = factor(&mut r);
        let f_wire = factor(&mut r);
        let f_sa = factor(&mut r);
        let mut desc = ddr3_1g_x16_55nm();
        ParamId::BitlineCap.apply(&mut desc, f_bl);
        ParamId::CWireSignal.apply(&mut desc, f_wire);
        ParamId::SenseAmpDeviceWidth.apply(&mut desc, f_sa);
        let text = dsl::write(&desc, None);
        let reparsed = dsl::parse(&text).expect("writer output parses");
        let a = Dram::new(desc).expect("valid");
        let b = Dram::new(reparsed.description).expect("valid");
        let x = a.idd().idd7.amperes();
        let y = b.idd().idd7.amperes();
        assert!(
            ((x - y) / x).abs() < 1e-9,
            "bl={f_bl} wire={f_wire} sa={f_sa}: {x} vs {y}"
        );
    }
}

/// Pattern power lies between background and the every-cycle ceiling, and
/// grows monotonically with command density.
#[test]
fn pattern_power_is_convex_in_command_density() {
    use dram_energy::{Command, Pattern};
    let dram = Dram::new(ddr3_1g_x16_55nm()).expect("valid");
    let denser =
        Pattern::new(vec![Command::Activate, Command::Read, Command::Precharge]).expect("nonempty");
    let dense_power = dram.pattern_power(&denser).power.watts();
    for nops in 0usize..24 {
        let mut slots = vec![Command::Activate, Command::Read, Command::Precharge];
        slots.extend(std::iter::repeat_n(Command::Nop, nops));
        let sparse = Pattern::new(slots).expect("nonempty");
        let p = dram.pattern_power(&sparse);
        assert!(p.power >= p.background, "nops={nops}");
        // Fewer nops -> denser commands -> at least as much power.
        assert!(dense_power >= p.power.watts() - 1e-12, "nops={nops}");
    }
}

/// `TimingChecker::check` and `TimingChecker::earliest` read one list of
/// windows. On seeded random command streams on every preset, from both
/// initial bank states: a window refused by `check` at cycle `t` opens
/// after `t` by `earliest`, and `check` at `earliest` passes whenever
/// the bank state allows the command.
#[test]
fn check_and_earliest_read_one_list_of_windows() {
    use dram_energy::model::timing::{InitialBankState, TimingChecker};
    use dram_energy::model::Command::{Activate, Precharge, Read, Refresh, Write};
    use dram_energy::server::presets;
    let mut r = SplitMix64::new(0xE005);
    for name in presets::NAMES {
        let desc = presets::get(name).expect("a preset").description();
        let banks = desc.spec.banks();
        for initial in [InitialBankState::AllClosed, InitialBankState::AllOpen] {
            let mut checker =
                TimingChecker::new(&desc.timing, desc.spec.control_clock, banks, initial);
            let mut open = vec![initial == InitialBankState::AllOpen; banks as usize];
            let mut cycle = 0;
            for _ in 0..1500 {
                let command = *r.pick(&[Activate, Activate, Precharge, Read, Write, Refresh]);
                let bank = r.range_u32(banks);
                let earliest = checker.earliest(bank, command).expect("bank in range");
                cycle += r.range_u64(24);
                if r.chance(0.5) {
                    cycle = cycle.max(earliest);
                }
                let allowed = match command {
                    Activate => !open[bank as usize],
                    Read | Write => open[bank as usize],
                    Refresh => !open.contains(&true),
                    _ => true,
                };
                let at_earliest = checker.clone().check(earliest, bank, command);
                assert_eq!(
                    at_earliest.is_ok(),
                    allowed,
                    "{name} {initial:?}: {command} on bank {bank} at earliest {earliest}: \
                     {at_earliest:?}"
                );
                match checker.check(cycle, bank, command) {
                    Ok(()) => {
                        assert!(cycle >= earliest, "{name}: passed before {earliest}");
                        match command {
                            Activate => open[bank as usize] = true,
                            Precharge => open[bank as usize] = false,
                            _ => {}
                        }
                    }
                    Err(e) if e.to_string().contains(" violated ") => assert!(
                        cycle < earliest,
                        "{name} {initial:?}: {e} though {command} opens at {earliest}"
                    ),
                    Err(e) => assert!(!allowed, "{name} {initial:?}: {e}"),
                }
            }
        }
    }
}
