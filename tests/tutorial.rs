//! Keeps `docs/TUTORIAL.md` honest: this test is the tutorial's code,
//! executed end to end.

use dram_energy::scaling::{presets, Interface};
use dram_energy::sensitivity::ParamId;
use dram_energy::units::{Amperes, BitsPerSecond, Hertz, Volts};
use dram_energy::workload::{generate, simulate, PowerDownPolicy, WorkloadSpec};
use dram_energy::{dsl, Dram, PowerState};

#[test]
fn tutorial_walkthrough() {
    // Step 1: start from the node's technology.
    let mut desc = presets::build(&presets::PresetSpec {
        feature_nm: 31.0,
        interface: Interface::Ddr4,
        density_mbit: 2048,
        io_width: 16,
    });

    // Step 2: shape it into the hypothetical mobile device.
    desc.name = "2Gb LP x16 31nm (concept)".into();
    desc.electrical.vdd = Volts::new(1.2);
    desc.electrical.vint = Volts::new(1.05);
    desc.electrical.vbl = Volts::new(1.0);
    desc.electrical.vpp = Volts::new(2.5);
    desc.electrical.constant_current = Amperes::from_ma(1.0);
    desc.spec.datarate_per_pin = BitsPerSecond::from_mbps(1066.0);
    desc.spec.data_clock = Hertz::from_mhz(533.0);
    desc.spec.control_clock = desc.spec.data_clock;
    desc.spec.column_address_bits -= 1;
    desc.spec.row_address_bits += 1;
    for block in &mut desc.logic_blocks {
        if block.name.contains("DLL") {
            block.gates /= 4;
        }
    }

    // Step 3: evaluate.
    let dram = Dram::new(desc).expect("concept device is valid");
    let idd = dram.idd();
    assert!(idd.idd4r.milliamperes() > 20.0);
    let standby = dram.state_power(PowerState::PrechargedStandby);
    assert!(
        standby.milliwatts() < 40.0,
        "mobile concept standby {standby} too high"
    );
    let epb = dram.energy_per_bit_random().picojoules();
    assert!(epb > 1.0 && epb < 40.0, "epb {epb}");
    let die = dram.area().die.square_millimeters();
    assert!((10.0..60.0).contains(&die), "die {die}");

    // The half page paid off against the unmodified organization.
    let full_page = Dram::new(presets::build(&presets::PresetSpec {
        feature_nm: 31.0,
        interface: Interface::Ddr4,
        density_mbit: 2048,
        io_width: 16,
    }))
    .expect("valid");
    let act = |d: &Dram| {
        d.operation_energy(dram_energy::Operation::Activate)
            .external()
            .joules()
    };
    assert!(
        act(&dram) < 0.7 * act(&full_page),
        "half page should cut activate energy"
    );

    // Step 4: the §IV.B question.
    let engine = dram_energy::EvalEngine::global();
    let sweep = dram_energy::sensitivity::sweep(engine, dram.description(), 0.2).expect("sweeps");
    assert_eq!(sweep.top(1)[0].param, ParamId::Vint);

    // Step 5: under load.
    let w = generate(&dram, &WorkloadSpec::sparse(500, 7)).expect("generates");
    let idle = simulate(&dram, &w.trace, PowerDownPolicy::NEVER).expect("legal trace");
    let pd = simulate(&dram, &w.trace, PowerDownPolicy::AGGRESSIVE).expect("legal trace");
    let saving = 1.0 - pd.energy.joules() / idle.energy.joules();
    assert!(saving > 0.1, "power-down saving {saving}");

    // Step 6: save the design (round trip instead of a file write).
    let text = dsl::write(dram.description(), None);
    let reparsed = dsl::parse(&text).expect("saved design parses");
    let again = Dram::new(reparsed.description).expect("reparsed design builds");
    let a = dram.idd().idd7.amperes();
    let b = again.idd().idd7.amperes();
    assert!(((a - b) / a).abs() < 1e-9);
}
