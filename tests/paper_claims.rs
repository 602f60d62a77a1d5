//! The paper's headline quantitative claims, asserted end to end. Each
//! test names the section it reproduces; EXPERIMENTS.md records the
//! numbers.

use dram_energy::scaling::presets::{all_generations, ddr3_2g_55nm, ddr5_16g_18nm, sdr_128m_170nm};
use dram_energy::scaling::trends::{energy_reduction_per_generation, energy_trends};
use dram_energy::sensitivity::{sweep, ParamId};
use dram_energy::{Dram, EvalEngine, Operation};

/// §IV.B / Table III: "Internal voltage Vint" tops the sensitivity
/// ranking for every sampled generation.
#[test]
fn vint_is_the_most_sensitive_parameter_everywhere() {
    for desc in [sdr_128m_170nm(), ddr3_2g_55nm(), ddr5_16g_18nm()] {
        let name = desc.name.clone();
        let s = sweep(EvalEngine::global(), &desc, 0.2).expect("sweep runs");
        assert_eq!(
            s.top(1)[0].param,
            ParamId::Vint,
            "{name}: top parameter is {:?}",
            s.top(1)[0].param
        );
    }
}

/// §IV.B: "A variation of 40% would mean that the power consumption is
/// directly proportional... only the case for the external supply
/// voltage Vdd."
#[test]
fn only_vdd_is_exactly_proportional() {
    let s = sweep(EvalEngine::global(), &ddr3_2g_55nm(), 0.2).expect("runs");
    let vdd = s.of(ParamId::Vdd).expect("swept");
    assert!(
        (vdd.swing() - 0.40).abs() < 0.01,
        "Vdd swing {}",
        vdd.swing()
    );
    for e in &s.entries {
        if e.param != ParamId::Vdd {
            assert!(
                e.swing() < 0.40,
                "{}: swing {} reaches proportionality",
                e.param,
                e.swing()
            );
        }
    }
}

/// §IV.C / Fig. 13: energy per bit fell ~1.5x per generation through
/// 2010 and the forecast reduction is distinctly weaker.
#[test]
fn energy_reduction_slows_down() {
    let trends = energy_trends(EvalEngine::global());
    let hist = energy_reduction_per_generation(&trends, 170.0, 44.0);
    let fore = energy_reduction_per_generation(&trends, 44.0, 16.0);
    assert!((1.35..=1.85).contains(&hist), "historical factor {hist}");
    assert!((1.05..=1.45).contains(&fore), "forecast factor {fore}");
    assert!(hist - fore > 0.1, "no flattening: {hist} vs {fore}");
}

/// §IV.B / §VI: "the share of power usage is shifting away from the DRAM
/// specific cell array circuitry to general logic outside of the cell
/// array."
#[test]
fn array_power_share_declines_monotonically_in_eras() {
    let share = |dram: &Dram| {
        let act = dram.operation_energy(Operation::Activate);
        let rd = dram.operation_energy(Operation::Read);
        (act.external().joules() * act.array_share() + rd.external().joules() * rd.array_share())
            / (act.external().joules() + rd.external().joules())
    };
    let gens = all_generations();
    let first = Dram::new(gens.first().unwrap().clone()).unwrap();
    let mid = Dram::new(gens[6].clone()).unwrap(); // 55 nm DDR3
    let last = Dram::new(gens.last().unwrap().clone()).unwrap();
    let (s0, s1, s2) = (share(&first), share(&mid), share(&last));
    assert!(s0 > s1, "SDR {s0} vs DDR3 {s1}");
    assert!(s1 > s2, "DDR3 {s1} vs DDR5 {s2}");
}

/// §IV.A / Fig. 8–9: the model's currents land inside the vendor
/// datasheet spread (with the documented guard bands).
#[test]
fn datasheet_verification_points_hold() {
    let ddr3 = dram_bench::ReportId::Fig9.generate(EvalEngine::global());
    assert!(!ddr3.contains("OUTSIDE"), "{ddr3}");
    let ddr2 = dram_bench::ReportId::Fig8.generate(EvalEngine::global());
    assert!(!ddr2.contains("OUTSIDE"), "{ddr2}");
}

/// §IV.A: "The dependency of current on operating frequency, interface
/// standard, I/O width and type of operation is described correctly."
#[test]
fn current_dependencies_have_the_right_signs() {
    use dram_energy::scaling::presets::{build, with_datarate, PresetSpec};
    use dram_energy::scaling::{Interface, TechNode};
    use dram_energy::units::BitsPerSecond;

    let node = TechNode::by_feature(55.0).unwrap();

    // Frequency: faster interface draws more.
    let fast = Dram::new(build(&PresetSpec::for_node(node))).unwrap();
    let slow = Dram::new(with_datarate(
        build(&PresetSpec::for_node(node)),
        BitsPerSecond::from_mbps(1066.0),
    ))
    .unwrap();
    assert!(fast.idd().idd4r > slow.idd().idd4r);
    assert!(fast.idd().idd2n > slow.idd().idd2n);

    // I/O width: wider device draws more on bursts.
    let x4 = Dram::new(build(&PresetSpec {
        io_width: 4,
        ..PresetSpec::for_node(node)
    }))
    .unwrap();
    assert!(fast.idd().idd4r > x4.idd().idd4r);

    // Interface standard: DDR3 at 1.5 V below DDR2 at 1.8 V for row ops.
    let ddr2 = Dram::new(build(&PresetSpec {
        feature_nm: 65.0,
        interface: Interface::Ddr2,
        density_mbit: 1024,
        io_width: 16,
    }))
    .unwrap();
    let ddr3 = Dram::new(build(&PresetSpec {
        feature_nm: 65.0,
        interface: Interface::Ddr3,
        density_mbit: 1024,
        io_width: 16,
    }))
    .unwrap();
    let row_power = |d: &Dram| {
        d.operation_energy(Operation::Activate).external().joules()
            + d.operation_energy(Operation::Precharge).external().joules()
    };
    assert!(row_power(&ddr2) > row_power(&ddr3));

    // Type of operation: writes move more array charge than reads.
    let wr = fast.operation_energy(Operation::Write).external();
    let rd = fast.operation_energy(Operation::Read).external();
    assert!(wr > rd);
}

/// §V: every proposed scheme saves energy; on-pitch schemes pay area,
/// off-pitch schemes are nearly free (the section's central trade-off).
#[test]
fn scheme_tradeoffs_match_section_v() {
    use dram_energy::schemes::{evaluate, evaluate_all, Scheme};
    let base = ddr3_2g_55nm();
    let evals = evaluate_all(EvalEngine::global(), &base).expect("evaluates");
    for e in &evals {
        if e.scheme != Scheme::Baseline {
            assert!(e.savings > 0.0, "{} does not save", e.scheme.name());
        }
    }
    let sba = evaluate(
        EvalEngine::global(),
        &base,
        Scheme::selective_bitline_activation(),
    )
    .unwrap();
    let seg = evaluate(EvalEngine::global(), &base, Scheme::SegmentedDatalines).unwrap();
    // Row-granularity schemes save much more than dataline segmentation...
    assert!(sba.savings > 3.0 * seg.savings);
    // ...but cost real on-pitch area while segmentation is free.
    assert!(sba.area_overhead > 0.01);
    assert!(seg.area_overhead.abs() < 0.005);
}

/// §II: stripe-area shares stay inside the ranges the paper quotes
/// (SA 8–15 %, LWD 5–10 %) for the DDR3-era devices.
#[test]
fn stripe_shares_match_section_ii() {
    for desc in [
        ddr3_2g_55nm(),
        dram_energy::scaling::presets::ddr3_1g_55nm(),
    ] {
        let name = desc.name.clone();
        let dram = Dram::new(desc).unwrap();
        let a = dram.area();
        assert!(
            (0.06..=0.16).contains(&a.sa_share()),
            "{name}: SA share {}",
            a.sa_share()
        );
        assert!(
            (0.03..=0.11).contains(&a.lwd_share()),
            "{name}: LWD share {}",
            a.lwd_share()
        );
    }
}

/// §IV.A frequency axis: the model's IDD4R slope with data rate matches
/// the datasheet family's slope within a band.
#[test]
fn frequency_slope_matches_the_speed_grade_family() {
    use dram_energy::datasheet::corpus::DDR3_1GB_X16_SPEEDS;
    use dram_energy::datasheet::{mean, IddMeasure};
    use dram_energy::scaling::presets::{build, with_datarate, PresetSpec};
    use dram_energy::scaling::TechNode;
    use dram_energy::units::BitsPerSecond;

    let node = TechNode::by_feature(55.0).unwrap();
    let model_idd4r = |mbps: f64| {
        let desc = with_datarate(
            build(&PresetSpec::for_node(node)),
            BitsPerSecond::from_mbps(mbps),
        );
        Dram::new(desc).unwrap().idd().idd4r.milliamperes()
    };
    // Slope of the model vs the vendor-mean slope from 1066 to 1600.
    let model_slope = model_idd4r(1600.0) / model_idd4r(1066.0);
    let sheet_slope = mean(&DDR3_1GB_X16_SPEEDS, 16, 1600, IddMeasure::Idd4r).unwrap()
        / mean(&DDR3_1GB_X16_SPEEDS, 16, 1066, IddMeasure::Idd4r).unwrap();
    let ratio = model_slope / sheet_slope;
    assert!(
        (0.8..1.25).contains(&ratio),
        "model slope {model_slope} vs datasheet slope {sheet_slope}"
    );
}

/// §VI: low-power states order and magnitudes hold on every roadmap
/// preset.
#[test]
fn low_power_states_order_on_all_presets() {
    use dram_energy::model::PowerState;
    for desc in all_generations() {
        let name = desc.name.clone();
        let dram = Dram::new(desc).unwrap();
        let standby = dram.state_power(PowerState::PrechargedStandby);
        let down = dram.state_power(PowerState::PrechargePowerDown);
        let sr = dram.state_power(PowerState::SelfRefresh);
        assert!(down < standby, "{name}");
        assert!(down < sr, "{name}");
        assert!(sr < standby * 2.0, "{name}: self-refresh implausibly high");
    }
}

/// §IV.A frequency axis on the DDR2 side: model slope from DDR2-400 to
/// DDR2-800 within a band of the datasheet family slope.
#[test]
fn ddr2_frequency_slope_matches_the_family() {
    use dram_energy::datasheet::corpus::DDR2_1GB_X16_SPEEDS;
    use dram_energy::datasheet::{mean, IddMeasure};
    use dram_energy::scaling::presets::{build, with_datarate, PresetSpec};
    use dram_energy::scaling::Interface;
    use dram_energy::units::BitsPerSecond;

    let model_idd4r = |mbps: f64| {
        let desc = build(&PresetSpec {
            feature_nm: 75.0,
            interface: Interface::Ddr2,
            density_mbit: 1024,
            io_width: 16,
        });
        let desc = with_datarate(desc, BitsPerSecond::from_mbps(mbps));
        Dram::new(desc).unwrap().idd().idd4r.milliamperes()
    };
    let model_slope = model_idd4r(800.0) / model_idd4r(400.0);
    let sheet_slope = mean(&DDR2_1GB_X16_SPEEDS, 16, 800, IddMeasure::Idd4r).unwrap()
        / mean(&DDR2_1GB_X16_SPEEDS, 16, 400, IddMeasure::Idd4r).unwrap();
    let ratio = model_slope / sheet_slope;
    assert!(
        (0.75..1.35).contains(&ratio),
        "model slope {model_slope} vs datasheet slope {sheet_slope}"
    );
}
