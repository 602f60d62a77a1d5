//! Cross-crate integration: the full Fig. 4 pipeline from description-
//! language text through the model to currents, patterns and reports.

use dram_energy::{dsl, Dram, Pattern};

const SAMPLE: &str = include_str!("../crates/dsl/descriptions/ddr3_1gb_x16_55nm.dram");

#[test]
fn dsl_text_to_idd_report() {
    let parsed = dsl::parse(SAMPLE).expect("sample parses");
    let dram = Dram::new(parsed.description).expect("sample builds");
    let idd = dram.idd();
    assert!(idd.idd0 > idd.idd2n);
    assert!(idd.idd4r > idd.idd0);
    assert!(idd.idd7 > idd.idd4r);
}

#[test]
fn parsed_file_matches_programmatic_reference() {
    let parsed = dsl::parse(SAMPLE).expect("parses");
    let from_file = Dram::new(parsed.description).expect("builds");
    let programmatic =
        Dram::new(dram_energy::model::reference::ddr3_1g_x16_55nm()).expect("builds");
    let a = from_file.idd();
    let b = programmatic.idd();
    for (x, y) in [
        (a.idd0, b.idd0),
        (a.idd2n, b.idd2n),
        (a.idd4r, b.idd4r),
        (a.idd4w, b.idd4w),
        (a.idd5, b.idd5),
        (a.idd7, b.idd7),
    ] {
        let rel = (x.amperes() - y.amperes()).abs() / y.amperes();
        assert!(rel < 1e-9, "file vs programmatic: {x} vs {y}");
    }
}

#[test]
fn pattern_from_file_is_evaluable_and_legal() {
    let parsed = dsl::parse(SAMPLE).expect("parses");
    let pattern = parsed.pattern.expect("sample has a pattern");
    assert_eq!(pattern, Pattern::paper_example());
    let dram = Dram::new(parsed.description).expect("builds");
    let p = dram.pattern_power(&pattern);
    assert!(p.power > p.background);
    // Pattern power interpolates between background and the most
    // expensive steady state (all commands every cycle is not physical;
    // IDD7 is the ceiling of realizable patterns).
    let idd7_power = dram.idd().idd7 * dram.description().electrical.vdd;
    assert!(p.power < idd7_power * 2.0);
}

#[test]
fn full_roundtrip_through_writer_preserves_results() {
    // model -> writer -> parser -> model must be a fixed point.
    let original = dram_energy::scaling::presets::ddr3_2g_55nm();
    let text = dsl::write(&original, None);
    let reparsed = dsl::parse(&text).expect("writer output parses");
    let a = Dram::new(original).expect("builds");
    let b = Dram::new(reparsed.description).expect("builds");
    let rel = (a.idd().idd7.amperes() - b.idd().idd7.amperes()).abs() / a.idd().idd7.amperes();
    assert!(rel < 1e-9);
}

#[test]
fn every_roadmap_preset_roundtrips_through_the_dsl() {
    for desc in dram_energy::scaling::presets::all_generations() {
        let name = desc.name.clone();
        let text = dsl::write(&desc, None);
        let reparsed = dsl::parse(&text)
            .unwrap_or_else(|e| panic!("{name}: writer output fails to parse: {e}"));
        let a = Dram::new(desc).unwrap_or_else(|e| panic!("{name}: {e}"));
        let b =
            Dram::new(reparsed.description).unwrap_or_else(|e| panic!("{name} (reparsed): {e}"));
        let x = a.energy_per_bit_random().joules();
        let y = b.energy_per_bit_random().joules();
        assert!(((x - y) / y).abs() < 1e-9, "{name}: {x} vs {y}");
    }
}

#[test]
fn all_reports_generate() {
    // The complete repro surface stays alive end to end.
    for id in dram_bench_smoke::ids() {
        let text = id.generate(dram_energy::EvalEngine::global());
        assert!(text.len() > 100, "{} too short", id.command());
    }
}

/// Tiny indirection so the integration test depends on the bench crate
/// only through its public API.
mod dram_bench_smoke {
    pub fn ids() -> Vec<dram_bench::ReportId> {
        dram_bench::ReportId::ALL.to_vec()
    }
}
