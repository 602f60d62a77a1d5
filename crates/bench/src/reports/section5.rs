//! §V — quantitative comparison of the proposed power-reduction schemes
//! on the 2 Gb DDR3 55 nm device, with energy savings and die-area cost.

use dram_core::EvalEngine;
use dram_scaling::presets::ddr3_2g_55nm;
use dram_schemes::evaluate_all;

use crate::Table;

/// Generates the scheme comparison table, evaluating on `engine`.
#[must_use]
pub fn generate(engine: &EvalEngine) -> String {
    let base = ddr3_2g_55nm();
    let evals = evaluate_all(engine, &base).expect("schemes evaluate on the preset");

    let mut out = format!("baseline device: {}\n", base.name);
    out.push_str(
        "metric: energy per bit fetching a 64 B line from a random row,\n\
         rank of four x16 devices; background power excluded.\n\n",
    );
    let mut tbl = Table::new([
        "scheme",
        "proposed by",
        "act+pre (nJ)",
        "read (pJ)",
        "pJ/bit",
        "saving",
        "die area",
        "area cost",
    ]);
    for e in &evals {
        tbl.row([
            e.scheme.name().to_string(),
            e.scheme.proposed_by().to_string(),
            format!("{:.2}", e.act_pre_energy.joules() * 1e9),
            format!("{:.0}", e.read_energy.picojoules()),
            format!("{:.1}", e.energy_per_bit.picojoules()),
            format!("{:+.0}%", e.savings * 100.0),
            format!("{:.1} mm²", e.die_area.square_millimeters()),
            format!("{:+.1}%", e.area_overhead * 100.0),
        ]);
    }
    // The co-design endpoint: complementary schemes stacked.
    if let Ok(stacked) = dram_schemes::apply_stacked(engine, &base) {
        let baseline = &evals[0];
        let saving = 1.0 - stacked.energy_per_bit.joules() / baseline.energy_per_bit.joules();
        let area = stacked.die_area.square_meters() / baseline.die_area.square_meters() - 1.0;
        tbl.row([
            "stacked (TSV+SBA+segmented)".to_string(),
            "co-design (§VI)".to_string(),
            format!("{:.2}", stacked.act_pre_energy.joules() * 1e9),
            format!("{:.0}", stacked.read_energy.picojoules()),
            format!("{:.1}", stacked.energy_per_bit.picojoules()),
            format!("{:+.0}%", saving * 100.0),
            format!("{:.1} mm²", stacked.die_area.square_millimeters()),
            format!("{:+.1}%", area * 100.0),
        ]);
    }
    out.push_str(&tbl.render());
    out.push_str("\nnotes:\n");
    for e in &evals {
        out.push_str(&format!("  {:<28} {}\n", e.scheme.name(), e.notes));
    }
    out.push_str(
        "\nshape (paper §V): row-granularity schemes win big on random access but\n\
         pay on-pitch stripe area; off-pitch (center stripe) schemes are cheap\n\
         but save less; co-design of device and memory system is required.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn comparison_lists_all_schemes_with_savings() {
        let text = super::generate(dram_core::EvalEngine::global());
        for scheme in [
            "baseline commodity",
            "selective bitline activation",
            "single sub-array access",
            "segmented datalines",
            "TSV stacking",
            "mini-rank",
            "reduced CSL ratio",
        ] {
            assert!(text.contains(scheme), "missing {scheme}");
        }
        assert!(text.contains("Udipi"));
        assert!(text.contains("area cost"));
    }
}
