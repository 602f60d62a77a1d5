//! Fig. 13 — die area and energy per bit over the roadmap, with the
//! paper's headline reduction factors (×1.5/generation historically,
//! ×1.2/generation forecast).

use dram_core::EvalEngine;
use dram_scaling::trends::{energy_reduction_per_generation, energy_trends};

use crate::Table;

/// Generates the energy/area trend table, evaluating on `engine`.
#[must_use]
pub fn generate(engine: &EvalEngine) -> String {
    let trends = energy_trends(engine);
    let mut tbl = Table::new([
        "node (nm)",
        "year",
        "density",
        "die (mm²)",
        "pJ/bit streaming",
        "pJ/bit random",
    ]);
    for t in &trends {
        let density = if t.node.density_mbit >= 1024 {
            format!("{}Gb", t.node.density_mbit / 1024)
        } else {
            format!("{}Mb", t.node.density_mbit)
        };
        tbl.row([
            format!("{}", t.node.feature_nm),
            t.node.year.to_string(),
            density,
            format!("{:.1}", t.die_mm2),
            format!("{:.2}", t.epb_stream_pj),
            format!("{:.2}", t.epb_random_pj),
        ]);
    }
    let mut out = tbl.render();
    let hist = energy_reduction_per_generation(&trends, 170.0, 44.0);
    let fore = energy_reduction_per_generation(&trends, 44.0, 16.0);
    out.push_str(&format!(
        "\nenergy-per-bit reduction: x{hist:.2} per generation 170nm→44nm \
         (paper: ~x1.5),\n                          x{fore:.2} per generation 44nm→16nm \
         (paper forecast: ~x1.2)\nthe flattening comes from slowing voltage scaling \
         (Fig. 11).\n",
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn trend_flattens_as_the_paper_reports() {
        let text = super::generate(dram_core::EvalEngine::global());
        assert!(text.contains("170"));
        assert!(text.contains("16"));
        assert!(text.contains("energy-per-bit reduction"));
        // The table spans all roadmap nodes.
        assert!(text.lines().count() > 16);
    }
}
