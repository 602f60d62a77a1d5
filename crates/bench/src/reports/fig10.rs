//! Fig. 10 — power change under ±20 % parameter variation, for the three
//! sample devices the paper compares (128 Mb SDR 170 nm, DDR3 55 nm,
//! 16 Gb DDR5 18 nm), sorted by impact on the DDR3 device.

use dram_core::{DramDescription, EvalEngine};
use dram_scaling::presets::{ddr3_1g_55nm, ddr5_16g_18nm, sdr_128m_170nm};
use dram_sensitivity::{sweep, ParamId, Sweep};

use crate::Table;

/// The ±variation the paper uses.
pub const VARIATION: f64 = 0.2;

/// Generates the tornado table, evaluating on `engine`.
#[must_use]
pub fn generate(engine: &EvalEngine) -> String {
    let run = |desc: &DramDescription| sweep(engine, desc, VARIATION).expect("preset sweeps run");
    let sdr = run(&sdr_128m_170nm());
    let ddr3 = run(&ddr3_1g_55nm());
    let ddr5 = run(&ddr5_16g_18nm());

    let mut out = String::new();
    out.push_str(
        "workload: interleaved activate/precharge with half reads, half writes\n\
         (IDD7-like pattern, §IV.B); entries sorted by impact on the DDR3 device.\n\n",
    );
    let mut tbl = Table::new([
        "parameter",
        "SDR 170nm -20%/+20%",
        "DDR3 55nm -20%/+20%",
        "DDR5 18nm -20%/+20%",
    ]);
    let fmt = |s: &Sweep, p: ParamId| {
        let e = s.of(p).expect("param present");
        format!("{:+.1}% / {:+.1}%", e.down * 100.0, e.up * 100.0)
    };
    let mut order: Vec<ParamId> = ParamId::ALL
        .iter()
        .copied()
        .filter(|p| p.in_pareto_chart())
        .collect();
    order.sort_by(|&a, &b| {
        let sa = ddr3.of(a).map(|e| e.swing()).unwrap_or(0.0);
        let sb = ddr3.of(b).map(|e| e.swing()).unwrap_or(0.0);
        sb.total_cmp(&sa)
    });
    for p in order {
        tbl.row([
            p.name().to_string(),
            fmt(&sdr, p),
            fmt(&ddr3, p),
            fmt(&ddr5, p),
        ]);
    }
    out.push_str(&tbl.render());

    // Parameter interactions on the DDR3 device: the full in-chart pair
    // matrix, reporting where joint variation deviates most from
    // composing the individual effects.
    let matrix = dram_sensitivity::interaction_matrix(engine, &ddr3_1g_55nm(), VARIATION)
        .expect("interaction matrix runs");
    out.push_str(&format!(
        "\nstrongest parameter interactions (DDR3, joint vs composed +20% effects,\n\
         out of all {} in-chart pairs):\n",
        matrix.entries.len()
    ));
    let mut itbl = Table::new(["pair", "joint", "composed", "interaction"]);
    for i in matrix.top(8) {
        itbl.row([
            format!("{} x {}", i.a.name(), i.b.name()),
            format!("{:.4}", i.joint),
            format!("{:.4}", i.composed),
            format!("{:+.2}%", i.strength() * 100.0),
        ]);
    }
    out.push_str(&itbl.render());
    out.push_str(
        "(positive interaction = the parameters multiply into the same charge\n\
         terms; near zero = disjoint contributors)\n",
    );

    let vdd = ddr3.of(ParamId::Vdd).expect("vdd present");
    out.push_str(&format!(
        "\n(external supply voltage Vdd excluded from the chart: its swing is \
         {:.0}% — power is directly proportional to it)\n",
        vdd.swing() * 100.0
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn tornado_leads_with_internal_voltage() {
        let text = super::generate(dram_core::EvalEngine::global());
        let first_data_line = text
            .lines()
            .skip_while(|l| !l.starts_with('-'))
            .nth(1)
            .expect("has data");
        assert!(
            first_data_line.contains("Internal voltage Vint"),
            "top row: {first_data_line}"
        );
        assert!(text.contains("directly proportional"));
    }
}
