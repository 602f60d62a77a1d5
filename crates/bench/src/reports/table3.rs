//! Table III — top-10 ranking of sensitivity to model parameters, for the
//! paper's three sample devices (128 Mb SDR 170 nm, 2 Gb DDR3 55 nm,
//! 16 Gb DDR5 18 nm).

use dram_core::EvalEngine;
use dram_scaling::presets::{ddr3_2g_55nm, ddr5_16g_18nm, sdr_128m_170nm};
use dram_sensitivity::sweep;

use crate::Table;

/// Generates the top-10 ranking table, evaluating on `engine`.
#[must_use]
pub fn generate(engine: &EvalEngine) -> String {
    let devices = [sdr_128m_170nm(), ddr3_2g_55nm(), ddr5_16g_18nm()];
    let sweeps: Vec<_> = devices
        .iter()
        .map(|d| (d.name.clone(), sweep(engine, d, 0.2).expect("sweep runs")))
        .collect();

    let mut tbl = Table::new([
        "rank".to_string(),
        sweeps[0].0.clone(),
        sweeps[1].0.clone(),
        sweeps[2].0.clone(),
    ]);
    let tops: Vec<Vec<_>> = sweeps.iter().map(|(_, s)| s.top(10)).collect();
    for (rank, ((a, b), c)) in tops[0].iter().zip(&tops[1]).zip(&tops[2]).enumerate() {
        tbl.row([
            (rank + 1).to_string(),
            a.param.name().to_string(),
            b.param.name().to_string(),
            c.param.name().to_string(),
        ]);
    }
    let mut out = tbl.render();
    out.push_str(
        "\nexpected shape (paper): Vint first everywhere; array parameters\n\
         (bitline voltage/capacitance) rank high for the old device and sink\n\
         for newer ones, displaced by wiring capacitance and logic parameters.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use dram_core::EvalEngine;
    use dram_sensitivity::ParamId;

    #[test]
    fn vint_is_rank_one_for_every_generation() {
        let text = super::generate(EvalEngine::global());
        let rank1 = text
            .lines()
            .skip_while(|l| !l.starts_with('-'))
            .nth(1)
            .expect("rank 1 row");
        // All three columns show the internal voltage.
        assert_eq!(rank1.matches("Internal voltage Vint").count(), 3, "{rank1}");
    }

    #[test]
    fn array_parameters_sink_in_newer_generations() {
        // Table III's structural claim (§IV.B): "a shift from direct array
        // related power consumption to signal wiring and logic circuitry".
        // The aggregate sensitivity share of array-side parameters must
        // decline from the SDR to the DDR5 generation.
        const ARRAY_PARAMS: [ParamId; 7] = [
            ParamId::Vbl,
            ParamId::EffVbl,
            ParamId::BitlineCap,
            ParamId::CellCap,
            ParamId::Vpp,
            ParamId::EffVpp,
            ParamId::SenseAmpDeviceWidth,
        ];
        let array_share = |desc: &dram_core::DramDescription| -> f64 {
            let s = dram_sensitivity::sweep(EvalEngine::global(), desc, 0.2).expect("runs");
            let total: f64 = s.entries.iter().map(|e| e.swing()).sum();
            let array: f64 = s
                .entries
                .iter()
                .filter(|e| ARRAY_PARAMS.contains(&e.param))
                .map(|e| e.swing())
                .sum();
            array / total
        };
        let old = array_share(&dram_scaling::presets::sdr_128m_170nm());
        let new = array_share(&dram_scaling::presets::ddr5_16g_18nm());
        assert!(
            old > new,
            "array sensitivity share should decline: {old:.3} -> {new:.3}"
        );
    }
}
