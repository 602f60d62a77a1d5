//! One-shot acceptance self-check: every headline claim of the
//! reproduction, its documented band, the measured value, and a
//! pass/fail verdict — the executive summary of EXPERIMENTS.md.

use dram_core::{Dram, EvalEngine};
use dram_scaling::presets::{ddr3_1g_55nm, ddr3_2g_55nm, ddr5_16g_18nm, sdr_128m_170nm};
use dram_scaling::trends::{energy_reduction_per_generation, energy_trends};
use dram_sensitivity::{sweep, ParamId};

use crate::reports::fig08_09;
use crate::Table;

struct Check {
    claim: &'static str,
    band: String,
    measured: String,
    pass: bool,
}

fn in_band(value: f64, lo: f64, hi: f64) -> bool {
    (lo..=hi).contains(&value)
}

/// Generates the verification summary, evaluating on `engine`.
#[must_use]
pub fn generate(engine: &EvalEngine) -> String {
    let mut checks: Vec<Check> = Vec::new();

    // --- datasheet verification (Fig. 8/9) -----------------------------
    for (claim, points) in [
        (
            "Fig. 8: DDR2 currents inside vendor spread",
            fig08_09::ddr2_points(),
        ),
        (
            "Fig. 9: DDR3 currents inside vendor spread",
            fig08_09::ddr3_points(),
        ),
    ] {
        let ok = points.iter().filter(|p| p.accepted).count();
        let total = points.len();
        checks.push(Check {
            claim,
            band: format!("{total}/{total} points"),
            measured: format!("{ok}/{total}"),
            pass: ok == total,
        });
    }

    // --- sensitivity (Fig. 10, Table III) ------------------------------
    let mut vint_first = true;
    for desc in [sdr_128m_170nm(), ddr3_2g_55nm(), ddr5_16g_18nm()] {
        let s = sweep(engine, &desc, 0.2).expect("sweeps");
        vint_first &= s.top(1)[0].param == ParamId::Vint;
    }
    checks.push(Check {
        claim: "Table III: Vint ranks #1 in all three generations",
        band: "rank 1 of the ±20% Pareto".into(),
        measured: if vint_first {
            "rank 1 everywhere".into()
        } else {
            "NOT rank 1".into()
        },
        pass: vint_first,
    });
    let vdd_swing = sweep(engine, &ddr3_2g_55nm(), 0.2)
        .expect("sweeps")
        .of(ParamId::Vdd)
        .expect("vdd")
        .swing();
    checks.push(Check {
        claim: "Fig. 10: only Vdd is exactly proportional",
        band: "swing 40% ± 1%".into(),
        measured: format!("{:.1}%", vdd_swing * 100.0),
        pass: (vdd_swing - 0.40).abs() < 0.01,
    });

    // --- trends (Fig. 13) ------------------------------------------------
    let trends = energy_trends(engine);
    let hist = energy_reduction_per_generation(&trends, 170.0, 44.0);
    let fore = energy_reduction_per_generation(&trends, 44.0, 16.0);
    checks.push(Check {
        claim: "Fig. 13: historical energy/bit reduction per generation",
        band: "x1.35 — x1.85 (paper ~x1.5)".into(),
        measured: format!("x{hist:.2}"),
        pass: in_band(hist, 1.35, 1.85),
    });
    checks.push(Check {
        claim: "Fig. 13: forecast reduction weaker (flattening)",
        band: "x1.05 — x1.45 and below historical".into(),
        measured: format!("x{fore:.2}"),
        pass: in_band(fore, 1.05, 1.45) && fore < hist,
    });

    // --- die facts (§II, §IV.C) ----------------------------------------
    let dram = Dram::new(ddr3_1g_55nm()).expect("valid");
    let area = dram.area();
    checks.push(Check {
        claim: "§II: SA stripe share of die (DDR3 reference)",
        band: "6% — 16% (paper: 8–15%)".into(),
        measured: format!("{:.1}%", area.sa_share() * 100.0),
        pass: in_band(area.sa_share(), 0.06, 0.16),
    });
    checks.push(Check {
        claim: "§II: LWD stripe share of die (DDR3 reference)",
        band: "3% — 11% (paper: 5–10%)".into(),
        measured: format!("{:.1}%", area.lwd_share() * 100.0),
        pass: in_band(area.lwd_share(), 0.03, 0.11),
    });

    // --- schemes (§V) -----------------------------------------------------
    let evals = dram_schemes::evaluate_all(engine, &ddr3_2g_55nm()).expect("schemes");
    let all_save = evals
        .iter()
        .filter(|e| e.scheme != dram_schemes::Scheme::Baseline)
        .all(|e| e.savings > 0.0);
    checks.push(Check {
        claim: "§V: every proposed scheme saves energy",
        band: "savings > 0 for all six".into(),
        measured: if all_save {
            "all save".into()
        } else {
            "some regress".into()
        },
        pass: all_save,
    });

    // --- render -----------------------------------------------------------
    let mut tbl = Table::new(["claim", "accepted band", "measured", "verdict"]);
    let mut passed = 0;
    for c in &checks {
        tbl.row([
            c.claim.to_string(),
            c.band.clone(),
            c.measured.clone(),
            if c.pass {
                "PASS".into()
            } else {
                "FAIL".to_string()
            },
        ]);
        passed += usize::from(c.pass);
    }
    let mut out = tbl.render();
    out.push_str(&format!(
        "\n{passed}/{} acceptance checks pass. Full details: EXPERIMENTS.md.\n",
        checks.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn all_acceptance_checks_pass() {
        let text = super::generate(dram_core::EvalEngine::global());
        assert!(!text.contains("FAIL"), "{text}");
        assert!(text.contains("acceptance checks pass"));
    }
}
