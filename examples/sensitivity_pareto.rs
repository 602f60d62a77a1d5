//! Run the §IV.B sensitivity Pareto on the reference device and print the
//! tornado, showing which model inputs deserve the most care — "not only
//! to learn where power can be saved but also which parameters need to be
//! understood well to have an accurate model".
//!
//! [`sweep`] evaluates its perturbations through the engine's
//! differential fast path ([`EvalEngine::evaluate_perturbations`]): one
//! base model, then per parameter only the build phases it dirties
//! re-run. The numbers are bit-identical to full rebuilds.
//!
//! Run with: `cargo run --example sensitivity_pareto [variation_percent]`

use dram_energy::model::reference::ddr3_1g_x16_55nm;
use dram_energy::sensitivity::sweep;
use dram_energy::{EvalEngine, ParamId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let variation: f64 = std::env::args()
        .nth(1)
        .map(|a| a.parse::<f64>())
        .transpose()?
        .unwrap_or(20.0)
        / 100.0;

    let desc = ddr3_1g_x16_55nm();
    let s = sweep(EvalEngine::global(), &desc, variation)?;

    println!(
        "device: {} — mixed activate/read/write/precharge workload, ±{:.0}%\n\
         baseline power: {:.1} mW\n",
        desc.name,
        variation * 100.0,
        s.baseline_watts * 1e3
    );

    let width = 30usize;
    for e in s.top(20) {
        let bar = |x: f64| {
            let n = ((x.abs() * 200.0).round() as usize).min(width);
            "#".repeat(n)
        };
        println!(
            "{:>34}  {:>width$}|{:<width$}  {:+.1}% / {:+.1}%",
            e.param.name(),
            bar(e.down.min(0.0)),
            bar(e.up.max(0.0)),
            e.down * 100.0,
            e.up * 100.0,
            width = width
        );
    }
    let vdd = s.of(ParamId::Vdd).expect("vdd swept");
    println!(
        "\n(Vdd excluded from the chart: swing {:.0}% — exactly proportional, §IV.B)",
        vdd.swing() * 100.0
    );
    Ok(())
}
