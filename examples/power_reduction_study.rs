//! Evaluate the §V power-reduction proposals on a device of your choice
//! and weigh energy savings against die-area cost.
//!
//! Run with: `cargo run --example power_reduction_study [feature_nm]`
//! (defaults to the 2 Gb DDR3 55 nm device of Table III).

use dram_energy::scaling::presets;
use dram_energy::scaling::TechNode;
use dram_energy::schemes::{evaluate_all, Scheme};
use dram_energy::{EvalEngine, ParamId, Perturbation};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base = match std::env::args().nth(1) {
        Some(arg) => {
            let nm: f64 = arg.parse()?;
            let node =
                TechNode::by_feature(nm).ok_or_else(|| format!("no roadmap node at {nm} nm"))?;
            presets::preset(node)
        }
        None => presets::ddr3_2g_55nm(),
    };
    println!("baseline: {}\n", base.name);

    let engine = EvalEngine::global();
    let evals = evaluate_all(engine, &base)?;
    let baseline_epb = evals
        .iter()
        .find(|e| e.scheme == Scheme::Baseline)
        .expect("baseline present")
        .energy_per_bit;

    println!(
        "{:<30} {:>9} {:>8} {:>10}  proposed by",
        "scheme", "pJ/bit", "saving", "area cost"
    );
    for e in &evals {
        println!(
            "{:<30} {:>9.1} {:>7.0}% {:>9.1}%  {}",
            e.scheme.name(),
            e.energy_per_bit.picojoules(),
            e.savings * 100.0,
            e.area_overhead * 100.0,
            e.scheme.proposed_by()
        );
    }

    // A simple figure of merit: energy saving per percent of die cost
    // (schemes with zero area cost rank by saving alone).
    println!("\nranking by saving per area cost:");
    let mut ranked: Vec<_> = evals
        .iter()
        .filter(|e| e.scheme != Scheme::Baseline && e.savings > 0.0)
        .collect();
    ranked.sort_by(|a, b| {
        let fom =
            |e: &&dram_energy::schemes::SchemeEvaluation| e.savings / e.area_overhead.max(0.002);
        fom(b).total_cmp(&fom(a))
    });
    for (i, e) in ranked.iter().enumerate() {
        println!(
            "  {}. {:<30} ({:.0}% saving vs {:.1}% area)",
            i + 1,
            e.scheme.name(),
            e.savings * 100.0,
            e.area_overhead * 100.0
        );
    }
    println!(
        "\nbaseline energy per cache-line bit: {:.1} pJ (rank of four x16 devices)",
        baseline_epb.picojoules()
    );

    // Beyond the §V schemes: which single model parameter, improved by
    // 20 %, buys the most mixed-workload power? One differential batch
    // answers for all of them at once.
    let baseline_w = engine.model(&base)?.mixed_workload_power().power.watts();
    let knobs: Vec<ParamId> = ParamId::ALL
        .iter()
        .copied()
        .filter(|p| p.in_pareto_chart())
        .collect();
    // "Improved" direction: efficiencies up, everything else down.
    let perts: Vec<Perturbation> = knobs
        .iter()
        .map(|&p| {
            let factor = match p {
                ParamId::EffVint | ParamId::EffVbl | ParamId::EffVpp => 1.2,
                _ => 0.8,
            };
            Perturbation::single(p, factor)
        })
        .collect();
    let powers = engine.evaluate_perturbations(&base, &perts)?;
    let mut savings: Vec<(ParamId, f64)> = Vec::with_capacity(knobs.len());
    for (&p, power) in knobs.iter().zip(powers) {
        savings.push((p, 1.0 - power?.power.watts() / baseline_w));
    }
    savings.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("\ntop single-parameter improvements (±20%, mixed workload):");
    for (i, (p, saving)) in savings.iter().take(5).enumerate() {
        println!("  {}. {:<34} {:.1}% power saving", i + 1, p.name(), saving * 100.0);
    }
    Ok(())
}
