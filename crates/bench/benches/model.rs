//! Benches of the model machinery itself: build, current report, pattern
//! evaluation, description writing, parsing and quoting, and the
//! sensitivity sweep. These quantify the paper's practicality claim —
//! the model sits between datasheet arithmetic and transistor-level
//! simulation, and a full device evaluation must stay interactive. Uses
//! the in-tree harness so the workspace stays resolvable offline.

use dram_bench::harness::{bench, bench_default, render};
use dram_core::reference::ddr3_1g_x16_55nm;
use dram_core::{Dram, EvalEngine, ParamId, Pattern, Perturbation};
use dram_units::json;
use dram_units::rng::SplitMix64;
use std::time::Duration;

/// The parameters a cold `/v1/evaluate` request of the repository
/// benchmark edits.
const COLD_PARAMS: [ParamId; 8] = [
    ParamId::Vdd,
    ParamId::Vint,
    ParamId::CellCap,
    ParamId::BitlineCap,
    ParamId::CWireSignal,
    ParamId::ToxLogic,
    ParamId::JunctionCapLogic,
    ParamId::SaStripeWidth,
];

fn main() {
    let desc = ddr3_1g_x16_55nm();
    let mut measurements = Vec::new();

    measurements.push(bench_default("dram_build", || {
        Dram::new(desc.clone()).expect("valid")
    }));

    let dram = Dram::new(desc.clone()).expect("valid");
    measurements.push(bench_default("idd_report", || dram.idd()));

    let pattern = Pattern::paper_example();
    measurements.push(bench_default("pattern_power", || {
        dram.pattern_power(&pattern)
    }));

    let text = dram_dsl::write(&desc, Some(&pattern));
    measurements.push(bench_default("dsl_parse", || {
        dram_dsl::parse(&text).expect("parses")
    }));

    measurements.push(bench_default("dsl_write", || {
        dram_dsl::write(&desc, Some(&pattern))
    }));

    // The text a cold request carries: the reference device with three
    // seeded ±5 % edits, whose numbers print with full mantissas.
    let mut rng = SplitMix64::new(1);
    let edits = (0..3)
        .map(|_| (*rng.pick(&COLD_PARAMS), rng.range_f64(0.95, 1.05)))
        .collect();
    let mut perturbed = desc.clone();
    Perturbation::new(edits).apply(&mut perturbed);
    let perturbed_text = dram_dsl::write(&perturbed, None);
    measurements.push(bench_default("perturbed/dsl_write", || {
        dram_dsl::write(&perturbed, None)
    }));
    measurements.push(bench_default("perturbed/dsl_parse", || {
        dram_dsl::parse(&perturbed_text).expect("parses")
    }));
    let mut body = String::new();
    measurements.push(bench_default("perturbed/json_quote", || {
        body.clear();
        json::write_string(&mut body, &perturbed_text);
        body.len()
    }));

    // Whole-analysis benches: few iterations, larger budget.
    let budget = Duration::from_millis(500);
    measurements.push(bench("analyses/sensitivity_sweep", budget, 10, || {
        dram_sensitivity::sweep(EvalEngine::global(), &desc, 0.2).expect("runs")
    }));

    measurements.push(bench("analyses/scheme_evaluation", budget, 10, || {
        dram_schemes::evaluate_all(EvalEngine::global(), &desc).expect("runs")
    }));

    measurements.push(bench("analyses/roadmap_energy_trends", budget, 10, || {
        dram_scaling::trends::energy_trends(EvalEngine::global())
    }));

    measurements.push(bench("analyses/workload_generate_1k", budget, 10, || {
        dram_workload::generate(&dram, &dram_workload::WorkloadSpec::random(1000, 42))
            .expect("generates")
    }));

    let trace = dram_workload::generate(&dram, &dram_workload::WorkloadSpec::random(1000, 42))
        .expect("generates")
        .trace;
    measurements.push(bench("analyses/trace_simulate_1k", budget, 10, || {
        dram_workload::simulate(&dram, &trace, dram_workload::PowerDownPolicy::AGGRESSIVE)
            .expect("generated traces are legal")
    }));

    print!("{}", render(&measurements));
}
