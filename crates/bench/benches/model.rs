//! Benches of the model machinery itself: build, current report, pattern
//! evaluation, description parsing, and the sensitivity sweep. These
//! quantify the paper's practicality claim — the model sits between
//! datasheet arithmetic and transistor-level simulation, and a full
//! device evaluation must stay interactive. Uses the in-tree harness so
//! the workspace stays resolvable offline.

use dram_bench::harness::{bench, bench_default, render};
use dram_core::reference::ddr3_1g_x16_55nm;
use dram_core::{Dram, Pattern};
use std::time::Duration;

fn main() {
    let desc = ddr3_1g_x16_55nm();
    let mut measurements = Vec::new();

    measurements.push(bench_default("dram_build", || {
        Dram::new(desc.clone()).expect("valid")
    }));

    let dram = Dram::new(desc.clone()).expect("valid");
    measurements.push(bench_default("idd_report", || dram.idd()));

    let pattern = Pattern::paper_example();
    measurements.push(bench_default("pattern_power", || dram.pattern_power(&pattern)));

    let text = dram_dsl::write(&desc, Some(&pattern));
    measurements.push(bench_default("dsl_parse", || {
        dram_dsl::parse(&text).expect("parses")
    }));

    measurements.push(bench_default("dsl_write", || {
        dram_dsl::write(&desc, Some(&pattern))
    }));

    // Whole-analysis benches: few iterations, larger budget.
    let budget = Duration::from_millis(500);
    measurements.push(bench("analyses/sensitivity_sweep", budget, 10, || {
        dram_sensitivity::sweep(&desc, 0.2).expect("runs")
    }));

    measurements.push(bench("analyses/scheme_evaluation", budget, 10, || {
        dram_schemes::evaluate_all(&desc).expect("runs")
    }));

    measurements.push(bench("analyses/roadmap_energy_trends", budget, 10, || {
        dram_scaling::trends::energy_trends()
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
