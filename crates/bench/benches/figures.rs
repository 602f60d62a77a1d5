//! One bench per paper artifact: times the full regeneration of each
//! table and figure (the complete pipeline behind it — presets, model
//! evaluations, sweeps — not just string formatting). Uses the in-tree
//! harness so the workspace stays resolvable offline.

use dram_bench::harness::{bench, render};
use dram_bench::ReportId;
use dram_core::EvalEngine;
use std::time::Duration;

fn main() {
    // The sensitivity figures run hundreds of model evaluations each;
    // keep the per-report budget modest so the full suite stays quick.
    let budget = Duration::from_millis(300);
    let measurements: Vec<_> = ReportId::ALL
        .iter()
        .map(|id| {
            bench(&format!("reports/{}", id.command()), budget, 10, || {
                id.generate(EvalEngine::global())
            })
        })
        .collect();
    print!("{}", render(&measurements));
}
