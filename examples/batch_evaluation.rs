//! Batch-evaluate many device variants on the evaluation engine: build
//! the whole roadmap concurrently, re-run a ±20 % sensitivity sweep and
//! the full interaction matrix on the shared memoizing cache, and show
//! what the cache saved.
//!
//! Run with: `cargo run --release --example batch_evaluation [threads]`

use std::time::Instant;

use dram_energy::model::reference::ddr3_1g_x16_55nm;
use dram_energy::scaling::presets::all_generations;
use dram_energy::sensitivity::{interaction_matrix, sweep};
use dram_energy::EvalEngine;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut engine = EvalEngine::new();
    if let Some(n) = std::env::args().nth(1) {
        engine = engine.threads(n.parse()?);
    }
    println!(
        "evaluation engine: {} worker thread(s)\n",
        engine.thread_count()
    );

    // One model build, timed — the unit of work the engine parallelizes
    // and memoizes.
    let reference = ddr3_1g_x16_55nm();
    let t = Instant::now();
    let dram = engine.model(&reference)?;
    println!(
        "reference model build: {:?} ({} mm² die)",
        t.elapsed(),
        dram.area().die.square_millimeters().round()
    );

    // Batch: every roadmap generation at once. Results come back in
    // input order regardless of the thread count.
    let roadmap = all_generations();
    let t = Instant::now();
    let models = engine.evaluate_many(&roadmap);
    println!(
        "\n{} roadmap generations in {:?}:",
        models.len(),
        t.elapsed()
    );
    for (desc, model) in roadmap.iter().zip(&models) {
        let dram = model.as_ref().expect("roadmap presets are valid");
        println!(
            "  {:24} {:6.1} pJ/bit random",
            desc.name,
            dram.energy_per_bit_random().picojoules()
        );
    }

    // Analyses share the same cache: the sweep's +20 % single-parameter
    // variants are reused by the interaction matrix.
    let t = Instant::now();
    let sweep = sweep(&engine, &reference, 0.2)?;
    println!(
        "\nsensitivity sweep ({} parameters) in {:?}",
        sweep.entries.len(),
        t.elapsed()
    );
    let t = Instant::now();
    let matrix = interaction_matrix(&engine, &reference, 0.2)?;
    println!(
        "interaction matrix ({} in-chart pairs) in {:?}",
        matrix.entries.len(),
        t.elapsed()
    );
    let top = matrix.top(1)[0];
    println!(
        "strongest coupling: {} x {} ({:+.2}%)",
        top.a.name(),
        top.b.name(),
        top.strength() * 100.0
    );

    let stats = engine.cache_stats();
    println!(
        "\nmodel cache: {} builds, {} reuses ({:.0}% hit rate)",
        stats.misses,
        stats.hits,
        100.0 * stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64
    );
    Ok(())
}
