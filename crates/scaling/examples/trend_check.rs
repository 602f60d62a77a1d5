//! Developer tool: prints the Fig. 13 trend series (die area and energy
//! per bit per roadmap node) plus the per-generation reduction factors.
//!
//! Run with: `cargo run -p dram-scaling --example trend_check`

use dram_core::EvalEngine;
use dram_scaling::trends::{energy_reduction_per_generation, energy_trends};

fn main() {
    let e = energy_trends(EvalEngine::global());
    println!(
        "{:>6} {:>5} {:>8} {:>9} {:>10} {:>10}",
        "nm", "year", "density", "die mm2", "pJ/b strm", "pJ/b rand"
    );
    for t in &e {
        println!(
            "{:>6} {:>5} {:>7}M {:>9.1} {:>10.2} {:>10.2}",
            t.node.feature_nm,
            t.node.year,
            t.node.density_mbit,
            t.die_mm2,
            t.epb_stream_pj,
            t.epb_random_pj
        );
    }
    println!(
        "hist (170->44) x{:.2}/gen",
        energy_reduction_per_generation(&e, 170.0, 44.0)
    );
    println!(
        "fore (44->16)  x{:.2}/gen",
        energy_reduction_per_generation(&e, 44.0, 16.0)
    );
}
