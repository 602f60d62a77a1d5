//! Developer tool: prints the top-12 sensitivity ranking for the three
//! Table III devices (calibration aid for the ranking shape).
//!
//! Run with: `cargo run -p dram-bench --example rank_check`

use dram_core::EvalEngine;
use dram_sensitivity::sweep;

fn main() {
    for desc in [
        dram_scaling::presets::sdr_128m_170nm(),
        dram_scaling::presets::ddr3_2g_55nm(),
        dram_scaling::presets::ddr5_16g_18nm(),
    ] {
        let s = sweep(EvalEngine::global(), &desc, 0.2).unwrap();
        println!(
            "== {} (baseline {:.0} mW)",
            desc.name,
            s.baseline_watts * 1e3
        );
        for (i, e) in s.top(12).iter().enumerate() {
            println!(
                "  {:2} {:35} {:+.1}% / {:+.1}%",
                i + 1,
                e.param.name(),
                e.down * 100.0,
                e.up * 100.0
            );
        }
    }
}
