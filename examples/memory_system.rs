//! Drive the model with realistic command traces: generate workloads of
//! different intensities with the open-page controller model, account
//! their energy, and evaluate a CKE power-down policy — the system-level
//! view of §V.
//!
//! Run with: `cargo run --example memory_system [accesses]`

use dram_energy::scaling::presets::ddr3_1g_55nm;
use dram_energy::workload::{generate, simulate, PowerDownPolicy, WorkloadSpec};
use dram_energy::{Command, Dram};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let accesses: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse())
        .transpose()?
        .unwrap_or(2000);

    let dram = Dram::new(ddr3_1g_55nm())?;
    println!(
        "device: {}, open-page controller, {accesses} accesses per workload\n",
        dram.description().name
    );

    println!(
        "{:<28} {:>6} {:>6} {:>9} {:>10} {:>10} {:>9} {:>8}",
        "workload", "acts", "r-hit%", "row-E %", "avg power", "pJ/bit", "PD save", "GB/s"
    );
    for (name, spec) in [
        (
            "streaming, 95% row hits",
            WorkloadSpec::streaming(accesses, 1),
        ),
        (
            "mixed, 60% row hits",
            WorkloadSpec {
                accesses,
                read_fraction: 0.6,
                row_hit_rate: 0.6,
                arrival_gap_cycles: 6.0,
                seed: 1,
                policy: dram_energy::workload::PagePolicy::OpenPage,
            },
        ),
        (
            "random, row miss every time",
            WorkloadSpec::random(accesses, 1),
        ),
        (
            "sparse, long idle gaps",
            WorkloadSpec::sparse(accesses / 8, 1),
        ),
    ] {
        let w = generate(&dram, &spec)?;
        let base = simulate(&dram, &w.trace, PowerDownPolicy::NEVER)?;
        let pd = simulate(&dram, &w.trace, PowerDownPolicy::AGGRESSIVE)?;
        let hits = w.stats.row_hits as f64
            / (w.stats.row_hits + w.stats.row_misses + w.stats.row_empty).max(1) as f64;
        let gbps = base.bits / base.duration.seconds() / 1e9;
        println!(
            "{:<28} {:>6} {:>5.0}% {:>8.0}% {:>7.0} mW {:>9.1} {:>8.0}% {:>8.1}",
            name,
            w.trace.count(Command::Activate),
            hits * 100.0,
            base.row_energy_share() * 100.0,
            base.average_power.milliwatts(),
            base.energy_per_bit.picojoules(),
            (1.0 - pd.energy.joules() / base.energy.joules()) * 100.0,
            gbps,
        );
    }

    println!(
        "\nthe row-energy column is what §V's activation-granularity schemes cut;\n\
         the PD-save column is what §V's controller policies (Hur & Lin) cut —\n\
         they attack opposite ends of the utilization spectrum."
    );
    Ok(())
}
