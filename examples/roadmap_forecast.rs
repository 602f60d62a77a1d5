//! Walk the technology roadmap from the 170 nm SDR era to the 16 nm DDR5
//! forecast and print each generation's currents, die facts, and energy
//! per bit — the §IV.C trend study (Fig. 11–13).
//!
//! Run with: `cargo run --example roadmap_forecast`

use dram_energy::scaling::trends::energy_reduction_per_generation;
use dram_energy::scaling::{presets, ROADMAP};
use dram_energy::{Dram, EvalEngine, ModelError, Operation};

fn main() -> Result<(), ModelError> {
    println!(
        "{:<22} {:>8} {:>9} {:>9} {:>10} {:>10} {:>7}",
        "device", "die mm²", "IDD0 mA", "IDD4R mA", "pJ/b strm", "pJ/b rand", "array%"
    );
    let mut trend = Vec::new();
    for node in &ROADMAP {
        let dram = Dram::new(presets::preset(node))?;
        let idd = dram.idd();
        let act = dram.operation_energy(Operation::Activate);
        let rd = dram.operation_energy(Operation::Read);
        let mixed_array_share = (act.external().joules() * act.array_share()
            + rd.external().joules() * rd.array_share())
            / (act.external().joules() + rd.external().joules());
        let epb = dram.energy_per_bit_random().picojoules();
        trend.push((node.feature_nm, epb));
        println!(
            "{:<22} {:>8.1} {:>9.1} {:>9.1} {:>10.2} {:>10.2} {:>6.0}%",
            dram.description().name,
            dram.area().die.square_millimeters(),
            idd.idd0.milliamperes(),
            idd.idd4r.milliamperes(),
            dram.energy_per_bit_streaming().picojoules(),
            epb,
            mixed_array_share * 100.0,
        );
    }

    // The Fig. 13 headline: the reduction flattens going forward.
    let t = dram_energy::scaling::trends::energy_trends(EvalEngine::global());
    println!(
        "\nenergy-per-bit reduction per generation: x{:.2} (170→44 nm, paper ~x1.5), \
         x{:.2} (44→16 nm, paper forecast ~x1.2)",
        energy_reduction_per_generation(&t, 170.0, 44.0),
        energy_reduction_per_generation(&t, 44.0, 16.0),
    );
    println!(
        "note the array%% column: power share migrates from the cell array to\n\
         wiring and peripheral logic over the roadmap (§IV.B, Table III)."
    );
    Ok(())
}
