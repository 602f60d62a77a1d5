//! Developer tool: emits a random-workload trace in the `/v1/trace`
//! grammar (`docs/TRACES.md`), for `dram-power --trace` or
//! `POST /v1/trace?preset=ddr3_1g_x16_55nm`. It names no device, so
//! give one with `--preset` or `?preset=`.
//!
//! Run with: `cargo run -p dram-workload --example gen_trace > trace.txt`

fn main() {
    let dram = dram_core::Dram::new(dram_core::reference::ddr3_1g_x16_55nm()).unwrap();
    let w = dram_workload::generate(&dram, &dram_workload::WorkloadSpec::random(100, 1)).unwrap();
    print!("{}", dram_workload::write_trace(&w.trace));
}
