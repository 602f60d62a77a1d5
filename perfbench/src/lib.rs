//! `perfbench` — the repository benchmark.
//!
//! Four closed-loop workloads drive an in-process `dram-serve` (and, for
//! `routed_warm`, a `dram-route` in front of two nodes) from at most two
//! client connections, check every reply against the library, and report
//! end-to-end figures. A traced run replays each workload's inputs
//! through the public function of every layer under `dram_obs` spans.
//! `README.md` in this directory describes the workloads and metrics.

pub mod client;
pub mod inputs;
pub mod layers;
pub mod load;
pub mod report;
pub mod stats;
pub mod workload;
