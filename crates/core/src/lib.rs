//! # dram-core
//!
//! A description-driven DRAM power model, reproducing Thomas Vogelsang,
//! *"Understanding the Energy Consumption of Dynamic Random Access
//! Memories"*, MICRO-43, 2010.
//!
//! The model takes a complete [`DramDescription`] — physical floorplan,
//! signaling floorplan, technology, specification and miscellaneous logic
//! blocks (the paper's Table I) — and computes, from first principles
//! (`P = Σ ½·C·V²·f` over every wire and device):
//!
//! * per-operation charge and energy (activate, precharge, read, write,
//!   background clock cycle), itemized by contributor and voltage domain;
//! * datasheet currents (IDD0/2N/3N/4R/4W/5/7);
//! * arbitrary command-loop pattern power (§III.B.4);
//! * energy per bit for streaming and random-access workloads;
//! * die area, array efficiency and stripe-area shares.
//!
//! ## Quickstart
//!
//! ```
//! use dram_core::{Dram, Pattern};
//! use dram_core::reference::ddr3_1g_x16_55nm;
//!
//! # fn main() -> Result<(), dram_core::ModelError> {
//! let dram = Dram::new(ddr3_1g_x16_55nm())?;
//! let idd = dram.idd();
//! assert!(idd.idd4r > idd.idd0);
//!
//! // The paper's example pattern: act nop wrt nop rd nop pre nop.
//! let pattern = Pattern::parse("act nop wrt nop rd nop pre nop")?;
//! let summary = dram.pattern_power(&pattern);
//! assert!(summary.power > summary.background);
//! # Ok(())
//! # }
//! ```
#![warn(missing_docs)]

pub mod area;
pub mod batch;
pub mod charges;
pub mod devices;
mod error;
pub mod geometry;
pub mod lowpower;
mod model;
pub mod params;
pub mod pattern;
pub mod perturb;
pub mod power;
pub mod reference;
pub mod timing;
pub mod voltage;

pub use batch::{content_key, CacheStats, EngineSnapshot, EvalEngine, ModelCache, StableHasher};
pub use error::ModelError;
pub use lowpower::{PowerState, TemperatureRange};
pub use model::{
    evaluate_document, write_evaluate_body, CapacitanceReport, Dram, IddKind, IddReport,
    PowerSummary, REFRESH_COMMANDS_PER_WINDOW,
};
pub use params::DramDescription;
pub use pattern::{Command, Pattern};
pub use perturb::{BuildPhase, DirtySet, ParamCategory, ParamId, Perturbation};
pub use power::{Operation, OperationEnergy};
pub use voltage::VoltageDomain;
