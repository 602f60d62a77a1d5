//! # dram-sensitivity
//!
//! The parameter-sensitivity analysis of Vogelsang (MICRO 2010) §IV.B:
//! vary every Table I model input by ±20 %, re-evaluate the mixed
//! activate/read/write/precharge workload, and rank the parameters by
//! their impact on total power (Fig. 10 tornado chart, Table III top-10
//! ranking).
//!
//! ```
//! use dram_core::reference::ddr3_1g_x16_55nm;
//! use dram_core::EvalEngine;
//! use dram_sensitivity::{sweep, ParamId};
//!
//! # fn main() -> Result<(), dram_core::ModelError> {
//! let s = sweep(EvalEngine::global(), &ddr3_1g_x16_55nm(), 0.2)?;
//! // The paper's headline: the internal voltage tops the ranking.
//! assert_eq!(s.top(1)[0].param, ParamId::Vint);
//! # Ok(())
//! # }
//! ```
#![warn(missing_docs)]

mod sweep;

pub use dram_core::{ParamCategory, ParamId, Perturbation};
pub use sweep::{
    interaction, interaction_matrix, interaction_matrix_with_full_rebuild, sweep,
    sweep_with_full_rebuild, Interaction, InteractionMatrix, Sensitivity, Sweep,
};
