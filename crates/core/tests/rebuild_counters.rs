//! The differential-rebuild counters, read through the process-wide
//! registry exactly as `/metrics` reads them.
//!
//! Own integration binary: the counters are process-global, and any
//! other test that rebuilds a model in the same process would move them
//! between the two reads.

use dram_core::batch::EvalEngine;
use dram_core::perturb::{ParamId, Perturbation};
use dram_core::reference::ddr3_1g_x16_55nm;

#[test]
fn evaluate_perturbations_increments_rebuild_counters() {
    let registry = dram_obs::Registry::global();
    let rebuilds = registry.counter("dram_model_rebuilds_total", "");
    let skipped = registry.counter("dram_rebuild_phases_skipped_total", "");
    let base = ddr3_1g_x16_55nm();
    let engine = EvalEngine::new().threads(1);
    let rebuilds_before = rebuilds.get();
    let skipped_before = skipped.get();
    let perts = vec![
        Perturbation::single(ParamId::Vdd, 1.1), // power-only: 3 skips
        Perturbation::single(ParamId::BitlineCap, 1.1), // charges: 1 skip
    ];
    engine
        .evaluate_perturbations(&base, &perts)
        .expect("base builds");
    assert_eq!(rebuilds.get() - rebuilds_before, 2);
    assert_eq!(skipped.get() - skipped_before, 4);
}
