//! The engine's span instrumentation, observed end to end: one profiled
//! model build must produce the full named phase tree that `repro
//! --profile` promises in its Chrome trace.
//!
//! Own integration binary: these tests flip the process-global profiling
//! switch, which must not race the rest of the core test suite.

use dram_core::batch::EvalEngine;
use dram_core::reference::ddr3_1g_x16_55nm;

#[test]
fn profiled_build_records_every_model_phase() {
    let engine = EvalEngine::new().threads(1);
    dram_obs::set_enabled(true);
    let results = engine.evaluate_many(&[ddr3_1g_x16_55nm()]);
    dram_obs::set_enabled(false);
    assert!(results[0].is_ok());
    let profile = dram_obs::drain();

    let expected = [
        "engine.evaluate_many",
        "engine.map",
        "engine.cache_lookup",
        "model.build",
        "model.validate",
        "model.geometry",
        "model.devices",
        "model.charges",
        "model.power",
    ];
    for name in expected {
        assert!(
            profile.spans.iter().any(|s| s.name == name),
            "missing span `{name}` in {:?}",
            profile.spans.iter().map(|s| &s.name).collect::<Vec<_>>()
        );
    }

    // The phase spans parent onto model.build, and model.build is a
    // child of nothing *outside* the engine spans on this thread.
    let build = profile
        .spans
        .iter()
        .find(|s| s.name == "model.build")
        .unwrap();
    for phase in [
        "model.validate",
        "model.geometry",
        "model.devices",
        "model.charges",
        "model.power",
    ] {
        let s = profile.spans.iter().find(|s| s.name == phase).unwrap();
        assert_eq!(s.parent, build.id, "{phase} must nest under model.build");
        assert!(s.start_us >= build.start_us);
        assert!(s.start_us + s.dur_us <= build.start_us + build.dur_us + 1);
    }

    // A second evaluation of the same description is a pure cache hit:
    // lookup span, no build span.
    dram_obs::set_enabled(true);
    let again = engine.evaluate_many(&[ddr3_1g_x16_55nm()]);
    dram_obs::set_enabled(false);
    assert!(again[0].is_ok());
    let profile = dram_obs::drain();
    assert!(profile
        .spans
        .iter()
        .any(|s| s.name == "engine.cache_lookup"));
    assert!(
        !profile.spans.iter().any(|s| s.name == "model.build"),
        "cache hit must not rebuild"
    );

    // The build counter registered itself process-wide.
    let builds = dram_obs::Registry::global()
        .counter("dram_model_builds_total", "")
        .get();
    assert!(builds >= 1);
}
