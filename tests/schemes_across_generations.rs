//! §V schemes evaluated across technology generations: where each scheme
//! pays off shifts with the array-vs-periphery power balance of §IV.B.

use dram_energy::scaling::presets::preset;
use dram_energy::scaling::{TechNode, ROADMAP};
use dram_energy::schemes::{evaluate, Scheme};
use dram_energy::EvalEngine;

fn savings(node: &TechNode, scheme: Scheme) -> f64 {
    evaluate(EvalEngine::global(), &preset(node), scheme)
        .expect("scheme evaluates")
        .savings
}

/// Selective bitline activation attacks activate energy, so its saving
/// tracks the (declining) row-operation share: biggest on the old
/// array-dominated devices.
#[test]
fn selective_activation_saving_declines_over_generations() {
    let old = savings(
        TechNode::by_feature(90.0).expect("node"),
        Scheme::selective_bitline_activation(),
    );
    let new = savings(
        TechNode::by_feature(18.0).expect("node"),
        Scheme::selective_bitline_activation(),
    );
    assert!(old > 0.3, "old saving {old}");
    assert!(new > 0.05, "new saving {new}");
    assert!(
        old > new,
        "row-granularity saving should decline: {old} -> {new}"
    );
}

/// Segmented datalines attack the column path, whose share grows — the
/// opposite trend.
#[test]
fn segmented_datalines_saving_grows_over_generations() {
    let old = savings(
        TechNode::by_feature(90.0).expect("node"),
        Scheme::SegmentedDatalines,
    );
    let new = savings(
        TechNode::by_feature(18.0).expect("node"),
        Scheme::SegmentedDatalines,
    );
    assert!(new > old, "column-path saving should grow: {old} -> {new}");
}

/// Every scheme keeps saving energy on every roadmap node it applies to.
#[test]
fn schemes_save_on_every_generation() {
    for node in &ROADMAP {
        for scheme in [
            Scheme::selective_bitline_activation(),
            Scheme::SegmentedDatalines,
            Scheme::MiniRank,
        ] {
            let s = savings(node, scheme);
            assert!(s > 0.0, "{}: {} saves {s}", node.feature_nm, scheme.name());
        }
    }
}

/// The stacked co-design device beats the strongest single device-level
/// scheme on the reference generation.
#[test]
fn stacked_codesign_dominates_on_reference_node() {
    let base = preset(TechNode::by_feature(55.0).expect("node"));
    let stacked = dram_energy::schemes::apply_stacked(EvalEngine::global(), &base).expect("stacks");
    for scheme in [
        Scheme::selective_bitline_activation(),
        Scheme::SegmentedDatalines,
        Scheme::TsvStacking,
    ] {
        let single = evaluate(EvalEngine::global(), &base, scheme).expect("evaluates");
        assert!(
            stacked.energy_per_bit < single.energy_per_bit,
            "stacked {} vs {} {}",
            stacked.energy_per_bit,
            scheme.name(),
            single.energy_per_bit
        );
    }
}
