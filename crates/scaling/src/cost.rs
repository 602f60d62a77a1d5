//! Manufacturing cost model (§II): "The three most important factors for
//! cost are the cost of a wafer, the yield and the die area."
//!
//! Commodity DRAM economics drive every §II constraint the power model
//! encodes (few metal levels, slow transistors, maximum array
//! efficiency), so the reproduction prices them: dies per 300 mm wafer,
//! a Murphy-style defect yield, per-node wafer cost, and cost per bit.

use dram_units::SquareMeters;

use crate::node::TechNode;

/// Wafer diameter assumed throughout (300 mm became mainstream across
/// this roadmap).
pub const WAFER_DIAMETER_MM: f64 = 300.0;

/// Edge exclusion of the wafer, mm.
pub const EDGE_EXCLUSION_MM: f64 = 3.0;

/// Defect density in defects/cm², roughly constant for a mature DRAM
/// process (process maturity is folded into the per-node wafer cost).
pub const DEFECT_DENSITY_PER_CM2: f64 = 0.25;

/// Relative wafer processing cost of a node (the 55 nm wafer = 1.0).
/// Costs rise with lithography complexity: roughly 12 % per node, with a
/// step at the immersion/multi-patterning transitions.
#[must_use]
pub fn relative_wafer_cost(node: &TechNode) -> f64 {
    // Exponential growth in process steps as features shrink.
    let base = (55.0 / node.feature_nm).powf(0.45);
    // Multi-patterning surcharge below 40 nm.
    let surcharge = if node.feature_nm < 40.0 { 1.25 } else { 1.0 };
    base * surcharge
}

/// Gross dies per wafer for a die area (simple area/ring model with a
/// scribe allowance).
#[must_use]
pub fn gross_dies_per_wafer(die: SquareMeters) -> f64 {
    let usable_radius_mm = WAFER_DIAMETER_MM / 2.0 - EDGE_EXCLUSION_MM;
    let wafer_area_mm2 = core::f64::consts::PI * usable_radius_mm * usable_radius_mm;
    // Scribe-line allowance, then subtract the perimeter ring of
    // partial dies.
    let die_mm2 = die.square_millimeters() * 1.04;
    let edge_loss = core::f64::consts::PI * WAFER_DIAMETER_MM / (2.0 * die_mm2.sqrt());
    (wafer_area_mm2 / die_mm2 - edge_loss).max(0.0)
}

/// Murphy yield model: fraction of good dies at the standard defect
/// density.
#[must_use]
pub fn yield_fraction(die: SquareMeters) -> f64 {
    let a_d0 = die.square_millimeters() / 100.0 * DEFECT_DENSITY_PER_CM2;
    let inner = (1.0 - (-a_d0).exp()) / a_d0.max(1e-12);
    inner * inner
}

/// Cost breakdown of one device generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostReport {
    /// Relative wafer cost (55 nm = 1.0).
    pub wafer_cost: f64,
    /// Gross dies per wafer.
    pub gross_dies: f64,
    /// Yield fraction.
    pub yield_fraction: f64,
    /// Relative cost per die.
    pub cost_per_die: f64,
    /// Relative cost per gigabit (the commodity metric).
    pub cost_per_gbit: f64,
}

/// Computes the cost report for a node given its die area and density.
#[must_use]
pub fn cost_report(node: &TechNode, die: SquareMeters) -> CostReport {
    let wafer_cost = relative_wafer_cost(node);
    let gross_dies = gross_dies_per_wafer(die);
    let y = yield_fraction(die);
    let cost_per_die = wafer_cost / (gross_dies * y).max(1e-9);
    let gbit = node.density_mbit as f64 / 1024.0;
    CostReport {
        wafer_cost,
        gross_dies,
        yield_fraction: y,
        cost_per_die,
        cost_per_gbit: cost_per_die / gbit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trends::roadmap_models;
    use dram_core::EvalEngine;

    #[test]
    fn dies_per_wafer_magnitude() {
        // A 50 mm² die on a 300 mm wafer: ~1200 gross dies.
        let dies = gross_dies_per_wafer(SquareMeters::from_mm2(50.0));
        assert!((900.0..1500.0).contains(&dies), "{dies}");
        // Bigger dies, fewer of them.
        assert!(
            gross_dies_per_wafer(SquareMeters::from_mm2(100.0))
                < gross_dies_per_wafer(SquareMeters::from_mm2(50.0)) / 1.8
        );
    }

    #[test]
    fn yield_declines_with_area() {
        let small = yield_fraction(SquareMeters::from_mm2(30.0));
        let big = yield_fraction(SquareMeters::from_mm2(90.0));
        assert!(small > big);
        assert!((0.5..1.0).contains(&small), "{small}");
        assert!(big > 0.3, "{big}");
    }

    #[test]
    fn cost_per_bit_falls_across_the_roadmap() {
        // The economic engine of the whole roadmap: despite rising wafer
        // cost, shrinking cells cut cost per bit every few generations.
        // Evaluate the roadmap concurrently through the engine.
        let engine = EvalEngine::new().threads(4);
        let mut reports = Vec::new();
        for (node, dram) in roadmap_models(&engine) {
            reports.push((node, cost_report(&node, dram.area().die)));
        }
        let first = reports.first().unwrap().1.cost_per_gbit;
        let last = reports.last().unwrap().1.cost_per_gbit;
        assert!(
            first / last > 20.0,
            "cost per Gbit should collapse over 18 years: {first} -> {last}"
        );
        // And wafer cost rises monotonically.
        for pair in reports.windows(2) {
            assert!(pair[1].1.wafer_cost >= pair[0].1.wafer_cost * 0.999);
        }
    }

    #[test]
    fn reference_wafer_cost_is_unity() {
        let node = crate::node::REFERENCE_NODE;
        assert!((relative_wafer_cost(&node) - 1.0).abs() < 1e-12);
    }
}
