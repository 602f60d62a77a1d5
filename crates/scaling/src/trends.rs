//! Trend series of §IV.C: voltages (Fig. 11), data rate and row timing
//! (Fig. 12), die area and energy per bit (Fig. 13).
//!
//! Each function returns one row per roadmap node, ready for the bench
//! harness to print as the figure's series.

use std::sync::Arc;

use dram_core::{Dram, EvalEngine, ModelError, ParamId, Perturbation};

use crate::node::{TechNode, ROADMAP};
use crate::presets::all_generations;

/// Builds every roadmap preset through `engine`'s memoizing cache,
/// evaluating the nodes concurrently. Rows follow [`ROADMAP`] order, so
/// the result is bit-identical to a serial walk.
///
/// # Panics
///
/// Panics if a roadmap preset fails to build — the roadmap constants are
/// validated by the preset tests, so this indicates a programming error.
#[must_use]
pub fn roadmap_models(engine: &EvalEngine) -> Vec<(TechNode, Arc<Dram>)> {
    let descs = all_generations();
    let models = engine.map(&descs, |d| {
        engine.model(d).expect("roadmap presets are valid")
    });
    ROADMAP.iter().copied().zip(models).collect()
}

/// One row of the Fig. 11 voltage-trend series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageTrend {
    /// The node.
    pub node: TechNode,
    /// External supply voltage.
    pub vdd: f64,
    /// Internal logic voltage.
    pub vint: f64,
    /// Bitline voltage.
    pub vbl: f64,
    /// Wordline boost voltage.
    pub vpp: f64,
}

/// Fig. 11: voltage trends over the roadmap.
#[must_use]
pub fn voltage_trends() -> Vec<VoltageTrend> {
    ROADMAP
        .iter()
        .map(|n| VoltageTrend {
            node: *n,
            vdd: n.interface.vdd().volts(),
            vint: n.interface.vint().volts(),
            vbl: n.interface.vbl().volts(),
            vpp: n.interface.vpp().volts(),
        })
        .collect()
}

/// One row of the Fig. 12 data-rate and row-timing series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingTrend {
    /// The node.
    pub node: TechNode,
    /// Per-pin data rate in Mb/s.
    pub datarate_mbps: f64,
    /// Row cycle time in ns.
    pub trc_ns: f64,
    /// Activate-to-column delay in ns.
    pub trcd_ns: f64,
    /// Precharge time in ns.
    pub trp_ns: f64,
}

/// Fig. 12: device data rate and row timings over the roadmap.
#[must_use]
pub fn timing_trends() -> Vec<TimingTrend> {
    ROADMAP
        .iter()
        .map(|n| {
            let t = n.interface.timing();
            TimingTrend {
                node: *n,
                datarate_mbps: n.interface.datarate().mbps(),
                trc_ns: t.trc.nanoseconds(),
                trcd_ns: t.trcd.nanoseconds(),
                trp_ns: t.trp.nanoseconds(),
            }
        })
        .collect()
}

/// One row of the Fig. 13 die-area and energy-per-bit series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyTrend {
    /// The node.
    pub node: TechNode,
    /// Die area in mm².
    pub die_mm2: f64,
    /// Streaming (IDD4-style) energy per bit in pJ.
    pub epb_stream_pj: f64,
    /// Random-access (IDD7-style) energy per bit in pJ.
    pub epb_random_pj: f64,
}

/// Fig. 13: die area and energy per bit over the roadmap (evaluates the
/// full power model per node, concurrently on `engine`).
#[must_use]
pub fn energy_trends(engine: &EvalEngine) -> Vec<EnergyTrend> {
    roadmap_models(engine)
        .iter()
        .map(|(node, dram)| EnergyTrend {
            node: *node,
            die_mm2: dram.area().die.square_millimeters(),
            epb_stream_pj: dram.energy_per_bit_streaming().picojoules(),
            epb_random_pj: dram.energy_per_bit_random().picojoules(),
        })
        .collect()
}

/// One row of the sensitivity-over-the-roadmap walk: how strongly each
/// selected parameter moves the mixed-workload power at one node.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityTrend {
    /// The node.
    pub node: TechNode,
    /// Baseline mixed-workload power in watts.
    pub baseline_watts: f64,
    /// Per-parameter tornado swing `|up − down|`, in the order of the
    /// `params` slice passed to [`sensitivity_trends`].
    pub swings: Vec<(ParamId, f64)>,
}

/// Walks the roadmap and, at every node, re-ranks the selected
/// parameters by their ±`variation` power swing — Table III's
/// "ranking stays stable across generations" claim as a series.
///
/// All perturbed evaluations run through the engine's differential fast
/// path ([`EvalEngine::evaluate_perturbations`]): per node only the
/// build phases each parameter dirties re-run, so the walk costs a
/// fraction of `2 × params × nodes` full model builds. Rows follow
/// [`ROADMAP`] order and each node's swings are reduced in `params`
/// order, so the result is bit-identical at any thread count.
///
/// # Errors
///
/// Returns [`ModelError`] if a perturbed description fails validation.
pub fn sensitivity_trends(
    engine: &EvalEngine,
    params: &[ParamId],
    variation: f64,
) -> Result<Vec<SensitivityTrend>, ModelError> {
    let descs = all_generations();
    let mut rows = Vec::with_capacity(descs.len());
    for (node, desc) in ROADMAP.iter().copied().zip(&descs) {
        let baseline = engine.model(desc)?.mixed_workload_power().power.watts();
        let perts: Vec<Perturbation> = params
            .iter()
            .flat_map(|&p| {
                [
                    Perturbation::single(p, 1.0 + variation),
                    Perturbation::single(p, 1.0 - variation),
                ]
            })
            .collect();
        let powers = engine.evaluate_perturbations(desc, &perts)?;
        let mut swings = Vec::with_capacity(params.len());
        for (i, &p) in params.iter().enumerate() {
            let up = powers[2 * i].clone()?.power.watts() / baseline - 1.0;
            let down = powers[2 * i + 1].clone()?.power.watts() / baseline - 1.0;
            swings.push((p, (up - down).abs()));
        }
        rows.push(SensitivityTrend {
            node,
            baseline_watts: baseline,
            swings,
        });
    }
    Ok(rows)
}

/// Average per-generation energy-per-bit reduction factor over a node
/// range (Fig. 13 reports ×1.5 per generation for 2000–2010 and forecasts
/// ×1.2 for 2010–2018).
#[must_use]
pub fn energy_reduction_per_generation(trends: &[EnergyTrend], from_nm: f64, to_nm: f64) -> f64 {
    let slice: Vec<&EnergyTrend> = trends
        .iter()
        .filter(|t| t.node.feature_nm <= from_nm + 0.5 && t.node.feature_nm >= to_nm - 0.5)
        .collect();
    if slice.len() < 2 {
        return 1.0;
    }
    let first = slice.first().unwrap().epb_random_pj;
    let last = slice.last().unwrap().epb_random_pj;
    let steps = (slice.len() - 1) as f64;
    (first / last).powf(1.0 / steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn voltage_trends_decline() {
        let v = voltage_trends();
        assert_eq!(v.len(), ROADMAP.len());
        assert!(v.first().unwrap().vdd > v.last().unwrap().vdd);
        for row in &v {
            assert!(row.vpp > row.vdd);
            assert!(row.vdd >= row.vint && row.vint >= row.vbl);
        }
    }

    #[test]
    fn datarate_grows_much_faster_than_row_timing_improves() {
        let t = timing_trends();
        let rate_gain = t.last().unwrap().datarate_mbps / t.first().unwrap().datarate_mbps;
        let trc_gain = t.first().unwrap().trc_ns / t.last().unwrap().trc_ns;
        assert!(rate_gain > 40.0, "rate gain {rate_gain}");
        assert!(trc_gain < 2.0, "tRC gain {trc_gain}");
    }

    #[test]
    fn energy_per_bit_falls_and_flattens() {
        let e = energy_trends(EvalEngine::global());
        // Historical segment (170 -> 44 nm): strong reduction.
        let hist = energy_reduction_per_generation(&e, 170.0, 44.0);
        // Forecast segment (44 -> 16 nm): weaker reduction — the paper's
        // headline observation (1.5x/gen vs 1.2x/gen).
        let fore = energy_reduction_per_generation(&e, 44.0, 16.0);
        assert!(hist > fore, "reduction should flatten: {hist} vs {fore}");
        assert!(hist > 1.2, "historical reduction too weak: {hist}");
        assert!(fore > 1.0, "forecast must still improve: {fore}");
        assert!(fore < 1.45, "forecast reduction too strong: {fore}");
    }

    #[test]
    fn parallel_energy_trends_match_serial_bit_for_bit() {
        let serial = energy_trends(&EvalEngine::new().threads(1));
        let parallel = energy_trends(&EvalEngine::new().threads(8));
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.node, p.node);
            assert_eq!(s.die_mm2.to_bits(), p.die_mm2.to_bits());
            assert_eq!(s.epb_stream_pj.to_bits(), p.epb_stream_pj.to_bits());
            assert_eq!(s.epb_random_pj.to_bits(), p.epb_random_pj.to_bits());
        }
    }

    #[test]
    fn roadmap_walk_is_memoized() {
        let engine = EvalEngine::new().threads(2);
        let _ = roadmap_models(&engine);
        let misses = engine.cache_stats().misses;
        assert_eq!(misses, ROADMAP.len() as u64);
        let _ = roadmap_models(&engine);
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, misses, "second walk must rebuild nothing");
        assert!(stats.hits >= misses);
    }

    #[test]
    fn sensitivity_walk_keeps_rail_voltages_on_top_at_every_node() {
        // Table III: the rail voltages dominate the ranking for every
        // generation, with Vint at or near the top throughout.
        let params: Vec<ParamId> = ParamId::ALL
            .iter()
            .copied()
            .filter(|p| p.in_pareto_chart())
            .collect();
        let rows = sensitivity_trends(EvalEngine::global(), &params, 0.2)
            .expect("roadmap presets are valid");
        assert_eq!(rows.len(), ROADMAP.len());
        for row in &rows {
            assert!(row.baseline_watts > 0.0, "{}", row.node);
            let mut ranked = row.swings.clone();
            ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
            assert!(
                matches!(
                    ranked[0].0,
                    dram_core::ParamId::Vint | dram_core::ParamId::Vbl
                ),
                "{}: top is {}",
                row.node,
                ranked[0].0
            );
            let vint_rank = ranked
                .iter()
                .position(|(p, _)| *p == dram_core::ParamId::Vint)
                .unwrap();
            // The bitline-heavy DDR2 nodes push Vint down a few places,
            // but it never leaves the top of the chart.
            assert!(vint_rank < 4, "{}: Vint rank {vint_rank}", row.node);
            for (p, swing) in &row.swings {
                assert!(*swing >= 0.0, "{}: {p}", row.node);
            }
        }
    }

    #[test]
    fn sensitivity_walk_is_bit_identical_across_thread_counts() {
        let params = [
            dram_core::ParamId::Vint,
            dram_core::ParamId::BitlineCap,
            dram_core::ParamId::LogicGates,
        ];
        let serial = sensitivity_trends(&EvalEngine::new().threads(1), &params, 0.2).expect("runs");
        let parallel =
            sensitivity_trends(&EvalEngine::new().threads(8), &params, 0.2).expect("runs");
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.node, p.node);
            assert_eq!(s.baseline_watts.to_bits(), p.baseline_watts.to_bits());
            for ((pa, sa), (pb, sb)) in s.swings.iter().zip(&p.swings) {
                assert_eq!(pa, pb);
                assert_eq!(sa.to_bits(), sb.to_bits(), "{}: {pa}", s.node);
            }
        }
    }

    #[test]
    fn die_area_stays_in_commodity_window() {
        for row in energy_trends(EvalEngine::global()) {
            assert!(
                (20.0..=90.0).contains(&row.die_mm2),
                "{}: die {} mm²",
                row.node,
                row.die_mm2
            );
        }
    }
}
