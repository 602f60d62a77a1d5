//! # dram-schemes
//!
//! Quantitative evaluation of the DRAM power-reduction proposals §V of
//! Vogelsang (MICRO 2010) discusses, using the charge-accounting model:
//!
//! * **Selective bitline activation** (Udipi et al. \[15\]): defer the
//!   activate until the column address is known and fire only the needed
//!   wordline segment.
//! * **Single sub-array access** (Udipi et al. \[15\]): fetch the whole
//!   cache line from one sub-array.
//! * **Segmented datalines** (Jeong et al. \[8\]): cut-offs in the center
//!   stripe minimize active dataline length.
//! * **TSV stacking** (Kang et al. \[9\]): 3-D stacking shortens global
//!   wiring and shrinks the shared periphery.
//! * **Mini-rank** (Zheng et al. \[14\]): narrow the per-access data path
//!   so fewer devices activate per cache line.
//! * **Reduced CSL ratio** (the paper's own §V sketch): re-architect the
//!   column path to an 8:1 page-to-access ratio so a 64 B line needs only
//!   a 512 B page.
//!
//! The common metric is the energy to fetch one 64-byte cache line from a
//! random row out of a rank of four x16 devices, expressed per bit, plus
//! the die-area overhead each scheme costs — §V's point being that
//! schemes touching the on-pitch stripes pay significant area.
#![warn(missing_docs)]

use dram_core::{DramDescription, EvalEngine, ModelError};
use dram_units::{Joules, SquareMeters};

pub mod ablations;
mod transforms;

pub use transforms::{apply_stacked, Scheme};

/// Cache line size the rank-level metric fetches.
pub const CACHE_LINE_BITS: f64 = 512.0;

/// Devices forming the evaluated rank (four x16 devices = 64-bit bus).
pub const RANK_DEVICES: f64 = 4.0;

/// Evaluation result for one scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeEvaluation {
    /// The evaluated scheme.
    pub scheme: Scheme,
    /// Activate + precharge energy per device row cycle after the
    /// transformation.
    pub act_pre_energy: Joules,
    /// Read energy per column access after the transformation.
    pub read_energy: Joules,
    /// Rank-level energy per cache-line bit.
    pub energy_per_bit: Joules,
    /// Relative saving versus the baseline (positive = saves energy).
    pub savings: f64,
    /// Die area after the transformation.
    pub die_area: SquareMeters,
    /// Relative die-area overhead versus baseline (positive = larger
    /// die, i.e. higher cost per bit).
    pub area_overhead: f64,
    /// Feasibility notes from the §V discussion.
    pub notes: &'static str,
}

/// Evaluates one scheme against a baseline description on `engine`: the
/// baseline model is fetched from the engine's memoizing cache, so
/// repeated scheme evaluations against the same baseline rebuild it only
/// once.
///
/// # Errors
///
/// Returns [`ModelError`] if the baseline or the transformed description
/// fails validation.
pub fn evaluate(
    engine: &EvalEngine,
    base: &DramDescription,
    scheme: Scheme,
) -> Result<SchemeEvaluation, ModelError> {
    let base_model = engine.model(base)?;
    let baseline = transforms::rank_metrics(&base_model, Scheme::Baseline);
    let result = transforms::apply(engine, base, scheme)?;
    Ok(against_baseline(result, &baseline))
}

fn against_baseline(result: SchemeEvaluation, baseline: &SchemeEvaluation) -> SchemeEvaluation {
    let savings = 1.0 - result.energy_per_bit.joules() / baseline.energy_per_bit.joules();
    let area_overhead = result.die_area.square_meters() / baseline.die_area.square_meters() - 1.0;
    SchemeEvaluation {
        savings,
        area_overhead,
        ..result
    }
}

/// Evaluates the baseline and every scheme, in presentation order, on
/// `engine`: the baseline is built once and shared, and the schemes are
/// evaluated concurrently. Result order (and every bit of every result)
/// matches the serial walk.
///
/// # Errors
///
/// Returns [`ModelError`] if any transformed description fails validation.
pub fn evaluate_all(
    engine: &EvalEngine,
    base: &DramDescription,
) -> Result<Vec<SchemeEvaluation>, ModelError> {
    let base_model = engine.model(base)?;
    let baseline = transforms::rank_metrics(&base_model, Scheme::Baseline);
    engine
        .map(&Scheme::ALL, |&s| transforms::apply(engine, base, s))
        .into_iter()
        .map(|r| r.map(|result| against_baseline(result, &baseline)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_core::reference::ddr3_1g_x16_55nm;

    fn base() -> DramDescription {
        ddr3_1g_x16_55nm()
    }

    #[test]
    fn baseline_has_zero_savings_and_overhead() {
        let e = evaluate(EvalEngine::global(), &base(), Scheme::Baseline).expect("evaluates");
        assert!(e.savings.abs() < 1e-12);
        assert!(e.area_overhead.abs() < 1e-12);
        assert!(e.energy_per_bit.picojoules() > 1.0);
    }

    #[test]
    fn every_scheme_saves_energy() {
        for e in evaluate_all(EvalEngine::global(), &base()).expect("evaluates") {
            if e.scheme == Scheme::Baseline {
                continue;
            }
            assert!(
                e.savings > 0.0,
                "{}: expected savings, got {}",
                e.scheme.name(),
                e.savings
            );
            assert!(e.savings < 0.95, "{}: implausible savings", e.scheme.name());
        }
    }

    #[test]
    fn row_schemes_cut_activation_energy_hard() {
        let sba = evaluate(
            EvalEngine::global(),
            &base(),
            Scheme::selective_bitline_activation(),
        )
        .expect("evaluates");
        let baseline =
            evaluate(EvalEngine::global(), &base(), Scheme::Baseline).expect("evaluates");
        // Firing 1 of 32 sub-arrays must cut act/pre energy by an order
        // of magnitude.
        assert!(
            sba.act_pre_energy.joules() < baseline.act_pre_energy.joules() / 5.0,
            "act+pre {} vs {}",
            sba.act_pre_energy,
            baseline.act_pre_energy
        );
    }

    #[test]
    fn on_pitch_schemes_pay_area() {
        // §V: changes in the SA or LWD stripes have significant area
        // impact; center-stripe (off-pitch) changes are nearly free.
        let sba = evaluate(
            EvalEngine::global(),
            &base(),
            Scheme::selective_bitline_activation(),
        )
        .expect("ok");
        let ssa =
            evaluate(EvalEngine::global(), &base(), Scheme::SingleSubarrayAccess).expect("ok");
        let seg = evaluate(EvalEngine::global(), &base(), Scheme::SegmentedDatalines).expect("ok");
        assert!(
            sba.area_overhead > 0.01,
            "SBA overhead {}",
            sba.area_overhead
        );
        assert!(
            ssa.area_overhead > sba.area_overhead,
            "SSA must cost more than SBA"
        );
        assert!(
            seg.area_overhead < 0.01,
            "segmented datalines are off-pitch: {}",
            seg.area_overhead
        );
    }

    #[test]
    fn mini_rank_saves_mostly_activation() {
        let mr = evaluate(EvalEngine::global(), &base(), Scheme::MiniRank).expect("ok");
        // One device activating instead of four: large rank-level saving.
        assert!(mr.savings > 0.3, "mini-rank savings {}", mr.savings);
        // No die change on the device itself.
        assert!(mr.area_overhead.abs() < 1e-9);
    }

    #[test]
    fn reduced_csl_ratio_shrinks_page_energy() {
        let r = evaluate(EvalEngine::global(), &base(), Scheme::ReducedCslRatio).expect("ok");
        let b = evaluate(EvalEngine::global(), &base(), Scheme::Baseline).expect("ok");
        // A 4x smaller page cuts act/pre close to 4x.
        let ratio = b.act_pre_energy.joules() / r.act_pre_energy.joules();
        assert!((2.0..6.0).contains(&ratio), "act ratio {ratio}");
    }

    #[test]
    fn parallel_evaluation_matches_serial_bit_for_bit() {
        let serial = evaluate_all(&EvalEngine::new().threads(1), &base()).expect("ok");
        let parallel = evaluate_all(&EvalEngine::new().threads(8), &base()).expect("ok");
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.scheme, p.scheme);
            assert_eq!(
                s.energy_per_bit.joules().to_bits(),
                p.energy_per_bit.joules().to_bits()
            );
            assert_eq!(s.savings.to_bits(), p.savings.to_bits());
            assert_eq!(s.area_overhead.to_bits(), p.area_overhead.to_bits());
        }
    }

    #[test]
    fn shared_baseline_is_built_once() {
        let engine = EvalEngine::new().threads(4);
        let _ = evaluate_all(&engine, &base()).expect("ok");
        let stats = engine.cache_stats();
        // The unmodified description is needed by the baseline metrics and
        // by the Baseline / SegmentedDatalines / MiniRank arms; the cache
        // serves all but the first from memory.
        assert!(stats.hits >= 3, "hits {}", stats.hits);
        // A second full evaluation rebuilds nothing.
        let misses = stats.misses;
        let _ = evaluate_all(&engine, &base()).expect("ok");
        assert_eq!(engine.cache_stats().misses, misses);
    }

    #[test]
    fn notes_are_present_for_all_schemes() {
        for e in evaluate_all(EvalEngine::global(), &base()).expect("ok") {
            assert!(!e.notes.is_empty(), "{}", e.scheme.name());
        }
    }
}
