//! Scheme transformations: how each §V proposal modifies the device
//! description and/or rescales the affected charge contributors.
//!
//! Two mechanisms are used, matching how the paper evaluates proposals:
//!
//! * **Description edits** where the proposal is expressible in the
//!   Table I inputs (smaller pages, shorter periphery, narrower access) —
//!   the model then recomputes everything from first principles.
//! * **Contributor rescaling** where the proposal changes *how much of*
//!   a structure operates per command (e.g. firing 1 of 32 sub-arrays):
//!   the affected, individually-named charge items of the operation are
//!   scaled by the activation fraction.

use dram_core::{Dram, DramDescription, EvalEngine, ModelError, Operation};
use dram_units::Joules;

use crate::{SchemeEvaluation, CACHE_LINE_BITS, RANK_DEVICES};

/// A §V power-reduction scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// The unmodified commodity device.
    Baseline,
    /// Udipi et al.: activate only `activated_subarrays` of the page's
    /// sub-arrays once the column address is known.
    SelectiveBitlineActivation {
        /// Sub-arrays fired per activate (1 = minimum wordline length).
        activated_subarrays: u32,
    },
    /// Udipi et al.: the whole cache line from a single sub-array.
    SingleSubarrayAccess,
    /// Jeong et al.: segmented main datalines with cut-offs.
    SegmentedDatalines,
    /// Kang et al.: TSV stacking shortens global wiring and periphery.
    TsvStacking,
    /// Zheng et al.: one narrow device serves the whole line.
    MiniRank,
    /// The paper's own sketch: 8:1 page-to-access ratio (512 B page for
    /// a 64 B line).
    ReducedCslRatio,
}

impl Scheme {
    /// All schemes in presentation order (baseline first).
    pub const ALL: [Scheme; 7] = [
        Scheme::Baseline,
        Scheme::SelectiveBitlineActivation {
            activated_subarrays: 1,
        },
        Scheme::SingleSubarrayAccess,
        Scheme::SegmentedDatalines,
        Scheme::TsvStacking,
        Scheme::MiniRank,
        Scheme::ReducedCslRatio,
    ];

    /// Canonical minimum-wordline-length selective activation.
    #[must_use]
    pub fn selective_bitline_activation() -> Self {
        Scheme::SelectiveBitlineActivation {
            activated_subarrays: 1,
        }
    }

    /// Scheme name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Baseline => "baseline commodity",
            Scheme::SelectiveBitlineActivation { .. } => "selective bitline activation",
            Scheme::SingleSubarrayAccess => "single sub-array access",
            Scheme::SegmentedDatalines => "segmented datalines",
            Scheme::TsvStacking => "TSV stacking",
            Scheme::MiniRank => "mini-rank",
            Scheme::ReducedCslRatio => "reduced CSL ratio",
        }
    }

    /// The work proposing the scheme.
    #[must_use]
    pub fn proposed_by(self) -> &'static str {
        match self {
            Scheme::Baseline => "—",
            Scheme::SelectiveBitlineActivation { .. } | Scheme::SingleSubarrayAccess => {
                "Udipi et al., ISCA 2010 [15]"
            }
            Scheme::SegmentedDatalines => "Jeong et al., ISSCC 2009 [8]",
            Scheme::TsvStacking => "Kang et al., JSSC 2010 [9]",
            Scheme::MiniRank => "Zheng et al., MICRO 2008 [14]",
            Scheme::ReducedCslRatio => "this paper, §V",
        }
    }

    fn notes(self) -> &'static str {
        match self {
            Scheme::Baseline => "reference commodity organization",
            Scheme::SelectiveBitlineActivation { .. } => {
                "needs per-segment wordline selects in the on-pitch LWD stripes; \
                 activate is deferred until the column command (latency cost)"
            }
            Scheme::SingleSubarrayAccess => {
                "requires fundamentally rebuilding the array block data path \
                 (today 64:1–128:1 CSL:MDQ); heavy on-pitch area impact"
            }
            Scheme::SegmentedDatalines => {
                "cut-offs live in the off-pitch center stripe: little area impact"
            }
            Scheme::TsvStacking => {
                "models one die of the stack; TSV process cost and yield not included"
            }
            Scheme::MiniRank => {
                "device unchanged; saving comes from activating one device per line \
                 instead of the whole rank, at longer transfer occupancy"
            }
            Scheme::ReducedCslRatio => {
                "frees dense metal-3 tracks for master datalines; needs a 512 B page \
                 organization and differential MDQ pairs"
            }
        }
    }
}

impl core::fmt::Display for Scheme {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Rank-level metrics of an (already transformed) model with optional
/// per-item energy scaling applied to the row path.
pub(crate) fn rank_metrics(dram: &Dram, scheme: Scheme) -> SchemeEvaluation {
    metrics_with_scaling(dram, scheme, &[], 1.0)
}

/// Labels of activate/precharge charge items that scale with the number
/// of fired sub-arrays.
const ROW_FRACTION_LABELS: [&str; 6] = [
    "local wordlines",
    "bitline sensing",
    "cell restore",
    "sense amplifier set lines",
    "set drivers",
    "equalize lines",
];

fn scaled_op_energy(dram: &Dram, op: Operation, labels: &[&str], factor: f64) -> Joules {
    dram.operation_energy(op)
        .items
        .iter()
        .map(|i| {
            if labels.contains(&i.label.as_ref()) {
                i.external * factor
            } else {
                i.external
            }
        })
        .sum()
}

fn metrics_with_scaling(
    dram: &Dram,
    scheme: Scheme,
    row_labels: &[&str],
    row_factor: f64,
) -> SchemeEvaluation {
    let act = scaled_op_energy(dram, Operation::Activate, row_labels, row_factor);
    let pre = scaled_op_energy(dram, Operation::Precharge, row_labels, row_factor);
    let rd = scaled_op_energy(dram, Operation::Read, row_labels, row_factor);
    let line_energy = match scheme {
        // One narrow device does the whole line: one row cycle plus four
        // column bursts.
        Scheme::MiniRank => act + pre + rd * RANK_DEVICES,
        // All rank devices cycle a row and burst once.
        _ => (act + pre + rd) * RANK_DEVICES,
    };
    SchemeEvaluation {
        scheme,
        act_pre_energy: act + pre,
        read_energy: rd,
        energy_per_bit: line_energy / CACHE_LINE_BITS,
        savings: 0.0,
        die_area: dram.area().die,
        area_overhead: 0.0,
        notes: scheme.notes(),
    }
}

/// Applies a scheme and computes its rank metrics (savings/overhead are
/// filled in by the caller against the baseline), with all model
/// construction routed through `engine`'s memoizing cache, so repeated
/// evaluations of the same variant (e.g. the shared baseline) rebuild
/// nothing.
pub(crate) fn apply(
    engine: &EvalEngine,
    base: &DramDescription,
    scheme: Scheme,
) -> Result<SchemeEvaluation, ModelError> {
    match scheme {
        Scheme::Baseline => {
            let dram = engine.model(base)?;
            Ok(rank_metrics(&dram, scheme))
        }
        Scheme::SelectiveBitlineActivation {
            activated_subarrays,
        } => {
            // On-pitch cost: segment selects widen the LWD stripe.
            let mut desc = base.clone();
            desc.floorplan.lwd_stripe_width = desc.floorplan.lwd_stripe_width * 1.3;
            let dram = engine.model(&desc)?;
            let sub_cols = f64::from(dram.geometry().sub_cols);
            let fraction = f64::from(activated_subarrays.max(1)).min(sub_cols) / sub_cols;
            Ok(metrics_with_scaling(
                &dram,
                scheme,
                &ROW_FRACTION_LABELS,
                fraction,
            ))
        }
        Scheme::SingleSubarrayAccess => {
            // All line bits from one sub-array: activate one segment, but
            // pay a wider SA stripe (more switches and local I/O) and a
            // wider LWD stripe.
            let mut desc = base.clone();
            desc.floorplan.sa_stripe_width = desc.floorplan.sa_stripe_width * 1.5;
            desc.floorplan.lwd_stripe_width = desc.floorplan.lwd_stripe_width * 1.3;
            let dram = engine.model(&desc)?;
            let fraction = 1.0 / f64::from(dram.geometry().sub_cols);
            Ok(metrics_with_scaling(
                &dram,
                scheme,
                &ROW_FRACTION_LABELS,
                fraction,
            ))
        }
        Scheme::SegmentedDatalines => {
            // Cut-offs halve the average driven dataline length; the
            // re-drivers remain. Net ~40 % reduction on the center-stripe
            // data bus contributions.
            let dram = engine.model(base)?;
            let labels = ["read data bus", "write data bus", "master datalines"];
            let act = dram.operation_energy(Operation::Activate).external();
            let pre = dram.operation_energy(Operation::Precharge).external();
            let rd = scaled_op_energy(&dram, Operation::Read, &labels, 0.6);
            let line = (act + pre + rd) * RANK_DEVICES;
            Ok(SchemeEvaluation {
                scheme,
                act_pre_energy: act + pre,
                read_energy: rd,
                energy_per_bit: line / CACHE_LINE_BITS,
                savings: 0.0,
                die_area: dram.area().die,
                area_overhead: 0.0,
                notes: scheme.notes(),
            })
        }
        Scheme::TsvStacking => {
            // Shared periphery collapses onto the base die: peripheral
            // blocks and re-drivers shrink, shortening every global run.
            let mut desc = base.clone();
            for sizes in [
                &mut desc.floorplan.horizontal_sizes,
                &mut desc.floorplan.vertical_sizes,
            ] {
                for v in sizes.values_mut() {
                    *v = *v * 0.6;
                }
            }
            for sig in &mut desc.signaling.signals {
                for seg in &mut sig.segments {
                    use dram_core::params::SegmentSpec;
                    let buffer = match seg {
                        SegmentSpec::Between { buffer, .. }
                        | SegmentSpec::Inside { buffer, .. } => buffer,
                    };
                    if let Some(b) = buffer {
                        b.nmos_width = b.nmos_width * 0.6;
                        b.pmos_width = b.pmos_width * 0.6;
                    }
                }
            }
            let dram = engine.model(&desc)?;
            Ok(rank_metrics(&dram, scheme))
        }
        Scheme::MiniRank => {
            let dram = engine.model(base)?;
            Ok(rank_metrics(&dram, scheme))
        }
        Scheme::ReducedCslRatio => {
            // 512 B page: two fewer column bits, two more row bits; the
            // column path carries more bits per CSL per sub-array, and the
            // denser metal-3 usage costs some SA stripe width.
            let mut desc = base.clone();
            if desc.spec.column_address_bits < 3 {
                return Err(ModelError::BadParameter {
                    name: "scheme.reduced_csl",
                    reason: "page too small to reduce further".into(),
                });
            }
            desc.spec.column_address_bits -= 2;
            desc.spec.row_address_bits += 2;
            desc.technology.bits_per_csl_per_subarray *= 4;
            desc.floorplan.sa_stripe_width = desc.floorplan.sa_stripe_width * 1.15;
            let dram = engine.model(&desc)?;
            Ok(rank_metrics(&dram, scheme))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_core::reference::ddr3_1g_x16_55nm;

    #[test]
    fn scheme_names_and_attribution() {
        for s in Scheme::ALL {
            assert!(!s.name().is_empty());
            assert!(!s.proposed_by().is_empty());
            assert_eq!(s.to_string(), s.name());
        }
    }

    #[test]
    fn sba_fraction_is_clamped() {
        let base = ddr3_1g_x16_55nm();
        let huge = apply(
            EvalEngine::global(),
            &base,
            Scheme::SelectiveBitlineActivation {
                activated_subarrays: 10_000,
            },
        )
        .expect("ok");
        let full = apply(EvalEngine::global(), &base, Scheme::Baseline).expect("ok");
        // Activating "everything" through SBA costs at least the baseline
        // row energy (plus the wider stripe).
        assert!(huge.act_pre_energy.joules() >= full.act_pre_energy.joules() * 0.99);
    }

    #[test]
    fn reduced_csl_requires_enough_column_bits() {
        let mut base = ddr3_1g_x16_55nm();
        base.spec.column_address_bits = 2;
        base.spec.row_address_bits += 8;
        assert!(apply(EvalEngine::global(), &base, Scheme::ReducedCslRatio).is_err());
    }

    #[test]
    fn tsv_shrinks_the_die() {
        let base = ddr3_1g_x16_55nm();
        let tsv = apply(EvalEngine::global(), &base, Scheme::TsvStacking).expect("ok");
        let b = apply(EvalEngine::global(), &base, Scheme::Baseline).expect("ok");
        assert!(tsv.die_area < b.die_area);
    }

    #[test]
    fn reduced_csl_page_is_quarter() {
        let base = ddr3_1g_x16_55nm();
        let mut desc = base.clone();
        desc.spec.column_address_bits -= 2;
        desc.spec.row_address_bits += 2;
        desc.technology.bits_per_csl_per_subarray *= 4;
        assert_eq!(desc.spec.page_bits() * 4, base.spec.page_bits());
        assert_eq!(desc.spec.density_bits(), base.spec.density_bits());
    }
}

/// Evaluates complementary §V schemes *stacked*: TSV periphery +
/// selective bitline activation + segmented datalines on the same device
/// — the "co-design" endpoint the paper's conclusion argues for — with
/// model construction routed through `engine`'s memoizing cache.
/// (The reduced-CSL architecture is an *alternative* route to small
/// activation granularity, not a complement: stacking it on top of
/// selective activation adds its column-path cost without further row
/// savings.)
///
/// # Errors
///
/// Returns [`ModelError`] if the combined description fails validation.
pub fn apply_stacked(
    engine: &EvalEngine,
    base: &DramDescription,
) -> Result<SchemeEvaluation, ModelError> {
    // Description-level edits compose: shrink periphery (TSV), widen the
    // LWD stripes for the segment selects.
    let mut desc = base.clone();
    if desc.spec.column_address_bits < 3 {
        return Err(ModelError::BadParameter {
            name: "scheme.stacked",
            reason: "page too small for segment selects".into(),
        });
    }
    for sizes in [
        &mut desc.floorplan.horizontal_sizes,
        &mut desc.floorplan.vertical_sizes,
    ] {
        for v in sizes.values_mut() {
            *v = *v * 0.6;
        }
    }
    desc.floorplan.lwd_stripe_width = desc.floorplan.lwd_stripe_width * 1.3;

    let dram = engine.model(&desc)?;
    // Item-level effects compose on the rebuilt model: fire one
    // sub-array, segment the data buses.
    let fraction = 1.0 / f64::from(dram.geometry().sub_cols);
    let act = scaled_op_energy(&dram, Operation::Activate, &ROW_FRACTION_LABELS, fraction);
    let pre = scaled_op_energy(&dram, Operation::Precharge, &ROW_FRACTION_LABELS, fraction);
    let data_labels = ["read data bus", "write data bus", "master datalines"];
    let rd_row = scaled_op_energy(&dram, Operation::Read, &ROW_FRACTION_LABELS, fraction);
    // Apply the dataline segmentation on top of the row-scaled read.
    let rd_full = dram.operation_energy(Operation::Read).external();
    let rd_segmented = scaled_op_energy(&dram, Operation::Read, &data_labels, 0.6);
    let rd = rd_row + rd_segmented - rd_full;

    let line = (act + pre + rd) * RANK_DEVICES;
    Ok(SchemeEvaluation {
        scheme: Scheme::Baseline, // combined; labeled by the caller
        act_pre_energy: act + pre,
        read_energy: rd,
        energy_per_bit: line / CACHE_LINE_BITS,
        savings: 0.0,
        die_area: dram.area().die,
        area_overhead: 0.0,
        notes: "all §V device-level schemes stacked (co-design endpoint)",
    })
}

#[cfg(test)]
mod stacked_tests {
    use super::*;
    use dram_core::reference::ddr3_1g_x16_55nm;

    #[test]
    fn stacked_schemes_compound() {
        let base = ddr3_1g_x16_55nm();
        let baseline = apply(EvalEngine::global(), &base, Scheme::Baseline).expect("ok");
        let stacked = apply_stacked(EvalEngine::global(), &base).expect("ok");
        let best_single = Scheme::ALL
            .iter()
            .filter(|&&s| s != Scheme::Baseline && s != Scheme::MiniRank)
            .map(|&s| {
                apply(EvalEngine::global(), &base, s)
                    .expect("ok")
                    .energy_per_bit
                    .joules()
            })
            .fold(f64::INFINITY, f64::min);
        // Stacking beats every single device-level scheme.
        assert!(
            stacked.energy_per_bit.joules() < best_single,
            "stacked {} vs best single {}",
            stacked.energy_per_bit.picojoules(),
            best_single * 1e12
        );
        // And saves most of the baseline line energy.
        let saving = 1.0 - stacked.energy_per_bit.joules() / baseline.energy_per_bit.joules();
        assert!(saving > 0.5, "stacked saving {saving}");
    }

    #[test]
    fn stacked_requires_reducible_page() {
        let mut base = ddr3_1g_x16_55nm();
        base.spec.column_address_bits = 2;
        base.spec.row_address_bits += 8;
        assert!(apply_stacked(EvalEngine::global(), &base).is_err());
    }
}
