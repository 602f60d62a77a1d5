//! Ablation studies of the commodity-DRAM design choices the paper's §II
//! describes as settled: hierarchical wordlines, bitline length, cell
//! architecture, page size, and prefetch. Each ablation swaps one choice
//! and quantifies what the baseline design buys.

use dram_core::devices::cell_access_gate;
use dram_core::geometry::Geometry;
use dram_core::{Dram, DramDescription, EvalEngine, ModelError, Operation};
use dram_units::{Joules, SquareMeters};

/// One ablation row: the design variant's cost metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Variant name.
    pub name: String,
    /// Activate + precharge energy.
    pub row_energy: Joules,
    /// Random-access energy per bit.
    pub energy_per_bit: Joules,
    /// Die area.
    pub die_area: SquareMeters,
    /// What the variant changes.
    pub detail: String,
}

fn row_for(dram: &Dram, name: impl Into<String>, detail: impl Into<String>) -> AblationRow {
    AblationRow {
        name: name.into(),
        row_energy: dram.operation_energy(Operation::Activate).external()
            + dram.operation_energy(Operation::Precharge).external(),
        energy_per_bit: dram.energy_per_bit_random(),
        die_area: dram.area().die,
        detail: detail.into(),
    }
}

/// Hierarchical vs flat wordlines (the early-1990s transition of refs
/// \[5\], \[6\]): without sub-wordline drivers, one poly wordline spans the
/// whole block, and every activate charges the gates of the *entire*
/// page row directly from the Vpp rail through one driver. Model
/// construction is routed through `engine`'s memoizing cache.
///
/// # Errors
///
/// Returns [`ModelError`] if the baseline is invalid.
pub fn wordline_hierarchy(
    engine: &EvalEngine,
    base: &DramDescription,
) -> Result<Vec<AblationRow>, ModelError> {
    let hierarchical = engine.model(base)?;

    // Flat wordline: same cell array, no LWD stripes. The wordline
    // becomes one poly line of block length; its capacitance is the sum
    // of all cell gates plus poly wire over the full block width.
    let mut flat_desc = base.clone();
    flat_desc.floorplan.lwd_stripe_width = dram_units::Meters::from_um(0.05);
    let geom = Geometry::new(&flat_desc)?;
    let tech = &flat_desc.technology;
    let cells = f64::from(flat_desc.floorplan.bits_per_local_wordline) * f64::from(geom.sub_cols);
    // Unstrapped poly carries several times the strapped specific
    // capacitance; use 2x as a conservative figure.
    let c_flat =
        cell_access_gate(tech) * cells + (tech.c_wire_lwl * 2.0) * geom.master_wordline_length();
    let flat = engine.model(&flat_desc)?;

    // Replace the hierarchical wordline-system energy with the flat line.
    let e = &base.electrical;
    let q_flat = c_flat * e.vpp;
    let flat_wl_external = dram_core::VoltageDomain::Vpp.external_energy(q_flat, e);
    let wl_labels = [
        "master wordline",
        "wordline driver select",
        "local wordlines",
        "master wordline decoder",
    ];
    let act = flat.operation_energy(Operation::Activate);
    let act_flat: Joules = act
        .items
        .iter()
        .filter(|i| !wl_labels.contains(&i.label.as_ref()))
        .map(|i| i.external)
        .sum::<Joules>()
        + flat_wl_external;
    let pre = flat.operation_energy(Operation::Precharge).external();

    let mut flat_row = row_for(&flat, "flat wordline (no hierarchy)", "");
    flat_row.row_energy = act_flat + pre;
    flat_row.detail = format!(
        "one {:.1} mm poly wordline, C = {:.1} pF at Vpp; RC makes this \
         unusable at commodity speeds — the real reason for the transition",
        flat.geometry().master_wordline_length().millimeters(),
        c_flat.picofarads()
    );
    // The energy_per_bit field keeps the hierarchical column path; the
    // row energy delta is the meaningful signal.
    Ok(vec![
        row_for(
            &hierarchical,
            "hierarchical wordlines (baseline)",
            "master wordline in metal, 512-cell poly segments re-driven per stripe",
        ),
        flat_row,
    ])
}

/// Bitline length: 256 vs 512 vs 1024 cells per bitline — the §II
/// trade-off between sense-amplifier stripe area and bitline charge
/// (Table II row "increase in number of cells per bitline"). The
/// variants are evaluated concurrently on `engine`, in deterministic
/// order.
///
/// # Errors
///
/// Returns [`ModelError`] if a variant is internally inconsistent.
pub fn bitline_length(
    engine: &EvalEngine,
    base: &DramDescription,
) -> Result<Vec<AblationRow>, ModelError> {
    let base_bits = f64::from(base.floorplan.bits_per_bitline);
    let mut variants = Vec::new();
    for bits in [256u32, 512, 1024] {
        let mut desc = base.clone();
        desc.floorplan.bits_per_bitline = bits;
        // Bitline capacitance scales with its length; the cell-junction
        // part dominates, so scale linearly.
        desc.technology.bitline_cap = desc.technology.bitline_cap * (f64::from(bits) / base_bits);
        // Rows per bank must stay divisible.
        if !desc.spec.rows_per_bank().is_multiple_of(u64::from(bits)) {
            continue;
        }
        variants.push((bits, desc));
    }
    engine
        .map(&variants, |(bits, desc)| {
            let dram = engine.model(desc)?;
            let stripes = dram.geometry().sub_rows + 1;
            Ok(row_for(
                &dram,
                format!("{bits} cells per bitline"),
                format!(
                    "{stripes} SA stripes per bank, C_bl = {:.0} fF",
                    dram.description().technology.bitline_cap.femtofarads()
                ),
            ))
        })
        .into_iter()
        .collect()
}

/// Page size: the activate granularity (coladd ± k with rowadd ∓ k keeps
/// density constant) — the §V motivation quantified. The variants are
/// evaluated concurrently on `engine`, in deterministic order.
///
/// # Errors
///
/// Returns [`ModelError`] if a variant is internally inconsistent.
pub fn page_size(
    engine: &EvalEngine,
    base: &DramDescription,
) -> Result<Vec<AblationRow>, ModelError> {
    let mut variants = Vec::new();
    for shift in [-2i32, -1, 0, 1] {
        let mut desc = base.clone();
        let col = i64::from(desc.spec.column_address_bits) + i64::from(shift);
        let row = i64::from(desc.spec.row_address_bits) - i64::from(shift);
        if col < 7 || row < 10 {
            continue;
        }
        desc.spec.column_address_bits = u32::try_from(col).expect("in range");
        desc.spec.row_address_bits = u32::try_from(row).expect("in range");
        if !desc
            .spec
            .page_bits()
            .is_multiple_of(u64::from(desc.floorplan.bits_per_local_wordline))
        {
            continue;
        }
        if !desc
            .spec
            .rows_per_bank()
            .is_multiple_of(u64::from(desc.floorplan.bits_per_bitline))
        {
            continue;
        }
        variants.push(desc);
    }
    engine
        .map(&variants, |desc| {
            let dram = engine.model(desc)?;
            let page = dram.description().spec.page_bits();
            Ok(row_for(
                &dram,
                format!("{} B page", page / 8),
                format!("{} sub-arrays per activate", dram.geometry().sub_cols),
            ))
        })
        .into_iter()
        .collect()
}

/// Cell architecture: folded 8F² vs open 6F² vs vertical 4F² at the same
/// node (the Table II structural transitions). The variants are
/// evaluated concurrently on `engine`, in deterministic order.
///
/// # Errors
///
/// Returns [`ModelError`] if a variant is internally inconsistent.
pub fn cell_architecture(
    engine: &EvalEngine,
    base: &DramDescription,
) -> Result<Vec<AblationRow>, ModelError> {
    use dram_core::params::BitlineArchitecture;
    // Feature size from the bitline pitch (2F in all three architectures).
    let feature = base.floorplan.bitline_pitch * 0.5;
    let mut variants = Vec::new();
    for (arch, label) in [
        (BitlineArchitecture::Folded, "folded 8F²"),
        (BitlineArchitecture::Open, "open 6F²"),
        (BitlineArchitecture::Vertical4F2, "vertical 4F²"),
    ] {
        let mut desc = base.clone();
        desc.floorplan.bitline_architecture = arch;
        // Cell pitch along the bitline: 2F for folded (cells every other
        // crossing make up the 8F²) and 4F², 3F for open 6F².
        desc.floorplan.wordline_pitch = match arch {
            BitlineArchitecture::Open => feature * 3.0,
            _ => feature * 2.0,
        };
        // Folded pairs run side by side: slightly more bitline coupling.
        if arch == BitlineArchitecture::Folded {
            desc.technology.bitline_cap = desc.technology.bitline_cap * 1.15;
        }
        variants.push((arch, label, desc));
    }
    engine
        .map(&variants, |(arch, label, desc)| {
            let dram = engine.model(desc)?;
            Ok(row_for(
                &dram,
                *label,
                format!(
                    "cell {:.0} F², array efficiency {:.0}%",
                    arch.cell_area_f2(),
                    dram.area().array_efficiency() * 100.0
                ),
            ))
        })
        .into_iter()
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
    fn hierarchy_saves_wordline_energy_and_costs_area() {
        let rows = wordline_hierarchy(EvalEngine::global(), &base()).expect("runs");
        assert_eq!(rows.len(), 2);
        let (hier, flat) = (&rows[0], &rows[1]);
        // The flat wordline moves more charge at Vpp per activate...
        assert!(
            flat.row_energy > hier.row_energy,
            "flat {} vs hierarchical {}",
            flat.row_energy,
            hier.row_energy
        );
        // ...but the hierarchy costs LWD stripe area.
        assert!(hier.die_area > flat.die_area);
    }

    #[test]
    fn longer_bitlines_trade_area_for_energy() {
        let rows = bitline_length(EvalEngine::global(), &base()).expect("runs");
        assert_eq!(rows.len(), 3);
        // Energy grows with bitline length...
        assert!(rows[0].row_energy < rows[1].row_energy);
        assert!(rows[1].row_energy < rows[2].row_energy);
        // ...while die area shrinks (fewer SA stripes).
        assert!(rows[0].die_area > rows[1].die_area);
        assert!(rows[1].die_area > rows[2].die_area);
    }

    #[test]
    fn smaller_pages_cut_row_energy() {
        let rows = page_size(EvalEngine::global(), &base()).expect("runs");
        assert!(rows.len() >= 3);
        for pair in rows.windows(2) {
            assert!(
                pair[0].row_energy < pair[1].row_energy,
                "{} vs {}",
                pair[0].name,
                pair[1].name
            );
        }
    }

    #[test]
    fn parallel_ablations_match_serial_bit_for_bit() {
        let e1 = EvalEngine::new().threads(1);
        let e8 = EvalEngine::new().threads(8);
        let runs = [
            (
                wordline_hierarchy(&e1, &base()),
                wordline_hierarchy(&e8, &base()),
            ),
            (bitline_length(&e1, &base()), bitline_length(&e8, &base())),
            (page_size(&e1, &base()), page_size(&e8, &base())),
            (
                cell_architecture(&e1, &base()),
                cell_architecture(&e8, &base()),
            ),
        ];
        for (serial, parallel) in runs {
            let (serial, parallel) = (serial.expect("ok"), parallel.expect("ok"));
            assert_eq!(serial.len(), parallel.len());
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.name, b.name);
                assert_eq!(
                    a.row_energy.joules().to_bits(),
                    b.row_energy.joules().to_bits()
                );
                assert_eq!(
                    a.energy_per_bit.joules().to_bits(),
                    b.energy_per_bit.joules().to_bits()
                );
            }
        }
    }

    #[test]
    fn denser_cells_shrink_the_die() {
        let rows = cell_architecture(EvalEngine::global(), &base()).expect("runs");
        assert_eq!(rows.len(), 3);
        // folded > open > 4F² in die area.
        assert!(rows[0].die_area > rows[1].die_area);
        assert!(rows[1].die_area > rows[2].die_area);
    }
}
