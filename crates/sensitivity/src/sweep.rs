//! The ±variation sensitivity sweep of §IV.B: perturb each parameter,
//! re-evaluate the mixed activate/read/write/precharge workload ("an
//! Idd7 pattern but with half of the read operations replaced by write
//! operations"), and rank by impact.

use dram_core::{DramDescription, EvalEngine, ModelError, Perturbation};

use crate::ParamId;

/// Sensitivity of the workload power to one parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sensitivity {
    /// The perturbed parameter.
    pub param: ParamId,
    /// Relative power change when the parameter is increased by the
    /// variation (e.g. `+0.12` = +12 %).
    pub up: f64,
    /// Relative power change when the parameter is decreased.
    pub down: f64,
}

impl Sensitivity {
    /// Total swing of the tornado bar: `|up − down|`. A parameter the
    /// power is directly proportional to shows a swing of twice the
    /// variation (the paper's "40 %" remark for Vdd at ±20 %).
    #[must_use]
    pub fn swing(&self) -> f64 {
        (self.up - self.down).abs()
    }
}

/// Result of a full sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// The applied relative variation (0.2 = ±20 %).
    pub variation: f64,
    /// Baseline workload power in watts.
    pub baseline_watts: f64,
    /// Per-parameter sensitivities, in [`ParamId::ALL`] order.
    pub entries: Vec<Sensitivity>,
}

impl Sweep {
    /// Entries sorted by descending swing (the Pareto order of Fig. 10).
    #[must_use]
    pub fn ranked(&self) -> Vec<Sensitivity> {
        let mut v = self.entries.clone();
        v.sort_by(|a, b| b.swing().total_cmp(&a.swing()));
        v
    }

    /// The top `n` chart parameters (Vdd excluded, as in the paper's
    /// Fig. 10 / Table III).
    #[must_use]
    pub fn top(&self, n: usize) -> Vec<Sensitivity> {
        self.ranked()
            .into_iter()
            .filter(|s| s.param.in_pareto_chart())
            .take(n)
            .collect()
    }

    /// Looks up one parameter's sensitivity.
    #[must_use]
    pub fn of(&self, param: ParamId) -> Option<Sensitivity> {
        self.entries.iter().copied().find(|s| s.param == param)
    }

    /// Aggregate swing per Table I parameter group, as a share of the
    /// total swing (Vdd excluded, as in the chart).
    #[must_use]
    pub fn category_shares(&self) -> Vec<(crate::ParamCategory, f64)> {
        use std::collections::BTreeMap;
        let mut totals: BTreeMap<&'static str, (crate::ParamCategory, f64)> = BTreeMap::new();
        let mut grand = 0.0;
        for e in &self.entries {
            if !e.param.in_pareto_chart() {
                continue;
            }
            let cat = e.param.category();
            let key = match cat {
                crate::ParamCategory::Electrical => "electrical",
                crate::ParamCategory::Technology => "technology",
                crate::ParamCategory::Floorplan => "floorplan",
                crate::ParamCategory::Logic => "logic",
                crate::ParamCategory::Signaling => "signaling",
            };
            totals.entry(key).or_insert((cat, 0.0)).1 += e.swing();
            grand += e.swing();
        }
        totals
            .into_values()
            .map(|(cat, swing)| (cat, if grand > 0.0 { swing / grand } else { 0.0 }))
            .collect()
    }
}

/// Evaluates the sensitivity metric — mixed-workload power — through the
/// engine's memoizing model cache.
fn power_of(engine: &EvalEngine, desc: &DramDescription) -> Result<f64, ModelError> {
    Ok(engine.model(desc)?.mixed_workload_power().power.watts())
}

/// Applies one multiplicative perturbation to a fresh copy of `desc`.
fn perturbed(desc: &DramDescription, param: ParamId, factor: f64) -> DramDescription {
    let mut d = desc.clone();
    param.apply(&mut d, factor);
    d
}

/// Runs the sensitivity sweep on a device at the given relative variation
/// (the paper uses ±20 %), on `engine`.
///
/// The 2×|[`ParamId::ALL`]| perturbations evaluate through the engine's
/// differential fast path ([`EvalEngine::evaluate_perturbations`]): only
/// the build phases each parameter dirties re-run, on the
/// struct-of-arrays charge kernel. Entries are reduced in
/// [`ParamId::ALL`] order and every perturbed power is bit-identical to
/// a full rebuild, so the result matches
/// [`sweep_with_full_rebuild`] bit-for-bit at any thread count.
///
/// # Errors
///
/// Returns [`ModelError`] if the base description is invalid or a
/// perturbed description fails validation.
pub fn sweep(
    engine: &EvalEngine,
    desc: &DramDescription,
    variation: f64,
) -> Result<Sweep, ModelError> {
    let baseline = power_of(engine, desc)?;
    // One up and one down variant per parameter, interleaved, so the
    // result index i maps to (ParamId::ALL[i / 2], i % 2 == 0).
    let perts: Vec<Perturbation> = ParamId::ALL
        .iter()
        .flat_map(|&param| {
            [
                Perturbation::single(param, 1.0 + variation),
                Perturbation::single(param, 1.0 - variation),
            ]
        })
        .collect();
    let powers = engine.evaluate_perturbations(desc, &perts)?;

    let mut entries = Vec::with_capacity(ParamId::ALL.len());
    for (i, &param) in ParamId::ALL.iter().enumerate() {
        let up = powers[2 * i].clone()?.power.watts() / baseline - 1.0;
        let down = powers[2 * i + 1].clone()?.power.watts() / baseline - 1.0;
        entries.push(Sensitivity { param, up, down });
    }
    Ok(Sweep {
        variation,
        baseline_watts: baseline,
        entries,
    })
}

/// [`sweep`] through full model rebuilds (one complete
/// [`dram_core::Dram::new`] per perturbation, via the engine's model
/// cache).
///
/// This is the reference path the differential sweep is validated
/// against — benchmarks and CI compare the two for bit-identity and
/// speedup. Production callers should prefer [`sweep`].
///
/// # Errors
///
/// Returns [`ModelError`] if the base description is invalid or a
/// perturbed description fails validation.
pub fn sweep_with_full_rebuild(
    engine: &EvalEngine,
    desc: &DramDescription,
    variation: f64,
) -> Result<Sweep, ModelError> {
    let baseline = power_of(engine, desc)?;
    let descs: Vec<DramDescription> = ParamId::ALL
        .iter()
        .flat_map(|&param| {
            [
                perturbed(desc, param, 1.0 + variation),
                perturbed(desc, param, 1.0 - variation),
            ]
        })
        .collect();
    let powers = engine.map(&descs, |d| power_of(engine, d));

    let mut entries = Vec::with_capacity(ParamId::ALL.len());
    for (i, &param) in ParamId::ALL.iter().enumerate() {
        let up = powers[2 * i].clone()? / baseline - 1.0;
        let down = powers[2 * i + 1].clone()? / baseline - 1.0;
        entries.push(Sensitivity { param, up, down });
    }
    Ok(Sweep {
        variation,
        baseline_watts: baseline,
        entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_core::reference::ddr3_1g_x16_55nm;

    fn reference_sweep() -> Sweep {
        sweep(EvalEngine::global(), &ddr3_1g_x16_55nm(), 0.2).expect("sweep runs")
    }

    #[test]
    fn vdd_swing_is_forty_percent() {
        // "A variation of 40% would mean that the power consumption is
        // directly proportional ... This is only the case for the external
        // supply voltage Vdd" (§IV.B).
        let s = reference_sweep();
        let vdd = s.of(ParamId::Vdd).unwrap();
        assert!(
            (vdd.swing() - 0.40).abs() < 0.02,
            "Vdd swing {}",
            vdd.swing()
        );
        // Every other parameter influences only part of the power.
        for e in &s.entries {
            if e.param != ParamId::Vdd {
                assert!(
                    e.swing() < vdd.swing() + 1e-9,
                    "{} swing {}",
                    e.param,
                    e.swing()
                );
            }
        }
    }

    #[test]
    fn vint_tops_the_chart() {
        // Table III rank 1 for every generation: internal voltage Vint.
        let s = reference_sweep();
        let top = s.top(10);
        assert_eq!(top[0].param, ParamId::Vint, "top is {:?}", top[0].param);
    }

    #[test]
    fn voltages_have_superlinear_effect() {
        // Power goes with V², so +20 % on Vint moves power more than +20 %
        // on a capacitance of the same share.
        let s = reference_sweep();
        let vint = s.of(ParamId::Vint).unwrap();
        assert!(vint.up > 0.0 && vint.down < 0.0);
        assert!(vint.swing() > s.of(ParamId::CWireSignal).unwrap().swing());
    }

    #[test]
    fn known_heavyweights_outrank_minor_knobs() {
        let s = reference_sweep();
        let swing = |p| s.of(p).unwrap().swing();
        assert!(swing(ParamId::BitlineCap) > swing(ParamId::CellCap));
        assert!(swing(ParamId::Vbl) > swing(ParamId::BlToWlShare));
        assert!(swing(ParamId::LogicGates) > swing(ParamId::PredecodeRatio));
    }

    #[test]
    fn efficiencies_move_power_inversely() {
        let s = reference_sweep();
        let eff = s.of(ParamId::EffVpp).unwrap();
        // Better pump -> less power.
        assert!(eff.up < 0.0, "eff up {}", eff.up);
        assert!(eff.down > 0.0, "eff down {}", eff.down);
    }

    #[test]
    fn ranked_is_sorted() {
        let s = reference_sweep();
        let r = s.ranked();
        for pair in r.windows(2) {
            assert!(pair[0].swing() >= pair[1].swing());
        }
        assert_eq!(r.len(), ParamId::ALL.len());
    }

    #[test]
    fn category_shares_sum_to_one() {
        let s = reference_sweep();
        let shares = s.category_shares();
        assert_eq!(shares.len(), 5);
        let total: f64 = shares.iter().map(|(_, v)| v).sum();
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
        // Electrical (the voltages) carries the largest share on DDR3.
        let electrical = shares
            .iter()
            .find(|(c, _)| *c == crate::ParamCategory::Electrical)
            .unwrap()
            .1;
        for (c, v) in &shares {
            assert!(
                electrical >= *v || *c == crate::ParamCategory::Electrical,
                "{c}"
            );
        }
    }

    #[test]
    fn baseline_is_positive() {
        let s = reference_sweep();
        assert!(s.baseline_watts > 0.05 && s.baseline_watts < 2.0);
        assert_eq!(s.variation, 0.2);
    }
}

/// Interaction of two parameters: how far the combined effect of varying
/// both deviates from composing their individual effects.
///
/// For multiplicative charge terms (`Q = C·V`) the model predicts power
/// ratios compose multiplicatively, so `interaction ≈ 0` for independent
/// parameters and grows where parameters multiply into the *same* terms
/// (e.g. a capacitance and the voltage of its rail).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interaction {
    /// First parameter.
    pub a: ParamId,
    /// Second parameter.
    pub b: ParamId,
    /// Power ratio when both are increased together.
    pub joint: f64,
    /// Product of the individual power ratios.
    pub composed: f64,
}

impl Interaction {
    /// Relative deviation of the joint effect from composition:
    /// `joint/composed − 1`.
    #[must_use]
    pub fn strength(&self) -> f64 {
        self.joint / self.composed - 1.0
    }
}

/// Measures the interaction of two parameters at the given variation, on
/// `engine`: the three perturbed models evaluate concurrently.
///
/// # Errors
///
/// Returns [`ModelError`] if any perturbed description fails validation.
pub fn interaction(
    engine: &EvalEngine,
    desc: &DramDescription,
    a: ParamId,
    b: ParamId,
    variation: f64,
) -> Result<Interaction, ModelError> {
    let baseline = power_of(engine, desc)?;
    let factor = 1.0 + variation;

    let perts = [
        Perturbation::single(a, factor),
        Perturbation::single(b, factor),
        Perturbation::pair(a, factor, b, factor),
    ];
    let powers = engine.evaluate_perturbations(desc, &perts)?;
    let ra = powers[0].clone()?.power.watts() / baseline;
    let rb = powers[1].clone()?.power.watts() / baseline;
    let rab = powers[2].clone()?.power.watts() / baseline;

    Ok(Interaction {
        a,
        b,
        joint: rab,
        composed: ra * rb,
    })
}

/// The full pairwise interaction matrix over the in-chart parameters.
///
/// Until the batch engine existed this was too expensive to offer: all
/// ~N²/2 in-chart parameter pairs take ~700 model builds. On the engine
/// the single-parameter ratios are computed once and shared across every
/// pair, and the joint models evaluate in parallel.
#[derive(Debug, Clone, PartialEq)]
pub struct InteractionMatrix {
    /// The applied relative variation.
    pub variation: f64,
    /// Baseline workload power in watts.
    pub baseline_watts: f64,
    /// The parameters spanning the matrix, in [`ParamId::ALL`] order
    /// (Vdd excluded, as in the paper's Fig. 10 / Table III).
    pub params: Vec<ParamId>,
    /// One entry per unordered pair `(params[i], params[j])`, `i < j`,
    /// in lexicographic index order.
    pub entries: Vec<Interaction>,
}

impl InteractionMatrix {
    /// Looks up one pair's interaction (order-insensitive).
    #[must_use]
    pub fn of(&self, a: ParamId, b: ParamId) -> Option<Interaction> {
        self.entries
            .iter()
            .copied()
            .find(|e| (e.a == a && e.b == b) || (e.a == b && e.b == a))
    }

    /// Entries sorted by descending absolute strength.
    #[must_use]
    pub fn ranked(&self) -> Vec<Interaction> {
        let mut v = self.entries.clone();
        v.sort_by(|x, y| y.strength().abs().total_cmp(&x.strength().abs()));
        v
    }

    /// The `n` most strongly interacting pairs.
    #[must_use]
    pub fn top(&self, n: usize) -> Vec<Interaction> {
        self.ranked().into_iter().take(n).collect()
    }
}

/// Computes the full pairwise interaction matrix at the given variation,
/// on `engine`.
///
/// Every pair entry carries exactly the numbers a pairwise
/// [`interaction`] call would produce (same arithmetic, same reduction
/// order), so the matrix agrees bit-for-bit with individual calls. All
/// ~N²/2 evaluations run through the differential fast path
/// ([`EvalEngine::evaluate_perturbations`]), which re-runs only the
/// dirty build phases per pair — this is the hottest loop in the
/// workspace and the reason the fast path exists.
///
/// # Errors
///
/// Returns [`ModelError`] if any perturbed description fails validation.
pub fn interaction_matrix(
    engine: &EvalEngine,
    desc: &DramDescription,
    variation: f64,
) -> Result<InteractionMatrix, ModelError> {
    let baseline = power_of(engine, desc)?;
    let factor = 1.0 + variation;
    let params: Vec<ParamId> = ParamId::ALL
        .iter()
        .copied()
        .filter(|p| p.in_pareto_chart())
        .collect();

    // Single-parameter ratios, shared across every pair they appear in.
    let single_perts: Vec<Perturbation> = params
        .iter()
        .map(|&p| Perturbation::single(p, factor))
        .collect();
    let single_powers = engine.evaluate_perturbations(desc, &single_perts)?;
    let mut singles = Vec::with_capacity(params.len());
    for p in single_powers {
        singles.push(p?.power.watts() / baseline);
    }

    // Joint evaluations for every unordered pair, in parallel.
    let pairs: Vec<(usize, usize)> = (0..params.len())
        .flat_map(|i| (i + 1..params.len()).map(move |j| (i, j)))
        .collect();
    let pair_perts: Vec<Perturbation> = pairs
        .iter()
        .map(|&(i, j)| Perturbation::pair(params[i], factor, params[j], factor))
        .collect();
    let pair_powers = engine.evaluate_perturbations(desc, &pair_perts)?;

    let mut entries = Vec::with_capacity(pairs.len());
    for (&(i, j), power) in pairs.iter().zip(pair_powers) {
        entries.push(Interaction {
            a: params[i],
            b: params[j],
            joint: power?.power.watts() / baseline,
            composed: singles[i] * singles[j],
        });
    }
    Ok(InteractionMatrix {
        variation,
        baseline_watts: baseline,
        params,
        entries,
    })
}

/// [`interaction_matrix`] through full model rebuilds — the reference
/// path benchmarks and CI compare the differential matrix against.
/// Production callers should prefer [`interaction_matrix`].
///
/// # Errors
///
/// Returns [`ModelError`] if any perturbed description fails validation.
pub fn interaction_matrix_with_full_rebuild(
    engine: &EvalEngine,
    desc: &DramDescription,
    variation: f64,
) -> Result<InteractionMatrix, ModelError> {
    let baseline = power_of(engine, desc)?;
    let factor = 1.0 + variation;
    let params: Vec<ParamId> = ParamId::ALL
        .iter()
        .copied()
        .filter(|p| p.in_pareto_chart())
        .collect();

    let single_descs: Vec<DramDescription> =
        params.iter().map(|&p| perturbed(desc, p, factor)).collect();
    let single_powers = engine.map(&single_descs, |d| power_of(engine, d));
    let mut singles = Vec::with_capacity(params.len());
    for p in single_powers {
        singles.push(p? / baseline);
    }

    let pairs: Vec<(usize, usize)> = (0..params.len())
        .flat_map(|i| (i + 1..params.len()).map(move |j| (i, j)))
        .collect();
    let pair_descs: Vec<DramDescription> = pairs
        .iter()
        .map(|&(i, j)| {
            let mut d = desc.clone();
            params[i].apply(&mut d, factor);
            params[j].apply(&mut d, factor);
            d
        })
        .collect();
    let pair_powers = engine.map(&pair_descs, |d| power_of(engine, d));

    let mut entries = Vec::with_capacity(pairs.len());
    for (&(i, j), power) in pairs.iter().zip(pair_powers) {
        entries.push(Interaction {
            a: params[i],
            b: params[j],
            joint: power? / baseline,
            composed: singles[i] * singles[j],
        });
    }
    Ok(InteractionMatrix {
        variation,
        baseline_watts: baseline,
        params,
        entries,
    })
}

#[cfg(test)]
mod interaction_tests {
    use super::*;
    use dram_core::reference::ddr3_1g_x16_55nm;

    /// The interaction of `a` and `b` on the reference device at ±20 %.
    fn reference_interaction(a: ParamId, b: ParamId) -> Interaction {
        let desc = ddr3_1g_x16_55nm();
        interaction(EvalEngine::global(), &desc, a, b, 0.2).expect("runs")
    }

    #[test]
    fn coupled_parameters_interact_positively() {
        // Bitline capacitance and bitline voltage multiply into the same
        // charge terms: raising both beats composing the separate
        // effects.
        let i = reference_interaction(ParamId::BitlineCap, ParamId::Vbl);
        assert!(i.strength() > 0.002, "strength {}", i.strength());
    }

    #[test]
    fn disjoint_parameters_barely_interact() {
        // The constant current sink and the bitline capacitance touch
        // disjoint terms.
        let i = reference_interaction(ParamId::ConstantCurrent, ParamId::BitlineCap);
        assert!(i.strength().abs() < 0.004, "strength {}", i.strength());
    }

    #[test]
    fn interaction_is_symmetric() {
        let ab = reference_interaction(ParamId::Vint, ParamId::LogicGates);
        let ba = reference_interaction(ParamId::LogicGates, ParamId::Vint);
        assert!((ab.joint - ba.joint).abs() < 1e-12);
        assert!((ab.strength() - ba.strength()).abs() < 1e-12);
    }
}

#[cfg(test)]
mod engine_tests {
    use super::*;
    use dram_core::reference::ddr3_1g_x16_55nm;

    /// Parallel sweep output must be bit-for-bit equal to `threads(1)`,
    /// whatever the worker count.
    #[test]
    fn sweep_is_bit_identical_across_thread_counts() {
        let desc = ddr3_1g_x16_55nm();
        let serial = sweep(&EvalEngine::new().threads(1), &desc, 0.2).expect("runs");
        for n in [2, 4, 16] {
            let parallel = sweep(&EvalEngine::new().threads(n), &desc, 0.2).expect("runs");
            assert_eq!(
                serial.baseline_watts.to_bits(),
                parallel.baseline_watts.to_bits()
            );
            for (a, b) in serial.entries.iter().zip(&parallel.entries) {
                assert_eq!(a.param, b.param);
                assert_eq!(a.up.to_bits(), b.up.to_bits(), "{} threads={n}", a.param);
                assert_eq!(
                    a.down.to_bits(),
                    b.down.to_bits(),
                    "{} threads={n}",
                    a.param
                );
            }
        }
    }

    /// Same for the pairwise interaction helper.
    #[test]
    fn interaction_is_bit_identical_across_thread_counts() {
        let desc = ddr3_1g_x16_55nm();
        let serial = interaction(
            &EvalEngine::new().threads(1),
            &desc,
            ParamId::BitlineCap,
            ParamId::Vbl,
            0.2,
        )
        .expect("runs");
        let parallel = interaction(
            &EvalEngine::new().threads(8),
            &desc,
            ParamId::BitlineCap,
            ParamId::Vbl,
            0.2,
        )
        .expect("runs");
        assert_eq!(serial.joint.to_bits(), parallel.joint.to_bits());
        assert_eq!(serial.composed.to_bits(), parallel.composed.to_bits());
    }

    /// A second sweep on the same engine rebuilds nothing.
    #[test]
    fn repeated_sweep_is_fully_cached() {
        let engine = EvalEngine::new();
        let desc = ddr3_1g_x16_55nm();
        let first = sweep(&engine, &desc, 0.2).expect("runs");
        let misses = engine.cache_stats().misses;
        let second = sweep(&engine, &desc, 0.2).expect("runs");
        assert_eq!(
            engine.cache_stats().misses,
            misses,
            "second sweep rebuilt models"
        );
        assert_eq!(first, second);
    }

    /// The matrix spans every unordered in-chart pair exactly once.
    #[test]
    fn matrix_covers_all_in_chart_pairs() {
        let desc = ddr3_1g_x16_55nm();
        let m = interaction_matrix(EvalEngine::global(), &desc, 0.2).expect("runs");
        let n = ParamId::ALL.iter().filter(|p| p.in_pareto_chart()).count();
        assert_eq!(m.params.len(), n);
        assert_eq!(m.entries.len(), n * (n - 1) / 2);
        // Every pair present, order-insensitively, no duplicates.
        for (i, &a) in m.params.iter().enumerate() {
            for &b in &m.params[i + 1..] {
                let hits = m
                    .entries
                    .iter()
                    .filter(|e| (e.a == a && e.b == b) || (e.a == b && e.b == a))
                    .count();
                assert_eq!(hits, 1, "{a} × {b}");
            }
        }
        assert!(
            m.of(ParamId::Vdd, ParamId::Vint).is_none(),
            "Vdd is off-chart"
        );
    }

    /// Matrix entries agree bit-for-bit with pairwise `interaction()`.
    #[test]
    fn matrix_agrees_with_pairwise_interaction() {
        let desc = ddr3_1g_x16_55nm();
        let engine = EvalEngine::new();
        let m = interaction_matrix(&engine, &desc, 0.2).expect("runs");
        // Spot-check a spread of pairs (first, middle, last, and the
        // physically coupled bitline pair) against individual calls.
        let picks = [
            (m.entries[0].a, m.entries[0].b),
            (
                m.entries[m.entries.len() / 2].a,
                m.entries[m.entries.len() / 2].b,
            ),
            (
                m.entries[m.entries.len() - 1].a,
                m.entries[m.entries.len() - 1].b,
            ),
            (ParamId::BitlineCap, ParamId::Vbl),
        ];
        for (a, b) in picks {
            let pairwise = interaction(&engine, &desc, a, b, 0.2).expect("runs");
            let entry = m.of(a, b).expect("pair in matrix");
            assert_eq!(entry.joint.to_bits(), pairwise.joint.to_bits(), "{a} × {b}");
            assert_eq!(
                entry.composed.to_bits(),
                pairwise.composed.to_bits(),
                "{a} × {b}"
            );
        }
    }

    /// The known physics shows up in the matrix: the bitline cap/voltage
    /// coupling ranks far above a disjoint pair.
    #[test]
    fn matrix_ranks_coupled_pairs_above_disjoint_ones() {
        let desc = ddr3_1g_x16_55nm();
        let m = interaction_matrix(EvalEngine::global(), &desc, 0.2).expect("runs");
        let coupled = m.of(ParamId::BitlineCap, ParamId::Vbl).unwrap();
        let disjoint = m.of(ParamId::ConstantCurrent, ParamId::BitlineCap).unwrap();
        assert!(
            coupled.strength().abs() > disjoint.strength().abs(),
            "coupled {} vs disjoint {}",
            coupled.strength(),
            disjoint.strength()
        );
        let top = m.top(5);
        assert_eq!(top.len(), 5);
        for pair in top.windows(2) {
            assert!(pair[0].strength().abs() >= pair[1].strength().abs());
        }
    }

    /// The differential fast path reproduces the full-rebuild sweep
    /// bit-for-bit, at 1 and 8 threads (the tentpole identity contract).
    #[test]
    fn differential_sweep_matches_full_rebuild_bitwise() {
        let desc = ddr3_1g_x16_55nm();
        for n in [1, 8] {
            let fast = sweep(&EvalEngine::new().threads(n), &desc, 0.2).expect("runs");
            let full =
                sweep_with_full_rebuild(&EvalEngine::new().threads(n), &desc, 0.2).expect("runs");
            assert_eq!(fast.baseline_watts.to_bits(), full.baseline_watts.to_bits());
            for (a, b) in fast.entries.iter().zip(&full.entries) {
                assert_eq!(a.param, b.param);
                assert_eq!(a.up.to_bits(), b.up.to_bits(), "{} threads={n}", a.param);
                assert_eq!(
                    a.down.to_bits(),
                    b.down.to_bits(),
                    "{} threads={n}",
                    a.param
                );
            }
        }
    }

    /// Same contract for the all-pairs interaction matrix.
    #[test]
    fn differential_matrix_matches_full_rebuild_bitwise() {
        let desc = ddr3_1g_x16_55nm();
        let fast = interaction_matrix(&EvalEngine::new(), &desc, 0.2).expect("runs");
        let full =
            interaction_matrix_with_full_rebuild(&EvalEngine::new(), &desc, 0.2).expect("runs");
        assert_eq!(fast.params, full.params);
        assert_eq!(fast.entries.len(), full.entries.len());
        for (a, b) in fast.entries.iter().zip(&full.entries) {
            assert_eq!((a.a, a.b), (b.a, b.b));
            assert_eq!(a.joint.to_bits(), b.joint.to_bits(), "{} × {}", a.a, a.b);
            assert_eq!(
                a.composed.to_bits(),
                b.composed.to_bits(),
                "{} × {}",
                a.a,
                a.b
            );
        }
    }

    /// The matrix itself is reproducible across thread counts.
    #[test]
    fn matrix_is_bit_identical_across_thread_counts() {
        let desc = ddr3_1g_x16_55nm();
        let serial = interaction_matrix(&EvalEngine::new().threads(1), &desc, 0.2).expect("runs");
        let parallel = interaction_matrix(&EvalEngine::new().threads(4), &desc, 0.2).expect("runs");
        assert_eq!(serial.entries.len(), parallel.entries.len());
        for (a, b) in serial.entries.iter().zip(&parallel.entries) {
            assert_eq!(a.a, b.a);
            assert_eq!(a.b, b.b);
            assert_eq!(a.joint.to_bits(), b.joint.to_bits(), "{} × {}", a.a, a.b);
            assert_eq!(
                a.composed.to_bits(),
                b.composed.to_bits(),
                "{} × {}",
                a.a,
                a.b
            );
        }
    }
}
