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
    /// The sweep's perturbations: one raised and one lowered edit per
    /// [`ParamId::ALL`] entry, interleaved, so item `i` varies
    /// `ParamId::ALL[i / 2]` and raises it when `i` is even.
    #[must_use]
    pub fn perturbations(variation: f64) -> Vec<Perturbation> {
        ParamId::ALL
            .iter()
            .flat_map(|&param| {
                [
                    Perturbation::single(param, 1.0 + variation),
                    Perturbation::single(param, 1.0 - variation),
                ]
            })
            .collect()
    }

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

/// The baseline mixed-workload power of `desc` (through the engine's
/// memoizing model cache), and each of `perts` as a ratio to it, in list
/// order. The perturbed powers come from the differential fast path
/// ([`EvalEngine::evaluate_perturbations`]): only the build phases each
/// edit dirties re-run, and each power is bit-identical to a fresh
/// [`dram_core::Dram::new`] of the perturbed description.
fn power_ratios(
    engine: &EvalEngine,
    desc: &DramDescription,
    perts: &[Perturbation],
) -> Result<(f64, Vec<f64>), ModelError> {
    let baseline = engine.model(desc)?.mixed_workload_power().power.watts();
    let ratios = engine
        .evaluate_perturbations(desc, perts)?
        .into_iter()
        .map(|p| Ok(p?.power.watts() / baseline))
        .collect::<Result<_, ModelError>>()?;
    Ok((baseline, ratios))
}

/// Runs the sensitivity sweep on a device at the given relative variation
/// (the paper uses ±20 %), on `engine`: [`Sweep::perturbations`] through
/// the differential fast path, reduced in [`ParamId::ALL`] order, so the
/// result is bit-identical at any thread count.
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
    let (baseline, ratios) = power_ratios(engine, desc, &Sweep::perturbations(variation))?;
    let entries = ParamId::ALL
        .iter()
        .zip(ratios.chunks_exact(2))
        .map(|(&param, ratio)| Sensitivity {
            param,
            up: ratio[0] - 1.0,
            down: ratio[1] - 1.0,
        })
        .collect();
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
    use dram_scaling::presets::all_generations;
    use dram_scaling::ROADMAP;

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

    #[test]
    fn sensitivity_walk_keeps_rail_voltages_on_top_at_every_node() {
        // Table III: the rail voltages dominate the ranking for every
        // generation, with Vint at or near the top throughout.
        for (node, desc) in ROADMAP.iter().zip(all_generations()) {
            let s = sweep(EvalEngine::global(), &desc, 0.2).expect("roadmap presets are valid");
            assert!(s.baseline_watts > 0.0, "{node}");
            let ranked = s.top(ParamId::ALL.len());
            assert!(
                matches!(ranked[0].param, ParamId::Vint | ParamId::Vbl),
                "{node}: top is {}",
                ranked[0].param
            );
            let vint_rank = ranked
                .iter()
                .position(|e| e.param == ParamId::Vint)
                .unwrap();
            // The bitline-heavy DDR2 nodes push Vint down a few places,
            // but it never leaves the top of the chart.
            assert!(vint_rank < 4, "{node}: Vint rank {vint_rank}");
            for e in &ranked {
                assert!(e.swing() >= 0.0, "{node}: {}", e.param);
            }
        }
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

/// The full pairwise interaction matrix over the in-chart parameters.
///
/// All ~N²/2 in-chart parameter pairs take ~700 perturbed models: each
/// parameter raised alone, whose ratio is shared across every pair it
/// appears in, and every pair raised together.
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
    /// The matrix's perturbations: each in-chart parameter raised by the
    /// variation alone, in [`ParamId::ALL`] order, then every unordered
    /// pair raised together, in the order [`Self::entries`] stores them.
    #[must_use]
    pub fn perturbations(variation: f64) -> Vec<Perturbation> {
        let factor = 1.0 + variation;
        let params = chart_params();
        let singles = params.iter().map(|&p| Perturbation::single(p, factor));
        let pairs = params.iter().enumerate().flat_map(|(i, &a)| {
            params[i + 1..]
                .iter()
                .map(move |&b| Perturbation::pair(a, factor, b, factor))
        });
        singles.chain(pairs).collect()
    }

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

/// The parameters spanning the matrix: every in-chart parameter, in
/// [`ParamId::ALL`] order.
fn chart_params() -> Vec<ParamId> {
    ParamId::ALL
        .iter()
        .copied()
        .filter(|p| p.in_pareto_chart())
        .collect()
}

/// Computes the full pairwise interaction matrix at the given variation,
/// on `engine`: [`InteractionMatrix::perturbations`] in one pass through
/// the differential fast path, which re-runs only the dirty build phases
/// per item — the hottest loop in the workspace and the reason the fast
/// path exists. Entries are reduced in list order, so the matrix is
/// bit-identical at any thread count.
///
/// # Errors
///
/// Returns [`ModelError`] if any perturbed description fails validation.
pub fn interaction_matrix(
    engine: &EvalEngine,
    desc: &DramDescription,
    variation: f64,
) -> Result<InteractionMatrix, ModelError> {
    let params = chart_params();
    let (baseline, ratios) =
        power_ratios(engine, desc, &InteractionMatrix::perturbations(variation))?;
    let (singles, joints) = ratios.split_at(params.len());
    let pairs = (0..params.len()).flat_map(|i| (i + 1..params.len()).map(move |j| (i, j)));
    let entries = pairs
        .zip(joints)
        .map(|((i, j), &joint)| Interaction {
            a: params[i],
            b: params[j],
            joint,
            composed: singles[i] * singles[j],
        })
        .collect();
    Ok(InteractionMatrix {
        variation,
        baseline_watts: baseline,
        params,
        entries,
    })
}

#[cfg(test)]
mod interaction_tests {
    use std::sync::OnceLock;

    use super::*;
    use dram_core::reference::ddr3_1g_x16_55nm;

    /// The interaction of `a` and `b` on the reference device at ±20 %,
    /// read from one matrix shared by the tests.
    fn reference_interaction(a: ParamId, b: ParamId) -> Interaction {
        static MATRIX: OnceLock<InteractionMatrix> = OnceLock::new();
        MATRIX
            .get_or_init(|| {
                interaction_matrix(EvalEngine::global(), &ddr3_1g_x16_55nm(), 0.2).expect("runs")
            })
            .of(a, b)
            .expect("in-chart pair")
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
        // A joint edit prices the same whichever parameter applies first.
        let f = 1.2;
        let perts = [
            Perturbation::pair(ParamId::Vint, f, ParamId::LogicGates, f),
            Perturbation::pair(ParamId::LogicGates, f, ParamId::Vint, f),
        ];
        let powers = EvalEngine::global()
            .evaluate_perturbations(&ddr3_1g_x16_55nm(), &perts)
            .expect("base builds");
        let watts = |i: usize| powers[i].clone().expect("valid").power.watts();
        assert!(
            (watts(0) - watts(1)).abs() < 1e-12,
            "{} vs {}",
            watts(0),
            watts(1)
        );
    }
}

#[cfg(test)]
mod engine_tests {
    use super::*;
    use dram_core::reference::ddr3_1g_x16_55nm;
    use dram_core::{Dram, PowerSummary};

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

    /// Each of `perts`, evaluated on the reference device through the
    /// differential fast path at 1 and 8 threads, equals a fresh
    /// `Dram::new` of the perturbed description bit for bit, in every
    /// `PowerSummary` field.
    fn assert_matches_fresh_builds(perts: &[Perturbation]) {
        let desc = ddr3_1g_x16_55nm();
        let bits = |s: &PowerSummary| {
            [
                s.power.watts().to_bits(),
                s.current.amperes().to_bits(),
                s.background.watts().to_bits(),
            ]
        };
        let fresh: Vec<_> = perts
            .iter()
            .map(|p| {
                let mut d = desc.clone();
                p.apply(&mut d);
                bits(&Dram::new(d).expect("valid").mixed_workload_power())
            })
            .collect();
        for n in [1, 8] {
            let fast = EvalEngine::new()
                .threads(n)
                .evaluate_perturbations(&desc, perts)
                .expect("base builds");
            assert_eq!(fast.len(), perts.len());
            for ((got, want), p) in fast.iter().zip(&fresh).zip(perts) {
                let got = got.as_ref().expect("valid");
                assert_eq!(bits(got), *want, "{:?} threads={n}", p.edits());
            }
        }
    }

    /// The sweep's list prices on the differential fast path exactly as
    /// full rebuilds do.
    #[test]
    fn differential_sweep_matches_full_rebuild_bitwise() {
        assert_matches_fresh_builds(&Sweep::perturbations(0.2));
    }

    /// Same contract for the all-pairs interaction matrix's list.
    #[test]
    fn differential_matrix_matches_full_rebuild_bitwise() {
        assert_matches_fresh_builds(&InteractionMatrix::perturbations(0.2));
    }

    /// Each list holds the edits its doc names, in the order its analysis
    /// reduces them.
    #[test]
    fn perturbation_lists_follow_their_documented_order() {
        let v = 0.2;
        let sweep_list = Sweep::perturbations(v);
        assert_eq!(sweep_list.len(), 2 * ParamId::ALL.len());
        for (i, p) in sweep_list.iter().enumerate() {
            let factor = if i % 2 == 0 { 1.0 + v } else { 1.0 - v };
            assert_eq!(p.edits(), [(ParamId::ALL[i / 2], factor)], "item {i}");
        }
        let m = interaction_matrix(EvalEngine::global(), &ddr3_1g_x16_55nm(), v).expect("runs");
        let matrix_list = InteractionMatrix::perturbations(v);
        let (singles, pairs) = matrix_list.split_at(m.params.len());
        for (p, &param) in singles.iter().zip(&m.params) {
            assert_eq!(p.edits(), [(param, 1.0 + v)]);
        }
        assert_eq!(pairs.len(), m.entries.len());
        for (p, e) in pairs.iter().zip(&m.entries) {
            assert_eq!(p.edits(), [(e.a, 1.0 + v), (e.b, 1.0 + v)]);
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
