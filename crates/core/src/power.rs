//! Conversion of per-operation charges into energies, currents and power
//! (Fig. 4, steps "Calculate currents of each operation" and "Calculate
//! power of each operation").
//!
//! Internal rail charge becomes external supply energy via the rail
//! voltage and the generator/pump efficiency; external power divided by
//! Vdd gives the currents that datasheets specify.

use std::borrow::Cow;

use dram_units::{Coulombs, Joules, Watts};

use crate::charges::{ContributorGroup, OperationCharges};
use crate::params::Electrical;
use crate::voltage::VoltageDomain;

/// The basic operations of the model (§III.B.4). `ClockCycle` is the
/// background unit: what one control-clock period costs with no command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operation {
    /// Row activate.
    Activate,
    /// Row precharge.
    Precharge,
    /// Column read (one full prefetch burst).
    Read,
    /// Column write (one full prefetch burst).
    Write,
    /// One background clock cycle (no command).
    ClockCycle,
}

impl Operation {
    /// All operations, in display order.
    pub const ALL: [Operation; 5] = [
        Operation::Activate,
        Operation::Precharge,
        Operation::Read,
        Operation::Write,
        Operation::ClockCycle,
    ];

    /// The display name, e.g. `"clock cycle"`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Operation::Activate => "activate",
            Operation::Precharge => "precharge",
            Operation::Read => "read",
            Operation::Write => "write",
            Operation::ClockCycle => "clock cycle",
        }
    }
}

impl core::fmt::Display for Operation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// One contributor's energy within an operation.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyItem {
    /// Contributor name (the charge item's, moved over).
    pub label: Cow<'static, str>,
    /// Functional group.
    pub group: ContributorGroup,
    /// Voltage domain the charge was drawn from.
    pub domain: VoltageDomain,
    /// Charge delivered by the rail.
    pub charge: Coulombs,
    /// Energy at the internal rail (`Q·V`).
    pub internal: Joules,
    /// Energy at the external supply (`Q·V/η`).
    pub external: Joules,
}

/// Energy of one occurrence of an operation, itemized.
#[derive(Debug, Clone, PartialEq)]
pub struct OperationEnergy {
    /// The operation.
    pub op: Operation,
    /// Itemized contributors.
    pub items: Vec<EnergyItem>,
}

impl OperationEnergy {
    /// Converts an operation's charges into energies. The ledger is
    /// consumed, so each item's label moves over without a copy.
    #[must_use]
    pub fn from_charges(op: Operation, charges: OperationCharges, e: &Electrical) -> Self {
        let items = charges
            .items
            .into_iter()
            .map(|c| EnergyItem {
                label: c.label,
                group: c.group,
                domain: c.domain,
                charge: c.charge,
                internal: c.domain.internal_energy(c.charge, e),
                external: c.domain.external_energy(c.charge, e),
            })
            .collect();
        Self { op, items }
    }

    /// Re-runs the charge-to-energy conversion of the stored ledger at a
    /// different operating point — the power phase of a differential
    /// rebuild. Item order, labels, groups and charges are preserved, so
    /// the result is bit-identical to [`OperationEnergy::from_charges`]
    /// on the same charges.
    #[must_use]
    pub fn with_electrical(&self, e: &Electrical) -> Self {
        let items = self
            .items
            .iter()
            .map(|i| EnergyItem {
                label: i.label.clone(),
                group: i.group,
                domain: i.domain,
                charge: i.charge,
                internal: i.domain.internal_energy(i.charge, e),
                external: i.domain.external_energy(i.charge, e),
            })
            .collect();
        Self { op: self.op, items }
    }

    /// Total energy at the external supply for one occurrence.
    #[must_use]
    pub fn external(&self) -> Joules {
        self.items.iter().map(|i| i.external).sum()
    }

    /// Total energy at the internal rails (excluding generator losses).
    #[must_use]
    pub fn internal(&self) -> Joules {
        self.items.iter().map(|i| i.internal).sum()
    }

    /// External energy of one contributor group.
    #[must_use]
    pub fn group_external(&self, group: ContributorGroup) -> Joules {
        self.items
            .iter()
            .filter(|i| i.group == group)
            .map(|i| i.external)
            .sum()
    }

    /// External energy drawn through one voltage domain.
    #[must_use]
    pub fn domain_external(&self, domain: VoltageDomain) -> Joules {
        self.items
            .iter()
            .filter(|i| i.domain == domain)
            .map(|i| i.external)
            .sum()
    }

    /// Share of external energy spent in array-related groups (wordlines,
    /// bitlines, sense amps) — the quantity whose decline over generations
    /// §IV.B highlights.
    #[must_use]
    pub fn array_share(&self) -> f64 {
        let total = self.external();
        if total.joules() == 0.0 {
            return 0.0;
        }
        let array: Joules = self
            .items
            .iter()
            .filter(|i| i.group.is_array_related())
            .map(|i| i.external)
            .sum();
        array.joules() / total.joules()
    }
}

/// Static (command-independent) external power: the constant current sink
/// from Vdd.
#[must_use]
pub fn static_power(e: &Electrical) -> Watts {
    e.constant_current * e.vdd
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charges::ChargeModel;
    use crate::geometry::Geometry;
    use crate::reference::ddr3_1g_x16_55nm;

    #[test]
    fn external_exceeds_internal_energy() {
        let desc = ddr3_1g_x16_55nm();
        let geom = Geometry::new(&desc).expect("valid");
        let m = ChargeModel::new(&desc, &geom);
        let act =
            OperationEnergy::from_charges(Operation::Activate, m.activate(), &desc.electrical);
        assert!(act.external() > act.internal());
        // Efficiency-weighted: the gap is bounded by the worst pump.
        assert!(act.external().joules() < act.internal().joules() / 0.4 + 1e-18);
    }

    #[test]
    fn activate_energy_is_nanojoule_scale() {
        let desc = ddr3_1g_x16_55nm();
        let geom = Geometry::new(&desc).expect("valid");
        let m = ChargeModel::new(&desc, &geom);
        let act =
            OperationEnergy::from_charges(Operation::Activate, m.activate(), &desc.electrical);
        let nj = act.external().joules() * 1e9;
        // A 16 Kb page activate in a 1 Gb DDR3 is on the order of a
        // nanojoule at the supply.
        assert!(nj > 0.3 && nj < 5.0, "activate energy {nj} nJ");
    }

    #[test]
    fn array_share_is_high_for_activate_low_for_read() {
        let desc = ddr3_1g_x16_55nm();
        let geom = Geometry::new(&desc).expect("valid");
        let m = ChargeModel::new(&desc, &geom);
        let e = &desc.electrical;
        let act = OperationEnergy::from_charges(Operation::Activate, m.activate(), e);
        let rd = OperationEnergy::from_charges(Operation::Read, m.read(), e);
        assert!(
            act.array_share() > 0.5,
            "activate array share {}",
            act.array_share()
        );
        assert!(
            rd.array_share() < 0.4,
            "read array share {}",
            rd.array_share()
        );
    }

    #[test]
    fn group_and_domain_partitions_sum_to_total() {
        let desc = ddr3_1g_x16_55nm();
        let geom = Geometry::new(&desc).expect("valid");
        let m = ChargeModel::new(&desc, &geom);
        let rd = OperationEnergy::from_charges(Operation::Read, m.read(), &desc.electrical);
        let by_group: f64 = ContributorGroup::ALL
            .iter()
            .map(|&g| rd.group_external(g).joules())
            .sum();
        let by_domain: f64 = VoltageDomain::ALL
            .iter()
            .map(|&d| rd.domain_external(d).joules())
            .sum();
        let total = rd.external().joules();
        assert!((by_group - total).abs() < 1e-18);
        assert!((by_domain - total).abs() < 1e-18);
    }

    #[test]
    fn static_power_magnitude() {
        let desc = ddr3_1g_x16_55nm();
        let p = static_power(&desc.electrical);
        assert!((p.milliwatts() - 15.0).abs() < 1e-9); // 10 mA × 1.5 V
    }

    #[test]
    fn operation_display() {
        assert_eq!(Operation::Activate.to_string(), "activate");
        assert_eq!(Operation::ClockCycle.to_string(), "clock cycle");
    }
}
