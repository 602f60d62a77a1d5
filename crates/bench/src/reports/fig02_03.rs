//! Figs. 2 & 3 — the bitline sense-amplifier and local wordline driver
//! device loads, plus the operation charge breakdown they feed into.

use dram_core::charges::ChargeModel;
use dram_core::geometry::Geometry;
use dram_core::reference::ddr3_1g_x16_55nm;
use dram_core::{Dram, Operation};

use crate::Table;

/// Generates the device-load and charge-breakdown report.
#[must_use]
pub fn generate() -> String {
    let desc = ddr3_1g_x16_55nm();
    let geom = Geometry::new(&desc).expect("valid");
    let model = ChargeModel::new(&desc, &geom);
    let sa = model.sense_amp_loads();
    let lwd = model.wordline_driver_loads();

    let mut out = String::new();
    out.push_str("bitline sense-amplifier loads (Fig. 2, per sense amplifier):\n");
    let mut tbl = Table::new(["load", "capacitance (fF)"]);
    let ff = |c: dram_units::Farads| format!("{:.3}", c.femtofarads());
    tbl.row(["equalize gates (3 devices)", &ff(sa.equalize_gate)]);
    tbl.row(["NSET junction (NMOS sense pair)", &ff(sa.nset_junction)]);
    tbl.row(["PSET junction (PMOS sense pair)", &ff(sa.pset_junction)]);
    tbl.row(["bit switch gates (2 devices)", &ff(sa.bit_switch_gate)]);
    tbl.row(["bitline mux gates (folded only)", &ff(sa.bitline_mux_gate)]);
    tbl.row([
        "junction load on the bitline pair",
        &ff(sa.bitline_junction),
    ]);
    tbl.row(["set driver gates (per stripe)", &ff(sa.set_driver_gate)]);
    out.push_str(&tbl.render());

    out.push_str("\nlocal wordline driver loads (Fig. 3, per driver):\n");
    let mut tbl = Table::new(["load", "capacitance (fF)"]);
    tbl.row(["input gates on master wordline", &ff(lwd.input_gate)]);
    tbl.row([
        "output junction on local wordline",
        &ff(lwd.output_junction),
    ]);
    tbl.row([
        "full local wordline",
        &ff(model.local_wordline_capacitance()),
    ]);
    tbl.row([
        "full master wordline",
        &ff(model.master_wordline_capacitance()),
    ]);
    tbl.row(["column select line", &ff(model.column_select_capacitance())]);
    out.push_str(&tbl.render());

    // Charge breakdown per operation using the assembled model.
    let dram = Dram::new(desc).expect("valid");

    out.push_str("\nsignaling path capacitances (per wire, incl. re-drivers):\n");
    let mut tbl = Table::new(["signal", "capacitance (fF)"]);
    for (name, cap) in dram.capacitances().signal_paths {
        tbl.row([name, format!("{:.1}", cap.femtofarads())]);
    }
    out.push_str(&tbl.render());

    for op in [
        Operation::Activate,
        Operation::Precharge,
        Operation::Read,
        Operation::Write,
    ] {
        let e = dram.operation_energy(op);
        out.push_str(&format!(
            "\n{} — external energy {:.1} pJ (array share {:.0}%):\n",
            op,
            e.external().picojoules(),
            e.array_share() * 100.0
        ));
        let mut tbl = Table::new(["contributor", "domain", "energy (pJ)"]);
        for item in &e.items {
            tbl.row([
                item.label.to_string(),
                item.domain.to_string(),
                format!("{:.2}", item.external.picojoules()),
            ]);
        }
        out.push_str(&tbl.render());
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn device_loads_and_breakdown_present() {
        let text = super::generate();
        assert!(text.contains("equalize gates"));
        assert!(text.contains("input gates on master wordline"));
        assert!(text.contains("bitline sensing"));
        assert!(text.contains("array share"));
    }
}
