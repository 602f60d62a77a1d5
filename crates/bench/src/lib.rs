//! # dram-bench
//!
//! The reproduction harness: one report generator per table and figure of
//! the paper's evaluation, plus in-tree benchmarks of the model itself
//! (see [`harness`]).
//!
//! The `repro` binary prints any report:
//!
//! ```text
//! repro fig9      # model vs datasheet, 1 Gb DDR3
//! repro table3    # top-10 sensitivity ranking per generation
//! repro all       # everything
//! ```
#![warn(missing_docs)]

pub mod csv;
pub mod harness;
pub mod reports;
mod table;

pub use table::Table;

use dram_core::EvalEngine;

/// Identifies one reproducible artifact of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReportId {
    /// Table I: the model's parameter census.
    Table1,
    /// Fig. 1: physical floorplan and block coordinates.
    Fig1,
    /// Fig. 2/3: sense-amplifier and wordline-driver device loads.
    Fig2And3,
    /// Fig. 4: the program flow, traced.
    Fig4,
    /// Fig. 5: technology parameter scaling.
    Fig5,
    /// Fig. 6: capacitance/stripe/misc-width scaling.
    Fig6,
    /// Fig. 7: core device dimension scaling.
    Fig7,
    /// Table II: disruptive technology changes.
    Table2,
    /// Fig. 8: model vs datasheet, 1 Gb DDR2.
    Fig8,
    /// Fig. 9: model vs datasheet, 1 Gb DDR3.
    Fig9,
    /// Fig. 10: ±20 % sensitivity tornado.
    Fig10,
    /// Table III: top-10 sensitivity ranking.
    Table3,
    /// Fig. 11: voltage trends.
    Fig11,
    /// Fig. 12: data rate and row timing trends.
    Fig12,
    /// Fig. 13: die area and energy-per-bit trends.
    Fig13,
    /// §V: power-reduction scheme comparison.
    Section5,
    /// Beyond the paper: ablations of the §II design choices.
    Ablations,
    /// Beyond the paper: trace-driven power-down study.
    PowerDown,
    /// Beyond the paper: model vs datasheet-calculator comparison.
    Calculator,
    /// Beyond the paper: §II architecture comparison.
    Variants,
    /// Beyond the paper: §II cost economics over the roadmap.
    Cost,
    /// Beyond the paper: §IV.B power breakdown by contributor group.
    Breakdown,
    /// Acceptance self-check: every headline claim vs its band.
    Verify,
}

impl ReportId {
    /// All reports in paper order.
    pub const ALL: [ReportId; 23] = [
        ReportId::Table1,
        ReportId::Fig1,
        ReportId::Fig2And3,
        ReportId::Fig4,
        ReportId::Fig5,
        ReportId::Fig6,
        ReportId::Fig7,
        ReportId::Table2,
        ReportId::Fig8,
        ReportId::Fig9,
        ReportId::Fig10,
        ReportId::Table3,
        ReportId::Fig11,
        ReportId::Fig12,
        ReportId::Fig13,
        ReportId::Section5,
        ReportId::Ablations,
        ReportId::PowerDown,
        ReportId::Calculator,
        ReportId::Variants,
        ReportId::Cost,
        ReportId::Breakdown,
        ReportId::Verify,
    ];

    /// Command-line name of the report.
    #[must_use]
    pub fn command(self) -> &'static str {
        match self {
            ReportId::Table1 => "table1",
            ReportId::Fig1 => "fig1",
            ReportId::Fig2And3 => "fig2_3",
            ReportId::Fig4 => "fig4",
            ReportId::Fig5 => "fig5",
            ReportId::Fig6 => "fig6",
            ReportId::Fig7 => "fig7",
            ReportId::Table2 => "table2",
            ReportId::Fig8 => "fig8",
            ReportId::Fig9 => "fig9",
            ReportId::Fig10 => "fig10",
            ReportId::Table3 => "table3",
            ReportId::Fig11 => "fig11",
            ReportId::Fig12 => "fig12",
            ReportId::Fig13 => "fig13",
            ReportId::Section5 => "section5",
            ReportId::Ablations => "ablations",
            ReportId::PowerDown => "powerdown",
            ReportId::Calculator => "calculator",
            ReportId::Variants => "variants",
            ReportId::Cost => "cost",
            ReportId::Breakdown => "breakdown",
            ReportId::Verify => "verify",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(s: &str) -> Option<ReportId> {
        ReportId::ALL.iter().copied().find(|r| r.command() == s)
    }

    /// Paper artifact title.
    #[must_use]
    pub fn title(self) -> &'static str {
        match self {
            ReportId::Table1 => "Table I — DRAM description parameters",
            ReportId::Fig1 => "Figure 1 — physical floorplan of a DRAM",
            ReportId::Fig2And3 => "Figures 2 & 3 — sense amplifier and local wordline driver",
            ReportId::Fig4 => "Figure 4 — program flow",
            ReportId::Fig5 => "Figure 5 — scaling of technology related parameters",
            ReportId::Fig6 => "Figure 6 — scaling of miscellaneous technology parameters",
            ReportId::Fig7 => "Figure 7 — scaling of core device width and length",
            ReportId::Table2 => "Table II — disruptive DRAM technology changes",
            ReportId::Fig8 => "Figure 8 — model vs datasheet, 1Gb DDR2",
            ReportId::Fig9 => "Figure 9 — model vs datasheet, 1Gb DDR3",
            ReportId::Fig10 => "Figure 10 — power change under ±20% parameter variation",
            ReportId::Table3 => "Table III — top-10 sensitivity ranking",
            ReportId::Fig11 => "Figure 11 — voltage trends",
            ReportId::Fig12 => "Figure 12 — data and row timing trends",
            ReportId::Fig13 => "Figure 13 — energy consumption and die area trends",
            ReportId::Section5 => "Section V — proposed DRAM power reduction schemes",
            ReportId::Ablations => "Extra — ablations of settled design choices (§II)",
            ReportId::PowerDown => "Extra — trace-driven power-down study (§V context)",
            ReportId::Calculator => "Extra — model vs datasheet power calculator (§I)",
            ReportId::Variants => "Extra — commodity vs graphics vs mobile architectures (§II)",
            ReportId::Cost => "Extra — wafer cost, yield and cost per bit (§II)",
            ReportId::Breakdown => "Extra — power breakdown by contributor group (§IV.B)",
            ReportId::Verify => "Acceptance self-check — headline claims vs documented bands",
        }
    }

    /// Generates the report text; reports that evaluate many models run
    /// them on `engine`.
    #[must_use]
    pub fn generate(self, engine: &EvalEngine) -> String {
        let body = match self {
            ReportId::Table1 => reports::table1::generate(),
            ReportId::Fig1 => reports::fig01::generate(),
            ReportId::Fig2And3 => reports::fig02_03::generate(),
            ReportId::Fig4 => reports::fig04::generate(),
            ReportId::Fig5 => reports::fig05_07::generate(5),
            ReportId::Fig6 => reports::fig05_07::generate(6),
            ReportId::Fig7 => reports::fig05_07::generate(7),
            ReportId::Table2 => reports::table2::generate(),
            ReportId::Fig8 => reports::fig08_09::generate_ddr2(),
            ReportId::Fig9 => reports::fig08_09::generate_ddr3(),
            ReportId::Fig10 => reports::fig10::generate(engine),
            ReportId::Table3 => reports::table3::generate(engine),
            ReportId::Fig11 => reports::fig11_12::generate_voltages(),
            ReportId::Fig12 => reports::fig11_12::generate_timing(),
            ReportId::Fig13 => reports::fig13::generate(engine),
            ReportId::Section5 => reports::section5::generate(engine),
            ReportId::Ablations => reports::extras::generate_ablations(engine),
            ReportId::PowerDown => reports::extras::generate_powerdown(),
            ReportId::Calculator => reports::extras::generate_calculator(),
            ReportId::Variants => reports::extras::generate_variants(),
            ReportId::Cost => reports::extras::generate_cost(),
            ReportId::Breakdown => reports::extras::generate_breakdown(),
            ReportId::Verify => reports::verify::generate(engine),
        };
        format!("== {} ==\n\n{}", self.title(), body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_names_roundtrip() {
        for r in ReportId::ALL {
            assert_eq!(ReportId::parse(r.command()), Some(r));
        }
        assert_eq!(ReportId::parse("bogus"), None);
    }

    #[test]
    fn every_report_generates_nonempty_output() {
        for r in ReportId::ALL {
            let text = r.generate(EvalEngine::global());
            assert!(text.len() > 100, "{}: too short:\n{text}", r.command());
            assert!(text.contains(r.title()));
        }
    }
}
