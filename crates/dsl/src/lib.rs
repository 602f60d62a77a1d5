//! # dram-dsl
//!
//! Parser and pretty-printer for the DRAM description language of
//! Vogelsang (MICRO 2010), §III.B. The language describes a DRAM's
//! physical floorplan, signaling floorplan, technology, electrical
//! configuration, interface specification, timing, miscellaneous logic
//! blocks, and an operation pattern — everything the power model in
//! [`dram_core`] needs.
//!
//! ```text
//! FloorplanPhysical
//! CellArray BL=v BitsPerBL=512 BLtype=open
//! CellArray WLpitch=0.165um BLpitch=0.11um
//! Vertical blocks = A1 P1 P2 P1 A1
//! SizeVertical P1=200um P2=530um
//!
//! FloorplanSignaling
//! Signal DataW class=wdata wires=io toggle=50%
//! DataW0 inside=3_2 fraction=25% dir=h mux=1:8 NchW=9.6 PchW=19.2
//! DataW1 start=3_2 end=4_1 NchW=9.6 PchW=19.2
//!
//! Pattern loop= act nop wrt nop rd nop pre nop
//! ```
//!
//! ## Quickstart
//!
//! ```
//! use dram_core::Dram;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let text = include_str!("../descriptions/ddr3_1gb_x16_55nm.dram");
//! let parsed = dram_dsl::parse(text)?;
//! let dram = Dram::new(parsed.description)?;
//! let idd = dram.idd();
//! assert!(idd.idd4r.milliamperes() > idd.idd0.milliamperes());
//! # Ok(())
//! # }
//! ```
#![warn(missing_docs)]

mod error;
mod lexer;
mod parser;
pub mod value;
mod writer;

pub use error::DslError;
pub use parser::{parse, parse_description, ParsedFile};
pub use writer::write;

#[cfg(test)]
mod tests {
    use dram_core::reference::ddr3_1g_x16_55nm;
    use dram_core::Dram;

    /// The writer's output must parse back into an equivalent
    /// description: identical model outputs and identical structure up to
    /// floating-point printing.
    #[test]
    fn roundtrip_preserves_model_output() {
        let original = ddr3_1g_x16_55nm();
        let text = crate::write(&original, None);
        let parsed = crate::parse(&text).expect("writer output parses");
        let d1 = Dram::new(original).expect("original builds");
        let d2 = Dram::new(parsed.description).expect("round-tripped builds");
        let i1 = d1.idd();
        let i2 = d2.idd();
        let close = |a: dram_units::Amperes, b: dram_units::Amperes| {
            (a.amperes() - b.amperes()).abs() < 1e-9 * a.amperes().abs().max(1e-6)
        };
        assert!(close(i1.idd0, i2.idd0), "{} vs {}", i1.idd0, i2.idd0);
        assert!(close(i1.idd2n, i2.idd2n));
        assert!(close(i1.idd4r, i2.idd4r));
        assert!(close(i1.idd4w, i2.idd4w));
        assert!(close(i1.idd7, i2.idd7));
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let original = ddr3_1g_x16_55nm();
        let text = crate::write(&original, None);
        let parsed = crate::parse(&text).expect("writer output parses");
        let d = parsed.description;
        assert_eq!(d.name, original.name);
        assert_eq!(d.spec, original.spec);
        assert_eq!(
            d.floorplan.horizontal_blocks,
            original.floorplan.horizontal_blocks
        );
        assert_eq!(
            d.floorplan.bits_per_bitline,
            original.floorplan.bits_per_bitline
        );
        assert_eq!(d.signaling.signals.len(), original.signaling.signals.len());
        assert_eq!(d.logic_blocks.len(), original.logic_blocks.len());
        for (a, b) in d.logic_blocks.iter().zip(&original.logic_blocks) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.gates, b.gates);
            assert_eq!(a.active_during, b.active_during);
        }
        assert_eq!(d.timing.tccd_cycles, original.timing.tccd_cycles);
    }

    #[test]
    fn roundtrip_preserves_pattern() {
        let original = ddr3_1g_x16_55nm();
        let pattern = dram_core::Pattern::paper_example();
        let text = crate::write(&original, Some(&pattern));
        let parsed = crate::parse(&text).expect("writer output parses");
        assert_eq!(parsed.pattern, Some(pattern));
    }

    #[test]
    fn sample_description_file_parses_and_builds() {
        let text = include_str!("../descriptions/ddr3_1gb_x16_55nm.dram");
        let parsed = crate::parse(text).expect("sample parses");
        assert!(parsed.pattern.is_some(), "sample carries a pattern");
        let dram = Dram::new(parsed.description).expect("sample builds");
        let idd = dram.idd();
        // The sample file is the reference device: currents must land in
        // the DDR3 x16 datasheet band.
        assert!(idd.idd0.milliamperes() > 35.0 && idd.idd0.milliamperes() < 90.0);
        assert!(idd.idd4r.milliamperes() > 100.0 && idd.idd4r.milliamperes() < 260.0);
    }

    #[test]
    fn ddr5_description_file_parses_and_builds() {
        let text = include_str!("../descriptions/ddr5_16gb_x16_18nm.dram");
        let parsed = crate::parse(text).expect("ddr5 sample parses");
        let dram = Dram::new(parsed.description).expect("ddr5 sample builds");
        assert_eq!(dram.description().spec.density_bits(), 1u64 << 34);
        assert_eq!(dram.description().spec.banks(), 32);
    }

    /// The language reference's examples are real: every `text` block
    /// under *Sections and directives* in `docs/DSL.md` parses when
    /// appended to the shipped sample, and the *Error reporting* block
    /// shows the messages its two edits of the sample produce.
    #[test]
    fn language_reference_examples_are_real() {
        const DOC: &str = include_str!("../../../docs/DSL.md");
        const SAMPLE: &str = include_str!("../descriptions/ddr3_1gb_x16_55nm.dram");
        let section = |title: &str| {
            let start = DOC
                .find(&format!("\n## {title}\n"))
                .expect("section exists")
                + 1;
            let len = DOC[start..].find("\n## ").unwrap_or(DOC.len() - start);
            &DOC[start..start + len]
        };
        let text_blocks = |section: &'static str| -> Vec<&'static str> {
            section
                .split("```text\n")
                .skip(1)
                .map(|b| b.split("```").next().expect("block is closed"))
                .collect()
        };
        let examples = text_blocks(section("Sections and directives"));
        assert_eq!(examples.len(), 8, "one block per directive with an example");
        for example in examples {
            if let Err(e) = crate::parse(&format!("{SAMPLE}\n{example}")) {
                panic!("{example}-> {e}");
            }
        }
        let shown = text_blocks(section("Error reporting"));
        let mut shown = shown[0].lines();
        let bogus = SAMPLE.replacen("\nOxides ", "\nOxides ToxBogus=5nm ", 1);
        let no_supply: String = SAMPLE
            .lines()
            .filter(|l| !l.starts_with("Supply "))
            .map(|l| format!("{l}\n"))
            .collect();
        for edited in [bogus, no_supply] {
            let err = crate::parse(&edited).expect_err("the edit breaks the sample");
            assert_eq!(Some(err.to_string().as_str()), shown.next());
        }
    }

    #[test]
    fn missing_required_parameters_are_listed() {
        let err = crate::parse("FloorplanPhysical\nCellArray BitsPerBL=512\n").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("missing required parameters"));
        assert!(msg.contains("Technology.ToxLogic"));
        assert!(msg.contains("Electrical.Vdd"));
        assert!(
            !msg.contains("CellArray.BitsPerBL"),
            "provided key not listed: {msg}"
        );
    }

    #[test]
    fn unknown_keys_are_rejected_with_line_numbers() {
        let text = "Technology\nOxides ToxBogus=5nm\n";
        let err = crate::parse(text).unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains("ToxBogus"));
    }

    #[test]
    fn content_before_section_is_rejected() {
        let err = crate::parse("CellArray BitsPerBL=512\n").unwrap_err();
        assert!(err.to_string().contains("before any section"));
    }

    #[test]
    fn segment_without_signal_declaration_is_rejected() {
        let text = "FloorplanSignaling\nDataW0 inside=3_2 fraction=25%\n";
        let err = crate::parse(text).unwrap_err();
        assert!(err
            .to_string()
            .contains("does not match any declared Signal"));
    }
}
