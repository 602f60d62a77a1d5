//! Robustness tests of the description-language front end: the lexer and
//! parser must never panic, whatever bytes arrive, and the value parsers
//! must reject garbage cleanly.
//!
//! Fuzz inputs come from a deterministic [`SplitMix64`] generator instead
//! of `proptest` so the workspace resolves offline; equal seeds replay
//! identical corpora.

use dram_units::rng::SplitMix64;

/// A random string over a charset closure, length in `[0, max_len]`.
fn rand_string(
    r: &mut SplitMix64,
    max_len: usize,
    charset: impl Fn(&mut SplitMix64) -> char,
) -> String {
    let len = r.range_usize(max_len + 1);
    (0..len).map(|_| charset(r)).collect()
}

/// Any printable-ish character, including multi-byte ones, newlines and
/// the DSL's own separators — the rough analogue of proptest's `\PC`.
fn any_char(r: &mut SplitMix64) -> char {
    match r.range_u32(8) {
        0 => '\n',
        1 => *r.pick(&['=', ' ', '\t', '#', '.', '-', '_', '"']),
        2 => *r.pick(&['µ', 'Ω', '²', 'é', '漢', '🦀']),
        _ => {
            // Printable ASCII.
            (0x20 + r.range_u32(0x5F) as u8) as char
        }
    }
}

fn ascii_printable(r: &mut SplitMix64) -> char {
    (0x20 + r.range_u32(0x5F) as u8) as char
}

fn in_set(set: &[u8]) -> impl Fn(&mut SplitMix64) -> char + '_ {
    move |r| *r.pick(set) as char
}

/// Arbitrary text never panics the lexer or parser.
#[test]
fn parser_never_panics_on_arbitrary_text() {
    let mut r = SplitMix64::new(0xF001);
    for _ in 0..256 {
        let input = rand_string(&mut r, 400, any_char);
        let _ = dram_dsl::parse(&input);
    }
}

/// Arbitrary lines appended to a valid file never panic, and either parse
/// or produce an error naming a line.
#[test]
fn valid_prefix_with_garbage_suffix() {
    let mut r = SplitMix64::new(0xF002);
    for _ in 0..256 {
        let suffix = rand_string(&mut r, 80, ascii_printable);
        let mut text = include_str!("../descriptions/ddr3_1gb_x16_55nm.dram").to_string();
        text.push('\n');
        text.push_str(&suffix);
        match dram_dsl::parse(&text) {
            Ok(_) => {}
            Err(e) => {
                // Errors carry a usable location or are file-level.
                assert!(e.line() <= text.lines().count() + 1, "suffix={suffix:?}");
                assert!(!e.message().is_empty(), "suffix={suffix:?}");
            }
        }
    }
}

/// Value parsers reject non-numeric garbage without panicking.
#[test]
fn value_parsers_reject_garbage() {
    let mut r = SplitMix64::new(0xF003);
    for _ in 0..256 {
        let s = rand_string(
            &mut r,
            16,
            in_set(b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ%/:_."),
        );
        let _ = dram_dsl::value::number(&s);
        let _ = dram_dsl::value::length(&s);
        let _ = dram_dsl::value::capacitance(&s);
        let _ = dram_dsl::value::voltage(&s);
        let _ = dram_dsl::value::frequency(&s);
        let _ = dram_dsl::value::time(&s);
        let _ = dram_dsl::value::coordinate(&s);
        let _ = dram_dsl::value::device(&s);
        let _ = dram_dsl::value::mux_ratio(&s);
        let _ = dram_dsl::value::active_during(&s);
    }
}

/// Numeric literals with units round-trip through the length parser.
#[test]
fn length_parses_generated_literals() {
    let mut r = SplitMix64::new(0xF004);
    for _ in 0..256 {
        let v = r.range_f64(0.001, 10000.0);
        let nm = dram_dsl::value::length(&format!("{v}nm")).expect("nm parses");
        assert!((nm.nanometers() - v).abs() < 1e-6 * v.max(1.0), "v={v}");
        let um = dram_dsl::value::length(&format!("{v}um")).expect("um parses");
        assert!((um.micrometers() - v).abs() < 1e-6 * v.max(1.0), "v={v}");
    }
}

/// Dropping any single required parameter from the shipped sample must
/// produce a "missing required parameters" error that names it — the
/// §III.B syntax-check completeness property.
#[test]
fn every_required_parameter_is_individually_enforced() {
    let sample = include_str!("../descriptions/ddr3_1gb_x16_55nm.dram");
    // Map of required-key suffix -> a space-prefixed key=value token to
    // strip (the space disambiguates e.g. `Vpp=` from `EffVpp=` and
    // `tRC=` from a hypothetical suffix match).
    let removable = [
        ("CellArray.BitsPerBL", " BitsPerBL="),
        ("CellArray.WLpitch", " WLpitch="),
        ("Technology.CBitline", " CBitline="),
        ("Technology.SANSense", " SANSense="),
        ("Electrical.Vpp", " Vpp="),
        ("IO.datarate", " datarate="),
        ("Control.rowadd", " rowadd="),
        ("Access.prefetch", " prefetch="),
        ("Timing.tRC", " tRC="),
        ("Timing.tFAW", " tFAW="),
    ];
    for (required_key, token) in removable {
        let mutated: String = sample
            .lines()
            .map(|line| {
                let padded = format!("{line} ");
                if let Some(pos) = padded.find(token) {
                    // Strip just this key=value pair from the line.
                    let rest = &padded[pos + 1..];
                    let end = rest.find(' ').map(|i| pos + 1 + i).unwrap_or(padded.len());
                    format!("{}{}", &padded[..pos], &padded[end..])
                        .trim_end()
                        .to_string()
                } else {
                    line.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        let err = dram_dsl::parse(&mutated).expect_err(&format!("removing {token} should fail"));
        let msg = err.to_string();
        assert!(
            msg.contains("missing required parameters") && msg.contains(required_key),
            "{token}: unexpected error `{msg}`"
        );
    }
}
