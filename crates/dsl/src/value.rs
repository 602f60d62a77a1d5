//! Typed value parsers for the description language: numbers with unit
//! suffixes (`165nm`, `1.6Gbps`, `0.25fF/um`, `50%`), block coordinates
//! (`3_2`), device geometries (`0.7x0.10um`) and mux ratios (`1:8`).
//!
//! All parsers return `Result<T, String>` with a message describing the
//! expected form; the section parser wraps the message with line and key
//! context.

use std::borrow::Cow;

use dram_core::params::{ActiveDuring, BlockCoord, DeviceGeometry};
use dram_units::{Amperes, BitsPerSecond, Farads, FaradsPerMeter, Hertz, Meters, Seconds, Volts};

/// `s` without surrounding whitespace. A literal that starts and ends in
/// a visible ASCII character, as written descriptions do, is returned
/// as is without a scan.
fn trim(s: &str) -> &str {
    let bytes = s.as_bytes();
    match (bytes.first(), bytes.last()) {
        (Some(first), Some(last)) if first.is_ascii_graphic() && last.is_ascii_graphic() => s,
        _ => s.trim(),
    }
}

/// The powers of ten an `f64` holds exactly.
const EXACT_POWERS_OF_TEN: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// Where a number that goes on at `end` ends: digits and `.`, each `e`
/// or `E` followed by a digit or a signed digit taking its exponent
/// along.
fn number_end(bytes: &[u8], mut end: usize) -> usize {
    loop {
        match bytes.get(end) {
            Some(b'0'..=b'9' | b'.') => end += 1,
            Some(b'e' | b'E') => {
                let sign = usize::from(matches!(bytes.get(end + 1), Some(b'+' | b'-')));
                if !bytes.get(end + 1 + sign).is_some_and(u8::is_ascii_digit) {
                    return end;
                }
                end += 2 + sign;
            }
            _ => return end,
        }
    }
}

/// The value of the eight ASCII digits `bytes` starts with, if it does.
///
/// All eight are tested at once: a byte below `0` borrows into its high
/// bit when `0` is taken from each, and a byte above `9` carries into it
/// when 0x46 is added. Then the digits are summed in pairs, and the
/// pairs by two multiplications.
fn eight_digits(bytes: &[u8]) -> Option<u64> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    let word = u64::from_le_bytes(bytes.get(..8)?.try_into().expect("eight bytes"));
    let digits = word.wrapping_sub(ONES * u64::from(b'0'));
    if (word.wrapping_add(ONES * 0x46) | digits) & (ONES * 0x80) != 0 {
        return None;
    }
    // The first byte is the leading digit: each even byte becomes ten
    // times its digit plus the next one. The products below overflow
    // past the bits kept, by design.
    let pairs = digits * 10 + (digits >> 8);
    let (first, second) = (
        pairs & 0x0000_00ff_0000_00ff,
        (pairs >> 16) & 0x0000_00ff_0000_00ff,
    );
    let sum = first
        .wrapping_mul(100 + (1_000_000 << 32))
        .wrapping_add(second.wrapping_mul(1 + (10_000 << 32)));
    Some(sum >> 32)
}

/// Splits a literal into its number and unit suffix in one scan.
///
/// The number is an optional sign, then digits and `.`, each `e` or `E`
/// followed by a digit or a signed digit taking its exponent along; the
/// unit is the rest. The scan reads digits, a point and digits as an
/// integer significand and a count of digits after the point. When the
/// number ends there, with a significand of at most 2^53 and at most 22
/// digits after the point, it is the significand divided by a power of
/// ten (Clinger's exact case): both are exact `f64`s, so the one
/// correctly rounded division gives the bits `f64::from_str` gives. Any
/// other number, such as 17 significant digits, an exponent or malformed
/// text, goes to `f64::from_str`.
fn split_number(s: &str) -> Result<(f64, &str), String> {
    const EXACT: u64 = 1 << 53;
    let s = trim(s);
    let bytes = s.as_bytes();
    let mut end = usize::from(matches!(bytes.first(), Some(b'+' | b'-')));
    let mut significand = 0_u64;
    // Past 19 digits the significand wraps, and the digit count rules
    // the exact case out.
    let mut digits = |end: &mut usize| {
        let from = *end;
        while let Some(eight) = eight_digits(&bytes[*end..]) {
            significand = significand.wrapping_mul(100_000_000).wrapping_add(eight);
            *end += 8;
        }
        while let Some(digit) = bytes
            .get(*end)
            .map(|b| b.wrapping_sub(b'0'))
            .filter(|&d| d < 10)
        {
            significand = significand.wrapping_mul(10).wrapping_add(u64::from(digit));
            *end += 1;
        }
        *end - from
    };
    let mut count = digits(&mut end);
    let mut fraction = 0;
    if bytes.get(end) == Some(&b'.') {
        end += 1;
        fraction = digits(&mut end);
        count += fraction;
    }
    let number_end = number_end(bytes, end);
    let value = match EXACT_POWERS_OF_TEN.get(fraction) {
        Some(&scale) if number_end == end && (1..=19).contains(&count) && significand <= EXACT => {
            // At most 2^53, so the conversion is exact.
            #[allow(clippy::cast_precision_loss)]
            let magnitude = significand as f64 / scale;
            if bytes[0] == b'-' {
                -magnitude
            } else {
                magnitude
            }
        }
        _ => {
            end = number_end;
            s[..end]
                .parse()
                .map_err(|_| format!("`{s}` is not a number with optional unit"))?
        }
    };
    if !value.is_finite() {
        // `1e999` parses to infinity.
        return Err(format!("`{s}` is not a finite number"));
    }
    Ok((value, trim(&s[end..])))
}

/// A unit with `µ` spelled `u`, borrowed when it is ASCII, as every
/// written unit is.
fn ascii_micro(unit: &str) -> Cow<'_, str> {
    if unit.is_ascii() {
        Cow::Borrowed(unit)
    } else {
        Cow::Owned(unit.replace('µ', "u"))
    }
}

/// Parses a plain number (no unit allowed).
pub fn number(s: &str) -> Result<f64, String> {
    let (v, unit) = split_number(s)?;
    if unit.is_empty() {
        Ok(v)
    } else {
        Err(format!(
            "`{s}`: expected a bare number, found unit `{unit}`"
        ))
    }
}

/// Parses a non-negative integer.
pub fn integer(s: &str) -> Result<u32, String> {
    s.trim()
        .parse()
        .map_err(|_| format!("`{s}` is not a non-negative integer"))
}

/// Parses a fraction: `50%` or `0.5`.
pub fn fraction(s: &str) -> Result<f64, String> {
    let (v, unit) = split_number(s)?;
    match unit {
        "%" => Ok(v / 100.0),
        "" => Ok(v),
        other => Err(format!("`{s}`: unknown fraction unit `{other}`")),
    }
}

/// Parses a length: `165nm`, `3396um`, `8mm`, `1m` (µ accepted for u).
pub fn length(s: &str) -> Result<Meters, String> {
    length_and_scale(s).map(|(length, _)| length)
}

/// Parses a length and returns its unit's size in meters beside it.
fn length_and_scale(s: &str) -> Result<(Meters, f64), String> {
    let (v, unit) = split_number(s)?;
    let scale = match &*ascii_micro(unit) {
        "nm" => 1e-9,
        "um" => 1e-6,
        "mm" => 1e-3,
        "m" => 1.0,
        other => {
            return Err(format!(
                "`{s}`: unknown length unit `{other}` (use nm/um/mm/m)"
            ))
        }
    };
    Ok((Meters::new(v * scale), scale))
}

/// Parses a capacitance: `80fF`, `1.2pF`.
pub fn capacitance(s: &str) -> Result<Farads, String> {
    let (v, unit) = split_number(s)?;
    match unit {
        "fF" => Ok(Farads::from_ff(v)),
        "pF" => Ok(Farads::from_pf(v)),
        "F" => Ok(Farads::new(v)),
        other => Err(format!(
            "`{s}`: unknown capacitance unit `{other}` (use fF/pF/F)"
        )),
    }
}

/// Parses a specific wire capacitance: `0.25fF/um`.
pub fn capacitance_per_length(s: &str) -> Result<FaradsPerMeter, String> {
    let (v, unit) = split_number(s)?;
    match &*ascii_micro(unit) {
        "fF/um" => Ok(FaradsPerMeter::from_ff_per_um(v)),
        "F/m" => Ok(FaradsPerMeter::new(v)),
        other => Err(format!("`{s}`: unknown unit `{other}` (use fF/um or F/m)")),
    }
}

/// Parses a voltage: `1.5V`, `250mV`.
pub fn voltage(s: &str) -> Result<Volts, String> {
    let (v, unit) = split_number(s)?;
    match unit {
        "V" => Ok(Volts::new(v)),
        "mV" => Ok(Volts::from_mv(v)),
        other => Err(format!("`{s}`: unknown voltage unit `{other}` (use V/mV)")),
    }
}

/// Parses a current: `10mA`, `0.1A`.
pub fn current(s: &str) -> Result<Amperes, String> {
    let (v, unit) = split_number(s)?;
    match unit {
        "A" => Ok(Amperes::new(v)),
        "mA" => Ok(Amperes::from_ma(v)),
        "uA" | "µA" => Ok(Amperes::new(v * 1e-6)),
        other => Err(format!(
            "`{s}`: unknown current unit `{other}` (use A/mA/uA)"
        )),
    }
}

/// Parses a frequency: `800MHz`, `1.6GHz`.
pub fn frequency(s: &str) -> Result<Hertz, String> {
    let (v, unit) = split_number(s)?;
    match unit {
        "Hz" => Ok(Hertz::new(v)),
        "kHz" => Ok(Hertz::new(v * 1e3)),
        "MHz" => Ok(Hertz::from_mhz(v)),
        "GHz" => Ok(Hertz::from_ghz(v)),
        other => Err(format!(
            "`{s}`: unknown frequency unit `{other}` (use Hz/kHz/MHz/GHz)"
        )),
    }
}

/// Parses a data rate: `1.6Gbps`, `533Mbps`.
pub fn datarate(s: &str) -> Result<BitsPerSecond, String> {
    let (v, unit) = split_number(s)?;
    match unit {
        "bps" | "b/s" => Ok(BitsPerSecond::new(v)),
        "Mbps" | "Mb/s" => Ok(BitsPerSecond::from_mbps(v)),
        "Gbps" | "Gb/s" => Ok(BitsPerSecond::from_gbps(v)),
        other => Err(format!(
            "`{s}`: unknown data rate unit `{other}` (use Mbps/Gbps)"
        )),
    }
}

/// Parses a time: `49ns`, `7.8us`, `64ms`.
pub fn time(s: &str) -> Result<Seconds, String> {
    let (v, unit) = split_number(s)?;
    match &*ascii_micro(unit) {
        "s" => Ok(Seconds::new(v)),
        "ms" => Ok(Seconds::new(v * 1e-3)),
        "us" => Ok(Seconds::new(v * 1e-6)),
        "ns" => Ok(Seconds::from_ns(v)),
        "ps" => Ok(Seconds::new(v * 1e-12)),
        other => Err(format!(
            "`{s}`: unknown time unit `{other}` (use ns/us/ms/s)"
        )),
    }
}

/// Parses a block coordinate in the paper's `x_y` notation, e.g. `3_2`.
pub fn coordinate(s: &str) -> Result<BlockCoord, String> {
    let (x, y) = s
        .split_once('_')
        .ok_or_else(|| format!("`{s}` is not a block coordinate (expected `x_y`)"))?;
    let x = x
        .parse()
        .map_err(|_| format!("`{s}`: `{x}` is not a grid index"))?;
    let y = y
        .parse()
        .map_err(|_| format!("`{s}`: `{y}` is not a grid index"))?;
    Ok(BlockCoord::new(x, y))
}

/// Parses a device geometry `WxLum` (both dimensions in the trailing
/// unit), e.g. `0.7x0.10um` — width 0.7 µm, length 0.10 µm.
pub fn device(s: &str) -> Result<DeviceGeometry, String> {
    let (w_str, rest) = s
        .split_once('x')
        .ok_or_else(|| format!("`{s}` is not a device geometry (expected `WxLum`)"))?;
    let width_val: f64 = w_str
        .trim()
        .parse()
        .map_err(|_| format!("`{s}`: `{w_str}` is not a number"))?;
    if !width_val.is_finite() {
        return Err(format!("`{s}`: `{w_str}` is not a finite number"));
    }
    // Width uses the same unit the length carried.
    let (length, scale) = length_and_scale(rest)?;
    Ok(DeviceGeometry {
        width: Meters::new(width_val * scale),
        length,
    })
}

/// Parses a serialization ratio `1:8`, returning the factor (8).
pub fn mux_ratio(s: &str) -> Result<u32, String> {
    let (a, b) = s
        .split_once(':')
        .ok_or_else(|| format!("`{s}` is not a mux ratio (expected `1:n`)"))?;
    let a: u32 = a.parse().map_err(|_| format!("`{s}`: bad ratio"))?;
    let b: u32 = b.parse().map_err(|_| format!("`{s}`: bad ratio"))?;
    if a != 1 || b == 0 {
        return Err(format!("`{s}`: mux ratio must be `1:n` with n ≥ 1"));
    }
    Ok(b)
}

/// Parses the operations a logic block is active during:
/// `always` or a comma list of `act,pre,rd,wrt`.
pub fn active_during(s: &str) -> Result<ActiveDuring, String> {
    let mut out = ActiveDuring::default();
    for part in s.split(',') {
        let part = part.trim();
        // The longest operation name, `precharge`, has nine letters.
        let mut lower = [0u8; 9];
        let name = lower.get_mut(..part.len()).map(|l| {
            l.copy_from_slice(part.as_bytes());
            l.make_ascii_lowercase();
            &*l
        });
        match name {
            Some(b"always") => out.always = true,
            Some(b"act" | b"activate") => out.activate = true,
            Some(b"pre" | b"precharge") => out.precharge = true,
            Some(b"rd" | b"read") => out.read = true,
            Some(b"wrt" | b"wr" | b"write") => out.write = true,
            _ => {
                return Err(format!(
                    "unknown operation `{}` in active set `{s}`",
                    part.to_ascii_lowercase()
                ))
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_units::rng::SplitMix64;

    /// The scan [`split_number`]'s reader replaced, kept as its
    /// reference.
    fn reference_split_number(s: &str) -> Result<(f64, &str), String> {
        let s = s.trim();
        let bytes = s.as_bytes();
        let mut end = 0;
        while end < bytes.len() {
            let c = bytes[end] as char;
            let numeric = c.is_ascii_digit()
                || c == '.'
                || (end == 0 && (c == '-' || c == '+'))
                // exponent: only if followed by a digit or sign+digit
                || ((c == 'e' || c == 'E')
                    && bytes
                        .get(end + 1)
                        .map(|&n| {
                            (n as char).is_ascii_digit()
                                || ((n == b'+' || n == b'-')
                                    && bytes
                                        .get(end + 2)
                                        .is_some_and(|&m| (m as char).is_ascii_digit()))
                        })
                        .unwrap_or(false));
            if !numeric {
                break;
            }
            // consume the sign of an exponent together with the 'e'
            if (c == 'e' || c == 'E') && matches!(bytes.get(end + 1), Some(b'+') | Some(b'-')) {
                end += 1;
            }
            end += 1;
        }
        let (num, unit) = s.split_at(end);
        let value: f64 = num
            .parse()
            .map_err(|_| format!("`{s}` is not a number with optional unit"))?;
        if !value.is_finite() {
            // `1e999` parses to infinity.
            return Err(format!("`{s}` is not a finite number"));
        }
        Ok((value, unit.trim()))
    }

    /// A literal over the characters the scan cares about: signs, digits,
    /// dots, exponent letters, unit letters and whitespace.
    fn numberish(r: &mut SplitMix64) -> String {
        const CHARS: &[char] = &[
            '0', '1', '5', '9', '.', '.', 'e', 'E', '+', '-', 'u', 'm', '%', ' ', '\u{a0}', 'x',
            'µ', 'i', 'n', 'f', 'a', 'N', '_',
        ];
        let len = r.range_usize(12);
        (0..len).map(|_| *r.pick(CHARS)).collect()
    }

    /// Seeded differential fuzz: the scan gives the same number, unit
    /// and error text as the one it replaced, on random literals and on
    /// every shape a written description uses.
    #[test]
    fn split_number_matches_reference() {
        let mut inputs: Vec<String> = [
            "",
            "+",
            "-",
            ".",
            "e5",
            "-e5",
            "1e",
            "1e+",
            "1e+5",
            "1.e5",
            "1e5e5",
            "1.2.3",
            "5eggs",
            "1e999",
            "-1e999%",
            "0.09999999999999999um",
            " 5 nm ",
            "\u{a0}7\u{3000}",
            "1E-2",
            "+.5",
            "1e-x",
            "inf",
            "NaN",
            "-0",
            "-0.0e5",
            "5.",
            ".5",
            "..5",
            "1.5.",
            "1e5.",
            "9007199254740992",
            "9007199254740993",
            "-9007199254740993.0",
            "0.9007199254740993",
            "900719925474099.3e1",
            "1e22",
            "1e23",
            "1e-22",
            "1e-23",
            "12345678901234567890123",
            "0.0000000000000000000000001um",
            "1.0000000000000000000000",
            "1e0000000000000000000001",
            "4.9e-324",
            "1.7976931348623157e308",
            "2e308",
            "0.09999999999999999um",
            "14.000000000000002ns",
            "49.99999999999999x",
        ]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
        let mut r = SplitMix64::new(0x5917_0B7E);
        inputs.extend((0..20_000).map(|_| numberish(&mut r)));
        // Written values: up to 17 significant digits, any power of ten.
        for _ in 0..20_000 {
            let v = f64::from_bits(r.next_u64() >> 2) * if r.chance(0.5) { 1.0 } else { -1.0 };
            let text = match r.range_u32(3) {
                0 => format!("{v}um"),
                1 => format!("{v:e}"),
                _ => format!(
                    "{}",
                    r.range_f64(0.0, 1e6) / 10f64.powi(r.range_u32(12) as i32)
                ),
            };
            inputs.push(text);
        }
        fn bits(v: Result<(f64, &str), String>) -> Result<(u64, &str), String> {
            v.map(|(n, unit)| (n.to_bits(), unit))
        }
        for s in &inputs {
            assert_eq!(
                bits(split_number(s)),
                bits(reference_split_number(s)),
                "{s:?}"
            );
        }
    }

    /// The exact case gives `f64::from_str`'s bits: seeded decimals of
    /// 1 to 19 digits with 0 to 22 after the point, either sign, and the
    /// edges where it hands over: a significand of 2^53 and 2^53 + 1, 20
    /// digits, 23 after the point.
    #[test]
    fn exact_case_matches_from_str() {
        let check = |number: &str| {
            let literal = format!("{number}um");
            let (value, unit) = split_number(&literal).expect("a number");
            let want: f64 = number.parse().expect("a number");
            assert_eq!((value.to_bits(), unit), (want.to_bits(), "um"), "{number}");
        };
        for number in [
            "9007199254740992",
            "9007199254740993",
            "900719925474099.2",
            "900719925474099.3",
            "0.9007199254740993",
            "1234567890123456789",
            "12345678901234567890",
            "0.0000000000000000000001",
            "0.00000000000000000000001",
            "-0",
            "+0.0",
            "5.",
            ".5",
            "-.5",
        ] {
            check(number);
        }
        let mut r = SplitMix64::new(0xC1E6);
        for _ in 0..100_000 {
            let digits = 1 + r.range_usize(19);
            let mut text: String = (0..digits)
                .map(|_| char::from(b'0' + r.range_u32(10) as u8))
                .collect();
            let point = r.range_usize(23.min(digits + 4));
            if point >= digits {
                text.insert_str(0, &format!("0.{}", "0".repeat(point - digits)));
            } else if point > 0 {
                text.insert(digits - point, '.');
            }
            if r.chance(0.3) {
                text.insert(0, '-');
            }
            check(&text);
        }
    }

    #[test]
    fn lengths() {
        assert_eq!(length("165nm").unwrap().nanometers().round(), 165.0);
        assert!((length("3396um").unwrap().millimeters() - 3.396).abs() < 1e-9);
        assert!((length("8mm").unwrap().meters() - 8.0e-3).abs() < 1e-12);
        assert!(length("5kg").is_err());
        assert!(length("abc").is_err());
    }

    #[test]
    fn capacitances() {
        assert!((capacitance("80fF").unwrap().femtofarads() - 80.0).abs() < 1e-9);
        assert!((capacitance("1.2pF").unwrap().picofarads() - 1.2).abs() < 1e-9);
        assert!(capacitance("80").is_err());
        assert!((capacitance_per_length("0.25fF/um").unwrap().ff_per_um() - 0.25).abs() < 1e-9);
        assert!(capacitance_per_length("0.25fF").is_err());
    }

    #[test]
    fn electrical_values() {
        assert_eq!(voltage("1.5V").unwrap().volts(), 1.5);
        assert!((voltage("250mV").unwrap().volts() - 0.25).abs() < 1e-12);
        assert!((current("10mA").unwrap().milliamperes() - 10.0).abs() < 1e-9);
        assert_eq!(frequency("800MHz").unwrap().megahertz(), 800.0);
        assert!((datarate("1.6Gbps").unwrap().gbps() - 1.6).abs() < 1e-12);
        assert!((time("49ns").unwrap().nanoseconds() - 49.0).abs() < 1e-9);
        assert!((time("7.8us").unwrap().seconds() - 7.8e-6).abs() < 1e-15);
    }

    #[test]
    fn fractions() {
        assert_eq!(fraction("50%").unwrap(), 0.5);
        assert_eq!(fraction("0.25").unwrap(), 0.25);
        assert!(fraction("x").is_err());
    }

    #[test]
    fn coordinates() {
        let c = coordinate("3_2").unwrap();
        assert_eq!((c.x, c.y), (3, 2));
        assert!(coordinate("32").is_err());
        assert!(coordinate("a_b").is_err());
    }

    #[test]
    fn devices() {
        let d = device("0.7x0.10um").unwrap();
        assert!((d.width.micrometers() - 0.7).abs() < 1e-9);
        assert!((d.length.micrometers() - 0.10).abs() < 1e-9);
        let d = device("50x0.15um").unwrap();
        assert!((d.width.micrometers() - 50.0).abs() < 1e-6);
        assert!(device("0.7um").is_err());
        // The width's scale comes from the unit, not from the length.
        let d = device("0.7x0um").unwrap();
        assert_eq!((d.width, d.length), (Meters::from_um(0.7), Meters::ZERO));
        assert_eq!(device("7x1nm").unwrap().width, Meters::from_nm(7.0));
        assert_eq!(device("0.7x0.1µm").unwrap().width, Meters::from_um(0.7));
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        assert_eq!(
            number("1e999").unwrap_err(),
            "`1e999` is not a finite number"
        );
        assert_eq!(
            capacitance("1e999fF").unwrap_err(),
            "`1e999fF` is not a finite number"
        );
        assert_eq!(
            fraction("-1e999%").unwrap_err(),
            "`-1e999%` is not a finite number"
        );
        assert!(length("1e999um").is_err());
        assert!(time("1e400ns").is_err());
        for width in ["inf", "NaN", "1e999"] {
            assert_eq!(
                device(&format!("{width}x0.1um")).unwrap_err(),
                format!("`{width}x0.1um`: `{width}` is not a finite number")
            );
        }
        assert!(device("0.7x1e999um").is_err());
        // Large but finite numbers still parse.
        assert_eq!(number("1e300").unwrap(), 1e300);
    }

    #[test]
    fn micro_sign_spells_u() {
        assert_eq!(length("3µm").unwrap(), length("3um").unwrap());
        assert_eq!(
            capacitance_per_length("0.25fF/µm").unwrap(),
            capacitance_per_length("0.25fF/um").unwrap()
        );
        assert_eq!(time("7.8µs").unwrap(), time("7.8us").unwrap());
        // Error texts name the unit with `u`, as before.
        assert_eq!(
            length("3µx").unwrap_err(),
            "`3µx`: unknown length unit `ux` (use nm/um/mm/m)"
        );
    }

    #[test]
    fn mux_ratios() {
        assert_eq!(mux_ratio("1:8").unwrap(), 8);
        assert!(mux_ratio("2:8").is_err());
        assert!(mux_ratio("8").is_err());
    }

    #[test]
    fn active_sets() {
        let a = active_during("act,pre").unwrap();
        assert!(a.activate && a.precharge && !a.read && !a.always);
        let a = active_during("always").unwrap();
        assert!(a.always);
        let a = active_during("rd,wrt").unwrap();
        assert!(a.read && a.write);
        assert!(active_during("act,refresh").is_err());
        // Names match in any case, around whitespace; errors name the
        // part in lower case.
        let a = active_during(" ACT , Precharge,wR ").unwrap();
        assert!(a.activate && a.precharge && a.write && !a.read);
        assert_eq!(
            active_during("rd,ReFresh").unwrap_err(),
            "unknown operation `refresh` in active set `rd,ReFresh`"
        );
        assert_eq!(
            active_during("PRECHARGES").unwrap_err(),
            "unknown operation `precharges` in active set `PRECHARGES`"
        );
    }

    #[test]
    fn exponent_numbers() {
        assert_eq!(number("1.5e3").unwrap(), 1500.0);
        assert_eq!(number("-2e-2").unwrap(), -0.02);
        // 'e' as unit start must not be eaten: no such unit here, but the
        // number must still parse.
        assert!(number("5eggs").is_err());
    }

    #[test]
    fn integers() {
        assert_eq!(integer("512").unwrap(), 512);
        assert!(integer("-1").is_err());
        assert!(integer("1.5").is_err());
    }
}
