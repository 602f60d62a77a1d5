//! Randomized tests for unit arithmetic laws.
//!
//! Formerly written with `proptest`; the workspace must resolve offline
//! with an empty registry, so the same properties are now exercised by
//! deterministic loops over [`SplitMix64`] draws. Failures print the
//! drawn inputs, so a failing case is reproducible from the fixed seed.

use dram_units::rng::SplitMix64;
use dram_units::*;

const CASES: usize = 256;

/// Positive, well-scaled magnitudes so products stay in f64's sweet spot.
fn mag(r: &mut SplitMix64) -> f64 {
    r.range_f64(1.0e-3, 1.0e3)
}

fn approx(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (a.abs() + b.abs()).max(1e-12)
}

#[test]
fn addition_commutes() {
    let mut r = SplitMix64::new(0xA001);
    for _ in 0..CASES {
        let (a, b) = (mag(&mut r), mag(&mut r));
        let x = Farads::from_ff(a);
        let y = Farads::from_ff(b);
        assert!(approx((x + y).farads(), (y + x).farads()), "a={a} b={b}");
    }
}

#[test]
fn addition_associates() {
    let mut r = SplitMix64::new(0xA002);
    for _ in 0..CASES {
        let (a, b, c) = (mag(&mut r), mag(&mut r), mag(&mut r));
        let (x, y, z) = (Volts::new(a), Volts::new(b), Volts::new(c));
        assert!(
            approx(((x + y) + z).volts(), (x + (y + z)).volts()),
            "a={a} b={b} c={c}"
        );
    }
}

#[test]
fn scalar_distributes() {
    let mut r = SplitMix64::new(0xA003);
    for _ in 0..CASES {
        let (a, b, k) = (mag(&mut r), mag(&mut r), mag(&mut r));
        let (x, y) = (Joules::new(a), Joules::new(b));
        assert!(
            approx(((x + y) * k).joules(), (x * k + y * k).joules()),
            "a={a} b={b} k={k}"
        );
    }
}

#[test]
fn charge_product_commutes() {
    let mut r = SplitMix64::new(0xA004);
    for _ in 0..CASES {
        let (c, v) = (mag(&mut r), mag(&mut r));
        let cap = Farads::from_ff(c);
        let vlt = Volts::new(v);
        assert!(
            approx((cap * vlt).coulombs(), (vlt * cap).coulombs()),
            "c={c} v={v}"
        );
    }
}

#[test]
fn energy_identities_agree() {
    let mut r = SplitMix64::new(0xA005);
    for _ in 0..CASES {
        let (c, v, f) = (mag(&mut r), mag(&mut r), mag(&mut r));
        // P = (C·V)·V·f must equal (C·V·f)·V
        let cap = Farads::from_ff(c);
        let vlt = Volts::new(v);
        let frq = Hertz::from_mhz(f);
        let q = cap * vlt;
        let p1 = (q * vlt) * frq;
        let p2 = (q * frq) * vlt;
        assert!(approx(p1.watts(), p2.watts()), "c={c} v={v} f={f}");
    }
}

#[test]
fn half_cv2_is_half_supply() {
    let mut r = SplitMix64::new(0xA006);
    for _ in 0..CASES {
        let (c, v) = (mag(&mut r), mag(&mut r));
        let cap = Farads::from_ff(c);
        let vlt = Volts::new(v);
        let half = half_cv2(cap, vlt);
        let full = supply_energy(cap * vlt, vlt);
        assert!(approx(full.joules(), 2.0 * half.joules()), "c={c} v={v}");
    }
}

#[test]
fn period_frequency_inverse() {
    let mut r = SplitMix64::new(0xA007);
    for _ in 0..CASES {
        let f = mag(&mut r);
        let frq = Hertz::from_mhz(f);
        assert!(
            approx(frq.to_period().to_hertz().hertz(), frq.hertz()),
            "f={f}"
        );
    }
}

#[test]
fn subtraction_inverts_addition() {
    let mut r = SplitMix64::new(0xA008);
    for _ in 0..CASES {
        let (a, b) = (mag(&mut r), mag(&mut r));
        let x = Amperes::from_ma(a);
        let y = Amperes::from_ma(b);
        assert!(approx((x + y - y).amperes(), x.amperes()), "a={a} b={b}");
    }
}

#[test]
fn ratio_of_scaled_is_scale() {
    let mut r = SplitMix64::new(0xA009);
    for _ in 0..CASES {
        let a = mag(&mut r);
        let k = r.range_f64(0.1, 10.0);
        let x = Meters::from_um(a);
        assert!(approx((x * k).ratio(x), k), "a={a} k={k}");
    }
}

#[test]
fn sum_matches_fold() {
    let mut r = SplitMix64::new(0xA00A);
    for _ in 0..CASES {
        let n = r.range_usize(20);
        let values: Vec<f64> = (0..n).map(|_| mag(&mut r)).collect();
        let sum: Watts = values.iter().map(|&w| Watts::from_mw(w)).sum();
        let fold = values.iter().fold(0.0, |acc, &w| acc + w) * 1e-3;
        assert!(approx(sum.watts(), fold), "values={values:?}");
    }
}

#[test]
fn display_never_panics() {
    let mut r = SplitMix64::new(0xA00B);
    for _ in 0..CASES {
        let a = r.range_f64(-1.0e12, 1.0e12);
        let _ = Volts::new(a).to_string();
        let _ = eng::format_eng(a, "X");
    }
    // Edge magnitudes.
    for a in [0.0, -0.0, 1e-30, -1e-30, 1e30, f64::MIN_POSITIVE] {
        let _ = Volts::new(a).to_string();
        let _ = eng::format_eng(a, "X");
    }
}

#[test]
fn eng_split_reconstructs() {
    let mut r = SplitMix64::new(0xA00C);
    for _ in 0..CASES {
        // mantissa * prefix-scale must reproduce the value
        let v = mag(&mut r) * 1e-6; // exercise the µ range
        let (m, p) = eng::split_eng(v);
        let scale = match p {
            "G" => 1e9,
            "M" => 1e6,
            "k" => 1e3,
            "" => 1.0,
            "m" => 1e-3,
            "µ" => 1e-6,
            "n" => 1e-9,
            "p" => 1e-12,
            "f" => 1e-15,
            other => panic!("unknown prefix {other:?} for {v}"),
        };
        assert!(approx(m * scale, v), "v={v} m={m} p={p}");
        // mantissa is in displayable range
        assert!(m.abs() < 1000.5, "v={v} m={m}");
    }
}
