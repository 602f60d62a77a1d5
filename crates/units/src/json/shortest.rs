//! The shortest decimal digits that read back as a given `f64`, found as
//! Ryū finds them (Adams, "Ryū: fast float-to-string conversion", PLDI
//! 2018), with one change: of two shortest candidates exactly as near,
//! the one farther from zero is taken, as std's `{}` takes it, where Ryū
//! takes the even one.
//!
//! The value's rounding interval is scaled to a power of ten by one
//! 64×128-bit product with a 125-bit power of five, then digits are
//! dropped while the interval still holds a shorter number. The power
//! tables are computed at compile time by [`pow5_table`] and
//! [`pow5_inv_table`] from exact big-integer arithmetic.

/// Explicit mantissa bits of an `f64`.
const MANTISSA_BITS: u32 = 52;

/// The exponent bias of an `f64`.
const EXPONENT_BIAS: i32 = 1023;

/// Significant bits of each table entry.
const POW5_BITS: u32 = 125;

/// `5^i` to its top [`POW5_BITS`] bits, for the values below 1.
static POW5: [u128; 326] = pow5_table();

/// `2^j / 5^q` rounded up to [`POW5_BITS`] significant bits, for the
/// values of 1 and more.
static POW5_INV: [u128; 342] = pow5_inv_table();

/// Limbs of the compile-time big integers: 1024 bits.
const LIMBS: usize = 16;

/// A little-endian big integer.
type Big = [u64; LIMBS];

/// The number of significant bits of `x`.
const fn bit_len(x: &Big) -> u32 {
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        if x[i] != 0 {
            return i as u32 * 64 + 64 - x[i].leading_zeros();
        }
    }
    0
}

/// Limb `i` of `x`, zero past the top.
const fn limb(x: &Big, i: usize) -> u64 {
    if i < LIMBS {
        x[i]
    } else {
        0
    }
}

/// The low 128 bits of `x >> shift`.
const fn bits_from(x: &Big, shift: u32) -> u128 {
    let (first, offset) = ((shift / 64) as usize, shift % 64);
    let mut out = 0;
    let mut k = 0;
    while k < 2 {
        let word = if offset == 0 {
            limb(x, first + k)
        } else {
            limb(x, first + k) >> offset | limb(x, first + k + 1) << (64 - offset)
        };
        out |= (word as u128) << (64 * k);
        k += 1;
    }
    out
}

/// `x × 5`.
const fn times_five(x: &mut Big) {
    let mut carry = 0;
    let mut i = 0;
    while i < LIMBS {
        let product = x[i] as u128 * 5 + carry;
        x[i] = product as u64;
        carry = product >> 64;
        i += 1;
    }
}

/// `x / 5`, rounded down.
const fn fifth(x: &mut Big) {
    let mut rest = 0;
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        let part = rest << 64 | x[i] as u128;
        x[i] = (part / 5) as u64;
        rest = part % 5;
    }
}

/// Entry `i` is `5^i` shifted to [`POW5_BITS`] significant bits.
const fn pow5_table() -> [u128; 326] {
    let mut table = [0; 326];
    let mut pow: Big = [0; LIMBS];
    pow[0] = 1;
    let mut i = 0;
    while i < table.len() {
        let len = bit_len(&pow);
        table[i] = if len <= POW5_BITS {
            bits_from(&pow, 0) << (POW5_BITS - len)
        } else {
            bits_from(&pow, len - POW5_BITS)
        };
        times_five(&mut pow);
        i += 1;
    }
    table
}

/// Entry `q` is `⌊2^j / 5^q⌋ + 1` with `j = bit_len(5^q) - 1 +`
/// [`POW5_BITS`]. Each is `⌊2^1023 / 5^q⌋`, got by dividing by 5 `q`
/// times, shifted right by `1023 - j`: nested floors of divisions by
/// integers are the floor of the whole division.
const fn pow5_inv_table() -> [u128; 342] {
    let mut table = [0; 342];
    let mut pow: Big = [0; LIMBS];
    pow[0] = 1;
    let mut inverse: Big = [0; LIMBS];
    inverse[LIMBS - 1] = 1 << 63;
    let mut q = 0;
    while q < table.len() {
        let j = bit_len(&pow) - 1 + POW5_BITS;
        table[q] = bits_from(&inverse, 1023 - j) + 1;
        times_five(&mut pow);
        fifth(&mut inverse);
        q += 1;
    }
    table
}

/// `⌈log2(5^e)⌉`, or 1 when `e` is 0, for `e` in `0..=3528`.
fn pow5_bits(e: u32) -> u32 {
    ((e * 1_217_359) >> 19) + 1
}

/// `⌊log10(2^e)⌋` for `e` in `0..=1650`.
fn log10_pow2(e: u32) -> u32 {
    (e * 78_913) >> 18
}

/// `⌊log10(5^e)⌋` for `e` in `0..=2620`.
fn log10_pow5(e: u32) -> u32 {
    (e * 732_923) >> 20
}

/// Whether `5^p` divides `value`.
fn multiple_of_pow5(mut value: u64, p: u32) -> bool {
    for _ in 0..p {
        if !value.is_multiple_of(5) {
            return false;
        }
        value /= 5;
    }
    true
}

/// `⌊m × mul / 2^shift⌋` for `m` below 2^55 and `shift` of at least 64.
fn mul_shift(m: u64, mul: u128, shift: u32) -> u64 {
    let low = u128::from(m) * (mul & u128::from(u64::MAX));
    let high = u128::from(m) * (mul >> 64);
    // The proof of the algorithm bounds the quotient below 2^64.
    #[allow(clippy::cast_possible_truncation)]
    let quotient = (((low >> 64) + high) >> (shift - 64)) as u64;
    quotient
}

/// The shortest `digits × 10^exponent` that reads back as the finite,
/// nonzero `f64` magnitude with the biased exponent `ieee_exponent` and
/// the explicit mantissa `ieee_mantissa`; of two as near, the larger.
/// `digits` has at most 17 digits and no trailing zero.
pub(super) fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    // The value is m2 × 2^e2; two more bits leave room for the bounds.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
            1 << MANTISSA_BITS | ieee_mantissa,
        )
    };
    // A bound that reads back as the value, half-way to a neighbour,
    // counts when the mantissa is even: reading rounds half to even.
    let accept_bounds = m2.is_multiple_of(2);
    let mv = 4 * m2;
    // Below a normal power of two the neighbour is half as far, as std
    // decodes it, 2^-1022 included.
    let mm_shift = u64::from(ieee_mantissa != 0);

    // The interval [vm, vp] about vr, scaled by 10^-e10 and truncated.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_is_trailing_zeros = false;
    let scaled = |mul: u128, shift: u32| {
        (
            mul_shift(mv, mul, shift),
            mul_shift(mv + 2, mul, shift),
            mul_shift(mv - 1 - mm_shift, mul, shift),
        )
    };
    if e2 >= 0 {
        let e2 = e2.unsigned_abs();
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        let shift = q + POW5_BITS + pow5_bits(q) - 1 - e2;
        (vr, vp, vm) = scaled(POW5_INV[q as usize], shift);
        e10 = q as i32;
        // At most one of mv, mp and mm is a multiple of 5. When mv is, vr
        // may be exact, and a tie rounds up as any other half does.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mv + 2, q));
            }
        }
    } else {
        let minus_e2 = e2.unsigned_abs();
        let q = log10_pow5(minus_e2) - u32::from(minus_e2 > 1);
        let i = minus_e2 - q;
        let shift = q + POW5_BITS - pow5_bits(i);
        (vr, vp, vm) = scaled(POW5[i as usize], shift);
        e10 = q as i32 + e2;
        if q <= 1 {
            // mv = 4 × m2 has two trailing zero bits.
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval holds a shorter number, keeping the
    // last digit dropped from vr to round it by. Once no shorter number
    // is left none is left with more digits gone, so they go in groups
    // of 16, 8, 4, 2 and 1, each tried once: at most 19 of vp's 20 go.
    let mut removed = 0;
    let mut last_removed = 0;
    for (count, scale) in [
        (16, 10_u64.pow(16)),
        (8, 100_000_000),
        (4, 10_000),
        (2, 100),
        (1, 10),
    ] {
        if vp / scale > vm / scale {
            vm_is_trailing_zeros &= vm.is_multiple_of(scale);
            last_removed = vr / (scale / 10) % 10;
            (vr, vp, vm) = (vr / scale, vp / scale, vm / scale);
            removed += count;
        }
    }
    if vm_is_trailing_zeros {
        // The lower bound itself is exact and counts: shorten to it.
        while vm.is_multiple_of(10) {
            last_removed = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
    }
    // Take vr + 1 when vr is outside the interval or the dropped digits
    // were half or more.
    let round_up = (vr == vm && !vm_is_trailing_zeros) || last_removed >= 5;
    (vr + u64::from(round_up), e10 + removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tables start and step as the published ones do: `5^0` and
    /// `5^1` at 125 bits, `2^125 + 1`, and `⌊2^127 / 5⌋ + 1`.
    #[test]
    fn tables_hold_the_published_entries() {
        assert_eq!(POW5[0], 1 << 124);
        assert_eq!(POW5[1], 5 << 122);
        assert_eq!(POW5_INV[0], (1 << 125) + 1);
        assert_eq!(POW5_INV[1], (1 << 127) / 5 + 1);
        // Every other entry has 125 significant bits.
        for entry in POW5.iter().chain(&POW5_INV[1..]) {
            assert_eq!(entry >> 124, 1, "{entry:#x}");
        }
    }
}
