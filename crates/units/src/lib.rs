//! Strongly-typed physical quantities for the `dram-energy` workspace.
//!
//! The DRAM power model of Vogelsang (MICRO 2010) is a large sum of
//! `½·C·V²·f` terms over every wire segment and device in a DRAM. Getting a
//! single exponent or unit prefix wrong silently corrupts every downstream
//! figure, so all model code manipulates the newtypes defined here instead
//! of bare `f64`s. Each quantity stores its value in the base SI unit
//! (farads, volts, meters, …) and only the constructors/accessors know about
//! prefixes.
//!
//! Cross-unit arithmetic is implemented for exactly the physically
//! meaningful combinations the model needs, e.g.:
//!
//! ```
//! use dram_units::{Farads, Volts, Hertz};
//!
//! let c = Farads::from_ff(85.0);     // a bitline
//! let v = Volts::new(1.2);           // bitline voltage
//! let q = c * v;                     // charge moved per event
//! let f = Hertz::from_mhz(20.0);     // row cycle rate
//! let i = q * f;                     // average current
//! let p = i * v;                     // power at that rail
//! assert!((p.watts() - 85.0e-15 * 1.2 * 1.2 * 20.0e6).abs() < 1e-18);
//! ```
//!
//! The [`eng`] module provides engineering-notation formatting shared by the
//! description-language pretty printer and the report generators.
#![warn(missing_docs)]

mod arith;
pub mod cli;
pub mod eng;
pub mod json;
pub mod rng;

pub use arith::{half_cv2, supply_energy};

/// Defines an `f64`-backed quantity newtype with ordering, arithmetic among
/// itself, and scalar multiplication/division.
macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $base:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// The zero value of this quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates a value expressed in the base SI unit.
            #[inline]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the value in the base SI unit.
            #[inline]
            pub const fn $base(self) -> f64 {
                self.0
            }

            /// Returns the absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the larger of two values.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the smaller of two values.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns `true` if the value is finite (not NaN or infinite).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Dimensionless ratio of two values of the same quantity.
            ///
            /// # Examples
            ///
            /// ```
            #[doc = concat!("use dram_units::", stringify!($name), " as Q;")]
            /// assert_eq!(Q::new(3.0).ratio(Q::new(2.0)), 1.5);
            /// ```
            #[inline]
            pub fn ratio(self, other: Self) -> f64 {
                self.0 / other.0
            }
        }

        impl core::ops::Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl core::ops::AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl core::ops::Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl core::ops::SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl core::ops::Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl core::ops::Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl core::ops::Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl core::ops::Div for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl core::ops::Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl core::iter::Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }

        impl<'a> core::iter::Sum<&'a $name> for $name {
            fn sum<I: Iterator<Item = &'a Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }

        impl core::fmt::Display for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                crate::eng::write_eng(f, self.0, $unit)
            }
        }
    };
}

quantity!(
    /// Electric potential in volts.
    Volts, volts, "V"
);
quantity!(
    /// Capacitance in farads.
    Farads, farads, "F"
);
quantity!(
    /// Electric charge in coulombs.
    Coulombs, coulombs, "C"
);
quantity!(
    /// Current in amperes.
    Amperes, amperes, "A"
);
quantity!(
    /// Power in watts.
    Watts, watts, "W"
);
quantity!(
    /// Energy in joules.
    Joules, joules, "J"
);
quantity!(
    /// Time in seconds.
    Seconds, seconds, "s"
);
quantity!(
    /// Frequency in hertz.
    Hertz, hertz, "Hz"
);
quantity!(
    /// Length in meters.
    Meters, meters, "m"
);
quantity!(
    /// Area in square meters.
    SquareMeters, square_meters, "m²"
);
quantity!(
    /// Capacitance per unit length in farads per meter (specific wire
    /// capacitance).
    FaradsPerMeter, farads_per_meter, "F/m"
);
quantity!(
    /// Capacitance per unit area in farads per square meter (gate oxide
    /// areal capacitance).
    FaradsPerSquareMeter, farads_per_square_meter, "F/m²"
);
quantity!(
    /// Data throughput in bits per second.
    BitsPerSecond, bits_per_second, "b/s"
);

impl Volts {
    /// Creates a potential expressed in millivolts.
    #[inline]
    pub const fn from_mv(mv: f64) -> Self {
        Self(mv * 1e-3)
    }

    /// Returns the potential in millivolts.
    #[inline]
    pub const fn millivolts(self) -> f64 {
        self.0 * 1e3
    }
}

impl Farads {
    /// Creates a capacitance expressed in femtofarads.
    #[inline]
    pub const fn from_ff(ff: f64) -> Self {
        Self(ff * 1e-15)
    }

    /// Creates a capacitance expressed in picofarads.
    #[inline]
    pub const fn from_pf(pf: f64) -> Self {
        Self(pf * 1e-12)
    }

    /// Returns the capacitance in femtofarads.
    #[inline]
    pub const fn femtofarads(self) -> f64 {
        self.0 * 1e15
    }

    /// Returns the capacitance in picofarads.
    #[inline]
    pub const fn picofarads(self) -> f64 {
        self.0 * 1e12
    }
}

impl Amperes {
    /// Creates a current expressed in milliamperes.
    #[inline]
    pub const fn from_ma(ma: f64) -> Self {
        Self(ma * 1e-3)
    }

    /// Returns the current in milliamperes (the unit of datasheet IDD
    /// values).
    #[inline]
    pub const fn milliamperes(self) -> f64 {
        self.0 * 1e3
    }
}

impl Watts {
    /// Creates a power expressed in milliwatts.
    #[inline]
    pub const fn from_mw(mw: f64) -> Self {
        Self(mw * 1e-3)
    }

    /// Returns the power in milliwatts.
    #[inline]
    pub const fn milliwatts(self) -> f64 {
        self.0 * 1e3
    }
}

impl Joules {
    /// Creates an energy expressed in picojoules.
    #[inline]
    pub const fn from_pj(pj: f64) -> Self {
        Self(pj * 1e-12)
    }

    /// Returns the energy in picojoules (the unit of energy-per-bit plots).
    #[inline]
    pub const fn picojoules(self) -> f64 {
        self.0 * 1e12
    }
}

impl Seconds {
    /// Creates a time expressed in nanoseconds.
    #[inline]
    pub const fn from_ns(ns: f64) -> Self {
        Self(ns * 1e-9)
    }

    /// Returns the time in nanoseconds (the unit of DRAM timing
    /// parameters).
    #[inline]
    pub const fn nanoseconds(self) -> f64 {
        self.0 * 1e9
    }

    /// Reciprocal: the frequency of an event repeating with this period.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the period is not strictly positive.
    #[inline]
    pub fn to_hertz(self) -> Hertz {
        debug_assert!(self.0 > 0.0, "period must be positive");
        Hertz(1.0 / self.0)
    }
}

impl Hertz {
    /// Creates a frequency expressed in megahertz.
    #[inline]
    pub const fn from_mhz(mhz: f64) -> Self {
        Self(mhz * 1e6)
    }

    /// Creates a frequency expressed in gigahertz.
    #[inline]
    pub const fn from_ghz(ghz: f64) -> Self {
        Self(ghz * 1e9)
    }

    /// Returns the frequency in megahertz.
    #[inline]
    pub const fn megahertz(self) -> f64 {
        self.0 * 1e-6
    }

    /// Reciprocal: the period of one cycle at this frequency.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the frequency is not strictly positive.
    #[inline]
    pub fn to_period(self) -> Seconds {
        debug_assert!(self.0 > 0.0, "frequency must be positive");
        Seconds(1.0 / self.0)
    }
}

impl Meters {
    /// Creates a length expressed in nanometers.
    #[inline]
    pub const fn from_nm(nm: f64) -> Self {
        Self(nm * 1e-9)
    }

    /// Creates a length expressed in micrometers.
    #[inline]
    pub const fn from_um(um: f64) -> Self {
        Self(um * 1e-6)
    }

    /// Creates a length expressed in millimeters.
    #[inline]
    pub const fn from_mm(mm: f64) -> Self {
        Self(mm * 1e-3)
    }

    /// Returns the length in nanometers.
    #[inline]
    pub const fn nanometers(self) -> f64 {
        self.0 * 1e9
    }

    /// Returns the length in micrometers.
    #[inline]
    pub const fn micrometers(self) -> f64 {
        self.0 * 1e6
    }

    /// Returns the length in millimeters.
    #[inline]
    pub const fn millimeters(self) -> f64 {
        self.0 * 1e3
    }
}

impl SquareMeters {
    /// Creates an area expressed in square millimeters (the unit of die
    /// area plots).
    #[inline]
    pub const fn from_mm2(mm2: f64) -> Self {
        Self(mm2 * 1e-6)
    }

    /// Creates an area expressed in square micrometers.
    #[inline]
    pub const fn from_um2(um2: f64) -> Self {
        Self(um2 * 1e-12)
    }

    /// Returns the area in square millimeters.
    #[inline]
    pub const fn square_millimeters(self) -> f64 {
        self.0 * 1e6
    }

    /// Returns the area in square micrometers.
    #[inline]
    pub const fn square_micrometers(self) -> f64 {
        self.0 * 1e12
    }
}

impl FaradsPerMeter {
    /// Creates a specific wire capacitance expressed in femtofarads per
    /// micrometer, the customary unit in DRAM design (1 fF/µm = 1e-9 F/m).
    #[inline]
    pub const fn from_ff_per_um(ff_per_um: f64) -> Self {
        Self(ff_per_um * 1e-9)
    }

    /// Returns the specific capacitance in femtofarads per micrometer.
    #[inline]
    pub const fn ff_per_um(self) -> f64 {
        self.0 * 1e9
    }
}

impl FaradsPerSquareMeter {
    /// Creates an areal capacitance expressed in femtofarads per square
    /// micrometer (1 fF/µm² = 1e-3 F/m²).
    #[inline]
    pub const fn from_ff_per_um2(ff_per_um2: f64) -> Self {
        Self(ff_per_um2 * 1e-3)
    }

    /// Returns the areal capacitance in femtofarads per square micrometer.
    #[inline]
    pub const fn ff_per_um2(self) -> f64 {
        self.0 * 1e3
    }
}

impl BitsPerSecond {
    /// Creates a data rate expressed in megabits per second.
    #[inline]
    pub const fn from_mbps(mbps: f64) -> Self {
        Self(mbps * 1e6)
    }

    /// Creates a data rate expressed in gigabits per second.
    #[inline]
    pub const fn from_gbps(gbps: f64) -> Self {
        Self(gbps * 1e9)
    }

    /// Returns the data rate in megabits per second.
    #[inline]
    pub const fn mbps(self) -> f64 {
        self.0 * 1e-6
    }

    /// Returns the data rate in gigabits per second.
    #[inline]
    pub const fn gbps(self) -> f64 {
        self.0 * 1e-9
    }

    /// Frequency of bit transfers on a single wire carrying this rate.
    #[inline]
    pub const fn to_hertz(self) -> Hertz {
        Hertz(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Relative-error equality for constructor round trips: exact binary
    /// equality does not survive the prefix multiplications.
    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * b.abs().max(1.0)
    }

    #[test]
    fn constructors_roundtrip() {
        assert!(close(Volts::from_mv(1500.0).volts(), 1.5));
        assert!(close(Farads::from_ff(85.0).femtofarads(), 85.0));
        assert!(close(Farads::from_pf(1.0).femtofarads(), 1000.0));
        assert!(close(Amperes::from_ma(100.0).amperes(), 0.1));
        assert!(close(Seconds::from_ns(50.0).nanoseconds(), 50.0));
        assert!(close(Hertz::from_mhz(800.0).hertz(), 800.0e6));
        assert!(close(Hertz::from_ghz(1.6).megahertz(), 1600.0));
        assert!(close(Meters::from_nm(165.0).micrometers(), 0.165));
        assert!(close(Meters::from_um(3396.0).millimeters(), 3.396));
        assert!(close(Meters::from_mm(8.0).meters(), 8.0e-3));
        assert!(close(
            SquareMeters::from_mm2(50.0).square_millimeters(),
            50.0
        ));
        assert!(close(BitsPerSecond::from_gbps(1.6).mbps(), 1600.0));
        assert!(close(Watts::from_mw(250.0).watts(), 0.25));
        assert!(close(Joules::from_pj(30.0).joules(), 30.0e-12));
    }

    #[test]
    fn same_unit_arithmetic() {
        let a = Volts::new(1.0);
        let b = Volts::new(0.5);
        assert_eq!((a + b).volts(), 1.5);
        assert_eq!((a - b).volts(), 0.5);
        assert_eq!((a * 2.0).volts(), 2.0);
        assert_eq!((2.0 * a).volts(), 2.0);
        assert_eq!((a / 4.0).volts(), 0.25);
        assert_eq!(a / b, 2.0);
        assert_eq!((-a).volts(), -1.0);
        let mut c = a;
        c += b;
        assert_eq!(c.volts(), 1.5);
        c -= b;
        assert_eq!(c.volts(), 1.0);
    }

    #[test]
    fn sum_over_iterator() {
        let caps = [
            Farads::from_ff(10.0),
            Farads::from_ff(20.0),
            Farads::from_ff(30.0),
        ];
        let total: Farads = caps.iter().sum();
        assert!((total.femtofarads() - 60.0).abs() < 1e-9);
        let owned: Farads = caps.into_iter().sum();
        assert!((owned.femtofarads() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn reciprocal_period_frequency() {
        let f = Hertz::from_mhz(800.0);
        let t = f.to_period();
        assert!((t.nanoseconds() - 1.25).abs() < 1e-12);
        assert!((t.to_hertz().hertz() - f.hertz()).abs() < 1.0);
    }

    #[test]
    fn ratio_and_ordering() {
        assert!(Volts::new(1.2) > Volts::new(1.1));
        assert_eq!(Meters::from_um(2.0).ratio(Meters::from_um(1.0)), 2.0);
        assert_eq!(Volts::new(1.0).max(Volts::new(2.0)).volts(), 2.0);
        assert_eq!(Volts::new(1.0).min(Volts::new(2.0)).volts(), 1.0);
        assert_eq!(Volts::new(-3.0).abs().volts(), 3.0);
    }

    #[test]
    fn zero_and_default() {
        assert_eq!(Farads::ZERO.farads(), 0.0);
        assert_eq!(Farads::default(), Farads::ZERO);
        assert!(Farads::from_ff(1.0).is_finite());
        assert!(!Farads::new(f64::NAN).is_finite());
    }

    #[test]
    fn display_uses_engineering_notation() {
        assert_eq!(Farads::from_ff(85.0).to_string(), "85 fF");
        assert_eq!(Volts::new(1.5).to_string(), "1.5 V");
        assert_eq!(Amperes::from_ma(103.0).to_string(), "103 mA");
        assert_eq!(Hertz::from_mhz(800.0).to_string(), "800 MHz");
    }
}
