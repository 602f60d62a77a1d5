//! Low-power states: power-down and self-refresh.
//!
//! The §V systems work the paper discusses (Hur & Lin's power-down
//! scheduling \[11\], Zheng et al.'s mini-rank \[14\]) trades performance
//! against time spent in the CKE-low states, so the model must price
//! them: with CKE low the clock tree stops, the command/address input
//! stage is gated, and only a small keeper fraction of the background
//! logic keeps toggling; in self-refresh the device additionally runs
//! its own distributed refresh out of the internal oscillator.

use dram_units::Watts;

use crate::model::{Dram, REFRESH_COMMANDS_PER_WINDOW};
use crate::power::static_power;

/// Share of the background (clock + always-on logic) switching power
/// that survives in a CKE-low power-down state: the internal oscillator
/// and keeper circuits.
pub const POWER_DOWN_ACTIVITY: f64 = 0.05;

/// Share of the constant current sink that survives in power-down
/// (references stay biased; DLL bias is gated).
pub const POWER_DOWN_STATIC_SHARE: f64 = 0.5;

/// Rows covered by one auto-refresh command when `total_rows` are spread
/// over the [`REFRESH_COMMANDS_PER_WINDOW`] commands of a refresh window.
#[must_use]
pub fn rows_per_refresh(total_rows: u64) -> f64 {
    (total_rows / REFRESH_COMMANDS_PER_WINDOW).max(1) as f64
}

/// Operating temperature range, which sets the required refresh rate
/// (retention halves in the extended range; the refresh-power lever Emma
/// et al. \[12\] exploit in the other direction by refreshing less often
/// when retention allows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TemperatureRange {
    /// Up to 85 °C: the datasheet tREFI.
    #[default]
    Normal,
    /// 85–95 °C: refresh interval halves (2x refresh power).
    Extended,
}

impl TemperatureRange {
    /// Multiplier on the refresh rate relative to the datasheet tREFI.
    #[must_use]
    pub fn refresh_rate_factor(self) -> f64 {
        match self {
            TemperatureRange::Normal => 1.0,
            TemperatureRange::Extended => 2.0,
        }
    }
}

/// A CKE-controlled device power state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PowerState {
    /// CKE high, all banks precharged, clock running (IDD2N).
    PrechargedStandby,
    /// CKE high, at least one bank open (IDD3N; the model books no DC
    /// difference to IDD2N).
    ActiveStandby,
    /// CKE low with all banks precharged (IDD2P).
    PrechargePowerDown,
    /// CKE low with a bank open (IDD3P).
    ActivePowerDown,
    /// Self-refresh: CKE low, device refreshes itself (IDD6).
    SelfRefresh,
}

impl PowerState {
    /// All power states.
    pub const ALL: [PowerState; 5] = [
        PowerState::PrechargedStandby,
        PowerState::ActiveStandby,
        PowerState::PrechargePowerDown,
        PowerState::ActivePowerDown,
        PowerState::SelfRefresh,
    ];

    /// The datasheet current symbol measuring this state.
    #[must_use]
    pub fn idd_symbol(self) -> &'static str {
        match self {
            PowerState::PrechargedStandby => "IDD2N",
            PowerState::ActiveStandby => "IDD3N",
            PowerState::PrechargePowerDown => "IDD2P",
            PowerState::ActivePowerDown => "IDD3P",
            PowerState::SelfRefresh => "IDD6",
        }
    }
}

impl core::fmt::Display for PowerState {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.idd_symbol())
    }
}

impl Dram {
    /// Average external power of a held power state.
    #[must_use]
    pub fn state_power(&self, state: PowerState) -> Watts {
        let e = &self.description().electrical;
        let switching = self.background_power() - static_power(e);
        match state {
            PowerState::PrechargedStandby | PowerState::ActiveStandby => self.background_power(),
            PowerState::PrechargePowerDown | PowerState::ActivePowerDown => {
                switching * POWER_DOWN_ACTIVITY + static_power(e) * POWER_DOWN_STATIC_SHARE
            }
            PowerState::SelfRefresh => {
                let pd =
                    switching * POWER_DOWN_ACTIVITY + static_power(e) * POWER_DOWN_STATIC_SHARE;
                pd + self.distributed_refresh_power()
            }
        }
    }

    /// External energy of one auto-refresh command: the activate +
    /// precharge of every row the command refreshes
    /// ([`rows_per_refresh`] of them), as [`Dram::command_energy`]
    /// prices a [`crate::Command::Refresh`].
    #[must_use]
    pub fn refresh_command_energy(&self) -> dram_units::Joules {
        self.command_energy(crate::Command::Refresh)
    }

    /// Average power of refreshing the whole device once per refresh
    /// window with refreshes spread at tREFI (the self-refresh and
    /// auto-refresh background cost).
    #[must_use]
    pub fn distributed_refresh_power(&self) -> Watts {
        let timing = &self.description().timing;
        self.refresh_command_energy() * timing.trefi.to_hertz()
    }

    /// Distributed refresh power at a temperature range, and with an
    /// optional retention-aware refresh-rate scaling (Emma et al. \[12\]:
    /// `rate_factor < 1` models refreshing less often where retention
    /// allows; `> 1` models extended-temperature operation).
    #[must_use]
    pub fn refresh_power_at(&self, temperature: TemperatureRange, rate_factor: f64) -> Watts {
        self.distributed_refresh_power()
            * (temperature.refresh_rate_factor() * rate_factor.max(0.0))
    }

    /// Energy saved by spending `fraction` of idle time in precharge
    /// power-down instead of precharged standby — the §V quantity a
    /// memory controller's power-down policy trades against the exit
    /// latency.
    #[must_use]
    pub fn power_down_saving(&self, fraction: f64) -> Watts {
        let standby = self.state_power(PowerState::PrechargedStandby);
        let down = self.state_power(PowerState::PrechargePowerDown);
        (standby - down) * fraction.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ddr3_1g_x16_55nm;

    fn model() -> Dram {
        Dram::new(ddr3_1g_x16_55nm()).expect("valid")
    }

    #[test]
    fn power_state_ordering_matches_datasheets() {
        let m = model();
        let p = |s| m.state_power(s).milliwatts();
        // IDD2P < IDD6 < IDD2N, and IDD3N = IDD2N in this model.
        assert!(p(PowerState::PrechargePowerDown) < p(PowerState::SelfRefresh));
        assert!(p(PowerState::SelfRefresh) < p(PowerState::PrechargedStandby));
        assert_eq!(
            p(PowerState::PrechargedStandby),
            p(PowerState::ActiveStandby)
        );
        assert_eq!(
            p(PowerState::PrechargePowerDown),
            p(PowerState::ActivePowerDown)
        );
    }

    #[test]
    fn power_down_saves_most_of_standby() {
        let m = model();
        let standby = m.state_power(PowerState::PrechargedStandby);
        let down = m.state_power(PowerState::PrechargePowerDown);
        let ratio = down.watts() / standby.watts();
        // Datasheets put IDD2P at roughly 10–30 % of IDD2N.
        assert!((0.03..0.4).contains(&ratio), "IDD2P/IDD2N = {ratio}");
    }

    #[test]
    fn self_refresh_includes_refresh_energy() {
        let m = model();
        let pd = m.state_power(PowerState::PrechargePowerDown);
        let sr = m.state_power(PowerState::SelfRefresh);
        let refresh = m.distributed_refresh_power();
        assert!((sr.watts() - pd.watts() - refresh.watts()).abs() < 1e-12);
        // Distributed refresh of a 1 Gb device: a few mW.
        let mw = refresh.milliwatts();
        assert!(mw > 0.3 && mw < 20.0, "refresh power {mw} mW");
    }

    #[test]
    fn power_down_saving_is_linear_and_clamped() {
        let m = model();
        let half = m.power_down_saving(0.5);
        let full = m.power_down_saving(1.0);
        assert!((full.watts() - 2.0 * half.watts()).abs() < 1e-12);
        assert_eq!(m.power_down_saving(2.0), full);
        assert_eq!(m.power_down_saving(-1.0), Watts::ZERO);
    }

    #[test]
    fn refresh_power_scales_with_temperature_and_rate() {
        let m = model();
        let normal = m.refresh_power_at(TemperatureRange::Normal, 1.0);
        let hot = m.refresh_power_at(TemperatureRange::Extended, 1.0);
        assert!((hot.watts() - 2.0 * normal.watts()).abs() < 1e-15);
        // Emma-style retention-aware refresh at a quarter of the rate.
        let relaxed = m.refresh_power_at(TemperatureRange::Normal, 0.25);
        assert!((relaxed.watts() - normal.watts() / 4.0).abs() < 1e-15);
        assert_eq!(
            m.refresh_power_at(TemperatureRange::Normal, -1.0).watts(),
            0.0
        );
    }

    #[test]
    fn symbols_are_the_datasheet_names() {
        assert_eq!(PowerState::SelfRefresh.to_string(), "IDD6");
        assert_eq!(PowerState::PrechargePowerDown.idd_symbol(), "IDD2P");
    }
}
