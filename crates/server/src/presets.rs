//! The named device descriptions the service exposes.
//!
//! Every preset the library ships — the paper's calibrated 55 nm DDR3
//! reference plus the roadmap generations — is addressable by a stable
//! string name, so clients can evaluate without shipping a description
//! file. Each preset's description and content key are built once per
//! process, on first use, into one table that every request reads.

use std::sync::OnceLock;

use dram_core::reference::ddr3_1g_x16_55nm;
use dram_core::{content_key, Dram, DramDescription};
use dram_scaling::presets;
use dram_workload::{PowerDownPolicy, StreamFold, TraceDevice, TraceError, TraceErrorKind};

/// All preset names, in catalog order.
pub const NAMES: [&str; 8] = [
    "ddr3_1g_x16_55nm",
    "sdr_128m_170nm",
    "ddr2_1g_75nm",
    "ddr2_1g_65nm",
    "ddr3_1g_65nm",
    "ddr3_1g_55nm",
    "ddr3_2g_55nm",
    "ddr5_16g_18nm",
];

/// One entry of the process-wide preset table. Only the table builds
/// one, so its key is always the content key of its description.
#[derive(Debug)]
pub struct Preset {
    name: &'static str,
    description: DramDescription,
    key: u64,
}

impl Preset {
    /// The name clients send, one of [`NAMES`].
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The description the name stands for.
    #[must_use]
    pub fn description(&self) -> &DramDescription {
        &self.description
    }

    /// `content_key(self.description())`: the model-cache and
    /// shard-routing key.
    #[must_use]
    pub fn key(&self) -> u64 {
        self.key
    }
}

/// The preset called `name`, from the table built on first use; `None`
/// for unknown names.
#[must_use]
pub fn get(name: &str) -> Option<&'static Preset> {
    static TABLE: OnceLock<[Preset; NAMES.len()]> = OnceLock::new();
    TABLE
        .get_or_init(|| {
            NAMES.map(|name| {
                let description = build(name).expect("every listed name builds");
                Preset {
                    name,
                    key: content_key(&description),
                    description,
                }
            })
        })
        .iter()
        .find(|p| p.name == name)
}

/// The description for a preset name, cloned from the table; `None` for
/// unknown names.
#[must_use]
pub fn by_name(name: &str) -> Option<DramDescription> {
    get(name).map(|p| p.description.clone())
}

/// The [`TraceDevice`] of a reader that prices every trace on one model
/// it holds, such as `dram-power --trace`: it takes a `!preset NAME`
/// only if the table's `NAME` has the model's content key.
#[derive(Debug)]
pub struct FixedModel<'a> {
    dram: &'a Dram,
    /// The model's content key, hashed once rather than per `!preset`.
    key: u64,
}

impl<'a> FixedModel<'a> {
    /// The device that folds on `dram`.
    #[must_use]
    pub fn new(dram: &'a Dram) -> Self {
        let key = content_key(dram.description());
        Self { dram, key }
    }
}

impl TraceDevice for FixedModel<'_> {
    fn preset(&mut self, name: &str) -> Result<(), TraceError> {
        if get(name).is_some_and(|p| p.key == self.key) {
            return Ok(());
        }
        let message = format!("!preset {name} is not `{}`", self.dram.description().name);
        Err(TraceError::new(TraceErrorKind::Syntax, message))
    }

    fn fold(&mut self, policy: PowerDownPolicy) -> Result<StreamFold, TraceError> {
        Ok(StreamFold::new(self.dram, policy))
    }
}

fn build(name: &str) -> Option<DramDescription> {
    match name {
        "ddr3_1g_x16_55nm" => Some(ddr3_1g_x16_55nm()),
        "sdr_128m_170nm" => Some(presets::sdr_128m_170nm()),
        "ddr2_1g_75nm" => Some(presets::ddr2_1g_75nm()),
        "ddr2_1g_65nm" => Some(presets::ddr2_1g_65nm()),
        "ddr3_1g_65nm" => Some(presets::ddr3_1g_65nm()),
        "ddr3_1g_55nm" => Some(presets::ddr3_1g_55nm()),
        "ddr3_2g_55nm" => Some(presets::ddr3_2g_55nm()),
        "ddr5_16g_18nm" => Some(presets::ddr5_16g_18nm()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_preset_resolves_and_builds() {
        for name in NAMES {
            let desc = by_name(name).expect(name);
            dram_core::Dram::new(desc).expect(name);
        }
        assert!(by_name("bogus").is_none());
    }

    /// Every preset's content key, the model-cache and shard-routing key:
    /// a change to how the descriptions are built that moves one changes
    /// the device it names.
    #[test]
    fn preset_content_keys_are_pinned() {
        let keys: Vec<(&str, u64)> = NAMES
            .iter()
            .map(|name| (*name, get(name).expect(name).key()))
            .collect();
        assert_eq!(
            keys,
            [
                ("ddr3_1g_x16_55nm", 0xc7ae_0617_96b3_bb24),
                ("sdr_128m_170nm", 0x7588_bd74_24e2_692a),
                ("ddr2_1g_75nm", 0x8a5b_a7eb_9a82_6c02),
                ("ddr2_1g_65nm", 0xea27_7f47_0603_8577),
                ("ddr3_1g_65nm", 0x93fe_e6ef_df9a_498d),
                // The roadmap's 55 nm DDR3 is the reference device.
                ("ddr3_1g_55nm", 0xc7ae_0617_96b3_bb24),
                ("ddr3_2g_55nm", 0x5418_ad29_0c5f_374a),
                ("ddr5_16g_18nm", 0xdb72_ba2f_d167_03b6),
            ]
        );
    }
}
