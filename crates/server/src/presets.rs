//! The named device descriptions the service exposes.
//!
//! Every preset the library ships — the paper's calibrated 55 nm DDR3
//! reference plus the roadmap generations — is addressable by a stable
//! string name, so clients can evaluate without shipping a description
//! file. Each preset's description and content key are built once per
//! process, on first use, into one table that every request reads.

use std::sync::OnceLock;

use dram_core::reference::ddr3_1g_x16_55nm;
use dram_core::{content_key, DramDescription};
use dram_scaling::presets;

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
}
