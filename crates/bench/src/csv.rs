//! CSV export of the figure data series, for plotting outside the
//! terminal. `repro --csv <dir>` writes one file per figure.

use std::io;
use std::path::{Path, PathBuf};

use dram_core::{Dram, EvalEngine};
use dram_scaling::curves::{f_shrink, ScalingParam};
use dram_scaling::trends::{energy_trends, timing_trends, voltage_trends};
use dram_scaling::ROADMAP;

fn write_file(dir: &Path, name: &str, content: &str) -> io::Result<PathBuf> {
    let path = dir.join(name);
    std::fs::write(&path, content)?;
    Ok(path)
}

fn scaling_csv(figure: u8) -> String {
    let params: Vec<ScalingParam> = ScalingParam::ALL
        .iter()
        .copied()
        .filter(|p| p.figure() == figure)
        .collect();
    let mut out = String::from("node_nm,f_shrink");
    for p in &params {
        out.push(',');
        out.push_str(&p.name().replace(' ', "_"));
    }
    out.push('\n');
    for node in &ROADMAP {
        out.push_str(&format!("{},{:.4}", node.feature_nm, f_shrink(node)));
        for p in &params {
            out.push_str(&format!(",{:.4}", p.shrink_from_first(node)));
        }
        out.push('\n');
    }
    out
}

fn trends_csv(engine: &EvalEngine) -> (String, String, String) {
    let mut v = String::from("node_nm,year,vdd,vint,vbl,vpp\n");
    for row in voltage_trends() {
        v.push_str(&format!(
            "{},{},{},{},{},{}\n",
            row.node.feature_nm, row.node.year, row.vdd, row.vint, row.vbl, row.vpp
        ));
    }
    let mut t = String::from("node_nm,year,datarate_mbps,trc_ns,trcd_ns,trp_ns\n");
    for row in timing_trends() {
        t.push_str(&format!(
            "{},{},{},{},{},{}\n",
            row.node.feature_nm,
            row.node.year,
            row.datarate_mbps,
            row.trc_ns,
            row.trcd_ns,
            row.trp_ns
        ));
    }
    let mut e = String::from("node_nm,year,density_mbit,die_mm2,epb_stream_pj,epb_random_pj\n");
    for row in energy_trends(engine) {
        e.push_str(&format!(
            "{},{},{},{:.2},{:.3},{:.3}\n",
            row.node.feature_nm,
            row.node.year,
            row.node.density_mbit,
            row.die_mm2,
            row.epb_stream_pj,
            row.epb_random_pj
        ));
    }
    (v, t, e)
}

fn verification_csv() -> String {
    use dram_datasheet::corpus::{configurations, envelope, IddMeasure, DDR2_1GB, DDR3_1GB};
    let mut out =
        String::from("standard,measure,datarate_mbps,io_width,vendor_min_ma,vendor_max_ma\n");
    for (name, corpus) in [("DDR2", &DDR2_1GB[..]), ("DDR3", &DDR3_1GB[..])] {
        for (io, rate) in configurations(corpus) {
            for m in IddMeasure::PLOTTED {
                let env = envelope(corpus, io, rate, m).expect("config exists");
                out.push_str(&format!(
                    "{name},{},{rate},{io},{},{}\n",
                    m.label(),
                    env.min_ma,
                    env.max_ma
                ));
            }
        }
    }
    out
}

fn schemes_csv(engine: &EvalEngine) -> String {
    let base = dram_scaling::presets::ddr3_2g_55nm();
    let evals = dram_schemes::evaluate_all(engine, &base).expect("schemes evaluate");
    let mut out =
        String::from("scheme,act_pre_nj,read_pj,energy_per_bit_pj,savings,area_overhead\n");
    for e in evals {
        out.push_str(&format!(
            "{},{:.3},{:.1},{:.2},{:.4},{:.4}\n",
            e.scheme.name().replace(' ', "_"),
            e.act_pre_energy.joules() * 1e9,
            e.read_energy.picojoules(),
            e.energy_per_bit.picojoules(),
            e.savings,
            e.area_overhead
        ));
    }
    out
}

fn idd_roadmap_csv() -> String {
    let mut out = String::from(
        "node_nm,interface,idd0_ma,idd2n_ma,idd2p_ma,idd4r_ma,idd4w_ma,idd5_ma,idd6_ma,idd7_ma\n",
    );
    for node in &ROADMAP {
        let dram = Dram::new(dram_scaling::presets::preset(node)).expect("valid");
        let i = dram.idd();
        out.push_str(&format!(
            "{},{},{:.1},{:.1},{:.1},{:.1},{:.1},{:.1},{:.1},{:.1}\n",
            node.feature_nm,
            node.interface,
            i.idd0.milliamperes(),
            i.idd2n.milliamperes(),
            i.idd2p.milliamperes(),
            i.idd4r.milliamperes(),
            i.idd4w.milliamperes(),
            i.idd5.milliamperes(),
            i.idd6.milliamperes(),
            i.idd7.milliamperes()
        ));
    }
    out
}

/// Writes all figure data series as CSV files into `dir`, evaluating the
/// Fig. 13 and §V series on `engine`, and returns the written paths.
///
/// # Errors
///
/// Returns any I/O error from creating the directory or writing files.
pub fn export(dir: &Path, engine: &EvalEngine) -> io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let (v, t, e) = trends_csv(engine);
    let written = vec![
        write_file(dir, "fig05_scaling.csv", &scaling_csv(5))?,
        write_file(dir, "fig06_scaling.csv", &scaling_csv(6))?,
        write_file(dir, "fig07_scaling.csv", &scaling_csv(7))?,
        write_file(dir, "fig08_09_vendor_envelopes.csv", &verification_csv())?,
        write_file(dir, "fig11_voltages.csv", &v)?,
        write_file(dir, "fig12_timing.csv", &t)?,
        write_file(dir, "fig13_energy.csv", &e)?,
        write_file(dir, "section5_schemes.csv", &schemes_csv(engine))?,
        write_file(dir, "idd_roadmap.csv", &idd_roadmap_csv())?,
    ];
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_writes_all_series() {
        let dir = std::env::temp_dir().join(format!("dram_csv_{}", std::process::id()));
        let files = export(&dir, EvalEngine::global()).expect("exports");
        assert_eq!(files.len(), 9);
        for f in &files {
            let text = std::fs::read_to_string(f).expect("readable");
            let lines = text.lines().count();
            assert!(lines > 3, "{}: only {lines} lines", f.display());
            // Every data row has the header's column count.
            let cols = text.lines().next().unwrap().split(',').count();
            for line in text.lines().skip(1) {
                assert_eq!(line.split(',').count(), cols, "{}: ragged row", f.display());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
