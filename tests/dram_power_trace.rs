//! `dram-power --trace` end to end: the binary reads the `/v1/trace`
//! grammar that `write_trace` writes, prices it with the fold `simulate`
//! runs, and refuses a bank-timing violation, a foreign `!preset`, a late
//! `!policy`, the retired `cycle bank command` spelling, a trace without
//! a command line and a `!preset` after one, each with its line and kind
//! as `/v1/trace` does.

use std::path::PathBuf;
use std::process::{Command, Output};

use dram_energy::scaling::{presets, TechNode};
use dram_energy::workload::{
    generate_validated, simulate, write_trace, PowerDownPolicy, WorkloadSpec,
};
use dram_energy::Dram;

/// Runs `dram-power --preset 55 --trace` on `text`, written to a file
/// named after `name`; returns the output and the path it printed.
fn price(name: &str, text: &str) -> (Output, PathBuf) {
    let path = std::env::temp_dir().join(format!(
        "dram-power-trace-{}-{name}.trace",
        std::process::id()
    ));
    std::fs::write(&path, text).expect("write the trace");
    let out = Command::new(env!("CARGO_BIN_EXE_dram-power"))
        .args(["--preset", "55", "--trace"])
        .arg(&path)
        .output()
        .expect("dram-power runs");
    std::fs::remove_file(&path).expect("remove the trace");
    (out, path)
}

#[test]
fn written_trace_prices_as_simulate_does() {
    let node = TechNode::by_feature(55.0).expect("55 nm node");
    let dram = Dram::new(presets::preset(node)).expect("builds");
    let w = generate_validated(&dram, &WorkloadSpec::random(300, 11)).expect("generates");
    let report = simulate(&dram, &w.trace, PowerDownPolicy::NEVER).expect("legal");
    let (out, path) = price("written", &write_trace(&w.trace));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let expected = format!(
        "trace `{}`: {} commands over {:.2} µs — {:.1} mW average, \
         {:.1} pJ/bit ({:.1} kbit moved)",
        path.display(),
        w.trace.commands().len(),
        report.duration.seconds() * 1e6,
        report.average_power.milliwatts(),
        report.energy_per_bit.picojoules(),
        report.bits / 1e3
    );
    assert!(stdout.lines().any(|l| l == expected), "{stdout}");
}

#[test]
fn refused_traces_name_their_line_and_kind() {
    for (name, text, wants) in [
        ("trcd", "0 act 0\n6 rd 0\n", &["line 2:", "(timing)"][..]),
        (
            "foreign-preset",
            "!preset ddr5_16g_18nm\n0 act 0\n",
            &["line 1:", "ddr5_16g_18nm"],
        ),
        (
            "late-policy",
            "0 act 0\n!policy aggressive\n",
            &["line 2:", "(bad_transition)"],
        ),
        (
            "old-spelling",
            "0 0 act\n",
            &[r#"line 1: unknown command "0" (syntax)"#],
        ),
        ("empty", "", &[": trace contains no commands (syntax)"]),
        (
            "comment-only",
            "# no command line\n",
            &[": trace contains no commands (syntax)"],
        ),
        (
            "preset-only",
            "!preset ddr3_1g_x16_55nm\n",
            &[": trace contains no commands (syntax)"],
        ),
        (
            "preset-after-nop",
            "0 nop\n!preset ddr3_1g_x16_55nm\n0 act 0\n",
            &["line 2: !preset must precede the first command (bad_transition)"],
        ),
    ] {
        let (out, _) = price(name, text);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        for want in wants {
            assert!(stderr.contains(want), "{name}: {stderr}");
        }
    }
    let (out, _) = price("own-preset", "!preset ddr3_1g_x16_55nm\n0 act 0\n");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
