//! `dram-power`'s usage: `--help` and `-h` print it and exit 0, as the
//! other binaries do, while a command line with neither an input file
//! nor `--preset` prints the same usage as a refusal and exits 2.

use std::process::{Command, Output};

fn dram_power(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dram-power"))
        .args(args)
        .output()
        .expect("dram-power runs")
}

#[test]
fn help_exits_0_and_a_missing_input_exits_2() {
    let help = dram_power(&["--help"]);
    let usage = String::from_utf8_lossy(&help.stderr);
    assert_eq!(help.status.code(), Some(0), "{usage}");
    assert!(help.stdout.is_empty());
    assert!(
        usage.starts_with("dram-power — description-driven DRAM power model")
            && usage.contains("\nusage:\n  dram-power <file.dram> ")
            && usage.ends_with("(see docs/TRACES.md)\n"),
        "{usage}"
    );
    for (args, code) in [
        (&["-h"][..], 0),
        (&["--breakdown", "--help"], 0),
        (&[], 2),
        (&["--breakdown"], 2),
    ] {
        let out = dram_power(args);
        assert_eq!(out.status.code(), Some(code), "{args:?}");
        assert_eq!(out.stderr, help.stderr, "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
    // A refused flag keeps its message above the usage, and exit 2.
    let out = dram_power(&["--no-such-flag"]);
    assert_eq!(out.status.code(), Some(2));
    let refused = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        refused,
        format!("error: unknown argument `--no-such-flag`\n\n{usage}")
    );
}
