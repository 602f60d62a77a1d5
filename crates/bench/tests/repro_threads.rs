//! `repro --threads N` sets the worker count of every evaluation its
//! reports run: a `--threads 1` profile shows only one-worker
//! `engine.map` spans, and `repro all` prints the same bytes at 1 and 4
//! workers.

use std::process::{Command, Output};

use dram_units::json::Value;

/// Runs the `repro` binary with `args`; fails the test unless it exits 0.
fn repro(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "repro {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn one_thread_runs_every_engine_map_on_one_worker() {
    let path = std::env::temp_dir().join(format!("repro-threads-{}.json", std::process::id()));
    let profile = path.to_str().expect("utf-8 temp path");
    // The reports that evaluate through the engine: sweeps, the
    // interaction matrix, the roadmap walk, the schemes, the ablations.
    repro(&[
        "--threads",
        "1",
        "--profile",
        profile,
        "fig10",
        "table3",
        "fig13",
        "section5",
        "ablations",
        "verify",
    ]);
    let text = std::fs::read_to_string(&path).expect("profile written");
    std::fs::remove_file(&path).expect("remove the profile");

    let doc = Value::parse(&text).expect("Chrome-trace JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents");
    let workers: Vec<&str> = events
        .iter()
        .filter(|e| e.get("name").and_then(Value::as_str) == Some("engine.map"))
        .map(|e| {
            e.get("args")
                .and_then(|a| a.get("workers"))
                .and_then(Value::as_str)
                .expect("engine.map carries its worker count")
        })
        .collect();
    assert!(!workers.is_empty(), "no engine.map span in the profile");
    assert!(
        workers.iter().all(|&w| w == "1"),
        "engine.map worker counts at --threads 1: {workers:?}"
    );
}

#[test]
fn all_reports_print_the_same_bytes_at_one_and_four_threads() {
    let serial = repro(&["all", "--threads", "1"]).stdout;
    let parallel = repro(&["all", "--threads", "4"]).stdout;
    assert!(
        serial.len() > 10_000,
        "repro all printed {} bytes",
        serial.len()
    );
    assert!(
        serial == parallel,
        "repro all differs between 1 and 4 threads"
    );
}
