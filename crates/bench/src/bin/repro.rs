//! `repro` — regenerates every table and figure of Vogelsang (MICRO
//! 2010) from the model.
//!
//! Usage: `repro <report>...` where `<report>` is one of the commands
//! listed by `repro --list`, or `all`. Reports are generated
//! concurrently on the batch-evaluation engine; `--threads N` bounds the
//! fan-out (`--threads 1` forces the serial path) and `--timing` appends
//! a per-report wall-clock table and writes `BENCH_repro.json`.
//! `--profile FILE` records spans for the whole run and writes a
//! Chrome-trace JSON (chrome://tracing, Perfetto) covering every engine
//! phase — parse, validate, geometry, devices, charges, power — plus a
//! per-phase rollup table on stdout.

use std::time::{Duration, Instant};

use dram_bench::harness;
use dram_bench::ReportId;
use dram_core::EvalEngine;
use dram_obs::{Better, Record};
use dram_units::cli::Flags;

/// File the `--timing` run is serialized to, for cross-run comparison.
const TIMING_FILE: &str = "BENCH_repro.json";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return;
    }
    if let Some(pos) = args.iter().position(|a| a == "--csv") {
        let dir = args
            .get(pos + 1)
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| std::path::PathBuf::from("repro_csv"));
        match dram_bench::csv::export(&dir) {
            Ok(files) => {
                for f in files {
                    println!("wrote {}", f.display());
                }
            }
            Err(e) => {
                eprintln!("csv export failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if args.iter().any(|a| a == "--list") {
        for r in ReportId::ALL {
            println!("{:10} {}", r.command(), r.title());
        }
        return;
    }

    let Run {
        timing,
        threads,
        profile,
        selected,
    } = parse_run(args).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    });
    if profile.is_some() {
        dram_obs::set_enabled(true);
    }

    let mut engine = EvalEngine::new();
    if let Some(n) = threads {
        engine = engine.threads(n);
    }

    // Generate concurrently; print in the requested order.
    let generated: Vec<(String, Duration)> = engine.map(&selected, |r| {
        let _s = dram_obs::span("repro.report").arg("report", r.command());
        let start = Instant::now();
        let text = r.generate();
        (text, start.elapsed())
    });
    for (i, (text, _)) in generated.iter().enumerate() {
        if i > 0 {
            println!();
        }
        println!("{text}");
    }

    if timing {
        let records: Vec<Record> = selected
            .iter()
            .zip(&generated)
            .map(|(r, (_, dt))| {
                let name = format!("repro/{}", r.command());
                Record::new(name, "s", Better::Lower, &[dt.as_secs_f64()])
            })
            .collect();
        println!("\n== report generation timing ==\n");
        print!("{}", harness::render(&records));
        let values = vec![("threads", engine.thread_count().into())];
        match dram_obs::write_bench(TIMING_FILE, "repro", &records, values) {
            Ok(()) => println!("\nwrote {TIMING_FILE}"),
            Err(e) => {
                eprintln!("failed to write {TIMING_FILE}: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some(path) = profile {
        dram_obs::set_enabled(false);
        write_profile(&path);
    }
}

/// Drains the recorded spans, writes the Chrome trace, validates that
/// the written file round-trips through the workspace JSON parser, and
/// prints a per-phase rollup.
fn write_profile(path: &str) {
    let profile = dram_obs::drain();
    let doc = dram_obs::chrome_trace(&profile).to_string();
    if let Err(e) = std::fs::write(path, &doc) {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    }
    // Re-read and re-parse what actually landed on disk: the trace file
    // must be loadable, not merely written.
    let on_disk = std::fs::read_to_string(path).unwrap_or_default();
    let events = match dram_units::json::Value::parse(&on_disk) {
        Ok(v) => v
            .get("traceEvents")
            .and_then(dram_units::json::Value::as_array)
            .map_or(0, <[dram_units::json::Value]>::len),
        Err(e) => {
            eprintln!("{path} is not valid trace JSON: {e}");
            std::process::exit(1);
        }
    };

    println!("\n== span profile ==\n");
    print!("{}", dram_obs::rollup_table(&profile));
    println!(
        "\nwrote {path}: {} spans, {} trace events (load in chrome://tracing or Perfetto)",
        profile.spans.len(),
        events
    );
}

/// A report run: the flags and the reports the command line selected.
struct Run {
    timing: bool,
    threads: Option<usize>,
    profile: Option<String>,
    selected: Vec<ReportId>,
}

/// Reads `--timing`, `--threads N`, `--profile FILE` and report names.
fn parse_run(args: Vec<String>) -> Result<Run, String> {
    let mut run = Run {
        timing: false,
        threads: None,
        profile: None,
        selected: Vec::new(),
    };
    let mut flags = Flags::new(args);
    while let Some(a) = flags.next_arg() {
        match a.as_str() {
            "--timing" => run.timing = true,
            "--threads" => run.threads = Some(flags.number("--threads", "thread count", ..)?),
            "--profile" => run.profile = Some(flags.value("--profile")?),
            "all" => run.selected.extend(ReportId::ALL),
            other => run.selected.push(
                ReportId::parse(other)
                    .ok_or_else(|| format!("unknown report `{other}` (try `repro --list`)"))?,
            ),
        }
    }
    Ok(run)
}

fn print_usage() {
    println!(
        "repro — regenerate the tables and figures of\n\
         \"Understanding the Energy Consumption of Dynamic Random Access Memories\"\n\
         (Vogelsang, MICRO 2010)\n\n\
         usage: repro [--timing] [--threads N] [--profile FILE] <report>... | all | --list | --csv [dir]\n\n\
         flags:\n\
         \x20 --timing        print per-report wall time and write {TIMING_FILE}\n\
         \x20 --threads N     cap report-generation concurrency (1 = serial)\n\
         \x20 --profile FILE  record spans, write a Chrome-trace JSON and a rollup\n\n\
         reports:"
    );
    for r in ReportId::ALL {
        println!("  {:10} {}", r.command(), r.title());
    }
}
