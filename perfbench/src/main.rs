//! Runs one workload and prints the result line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! A human-readable report goes to standard error; the last line of
//! standard output is the JSON result. Exits 1 when the oracle finds a
//! wrong reply, 2 on bad arguments.

use perfbench::report::result_line;
use perfbench::workload::{self, Args, Workload};

const USAGE: &str =
    "usage: perfbench --workload <evaluate_warm|evaluate_cold|trace_stream|routed_warm> \
                     --seed <n> --seconds <1..=600> --trace <0|1>";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::EvaluateWarm,
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut named = false;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?;
                named = true;
            }
            "--seed" => {
                args.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?;
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("bad seconds `{value}`"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag `{value}`")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if named {
        Ok(args)
    } else {
        Err("--workload is required".into())
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    eprintln!(
        "perfbench {} seed {} for {} s{}: nproc {}, kernel {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" },
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        kernel.trim()
    );
    let outcome = workload::run(&args);
    for note in &outcome.notes {
        eprintln!("  {note}");
    }
    for problem in &outcome.problems {
        eprintln!("  WRONG: {problem}");
    }
    println!(
        "{}",
        result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    if !outcome.correct {
        std::process::exit(1);
    }
}
