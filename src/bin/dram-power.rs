//! `dram-power` — the reproduction of the paper's tool itself: read a
//! DRAM description file, run the Fig. 4 pipeline, and print currents,
//! per-operation energy breakdowns and pattern power.
//!
//! ```text
//! dram-power <file.dram> [--pattern "act nop rd nop pre nop"] [--trace trace.txt] [--breakdown]
//! dram-power --preset <feature_nm> [--trace trace.txt] [--breakdown]
//! ```
//!
//! A `--trace` file is in the `/v1/trace` grammar (see `docs/TRACES.md`).

use std::io::Read;
use std::process::ExitCode;

use dram_energy::model::timing::{InitialBankState, TimingChecker};
use dram_energy::scaling::{presets, TechNode};
use dram_energy::server::presets as named;
use dram_energy::units::cli::{exit_usage, Flags};
use dram_energy::workload::{TraceDecoder, TraceError, TraceErrorKind, TraceEvent, TraceReport};
use dram_energy::workload::{TraceSession, TraceSink};
use dram_energy::{dsl, Dram, Operation, Pattern};

struct Args {
    input: Option<String>,
    preset_nm: Option<f64>,
    pattern: Option<String>,
    trace: Option<String>,
    breakdown: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        input: None,
        preset_nm: None,
        pattern: None,
        trace: None,
        breakdown: false,
    };
    let mut flags = Flags::from_env();
    while let Some(a) = flags.next_arg() {
        match a.as_str() {
            "--pattern" => args.pattern = Some(flags.value("--pattern")?),
            "--preset" => args.preset_nm = Some(flags.number("--preset", "feature size", ..)?),
            "--trace" => args.trace = Some(flags.value("--trace")?),
            "--breakdown" => args.breakdown = true,
            "--help" | "-h" => return Err(String::new()),
            other if args.input.is_none() && !other.starts_with('-') => {
                args.input = Some(other.to_string());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

const USAGE: &str = "dram-power — description-driven DRAM power model (Vogelsang, MICRO 2010)\n\n\
     usage:\n  dram-power <file.dram> [--pattern \"act nop rd pre\"] [--trace trace.txt] [--breakdown]\n  \
     dram-power --preset <feature_nm> [--trace trace.txt] [--breakdown]\n\n\
     the description language is documented in the dram-dsl crate; a complete\n\
     example ships at crates/dsl/descriptions/ddr3_1gb_x16_55nm.dram\n\
     a --trace file is in the /v1/trace grammar (see docs/TRACES.md)";

fn run(args: &Args) -> Result<(), String> {
    let (description, file_pattern) = if let Some(path) = &args.input {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let parsed = dsl::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        (parsed.description, parsed.pattern)
    } else {
        let nm = args.preset_nm.expect("validated");
        let node = TechNode::by_feature(nm).ok_or_else(|| format!("no roadmap node at {nm} nm"))?;
        (presets::preset(node), None)
    };

    let dram = Dram::new(description).map_err(|e| e.to_string())?;
    let desc = dram.description();
    println!("device: {}", desc.name);
    println!(
        "organization: {} banks x {} rows x {} columns x{}, page {} B",
        desc.spec.banks(),
        desc.spec.rows_per_bank(),
        1u64 << desc.spec.column_address_bits,
        desc.spec.io_width,
        desc.spec.page_bits() / 8
    );
    let area = dram.area();
    println!(
        "die: {:.1} mm² ({:.0}% array efficiency), interface {:.1} GB/s",
        area.die.square_millimeters(),
        area.array_efficiency() * 100.0,
        desc.spec.peak_bandwidth().gbps() / 8.0
    );

    let idd = dram.idd();
    println!("\ncurrents (mA):");
    for (name, value) in [
        ("IDD0", idd.idd0),
        ("IDD1", idd.idd1),
        ("IDD2N", idd.idd2n),
        ("IDD2P", idd.idd2p),
        ("IDD4R", idd.idd4r),
        ("IDD4W", idd.idd4w),
        ("IDD5", idd.idd5),
        ("IDD6", idd.idd6),
        ("IDD7", idd.idd7),
    ] {
        println!("  {name:<6} {:>8.1}", value.milliamperes());
    }

    println!(
        "\nenergy: activate {:.2} nJ, read burst {:.0} pJ, {:.1} pJ/bit streaming, \
         {:.1} pJ/bit random",
        dram.operation_energy(Operation::Activate)
            .external()
            .joules()
            * 1e9,
        dram.operation_energy(Operation::Read)
            .external()
            .picojoules(),
        dram.energy_per_bit_streaming().picojoules(),
        dram.energy_per_bit_random().picojoules()
    );

    if args.breakdown {
        for op in [
            Operation::Activate,
            Operation::Precharge,
            Operation::Read,
            Operation::Write,
        ] {
            let e = dram.operation_energy(op);
            println!(
                "\n{} breakdown ({:.1} pJ external):",
                op,
                e.external().picojoules()
            );
            for item in &e.items {
                println!(
                    "  {:<38} {:>5} {:>10.2} pJ",
                    item.label,
                    item.domain.to_string(),
                    item.external.picojoules()
                );
            }
        }
    }

    let pattern = match (&args.pattern, file_pattern) {
        (Some(text), _) => Some(Pattern::parse(text).map_err(|e| e.to_string())?),
        (None, p) => p,
    };
    if let Some(p) = pattern {
        let s = dram.pattern_power(&p);
        println!(
            "\npattern `{p}`: {:.1} mW total, {:.1} mW background, {:.1} mA supply",
            s.power.milliwatts(),
            s.background.milliwatts(),
            s.current.milliamperes()
        );
    }

    if let Some(path) = &args.trace {
        let (commands, report) = price_trace(path, &dram)?;
        println!(
            "\ntrace `{path}`: {} commands over {:.2} µs — {:.1} mW average, \
             {:.1} pJ/bit ({:.1} kbit moved)",
            commands,
            report.duration.seconds() * 1e6,
            report.average_power.milliwatts(),
            report.energy_per_bit.picojoules(),
            report.bits / 1e3
        );
    }
    Ok(())
}

/// Prices the trace file at `path` on `dram` as `/v1/trace` does, in
/// fixed-size reads through one [`TraceDecoder`] into a [`TraceSession`],
/// then checks each command the session accepted for bank timing: O(1)
/// memory in the trace.
fn price_trace(path: &str, dram: &Dram) -> Result<(u64, TraceReport), String> {
    let desc = dram.description();
    let mut checker = TimingChecker::new(
        &desc.timing,
        desc.spec.control_clock,
        desc.spec.banks(),
        InitialBankState::AllClosed,
    );
    let mut session = TraceSession::new(named::FixedModel::new(dram));
    let mut checked = |event: TraceEvent| match event {
        TraceEvent::Command(c) => {
            session.command(c)?;
            checker
                .check(c.cycle, c.bank, c.command)
                .map_err(|e| TraceError::new(TraceErrorKind::Timing, e.to_string()))
        }
        directive => session.directive(directive),
    };
    let fail = |e: TraceError| format!("{path}: {e} ({})", e.kind.label());
    let mut file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let mut buf = vec![0; 64 * 1024];
    let mut decoder = TraceDecoder::new();
    loop {
        match file.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => decoder.feed(&buf[..n], &mut checked).map_err(fail)?,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("{path}: {e}")),
        }
    }
    decoder.finish(&mut checked).map_err(fail)?;
    session.finish(&mut decoder).map_err(fail)
}

fn main() -> ExitCode {
    let args = parse_args().unwrap_or_else(|msg| exit_usage(&msg, USAGE));
    if args.input.is_none() && args.preset_nm.is_none() {
        // Nothing to evaluate: the usage alone, as a refusal.
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
