//! `dram-power --trace` end to end: the binary reads the `/v1/trace`
//! grammar that `write_trace` writes, prices it with the fold `simulate`
//! runs, prices power-down and refresh lines whatever bank they carry,
//! and refuses a bank-timing violation (tRCD, or tRFC after a refresh),
//! a foreign `!preset`, an `act` on a bank past the device's, a late
//! `!policy`, the retired `cycle bank command` spelling, a trace without
//! a command line and a `!preset` after one, each with its line and
//! kind. `/v1/trace` refuses all but the first two alike.

use std::path::PathBuf;
use std::process::{Command, Output};

use dram_energy::scaling::{presets, TechNode};
use dram_energy::server::{client, serve, ServerConfig};
use dram_energy::units::json::Value;
use dram_energy::workload::{generate, simulate, write_trace, PowerDownPolicy, WorkloadSpec};
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
    let w = generate(&dram, &WorkloadSpec::random(300, 11)).expect("generates");
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

/// Traces `dram-power` and `/v1/trace` both price, and alike: a
/// `!preset` naming the device `dram-power` holds, and power-down and
/// refresh lines carrying a bank past the device's 8 (only `act`, `pre`,
/// `rd` and `wr` address a bank).
const PRICED: [(&str, &str); 2] = [
    ("own-preset", "!preset ddr3_1g_x16_55nm\n0 act 0\n"),
    ("bankless", "0 pde 9\n100 pdx 9\n200 ref 9\n"),
];

#[test]
fn both_readers_price_alike() {
    let server = serve("127.0.0.1:0", ServerConfig::default()).expect("bind ephemeral");
    for (name, text) in PRICED {
        let (out, _) = price(name, text);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let reply = client::fetch(
            server.local_addr(),
            "POST",
            "/v1/trace?preset=ddr3_1g_x16_55nm",
            text.as_bytes(),
        )
        .expect("reply");
        let body = reply.text();
        assert_eq!(reply.status(), 200, "{name}: {body}");
        let doc = Value::parse(&body).expect("report JSON");
        let number = |key| doc.get(key).and_then(Value::as_f64).expect(key);
        let served = format!(
            ": {} commands over {:.2} µs — {:.1} mW average",
            number("commands"),
            number("duration_s") * 1e6,
            number("average_power_w") * 1e3
        );
        assert!(stdout.contains(&served), "{name}: {served} not in {stdout}");
    }
    server.shutdown();
}

/// A trace `dram-power` refuses: what its error must say, the kind and
/// line it names (0 for none), and why `/v1/trace` answers otherwise, if
/// it does.
struct Refusal {
    name: &'static str,
    text: &'static str,
    wants: &'static str,
    kind: &'static str,
    line: u64,
    served_differently: Option<&'static str>,
}

const REFUSALS: [Refusal; 10] = [
    Refusal {
        name: "trcd",
        text: "0 act 0\n6 rd 0\n",
        wants: "line 2:",
        kind: "timing",
        line: 2,
        served_differently: Some("the server does not check bank timing yet"),
    },
    Refusal {
        name: "trfc",
        text: "0 ref\n1 act 0\n",
        wants: "line 2: pattern violates timing: tRFC violated at cycle 1",
        kind: "timing",
        line: 2,
        served_differently: Some("the server does not check bank timing yet"),
    },
    Refusal {
        name: "bank-past-the-device",
        text: "0 act 9\n",
        wants: "line 1: bank 9 of 8",
        kind: "syntax",
        line: 1,
        served_differently: None,
    },
    Refusal {
        name: "foreign-preset",
        text: "!preset ddr5_16g_18nm\n0 act 0\n",
        wants: "ddr5_16g_18nm",
        kind: "syntax",
        line: 1,
        served_differently: Some("a `!preset` first in the trace names the server's device"),
    },
    Refusal {
        name: "late-policy",
        text: "0 act 0\n!policy aggressive\n",
        wants: "line 2:",
        kind: "bad_transition",
        line: 2,
        served_differently: None,
    },
    Refusal {
        name: "old-spelling",
        text: "0 0 act\n",
        wants: r#"line 1: unknown command "0""#,
        kind: "syntax",
        line: 1,
        served_differently: None,
    },
    Refusal {
        name: "empty",
        text: "",
        wants: ": trace contains no commands",
        kind: "syntax",
        line: 0,
        served_differently: None,
    },
    Refusal {
        name: "comment-only",
        text: "# no command line\n",
        wants: ": trace contains no commands",
        kind: "syntax",
        line: 0,
        served_differently: None,
    },
    Refusal {
        name: "preset-only",
        text: "!preset ddr3_1g_x16_55nm\n",
        wants: ": trace contains no commands",
        kind: "syntax",
        line: 0,
        served_differently: None,
    },
    Refusal {
        name: "preset-after-nop",
        text: "0 nop\n!preset ddr3_1g_x16_55nm\n0 act 0\n",
        wants: "line 2: !preset must precede the first command",
        kind: "bad_transition",
        line: 2,
        served_differently: None,
    },
];

#[test]
fn refused_traces_name_their_line_and_kind() {
    for r in &REFUSALS {
        let (out, _) = price(r.name, r.text);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{}: {stderr}", r.name);
        assert!(stderr.contains(r.wants), "{}: {stderr}", r.name);
        let kind = format!("({})", r.kind);
        assert!(stderr.trim_end().ends_with(&kind), "{}: {stderr}", r.name);
        let names_its_line = match r.line {
            0 => !stderr.contains(": line "),
            n => stderr.contains(&format!(": line {n}: ")),
        };
        assert!(names_its_line, "{}: {stderr}", r.name);
    }
}

/// `/v1/trace`, given the device `dram-power --preset 55` prices on,
/// refuses each trace `dram-power` refuses with the same kind and line,
/// both reading through one `TraceSession`. The two deliberate
/// differences are priced: the server checks no bank timing yet, and a
/// `!preset` first in a trace picks the server's device, where
/// `dram-power` holds one.
#[test]
fn the_server_refuses_what_dram_power_refuses_alike() {
    let server = serve("127.0.0.1:0", ServerConfig::default()).expect("bind ephemeral");
    for r in &REFUSALS {
        let reply = client::fetch(
            server.local_addr(),
            "POST",
            "/v1/trace?preset=ddr3_1g_x16_55nm",
            r.text.as_bytes(),
        )
        .expect("reply");
        let body = reply.text();
        if let Some(why) = r.served_differently {
            assert_eq!(reply.status(), 200, "{} ({why}): {body}", r.name);
            continue;
        }
        assert_eq!(reply.status(), 400, "{}: {body}", r.name);
        let doc = Value::parse(&body).expect("error JSON");
        let served = (
            doc.get("kind").and_then(Value::as_str),
            doc.get("line").and_then(Value::as_f64),
        );
        assert_eq!(
            served,
            (Some(r.kind), Some(r.line as f64)),
            "{}: {body}",
            r.name
        );
    }
    server.shutdown();
}
