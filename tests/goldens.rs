//! Byte goldens of what clients see: replies of `dram_server::api::handle`,
//! generated traces as `write_trace` writes them, `Schedule::validate_trace`
//! verdicts and `dram-power` runs, each against its file under `goldens/`
//! (see `goldens/README.md`). Every input is fixed or drawn from a
//! seeded `SplitMix64`, so a run that prints other bytes found a change.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::process::Command as Process;

use dram_energy::dsl;
use dram_energy::model::timing::{Schedule, TimedCommand};
use dram_energy::model::{content_key, reference, Command, Dram, ParamId, Pattern, Perturbation};
use dram_energy::server::{api, presets, Metrics, Request};
use dram_energy::units::json::{obj, Value};
use dram_energy::units::rng::SplitMix64;
use dram_energy::workload::{generate, write_trace, WorkloadSpec};

#[path = "support/golden.rs"]
mod golden;

/// `api::handle`'s status and body for a `POST` of `body` to `path`
/// (query string after a `?`).
fn post(target: &str, body: &str) -> (u16, String) {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let request = Request {
        method: "POST".into(),
        path: path.into(),
        query: query.into(),
        headers: HashMap::new(),
        body: body.as_bytes().to_vec(),
        http11: true,
    };
    let (_, response, _) = api::handle(&request, &Metrics::new());
    let text = String::from_utf8(response.body).expect("UTF-8 reply");
    (response.status, text)
}

/// One golden line per reply: its label, status and body.
fn reply_lines<'a>(requests: impl IntoIterator<Item = (String, &'a str, String)>) -> String {
    let mut out = String::new();
    for (label, target, body) in requests {
        let (status, reply) = post(target, &body);
        let _ = writeln!(out, "{label} {status} {reply}");
    }
    out
}

/// An evaluate request naming `preset`.
fn by_name(preset: &str) -> String {
    obj(vec![("preset", preset.into())]).to_string()
}

#[test]
fn evaluate_replies_match_their_goldens() {
    golden::check(
        "server/evaluate_presets.txt",
        &reply_lines(
            presets::NAMES
                .iter()
                .map(|name| (name.to_string(), "/v1/evaluate", by_name(name))),
        ),
    );
    // Three seeded edits of up to ±25 % to a preset, sent as the text
    // `dram_dsl::write` gives.
    let mut rng = SplitMix64::new(0x601d);
    let mut lines = String::new();
    for i in 0..64 {
        let name = *rng.pick(&presets::NAMES);
        let mut desc = presets::get(name).expect("a preset").description().clone();
        let edits = (0..3)
            .map(|_| (*rng.pick(&ParamId::ALL), rng.range_f64(0.75, 1.25)))
            .collect();
        Perturbation::new(edits).apply(&mut desc);
        let body = obj(vec![("description", dsl::write(&desc, None).into())]).to_string();
        let (status, reply) = post("/v1/evaluate", &body);
        let _ = writeln!(
            lines,
            "{i} {name} {status} {}",
            golden::digest(reply.as_bytes())
        );
    }
    golden::check("server/evaluate_perturbed.digests", &lines);
}

#[test]
fn sweep_replies_match_their_goldens() {
    let mut lines = String::new();
    for name in presets::NAMES {
        for (variant, body) in [
            ("default", by_name(name)),
            (
                "top3",
                obj(vec![("preset", name.into()), ("top", 3.0.into())]).to_string(),
            ),
        ] {
            let (status, reply) = post("/v1/sweep", &body);
            assert_eq!(status, 200, "{name} {variant}: {reply}");
            let _ = writeln!(
                lines,
                "{name} {variant} {status} {}",
                golden::digest(reply.as_bytes())
            );
        }
    }
    golden::check("server/sweep.digests", &lines);
}

#[test]
fn batch_and_pattern_replies_match_their_goldens() {
    let description = dsl::write(&reference::ddr3_1g_x16_55nm(), None);
    let items: Vec<Value> = vec![
        obj(vec![("preset", "ddr2_1g_75nm".into())]),
        obj(vec![("preset", "no_such_preset".into())]),
        obj(vec![("description", description.into())]),
        obj(vec![("description", "bogus = 1".into())]),
        7.0.into(),
        obj(vec![("preset", "ddr5_16g_18nm".into())]),
    ];
    let batch = obj(vec![("requests", items.into())]).to_string();
    let mut requests = vec![
        ("mixed".to_string(), "/v1/batch", batch),
        ("no-array".to_string(), "/v1/batch", "{}".to_string()),
    ];
    // The paper's example loop on every preset, plain and checked.
    for name in presets::NAMES {
        for checked in [false, true] {
            let body = obj(vec![
                ("preset", name.into()),
                ("pattern", "act nop wrt nop rd nop pre nop".into()),
                ("checked", checked.into()),
            ]);
            requests.push((
                format!("pattern {name} checked={checked}"),
                "/v1/pattern",
                body.to_string(),
            ));
        }
    }
    golden::check("server/batch_pattern.txt", &reply_lines(requests));
}

/// The traces of the wire tests and of the session's directive rules.
const TRACES: [(&str, &str, &str); 26] = [
    (
        "nop-then-policy",
        "/v1/trace",
        "!preset ddr3_1g_x16_55nm\n0 nop\n!policy aggressive\n0 act 0\n28 pre 0\n\
         2000 act 1\n2040 pre 1\n!length 5000\n",
    ),
    (
        "bogus-line",
        "/v1/trace",
        "!preset ddr3_1g_x16_55nm\n0 act 0\nbogus line\n",
    ),
    (
        "unknown-command",
        "/v1/trace",
        "!preset ddr3_1g_x16_55nm\n0 act 0\n12 rdx 0\n",
    ),
    (
        "refresh-asleep",
        "/v1/trace",
        "!preset ddr3_1g_x16_55nm\n0 sre\n100 ref\n",
    ),
    (
        "late-policy",
        "/v1/trace",
        "!preset ddr3_1g_x16_55nm\n0 act 0\n!policy never\n",
    ),
    ("no-preset", "/v1/trace", "0 act 0\n"),
    (
        "last-cycle",
        "/v1/trace",
        "!preset ddr3_1g_x16_55nm\n0 act 0\n18446744073709551615 pre 0\n",
    ),
    (
        "huge-policy",
        "/v1/trace",
        "!preset ddr3_1g_x16_55nm\n!policy 16 18446744073709551615\n0 pde\n100 pdx\n",
    ),
    (
        "act-on-srx-cycle",
        "/v1/trace?preset=ddr3_1g_x16_55nm",
        "!policy aggressive\n0 sre\n1000 srx\n1000 act 0\n2000 pre 0\n",
    ),
    (
        "act-on-pdx-cycle",
        "/v1/trace?preset=ddr3_1g_x16_55nm",
        "!policy aggressive\n0 pde\n100 pdx\n100 act 0\n",
    ),
    (
        "act-on-srx-cycle-never",
        "/v1/trace?preset=ddr3_1g_x16_55nm",
        "!policy never\n0 sre\n1000 srx\n1000 act 0\n",
    ),
    (
        "query-preset",
        "/v1/trace?preset=ddr3_1g_x16_55nm",
        "0 act 0\n40 pre 0\n",
    ),
    ("bogus-query-preset", "/v1/trace?preset=bogus", "0 act 0\n"),
    (
        "session-plain",
        "/v1/trace?preset=ddr3_1g_x16_55nm",
        SESSION_BODY,
    ),
    (
        "session-policy",
        "/v1/trace?preset=ddr3_1g_x16_55nm",
        "!policy aggressive\n0 act 0\n28 pre 0\n2000 act 0\n2040 pre 0\n",
    ),
    (
        "session-nop-policy",
        "/v1/trace?preset=ddr3_1g_x16_55nm",
        "0 nop\n!policy aggressive\n0 act 0\n28 pre 0\n2000 act 0\n2040 pre 0\n",
    ),
    (
        "session-late-policy",
        "/v1/trace?preset=ddr3_1g_x16_55nm",
        "0 act 0\n!policy aggressive\n0 act 0\n28 pre 0\n2000 act 0\n2040 pre 0\n",
    ),
    (
        "session-preset",
        "/v1/trace",
        "!preset ddr3_2g_55nm\n0 act 0\n28 pre 0\n2000 act 0\n2040 pre 0\n",
    ),
    (
        "session-other-preset",
        "/v1/trace",
        "!preset other\n0 act 0\n28 pre 0\n2000 act 0\n2040 pre 0\n",
    ),
    (
        "session-nop-preset",
        "/v1/trace?preset=ddr3_1g_x16_55nm",
        "0 nop\n!preset ddr3_1g_x16_55nm\n0 act 0\n28 pre 0\n2000 act 0\n2040 pre 0\n",
    ),
    (
        "session-late-preset",
        "/v1/trace?preset=ddr3_1g_x16_55nm",
        "0 act 0\n!preset ddr3_1g_x16_55nm\n0 act 0\n28 pre 0\n2000 act 0\n2040 pre 0\n",
    ),
    (
        "session-last-length-5000",
        "/v1/trace?preset=ddr3_1g_x16_55nm",
        "!length 9000\n0 act 0\n28 pre 0\n2000 act 0\n2040 pre 0\n!length 5000\n",
    ),
    (
        "session-last-length-9000",
        "/v1/trace?preset=ddr3_1g_x16_55nm",
        "!length 5000\n0 act 0\n28 pre 0\n2000 act 0\n2040 pre 0\n!length 9000",
    ),
    ("session-empty", "/v1/trace?preset=ddr3_1g_x16_55nm", ""),
    (
        "session-comments",
        "/v1/trace?preset=ddr3_1g_x16_55nm",
        "# comments only\n",
    ),
    (
        "session-directives-only",
        "/v1/trace",
        "!preset ddr3_1g_x16_55nm\n!policy never\n!length 10\n",
    ),
];

/// The billed commands of the session's directive rules.
const SESSION_BODY: &str = "0 act 0\n28 pre 0\n2000 act 0\n2040 pre 0\n";

/// The wire tests' trace that visits every power state.
fn sample_trace() -> String {
    let mut t =
        String::from("# exercise all five states\n!preset ddr3_1g_x16_55nm\n!policy aggressive\n");
    for i in 0..200u64 {
        let (c, bank) = (i * 100, i % 8);
        let _ = writeln!(
            t,
            "{c} act {bank}\n{} rd {bank}\n{} wr {bank}\n{} pre {bank}",
            c + 12,
            c + 20,
            c + 40
        );
    }
    t.push_str("20050 pde\n24000 pdx\n25000 sre\n90000 srx\n!length 100000\n");
    t
}

#[test]
fn trace_replies_match_their_goldens() {
    let mut requests: Vec<(String, &str, String)> = TRACES
        .iter()
        .map(|&(name, target, text)| (name.to_string(), target, text.to_string()))
        .collect();
    requests.push(("all-states".into(), "/v1/trace", sample_trace()));
    let long_line = format!(
        "!preset ddr3_1g_x16_55nm\n0 act 0\n10 pre 0{}\n20 act 1\n",
        " ".repeat(300)
    );
    requests.push(("over-long-line".into(), "/v1/trace", long_line));
    // A seeded generated trace per preset under each policy.
    let targets: Vec<(&str, String)> = presets::NAMES
        .iter()
        .map(|name| (*name, format!("/v1/trace?preset={name}")))
        .collect();
    for (i, (name, target)) in targets.iter().enumerate() {
        let dram =
            Dram::new(presets::get(name).expect("preset").description().clone()).expect("builds");
        let spec = WorkloadSpec::sparse(120, i as u64);
        let text = write_trace(&generate(&dram, &spec).expect("generates").trace);
        for policy in ["never", "aggressive", "16 6 2000 300"] {
            requests.push((
                format!("generated {name} {policy}"),
                target.as_str(),
                format!("!policy {policy}\n{text}"),
            ));
        }
    }
    golden::check("server/trace.txt", &reply_lines(requests));
}

#[test]
fn generated_traces_match_their_goldens() {
    let mut lines = String::new();
    for name in presets::NAMES {
        let dram =
            Dram::new(presets::get(name).expect("preset").description().clone()).expect("builds");
        for seed in 0..10 {
            for (kind, spec) in [
                ("streaming", WorkloadSpec::streaming(300, seed)),
                ("random", WorkloadSpec::random(300, seed)),
                ("sparse", WorkloadSpec::sparse(60, seed)),
            ] {
                for (page, spec) in [("open", spec), ("closed", spec.with_closed_page())] {
                    let w = generate(&dram, &spec).expect("generates");
                    let s = w.stats;
                    let _ = writeln!(
                        lines,
                        "{name} {kind} {page} {seed} {} {} {} {} {}",
                        w.trace.commands().len(),
                        s.row_hits,
                        s.row_misses,
                        s.row_empty,
                        golden::digest(write_trace(&w.trace).as_bytes())
                    );
                }
            }
        }
    }
    golden::check("workload/generated_traces.digests", &lines);
}

/// `Schedule::validate_trace`'s verdict on 2,000 seeded schedules of 2
/// to 10 commands on the reference device. Most commands suit the state
/// the schedule's earlier ones leave (an activate to a closed bank, a
/// column command or precharge to an open one, a refresh with all
/// closed), mostly on four of the eight banks, with gaps that both keep
/// and break each timing window.
#[test]
fn timing_verdicts_match_their_golden() {
    use Command::{Activate, Precharge, Read, Refresh, Write};
    let desc = reference::ddr3_1g_x16_55nm();
    let banks = desc.spec.banks();
    let mut rng = SplitMix64::new(0x7e57);
    let mut lines = String::new();
    for i in 0..2000 {
        let mut cycle = 0;
        let mut open = vec![false; banks as usize + 1];
        let mut commands = Vec::new();
        for _ in 0..2 + rng.range_usize(9) {
            cycle += if rng.chance(0.25) {
                rng.range_u64(120)
            } else {
                rng.range_u64(16)
            };
            let drawn = if rng.chance(0.03) { banks + 1 } else { 4 };
            let bank = rng.range_u32(drawn);
            let b = bank as usize;
            let command = if rng.chance(0.1) {
                *rng.pick(&[Activate, Precharge, Read, Write, Refresh])
            } else if open[b] {
                *rng.pick(&[Read, Write, Read, Precharge])
            } else if open.contains(&true) {
                Activate
            } else {
                *rng.pick(&[Activate, Activate, Refresh])
            };
            match command {
                Activate => open[b] = true,
                Precharge => open[b] = false,
                _ => {}
            }
            commands.push(TimedCommand {
                cycle,
                bank,
                command,
            });
        }
        let verdict = Schedule::new(commands, cycle + 1)
            .and_then(|s| s.validate_trace(&desc.timing, desc.spec.control_clock, banks))
            .map_or_else(|e| e.to_string(), |()| "ok".into());
        let _ = writeln!(lines, "{i} {verdict}");
    }
    golden::check("core/timing_verdicts.txt", &lines);
}

/// The digest of `dsl::parse`'s verdict on `text`: the parsed
/// description's content key and pattern, or the error's line and
/// message.
fn parse_verdict(text: &str) -> String {
    let verdict = match dsl::parse(text) {
        Ok(parsed) => format!(
            "ok {:016x} {}",
            content_key(&parsed.description),
            parsed.pattern.map_or_else(|| "-".into(), |p| p.to_string())
        ),
        Err(e) => format!("error {} {}", e.line(), e.message()),
    };
    golden::digest(verdict.as_bytes())
}

/// What a mangle puts in place of a value's number, then of its unit,
/// then of the `x` of a device size.
const NUMBER_MANGLES: [&str; 22] = [
    "1e999",
    "-1e999",
    ".5",
    "5.",
    "+0",
    "-0",
    "1..2",
    "0x10",
    "12345678901234567890",
    "-98765432109876543210.5",
    "0.12345678901234567890",
    "10.082930293028078",
    "9007199254740993",
    "0.0000000000000000000001",
    "0.00000000000000000000001",
    "1e-3",
    "2E+2",
    "1e",
    "",
    "-",
    "NaN",
    "1_000",
];
const UNIT_MANGLES: [&str; 8] = ["µm", "UM", "u m", "%", "", "nm", " um", "fF/µm"];
const X_MANGLES: [&str; 5] = ["X", " x ", "xx", "", "x-"];

/// `value` with its leading number (a run of digits, `.`, `+` and `-`)
/// and the rest apart.
fn split_value(value: &str) -> (&str, &str) {
    let end = value
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '+' | '-')))
        .unwrap_or(value.len());
    value.split_at(end)
}

/// `dsl::parse`'s verdict on the shipped description files, on 1,000
/// seeded perturbations of the presets as `dsl::write` gives them, and
/// on the shipped files with one value of a line mangled: each
/// mangle in turn on every line with `key=value` fields, at a seeded
/// field of the line.
#[test]
fn parse_verdicts_match_their_golden() {
    let shipped = [
        (
            "ddr3",
            include_str!("../crates/dsl/descriptions/ddr3_1gb_x16_55nm.dram"),
        ),
        (
            "ddr5",
            include_str!("../crates/dsl/descriptions/ddr5_16gb_x16_18nm.dram"),
        ),
    ];
    let mut lines = String::new();
    for (name, text) in shipped {
        let _ = writeln!(lines, "shipped {name} {}", parse_verdict(text));
    }
    let mut rng = SplitMix64::new(0x9a25e);
    let pattern = Pattern::paper_example();
    for i in 0..1000 {
        let name = *rng.pick(&presets::NAMES);
        let mut desc = presets::get(name).expect("a preset").description().clone();
        let edits = (0..3)
            .map(|_| (*rng.pick(&ParamId::ALL), rng.range_f64(0.75, 1.25)))
            .collect();
        Perturbation::new(edits).apply(&mut desc);
        let text = dsl::write(&desc, (i % 4 == 0).then_some(&pattern));
        let _ = writeln!(lines, "written {i} {name} {}", parse_verdict(&text));
    }
    let mangles = NUMBER_MANGLES
        .iter()
        .map(|&m| ('n', m))
        .chain(UNIT_MANGLES.iter().map(|&m| ('u', m)))
        .chain(X_MANGLES.iter().map(|&m| ('x', m)));
    let mangles: Vec<(char, &str)> = mangles.collect();
    for (name, text) in shipped {
        let source: Vec<&str> = text.lines().collect();
        for (at, line) in source.iter().enumerate() {
            let words: Vec<&str> = line.split(' ').collect();
            let fields: Vec<usize> = (0..words.len())
                .filter(|&k| {
                    let (key, value) = words[k].split_once('=').unwrap_or(("", ""));
                    !key.is_empty() && !value.is_empty() && !words[k].contains('"')
                })
                .collect();
            if fields.is_empty() {
                continue;
            }
            let sizes: Vec<usize> = fields
                .iter()
                .copied()
                .filter(|&k| words[k].contains('x'))
                .collect();
            for (m, &(kind, mangle)) in mangles.iter().enumerate() {
                let k = match kind {
                    'x' if sizes.is_empty() => continue,
                    'x' => *rng.pick(&sizes),
                    _ => *rng.pick(&fields),
                };
                let (key, value) = words[k].split_once('=').expect("a field");
                let (number, unit) = split_value(value);
                let value = match kind {
                    'n' => format!("{mangle}{unit}"),
                    'u' => format!("{number}{mangle}"),
                    _ => value.replacen('x', mangle, 1),
                };
                let mut edited = words.clone();
                let field = format!("{key}={value}");
                edited[k] = &field;
                let mut lines_out = source.clone();
                let edited = edited.join(" ");
                lines_out[at] = &edited;
                let _ = writeln!(
                    lines,
                    "mangled {name} {} {m} {}",
                    at + 1,
                    parse_verdict(&lines_out.join("\n"))
                );
            }
        }
    }
    golden::check("dsl/parse_verdicts.digests", &lines);
}

/// `dram-power`'s exit code, stdout and stderr for `args`, run from the
/// repository root, with `path` (a trace file) spelled `<trace>`.
fn dram_power(args: &[&str], path: &str) -> String {
    let out = Process::new(env!("CARGO_BIN_EXE_dram-power"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("dram-power runs");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).replace(path, "<trace>");
    format!(
        "exit {:?}\n--- stdout\n{}--- stderr\n{}",
        out.status.code(),
        text(&out.stdout),
        text(&out.stderr)
    )
}

#[test]
fn dram_power_runs_match_their_goldens() {
    for (name, args) in [
        (
            "preset_55_breakdown",
            &["--preset", "55", "--breakdown"][..],
        ),
        ("preset_75", &["--preset", "75"]),
        (
            "ddr3_1gb_x16_55nm",
            &["crates/dsl/descriptions/ddr3_1gb_x16_55nm.dram"],
        ),
    ] {
        golden::check(&format!("dram-power/{name}.txt"), &dram_power(args, "\0"));
    }
    // The traces `tests/dram_power_trace.rs` prices and refuses.
    let mut runs = String::new();
    for (name, text) in [
        ("own-preset", "!preset ddr3_1g_x16_55nm\n0 act 0\n"),
        ("bankless", "0 pde 9\n100 pdx 9\n200 ref 9\n"),
        ("trcd", "0 act 0\n6 rd 0\n"),
        ("bank-past-the-device", "0 act 9\n"),
        ("foreign-preset", "!preset ddr5_16g_18nm\n0 act 0\n"),
        ("late-policy", "0 act 0\n!policy aggressive\n"),
        ("old-spelling", "0 0 act\n"),
        ("empty", ""),
        ("comment-only", "# no command line\n"),
        ("preset-only", "!preset ddr3_1g_x16_55nm\n"),
        (
            "preset-after-nop",
            "0 nop\n!preset ddr3_1g_x16_55nm\n0 act 0\n",
        ),
    ] {
        let path = std::env::temp_dir().join(format!(
            "dram-power-golden-{}-{name}.trace",
            std::process::id()
        ));
        std::fs::write(&path, text).expect("write the trace");
        let shown = path.to_str().expect("UTF-8 temp path");
        let _ = writeln!(
            runs,
            "=== {name}\n{}",
            dram_power(&["--preset", "55", "--trace", shown], shown)
        );
        std::fs::remove_file(&path).expect("remove the trace");
    }
    golden::check("dram-power/traces.txt", &runs);
}
