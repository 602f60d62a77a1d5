//! `trace-bench` — streaming-ingest benchmark for `POST /v1/trace`.
//!
//! Boots the server in-process, generates a seeded multi-million-command
//! trace and streams it through the chunked-transfer endpoint *without
//! ever materializing the trace*: each generated line batch is framed
//! onto the socket and fed to a local [`TraceSession`] in the same pass.
//! The served report must be byte-identical to the local fold's
//! [`trace_document`](dram_server::api::trace_document) — the wire adds
//! nothing and loses nothing — and the process's peak-RSS growth is
//! bounded, demonstrating O(1) memory in trace length on both sides of
//! the socket. Records MB/s and commands/s to `BENCH_trace.json`.
//!
//! ```text
//! trace-bench [--commands N] [--chunk BYTES] [--out FILE]
//! ```

use std::io::Write as _;
use std::net::TcpStream;
use std::time::Instant;

use dram_core::timing::{InitialBankState, TimingChecker};
use dram_core::Dram;
use dram_obs::{Better, Record};
use dram_server::client::{self, Conn};
use dram_server::presets::FixedModel;
use dram_server::{serve, ServerConfig};
use dram_units::cli::{exit_usage, Flags};
use dram_workload::{
    TraceDecoder, TraceError, TraceErrorKind, TraceEvent, TraceSession, TraceSink,
};

const OUT_FILE: &str = "BENCH_trace.json";
const PRESET: &str = "ddr3_1g_x16_55nm";
/// Peak-RSS growth allowed over the whole streamed run. The client
/// holds one line batch and the server one network chunk plus a partial
/// line, so real growth is a few MB; the bound leaves allocator slack.
const MAX_RSS_DELTA_KB: u64 = 262_144; // 256 MiB

struct Args {
    commands: u64,
    chunk: usize,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        commands: 2_000_000,
        chunk: 16 * 1024,
        out: OUT_FILE.to_string(),
    };
    let mut flags = Flags::from_env();
    while let Some(a) = flags.next_arg() {
        match a.as_str() {
            "--commands" => args.commands = flags.number("--commands", "command count", 1..)?,
            "--chunk" => args.chunk = flags.number("--chunk", "chunk size", 16..)?,
            "--out" => args.out = flags.value("--out")?,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

const USAGE: &str = "usage: trace-bench [--commands N] [--chunk BYTES] [--out FILE]";

/// Deterministic PCG-style generator: the same seed always produces the
/// same trace, so runs are reproducible bit for bit.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Generates trace episodes into `buf` until at least `target` commands
/// are emitted; returns the final cycle. Episodes keep the state
/// machine legal: banks close before refresh or self-refresh, exit
/// commands respect the policy's exit-latency window (AGGRESSIVE:
/// power-down exit 6, self-refresh exit 512), and bursts keep the
/// preset's bank timing.
struct TraceGen {
    rng: Lcg,
    cycle: u64,
    emitted: u64,
}

impl TraceGen {
    fn new(seed: u64) -> Self {
        Self {
            rng: Lcg(seed),
            cycle: 0,
            emitted: 0,
        }
    }

    /// Appends one episode of trace lines to `buf`.
    fn episode(&mut self, buf: &mut String) {
        use std::fmt::Write as _;
        let t = &mut self.cycle;
        match self.rng.next() % 16 {
            // A power-down nap with an explicit CKE window.
            0 => {
                let _ = writeln!(buf, "{t} pde");
                *t += 100 + self.rng.next() % 4000;
                let _ = writeln!(buf, "{t} pdx");
                *t += 1 + 6; // past the exit-latency window
                self.emitted += 2;
            }
            // A long self-refresh sleep (banks are closed between
            // episodes, so entry is legal).
            1 => {
                let _ = writeln!(buf, "{t} sre");
                *t += 10_000 + self.rng.next() % 50_000;
                let _ = writeln!(buf, "{t} srx");
                *t += 1 + 512;
                self.emitted += 2;
            }
            // An auto-refresh between bursts.
            2 => {
                let _ = writeln!(buf, "{t} ref");
                *t += 50 + self.rng.next() % 100;
                self.emitted += 1;
            }
            // The common case: an open-page burst on one bank, spaced
            // for the preset's tRCD and tRP (12 cycles), tCCD (4) and
            // tRAS (28).
            _ => {
                let bank = self.rng.next() % 8;
                let act = *t;
                let _ = writeln!(buf, "{t} act {bank}");
                *t += 12;
                let columns = 1 + self.rng.next() % 4;
                for i in 0..columns {
                    let op = if (self.rng.next() + i) % 2 == 1 {
                        "wr"
                    } else {
                        "rd"
                    };
                    let _ = writeln!(buf, "{t} {op} {bank}");
                    *t += 4;
                }
                *t = (*t).max(act + 28);
                let _ = writeln!(buf, "{t} pre {bank}");
                *t += 12 + self.rng.next() % 200;
                self.emitted += 2 + columns;
            }
        }
    }
}

/// `VmHWM` from `/proc/self/status` in kB; 0 where unavailable.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            })
        })
        .unwrap_or(0)
}

#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
fn main() {
    let args = parse_args().unwrap_or_else(|msg| exit_usage(&msg, USAGE));

    let server = serve(
        "127.0.0.1:0",
        ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral");
    let addr = server.local_addr();

    // Build the preset's model locally for the reference fold. The same
    // description backs the server's engine cache, so both sides
    // evaluate identical charge-model numbers.
    let dram = Dram::new(dram_core::reference::ddr3_1g_x16_55nm()).expect("preset builds");
    let rss_before = peak_rss_kb();
    let started = Instant::now();

    let mut conn = Conn::new(TcpStream::connect(addr).expect("connect"));
    let head = client::chunked_head(
        "POST",
        "/v1/trace",
        &[("host", "bench"), ("connection", "close")],
    );
    conn.write_all(&head).expect("head");

    // Single pass: every generated batch is framed onto the socket and
    // fed to the local decoder, whose sink hands every command to the
    // session first, as the server does, then checks its bank timing.
    // Neither side ever holds more than one batch.
    let desc = dram.description();
    let mut checker = TimingChecker::new(
        &desc.timing,
        desc.spec.control_clock,
        desc.spec.banks(),
        InitialBankState::AllClosed,
    );
    let mut session = TraceSession::new(FixedModel::new(&dram));
    let mut decoder = TraceDecoder::new();
    let mut sink = |event: TraceEvent| match event {
        TraceEvent::Command(c) => {
            session.command(c)?;
            checker
                .check(c.cycle, c.bank, c.command)
                .map_err(|e| TraceError::new(TraceErrorKind::Timing, e.to_string()))
        }
        directive => session.directive(directive),
    };

    let mut gen = TraceGen::new(0x5eed_dda7_a11e_57e5);
    let mut buf = String::from("!preset ddr3_1g_x16_55nm\n!policy aggressive\n");
    while gen.emitted < args.commands {
        gen.episode(&mut buf);
        if buf.len() >= args.chunk {
            client::write_chunk(&mut conn, buf.as_bytes()).expect("chunk");
            decoder
                .feed(buf.as_bytes(), &mut sink)
                .expect("legal trace");
            buf.clear();
        }
    }
    {
        use std::fmt::Write as _;
        let _ = writeln!(buf, "!length {}", gen.cycle + 100);
    }
    client::write_chunk(&mut conn, buf.as_bytes()).expect("chunk");
    decoder
        .feed(buf.as_bytes(), &mut sink)
        .expect("legal trace");
    conn.write_all(client::LAST_CHUNK).expect("terminator");
    decoder.finish(&mut sink).expect("legal trace");

    let reply = conn.read_to_close().expect("response");
    let elapsed = started.elapsed().as_secs_f64();
    let rss_after = peak_rss_kb();

    assert_eq!(reply.status(), 200, "trace rejected: {reply:?}");
    let body = reply.text();

    // The acceptance core: the streamed report is bit-identical to the
    // local in-memory fold of the same bytes.
    let (commands, report) = session.finish(&mut decoder).expect("bills");
    let bytes = decoder.bytes_fed();
    let expected = dram_server::api::trace_document(PRESET, &report, commands, bytes).to_string();
    assert_eq!(
        body, expected,
        "served report diverged from the in-memory fold"
    );

    let rss_delta = rss_after.saturating_sub(rss_before);
    assert!(
        rss_delta <= MAX_RSS_DELTA_KB,
        "peak RSS grew {rss_delta} kB streaming {bytes} trace bytes — memory is not O(1)"
    );
    assert!(
        commands >= args.commands,
        "generated {commands} commands, wanted at least {}",
        args.commands
    );

    let mb = bytes as f64 / 1e6;
    let mb_per_s = mb / elapsed;
    let commands_per_s = commands as f64 / elapsed;
    let cycles = report.states.total_cycles();
    println!("streamed {commands} commands ({mb:.1} MB) in {elapsed:.2} s");
    println!("throughput: {mb_per_s:.1} MB/s, {commands_per_s:.0} commands/s");
    println!(
        "peak RSS delta: {rss_delta} kB over {} trace bytes (bound {MAX_RSS_DELTA_KB} kB)",
        bytes
    );
    println!(
        "self-refresh cycles: {} of {cycles}",
        report.self_refresh_cycles
    );
    println!("bit-identical to in-memory fold: yes");

    let records = [
        Record::new("stream", "s", Better::Lower, &[elapsed]),
        Record::new("ingest_rate", "MB/s", Better::Higher, &[mb_per_s]),
        Record::new("command_rate", "1/s", Better::Higher, &[commands_per_s]),
        Record::new("peak_rss_delta", "kB", Better::Lower, &[rss_delta as f64]),
    ];
    let values = vec![
        ("preset", PRESET.into()),
        ("commands", commands.into()),
        ("trace_bytes", bytes.into()),
        ("cycles", cycles.into()),
        ("chunk_bytes", args.chunk.into()),
        ("peak_rss_bound_kb", MAX_RSS_DELTA_KB.into()),
        ("power_down_cycles", report.power_down_cycles.into()),
        ("self_refresh_cycles", report.self_refresh_cycles.into()),
        ("bit_identical", true.into()),
    ];
    dram_obs::write_bench(&args.out, "trace", &records, values).expect("write bench file");
    println!("wrote {}", args.out);
    server.shutdown();
}
