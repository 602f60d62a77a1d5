//! `dram-serve` — the DRAM energy model as a network service.
//!
//! ```text
//! dram-serve [--addr HOST:PORT] [--threads N] [--queue N] [--max-body BYTES]
//!            [--deadline-ms MS] [--idle-ms MS] [--max-requests N]
//!            [--log off|error|info|debug] [--profile FILE] [--journal N]
//!            [--shed-at N] [--faults SPEC]
//! ```
//!
//! Binds (port `0` picks an ephemeral port, printed on startup), serves
//! until SIGINT/SIGTERM, then drains in-flight requests before exiting.
//! At `--log info` (the default) every served request emits one
//! structured `key=value` line on stderr carrying its `x-request-id`.
//! `--profile FILE` enables span recording for the whole run and writes
//! a Chrome-trace JSON (chrome://tracing, Perfetto) on shutdown; every
//! request span carries its `x-request-id`, so one trace shows queue →
//! worker → engine per request.
//!
//! `--journal N` sizes the flight-recorder event journal (default 16384
//! events, `0` disables it entirely — the recording path then costs one
//! relaxed atomic load). The journal backs the loopback-only `GET
//! /debug/*` endpoints: recent lifecycle events, per-request timelines
//! (`/debug/requests/<x-request-id>`), the live reactor connection
//! table, and on-demand profiling windows (see docs/OBSERVABILITY.md).
//!
//! `--shed-at N` turns on adaptive load shedding: once the request queue
//! holds N or more entries, expensive routes (`/v1/sweep`, `/v1/batch`)
//! are refused with 503 + `Retry-After` while cheap routes keep flowing.
//! `--faults SPEC` (or the `DRAM_FAULTS` environment variable) arms the
//! deterministic fault-injection plan described in docs/RESILIENCE.md,
//! e.g. `seed=7;engine.worker=panic:p=0.05;http.read=delay:ms=40:p=0.2`.

use std::process::ExitCode;
use std::time::Duration;

use dram_server::{serve, wait_for_shutdown_signal, Limits, LogLevel, ServerConfig};
use dram_units::cli::{exit_usage, Flags};

struct Args {
    addr: String,
    config: ServerConfig,
    profile: Option<String>,
    journal: usize,
    faults: Option<dram_faults::Plan>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".to_string(),
        config: ServerConfig {
            log: LogLevel::Info,
            ..ServerConfig::default()
        },
        profile: None,
        journal: 16_384,
        faults: None,
    };
    let mut flags = Flags::from_env();
    while let Some(a) = flags.next_arg() {
        let config = &mut args.config;
        match a.as_str() {
            "--addr" => args.addr = flags.value("--addr")?,
            "--threads" => config.threads = flags.number("--threads", "thread count", 1..)?,
            "--queue" => config.queue_depth = flags.number("--queue", "queue depth", ..)?,
            "--max-body" => {
                config.limits.max_body = flags.number("--max-body", "body limit", ..)?;
            }
            "--deadline-ms" => {
                let ms = flags.number("--deadline-ms", "request deadline", 1..)?;
                config.limits.request_deadline = Duration::from_millis(ms);
            }
            "--idle-ms" => {
                let ms = flags.number("--idle-ms", "idle timeout", 1..)?;
                config.idle_timeout = Duration::from_millis(ms);
            }
            "--max-requests" => {
                config.max_requests_per_conn =
                    flags.number("--max-requests", "per-connection request cap", 1..)?;
            }
            "--log" => {
                let v = flags.value("--log")?;
                config.log = LogLevel::parse(&v)
                    .ok_or_else(|| format!("bad log level `{v}` (off|error|info|debug)"))?;
            }
            "--profile" => args.profile = Some(flags.value("--profile")?),
            "--journal" => args.journal = flags.number("--journal", "journal size", ..)?,
            "--shed-at" => {
                config.shed_at = Some(flags.number("--shed-at", "shed watermark", 1..)?);
            }
            "--faults" => {
                let v = flags.value("--faults")?;
                args.faults =
                    Some(dram_faults::Plan::parse(&v).map_err(|e| format!("bad fault spec: {e}"))?);
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.faults.is_none() {
        if let Ok(spec) = std::env::var("DRAM_FAULTS") {
            if !spec.trim().is_empty() {
                args.faults = Some(
                    dram_faults::Plan::parse(&spec)
                        .map_err(|e| format!("bad DRAM_FAULTS spec: {e}"))?,
                );
            }
        }
    }
    Ok(args)
}

const USAGE: &str = "dram-serve — HTTP/JSON evaluation service for the DRAM energy model\n\n\
         usage:\n  dram-serve [--addr HOST:PORT] [--threads N] [--queue N] [--max-body BYTES]\n\
             [--deadline-ms MS] [--idle-ms MS] [--max-requests N]\n\
             [--log off|error|info|debug] [--profile FILE] [--journal N]\n\
             [--shed-at N] [--faults SPEC]\n\n\
         defaults: --addr 127.0.0.1:7878 --threads 4 --queue 128 --max-body 1048576\n\
         \x20         --deadline-ms 15000 --idle-ms 60000 --max-requests 10000\n\
         \x20         --log info --journal 16384 (no shedding, no faults)\n\
         journal:  --journal N sizes the flight recorder behind the loopback-only\n\
         \x20         GET /debug/* endpoints (events, request timelines, reactor\n\
         \x20         table, live profiling); 0 disables recording\n\
         keep-alive: connections persist across requests; --idle-ms bounds how long\n\
         \x20         one may sit idle, --max-requests how many requests it may carry\n\
         resilience: --shed-at N sheds /v1/sweep + /v1/batch with 503 once the queue\n\
         \x20         holds N entries; --faults SPEC (or env DRAM_FAULTS) arms the\n\
         \x20         deterministic fault plan, e.g. `seed=7;engine.worker=panic:p=0.05`\n\
         \x20         (see docs/RESILIENCE.md)\n\
         endpoints: GET /healthz, GET /v1/presets, POST /v1/evaluate, POST /v1/batch,\n\
         POST /v1/pattern, POST /v1/sweep, GET /metrics, GET /debug/* (docs/SERVER.md)";

fn main() -> ExitCode {
    let args = parse_args().unwrap_or_else(|msg| exit_usage(&msg, USAGE));

    if args.profile.is_some() {
        dram_obs::set_enabled(true);
    }
    dram_obs::journal::configure(args.journal);

    if let Some(plan) = &args.faults {
        dram_faults::arm(plan);
        eprintln!("dram-serve: fault injection armed: {}", plan.render());
    }

    let handle = match serve(&args.addr, args.config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    let Limits {
        max_body,
        request_deadline,
        ..
    } = args.config.limits;
    println!(
        "dram-serve listening on http://{} ({} worker threads, queue depth {}, max body {} bytes, \
         request deadline {} ms, log {})",
        handle.local_addr(),
        args.config.threads,
        args.config.queue_depth,
        max_body,
        request_deadline.as_millis(),
        args.config.log.label()
    );

    wait_for_shutdown_signal();

    println!("dram-serve: shutdown requested, draining in-flight requests");
    let served = handle.shutdown();
    println!("dram-serve: drained; {served} requests served");

    if args.faults.is_some() {
        let fired = dram_faults::injected();
        dram_faults::disarm();
        for (site, count) in fired {
            println!("dram-serve: injected {count} faults at {site}");
        }
    }

    if let Some(path) = args.profile {
        dram_obs::set_enabled(false);
        let profile = dram_obs::drain();
        let spans = profile.spans.len();
        let doc = dram_obs::chrome_trace(&profile).to_string();
        match std::fs::write(&path, doc) {
            Ok(()) => println!("dram-serve: wrote {spans} spans to {path}"),
            Err(e) => {
                eprintln!("error: cannot write profile {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
