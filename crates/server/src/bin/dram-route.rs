//! `dram-route` — consistent-hash shard router for a pool of
//! `dram-serve` nodes.
//!
//! ```text
//! dram-route --node HOST:PORT [--node HOST:PORT ...]
//!            [--addr HOST:PORT] [--replicas N] [--probe-ms MS]
//!            [--down-after N] [--retries N] [--retry-seed N]
//!            [--hedge-ms MS] [--scrape-ms MS] [--random] [--journal N]
//!            [--log off|error|info|debug]
//! ```
//!
//! Each request's model description is hashed with the same content key
//! the backend `ModelCache` buckets by and placed on a consistent-hash
//! ring over the `--node` list, so every device description always hits
//! the node whose cache already holds its model. Nodes failing
//! `--down-after` consecutive health probes (interval `--probe-ms`)
//! are routed around — their ring slice falls through to the next node
//! — and re-absorbed on recovery. Retryable upstream failures back off
//! and fail over under the shared retry policy (`--retries` attempts);
//! `--hedge-ms` arms latency hedging to the next ring successor.
//!
//! The router serves its own `/healthz` and a federated `/metrics`
//! (per-node health, ring ownership, retry/hedge/failover counters and
//! every backend's scraped cache stats, each scrape bounded by
//! `--scrape-ms`). `--random` replaces ring placement with seeded
//! uniform routing — the cache-affinity baseline `shard-bench`
//! measures against.
//!
//! Binds (port `0` picks an ephemeral port, printed on startup), routes
//! until SIGINT/SIGTERM, then drains in-flight client connections.

use std::process::ExitCode;
use std::time::Duration;

use dram_server::{route_serve, wait_for_shutdown_signal, LogLevel, RouterConfig};
use dram_units::cli::{exit_usage, Flags};

struct Args {
    addr: String,
    config: RouterConfig,
    journal: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7979".to_string(),
        config: RouterConfig {
            log: LogLevel::Info,
            ..RouterConfig::default()
        },
        journal: 16_384,
    };
    let mut flags = Flags::from_env();
    while let Some(a) = flags.next_arg() {
        let config = &mut args.config;
        match a.as_str() {
            "--addr" => args.addr = flags.value("--addr")?,
            "--node" => config.nodes.push(flags.value("--node")?),
            "--replicas" => config.replicas = flags.number("--replicas", "replica count", 1..)?,
            "--probe-ms" => {
                let ms = flags.number("--probe-ms", "probe interval", 1..)?;
                config.probe_interval = Duration::from_millis(ms);
            }
            "--down-after" => {
                config.down_after = flags.number("--down-after", "down-after threshold", 1..)?;
            }
            "--retries" => {
                config.retry.max_attempts = flags.number("--retries", "attempt budget", 1..)?;
            }
            "--retry-seed" => config.retry_seed = flags.number("--retry-seed", "retry seed", ..)?,
            "--hedge-ms" => {
                let ms = flags.number("--hedge-ms", "hedge threshold", 1..)?;
                config.hedge_after = Some(Duration::from_millis(ms));
            }
            "--scrape-ms" => {
                let ms = flags.number("--scrape-ms", "scrape timeout", 1..)?;
                config.scrape_timeout = Duration::from_millis(ms);
            }
            "--random" => config.random_routing = true,
            "--journal" => args.journal = flags.number("--journal", "journal size", ..)?,
            "--log" => {
                let v = flags.value("--log")?;
                config.log = LogLevel::parse(&v)
                    .ok_or_else(|| format!("bad log level `{v}` (off|error|info|debug)"))?;
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.config.nodes.is_empty() {
        return Err("at least one --node HOST:PORT is required".to_string());
    }
    Ok(args)
}

const USAGE: &str = "dram-route — consistent-hash shard router for dram-serve pools\n\n\
         usage:\n  dram-route --node HOST:PORT [--node HOST:PORT ...]\n\
             [--addr HOST:PORT] [--replicas N] [--probe-ms MS] [--down-after N]\n\
             [--retries N] [--retry-seed N] [--hedge-ms MS] [--scrape-ms MS]\n\
             [--random] [--journal N] [--log off|error|info|debug]\n\n\
         defaults: --addr 127.0.0.1:7979 --replicas 64 --probe-ms 500 --down-after 2\n\
         \x20         --retries 5 --retry-seed 0 --scrape-ms 250 --journal 16384 --log info\n\
         \x20         (hedging off, ring routing)\n\
         routing:  requests are keyed by their model description (the backend cache's\n\
         \x20         content key) and placed on a consistent-hash ring; down nodes\n\
         \x20         fail over to ring successors and re-absorb their slice on return\n\
         metrics:  GET /metrics federates the pool (per-node health, ring ownership,\n\
         \x20         retries/hedges/failovers, backend cache stats; ?format=prometheus)\n\
         docs:     docs/SHARDING.md";

fn main() -> ExitCode {
    let args = parse_args().unwrap_or_else(|msg| exit_usage(&msg, USAGE));

    dram_obs::journal::configure(args.journal);

    let nodes = args.config.nodes.clone();
    let hedge = args.config.hedge_after;
    let random = args.config.random_routing;
    let retries = args.config.retry.max_attempts;
    let log = args.config.log;
    let handle = match route_serve(&args.addr, args.config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: cannot start router on {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "dram-route listening on http://{} ({} nodes: {}; {} attempts, hedge {}, {} routing, log {})",
        handle.local_addr(),
        nodes.len(),
        nodes.join(", "),
        retries,
        hedge.map_or("off".to_string(), |d| format!("{} ms", d.as_millis())),
        if random { "random" } else { "ring" },
        log.label(),
    );

    wait_for_shutdown_signal();

    println!("dram-route: shutdown requested, draining client connections");
    let proxied = handle.shutdown();
    println!("dram-route: drained; {proxied} requests proxied");
    ExitCode::SUCCESS
}
