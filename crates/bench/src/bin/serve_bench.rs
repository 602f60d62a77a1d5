//! `serve-bench` — throughput/latency load generator for `dram-serve`.
//!
//! Boots the server in-process on an ephemeral port, fires a warm-cache
//! closed-loop load from concurrent client threads, and records each
//! stage's latency (median and quartiles) and throughput to
//! `BENCH_server.json`. The same load is driven against a 1-thread
//! and an N-thread server and every response body is required to be
//! byte-identical across both — the service must scale without changing
//! a single bit of its answers. Every response must also carry an
//! `x-request-id`, and no id may repeat within a stage: the bench is the
//! tracing layer's load-level regression test.
//!
//! ```text
//! serve-bench [--requests N] [--clients C] [--threads T] [--out FILE] [--profile]
//! serve-bench --soak N --soak-addr HOST:PORT [--soak-kill PID]
//! serve-bench --journal
//! ```
//!
//! `--profile` enables span recording for the run and prints a
//! per-stage rollup of the server-side spans (queue wait, request,
//! handler, engine) after each stage. The default run stays
//! unprofiled so recorded throughput is not perturbed.
//!
//! The bench runs a keep-alive stage next to the close-per-request
//! stages: each client holds one connection and pipelines its requests
//! in small batches. Connection reuse must buy at least 2× requests/s
//! on the small-request path — the run fails otherwise.
//!
//! `--journal` switches to flight-recorder verification: boot an
//! in-process server with the journal armed, drive a concurrent
//! keep-alive load from `--clients` client threads against `--threads`
//! server threads, then assert that `GET /debug/requests/<id>`
//! reconstructs a *complete*, *ordered* timeline (accept → dispatch →
//! worker-start → response) for a sample of the served requests — and
//! that fetching the same timeline twice returns byte-identical JSON.
//! Also smoke-tests `GET /debug/profile?ms=N` by round-tripping the
//! returned Chrome-trace document through `dram_units::json`.
//!
//! `--soak N` switches to soak mode against an already-running server
//! (`--soak-addr`): open N keep-alive connections, leave them idle,
//! assert `/healthz` on a fresh connection still answers within its
//! deadline, then (with `--soak-kill PID`) SIGTERM the server and
//! assert the drain closes every idle connection with zero stray bytes.

use std::collections::HashSet;
use std::io::{Read, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use dram_obs::{Better, Record};
use dram_server::client::{self, Conn, Reply};
use dram_server::{serve, ServerConfig, ServerHandle};
use dram_units::cli::{exit_usage, Flags};
use dram_units::json::Value;

const OUT_FILE: &str = "BENCH_server.json";

/// Requests written per batch on a keep-alive connection before reading
/// the responses back.
const PIPELINE_BATCH: usize = 16;

struct Args {
    requests: usize,
    clients: usize,
    threads: usize,
    out: String,
    profile: bool,
    journal: bool,
    soak: Option<Soak>,
}

/// `--soak N --soak-addr HOST:PORT [--soak-kill PID]`.
struct Soak {
    count: usize,
    addr: SocketAddr,
    kill: Option<u32>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        requests: 2000,
        clients: 8,
        threads: 8,
        out: OUT_FILE.to_string(),
        profile: false,
        journal: false,
        soak: None,
    };
    let (mut soak, mut soak_addr, mut soak_kill) = (None, None, None);
    let mut flags = Flags::from_env();
    while let Some(a) = flags.next_arg() {
        match a.as_str() {
            "--requests" => args.requests = flags.number("--requests", "request count", 1..)?,
            "--clients" => args.clients = flags.number("--clients", "client count", 1..)?,
            "--threads" => args.threads = flags.number("--threads", "thread count", 1..)?,
            "--out" => args.out = flags.value("--out")?,
            "--profile" => args.profile = true,
            "--journal" => args.journal = true,
            "--soak" => soak = Some(flags.number("--soak", "soak connection count", 1..)?),
            "--soak-addr" => {
                let v = flags.value("--soak-addr")?;
                soak_addr = Some(v.parse().map_err(|_| format!("bad soak address `{v}`"))?);
            }
            "--soak-kill" => soak_kill = Some(flags.number("--soak-kill", "pid", 1..)?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    args.soak = match (soak, soak_addr) {
        (Some(count), Some(addr)) => Some(Soak {
            count,
            addr,
            kill: soak_kill,
        }),
        (Some(_), None) => return Err("--soak needs --soak-addr HOST:PORT".into()),
        (None, Some(_)) => return Err("--soak-addr needs --soak N".into()),
        (None, None) if soak_kill.is_some() => return Err("--soak-kill needs --soak N".into()),
        (None, None) => None,
    };
    Ok(args)
}

const USAGE: &str = "usage: serve-bench [--requests N] [--clients C] [--threads T] [--out FILE] \
                 [--profile]\n       serve-bench --soak N --soak-addr HOST:PORT [--soak-kill PID]\n                        serve-bench --journal [--clients C] [--threads T]";

/// A reply's `x-request-id`; every response must carry one.
fn request_id(reply: &Reply) -> String {
    reply
        .header("x-request-id")
        .unwrap_or_else(|| panic!("response without x-request-id: {reply:?}"))
        .to_string()
}

/// One measured load stage against a running server.
struct Stage {
    name: String,
    /// Per-request latency, in µs.
    latency: Record,
    /// Requests per second over the whole stage: one reading.
    throughput: Record,
    /// The (single) response body every request returned.
    body: String,
}

/// One request shape driven repeatedly by a stage.
struct Call<'a> {
    method: &'a str,
    path: &'a str,
    body: &'a str,
}

/// What one client of a stage saw: a latency and an `x-request-id` per
/// request, and the one body every request returned.
#[derive(Default)]
struct Samples {
    /// Per request, in µs.
    latencies: Vec<f64>,
    ids: Vec<String>,
    body: Option<String>,
}

impl Samples {
    /// Records one reply, timed from `since`: it must be a 200 whose body
    /// matches the client's earlier ones.
    fn record(&mut self, reply: &Reply, since: Instant) {
        self.latencies.push(since.elapsed().as_secs_f64() * 1e6);
        assert_eq!(reply.status(), 200, "request failed: {reply:?}");
        self.ids.push(request_id(reply));
        let body = reply.text();
        match &self.body {
            None => self.body = Some(body.into_owned()),
            Some(c) => assert_eq!(c, &body, "response bodies diverged within one client"),
        }
    }
}

/// How a client sends its `n` requests, the one thing stages differ in.
type Client = fn(SocketAddr, &Call<'_>, usize, &mut Samples);

/// A fresh connection per request, closed after its response; latency
/// is send to response.
fn close_per_request(addr: SocketAddr, call: &Call<'_>, n: usize, samples: &mut Samples) {
    for _ in 0..n {
        let t0 = Instant::now();
        let reply =
            client::fetch(addr, call.method, call.path, call.body.as_bytes()).expect("exchange");
        samples.record(&reply, t0);
    }
}

/// One connection for all `n` requests, pipelined in batches of
/// [`PIPELINE_BATCH`]; latency is batch start to each response.
fn pipelined(addr: SocketAddr, call: &Call<'_>, n: usize, samples: &mut Samples) {
    assert!(
        (n as u64) < ServerConfig::default().max_requests_per_conn,
        "per-client request count exceeds the server's per-connection budget"
    );
    let wire_request = format!(
        "{} {} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n{}",
        call.method,
        call.path,
        call.body.len(),
        call.body
    );
    let mut conn = Conn::connect(addr, Duration::from_secs(30)).expect("connect");
    let mut remaining = n;
    while remaining > 0 {
        let batch = remaining.min(PIPELINE_BATCH);
        let wire = wire_request.repeat(batch);
        let t0 = Instant::now();
        conn.write_all(wire.as_bytes()).expect("send batch");
        for _ in 0..batch {
            let reply = conn.read_response().expect("response");
            samples.record(&reply, t0);
        }
        remaining -= batch;
    }
}

/// Drives `requests` closed-loop requests from `clients` threads, each
/// sending its share with `send`, and checks every response is a 200
/// with one identical body and a request id no other response carries.
fn run_stage(
    name: &str,
    handle: &ServerHandle,
    clients: usize,
    requests: usize,
    call: &Call<'_>,
    send: Client,
) -> Stage {
    let addr = handle.local_addr();
    let per_client = requests.div_ceil(clients);
    let started = Instant::now();
    let results: Vec<Samples> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(move || {
                    let mut samples = Samples::default();
                    send(addr, call, per_client, &mut samples);
                    samples
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client")).collect()
    });
    let total_s = started.elapsed().as_secs_f64();

    let first_body = results[0].body.clone().expect("at least one request");
    let mut latencies: Vec<f64> = Vec::with_capacity(clients * per_client);
    let mut seen_ids: HashSet<String> = HashSet::with_capacity(clients * per_client);
    for samples in results {
        assert_eq!(
            samples.body.as_ref(),
            Some(&first_body),
            "response bodies diverged across clients"
        );
        latencies.extend(samples.latencies);
        for id in samples.ids {
            assert!(seen_ids.insert(id.clone()), "request id `{id}` repeated");
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let rps = latencies.len() as f64 / total_s;
    Stage {
        name: name.to_string(),
        latency: Record::new(format!("{name}/latency"), "us", Better::Lower, &latencies),
        throughput: Record::new(format!("{name}/throughput"), "1/s", Better::Higher, &[rps]),
        body: first_body,
    }
}

/// Soak mode: `count` idle keep-alive connections against an external
/// server must not degrade `/healthz`, and (with `kill_pid`) a SIGTERM
/// drain must close them all losslessly — EOF on every connection with
/// zero stray bytes after its served response.
fn run_soak(addr: SocketAddr, count: usize, kill_pid: Option<u32>) {
    let mut conns = Vec::with_capacity(count);
    let opened = Instant::now();
    for i in 0..count {
        let s = TcpStream::connect(addr)
            .unwrap_or_else(|e| panic!("soak connect {i}/{count}: {e}"));
        s.set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let mut s = Conn::new(s);
        s.write_all(b"GET /healthz HTTP/1.1\r\nhost: soak\r\n\r\n")
            .expect("send");
        let reply = s.read_response().expect("response");
        assert_eq!(reply.status(), 200, "soak connection {i} got {reply:?}");
        conns.push(s);
    }
    println!(
        "soak: {count} keep-alive connections opened and parked in {:.2}s",
        opened.elapsed().as_secs_f64()
    );

    // The parked horde must not slow the front door: a fresh connection
    // gets its health answer well inside the request deadline.
    let deadline = Duration::from_millis(1000);
    let mut worst = Duration::ZERO;
    for _ in 0..5 {
        let t0 = Instant::now();
        let reply = client::fetch(addr, "GET", "/healthz", b"").expect("exchange");
        let took = t0.elapsed();
        assert_eq!(reply.status(), 200, "healthz under soak: {reply:?}");
        assert!(
            took < deadline,
            "healthz took {took:?} with {count} idle connections parked"
        );
        worst = worst.max(took);
    }
    println!("soak: /healthz worst-case {worst:?} with all connections parked");

    let Some(pid) = kill_pid else {
        return;
    };
    // Ask the server to drain; every parked connection must see clean
    // EOF with no bytes it never asked for.
    let status = std::process::Command::new("kill")
        .args(["-TERM", &pid.to_string()])
        .status()
        .expect("run kill");
    assert!(status.success(), "kill -TERM {pid} failed");
    let mut stray = 0usize;
    for mut s in conns {
        s.stream()
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut scratch = [0u8; 256];
        loop {
            match s.read(&mut scratch) {
                Ok(0) => break,
                Ok(n) => stray += n,
                Err(e) => panic!("soak drain read: {e}"),
            }
        }
    }
    assert_eq!(stray, 0, "drain pushed {stray} stray bytes to idle connections");
    println!("soak: drain closed all {count} idle connections, zero stray bytes");
}

/// Drains the spans the stage just recorded (server side: queue wait,
/// request, handler, engine) and prints their per-name rollup. Draining
/// also clears the sink, so each stage reports only its own spans.
fn print_stage_rollup(stage: &str) {
    println!("\n-- span rollup: {stage} --");
    print!("{}", dram_obs::rollup_table(&dram_obs::drain()));
}

/// Events the flight recorder must capture for every verified request,
/// in the order they must appear in its reconstructed timeline.
const TIMELINE_KINDS: [&str; 4] = ["accept", "dispatch", "worker_start", "response"];

/// `--journal` mode: drive a concurrent keep-alive run with the journal
/// armed, then hold `GET /debug/requests/<id>` to its contract — the
/// timeline is complete (worker-start and response both present),
/// ordered (monotone timestamps, lifecycle kinds in causal order) and
/// byte-stable across two identical replays. Panics on any violation.
fn run_journal_verification(threads: usize, clients: usize) {
    const PER_CLIENT: usize = 25;
    // Sized so the reactor's shard alone holds the whole run: every
    // accept/park/wake/dispatch lands on the one reactor thread, and an
    // evicted `accept` would (correctly, but unhelpfully) fail the
    // completeness assertion below.
    dram_obs::journal::configure(32_768);
    // Spans on too: the timelines must join journal events with the
    // span tree, so give them a span tree to join.
    dram_obs::set_enabled(true);
    let handle = serve(
        "127.0.0.1:0",
        ServerConfig {
            threads,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral");
    let addr = handle.local_addr();

    // Concurrent load: each client holds one keep-alive connection and
    // serializes its requests on it, so every request exercises the
    // full accept/park/wake/dispatch cycle at least once per conn.
    let sampled_ids: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(move || {
                    let mut conn =
                        Conn::connect(addr, Duration::from_secs(30)).expect("connect");
                    let mut last_id = String::new();
                    for _ in 0..PER_CLIENT {
                        conn.write_all(
                            b"POST /v1/evaluate HTTP/1.1\r\nhost: bench\r\n\
                              content-type: application/json\r\n\
                              content-length: 25\r\n\r\n\
                              {\"preset\":\"ddr3_1g_55nm\"}",
                        )
                        .expect("send");
                        let reply = conn.read_response().expect("response");
                        assert_eq!(reply.status(), 200, "evaluate failed: {reply:?}");
                        last_id = request_id(&reply);
                    }
                    last_id
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client")).collect()
    });
    dram_obs::set_enabled(false);

    // Each sampled request must reconstruct completely, in order, and
    // byte-stably.
    for id in &sampled_ids {
        let path = format!("/debug/requests/{id}");
        let first = client::fetch(addr, "GET", &path, b"").expect("exchange");
        let second = client::fetch(addr, "GET", &path, b"").expect("exchange");
        assert_eq!(first.status(), 200, "timeline fetch failed: {first:?}");
        assert_eq!(second.status(), 200, "timeline re-fetch failed: {second:?}");
        let (first, second) = (first.text(), second.text());
        assert_eq!(
            first, second,
            "timeline for {id} not byte-stable across two replays"
        );
        let doc = Value::parse(&first).expect("timeline JSON parses");
        assert_eq!(
            doc.get("complete").and_then(Value::as_bool),
            Some(true),
            "timeline for {id} incomplete: {first}"
        );
        let events = doc
            .get("events")
            .and_then(Value::as_array)
            .expect("timeline has events");
        assert!(!events.is_empty(), "timeline for {id} has no events");
        let kinds: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("kind").and_then(Value::as_str))
            .collect();
        let mut cursor = 0usize;
        for want in TIMELINE_KINDS {
            let found = kinds[cursor..].iter().position(|k| *k == want);
            cursor += found.unwrap_or_else(|| {
                panic!("timeline for {id} missing `{want}` after position {cursor}: {kinds:?}")
            });
        }
        let stamps: Vec<f64> = events
            .iter()
            .filter_map(|e| e.get("ts_us").and_then(Value::as_f64))
            .collect();
        assert!(
            stamps.windows(2).all(|w| w[0] <= w[1]),
            "timeline for {id} not time-ordered: {stamps:?}"
        );
        let spans = doc
            .get("spans")
            .and_then(Value::as_array)
            .expect("timeline has spans");
        assert!(
            spans.iter().any(|s| {
                s.get("name").and_then(Value::as_str) == Some("server.request")
            }),
            "timeline for {id} did not join the request span: {first}"
        );
    }
    println!(
        "journal: {} timelines complete, ordered and byte-stable ({} clients x {PER_CLIENT} \
         requests, {threads} server threads)",
        sampled_ids.len(),
        clients
    );

    // On-demand profiling round-trips through the JSON codec.
    let reply =
        client::fetch(addr, "GET", "/debug/profile?ms=50", b"").expect("exchange");
    assert_eq!(reply.status(), 200, "profile fetch failed: {reply:?}");
    let doc = Value::parse(&reply.text()).expect("profile output is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("profile output has traceEvents");
    println!("journal: /debug/profile?ms=50 returned {} trace events", events.len());

    handle.shutdown();
    dram_obs::journal::configure(0);
}

fn main() {
    let args = parse_args().unwrap_or_else(|msg| exit_usage(&msg, USAGE));

    if args.journal {
        run_journal_verification(args.threads, args.clients);
        return;
    }

    if let Some(soak) = args.soak {
        run_soak(soak.addr, soak.count, soak.kill);
        return;
    }

    if args.profile {
        dram_obs::set_enabled(true);
    }

    let eval_body = r#"{"preset":"ddr3_1g_55nm"}"#;
    let batch_body =
        r#"{"requests":[{"preset":"ddr3_1g_55nm"},{"preset":"ddr3_1g_x16_55nm"}]}"#;
    let mut stages: Vec<Stage> = Vec::new();

    // One stage per server thread count; the model cache is the shared
    // process-global engine, so after the first stage's warm-up every
    // request is a cache hit.
    for threads in [1, args.threads] {
        let handle = serve(
            "127.0.0.1:0",
            ServerConfig {
                threads,
                ..ServerConfig::default()
            },
        )
        .expect("bind ephemeral");

        // Warm up: build every model the stages touch before timing starts.
        for (path, body) in [("/v1/evaluate", eval_body), ("/v1/batch", batch_body)] {
            let reply = client::fetch(handle.local_addr(), "POST", path, body.as_bytes())
                .expect("exchange");
            assert_eq!(reply.status(), 200, "warm-up ({path}) failed: {reply:?}");
        }
        if args.profile {
            // Drop the warm-up spans so the first stage rollup is clean.
            dram_obs::clear();
        }

        let healthz = Call {
            method: "GET",
            path: "/healthz",
            body: "",
        };
        let evaluate = Call {
            method: "POST",
            path: "/v1/evaluate",
            body: eval_body,
        };
        let batch = Call {
            method: "POST",
            path: "/v1/batch",
            body: batch_body,
        };
        for (stage, call, send) in [
            ("evaluate_warm", &evaluate, close_per_request as Client),
            ("batch_warm", &batch, close_per_request),
            ("healthz", &healthz, close_per_request),
            ("healthz_keepalive", &healthz, pipelined),
        ] {
            stages.push(run_stage(
                &format!("server/{stage}/threads={threads}"),
                &handle,
                args.clients,
                args.requests,
                call,
                send,
            ));
            if args.profile {
                print_stage_rollup(&stages.last().expect("just pushed").name);
            }
        }
        handle.shutdown();
    }
    if args.profile {
        dram_obs::set_enabled(false);
    }

    // Acceptance: responses are bit-identical across 1 vs N server
    // threads, for every exercised endpoint. The stage list holds the
    // same endpoint sequence once per thread count, so stage `i` of the
    // first half pairs with stage `i + per` of the second.
    let per = stages.len() / 2;
    let mut identical = true;
    for i in 0..per {
        let (a, b) = (&stages[i], &stages[i + per]);
        if a.body != b.body {
            identical = false;
            eprintln!("MISMATCH: {} vs {} returned different bodies", a.name, b.name);
        }
    }
    assert!(identical, "responses are not bit-identical across thread counts");

    println!(
        "{:44}  {:>10}  {:>9}  {:>9}  {:>9}",
        "stage", "rps", "q1 µs", "p50 µs", "q3 µs"
    );
    for s in &stages {
        println!(
            "{:44}  {:>10.0}  {:>9.0}  {:>9.0}  {:>9.0}",
            s.name, s.throughput.median, s.latency.q1, s.latency.median, s.latency.q3
        );
    }
    println!("bit-identical across 1 vs {} server threads: yes", args.threads);

    // Acceptance: connection reuse must pay. Pipelined keep-alive on the
    // small-request path has to beat close-per-request by at least 2×.
    let stage_rps = |name: String| {
        stages
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("missing stage {name}"))
            .throughput
            .median
    };
    let mut slowest = f64::INFINITY;
    for threads in [1, args.threads] {
        let close_rps = stage_rps(format!("server/healthz/threads={threads}"));
        let ka_rps = stage_rps(format!("server/healthz_keepalive/threads={threads}"));
        let speedup = ka_rps / close_rps;
        println!(
            "keep-alive speedup at {threads} server threads: {speedup:.1}x \
             ({close_rps:.0} -> {ka_rps:.0} rps)"
        );
        assert!(
            speedup >= 2.0,
            "keep-alive must be >= 2x close-per-request, got {speedup:.2}x at {threads} threads"
        );
        slowest = slowest.min(speedup);
    }

    let records: Vec<Record> = stages
        .into_iter()
        .flat_map(|s| [s.latency, s.throughput])
        .collect();
    let values = vec![
        ("requests", args.requests.into()),
        ("clients", args.clients.into()),
        ("server_threads", args.threads.into()),
        ("bit_identical", true.into()),
        ("keepalive_speedup", slowest.into()),
    ];
    dram_obs::write_bench(&args.out, "server", &records, values).expect("write bench file");
    println!("wrote {}", args.out);
}
