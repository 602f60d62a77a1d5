//! `chaos-bench` — the serve-bench workload replayed under a seeded
//! fault schedule, asserting the service's resilience invariants.
//!
//! Boots the server in-process, arms a deterministic `dram_faults` plan
//! (worker kills, per-item evaluation panics, queue-full rejections,
//! slow reads, short writes), drives a concurrent closed-loop load, and
//! proves:
//!
//! * **No lost responses** — every request receives exactly one
//!   well-formed HTTP reply, whatever faults fire around it.
//! * **Unique ids** — every reply carries an `x-request-id` and no id
//!   repeats across the whole run.
//! * **Bit-identity where nothing fired** — every successful body is
//!   byte-identical to the unfaulted baseline; the only divergences are
//!   batch items reporting an injected evaluation panic, and their count
//!   equals the injected `engine.worker` fault count exactly.
//! * **Accounted faults** — the server's counters (`worker_panics`,
//!   `worker_respawns`, `rejected_busy`, `shed_load`) and the
//!   `dram_faults_injected_total_*` series in the Prometheus scrape
//!   explain every fault the plan fired.
//! * **Clean drain** — shutdown returns after serving every accepted
//!   connection; the served total matches the client-side count.
//!
//! ```text
//! chaos-bench [--requests N] [--clients C] [--threads T] [--seed S] [--out FILE]
//! ```
//!
//! The run is recorded to `BENCH_chaos.json`. A failed invariant is a
//! panic: CI treats any non-zero exit as a resilience regression.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use dram_obs::{Better, Record};
use dram_server::client::{self, Reply};
use dram_server::{serve, ServerConfig};
use dram_units::cli::{exit_usage, in_range, Flags};
use dram_units::json::{obj, Value};

const OUT_FILE: &str = "BENCH_chaos.json";

/// `engine.build` panic budget (`times=`) in the armed plan: the first
/// this many model builds panic, everything after heals.
const BUILD_PANICS: u64 = 3;

/// The per-item error text an injected `engine.worker` panic produces in
/// a `/v1/batch` response (the isolation path in `evaluate_many`).
const WORKER_PANIC_MARK: &str = "evaluation panicked: injected fault at engine.worker";

struct Args {
    requests: usize,
    clients: usize,
    threads: usize,
    seed: u64,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        requests: 400,
        clients: 6,
        threads: 4,
        seed: 42,
        out: OUT_FILE.to_string(),
    };
    let mut flags = Flags::from_env();
    while let Some(a) = flags.next_arg() {
        match a.as_str() {
            "--requests" => {
                let v = flags.value("--requests")?;
                args.requests = in_range(&v, 50..)
                    .ok_or_else(|| format!("bad request count `{v}` (minimum 50)"))?;
            }
            "--clients" => args.clients = flags.number("--clients", "client count", 1..)?,
            "--threads" => args.threads = flags.number("--threads", "thread count", 1..)?,
            "--seed" => args.seed = flags.number("--seed", "seed", ..)?,
            "--out" => args.out = flags.value("--out")?,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

const USAGE: &str =
    "usage: chaos-bench [--requests N] [--clients C] [--threads T] [--seed S] [--out FILE]";

/// One HTTP exchange; returns the reply and its `x-request-id`. Any
/// failure to produce exactly one well-formed reply with an id — connect
/// error, truncated read, bad framing — panics: under chaos a lost
/// response is precisely the bug this bench catches.
fn fetch(addr: SocketAddr, method: &str, path: &str, body: &str) -> (Reply, String) {
    let reply = client::fetch(addr, method, path, body.as_bytes())
        .unwrap_or_else(|e| panic!("lost response from {method} {path}: {e}"));
    let id = reply
        .header("x-request-id")
        .unwrap_or_else(|| panic!("response without x-request-id: {reply:?}"))
        .to_string();
    (reply, id)
}

/// An `/v1/evaluate` request whose description is a fresh cache miss:
/// the reference device under a name no other request uses, so the
/// engine must build (and the `engine.build` fault site must draw).
fn unique_description_body(tag: &str, i: usize) -> String {
    let mut desc = dram_core::reference::ddr3_1g_x16_55nm();
    desc.name = format!("chaos {tag} variant {i}");
    let text = dram_dsl::write(&desc, None);
    obj(vec![("description", text.as_str().into())]).to_string()
}

const EVAL_BODY: &str = r#"{"preset":"ddr3_1g_55nm"}"#;
const BATCH_BODY: &str =
    r#"{"requests":[{"preset":"ddr3_1g_55nm"},{"preset":"ddr3_1g_x16_55nm"}]}"#;
const SWEEP_BODY: &str = r#"{"preset":"ddr3_1g_55nm","variation":0.2,"top":3}"#;

/// Canonical (unfaulted) response bodies, captured from a pristine
/// server before the fault plan is armed. Also warms the process-global
/// engine cache so the chaos stage's presets never miss.
struct Canon {
    healthz: String,
    evaluate: String,
    batch: String,
}

fn capture_canon(threads: usize) -> Canon {
    let handle = serve(
        "127.0.0.1:0",
        ServerConfig {
            threads,
            ..ServerConfig::default()
        },
    )
    .expect("bind baseline server");
    let addr = handle.local_addr();
    let get = |method: &str, path: &str, body: &str| {
        let (r, _) = fetch(addr, method, path, body);
        assert_eq!(r.status(), 200, "baseline {path} failed: {}", r.text());
        r.text().into_owned()
    };
    let canon = Canon {
        healthz: get("GET", "/healthz", ""),
        evaluate: get("POST", "/v1/evaluate", EVAL_BODY),
        batch: get("POST", "/v1/batch", BATCH_BODY),
    };
    assert_eq!(handle.shutdown(), 3, "baseline server drain");
    canon
}

/// Exercises the `--shed-at` watermark deterministically: with the
/// watermark at 0 every expensive route sheds, every cheap one flows.
fn shed_stage(canon: &Canon) -> u64 {
    let handle = serve(
        "127.0.0.1:0",
        ServerConfig {
            threads: 2,
            shed_at: Some(0),
            ..ServerConfig::default()
        },
    )
    .expect("bind shed server");
    let addr = handle.local_addr();
    let mut shed = 0u64;
    for body in [BATCH_BODY, BATCH_BODY, SWEEP_BODY] {
        let path = if body == SWEEP_BODY {
            "/v1/sweep"
        } else {
            "/v1/batch"
        };
        let (r, _) = fetch(addr, "POST", path, body);
        let text = r.text();
        assert_eq!(r.status(), 503, "expensive route not shed: {text}");
        assert!(text.contains("shedding"), "wrong shed body: {text}");
        let retry = r.head.retry_after().expect("shed 503 without retry-after");
        assert!(
            (1..=30).contains(&retry.as_secs()),
            "retry-after {retry:?} out of range"
        );
        shed += 1;
    }
    // Cheap routes keep flowing at the same watermark.
    let (r, _) = fetch(addr, "GET", "/healthz", "");
    assert_eq!((r.status(), r.text()), (200, canon.healthz.as_str().into()));
    let (r, _) = fetch(addr, "POST", "/v1/evaluate", EVAL_BODY);
    assert_eq!(
        (r.status(), r.text()),
        (200, canon.evaluate.as_str().into())
    );
    assert_eq!(handle.metrics().shed_load.get(), shed);
    assert_eq!(handle.shutdown(), shed + 2, "shed server drain");
    shed
}

/// What one chaos client observed.
#[derive(Default)]
struct ClientTally {
    ids: Vec<String>,
    ok: u64,
    rejected: u64,
    batch_panicked_items: u64,
}

/// Drives `count` closed-loop requests rotating over the workload mix,
/// tolerating exactly the failures the armed plan can produce.
fn chaos_client(addr: SocketAddr, count: usize, canon: &Canon) -> ClientTally {
    let mut tally = ClientTally::default();
    for i in 0..count {
        let (method, path, body, canonical) = match i % 3 {
            0 => ("POST", "/v1/evaluate", EVAL_BODY, &canon.evaluate),
            1 => ("POST", "/v1/batch", BATCH_BODY, &canon.batch),
            _ => ("GET", "/healthz", "", &canon.healthz),
        };
        let (r, id) = fetch(addr, method, path, body);
        tally.ids.push(id);
        let text = r.text();
        match r.status() {
            200 => {
                tally.ok += 1;
                let panicked = text.matches(WORKER_PANIC_MARK).count() as u64;
                if panicked > 0 {
                    assert_eq!(path, "/v1/batch", "panic leak on {path}: {text}");
                    tally.batch_panicked_items += panicked;
                } else {
                    assert_eq!(
                        text, *canonical,
                        "{path} diverged from baseline with no fault to blame"
                    );
                }
            }
            503 => {
                assert!(text.contains("at capacity"), "unexpected 503: {text}");
                assert!(r.head.retry_after().is_some(), "503 without retry-after");
                tally.rejected += 1;
            }
            other => panic!("unexpected status {other} on {path}: {text}"),
        }
    }
    tally
}

/// Scrapes `/metrics?format=prometheus`, retrying through injected
/// queue rejections. Returns the scrape text and how many rejections
/// the retries ate (they count toward the `server.queue` accounting).
fn scrape_prometheus(addr: SocketAddr) -> (String, u64, Vec<String>) {
    let mut rejected = 0u64;
    let mut ids = Vec::new();
    loop {
        let (r, id) = fetch(addr, "GET", "/metrics?format=prometheus", "");
        ids.push(id);
        if r.status() == 200 {
            return (r.text().into_owned(), rejected, ids);
        }
        assert_eq!(r.status(), 503, "metrics scrape failed: {}", r.text());
        rejected += 1;
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Reads one un-labeled sample value from a Prometheus scrape.
fn prom_value(scrape: &str, metric: &str) -> Option<f64> {
    scrape
        .lines()
        .find_map(|l| l.strip_prefix(metric))
        .and_then(|rest| rest.trim().parse().ok())
}

#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
fn main() {
    let args = parse_args().unwrap_or_else(|msg| exit_usage(&msg, USAGE));

    // Stage 1: canonical bodies from a pristine server (faults disarmed).
    let canon = capture_canon(args.threads);
    println!("baseline captured: healthz/evaluate/batch bodies, engine cache warm");

    // Stage 2: deterministic load shedding (still unfaulted).
    let shed = shed_stage(&canon);
    println!("shed stage: {shed} expensive requests shed at watermark 0, cheap routes served");

    // Stage 3: arm the seeded fault plan and boot the server under test.
    let spec = format!(
        "seed={};engine.build=panic:times={BUILD_PANICS};engine.worker=panic:p=0.1;\
         server.worker=panic:p=0.05;server.queue=reject:p=0.05;\
         http.read=delay:ms=1:p=0.1;http.write=short:p=0.2",
        args.seed
    );
    let plan = dram_faults::Plan::parse(&spec).expect("fault spec");
    dram_faults::arm(&plan);
    println!("armed: {}", plan.render());

    let handle = serve(
        "127.0.0.1:0",
        ServerConfig {
            threads: args.threads,
            queue_depth: 1024,
            ..ServerConfig::default()
        },
    )
    .expect("bind chaos server");
    let addr = handle.local_addr();
    let mut all_ids: Vec<String> = Vec::new();
    let mut worker_served = 0u64;
    let mut rejected_seen = 0u64;

    // Retries a single request through injected queue rejections (the
    // `server.queue` site fires on any connection, this stage included),
    // counting the 503s it eats toward the rejection ledger.
    let send_through_rejections = |method: &str,
                                   path: &str,
                                   body: &str,
                                   all_ids: &mut Vec<String>,
                                   rejected: &mut u64| {
        loop {
            let (r, id) = fetch(addr, method, path, body);
            all_ids.push(id);
            if r.status() == 503 && r.text().contains("at capacity") {
                *rejected += 1;
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
            return r;
        }
    };

    // Stage 3a: handler-panic isolation. The first BUILD_PANICS model
    // builds panic (p=1, times-capped); each must come back as a 500
    // carrying an id, and the server must keep answering afterwards.
    for i in 0..BUILD_PANICS {
        let body = unique_description_body("fail", usize::try_from(i).expect("small"));
        let r = send_through_rejections(
            "POST",
            "/v1/evaluate",
            &body,
            &mut all_ids,
            &mut rejected_seen,
        );
        let text = r.text();
        assert_eq!(r.status(), 500, "build panic {i} not a 500: {text}");
        assert!(
            text.contains("request handler panicked"),
            "wrong 500 body: {text}"
        );
        worker_served += 1;
    }
    // The budget is spent: the same path heals end to end.
    let r = send_through_rejections(
        "POST",
        "/v1/evaluate",
        &unique_description_body("heal", 0),
        &mut all_ids,
        &mut rejected_seen,
    );
    assert_eq!(
        r.status(),
        200,
        "engine did not heal after panic budget: {}",
        r.text()
    );
    worker_served += 1;
    assert_eq!(handle.metrics().worker_panics.get(), BUILD_PANICS);
    println!("build panics: {BUILD_PANICS} isolated as 500s, engine healed, pool alive");

    // Stage 3b: the concurrent chaos load.
    let per_client = args.requests.div_ceil(args.clients);
    let started = Instant::now();
    let tallies: Vec<ClientTally> = std::thread::scope(|s| {
        let canon = &canon;
        let handles: Vec<_> = (0..args.clients)
            .map(|_| s.spawn(move || chaos_client(addr, per_client, canon)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let total_s = started.elapsed().as_secs_f64();
    let mut ok = 0u64;
    let mut batch_panicked = 0u64;
    for t in tallies {
        ok += t.ok;
        rejected_seen += t.rejected;
        batch_panicked += t.batch_panicked_items;
        all_ids.extend(t.ids);
    }
    let driven = (args.clients * per_client) as u64;
    worker_served += ok;
    println!(
        "chaos load: {driven} requests in {total_s:.2}s, {ok} ok, {rejected_seen} rejected, \
         {batch_panicked} batch items lost to injected worker panics"
    );

    // The supervisor respawns asynchronously; give it a moment to reap
    // the last injected worker kill before reading the counter.
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.metrics().worker_respawns.get() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }

    // Stage 4: accounting. Every injected fault must be explained by a
    // client-visible effect or a server counter — and vice versa.
    let (scrape, scrape_rejections, scrape_ids) = scrape_prometheus(addr);
    rejected_seen += scrape_rejections;
    all_ids.extend(scrape_ids);
    worker_served += 1; // the successful scrape

    let fired: std::collections::HashMap<&str, u64> = dram_faults::injected().into_iter().collect();
    let at = |site: &str| fired.get(site).copied().unwrap_or(0);

    // No lost responses + unique ids.
    let mut seen = HashSet::with_capacity(all_ids.len());
    for id in &all_ids {
        assert!(seen.insert(id.as_str()), "request id `{id}` repeated");
    }

    // Every fault accounted, every anomaly blamed on a fault.
    assert_eq!(
        at("engine.build"),
        BUILD_PANICS,
        "build-panic budget mismatch"
    );
    assert_eq!(
        handle.metrics().worker_panics.get(),
        at("engine.build"),
        "caught handler panics != injected build panics"
    );
    assert_eq!(
        batch_panicked,
        at("engine.worker"),
        "batch items reporting a panic != injected worker panics"
    );
    assert_eq!(
        rejected_seen,
        at("server.queue"),
        "client-observed 503 rejections != injected queue-full faults"
    );
    assert_eq!(
        handle.metrics().rejected_busy.get(),
        at("server.queue"),
        "rejected_busy counter != injected queue-full faults"
    );
    let respawns = handle.metrics().worker_respawns.get();
    let kills = at("server.worker");
    assert!(kills >= 1, "no worker kills fired; raise --requests");
    assert!(respawns >= 1, "workers were killed but none respawned");
    assert!(
        respawns <= kills,
        "{respawns} respawns exceed {kills} injected kills"
    );

    // The Prometheus scrape carries the injection series and the
    // supervision counters. The scrape ran while `server.worker` and
    // `http.*` sites could still fire, so those are lower bounds; the
    // engine sites were quiescent and must match exactly.
    for (site, count) in &fired {
        if *count == 0 {
            continue;
        }
        let name = dram_faults::metric_name(site);
        let v = prom_value(&scrape, &name).unwrap_or_else(|| panic!("scrape is missing {name}"));
        assert!(v >= 1.0, "{name} present but zero in scrape");
        assert!(v <= *count as f64, "{name} overshoots the fired count");
    }
    let scraped_worker = prom_value(&scrape, &dram_faults::metric_name("engine.worker"))
        .expect("engine.worker series");
    assert_eq!(
        scraped_worker,
        at("engine.worker") as f64,
        "scrape lagged a quiescent site"
    );
    let scraped_respawns =
        prom_value(&scrape, "dram_serve_worker_respawns_total").expect("respawns series");
    assert!(scraped_respawns >= 1.0, "scrape shows no worker respawns");
    assert!(
        prom_value(&scrape, "dram_serve_worker_panics_total") == Some(BUILD_PANICS as f64),
        "scrape disagrees on worker panics"
    );

    // Clean drain: shutdown serves everything accepted, and the served
    // total equals the client-side ledger.
    let served = handle.shutdown();
    assert_eq!(
        served, worker_served,
        "drain mismatch: served != client ledger"
    );
    dram_faults::disarm();

    println!(
        "invariants hold: {} unique ids, {served} served, {} faults injected \
         ({kills} kills -> {respawns} respawns), drain clean",
        all_ids.len(),
        fired.values().sum::<u64>()
    );

    let injected_json: Vec<(String, Value)> = {
        let mut pairs: Vec<_> = fired.iter().collect();
        pairs.sort();
        pairs
            .into_iter()
            .map(|(site, n)| ((*site).to_string(), (*n).into()))
            .collect()
    };
    let load = Record::new("load", "s", Better::Lower, &[total_s]);
    let values = vec![
        ("seed", args.seed.into()),
        ("plan", plan.render().into()),
        ("requests", driven.into()),
        ("clients", args.clients.into()),
        ("server_threads", args.threads.into()),
        ("injected", Value::Obj(injected_json)),
        ("shed", shed.into()),
        ("ok_responses", ok.into()),
        ("rejected_503", rejected_seen.into()),
        ("batch_items_panicked", batch_panicked.into()),
        ("worker_respawns", respawns.into()),
        ("served_total", served.into()),
        ("unique_ids", all_ids.len().into()),
        ("invariants_hold", true.into()),
    ];
    dram_obs::write_bench(&args.out, "chaos", &[load], values).expect("write bench file");
    println!("wrote {}", args.out);
}
