//! `shard-bench` — multi-process proof of the `dram-route` shard tier.
//!
//! Boots N *real* `dram-serve` child processes, fronts them with an
//! in-process consistent-hash router, and proves the sharding
//! invariants end to end over real sockets and real process deaths:
//!
//! * **Cache affinity** — a workload of distinct device descriptions
//!   routed by content key misses each backend cache exactly once per
//!   description; the same workload through seeded random routing
//!   (`random_routing`) misses once per `(description, node)` first
//!   touch. The federated `/metrics` aggregates must show the ring's
//!   hit rate beating the random baseline.
//! * **Zero lost requests under node murder** — a seeded kill schedule
//!   (the `node.kill` fault site, drawn by this orchestrator) SIGKILLs
//!   whole children mid-load; every request still succeeds within the
//!   client retry budget, and every success is byte-identical to the
//!   single-node canon.
//! * **Failover is observable** — the router's `dram_route` counters
//!   record at least one failover, and the injected-kill ledger matches
//!   the fault plan exactly.
//! * **Clean re-absorption** — after the last respawn the router
//!   reports every node up, and a final full round routes traffic to
//!   *every* node (the restarted nodes win their ring slices back).
//!
//! ```text
//! shard-bench [--nodes N] [--requests N] [--clients C] [--kills K]
//!             [--seed S] [--out FILE]
//! ```
//!
//! The run is recorded to `BENCH_shard.json`. A failed invariant is a
//! panic: CI treats any non-zero exit as a sharding regression.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use dram_obs::{Better, Record};
use dram_server::client::{self, Reply};
use dram_server::{route_serve, serve, RetryPolicy, RouterConfig, ServerConfig};
use dram_units::cli::{exit_usage, in_range, Flags};
use dram_units::json::{obj, Value};

const OUT_FILE: &str = "BENCH_shard.json";

/// Distinct device descriptions in the affinity workload. Each is the
/// reference device under a unique name, so every one is a distinct
/// content key (a distinct cache entry) with identical evaluation cost.
const DESCRIPTIONS: usize = 24;

/// How many times the affinity workload requests each description.
/// Ring routing misses once per description; random routing misses
/// once per `(description, node)` first touch — the measured gap.
const ROUNDS: usize = 4;

struct Args {
    nodes: usize,
    requests: usize,
    clients: usize,
    kills: u64,
    seed: u64,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        nodes: 3,
        requests: 180,
        clients: 3,
        kills: 3,
        seed: 42,
        out: OUT_FILE.to_string(),
    };
    let mut flags = Flags::from_env();
    while let Some(a) = flags.next_arg() {
        match a.as_str() {
            "--nodes" => {
                let v = flags.value("--nodes")?;
                args.nodes =
                    in_range(&v, 2..=8).ok_or_else(|| format!("bad node count `{v}` (2..=8)"))?;
            }
            "--requests" => {
                let v = flags.value("--requests")?;
                args.requests = in_range(&v, 60..)
                    .ok_or_else(|| format!("bad request count `{v}` (minimum 60)"))?;
            }
            "--clients" => args.clients = flags.number("--clients", "client count", 1..)?,
            "--kills" => args.kills = flags.number("--kills", "kill budget", 1..)?,
            "--seed" => args.seed = flags.number("--seed", "seed", ..)?,
            "--out" => args.out = flags.value("--out")?,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

const USAGE: &str = "usage: shard-bench [--nodes N] [--requests N] [--clients C] [--kills K] \
                     [--seed S] [--out FILE]";

/// Drives one logical request to completion under `policy`: transport
/// failures, truncations and 5xx all retry with backoff (honoring
/// `Retry-After` hints); a spent budget is a *lost request* and panics
/// — exactly the invariant this bench exists to check. Returns the
/// terminal reply and how many attempts it took.
fn request_with_retry(
    addr: SocketAddr,
    path: &str,
    body: &str,
    policy: RetryPolicy,
    seed: u64,
) -> (Reply, u32) {
    let mut schedule = policy.schedule(seed);
    loop {
        let attempt = schedule.attempt();
        let method = if body.is_empty() { "GET" } else { "POST" };
        let (hint, failure) = match client::fetch(addr, method, path, body.as_bytes()) {
            Ok(r) if r.status() < 500 => return (r, attempt),
            Ok(r) => (
                r.head.retry_after(),
                format!("status {} ({:.80})", r.status(), r.text()),
            ),
            Err(e) => (None, e.to_string()),
        };
        match schedule.next_delay(hint) {
            Some(delay) => std::thread::sleep(delay),
            None => {
                panic!("lost request: {path} still failing after {attempt} attempts: {failure}")
            }
        }
    }
}

// ---------------------------------------------------------------------
// Child process pool
// ---------------------------------------------------------------------

/// One `dram-serve` child. Dropping it SIGKILLs and reaps the process,
/// so a panicking invariant never leaks children past the bench.
struct NodeProc {
    port: u16,
    child: Child,
}

impl NodeProc {
    fn addr(&self) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], self.port))
    }
}

impl Drop for NodeProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The sibling `dram-serve` binary: shard-bench proves the *real*
/// multi-process deployment, not an in-process stand-in.
fn serve_binary() -> PathBuf {
    let mut path = std::env::current_exe().expect("current_exe");
    path.pop();
    if path.ends_with("deps") {
        path.pop();
    }
    path.push("dram-serve");
    assert!(
        path.exists(),
        "dram-serve not found at {} — build the workspace first",
        path.display()
    );
    path
}

/// Spawns one child on `port` (0 = ephemeral) and scrapes the bound
/// port from its startup banner.
fn spawn_node(bin: &Path, port: u16) -> Result<NodeProc, String> {
    let mut child = Command::new(bin)
        .args([
            "--addr",
            &format!("127.0.0.1:{port}"),
            "--log",
            "off",
            "--journal",
            "0",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn dram-serve: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut banner = String::new();
    if BufReader::new(stdout).read_line(&mut banner).is_err() || banner.is_empty() {
        let _ = child.kill();
        let _ = child.wait();
        return Err(format!("no startup banner (wanted port {port})"));
    }
    let bound = banner
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|addr| addr.rsplit(':').next())
        .and_then(|p| p.parse().ok());
    match bound {
        Some(p) => Ok(NodeProc { port: p, child }),
        None => {
            let _ = child.kill();
            let _ = child.wait();
            Err(format!("unparseable banner: {banner:?}"))
        }
    }
}

/// Respawns a killed node on its original port, retrying through the
/// window where the kernel still holds the old socket.
fn respawn_node(bin: &Path, port: u16) -> NodeProc {
    for _ in 0..50 {
        if let Ok(node) = spawn_node(bin, port) {
            assert_eq!(node.port, port, "respawn moved ports");
            return node;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    panic!("could not respawn dram-serve on port {port} within 5s");
}

fn wait_healthy(addr: SocketAddr, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if matches!(client::fetch(addr, "GET", "/healthz", b""), Ok(r) if r.status() == 200) {
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("{what} at {addr} did not become healthy within 10s");
}

fn spawn_pool(bin: &Path, n: usize) -> Vec<NodeProc> {
    let pool: Vec<NodeProc> = (0..n)
        .map(|_| spawn_node(bin, 0).expect("spawn pool node"))
        .collect();
    for node in &pool {
        wait_healthy(node.addr(), "pool node");
    }
    pool
}

// ---------------------------------------------------------------------
// Workload and canon
// ---------------------------------------------------------------------

/// One request of the workload with its canonical (single-node) body.
struct WorkItem {
    path: &'static str,
    body: String,
    canon: String,
}

/// The reference device under a unique name: a distinct content key per
/// `i`, identical evaluation cost across the set.
fn description_body(i: usize) -> String {
    let mut desc = dram_core::reference::ddr3_1g_x16_55nm();
    desc.name = format!("shard variant {i}");
    let text = dram_dsl::write(&desc, None);
    obj(vec![("description", text.as_str().into())]).to_string()
}

/// Captures canonical bodies for every item from a pristine in-process
/// server — the single-node truth every routed response must match
/// byte for byte.
fn capture_canon(items: &mut [WorkItem]) {
    let handle = serve("127.0.0.1:0", ServerConfig::default()).expect("bind canon server");
    let addr = handle.local_addr();
    for item in items.iter_mut() {
        let r =
            client::fetch(addr, "POST", item.path, item.body.as_bytes()).expect("canon exchange");
        assert_eq!(r.status(), 200, "canon {} failed: {}", item.path, r.text());
        item.canon = r.text().into_owned();
    }
    assert_eq!(
        handle.shutdown(),
        items.len() as u64,
        "canon server drain mismatch"
    );
}

/// Drives the affinity workload — `ROUNDS` interleaved passes over the
/// description set — asserting every reply is a byte-identical 200.
/// Returns retries spent (expected 0 against a healthy pool).
fn drive_affinity(addr: SocketAddr, items: &[WorkItem], policy: RetryPolicy, seed: u64) -> u64 {
    let mut retries = 0u64;
    for round in 0..ROUNDS {
        for (i, item) in items.iter().enumerate() {
            let (r, attempts) = request_with_retry(
                addr,
                item.path,
                &item.body,
                policy,
                seed ^ (((round as u64) << 32) | i as u64),
            );
            assert_eq!(r.status(), 200, "affinity request failed: {}", r.text());
            assert_eq!(r.text(), item.canon, "description {i} diverged from canon");
            retries += u64::from(attempts - 1);
        }
    }
    retries
}

// ---------------------------------------------------------------------
// Router metrics
// ---------------------------------------------------------------------

fn router_metrics(addr: SocketAddr) -> Value {
    let r = client::fetch(addr, "GET", "/metrics", b"").expect("router metrics");
    assert_eq!(r.status(), 200, "router metrics: {}", r.text());
    Value::parse(&r.text()).expect("metrics JSON")
}

fn metric(doc: &Value, name: &str) -> f64 {
    doc.get(name)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("metric `{name}` missing"))
}

/// Scrapes the federated metrics until no backend is marked stale, so
/// cache aggregates reflect every node.
fn settled_metrics(addr: SocketAddr) -> Value {
    for _ in 0..20 {
        let doc = router_metrics(addr);
        let fresh = doc
            .get("nodes")
            .and_then(Value::as_array)
            .is_some_and(|nodes| {
                nodes
                    .iter()
                    .all(|n| n.get("stale").and_then(Value::as_bool) == Some(false))
            });
        if fresh {
            return doc;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    panic!("backend metrics scrapes never settled (a node stayed stale)");
}

/// Per-node `routed` counters keyed by backend address.
fn routed_by_node(doc: &Value) -> HashMap<String, f64> {
    doc.get("nodes")
        .and_then(Value::as_array)
        .expect("nodes array")
        .iter()
        .map(|n| {
            (
                n.get("addr")
                    .and_then(Value::as_str)
                    .expect("addr")
                    .to_string(),
                n.get("routed").and_then(Value::as_f64).expect("routed"),
            )
        })
        .collect()
}

// ---------------------------------------------------------------------
// Kill scheduler
// ---------------------------------------------------------------------

/// Draws the seeded `node.kill` site once per tick while the load runs;
/// each fire SIGKILLs the next victim round-robin, lets the dead window
/// bite, then respawns the node on its original port and waits for it
/// to answer health checks again.
fn kill_scheduler(
    pool: &mut [NodeProc],
    bin: &Path,
    budget: u64,
    kills: &AtomicU64,
    load_done: &AtomicBool,
) {
    let mut victim = 0usize;
    while !load_done.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_millis(150));
        if kills.load(Ordering::Relaxed) >= budget {
            continue;
        }
        let Some(injection) = dram_faults::trip("node.kill") else {
            continue;
        };
        assert!(
            matches!(injection.kind, dram_faults::Kind::Kill),
            "node.kill drew a non-kill injection"
        );
        let node = &mut pool[victim % pool.len()];
        victim += 1;
        let port = node.port;
        node.child.kill().expect("SIGKILL node");
        let _ = node.child.wait();
        let n = kills.fetch_add(1, Ordering::Relaxed) + 1;
        println!("  SIGKILL 127.0.0.1:{port} (kill {n}/{budget})");
        // Let the slice fail over under live load before resurrection.
        std::thread::sleep(Duration::from_millis(350));
        *node = respawn_node(bin, port);
        wait_healthy(node.addr(), "respawned node");
        println!("  respawned 127.0.0.1:{port}");
    }
}

/// What one load client observed.
#[derive(Default)]
struct ClientTally {
    requests: u64,
    retries: u64,
    worst_attempts: u32,
}

/// Closed-loop client for the kill stage: cycles the mixed workload
/// (offset per client so keys interleave), retries through node
/// deaths, and asserts byte-identity on every success.
fn shard_client(
    addr: SocketAddr,
    items: &[WorkItem],
    count: usize,
    policy: RetryPolicy,
    client: usize,
    seed: u64,
) -> ClientTally {
    let mut tally = ClientTally::default();
    for i in 0..count {
        let item = &items[(client * 17 + i) % items.len()];
        let (r, attempts) = request_with_retry(
            addr,
            item.path,
            &item.body,
            policy,
            seed ^ (((client as u64) << 48) | ((i as u64) << 8)),
        );
        assert_eq!(r.status(), 200, "kill-stage request failed: {}", r.text());
        assert_eq!(
            r.text(),
            item.canon,
            "routed response diverged from single-node canon under faults"
        );
        tally.requests += 1;
        tally.retries += u64::from(attempts - 1);
        tally.worst_attempts = tally.worst_attempts.max(attempts);
    }
    tally
}

// ---------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------

#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
fn main() {
    let args = parse_args().unwrap_or_else(|msg| exit_usage(&msg, USAGE));
    let bin = serve_binary();
    let policy = RetryPolicy {
        max_attempts: 6,
        ..RetryPolicy::default()
    };

    // Stage 0: the single-node canon every routed body must match.
    let mut affinity_items: Vec<WorkItem> = (0..DESCRIPTIONS)
        .map(|i| WorkItem {
            path: "/v1/evaluate",
            body: description_body(i),
            canon: String::new(),
        })
        .collect();
    let mut preset_items: Vec<WorkItem> = dram_server::presets::NAMES
        .iter()
        .map(|name| WorkItem {
            path: "/v1/evaluate",
            body: format!("{{\"preset\":\"{name}\"}}"),
            canon: String::new(),
        })
        .collect();
    capture_canon(&mut affinity_items);
    capture_canon(&mut preset_items);
    println!(
        "canon captured: {} descriptions + {} presets from a single-node server",
        affinity_items.len(),
        preset_items.len()
    );

    // Stage 1: ring pool + router; measure cache affinity.
    let mut pool = spawn_pool(&bin, args.nodes);
    let node_addrs: Vec<String> = pool.iter().map(|n| n.addr().to_string()).collect();
    let router = route_serve(
        "127.0.0.1:0",
        RouterConfig {
            nodes: node_addrs.clone(),
            probe_interval: Duration::from_millis(100),
            retry_seed: args.seed,
            ..RouterConfig::default()
        },
    )
    .expect("bind ring router");
    let ring_addr = router.local_addr();
    println!(
        "pool up: {} dram-serve children ({}) behind ring router {ring_addr}",
        pool.len(),
        node_addrs.join(", ")
    );

    let affinity_retries = drive_affinity(ring_addr, &affinity_items, policy, args.seed);
    let doc = settled_metrics(ring_addr);
    let ring_hits = metric(&doc, "backend_cache_hits_aggregate");
    let ring_misses = metric(&doc, "backend_cache_misses_aggregate");
    // Consistent placement: every description is owned by exactly one
    // node, so the pool builds each model exactly once.
    assert_eq!(
        ring_misses as u64, DESCRIPTIONS as u64,
        "ring routing must miss exactly once per description"
    );
    assert_eq!(
        ring_hits as u64,
        ((ROUNDS - 1) * DESCRIPTIONS) as u64,
        "ring routing must hit every repeat round"
    );
    let ring_rate = ring_hits / (ring_hits + ring_misses);
    println!(
        "ring affinity: {ring_hits} hits / {ring_misses} misses (rate {ring_rate:.3}), \
         {affinity_retries} retries"
    );

    // Stage 2: seeded node murder under live load.
    let spec = format!(
        "seed={};node.kill=kill:p=0.85:times={}",
        args.seed, args.kills
    );
    let plan = dram_faults::Plan::parse(&spec).expect("fault spec");
    dram_faults::arm(&plan);
    println!("armed: {}", plan.render());

    let mut all_items = affinity_items;
    all_items.extend(preset_items);
    let per_client = args.requests.div_ceil(args.clients);
    let kills = AtomicU64::new(0);
    let load_done = AtomicBool::new(false);
    let started = Instant::now();
    let (tallies, mut extra) = std::thread::scope(|s| {
        let scheduler = {
            let (pool, bin, kills, load_done) = (&mut pool, &bin, &kills, &load_done);
            s.spawn(move || kill_scheduler(pool, bin, args.kills, kills, load_done))
        };
        let items = &all_items;
        let handles: Vec<_> = (0..args.clients)
            .map(|client| {
                s.spawn(move || {
                    shard_client(ring_addr, items, per_client, policy, client, args.seed)
                })
            })
            .collect();
        let tallies: Vec<ClientTally> = handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect();
        // The kill draw is seeded but the load's wall-clock isn't: if
        // the fixed request count finished before the budget was spent,
        // keep the load open until every kill lands (the schedule stays
        // the plan's), so each node death happens under live traffic.
        let mut extra = ClientTally::default();
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut i = 0usize;
        while kills.load(Ordering::Relaxed) < args.kills && Instant::now() < deadline {
            let item = &all_items[i % all_items.len()];
            let (r, attempts) = request_with_retry(
                ring_addr,
                item.path,
                &item.body,
                policy,
                args.seed ^ i as u64,
            );
            assert_eq!(r.status(), 200, "hold-open request failed: {}", r.text());
            assert_eq!(
                r.text(),
                item.canon,
                "hold-open response diverged from canon"
            );
            extra.requests += 1;
            extra.retries += u64::from(attempts - 1);
            extra.worst_attempts = extra.worst_attempts.max(attempts);
            i += 1;
        }
        load_done.store(true, Ordering::Relaxed);
        scheduler.join().expect("kill scheduler");
        (tallies, extra)
    });
    let total_s = started.elapsed().as_secs_f64();
    for t in tallies {
        extra.requests += t.requests;
        extra.retries += t.retries;
        extra.worst_attempts = extra.worst_attempts.max(t.worst_attempts);
    }
    let ClientTally {
        requests: driven,
        retries: client_retries,
        worst_attempts,
    } = extra;
    let kills = kills.load(Ordering::Relaxed);
    assert!(
        kills >= 1,
        "no node was killed; the failover stage proved nothing"
    );
    let fired: HashMap<&str, u64> = dram_faults::injected().into_iter().collect();
    assert_eq!(
        fired.get("node.kill").copied().unwrap_or(0),
        kills,
        "kill ledger disagrees with the fault plan"
    );
    dram_faults::disarm();
    println!(
        "kill stage: {driven} requests in {total_s:.2}s through {kills} SIGKILLs, \
         {client_retries} client retries (worst request took {worst_attempts} attempts), 0 lost"
    );

    // Stage 3: failover observability + clean re-absorption.
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let r = client::fetch(ring_addr, "GET", "/healthz", b"").expect("router healthz");
        let doc = Value::parse(&r.text()).expect("healthz JSON");
        if metric(&doc, "nodes_up") as usize == args.nodes {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "pool never re-absorbed: {}",
            r.text()
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let doc = router_metrics(ring_addr);
    let failovers = metric(&doc, "failovers_total");
    let router_retries = metric(&doc, "retries_total");
    assert!(
        failovers >= 1.0,
        "kills fired but the router recorded no failover"
    );

    let before = routed_by_node(&doc);
    let mut reabsorb_retries = 0u64;
    for (i, item) in all_items.iter().enumerate() {
        let (r, attempts) = request_with_retry(
            ring_addr,
            item.path,
            &item.body,
            policy,
            args.seed ^ ((i as u64) << 16),
        );
        assert_eq!(
            r.status(),
            200,
            "re-absorption request failed: {}",
            r.text()
        );
        assert_eq!(
            r.text(),
            item.canon,
            "re-absorption response diverged from canon"
        );
        reabsorb_retries += u64::from(attempts - 1);
    }
    let after = routed_by_node(&router_metrics(ring_addr));
    for (addr, count) in &after {
        let prior = before.get(addr).copied().unwrap_or(0.0);
        assert!(
            *count > prior,
            "node {addr} won no traffic back after recovery ({prior} -> {count})"
        );
    }
    println!(
        "re-absorption: all {} nodes up and routed again ({failovers} failovers, \
         {router_retries} router retries on record)",
        args.nodes
    );
    let ring_proxied = router.shutdown();
    drop(pool);

    // Stage 4: the same affinity workload through seeded random routing
    // on a fresh pool — the baseline the ring must beat.
    let mut affinity_items = all_items;
    affinity_items.truncate(DESCRIPTIONS);
    let random_pool = spawn_pool(&bin, args.nodes);
    let random_router = route_serve(
        "127.0.0.1:0",
        RouterConfig {
            nodes: random_pool.iter().map(|n| n.addr().to_string()).collect(),
            probe_interval: Duration::from_millis(100),
            retry_seed: args.seed,
            random_routing: true,
            ..RouterConfig::default()
        },
    )
    .expect("bind random router");
    let random_retries = drive_affinity(
        random_router.local_addr(),
        &affinity_items,
        policy,
        args.seed,
    );
    let doc = settled_metrics(random_router.local_addr());
    let random_hits = metric(&doc, "backend_cache_hits_aggregate");
    let random_misses = metric(&doc, "backend_cache_misses_aggregate");
    let random_rate = random_hits / (random_hits + random_misses);
    random_router.shutdown();
    drop(random_pool);
    assert!(
        random_misses > ring_misses,
        "random routing should scatter first touches across nodes \
         (ring {ring_misses} vs random {random_misses} misses)"
    );
    assert!(
        ring_rate > random_rate + 0.1,
        "content-key routing must clearly beat random placement \
         (ring {ring_rate:.3} vs random {random_rate:.3})"
    );
    println!(
        "random baseline: {random_hits} hits / {random_misses} misses (rate {random_rate:.3}, \
         {random_retries} retries) — ring wins by {:+.3}",
        ring_rate - random_rate
    );

    let kill_stage = Record::new("kill_stage", "s", Better::Lower, &[total_s]);
    let values = vec![
        ("seed", args.seed.into()),
        ("plan", plan.render().into()),
        ("nodes", args.nodes.into()),
        ("clients", args.clients.into()),
        ("descriptions", DESCRIPTIONS.into()),
        ("rounds", ROUNDS.into()),
        ("kill_stage_requests", driven.into()),
        ("kills", kills.into()),
        ("client_retries", client_retries.into()),
        ("worst_attempts", u64::from(worst_attempts).into()),
        ("lost_requests", 0u64.into()),
        ("failovers", failovers.into()),
        ("router_retries", router_retries.into()),
        ("reabsorb_retries", reabsorb_retries.into()),
        ("ring_proxied_total", ring_proxied.into()),
        ("ring_cache_hits", ring_hits.into()),
        ("ring_cache_misses", ring_misses.into()),
        ("ring_hit_rate", ring_rate.into()),
        ("random_cache_hits", random_hits.into()),
        ("random_cache_misses", random_misses.into()),
        ("random_hit_rate", random_rate.into()),
        ("affinity_gain", (ring_rate - random_rate).into()),
        ("byte_identical", true.into()),
        ("reabsorbed", true.into()),
        ("invariants_hold", true.into()),
    ];
    dram_obs::write_bench(&args.out, "shard", &[kill_stage], values).expect("write bench file");
    println!("wrote {}", args.out);
}
