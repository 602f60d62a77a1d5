//! The four workloads: set-up, the timed closed loop, the correctness
//! oracle, and the traced run that breaks each one down by layer.
//!
//! Everything runs in this process: `dram-serve` nodes through
//! [`dram_server::serve`], the router through [`dram_server::route_serve`],
//! and at most two client threads with one connection each per address.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::atomic::AtomicUsize;
use std::time::{Duration, Instant};

use dram_core::{content_key, EngineSnapshot, EvalEngine};
use dram_server::ring::DEFAULT_REPLICAS;
use dram_server::{
    route_serve, serve, Ring, RouterConfig, RouterHandle, ServerConfig, ServerHandle,
};
use dram_units::json::Value;

use crate::client::Client;
use crate::inputs::{self, TraceInput};
use crate::layers::{self, Replay, LAYERS};
use crate::load::{self, Plan, Tally};
use crate::report::Metric;
use crate::stats;

/// Worker threads of every `dram-serve` node: the host has two cores.
const SERVER_THREADS: usize = 2;

/// Cold requests generated per second of measurement: half as much
/// again as the rate two connections reach, so the pool outlasts the
/// window. A server fast enough to use it up ends the window early
/// rather than see a description twice.
const COLD_POOL_RATE: u64 = 3_000;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The eight presets by name; every request hits the model cache.
    EvaluateWarm,
    /// Distinct perturbed descriptions; every request misses it.
    EvaluateCold,
    /// Seeded traces streamed as chunked `POST /v1/trace` bodies.
    TraceStream,
    /// The `evaluate_warm` stream through `dram-route` and two nodes.
    RoutedWarm,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::EvaluateWarm,
        Workload::EvaluateCold,
        Workload::TraceStream,
        Workload::RoutedWarm,
    ];

    /// The name `--workload` takes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::EvaluateWarm => "evaluate_warm",
            Workload::EvaluateCold => "evaluate_cold",
            Workload::TraceStream => "trace_stream",
            Workload::RoutedWarm => "routed_warm",
        }
    }

    /// The workload a name denotes.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Client connections: one trace streams at a time, two requests
    /// are in flight otherwise.
    fn clients(self) -> usize {
        if self == Workload::TraceStream {
            1
        } else {
            2
        }
    }

    /// Set-ups per timed run; `setup_s` is their median. Set-up takes a
    /// few ms except for the cold pool, which takes seconds to draw.
    fn setup_reps(self) -> usize {
        if self == Workload::EvaluateCold {
            3
        } else {
            61
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measurement.
    pub seconds: u64,
    /// Run the traced per-layer breakdown instead of the timed run.
    pub trace: bool,
}

/// What a run found.
#[derive(Debug)]
pub struct Outcome {
    /// Every reply matched the library and the oracle found nothing.
    pub correct: bool,
    /// Requests sent while measuring.
    pub attempted: u64,
    /// Requests that failed (a 503 or any non-200, or an I/O error).
    pub failed: u64,
    /// The figures, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines.
    pub notes: Vec<String>,
    /// What the oracle found wrong.
    pub problems: Vec<String>,
}

/// Runs one invocation.
#[must_use]
pub fn run(args: &Args) -> Outcome {
    if args.trace {
        traced(args)
    } else {
        timed(args)
    }
}

/// Everything a workload sends, generated during set-up.
struct Inputs {
    requests: Vec<Vec<u8>>,
    /// The traces behind `requests`, for `trace_stream`.
    traces: Vec<TraceInput>,
    /// Expected reply bodies; `None` for cold, checked after the run.
    expected: Option<Vec<Vec<u8>>>,
    /// Request body bytes the server ingests, per request.
    ingest: Vec<u64>,
    cycle: bool,
    cursor: AtomicUsize,
}

impl Inputs {
    fn generate(args: &Args) -> Self {
        let (requests, traces, expected, cycle) = match args.workload {
            Workload::EvaluateWarm | Workload::RoutedWarm => {
                let requests = inputs::warm(args.seed);
                let expected = requests
                    .iter()
                    .map(|r| inputs::evaluate_body(&inputs::resolve(r)))
                    .collect();
                (requests, Vec::new(), Some(expected), true)
            }
            Workload::EvaluateCold => {
                let count = usize::try_from(args.seconds * COLD_POOL_RATE).expect("pool size");
                (inputs::cold(args.seed, count), Vec::new(), None, false)
            }
            Workload::TraceStream => {
                let traces = inputs::traces(args.seed);
                let requests = traces.iter().map(|t| t.request.clone()).collect();
                let expected = traces
                    .iter()
                    .map(|t| t.expected.to_string().into_bytes())
                    .collect();
                (requests, traces, Some(expected), true)
            }
        };
        let ingest = if traces.is_empty() {
            requests
                .iter()
                .map(|r| inputs::body_of(r).len() as u64)
                .collect()
        } else {
            traces.iter().map(|t| t.text.len() as u64).collect()
        };
        Self {
            requests,
            traces,
            expected,
            ingest,
            cycle,
            cursor: AtomicUsize::new(0),
        }
    }

    fn plan<'a>(&'a self, route: &'a [usize]) -> Plan<'a> {
        Plan {
            requests: &self.requests,
            cycle: self.cycle,
            expected: self.expected.as_deref(),
            route,
            cursor: &self.cursor,
        }
    }
}

/// The servers of one run.
struct Deployment {
    nodes: Vec<ServerHandle>,
    router: Option<RouterHandle>,
}

impl Deployment {
    fn boot(routed: bool) -> Self {
        let config = ServerConfig {
            threads: SERVER_THREADS,
            ..ServerConfig::default()
        };
        let nodes: Vec<ServerHandle> = (0..if routed { 2 } else { 1 })
            .map(|_| serve("127.0.0.1:0", config).expect("bind a loopback port"))
            .collect();
        let router = routed.then(|| {
            let config = RouterConfig {
                nodes: nodes.iter().map(|n| n.local_addr().to_string()).collect(),
                ..RouterConfig::default()
            };
            route_serve("127.0.0.1:0", config).expect("bind a loopback port")
        });
        Self { nodes, router }
    }

    /// Where clients send: the router, or the single node.
    fn entry(&self) -> SocketAddr {
        self.router
            .as_ref()
            .map_or_else(|| self.nodes[0].local_addr(), RouterHandle::local_addr)
    }

    fn node_addrs(&self) -> Vec<SocketAddr> {
        self.nodes.iter().map(ServerHandle::local_addr).collect()
    }

    fn node_names(&self) -> Vec<String> {
        self.nodes
            .iter()
            .map(|n| n.local_addr().to_string())
            .collect()
    }

    fn shutdown(self) {
        if let Some(router) = self.router {
            router.shutdown();
        }
        for node in self.nodes {
            node.shutdown();
        }
    }
}

/// Inputs generated, servers up, caches warm: ready for the first timed
/// request.
fn set_up(args: &Args) -> (Inputs, Deployment) {
    EvalEngine::global().cache().clear();
    let inputs = Inputs::generate(args);
    let deploy = Deployment::boot(args.workload == Workload::RoutedWarm);
    // Cold requests must all miss, so only the other workloads warm up:
    // every distinct request once, which builds every model they name.
    if inputs.cycle {
        let mut client = Client::new(deploy.entry());
        for request in &inputs.requests {
            let reply = client.send(request).expect("warm-up request");
            assert_eq!(reply.status, 200, "warm-up request refused");
        }
    }
    (inputs, deploy)
}

/// Engine and registry counters read around a window.
#[derive(Debug, Clone, Copy)]
struct Counters {
    engine: EngineSnapshot,
    builds: u64,
    parses: u64,
}

impl Counters {
    fn read() -> Self {
        let registry = dram_obs::Registry::global();
        Self {
            engine: EvalEngine::global().snapshot(),
            builds: registry.counter("dram_model_builds_total", "").get(),
            parses: registry.counter("dram_dsl_parses_total", "").get(),
        }
    }
}

/// One load window with the counters around it.
struct Window {
    tally: Tally,
    before: Counters,
    after: Counters,
}

impl Window {
    fn p50_us(&self) -> f64 {
        let lat = self.tally.latencies_us();
        if lat.is_empty() {
            0.0
        } else {
            stats::percentile(&lat, 50.0)
        }
    }

    fn hits_and_misses(&self) -> (u64, u64) {
        (
            self.after.engine.hits - self.before.engine.hits,
            self.after.engine.misses - self.before.engine.misses,
        )
    }
}

fn window(
    workload: Workload,
    inputs: &Inputs,
    addrs: &[SocketAddr],
    route: &[usize],
    length: Duration,
) -> Window {
    let before = Counters::read();
    let tally = load::drive(&inputs.plan(route), addrs, workload.clients(), length);
    Window {
        tally,
        before,
        after: Counters::read(),
    }
}

/// Checks one window's replies and cache activity against what its
/// inputs construct.
fn check(workload: Workload, inputs: &Inputs, w: &Window, problems: &mut Vec<String>) {
    let t = &w.tally;
    if t.mismatched > 0 {
        problems.push(format!(
            "{} replies differ from the library's bytes",
            t.mismatched
        ));
    }
    let wrong = cold_mismatches(&inputs.requests, &t.recorded);
    if wrong > 0 {
        problems.push(format!(
            "{wrong} cold replies differ from the library's bytes"
        ));
    }
    if t.missing_ids > 0 {
        problems.push(format!("{} replies carry no x-request-id", t.missing_ids));
    }
    let (hits, misses) = w.hits_and_misses();
    let want = if workload == Workload::EvaluateCold {
        (0, t.succeeded)
    } else {
        (t.succeeded, 0)
    };
    if (hits, misses) != want {
        problems.push(format!(
            "the engine cache saw {hits} hits and {misses} misses; the inputs construct {} and {}",
            want.0, want.1
        ));
    }
}

/// Cold replies whose body differs from the library's, checked on two
/// threads after the window.
fn cold_mismatches(requests: &[Vec<u8>], recorded: &[(usize, Vec<u8>)]) -> usize {
    let count = |part: &[(usize, Vec<u8>)]| {
        part.iter()
            .filter(|(i, body)| inputs::evaluate_body(&inputs::resolve(&requests[*i])) != *body)
            .count()
    };
    let (low, high) = recorded.split_at(recorded.len() / 2);
    std::thread::scope(|s| {
        let other = s.spawn(|| count(low));
        count(high) + other.join().expect("oracle thread")
    })
}

/// Request ids repeated within one server. `scope[i]` is the server that
/// answered request `i`: ids are unique per server, and the two routed
/// nodes count theirs independently.
fn duplicate_ids(windows: &[&Window], scope: &[usize]) -> usize {
    let mut seen = HashSet::new();
    windows
        .iter()
        .flat_map(|w| &w.tally.ids)
        .filter(|&&(slot, seq)| !seen.insert((scope[slot as usize], seq)))
        .count()
}

/// The ring owner of each request: the node `dram-route` forwards it to.
fn owners(inputs: &Inputs, nodes: &[String]) -> Vec<usize> {
    let ring = Ring::new(nodes, DEFAULT_REPLICAS);
    inputs
        .requests
        .iter()
        .map(|r| ring.successors(content_key(&inputs::resolve(r)))[0])
        .collect()
}

/// The router's retry and failover counters from its `/metrics`.
fn router_counters(addr: SocketAddr) -> (f64, f64) {
    let reply = Client::new(addr)
        .send(b"GET /metrics HTTP/1.1\r\nhost: perfbench\r\nconnection: close\r\n\r\n")
        .expect("router /metrics");
    let text = String::from_utf8(reply.body).expect("UTF-8 metrics");
    let doc = Value::parse(&text).expect("router /metrics is JSON");
    let read = |key| {
        doc.get(key)
            .and_then(Value::as_f64)
            .expect("router /metrics counter")
    };
    (read("retries_total"), read("failovers_total"))
}

/// Throughput, tail latency and ingest rate of a window. They track how
/// much CPU the host lends the process, so they are reported with the
/// layer figures rather than bounded as end-to-end metrics.
#[allow(clippy::cast_precision_loss)]
fn load_figures(inputs: &Inputs, w: &Window) -> [Metric; 3] {
    let t = &w.tally;
    [
        Metric::new("throughput_rps", t.rate(|_| 1.0), "1/s"),
        Metric::new("latency_p99_us", t.tail_p99_us(), "us"),
        Metric::new(
            "trace_mb_per_s",
            t.rate(|s| inputs.ingest[s.slot as usize] as f64 / 1e6),
            "MB/s",
        ),
    ]
}

fn id_scope(args: &Args, inputs: &Inputs, deploy: &Deployment) -> Vec<usize> {
    if args.workload == Workload::RoutedWarm {
        owners(inputs, &deploy.node_names())
    } else {
        vec![0; inputs.requests.len()]
    }
}

fn check_router(deploy: &Deployment, problems: &mut Vec<String>) -> (f64, f64) {
    let Some(router) = &deploy.router else {
        return (0.0, 0.0);
    };
    let (retries, failovers) = router_counters(router.local_addr());
    if retries + failovers > 0.0 {
        problems.push(format!(
            "the router retried {retries} and failed over {failovers} times"
        ));
    }
    (retries, failovers)
}

fn tally_note(name: &str, t: &Tally) -> String {
    format!(
        "{name}: {} attempted, {} succeeded, {} failed ({} refused), {} connections, {:.3} s",
        t.attempted,
        t.succeeded,
        t.failed,
        t.refused,
        t.connects,
        t.elapsed.as_secs_f64()
    )
}

#[allow(clippy::cast_precision_loss)]
fn timed(args: &Args) -> Outcome {
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..args.workload.setup_reps() {
        if let Some((_, deploy)) = prepared.take() {
            Deployment::shutdown(deploy);
        }
        let started = Instant::now();
        prepared = Some(set_up(args));
        setups.push(started.elapsed().as_secs_f64());
    }
    let (inputs, deploy) = prepared.expect("at least one set-up");
    let entry = [deploy.entry()];
    let to_entry = vec![0; inputs.requests.len()];
    let w = window(
        args.workload,
        &inputs,
        &entry,
        &to_entry,
        Duration::from_secs(args.seconds),
    );

    let mut problems = Vec::new();
    check(args.workload, &inputs, &w, &mut problems);
    let duplicates = duplicate_ids(&[&w], &id_scope(args, &inputs, &deploy));
    if duplicates > 0 {
        problems.push(format!("{duplicates} repeated x-request-id values"));
    }
    check_router(&deploy, &mut problems);
    deploy.shutdown();

    let t = &w.tally;
    if t.samples.is_empty() {
        problems.push("no request succeeded".into());
    }
    let p50 = w.p50_us();
    let mut notes = vec![tally_note("timed window", t)];
    if t.exhausted {
        notes.push("the cold pool ran out: the window ended early".into());
    }
    notes.push(format!(
        "latency p50 {p50:.1} us over {} samples ({} beyond p99); peak RSS read after {} replies",
        t.samples.len(),
        stats::beyond(t.samples.len(), 99.0),
        t.samples.len().min(2000)
    ));
    for m in load_figures(&inputs, &w) {
        notes.push(format!("{} {:.3} {} (unbounded)", m.name, m.value, m.unit));
    }
    notes.push(format!(
        "set-ups: {}",
        setups
            .iter()
            .map(|s| format!("{s:.3} s"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    Outcome {
        correct: problems.is_empty(),
        attempted: t.attempted,
        failed: t.failed,
        metrics: vec![
            Metric::new("latency_p50_us", p50, "us"),
            Metric::new("setup_s", stats::median(&setups), "s"),
            Metric::new("peak_rss_mb", t.peak_rss_mb, "MB"),
        ],
        notes,
        problems,
    }
}

#[allow(clippy::cast_precision_loss, clippy::too_many_lines)]
fn traced(args: &Args) -> Outcome {
    let (inputs, deploy) = set_up(args);
    let half = Duration::from_secs_f64((args.seconds as f64 / 2.0).max(1.0));
    let entry = [deploy.entry()];
    let to_entry = vec![0; inputs.requests.len()];
    let plain = window(args.workload, &inputs, &entry, &to_entry, half);
    dram_obs::set_enabled(true);
    let spanned = window(args.workload, &inputs, &entry, &to_entry, half);
    dram_obs::set_enabled(false);
    // The server's own spans; the breakdown records its own below.
    let _ = dram_obs::drain();
    let scope = id_scope(args, &inputs, &deploy);
    let routed = args.workload == Workload::RoutedWarm;
    let direct = routed.then(|| window(args.workload, &inputs, &deploy.node_addrs(), &scope, half));

    let mut problems = Vec::new();
    let mut windows = vec![&plain, &spanned];
    windows.extend(direct.as_ref());
    for w in &windows {
        check(args.workload, &inputs, w, &mut problems);
    }
    let duplicates = duplicate_ids(&windows, &scope);
    if duplicates > 0 {
        problems.push(format!("{duplicates} repeated x-request-id values"));
    }
    let (retries, failovers) = check_router(&deploy, &mut problems);
    let ring = routed.then(|| deploy.node_names());
    deploy.shutdown();

    let cold = args.workload == Workload::EvaluateCold;
    let breakdown = layers::replay(&Replay {
        evaluates: if inputs.traces.is_empty() {
            &inputs.requests
        } else {
            &[]
        },
        cold,
        traces: &inputs.traces,
        ring: ring.as_deref(),
    });

    let e2e = plain.p50_us();
    let traced_p50 = spanned.p50_us();
    let hop = direct.as_ref().map_or(0.0, |d| e2e - d.p50_us());
    let sum = breakdown.handler_sum_us + hop;
    let (hits, misses) = spanned.hits_and_misses();
    let ratio = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };

    let mut metrics: Vec<Metric> = breakdown
        .layers
        .iter()
        .map(|l| Metric::new(l.name, l.value, l.unit))
        .collect();
    metrics.extend([
        Metric::new(
            "dsl.parses",
            (spanned.after.parses - spanned.before.parses) as f64,
            "count",
        ),
        Metric::new("core.cache_hit_ratio", ratio, "ratio"),
        Metric::new(
            "core.builds",
            (spanned.after.builds - spanned.before.builds) as f64,
            "count",
        ),
        Metric::new("router.hop_us", hop, "us"),
        Metric::new("router.retries", retries, "count"),
        Metric::new("router.failovers", failovers, "count"),
        Metric::new("e2e.p50_us", e2e, "us"),
        Metric::new("e2e.traced_p50_us", traced_p50, "us"),
        Metric::new("tracing.overhead_us", traced_p50 - e2e, "us"),
        Metric::new("layers.sum_us", sum, "us"),
        Metric::new("frontend.residual_us", e2e - sum, "us"),
    ]);
    metrics.extend(load_figures(&inputs, &plain));

    let mut notes = vec![
        tally_note("untraced window", &plain.tally),
        tally_note("traced window", &spanned.tally),
    ];
    if let Some(d) = &direct {
        notes.push(tally_note("direct-to-owner window", &d.tally));
    }
    notes.push(format!(
        "{:<34} {:>12} {:<10} {:>7}",
        "layer", "median", "unit", "samples"
    ));
    for l in &breakdown.layers {
        notes.push(format!(
            "{:<34} {:>12.3} {:<10} {:>7}",
            l.name, l.value, l.unit, l.samples
        ));
    }
    notes.push(format!(
        "handler-path layer medians sum to {sum:.1} us against an end-to-end p50 of {e2e:.1} us \
         ({} samples); frontend.residual_us = {:.1}",
        plain.tally.samples.len(),
        e2e - sum
    ));
    if routed {
        notes.push(format!("router hop (routed p50 - direct p50): {hop:.1} us"));
    }
    notes.push(format!(
        "tracing overhead: traced p50 {traced_p50:.1} us - untraced p50 {e2e:.1} us = {:.1} us",
        traced_p50 - e2e
    ));
    debug_assert_eq!(metrics.len(), LAYERS.len() + 14);
    Outcome {
        correct: problems.is_empty(),
        attempted: windows.iter().map(|w| w.tally.attempted).sum(),
        failed: windows.iter().map(|w| w.tally.failed).sum(),
        metrics,
        notes,
        problems,
    }
}
