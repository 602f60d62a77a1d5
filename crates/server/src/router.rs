//! `dram-route` — a fault-tolerant shard router in front of a pool of
//! `dram-serve` nodes.
//!
//! The router answers its clients on `dram-serve`'s own front end — the
//! same reactor, worker pool, HTTP/1.1 reads, keep-alive and shutdown
//! drain — as one more service, with one worker per pooled upstream
//! connection: a worker keeps its upstream connection for the whole
//! proxied request. For each request it derives the
//! **content key** (the request's model description through
//! [`content_key`](dram_core::batch::content_key) — exactly the digest
//! `ModelCache` buckets by) and forwards it to the node that owns that
//! key on a consistent-hash [`Ring`]. A given device description
//! therefore always lands on the same node, whose engine cache stays
//! hot on a disjoint slice of the device space; membership changes move
//! only the slices that touch the changed node (see `docs/SHARDING.md`).
//!
//! Fault tolerance, end to end:
//!
//! * **Health.** An active prober hits every node's `/healthz` on a
//!   configurable interval; [`RouterConfig::down_after`] consecutive
//!   failures mark a node down and its ring slice falls through to the
//!   next distinct node clockwise. Forwarding failures count against
//!   the same threshold (passive detection), and any success — probe or
//!   proxied response — marks the node up again, re-absorbing its slice.
//!   A node that goes down has the attempts still waiting on it for a
//!   response head cut, so a stalled node's requests fail over at once
//!   instead of holding their workers until `io_timeout`.
//! * **Retries.** Retryable failures (connect refused, a `503` whose
//!   `Retry-After` is honored, a timeout before any response head byte)
//!   are retried against the next ring successor under the shared
//!   [`RetryPolicy`] — the same backoff/jitter/hint rules
//!   `examples/server_client.rs` proved. Once a single response byte
//!   has been relayed the request is *not* retryable: a mid-body
//!   upstream death poisons the client connection (`connection: close`
//!   semantics, exactly like a handler failure on `dram-serve`).
//! * **Hedging.** Optionally, when the owner has not produced a
//!   response head within [`RouterConfig::hedge_after`], a second
//!   attempt fires to the next ring successor and the first head wins.
//! * **Observability.** `/healthz` and `/metrics` are served by the
//!   router itself; `/metrics` federates the pool — per-node health,
//!   ring ownership, retry/hedge/failover counters, and each backend's
//!   own scrape aggregated under a bounded per-node timeout so one hung
//!   node can never stall the router's exporter (last-known values are
//!   served instead, marked stale). Each series is declared once, in
//!   `View::SERIES`, `NodeView::SERIES` and `SCRAPED`, and both
//!   formats are rendered from those lists.
//!
//! `GET /debug/*` is proxied but stays loopback-gated *at the router*:
//! the hop to the backend is made from the router's own (loopback)
//! address, so without the router-side gate any remote client would
//! inherit loopback trust — the gate therefore applies to the client's
//! peer address before forwarding, answering non-loopback peers the
//! same detail-free 404 the backend would.
//!
//! The upstream side — forwarded requests, health probes, `/metrics`
//! scrapes — speaks through [`crate::client`], so upstream responses are
//! framed by the same strict field rules as the requests the router
//! accepts.

use std::collections::HashMap;
use std::hash::Hasher as _;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use dram_core::batch::StableHasher;
use dram_obs::journal::{self, EventKind};
use dram_obs::{json_members, Counter, Kind, PromWriter, Series};
use dram_units::json::{obj, Value};

use crate::client::{ClientError, Conn, Head};
use crate::http::{self, Inbound, Limits, Request, Response};
use crate::retry::RetryPolicy;
use crate::ring::{Ring, DEFAULT_REPLICAS};
use crate::server::{self, Exchange, ServerConfig, ServerHandle, Service, Verdict};
use crate::trace::{LogLevel, Logger};

/// Idle upstream keep-alive connections retained per node.
const POOL_PER_NODE: usize = 8;

/// Connect timeout for one upstream attempt (reads/writes then run
/// under [`Limits::io_timeout`]).
const CONNECT_TIMEOUT: Duration = Duration::from_millis(1_000);

/// How long shutdown lets proxied requests wait on their upstreams
/// before it cuts them, so a stalled node cannot hold the drain.
const UPSTREAM_GRACE: Duration = Duration::from_secs(1);

/// Configuration for [`route_serve`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Backend `dram-serve` addresses (`host:port`). Ring order is the
    /// list order; two routers given the same list build the same ring.
    pub nodes: Vec<String>,
    /// Virtual points per node on the ring (bounded by
    /// [`crate::ring::MAX_REPLICAS`]).
    pub replicas: usize,
    /// Active `/healthz` probe interval.
    pub probe_interval: Duration,
    /// Consecutive failures (probe or forward) before a node is down.
    pub down_after: u32,
    /// Retry envelope for upstream attempts.
    pub retry: RetryPolicy,
    /// Seed for the per-request retry jitter streams.
    pub retry_seed: u64,
    /// Fire a hedged attempt to the next ring successor when the first
    /// has produced no response head after this long. `None` disables.
    pub hedge_after: Option<Duration>,
    /// Route by seeded uniform choice instead of the ring — the
    /// cache-affinity *baseline* `shard-bench` measures against. Never
    /// what you want in production.
    pub random_routing: bool,
    /// Per-node budget for federating backend `/metrics` scrapes.
    pub scrape_timeout: Duration,
    /// HTTP limits for the client-facing side (and upstream I/O
    /// timeouts).
    pub limits: Limits,
    /// Structured stderr log level.
    pub log: LogLevel,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            nodes: Vec::new(),
            replicas: DEFAULT_REPLICAS,
            probe_interval: Duration::from_millis(500),
            down_after: 2,
            retry: RetryPolicy::default(),
            retry_seed: 0,
            hedge_after: None,
            random_routing: false,
            scrape_timeout: Duration::from_millis(250),
            limits: Limits::default(),
            log: LogLevel::Error,
        }
    }
}

/// One backend node's runtime state.
struct Node {
    addr: String,
    sockaddr: SocketAddr,
    /// Routable right now? Starts `true`; the prober and forwarding
    /// outcomes keep it honest.
    up: AtomicBool,
    /// Consecutive probe/forward failures (reset by any success).
    failures: AtomicU32,
    /// Requests forwarded to this node.
    routed: Counter,
    /// Up→down transitions observed.
    went_down: Counter,
    /// Idle keep-alive upstream connections.
    pool: Mutex<Vec<Link>>,
    /// Attempts waiting on this node for a response head: each one's
    /// cut handle, keyed by its fd (unique while it is open).
    /// [`Node::disconnect`] cuts them.
    waiting: Mutex<HashMap<RawFd, Arc<TcpStream>>>,
}

impl Node {
    /// A success (probe or forwarded response): reset failures, and
    /// re-absorb the node if it was down.
    fn mark_up(&self, shared: &Shared) {
        self.failures.store(0, Ordering::Relaxed);
        if !self.up.swap(true, Ordering::Relaxed) {
            if let Some(line) = shared.log.line(LogLevel::Info, "node_up") {
                line.field("node", &self.addr).emit();
            }
        }
    }

    /// A failure: count it, and past the threshold take the node out of
    /// rotation (its ring slice falls through to successors).
    fn mark_failure(&self, shared: &Shared) {
        let failures = self.failures.fetch_add(1, Ordering::Relaxed) + 1;
        if failures >= shared.config.down_after && self.up.swap(false, Ordering::Relaxed) {
            self.went_down.inc();
            self.disconnect();
            if let Some(line) = shared.log.line(LogLevel::Info, "node_down") {
                line.field("node", &self.addr)
                    .field("failures", failures)
                    .emit();
            }
        }
    }

    /// Drops the idle pool and cuts every attempt still waiting on this
    /// node for a response head; called once `up` is false, so a node
    /// that is down holds no worker. A cut attempt fails before a byte
    /// reached its client, and fails over like any transport failure.
    fn disconnect(&self) {
        self.pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        let waiting = self.waiting.lock().unwrap_or_else(PoisonError::into_inner);
        for socket in waiting.values() {
            let _ = socket.shutdown(Shutdown::Both);
        }
    }

    /// Registers an attempt about to wait on `link` until the guard
    /// drops. Refused once the node is down — checked under the lock
    /// [`Node::disconnect`] cuts under, so every attempt is either
    /// refused or cut.
    fn wait_on(&self, link: &Link) -> std::io::Result<InFlight<'_>> {
        let key = link.cut.as_raw_fd();
        let mut waiting = self.waiting.lock().unwrap_or_else(PoisonError::into_inner);
        if !self.up.load(Ordering::Relaxed) {
            return Err(std::io::ErrorKind::ConnectionAborted.into());
        }
        waiting.insert(key, Arc::clone(&link.cut));
        Ok(InFlight { node: self, key })
    }
}

/// An upstream connection, and the duplicate of its socket that
/// [`Node::disconnect`] cuts it through: made once, when the connection
/// opens, and pooled with it.
struct Link {
    conn: Conn,
    cut: Arc<TcpStream>,
}

impl Link {
    fn new(stream: TcpStream) -> std::io::Result<Self> {
        let cut = Arc::new(stream.try_clone()?);
        Ok(Self {
            conn: Conn::new(stream),
            cut,
        })
    }
}

/// An attempt registered by [`Node::wait_on`]; deregisters on drop.
struct InFlight<'a> {
    node: &'a Node,
    key: RawFd,
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        let waiting = &self.node.waiting;
        let mut waiting = waiting.lock().unwrap_or_else(PoisonError::into_inner);
        waiting.remove(&self.key);
    }
}

/// Router-side counters: inline relaxed atomics, one add per
/// increment site. `/metrics` reads them through `View::SERIES`.
#[derive(Default)]
struct RouterMetrics {
    /// Client requests handled (locally answered + proxied).
    requests: Counter,
    /// Requests answered by a backend through the proxy path.
    proxied: Counter,
    /// Upstream attempts beyond the first, per the retry policy.
    retries: Counter,
    /// Attempts served by a node other than the key's ring owner —
    /// down-node skips at routing time plus mid-request switches.
    failovers: Counter,
    /// Hedged (second, racing) attempts fired.
    hedges: Counter,
    /// Hedges whose response won the race.
    hedge_wins: Counter,
    /// Requests answered 502 because no node could produce a response.
    bad_gateway: Counter,
    /// Client connections poisoned by a mid-body upstream failure.
    poisoned: Counter,
    /// Backend scrapes that missed their timeout and served last-known
    /// (stale) values instead.
    stale_scrapes: Counter,
}

/// A backend's last successful `/metrics` scrape.
#[derive(Clone, Default)]
struct Scrape {
    requests_total: f64,
    cache_hits: f64,
    cache_misses: f64,
    /// Whether the *latest* scrape attempt failed and these values are
    /// from an earlier one.
    stale: bool,
}

/// State shared by the front end's workers (through [`Proxy`]) and the
/// prober.
struct Shared {
    config: RouterConfig,
    nodes: Vec<Node>,
    ring: Ring,
    metrics: RouterMetrics,
    log: Logger,
    started: Instant,
    /// Per-request seed stream for retry jitter and random routing.
    seeds: AtomicU64,
    /// Last-known backend scrapes, by node index.
    scrapes: Mutex<HashMap<usize, Scrape>>,
}

impl Shared {
    fn up_view(&self) -> Vec<bool> {
        self.nodes
            .iter()
            .map(|n| n.up.load(Ordering::Relaxed))
            .collect()
    }

    fn next_seed(&self) -> u64 {
        self.config
            .retry_seed
            .wrapping_add(self.seeds.fetch_add(1, Ordering::Relaxed))
    }
}

/// A running router. Dropping the handle does *not* stop it; call
/// [`RouterHandle::shutdown`].
pub struct RouterHandle {
    server: ServerHandle,
    shared: Arc<Shared>,
    prober: thread::JoinHandle<()>,
    /// Sends the prober, as shutdown starts, when to cut what still
    /// waits on upstreams; hangs up once the front end has drained.
    stop: mpsc::Sender<Instant>,
}

impl RouterHandle {
    /// The bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Stops the prober and runs the front end's drain (see
    /// [`ServerHandle::shutdown`]): stop accepting, serve what is in
    /// flight, close quiet keep-alive connections. A request still
    /// waiting on its upstream after a one-second grace is cut and
    /// answered 502, so a stalled node cannot hold the drain. Returns
    /// how many requests were proxied to backends over the router's
    /// lifetime.
    pub fn shutdown(self) -> u64 {
        let _ = self.stop.send(Instant::now() + UPSTREAM_GRACE);
        self.server.shutdown();
        drop(self.stop);
        let _ = self.prober.join();
        self.shared.metrics.proxied.get()
    }
}

/// Binds `addr` and starts the router described by `config` on the
/// server's front end: its limits and log level, one worker per pooled
/// upstream connection (eight per node), and otherwise
/// [`ServerConfig::default`].
///
/// # Errors
///
/// Binding failures, an empty node list, and node addresses that do not
/// resolve are all reported as `io::Error` before any thread starts.
pub fn route_serve(addr: &str, config: RouterConfig) -> std::io::Result<RouterHandle> {
    if config.nodes.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "router needs at least one --node",
        ));
    }
    let mut nodes = Vec::with_capacity(config.nodes.len());
    for addr in &config.nodes {
        let sockaddr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("node `{addr}` does not resolve"),
            )
        })?;
        nodes.push(Node {
            addr: addr.clone(),
            sockaddr,
            up: AtomicBool::new(true),
            failures: AtomicU32::new(0),
            routed: Counter::new(),
            went_down: Counter::new(),
            pool: Mutex::new(Vec::new()),
            waiting: Mutex::new(HashMap::new()),
        });
    }
    // A worker keeps its upstream connection for the whole proxied
    // request, so this many requests can wait on upstreams before a
    // client waits for a worker.
    let front = ServerConfig {
        threads: nodes.len() * POOL_PER_NODE,
        limits: config.limits,
        log: config.log,
        ..ServerConfig::default()
    };
    let shared = Arc::new(Shared {
        log: Logger::new(config.log),
        ring: Ring::new(&config.nodes, config.replicas),
        nodes,
        metrics: RouterMetrics::default(),
        started: Instant::now(),
        seeds: AtomicU64::new(0),
        scrapes: Mutex::new(HashMap::new()),
        config,
    });
    let server = server::start(addr, front, Box::new(Proxy(Arc::clone(&shared))))?;
    let (stop, stopping) = mpsc::channel();
    let prober = {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("route-prober".into())
            .spawn(move || prober_loop(&shared, &stopping))
            .expect("spawn prober")
    };
    Ok(RouterHandle {
        server,
        shared,
        prober,
        stop,
    })
}

/// Active health probing: `GET /healthz` per node per interval, until
/// shutdown. While the front end then drains, whatever still waits on
/// an upstream at the moment shutdown sent is cut, by taking every node
/// down.
fn prober_loop(shared: &Shared, stopping: &mpsc::Receiver<Instant>) {
    let cut_at = loop {
        for node in &shared.nodes {
            if probe(node, shared.config.probe_interval.min(CONNECT_TIMEOUT)) {
                node.mark_up(shared);
            } else {
                node.mark_failure(shared);
            }
        }
        match stopping.recv_timeout(shared.config.probe_interval) {
            Ok(cut_at) => break cut_at,
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            // The handle was dropped: the router runs on, and so do
            // probes.
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                thread::sleep(shared.config.probe_interval);
            }
        }
    };
    let grace = cut_at.saturating_duration_since(Instant::now());
    if let Err(mpsc::RecvTimeoutError::Timeout) = stopping.recv_timeout(grace) {
        for node in &shared.nodes {
            node.up.store(false, Ordering::Relaxed);
            node.disconnect();
        }
    }
}

fn probe(node: &Node, timeout: Duration) -> bool {
    let timeout = timeout.max(Duration::from_millis(50));
    let Ok(mut conn) = Conn::connect(node.sockaddr, timeout) else {
        return false;
    };
    conn.write_all(b"GET /healthz HTTP/1.1\r\nhost: dram-route\r\nconnection: close\r\n\r\n")
        .is_ok()
        && conn.read_response().is_ok_and(|reply| reply.status() == 200)
}

/// The router's [`Service`]: `/healthz`, `/metrics` and the `/debug`
/// gate are answered here, and everything else is proxied to the owner
/// of its key.
struct Proxy(Arc<Shared>);

impl Service for Proxy {
    fn answer(&self, inbound: Inbound, ex: &mut Exchange<'_>) -> Verdict {
        let shared = &self.0;
        // The router forwards bodies with a content-length (simplest
        // correct re-framing), so a chunked body is buffered up to
        // max_body here. Huge streamed traces should hit a node directly.
        let Some((request, leftover)) = ex.buffer(inbound) else {
            return Verdict::Close;
        };
        shared.metrics.requests.inc();
        let local = if request.method == "GET" && request.path == "/healthz" {
            healthz(shared)
        } else if request.method == "GET" && request.path == "/metrics" {
            federated_metrics(shared, &request)
        } else if request.path.starts_with("/debug") && !ex.peer.ip().is_loopback() {
            // The debug family is loopback-gated *here*, against the
            // client's peer — the backend only ever sees the router's own
            // loopback address, so forwarding an ungated request would
            // grant every remote client loopback trust.
            Response::error(404, "not found")
        } else {
            return proxy(shared, &request, leftover, ex);
        };
        answer_local(shared, ex, &request, local, leftover)
    }
}

/// Sends a router-origin response under the front end's request id,
/// counting 502s. Like every response, a 4xx or 5xx closes its
/// connection.
fn answer_local(
    shared: &Shared,
    ex: &mut Exchange<'_>,
    request: &Request,
    response: Response,
    leftover: Vec<u8>,
) -> Verdict {
    if response.status == 502 {
        shared.metrics.bad_gateway.inc();
    }
    let keep = ex.keep_decision(request, response.status);
    ex.send(response, keep, leftover).unwrap_or(Verdict::Close)
}

fn healthz(shared: &Arc<Shared>) -> Response {
    let up = shared.up_view().iter().filter(|u| **u).count();
    Response::json(
        200,
        obj(vec![
            ("status", if up > 0 { "ok" } else { "degraded" }.into()),
            ("nodes", (shared.nodes.len() as f64).into()),
            ("nodes_up", (up as f64).into()),
        ])
        .to_string(),
    )
}

// ---------------------------------------------------------------------
// Routing and forwarding
// ---------------------------------------------------------------------

/// The routing key for a request: the model-description content key
/// when the body carries one (the cache-affinity contract), otherwise a
/// stable digest of the request line and body so keyless routes still
/// spread deterministically.
fn routing_key(request: &Request) -> u64 {
    if !request.body.is_empty() {
        if let Ok(doc) = Value::parse(&String::from_utf8_lossy(&request.body)) {
            if let Ok(device) = crate::api::resolve(&doc) {
                return device.key();
            }
        }
    }
    let mut h = StableHasher::new();
    h.write(request.method.as_bytes());
    h.write(request.path.as_bytes());
    h.write(request.query.as_bytes());
    h.write(&request.body);
    // FNV of request lines that differ only in their last bytes
    // (`?i=1`, `?i=2`, …) lands on one narrow arc of the ring; the
    // finalizer spreads them, as it does for the ring's own points.
    dram_units::rng::SplitMix64::new(h.finish()).next_u64()
}

/// What one upstream attempt produced before any relay decision: the
/// final response head, with its body still on the connection.
struct Upstream {
    node: usize,
    link: Link,
    head: Head,
}

/// A retryable attempt failure.
enum AttemptError {
    /// Connect refused / send failed / timeout or EOF before a complete
    /// response head: the backend never committed to this request.
    Transport,
    /// Upstream said 503; its body was drained and the hint extracted.
    Busy { hint: Option<Duration> },
}

/// Forwards `request`, retrying and hedging per config, and relays the
/// winning response to the client.
fn proxy(
    shared: &Arc<Shared>,
    request: &Request,
    leftover: Vec<u8>,
    ex: &mut Exchange<'_>,
) -> Verdict {
    let key = routing_key(request);
    let mut schedule = shared.config.retry.schedule(shared.next_seed());
    let mut order = candidate_order(shared, key);
    loop {
        let up_view = shared.up_view();
        // First up candidate; skips are failovers (the owner lost its
        // slice for this request).
        let Some(position) = order.iter().position(|&n| up_view[n]) else {
            // Nobody alive: 502, closing the connection (5xx poisons).
            let response = Response::error(502, "no upstream node is available");
            return answer_local(shared, ex, request, response, leftover);
        };
        if position > 0 {
            shared.metrics.failovers.add(position as u64);
        }
        let target = order[position];
        let backup = order
            .iter()
            .skip(position + 1)
            .copied()
            .find(|&n| up_view[n]);
        let bytes = upstream_request_bytes(request, &shared.nodes[target].addr, ex.peer);

        let outcome = attempt_racing(shared, target, backup, &bytes);
        match outcome {
            Ok(upstream) => {
                shared.nodes[upstream.node].mark_up(shared);
                shared.nodes[upstream.node].routed.inc();
                journal::note(EventKind::Response, u64::from(upstream.head.status));
                return relay(shared, upstream, request, leftover, ex);
            }
            Err(AttemptError::Transport) => {
                shared.nodes[target].mark_failure(shared);
                match schedule.next_delay(None) {
                    Some(wait) => {
                        shared.metrics.retries.inc();
                        thread::sleep(wait);
                        // Rotate the failed node to the back so the next
                        // attempt goes to the successor (a failover).
                        order.rotate_left(position + 1);
                        shared.metrics.failovers.inc();
                    }
                    None => {
                        let response = Response::error(502, "upstream attempts exhausted");
                        return answer_local(shared, ex, request, response, leftover);
                    }
                }
            }
            Err(AttemptError::Busy { hint }) => {
                // The node answered — it is up, just shedding.
                shared.nodes[target].mark_up(shared);
                match schedule.next_delay(hint) {
                    Some(wait) => {
                        shared.metrics.retries.inc();
                        thread::sleep(wait);
                        order.rotate_left(position + 1);
                        shared.metrics.failovers.inc();
                    }
                    None => {
                        let retry_after = hint.map_or(1, |d| d.as_secs().max(1));
                        let response = Response::error(503, "every upstream attempt was shed")
                            .with_header("retry-after", &retry_after.to_string());
                        return answer_local(shared, ex, request, response, leftover);
                    }
                }
            }
        }
    }
}

/// The nodes to try for `key`, in order: ring successor order, or a
/// seeded shuffle in the random-routing baseline.
fn candidate_order(shared: &Arc<Shared>, key: u64) -> Vec<usize> {
    if !shared.config.random_routing {
        return shared.ring.successors(key);
    }
    let mut order: Vec<usize> = (0..shared.nodes.len()).collect();
    let mut rng = dram_units::rng::SplitMix64::new(shared.next_seed() ^ key);
    // Fisher–Yates with the workspace RNG: deterministic per seed.
    for i in (1..order.len()).rev() {
        let j = rng.range_usize(i + 1);
        order.swap(i, j);
    }
    order
}

/// Serializes `request` for the upstream hop: identical method, target
/// and body; hop-by-hop headers rewritten (`connection: keep-alive`,
/// re-framed `content-length`), `x-forwarded-for` appended.
fn upstream_request_bytes(request: &Request, node_addr: &str, peer: SocketAddr) -> Vec<u8> {
    let target = if request.query.is_empty() {
        request.path.clone()
    } else {
        format!("{}?{}", request.path, request.query)
    };
    let forwarded_for = peer.ip().to_string();
    let mut headers: Vec<(&str, &str)> = request
        .headers
        .iter()
        // Hop-by-hop or re-framed below.
        .filter(|(name, _)| {
            !matches!(
                name.as_str(),
                "connection"
                    | "content-length"
                    | "transfer-encoding"
                    | "expect"
                    | "host"
                    | "x-forwarded-for"
            )
        })
        .map(|(name, value)| (name.as_str(), value.as_str()))
        .collect();
    headers.push(("host", node_addr));
    headers.push(("x-forwarded-for", &forwarded_for));
    headers.push(("connection", "keep-alive"));
    crate::client::request(&request.method, &target, &headers, &request.body)
}

/// Runs one attempt, optionally racing a hedged second attempt against
/// the next ring successor when the first produces no head in time.
fn attempt_racing(
    shared: &Arc<Shared>,
    target: usize,
    backup: Option<usize>,
    bytes: &[u8],
) -> Result<Upstream, AttemptError> {
    let (Some(hedge_after), Some(backup)) = (shared.config.hedge_after, backup) else {
        return attempt(shared, target, bytes);
    };
    let (tx, rx) = mpsc::channel();
    let spawn_attempt = |node: usize| {
        let shared = Arc::clone(shared);
        let bytes = bytes.to_vec();
        let tx = tx.clone();
        thread::spawn(move || {
            let _ = tx.send((node, attempt(&shared, node, &bytes)));
        });
    };
    spawn_attempt(target);
    let first = match rx.recv_timeout(hedge_after) {
        Ok(result) => Some(result),
        Err(mpsc::RecvTimeoutError::Timeout) => None,
        Err(mpsc::RecvTimeoutError::Disconnected) => return Err(AttemptError::Transport),
    };
    let Some((_, outcome)) = first else {
        // The owner is slow: hedge to the successor, first head wins.
        shared.metrics.hedges.inc();
        spawn_attempt(backup);
        let mut last_err = AttemptError::Transport;
        for _ in 0..2 {
            match rx.recv_timeout(CONNECT_TIMEOUT + shared.config.limits.io_timeout) {
                Ok((node, Ok(upstream))) => {
                    if node == backup {
                        shared.metrics.hedge_wins.inc();
                    }
                    return Ok(upstream);
                }
                Ok((_, Err(e))) => last_err = e,
                Err(_) => break,
            }
        }
        return Err(last_err);
    };
    outcome
}

/// One upstream attempt: pooled connection first (with a transparent
/// one-shot fresh-connect retry when the pooled connection turns out
/// to be stale), then a fresh connect.
fn attempt(shared: &Arc<Shared>, target: usize, bytes: &[u8]) -> Result<Upstream, AttemptError> {
    let node = &shared.nodes[target];
    let pooled = node
        .pool
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .pop();
    if let Some(link) = pooled {
        // A pooled connection may have been closed by the backend (idle
        // sweep, max-requests budget) after we checked it out; that is
        // not a node failure, so fall through to a fresh connect.
        if let Ok(upstream) = exchange(node, target, link, bytes) {
            return finish_attempt(shared, upstream);
        }
    }
    let link =
        connect(node, shared.config.limits.io_timeout).map_err(|_| AttemptError::Transport)?;
    let upstream = exchange(node, target, link, bytes).map_err(|_| AttemptError::Transport)?;
    finish_attempt(shared, upstream)
}

/// A fresh upstream connection: connected within [`CONNECT_TIMEOUT`],
/// then read and written under `io_timeout` for as long as it is pooled.
fn connect(node: &Node, io_timeout: Duration) -> std::io::Result<Link> {
    let stream = TcpStream::connect_timeout(&node.sockaddr, CONNECT_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(io_timeout))?;
    stream.set_write_timeout(Some(io_timeout))?;
    Link::new(stream)
}

/// Post-exchange classification: 503 is drained, pooled and surfaced
/// as retryable-with-hint; anything else is the caller's response.
fn finish_attempt(shared: &Arc<Shared>, mut upstream: Upstream) -> Result<Upstream, AttemptError> {
    if upstream.head.status != 503 {
        return Ok(upstream);
    }
    let hint = upstream.head.retry_after();
    // Drain the 503 body so the connection can go back to the pool.
    if upstream
        .link
        .conn
        .read_body(upstream.head.content_length)
        .is_ok()
    {
        release(shared, upstream);
    }
    Err(AttemptError::Busy { hint })
}

/// Writes the request and reads the final response head; body bytes
/// read with it stay in the connection. Any failure before that point
/// is one `Err`, making the caller's retry decision trivial. Until the
/// head is in, [`Node::disconnect`] can cut the wait.
fn exchange(
    node: &Node,
    index: usize,
    mut link: Link,
    bytes: &[u8],
) -> Result<Upstream, ClientError> {
    let _in_flight = node.wait_on(&link)?;
    link.conn.write_all(bytes)?;
    // The router never forwards `expect`, so an interim head is
    // unsolicited; it has no body, and the final head follows it.
    let head = loop {
        let head = link.conn.read_head()?;
        if head.status >= 200 {
            break head;
        }
    };
    Ok(Upstream {
        node: index,
        link,
        head,
    })
}

/// Relays the upstream response to the client. The decision point is
/// *before* the first relayed byte: once the head is on the wire the
/// request is unretryable, and a mid-body upstream failure poisons the
/// client connection (truncated body + close — never a spliced second
/// response).
fn relay(
    shared: &Arc<Shared>,
    mut upstream: Upstream,
    request: &Request,
    leftover: Vec<u8>,
    ex: &mut Exchange<'_>,
) -> Verdict {
    // The front end's keep-alive rule: failures poison their own
    // connection.
    let keep_client = ex.keep_decision(request, upstream.head.status);
    let (first, mut remaining) = first_write(&mut upstream, keep_client);
    let io_timeout = shared.config.limits.io_timeout;
    if http::write_within(ex.stream, &first, io_timeout).is_err() {
        // The *client* went away; the upstream connection is still
        // healthy but may hold an unread body — drop it rather than
        // desync the pool.
        return Verdict::Close;
    }

    // Relay the rest of the body as it arrives.
    while remaining > 0 {
        let Ok(part) = upstream.link.conn.read_body_part(remaining) else {
            // Upstream died mid-body after bytes were relayed: the one
            // unretryable failure. Poison the client connection.
            shared.metrics.poisoned.inc();
            shared.nodes[upstream.node].mark_failure(shared);
            if let Some(line) = shared.log.line(LogLevel::Error, "poisoned") {
                line.field("node", &shared.nodes[upstream.node].addr)
                    .field("missing_bytes", remaining)
                    .emit();
            }
            return Verdict::Close;
        };
        if http::write_within(ex.stream, part, io_timeout).is_err() {
            return Verdict::Close;
        }
        remaining -= part.len();
    }
    shared.metrics.proxied.inc();
    release(shared, upstream);
    if keep_client {
        Verdict::Keep(leftover)
    } else {
        Verdict::Close
    }
}

/// The first write of a relayed reply, and the body bytes still on the
/// upstream socket after it. The write is the upstream head as the
/// client gets it — the first `connection` field carries the client's
/// disposition, later ones go, and one is appended if the upstream sent
/// none — followed by the body bytes already read with that head. It
/// reads nothing more: a reply whose body arrived with its head leaves
/// in one write, and the rest of a longer one streams after it.
fn first_write(upstream: &mut Upstream, keep_client: bool) -> (Vec<u8>, usize) {
    let Upstream { link, head, .. } = upstream;
    let held = link.conn.take_buffered(head.content_length);
    let status = head.status;
    let mut out = format!("HTTP/1.1 {status} {}\r\n", Response::reason(status));
    out.reserve(256 + held.len());
    let mut connection = Some(if keep_client { "keep-alive" } else { "close" });
    for (name, value) in &head.headers {
        let value = if name != "connection" {
            value.as_str()
        } else if let Some(disposition) = connection.take() {
            disposition
        } else {
            continue;
        };
        for part in [name.as_str(), ": ", value, "\r\n"] {
            out.push_str(part);
        }
    }
    if let Some(disposition) = connection {
        for part in ["connection: ", disposition, "\r\n"] {
            out.push_str(part);
        }
    }
    out.push_str("\r\n");
    let mut out = out.into_bytes();
    out.extend_from_slice(held);
    (out, head.content_length - held.len())
}

/// Returns a fully read upstream connection to its node's idle pool
/// when the node keeps it open. One that holds bytes past the response
/// is dropped: nothing asked for them, so nothing after them can be
/// trusted.
fn release(shared: &Arc<Shared>, upstream: Upstream) {
    if !upstream.head.keep_alive() || !upstream.link.conn.buffered().is_empty() {
        return;
    }
    let mut pool = shared.nodes[upstream.node]
        .pool
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if pool.len() < POOL_PER_NODE {
        pool.push(upstream.link);
    }
}

// ---------------------------------------------------------------------
// Federated metrics
// ---------------------------------------------------------------------

/// Scrapes every backend's `/metrics?format=json` under the per-node
/// timeout, updating the last-known cache. A node that misses the
/// budget serves its previous values marked stale — one hung backend
/// can never stall the router's own exporter.
fn scrape_backends(shared: &Arc<Shared>) -> Vec<Option<Scrape>> {
    let timeout = shared.config.scrape_timeout.max(Duration::from_millis(10));
    let (tx, rx) = mpsc::channel();
    for (index, node) in shared.nodes.iter().enumerate() {
        let tx = tx.clone();
        let sockaddr = node.sockaddr;
        let _ = thread::Builder::new()
            .name(format!("route-scrape-{index}"))
            .spawn(move || {
                let _ = tx.send((index, scrape_one(sockaddr, timeout)));
            });
    }
    drop(tx);
    let mut fresh: Vec<Option<Scrape>> = (0..shared.nodes.len()).map(|_| None).collect();
    let deadline = Instant::now() + timeout + Duration::from_millis(50);
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(left) {
            Ok((index, scrape)) => {
                fresh[index] = scrape;
                if fresh.iter().all(Option::is_some) {
                    break;
                }
            }
            Err(_) => break, // budget spent; stragglers serve stale
        }
    }
    let mut cache = shared.scrapes.lock().unwrap_or_else(PoisonError::into_inner);
    (0..shared.nodes.len())
        .map(|index| match fresh[index].take() {
            Some(scrape) => {
                cache.insert(index, scrape.clone());
                Some(scrape)
            }
            None => {
                shared.metrics.stale_scrapes.inc();
                cache.get_mut(&index).map(|last| {
                    last.stale = true;
                    last.clone()
                })
            }
        })
        .collect()
}

/// One backend scrape: bounded connect + read, JSON `/metrics` parse.
fn scrape_one(sockaddr: SocketAddr, timeout: Duration) -> Option<Scrape> {
    let mut conn = Conn::connect(sockaddr, timeout).ok()?;
    conn.write_all(
        b"GET /metrics?format=json HTTP/1.1\r\nhost: dram-route\r\nconnection: close\r\n\r\n",
    )
    .ok()?;
    let reply = conn.read_response().ok()?;
    let doc = Value::parse(&reply.text()).ok()?;
    let engine = doc.get("engine")?;
    Some(Scrape {
        requests_total: doc.get("requests_total").and_then(Value::as_f64)?,
        cache_hits: engine.get("cache_hits").and_then(Value::as_f64)?,
        cache_misses: engine.get("cache_misses").and_then(Value::as_f64)?,
        stale: false,
    })
}

/// `GET /metrics` on the router: own counters, per-node health and ring
/// ownership, plus the federated backend scrape. `?format=prometheus`
/// (or `Accept: text/plain`) for text exposition, JSON otherwise.
fn federated_metrics(shared: &Arc<Shared>, request: &Request) -> Response {
    crate::metrics::respond(request, |prometheus| {
        let scrapes = scrape_backends(shared);
        let ownership = shared.ring.ownership();
        let nodes = shared.nodes.iter().zip(ownership).zip(scrapes);
        let nodes = nodes
            .map(|((node, ring_points), scrape)| NodeView {
                node,
                ring_points,
                scrape,
            })
            .collect();
        let view = View { shared, nodes };
        if prometheus {
            view.to_prometheus()
        } else {
            view.to_json().to_string()
        }
    })
}

/// One `/metrics` render of the router: its own state plus every node
/// with the scrape gathered for this render.
struct View<'a> {
    shared: &'a Shared,
    nodes: Vec<NodeView<'a>>,
}

/// One node as a render sees it.
struct NodeView<'a> {
    node: &'a Node,
    ring_points: usize,
    scrape: Option<Scrape>,
}

/// Sums one scraped value over every node that has a scrape.
fn aggregate(view: &View<'_>, value: fn(&Scrape) -> f64) -> f64 {
    let scrapes = view.nodes.iter().filter_map(|n| n.scrape.as_ref());
    scrapes.fold(0.0, |sum, s| sum + value(s))
}

#[allow(clippy::cast_precision_loss)]
impl<'a> View<'a> {
    /// The router-level series, in JSON document order (`nodes` follows).
    const SERIES: [Series<Self>; 12] = [
        Series {
            name: "dram_route_requests_total",
            key: "requests_total",
            help: "Client requests handled by the router.",
            kind: Kind::Counter(|v| v.shared.metrics.requests.get() as f64),
        },
        Series {
            name: "dram_route_proxied_total",
            key: "proxied_total",
            help: "Requests answered by a backend through the proxy path.",
            kind: Kind::Counter(|v| v.shared.metrics.proxied.get() as f64),
        },
        Series {
            name: "dram_route_retries_total",
            key: "retries_total",
            help: "Upstream attempts beyond the first, per the retry policy.",
            kind: Kind::Counter(|v| v.shared.metrics.retries.get() as f64),
        },
        Series {
            name: "dram_route_failovers_total",
            key: "failovers_total",
            help: "Requests (or attempts) served off their ring owner.",
            kind: Kind::Counter(|v| v.shared.metrics.failovers.get() as f64),
        },
        Series {
            name: "dram_route_hedges_total",
            key: "hedges_total",
            help: "Hedged second attempts fired after the latency threshold.",
            kind: Kind::Counter(|v| v.shared.metrics.hedges.get() as f64),
        },
        Series {
            name: "dram_route_hedge_wins_total",
            key: "hedge_wins_total",
            help: "Hedged attempts whose response won the race.",
            kind: Kind::Counter(|v| v.shared.metrics.hedge_wins.get() as f64),
        },
        Series {
            name: "dram_route_bad_gateway_total",
            key: "bad_gateway_total",
            help: "Requests answered 502 with no backend response.",
            kind: Kind::Counter(|v| v.shared.metrics.bad_gateway.get() as f64),
        },
        Series {
            name: "dram_route_poisoned_total",
            key: "poisoned_total",
            help: "Client connections poisoned by a mid-body upstream failure.",
            kind: Kind::Counter(|v| v.shared.metrics.poisoned.get() as f64),
        },
        Series {
            name: "dram_route_stale_scrapes_total",
            key: "stale_scrapes_total",
            help: "Backend scrapes that missed the budget and served stale values.",
            kind: Kind::Counter(|v| v.shared.metrics.stale_scrapes.get() as f64),
        },
        Series {
            name: "dram_route_uptime_seconds",
            key: "uptime_seconds",
            help: "Seconds since the router started.",
            kind: Kind::Gauge(|v| v.shared.started.elapsed().as_secs_f64()),
        },
        Series {
            name: "dram_route_backend_cache_hits_aggregate",
            key: "backend_cache_hits_aggregate",
            help: "Engine cache hits summed over every reachable backend.",
            kind: Kind::Gauge(|v| aggregate(v, |s| s.cache_hits)),
        },
        Series {
            name: "dram_route_backend_cache_misses_aggregate",
            key: "backend_cache_misses_aggregate",
            help: "Engine cache misses summed over every reachable backend.",
            kind: Kind::Gauge(|v| aggregate(v, |s| s.cache_misses)),
        },
    ];

    /// The JSON document: `View::SERIES`, then one `nodes[]` object per
    /// node — its address, `NodeView::SERIES`, and `SCRAPED` when
    /// it has a scrape.
    fn to_json(&self) -> Value {
        let nodes = self
            .nodes
            .iter()
            .map(|n| {
                let mut fields = vec![("addr".to_string(), n.node.addr.as_str().into())];
                fields.extend(json_members(&NodeView::SERIES, n));
                if let Some(scrape) = &n.scrape {
                    fields.extend(json_members(&SCRAPED, scrape));
                }
                Value::Obj(fields)
            })
            .collect();
        let mut doc = json_members(&Self::SERIES, self);
        doc.push(("nodes".to_string(), Value::Arr(nodes)));
        Value::Obj(doc)
    }

    /// The same series in Prometheus text exposition, the per-node ones
    /// labelled `node="<addr>"`.
    fn to_prometheus(&self) -> String {
        let mut w = PromWriter::new();
        w.series(&Self::SERIES, self);
        let rows = self.nodes.iter().map(|n| (n.node.addr.as_str(), n));
        w.rows(&NodeView::SERIES, "node", rows.clone());
        let scraped = rows.filter_map(|(addr, n)| Some((addr, n.scrape.as_ref()?)));
        w.rows(&SCRAPED, "node", scraped);
        w.finish()
    }
}

#[allow(clippy::cast_precision_loss)]
impl NodeView<'_> {
    /// The per-node series every node reports.
    const SERIES: [Series<Self>; 5] = [
        Series {
            name: "dram_route_node_up",
            key: "up",
            help: "Node liveness (1 up, 0 down).",
            kind: Kind::Flag(|n| n.node.up.load(Ordering::Relaxed)),
        },
        Series {
            name: "dram_route_ring_points",
            key: "ring_points",
            help: "Virtual points this node owns on the consistent-hash ring.",
            kind: Kind::Gauge(|n| n.ring_points as f64),
        },
        Series {
            name: "dram_route_node_routed_total",
            key: "routed",
            help: "Requests forwarded to this node.",
            kind: Kind::Counter(|n| n.node.routed.get() as f64),
        },
        Series {
            name: "dram_route_node_down_transitions_total",
            key: "down_transitions",
            help: "Times this node was marked down.",
            kind: Kind::Counter(|n| n.node.went_down.get() as f64),
        },
        Series {
            name: "dram_route_backend_stale",
            key: "stale",
            help: "Whether this backend's values are last-known (scrape missed).",
            kind: Kind::Flag(|n| n.scrape.as_ref().is_none_or(|s| s.stale)),
        },
    ];
}

/// The per-node series read from a backend's scrape; a node that has
/// never been scraped has none of them.
static SCRAPED: [Series<Scrape>; 3] = [
    Series {
        name: "dram_route_backend_requests_total",
        key: "requests_total",
        help: "requests_total scraped from this backend (stale=1 if last scrape missed).",
        kind: Kind::Counter(|s| s.requests_total),
    },
    Series {
        name: "dram_route_backend_cache_hits_total",
        key: "cache_hits",
        help: "Engine cache hits scraped from this backend.",
        kind: Kind::Counter(|s| s.cache_hits),
    },
    Series {
        name: "dram_route_backend_cache_misses_total",
        key: "cache_misses",
        help: "Engine cache misses scraped from this backend.",
        kind: Kind::Counter(|s| s.cache_misses),
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Keyless requests whose lines differ in one query byte spread over
    /// every node of the ring, not one node's arc.
    #[test]
    fn keyless_routing_keys_spread_over_every_node() {
        for base in [7000, 41000, 45835] {
            let nodes: Vec<String> = (0..3).map(|i| format!("127.0.0.1:{}", base + i)).collect();
            let ring = Ring::new(&nodes, DEFAULT_REPLICAS);
            let mut routed = [0usize; 3];
            for i in 1..=40 {
                let request = Request {
                    method: "GET".into(),
                    path: "/v1/presets".into(),
                    query: format!("i={i}"),
                    headers: HashMap::new(),
                    body: Vec::new(),
                    http11: true,
                };
                routed[ring.successors(routing_key(&request))[0]] += 1;
            }
            assert!(routed.iter().all(|&n| n >= 5), "base {base}: {routed:?}");
        }
    }

    /// A named preset routes on its table key, and that key is the
    /// content key of its description: shard placement, the backend cache
    /// and perfbench's ring-owner oracle all agree on it.
    #[test]
    fn preset_routing_key_is_the_table_key_and_the_content_key() {
        for name in crate::presets::NAMES {
            let key = crate::presets::get(name).expect("listed preset").key();
            let desc = crate::presets::by_name(name).expect("listed preset");
            assert_eq!(key, dram_core::content_key(&desc), "{name}");
            let request = Request {
                method: "POST".into(),
                path: "/v1/evaluate".into(),
                query: String::new(),
                headers: HashMap::new(),
                body: obj(vec![("preset", name.into())]).to_string().into_bytes(),
                http11: true,
            };
            assert_eq!(routing_key(&request), key, "{name}");
        }
    }

    /// The bytes a relay hands the client socket first. A reply whose
    /// body arrived with its head is one buffer: the upstream response
    /// with its `connection` field carrying the client's disposition, and
    /// nothing left on the upstream socket. A reply with part of its body
    /// still to come sends what arrived and owes the rest; a head without
    /// a `connection` field gets one last.
    #[test]
    fn a_reply_read_with_its_head_is_one_buffer() {
        use std::io::Read as _;
        use std::net::TcpListener;

        const HEAD: &str = "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n\
                            content-length: 11\r\nconnection: keep-alive\r\n\
                            x-request-id: 24\r\n\r\n";
        const BODY: &str = "{\"ok\":true}";
        let bare = HEAD.replace("connection: keep-alive\r\n", "");
        // (upstream bytes, bytes the upstream has sent when its head is
        // read, keep the client, the first write, body bytes owed)
        let whole = format!("{HEAD}{BODY}");
        let cases = [
            (whole.clone(), whole.len(), true, whole.clone(), 0),
            (
                whole.clone(),
                whole.len(),
                false,
                whole.replace("keep-alive", "close"),
                0,
            ),
            (
                whole.clone(),
                HEAD.len() + 4,
                true,
                whole[..HEAD.len() + 4].to_string(),
                7,
            ),
            (
                format!("{bare}{BODY}"),
                bare.len() + 11,
                true,
                {
                    let fields = bare.trim_end_matches("\r\n");
                    format!("{fields}\r\nconnection: keep-alive\r\n\r\n{BODY}")
                },
                0,
            ),
        ];
        for (wire, sent, keep_client, want, owed) in cases {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind upstream");
            let addr = listener.local_addr().expect("addr");
            let upstream = std::thread::spawn(move || {
                let (mut peer, _) = listener.accept().expect("accept");
                peer.write_all(&wire.as_bytes()[..sent]).expect("send");
                (peer, wire)
            });
            let mut link = Link::new(TcpStream::connect(addr).expect("connect")).expect("link");
            // Every byte the upstream sends is on the socket before the
            // relay reads the head.
            let (mut peer, wire) = upstream.join().expect("upstream");
            let head = link.conn.read_head().expect("head");
            let mut upstream = Upstream {
                node: 0,
                link,
                head,
            };
            let (first, remaining) = first_write(&mut upstream, keep_client);
            assert_eq!(String::from_utf8(first).expect("UTF-8"), want);
            assert_eq!(remaining, owed);
            assert!(upstream.link.conn.buffered().is_empty());
            // What is owed is still on the upstream socket.
            let (rest, conn) = (&wire.as_bytes()[sent..], &mut upstream.link.conn);
            peer.write_all(rest).expect("send the rest");
            drop(peer);
            let mut relayed = Vec::new();
            conn.read_to_end(&mut relayed).expect("read the rest");
            assert_eq!(relayed, rest);
        }
    }

    /// Each JSON value of the router's `/metrics` equals its Prometheus
    /// sample. One state: every counter distinct, one node serving its
    /// last-known scrape marked stale, one node never scraped and down.
    #[test]
    fn json_and_prometheus_report_the_same_values() {
        use crate::metrics_shape::{prom_samples, Bump};
        use std::collections::BTreeMap;

        // Nothing listens on ports 1 and 2: scrapes of both nodes are
        // refused at once.
        let router = route_serve(
            "127.0.0.1:0",
            RouterConfig {
                nodes: vec!["127.0.0.1:1".to_string(), "127.0.0.1:2".to_string()],
                probe_interval: Duration::from_secs(60),
                ..RouterConfig::default()
            },
        )
        .expect("bind router");
        let shared = Arc::clone(&router.shared);
        let m = &shared.metrics;
        let counters = [
            &m.requests,
            &m.proxied,
            &m.retries,
            &m.failovers,
            &m.hedges,
            &m.hedge_wins,
            &m.bad_gateway,
            &m.poisoned,
            &m.stale_scrapes,
        ];
        for (i, counter) in counters.into_iter().enumerate() {
            counter.bump(11 + i as u64);
        }
        for (i, node) in shared.nodes.iter().enumerate() {
            node.routed.bump(21 + i as u64);
            node.went_down.bump(31 + i as u64);
        }
        shared.nodes[1].up.store(false, Ordering::Relaxed);
        shared.scrapes.lock().expect("scrape cache").insert(
            0,
            Scrape {
                requests_total: 41.0,
                cache_hits: 42.0,
                cache_misses: 43.0,
                stale: false,
            },
        );

        let get = |query: &str| Request {
            method: "GET".into(),
            path: "/metrics".into(),
            query: query.into(),
            headers: HashMap::new(),
            body: Vec::new(),
            http11: true,
        };
        let json = federated_metrics(&shared, &get("format=json"));
        let prom = federated_metrics(&shared, &get("format=prometheus"));
        let doc = Value::parse(&String::from_utf8_lossy(&json.body)).expect("metrics JSON");
        let prom = String::from_utf8(prom.body).expect("UTF-8 exposition");

        let mut want: BTreeMap<String, f64> = BTreeMap::new();
        for (key, value) in doc.as_object().expect("document") {
            match key.as_str() {
                "uptime_seconds" => {}
                "nodes" => {
                    for node in value.as_array().expect("nodes") {
                        let addr = node.get("addr").and_then(Value::as_str).expect("addr");
                        for (field, v) in node.as_object().expect("node") {
                            let family = match field.as_str() {
                                "addr" => continue,
                                "up" => "dram_route_node_up",
                                "ring_points" => "dram_route_ring_points",
                                "routed" => "dram_route_node_routed_total",
                                "down_transitions" => "dram_route_node_down_transitions_total",
                                "stale" => "dram_route_backend_stale",
                                "requests_total" => "dram_route_backend_requests_total",
                                "cache_hits" => "dram_route_backend_cache_hits_total",
                                "cache_misses" => "dram_route_backend_cache_misses_total",
                                other => panic!("unmapped node field `{other}`"),
                            };
                            let v = v
                                .as_f64()
                                .or_else(|| v.as_bool().map(|b| f64::from(u8::from(b))))
                                .expect("scalar");
                            want.insert(format!("{family}{{node=\"{addr}\"}}"), v);
                        }
                    }
                }
                key => {
                    want.insert(format!("dram_route_{key}"), value.as_f64().expect(key));
                }
            }
        }
        // Rendering scrapes, so the Prometheus render counts its own two
        // missed scrapes on top of the JSON one's.
        *want.get_mut("dram_route_stale_scrapes_total").expect("stale scrapes") += 2.0;
        let mut got = prom_samples(&prom);
        got.remove("dram_route_uptime_seconds").expect("uptime gauge");
        assert_eq!(got, want);
        assert_eq!(want.len(), 11 + 5 * 2 + 3, "{want:?}");
        router.shutdown();
    }
}
