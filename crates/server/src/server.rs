//! The TCP front end: epoll reactor, bounded worker pool, keep-alive,
//! backpressure, request tracing and graceful shutdown.
//!
//! One front end serves both binaries. It owns the whole connection
//! lifecycle and answers each request it reads through a [`Service`]:
//! `dram-serve`'s API ([`Api`], started by [`serve`]) or `dram-route`'s
//! proxy (`crate::router`). The service gets the parsed request and its
//! [`Exchange`], writes exactly one response and returns the
//! [`Verdict`]; reads, `100 Continue`, protocol-error answers, keep-alive,
//! poisoning, backpressure, request ids and the drain stay here.
//!
//! Architecture: one reactor thread owns a nonblocking listener and a
//! raw `epoll` set ([`crate::reactor`] — no crates, same `extern "C"`
//! approach as `dram-serve`'s signal handling). Each accepted socket is
//! made nonblocking and `TCP_NODELAY` once, for its whole life, and
//! registered once for readable-or-hangup with `EPOLLONESHOT`. A quiet
//! connection is *parked*: armed in the epoll set and kept in a map the
//! reactor and the workers share. The moment one turns readable, its
//! registration disarms itself and the reactor *dispatches* it onto the
//! bounded connection queue. A worker reads and answers requests on it
//! — trying each read and write first, and waiting in `poll(2)` under
//! the usual deadlines only when one would block — until it goes quiet.
//!
//! A worker that then finds the queue empty *holds* its quiet
//! connection instead of parking it, waiting in one `poll` on the
//! connection and on the queue's semaphore. If the connection speaks
//! first, the worker serves it directly: a keep-alive request costs one
//! wake-up, with no reactor or queue hop. If a queued connection comes
//! first, the worker parks the held one with a single `epoll_ctl(MOD)`
//! and takes the queued one. A held connection that stays quiet for the
//! idle timeout is closed by its worker. So a quiet socket costs at most
//! one held slot per worker and otherwise no thread — concurrency is
//! bounded by fds, not by the pool — while a *talking* connection is
//! always owned by exactly one worker, which keeps the HTTP parsing,
//! fault-site, and deadline machinery single-threaded and simple.
//!
//! Keep-alive and pipelining: HTTP/1.1 connections persist by default
//! (`Connection` token lists decide, see
//! [`crate::http::Request::wants_keep_alive`]) subject to the
//! [`ServerConfig::idle_timeout`] and
//! [`ServerConfig::max_requests_per_conn`] budgets. A worker serves
//! pipelined requests back-to-back in arrival order from the carry
//! buffer of over-read bytes; responses are written in the same order
//! on the same thread, so pipeline ordering is structural. Any failed
//! request (4xx, handler panic 500, shed 503) poisons its own
//! connection: the response says `connection: close`, buffered
//! pipelined bytes are discarded, and the socket closes — a desynced
//! parser can never interpret attacker-positioned leftovers as a fresh
//! request.
//!
//! Every connection's first request goes through the reactor and the
//! bounded queue. When the queue is full the reactor answers `503` with
//! `Retry-After` itself — one nonblocking write, so a rejected client
//! costs neither a worker nor, if it stopped reading, a reactor stall.
//!
//! Tracing: every *request* (not connection) gets a [`RequestId`] the
//! moment a worker starts parsing it, echoed back as `x-request-id`,
//! labeling the structured log line and any slow-request sample. The
//! reactor stamps its inline 503s the same way. Queue wait and handling
//! time are measured separately so a slow request can be blamed on load
//! or on work; a request served from a held connection never queued and
//! records no queue wait.
//!
//! Shutdown is cooperative and *draining*: [`ServerHandle::shutdown`]
//! signals a stop eventfd that wakes the reactor and every holding
//! worker. Holders park their connections; the reactor stops accepting,
//! gives parked connections a short grace to flush bytes already in
//! flight (dispatching any that are readable), closes the rest, and
//! exits; workers then finish every dispatched connection before
//! joining. No in-flight request is dropped.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::api::{self, CacheActivity};
use crate::debug::{ConnInfo, ConnState, ConnTable};
use crate::http::{self, Limits, ReadError, Response};
use crate::metrics::{Metrics, RequestRecord, Route};
use crate::reactor::{
    self, Epoll, EpollEvent, EventFd, PollFd, EPOLLIN, EPOLLONESHOT, EPOLLRDHUP, POLLIN, POLLRDHUP,
};
use crate::trace::{LogLevel, Logger, RequestId, RequestIdSource};
use dram_obs::journal::{self, EventKind};

/// Server construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads handling requests.
    pub threads: usize,
    /// Bounded depth of the accepted-connection queue. `0` makes the
    /// server reject every request with 503 — useful for testing
    /// client backpressure handling.
    pub queue_depth: usize,
    /// Load-shedding watermark: when the queue holds at least this many
    /// connections, expensive routes ([`Route::expensive`]) are answered
    /// 503 instead of handled, so cheap traffic keeps flowing while the
    /// backlog clears. `None` disables shedding.
    pub shed_at: Option<usize>,
    /// HTTP parsing limits and socket timeouts.
    pub limits: Limits,
    /// Structured-log verbosity (stderr). [`LogLevel::Off`] by default
    /// so embedding the server in tests stays quiet; `dram-serve`
    /// defaults to [`LogLevel::Info`] via `--log`.
    pub log: LogLevel,
    /// How long a keep-alive connection may stay quiet — parked in the
    /// reactor or held by a worker — before it is closed. The reactor
    /// sweeps with ~100 ms granularity; a holding worker closes on time.
    pub idle_timeout: Duration,
    /// Requests one connection may carry before the server forces
    /// `connection: close` on the final response — bounds how long a
    /// single client can monopolize connection state.
    pub max_requests_per_conn: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            threads: 4,
            queue_depth: 128,
            shed_at: None,
            limits: Limits::default(),
            log: LogLevel::Off,
            idle_timeout: Duration::from_secs(60),
            max_requests_per_conn: 10_000,
        }
    }
}

/// One client connection as it moves between the reactor and the
/// workers.
struct Client {
    stream: TcpStream,
    /// Connection id (accept sequence number): the connection's epoll
    /// token, and the `conn` field of every journal event and
    /// `/debug/reactor` row for this socket.
    conn: u64,
    /// The peer as `accept` reported it: the loopback gate for
    /// `/debug/*` keys on this, never on a header.
    peer: SocketAddr,
    /// Requests already answered on this connection.
    served: u64,
}

/// A connection and when it began its current wait: queued for a
/// worker, or quiet (parked in the reactor or held by a worker).
struct Waiting {
    client: Client,
    since: Instant,
}

/// State shared between the reactor thread, the workers, the supervisor
/// and the handle.
struct Shared {
    /// The reactor's epoll set. Only the reactor waits on it; workers
    /// re-arm the connections they park.
    epoll: Epoll,
    queue: Mutex<VecDeque<Waiting>>,
    /// One count per queued connection (an `EFD_SEMAPHORE` eventfd), so
    /// a worker can wait on the queue and on a held connection in one
    /// `poll`. When the reactor is done it adds [`SHUTDOWN_SURPLUS`].
    available: EventFd,
    /// Quiet connections armed in the epoll set, keyed by connection
    /// id. The reactor takes one out when its event fires; workers put
    /// connections in.
    parked: Mutex<HashMap<u64, Waiting>>,
    /// Workers holding a quiet connection. The shutdown drain waits for
    /// them to park it.
    holding: AtomicUsize,
    /// Written once by shutdown and never read, so it stays readable:
    /// wakes the reactor's `epoll_wait` and every holding worker.
    stop: EventFd,
    shutting_down: AtomicBool,
    accepted: AtomicU64,
    ids: RequestIdSource,
    metrics: Metrics,
    limits: Limits,
    logger: Logger,
    shed_at: Option<usize>,
    max_requests_per_conn: u64,
    idle_timeout: Duration,
    service: Box<dyn Service>,
    /// Live per-connection telemetry behind `GET /debug/reactor`:
    /// advisory rows updated at each lifecycle transition, never
    /// consulted for ownership decisions.
    conns: ConnTable,
    /// Set (only) by the reactor as its drain ends, under the `parked`
    /// lock. From then on nobody dispatches a parked connection, so a
    /// worker closes what it would park.
    reactor_done: AtomicBool,
    /// Slot indices of workers that died (panicked out of their loop),
    /// pushed by the worker's drop-guard, drained by the supervisor.
    deaths: Mutex<Vec<usize>>,
    /// Wakes the supervisor when a death is recorded or shutdown starts.
    reaper: Condvar,
}

impl Shared {
    fn new(config: &ServerConfig, service: Box<dyn Service>) -> io::Result<Self> {
        Ok(Self {
            epoll: Epoll::new()?,
            queue: Mutex::new(VecDeque::new()),
            available: EventFd::semaphore()?,
            parked: Mutex::new(HashMap::new()),
            holding: AtomicUsize::new(0),
            stop: EventFd::new()?,
            shutting_down: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            ids: RequestIdSource::new(),
            metrics: Metrics::new(),
            limits: config.limits,
            logger: Logger::new(config.log),
            shed_at: config.shed_at,
            max_requests_per_conn: config.max_requests_per_conn.max(1),
            idle_timeout: config.idle_timeout,
            service,
            conns: ConnTable::default(),
            reactor_done: AtomicBool::new(false),
            deaths: Mutex::new(Vec::new()),
            reaper: Condvar::new(),
        })
    }

    fn lock_queue(&self) -> MutexGuard<'_, VecDeque<Waiting>> {
        // Poison-tolerant: a worker that panics while holding the queue
        // lock (it never should, but this file exists because "never
        // should" still happens) must not wedge every other worker.
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_parked(&self) -> MutexGuard<'_, HashMap<u64, Waiting>> {
        self.parked.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Arms a worker slot: if the worker thread unwinds out of its loop
/// (anything but a clean exit disarms it first), `Drop` reports the slot
/// to the supervisor for respawning. Runs during unwind, so it works for
/// panics that escape the per-request `catch_unwind` — including
/// deliberate `server.worker` injected faults. It also owns the worker's
/// held connection and parks it on the way out, so a worker death costs
/// capacity, never a reply.
struct DeathSentinel<'a> {
    shared: &'a Shared,
    slot: usize,
    armed: bool,
    held: Option<Waiting>,
}

impl Drop for DeathSentinel<'_> {
    fn drop(&mut self) {
        if let Some(quiet) = self.held.take() {
            release(self.shared, quiet);
        }
        if !self.armed {
            return;
        }
        self.shared
            .deaths
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(self.slot);
        self.shared.reaper.notify_all();
    }
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] detaches the threads (the process exit
/// reaps them); calling it drains and joins.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    reactor_thread: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
}

/// Binds a listener and starts the reactor plus worker pool.
///
/// Bind to port `0` for an ephemeral port; [`ServerHandle::local_addr`]
/// reports the actual one.
///
/// # Errors
///
/// Returns the bind error if the address is unavailable, or the errno
/// if the epoll instance or an eventfd cannot be created.
pub fn serve(addr: &str, config: ServerConfig) -> io::Result<ServerHandle> {
    start(addr, config, Box::new(Api))
}

/// Binds a listener and starts the reactor plus worker pool answering
/// with `service`; no thread starts unless the bind succeeds.
pub(crate) fn start(
    addr: &str,
    config: ServerConfig,
    service: Box<dyn Service>,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let shared = Arc::new(Shared::new(&config, service)?);

    let workers: Vec<Option<JoinHandle<()>>> = (0..config.threads.max(1))
        .map(|slot| Some(spawn_worker(&shared, slot, 0)))
        .collect();

    // The supervisor owns the worker handles: it joins dead workers,
    // respawns them, and performs the final drain-and-join on shutdown.
    let supervisor_shared = Arc::clone(&shared);
    let supervisor = std::thread::Builder::new()
        .name("dram-serve-supervisor".to_string())
        .spawn(move || supervisor_loop(&supervisor_shared, workers))
        .expect("spawn supervisor");

    let reactor_shared = Arc::clone(&shared);
    let queue_depth = config.queue_depth;
    let reactor_thread = std::thread::Builder::new()
        .name("dram-serve-reactor".to_string())
        .spawn(move || reactor_loop(&listener, &reactor_shared, queue_depth))
        .expect("spawn reactor thread");

    Ok(ServerHandle {
        addr: local,
        shared,
        reactor_thread: Some(reactor_thread),
        supervisor: Some(supervisor),
    })
}

/// Spawns the worker for `slot`; `generation` counts respawns so thread
/// names stay unique (`dram-serve-worker-2-r1` is slot 2's first
/// replacement).
fn spawn_worker(shared: &Arc<Shared>, slot: usize, generation: u64) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    let name = if generation == 0 {
        format!("dram-serve-worker-{slot}")
    } else {
        format!("dram-serve-worker-{slot}-r{generation}")
    };
    std::thread::Builder::new()
        .name(name)
        .spawn(move || worker_loop(&shared, slot))
        .expect("spawn worker")
}

/// Joins dead workers and replaces them. A worker death never shrinks
/// the pool: even during shutdown a replacement is spawned while
/// connections are still queued, so the drain guarantee (every accepted
/// connection is served) survives injected worker kills.
fn supervisor_loop(shared: &Arc<Shared>, mut workers: Vec<Option<JoinHandle<()>>>) {
    let mut generations = vec![0u64; workers.len()];
    loop {
        let dead: Vec<usize> = {
            let mut deaths = shared.deaths.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if !deaths.is_empty() {
                    break std::mem::take(&mut *deaths);
                }
                if shared.shutting_down.load(Ordering::SeqCst) {
                    break Vec::new();
                }
                deaths = shared
                    .reaper
                    .wait(deaths)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        if dead.is_empty() {
            // Shutdown: fall through to the final drain-and-join.
            break;
        }
        for slot in dead {
            if let Some(handle) = workers[slot].take() {
                let _ = handle.join();
            }
            generations[slot] += 1;
            shared.metrics.worker_respawns.inc();
            if let Some(line) = shared.logger.line(LogLevel::Error, "worker_respawned") {
                line.field("slot", slot)
                    .field("generation", generations[slot])
                    .emit();
            }
            workers[slot] = Some(spawn_worker(shared, slot, generations[slot]));
        }
    }
    // Shutdown join: workers exit once the reactor has finished its
    // drain and the queue is empty. A worker killed by an injected
    // fault *while* draining is joined here too — if connections remain
    // at that point, respawn it so they are still served; the
    // replacement drains and exits cleanly.
    for slot in 0..workers.len() {
        while let Some(handle) = workers[slot].take() {
            let died = handle.join().is_err();
            if died && !shared.lock_queue().is_empty() {
                generations[slot] += 1;
                shared.metrics.worker_respawns.inc();
                workers[slot] = Some(spawn_worker(shared, slot, generations[slot]));
            }
        }
    }
}

/// Registration token of the stop eventfd. Connections use their ids,
/// counted from 1, so the fixed tokens sit at the top of the range.
const TOKEN_STOP: u64 = u64::MAX;
/// Registration token of the listening socket.
const TOKEN_LISTENER: u64 = u64::MAX - 1;
/// How long parked connections get to flush in-flight bytes once
/// shutdown starts before the reactor closes them.
const DRAIN_GRACE: Duration = Duration::from_millis(250);
/// The event bits a connection registers for, once, at accept: readable
/// or peer hangup, one-shot — the event that dispatches it also disarms
/// it until it is parked again.
const CONN_EVENTS: u32 = EPOLLIN | EPOLLRDHUP | EPOLLONESHOT;
/// What the reactor adds to the `available` semaphore when it is done:
/// more counts than any pool has workers, so the semaphore stays
/// readable and every waiting worker wakes to find the queue empty for
/// good.
const SHUTDOWN_SURPLUS: u64 = 1 << 32;

/// The reactor: owns the listener, dispatches readable parked
/// connections to the worker queue, rejects with 503 when the queue is
/// full, sweeps idle timeouts, and performs the shutdown drain. Runs
/// until shutdown; the listener closes (and the port frees) when this
/// returns.
fn reactor_loop(listener: &TcpListener, shared: &Shared, queue_depth: usize) {
    // Name this thread in the obs dense-id table up front: the reactor
    // opens no spans itself, so without this its journal events (and
    // any Chrome trace rows) would belong to an anonymous thread.
    dram_obs::register_thread();
    if let Err(e) = listener.set_nonblocking(true) {
        log_reactor_error(shared, "reactor_listener_nonblocking_failed", &e);
        // Degraded but not broken: accept() may block the loop between
        // events, yet every connection is still served.
    }
    let epoll = &shared.epoll;
    let _ = epoll.add(shared.stop.fd(), TOKEN_STOP, EPOLLIN);
    if let Err(e) = epoll.add(listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN) {
        // Without listener events the server cannot accept at all;
        // surface loudly and park until shutdown.
        log_reactor_error(shared, "reactor_listener_register_failed", &e);
    }
    let mut events = vec![EpollEvent::zeroed(); 256];
    let mut drain_deadline: Option<Instant> = None;
    loop {
        let timeout = if drain_deadline.is_some() {
            Duration::from_millis(5)
        } else {
            Duration::from_millis(100)
        };
        let n = match epoll.wait(&mut events, timeout) {
            Ok(n) => n,
            Err(e) => {
                log_reactor_error(shared, "reactor_epoll_wait_failed", &e);
                break;
            }
        };
        if shared.shutting_down.load(Ordering::SeqCst) && drain_deadline.is_none() {
            // Stop accepting; everything parked, and everything holders
            // park now, gets the grace period to show readable bytes and
            // be served. The stop signal stays readable, so it leaves
            // the set too.
            drain_deadline = Some(Instant::now() + DRAIN_GRACE);
            epoll.del(listener.as_raw_fd());
            epoll.del(shared.stop.fd());
        }
        for ev in &events[..n] {
            match ev.parts().1 {
                TOKEN_STOP => {}
                TOKEN_LISTENER => {
                    if drain_deadline.is_none() {
                        accept_burst(listener, shared);
                    }
                }
                conn => {
                    // Readable (or hung up): its one-shot registration is
                    // spent, so no second event can race the dispatch.
                    let woken = shared.lock_parked().remove(&conn);
                    if let Some(quiet) = woken {
                        journal::record(EventKind::Wake, conn, 0, quiet.client.served);
                        dispatch(quiet.client, shared, queue_depth);
                    }
                }
            }
        }
        let now = Instant::now();
        if let Some(deadline) = drain_deadline {
            let settled =
                shared.lock_parked().is_empty() && shared.holding.load(Ordering::SeqCst) == 0;
            if settled || now >= deadline {
                break;
            }
        } else {
            let expired: Vec<Waiting> = shared
                .lock_parked()
                .extract_if(|_, quiet| now.duration_since(quiet.since) >= shared.idle_timeout)
                .map(|(_, quiet)| quiet)
                .collect();
            for quiet in expired {
                close_idle(shared, quiet);
            }
        }
    }
    // What is still parked closes now: the promised keep-alive was
    // honored, and a server may close an idle connection at any time.
    let rest: Vec<Waiting> = {
        let mut parked = shared.lock_parked();
        shared.reactor_done.store(true, Ordering::SeqCst);
        parked.drain().map(|(_, quiet)| quiet).collect()
    };
    for quiet in rest {
        close(shared, quiet.client);
    }
    // Workers may only leave once the reactor is done, or a connection
    // dispatched during the drain could be stranded in the queue.
    shared.available.post(SHUTDOWN_SURPLUS);
}

/// Accepts until the listener would block, parking each connection.
/// Errors other than `WouldBlock` (fd exhaustion, aborted handshakes)
/// back off until the next listener event rather than spinning.
fn accept_burst(listener: &TcpListener, shared: &Shared) {
    loop {
        match listener.accept() {
            Ok((stream, peer)) => {
                let conn = shared.accepted.fetch_add(1, Ordering::SeqCst) + 1;
                let fd = stream.as_raw_fd();
                journal::record(EventKind::Accept, conn, 0, u64::from(fd.unsigned_abs()));
                // Both options hold for the socket's whole life.
                // Nonblocking: every read and write is tried first, and
                // waits in `poll` only when it would block. No Nagle: it
                // would hold each small pipelined response until the
                // previous one is ACKed — a 40 ms delayed-ACK stall per
                // response — and responses are written whole, so there
                // is nothing for it to coalesce anyway.
                if let Err(e) = stream.set_nonblocking(true) {
                    log_reactor_error(shared, "reactor_nonblocking_failed", &e);
                    journal::record(EventKind::Close, conn, 0, 0);
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let since = Instant::now();
                shared.conns.upsert(
                    conn,
                    ConnInfo {
                        fd,
                        state: ConnState::Parked,
                        since,
                        served: 0,
                        carry: 0,
                    },
                );
                journal::record(EventKind::Park, conn, 0, 0);
                let client = Client {
                    stream,
                    conn,
                    peer,
                    served: 0,
                };
                park(shared, Waiting { client, since }, Arm::Add);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                log_reactor_error(shared, "reactor_accept_failed", &e);
                break;
            }
        }
    }
}

/// How [`park`] arms a connection in the epoll set.
#[derive(Debug, Clone, Copy)]
enum Arm {
    /// The one registration, at accept.
    Add,
    /// Re-enabling the registration after its one-shot event fired.
    Rearm,
}

/// Parks a quiet connection: into the shared map, then armed in the
/// epoll set, both under the map's lock so the reactor can neither miss
/// its event nor close it in between. Once the reactor is done nobody
/// would dispatch it, so it is closed instead — as is a connection the
/// epoll set refuses (fd pressure), rather than leaked outside the
/// reactor's bookkeeping.
fn park(shared: &Shared, quiet: Waiting, arm: Arm) {
    let fd = quiet.client.stream.as_raw_fd();
    let conn = quiet.client.conn;
    let mut parked = shared.lock_parked();
    if shared.reactor_done.load(Ordering::SeqCst) {
        drop(parked);
        close(shared, quiet.client);
        return;
    }
    parked.insert(conn, quiet);
    let armed = match arm {
        Arm::Add => shared.epoll.add(fd, conn, CONN_EVENTS),
        Arm::Rearm => shared.epoll.rearm(fd, conn, CONN_EVENTS),
    };
    if let Err(e) = armed {
        let refused = parked.remove(&conn);
        drop(parked);
        log_reactor_error(shared, "reactor_register_failed", &e);
        if let Some(quiet) = refused {
            close(shared, quiet.client);
        }
    }
}

/// Ends a worker's hold by parking its connection — parked before it is
/// uncounted, so the shutdown drain never finds it in neither place.
fn release(shared: &Shared, quiet: Waiting) {
    park(shared, quiet, Arm::Rearm);
    shared.holding.fetch_sub(1, Ordering::SeqCst);
}

/// Closes a connection: its journal event and table row go with the
/// socket.
fn close(shared: &Shared, client: Client) {
    journal::record(EventKind::Close, client.conn, 0, client.served);
    shared.conns.remove(client.conn);
}

/// Closes a connection that stayed quiet for the idle timeout, from the
/// reactor's sweep or from the worker holding it.
fn close_idle(shared: &Shared, quiet: Waiting) {
    shared.metrics.idle_closed.inc();
    if let Some(line) = shared.logger.line(LogLevel::Debug, "idle_closed") {
        line.field("served", quiet.client.served)
            .field("idle_ms", quiet.since.elapsed().as_millis())
            .emit();
    }
    close(shared, quiet.client);
}

/// Logs a reactor-side I/O failure at `error` level.
fn log_reactor_error(shared: &Shared, event: &str, e: &io::Error) {
    if let Some(line) = shared.logger.line(LogLevel::Error, event) {
        line.field("error", e.kind()).emit();
    }
}

/// Hands a readable connection to the worker pool, or answers 503
/// inline when the queue is full (or the `server.queue` fault fires).
fn dispatch(client: Client, shared: &Shared, queue_depth: usize) {
    // Fault site: a `reject` rule makes this dispatch behave as if the
    // queue were full — same 503 path, same accounting — so chaos runs
    // exercise backpressure without needing real load.
    let injected_full = dram_faults::trip("server.queue").is_some();
    let mut queue = shared.lock_queue();
    if queue.len() >= queue_depth || injected_full {
        drop(queue);
        reject_busy(client, shared, queue_depth);
        return;
    }
    let (conn, served) = (client.conn, client.served);
    queue.push_back(Waiting {
        client,
        since: Instant::now(),
    });
    let depth = queue.len();
    drop(queue);
    // No worker can pop the connection before its count is posted, so
    // these land ahead of the worker's own events.
    shared.conns.transition(conn, ConnState::Queued, served, 0);
    journal::record(EventKind::Dispatch, conn, 0, served);
    journal::record(EventKind::QueueEnter, conn, 0, depth as u64);
    shared.available.post(1);
}

/// Backpressure: answer 503 inline on the reactor thread and close — a
/// rejected client never costs worker time. The dispatch was triggered
/// by readability, so one nonblocking read drains the request bytes
/// already here and closing doesn't RST the response away. The answer
/// is one nonblocking write: a client that stopped reading, with its
/// buffers full, is closed without it rather than stalling the reactor.
fn reject_busy(mut client: Client, shared: &Shared, queue_depth: usize) {
    shared.metrics.rejected_busy.inc();
    let id = shared.ids.next_id();
    journal::record(EventKind::Response, client.conn, id.seq, 503);
    let retry_after = shared.metrics.retry_after_secs();
    let mut scratch = [0u8; 8192];
    let _ = io::Read::read(&mut client.stream, &mut scratch);
    let bytes = Response::error(503, "server is at capacity, retry shortly")
        .with_header("retry-after", &retry_after.to_string())
        .with_header("x-request-id", &id.to_string())
        .to_bytes();
    let sent = io::Write::write(&mut client.stream, &bytes).is_ok_and(|n| n == bytes.len());
    if let Some(line) = shared.logger.line(LogLevel::Error, "rejected") {
        line.field("id", id)
            .field("status", 503)
            .field("queue_depth", queue_depth)
            .field("retry_after", retry_after)
            .field("write_ok", sent)
            .emit();
    }
    close(shared, client);
}

fn worker_loop(shared: &Shared, slot: usize) {
    let mut sentinel = DeathSentinel {
        shared,
        slot,
        armed: true,
        held: None,
    };
    while let Some((client, queued_at)) = next_connection(shared, &mut sentinel.held) {
        if let Some(client) = serve_connection(client, queued_at, shared) {
            shared
                .conns
                .transition(client.conn, ConnState::Parked, client.served, 0);
            journal::record(EventKind::Park, client.conn, 0, client.served);
            let quiet = Waiting {
                client,
                since: Instant::now(),
            };
            // Hold the quiet connection while nothing else waits: its
            // next request then needs no reactor or queue hop.
            if shared.lock_queue().is_empty() {
                shared.holding.fetch_add(1, Ordering::SeqCst);
                sentinel.held = Some(quiet);
            } else {
                park(shared, quiet, Arm::Rearm);
            }
        }
        // Fault site: a `panic` rule kills this worker *between*
        // connections — responses were already sent, and the sentinel
        // parks a held connection on the way out, so the death costs
        // capacity, never a reply. The sentinel reports the slot and the
        // supervisor respawns it.
        dram_faults::trip("server.worker");
    }
    // Clean exit (shutdown, queue drained): not a death.
    sentinel.armed = false;
}

/// Waits for the next connection to serve: a queued one, with when it
/// was queued, or the `held` one once it turns readable. Queued work
/// goes first — it waited its turn, while the held connection already
/// had one — and taking it parks the held connection. A held connection
/// is also parked when shutdown starts, and closed when it stays quiet
/// for the idle timeout. `None` once the reactor is done and the queue
/// is empty.
fn next_connection(
    shared: &Shared,
    held: &mut Option<Waiting>,
) -> Option<(Client, Option<Instant>)> {
    loop {
        let mut fds = [
            PollFd::new(shared.available.fd(), POLLIN),
            PollFd::new(-1, 0),
            PollFd::new(-1, 0),
        ];
        let mut watched = 1;
        let mut timeout = None;
        if let Some(quiet) = held.take() {
            let left = shared.idle_timeout.saturating_sub(quiet.since.elapsed());
            if shared.shutting_down.load(Ordering::SeqCst) {
                // The drain treats it like any parked connection.
                release(shared, quiet);
                continue;
            }
            if left.is_zero() {
                close_idle(shared, quiet);
                shared.holding.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            fds[1] = PollFd::new(quiet.client.stream.as_raw_fd(), POLLIN | POLLRDHUP);
            fds[2] = PollFd::new(shared.stop.fd(), POLLIN);
            watched = 3;
            timeout = Some(left);
            *held = Some(quiet);
        }
        // An error here is as good as a spurious wake-up: every
        // condition is checked again below and on the next turn.
        let _ = reactor::poll(&mut fds[..watched], timeout);
        if fds[0].ready() && shared.available.try_take() {
            let next = shared.lock_queue().pop_front();
            if let Some(quiet) = held.take() {
                release(shared, quiet);
            }
            // A count with nothing queued is the reactor's shutdown
            // surplus: the queue is empty for good.
            return next.map(|queued| (queued.client, Some(queued.since)));
        }
        if fds[1].ready() {
            if let Some(quiet) = held.take() {
                shared.holding.fetch_sub(1, Ordering::SeqCst);
                journal::record(EventKind::Wake, quiet.client.conn, 0, quiet.client.served);
                return Some((quiet.client, None));
            }
        }
    }
}

/// What one served request decided about its connection.
pub(crate) enum Verdict {
    /// Serve another request: the connection stays open and these are
    /// the over-read bytes of the next pipelined request (often empty).
    Keep(Vec<u8>),
    /// Close: the client asked, a budget expired, the response failed
    /// to send, or the request failed and poisoned the connection.
    Close,
}

/// What a front end answers its requests with: `dram-serve`'s [`Api`]
/// or `dram-route`'s proxy.
pub(crate) trait Service: Send + Sync {
    /// Answers one request read off `ex.stream`: writes exactly one
    /// response and says whether the connection serves another.
    fn answer(&self, inbound: http::Inbound, ex: &mut Exchange<'_>) -> Verdict;
}

/// One request's exchange with its client, as the front end hands it to
/// its [`Service`].
pub(crate) struct Exchange<'a> {
    /// The client connection, nonblocking for life.
    pub(crate) stream: &'a mut TcpStream,
    /// The peer as `accept` reported it: the loopback gate for
    /// `/debug/*` keys on this, never on a header.
    pub(crate) peer: SocketAddr,
    /// The request's id, which its response carries as `x-request-id`.
    pub(crate) id: RequestId,
    /// Requests already answered on this connection.
    served: u64,
    /// The front end's limits, budgets, counters and logger.
    shared: &'a Shared,
    /// How long the connection waited in the queue before this request:
    /// zero for a held or pipelined one.
    queue_wait: Duration,
    /// When the worker began reading the request.
    started: Instant,
    /// The `server.request` span, open from the read to the response.
    span: dram_obs::SpanGuard,
}

/// Serves requests off a connection until it goes quiet.
///
/// `queued_at` is when the reactor queued the connection, or `None` for
/// a held connection its worker serves directly: that request never
/// queued, so it records no queue wait at all. Pipelined requests (bytes
/// already in the carry) are read and answered back-to-back in order;
/// once the carry is empty after a kept-alive response, the connection
/// is returned (`Some`) to be held or parked. `None` means the
/// connection was closed here.
fn serve_connection(
    mut client: Client,
    queued_at: Option<Instant>,
    shared: &Shared,
) -> Option<Client> {
    let conn = client.conn;
    let mut queue_wait = Duration::ZERO;
    if let Some(queued_at) = queued_at {
        queue_wait = queued_at.elapsed();
        shared.metrics.note_queue_wait(queue_wait);
        journal::record(
            EventKind::QueueExit,
            conn,
            0,
            u64::try_from(queue_wait.as_micros()).unwrap_or(u64::MAX),
        );
    }
    shared
        .conns
        .transition(conn, ConnState::Active, client.served, 0);
    let mut carry = Vec::new();
    let mut pipelined = false;
    loop {
        let started = Instant::now();
        let id = shared.ids.next_id();
        journal::record(EventKind::WorkerStart, conn, id.seq, client.served);
        // Ambient attribution: engine-cache, rebuild and fault events
        // recorded anywhere below this worker frame land on this
        // (conn, request) pair without API threading.
        journal::set_context(conn, id.seq);
        if pipelined {
            shared.metrics.pipelined_requests.inc();
        } else if let Some(queued_at) = queued_at {
            // Reactor-to-worker handoff time, attributed to the first
            // request of the dispatch. Manual because the interval
            // crosses threads: the reactor measured its start, this
            // worker its end.
            dram_obs::ManualSpan::new("server.queue", queued_at, started)
                .arg("id", id)
                .commit();
        }
        let mut ex = Exchange {
            stream: &mut client.stream,
            peer: client.peer,
            id,
            served: client.served,
            shared,
            queue_wait,
            started,
            span: dram_obs::span("server.request").arg("id", id),
        };
        let inbound =
            http::read_inbound_after(ex.stream, &shared.limits, std::mem::take(&mut carry));
        let verdict = match inbound {
            Ok(inbound) => {
                if ex.served > 0 {
                    shared.metrics.keepalive_reuses.inc();
                }
                shared.service.answer(inbound, &mut ex)
            }
            Err(ReadError::Closed) => {
                // Never-spoke probe, or a keep-alive peer hanging up
                // cleanly between requests: nothing to answer, nothing
                // to count, no slow sample. `ReadError` keeps this path
                // type-safe — `Closed` carries no status, so no response
                // can even be constructed for it.
                if let Some(line) = shared.logger.line(LogLevel::Debug, "peer_closed") {
                    line.field("id", id).field("served", ex.served).emit();
                }
                Verdict::Close
            }
            Err(ReadError::Http(e)) => ex.refuse(&e),
        };
        drop(ex);
        journal::set_context(0, 0);
        match verdict {
            Verdict::Close => {
                close(shared, client);
                return None;
            }
            Verdict::Keep(next) => {
                client.served += 1;
                carry = next;
                // Tolerate a stray CRLF after a body (RFC 9112 §2.2) —
                // it is not the start of a pipelined request, and a
                // worker must not wait to complete one.
                while carry.starts_with(b"\r\n") {
                    carry.drain(..2);
                }
                if carry.is_empty() {
                    return Some(client);
                }
                shared
                    .conns
                    .transition(conn, ConnState::Active, client.served, carry.len());
                // A pipelined request is already (partially) buffered:
                // keep the worker and serve it immediately, in order.
                queue_wait = Duration::ZERO;
                pipelined = true;
            }
        }
    }
}

impl Exchange<'_> {
    /// Whether the connection survives this response: the client must
    /// want it, the request budget must allow it, every error poisons it
    /// (pipelined bytes behind a failed request are never trusted — the
    /// parsers may have desynced), and a draining server closes
    /// everything.
    pub(crate) fn keep_decision(&self, req: &http::Request, status: u16) -> bool {
        req.wants_keep_alive()
            && status < 400
            && self.served + 1 < self.shared.max_requests_per_conn
            && !self.shared.shutting_down.load(Ordering::SeqCst)
    }

    /// The request with its whole body in memory, and the bytes read
    /// past it. A chunked body is read to its end, bounded by
    /// [`Limits::max_body`]; one that fails is answered with its 4xx
    /// here, and `None` means the connection closes.
    pub(crate) fn buffer(&mut self, inbound: http::Inbound) -> Option<(http::Request, Vec<u8>)> {
        match inbound {
            http::Inbound::Buffered { request, leftover } => Some((request, leftover)),
            http::Inbound::Streaming {
                mut request,
                mut body,
            } => match body.read_all(self.stream, self.shared.limits.max_body) {
                Ok(bytes) => {
                    request.body = bytes;
                    Some((request, body.take_leftover()))
                }
                Err(e) => {
                    self.refuse(&e);
                    None
                }
            },
        }
    }

    /// Answers a protocol-level failure (bad framing, oversized payload,
    /// deadline) with its 4xx, records it under [`Route::Other`], and
    /// drains what the client already sent. Always a close: after a
    /// framing error the connection's byte stream cannot be trusted, so
    /// any buffered pipelined requests die with it.
    fn refuse(&mut self, e: &http::HttpError) -> Verdict {
        let response = Response::error(e.status(), &e.message());
        // Sent or not, the connection closes.
        self.respond(
            Route::Other,
            response,
            false,
            CacheActivity::default(),
            Vec::new(),
        );
        // The request was not fully read; drain what the client already
        // sent so closing the socket doesn't RST the response out of its
        // receive buffer.
        drain_after_error(self.stream);
        Verdict::Close
    }

    /// Sends `response` under the request id, saying whether the
    /// connection serves another request, and notes it in the journal:
    /// how every answer ends. `Keep(leftover)` if `keep`; a failed write
    /// is the error, and the connection closes.
    pub(crate) fn send(
        &mut self,
        response: Response,
        keep: bool,
        leftover: Vec<u8>,
    ) -> io::Result<Verdict> {
        let status = response.status;
        let sent = response
            .with_header("x-request-id", &self.id.to_string())
            .with_keep_alive(keep)
            .send_within(self.stream, self.shared.limits.io_timeout);
        journal::note(EventKind::Response, u64::from(status));
        sent.map(|()| {
            if keep {
                Verdict::Keep(leftover)
            } else {
                Verdict::Close
            }
        })
    }

    /// [`Exchange::send`], then the metrics and the one structured log
    /// line — `info` normally, `error` for a 5xx or a failed write. A
    /// write failure is logged, never "fixed" with a second response.
    fn respond(
        &mut self,
        route: Route,
        response: Response,
        keep: bool,
        cache: CacheActivity,
        leftover: Vec<u8>,
    ) -> Verdict {
        let handle_time = self.started.elapsed();
        let status = response.status;
        self.span.add_arg("route", route.label());
        self.span.add_arg("status", status);
        let sent = self.send(response, keep, leftover);
        let id = self.id.to_string();
        self.shared.metrics.observe(&RequestRecord {
            id: &id,
            route,
            status,
            queue_wait: self.queue_wait,
            handle: handle_time,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
        });
        let level = if status >= 500 || sent.is_err() {
            LogLevel::Error
        } else {
            LogLevel::Info
        };
        if let Some(line) = self.shared.logger.line(level, "request") {
            let mut line = line
                .field("id", &id)
                .field("route", route.label())
                .field("status", status)
                .field("queue_us", self.queue_wait.as_micros())
                .field("handle_us", handle_time.as_micros())
                .field("cache_hits", cache.hits)
                .field("cache_misses", cache.misses);
            if let Err(e) = &sent {
                line = line.field("write_error", e.kind());
            }
            line.emit();
        }
        sent.unwrap_or(Verdict::Close)
    }
}

/// `dram-serve`'s service: the JSON API, the streamed trace endpoint and
/// the loopback-gated `/debug` family.
///
/// Chunked-transfer requests to the streaming trace endpoint are handed
/// their still-on-the-wire body ([`serve_trace_stream`]); chunked
/// requests to any other route are drained into memory first (bounded
/// by [`Limits::max_body`]) and served exactly like buffered ones.
struct Api;

impl Service for Api {
    fn answer(&self, inbound: http::Inbound, ex: &mut Exchange<'_>) -> Verdict {
        match inbound {
            http::Inbound::Streaming { request, mut body }
                if Route::classify(request.method.as_str(), request.path.as_str())
                    == Route::Trace =>
            {
                serve_trace_stream(ex, &request, &mut body)
            }
            inbound => match ex.buffer(inbound) {
                Some((request, leftover)) => serve_buffered(ex, &request, leftover),
                None => Verdict::Close,
            },
        }
    }
}

/// Answers a fully-buffered request: route, handle, send, record.
fn serve_buffered(ex: &mut Exchange<'_>, req: &http::Request, leftover: Vec<u8>) -> Verdict {
    let (route, response, cache) = handle_request(ex, req);
    let keep = ex.keep_decision(req, response.status);
    ex.respond(route, response, keep, cache, leftover)
}

/// Answers `POST /v1/trace` with a chunked body still on the wire: the
/// handler feeds each run of chunk data to the trace decoder in place,
/// in the body reader's buffer, so the body is never buffered whole. The route counts as
/// expensive for load shedding (it holds its worker for the entire
/// upload) and the handler runs under the same [`guarded`] as the
/// buffered path.
fn serve_trace_stream(
    ex: &mut Exchange<'_>,
    req: &http::Request,
    body: &mut http::ChunkedBody,
) -> Verdict {
    let route = Route::Trace;
    let (response, cache) = guarded(ex.shared, ex.id, route, "server.trace_stream", || {
        api::handle_trace_stream(req, ex.stream, body)
    });
    let keep = ex.keep_decision(req, response.status);
    let failed = response.status >= 400;
    // Kept alive, the stream was fully consumed: anything past the
    // chunked terminator is the next pipelined request.
    let verdict = ex.respond(route, response, keep, cache, body.take_leftover());
    if failed {
        // The upload was cut short (shed, protocol error, trace error)
        // and the client may still be sending: drain briefly so closing
        // doesn't RST the response out of its receive buffer.
        drain_after_error(ex.stream);
    }
    verdict
}

/// Bounded post-error drain: reads until the peer stays quiet for
/// 100 ms, hangs up, or 500 ms pass. The hard cap matters: a client
/// that keeps trickling after its 408 must not keep holding the worker
/// it just timed out on.
fn drain_after_error(stream: &mut TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let drain_until = Instant::now() + Duration::from_millis(500);
    let mut scratch = [0u8; 8192];
    let quiet_for = Duration::from_millis(100);
    while let Ok(n) = http::read_within(stream, &mut scratch, drain_until, quiet_for) {
        if n == 0 {
            break;
        }
    }
}

/// Routes one parsed request: `/debug/*` to its loopback-gated router,
/// every other route to the API handler under [`guarded`].
fn handle_request(ex: &Exchange<'_>, req: &http::Request) -> (Route, Response, CacheActivity) {
    let shared = ex.shared;
    let route = Route::classify(req.method.as_str(), req.path.as_str());
    if route == Route::Debug {
        // The loopback-gated introspection router. Short-circuited
        // before shedding and before `api::handle`: debug requests must
        // work exactly when the server is in trouble, and the gate
        // needs the peer address only this front end knows.
        let response = crate::debug::handle(req, Some(ex.peer), &shared.conns);
        return (route, response, CacheActivity::default());
    }
    let (response, cache) = guarded(shared, ex.id, route, "server.handle", || {
        let (_, response, cache) = api::handle(req, &shared.metrics);
        (response, cache)
    });
    (route, response, cache)
}

/// Runs the handler of request `id` on `route` inside span `span`: the
/// load-shedding check first, then the handler under `catch_unwind`.
///
/// Shedding: when a watermark is configured and the queue is at or above
/// it, expensive routes are answered 503 with the adaptive `Retry-After`
/// instead of handled — cheap routes still get through, so health checks
/// and metrics scrapes keep working while a backlog clears.
///
/// Panic isolation: a panicking handler answers 500 (carrying
/// `x-request-id` like every response) instead of unwinding through the
/// worker; the panic is counted in `worker_panics_total` and logged with
/// its message.
fn guarded(
    shared: &Shared,
    id: RequestId,
    route: Route,
    span: &'static str,
    handler: impl FnOnce() -> (Response, CacheActivity),
) -> (Response, CacheActivity) {
    if let Some(response) = shed_response(shared, route) {
        return (response, CacheActivity::default());
    }
    let handled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _s = dram_obs::span(span).arg("id", id);
        handler()
    }));
    handled.unwrap_or_else(|payload| {
        shared.metrics.worker_panics.inc();
        let message = dram_core::batch::panic_message(payload.as_ref());
        if let Some(line) = shared.logger.line(LogLevel::Error, "handler_panicked") {
            line.field("id", id)
                .field("route", route.label())
                .field("panic", &message)
                .emit();
        }
        (
            Response::error(500, "internal error: request handler panicked"),
            CacheActivity::default(),
        )
    })
}

/// The load-shedding check: when a watermark is configured and the
/// queue is at or above it, expensive routes are answered 503 with the
/// adaptive `Retry-After` instead of handled.
fn shed_response(shared: &Shared, route: Route) -> Option<Response> {
    let watermark = shared.shed_at?;
    if route.expensive() && shared.lock_queue().len() >= watermark {
        shared.metrics.shed_load.inc();
        let retry_after = shared.metrics.retry_after_secs();
        return Some(
            Response::error(503, "server is shedding expensive requests, retry shortly")
                .with_header("retry-after", &retry_after.to_string()),
        );
    }
    None
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections accepted so far (including ones answered 503).
    #[must_use]
    pub fn accepted(&self) -> u64 {
        self.shared.accepted.load(Ordering::SeqCst)
    }

    /// The server's metrics counters.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Gracefully shuts down: stop accepting, serve everything already
    /// dispatched or showing readable bytes, close quiet keep-alive
    /// connections, join all threads. Returns the number of requests
    /// served over the server's lifetime.
    pub fn shutdown(mut self) -> u64 {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        // Wake the reactor and every holding worker at once. The reactor
        // runs the drain and exits, which also closes the listener (the
        // port frees here) and releases the workers.
        self.shared.stop.post(1);
        if let Some(t) = self.reactor_thread.take() {
            let _ = t.join();
        }
        // Workers drain the queue, then exit; the supervisor joins them
        // all (respawning any that die mid-drain) before exiting itself.
        self.shared.reaper.notify_all();
        if let Some(t) = self.supervisor.take() {
            let _ = t.join();
        }
        self.shared
            .metrics
            .requests
            .iter()
            .map(dram_obs::Counter::get)
            .sum()
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Conn, Reply};
    use std::io::Write;

    fn raw_request(addr: SocketAddr, bytes: &[u8]) -> Reply {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(bytes).expect("write");
        Conn::new(s).read_to_close().expect("read")
    }

    #[test]
    fn serves_health_and_reports_addr() {
        let handle = serve("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let addr = handle.local_addr();
        assert_ne!(addr.port(), 0);
        let reply = raw_request(
            addr,
            b"GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n",
        );
        assert_eq!(reply.status(), 200, "{reply:?}");
        assert_eq!(reply.text(), "{\"status\":\"ok\"}", "{reply:?}");
        assert!(reply.header("x-request-id").is_some(), "{reply:?}");
        assert_eq!(handle.shutdown(), 1);
    }

    #[test]
    fn zero_depth_queue_rejects_with_503_retry_after() {
        let handle = serve(
            "127.0.0.1:0",
            ServerConfig {
                queue_depth: 0,
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        let reply = raw_request(
            handle.local_addr(),
            b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n",
        );
        assert_eq!(reply.status(), 503, "{reply:?}");
        assert_eq!(reply.header("retry-after"), Some("1"), "{reply:?}");
        assert!(reply.header("x-request-id").is_some(), "{reply:?}");
        assert_eq!(handle.metrics().rejected_busy.get(), 1);
        handle.shutdown();
    }

    /// The reactor answers a full queue itself, so its 503 must never
    /// wait on the client: a keep-alive client that kept sending but
    /// stopped reading would otherwise stall every accept, dispatch and
    /// sweep for up to `io_timeout`.
    #[test]
    fn rejecting_a_client_that_stopped_reading_does_not_stall() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let silent_peer =
            TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, peer) = listener.accept().expect("accept");
        stream.set_nonblocking(true).expect("nonblocking");
        // Fill the send buffer, and the peer's receive buffer behind it.
        let chunk = vec![0u8; 64 * 1024];
        loop {
            match (&stream).write(&chunk) {
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("filling the send buffer failed: {e}"),
            }
        }
        let config = ServerConfig {
            limits: Limits {
                io_timeout: Duration::from_secs(2),
                ..Limits::default()
            },
            ..ServerConfig::default()
        };
        let shared = Shared::new(&config, Box::new(Api)).expect("shared state");
        let client = Client {
            stream,
            conn: 1,
            peer,
            served: 3,
        };
        let started = Instant::now();
        reject_busy(client, &shared, 0);
        let took = started.elapsed();
        assert!(
            took < Duration::from_millis(200),
            "the reject waited {took:?}"
        );
        assert_eq!(shared.metrics.rejected_busy.get(), 1);
        drop(silent_peer);
    }
}
