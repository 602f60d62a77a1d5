//! The TCP front end: epoll reactor, bounded worker pool, keep-alive,
//! backpressure, request tracing and graceful shutdown.
//!
//! Architecture: one reactor thread owns a nonblocking listener and a
//! raw `epoll` set ([`crate::reactor`] — no crates, same `extern "C"`
//! approach as `dram-serve`'s signal handling). Idle connections are
//! parked in the epoll set (edge-triggered, readable + peer-hangup);
//! the moment one turns readable it is *dispatched*: deregistered and
//! pushed onto the bounded connection queue for the worker pool. A
//! worker parses requests with blocking reads under the usual deadlines
//! and keeps serving until the connection goes quiet, then hands it
//! back to the reactor to park again. Idle sockets therefore cost no
//! worker and no thread — concurrency is bounded by fds, not by the
//! pool — while a *talking* connection is always owned by exactly one
//! worker, which keeps the HTTP parsing, fault-site, and deadline
//! machinery single-threaded and simple.
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
//! When the queue is full the reactor answers `503` with `Retry-After`
//! itself — a rejected client costs one small write, never a worker.
//!
//! Tracing: every *request* (not connection) gets a [`RequestId`] the
//! moment a worker starts parsing it, echoed back as `x-request-id`,
//! labeling the structured log line and any slow-request sample. The
//! reactor stamps its inline 503s the same way. Queue wait and handling
//! time are measured separately so a slow request can be blamed on load
//! or on work.
//!
//! Shutdown is cooperative and *draining*: [`ServerHandle::shutdown`]
//! wakes the reactor, which stops accepting, gives parked connections a
//! short grace to flush bytes already in flight (dispatching any that
//! are readable), closes the rest, and exits; workers then finish every
//! dispatched connection before joining. No in-flight request is
//! dropped.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::api::{self, CacheActivity};
use crate::debug::{ConnInfo, ConnState, ConnTable};
use crate::http::{self, Limits, ReadError, Response};
use crate::metrics::{Metrics, RequestRecord, Route};
use crate::reactor::{Epoll, EpollEvent, Wake, EPOLLET, EPOLLIN, EPOLLRDHUP};
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
    /// How long a keep-alive connection may sit parked in the reactor
    /// with no readable bytes before it is closed. Swept with ~100 ms
    /// granularity.
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

/// A connection dispatched to the worker pool: the stream, bytes a
/// previous request on it over-read (the pipelining carry), how many
/// requests it has already answered, and when it entered the queue.
struct QueuedConn {
    stream: TcpStream,
    /// Connection id (accept sequence number) — the `conn` field every
    /// journal event and `/debug/reactor` row uses for this socket.
    conn: u64,
    carry: Vec<u8>,
    served: u64,
    queued_at: Instant,
}

/// A quiet keep-alive connection a worker hands back to the reactor.
struct ReturnedConn {
    stream: TcpStream,
    conn: u64,
    served: u64,
}

/// A connection parked in the reactor's epoll set.
struct ParkedConn {
    stream: TcpStream,
    conn: u64,
    served: u64,
    since: Instant,
}

/// State shared between the reactor thread, the workers, the supervisor
/// and the handle.
struct Shared {
    queue: Mutex<VecDeque<QueuedConn>>,
    available: Condvar,
    shutting_down: AtomicBool,
    accepted: AtomicU64,
    ids: RequestIdSource,
    metrics: Metrics,
    limits: Limits,
    logger: Logger,
    shed_at: Option<usize>,
    max_requests_per_conn: u64,
    /// Live per-connection telemetry behind `GET /debug/reactor`:
    /// advisory rows updated at each lifecycle transition, never
    /// consulted for ownership decisions.
    conns: ConnTable,
    /// Quiet keep-alive connections handed back by workers, adopted by
    /// the reactor on its next loop turn (after a `wake` signal).
    returns: Mutex<Vec<ReturnedConn>>,
    /// Interrupts the reactor's `epoll_wait`: workers signal it when
    /// returning a connection, shutdown signals it to start the drain.
    wake: Wake,
    /// Set (only) by the reactor as it exits; workers may not leave
    /// their pop loop before this, or a connection dispatched during the
    /// drain could be left unserved in the queue.
    reactor_done: AtomicBool,
    /// Slot indices of workers that died (panicked out of their loop),
    /// pushed by the worker's drop-guard, drained by the supervisor.
    deaths: Mutex<Vec<usize>>,
    /// Wakes the supervisor when a death is recorded or shutdown starts.
    reaper: Condvar,
}

impl Shared {
    fn lock_queue(&self) -> std::sync::MutexGuard<'_, VecDeque<QueuedConn>> {
        // Poison-tolerant: a worker that panics while holding the queue
        // lock (it never should, but this file exists because "never
        // should" still happens) must not wedge every other worker.
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Arms a worker slot: if the worker thread unwinds out of its loop
/// (anything but a clean exit disarms it first), `Drop` reports the slot
/// to the supervisor for respawning. Runs during unwind, so it works for
/// panics that escape the per-request `catch_unwind` — including
/// deliberate `server.worker` injected faults.
struct DeathSentinel<'a> {
    shared: &'a Shared,
    slot: usize,
    armed: bool,
}

impl Drop for DeathSentinel<'_> {
    fn drop(&mut self) {
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
/// if the epoll instance / wakeup eventfd cannot be created.
pub fn serve(addr: &str, config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let epoll = Epoll::new()?;
    let wake = Wake::new()?;
    let shared = Arc::new(Shared {
        queue: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        shutting_down: AtomicBool::new(false),
        accepted: AtomicU64::new(0),
        ids: RequestIdSource::new(),
        metrics: Metrics::new(),
        limits: config.limits,
        logger: Logger::new(config.log),
        shed_at: config.shed_at,
        max_requests_per_conn: config.max_requests_per_conn.max(1),
        conns: ConnTable::default(),
        returns: Mutex::new(Vec::new()),
        wake,
        reactor_done: AtomicBool::new(false),
        deaths: Mutex::new(Vec::new()),
        reaper: Condvar::new(),
    });

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
    let idle_timeout = config.idle_timeout;
    let reactor_thread = std::thread::Builder::new()
        .name("dram-serve-reactor".to_string())
        .spawn(move || reactor_loop(&listener, &epoll, &reactor_shared, queue_depth, idle_timeout))
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
            let mut deaths = shared
                .deaths
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
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
            shared.metrics.record_worker_respawn();
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
                shared.metrics.record_worker_respawn();
                workers[slot] = Some(spawn_worker(shared, slot, generations[slot]));
                shared.available.notify_all();
            }
        }
    }
}

/// Registration token of the wakeup eventfd.
const TOKEN_WAKE: u64 = 0;
/// Registration token of the listening socket.
const TOKEN_LISTENER: u64 = 1;
/// First token handed to an accepted connection.
const TOKEN_FIRST_CONN: u64 = 2;
/// How long parked connections get to flush in-flight bytes once
/// shutdown starts before the reactor closes them.
const DRAIN_GRACE: Duration = Duration::from_millis(250);
/// The event bits a parked connection registers for: readable or peer
/// hangup, edge-triggered (one notification per transition — the
/// connection is dispatched and deregistered on the first).
const CONN_EVENTS: u32 = EPOLLIN | EPOLLRDHUP | EPOLLET;

/// The reactor: owns the listener and the epoll set, parks idle
/// connections, dispatches readable ones to the worker queue, rejects
/// with 503 when the queue is full, sweeps idle timeouts, and performs
/// the shutdown drain. Runs until shutdown; the listener closes (and
/// the port frees) when this returns.
fn reactor_loop(
    listener: &TcpListener,
    epoll: &Epoll,
    shared: &Arc<Shared>,
    queue_depth: usize,
    idle_timeout: Duration,
) {
    // Name this thread in the obs dense-id table up front: the reactor
    // opens no spans itself, so without this its journal events (and
    // any Chrome trace rows) would belong to an anonymous thread.
    dram_obs::register_thread();
    if let Err(e) = listener.set_nonblocking(true) {
        log_reactor_error(shared, "reactor_listener_nonblocking_failed", &e);
        // Degraded but not broken: accept() may block the loop between
        // events, yet every connection is still served.
    }
    let _ = epoll.add(shared.wake.fd(), TOKEN_WAKE, EPOLLIN);
    if let Err(e) = epoll.add(listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN) {
        // Without listener events the server cannot accept at all;
        // surface loudly and park until shutdown.
        log_reactor_error(shared, "reactor_listener_register_failed", &e);
    }
    let mut parked: HashMap<u64, ParkedConn> = HashMap::new();
    let mut next_token = TOKEN_FIRST_CONN;
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
            // Stop accepting; everything already parked gets the grace
            // period to show readable bytes and be served.
            drain_deadline = Some(Instant::now() + DRAIN_GRACE);
            epoll.del(listener.as_raw_fd());
        }
        for ev in &events[..n] {
            let (_bits, token) = ev.parts();
            match token {
                TOKEN_WAKE => shared.wake.drain(),
                TOKEN_LISTENER => {
                    if drain_deadline.is_none() {
                        accept_burst(listener, epoll, shared, &mut parked, &mut next_token);
                    }
                }
                token => {
                    // Readable (or hung up): hand the connection to a
                    // worker. Deregistered first so no second event can
                    // race the dispatch.
                    if let Some(conn) = parked.remove(&token) {
                        epoll.del(conn.stream.as_raw_fd());
                        journal::record(EventKind::Wake, conn.conn, 0, conn.served);
                        dispatch_conn(conn, shared, queue_depth);
                    }
                }
            }
        }
        // Adopt quiet keep-alive connections handed back by workers.
        let returned: Vec<ReturnedConn> = std::mem::take(
            &mut *shared
                .returns
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for conn in returned {
            if drain_deadline.is_some() {
                // Shutting down: the response promising keep-alive was
                // already sent, but a server may close an idle
                // connection at any time. Dropping closes it.
                journal::record(EventKind::Close, conn.conn, 0, conn.served);
                shared.conns.remove(conn.conn);
                continue;
            }
            park_conn(conn.stream, conn.conn, conn.served, epoll, shared, &mut parked, &mut next_token);
        }
        let now = Instant::now();
        if let Some(deadline) = drain_deadline {
            if parked.is_empty() || now >= deadline {
                for (_, conn) in parked.drain() {
                    epoll.del(conn.stream.as_raw_fd());
                    journal::record(EventKind::Close, conn.conn, 0, conn.served);
                    shared.conns.remove(conn.conn);
                }
                break;
            }
        } else if !parked.is_empty() {
            let expired: Vec<u64> = parked
                .iter()
                .filter(|(_, c)| now.duration_since(c.since) >= idle_timeout)
                .map(|(t, _)| *t)
                .collect();
            for token in expired {
                if let Some(conn) = parked.remove(&token) {
                    epoll.del(conn.stream.as_raw_fd());
                    shared.metrics.record_idle_closed();
                    journal::record(EventKind::Close, conn.conn, 0, conn.served);
                    shared.conns.remove(conn.conn);
                    if let Some(line) = shared.logger.line(LogLevel::Debug, "idle_closed") {
                        line.field("served", conn.served)
                            .field("idle_ms", now.duration_since(conn.since).as_millis())
                            .emit();
                    }
                }
            }
        }
    }
    // Workers may only exit once this is visible, or a connection
    // dispatched during the drain could be stranded in the queue.
    shared.reactor_done.store(true, Ordering::SeqCst);
    shared.available.notify_all();
}

/// Accepts until the listener would block, parking each connection.
/// Errors other than `WouldBlock` (fd exhaustion, aborted handshakes)
/// back off until the next listener event rather than spinning.
fn accept_burst(
    listener: &TcpListener,
    epoll: &Epoll,
    shared: &Shared,
    parked: &mut HashMap<u64, ParkedConn>,
    next_token: &mut u64,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn = shared.accepted.fetch_add(1, Ordering::SeqCst) + 1;
                journal::record(
                    EventKind::Accept,
                    conn,
                    0,
                    u64::from(stream.as_raw_fd().unsigned_abs()),
                );
                // Nagle would hold each small pipelined response until
                // the previous one is ACKed — a 40 ms delayed-ACK stall
                // per response. Responses are written whole, so there is
                // nothing for Nagle to coalesce anyway.
                let _ = stream.set_nodelay(true);
                park_conn(stream, conn, 0, epoll, shared, parked, next_token);
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

/// Registers a connection in the epoll set and parks it. If the fd
/// cannot be registered (fd pressure) the connection is dropped —
/// closed — rather than leaked outside the reactor's bookkeeping.
fn park_conn(
    stream: TcpStream,
    conn: u64,
    served: u64,
    epoll: &Epoll,
    shared: &Shared,
    parked: &mut HashMap<u64, ParkedConn>,
    next_token: &mut u64,
) {
    if let Err(e) = stream.set_nonblocking(true) {
        log_reactor_error(shared, "reactor_nonblocking_failed", &e);
        journal::record(EventKind::Close, conn, 0, served);
        shared.conns.remove(conn);
        return;
    }
    let token = *next_token;
    *next_token += 1;
    match epoll.add(stream.as_raw_fd(), token, CONN_EVENTS) {
        Ok(()) => {
            shared.conns.upsert(
                conn,
                ConnInfo {
                    fd: stream.as_raw_fd(),
                    state: ConnState::Parked,
                    since: Instant::now(),
                    served,
                    carry: 0,
                },
            );
            journal::record(EventKind::Park, conn, 0, served);
            parked.insert(
                token,
                ParkedConn {
                    stream,
                    conn,
                    served,
                    since: Instant::now(),
                },
            );
        }
        Err(e) => {
            log_reactor_error(shared, "reactor_register_failed", &e);
            journal::record(EventKind::Close, conn, 0, served);
            shared.conns.remove(conn);
        }
    }
}

/// Logs a reactor-side I/O failure at `error` level.
fn log_reactor_error(shared: &Shared, event: &str, e: &io::Error) {
    if let Some(line) = shared.logger.line(LogLevel::Error, event) {
        line.field("error", e.kind()).emit();
    }
}

/// Hands a readable connection to the worker pool, or answers 503
/// inline when the queue is full (or the `server.queue` fault fires).
fn dispatch_conn(conn: ParkedConn, shared: &Shared, queue_depth: usize) {
    let ParkedConn {
        stream,
        conn,
        served,
        ..
    } = conn;
    // Fault site: a `reject` rule makes this dispatch behave as if the
    // queue were full — same 503 path, same accounting — so chaos runs
    // exercise backpressure without needing real load.
    let injected_full = dram_faults::trip("server.queue").is_some();
    let mut queue = shared.lock_queue();
    if queue.len() >= queue_depth || injected_full {
        drop(queue);
        reject_busy(stream, conn, shared, queue_depth);
        return;
    }
    queue.push_back(QueuedConn {
        stream,
        conn,
        carry: Vec::new(),
        served,
        queued_at: Instant::now(),
    });
    let depth = queue.len();
    drop(queue);
    shared.conns.transition(conn, ConnState::Queued, served, 0);
    journal::record(EventKind::Dispatch, conn, 0, served);
    journal::record(EventKind::QueueEnter, conn, 0, depth as u64);
    shared.available.notify_one();
}

/// Backpressure: answer 503 inline on the reactor thread and close — a
/// rejected client never costs worker time. The dispatch was triggered
/// by readability, so one nonblocking read drains the request bytes
/// already here and closing doesn't RST the response away.
fn reject_busy(mut stream: TcpStream, conn: u64, shared: &Shared, queue_depth: usize) {
    shared.metrics.record_rejected();
    let id = shared.ids.next_id();
    journal::record(EventKind::Response, conn, id.seq, 503);
    let retry_after = shared.metrics.retry_after_secs();
    let mut scratch = [0u8; 8192];
    let _ = io::Read::read(&mut stream, &mut scratch);
    let _ = stream.set_nonblocking(false);
    let sent = Response::error(503, "server is at capacity, retry shortly")
        .with_header("retry-after", &retry_after.to_string())
        .with_header("x-request-id", &id.to_string())
        .send_within(&mut stream, shared.limits.io_timeout);
    if let Some(line) = shared.logger.line(LogLevel::Error, "rejected") {
        line.field("id", id)
            .field("status", 503)
            .field("queue_depth", queue_depth)
            .field("retry_after", retry_after)
            .field("write_ok", sent.is_ok())
            .emit();
    }
    journal::record(EventKind::Close, conn, 0, 0);
    shared.conns.remove(conn);
}

fn worker_loop(shared: &Shared, slot: usize) {
    let mut sentinel = DeathSentinel {
        shared,
        slot,
        armed: true,
    };
    loop {
        let conn = {
            let mut queue = shared.lock_queue();
            loop {
                if let Some(conn) = queue.pop_front() {
                    break Some(conn);
                }
                // Exit requires the reactor to be done: until then a
                // drain dispatch can still land in the queue, and a
                // worker that left early would strand it.
                if shared.shutting_down.load(Ordering::SeqCst)
                    && shared.reactor_done.load(Ordering::SeqCst)
                {
                    break None;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(conn) = conn else {
            // Clean exit (shutdown, queue drained): not a death.
            sentinel.armed = false;
            return;
        };
        if let Some(returned) = serve_connection(conn, shared) {
            shared
                .returns
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(returned);
            shared.wake.signal();
        }
        // Fault site: a `panic` rule kills this worker *between*
        // connections — responses were already sent and a quiet
        // connection already handed back, so the death costs capacity,
        // never a reply. The sentinel reports the slot and the
        // supervisor respawns it.
        dram_faults::trip("server.worker");
    }
}

/// What one served request decided about its connection.
enum Verdict {
    /// Serve another request: the connection stays open and these are
    /// the over-read bytes of the next pipelined request (often empty).
    Keep(Vec<u8>),
    /// Close: the client asked, a budget expired, the response failed
    /// to send, or the request failed and poisoned the connection.
    Close,
}

/// Serves requests off a dispatched connection until it goes quiet.
///
/// Pipelined requests (bytes already in the carry) are parsed and
/// answered back-to-back in order without returning to the reactor;
/// once the carry is empty after a kept-alive response, the connection
/// is handed back (`Some`) to be parked. `None` means the connection
/// was closed here.
///
/// Chunked-transfer requests to the streaming trace endpoint are handed
/// their still-on-the-wire body ([`serve_trace_stream`]); chunked
/// requests to any other route are drained into memory first (bounded
/// by [`Limits::max_body`]) and served exactly like buffered ones.
fn serve_connection(queued: QueuedConn, shared: &Shared) -> Option<ReturnedConn> {
    let QueuedConn {
        mut stream,
        conn,
        mut carry,
        mut served,
        queued_at,
    } = queued;
    // The reactor parks streams nonblocking; workers parse with
    // blocking reads under `read_bounded`'s timeout regime.
    if stream.set_nonblocking(false).is_err() {
        journal::record(EventKind::Close, conn, 0, served);
        shared.conns.remove(conn);
        return None;
    }
    // The connected socket's peer, captured once per dispatch: the
    // loopback gate for `/debug/*` keys on this, never on a header.
    let peer = stream.peer_addr().ok();
    let mut queue_wait = queued_at.elapsed();
    shared.metrics.note_queue_wait(queue_wait);
    journal::record(
        EventKind::QueueExit,
        conn,
        0,
        u64::try_from(queue_wait.as_micros()).unwrap_or(u64::MAX),
    );
    shared.conns.transition(conn, ConnState::Active, served, carry.len());
    let mut first_of_dispatch = true;
    loop {
        let started = Instant::now();
        let id = shared.ids.next_id();
        journal::record(EventKind::WorkerStart, conn, id.seq, served);
        // Ambient attribution: engine-cache, rebuild and fault events
        // recorded anywhere below this worker frame land on this
        // (conn, request) pair without API threading.
        journal::set_context(conn, id.seq);
        if first_of_dispatch {
            // Reactor-to-worker handoff time, attributed to the first
            // request of the dispatch. Manual because the interval
            // crosses threads: the reactor measured its start, this
            // worker its end.
            dram_obs::ManualSpan::new("server.queue", queued_at, started)
                .arg("id", id)
                .commit();
            first_of_dispatch = false;
        } else {
            shared.metrics.record_pipelined();
        }
        let mut request_span = dram_obs::span("server.request").arg("id", id);
        let inbound =
            http::read_inbound_after(&mut stream, &shared.limits, std::mem::take(&mut carry));
        let verdict = match inbound {
            Ok(http::Inbound::Buffered { request, leftover }) => {
                if served > 0 {
                    shared.metrics.record_keepalive_reuse();
                }
                serve_buffered(
                    &request,
                    leftover,
                    &mut stream,
                    shared,
                    id,
                    queue_wait,
                    started,
                    &mut request_span,
                    served,
                    peer,
                )
            }
            Ok(http::Inbound::Streaming {
                mut request,
                mut body,
            }) => {
                if served > 0 {
                    shared.metrics.record_keepalive_reuse();
                }
                let route = Route::classify(request.method.as_str(), request.path.as_str());
                if route == Route::Trace {
                    serve_trace_stream(
                        &request,
                        &mut stream,
                        &mut body,
                        shared,
                        id,
                        queue_wait,
                        started,
                        &mut request_span,
                        served,
                    )
                } else {
                    match body.read_all(&mut stream, shared.limits.max_body) {
                        Ok(bytes) => {
                            request.body = bytes;
                            let leftover = body.take_leftover();
                            serve_buffered(
                                &request,
                                leftover,
                                &mut stream,
                                shared,
                                id,
                                queue_wait,
                                started,
                                &mut request_span,
                                served,
                                peer,
                            )
                        }
                        Err(e) => {
                            answer_protocol_error(&e, &mut stream, shared, id, queue_wait, started);
                            Verdict::Close
                        }
                    }
                }
            }
            Err(ReadError::Closed) => {
                // Never-spoke probe, or a keep-alive peer hanging up
                // cleanly between requests: nothing to answer, nothing
                // to count, no slow sample. `ReadError` keeps this path
                // type-safe — `Closed` carries no status, so no response
                // can even be constructed for it.
                if let Some(line) = shared.logger.line(LogLevel::Debug, "peer_closed") {
                    line.field("id", id).field("served", served).emit();
                }
                Verdict::Close
            }
            Err(ReadError::Http(e)) => {
                answer_protocol_error(&e, &mut stream, shared, id, queue_wait, started);
                Verdict::Close
            }
        };
        journal::set_context(0, 0);
        match verdict {
            Verdict::Close => {
                journal::record(EventKind::Close, conn, 0, served);
                shared.conns.remove(conn);
                return None;
            }
            Verdict::Keep(next) => {
                served += 1;
                carry = next;
                // Tolerate a stray CRLF after a body (RFC 9112 §2.2) —
                // it is not the start of a pipelined request, and a
                // worker must not block waiting to complete one.
                while carry.starts_with(b"\r\n") {
                    carry.drain(..2);
                }
                if carry.is_empty() {
                    return Some(ReturnedConn { stream, conn, served });
                }
                shared.conns.transition(conn, ConnState::Active, served, carry.len());
                // A pipelined request is already (partially) buffered:
                // keep the worker and serve it immediately, in order.
                queue_wait = Duration::ZERO;
            }
        }
    }
}

/// Whether the connection survives this response: the client must want
/// it, the request budget must allow it, every error poisons it
/// (pipelined bytes behind a failed request are never trusted — the
/// parsers may have desynced), and a draining server closes everything.
fn keep_decision(req: &http::Request, status: u16, served: u64, shared: &Shared) -> bool {
    req.wants_keep_alive()
        && status < 400
        && served + 1 < shared.max_requests_per_conn
        && !shared.shutting_down.load(Ordering::SeqCst)
}

/// Answers a fully-buffered request: route, handle, send, record.
#[allow(clippy::too_many_arguments)]
fn serve_buffered(
    req: &http::Request,
    leftover: Vec<u8>,
    stream: &mut TcpStream,
    shared: &Shared,
    id: RequestId,
    queue_wait: std::time::Duration,
    started: Instant,
    request_span: &mut dram_obs::SpanGuard,
    served: u64,
    peer: Option<SocketAddr>,
) -> Verdict {
    let (route, response, cache) = handle_request(req, shared, id, peer);
    let handle_time = started.elapsed();
    let keep = keep_decision(req, response.status, served, shared);
    request_span.add_arg("route", route.label());
    request_span.add_arg("status", response.status);
    let response = response
        .with_header("x-request-id", &id.to_string())
        .with_keep_alive(keep);
    let sent = response.send_within(stream, shared.limits.io_timeout);
    journal::note(EventKind::Response, u64::from(response.status));
    let rendered_id = id.to_string();
    shared.metrics.observe(&RequestRecord {
        id: &rendered_id,
        route,
        status: response.status,
        queue_wait,
        handle: handle_time,
        cache_hits: cache.hits,
        cache_misses: cache.misses,
    });
    log_request(
        shared,
        &rendered_id,
        route.label(),
        response.status,
        queue_wait,
        handle_time,
        cache.hits,
        cache.misses,
        &sent,
    );
    if keep && sent.is_ok() {
        Verdict::Keep(leftover)
    } else {
        Verdict::Close
    }
}

/// Answers `POST /v1/trace` with a chunked body still on the wire: the
/// handler pulls decoded chunks through the trace decoder as they
/// arrive, so the body is never buffered whole. The route counts as
/// expensive for load shedding (it holds its worker for the entire
/// upload) and the handler runs under the same `catch_unwind` as the
/// buffered path.
#[allow(clippy::too_many_arguments)]
fn serve_trace_stream(
    req: &http::Request,
    stream: &mut TcpStream,
    body: &mut http::ChunkedBody,
    shared: &Shared,
    id: RequestId,
    queue_wait: std::time::Duration,
    started: Instant,
    request_span: &mut dram_obs::SpanGuard,
    served: u64,
) -> Verdict {
    let route = Route::Trace;
    let (response, cache) = if let Some(response) = shed_response(shared, route) {
        (response, CacheActivity::default())
    } else {
        let handled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _s = dram_obs::span("server.trace_stream").arg("id", id);
            api::handle_trace_stream(req, stream, body)
        }));
        match handled {
            Ok(result) => result,
            Err(payload) => {
                shared.metrics.record_worker_panic();
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
            }
        }
    };
    let handle_time = started.elapsed();
    let keep = keep_decision(req, response.status, served, shared);
    request_span.add_arg("route", route.label());
    request_span.add_arg("status", response.status);
    let response = response
        .with_header("x-request-id", &id.to_string())
        .with_keep_alive(keep);
    let sent = response.send_within(stream, shared.limits.io_timeout);
    journal::note(EventKind::Response, u64::from(response.status));
    let rendered_id = id.to_string();
    shared.metrics.observe(&RequestRecord {
        id: &rendered_id,
        route,
        status: response.status,
        queue_wait,
        handle: handle_time,
        cache_hits: cache.hits,
        cache_misses: cache.misses,
    });
    log_request(
        shared,
        &rendered_id,
        route.label(),
        response.status,
        queue_wait,
        handle_time,
        cache.hits,
        cache.misses,
        &sent,
    );
    if response.status >= 400 {
        // The upload was cut short (shed, protocol error, trace error)
        // and the client may still be sending: drain briefly so closing
        // doesn't RST the response out of its receive buffer.
        drain_after_error(stream);
        return Verdict::Close;
    }
    if keep && sent.is_ok() {
        // The stream was fully consumed; anything past the chunked
        // terminator is the next pipelined request.
        Verdict::Keep(body.take_leftover())
    } else {
        Verdict::Close
    }
}

/// Answers a protocol-level failure (bad framing, oversized payload,
/// deadline) with its 4xx, records it under [`Route::Other`], and
/// drains what the client already sent. Always followed by a close:
/// after a framing error the connection's byte stream cannot be
/// trusted, so any buffered pipelined requests die with it.
fn answer_protocol_error(
    e: &http::HttpError,
    stream: &mut TcpStream,
    shared: &Shared,
    id: RequestId,
    queue_wait: std::time::Duration,
    started: Instant,
) {
    let handle_time = started.elapsed();
    let response =
        Response::error(e.status(), &e.message()).with_header("x-request-id", &id.to_string());
    let sent = response.send_within(stream, shared.limits.io_timeout);
    journal::note(EventKind::Response, u64::from(e.status()));
    let rendered_id = id.to_string();
    shared.metrics.observe(&RequestRecord {
        id: &rendered_id,
        route: Route::Other,
        status: e.status(),
        queue_wait,
        handle: handle_time,
        cache_hits: 0,
        cache_misses: 0,
    });
    log_request(
        shared,
        &rendered_id,
        Route::Other.label(),
        e.status(),
        queue_wait,
        handle_time,
        0,
        0,
        &sent,
    );
    // The request was not fully read; drain what the client already
    // sent so closing the socket doesn't RST the response out of its
    // receive buffer.
    drain_after_error(stream);
}

/// Bounded post-error drain. The hard cap matters: a client that keeps
/// trickling after its 408 must not keep holding the worker it just
/// timed out on.
fn drain_after_error(stream: &mut TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(100)));
    let drain_until = Instant::now() + std::time::Duration::from_millis(500);
    let mut scratch = [0u8; 8192];
    while Instant::now() < drain_until {
        match io::Read::read(stream, &mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Routes one parsed request: the load-shedding check first, then the
/// API handler under `catch_unwind`.
///
/// Shedding: when a watermark is configured and the queue is at or above
/// it, expensive routes are answered 503 with the adaptive `Retry-After`
/// instead of handled — cheap routes still get through, so health checks
/// and metrics scrapes keep working while a backlog clears.
///
/// Panic isolation: a panicking handler answers 500 (carrying
/// `x-request-id` like every response, added by the caller) instead of
/// unwinding through the worker; the panic is counted in
/// `worker_panics_total` and logged with its message.
fn handle_request(
    req: &http::Request,
    shared: &Shared,
    id: RequestId,
    peer: Option<SocketAddr>,
) -> (Route, Response, CacheActivity) {
    let route = Route::classify(req.method.as_str(), req.path.as_str());
    if route == Route::Debug {
        // The loopback-gated introspection router. Short-circuited
        // before shedding and before `api::handle`: debug requests must
        // work exactly when the server is in trouble, and the gate
        // needs the peer address only this front end knows.
        let response = crate::debug::handle(req, peer, &shared.conns);
        return (route, response, CacheActivity::default());
    }
    if let Some(response) = shed_response(shared, route) {
        return (route, response, CacheActivity::default());
    }
    let handled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _s = dram_obs::span("server.handle").arg("id", id);
        api::handle(req, &shared.metrics)
    }));
    match handled {
        Ok(result) => result,
        Err(payload) => {
            shared.metrics.record_worker_panic();
            let message = dram_core::batch::panic_message(payload.as_ref());
            if let Some(line) = shared.logger.line(LogLevel::Error, "handler_panicked") {
                line.field("id", id)
                    .field("route", route.label())
                    .field("panic", &message)
                    .emit();
            }
            (
                route,
                Response::error(500, "internal error: request handler panicked"),
                CacheActivity::default(),
            )
        }
    }
}

/// The load-shedding check: when a watermark is configured and the
/// queue is at or above it, expensive routes are answered 503 with the
/// adaptive `Retry-After` instead of handled.
fn shed_response(shared: &Shared, route: Route) -> Option<Response> {
    let watermark = shared.shed_at?;
    if route.expensive() && shared.lock_queue().len() >= watermark {
        shared.metrics.record_shed();
        let retry_after = shared.metrics.retry_after_secs();
        return Some(
            Response::error(503, "server is shedding expensive requests, retry shortly")
                .with_header("retry-after", &retry_after.to_string()),
        );
    }
    None
}

/// Emits the one structured line a served request gets: `info` normally,
/// escalated to `error` for 5xx responses or a failed response write.
/// Exactly one response was (attempted to be) written before this —
/// a write failure is logged, never "fixed" with a second response.
#[allow(clippy::too_many_arguments)]
fn log_request(
    shared: &Shared,
    id: &str,
    route: &str,
    status: u16,
    queue_wait: std::time::Duration,
    handle_time: std::time::Duration,
    cache_hits: u32,
    cache_misses: u32,
    sent: &io::Result<()>,
) {
    let level = if status >= 500 || sent.is_err() {
        LogLevel::Error
    } else {
        LogLevel::Info
    };
    let Some(line) = shared.logger.line(level, "request") else {
        return;
    };
    let mut line = line
        .field("id", id)
        .field("route", route)
        .field("status", status)
        .field("queue_us", queue_wait.as_micros())
        .field("handle_us", handle_time.as_micros())
        .field("cache_hits", cache_hits)
        .field("cache_misses", cache_misses);
    if let Err(e) = sent {
        line = line.field("write_error", e.kind());
    }
    line.emit();
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
    /// dispatched or showing readable bytes, close parked idle
    /// connections, join all threads. Returns the number of requests
    /// served over the server's lifetime.
    pub fn shutdown(mut self) -> u64 {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        // Interrupt the reactor's wait; it runs the drain and exits,
        // which also closes the listener (the port frees here).
        self.shared.wake.signal();
        if let Some(t) = self.reactor_thread.take() {
            let _ = t.join();
        }
        // Workers drain the queue, then observe both flags and exit;
        // the supervisor joins them all (respawning any that die
        // mid-drain) before exiting itself.
        self.shared.available.notify_all();
        self.shared.reaper.notify_all();
        if let Some(t) = self.supervisor.take() {
            let _ = t.join();
        }
        self.shared.metrics.total()
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
        assert_eq!(handle.metrics().rejected(), 1);
        handle.shutdown();
    }
}
