//! Fault-armed protocol tests: what a wire-level client sees when
//! deterministic faults fire inside the server.
//!
//! This file arms the process-global `dram_faults` runtime, so it is an
//! integration test binary of its own: cargo gives it a dedicated
//! process and the rest of the suite never sees an armed plan. Tests in
//! this file serialize on [`exclusive`] because they share that one
//! runtime.

use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use dram_server::client::{Conn, Reply};
use dram_server::{serve, ServerConfig, ServerHandle};
use dram_units::json::obj;

static EXCLUSIVE: Mutex<()> = Mutex::new(());

/// Serializes fault-armed tests; a panicking test must not wedge the
/// rest, so lock poisoning is ignored.
fn exclusive() -> MutexGuard<'static, ()> {
    let guard = EXCLUSIVE.lock().unwrap_or_else(PoisonError::into_inner);
    dram_faults::disarm();
    guard
}

fn start(threads: usize) -> ServerHandle {
    serve(
        "127.0.0.1:0",
        ServerConfig {
            threads,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral")
}

/// Sends one well-formed request, returns the reply.
fn raw_request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Reply {
    use std::io::Write;
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(
        format!(
            "{method} {path} HTTP/1.1\r\nhost: t\r\ncontent-type: application/json\r\n\
             content-length: {}\r\nconnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
    .expect("send");
    Conn::new(s).read_to_close().expect("recv")
}

fn request_id(reply: &Reply) -> Option<String> {
    reply.header("x-request-id").map(str::to_string)
}

/// An evaluate body whose description is a guaranteed cache miss (the
/// name is part of the engine's cache key).
fn fresh_description_body(name: &str) -> String {
    let mut desc = dram_core::reference::ddr3_1g_x16_55nm();
    desc.name = name.to_string();
    let text = dram_dsl::write(&desc, None);
    obj(vec![("description", text.as_str().into())]).to_string()
}

/// An injected handler panic answers 500 *with* an `x-request-id`, the
/// worker pool survives, and the very next request (same description,
/// panic budget spent) succeeds — the panic is isolated, not sticky.
#[test]
fn injected_handler_panic_is_500_with_id_and_the_pool_recovers() {
    let _guard = exclusive();
    let plan = dram_faults::Plan::parse("seed=3;engine.build=panic:times=1").expect("plan");
    dram_faults::arm(&plan);

    let server = start(2);
    let addr = server.local_addr();
    let body = fresh_description_body("chaos protocol panic probe");

    let reply = raw_request(addr, "POST", "/v1/evaluate", &body);
    assert_eq!(reply.status(), 500, "{reply:?}");
    assert!(reply.text().contains("request handler panicked"), "{reply:?}");
    let panicked_id = request_id(&reply).expect("500 must carry x-request-id");

    // Budget exhausted: the identical request now builds and serves.
    let reply = raw_request(addr, "POST", "/v1/evaluate", &body);
    assert_eq!(reply.status(), 200, "{reply:?}");
    let ok_id = request_id(&reply).expect("200 must carry x-request-id");
    assert_ne!(panicked_id, ok_id);

    // The panic was caught in the handler, not a worker death: counted
    // as a panic, no respawn needed.
    assert_eq!(server.metrics().worker_panics.get(), 1);
    assert_eq!(server.metrics().worker_respawns.get(), 0);
    assert_eq!(dram_faults::injected_total(), 1);
    server.shutdown();
    dram_faults::disarm();
}

/// A `server.worker` kill (p=1: every served connection murders its
/// worker) never loses a response: the reply is written before the kill,
/// the supervisor respawns the slot, and the service keeps answering.
#[test]
fn killed_workers_are_respawned_and_requests_keep_flowing() {
    let _guard = exclusive();
    let plan = dram_faults::Plan::parse("seed=5;server.worker=panic").expect("plan");
    dram_faults::arm(&plan);

    let server = start(2);
    let addr = server.local_addr();
    for _ in 0..5 {
        let reply = raw_request(addr, "GET", "/healthz", "");
        assert_eq!(reply.status(), 200, "{reply:?}");
        assert!(reply.text().ends_with("{\"status\":\"ok\"}"), "{reply:?}");
    }

    // Respawning is asynchronous; wait for the supervisor to catch up.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.metrics().worker_respawns.get() < 3 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let respawns = server.metrics().worker_respawns.get();
    assert!(respawns >= 3, "only {respawns} respawns after 5 kills");

    // Disarm and prove the pool is healthy again, then drain cleanly.
    dram_faults::disarm();
    let reply = raw_request(addr, "GET", "/healthz", "");
    assert_eq!(reply.status(), 200, "{reply:?}");
    assert_eq!(server.shutdown(), 6);
}

/// Injected short writes slice every response into byte-sized socket
/// writes; the client still receives it intact, bit for bit.
#[test]
fn short_writes_still_deliver_intact_responses() {
    let _guard = exclusive();

    let server = start(1);
    let addr = server.local_addr();
    let clean = raw_request(addr, "GET", "/v1/presets", "");
    assert_eq!(clean.status(), 200);

    let plan = dram_faults::Plan::parse("seed=9;http.write=short").expect("plan");
    dram_faults::arm(&plan);
    let shorted = raw_request(addr, "GET", "/v1/presets", "");
    assert!(dram_faults::injected_total() >= 1, "short-write never fired");
    dram_faults::disarm();

    // Identical except for the per-request id header.
    let strip = |reply: &Reply| {
        let mut reply = reply.clone();
        reply.head.headers.retain(|(name, _)| name != "x-request-id");
        reply
    };
    assert_eq!(strip(&clean), strip(&shorted));
    server.shutdown();
}

/// A `server.queue` reject burst answers 503 + `Retry-After` +
/// `x-request-id` for exactly the budgeted connections, then recovers.
#[test]
fn queue_reject_burst_is_bounded_and_recovers() {
    let _guard = exclusive();
    let plan = dram_faults::Plan::parse("seed=11;server.queue=reject:times=2").expect("plan");
    dram_faults::arm(&plan);

    let server = start(1);
    let addr = server.local_addr();
    for _ in 0..2 {
        let reply = raw_request(addr, "GET", "/healthz", "");
        assert_eq!(reply.status(), 503, "{reply:?}");
        assert!(reply.header("retry-after").is_some(), "{reply:?}");
        assert!(request_id(&reply).is_some(), "503 without x-request-id");
    }
    let reply = raw_request(addr, "GET", "/healthz", "");
    assert_eq!(reply.status(), 200, "{reply:?}");
    assert_eq!(server.metrics().rejected_busy.get(), 2);
    assert_eq!(dram_faults::injected_total(), 2);
    server.shutdown();
    dram_faults::disarm();
}

/// The `/metrics` Prometheus scrape exports the injected-fault series
/// alongside the supervision counters, so dashboards can correlate
/// injected cause with observed effect.
#[test]
fn prometheus_scrape_accounts_for_injected_faults() {
    let _guard = exclusive();
    let plan = dram_faults::Plan::parse("seed=13;server.queue=reject:times=3").expect("plan");
    dram_faults::arm(&plan);

    let server = start(1);
    let addr = server.local_addr();
    for _ in 0..3 {
        let reply = raw_request(addr, "GET", "/healthz", "");
        assert_eq!(reply.status(), 503, "{reply:?}");
    }
    let scrape = raw_request(addr, "GET", "/metrics?format=prometheus", "");
    assert_eq!(scrape.status(), 200, "{scrape:?}");
    let metric = dram_faults::metric_name("server.queue");
    let text = scrape.text();
    let value: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix(metric.as_str()))
        .and_then(|rest| rest.trim().parse().ok())
        .unwrap_or_else(|| panic!("scrape is missing {metric}:\n{text}"));
    // The registry series is cumulative across arms (sibling tests in
    // this process may have fired the same site), so it bounds from
    // below; the per-arm counter and the per-server counter are exact.
    assert!(value >= 3.0, "{metric} = {value}");
    assert_eq!(dram_faults::injected_total(), 3);
    assert!(
        text.contains("dram_serve_rejected_busy_total 3"),
        "{text}"
    );
    assert!(
        text.contains("dram_serve_worker_respawns_total 0"),
        "{text}"
    );
    server.shutdown();
    dram_faults::disarm();
}
