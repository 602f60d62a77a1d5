//! End-to-end tests for the `/debug/*` introspection family: the
//! flight-recorder endpoints over real sockets, the loopback gate
//! against a genuinely non-loopback peer, and the guarantee that debug
//! traffic never pollutes `slow_requests` sampling.
//!
//! The journal and the profiling window are process-global, so every
//! test that configures the journal or opens `/debug/profile` runs under
//! one mutex (a second profile window would get 409), and journal users
//! restore size 0 before releasing it.

use std::io::Write;
use std::net::{IpAddr, SocketAddr, TcpStream, UdpSocket};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

use dram_server::client::Conn;
use dram_server::{serve, ServerConfig, ServerHandle};
use dram_units::json::Value;

/// Serializes tests that touch the global journal or profiling switch.
fn journal_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn start() -> ServerHandle {
    serve("127.0.0.1:0", ServerConfig::default()).expect("bind ephemeral")
}

/// One close-per-request HTTP exchange; returns (status, body, id).
fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    s.write_all(
        format!(
            "{method} {path} HTTP/1.1\r\nhost: t\r\ncontent-type: application/json\r\n\
             content-length: {}\r\nconnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
    .expect("send");
    let reply = Conn::new(s).read_to_close().expect("recv");
    let id = reply.header("x-request-id").unwrap_or_default().to_string();
    (reply.status(), reply.text().into_owned(), id)
}

#[test]
fn debug_family_reconstructs_timelines_and_profiles_live() {
    let _guard = journal_lock();
    dram_obs::journal::configure(4096);
    let handle = start();
    let addr = handle.local_addr();

    // One real request to have something to reconstruct.
    let (status, body, id) = exchange(addr, "POST", "/v1/evaluate", r#"{"preset":"ddr3_1g_55nm"}"#);
    assert_eq!(status, 200, "evaluate failed: {body}");
    assert!(!id.is_empty(), "evaluate response carried no x-request-id");

    // /debug/events returns recent journal entries as JSON.
    let (status, body, _) = exchange(addr, "GET", "/debug/events?n=64", "");
    assert_eq!(status, 200, "{body}");
    let doc = Value::parse(&body).expect("events JSON parses");
    let events = doc
        .get("events")
        .and_then(Value::as_array)
        .expect("events array");
    assert!(!events.is_empty(), "journal recorded nothing");

    // /debug/requests/<id> reconstructs the full lifecycle, in order.
    let (status, body, _) = exchange(addr, "GET", &format!("/debug/requests/{id}"), "");
    assert_eq!(status, 200, "{body}");
    let doc = Value::parse(&body).expect("timeline JSON parses");
    assert_eq!(
        doc.get("complete").and_then(Value::as_bool),
        Some(true),
        "{body}"
    );
    let kinds: Vec<String> = doc
        .get("events")
        .and_then(Value::as_array)
        .expect("timeline events")
        .iter()
        .filter_map(|e| e.get("kind").and_then(Value::as_str).map(String::from))
        .collect();
    let mut cursor = 0usize;
    for want in ["accept", "dispatch", "worker_start", "response"] {
        let found = kinds[cursor..]
            .iter()
            .position(|k| k == want)
            .unwrap_or_else(|| panic!("missing `{want}` after {cursor} in {kinds:?}"));
        cursor += found;
    }

    // An unknown id is a 404, not an empty timeline.
    let (status, _, _) = exchange(addr, "GET", "/debug/requests/1-ffffffff", "");
    assert_eq!(status, 404);

    // /debug/reactor lists the live connection table.
    let (status, body, _) = exchange(addr, "GET", "/debug/reactor", "");
    assert_eq!(status, 200, "{body}");
    let doc = Value::parse(&body).expect("reactor JSON parses");
    assert!(
        doc.get("table").and_then(Value::as_array).is_some(),
        "{body}"
    );
    assert_eq!(
        doc.get("journal_enabled").and_then(Value::as_bool),
        Some(true)
    );

    // /debug/profile arms span recording live and returns Chrome-trace
    // JSON that round-trips through the workspace codec.
    let (status, body, _) = exchange(addr, "GET", "/debug/profile?ms=30", "");
    assert_eq!(status, 200, "{body}");
    let doc = Value::parse(&body).expect("profile output is valid JSON");
    assert!(
        doc.get("traceEvents").and_then(Value::as_array).is_some(),
        "profile output is not a Chrome trace: {body}"
    );
    // The window disarmed recording again (the server was booted
    // without --profile).
    assert!(
        !dram_obs::enabled(),
        "profile window left recording enabled"
    );

    handle.shutdown();
    dram_obs::journal::configure(0);
}

#[test]
fn journal_disabled_yields_409_for_journal_endpoints() {
    let _guard = journal_lock();
    dram_obs::journal::configure(0);
    let handle = start();
    let addr = handle.local_addr();
    let (status, body, _) = exchange(addr, "GET", "/debug/events", "");
    assert_eq!(status, 409, "{body}");
    let (status, _, _) = exchange(addr, "GET", "/debug/requests/1-00000001", "");
    assert_eq!(status, 409);
    // The index and the reactor table work without the journal.
    let (status, _, _) = exchange(addr, "GET", "/debug", "");
    assert_eq!(status, 200);
    let (status, _, _) = exchange(addr, "GET", "/debug/reactor", "");
    assert_eq!(status, 200);
    handle.shutdown();
}

/// A local IP that is *not* loopback, if the host has one. Routing a
/// UDP socket at a public address reveals the outbound interface
/// without sending a packet.
fn non_loopback_ip() -> Option<IpAddr> {
    let probe = UdpSocket::bind("0.0.0.0:0").ok()?;
    probe.connect("192.0.2.1:9").ok()?;
    let ip = probe.local_addr().ok()?.ip();
    (!ip.is_loopback()).then_some(ip)
}

#[test]
fn non_loopback_peers_are_refused_with_a_detail_free_404() {
    let Some(ip) = non_loopback_ip() else {
        eprintln!("skipping: host has no non-loopback interface");
        return;
    };
    // The gate answers before any profile window opens, but a broken
    // gate must fail this test, not a concurrent one.
    let _guard = journal_lock();
    // Bind on all interfaces so a connection routed via the external
    // address arrives with a non-loopback peer.
    let handle = serve("0.0.0.0:0", ServerConfig::default()).expect("bind all interfaces");
    let addr = SocketAddr::new(ip, handle.local_addr().port());

    for path in [
        "/debug",
        "/debug/events",
        "/debug/requests/1-00000001",
        "/debug/reactor",
        "/debug/profile?ms=10",
    ] {
        let (status, body, _) = exchange(addr, "GET", path, "");
        assert_eq!(status, 404, "{path} admitted a non-loopback peer");
        assert_eq!(
            body, "{\"error\":\"not found\"}",
            "{path} leaked details to a non-loopback peer"
        );
    }
    // Same peer, non-debug route: served normally. The gate is about
    // the debug family, not a firewall.
    let (status, _, _) = exchange(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    handle.shutdown();
}

#[test]
fn debug_requests_never_enter_slow_request_sampling() {
    // Opens a profile window below.
    let _guard = journal_lock();
    let handle = start();
    let addr = handle.local_addr();
    // Debug traffic — including the slow profile endpoint, the worst
    // case: it holds a worker for the whole window and would dominate
    // any latency sample it were allowed into.
    for _ in 0..3 {
        let (status, _, _) = exchange(addr, "GET", "/debug", "");
        assert_eq!(status, 200);
    }
    let (status, body, _) = exchange(addr, "GET", "/debug/profile?ms=80", "");
    assert_eq!(status, 200, "{body}");

    let (status, body, _) = exchange(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let doc = Value::parse(&body).expect("metrics JSON parses");
    // Counted as requests…
    let debug_count = doc
        .get("requests_by_route")
        .and_then(|r| r.get("debug"))
        .and_then(Value::as_f64)
        .expect("debug route counter");
    assert!(
        debug_count >= 4.0,
        "debug requests not counted: {debug_count}"
    );
    // …but never sampled as slow.
    let samples = doc
        .get("slow_requests")
        .and_then(|s| s.get("debug"))
        .and_then(Value::as_array)
        .expect("slow_requests.debug array");
    assert!(
        samples.is_empty(),
        "debug requests leaked into slow_requests: {samples:?}"
    );
    handle.shutdown();
}

/// A keep-alive request that its worker serves from the held, quiet
/// connection never queued: its timeline is complete, the worker itself
/// records the `wake`, and no `server.queue` span carries its id — while
/// the connection's first request, dispatched by the reactor, has both
/// a reactor `wake` and a queue span. Between requests `/debug/reactor`
/// lists the held connection as parked.
#[test]
fn a_held_request_never_queues_and_its_connection_shows_parked() {
    let _guard = journal_lock();
    dram_obs::journal::configure(4096);
    dram_obs::set_enabled(true);
    let handle = start();
    let addr = handle.local_addr();

    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut conn = Conn::new(stream);
    let mut ids = Vec::new();
    for _ in 0..2 {
        conn.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n")
            .expect("send");
        let reply = conn.read_response().expect("reply");
        assert_eq!(reply.status(), 200, "{reply:?}");
        ids.push(reply.header("x-request-id").expect("id").to_string());
    }

    // The worker marks its connection parked just after the write the
    // client has already read; give that a bounded moment to land.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    let held_row = loop {
        let (status, body, _) = exchange(addr, "GET", "/debug/reactor", "");
        assert_eq!(status, 200, "{body}");
        let doc = Value::parse(&body).expect("reactor JSON parses");
        let rows = doc.get("table").and_then(Value::as_array).expect("table");
        let row = rows
            .iter()
            .find(|r| r.get("served").and_then(Value::as_f64) == Some(2.0))
            .map(|r| {
                r.get("state")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string()
            });
        if row.as_deref() == Some("parked") || std::time::Instant::now() > deadline {
            break row;
        }
    };
    assert_eq!(
        held_row.as_deref(),
        Some("parked"),
        "the held connection's row"
    );

    // (wake thread, worker_start thread, kinds between the two, span
    // names) of one request's timeline.
    let timeline = |id: &str| {
        let (status, body, _) = exchange(addr, "GET", &format!("/debug/requests/{id}"), "");
        assert_eq!(status, 200, "{body}");
        let doc = Value::parse(&body).expect("timeline JSON parses");
        assert_eq!(
            doc.get("complete").and_then(Value::as_bool),
            Some(true),
            "{body}"
        );
        let events = doc.get("events").and_then(Value::as_array).expect("events");
        let start = events
            .iter()
            .position(|e| e.get("kind").and_then(Value::as_str) == Some("worker_start"))
            .unwrap_or_else(|| panic!("no worker_start: {body}"));
        let kind = |e: &Value| {
            e.get("kind")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string()
        };
        let wake = events[..start]
            .iter()
            .rposition(|e| kind(e) == "wake")
            .unwrap_or_else(|| panic!("no wake before worker_start: {body}"));
        let between: Vec<String> = events[wake + 1..start].iter().map(kind).collect();
        let thread = |e: &Value| e.get("thread").and_then(Value::as_f64).expect("thread");
        let spans: Vec<String> = doc
            .get("spans")
            .and_then(Value::as_array)
            .expect("spans")
            .iter()
            .filter_map(|s| s.get("name").and_then(Value::as_str).map(String::from))
            .collect();
        (
            thread(&events[wake]),
            thread(&events[start]),
            between,
            spans,
        )
    };
    let (reactor_wake, first_worker, queued, first_spans) = timeline(&ids[0]);
    assert_ne!(
        reactor_wake, first_worker,
        "the reactor wakes a parked connection"
    );
    assert_eq!(queued, ["dispatch", "queue_enter", "queue_exit"]);
    assert!(
        first_spans.iter().any(|s| s == "server.queue"),
        "{first_spans:?}"
    );
    let (held_wake, held_worker, between, held_spans) = timeline(&ids[1]);
    assert_eq!(
        held_wake, held_worker,
        "the holding worker records the wake"
    );
    assert!(
        between.is_empty(),
        "a held request passed through {between:?}"
    );
    assert!(
        !held_spans.iter().any(|s| s == "server.queue"),
        "a held request recorded a queue wait: {held_spans:?}"
    );

    dram_obs::set_enabled(false);
    drop(conn);
    handle.shutdown();
    dram_obs::journal::configure(0);
}
