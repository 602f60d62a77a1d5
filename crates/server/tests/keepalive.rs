//! Connection-lifecycle tests: HTTP/1.1 keep-alive reuse, pipelining
//! order, failure poisoning, idle-timeout and max-request budgets,
//! `Expect: 100-continue`, and keep-alive interacting with chunked
//! trace streaming. All raw-socket, because the subject under test is
//! exactly what happens *between* requests on one connection.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use dram_server::client::{self, Conn, Reply};
use dram_server::{serve, ServerConfig, ServerHandle};

fn start(config: ServerConfig) -> ServerHandle {
    serve("127.0.0.1:0", config).expect("bind ephemeral")
}

fn connect(addr: SocketAddr) -> Conn {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    Conn::new(s)
}

/// Reads exactly one response, leaving the connection positioned at the
/// next one. Interim 1xx responses carry no body.
fn read_reply(s: &mut Conn) -> Reply {
    s.read_response().expect("one complete response")
}

fn id(reply: &Reply) -> String {
    reply
        .header("x-request-id")
        .expect("x-request-id")
        .to_string()
}

/// True once `read` reports EOF (within the socket's read timeout) with
/// no byte left over from earlier responses.
fn at_eof(s: &mut Conn) -> bool {
    let mut scratch = [0u8; 64];
    matches!(s.read(&mut scratch), Ok(0))
}

fn evaluate_request() -> String {
    let body = r#"{"preset":"ddr3_1g_x16_55nm"}"#;
    format!(
        "POST /v1/evaluate HTTP/1.1\r\nhost: t\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n{body}",
        body.len()
    )
}

#[test]
fn sequential_requests_share_one_connection() {
    let server = start(ServerConfig::default());
    // Baseline from a one-shot close-mode request: earlier suites prove
    // this body bit-identical to the direct library call.
    let baseline = {
        let mut s = connect(server.local_addr());
        let req = evaluate_request().replace("\r\n\r\n", "\r\nconnection: close\r\n\r\n");
        s.write_all(req.as_bytes()).expect("send");
        read_reply(&mut s)
    };
    assert_eq!(baseline.status(), 200);

    let mut s = connect(server.local_addr());
    let mut ids = vec![id(&baseline)];
    for i in 0..5 {
        s.write_all(evaluate_request().as_bytes()).expect("send");
        let reply = read_reply(&mut s);
        assert_eq!(reply.status(), 200, "request {i}");
        assert_eq!(reply.text(), baseline.text(), "request {i} body drifted");
        assert_eq!(
            reply.header("connection"),
            Some("keep-alive"),
            "{:?}",
            reply.head
        );
        ids.push(id(&reply));
    }
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), 6, "every response needs its own x-request-id");
    // Five responses on one connection = four reuses.
    assert_eq!(server.metrics().keepalive_reuses.get(), 4);
    assert_eq!(server.shutdown(), 6);
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let server = start(ServerConfig::default());
    let mut s = connect(server.local_addr());
    let batch = "GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n\
                 GET /v1/presets HTTP/1.1\r\nhost: t\r\n\r\n";
    s.write_all(batch.as_bytes()).expect("send");
    let first = read_reply(&mut s);
    let second = read_reply(&mut s);
    assert_eq!(first.status(), 200);
    assert_eq!(first.text(), "{\"status\":\"ok\"}");
    assert_eq!(second.status(), 200);
    assert!(second.text().contains("\"count\""), "{}", second.text());
    assert_ne!(id(&first), id(&second));
    // The second request was served from the first one's carry without
    // a reactor round-trip.
    assert!(
        server.metrics().pipelined_requests.get() >= 1,
        "pipelined counter: {}",
        server.metrics().pipelined_requests.get()
    );
    assert_eq!(server.shutdown(), 2);
}

#[test]
fn failed_request_poisons_only_its_connection() {
    let server = start(ServerConfig::default());
    let mut s = connect(server.local_addr());
    // A pipelined pair where the first request fails in its handler:
    // the second must be *discarded*, never parsed — after an error the
    // buffered remainder cannot be trusted (request-smuggling hazard).
    let bad = "POST /v1/evaluate HTTP/1.1\r\nhost: t\r\ncontent-length: 8\r\n\r\nnot json";
    let batch = format!("{bad}GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n");
    s.write_all(batch.as_bytes()).expect("send");
    let reply = read_reply(&mut s);
    assert_eq!(reply.status(), 400, "{:?}", reply.head);
    assert_eq!(
        reply.header("connection"),
        Some("close"),
        "{:?}",
        reply.head
    );
    assert!(at_eof(&mut s), "connection must close after the failure");

    // Only the failed request was served; the pipelined healthz died
    // with the connection. A fresh connection works fine.
    let mut fresh = connect(server.local_addr());
    fresh
        .write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n")
        .expect("send");
    assert_eq!(read_reply(&mut fresh).status(), 200);
    assert_eq!(server.shutdown(), 2);
}

#[test]
fn idle_connections_are_closed_by_the_reactor() {
    let server = start(ServerConfig {
        idle_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    // One connection that never speaks, one parked after a served
    // request: the sweep closes both.
    let mut silent = connect(server.local_addr());
    let mut spoke = connect(server.local_addr());
    spoke
        .write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n")
        .expect("send");
    let reply = read_reply(&mut spoke);
    assert_eq!(reply.status(), 200);
    assert_eq!(reply.header("connection"), Some("keep-alive"));

    let patience = Instant::now() + Duration::from_secs(5);
    assert!(at_eof(&mut silent), "silent connection not idle-closed");
    assert!(at_eof(&mut spoke), "parked connection not idle-closed");
    assert!(Instant::now() < patience, "idle close took too long");
    assert_eq!(server.metrics().idle_closed.get(), 2);
    assert_eq!(server.shutdown(), 1);
}

#[test]
fn max_requests_budget_forces_close() {
    let server = start(ServerConfig {
        max_requests_per_conn: 3,
        ..ServerConfig::default()
    });
    let mut s = connect(server.local_addr());
    for i in 0..3 {
        s.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n")
            .expect("send");
        let reply = read_reply(&mut s);
        assert_eq!(reply.status(), 200, "request {i}");
        let expected = if i < 2 { "keep-alive" } else { "close" };
        assert_eq!(reply.header("connection"), Some(expected), "request {i}");
    }
    assert!(at_eof(&mut s), "budget exhausted, connection must close");
    assert_eq!(server.shutdown(), 3);
}

#[test]
fn explicit_close_token_is_honored_case_insensitively() {
    let server = start(ServerConfig::default());
    let mut s = connect(server.local_addr());
    // RFC 9110 token list, mixed case, extra members: `close` wins.
    s.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\nConnection: TE, Close\r\n\r\n")
        .expect("send");
    let reply = read_reply(&mut s);
    assert_eq!(reply.status(), 200);
    assert_eq!(reply.header("connection"), Some("close"));
    assert!(at_eof(&mut s));
    server.shutdown();
}

#[test]
fn expect_100_continue_gets_an_interim_go_ahead() {
    let server = start(ServerConfig::default());
    let mut s = connect(server.local_addr());
    let body = r#"{"preset":"ddr3_1g_x16_55nm"}"#;
    let head = format!(
        "POST /v1/evaluate HTTP/1.1\r\nhost: t\r\nexpect: 100-continue\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    // Headers only: a curl-style client now waits for the go-ahead
    // before sending the body.
    s.write_all(head.as_bytes()).expect("send head");
    let interim = read_reply(&mut s);
    assert_eq!(interim.status(), 100, "{:?}", interim.head);
    s.write_all(body.as_bytes()).expect("send body");
    let reply = read_reply(&mut s);
    assert_eq!(reply.status(), 200, "{}", reply.text());
    assert!(reply.text().contains("\"idd_ma\""), "{}", reply.text());
    server.shutdown();
}

#[test]
fn expect_100_continue_oversize_is_rejected_without_interim() {
    let server = start(ServerConfig::default());
    let mut s = connect(server.local_addr());
    // Declared larger than max_body: the server must answer the final
    // 413 straight away — no 100, no waiting for a body.
    s.write_all(
        b"POST /v1/evaluate HTTP/1.1\r\nhost: t\r\nexpect: 100-continue\r\n\
          content-length: 99999999\r\n\r\n",
    )
    .expect("send");
    let reply = read_reply(&mut s);
    assert_eq!(reply.status(), 413, "{:?}", reply.head);
    assert!(at_eof(&mut s));
    server.shutdown();
}

#[test]
fn chunked_trace_streaming_keeps_the_connection() {
    let server = start(ServerConfig::default());
    let trace = "!preset ddr3_1g_x16_55nm\n0 act 0\n12 rd 0\n40 pre 0\n!length 1000\n";
    let mut upload =
        b"POST /v1/trace HTTP/1.1\r\nhost: t\r\ntransfer-encoding: chunked\r\n\r\n".to_vec();
    for piece in trace.as_bytes().chunks(16) {
        client::write_chunk(&mut upload, piece).expect("frame chunk");
    }
    upload.extend_from_slice(client::LAST_CHUNK);

    let mut s = connect(server.local_addr());
    // Two identical chunked uploads back-to-back, then a buffered
    // request, all on one connection.
    s.write_all(&upload).expect("first upload");
    let first = read_reply(&mut s);
    assert_eq!(first.status(), 200, "{}", first.text());
    assert_eq!(first.header("connection"), Some("keep-alive"));
    s.write_all(&upload).expect("second upload");
    let second = read_reply(&mut s);
    assert_eq!(second.status(), 200);
    assert_eq!(
        second.text(),
        first.text(),
        "streamed report must not drift"
    );
    assert_ne!(id(&first), id(&second));
    s.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n")
        .expect("send");
    let third = read_reply(&mut s);
    assert_eq!(third.status(), 200);
    assert!(at_eof(&mut s));
    assert_eq!(server.metrics().keepalive_reuses.get(), 2);
    assert_eq!(server.shutdown(), 3);
}

#[test]
fn a_quiet_connection_yields_its_worker_to_queued_work() {
    // One worker and a long idle timeout: if the worker kept waiting on
    // a quiet connection instead of taking queued work, the second
    // client would wait the whole 30 s.
    let server = start(ServerConfig {
        threads: 1,
        idle_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    });
    let healthz = b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n";
    let mut a = connect(server.local_addr());
    a.write_all(healthz).expect("send on A");
    let first = read_reply(&mut a);
    assert_eq!(first.status(), 200);
    assert_eq!(first.header("connection"), Some("keep-alive"));

    // A goes quiet; B speaks and must be answered promptly.
    let mut b = connect(server.local_addr());
    let started = Instant::now();
    b.write_all(healthz).expect("send on B");
    let reply = read_reply(&mut b);
    let waited = started.elapsed();
    assert_eq!(reply.status(), 200);
    assert!(
        waited < Duration::from_secs(1),
        "B waited {waited:?} behind quiet A"
    );

    // A's next request is still answered on the same connection.
    a.write_all(healthz).expect("second send on A");
    let second = read_reply(&mut a);
    assert_eq!(second.status(), 200);
    assert_ne!(id(&first), id(&second));
    assert_eq!(server.shutdown(), 3);
}

#[test]
fn shutdown_does_not_wait_for_a_held_connection() {
    // A quiet keep-alive connection held by its worker, with a 60 s idle
    // budget: shutdown must wake the holder at once and close the
    // connection within the drain, not at the idle timeout.
    let server = start(ServerConfig {
        idle_timeout: Duration::from_secs(60),
        ..ServerConfig::default()
    });
    let mut s = connect(server.local_addr());
    s.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n")
        .expect("send");
    let reply = read_reply(&mut s);
    assert_eq!(reply.header("connection"), Some("keep-alive"));

    let started = Instant::now();
    assert_eq!(server.shutdown(), 1);
    let took = started.elapsed();
    assert!(took < Duration::from_secs(2), "shutdown took {took:?}");
    assert!(at_eof(&mut s), "the held connection must close cleanly");
}
