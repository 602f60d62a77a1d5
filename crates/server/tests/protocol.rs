//! Protocol robustness and end-to-end behavior of `dram-serve`: every
//! malformed-input class answers a 4xx without crashing the server,
//! concurrent clients get byte-identical bodies to direct library
//! evaluation, every response carries a unique `x-request-id`, slow
//! clients hit the request deadline, and graceful shutdown drains
//! accepted work.

use std::collections::HashSet;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use dram_core::Dram;
use dram_server::client::{ClientError, Conn, Reply};
use dram_server::{serve, Limits, ServerConfig, ServerHandle};

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

/// Sends raw bytes, returns the reply.
fn raw(addr: SocketAddr, bytes: &[u8]) -> Reply {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(bytes).expect("send");
    Conn::new(s).read_to_close().expect("recv")
}

/// Issues a well-formed request, returns `(status, body)`.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let reply = raw(
        addr,
        format!(
            "{method} {path} HTTP/1.1\r\nhost: t\r\ncontent-type: application/json\r\n\
             content-length: {}\r\nconnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    );
    (reply.status(), reply.text().into_owned())
}

/// The `x-request-id` header value of a reply, if present.
fn request_id(reply: &Reply) -> Option<String> {
    reply.header("x-request-id").map(str::to_string)
}

#[test]
fn malformed_request_line_is_400() {
    let server = start(2);
    for garbage in [
        "WHAT\r\n\r\n",
        "GET\r\n\r\n",
        "GET /healthz\r\n\r\n",
        "get /healthz HTTP/1.1\r\n\r\n",
        "GET healthz HTTP/1.1\r\n\r\n",
        "GET /healthz SMTP/1.1\r\n\r\n",
    ] {
        let reply = raw(server.local_addr(), garbage.as_bytes());
        assert_eq!(reply.status(), 400, "{garbage:?} -> {reply:?}");
    }
    // The server is still alive and serving.
    let (status, _) = request(server.local_addr(), "GET", "/healthz", "");
    assert_eq!(status, 200);
    server.shutdown();
}

#[test]
fn oversized_body_is_413_before_read() {
    let server = serve(
        "127.0.0.1:0",
        ServerConfig {
            threads: 1,
            limits: Limits {
                max_body: 256,
                ..Limits::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    // Declared oversized: rejected from the header alone, no body sent.
    let reply = raw(
        server.local_addr(),
        b"POST /v1/evaluate HTTP/1.1\r\ncontent-length: 1000000\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(reply.status(), 413, "{reply:?}");
    let (status, _) = request(server.local_addr(), "GET", "/healthz", "");
    assert_eq!(status, 200, "server survived the oversized request");
    server.shutdown();
}

#[test]
fn oversized_headers_are_431() {
    let server = start(1);
    let huge = format!(
        "GET /healthz HTTP/1.1\r\nx-filler: {}\r\n\r\n",
        "a".repeat(64 * 1024)
    );
    let reply = raw(server.local_addr(), huge.as_bytes());
    assert_eq!(reply.status(), 431, "{reply:?}");
    server.shutdown();
}

#[test]
fn unknown_route_is_404_and_wrong_method_is_405() {
    let server = start(1);
    let (status, body) = request(server.local_addr(), "GET", "/v2/evaluate", "");
    assert_eq!(status, 404);
    assert!(body.contains("no such route"), "{body}");
    let (status, _) = request(server.local_addr(), "DELETE", "/v1/evaluate", "");
    assert_eq!(status, 405);
    let (status, _) = request(server.local_addr(), "POST", "/metrics", "");
    assert_eq!(status, 405);
    server.shutdown();
}

#[test]
fn truncated_json_is_400() {
    let server = start(1);
    let (status, body) = request(
        server.local_addr(),
        "POST",
        "/v1/evaluate",
        r#"{"preset": "ddr3_1g"#,
    );
    assert_eq!(status, 400);
    assert!(body.contains("invalid JSON"), "{body}");
    // Body shorter than content-length (client hangs up mid-body).
    let mut s = TcpStream::connect(server.local_addr()).expect("connect");
    s.write_all(b"POST /v1/evaluate HTTP/1.1\r\ncontent-length: 500\r\n\r\n{\"preset\":")
        .expect("send");
    s.shutdown(std::net::Shutdown::Write).expect("half-close");
    let reply = Conn::new(s).read_to_close().expect("recv");
    assert_eq!(reply.status(), 400, "{reply:?}");
    server.shutdown();
}

/// The acceptance-criteria core: N concurrent clients against a 1-thread
/// and an 8-thread server all receive bodies byte-identical to a direct
/// library evaluation of the same description. Every preset is asked
/// for by 16 clients at once, so hits race to store the cached model's
/// body, and every one of them must read the library's bytes.
#[test]
fn concurrent_clients_get_bit_identical_library_results() {
    let presets = dram_server::presets::NAMES.map(|preset| {
        let desc = dram_server::presets::by_name(preset).expect("listed preset");
        let dram = Dram::new(desc).expect("builds");
        (
            preset,
            dram_server::api::evaluate_document(&dram).to_string(),
        )
    });
    for threads in [1, 8] {
        let server = start(threads);
        let addr = server.local_addr();
        for (preset, expected) in &presets {
            let bodies: Vec<String> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..16)
                    .map(|_| {
                        s.spawn(move || {
                            let (status, body) = request(
                                addr,
                                "POST",
                                "/v1/evaluate",
                                &format!(r#"{{"preset":"{preset}"}}"#),
                            );
                            assert_eq!(status, 200, "{body}");
                            body
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client"))
                    .collect()
            });
            for body in &bodies {
                assert_eq!(
                    body, expected,
                    "served body diverged from library output at {threads} server threads"
                );
            }
        }
        server.shutdown();
    }
}

#[test]
fn graceful_shutdown_drains_accepted_connections() {
    let server = start(2);
    let addr = server.local_addr();
    const CLIENTS: usize = 8;

    // Open connections and send complete requests, but don't read yet.
    let conns: Vec<TcpStream> = (0..CLIENTS)
        .map(|_| {
            let mut s = TcpStream::connect(addr).expect("connect");
            let body = r#"{"preset":"ddr3_1g_55nm"}"#;
            s.write_all(
                format!(
                    "POST /v1/evaluate HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            )
            .expect("send");
            s
        })
        .collect();

    // Wait until the accept loop has taken ownership of every
    // connection, so shutdown is obliged to drain them.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.accepted() < CLIENTS as u64 {
        assert!(std::time::Instant::now() < deadline, "accept stalled");
        std::thread::sleep(Duration::from_millis(5));
    }

    let served = server.shutdown();
    assert!(
        served >= CLIENTS as u64,
        "shutdown dropped in-flight requests: served {served} of {CLIENTS}"
    );

    // Every already-accepted client still gets a complete 200.
    for s in conns {
        s.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let reply = Conn::new(s).read_to_close().expect("drained response");
        assert_eq!(reply.status(), 200, "{reply:?}");
        assert!(reply.text().contains("idd_ma"), "{}", reply.text());
    }

    // And the listener is really gone: new connections fail.
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "listener still accepting after shutdown"
    );
}

#[test]
fn metrics_reflect_served_traffic_and_cache() {
    let server = start(2);
    let addr = server.local_addr();
    let (status, _) = request(addr, "POST", "/v1/evaluate", r#"{"preset":"ddr2_1g_75nm"}"#);
    assert_eq!(status, 200);
    let (status, _) = request(addr, "POST", "/v1/evaluate", r#"{"preset":"ddr2_1g_75nm"}"#);
    assert_eq!(status, 200);
    let (status, _) = request(addr, "GET", "/nope", "");
    assert_eq!(status, 404);

    let (status, body) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let doc = dram_units::json::Value::parse(&body).expect("metrics is valid JSON");
    let by_route = doc.get("requests_by_route").expect("routes");
    let evaluate = by_route.get("evaluate").and_then(|v| v.as_f64()).unwrap();
    assert!(evaluate >= 2.0, "{body}");
    assert!(doc.get("responses_4xx").and_then(|v| v.as_f64()).unwrap() >= 1.0);
    // The global engine saw this preset twice: the second hit the cache.
    let engine = doc.get("engine").expect("engine");
    assert!(engine.get("cache_hits").and_then(|v| v.as_f64()).unwrap() >= 1.0);
    assert!(engine.get("threads").and_then(|v| v.as_f64()).unwrap() >= 1.0);
    let hist = doc.get("latency_histogram").expect("histogram");
    let counts: f64 = hist
        .get("counts")
        .and_then(|v| v.as_array())
        .unwrap()
        .iter()
        .filter_map(|v| v.as_f64())
        .sum();
    // The /metrics request itself is recorded after its response body is
    // built, so it is not yet in its own histogram.
    assert!(counts >= 3.0, "{body}");
    server.shutdown();
}

/// The tracing acceptance criterion: every response — 200, 4xx, even the
/// accept-loop backpressure 503 — carries an `x-request-id`, and ids
/// never repeat.
#[test]
fn every_response_carries_a_unique_request_id() {
    let server = start(2);
    let addr = server.local_addr();
    let mut ids = HashSet::new();
    let replies = [
        raw(
            addr,
            b"POST /v1/evaluate HTTP/1.1\r\ncontent-length: 25\r\nconnection: close\r\n\r\n{\"preset\":\"ddr2_1g_75nm\"}",
        ),
        raw(addr, b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n"),
        raw(addr, b"GET /nope HTTP/1.1\r\nconnection: close\r\n\r\n"),
        raw(addr, b"WHAT\r\n\r\n"),
    ];
    for reply in &replies {
        let id =
            request_id(reply).unwrap_or_else(|| panic!("response without x-request-id: {reply:?}"));
        assert!(ids.insert(id.clone()), "id `{id}` repeated: {reply:?}");
    }
    server.shutdown();

    // The backpressure 503 answered by the accept loop itself is also
    // identified, with an id from the same sequence space.
    let shedder = serve(
        "127.0.0.1:0",
        ServerConfig {
            queue_depth: 0,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let reply = raw(
        shedder.local_addr(),
        b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(reply.status(), 503, "{reply:?}");
    // Ids are unique per server (the counter is per [`RequestIdSource`]),
    // so only presence is asserted across instances.
    assert!(request_id(&reply).is_some(), "503 carries an id: {reply:?}");
    shedder.shutdown();
}

/// Slowloris regression: a client trickling one byte at a time used to
/// reset the 5 s socket timeout on every byte, holding a worker for up
/// to `max_head × io_timeout`. The overall request deadline now answers
/// 408 within bound no matter how diligently the client trickles.
#[test]
fn trickling_client_gets_408_at_the_request_deadline() {
    let deadline = Duration::from_millis(600);
    let server = serve(
        "127.0.0.1:0",
        ServerConfig {
            threads: 1,
            limits: Limits {
                request_deadline: deadline,
                ..Limits::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind");

    let started = Instant::now();
    let mut s = TcpStream::connect(server.local_addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    // Trickle a plausible request head one byte at a time, far slower
    // than it completes but fast enough to keep resetting a per-read
    // timeout. The server must cut us off at the deadline regardless.
    let head = b"GET /healthz HTTP/1.1\r\nhost: trickle\r\n\r\n";
    for byte in head {
        if s.write_all(std::slice::from_ref(byte)).is_err() {
            break; // server already answered and closed
        }
        std::thread::sleep(Duration::from_millis(100));
        if started.elapsed() > Duration::from_secs(5) {
            break;
        }
    }
    let reply = Conn::new(s).read_response();
    let elapsed = started.elapsed();
    let reply = match reply {
        Ok(reply) if reply.status() == 408 => reply,
        other => panic!("wanted 408 for the trickling client, got: {other:?}"),
    };
    assert!(request_id(&reply).is_some(), "408 carries an id: {reply:?}");
    assert!(
        elapsed < deadline + Duration::from_secs(2),
        "worker was held {elapsed:?}, deadline is {deadline:?}"
    );

    // The worker is free again: a normal request succeeds promptly.
    let (status, _) = request(server.local_addr(), "GET", "/healthz", "");
    assert_eq!(status, 200);
    server.shutdown();
}

/// A connect-then-close port probe must produce no response bytes and
/// must not count as traffic anywhere: no route counter, no 4xx, no
/// slow-request sample.
#[test]
fn silent_probe_writes_nothing_and_counts_nothing() {
    let server = start(1);
    let addr = server.local_addr();
    for _ in 0..3 {
        let s = TcpStream::connect(addr).expect("connect");
        s.shutdown(std::net::Shutdown::Write).expect("half-close");
        s.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let received = Conn::new(s).read_response();
        assert_eq!(
            received,
            Err(ClientError::Closed),
            "probe got response bytes: {received:?}"
        );
    }
    // Give the workers a moment to finish the probe connections, then
    // serve one real request and read the metrics.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.accepted() < 3 {
        assert!(Instant::now() < deadline, "accept stalled");
        std::thread::sleep(Duration::from_millis(5));
    }
    let (status, body) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let doc = dram_units::json::Value::parse(&body).expect("metrics JSON");
    let by_route = doc.get("requests_by_route").expect("routes");
    assert_eq!(
        by_route.get("other").and_then(|v| v.as_f64()),
        Some(0.0),
        "probes leaked into the `other` counter: {body}"
    );
    assert_eq!(
        doc.get("responses_4xx").and_then(|v| v.as_f64()),
        Some(0.0),
        "{body}"
    );
    let slow_other = doc
        .get("slow_requests")
        .and_then(|s| s.get("other"))
        .and_then(|v| v.as_array())
        .expect("slow_requests.other");
    assert!(
        slow_other.is_empty(),
        "probes produced slow samples: {body}"
    );
    server.shutdown();
}

/// Conflicting or malformed `Content-Length` framing is rejected before
/// any body handling; agreeing duplicates and surrounding whitespace are
/// tolerated per RFC 9110.
#[test]
fn content_length_smuggling_vectors_are_rejected() {
    let server = start(1);
    let addr = server.local_addr();
    let cases: [(&[u8], u16); 6] = [
        // Conflicting duplicates → 400.
        (
            b"POST /v1/evaluate HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 3\r\nconnection: close\r\n\r\n{}x",
            400,
        ),
        // Agreeing duplicates → accepted (body parse then fails → 400
        // from JSON, but framing is fine; use healthz to see the 200).
        (
            b"GET /healthz HTTP/1.1\r\ncontent-length: 0\r\ncontent-length: 0\r\nconnection: close\r\n\r\n",
            200,
        ),
        // Whitespace around the value is legal OWS.
        (
            b"GET /healthz HTTP/1.1\r\ncontent-length:   0  \r\nconnection: close\r\n\r\n",
            200,
        ),
        // Whitespace before the colon is a smuggling vector → 400.
        (
            b"GET /healthz HTTP/1.1\r\ncontent-length : 0\r\nconnection: close\r\n\r\n",
            400,
        ),
        // A signed value is not HTTP → 400.
        (
            b"POST /v1/evaluate HTTP/1.1\r\ncontent-length: +2\r\nconnection: close\r\n\r\n{}",
            400,
        ),
        // Internal whitespace → 400.
        (
            b"POST /v1/evaluate HTTP/1.1\r\ncontent-length: 1 2\r\nconnection: close\r\n\r\n{}",
            400,
        ),
    ];
    for (bytes, want) in cases {
        let reply = raw(addr, bytes);
        assert_eq!(
            reply.status(),
            want,
            "{} -> {reply:?}",
            String::from_utf8_lossy(bytes)
        );
    }
    server.shutdown();
}

/// `/v1/batch` answers N evaluate requests in one connection; each
/// result is byte-identical to the corresponding single `/v1/evaluate`
/// body, and per-item errors don't fail their neighbours.
#[test]
fn batch_results_are_bit_identical_to_single_calls() {
    let presets = ["ddr3_1g_x16_55nm", "ddr2_1g_75nm", "ddr3_2g_55nm"];
    for threads in [1, 8] {
        let server = start(threads);
        let addr = server.local_addr();

        let singles: Vec<String> = presets
            .iter()
            .map(|p| {
                let (status, body) = request(
                    addr,
                    "POST",
                    "/v1/evaluate",
                    &format!(r#"{{"preset":"{p}"}}"#),
                );
                assert_eq!(status, 200, "{body}");
                body
            })
            .collect();

        let items: Vec<String> = presets
            .iter()
            .map(|p| format!(r#"{{"preset":"{p}"}}"#))
            .collect();
        let batch_body = format!(
            r#"{{"requests":[{},{{"preset":"bogus"}}]}}"#,
            items.join(",")
        );
        let (status, body) = request(addr, "POST", "/v1/batch", &batch_body);
        assert_eq!(status, 200, "{body}");
        let doc = dram_units::json::Value::parse(&body).expect("batch JSON");
        let results = doc.get("results").and_then(|v| v.as_array()).unwrap();
        assert_eq!(results.len(), presets.len() + 1);
        for (i, single) in singles.iter().enumerate() {
            assert_eq!(
                &results[i].to_string(),
                single,
                "batch item {i} diverged from the single call at {threads} threads"
            );
        }
        assert!(
            results[presets.len()]
                .get("error")
                .and_then(|v| v.as_str())
                .is_some_and(|e| e.contains("unknown preset")),
            "{body}"
        );
        server.shutdown();
    }
}

/// After traffic, `/metrics` exposes per-route slow-request samples that
/// carry the ids the clients saw on the wire.
#[test]
fn metrics_slow_samples_correlate_with_response_ids() {
    let server = start(2);
    let addr = server.local_addr();
    let mut seen_ids = HashSet::new();
    for _ in 0..3 {
        let reply = raw(
            addr,
            b"POST /v1/evaluate HTTP/1.1\r\ncontent-length: 29\r\nconnection: close\r\n\r\n{\"preset\":\"ddr3_1g_x16_55nm\"}",
        );
        assert_eq!(reply.status(), 200, "{reply:?}");
        seen_ids.insert(request_id(&reply).expect("id header"));
    }
    let (status, body) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let doc = dram_units::json::Value::parse(&body).expect("metrics JSON");
    let samples = doc
        .get("slow_requests")
        .and_then(|s| s.get("evaluate"))
        .and_then(|v| v.as_array())
        .expect("slow_requests.evaluate");
    assert!(!samples.is_empty(), "no slow samples after traffic: {body}");
    for s in samples {
        let id = s.get("id").and_then(|v| v.as_str()).expect("sample id");
        assert!(
            seen_ids.contains(id),
            "sample id `{id}` never seen on the wire: {body}"
        );
        assert!(
            s.get("queue_us").and_then(|v| v.as_f64()).is_some(),
            "{body}"
        );
        assert!(
            s.get("handle_us").and_then(|v| v.as_f64()).is_some(),
            "{body}"
        );
        // Warm or cold, exactly one model lookup per evaluate request.
        let hits = s.get("cache_hits").and_then(|v| v.as_f64()).unwrap();
        let misses = s.get("cache_misses").and_then(|v| v.as_f64()).unwrap();
        assert_eq!(hits + misses, 1.0, "{body}");
    }
    server.shutdown();
}

/// `/metrics` over the wire in both formats: the JSON document with an
/// explicit `application/json` content type, and the Prometheus text
/// exposition behind `?format=prometheus` (and Accept negotiation) with
/// the versioned `text/plain` content type.
#[test]
fn metrics_serves_both_json_and_prometheus_formats() {
    let server = start(2);
    let addr = server.local_addr();
    let (status, _) = request(addr, "POST", "/v1/evaluate", r#"{"preset":"ddr2_1g_75nm"}"#);
    assert_eq!(status, 200);

    // Default: JSON, explicitly typed.
    let reply = raw(addr, b"GET /metrics HTTP/1.1\r\nconnection: close\r\n\r\n");
    assert_eq!(reply.status(), 200);
    assert_eq!(
        reply.header("content-type"),
        Some("application/json"),
        "{reply:?}"
    );
    let body = reply.text();
    assert!(dram_units::json::Value::parse(&body).is_ok(), "{body}");

    // Query-selected Prometheus exposition.
    let reply = raw(
        addr,
        b"GET /metrics?format=prometheus HTTP/1.1\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(reply.status(), 200);
    assert_eq!(
        reply.header("content-type"),
        Some("text/plain; version=0.0.4"),
        "{reply:?}"
    );
    let prom = reply.text();
    for family in [
        "# TYPE dram_serve_requests_total counter",
        "# TYPE dram_serve_handle_seconds histogram",
        "# TYPE dram_serve_uptime_seconds gauge",
        "dram_serve_build_info{version=",
        "dram_engine_cache_hits_total",
        "dram_serve_handle_seconds_bucket{le=\"+Inf\"}",
    ] {
        assert!(prom.contains(family), "missing `{family}` in:\n{prom}");
    }
    // The evaluate request this test made is visible in the route family.
    assert!(
        prom.contains("dram_serve_route_requests_total{route=\"evaluate\"} 1"),
        "{prom}"
    );

    // Accept-header negotiation selects Prometheus without a query.
    let reply = raw(
        addr,
        b"GET /metrics HTTP/1.1\r\naccept: text/plain\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(
        reply.header("content-type"),
        Some("text/plain; version=0.0.4"),
        "{reply:?}"
    );

    // Unknown formats are a 400, not a silent default.
    let reply = raw(
        addr,
        b"GET /metrics?format=yaml HTTP/1.1\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(reply.status(), 400);
    assert!(
        reply.text().contains("unknown metrics format"),
        "{}",
        reply.text()
    );
    server.shutdown();
}

/// A `/v1/sweep` runs through the engine's differential fast path, and
/// the rebuild counters it drives are visible on `/metrics` in both the
/// JSON document (`registry` section) and the Prometheus exposition.
#[test]
fn sweep_drives_rebuild_counters_onto_both_metrics_formats() {
    let server = start(2);
    let addr = server.local_addr();
    let (status, body) = request(
        addr,
        "POST",
        "/v1/sweep",
        r#"{"preset":"ddr3_1g_x16_55nm","top":5}"#,
    );
    assert_eq!(status, 200, "{body}");

    let (status, body) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let doc = dram_units::json::Value::parse(&body).expect("metrics JSON parses");
    let registry = doc.get("registry").expect("registry section");
    let rebuilds = registry
        .get("dram_model_rebuilds_total")
        .and_then(|v| v.as_f64())
        .expect("rebuild counter exported");
    let skipped = registry
        .get("dram_rebuild_phases_skipped_total")
        .and_then(|v| v.as_f64())
        .expect("skipped-phase counter exported");
    // 38 params × up/down, every one a differential rebuild; each skips
    // at least one build phase.
    assert!(rebuilds >= 76.0, "rebuilds {rebuilds}");
    assert!(
        skipped >= rebuilds,
        "skipped {skipped} < rebuilds {rebuilds}"
    );

    let reply = raw(
        addr,
        b"GET /metrics?format=prometheus HTTP/1.1\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(reply.status(), 200);
    let prom = reply.text();
    for family in [
        "# TYPE dram_model_rebuilds_total counter",
        "# TYPE dram_rebuild_phases_skipped_total counter",
    ] {
        assert!(prom.contains(family), "missing `{family}` in:\n{prom}");
    }
    // The exported samples carry the same non-zero counts.
    let sample = prom
        .lines()
        .find_map(|l| l.strip_prefix("dram_model_rebuilds_total "))
        .expect("rebuild sample line");
    assert!(
        sample.trim().parse::<f64>().expect("numeric") >= 76.0,
        "{sample}"
    );
    server.shutdown();
}

#[test]
fn sweep_and_pattern_roundtrip_over_the_wire() {
    let server = start(4);
    let addr = server.local_addr();
    let (status, body) = request(
        addr,
        "POST",
        "/v1/pattern",
        r#"{"preset":"ddr3_1g_x16_55nm","pattern":"act nop wrt nop rd nop pre nop"}"#,
    );
    assert_eq!(status, 200, "{body}");
    let doc = dram_units::json::Value::parse(&body).unwrap();
    assert!(doc.get("power_w").and_then(|v| v.as_f64()).unwrap() > 0.0);

    let (status, body) = request(
        addr,
        "POST",
        "/v1/sweep",
        r#"{"preset":"ddr3_1g_x16_55nm","top":3}"#,
    );
    assert_eq!(status, 200, "{body}");
    let doc = dram_units::json::Value::parse(&body).unwrap();
    assert_eq!(
        doc.get("entries").and_then(|v| v.as_array()).unwrap().len(),
        3
    );
    server.shutdown();
}
