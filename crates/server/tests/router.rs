//! End-to-end tests for `dram-route` over real sockets: the all-down
//! 502 path, single-node byte-identical pass-through, the
//! poison-on-mid-body-failure rule (no retry once a response byte has
//! been relayed), upstream heads with bad framing never reaching the
//! client, a body that streams in after its head, hedging to the next
//! ring successor, the loopback gate on `/debug/*` holding through the
//! proxy hop, the federated `/metrics` in both formats, the connection
//! lifecycle the router shares with `dram-serve`'s front end: 4xx
//! poisoning, the drain after an error and a shutdown that does not wait
//! for idle clients, and a node that accepts connections and never
//! answers, on a fresh connection or a pooled one.

use std::io::{Read, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use dram_core::batch::content_key;
use dram_server::client::Conn;
use dram_server::ring::DEFAULT_REPLICAS;
use dram_server::{presets, route_serve, serve, Ring, RouterConfig, ServerConfig};
use dram_units::json::Value;

#[allow(dead_code)]
#[path = "support/metrics_shape.rs"]
mod metrics_shape;

use metrics_shape::{json_shape, prom_headers, prom_label_keys};

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
fn all_nodes_down_is_a_502_with_a_request_id() {
    // Port 1 refuses connections; a tight retry budget keeps it quick.
    let mut config = RouterConfig {
        nodes: vec!["127.0.0.1:1".to_string()],
        probe_interval: Duration::from_secs(30),
        ..RouterConfig::default()
    };
    config.retry.max_attempts = 2;
    let router = route_serve("127.0.0.1:0", config).expect("bind router");

    let (status, body, id) = exchange(
        router.local_addr(),
        "POST",
        "/v1/evaluate",
        r#"{"preset":"ddr3_1g_x16_55nm"}"#,
    );
    assert_eq!(status, 502, "{body}");
    assert!(!id.is_empty(), "502 carried no x-request-id");
    let doc = Value::parse(&body).expect("502 body is JSON");
    assert!(doc.get("error").is_some(), "{body}");

    // The router's own /metrics accounts for the failure.
    let (status, body, _) = exchange(router.local_addr(), "GET", "/metrics", "");
    assert_eq!(status, 200);
    let doc = Value::parse(&body).expect("metrics JSON");
    assert!(
        doc.get("bad_gateway_total")
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
            >= 1.0,
        "{body}"
    );
    router.shutdown();
}

#[test]
fn single_node_pass_through_is_byte_identical() {
    let backend = serve("127.0.0.1:0", ServerConfig::default()).expect("bind backend");
    let router = route_serve(
        "127.0.0.1:0",
        RouterConfig {
            nodes: vec![backend.local_addr().to_string()],
            ..RouterConfig::default()
        },
    )
    .expect("bind router");

    for (method, path, body) in [
        ("GET", "/v1/presets", ""),
        ("POST", "/v1/evaluate", r#"{"preset":"ddr3_1g_x16_55nm"}"#),
        (
            "POST",
            "/v1/pattern",
            r#"{"preset":"ddr3_1g_x16_55nm","pattern":"act nop wrt nop rd nop pre nop"}"#,
        ),
        ("POST", "/v1/evaluate", r#"{"preset":"nope"}"#),
    ] {
        let (direct_status, direct_body, _) = exchange(backend.local_addr(), method, path, body);
        let (routed_status, routed_body, _) = exchange(router.local_addr(), method, path, body);
        assert_eq!(routed_status, direct_status, "{method} {path}");
        assert_eq!(routed_body, direct_body, "{method} {path} body diverged");
    }
    router.shutdown();
    backend.shutdown();
}

/// A fake upstream that answers health probes but truncates every
/// `/v1/*` response mid-body: declares 100000 bytes, sends 10, drops
/// the connection. Returns (address, count of `/v1/*` requests seen).
fn truncating_upstream() -> (SocketAddr, Arc<AtomicU64>) {
    scripted_upstream(
        b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n\
          content-length: 100000\r\nconnection: keep-alive\r\n\r\n0123456789",
    )
}

/// A fake upstream that answers health probes with a 200 and every
/// `/v1/*` request with `reply`, then drops the connection. Returns
/// (address, count of `/v1/*` requests seen).
fn scripted_upstream(reply: &'static [u8]) -> (SocketAddr, Arc<AtomicU64>) {
    upstream_with(move || reply)
}

/// [`scripted_upstream`] answering each `/v1/*` request with what
/// `script` returns, on that request's own thread.
fn upstream_with(
    script: impl Fn() -> &'static [u8] + Send + Sync + 'static,
) -> (SocketAddr, Arc<AtomicU64>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake upstream");
    let addr = listener.local_addr().expect("addr");
    let hits = Arc::new(AtomicU64::new(0));
    let hits_in = Arc::clone(&hits);
    let script = Arc::new(script);
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut conn) = conn else { continue };
            let hits = Arc::clone(&hits_in);
            let script = Arc::clone(&script);
            std::thread::spawn(move || {
                let _ = conn.set_read_timeout(Some(Duration::from_secs(5)));
                let mut buf = Vec::new();
                let mut chunk = [0u8; 1024];
                while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
                    match conn.read(&mut chunk) {
                        Ok(0) | Err(_) => return,
                        Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    }
                }
                let head = String::from_utf8_lossy(&buf);
                if head.contains("/v1/") {
                    hits.fetch_add(1, Ordering::SeqCst);
                    let _ = conn.write_all(script());
                    let _ = conn.flush();
                    // Drop: the upstream dies after its script.
                } else {
                    let _ = conn.write_all(
                        b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n\
                          content-length: 2\r\nconnection: close\r\n\r\nok",
                    );
                }
            });
        }
    });
    (addr, hits)
}

#[test]
fn upstream_death_mid_body_poisons_the_client_and_is_never_retried() {
    let (upstream, hits) = truncating_upstream();
    let router = route_serve(
        "127.0.0.1:0",
        RouterConfig {
            nodes: vec![upstream.to_string()],
            probe_interval: Duration::from_secs(30),
            ..RouterConfig::default()
        },
    )
    .expect("bind router");

    // The client sees the head, a truncated body, then a hard close —
    // never a spliced second response.
    let mut s = TcpStream::connect(router.local_addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let body = r#"{"preset":"ddr3_1g_x16_55nm"}"#;
    s.write_all(
        format!(
            "POST /v1/evaluate HTTP/1.1\r\nhost: t\r\ncontent-type: application/json\r\n\
             content-length: {}\r\nconnection: keep-alive\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
    .expect("send");
    let mut conn = Conn::new(s);
    let head = conn.read_head().expect("head terminator");
    assert_eq!(head.status, 200, "head was relayed: {head:?}");
    assert_eq!(
        head.header("content-length"),
        Some("100000"),
        "original framing relayed: {head:?}"
    );
    let mut body = Vec::new();
    let delivered = conn.read_to_end(&mut body).expect("read to close");
    assert!(
        delivered < 100_000,
        "body must be truncated, got {delivered}"
    );

    // Exactly one upstream attempt: a request that already relayed
    // bytes is not retryable.
    std::thread::sleep(Duration::from_millis(400));
    assert_eq!(
        hits.load(Ordering::SeqCst),
        1,
        "mid-body failure was retried"
    );

    let (status, body, _) = exchange(router.local_addr(), "GET", "/metrics", "");
    assert_eq!(status, 200);
    let doc = Value::parse(&body).expect("metrics JSON");
    assert!(
        doc.get("poisoned_total")
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
            >= 1.0,
        "poisoned counter missing: {body}"
    );
    router.shutdown();
}

/// Reads one request off a scripted upstream's connection, its head and
/// its `content-length` body; returns the head, or `None` once the peer
/// hangs up.
fn read_request(conn: &mut TcpStream) -> Option<String> {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        match conn.read(&mut byte) {
            Ok(1) => head.push(byte[0]),
            _ => return None,
        }
    }
    let head = String::from_utf8_lossy(&head).into_owned();
    let length = head
        .lines()
        .find_map(|line| line.strip_prefix("content-length: "))
        .map_or(0, |n| {
            n.parse().expect("the router frames bodies by length")
        });
    conn.read_exact(&mut vec![0; length]).ok()?;
    Some(head)
}

/// A body that reaches the router after its head, in two parts, is
/// relayed as it arrives: the client reads exactly the upstream's
/// response, and the upstream connection goes back to the pool and
/// carries the next request.
#[test]
fn a_body_streamed_after_its_head_is_relayed_exactly_and_its_connection_reused() {
    const HEAD: &str = "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n\
                        content-length: 17\r\nconnection: keep-alive\r\n\r\n";
    const BODY: [&str; 2] = ["{\"streamed\":", "true}"];
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake upstream");
    let addr = listener.local_addr().expect("addr");
    // (connections that carried a `/v1/` request, `/v1/` requests)
    let seen = Arc::new((AtomicU64::new(0), AtomicU64::new(0)));
    let seen_in = Arc::clone(&seen);
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut conn) = conn else { continue };
            let seen = Arc::clone(&seen_in);
            std::thread::spawn(move || {
                let mut served = 0;
                while let Some(head) = read_request(&mut conn) {
                    if !head.contains(" /v1/") {
                        let _ = conn.write_all(
                            b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: close\r\n\r\nok",
                        );
                        return;
                    }
                    if served == 0 {
                        seen.0.fetch_add(1, Ordering::SeqCst);
                    }
                    served += 1;
                    seen.1.fetch_add(1, Ordering::SeqCst);
                    for part in [HEAD, BODY[0], BODY[1]] {
                        std::thread::sleep(Duration::from_millis(40));
                        if conn.write_all(part.as_bytes()).is_err() {
                            return;
                        }
                    }
                }
            });
        }
    });
    let router = route_serve(
        "127.0.0.1:0",
        RouterConfig {
            nodes: vec![addr.to_string()],
            probe_interval: Duration::from_secs(30),
            ..RouterConfig::default()
        },
    )
    .expect("bind router");

    let mut s = TcpStream::connect(router.local_addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let want = format!("{HEAD}{}{}", BODY[0], BODY[1]);
    let body = r#"{"preset":"ddr3_1g_x16_55nm"}"#;
    for connection in ["keep-alive", "close"] {
        s.write_all(
            format!(
                "POST /v1/evaluate HTTP/1.1\r\nhost: t\r\ncontent-type: application/json\r\n\
                 content-length: {}\r\nconnection: {connection}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("send");
        let want = want.replace("keep-alive", connection);
        let mut got = vec![0; want.len()];
        s.read_exact(&mut got).expect("the whole response");
        assert_eq!(String::from_utf8_lossy(&got), want);
    }
    let mut rest = Vec::new();
    s.read_to_end(&mut rest).expect("read to close");
    assert!(rest.is_empty(), "bytes after the response: {rest:?}");
    assert_eq!(
        (seen.0.load(Ordering::SeqCst), seen.1.load(Ordering::SeqCst)),
        (1, 2),
        "(upstream connections, requests)"
    );
    router.shutdown();
}

/// An upstream head that the server's own parser would refuse — two
/// different `content-length` values, or a signed one — fails the
/// attempt like a dead node: the client gets the 502 path, never the
/// conflicting head.
#[test]
fn upstream_heads_with_bad_content_length_take_the_502_path() {
    for reply in [
        &b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 2\r\n\
           content-length: 5\r\nconnection: keep-alive\r\n\r\nokhello"[..],
        b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: +5\r\n\
          connection: keep-alive\r\n\r\nhello",
    ] {
        let (upstream, hits) = scripted_upstream(reply);
        let mut config = RouterConfig {
            nodes: vec![upstream.to_string()],
            probe_interval: Duration::from_secs(30),
            ..RouterConfig::default()
        };
        config.retry.max_attempts = 2;
        let router = route_serve("127.0.0.1:0", config).expect("bind router");

        let (status, body, id) = exchange(
            router.local_addr(),
            "POST",
            "/v1/evaluate",
            r#"{"preset":"ddr3_1g_x16_55nm"}"#,
        );
        assert_eq!(status, 502, "{body}");
        assert!(!id.is_empty(), "502 carried no x-request-id");
        let doc = Value::parse(&body).expect("502 body is JSON");
        assert!(doc.get("error").is_some(), "{body}");
        assert!(
            hits.load(Ordering::SeqCst) >= 1,
            "the upstream was never asked"
        );
        router.shutdown();
    }
}

/// With `hedge_after` armed, an owner that has produced no head by then
/// is raced by the next ring successor, and the first head wins. Two
/// scripted upstreams share one flag: the first `/v1/` request either
/// sees is answered 500 ms late, every other one at once.
#[test]
fn a_slow_owner_is_hedged_to_its_successor() {
    const LATE: &[u8] = b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n\
                          content-length: 6\r\nconnection: close\r\n\r\n\"late\"";
    const PROMPT: &[u8] = b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n\
                            content-length: 8\r\nconnection: close\r\n\r\n\"prompt\"";
    let answered = Arc::new(AtomicBool::new(false));
    let nodes: Vec<String> = (0..2)
        .map(|_| {
            let answered = Arc::clone(&answered);
            let (addr, _) = upstream_with(move || {
                if answered.swap(true, Ordering::SeqCst) {
                    PROMPT
                } else {
                    std::thread::sleep(Duration::from_millis(500));
                    LATE
                }
            });
            addr.to_string()
        })
        .collect();
    let router = route_serve(
        "127.0.0.1:0",
        RouterConfig {
            nodes,
            probe_interval: Duration::from_secs(30),
            hedge_after: Some(Duration::from_millis(50)),
            ..RouterConfig::default()
        },
    )
    .expect("bind router");

    let started = Instant::now();
    let (status, body, _) = exchange(
        router.local_addr(),
        "POST",
        "/v1/evaluate",
        r#"{"preset":"ddr3_1g_x16_55nm"}"#,
    );
    let took = started.elapsed();
    assert_eq!((status, body.as_str()), (200, "\"prompt\""));
    assert!(
        took < Duration::from_millis(400),
        "the hedged request took {took:?}"
    );

    let (status, body, _) = exchange(router.local_addr(), "GET", "/metrics", "");
    assert_eq!(status, 200, "{body}");
    let doc = Value::parse(&body).expect("metrics JSON");
    for key in ["hedges_total", "hedge_wins_total"] {
        let value = doc.get(key).and_then(Value::as_f64);
        assert_eq!(value, Some(1.0), "{key}: {body}");
    }
    router.shutdown();
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
fn debug_gating_holds_through_the_proxy_hop() {
    let Some(ip) = non_loopback_ip() else {
        eprintln!("skipping: host has no non-loopback interface");
        return;
    };
    dram_obs::journal::configure(4096);
    let backend = serve("127.0.0.1:0", ServerConfig::default()).expect("bind backend");
    let router = route_serve(
        "0.0.0.0:0",
        RouterConfig {
            nodes: vec![backend.local_addr().to_string()],
            ..RouterConfig::default()
        },
    )
    .expect("bind router on all interfaces");
    let external = SocketAddr::new(ip, router.local_addr().port());
    let loopback = SocketAddr::new(IpAddr::from([127, 0, 0, 1]), router.local_addr().port());

    // A non-loopback client must get the detail-free 404 *from the
    // router*: the backend would see the router's loopback address and
    // wave the request through, so the gate has to hold at the edge.
    for path in ["/debug", "/debug/events", "/debug/reactor"] {
        let (status, body, _) = exchange(external, "GET", path, "");
        assert_eq!(status, 404, "{path} admitted a non-loopback peer");
        assert_eq!(
            body, "{\"error\":\"not found\"}",
            "{path} leaked details through the proxy"
        );
    }
    // Same route from loopback: proxied to the backend and served.
    let (status, body, _) = exchange(loopback, "GET", "/debug/events?n=16", "");
    assert_eq!(status, 200, "loopback debug request failed: {body}");
    Value::parse(&body).expect("debug events JSON");
    // Non-debug routes from the external address still flow.
    let (status, _, _) = exchange(external, "GET", "/healthz", "");
    assert_eq!(status, 200);

    router.shutdown();
    backend.shutdown();
    dram_obs::journal::configure(0);
}

/// A router over one live `dram-serve` and one node that refuses every
/// connection; scrapes get a generous budget so the live one always
/// answers in time.
fn live_and_dead_pool() -> (dram_server::ServerHandle, dram_server::RouterHandle) {
    let backend = serve("127.0.0.1:0", ServerConfig::default()).expect("bind backend");
    let dead = {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("local addr").to_string()
    };
    let router = route_serve(
        "127.0.0.1:0",
        RouterConfig {
            nodes: vec![backend.local_addr().to_string(), dead],
            probe_interval: Duration::from_secs(60),
            scrape_timeout: Duration::from_secs(5),
            ..RouterConfig::default()
        },
    )
    .expect("bind router");
    (backend, router)
}

/// Key paths and value types of the router's JSON `/metrics`: the live
/// node carries its scraped values, the dead one `stale: true` only.
const ROUTER_JSON_SHAPE: &str = "\
requests_total number
proxied_total number
retries_total number
failovers_total number
hedges_total number
hedge_wins_total number
bad_gateway_total number
poisoned_total number
stale_scrapes_total number
uptime_seconds number
backend_cache_hits_aggregate number
backend_cache_misses_aggregate number
nodes array
nodes[] object
nodes[].addr string
nodes[].up bool
nodes[].ring_points number
nodes[].routed number
nodes[].down_transitions number
nodes[].stale bool
nodes[].requests_total number
nodes[].cache_hits number
nodes[].cache_misses number
nodes[] object
nodes[].addr string
nodes[].up bool
nodes[].ring_points number
nodes[].routed number
nodes[].down_transitions number
nodes[].stale bool";

/// `# HELP` / `# TYPE` lines of the router's exposition.
const ROUTER_PROM_HEADERS: &str = "\
# HELP dram_route_backend_cache_hits_aggregate Engine cache hits summed over every reachable backend.
# HELP dram_route_backend_cache_hits_total Engine cache hits scraped from this backend.
# HELP dram_route_backend_cache_misses_aggregate Engine cache misses summed over every reachable backend.
# HELP dram_route_backend_cache_misses_total Engine cache misses scraped from this backend.
# HELP dram_route_backend_requests_total requests_total scraped from this backend (stale=1 if last scrape missed).
# HELP dram_route_backend_stale Whether this backend's values are last-known (scrape missed).
# HELP dram_route_bad_gateway_total Requests answered 502 with no backend response.
# HELP dram_route_failovers_total Requests (or attempts) served off their ring owner.
# HELP dram_route_hedge_wins_total Hedged attempts whose response won the race.
# HELP dram_route_hedges_total Hedged second attempts fired after the latency threshold.
# HELP dram_route_node_down_transitions_total Times this node was marked down.
# HELP dram_route_node_routed_total Requests forwarded to this node.
# HELP dram_route_node_up Node liveness (1 up, 0 down).
# HELP dram_route_poisoned_total Client connections poisoned by a mid-body upstream failure.
# HELP dram_route_proxied_total Requests answered by a backend through the proxy path.
# HELP dram_route_requests_total Client requests handled by the router.
# HELP dram_route_retries_total Upstream attempts beyond the first, per the retry policy.
# HELP dram_route_ring_points Virtual points this node owns on the consistent-hash ring.
# HELP dram_route_stale_scrapes_total Backend scrapes that missed the budget and served stale values.
# HELP dram_route_uptime_seconds Seconds since the router started.
# TYPE dram_route_backend_cache_hits_aggregate gauge
# TYPE dram_route_backend_cache_hits_total counter
# TYPE dram_route_backend_cache_misses_aggregate gauge
# TYPE dram_route_backend_cache_misses_total counter
# TYPE dram_route_backend_requests_total counter
# TYPE dram_route_backend_stale gauge
# TYPE dram_route_bad_gateway_total counter
# TYPE dram_route_failovers_total counter
# TYPE dram_route_hedge_wins_total counter
# TYPE dram_route_hedges_total counter
# TYPE dram_route_node_down_transitions_total counter
# TYPE dram_route_node_routed_total counter
# TYPE dram_route_node_up gauge
# TYPE dram_route_poisoned_total counter
# TYPE dram_route_proxied_total counter
# TYPE dram_route_requests_total counter
# TYPE dram_route_retries_total counter
# TYPE dram_route_ring_points gauge
# TYPE dram_route_stale_scrapes_total counter
# TYPE dram_route_uptime_seconds gauge";

/// (family, label keys) of every router sample.
const ROUTER_PROM_LABEL_KEYS: &str = "\
dram_route_backend_cache_hits_aggregate {}
dram_route_backend_cache_hits_total {node}
dram_route_backend_cache_misses_aggregate {}
dram_route_backend_cache_misses_total {node}
dram_route_backend_requests_total {node}
dram_route_backend_stale {node}
dram_route_bad_gateway_total {}
dram_route_failovers_total {}
dram_route_hedge_wins_total {}
dram_route_hedges_total {}
dram_route_node_down_transitions_total {node}
dram_route_node_routed_total {node}
dram_route_node_up {node}
dram_route_poisoned_total {}
dram_route_proxied_total {}
dram_route_requests_total {}
dram_route_retries_total {}
dram_route_ring_points {node}
dram_route_stale_scrapes_total {}
dram_route_uptime_seconds {}";

#[test]
fn metrics_documents_are_pinned_over_the_wire() {
    let (backend, router) = live_and_dead_pool();
    let (status, body, _) = exchange(router.local_addr(), "GET", "/metrics", "");
    assert_eq!(status, 200, "{body}");
    let doc = Value::parse(&body).expect("metrics JSON");
    let shape = json_shape(&doc, &[]).join("\n");
    assert_eq!(shape, ROUTER_JSON_SHAPE, "actual shape:\n{shape}");

    let (status, prom, _) = exchange(router.local_addr(), "GET", "/metrics?format=prometheus", "");
    assert_eq!(status, 200, "{prom}");
    let headers: Vec<String> = prom_headers(&prom, &["dram_route_"]).into_iter().collect();
    let headers = headers.join("\n");
    assert_eq!(headers, ROUTER_PROM_HEADERS, "actual headers:\n{headers}");
    let keys: Vec<String> = prom_label_keys(&prom, &["dram_route_"])
        .into_iter()
        .collect();
    let keys = keys.join("\n");
    assert_eq!(keys, ROUTER_PROM_LABEL_KEYS, "actual label keys:\n{keys}");
    router.shutdown();
    backend.shutdown();
}

/// Sends raw request bytes and reads the reply to close.
fn raw(addr: SocketAddr, bytes: &[u8]) -> dram_server::client::Reply {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    s.write_all(bytes).expect("send");
    Conn::new(s).read_to_close().expect("recv")
}

#[test]
fn metrics_serves_both_json_and_prometheus_formats() {
    let (backend, router) = live_and_dead_pool();
    let addr = router.local_addr();

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
    assert!(
        reply
            .text()
            .contains("# TYPE dram_route_requests_total counter"),
        "{}",
        reply.text()
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
    router.shutdown();
    backend.shutdown();
}

/// A router whose one node refuses every connection: enough for the
/// routes the router answers itself.
fn router_without_a_pool() -> dram_server::RouterHandle {
    route_serve(
        "127.0.0.1:0",
        RouterConfig {
            nodes: vec!["127.0.0.1:1".to_string()],
            probe_interval: Duration::from_secs(30),
            ..RouterConfig::default()
        },
    )
    .expect("bind router")
}

/// True once `read` reports EOF with no byte left over from earlier
/// responses.
fn at_eof(conn: &mut Conn) -> bool {
    let mut scratch = [0u8; 64];
    matches!(conn.read(&mut scratch), Ok(0))
}

/// A request the router answers 4xx poisons its connection: the response
/// says `connection: close`, and a request pipelined behind it is never
/// answered.
#[test]
fn a_4xx_from_the_router_poisons_its_connection() {
    let router = router_without_a_pool();
    let mut s = TcpStream::connect(router.local_addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    s.write_all(
        b"GET /metrics?format=yaml HTTP/1.1\r\nhost: t\r\n\r\n\
          GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n",
    )
    .expect("send");
    let mut conn = Conn::new(s);
    let reply = conn.read_response().expect("the 400");
    assert_eq!(reply.status(), 400, "{reply:?}");
    assert_eq!(reply.header("connection"), Some("close"), "{reply:?}");
    assert!(at_eof(&mut conn), "a request behind the 400 was answered");
    router.shutdown();
}

/// A body declared over `max_body` is answered 413 before it is read.
/// The client is still uploading, so the router drains what arrives
/// before it closes: the client reads the 413, not a reset.
#[test]
fn the_routers_4xx_reaches_a_client_still_uploading() {
    let router = router_without_a_pool();
    let mut upload = format!(
        "POST /v1/evaluate HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n",
        4 * 1024 * 1024
    )
    .into_bytes();
    upload.resize(upload.len() + 256 * 1024, b' ');
    for attempt in 0..5 {
        let mut s = TcpStream::connect(router.local_addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        // The router may stop reading; what it refuses is not the point.
        let _ = s.write_all(&upload);
        let reply = Conn::new(s).read_to_close();
        let reply = reply.unwrap_or_else(|e| panic!("attempt {attempt}: {e}"));
        assert_eq!(reply.status(), 413, "attempt {attempt}: {reply:?}");
    }
    router.shutdown();
}

/// A keep-alive client that went quiet after one request: shutdown
/// closes its connection within the drain, not when a read times out.
#[test]
fn shutdown_does_not_wait_for_an_idle_keepalive_client() {
    let router = router_without_a_pool();
    let s = TcpStream::connect(router.local_addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut conn = Conn::new(s);
    conn.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n")
        .expect("send");
    let reply = conn.read_response().expect("response");
    assert_eq!(reply.status(), 200, "{reply:?}");
    assert_eq!(reply.header("connection"), Some("keep-alive"), "{reply:?}");

    let started = Instant::now();
    router.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(2), "shutdown took {took:?}");
    assert!(at_eof(&mut conn), "the idle connection must close cleanly");
}

/// A live `dram-serve`, and a node that reads requests but never
/// answers: a hung process, or one behind a partition that sends no
/// reset. Each node owns at least one preset on the ring of `nodes`.
struct StalledPool {
    live: dram_server::ServerHandle,
    nodes: Vec<String>,
    on_live: &'static str,
    on_stalled: &'static str,
    /// One message per `/v1/` request the stalled node has read.
    stalled_reads: mpsc::Receiver<()>,
}

fn live_and_stalled_nodes() -> StalledPool {
    let (live, listener, nodes, on_live, on_stalled) = live_node_and_listener();
    let (read, stalled_reads) = mpsc::channel();
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut conn) = conn else { continue };
            let read = read.clone();
            std::thread::spawn(move || {
                let mut head = Vec::new();
                let mut chunk = [0u8; 1024];
                // Read until the peer hangs up, answering nothing.
                while let Ok(n @ 1..) = conn.read(&mut chunk) {
                    head.extend_from_slice(&chunk[..n]);
                    if head.starts_with(b"POST /v1/") && head.windows(4).any(|w| w == b"\r\n\r\n") {
                        let _ = read.send(());
                        head.clear();
                    }
                }
            });
        }
    });
    StalledPool {
        live,
        nodes,
        on_live,
        on_stalled,
        stalled_reads,
    }
}

/// A live `dram-serve` and a listener for a scripted node, the ring's
/// node list over both, and a preset each of them owns on that ring.
fn live_node_and_listener() -> (
    dram_server::ServerHandle,
    TcpListener,
    Vec<String>,
    &'static str,
    &'static str,
) {
    let live = serve("127.0.0.1:0", ServerConfig::default()).expect("bind backend");
    loop {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind scripted node");
        let nodes = vec![
            live.local_addr().to_string(),
            listener.local_addr().expect("addr").to_string(),
        ];
        let ring = Ring::new(&nodes, DEFAULT_REPLICAS);
        let owned_by = |node: usize| {
            presets::NAMES.into_iter().find(|name| {
                let desc = presets::by_name(name).expect("listed preset");
                ring.successors(content_key(&desc))[0] == node
            })
        };
        // Another port until each node owns a preset.
        if let (Some(on_live), Some(on_stalled)) = (owned_by(0), owned_by(1)) {
            return (live, listener, nodes, on_live, on_stalled);
        }
    }
}

/// A close-per-request `POST /v1/evaluate` of `preset`.
fn evaluate(preset: &str) -> Vec<u8> {
    let body = format!(r#"{{"preset":"{preset}"}}"#);
    format!(
        "POST /v1/evaluate HTTP/1.1\r\nhost: t\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Requests waiting on a stalled node hold only their own workers:
/// `/healthz` and a request the live node owns still answer at once,
/// and shutdown cuts the stalled requests — each answered 502 — instead
/// of waiting out `io_timeout` on every one.
#[test]
fn a_stalled_node_holds_only_its_own_requests() {
    let pool = live_and_stalled_nodes();
    let router = route_serve(
        "127.0.0.1:0",
        RouterConfig {
            nodes: pool.nodes,
            // Probes must not take the stalled node down mid-test.
            probe_interval: Duration::from_secs(60),
            ..RouterConfig::default()
        },
    )
    .expect("bind router");

    // More stalled requests than the front end's default 4 workers.
    let waiting: Vec<TcpStream> = (0..6)
        .map(|_| {
            let mut s = TcpStream::connect(router.local_addr()).expect("connect");
            s.set_read_timeout(Some(Duration::from_secs(30)))
                .expect("timeout");
            s.write_all(&evaluate(pool.on_stalled)).expect("send");
            s
        })
        .collect();
    for _ in &waiting {
        pool.stalled_reads
            .recv_timeout(Duration::from_secs(10))
            .expect("every stalled request reaches the stalled node");
    }

    let healthz = b"GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n";
    for request in [healthz.to_vec(), evaluate(pool.on_live)] {
        let started = Instant::now();
        let reply = raw(router.local_addr(), &request);
        let took = started.elapsed();
        assert_eq!(reply.status(), 200, "{reply:?}");
        assert!(took < Duration::from_secs(1), "answered after {took:?}");
    }

    let started = Instant::now();
    router.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(3), "shutdown took {took:?}");
    for s in waiting {
        let reply = Conn::new(s).read_to_close().expect("an answer");
        assert_eq!(reply.status(), 502, "{reply:?}");
    }
    pool.live.shutdown();
}

/// Once probes take a stalled node down, the requests already waiting
/// on it are cut and fail over to the successor, long before their
/// reads would time out.
#[test]
fn requests_waiting_on_a_node_that_goes_down_fail_over() {
    let pool = live_and_stalled_nodes();
    let router = route_serve(
        "127.0.0.1:0",
        RouterConfig {
            nodes: pool.nodes,
            probe_interval: Duration::from_millis(100),
            ..RouterConfig::default()
        },
    )
    .expect("bind router");

    let started = Instant::now();
    let reply = raw(router.local_addr(), &evaluate(pool.on_stalled));
    let took = started.elapsed();
    assert_eq!(reply.status(), 200, "{reply:?}");
    assert!(took < Duration::from_secs(2), "failed over after {took:?}");
    pool.stalled_reads
        .recv_timeout(Duration::from_secs(1))
        .expect("the request waited on the stalled node first");
    router.shutdown();
    pool.live.shutdown();
}

/// A request waiting on a *pooled* connection is cut like one on a fresh
/// connection. The scripted node answers one request on a kept-alive
/// connection, then stalls: it reads the next request on that connection
/// and its probes and answers none of them. Once probes take it down,
/// the request waiting on the reused connection fails over to the live
/// node long before its read would time out.
#[test]
fn a_request_waiting_on_a_reused_connection_is_cut_when_its_node_goes_down() {
    const ANSWER: &[u8] = b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n\
                            content-length: 7\r\nconnection: keep-alive\r\n\r\n\"first\"";
    let (live, listener, nodes, _, on_scripted) = live_node_and_listener();
    let stalled = Arc::new(AtomicBool::new(false));
    // (connection index, request index on it) of every `/v1/` request.
    let (read, reads) = mpsc::channel();
    {
        let stalled = Arc::clone(&stalled);
        std::thread::spawn(move || {
            for (index, conn) in listener.incoming().enumerate() {
                let Ok(mut conn) = conn else { continue };
                let (stalled, read) = (Arc::clone(&stalled), read.clone());
                std::thread::spawn(move || {
                    let mut served = 0;
                    while let Some(head) = read_request(&mut conn) {
                        let v1 = head.contains(" /v1/");
                        if v1 {
                            let _ = read.send((index, served));
                        }
                        if stalled.load(Ordering::SeqCst) {
                            // Hold the connection, answering nothing.
                            let _ = conn.read_to_end(&mut Vec::new());
                            return;
                        }
                        if !v1 {
                            let _ = conn.write_all(
                                b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: close\r\n\r\nok",
                            );
                            return;
                        }
                        let _ = conn.write_all(ANSWER);
                        stalled.store(true, Ordering::SeqCst);
                        served += 1;
                    }
                });
            }
        });
    }
    let router = route_serve(
        "127.0.0.1:0",
        RouterConfig {
            nodes,
            probe_interval: Duration::from_millis(100),
            ..RouterConfig::default()
        },
    )
    .expect("bind router");

    let reply = raw(router.local_addr(), &evaluate(on_scripted));
    assert_eq!((reply.status(), reply.text().as_ref()), (200, "\"first\""));
    let (pooled, first) = reads
        .recv_timeout(Duration::from_secs(1))
        .expect("first read");
    assert_eq!(first, 0);

    let started = Instant::now();
    let reply = raw(router.local_addr(), &evaluate(on_scripted));
    let took = started.elapsed();
    assert_eq!(reply.status(), 200, "{reply:?}");
    assert!(
        reply.text().starts_with('{'),
        "not the live node's answer: {reply:?}"
    );
    assert!(took < Duration::from_secs(2), "failed over after {took:?}");
    let waited = reads
        .recv_timeout(Duration::from_secs(1))
        .expect("second read");
    assert_eq!(
        waited,
        (pooled, 1),
        "the request did not wait on the pooled connection"
    );
    router.shutdown();
    live.shutdown();
}
