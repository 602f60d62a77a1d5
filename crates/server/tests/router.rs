//! End-to-end tests for `dram-route` over real sockets: the all-down
//! 502 path, single-node byte-identical pass-through, the
//! poison-on-mid-body-failure rule (no retry once a response byte has
//! been relayed), upstream heads with bad framing never reaching the
//! client, the loopback gate on `/debug/*` holding through the proxy
//! hop, and the federated `/metrics` in both formats.

use std::io::{Read, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dram_server::client::Conn;
use dram_server::{route_serve, serve, RouterConfig, ServerConfig};
use dram_units::json::Value;

#[allow(dead_code)]
#[path = "support/metrics_shape.rs"]
mod metrics_shape;

use metrics_shape::{json_shape, prom_headers, prom_label_keys};

/// One close-per-request HTTP exchange; returns (status, body, id).
fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
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
        doc.get("bad_gateway_total").and_then(Value::as_f64).unwrap_or(0.0) >= 1.0,
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
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake upstream");
    let addr = listener.local_addr().expect("addr");
    let hits = Arc::new(AtomicU64::new(0));
    let hits_in = Arc::clone(&hits);
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut conn) = conn else { continue };
            let hits = Arc::clone(&hits_in);
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
                    let _ = conn.write_all(reply);
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
    s.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
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
    assert!(delivered < 100_000, "body must be truncated, got {delivered}");

    // Exactly one upstream attempt: a request that already relayed
    // bytes is not retryable.
    std::thread::sleep(Duration::from_millis(400));
    assert_eq!(hits.load(Ordering::SeqCst), 1, "mid-body failure was retried");

    let (status, body, _) = exchange(router.local_addr(), "GET", "/metrics", "");
    assert_eq!(status, 200);
    let doc = Value::parse(&body).expect("metrics JSON");
    assert!(
        doc.get("poisoned_total").and_then(Value::as_f64).unwrap_or(0.0) >= 1.0,
        "poisoned counter missing: {body}"
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
        assert!(hits.load(Ordering::SeqCst) >= 1, "the upstream was never asked");
        router.shutdown();
    }
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
    let keys: Vec<String> = prom_label_keys(&prom, &["dram_route_"]).into_iter().collect();
    let keys = keys.join("\n");
    assert_eq!(keys, ROUTER_PROM_LABEL_KEYS, "actual label keys:\n{keys}");
    router.shutdown();
    backend.shutdown();
}

/// Sends raw request bytes and reads the reply to close.
fn raw(addr: SocketAddr, bytes: &[u8]) -> dram_server::client::Reply {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
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
    assert!(reply.text().contains("# TYPE dram_route_requests_total counter"), "{}", reply.text());

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
    assert!(reply.text().contains("unknown metrics format"), "{}", reply.text());
    router.shutdown();
    backend.shutdown();
}
