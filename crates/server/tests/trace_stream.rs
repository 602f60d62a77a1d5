//! End-to-end tests of `POST /v1/trace`: chunked-transfer streaming,
//! framing equivalence with buffered uploads, smuggling rejection for
//! requests that carry both `Content-Length` and `Transfer-Encoding`,
//! typed trace errors over the wire, and bit-identity of streamed
//! reports against a local [`dram_workload::TraceSession`].

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use dram_core::Dram;
use dram_server::client::{self, Conn, Reply};
use dram_server::presets::FixedModel;
use dram_server::{serve, ServerConfig, ServerHandle};
use dram_workload::{TraceDecoder, TraceSession};

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

fn raw(addr: SocketAddr, bytes: &[u8]) -> Reply {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let _ = s.write_all(bytes);
    Conn::new(s).read_to_close().expect("recv")
}

/// Streams `payload` to `path` with chunked transfer encoding, cut into
/// wire chunks of `chunk` bytes. Write errors are tolerated: the server
/// may answer (and close) mid-upload on a trace error.
fn chunked(addr: SocketAddr, path: &str, payload: &[u8], chunk: usize) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let head = format!(
        "POST {path} HTTP/1.1\r\nhost: t\r\ntransfer-encoding: chunked\r\nconnection: close\r\n\r\n"
    );
    let sent = s.write_all(head.as_bytes()).is_ok()
        && payload
            .chunks(chunk.max(1))
            .all(|piece| client::write_chunk(&mut s, piece).is_ok());
    if sent {
        let _ = s.write_all(client::LAST_CHUNK);
    }
    let reply = Conn::new(s).read_to_close().expect("recv");
    (reply.status(), reply.text().into_owned())
}

/// Uploads `payload` with ordinary `Content-Length` framing.
fn buffered(addr: SocketAddr, path: &str, payload: &[u8]) -> (u16, String) {
    let mut bytes = format!(
        "POST {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        payload.len()
    )
    .into_bytes();
    bytes.extend_from_slice(payload);
    let reply = raw(addr, &bytes);
    (reply.status(), reply.text().into_owned())
}

/// A trace that visits every power state: bursts of work, an explicit
/// power-down window, then a long self-refresh sleep and an idle tail.
fn sample_trace() -> String {
    let mut t =
        String::from("# exercise all five states\n!preset ddr3_1g_x16_55nm\n!policy aggressive\n");
    for i in 0..200u64 {
        let c = i * 100;
        let bank = i % 8;
        t.push_str(&format!(
            "{c} act {bank}\n{} rd {bank}\n{} wr {bank}\n{} pre {bank}\n",
            c + 12,
            c + 20,
            c + 40
        ));
    }
    t.push_str("20050 pde\n24000 pdx\n25000 sre\n90000 srx\n!length 100000\n");
    t
}

/// The report the library computes for the same bytes, read by the same
/// directive rules — the reference for over-the-wire bit-identity.
fn reference_body(payload: &[u8]) -> String {
    let dram = Dram::new(dram_core::reference::ddr3_1g_x16_55nm()).expect("builds");
    let mut session = TraceSession::new(FixedModel::new(&dram));
    let mut decoder = TraceDecoder::new();
    decoder.feed(payload, &mut session).expect("decodes");
    let (commands, report) = session.finish(&mut decoder).expect("bills");
    dram_server::api::trace_document("ddr3_1g_x16_55nm", &report, commands, payload.len() as u64)
        .to_string()
}

#[test]
fn streamed_trace_reports_per_state_breakdown() {
    let server = start(2);
    let payload = sample_trace();
    let (status, body) = chunked(server.local_addr(), "/v1/trace", payload.as_bytes(), 1024);
    assert_eq!(status, 200, "{body}");
    let doc = dram_units::json::Value::parse(&body).expect("trace JSON");
    assert_eq!(doc.get("commands").and_then(|v| v.as_f64()), Some(804.0));
    assert_eq!(doc.get("cycles").and_then(|v| v.as_f64()), Some(100_000.0));
    assert_eq!(
        doc.get("trace_bytes").and_then(|v| v.as_f64()),
        Some(payload.len() as f64)
    );
    assert!(doc.get("energy_pj").and_then(|v| v.as_f64()).unwrap() > 0.0);
    let states = doc.get("states").expect("states object");
    for label in [
        "active",
        "standby",
        "precharge_power_down",
        "active_power_down",
        "self_refresh",
    ] {
        assert!(
            states.get(label).is_some(),
            "missing state `{label}`: {body}"
        );
    }
    let sr = states
        .get("self_refresh")
        .and_then(|s| s.get("cycles"))
        .and_then(|v| v.as_f64())
        .unwrap();
    assert!(sr > 60_000.0, "self-refresh window missing: {body}");
    server.shutdown();
}

/// Chunked and buffered framings, any chunk size, one or eight worker
/// threads: every served body is byte-identical to the local fold.
#[test]
fn streamed_reports_are_bit_identical_to_the_library_fold() {
    let payload = sample_trace();
    let expected = reference_body(payload.as_bytes());
    for threads in [1, 8] {
        let server = start(threads);
        let addr = server.local_addr();
        let (status, body) = buffered(addr, "/v1/trace", payload.as_bytes());
        assert_eq!(status, 200, "{body}");
        assert_eq!(
            body, expected,
            "buffered framing diverged at {threads} threads"
        );
        for chunk in [7, 256, 4096, payload.len()] {
            let (status, body) = chunked(addr, "/v1/trace", payload.as_bytes(), chunk);
            assert_eq!(status, 200, "{body}");
            assert_eq!(
                body, expected,
                "chunk size {chunk} diverged at {threads} threads"
            );
        }
        server.shutdown();
    }
}

/// A `!policy` after a leading `nop` still applies, since a `nop` bills
/// nothing: the server and the reference both tier the trace's idle gaps
/// by the aggressive policy, whatever the framing.
#[test]
fn a_policy_after_a_leading_nop_applies() {
    let payload = b"!preset ddr3_1g_x16_55nm\n0 nop\n!policy aggressive\n0 act 0\n28 pre 0\n\
                    2000 act 1\n2040 pre 1\n!length 5000\n";
    let expected = reference_body(payload);
    let doc = dram_units::json::Value::parse(&expected).expect("trace JSON");
    let power_down = doc.get("power_down_cycles").and_then(|v| v.as_f64());
    assert!(power_down > Some(0.0), "the policy was dropped: {expected}");
    let server = start(1);
    let addr = server.local_addr();
    assert_eq!(
        buffered(addr, "/v1/trace", payload),
        (200, expected.clone())
    );
    for chunk in [1, 7, payload.len()] {
        assert_eq!(
            chunked(addr, "/v1/trace", payload, chunk),
            (200, expected.clone()),
            "chunk size {chunk}"
        );
    }
    server.shutdown();
}

/// Each preset's §IV.B mixed loop, uploaded once as `write_trace` text,
/// reads the loop price `Dram::timed_pattern_power` within 4 ulps: the
/// served fold and the loop price agree over the wire too.
#[test]
fn a_mixed_loop_uploaded_as_a_trace_prices_as_the_loop() {
    let server = start(1);
    for name in dram_server::presets::NAMES {
        let preset = dram_server::presets::get(name).expect("a preset");
        let dram = Dram::new(preset.description().clone()).expect("builds");
        let pattern = dram.mixed_workload();
        let text = dram_workload::write_trace(&pattern);
        let path = format!("/v1/trace?preset={name}");
        let (status, body) = buffered(server.local_addr(), &path, text.as_bytes());
        assert_eq!(status, 200, "{name}: {body}");
        let doc = dram_units::json::Value::parse(&body).expect("trace JSON");
        let served = doc
            .get("average_power_w")
            .and_then(|v| v.as_f64())
            .expect("average_power_w");
        let looped = dram.timed_pattern_power(&pattern).power.watts();
        assert!(
            served.to_bits().abs_diff(looped.to_bits()) <= 4,
            "{name}: served {served} vs loop {looped}"
        );
    }
    server.shutdown();
}

/// Satellite: a request carrying both `Content-Length` and
/// `Transfer-Encoding: chunked` is a smuggling vector — rejected with
/// 400 before any body handling, and the server stays alive.
#[test]
fn content_length_with_chunked_transfer_encoding_is_400() {
    let server = start(1);
    let addr = server.local_addr();
    let reply = raw(
        addr,
        b"POST /v1/trace HTTP/1.1\r\nhost: t\r\ncontent-length: 5\r\n\
          transfer-encoding: chunked\r\nconnection: close\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
    );
    assert_eq!(reply.status(), 400, "{reply:?}");
    assert!(reply.text().contains("conflicts"), "{}", reply.text());
    // Unknown transfer codings are refused too, not half-applied.
    let reply = raw(
        addr,
        b"POST /v1/trace HTTP/1.1\r\nhost: t\r\ntransfer-encoding: gzip\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(reply.status(), 400, "{reply:?}");
    // The server survived both.
    let reply = raw(addr, b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n");
    assert_eq!(reply.status(), 200, "{reply:?}");
    server.shutdown();
}

/// Chunked bodies on non-streaming routes are drained and served
/// exactly like buffered requests.
#[test]
fn chunked_bodies_work_on_buffered_routes() {
    let server = start(1);
    let addr = server.local_addr();
    let body = br#"{"preset":"ddr3_1g_x16_55nm"}"#;
    let (status, chunked_body) = chunked(addr, "/v1/evaluate", body, 3);
    assert_eq!(status, 200, "{chunked_body}");
    let (status, plain_body) = buffered(addr, "/v1/evaluate", body);
    assert_eq!(status, 200);
    assert_eq!(chunked_body, plain_body, "framing changed the answer");
    server.shutdown();
}

#[test]
fn trace_errors_carry_kind_and_line_over_the_wire() {
    let server = start(1);
    let addr = server.local_addr();
    // A malformed line mid-trace: typed 400 with the 1-based line.
    let payload = b"!preset ddr3_1g_x16_55nm\n0 act 0\nbogus line\n";
    let (status, body) = buffered(addr, "/v1/trace", payload);
    assert_eq!(status, 400, "{body}");
    let doc = dram_units::json::Value::parse(&body).expect("error JSON");
    assert_eq!(doc.get("kind").and_then(|v| v.as_str()), Some("syntax"));
    assert_eq!(doc.get("line").and_then(|v| v.as_f64()), Some(3.0));
    assert_eq!(
        doc.get("error").and_then(|v| v.as_str()),
        Some(r#"line 3: bad cycle "bogus""#)
    );
    // The error example of docs/TRACES.md, byte for byte.
    let payload = b"!preset ddr3_1g_x16_55nm\n0 act 0\n12 rdx 0\n";
    let (status, body) = buffered(addr, "/v1/trace", payload);
    assert_eq!(status, 400, "{body}");
    assert_eq!(
        body,
        r#"{"error":"line 3: unknown command \"rdx\"","kind":"syntax","line":3}"#
    );
    // A state-machine violation: refresh while self-refreshing.
    let payload = b"!preset ddr3_1g_x16_55nm\n0 sre\n100 ref\n";
    let (status, body) = buffered(addr, "/v1/trace", payload);
    assert_eq!(status, 400, "{body}");
    let doc = dram_units::json::Value::parse(&body).expect("error JSON");
    assert_eq!(
        doc.get("kind").and_then(|v| v.as_str()),
        Some("refresh_during_self_refresh")
    );
    // A `!policy` after the first command: the billed prefix used the
    // old tiering, so the directive is refused at its own line.
    let payload = b"!preset ddr3_1g_x16_55nm\n0 act 0\n!policy never\n";
    let (status, body) = buffered(addr, "/v1/trace", payload);
    assert_eq!(status, 400, "{body}");
    let doc = dram_units::json::Value::parse(&body).expect("error JSON");
    assert_eq!(
        doc.get("kind").and_then(|v| v.as_str()),
        Some("bad_transition")
    );
    assert_eq!(doc.get("line").and_then(|v| v.as_f64()), Some(3.0));
    // No device selected at the first command.
    let (status, body) = buffered(addr, "/v1/trace", b"0 act 0\n");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("!preset"), "{body}");
    // The same error also answers the streaming path mid-upload.
    let (status, body) = chunked(addr, "/v1/trace", b"0 act 0\n", 2);
    assert_eq!(status, 400, "{body}");
    // The worker survived every rejection.
    let reply = raw(addr, b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n");
    assert_eq!(reply.status(), 200, "{reply:?}");
    server.shutdown();
}

/// A command at cycle `u64::MAX`, or an exit whose latency would carry
/// billing past it, is a `syntax` 400 at its own line, buffered or
/// chunked: neither wraps the fold's cycle count nor panics the handler.
#[test]
fn billing_past_the_last_cycle_is_refused_at_its_line() {
    let server = start(1);
    let addr = server.local_addr();
    for (payload, line, error) in [
        (
            &b"!preset ddr3_1g_x16_55nm\n0 act 0\n18446744073709551615 pre 0\n"[..],
            3,
            "line 3: pre at cycle 18446744073709551615 passes the last billable cycle, \
             18446744073709551614",
        ),
        (
            b"!preset ddr3_1g_x16_55nm\n!policy 16 18446744073709551615\n0 pde\n100 pdx\n",
            4,
            "line 4: pdx at cycle 100 plus 18446744073709551615 exit cycles passes the \
             last billable cycle, 18446744073709551614",
        ),
    ] {
        let want = format!(r#"{{"error":"{error}","kind":"syntax","line":{line}}}"#);
        assert_eq!(buffered(addr, "/v1/trace", payload), (400, want.clone()));
        assert_eq!(chunked(addr, "/v1/trace", payload, 7), (400, want));
    }
    server.shutdown();
}

/// A command on a power-down or self-refresh exit's own cycle sits
/// inside the exit-latency window: a `bad_transition` 400 at its own
/// line, buffered or chunked. Under `!policy never` no exit latency is
/// billed, and the same trace prices.
#[test]
fn a_command_on_an_exits_own_cycle_is_refused_at_its_line() {
    let server = start(1);
    let addr = server.local_addr();
    let path = "/v1/trace?preset=ddr3_1g_x16_55nm";
    for (payload, error) in [
        (
            &b"!policy aggressive\n0 sre\n1000 srx\n1000 act 0\n2000 pre 0\n"[..],
            "line 4: command at cycle 1000 inside an exit-latency window ending at 1513",
        ),
        (
            b"!policy aggressive\n0 pde\n100 pdx\n100 act 0\n",
            "line 4: command at cycle 100 inside an exit-latency window ending at 107",
        ),
    ] {
        let want = format!(r#"{{"error":"{error}","kind":"bad_transition","line":4}}"#);
        assert_eq!(buffered(addr, path, payload), (400, want.clone()));
        assert_eq!(chunked(addr, path, payload, 7), (400, want));
    }
    let (status, body) = buffered(addr, path, b"!policy never\n0 sre\n1000 srx\n1000 act 0\n");
    assert_eq!(status, 200, "{body}");
    server.shutdown();
}

/// An over-long line is `line_too_long` at its own line whether the
/// body arrives buffered (one decoder chunk) or chunked on the wire.
#[test]
fn over_long_lines_are_refused_whatever_the_framing() {
    let server = start(1);
    let addr = server.local_addr();
    let mut payload = b"!preset ddr3_1g_x16_55nm\n0 act 0\n10 pre 0".to_vec();
    payload.resize(payload.len() + 300, b' ');
    payload.extend_from_slice(b"\n20 act 1\n");
    let expected = format!(
        r#"{{"error":"line 3: line exceeds {} bytes","kind":"line_too_long","line":3}}"#,
        TraceDecoder::MAX_LINE_BYTES
    );
    let (status, body) = buffered(addr, "/v1/trace", &payload);
    assert_eq!(
        (status, body.as_str()),
        (400, expected.as_str()),
        "buffered"
    );
    for chunk in [64, 150] {
        let (status, body) = chunked(addr, "/v1/trace", &payload, chunk);
        assert_eq!(
            (status, body.as_str()),
            (400, expected.as_str()),
            "chunked by {chunk}"
        );
    }
    server.shutdown();
}

/// The `?preset=` query selects the device without a `!preset`
/// directive, and `GET /v1/trace` is a 405 like the other POST routes.
#[test]
fn query_preset_and_method_discipline() {
    let server = start(1);
    let addr = server.local_addr();
    let (status, body) = buffered(
        addr,
        "/v1/trace?preset=ddr3_1g_x16_55nm",
        b"0 act 0\n40 pre 0\n",
    );
    assert_eq!(status, 200, "{body}");
    let doc = dram_units::json::Value::parse(&body).expect("trace JSON");
    assert_eq!(
        doc.get("name").and_then(|v| v.as_str()),
        Some("ddr3_1g_x16_55nm")
    );
    let (status, body) = buffered(addr, "/v1/trace?preset=bogus", b"0 act 0\n");
    assert_eq!(status, 400);
    assert!(body.contains("unknown preset"), "{body}");
    let reply = raw(addr, b"GET /v1/trace HTTP/1.1\r\nconnection: close\r\n\r\n");
    assert_eq!(reply.status(), 405, "{reply:?}");
    server.shutdown();
}

/// Streamed traffic lands in the trace route counter and the registry
/// counters, visible in both `/metrics` formats.
#[test]
fn trace_counters_reach_both_metrics_formats() {
    let server = start(2);
    let addr = server.local_addr();
    let payload = sample_trace();
    let (status, _) = chunked(addr, "/v1/trace", payload.as_bytes(), 512);
    assert_eq!(status, 200);

    let (status, body) = buffered(addr, "/metrics", b"");
    // /metrics is GET-only; ask properly.
    assert_eq!(status, 405, "{body}");
    let reply = raw(addr, b"GET /metrics HTTP/1.1\r\nconnection: close\r\n\r\n");
    assert_eq!(reply.status(), 200);
    let json = reply.text();
    let doc = dram_units::json::Value::parse(&json).expect("metrics JSON");
    let trace_requests = doc
        .get("requests_by_route")
        .and_then(|r| r.get("trace"))
        .and_then(|v| v.as_f64())
        .expect("trace route counter");
    assert!(trace_requests >= 1.0, "{json}");
    let registry = doc.get("registry").expect("registry section");
    // The registry is process-global, so counts are cumulative across
    // tests in this binary: assert presence and a sane floor.
    assert!(
        registry
            .get("dram_trace_commands_total")
            .and_then(|v| v.as_f64())
            .expect("commands counter")
            >= 804.0,
        "{json}"
    );
    assert!(
        registry
            .get("dram_trace_state_cycles_self_refresh_total")
            .and_then(|v| v.as_f64())
            .expect("self-refresh cycle counter")
            >= 1.0,
        "{json}"
    );

    let reply = raw(
        addr,
        b"GET /metrics?format=prometheus HTTP/1.1\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(reply.status(), 200);
    let prom = reply.text();
    for family in [
        "dram_trace_commands_total",
        "dram_trace_bytes_total",
        "dram_trace_state_cycles_self_refresh_total",
        "dram_serve_route_requests_total{route=\"trace\"}",
    ] {
        assert!(prom.contains(family), "missing `{family}` in:\n{prom}");
    }
    server.shutdown();
}
