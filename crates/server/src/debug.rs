//! The `/debug/*` introspection family: flight-recorder queries, live
//! reactor state, and on-demand profiling.
//!
//! These endpoints exist so an operator can answer "what happened to
//! request X?" and "what is the reactor holding right now?" on a *live*
//! server, without a debugger and without having restarted it with
//! `--profile`. They read the [`dram_obs::journal`] flight recorder and
//! the span sink; nothing here writes to either beyond the profiling
//! arm/disarm switch.
//!
//! ## Endpoints
//!
//! | Endpoint | Returns |
//! |---|---|
//! | `GET /debug` | index of the family plus journal status |
//! | `GET /debug/events?n=K` | the K most recent journal events (JSON) |
//! | `GET /debug/requests/<x-request-id>` | reconstructed end-to-end timeline for one request: its journal events joined with recorded spans |
//! | `GET /debug/reactor` | live per-connection table: fd, state, idle µs, requests served, carry bytes |
//! | `GET /debug/profile?ms=N` | arm span recording for N ms, return Chrome-trace JSON |
//!
//! ## Access control
//!
//! The family is **loopback-gated**, not authenticated: any request
//! whose peer address is not a loopback IP gets a detail-free `404 not
//! found` — indistinguishable from a route that does not exist, so a
//! remote scanner learns nothing. The gate keys on the *connected
//! socket's* peer address (never a header), which cannot be spoofed
//! without owning the host's network stack.
//!
//! Debug requests are counted in `/metrics` under the `debug` route but
//! are excluded from `slow_requests` sampling: introspection observes
//! the server, it must not perturb what operators see.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use dram_obs::journal::{self, Event};
use dram_units::json::{obj, Value};

use crate::http::{Request, Response};
use crate::trace::RequestId;

/// Default number of events `GET /debug/events` returns without `?n=`.
const DEFAULT_EVENTS: usize = 256;
/// Hard cap on `?n=` so a typo cannot ask for gigabytes of JSON.
const MAX_EVENTS: usize = 65_536;
/// Longest profiling window `GET /debug/profile` will hold a worker.
const MAX_PROFILE_MS: u64 = 10_000;

/// Where a tracked connection currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// Quiet, waiting to turn readable: armed in the reactor's epoll
    /// set, or held by the worker that answered its last request.
    Parked,
    /// Dispatched: sitting in the bounded queue for a worker.
    Queued,
    /// Owned by a worker that is parsing/serving requests on it.
    Active,
}

impl ConnState {
    fn label(self) -> &'static str {
        match self {
            ConnState::Parked => "parked",
            ConnState::Queued => "queued",
            ConnState::Active => "active",
        }
    }
}

/// One live connection's row in the `/debug/reactor` table.
#[derive(Debug, Clone)]
pub struct ConnInfo {
    /// Raw fd, for correlating with `lsof`/`ss` output.
    pub fd: i32,
    /// Current lifecycle state.
    pub state: ConnState,
    /// When the connection entered `state`.
    pub since: Instant,
    /// Requests already answered on this connection.
    pub served: u64,
    /// Over-read pipelined bytes carried into the current dispatch.
    pub carry: usize,
}

/// Live table of every connection the server currently owns, keyed by
/// connection id (the accept sequence number). Updated at each
/// lifecycle transition (accept, park, dispatch, worker start, close);
/// read whole by `GET /debug/reactor`.
///
/// One short uncontended lock per transition — never held across I/O.
#[derive(Debug, Default)]
pub struct ConnTable {
    conns: Mutex<HashMap<u64, ConnInfo>>,
}

impl ConnTable {
    /// Inserts or replaces the row for connection `id`.
    pub fn upsert(&self, id: u64, info: ConnInfo) {
        self.lock().insert(id, info);
    }

    /// Moves connection `id` to `state` (resetting its clock), updating
    /// served/carry. Missing ids are ignored: the table is advisory
    /// telemetry, not ownership.
    pub fn transition(&self, id: u64, state: ConnState, served: u64, carry: usize) {
        if let Some(info) = self.lock().get_mut(&id) {
            info.state = state;
            info.since = Instant::now();
            info.served = served;
            info.carry = carry;
        }
    }

    /// Drops connection `id` from the table (socket closed).
    pub fn remove(&self, id: u64) {
        self.lock().remove(&id);
    }

    /// Number of tracked connections.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, ConnInfo>> {
        self.conns.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Sorted (by connection id) snapshot for rendering.
    fn snapshot(&self) -> Vec<(u64, ConnInfo)> {
        let mut rows: Vec<(u64, ConnInfo)> =
            self.lock().iter().map(|(k, v)| (*k, v.clone())).collect();
        rows.sort_by_key(|(id, _)| *id);
        rows
    }
}

/// True when `peer` is a loopback address. `None` (the peer vanished
/// before `peer_addr` could resolve) fails closed.
fn peer_is_loopback(peer: Option<SocketAddr>) -> bool {
    peer.is_some_and(|p| p.ip().is_loopback())
}

/// The detail-free refusal every non-loopback (or unroutable) debug
/// request gets — byte-identical to an unknown route so the family's
/// existence is not advertised off-host.
fn refused() -> Response {
    Response::error(404, "not found")
}

/// Routes one `/debug/*` request. The caller has already classified the
/// request as [`crate::metrics::Route::Debug`]; this applies the
/// loopback gate and dispatches on the sub-path.
pub fn handle(req: &Request, peer: Option<SocketAddr>, conns: &ConnTable) -> Response {
    if !peer_is_loopback(peer) {
        return refused();
    }
    match req.path.as_str() {
        "/debug" | "/debug/" => index(conns),
        "/debug/events" => events(req),
        "/debug/reactor" => reactor(conns),
        "/debug/profile" => profile(req),
        p => {
            if let Some(id) = p.strip_prefix("/debug/requests/") {
                request_timeline(id)
            } else {
                refused()
            }
        }
    }
}

/// `GET /debug`: what's here, and whether the journal is recording.
fn index(conns: &ConnTable) -> Response {
    let body = obj(vec![
        ("journal_enabled", journal::enabled().into()),
        ("journal_capacity", journal::capacity().into()),
        ("connections", conns.len().into()),
        (
            "endpoints",
            Value::Arr(
                [
                    "/debug/events?n=K",
                    "/debug/requests/<x-request-id>",
                    "/debug/reactor",
                    "/debug/profile?ms=N",
                ]
                .iter()
                .map(|e| Value::from(*e))
                .collect(),
            ),
        ),
    ]);
    Response::json(200, body.to_string())
}

/// One journal event as a JSON object.
fn event_json(e: &Event) -> Value {
    obj(vec![
        ("ts_us", e.ts_us.into()),
        ("thread", e.thread.into()),
        ("kind", e.kind.label().into()),
        ("conn", e.conn.into()),
        ("request", e.request.into()),
        ("arg", e.arg.into()),
    ])
}

/// `GET /debug/events?n=K`: the K most recent journal events, oldest
/// first.
fn events(req: &Request) -> Response {
    let n = match req.query_param("n") {
        None => DEFAULT_EVENTS,
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) if n > 0 => n.min(MAX_EVENTS),
            _ => return Response::error(400, "query parameter `n` must be a positive integer"),
        },
    };
    if !journal::enabled() {
        return Response::error(409, "journal disabled (run dram-serve with --journal N)");
    }
    let recent = journal::recent(n);
    let body = obj(vec![
        ("count", recent.len().into()),
        ("capacity", journal::capacity().into()),
        (
            "events",
            Value::Arr(recent.iter().map(event_json).collect()),
        ),
    ]);
    Response::json(200, body.to_string())
}

/// `GET /debug/requests/<id>`: the reconstructed end-to-end timeline of
/// one request — its journal events (plus the carrying connection's
/// accept/park/wake/dispatch events up to the request's last event)
/// joined with any recorded spans carrying the same id.
///
/// `complete` is true when the timeline spans the whole request life:
/// a `worker_start` and a `response` are both present.
fn request_timeline(raw_id: &str) -> Response {
    let Some(id) = RequestId::parse(raw_id) else {
        return Response::error(400, "malformed request id (expected {unix_ms:x}-{seq:08x})");
    };
    if !journal::enabled() {
        return Response::error(409, "journal disabled (run dram-serve with --journal N)");
    }
    let events = journal::events_for_request(id.seq);
    if events.is_empty() {
        return Response::error(
            404,
            "no journal events for that request id (evicted or unknown)",
        );
    }
    let has = |k: journal::EventKind| events.iter().any(|e| e.kind == k);
    let complete = has(journal::EventKind::WorkerStart) && has(journal::EventKind::Response);
    let conn = events.iter().find(|e| e.conn != 0).map_or(0, |e| e.conn);

    // Spans are joined by the rendered id each request span carries as
    // its `id` arg. Snapshot (not drain): a timeline query must never
    // steal spans from a concurrent profile.
    let rendered = id.to_string();
    let profile = dram_obs::snapshot();
    let spans: Vec<Value> = profile
        .spans
        .iter()
        .filter(|s| s.args.iter().any(|(k, v)| k == "id" && *v == rendered))
        .map(|s| {
            obj(vec![
                ("name", s.name.as_ref().into()),
                ("thread", s.thread.into()),
                ("start_us", s.start_us.into()),
                ("dur_us", s.dur_us.into()),
            ])
        })
        .collect();

    let body = obj(vec![
        ("id", rendered.into()),
        ("conn", conn.into()),
        ("complete", complete.into()),
        (
            "events",
            Value::Arr(events.iter().map(event_json).collect()),
        ),
        ("spans", Value::Arr(spans)),
    ]);
    Response::json(200, body.to_string())
}

/// `GET /debug/reactor`: every connection the server owns right now.
fn reactor(conns: &ConnTable) -> Response {
    let now = Instant::now();
    let rows: Vec<Value> = conns
        .snapshot()
        .into_iter()
        .map(|(id, info)| {
            obj(vec![
                ("conn", id.into()),
                ("fd", u64::from(info.fd.unsigned_abs()).into()),
                ("state", info.state.label().into()),
                (
                    "state_us",
                    u64::try_from(now.saturating_duration_since(info.since).as_micros())
                        .unwrap_or(u64::MAX)
                        .into(),
                ),
                ("served", info.served.into()),
                ("carry_bytes", info.carry.into()),
            ])
        })
        .collect();
    let body = obj(vec![
        ("connections", rows.len().into()),
        ("journal_enabled", journal::enabled().into()),
        ("table", Value::Arr(rows)),
    ]);
    Response::json(200, body.to_string())
}

/// Serializes `GET /debug/profile`: only one window may be armed at a
/// time, or two concurrent calls would fight over the enable switch and
/// each other's spans.
static PROFILING: AtomicBool = AtomicBool::new(false);

/// `GET /debug/profile?ms=N`: arm span recording for N milliseconds on
/// the live server, then return the captured Chrome-trace JSON.
///
/// Holds this worker for the window (clamped to 1..=10 000 ms) — that
/// is the point: the caller wants spans from *now*. If the server
/// already records spans (started with `--profile`), the window leaves
/// recording on and returns a snapshot of everything captured so far
/// instead of draining, so the startup profile is not stolen.
fn profile(req: &Request) -> Response {
    let ms = match req.query_param("ms") {
        None => 100,
        Some(raw) => match raw.parse::<u64>() {
            Ok(ms) if (1..=MAX_PROFILE_MS).contains(&ms) => ms,
            _ => {
                return Response::error(
                    400,
                    &format!("query parameter `ms` must be 1..={MAX_PROFILE_MS}"),
                )
            }
        },
    };
    if PROFILING.swap(true, Ordering::SeqCst) {
        return Response::error(409, "a profiling window is already armed, retry shortly");
    }
    let was_enabled = dram_obs::enabled();
    dram_obs::set_enabled(true);
    std::thread::sleep(Duration::from_millis(ms));
    let profile = if was_enabled {
        dram_obs::snapshot()
    } else {
        dram_obs::set_enabled(false);
        dram_obs::drain()
    };
    PROFILING.store(false, Ordering::SeqCst);
    Response::json(200, dram_obs::chrome_trace(&profile).to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

    fn get(path: &str, query: &str) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            query: query.into(),
            headers: std::collections::HashMap::new(),
            body: Vec::new(),
            http11: true,
        }
    }

    fn loopback() -> Option<SocketAddr> {
        Some(SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 40_000))
    }

    #[test]
    fn non_loopback_peers_get_a_detail_free_404() {
        let conns = ConnTable::default();
        let remote = SocketAddr::new(IpAddr::V4(Ipv4Addr::new(8, 8, 8, 8)), 1);
        for path in [
            "/debug",
            "/debug/events",
            "/debug/reactor",
            "/debug/profile",
        ] {
            let resp = handle(&get(path, ""), Some(remote), &conns);
            assert_eq!(resp.status, 404, "{path}");
            assert_eq!(
                String::from_utf8_lossy(&resp.body),
                "{\"error\":\"not found\"}",
                "refusal must not leak endpoint details for {path}"
            );
        }
        // Unresolvable peer fails closed.
        let resp = handle(&get("/debug", ""), None, &conns);
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn ipv6_loopback_is_admitted() {
        let conns = ConnTable::default();
        let peer = Some(SocketAddr::new(IpAddr::V6(Ipv6Addr::LOCALHOST), 1));
        assert_eq!(handle(&get("/debug", ""), peer, &conns).status, 200);
    }

    #[test]
    fn index_reports_journal_state_and_endpoints() {
        let conns = ConnTable::default();
        let resp = handle(&get("/debug", ""), loopback(), &conns);
        assert_eq!(resp.status, 200);
        let body = String::from_utf8_lossy(&resp.body).to_string();
        let v = dram_units::json::Value::parse(&body).expect("index JSON parses");
        assert!(v.get("journal_enabled").is_some());
        assert!(v.get("endpoints").and_then(Value::as_array).is_some());
    }

    #[test]
    fn events_rejects_bad_n_and_unknown_subpaths_refuse() {
        let conns = ConnTable::default();
        let resp = handle(&get("/debug/events", "n=zero"), loopback(), &conns);
        assert_eq!(resp.status, 400);
        let resp = handle(&get("/debug/nope", ""), loopback(), &conns);
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn request_timeline_rejects_malformed_ids() {
        let resp = request_timeline("not-hex-at-all-...");
        assert_eq!(resp.status, 400);
        let resp = request_timeline("");
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn profile_rejects_out_of_range_windows() {
        let resp = profile(&get("/debug/profile", "ms=0"));
        assert_eq!(resp.status, 400);
        let resp = profile(&get("/debug/profile", "ms=999999"));
        assert_eq!(resp.status, 400);
        let resp = profile(&get("/debug/profile", "ms=abc"));
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn conn_table_tracks_transitions() {
        let conns = ConnTable::default();
        conns.upsert(
            7,
            ConnInfo {
                fd: 12,
                state: ConnState::Parked,
                since: Instant::now(),
                served: 0,
                carry: 0,
            },
        );
        assert_eq!(conns.len(), 1);
        conns.transition(7, ConnState::Active, 3, 128);
        let rows = conns.snapshot();
        assert_eq!(rows[0].1.state, ConnState::Active);
        assert_eq!(rows[0].1.served, 3);
        assert_eq!(rows[0].1.carry, 128);
        // Unknown ids are ignored, not invented.
        conns.transition(99, ConnState::Queued, 0, 0);
        assert_eq!(conns.len(), 1);
        conns.remove(7);
        assert!(conns.is_empty());
    }
}
