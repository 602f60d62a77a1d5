//! The service's route table and JSON handlers.
//!
//! Every handler is a pure function of the request body: evaluation goes
//! through the process-wide [`EvalEngine::global`] cache, and responses
//! are serialized deterministically (object members in fixed order,
//! floats via Rust's shortest-roundtrip formatter). Concurrent clients
//! therefore receive byte-identical bodies to a direct library call,
//! whatever the worker count.
//!
//! Handlers additionally report the engine-cache activity they caused
//! ([`CacheActivity`]) so the front end can attribute hits and model
//! builds to individual request ids in logs and slow-request samples.

use std::borrow::Cow;
use std::net::TcpStream;
use std::sync::Arc;

pub use dram_core::evaluate_document;
use dram_core::{
    content_key, write_evaluate_body, Dram, DramDescription, EvalEngine, ModelError, Pattern,
    PowerState,
};
use dram_units::json::{obj, Value};
use dram_workload::{
    PowerDownPolicy, StreamFold, TraceDecoder, TraceDevice, TraceError, TraceErrorKind,
    TraceReport, TraceSession,
};

use crate::http::{self, ChunkedBody, Request, Response};
use crate::metrics::{self, Metrics, Route};
use crate::presets::{self, Preset};

/// Largest `requests` array `/v1/batch` accepts in one call.
pub const MAX_BATCH_ITEMS: usize = 256;

/// Engine model-cache activity attributed to one request: how many
/// lookups hit the cache and how many had to build a model.
///
/// Sweeps build their perturbed variants inside `dram_sensitivity`, so
/// `/v1/sweep` reports only zeroes here; its builds still show up in the
/// aggregate engine counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheActivity {
    /// Model lookups served from the cache.
    pub hits: u32,
    /// Model lookups that built (a miss, even if a concurrent builder
    /// raced this call to the insert).
    pub misses: u32,
}

impl CacheActivity {
    fn note(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }
}

/// Dispatches one parsed request to its handler.
///
/// Returns the route label (for metrics) and the cache activity the
/// handler caused (for tracing) alongside the response.
#[must_use]
pub fn handle(req: &Request, metrics: &Metrics) -> (Route, Response, CacheActivity) {
    let mut activity = CacheActivity::default();
    // Classification lives in `Route::classify` so the front end's
    // load-shedding check and this dispatcher can never disagree about
    // what a request is.
    let route = Route::classify(req.method.as_str(), req.path.as_str());
    let response = match route {
        Route::Healthz => healthz(),
        Route::Presets => list_presets(),
        Route::Evaluate => with_body(req, |b| evaluate(b, &mut activity)),
        Route::Batch => with_body(req, |b| batch(b, &mut activity)),
        Route::Pattern => with_body(req, |b| pattern(b, &mut activity)),
        Route::Sweep => with_body(req, sweep_handler),
        Route::Trace => trace_buffered(req, &mut activity),
        Route::Metrics => metrics::respond(req, |prometheus| {
            let engine = EvalEngine::global().snapshot();
            if prometheus {
                metrics.to_prometheus(engine)
            } else {
                metrics.to_json(engine).to_string()
            }
        }),
        // The debug family is served by the loopback-gated router in
        // the server front end *before* requests reach this
        // dispatcher. Reaching this arm means the caller bypassed the
        // gate (direct library use), so answer exactly like the
        // non-loopback refusal: a detail-free 404.
        Route::Debug => Response::error(404, "not found"),
        Route::Other => match req.path.as_str() {
            "/healthz" | "/v1/presets" | "/metrics" => method_not_allowed("GET"),
            "/v1/evaluate" | "/v1/batch" | "/v1/pattern" | "/v1/sweep" | "/v1/trace" => {
                method_not_allowed("POST")
            }
            _ => Response::error(404, &format!("no such route `{}`", req.path)),
        },
    };
    (route, response, activity)
}

fn method_not_allowed(allow: &str) -> Response {
    Response::error(405, "method not allowed").with_header("allow", allow)
}

fn healthz() -> Response {
    Response::json(200, obj(vec![("status", "ok".into())]).to_string())
}

fn list_presets() -> Response {
    let names: Vec<Value> = presets::NAMES.iter().map(|n| (*n).into()).collect();
    Response::json(
        200,
        obj(vec![
            ("presets", names.into()),
            ("count", presets::NAMES.len().into()),
        ])
        .to_string(),
    )
}

/// Parses the request body as a JSON object and runs the handler on it.
fn with_body(req: &Request, f: impl FnOnce(&Value) -> Response) -> Response {
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return Response::error(400, "request body is not UTF-8"),
    };
    match Value::parse(text) {
        Ok(body @ Value::Obj(_)) => f(&body),
        Ok(_) => Response::error(400, "request body must be a JSON object"),
        Err(e) => Response::error(400, &e.to_string()),
    }
}

/// The device a request names, resolved once: an entry of the preset
/// table, or a description parsed from the request.
pub(crate) enum Device {
    Preset(&'static Preset),
    Parsed(Box<DramDescription>),
}

impl Device {
    fn description(&self) -> &DramDescription {
        match self {
            Device::Preset(p) => p.description(),
            Device::Parsed(d) => d,
        }
    }

    /// The content key, which is both the model-cache key and the
    /// shard-routing key: a preset's comes from the table, a parsed
    /// description is hashed here.
    pub(crate) fn key(&self) -> u64 {
        match self {
            Device::Preset(p) => p.key(),
            Device::Parsed(d) => content_key(d),
        }
    }

    /// Builds (or fetches from the global cache) the device's model,
    /// noting the hit or miss in `activity`; the flag is `true` on a hit.
    /// A parsed description moves into the model it builds; a preset's
    /// is lent, and cloned only on a miss.
    fn model(self, activity: &mut CacheActivity) -> Result<(Arc<Dram>, bool), ModelError> {
        let key = self.key();
        let desc = match self {
            Device::Preset(p) => Cow::Borrowed(p.description()),
            Device::Parsed(d) => Cow::Owned(*d),
        };
        let (model, hit) = EvalEngine::global().model_keyed(key, desc)?;
        activity.note(hit);
        Ok((model, hit))
    }
}

/// The table entry for a preset name, or the 400 message naming the
/// valid ones.
fn preset(name: &str) -> Result<&'static Preset, String> {
    presets::get(name).ok_or_else(|| {
        format!(
            "unknown preset `{name}`; valid presets: {}",
            presets::NAMES.join(", ")
        )
    })
}

/// Resolves the device a request addresses: `"preset"` (a name from
/// [`presets::NAMES`]) or `"description"` (description-language text).
/// Errors are returned as the message for a 400 body, so batch items
/// can carry them inline.
///
/// The shard router resolves request bodies here too, and routes on
/// [`Device::key`]: the cache and the ring key every request alike.
pub(crate) fn resolve(body: &Value) -> Result<Device, String> {
    match (body.get("preset"), body.get("description")) {
        (Some(_), Some(_)) => Err("give either `preset` or `description`, not both".into()),
        (Some(p), None) => {
            let name = p.as_str().ok_or("`preset` must be a string")?;
            preset(name).map(Device::Preset)
        }
        (None, Some(d)) => {
            let text = d.as_str().ok_or("`description` must be a string")?;
            dram_dsl::parse_description(text)
                .map(|d| Device::Parsed(Box::new(d)))
                .map_err(|e| format!("description parse error: {e}"))
        }
        (None, None) => Err("request needs a `preset` name or a `description` text".into()),
    }
}

/// Resolves a request body to an owned description, exactly as the
/// handlers resolve it. [`dram_core::batch::content_key`] of the result
/// is the key the service caches and routes the request under, so tools
/// outside the crate can place a request body on the shard ring.
pub fn resolve_description(body: &Value) -> Result<DramDescription, String> {
    resolve(body).map(|device| match device {
        Device::Preset(p) => p.description().clone(),
        Device::Parsed(d) => *d,
    })
}

/// [`Device::model`] with a failed build as its 400 response.
fn model_for(device: Device, activity: &mut CacheActivity) -> Result<(Arc<Dram>, bool), Response> {
    device
        .model(activity)
        .map_err(|e| Response::error(400, &model_error_message(&e)))
}

fn model_error_message(e: &ModelError) -> String {
    format!("invalid description: {e}")
}

fn evaluate(body: &Value, activity: &mut CacheActivity) -> Response {
    let device = match resolve(body) {
        Ok(d) => d,
        Err(msg) => return Response::error(400, &msg),
    };
    match model_for(device, activity) {
        // A hit serves the body the cached model keeps. A miss writes the
        // reply once, so a model asked for once stores no copy.
        Ok((dram, true)) => Response::json(200, dram.evaluate_body().to_owned()),
        Ok((dram, false)) => {
            let mut text = String::new();
            write_evaluate_body(&dram, &mut text);
            Response::json(200, text)
        }
        Err(r) => r,
    }
}

/// `POST /v1/batch`: `{"requests": [<evaluate request>, ...]}` answered
/// through [`EvalEngine::evaluate_many_keyed`] in one parallel,
/// memoized pass.
///
/// `results[i]` corresponds to `requests[i]`: either the exact
/// [`write_evaluate_body`] text for that item (byte-identical to a
/// single `/v1/evaluate` call) or `{"error": ...}` — one bad item never
/// fails its neighbours. The response is 200 whenever the envelope
/// itself was well-formed. Item bodies are spliced into the envelope as
/// text, with no document built in between.
fn batch(body: &Value, activity: &mut CacheActivity) -> Response {
    let Some(items) = body.get("requests").and_then(Value::as_array) else {
        return Response::error(
            400,
            "request needs a `requests` array of evaluate requests",
        );
    };
    if items.len() > MAX_BATCH_ITEMS {
        return Response::error(
            400,
            &format!(
                "batch of {} items exceeds the limit of {MAX_BATCH_ITEMS}",
                items.len()
            ),
        );
    }

    // Resolve every item first, then build all resolvable models in one
    // engine pass so duplicates share work and distinct items build in
    // parallel.
    let resolved: Vec<Result<Device, String>> = items
        .iter()
        .map(|item| {
            if matches!(item, Value::Obj(_)) {
                resolve(item)
            } else {
                Err("batch item must be a JSON object".into())
            }
        })
        .collect();
    let keyed: Vec<(u64, &DramDescription)> = resolved
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|d| (d.key(), d.description()))
        .collect();
    let mut models = EvalEngine::global().evaluate_many_keyed(&keyed).into_iter();

    let mut text = format!("{{\"count\":{},\"results\":[", resolved.len());
    for (i, r) in resolved.iter().enumerate() {
        if i > 0 {
            text.push(',');
        }
        match r {
            Err(msg) => http::write_error(&mut text, msg),
            Ok(_) => match models.next().expect("one model per resolved item") {
                Ok((model, hit)) => {
                    activity.note(hit);
                    write_evaluate_body(&model, &mut text);
                }
                Err(e) => http::write_error(&mut text, &model_error_message(&e)),
            },
        }
    }
    text.push_str("]}");
    Response::json(200, text)
}

/// The `/v1/pattern` response document.
#[must_use]
pub fn pattern_document(dram: &Dram, pattern: &Pattern) -> Value {
    let summary = dram.pattern_power(pattern);
    obj(vec![
        ("name", dram.description().name.as_str().into()),
        (
            "pattern",
            pattern
                .slots()
                .iter()
                .map(|c| c.mnemonic())
                .collect::<Vec<_>>()
                .join(" ")
                .into(),
        ),
        ("slots", pattern.len().into()),
        ("power_w", summary.power.watts().into()),
        ("current_ma", (summary.current.amperes() * 1e3).into()),
        ("background_w", summary.background.watts().into()),
    ])
}

fn pattern(body: &Value, activity: &mut CacheActivity) -> Response {
    let device = match resolve(body) {
        Ok(d) => d,
        Err(msg) => return Response::error(400, &msg),
    };
    let Some(text) = body.get("pattern").and_then(Value::as_str) else {
        return Response::error(400, "request needs a `pattern` string, e.g. \"act nop rd nop pre nop\"");
    };
    let parsed = match Pattern::parse(text) {
        Ok(p) => p,
        Err(e) => return Response::error(400, &format!("bad pattern: {e}")),
    };
    let dram = match model_for(device, activity) {
        Ok((d, _)) => d,
        Err(r) => return r,
    };
    // Opt-in single-bank timing validation (`"checked": true`).
    if body.get("checked").and_then(Value::as_bool) == Some(true) {
        if let Err(e) = dram.pattern_power_checked(&parsed) {
            return Response::error(400, &format!("pattern is not timing-legal: {e}"));
        }
    }
    Response::json(200, pattern_document(&dram, &parsed).to_string())
}

/// The `/v1/sweep` response document.
///
/// # Errors
///
/// Returns the error response if the sweep itself fails (a perturbed
/// description no longer validates).
pub fn sweep_document(
    desc: &DramDescription,
    variation: f64,
    top: Option<usize>,
) -> Result<Value, Response> {
    let result = dram_sensitivity::sweep(EvalEngine::global(), desc, variation)
        .map_err(|e| Response::error(400, &format!("sweep failed: {e}")))?;
    let mut ranked = result.ranked();
    if let Some(n) = top {
        ranked.truncate(n);
    }
    let entries: Vec<Value> = ranked
        .iter()
        .map(|s| {
            obj(vec![
                ("param", s.param.name().into()),
                ("up", s.up.into()),
                ("down", s.down.into()),
                ("swing", s.swing().into()),
            ])
        })
        .collect();
    Ok(obj(vec![
        ("name", desc.name.as_str().into()),
        ("variation", variation.into()),
        ("baseline_w", result.baseline_watts.into()),
        ("entries", entries.into()),
    ]))
}

fn sweep_handler(body: &Value) -> Response {
    let device = match resolve(body) {
        Ok(d) => d,
        Err(msg) => return Response::error(400, &msg),
    };
    let variation = match body.get("variation") {
        None => 0.2,
        Some(v) => match v.as_f64() {
            Some(x) if x.is_finite() && x > 0.0 && x < 0.9 => x,
            _ => return Response::error(400, "`variation` must be a number in (0, 0.9)"),
        },
    };
    let top = match body.get("top") {
        None => None,
        Some(v) => match v.as_f64() {
            Some(x) if x.fract() == 0.0 && (1.0..=10_000.0).contains(&x) => {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                Some(x as usize)
            }
            _ => return Response::error(400, "`top` must be a positive integer"),
        },
    };
    match sweep_document(device.description(), variation, top) {
        Ok(doc) => Response::json(200, doc.to_string()),
        Err(r) => r,
    }
}

/// The `/v1/trace` response document: whole-trace totals plus the
/// per-state cycle/energy breakdown of the five-state power machine.
///
/// Public so the trace benchmark can assert the streamed response is
/// bit-identical to a local [`StreamFold`] over the same commands.
#[must_use]
pub fn trace_document(name: &str, report: &TraceReport, commands: u64, trace_bytes: u64) -> Value {
    let states: Vec<(String, Value)> = PowerState::ALL
        .iter()
        .map(|&s| {
            (
                s.label().to_string(),
                obj(vec![
                    ("cycles", report.states.cycles(s).into()),
                    (
                        "energy_pj",
                        (report.states.energy(s).joules() * 1e12).into(),
                    ),
                ]),
            )
        })
        .collect();
    obj(vec![
        ("name", name.into()),
        ("commands", commands.into()),
        ("trace_bytes", trace_bytes.into()),
        ("cycles", report.states.total_cycles().into()),
        ("energy_pj", (report.energy.joules() * 1e12).into()),
        ("duration_s", report.duration.seconds().into()),
        ("average_power_w", report.average_power.watts().into()),
        (
            "energy_per_bit_pj",
            (report.energy_per_bit.joules() * 1e12).into(),
        ),
        (
            "command_energy_pj",
            (report.command_energy.joules() * 1e12).into(),
        ),
        (
            "background_energy_pj",
            (report.background_energy.joules() * 1e12).into(),
        ),
        (
            "power_down_energy_pj",
            (report.power_down_energy.joules() * 1e12).into(),
        ),
        (
            "self_refresh_energy_pj",
            (report.self_refresh_energy.joules() * 1e12).into(),
        ),
        ("power_down_cycles", report.power_down_cycles.into()),
        ("self_refresh_cycles", report.self_refresh_cycles.into()),
        ("bits", report.bits.into()),
        ("states", Value::Obj(states)),
    ])
}

/// The 400 body for a typed trace error: the rendered message plus the
/// machine-checkable kind and the 1-based source line (0 if unknown).
fn trace_error_response(e: &TraceError) -> Response {
    Response::json(
        400,
        obj(vec![
            ("error", e.to_string().as_str().into()),
            ("kind", e.kind.label().into()),
            ("line", e.line.into()),
        ])
        .to_string(),
    )
}

/// The [`TraceDevice`] of one `/v1/trace` request: the preset the
/// `?preset=` query or a `!preset` directive names, and the cache
/// activity of the one model lookup its fold makes.
#[derive(Default)]
struct ServedPreset {
    preset: Option<&'static Preset>,
    activity: CacheActivity,
}

impl ServedPreset {
    /// A session for `req`, starting from its `?preset=` query.
    fn session(req: &Request) -> Result<TraceSession<Self>, Response> {
        let preset = req.query_param("preset").map(preset).transpose();
        let preset = preset.map_err(|msg| Response::error(400, &msg))?;
        Ok(TraceSession::new(Self {
            preset,
            ..Self::default()
        }))
    }
}

impl TraceDevice for ServedPreset {
    fn preset(&mut self, name: &str) -> Result<(), TraceError> {
        self.preset = Some(presets::get(name).ok_or_else(|| {
            TraceError::new(TraceErrorKind::Syntax, format!("unknown preset `{name}`"))
        })?);
        Ok(())
    }

    fn fold(&mut self, policy: PowerDownPolicy) -> Result<StreamFold, TraceError> {
        let Some(preset) = self.preset else {
            return Err(TraceError::new(
                TraceErrorKind::Syntax,
                "trace needs a `!preset` directive or `?preset=` query parameter",
            ));
        };
        let (dram, _) = Device::Preset(preset)
            .model(&mut self.activity)
            .map_err(|e| TraceError::new(TraceErrorKind::Syntax, model_error_message(&e)))?;
        Ok(StreamFold::new(&dram, policy))
    }
}

/// The response to a trace body: the decoder's verdict on what it was
/// `fed`, else the session closed into the report.
fn trace_response(
    fed: Result<(), TraceError>,
    session: &mut TraceSession<ServedPreset>,
    decoder: &mut TraceDecoder,
) -> Response {
    match fed.and_then(|()| session.finish(decoder)) {
        Ok((commands, report)) => {
            let name = session.device().preset.map_or("", Preset::name);
            Response::json(
                200,
                trace_document(name, &report, commands, decoder.bytes_fed()).to_string(),
            )
        }
        Err(e) => trace_error_response(&e),
    }
}

/// `POST /v1/trace` with the body already in memory (a request framed
/// with `Content-Length`). The decoder and session are the same as the
/// streaming path's, so results are byte-identical whatever the framing.
fn trace_buffered(req: &Request, activity: &mut CacheActivity) -> Response {
    let mut session = match ServedPreset::session(req) {
        Ok(s) => s,
        Err(r) => return r,
    };
    let mut decoder = TraceDecoder::new();
    let fed = decoder.feed(&req.body, &mut session);
    let response = trace_response(fed, &mut session, &mut decoder);
    *activity = session.device().activity;
    response
}

/// `POST /v1/trace` with a chunked body still on the wire: each run of
/// chunk data feeds the trace decoder in place, in the reader's buffer,
/// as it arrives, so memory stays O(1) in the trace length (one read
/// buffer plus one partial line).
///
/// Called by the server front end instead of [`handle`] when the
/// request streams; the returned activity is attributed to the request
/// exactly like the buffered path's.
#[must_use]
pub fn handle_trace_stream(
    req: &Request,
    stream: &mut TcpStream,
    body: &mut ChunkedBody,
) -> (Response, CacheActivity) {
    let mut session = match ServedPreset::session(req) {
        Ok(s) => s,
        Err(r) => return (r, CacheActivity::default()),
    };
    let mut decoder = TraceDecoder::new();
    let response = loop {
        match body.next_run(stream) {
            Ok(Some(data)) => {
                if let Err(e) = decoder.feed(data, &mut session) {
                    break trace_error_response(&e);
                }
            }
            Ok(None) => break trace_response(Ok(()), &mut session, &mut decoder),
            Err(e) => break Response::error(e.status(), &e.message()),
        }
    };
    (response, session.device().activity)
}

/// The `Value`-building renderers the text writers replaced: the
/// evaluate document built member by member, and the batch envelope
/// built from item documents. Kept as the reference the writers are
/// pinned to, byte for byte.
#[cfg(test)]
mod reference {
    use dram_core::{Dram, EvalEngine, IddKind, Operation};
    use dram_units::json::{obj, Value};

    use super::{model_error_message, resolve, Device};

    pub(super) fn evaluate_document(dram: &Dram) -> Value {
        let idd = dram.idd();
        let idd_ma: Vec<(String, Value)> = IddKind::ALL
            .iter()
            .map(|&k| (k.symbol().to_string(), (idd.get(k).amperes() * 1e3).into()))
            .collect();
        let ops: Vec<(String, Value)> = Operation::ALL
            .iter()
            .map(|&op| {
                let e = dram.operation_energy(op);
                (
                    op.to_string(),
                    obj(vec![
                        ("external_pj", (e.external().joules() * 1e12).into()),
                        ("internal_pj", (e.internal().joules() * 1e12).into()),
                    ]),
                )
            })
            .collect();
        obj(vec![
            ("name", dram.description().name.as_str().into()),
            ("idd_ma", Value::Obj(idd_ma)),
            ("operations", Value::Obj(ops)),
            ("background_w", dram.background_power().watts().into()),
            (
                "energy_per_bit_pj",
                obj(vec![
                    (
                        "streaming",
                        (dram.energy_per_bit_streaming().joules() * 1e12).into(),
                    ),
                    (
                        "random",
                        (dram.energy_per_bit_random().joules() * 1e12).into(),
                    ),
                ]),
            ),
            ("die_area_mm2", (dram.area().die.square_meters() * 1e6).into()),
        ])
    }

    /// The `/v1/batch` reply for a well-formed envelope's items.
    pub(super) fn batch_document(items: &[Value]) -> Value {
        let resolved: Vec<Result<Device, String>> = items
            .iter()
            .map(|item| {
                if matches!(item, Value::Obj(_)) {
                    resolve(item)
                } else {
                    Err("batch item must be a JSON object".into())
                }
            })
            .collect();
        let keyed: Vec<(u64, &dram_core::DramDescription)> = resolved
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .map(|d| (d.key(), d.description()))
            .collect();
        let mut models = EvalEngine::global().evaluate_many_keyed(&keyed).into_iter();
        let results: Vec<Value> = resolved
            .into_iter()
            .map(|r| match r {
                Err(msg) => obj(vec![("error", msg.as_str().into())]),
                Ok(_) => match models.next().expect("one model per resolved item") {
                    Ok((model, _)) => evaluate_document(&model),
                    Err(e) => obj(vec![("error", model_error_message(&e).as_str().into())]),
                },
            })
            .collect();
        obj(vec![
            ("count", results.len().into()),
            ("results", results.into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            query: String::new(),
            headers: HashMap::new(),
            body: body.as_bytes().to_vec(),
            http11: true,
        }
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            query: String::new(),
            headers: HashMap::new(),
            body: Vec::new(),
            http11: true,
        }
    }

    fn body_str(r: &Response) -> String {
        String::from_utf8(r.body.clone()).unwrap()
    }

    #[test]
    fn healthz_and_presets_respond() {
        let m = Metrics::new();
        let (route, r, _) = handle(&get("/healthz"), &m);
        assert_eq!((route, r.status), (Route::Healthz, 200));
        assert_eq!(body_str(&r), "{\"status\":\"ok\"}");

        let (_, r, _) = handle(&get("/v1/presets"), &m);
        let doc = Value::parse(&body_str(&r)).unwrap();
        assert_eq!(
            doc.get("count").and_then(Value::as_f64),
            Some(presets::NAMES.len() as f64)
        );
    }

    #[test]
    fn metrics_negotiates_json_and_prometheus() {
        let m = Metrics::new();
        m.record(Route::Evaluate, 200, std::time::Duration::from_micros(10));

        // Default: the JSON document, with an explicit content type.
        let (route, r, _) = handle(&get("/metrics"), &m);
        assert_eq!((route, r.status), (Route::Metrics, 200));
        assert_eq!(r.content_type, "application/json");
        let doc = Value::parse(&body_str(&r)).unwrap();
        assert!(doc.get("requests_total").is_some());

        // Query parameter selects Prometheus.
        let mut req = get("/metrics");
        req.query = "format=prometheus".into();
        let (_, r, _) = handle(&req, &m);
        assert_eq!(r.status, 200);
        assert_eq!(r.content_type, "text/plain; version=0.0.4");
        let text = body_str(&r);
        assert!(text.contains("# TYPE dram_serve_requests_total counter"), "{text}");
        assert!(text.contains("dram_serve_route_requests_total{route=\"evaluate\"} 1"), "{text}");
        assert!(text.contains("dram_serve_uptime_seconds"), "{text}");
        assert!(
            text.contains(concat!("version=\"", env!("CARGO_PKG_VERSION"), "\"")),
            "{text}"
        );

        // `format=json` forces JSON even with a text/plain Accept.
        let mut req = get("/metrics");
        req.query = "format=json".into();
        req.headers.insert("accept".into(), "text/plain".into());
        let (_, r, _) = handle(&req, &m);
        assert_eq!(r.content_type, "application/json");

        // Accept-header negotiation without a query parameter.
        let mut req = get("/metrics");
        req.headers.insert("accept".into(), "text/plain".into());
        let (_, r, _) = handle(&req, &m);
        assert_eq!(r.content_type, "text/plain; version=0.0.4");
        let mut req = get("/metrics");
        req.headers
            .insert("accept".into(), "application/json, text/plain".into());
        let (_, r, _) = handle(&req, &m);
        assert_eq!(r.content_type, "application/json");

        // An unknown format is answered, not guessed.
        let mut req = get("/metrics");
        req.query = "format=xml".into();
        let (_, r, _) = handle(&req, &m);
        assert_eq!(r.status, 400);
        assert!(body_str(&r).contains("unknown metrics format"));
    }

    #[test]
    fn unknown_route_and_wrong_method_are_distinguished() {
        let m = Metrics::new();
        let (route, r, _) = handle(&get("/nope"), &m);
        assert_eq!((route, r.status), (Route::Other, 404));
        let (_, r, _) = handle(&get("/v1/evaluate"), &m);
        assert_eq!(r.status, 405);
        assert!(r.headers.iter().any(|(n, v)| n == "allow" && v == "POST"));
        let (route, r, _) = handle(&get("/v1/batch"), &m);
        assert_eq!((route, r.status), (Route::Other, 405));
    }

    #[test]
    fn evaluate_serves_the_reference_device_and_reports_cache_activity() {
        let m = Metrics::new();
        let (_, r, first) = handle(&post("/v1/evaluate", r#"{"preset":"ddr3_1g_x16_55nm"}"#), &m);
        assert_eq!(r.status, 200, "{}", body_str(&r));
        let doc = Value::parse(&body_str(&r)).unwrap();
        let idd0 = doc.get("idd_ma").unwrap().get("IDD0").unwrap().as_f64().unwrap();
        assert!(idd0 > 10.0 && idd0 < 200.0, "IDD0 {idd0} mA");
        // Served numbers equal a direct library evaluation, bit for bit.
        let dram = Dram::new(dram_core::reference::ddr3_1g_x16_55nm()).unwrap();
        assert_eq!(body_str(&r), evaluate_document(&dram).to_string());
        // Exactly one model lookup is attributed to the request; asking
        // again must be a pure cache hit (the preset may already have
        // been cached by a sibling test in this process).
        assert_eq!(first.hits + first.misses, 1);
        let (_, _, again) = handle(&post("/v1/evaluate", r#"{"preset":"ddr3_1g_x16_55nm"}"#), &m);
        assert_eq!(again, CacheActivity { hits: 1, misses: 0 });
    }

    #[test]
    fn evaluate_accepts_inline_description_text() {
        let source = {
            let desc = dram_core::reference::ddr3_1g_x16_55nm();
            dram_dsl::write(&desc, None)
        };
        let m = Metrics::new();
        let body = obj(vec![("description", source.into())]).to_string();
        let (_, r, _) = handle(&post("/v1/evaluate", &body), &m);
        assert_eq!(r.status, 200, "{}", body_str(&r));
    }

    #[test]
    fn evaluate_rejects_bad_inputs() {
        let m = Metrics::new();
        for (body, want) in [
            (r#"{"preset":"nope"}"#, "unknown preset"),
            (r#"{"preset":"a","description":"b"}"#, "not both"),
            (r#"{}"#, "needs a `preset`"),
            (r#"{"preset": 7}"#, "must be a string"),
            (r#"{"preset": "ddr3"#, "invalid JSON"),
            (r#"[1,2]"#, "must be a JSON object"),
            (r#"{"description":"garbage"}"#, "description parse error"),
        ] {
            let (_, r, _) = handle(&post("/v1/evaluate", body), &m);
            assert_eq!(r.status, 400, "{body}");
            assert!(body_str(&r).contains(want), "{body} -> {}", body_str(&r));
        }
        // A number too large for an f64 is a parse error, not an
        // infinite capacitance served as `null`.
        let (text, line) = reference_text_with("CBitline", "1e999fF");
        let body = obj(vec![("description", text.into())]).to_string();
        let (_, r, _) = handle(&post("/v1/evaluate", &body), &m);
        assert_eq!(r.status, 400, "{}", body_str(&r));
        let want = format!(
            "description parse error: line {line}: CBitline: `1e999fF` is not a finite number"
        );
        assert!(body_str(&r).contains(&want), "{}", body_str(&r));
    }

    /// The reference device's description text with the value of `key`
    /// replaced, and the line that holds it.
    fn reference_text_with(key: &str, value: &str) -> (String, usize) {
        let text = dram_dsl::write(&dram_core::reference::ddr3_1g_x16_55nm(), None);
        let key_at = text
            .find(&format!(" {key}="))
            .expect("the writer emits the key");
        let at = key_at + key.len() + 2;
        let value_len = text[at..]
            .find(char::is_whitespace)
            .expect("the value ends");
        let end = at + value_len;
        let line = text[..at].lines().count();
        (format!("{}{value}{}", &text[..at], &text[end..]), line)
    }

    #[test]
    fn evaluate_gives_a_zero_length_device_its_width() {
        // The width of `0.7x0um` is 0.7 µm: its scale comes from the unit,
        // not from dividing the zero length by itself.
        let (text, _) = reference_text_with("SANSense", "0.7x0um");
        let body = obj(vec![("description", text.into())]).to_string();
        let (_, r, _) = handle(&post("/v1/evaluate", &body), &Metrics::new());
        assert_eq!(r.status, 200, "{}", body_str(&r));
        assert!(!body_str(&r).contains("null"), "{}", body_str(&r));
    }

    #[test]
    fn batch_preserves_order_and_matches_single_evaluate_bodies() {
        let m = Metrics::new();
        let body = r#"{"requests":[
            {"preset":"ddr3_1g_x16_55nm"},
            {"preset":"nope"},
            {"preset":"ddr2_1g_75nm"},
            7,
            {"preset":"ddr3_1g_x16_55nm"}
        ]}"#;
        let (route, r, activity) = handle(&post("/v1/batch", body), &m);
        assert_eq!((route, r.status), (Route::Batch, 200), "{}", body_str(&r));
        let doc = Value::parse(&body_str(&r)).unwrap();
        assert_eq!(doc.get("count").and_then(Value::as_f64), Some(5.0));
        let results = doc.get("results").and_then(Value::as_array).unwrap();
        assert_eq!(results.len(), 5);

        // Items 0, 2, 4: bit-identical to the single-call documents.
        for (i, preset) in [(0, "ddr3_1g_x16_55nm"), (2, "ddr2_1g_75nm"), (4, "ddr3_1g_x16_55nm")]
        {
            let (_, single, _) =
                handle(&post("/v1/evaluate", &format!(r#"{{"preset":"{preset}"}}"#)), &m);
            assert_eq!(
                results[i].to_string(),
                body_str(&single),
                "batch item {i} diverged from a single call"
            );
        }
        // Items 1 and 3: inline errors, not whole-request failures.
        assert!(results[1]
            .get("error")
            .and_then(Value::as_str)
            .is_some_and(|e| e.contains("unknown preset")));
        assert!(results[3]
            .get("error")
            .and_then(Value::as_str)
            .is_some_and(|e| e.contains("must be a JSON object")));
        // Three model lookups were attributed to the batch request.
        assert_eq!(activity.hits + activity.misses, 3);
    }

    /// Every model the writer test renders: the presets, seeded
    /// three-edit perturbations of them (the ones that still validate),
    /// and a device whose name needs every kind of escape.
    fn rendered_models(perturbed: usize) -> Vec<Dram> {
        use dram_core::{ParamId, Perturbation};
        use dram_units::rng::SplitMix64;

        let presets: Vec<DramDescription> = presets::NAMES
            .iter()
            .map(|n| presets::get(n).expect("listed preset").description().clone())
            .collect();
        let mut named = presets[0].clone();
        named.name = "a \"quoted\" back\\slash, a bell \u{7}, a tab\t and µ 東".into();
        let mut out: Vec<Dram> = presets
            .iter()
            .chain([&named])
            .map(|d| Dram::new(d.clone()).expect("presets build"))
            .collect();
        let mut rng = SplitMix64::new(0x5eed_0030);
        while out.len() < presets.len() + 1 + perturbed {
            let mut desc = rng.pick(&presets).clone();
            let edits = (0..3)
                .map(|_| (*rng.pick(&ParamId::ALL), rng.range_f64(0.9, 1.1)))
                .collect();
            Perturbation::new(edits).apply(&mut desc);
            out.extend(Dram::new(desc).ok());
        }
        out
    }

    #[test]
    fn the_text_writer_matches_the_value_reference() {
        let mut text = String::new();
        for dram in rendered_models(1000) {
            let want = reference::evaluate_document(&dram);
            text.clear();
            write_evaluate_body(&dram, &mut text);
            assert_eq!(text, want.to_string(), "{}", dram.description().name);
            assert_eq!(dram.evaluate_body(), text);
            assert_eq!(evaluate_document(&dram), want, "the document is the text's parse");
        }
    }

    #[test]
    fn batch_text_matches_the_value_reference() {
        let m = Metrics::new();
        // Parses, then fails validation: the floorplan grid no longer
        // matches five bank-address bits.
        let written = dram_dsl::write(presets::get("ddr3_1g_55nm").unwrap().description(), None);
        let invalid = written.replacen(" bankadd=3 ", " bankadd=5 ", 1);
        assert_ne!(invalid, written);
        let body = obj(vec![(
            "requests",
            vec![
                obj(vec![("preset", "ddr3_1g_x16_55nm".into())]),
                obj(vec![("preset", "no \"such\" \\ preset \u{1} µ".into())]),
                Value::Num(7.0),
                obj(vec![("description", "Device bogus".into())]),
                obj(vec![("description", invalid.into())]),
                obj(vec![("preset", "ddr5_16g_18nm".into())]),
                obj(vec![("preset", "ddr3_1g_x16_55nm".into())]),
            ]
            .into(),
        )]);
        let (_, r, _) = handle(&post("/v1/batch", &body.to_string()), &m);
        assert_eq!(r.status, 200);
        let items = body.get("requests").and_then(Value::as_array).unwrap();
        let want = reference::batch_document(items).to_string();
        assert_eq!(body_str(&r), want);
        assert!(want.contains(r#""error":"invalid description: "#), "{want}");
        assert!(want.contains(r#"\"such\" \\ preset \u0001 µ"#), "{want}");
    }

    /// Fixed contributor names are borrowed all the way into the energy
    /// ledgers; only the per-block `logic: …` labels own their text.
    #[test]
    fn only_logic_labels_own_their_text() {
        use std::borrow::Cow;

        for name in presets::NAMES {
            let dram = Dram::new(presets::get(name).unwrap().description().clone()).unwrap();
            let (mut borrowed, mut owned) = (0, 0);
            for op in dram_core::Operation::ALL {
                for item in &dram.operation_energy(op).items {
                    match &item.label {
                        Cow::Borrowed(label) => {
                            assert!(!label.starts_with("logic: "), "{name}: {label}");
                            borrowed += 1;
                        }
                        Cow::Owned(label) => {
                            assert!(label.starts_with("logic: "), "{name}: {label}");
                            owned += 1;
                        }
                    }
                }
            }
            assert!(borrowed > 0 && owned > 0, "{name}: {borrowed} borrowed, {owned} owned");
        }
    }

    #[test]
    fn batch_rejects_bad_envelopes() {
        let m = Metrics::new();
        for (body, want) in [
            (r#"{}"#, "needs a `requests` array"),
            (r#"{"requests": 3}"#, "needs a `requests` array"),
        ] {
            let (_, r, _) = handle(&post("/v1/batch", body), &m);
            assert_eq!(r.status, 400, "{body}");
            assert!(body_str(&r).contains(want), "{body} -> {}", body_str(&r));
        }
        let oversized = format!(
            r#"{{"requests":[{}]}}"#,
            vec![r#"{"preset":"x"}"#; MAX_BATCH_ITEMS + 1].join(",")
        );
        let (_, r, _) = handle(&post("/v1/batch", &oversized), &m);
        assert_eq!(r.status, 400);
        assert!(body_str(&r).contains("exceeds the limit"), "{}", body_str(&r));
        // An empty batch is a valid no-op.
        let (_, r, _) = handle(&post("/v1/batch", r#"{"requests":[]}"#), &m);
        assert_eq!(r.status, 200);
        assert!(body_str(&r).contains("\"count\":0"), "{}", body_str(&r));
    }

    #[test]
    fn pattern_endpoint_computes_and_validates() {
        let m = Metrics::new();
        let (_, r, _) = handle(
            &post(
                "/v1/pattern",
                r#"{"preset":"ddr3_1g_x16_55nm","pattern":"act nop wrt nop rd nop pre nop"}"#,
            ),
            &m,
        );
        assert_eq!(r.status, 200, "{}", body_str(&r));
        let doc = Value::parse(&body_str(&r)).unwrap();
        assert_eq!(doc.get("slots").and_then(Value::as_f64), Some(8.0));
        assert!(doc.get("power_w").unwrap().as_f64().unwrap() > 0.0);

        let (_, r, _) = handle(
            &post(
                "/v1/pattern",
                r#"{"preset":"ddr3_1g_x16_55nm","pattern":"act frob"}"#,
            ),
            &m,
        );
        assert_eq!(r.status, 400);
        assert!(body_str(&r).contains("bad pattern"));

        // The paper's pattern is too fast for one DDR3 bank: `checked`
        // surfaces the timing violation as a 400.
        let (_, r, _) = handle(
            &post(
                "/v1/pattern",
                r#"{"preset":"ddr3_1g_x16_55nm","pattern":"act nop wrt nop rd nop pre nop","checked":true}"#,
            ),
            &m,
        );
        assert_eq!(r.status, 400);
        assert!(body_str(&r).contains("timing-legal"));
    }

    #[test]
    fn sweep_endpoint_ranks_parameters() {
        let m = Metrics::new();
        let (_, r, _) = handle(
            &post(
                "/v1/sweep",
                r#"{"preset":"ddr3_1g_x16_55nm","variation":0.2,"top":5}"#,
            ),
            &m,
        );
        assert_eq!(r.status, 200, "{}", body_str(&r));
        let doc = Value::parse(&body_str(&r)).unwrap();
        let entries = doc.get("entries").and_then(Value::as_array).unwrap();
        assert_eq!(entries.len(), 5);
        // Ranked: swings descend; rank 1 is Vdd (the only fully
        // proportional parameter, §IV.B).
        let swings: Vec<f64> = entries
            .iter()
            .map(|e| e.get("swing").unwrap().as_f64().unwrap())
            .collect();
        assert!(swings.windows(2).all(|w| w[0] >= w[1]));
        assert!(
            entries[0]
                .get("param")
                .and_then(Value::as_str)
                .is_some_and(|n| n.contains("Vdd")),
            "rank 1 should be Vdd: {:?}",
            entries[0]
        );

        let (_, r, _) = handle(
            &post("/v1/sweep", r#"{"preset":"ddr3_1g_x16_55nm","variation":5}"#),
            &m,
        );
        assert_eq!(r.status, 400);
    }
}
