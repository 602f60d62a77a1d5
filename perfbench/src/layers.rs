//! The traced run's per-layer breakdown.
//!
//! Each layer's public function is replayed on the workload's own inputs,
//! outside the server, under spans this file records through `dram_obs`:
//! one [`ManualSpan`] per sample, grouping enough calls to last about
//! [`SPAN_TARGET`], whose duration is the time spent inside those calls
//! only (set-up such as writing a request into a socket stays outside).
//! The figures are then read back from the drained profile. Tracing is
//! off while the calls run, so spans inside the library add no time to
//! the layer they sit in. A layer the workload bypasses reads 0 from 0
//! samples.

use std::hint::black_box;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use dram_core::{content_key, BuildPhase, DirtySet, Dram, DramDescription, ModelCache};
use dram_obs::{ManualSpan, Profile};
use dram_server::http::{self, ChunkedDecoder, Limits, Response};
use dram_server::ring::DEFAULT_REPLICAS;
use dram_server::{api, presets, Ring};
use dram_units::json::Value;
use dram_workload::{StreamFold, TraceDecoder, TraceError, TraceEvent};

use crate::inputs::{self, TraceInput};
use crate::stats;

/// Spans recorded per layer.
const SAMPLES: usize = 31;

/// Calls are grouped into spans this long, so whole-microsecond span
/// durations lose under 0.3 %.
const SPAN_TARGET: Duration = Duration::from_micros(400);

/// Distinct evaluate requests replayed: every warm one, and this many
/// of the cold pool.
const REPLAY_INPUTS: usize = 64;

/// Every replayed layer with its unit, in report order.
pub const LAYERS: [(&str, &str); 18] = [
    ("http.read_request_us", "us"),
    ("http.response_to_bytes_us", "us"),
    ("http.chunked_decode_us_per_mb", "us/MB"),
    ("json.decode_us", "us"),
    ("json.encode_us", "us"),
    ("dsl.parse_us", "us"),
    ("api.evaluate_document_us", "us"),
    ("core.content_key_us", "us"),
    ("core.cache_hit_us", "us"),
    ("core.build_us", "us"),
    ("core.phase.validate_us", "us"),
    ("core.phase.geometry_us", "us"),
    ("core.phase.devices_us", "us"),
    ("core.phase.charges_us", "us"),
    ("core.phase.power_us", "us"),
    ("workload.trace_decode_us_per_mb", "us/MB"),
    ("workload.fold_ns_per_command", "ns/command"),
    ("ring.route_ns", "ns"),
];

/// The build phases, each as the suffix `Dram::rebuild_from` re-runs
/// when that phase is dirty (validation always re-runs). A phase's time
/// is its suffix's time minus the previous, shorter suffix's.
const SUFFIXES: [(&str, Option<BuildPhase>); 5] = [
    ("core.phase.validate_us", None),
    ("core.phase.power_us", Some(BuildPhase::Power)),
    ("core.phase.charges_us", Some(BuildPhase::Charges)),
    ("core.phase.devices_us", Some(BuildPhase::Devices)),
    ("core.phase.geometry_us", Some(BuildPhase::Geometry)),
];

/// One layer's figure: the median over its spans of time per work unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Metric name.
    pub name: &'static str,
    /// Unit of `value`.
    pub unit: &'static str,
    /// Median per call (or per MB, per command).
    pub value: f64,
    /// Spans the median is taken over.
    pub samples: usize,
}

/// The replayed layers of one workload.
#[derive(Debug, Clone)]
pub struct Breakdown {
    /// Every layer of [`LAYERS`], in order.
    pub layers: Vec<Layer>,
    /// Sum of the layer medians along one request's handler path, µs.
    pub handler_sum_us: f64,
}

/// What to replay.
#[derive(Debug, Clone, Copy)]
pub struct Replay<'a> {
    /// Evaluate requests; empty for the trace workload.
    pub evaluates: &'a [Vec<u8>],
    /// Whether the evaluate requests miss the cache.
    pub cold: bool,
    /// Streamed traces; empty for the evaluate workloads.
    pub traces: &'a [TraceInput],
    /// Ring members, when requests are routed.
    pub ring: Option<&'a [String]>,
}

/// Replays the workload's inputs through every layer it passes.
///
/// # Panics
///
/// If a replayed call fails on inputs the server accepted.
#[must_use]
pub fn replay(r: &Replay<'_>) -> Breakdown {
    dram_obs::set_enabled(false);
    let _ = dram_obs::drain();
    if r.traces.is_empty() {
        replay_evaluate(r);
    } else {
        replay_trace(r.traces);
    }
    let profile = dram_obs::drain();
    let mut layers: Vec<Layer> = LAYERS
        .iter()
        .map(|&(name, unit)| {
            let (us, samples) = per_unit(&profile, name);
            let scale = if unit.starts_with("ns") { 1e3 } else { 1.0 };
            Layer {
                name,
                unit,
                value: us * scale,
                samples,
            }
        })
        .collect();
    if r.cold {
        let mut shorter = 0.0;
        for (name, phase) in SUFFIXES {
            let (suffix, samples) = per_unit(&profile, &rebuild_span(phase));
            let layer = layers
                .iter_mut()
                .find(|l| l.name == name)
                .expect("every phase is a layer");
            // Noise between two medians can dip a difference below zero;
            // a phase cannot take negative time.
            layer.value = (suffix - shorter).max(0.0);
            layer.samples = samples;
            shorter = suffix;
        }
    }
    Breakdown {
        handler_sum_us: handler_sum(&layers, r),
        layers,
    }
}

/// The layers one request passes through on the server, summed.
#[allow(clippy::cast_precision_loss)]
fn handler_sum(layers: &[Layer], r: &Replay<'_>) -> f64 {
    let v = |name| {
        layers
            .iter()
            .find(|l| l.name == name)
            .map_or(0.0, |l| l.value)
    };
    let sent = v("http.read_request_us") + v("json.encode_us") + v("http.response_to_bytes_us");
    if r.traces.is_empty() {
        let common = sent + v("json.decode_us") + v("api.evaluate_document_us");
        if r.cold {
            common + v("dsl.parse_us") + v("core.content_key_us") + v("core.build_us")
        } else {
            common + v("core.cache_hit_us")
        }
    } else {
        let n = r.traces.len() as f64;
        let mean = |f: fn(&TraceInput) -> f64| r.traces.iter().map(f).sum::<f64>() / n;
        let chunked_mb = mean(|t| mb(t.request.len() - t.head_len));
        let text_mb = mean(|t| mb(t.text.len()));
        let commands = mean(|t| t.commands as f64);
        sent + v("core.cache_hit_us")
            + v("http.chunked_decode_us_per_mb") * chunked_mb
            + v("workload.trace_decode_us_per_mb") * text_mb
            + v("workload.fold_ns_per_command") * commands / 1e3
    }
}

#[allow(clippy::cast_precision_loss)]
fn mb(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}

fn rebuild_span(phase: Option<BuildPhase>) -> String {
    format!(
        "core.rebuild_from.{}",
        phase.map_or("none", BuildPhase::name)
    )
}

/// Times one call, keeping its result alive past the clock read.
fn timed<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let started = Instant::now();
    let out = black_box(f());
    (started.elapsed(), out)
}

/// Records spans for a layer call that needs no per-call set-up: a
/// group of calls is timed together. `call(i)` makes the `i`-th call
/// and returns the work units it did.
fn record(name: &str, mut call: impl FnMut(usize) -> f64) {
    sample(name, |first, reps| {
        let started = Instant::now();
        let units: f64 = (first..first + reps).map(&mut call).sum();
        (started.elapsed(), units)
    });
}

/// Records spans for a layer call with per-call set-up: `call(i)` times
/// its own layer call and returns that time with the work units.
fn record_each(name: &str, mut call: impl FnMut(usize) -> (Duration, f64)) {
    sample(name, |first, reps| {
        (first..first + reps).fold((Duration::ZERO, 0.0), |(busy, units), i| {
            let (d, u) = call(i);
            (busy + d, units + u)
        })
    });
}

/// Sizes groups from one single-call group, then commits [`SAMPLES`]
/// spans, each carrying the work units of its group.
fn sample(name: &str, mut group: impl FnMut(usize, usize) -> (Duration, f64)) {
    let (probe, _) = group(0, 1);
    let reps = usize::try_from(SPAN_TARGET.as_nanos() / probe.as_nanos().max(1))
        .unwrap_or(usize::MAX)
        .clamp(1, 1_000_000);
    for s in 0..SAMPLES {
        let (busy, units) = group(1 + s * reps, reps);
        dram_obs::set_enabled(true);
        let start = Instant::now();
        ManualSpan::new(name.to_string(), start, start + busy)
            .arg("units", units)
            .commit();
        dram_obs::set_enabled(false);
    }
}

/// Median µs per work unit over the spans named `name`, and their count.
#[allow(clippy::cast_precision_loss)]
fn per_unit(profile: &Profile, name: &str) -> (f64, usize) {
    let values: Vec<f64> = profile
        .spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let units: f64 = s
                .args
                .iter()
                .find(|(k, _)| k == "units")
                .and_then(|(_, v)| v.parse().ok())
                .expect("replay spans carry their work units");
            s.dur_us as f64 / units
        })
        .collect();
    if values.is_empty() {
        (0.0, 0)
    } else {
        (stats::median(&values), values.len())
    }
}

/// The reply the server sends for a document.
fn reply(doc: &Value) -> Response {
    Response::json(200, doc.to_string())
        .with_header("x-request-id", "19a2b3c4d5e-00000001")
        .with_keep_alive(true)
}

/// `http::read_request` over a loopback pair, one request at a time.
fn read_requests(requests: &[Vec<u8>]) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let mut client =
        TcpStream::connect(listener.local_addr().expect("bound address")).expect("connect");
    client.set_nodelay(true).expect("set TCP_NODELAY");
    let (mut server, _) = listener.accept().expect("accept");
    let limits = Limits::default();
    record_each("http.read_request_us", |i| {
        client
            .write_all(&requests[i % requests.len()])
            .expect("loopback write");
        let (d, request) = timed(|| http::read_request(&mut server, &limits));
        request.expect("replayed requests parse");
        (d, 1.0)
    });
}

fn replay_evaluate(r: &Replay<'_>) {
    let requests = &r.evaluates[..r.evaluates.len().min(REPLAY_INPUTS)];
    let n = requests.len();
    let bodies: Vec<&str> = requests
        .iter()
        .map(|q| std::str::from_utf8(inputs::body_of(q)).expect("UTF-8 bodies"))
        .collect();
    let descs: Vec<DramDescription> = requests.iter().map(|q| inputs::resolve(q)).collect();
    let models: Vec<Dram> = descs
        .iter()
        .map(|d| Dram::new(d.clone()).expect("inputs build"))
        .collect();
    let docs: Vec<Value> = models.iter().map(api::evaluate_document).collect();
    let replies: Vec<Response> = docs.iter().map(reply).collect();

    read_requests(requests);
    record("json.decode_us", |i| {
        Value::parse(bodies[i % n]).expect("bodies parse");
        1.0
    });
    record("core.content_key_us", |i| {
        black_box(content_key(&descs[i % n]));
        1.0
    });
    if r.cold {
        let texts: Vec<String> = bodies
            .iter()
            .map(|b| {
                let doc = Value::parse(b).expect("bodies parse");
                let text = doc.get("description").and_then(Value::as_str);
                text.expect("cold bodies carry a description").to_string()
            })
            .collect();
        record("dsl.parse_us", |i| {
            black_box(dram_dsl::parse_description(&texts[i % n]).expect("descriptions parse"));
            1.0
        });
        record_each("core.build_us", |i| {
            let desc = descs[i % n].clone();
            let (d, model) = timed(|| Dram::new(desc));
            model.expect("descriptions build");
            (d, 1.0)
        });
        for (_, phase) in SUFFIXES {
            let dirty = phase.map_or(DirtySet::EMPTY, DirtySet::from_phase);
            record(&rebuild_span(phase), |i| {
                let rebuilt = models[i % n].rebuild_from(&descs[i % n], dirty);
                black_box(rebuilt.expect("rebuilds succeed"));
                1.0
            });
        }
    } else {
        let cache = ModelCache::new();
        for d in &descs {
            cache.get_or_build(d).expect("inputs build");
        }
        record("core.cache_hit_us", |i| {
            black_box(cache.get_or_build(&descs[i % n]).expect("cached"));
            1.0
        });
    }
    record("api.evaluate_document_us", |i| {
        black_box(api::evaluate_document(&models[i % n]));
        1.0
    });
    record("json.encode_us", |i| {
        black_box(docs[i % n].to_string());
        1.0
    });
    record("http.response_to_bytes_us", |i| {
        black_box(replies[i % n].to_bytes());
        1.0
    });
    if let Some(nodes) = r.ring {
        let ring = Ring::new(nodes, DEFAULT_REPLICAS);
        let up = vec![true; nodes.len()];
        let keys: Vec<u64> = descs.iter().map(content_key).collect();
        record("ring.route_ns", |i| {
            black_box(ring.route(keys[i % n], &up));
            1.0
        });
    }
}

#[allow(clippy::cast_precision_loss)]
fn replay_trace(traces: &[TraceInput]) {
    let n = traces.len();
    // The streamed body is the chunked-decode layer's; the read layer
    // parses the head.
    let heads: Vec<Vec<u8>> = traces
        .iter()
        .map(|t| [&t.request[..t.head_len], b"0\r\n\r\n"].concat())
        .collect();
    read_requests(&heads);
    record_each("http.chunked_decode_us_per_mb", |i| {
        let t = &traces[i % n];
        let body = &t.request[t.head_len..];
        let mut decoder = ChunkedDecoder::new(usize::MAX);
        let mut out = Vec::with_capacity(t.text.len());
        let (d, used) = timed(|| decoder.advance(body, &mut out));
        assert_eq!(used, Ok(body.len()), "chunked framing decodes");
        (d, mb(body.len()))
    });
    record_each("workload.trace_decode_us_per_mb", |i| {
        let text = &traces[i % n].text;
        let mut discard = |_: TraceEvent| -> Result<(), TraceError> { Ok(()) };
        let mut decoder = TraceDecoder::new();
        let (d, fed) = timed(|| {
            decoder
                .feed(text, &mut discard)
                .and_then(|()| decoder.finish(&mut discard))
        });
        fed.expect("traces decode");
        (d, mb(text.len()))
    });
    let descs: Vec<DramDescription> = traces
        .iter()
        .map(|t| presets::by_name(t.preset).expect("listed preset"))
        .collect();
    let folds: Vec<_> = traces
        .iter()
        .zip(&descs)
        .map(|(t, desc)| {
            let (policy, _, commands) = inputs::decode(&t.text);
            (
                Dram::new(desc.clone()).expect("presets build"),
                policy,
                commands,
            )
        })
        .collect();
    record_each("workload.fold_ns_per_command", |i| {
        let (dram, policy, commands) = &folds[i % n];
        let mut fold = StreamFold::new(dram, *policy);
        let (d, pushed) = timed(|| commands.iter().try_for_each(|&c| fold.push(c)));
        pushed.expect("traces fold");
        (d, commands.len() as f64)
    });
    let cache = ModelCache::new();
    for d in &descs {
        cache.get_or_build(d).expect("presets build");
    }
    record("core.cache_hit_us", |i| {
        black_box(cache.get_or_build(&descs[i % n]).expect("cached"));
        1.0
    });
    record("core.content_key_us", |i| {
        black_box(content_key(&descs[i % n]));
        1.0
    });
    record("json.encode_us", |i| {
        black_box(traces[i % n].expected.to_string());
        1.0
    });
    let replies: Vec<Response> = traces.iter().map(|t| reply(&t.expected)).collect();
    record("http.response_to_bytes_us", |i| {
        black_box(replies[i % n].to_bytes());
        1.0
    });
}
