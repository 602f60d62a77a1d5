//! Seeded workload inputs. A run generates everything it sends here,
//! during set-up, from the workload seed alone: the same seed gives
//! byte-identical requests, and the server sees only the generated
//! bytes.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::hash::Hasher as _;

use dram_core::{content_key, Dram, DramDescription, ParamId, Perturbation, StableHasher};
use dram_server::{api, presets};
use dram_units::json::{obj, Value};
use dram_units::rng::SplitMix64;
use dram_workload::{
    PowerDownPolicy, StreamFold, TraceCommand, TraceDecoder, TraceError, TraceEvent, TraceState,
};

/// Frames `body` as a `POST` to `path`.
#[must_use]
pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The body of a framed request: everything after its head.
#[must_use]
pub fn body_of(request: &[u8]) -> &[u8] {
    request
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map_or(&[], |end| &request[end + 4..])
}

/// The service's presets in a seeded order.
#[must_use]
pub fn preset_order(seed: u64) -> Vec<&'static str> {
    let mut order = presets::NAMES.to_vec();
    let mut rng = SplitMix64::new(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.range_usize(i + 1));
    }
    order
}

/// The description an evaluate request names, resolved exactly as the
/// server resolves it.
///
/// # Panics
///
/// If `request` is not a valid evaluate request; generated ones are.
#[must_use]
pub fn resolve(request: &[u8]) -> DramDescription {
    let body = std::str::from_utf8(body_of(request)).expect("generated bodies are UTF-8");
    let doc = Value::parse(body).expect("generated bodies are JSON");
    api::resolve_description(&doc).expect("generated requests name a valid device")
}

/// The `/v1/evaluate` reply body the library computes for a description.
///
/// # Panics
///
/// If the description does not build; generated ones do.
#[must_use]
pub fn evaluate_body(desc: &DramDescription) -> Vec<u8> {
    let dram = Dram::new(desc.clone()).expect("generated descriptions build");
    api::evaluate_document(&dram).to_string().into_bytes()
}

/// `evaluate_warm` and `routed_warm`: one request per preset, by name,
/// in seeded order.
#[must_use]
pub fn warm(seed: u64) -> Vec<Vec<u8>> {
    preset_order(seed)
        .into_iter()
        .map(|name| {
            post(
                "/v1/evaluate",
                &obj(vec![("preset", name.into())]).to_string(),
            )
        })
        .collect()
}

/// Parameters a cold description edits. Between them they dirty the
/// power, charges, devices and geometry phases, and every one keeps
/// every preset valid anywhere within [`COLD_SPREAD`].
const COLD_PARAMS: [ParamId; 8] = [
    ParamId::Vdd,
    ParamId::Vint,
    ParamId::CellCap,
    ParamId::BitlineCap,
    ParamId::CWireSignal,
    ParamId::ToxLogic,
    ParamId::JunctionCapLogic,
    ParamId::SaStripeWidth,
];

/// Largest relative change one cold edit makes.
const COLD_SPREAD: f64 = 0.05;

/// Edits per cold description.
const COLD_EDITS: usize = 3;

/// An independent random stream for one draw, so a draw does not depend
/// on which thread makes it or on how many draws came before.
fn stream(seed: u64, index: u64, attempt: u64) -> SplitMix64 {
    let mut h = StableHasher::new();
    h.write_u64(seed);
    h.write_u64(index);
    h.write_u64(attempt);
    SplitMix64::new(h.finish())
}

/// One cold draw: the content key of the re-parsed text, and the request.
fn cold_draw(bases: &[DramDescription], seed: u64, index: usize, attempt: u64) -> (u64, Vec<u8>) {
    let mut rng = stream(seed, index as u64, attempt);
    let mut desc = bases[index % bases.len()].clone();
    let edits = (0..COLD_EDITS)
        .map(|_| {
            let param = *rng.pick(&COLD_PARAMS);
            (param, rng.range_f64(1.0 - COLD_SPREAD, 1.0 + COLD_SPREAD))
        })
        .collect();
    Perturbation::new(edits).apply(&mut desc);
    let text = dram_dsl::write(&desc, None);
    let reparsed = dram_dsl::parse_description(&text).expect("written descriptions parse");
    let body = obj(vec![("description", text.into())]).to_string();
    (content_key(&reparsed), post("/v1/evaluate", &body))
}

/// `evaluate_cold`: `count` requests, each carrying the text
/// `dram_dsl::write` gives for a seeded [`Perturbation`] of a preset
/// (presets in seeded round-robin). No two share a content key once the
/// text is parsed back: a draw whose key is taken is replaced by a fresh
/// draw, so every request misses the cache.
#[must_use]
pub fn cold(seed: u64, count: usize) -> Vec<Vec<u8>> {
    let bases: Vec<DramDescription> = preset_order(seed)
        .iter()
        .map(|name| presets::by_name(name).expect("listed preset"))
        .collect();
    let draw = |index: usize, attempt: u64| cold_draw(&bases, seed, index, attempt);
    // Draws are independent, so two threads give exactly what one would.
    let half = count / 2;
    let mut drawn: Vec<(u64, Vec<u8>)> = std::thread::scope(|s| {
        let low = s.spawn(|| (0..half).map(|i| draw(i, 0)).collect::<Vec<_>>());
        let high: Vec<_> = (half..count).map(|i| draw(i, 0)).collect();
        let mut all = low.join().expect("generator thread");
        all.extend(high);
        all
    });
    let mut taken = HashSet::with_capacity(count);
    for (index, slot) in drawn.iter_mut().enumerate() {
        let mut attempt = 0;
        while !taken.insert(slot.0) {
            attempt += 1;
            *slot = draw(index, attempt);
        }
    }
    drawn.into_iter().map(|(_, request)| request).collect()
}

/// Trace text per streamed trace.
pub const TRACE_BYTES: usize = 32 * 1024;

/// HTTP chunk size a trace is framed in.
const TRACE_CHUNK: usize = 16 * 1024;

/// The power-down policies traces rotate through: the `!policy`
/// operands, and the power-down and self-refresh exit latencies the
/// generator keeps clear after each exit.
const POLICIES: [(&str, u64, u64); 3] = [
    ("never", 0, 0),
    ("aggressive", 6, 512),
    ("64 10 8192 600", 10, 600),
];

/// One streamed trace and the report the library computes for it.
#[derive(Debug, Clone)]
pub struct TraceInput {
    /// The device the trace's `!preset` directive names.
    pub preset: &'static str,
    /// The trace text.
    pub text: Vec<u8>,
    /// The whole `POST /v1/trace` request: head, then the text in
    /// chunks.
    pub request: Vec<u8>,
    /// Length of the request head; the chunked body follows it.
    pub head_len: usize,
    /// `trace_document` of a local [`StreamFold`] over the text.
    pub expected: Value,
    /// Commands in the trace.
    pub commands: u64,
}

/// `trace_stream`: one trace per preset in seeded order, the policy
/// rotating through [`POLICIES`]. Every trace opens banks, naps in
/// power-down with banks open and closed, refreshes and self-refreshes,
/// so each one bills all five CKE states.
///
/// # Panics
///
/// If a generated trace is illegal or leaves a state unbilled.
#[must_use]
pub fn traces(seed: u64) -> Vec<TraceInput> {
    preset_order(seed)
        .into_iter()
        .enumerate()
        .map(|(i, preset)| {
            let dram =
                Dram::new(presets::by_name(preset).expect("listed preset")).expect("presets build");
            let mut rng = stream(seed, i as u64, u64::MAX);
            let text = trace_text(preset, &dram, POLICIES[i % POLICIES.len()], &mut rng);
            let (policy, length, commands) = decode(&text);
            let mut fold = StreamFold::new(&dram, policy);
            for &c in &commands {
                fold.push(c).expect("generated traces are legal");
            }
            let report = fold.finish(length).expect("generated traces are legal");
            for state in TraceState::ALL {
                assert!(
                    report.states.cycles(state) > 0,
                    "{preset}: {} unbilled",
                    state.label()
                );
            }
            let n = commands.len() as u64;
            let expected = api::trace_document(preset, &report, n, text.len() as u64);
            let (request, head_len) = chunked_request(&text);
            TraceInput {
                preset,
                text,
                request,
                head_len,
                expected,
                commands: n,
            }
        })
        .collect()
}

/// Decodes a trace: the policy its directive sets, its declared length,
/// and its commands.
///
/// # Panics
///
/// If the text does not decode; generated traces do.
#[must_use]
pub fn decode(text: &[u8]) -> (PowerDownPolicy, Option<u64>, Vec<TraceCommand>) {
    let (mut policy, mut length, mut commands) = (PowerDownPolicy::NEVER, None, Vec::new());
    let mut sink = |event: TraceEvent| -> Result<(), TraceError> {
        match event {
            TraceEvent::Policy(p) => policy = p,
            TraceEvent::Length(n) => length = Some(n),
            TraceEvent::Command(c) => commands.push(c),
            TraceEvent::Preset(_) => {}
        }
        Ok(())
    };
    let mut decoder = TraceDecoder::new();
    decoder
        .feed(text, &mut sink)
        .and_then(|()| decoder.finish(&mut sink))
        .expect("generated traces decode");
    (policy, length, commands)
}

/// Generates about [`TRACE_BYTES`] of legal trace text for one device.
fn trace_text(
    preset: &str,
    dram: &Dram,
    (policy, pd_exit, sr_exit): (&str, u64, u64),
    rng: &mut SplitMix64,
) -> Vec<u8> {
    let banks = dram.description().spec.banks();
    let mut out = format!("!preset {preset}\n!policy {policy}\n");
    let mut t = 0u64;
    while out.len() < TRACE_BYTES {
        match rng.range_u64(16) {
            // A power-down nap with every bank closed.
            0 => {
                let _ = writeln!(out, "{t} pde");
                t += 20 + rng.range_u64(2000);
                let _ = writeln!(out, "{t} pdx");
                t += 1 + pd_exit;
            }
            // A power-down nap with a bank held open.
            1 => {
                let bank = rng.range_u32(banks);
                let _ = writeln!(out, "{t} act {bank}");
                t += 6;
                let _ = writeln!(out, "{t} pde");
                t += 20 + rng.range_u64(2000);
                let _ = writeln!(out, "{t} pdx");
                t += 1 + pd_exit;
                let _ = writeln!(out, "{t} rd {bank}");
                t += 4;
                let _ = writeln!(out, "{t} pre {bank}");
                t += 10;
            }
            // A long self-refresh sleep.
            2 => {
                let _ = writeln!(out, "{t} sre");
                t += 10_000 + rng.range_u64(40_000);
                let _ = writeln!(out, "{t} srx");
                t += 1 + sr_exit;
            }
            // An auto-refresh between bursts.
            3 => {
                let _ = writeln!(out, "{t} ref");
                t += 50 + rng.range_u64(100);
            }
            // The common case: an open-page burst on one bank.
            _ => {
                let bank = rng.range_u32(banks);
                let _ = writeln!(out, "{t} act {bank}");
                t += 6;
                for _ in 0..=rng.range_u64(4) {
                    let op = if rng.chance(0.5) { "wr" } else { "rd" };
                    let _ = writeln!(out, "{t} {op} {bank}");
                    t += 4;
                }
                let _ = writeln!(out, "{t} pre {bank}");
                t += 10 + rng.range_u64(200);
            }
        }
    }
    let _ = writeln!(out, "!length {}", t + 100);
    out.into_bytes()
}

/// Frames trace text as a chunked `POST /v1/trace`; returns the request
/// and the length of its head.
fn chunked_request(text: &[u8]) -> (Vec<u8>, usize) {
    let mut out =
        b"POST /v1/trace HTTP/1.1\r\nhost: perfbench\r\ntransfer-encoding: chunked\r\n\r\n"
            .to_vec();
    let head_len = out.len();
    for chunk in text.chunks(TRACE_CHUNK) {
        out.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
        out.extend_from_slice(chunk);
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"0\r\n\r\n");
    (out, head_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_alone_decides_the_request_bytes() {
        assert_eq!(warm(7), warm(7));
        assert_ne!(warm(7), warm(8));
        assert_eq!(cold(7, 24), cold(7, 24));
        assert_ne!(cold(7, 24), cold(8, 24));
        let requests = |seed| {
            traces(seed)
                .into_iter()
                .map(|t| t.request)
                .collect::<Vec<_>>()
        };
        assert_eq!(requests(7), requests(7));
        assert_ne!(requests(7), requests(8));
    }

    #[test]
    fn cold_requests_are_distinct_and_build() {
        let requests = cold(11, 64);
        let keys: HashSet<u64> = requests.iter().map(|r| content_key(&resolve(r))).collect();
        assert_eq!(keys.len(), requests.len());
        for r in &requests {
            Dram::new(resolve(r)).expect("cold descriptions build");
            assert!(
                body_of(r).len() > 3000,
                "cold bodies carry a full description"
            );
        }
    }

    #[test]
    fn cold_edits_stay_valid_at_both_ends_of_the_spread() {
        for name in presets::NAMES {
            for param in COLD_PARAMS {
                for factor in [1.0 - COLD_SPREAD, 1.0 + COLD_SPREAD] {
                    let mut desc = presets::by_name(name).expect("listed preset");
                    Perturbation::single(param, factor).apply(&mut desc);
                    Dram::new(desc).unwrap_or_else(|e| panic!("{name} {param} x{factor}: {e}"));
                }
            }
        }
    }

    #[test]
    fn every_trace_is_framed_around_its_text() {
        for t in traces(3) {
            let body = &t.request[t.head_len..];
            let mut decoder = dram_server::http::ChunkedDecoder::new(usize::MAX);
            let mut out = Vec::new();
            assert_eq!(decoder.advance(body, &mut out), Ok(body.len()));
            assert!(decoder.is_done());
            assert_eq!(out, t.text);
            assert!(t.text.len() >= TRACE_BYTES);
        }
    }
}
