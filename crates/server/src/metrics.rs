//! Request counters, a latency histogram and slow-request samples for
//! the `/metrics` endpoint.
//!
//! Counters are inline relaxed atomics ([`dram_obs::Counter`]):
//! `/metrics` is an observability endpoint, not an accounting ledger,
//! and the handlers must never contend on a lock just to count
//! themselves. Each `/metrics` series is declared once, in `SERIES`
//! and `ENGINE`: its Prometheus family, its JSON key, its help and the
//! field it reads. [`Metrics::to_json`] and [`Metrics::to_prometheus`]
//! walk those lists through the one exporter in `dram_obs`, so the two
//! formats always agree. The slow-request table is the one
//! mutex-guarded structure — but it is preceded by a per-route atomic
//! floor, so the common case (a request faster than everything already
//! sampled) never takes the lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dram_core::EngineSnapshot;
use dram_obs::{
    json_members, registry_json, wants_prometheus, Counter, Histogram, Kind, PromWriter, Registry,
    Series,
};
use dram_units::json::{obj, Value};

use crate::http::{Request, Response};

/// The routes the service exposes, used to label per-route counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `GET /healthz`.
    Healthz,
    /// `GET /v1/presets`.
    Presets,
    /// `POST /v1/evaluate`.
    Evaluate,
    /// `POST /v1/batch`.
    Batch,
    /// `POST /v1/pattern`.
    Pattern,
    /// `POST /v1/sweep`.
    Sweep,
    /// `POST /v1/trace` (buffered or chunked streaming).
    Trace,
    /// `GET /metrics`.
    Metrics,
    /// `GET /debug/*` — the loopback-only introspection family
    /// (journal, per-request timelines, reactor table, on-demand
    /// profiling). Excluded from slow-request sampling.
    Debug,
    /// Anything else (404/405/parse failures).
    Other,
}

impl Route {
    /// All routes, in display order.
    pub const ALL: [Route; 10] = [
        Route::Healthz,
        Route::Presets,
        Route::Evaluate,
        Route::Batch,
        Route::Pattern,
        Route::Sweep,
        Route::Trace,
        Route::Metrics,
        Route::Debug,
        Route::Other,
    ];

    /// Stable label used as the JSON key.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Route::Healthz => "healthz",
            Route::Presets => "presets",
            Route::Evaluate => "evaluate",
            Route::Batch => "batch",
            Route::Pattern => "pattern",
            Route::Sweep => "sweep",
            Route::Trace => "trace",
            Route::Metrics => "metrics",
            Route::Debug => "debug",
            Route::Other => "other",
        }
    }

    fn index(self) -> usize {
        Route::ALL
            .iter()
            .position(|r| *r == self)
            .expect("route in ALL")
    }

    /// The route a (method, path) pair dispatches to; [`Route::Other`]
    /// for anything without a handler. Single source of truth shared by
    /// the API dispatcher and the load-shedding check, so the two can
    /// never classify a request differently.
    #[must_use]
    pub fn classify(method: &str, path: &str) -> Route {
        match (method, path) {
            ("GET", "/healthz") => Route::Healthz,
            ("GET", "/v1/presets") => Route::Presets,
            ("POST", "/v1/evaluate") => Route::Evaluate,
            ("POST", "/v1/batch") => Route::Batch,
            ("POST", "/v1/pattern") => Route::Pattern,
            ("POST", "/v1/sweep") => Route::Sweep,
            ("POST", "/v1/trace") => Route::Trace,
            ("GET", "/metrics") => Route::Metrics,
            ("GET", p) if p == "/debug" || p.starts_with("/debug/") => Route::Debug,
            _ => Route::Other,
        }
    }

    /// Whether the route does unbounded-ish work per request (a full
    /// parameter sweep, a many-item batch, a streamed trace that holds
    /// its worker for the whole upload). Under load these are shed
    /// first, so cheap traffic keeps flowing while the queue recovers.
    #[must_use]
    pub fn expensive(self) -> bool {
        matches!(self, Route::Sweep | Route::Batch | Route::Trace)
    }
}

/// Slowest-request samples retained per route.
pub const SLOW_SAMPLES_PER_ROUTE: usize = 8;

/// Everything known about one served request, for
/// [`Metrics::observe`] and the structured log line.
#[derive(Debug, Clone, Copy)]
pub struct RequestRecord<'a> {
    /// The request's id, already rendered.
    pub id: &'a str,
    /// Which route answered.
    pub route: Route,
    /// Response status code.
    pub status: u16,
    /// Time the connection spent in the accept queue before a worker
    /// picked it up.
    pub queue_wait: Duration,
    /// Time from worker pick-up to the response being ready (read +
    /// parse + handle, excluding the response write).
    pub handle: Duration,
    /// Engine model-cache hits attributed to this request.
    pub cache_hits: u32,
    /// Engine model-cache misses (model builds) attributed to this
    /// request.
    pub cache_misses: u32,
}

/// One retained slow-request sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowSample {
    /// Rendered request id (correlates with the `x-request-id` header).
    pub id: String,
    /// Response status.
    pub status: u16,
    /// Queue wait, microseconds.
    pub queue_us: u64,
    /// Handling time, microseconds.
    pub handle_us: u64,
    /// Engine cache hits attributed to the request.
    pub cache_hits: u32,
    /// Engine cache misses attributed to the request.
    pub cache_misses: u32,
}

/// Per-route slowest-request table: a bounded sample set that keeps the
/// [`SLOW_SAMPLES_PER_ROUTE`] largest handling times seen so far.
#[derive(Debug, Default)]
struct RouteSlow {
    /// Once the table is full: the smallest retained `handle_us`.
    /// Requests at or below it skip the lock entirely.
    floor_us: AtomicU64,
    samples: Mutex<Vec<SlowSample>>,
}

impl RouteSlow {
    fn offer(&self, sample: SlowSample) {
        if sample.handle_us <= self.floor_us.load(Ordering::Relaxed)
            && self.floor_us.load(Ordering::Relaxed) > 0
        {
            return;
        }
        let mut samples = self.samples.lock().expect("slow-sample lock");
        if samples.len() < SLOW_SAMPLES_PER_ROUTE {
            samples.push(sample);
        } else {
            let (min_idx, min) = samples
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.handle_us)
                .expect("table is non-empty");
            if sample.handle_us <= min.handle_us {
                return;
            }
            samples[min_idx] = sample;
        }
        if samples.len() == SLOW_SAMPLES_PER_ROUTE {
            let floor = samples.iter().map(|s| s.handle_us).min().unwrap_or(0);
            self.floor_us.store(floor, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> Vec<SlowSample> {
        let mut out = self.samples.lock().expect("slow-sample lock").clone();
        out.sort_by_key(|s| std::cmp::Reverse(s.handle_us));
        out
    }
}

/// Thread-safe service counters. Call sites count with one relaxed add
/// on a field, through [`Metrics::record`] for the per-request ones;
/// `/metrics` reads the fields through `SERIES`.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests served, per route, in [`Route::ALL`] order.
    pub(crate) requests: [Counter; Route::ALL.len()],
    errors_4xx: Counter,
    errors_5xx: Counter,
    /// Connections rejected with 503 because the queue was full.
    pub rejected_busy: Counter,
    /// Expensive requests shed with 503 at the `--shed-at` watermark.
    pub shed_load: Counter,
    /// Request-handler panics that were caught and answered 500.
    pub worker_panics: Counter,
    /// Dead worker threads replaced by the supervisor.
    pub worker_respawns: Counter,
    /// Requests served after the first on one (kept-alive) connection.
    pub keepalive_reuses: Counter,
    /// Requests parsed from bytes an earlier request had over-read.
    pub pipelined_requests: Counter,
    /// Parked keep-alive connections closed by the idle-timeout sweep.
    pub idle_closed: Counter,
    /// EWMA of queue wait in µs, α = 1/8, updated at worker pick-up.
    /// Drives the adaptive `Retry-After` on 503 responses.
    queue_ewma_us: AtomicU64,
    /// Handling latency (queue wait excluded) of every recorded request.
    latency: Histogram,
    slow: [RouteSlow; Route::ALL.len()],
    started: Started,
}

/// When a [`Metrics`] was created (process start, in practice): its
/// default is now.
#[derive(Debug)]
struct Started(Instant);

impl Default for Started {
    fn default() -> Self {
        Started(Instant::now())
    }
}

/// The server's own `/metrics` series, in JSON document order.
#[allow(clippy::cast_precision_loss)]
static SERIES: &[Series<Metrics>] = &[
    Series {
        name: "dram_serve_uptime_seconds",
        key: "uptime_seconds",
        help: "Seconds since the service started.",
        kind: Kind::Gauge(|m| m.started.0.elapsed().as_secs_f64()),
    },
    Series {
        name: "dram_serve_build_info",
        key: "version",
        help: "Constant 1, labeled with the crate version.",
        kind: Kind::Info("version", env!("CARGO_PKG_VERSION")),
    },
    Series {
        name: "dram_serve_requests_total",
        key: "requests_total",
        help: "Requests served, all routes.",
        kind: Kind::Counter(|m| m.requests.iter().map(Counter::get).sum::<u64>() as f64),
    },
    Series {
        name: "dram_serve_route_requests_total",
        key: "requests_by_route",
        help: "Requests served, per route.",
        kind: Kind::Labeled("route", |m| {
            let counts = Route::ALL.iter().zip(&m.requests);
            counts.map(|(r, c)| (r.label(), c.get() as f64)).collect()
        }),
    },
    Series {
        name: "dram_serve_responses_4xx_total",
        key: "responses_4xx",
        help: "Responses with a 4xx status.",
        kind: Kind::Counter(|m| m.errors_4xx.get() as f64),
    },
    Series {
        name: "dram_serve_responses_5xx_total",
        key: "responses_5xx",
        help: "Responses with a 5xx status.",
        kind: Kind::Counter(|m| m.errors_5xx.get() as f64),
    },
    Series {
        name: "dram_serve_rejected_busy_total",
        key: "rejected_busy",
        help: "Connections rejected with 503 because the accept queue was full.",
        kind: Kind::Counter(|m| m.rejected_busy.get() as f64),
    },
    Series {
        name: "dram_serve_shed_load_total",
        key: "shed_load",
        help: "Expensive requests shed with 503 at the shed-at watermark.",
        kind: Kind::Counter(|m| m.shed_load.get() as f64),
    },
    Series {
        name: "dram_serve_worker_panics_total",
        key: "worker_panics",
        help: "Request-handler panics caught and answered with 500.",
        kind: Kind::Counter(|m| m.worker_panics.get() as f64),
    },
    Series {
        name: "dram_serve_worker_respawns_total",
        key: "worker_respawns",
        help: "Dead worker threads replaced by the supervisor.",
        kind: Kind::Counter(|m| m.worker_respawns.get() as f64),
    },
    Series {
        name: "dram_serve_keepalive_reuses_total",
        key: "keepalive_reuses",
        help: "Requests served on reused keep-alive connections.",
        kind: Kind::Counter(|m| m.keepalive_reuses.get() as f64),
    },
    Series {
        name: "dram_serve_pipelined_requests_total",
        key: "pipelined_requests",
        help: "Pipelined requests served from a connection's carry buffer.",
        kind: Kind::Counter(|m| m.pipelined_requests.get() as f64),
    },
    Series {
        name: "dram_serve_idle_closed_total",
        key: "idle_closed",
        help: "Parked keep-alive connections closed by the idle-timeout sweep.",
        kind: Kind::Counter(|m| m.idle_closed.get() as f64),
    },
    Series {
        name: "dram_serve_retry_after_seconds",
        key: "retry_after_s",
        help: "Current adaptive Retry-After advertised on 503 responses.",
        kind: Kind::Gauge(|m| m.retry_after_secs() as f64),
    },
    Series {
        name: "dram_serve_handle_seconds",
        key: "latency_histogram",
        help: "Request handling latency (queue wait excluded).",
        kind: Kind::Histogram(|m| &m.latency),
    },
];

/// The shared evaluation engine's series, under `"engine"` in JSON.
#[allow(clippy::cast_precision_loss)]
static ENGINE: &[Series<EngineSnapshot>] = &[
    Series {
        name: "dram_engine_cache_hits_total",
        key: "cache_hits",
        help: "Model-cache hits in the shared evaluation engine.",
        kind: Kind::Counter(|e| e.hits as f64),
    },
    Series {
        name: "dram_engine_cache_misses_total",
        key: "cache_misses",
        help: "Model-cache misses (models built) in the shared engine.",
        kind: Kind::Counter(|e| e.misses as f64),
    },
    Series {
        name: "dram_engine_cache_entries",
        key: "cache_entries",
        help: "Models currently cached by the shared engine.",
        kind: Kind::Gauge(|e| e.entries as f64),
    },
    Series {
        name: "dram_engine_cache_hit_rate",
        key: "hit_rate",
        help: "Fraction of engine lookups served from the cache.",
        kind: Kind::Gauge(EngineSnapshot::hit_rate),
    },
    Series {
        name: "dram_engine_threads",
        key: "threads",
        help: "Worker threads the shared engine evaluates with.",
        kind: Kind::Gauge(|e| e.threads as f64),
    },
    Series {
        name: "dram_engine_error_cache_hits_total",
        key: "error_cache_hits",
        help: "Lookups answered from the engine's negative (known-bad) cache.",
        kind: Kind::Counter(|e| e.error_hits as f64),
    },
    Series {
        name: "dram_engine_error_cache_entries",
        key: "error_cache_entries",
        help: "Known-bad descriptions currently memoized by the engine.",
        kind: Kind::Gauge(|e| e.error_entries as f64),
    },
];

impl Metrics {
    /// Creates zeroed counters; uptime starts counting now.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one served request: route, response status and handling
    /// latency (queue wait excluded).
    pub fn record(&self, route: Route, status: u16, latency: Duration) {
        self.requests[route.index()].inc();
        if (400..500).contains(&status) {
            self.errors_4xx.inc();
        } else if status >= 500 {
            self.errors_5xx.inc();
        }
        self.latency.observe(latency);
    }

    /// Records a fully-traced request: the counters of
    /// [`Metrics::record`] plus a slow-request sample offer.
    pub fn observe(&self, rec: &RequestRecord<'_>) {
        self.record(rec.route, rec.status, rec.handle);
        if rec.route == Route::Debug {
            // Introspection traffic observes the server; it must not
            // perturb what operators see. Debug requests are counted
            // (above) but never sampled into slow_requests.
            return;
        }
        self.slow[rec.route.index()].offer(SlowSample {
            id: rec.id.to_string(),
            status: rec.status,
            queue_us: u64::try_from(rec.queue_wait.as_micros()).unwrap_or(u64::MAX),
            handle_us: u64::try_from(rec.handle.as_micros()).unwrap_or(u64::MAX),
            cache_hits: rec.cache_hits,
            cache_misses: rec.cache_misses,
        });
    }

    /// Folds one observed queue wait into the EWMA behind
    /// [`Metrics::retry_after_secs`]. Racy read-modify-write by design:
    /// a lost update skews a smoothed estimate, never an invariant.
    pub fn note_queue_wait(&self, wait: Duration) {
        let sample = u64::try_from(wait.as_micros()).unwrap_or(u64::MAX / 8);
        let prev = self.queue_ewma_us.load(Ordering::Relaxed);
        let next = if prev == 0 {
            sample
        } else {
            (prev.min(u64::MAX / 8) * 7 + sample) / 8
        };
        self.queue_ewma_us.store(next, Ordering::Relaxed);
    }

    /// The adaptive `Retry-After` for 503 responses: twice the observed
    /// queue-wait EWMA, rounded up to whole seconds, clamped to
    /// `[1, 30]`. An idle server advertises 1 s; a deeply backed-up one
    /// pushes clients out up to half a minute.
    #[must_use]
    pub fn retry_after_secs(&self) -> u64 {
        let ewma_us = self.queue_ewma_us.load(Ordering::Relaxed);
        (2 * ewma_us).div_ceil(1_000_000).clamp(1, 30)
    }

    /// The retained slowest samples for one route, slowest first.
    #[must_use]
    pub fn slow_samples(&self, route: Route) -> Vec<SlowSample> {
        self.slow[route.index()].snapshot()
    }

    /// Serializes counters plus the engine snapshot as the `/metrics`
    /// JSON document: `SERIES`, the slow-request table, `ENGINE`
    /// under `"engine"` and the process-wide [`Registry`] under
    /// `"registry"`.
    #[must_use]
    pub fn to_json(&self, engine: EngineSnapshot) -> Value {
        let slow: Vec<(String, Value)> = Route::ALL
            .iter()
            .map(|r| {
                let samples: Vec<Value> = self
                    .slow_samples(*r)
                    .into_iter()
                    .map(|s| {
                        obj(vec![
                            ("id", s.id.as_str().into()),
                            ("status", u64::from(s.status).into()),
                            ("queue_us", s.queue_us.into()),
                            ("handle_us", s.handle_us.into()),
                            ("cache_hits", u64::from(s.cache_hits).into()),
                            ("cache_misses", u64::from(s.cache_misses).into()),
                        ])
                    })
                    .collect();
                (r.label().to_string(), samples.into())
            })
            .collect();

        let mut doc = json_members(SERIES, self);
        doc.push(("slow_requests".to_string(), Value::Obj(slow)));
        doc.push(("engine".to_string(), Value::Obj(json_members(ENGINE, &engine))));
        doc.push(("registry".to_string(), registry_json(Registry::global())));
        Value::Obj(doc)
    }

    /// Serializes the same series as [`Metrics::to_json`], plus the
    /// histogram's `_sum`, in Prometheus text exposition format
    /// (version 0.0.4).
    ///
    /// Serve it with `Content-Type: text/plain; version=0.0.4`
    /// ([`PromWriter::CONTENT_TYPE`]).
    #[must_use]
    pub fn to_prometheus(&self, engine: EngineSnapshot) -> String {
        let mut w = PromWriter::new();
        w.series(SERIES, self);
        w.series(ENGINE, &engine);
        w.registry(Registry::global());
        w.finish()
    }
}

/// Answers `GET /metrics` for `dram-serve` and `dram-route` alike: the
/// format comes from [`wants_prometheus`] (an unknown `?format=` is a
/// 400), and `render` writes the document, Prometheus text when passed
/// `true`, JSON otherwise.
pub(crate) fn respond(req: &Request, render: impl FnOnce(bool) -> String) -> Response {
    let accept = req.headers.get("accept").map_or("", String::as_str);
    match wants_prometheus(req.query_param("format"), accept) {
        Ok(true) => Response {
            content_type: PromWriter::CONTENT_TYPE,
            ..Response::json(200, render(true))
        },
        Ok(false) => Response::json(200, render(false)),
        Err(message) => Response::error(400, &message),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_land_in_route_and_status_counters() {
        let m = Metrics::new();
        m.record(Route::Evaluate, 200, Duration::from_micros(3));
        m.record(Route::Evaluate, 400, Duration::from_micros(3));
        m.record(Route::Other, 404, Duration::from_micros(1));
        m.rejected_busy.inc();
        assert_eq!(m.requests.iter().map(Counter::get).sum::<u64>(), 3);
        assert_eq!(m.rejected_busy.get(), 1);
        assert_eq!(m.errors_4xx.get(), 2);
        let doc = m.to_json(EngineSnapshot::default());
        let by_route = doc.get("requests_by_route").unwrap();
        assert_eq!(by_route.get("evaluate").and_then(Value::as_f64), Some(2.0));
        assert_eq!(by_route.get("other").and_then(Value::as_f64), Some(1.0));
        assert_eq!(by_route.get("batch").and_then(Value::as_f64), Some(0.0));
        assert_eq!(doc.get("responses_4xx").and_then(Value::as_f64), Some(2.0));
        assert_eq!(doc.get("rejected_busy").and_then(Value::as_f64), Some(1.0));
    }

    #[test]
    fn latency_buckets_cover_the_range() {
        let m = Metrics::new();
        m.record(Route::Healthz, 200, Duration::from_nanos(100));
        m.record(Route::Healthz, 200, Duration::from_micros(1));
        m.record(Route::Healthz, 200, Duration::from_millis(3));
        m.record(Route::Healthz, 200, Duration::from_secs(3600));
        let doc = m.to_json(EngineSnapshot::default());
        let hist = doc.get("latency_histogram").unwrap();
        let counts = hist.get("counts").and_then(Value::as_array).unwrap();
        let total: f64 = counts.iter().filter_map(Value::as_f64).sum();
        assert_eq!(total, 4.0);
        // The giant latency lands in the unbounded overflow bucket.
        assert_eq!(counts.last().and_then(Value::as_f64), Some(1.0));
        let uppers = hist.get("bucket_upper_us").and_then(Value::as_array).unwrap();
        assert_eq!(uppers.last(), Some(&Value::Null));
        assert_eq!(uppers.len(), counts.len());
    }

    #[test]
    fn slow_table_keeps_the_n_slowest_per_route() {
        let m = Metrics::new();
        let rec = |id: &str, handle_us: u64| {
            m.observe(&RequestRecord {
                id: &format!("req-{id}"),
                route: Route::Evaluate,
                status: 200,
                queue_wait: Duration::from_micros(7),
                handle: Duration::from_micros(handle_us),
                cache_hits: 1,
                cache_misses: 0,
            });
        };
        // Overfill the table with ascending handle times.
        for i in 0..(SLOW_SAMPLES_PER_ROUTE as u64 + 5) {
            rec(&i.to_string(), 100 + i);
        }
        // A fast request after the table is full must not displace.
        rec("fast", 1);
        let samples = m.slow_samples(Route::Evaluate);
        assert_eq!(samples.len(), SLOW_SAMPLES_PER_ROUTE);
        // Slowest first, and only the largest handle times survive.
        assert!(samples.windows(2).all(|w| w[0].handle_us >= w[1].handle_us));
        assert_eq!(samples[0].handle_us, 100 + SLOW_SAMPLES_PER_ROUTE as u64 + 4);
        assert!(samples.iter().all(|s| s.handle_us > 100));
        assert_eq!(samples[0].queue_us, 7);
        assert_eq!(samples[0].cache_hits, 1);
        // Other routes are untouched.
        assert!(m.slow_samples(Route::Pattern).is_empty());
    }

    #[test]
    fn slow_samples_serialize_into_metrics_json() {
        let m = Metrics::new();
        m.observe(&RequestRecord {
            id: "abc-00000001",
            route: Route::Sweep,
            status: 200,
            queue_wait: Duration::from_micros(12),
            handle: Duration::from_micros(34_000),
            cache_hits: 0,
            cache_misses: 2,
        });
        let doc = m.to_json(EngineSnapshot::default());
        let slow = doc.get("slow_requests").expect("slow_requests");
        let sweep = slow.get("sweep").and_then(Value::as_array).unwrap();
        assert_eq!(sweep.len(), 1);
        assert_eq!(sweep[0].get("id").and_then(Value::as_str), Some("abc-00000001"));
        assert_eq!(sweep[0].get("queue_us").and_then(Value::as_f64), Some(12.0));
        assert_eq!(sweep[0].get("handle_us").and_then(Value::as_f64), Some(34000.0));
        assert_eq!(sweep[0].get("cache_misses").and_then(Value::as_f64), Some(2.0));
        assert_eq!(slow.get("healthz").and_then(Value::as_array).map(<[Value]>::len), Some(0));
    }

    use std::collections::BTreeMap;

    use crate::metrics_shape::{json_shape, prom_headers, prom_label_keys, prom_samples, Bump};

    /// Families this module renders; the registry's are process-global.
    const OWN: [&str; 2] = ["dram_serve_", "dram_engine_"];

    /// Every counter at a distinct value, one slow sample, a queue-wait
    /// EWMA and an engine snapshot with distinct fields.
    fn busy() -> (Metrics, EngineSnapshot) {
        let m = Metrics::new();
        for (i, _) in Route::ALL.iter().enumerate() {
            m.requests[i].bump(10 * (i as u64 + 1));
        }
        m.observe(&RequestRecord {
            id: "abc-00000001",
            route: Route::Evaluate,
            status: 200,
            queue_wait: Duration::from_micros(5),
            handle: Duration::from_micros(700),
            cache_hits: 1,
            cache_misses: 0,
        });
        let counters = [
            &m.errors_4xx,
            &m.errors_5xx,
            &m.rejected_busy,
            &m.shed_load,
            &m.worker_panics,
            &m.worker_respawns,
            &m.keepalive_reuses,
            &m.pipelined_requests,
            &m.idle_closed,
        ];
        for (i, counter) in counters.into_iter().enumerate() {
            counter.bump(101 + i as u64);
        }
        m.latency.observe_us(3_000_000);
        m.note_queue_wait(Duration::from_millis(2_600));
        let engine = EngineSnapshot {
            hits: 201,
            misses: 202,
            entries: 203,
            threads: 204,
            error_hits: 205,
            error_entries: 206,
        };
        (m, engine)
    }

    /// Key paths and value types of the JSON document, in order.
    const JSON_SHAPE: &str = "\
uptime_seconds number
version string
requests_total number
requests_by_route object
requests_by_route.healthz number
requests_by_route.presets number
requests_by_route.evaluate number
requests_by_route.batch number
requests_by_route.pattern number
requests_by_route.sweep number
requests_by_route.trace number
requests_by_route.metrics number
requests_by_route.debug number
requests_by_route.other number
responses_4xx number
responses_5xx number
rejected_busy number
shed_load number
worker_panics number
worker_respawns number
keepalive_reuses number
pipelined_requests number
idle_closed number
retry_after_s number
latency_histogram object
latency_histogram.bucket_upper_us array
latency_histogram.bucket_upper_us[] number x22
latency_histogram.bucket_upper_us[] null
latency_histogram.counts array
latency_histogram.counts[] number x23
slow_requests object
slow_requests.healthz array
slow_requests.presets array
slow_requests.evaluate array
slow_requests.evaluate[] object
slow_requests.evaluate[].id string
slow_requests.evaluate[].status number
slow_requests.evaluate[].queue_us number
slow_requests.evaluate[].handle_us number
slow_requests.evaluate[].cache_hits number
slow_requests.evaluate[].cache_misses number
slow_requests.batch array
slow_requests.pattern array
slow_requests.sweep array
slow_requests.trace array
slow_requests.metrics array
slow_requests.debug array
slow_requests.other array
engine object
engine.cache_hits number
engine.cache_misses number
engine.cache_entries number
engine.hit_rate number
engine.threads number
engine.error_cache_hits number
engine.error_cache_entries number
registry object";

    #[test]
    fn json_document_shape_is_pinned() {
        let (m, engine) = busy();
        let doc = Value::parse(&m.to_json(engine).to_string()).expect("metrics JSON parses");
        assert!(doc.get("registry").and_then(Value::as_object).is_some());
        let shape = json_shape(&doc, &["registry"]).join("\n");
        assert_eq!(shape, JSON_SHAPE, "actual shape:\n{shape}");
    }

    /// `# HELP` / `# TYPE` lines of the server and engine families.
    const PROM_HEADERS: &str = "\
# HELP dram_engine_cache_entries Models currently cached by the shared engine.
# HELP dram_engine_cache_hit_rate Fraction of engine lookups served from the cache.
# HELP dram_engine_cache_hits_total Model-cache hits in the shared evaluation engine.
# HELP dram_engine_cache_misses_total Model-cache misses (models built) in the shared engine.
# HELP dram_engine_error_cache_entries Known-bad descriptions currently memoized by the engine.
# HELP dram_engine_error_cache_hits_total Lookups answered from the engine's negative (known-bad) cache.
# HELP dram_engine_threads Worker threads the shared engine evaluates with.
# HELP dram_serve_build_info Constant 1, labeled with the crate version.
# HELP dram_serve_handle_seconds Request handling latency (queue wait excluded).
# HELP dram_serve_idle_closed_total Parked keep-alive connections closed by the idle-timeout sweep.
# HELP dram_serve_keepalive_reuses_total Requests served on reused keep-alive connections.
# HELP dram_serve_pipelined_requests_total Pipelined requests served from a connection's carry buffer.
# HELP dram_serve_rejected_busy_total Connections rejected with 503 because the accept queue was full.
# HELP dram_serve_requests_total Requests served, all routes.
# HELP dram_serve_responses_4xx_total Responses with a 4xx status.
# HELP dram_serve_responses_5xx_total Responses with a 5xx status.
# HELP dram_serve_retry_after_seconds Current adaptive Retry-After advertised on 503 responses.
# HELP dram_serve_route_requests_total Requests served, per route.
# HELP dram_serve_shed_load_total Expensive requests shed with 503 at the shed-at watermark.
# HELP dram_serve_uptime_seconds Seconds since the service started.
# HELP dram_serve_worker_panics_total Request-handler panics caught and answered with 500.
# HELP dram_serve_worker_respawns_total Dead worker threads replaced by the supervisor.
# TYPE dram_engine_cache_entries gauge
# TYPE dram_engine_cache_hit_rate gauge
# TYPE dram_engine_cache_hits_total counter
# TYPE dram_engine_cache_misses_total counter
# TYPE dram_engine_error_cache_entries gauge
# TYPE dram_engine_error_cache_hits_total counter
# TYPE dram_engine_threads gauge
# TYPE dram_serve_build_info gauge
# TYPE dram_serve_handle_seconds histogram
# TYPE dram_serve_idle_closed_total counter
# TYPE dram_serve_keepalive_reuses_total counter
# TYPE dram_serve_pipelined_requests_total counter
# TYPE dram_serve_rejected_busy_total counter
# TYPE dram_serve_requests_total counter
# TYPE dram_serve_responses_4xx_total counter
# TYPE dram_serve_responses_5xx_total counter
# TYPE dram_serve_retry_after_seconds gauge
# TYPE dram_serve_route_requests_total counter
# TYPE dram_serve_shed_load_total counter
# TYPE dram_serve_uptime_seconds gauge
# TYPE dram_serve_worker_panics_total counter
# TYPE dram_serve_worker_respawns_total counter";

    /// (family, label keys) of every server and engine sample.
    const PROM_LABEL_KEYS: &str = "\
dram_engine_cache_entries {}
dram_engine_cache_hit_rate {}
dram_engine_cache_hits_total {}
dram_engine_cache_misses_total {}
dram_engine_error_cache_entries {}
dram_engine_error_cache_hits_total {}
dram_engine_threads {}
dram_serve_build_info {version}
dram_serve_handle_seconds {le}
dram_serve_handle_seconds {}
dram_serve_idle_closed_total {}
dram_serve_keepalive_reuses_total {}
dram_serve_pipelined_requests_total {}
dram_serve_rejected_busy_total {}
dram_serve_requests_total {}
dram_serve_responses_4xx_total {}
dram_serve_responses_5xx_total {}
dram_serve_retry_after_seconds {}
dram_serve_route_requests_total {route}
dram_serve_shed_load_total {}
dram_serve_uptime_seconds {}
dram_serve_worker_panics_total {}
dram_serve_worker_respawns_total {}";

    #[test]
    fn prometheus_families_are_pinned() {
        let (m, engine) = busy();
        let text = m.to_prometheus(engine);
        let headers: Vec<String> = prom_headers(&text, &OWN).into_iter().collect();
        assert_eq!(headers.join("\n"), PROM_HEADERS, "actual headers:\n{}", headers.join("\n"));
        let keys: Vec<String> = prom_label_keys(&text, &OWN).into_iter().collect();
        assert_eq!(keys.join("\n"), PROM_LABEL_KEYS, "actual label keys:\n{}", keys.join("\n"));
    }

    /// Each JSON value equals its Prometheus sample, and every sample of
    /// the server and engine families has a JSON value (uptime and the
    /// histogram's `_sum`, which JSON does not carry, aside).
    #[test]
    fn json_and_prometheus_report_the_same_values() {
        let (m, engine) = busy();
        let doc = Value::parse(&m.to_json(engine).to_string()).expect("metrics JSON parses");
        let prom = m.to_prometheus(engine);
        let num = |key: &str| doc.get(key).and_then(Value::as_f64).expect(key);

        let mut want: BTreeMap<String, f64> = BTreeMap::new();
        let version = doc.get("version").and_then(Value::as_str).expect("version");
        want.insert(format!("dram_serve_build_info{{version=\"{version}\"}}"), 1.0);
        want.insert("dram_serve_requests_total".into(), num("requests_total"));
        for (route, n) in doc.get("requests_by_route").and_then(Value::as_object).expect("routes") {
            want.insert(
                format!("dram_serve_route_requests_total{{route=\"{route}\"}}"),
                n.as_f64().expect("route count"),
            );
        }
        for key in [
            "responses_4xx",
            "responses_5xx",
            "rejected_busy",
            "shed_load",
            "worker_panics",
            "worker_respawns",
            "keepalive_reuses",
            "pipelined_requests",
            "idle_closed",
        ] {
            want.insert(format!("dram_serve_{key}_total"), num(key));
        }
        want.insert("dram_serve_retry_after_seconds".into(), num("retry_after_s"));
        let hist = doc.get("latency_histogram").expect("histogram");
        let uppers = hist.get("bucket_upper_us").and_then(Value::as_array).expect("uppers");
        let counts = hist.get("counts").and_then(Value::as_array).expect("counts");
        let mut cumulative = 0.0;
        for (upper, count) in uppers.iter().zip(counts) {
            cumulative += count.as_f64().expect("bucket count");
            let le = upper.as_f64().map_or("+Inf".to_string(), |us| (us * 1e-6).to_string());
            want.insert(format!("dram_serve_handle_seconds_bucket{{le=\"{le}\"}}"), cumulative);
        }
        want.insert("dram_serve_handle_seconds_count".into(), cumulative);
        let eng = doc.get("engine").expect("engine");
        for (key, family) in [
            ("cache_hits", "dram_engine_cache_hits_total"),
            ("cache_misses", "dram_engine_cache_misses_total"),
            ("cache_entries", "dram_engine_cache_entries"),
            ("hit_rate", "dram_engine_cache_hit_rate"),
            ("threads", "dram_engine_threads"),
            ("error_cache_hits", "dram_engine_error_cache_hits_total"),
            ("error_cache_entries", "dram_engine_error_cache_entries"),
        ] {
            want.insert(family.into(), eng.get(key).and_then(Value::as_f64).expect(key));
        }

        let got: BTreeMap<String, f64> = prom_samples(&prom)
            .into_iter()
            .filter(|(k, _)| OWN.iter().any(|p| k.starts_with(p)))
            .filter(|(k, _)| k != "dram_serve_uptime_seconds" && k != "dram_serve_handle_seconds_sum")
            .collect();
        assert_eq!(got, want);
        // The state is distinct enough to catch two series swapped.
        let mut values: Vec<u64> = want.values().map(|v| v.to_bits()).collect();
        let n = values.len();
        values.sort_unstable();
        values.dedup();
        assert!(values.len() + 25 >= n, "{want:?}");
    }
}
