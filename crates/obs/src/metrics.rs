//! Process-wide metric primitives: counters, gauges, the log₂-µs
//! latency histogram, and a named registry.
//!
//! Every primitive is relaxed atomics — observability must never make
//! the code it watches contend. The histogram is the one the server's
//! `/metrics` endpoint has exposed since PR 2, generalized here so any
//! crate can record latencies into the same bucket scheme and any
//! exporter can read them back.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Number of latency buckets: powers of two of microseconds, 1 µs up to
/// ~2 s, plus an overflow bucket.
pub const BUCKETS: usize = 23;

/// Histogram bucket for a latency in microseconds. Bucket `i` counts
/// latencies in `[2^(i-1), 2^i)` µs; bucket 0 is sub-microsecond and the
/// last bucket catches everything at or above `2^(BUCKETS-2)` µs.
#[must_use]
pub fn bucket_index(us: u64) -> usize {
    if us == 0 {
        0
    } else {
        (usize::try_from(u64::BITS - us.leading_zeros()).expect("≤ 64")).min(BUCKETS - 1)
    }
}

/// The exclusive upper bound of bucket `i` in microseconds, or `None`
/// for the unbounded overflow bucket.
#[must_use]
pub fn bucket_upper_us(i: usize) -> Option<u64> {
    if i + 1 < BUCKETS {
        Some(1u64 << i)
    } else {
        None
    }
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point gauge.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// A gauge at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// The workspace's latency histogram: log₂ buckets of microseconds (see
/// [`bucket_index`]) plus a running sum, so exporters can derive both
/// the JSON bucket table and a Prometheus `_sum`/`_count` pair.
#[derive(Debug, Default)]
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    sum_us: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency.
    pub fn observe(&self, latency: Duration) {
        self.observe_us(u64::try_from(latency.as_micros()).unwrap_or(u64::MAX));
    }

    /// Records one latency given in microseconds.
    pub fn observe_us(&self, us: u64) {
        self.counts[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Per-bucket counts, index `i` per [`bucket_index`].
    #[must_use]
    pub fn counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed))
    }

    /// Total number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.counts().iter().sum()
    }

    /// Sum of all observed latencies, microseconds.
    #[must_use]
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }
}

/// One registered metric: the primitive plus its help text.
#[derive(Debug, Clone)]
pub enum Metric {
    /// A [`Counter`].
    Counter(Arc<Counter>),
    /// A [`Gauge`].
    Gauge(Arc<Gauge>),
    /// A [`Histogram`].
    Histogram(Arc<Histogram>),
}

/// A named collection of metrics with one process-wide instance.
///
/// Registration is idempotent: asking for an existing name returns the
/// already-registered primitive, so call sites can cheaply
/// `registry.counter(...)` through a `OnceLock` without coordinating.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, (Metric, String)>>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide registry every crate shares.
    #[must_use]
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Registers (or fetches) a counter under `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().expect("registry lock");
        let (metric, _) = inner
            .entry(name.to_string())
            .or_insert_with(|| (Metric::Counter(Arc::new(Counter::new())), help.to_string()));
        match metric {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric `{name}` is registered as a non-counter"),
        }
    }

    /// Registers (or fetches) a gauge under `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().expect("registry lock");
        let (metric, _) = inner
            .entry(name.to_string())
            .or_insert_with(|| (Metric::Gauge(Arc::new(Gauge::new())), help.to_string()));
        match metric {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric `{name}` is registered as a non-gauge"),
        }
    }

    /// Registers (or fetches) a histogram under `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        let mut inner = self.inner.lock().expect("registry lock");
        let (metric, _) = inner.entry(name.to_string()).or_insert_with(|| {
            (
                Metric::Histogram(Arc::new(Histogram::new())),
                help.to_string(),
            )
        });
        match metric {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric `{name}` is registered as a non-histogram"),
        }
    }

    /// A snapshot of every registered metric, in name order.
    #[must_use]
    pub fn metrics(&self) -> Vec<(String, Metric, String)> {
        self.inner
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(name, (metric, help))| (name.clone(), metric.clone(), help.clone()))
            .collect()
    }
}
