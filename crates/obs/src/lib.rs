//! # dram-obs
//!
//! Cross-crate observability for the dram-energy workspace: hierarchical
//! span profiling, a process-wide metrics registry, and exporters for
//! Chrome trace-event JSON and Prometheus text exposition.
//!
//! The model is a deep pipeline — description parse, geometry, device
//! capacitances, charge partitioning, power summation — and this crate
//! makes that pipeline visible from the inside without making it slower
//! from the outside:
//!
//! * [`span`](fn@span) opens a named span that closes when its guard drops (even
//!   under panic). Profiling is **off by default**; disabled call sites
//!   cost one relaxed atomic load, allocate nothing and record nothing.
//! * [`Registry::global`] hands out named [`Counter`]s, [`Gauge`]s and
//!   the log₂-µs [`Histogram`] the servers' `/metrics` endpoints use.
//! * [`chrome_trace`] serializes a drained [`Profile`] into a file
//!   `chrome://tracing` / Perfetto loads. A `/metrics` document is a
//!   list of [`Series`] declarations; [`json_members`] renders it as JSON
//!   and [`PromWriter`] as Prometheus text exposition version 0.0.4, and
//!   the registry goes through the same two renderers.
//! * [`journal`] is the always-on flight recorder: a fixed-size,
//!   lock-light ring buffer of typed lifecycle events (accepts,
//!   dispatches, cache hits, fault fires, responses, …) written through
//!   per-thread shards with zero allocation, read back by the server's
//!   `/debug/*` endpoints. Sized 0 (the default) it costs one relaxed
//!   load per call site.
//! * [`write_bench`] writes the one bench-file shape every bench of the
//!   workspace uses: [`Record`]s, each the median and quartiles of its
//!   samples by one [`percentile`] rule, then the run's named values.
//!
//! ```
//! dram_obs::set_enabled(true);
//! {
//!     let _outer = dram_obs::span("demo.outer");
//!     let _inner = dram_obs::span("demo.inner").arg("k", 42);
//! }
//! dram_obs::set_enabled(false);
//! let profile = dram_obs::drain();
//! let trace = dram_obs::chrome_trace(&profile).to_string();
//! assert!(trace.contains("\"demo.inner\""));
//! ```
//!
//! See `docs/OBSERVABILITY.md` for the workspace's span taxonomy and
//! metric naming scheme.
#![warn(missing_docs)]

mod bench;
mod export;
pub mod journal;
pub mod metrics;
pub mod span;

pub use bench::{bench_document, percentile, write_bench, Better, Record};
pub use export::{
    chrome_trace, escape_help, escape_label, json_members, registry_json, wants_prometheus, Kind,
    PromWriter, Series,
};
pub use metrics::{
    bucket_index, bucket_upper_us, Counter, Gauge, Histogram, Metric, Registry, BUCKETS,
};
pub use span::{
    clear, drain, enabled, register_thread, rollup, rollup_table, set_enabled, snapshot, span,
    ManualSpan, Profile, Rollup, SpanGuard, SpanRecord, ThreadInfo,
};

#[cfg(test)]
mod tests {
    use std::sync::{Mutex, MutexGuard, OnceLock};
    use std::time::{Duration, Instant};

    use dram_units::json::Value;

    use super::*;

    /// Span recording is process-global state; tests that enable it must
    /// not interleave. (Metrics tests don't need this.)
    fn exclusive() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        let lock = LOCK.get_or_init(|| Mutex::new(()));
        let guard = lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        set_enabled(false);
        clear();
        guard
    }

    #[test]
    fn spans_nest_and_record_parents() {
        let _x = exclusive();
        set_enabled(true);
        {
            let _outer = span("t.outer");
            {
                let _inner = span("t.inner");
            }
            let _sibling = span("t.sibling");
        }
        set_enabled(false);
        let profile = drain();
        assert_eq!(profile.spans.len(), 3);
        // Close order: inner, sibling, outer.
        let inner = &profile.spans[0];
        let sibling = &profile.spans[1];
        let outer = &profile.spans[2];
        assert_eq!(inner.name, "t.inner");
        assert_eq!(outer.name, "t.outer");
        assert_eq!(inner.parent, outer.id);
        assert_eq!(sibling.parent, outer.id);
        assert_eq!(outer.parent, 0, "outer is a root");
        assert!(inner.start_us >= outer.start_us);
        // The recording thread is registered exactly once.
        assert!(profile.threads.iter().any(|t| t.id == outer.thread));
    }

    #[test]
    fn span_guard_closes_during_panic_unwind() {
        let _x = exclusive();
        set_enabled(true);
        let result = std::panic::catch_unwind(|| {
            let _span = span("t.panicking");
            panic!("boom");
        });
        assert!(result.is_err());
        // A span opened after the unwind must not inherit the panicked
        // span as parent: the guard restored the TLS state on drop.
        {
            let _after = span("t.after");
        }
        set_enabled(false);
        let profile = drain();
        let panicking = profile.spans.iter().find(|s| s.name == "t.panicking");
        assert!(panicking.is_some(), "unwound span was still recorded");
        let after = profile.spans.iter().find(|s| s.name == "t.after").unwrap();
        assert_eq!(after.parent, 0);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _x = exclusive();
        assert!(!enabled());
        {
            let mut g = span("t.off");
            g.add_arg("k", "v");
            let _manual =
                ManualSpan::new("t.off.manual", Instant::now(), Instant::now()).arg("k", 1);
        }
        ManualSpan::new("t.off.committed", Instant::now(), Instant::now()).commit();
        assert!(drain().spans.is_empty());
    }

    #[test]
    fn manual_spans_measure_caller_intervals() {
        let _x = exclusive();
        set_enabled(true);
        let start = Instant::now();
        let end = start + Duration::from_micros(1500);
        ManualSpan::new("t.manual", start, end)
            .arg("id", "abc")
            .commit();
        set_enabled(false);
        let profile = drain();
        assert_eq!(profile.spans.len(), 1);
        let s = &profile.spans[0];
        assert_eq!(s.name, "t.manual");
        assert_eq!(s.dur_us, 1500);
        assert_eq!(s.args, vec![("id".into(), "abc".to_string())]);
    }

    #[test]
    fn rollup_aggregates_by_name() {
        let mk = |name: &'static str, dur_us: u64| SpanRecord {
            id: 1,
            parent: 0,
            name: name.into(),
            thread: 1,
            start_us: 0,
            dur_us,
            args: Vec::new(),
        };
        let profile = Profile {
            spans: vec![mk("a", 10), mk("b", 100), mk("a", 30)],
            threads: Vec::new(),
        };
        let rolled = rollup(&profile);
        assert_eq!(rolled.len(), 2);
        assert_eq!(rolled[0].name, "b");
        assert_eq!(rolled[1].name, "a");
        assert_eq!(rolled[1].count, 2);
        assert_eq!(rolled[1].total_us, 40);
        assert!((rolled[1].mean_us - 20.0).abs() < 1e-12);
        assert_eq!(rolled[1].max_us, 30);
        assert_eq!(
            rollup_table(&profile),
            "span                            count     total ms      mean ms       max ms\n\
             b                                   1        0.100        0.100        0.100\n\
             a                                   2        0.040        0.020        0.030\n"
        );
    }

    #[test]
    fn chrome_trace_round_trips_through_the_workspace_parser() {
        let _x = exclusive();
        set_enabled(true);
        {
            let _outer = span("t.trace.outer").arg("quote", "a\"b\\c");
            let _inner = span("t.trace.inner");
        }
        set_enabled(false);
        let profile = drain();
        let doc = chrome_trace(&profile);
        let text = doc.to_string();
        let parsed = Value::parse(&text).expect("trace JSON parses");
        let events = parsed
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        // Process metadata + ≥1 thread metadata + the two spans.
        assert!(events.len() >= 4, "{text}");
        let inner = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("t.trace.inner"))
            .expect("inner event present");
        assert_eq!(inner.get("ph").and_then(Value::as_str), Some("X"));
        assert!(inner.get("ts").and_then(Value::as_f64).is_some());
        assert!(inner.get("dur").and_then(Value::as_f64).is_some());
        let outer = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("t.trace.outer"))
            .expect("outer event present");
        // Parent linkage survives the round trip.
        assert_eq!(
            inner.get("args").unwrap().get("parent"),
            outer.get("args").unwrap().get("id")
        );
        // Awkward arg values survive the escaper and the parser.
        assert_eq!(
            outer
                .get("args")
                .unwrap()
                .get("quote")
                .and_then(Value::as_str),
            Some("a\"b\\c")
        );
        // Thread metadata names the recording thread.
        assert!(events.iter().any(|e| {
            e.get("name").and_then(Value::as_str) == Some("thread_name")
                && e.get("ph").and_then(Value::as_str) == Some("M")
        }));
    }

    #[test]
    fn histogram_buckets_match_the_server_scheme() {
        // Boundary semantics of the log₂-µs bucketing: bucket `i` is
        // `[2^(i-1), 2^i)` µs, exclusive upper bounds.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        for k in 0..20 {
            let v = 1u64 << k;
            let b = bucket_index(v);
            assert_eq!(b, k + 1, "2^{k}");
            assert!(v < 1u64 << b);
            assert!(v >= 1u64 << (b - 1));
        }
        // Saturation into the overflow bucket.
        let top_finite = BUCKETS - 2;
        assert_eq!(bucket_index((1u64 << top_finite) - 1), top_finite);
        assert_eq!(bucket_index(1u64 << top_finite), BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper_us(0), Some(1));
        assert_eq!(bucket_upper_us(BUCKETS - 2), Some(1 << (BUCKETS - 2)));
        assert_eq!(bucket_upper_us(BUCKETS - 1), None);
    }

    #[test]
    fn histogram_tracks_counts_and_sum() {
        let h = Histogram::new();
        h.observe(Duration::from_micros(3));
        h.observe(Duration::from_micros(5));
        h.observe_us(0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum_us(), 8);
        let counts = h.counts();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[bucket_index(3)], 1); // [2, 4) µs
        assert_eq!(counts[bucket_index(5)], 1); // [4, 8) µs
    }

    #[test]
    fn registry_is_idempotent_and_kind_checked() {
        let r = Registry::new();
        let a = r.counter("x_total", "help");
        let b = r.counter("x_total", "other help ignored");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "same underlying counter");
        let g = r.gauge("y", "gauge help");
        g.set(1.5);
        assert!((r.gauge("y", "").get() - 1.5).abs() < 1e-12);
        let h = r.histogram("z_seconds", "hist help");
        h.observe_us(10);
        let metrics = r.metrics();
        assert_eq!(metrics.len(), 3);
        // BTreeMap: name order.
        assert_eq!(metrics[0].0, "x_total");
        assert_eq!(metrics[1].0, "y");
        assert_eq!(metrics[2].0, "z_seconds");
        assert!(std::panic::catch_unwind(|| r.gauge("x_total", "")).is_err());
    }

    #[test]
    fn prometheus_escaping_is_exact() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
        assert_eq!(escape_help("multi\nline \\ help"), "multi\\nline \\\\ help");
    }

    #[test]
    fn prom_writer_renders_families_and_labels() {
        let mut w = PromWriter::new();
        w.header("dram_test_total", "A counter.", "counter");
        w.sample("dram_test_total", &[], 42.0);
        w.header("dram_routes_total", "Per-route.", "counter");
        w.sample("dram_routes_total", &[("route", "eval\"x")], 7.0);
        w.header("dram_ratio", "A gauge.", "gauge");
        w.sample("dram_ratio", &[], 0.5);
        let text = w.finish();
        assert!(text.contains("# HELP dram_test_total A counter.\n"));
        assert!(text.contains("# TYPE dram_test_total counter\n"));
        assert!(text.contains("dram_test_total 42\n"));
        assert!(text.contains("dram_routes_total{route=\"eval\\\"x\"} 7\n"));
        assert!(text.contains("# TYPE dram_ratio gauge\n"));
        assert!(text.contains("dram_ratio 0.5\n"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split(' ').count(), 2, "bad sample line: {line}");
        }
    }

    #[test]
    fn prom_histogram_is_cumulative_in_seconds() {
        let h = Histogram::new();
        h.observe_us(1); // bucket 1: [1, 2) µs
        h.observe_us(3); // bucket 2: [2, 4) µs
        h.observe_us(u64::MAX); // overflow bucket (and a saturated sum)
        let mut w = PromWriter::new();
        w.histogram_seconds("dram_lat_seconds", "Latency.", &h);
        let text = w.finish();
        assert!(text.contains("# TYPE dram_lat_seconds histogram\n"));
        // le="0.000001" (1 µs upper bound) has seen nothing; 2 µs has 1;
        // 4 µs has 2; +Inf has all 3.
        assert!(
            text.contains("dram_lat_seconds_bucket{le=\"0.000001\"} 0\n"),
            "{text}"
        );
        assert!(
            text.contains("dram_lat_seconds_bucket{le=\"0.000002\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("dram_lat_seconds_bucket{le=\"0.000004\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("dram_lat_seconds_bucket{le=\"+Inf\"} 3\n"),
            "{text}"
        );
        assert!(text.contains("dram_lat_seconds_count 3\n"), "{text}");
        // Cumulative counts never decrease.
        let mut last = 0.0;
        for line in text.lines().filter(|l| l.contains("_bucket{")) {
            let v: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "{line}");
            last = v;
        }
    }

    #[test]
    fn prom_writer_handles_empty_label_values() {
        let mut w = PromWriter::new();
        w.header("dram_edge_total", "Edge cases.", "counter");
        w.sample("dram_edge_total", &[("route", "")], 1.0);
        w.sample("dram_edge_total", &[("route", "\\\n\"")], 2.0);
        let text = w.finish();
        // An empty label value renders as route="" — present, not
        // dropped, so series identity survives.
        assert!(text.contains("dram_edge_total{route=\"\"} 1\n"), "{text}");
        assert!(
            text.contains("dram_edge_total{route=\"\\\\\\n\\\"\"} 2\n"),
            "{text}"
        );
        // Every sample line still splits into exactly name-and-value.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split(' ').count(), 2, "bad sample line: {line}");
        }
    }

    #[test]
    fn prom_histogram_bucket_boundary_counts_land_one_bucket_up() {
        // A sample exactly on a bucket's upper bound belongs to the NEXT
        // bucket: uppers are exclusive in the log₂-µs scheme, while
        // Prometheus `le` is inclusive — so the cumulative count at
        // le="0.000004" must NOT include a 4 µs observation.
        let h = Histogram::new();
        h.observe_us(4); // == bucket_upper_us(2); lands in bucket 3
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_upper_us(2), Some(4));
        let mut w = PromWriter::new();
        w.histogram_seconds("dram_edge_seconds", "Boundary.", &h);
        let text = w.finish();
        assert!(
            text.contains("dram_edge_seconds_bucket{le=\"0.000004\"} 0\n"),
            "{text}"
        );
        assert!(
            text.contains("dram_edge_seconds_bucket{le=\"0.000008\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("dram_edge_seconds_bucket{le=\"+Inf\"} 1\n"),
            "{text}"
        );
    }

    #[test]
    fn prom_histogram_inf_bucket_equals_count_and_sum_is_consistent() {
        let h = Histogram::new();
        for us in [0u64, 1, 2, 1024, 1_000_000] {
            h.observe_us(us);
        }
        let mut w = PromWriter::new();
        w.histogram_seconds("dram_sum_seconds", "Sum check.", &h);
        let text = w.finish();
        let value_of = |needle: &str| -> f64 {
            text.lines()
                .find(|l| l.starts_with(needle))
                .unwrap_or_else(|| panic!("{needle} missing in {text}"))
                .rsplit(' ')
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        // +Inf cumulative count == _count == total observations.
        let inf = value_of("dram_sum_seconds_bucket{le=\"+Inf\"}");
        let count = value_of("dram_sum_seconds_count");
        assert_eq!(inf, 5.0);
        assert_eq!(count, 5.0);
        // _sum is the µs sum scaled to seconds.
        let sum = value_of("dram_sum_seconds_sum");
        assert!((sum - 1_001_027e-6).abs() < 1e-12, "sum {sum}");
        // And the cumulative bucket sequence never decreases, ending at
        // exactly the +Inf value.
        let mut last = 0.0;
        for line in text.lines().filter(|l| l.contains("_bucket{")) {
            let v: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "{line}");
            last = v;
        }
        assert_eq!(last, inf);
    }

    #[test]
    fn row_families_keep_their_headers_without_rows() {
        struct Row(f64);
        let list = [Series {
            name: "dram_rows_total",
            key: "rows",
            help: "Rows.",
            kind: Kind::Counter(|r: &Row| r.0),
        }];
        let mut w = PromWriter::new();
        w.rows(
            &list,
            "node",
            [("a", &Row(2.0)), ("b", &Row(3.0))].into_iter(),
        );
        let text = w.finish();
        assert!(
            text.contains("dram_rows_total{node=\"a\"} 2\ndram_rows_total{node=\"b\"} 3\n"),
            "{text}"
        );
        let mut w = PromWriter::new();
        w.rows(&list, "node", std::iter::empty());
        assert_eq!(
            w.finish(),
            "# HELP dram_rows_total Rows.\n# TYPE dram_rows_total counter\n"
        );
        assert_eq!(
            json_members(&list, &Row(4.0)),
            vec![("rows".to_string(), Value::Num(4.0))]
        );
    }

    #[test]
    fn prom_writer_renders_a_registry() {
        let r = Registry::new();
        r.counter("reg_a_total", "A.").add(5);
        r.gauge("reg_b", "B.").set(2.5);
        r.histogram("reg_c_seconds", "C.").observe_us(7);
        let mut w = PromWriter::new();
        w.registry(&r);
        let text = w.finish();
        assert!(text.contains("reg_a_total 5\n"));
        assert!(text.contains("reg_b 2.5\n"));
        assert!(text.contains("reg_c_seconds_count 1\n"));
        let a = text.find("reg_a_total").unwrap();
        let b = text.find("reg_b").unwrap();
        let c = text.find("reg_c_seconds").unwrap();
        assert!(a < b && b < c, "registry renders in name order");
    }
}
