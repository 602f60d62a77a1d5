//! The result line: one JSON object, the last line of standard output.

use dram_units::json::{obj, Value};

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The value as measured, all digits kept.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    #[must_use]
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// Renders `{"correct", "attempted", "failed", "metrics"}` with each
/// metric as `{"value", "unit"}`.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                obj(vec![("value", m.value.into()), ("unit", m.unit.into())]),
            )
        })
        .collect();
    obj(vec![
        ("correct", correct.into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", Value::Obj(metrics)),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_round_trips_through_the_workspace_parser() {
        let metrics = [
            Metric::new("latency_p50_us", 123.456_789_012_345, "us"),
            Metric::new("throughput_rps", 4_321.000_000_001, "1/s"),
            Metric::new("core.cache_hit_ratio", 0.0, "ratio"),
        ];
        let line = result_line(true, 1000, 2, &metrics);
        assert!(!line.contains('\n'));
        let doc = Value::parse(&line).expect("the result line is JSON");
        let keys: Vec<&str> = doc
            .as_object()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Value::as_f64), Some(1000.0));
        assert_eq!(doc.get("failed").and_then(Value::as_f64), Some(2.0));
        let parsed = doc.get("metrics").expect("metrics");
        for m in &metrics {
            let entry = parsed.get(m.name).expect("every metric by name");
            // Every digit survives: the value reads back bit for bit.
            assert_eq!(entry.get("value").and_then(Value::as_f64), Some(m.value));
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(m.unit));
        }
    }
}
