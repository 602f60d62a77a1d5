//! Bench files: the one document shape every bench of the workspace
//! writes.
//!
//! A bench file is `{"bench": <name>, "records": [...], "values":
//! {...}}`. Each [`Record`] holds one timed or sized figure as the
//! median and quartiles of its raw samples, all taken by one percentile
//! rule ([`percentile`]); a figure read once is a record of one sample.
//! `values` holds the run's gates, counts and settings as plain JSON.
//! [`dram_units::json::Value::parse`] reads the files back.

use dram_units::json::{obj, Value};

/// Which way a figure improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better: times, memory.
    Lower,
    /// Larger is better: rates.
    Higher,
}

/// One timed or sized figure of a bench run, summarised from its raw
/// samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// What was measured, e.g. `sweep/differential`.
    pub name: String,
    /// Unit of `median`, `q1` and `q3`, e.g. `s` or `MB/s`.
    pub unit: &'static str,
    /// Which way the figure improves.
    pub better: Better,
    /// Sample count.
    pub n: usize,
    /// The 50th percentile.
    pub median: f64,
    /// The 25th percentile.
    pub q1: f64,
    /// The 75th percentile.
    pub q3: f64,
}

impl Record {
    /// Summarises `samples`, in any order, by [`percentile`].
    ///
    /// # Panics
    ///
    /// On an empty sample.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        unit: &'static str,
        better: Better,
        samples: &[f64],
    ) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Self {
            name: name.into(),
            unit,
            better,
            n: sorted.len(),
            median: percentile(&sorted, 50.0),
            q1: percentile(&sorted, 25.0),
            q3: percentile(&sorted, 75.0),
        }
    }

    fn to_json(&self) -> Value {
        let better = match self.better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        obj(vec![
            ("name", self.name.as_str().into()),
            ("unit", self.unit.into()),
            ("better", better.into()),
            ("n", self.n.into()),
            ("median", self.median.into()),
            ("q1", self.q1.into()),
            ("q3", self.q3.into()),
        ])
    }
}

/// The nearest-rank `p`-th percentile of an ascending sample: the value
/// at rank ⌈p/100·n⌉, clamped to `[1, n]`. The median of an even-sized
/// sample is therefore its lower middle value.
///
/// # Panics
///
/// On an empty sample or `p` outside `(0, 100]`.
#[must_use]
#[allow(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_precision_loss
)]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let n = sorted.len();
    sorted[((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1]
}

/// The bench file of the run `bench`: its records, then its values.
#[must_use]
pub fn bench_document(bench: &str, records: &[Record], values: Vec<(&str, Value)>) -> Value {
    obj(vec![
        ("bench", bench.into()),
        (
            "records",
            Value::Arr(records.iter().map(Record::to_json).collect()),
        ),
        ("values", obj(values)),
    ])
}

/// Writes [`bench_document`] to `path` as one line of compact JSON.
///
/// # Errors
///
/// Any error of writing the file.
pub fn write_bench(
    path: &str,
    bench: &str,
    records: &[Record],
    values: Vec<(&str, Value)>,
) -> std::io::Result<()> {
    std::fs::write(
        path,
        format!("{}\n", bench_document(bench, records, values)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_the_nearest_rank() {
        let sample: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sample, 50.0), 50.0);
        assert_eq!(percentile(&sample, 99.0), 99.0);
        // Lower middle for an even count, the middle for an odd one.
        assert_eq!(
            Record::new("m", "s", Better::Lower, &[4.0, 1.0, 3.0, 2.0]).median,
            2.0
        );
        assert_eq!(
            Record::new("m", "s", Better::Lower, &[3.0, 1.0, 2.0]).median,
            2.0
        );
        // One sample is every percentile.
        let one = Record::new("once", "s", Better::Lower, &[7.0]);
        assert_eq!((one.n, one.q1, one.median, one.q3), (1, 7.0, 7.0, 7.0));
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn quartiles_bracket_the_median() {
        let r = Record::new(
            "r",
            "us",
            Better::Lower,
            &[5.0, 1.0, 4.0, 2.0, 3.0, 8.0, 6.0, 7.0],
        );
        assert_eq!((r.n, r.q1, r.median, r.q3), (8, 2.0, 4.0, 6.0));
    }

    #[test]
    fn a_bench_document_has_records_of_seven_fields_then_values() {
        let records = [
            Record::new("x/\"y\"", "s", Better::Lower, &[0.5, 0.25]),
            Record::new("rate", "MB/s", Better::Higher, &[12.0]),
        ];
        let text =
            bench_document("demo", &records, vec![("bit_identical", true.into())]).to_string();
        assert!(text.starts_with(r#"{"bench":"demo","records":[{"name":"x/\"y\"","unit":"s","#));
        let doc = Value::parse(&text).expect("a bench document is JSON");
        let keys = |v: &Value| -> Vec<String> {
            v.as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.clone())
                .collect()
        };
        assert_eq!(keys(&doc), ["bench", "records", "values"]);
        let parsed = doc.get("records").and_then(Value::as_array).unwrap();
        assert_eq!(parsed.len(), 2);
        for r in parsed {
            assert_eq!(
                keys(r),
                ["name", "unit", "better", "n", "median", "q1", "q3"]
            );
        }
        assert_eq!(
            parsed[0].get("name").and_then(Value::as_str),
            Some("x/\"y\"")
        );
        assert_eq!(parsed[0].get("median").and_then(Value::as_f64), Some(0.25));
        assert_eq!(
            parsed[1].get("better").and_then(Value::as_str),
            Some("higher")
        );
        assert_eq!(
            doc.get("values")
                .and_then(|v| v.get("bit_identical"))
                .and_then(Value::as_bool),
            Some(true)
        );
    }
}
