//! Minimal in-tree benchmark harness.
//!
//! The workspace must build with an empty registry, so the Criterion
//! dependency is gone; the `benches/` targets and sweep-bench share this
//! harness instead. It auto-calibrates the iteration count to a target
//! measurement window, keeps every iteration's time, and summarises
//! them as one [`dram_obs::Record`] (median and quartiles), the record
//! every bench file of the workspace is written in.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use dram_obs::{Better, Record};

/// Formats a time in seconds with an adaptive unit.
fn human(seconds: f64) -> String {
    if seconds < 10e-6 {
        format!("{:.0} ns", seconds * 1e9)
    } else if seconds < 10e-3 {
        format!("{:.2} µs", seconds * 1e6)
    } else if seconds < 10.0 {
        format!("{:.2} ms", seconds * 1e3)
    } else {
        format!("{seconds:.2} s")
    }
}

/// Runs `f` repeatedly and records every iteration's wall-clock time,
/// in seconds.
///
/// One untimed warm-up call precedes measurement. The iteration count is
/// calibrated from the warm-up duration so the whole measurement stays
/// near `budget`, clamped to `[1, max_iters]`: long routines (full
/// report regenerations) run a handful of times, short ones thousands.
pub fn bench<T>(name: &str, budget: Duration, max_iters: u32, mut f: impl FnMut() -> T) -> Record {
    let warm_start = Instant::now();
    std::hint::black_box(f());
    let warm = warm_start.elapsed();

    let iters = if warm.is_zero() {
        max_iters
    } else {
        u32::try_from(budget.as_nanos() / warm.as_nanos().max(1))
            .unwrap_or(max_iters)
            .clamp(1, max_iters)
    };

    let samples: Vec<f64> = (0..iters)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    Record::new(name, "s", Better::Lower, &samples)
}

/// Convenience wrapper with the default 200 ms budget and 10k iteration
/// cap used by the `benches/` targets.
pub fn bench_default<T>(name: &str, f: impl FnMut() -> T) -> Record {
    bench(name, Duration::from_millis(200), 10_000, f)
}

/// Renders timing records (unit `s`) as an aligned text table.
#[must_use]
pub fn render(records: &[Record]) -> String {
    let name_w = records
        .iter()
        .map(|r| r.name.len())
        .max()
        .unwrap_or(4)
        .max(4);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:name_w$}  {:>12}  {:>12}  {:>12}  {:>7}",
        "name", "median", "q1", "q3", "n"
    );
    for r in records {
        let _ = writeln!(
            out,
            "{:name_w$}  {:>12}  {:>12}  {:>12}  {:>7}",
            r.name,
            human(r.median),
            human(r.q1),
            human(r.q3),
            r.n
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_units::json;

    #[test]
    fn bench_reports_sane_statistics() {
        let r = bench("spin", Duration::from_millis(5), 100, || {
            std::hint::black_box((0..1000u64).sum::<u64>())
        });
        assert!(r.n >= 1 && r.n <= 100);
        assert!(r.q1 <= r.median && r.median <= r.q3);
        assert_eq!((r.unit, r.better), ("s", Better::Lower));
    }

    #[test]
    fn render_aligns_and_lists_every_row() {
        let rs = vec![
            bench("a", Duration::from_micros(100), 3, || 1 + 1),
            bench("bb", Duration::from_micros(100), 3, || 2 + 2),
        ];
        let table = render(&rs);
        assert!(table.contains("a "));
        assert!(table.contains("bb"));
        assert_eq!(table.lines().count(), 3);
    }

    #[test]
    fn json_escapes_and_parses_shape() {
        let rs = vec![bench("x/\"y\"", Duration::from_micros(50), 2, || ())];
        let j = dram_obs::bench_document("harness", &rs, Vec::new()).to_string();
        assert!(j.contains(r#""x/\"y\"""#));
        // The shared decoder accepts what the harness's records become.
        let doc = json::Value::parse(&j).expect("a bench document is valid JSON");
        let runs = doc.get("records").and_then(json::Value::as_array).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(
            runs[0].get("name").and_then(json::Value::as_str),
            Some("x/\"y\"")
        );
    }
}
