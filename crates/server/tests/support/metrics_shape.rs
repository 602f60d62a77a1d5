//! Helpers for the `/metrics` golden and parity tests: the key-path
//! shape of a JSON document, and the headers and samples of a
//! Prometheus exposition. The server's unit tests and the router's wire
//! tests both include this file.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

use dram_units::json::Value;

/// Every key path of `doc` in document order with its JSON type; the
/// values are masked. Array elements share the path `name[]`, and a run
/// of identical lines folds into one with an ` xN` suffix. Paths listed
/// in `opaque` are typed but not descended into.
pub fn json_shape(doc: &Value, opaque: &[&str]) -> Vec<String> {
    fn walk(path: &str, v: &Value, opaque: &[&str], out: &mut Vec<String>) {
        let kind = match v {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        };
        if !path.is_empty() {
            out.push(format!("{path} {kind}"));
        }
        if opaque.contains(&path) {
            return;
        }
        match v {
            Value::Arr(items) => {
                for item in items {
                    walk(&format!("{path}[]"), item, opaque, out);
                }
            }
            Value::Obj(members) => {
                for (key, member) in members {
                    let child = if path.is_empty() {
                        key.clone()
                    } else {
                        format!("{path}.{key}")
                    };
                    walk(&child, member, opaque, out);
                }
            }
            _ => {}
        }
    }
    let mut lines = Vec::new();
    walk("", doc, opaque, &mut lines);
    let mut folded: Vec<(String, usize)> = Vec::new();
    for line in lines {
        match folded.last_mut() {
            Some((last, n)) if *last == line => *n += 1,
            _ => folded.push((line, 1)),
        }
    }
    folded
        .into_iter()
        .map(|(line, n)| if n == 1 { line } else { format!("{line} x{n}") })
        .collect()
}

/// The family a Prometheus sample or header line belongs to: the
/// sample name with a histogram's `_bucket`, `_sum` or `_count` suffix
/// stripped when `histograms` names the stem.
fn family<'a>(name: &'a str, histograms: &BTreeSet<String>) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stem) = name.strip_suffix(suffix) {
            if histograms.contains(stem) {
                return stem;
            }
        }
    }
    name
}

/// The `# HELP` and `# TYPE` lines of families whose name starts with
/// one of `prefixes`.
pub fn prom_headers(text: &str, prefixes: &[&str]) -> BTreeSet<String> {
    text.lines()
        .filter(|l| l.starts_with("# HELP ") || l.starts_with("# TYPE "))
        .filter(|l| {
            let name = l[7..].split(' ').next().unwrap_or("");
            prefixes.iter().any(|p| name.starts_with(p))
        })
        .map(str::to_string)
        .collect()
}

/// One sample line: name, `(label, value)` pairs, value.
type Sample = (String, Vec<(String, String)>, f64);

/// Every sample line of an exposition.
fn prom_lines(text: &str) -> Vec<Sample> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .map(|line| {
            let (series, value) = line.rsplit_once(' ').expect("sample has a value");
            let value: f64 = match value {
                "+Inf" => f64::INFINITY,
                "-Inf" => f64::NEG_INFINITY,
                v => v.parse().expect("sample value parses"),
            };
            let (name, labels) = match series.split_once('{') {
                None => (series.to_string(), Vec::new()),
                Some((name, rest)) => {
                    let body = rest.strip_suffix('}').expect("closing brace");
                    let labels = body
                        .split(',')
                        .map(|pair| {
                            let (k, v) = pair.split_once('=').expect("label pair");
                            (k.to_string(), v.trim_matches('"').to_string())
                        })
                        .collect();
                    (name.to_string(), labels)
                }
            };
            (name, labels, value)
        })
        .collect()
}

fn histogram_stems(text: &str) -> BTreeSet<String> {
    text.lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.strip_suffix(" histogram"))
        .map(str::to_string)
        .collect()
}

/// The set of (family, label keys) the samples of families starting
/// with one of `prefixes` carry.
pub fn prom_label_keys(text: &str, prefixes: &[&str]) -> BTreeSet<String> {
    let histograms = histogram_stems(text);
    prom_lines(text)
        .into_iter()
        .filter(|(name, _, _)| prefixes.iter().any(|p| name.starts_with(p)))
        .map(|(name, labels, _)| {
            let keys: Vec<String> = labels.into_iter().map(|(k, _)| k).collect();
            format!("{} {{{}}}", family(&name, &histograms), keys.join(","))
        })
        .collect()
}

/// Every sample keyed by `name{k="v",...}` as written, with its value.
pub fn prom_samples(text: &str) -> BTreeMap<String, f64> {
    prom_lines(text)
        .into_iter()
        .map(|(name, labels, value)| {
            let key = if labels.is_empty() {
                name
            } else {
                let pairs: Vec<String> =
                    labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
                format!("{name}{{{}}}", pairs.join(","))
            };
            (key, value)
        })
        .collect()
}

/// Adds to a counter field, whether it is a raw atomic or a
/// `dram_obs::Counter`, so the parity tests set state the same way
/// against either representation.
pub trait Bump {
    /// Adds `n`.
    fn bump(&self, n: u64);
}

impl Bump for AtomicU64 {
    fn bump(&self, n: u64) {
        self.fetch_add(n, Ordering::Relaxed);
    }
}

impl Bump for dram_obs::Counter {
    fn bump(&self, n: u64) {
        self.add(n);
    }
}
