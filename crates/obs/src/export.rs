//! Exporters: Chrome trace-event JSON for span profiles, and the
//! `/metrics` documents — JSON and Prometheus text exposition (version
//! 0.0.4) — rendered from one declaration per series.
//!
//! The trace exporter writes the subset of the [Trace Event Format] that
//! `chrome://tracing` and Perfetto load: one `M` (metadata) event naming
//! each thread, then one `X` (complete) event per span with microsecond
//! `ts`/`dur`. Everything goes through [`dram_units::json`], so a trace
//! file round-trips through the workspace's own parser.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! A `/metrics` document is a list of [`Series`], each naming its
//! Prometheus family, JSON key, help text and value source.
//! [`json_members`] and [`PromWriter::series`] walk the same list; the
//! [`Registry`] goes through the same renderers ([`registry_json`],
//! [`PromWriter::registry`]) with each metric's name as its JSON key.

use std::fmt::Write as _;

use dram_units::json::{obj, Value};

use crate::metrics::{bucket_upper_us, Histogram, Metric, Registry, BUCKETS};
use crate::span::Profile;

/// Serializes a span profile as a Chrome trace-event document:
/// `{"traceEvents": [...], "displayTimeUnit": "ms"}`.
///
/// Span args are carried into each event's `args` object, plus the
/// span's `id`/`parent` pair so tools (and tests) can rebuild the tree
/// without relying on timestamp containment.
#[must_use]
pub fn chrome_trace(profile: &Profile) -> Value {
    let mut events: Vec<Value> =
        Vec::with_capacity(profile.spans.len() + profile.threads.len() + 1);
    events.push(obj(vec![
        ("ph", "M".into()),
        ("name", "process_name".into()),
        ("pid", 1u64.into()),
        ("args", obj(vec![("name", "dram-energy".into())])),
    ]));
    for t in &profile.threads {
        events.push(obj(vec![
            ("ph", "M".into()),
            ("name", "thread_name".into()),
            ("pid", 1u64.into()),
            ("tid", t.id.into()),
            ("args", obj(vec![("name", t.name.as_str().into())])),
        ]));
    }
    for s in &profile.spans {
        let mut args: Vec<(String, Value)> = vec![
            ("id".to_string(), s.id.into()),
            ("parent".to_string(), s.parent.into()),
        ];
        for (k, v) in &s.args {
            args.push((k.to_string(), v.as_str().into()));
        }
        events.push(obj(vec![
            ("ph", "X".into()),
            ("name", s.name.as_ref().into()),
            ("cat", "dram".into()),
            ("pid", 1u64.into()),
            ("tid", s.thread.into()),
            ("ts", s.start_us.into()),
            ("dur", s.dur_us.into()),
            ("args", Value::Obj(args)),
        ]));
    }
    obj(vec![
        ("traceEvents", Value::Arr(events)),
        ("displayTimeUnit", "ms".into()),
    ])
}

/// Escapes a Prometheus label value: backslash, double quote and
/// newline, per the text exposition format.
#[must_use]
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes a `# HELP` text: backslash and newline only (quotes are
/// legal in help text).
#[must_use]
pub fn escape_help(help: &str) -> String {
    let mut out = String::with_capacity(help.len());
    for c in help.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Incrementally builds a Prometheus text exposition (version 0.0.4)
/// document.
#[derive(Debug, Default)]
pub struct PromWriter {
    out: String,
}

impl PromWriter {
    /// An empty document.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The `Content-Type` a scrape response carrying this document must
    /// declare.
    pub const CONTENT_TYPE: &'static str = "text/plain; version=0.0.4";

    /// Writes the `# HELP` / `# TYPE` header for a metric family.
    /// `kind` is `counter`, `gauge` or `histogram`.
    pub fn header(&mut self, name: &str, help: &str, kind: &str) {
        let _ = writeln!(self.out, "# HELP {name} {}", escape_help(help));
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// Writes one sample line with optional labels.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                let _ = write!(self.out, "{k}=\"{}\"", escape_label(v));
            }
            self.out.push('}');
        }
        if value.is_finite() {
            let _ = writeln!(self.out, " {value}");
        } else if value.is_nan() {
            let _ = writeln!(self.out, " NaN");
        } else if value > 0.0 {
            let _ = writeln!(self.out, " +Inf");
        } else {
            let _ = writeln!(self.out, " -Inf");
        }
    }

    /// Writes a [`Histogram`] as a Prometheus histogram family in
    /// **seconds**: cumulative `_bucket{le="..."}` lines derived from
    /// the log₂-µs buckets, then `_sum` and `_count`.
    pub fn histogram_seconds(&mut self, name: &str, help: &str, hist: &Histogram) {
        self.header(name, help, "histogram");
        self.samples(name, &[], &Reading::Histogram(hist));
    }

    /// Writes the sample lines of one reading; `labels` go on the sample
    /// of a number or a flag.
    #[allow(clippy::cast_precision_loss)]
    fn samples(&mut self, name: &str, labels: &[(&str, &str)], reading: &Reading<'_>) {
        match reading {
            Reading::Number(v) => self.sample(name, labels, *v),
            Reading::Flag(on) => self.sample(name, labels, f64::from(u8::from(*on))),
            Reading::Info(label, value) => self.sample(name, &[(label, value)], 1.0),
            Reading::Labeled(label, counts) => {
                for (value, n) in counts {
                    self.sample(name, &[(label, value)], *n);
                }
            }
            Reading::Histogram(hist) => {
                let counts = hist.counts();
                let bucket = format!("{name}_bucket");
                let mut cumulative: u64 = 0;
                for (i, c) in counts.iter().enumerate() {
                    cumulative += c;
                    match bucket_upper_us(i) {
                        Some(upper_us) => {
                            let le = upper_us as f64 * 1e-6;
                            self.sample(&bucket, &[("le", &le.to_string())], cumulative as f64);
                        }
                        None => self.sample(&bucket, &[("le", "+Inf")], cumulative as f64),
                    }
                }
                debug_assert_eq!(counts.len(), BUCKETS);
                self.sample(&format!("{name}_sum"), &[], hist.sum_us() as f64 * 1e-6);
                self.sample(&format!("{name}_count"), &[], cumulative as f64);
            }
        }
    }

    /// Appends the family of every series in `list`, read from `source`.
    pub fn series<S>(&mut self, list: &[Series<S>], source: &S) {
        for s in list {
            self.header(s.name, s.help, s.kind.prom_type());
            self.samples(s.name, &[], &s.kind.read(source));
        }
    }

    /// Appends the family of every series in `list` with one sample per
    /// row, labelled `label="<row name>"`; every header is written even
    /// with no rows. For counters, gauges and flags.
    pub fn rows<'r, S: 'r>(
        &mut self,
        list: &[Series<S>],
        label: &str,
        rows: impl Iterator<Item = (&'r str, &'r S)> + Clone,
    ) {
        for s in list {
            self.header(s.name, s.help, s.kind.prom_type());
            for (row, source) in rows.clone() {
                self.samples(s.name, &[(label, row)], &s.kind.read(source));
            }
        }
    }

    /// Appends every metric of a [`Registry`], in name order.
    pub fn registry(&mut self, registry: &Registry) {
        read_registry(registry, |name, help, kind, reading| {
            self.header(name, help, kind);
            self.samples(name, &[], &reading);
        });
    }

    /// The finished document.
    #[must_use]
    pub fn finish(self) -> String {
        self.out
    }
}

/// One `/metrics` series, declared once.
pub struct Series<S> {
    /// Prometheus family name.
    pub name: &'static str,
    /// JSON member key.
    pub key: &'static str,
    /// `# HELP` text.
    pub help: &'static str,
    /// What the series shows, and where it reads its value in a source.
    pub kind: Kind<S>,
}

/// What a [`Series`] shows in each format, and how it reads its value
/// from a source `S`.
pub enum Kind<S> {
    /// A count: a JSON number, a Prometheus `counter`.
    Counter(fn(&S) -> f64),
    /// A JSON number, a Prometheus `gauge`.
    Gauge(fn(&S) -> f64),
    /// A JSON `true`/`false`, a Prometheus `gauge` of 1 or 0.
    Flag(fn(&S) -> bool),
    /// A log₂-µs [`Histogram`]: JSON `{"bucket_upper_us": [..],
    /// "counts": [..]}`, a Prometheus histogram in seconds.
    Histogram(fn(&S) -> &Histogram),
    /// Build information `(label, value)`: the JSON string `value`, a
    /// Prometheus `gauge` of 1 labelled `label="value"`.
    Info(&'static str, &'static str),
    /// A count per value of one label: a JSON object keyed by label
    /// value, a Prometheus `counter` family labelled `label`.
    Labeled(&'static str, fn(&S) -> Vec<(&'static str, f64)>),
}

/// A series' value at render time.
enum Reading<'a> {
    Number(f64),
    Flag(bool),
    Histogram(&'a Histogram),
    Info(&'a str, &'a str),
    Labeled(&'a str, Vec<(&'a str, f64)>),
}

impl<S> Kind<S> {
    fn prom_type(&self) -> &'static str {
        match self {
            Kind::Counter(_) | Kind::Labeled(..) => "counter",
            Kind::Histogram(_) => "histogram",
            Kind::Gauge(_) | Kind::Flag(_) | Kind::Info(..) => "gauge",
        }
    }

    fn read<'a>(&self, source: &'a S) -> Reading<'a> {
        match *self {
            Kind::Counter(read) | Kind::Gauge(read) => Reading::Number(read(source)),
            Kind::Flag(read) => Reading::Flag(read(source)),
            Kind::Histogram(read) => Reading::Histogram(read(source)),
            Kind::Info(label, value) => Reading::Info(label, value),
            Kind::Labeled(label, counts) => Reading::Labeled(label, counts(source)),
        }
    }
}

impl Reading<'_> {
    fn json(&self) -> Value {
        match self {
            Reading::Number(v) => (*v).into(),
            Reading::Flag(on) => (*on).into(),
            Reading::Histogram(h) => {
                let uppers: Vec<Value> = (0..BUCKETS)
                    .map(|i| bucket_upper_us(i).map_or(Value::Null, Value::from))
                    .collect();
                let counts: Vec<Value> = h.counts().into_iter().map(Value::from).collect();
                obj(vec![
                    ("bucket_upper_us", uppers.into()),
                    ("counts", counts.into()),
                ])
            }
            Reading::Info(_, value) => (*value).into(),
            Reading::Labeled(_, counts) => Value::Obj(
                counts
                    .iter()
                    .map(|(k, n)| ((*k).to_string(), (*n).into()))
                    .collect(),
            ),
        }
    }
}

/// The JSON members of every series in `list`, read from `source`, in
/// list order.
pub fn json_members<S>(list: &[Series<S>], source: &S) -> Vec<(String, Value)> {
    list.iter()
        .map(|s| (s.key.to_string(), s.kind.read(source).json()))
        .collect()
}

/// Every metric of a [`Registry`] as one JSON object keyed by metric
/// name, in name order.
#[must_use]
pub fn registry_json(registry: &Registry) -> Value {
    let mut members = Vec::new();
    read_registry(registry, |name, _, _, reading| {
        members.push((name.to_string(), reading.json()));
    });
    Value::Obj(members)
}

/// Reads every metric of `registry` in name order and hands `each` its
/// name, help, Prometheus type and reading.
#[allow(clippy::cast_precision_loss)]
fn read_registry(registry: &Registry, mut each: impl FnMut(&str, &str, &str, Reading<'_>)) {
    for (name, metric, help) in registry.metrics() {
        match &metric {
            Metric::Counter(c) => each(&name, &help, "counter", Reading::Number(c.get() as f64)),
            Metric::Gauge(g) => each(&name, &help, "gauge", Reading::Number(g.get())),
            Metric::Histogram(h) => each(&name, &help, "histogram", Reading::Histogram(h)),
        }
    }
}

/// Whether a `/metrics` request asks for Prometheus text rather than
/// JSON. The `format` query parameter wins when present: `json` or
/// `prometheus`, and anything else is an error carrying the message for
/// a 400. Without it, an `Accept` header naming `text/plain` and not
/// `application/json` selects Prometheus.
///
/// # Errors
///
/// An unknown `format` value.
pub fn wants_prometheus(format: Option<&str>, accept: &str) -> Result<bool, String> {
    match format {
        Some("prometheus") => Ok(true),
        Some("json") => Ok(false),
        Some(other) => Err(format!(
            "unknown metrics format `{other}`; use `json` or `prometheus`"
        )),
        None => Ok(accept.contains("text/plain") && !accept.contains("application/json")),
    }
}
