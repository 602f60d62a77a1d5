//! Hierarchical spans with monotonic timing and thread attribution.
//!
//! A span is opened with [`span`] and closed by dropping the returned
//! [`SpanGuard`] — including during a panic unwind, so open/close is
//! always balanced. Nesting is tracked per thread: a span opened while
//! another is live on the same thread records that span as its parent,
//! which is what turns a flat event list into the phase tree a profile
//! viewer shows.
//!
//! Profiling is **off by default** and gated by one process-wide atomic.
//! The disabled fast path is a single relaxed load: no clock read, no
//! allocation, no lock — cheap enough to leave call sites in the hottest
//! loops of the workspace permanently instrumented.

use std::borrow::Cow;
use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The process-wide profiling switch. Relaxed is enough: a span missed
/// (or recorded) around the enable/disable edge is acceptable, a lock on
/// the fast path is not.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Span ids, process-wide; `0` is reserved for "no parent".
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Small dense thread ids (Chrome's `tid`), assigned on first span per
/// thread; [`std::thread::ThreadId`] has no stable integer form.
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Id of the innermost live span on this thread (`0` = none).
    static CURRENT_PARENT: Cell<u64> = const { Cell::new(0) };
    /// This thread's dense id, once assigned.
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
}

/// One completed span, as stored by the sink and returned by [`drain`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id of this span (process-wide, never `0`).
    pub id: u64,
    /// Id of the enclosing span on the same thread, `0` for roots.
    pub parent: u64,
    /// Span name, e.g. `model.geometry`.
    pub name: Cow<'static, str>,
    /// Dense id of the recording thread (Chrome `tid`).
    pub thread: u64,
    /// Start time in microseconds since the profile epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Attached key/value annotations (request ids, item counts, …).
    pub args: Vec<(Cow<'static, str>, String)>,
}

/// A thread that recorded at least one span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadInfo {
    /// The dense id used in [`SpanRecord::thread`].
    pub id: u64,
    /// The OS thread name, or `thread-<id>` when unnamed.
    pub name: String,
}

/// Everything collected since the last [`drain`]: completed spans plus
/// the threads that produced them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Completed spans in close order.
    pub spans: Vec<SpanRecord>,
    /// Threads that have recorded spans, in id order.
    pub threads: Vec<ThreadInfo>,
}

/// The global sink: one mutex, taken once per span *close* (never on the
/// disabled path, never while user code runs inside the span).
struct Sink {
    spans: Vec<SpanRecord>,
    threads: Vec<ThreadInfo>,
}

fn sink() -> &'static Mutex<Sink> {
    static SINK: OnceLock<Mutex<Sink>> = OnceLock::new();
    SINK.get_or_init(|| {
        Mutex::new(Sink {
            spans: Vec::new(),
            threads: Vec::new(),
        })
    })
}

/// The monotonic zero point all span timestamps are relative to. Fixed
/// at first use so timestamps from different threads share one axis.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Whether span recording is currently on.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span recording on or off. Enabling pins the profile epoch, so
/// call it before the work you want to see.
pub fn set_enabled(on: bool) {
    if on {
        // Pin the epoch now; spans started before enable still get
        // non-negative timestamps.
        let _ = epoch();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Registers the calling thread in the dense-thread-id table right
/// away, instead of on its first recorded span.
///
/// Threads that never open a span — the server's epoll reactor lives in
/// its own loop and records journal events, not spans — would otherwise
/// appear as an anonymous `thread-<n>` (or not at all) in Chrome traces
/// and `/debug/events` output. Call this once at thread start; repeat
/// calls are no-ops. Returns the thread's dense id.
pub fn register_thread() -> u64 {
    thread_id()
}

/// Microseconds since the shared observability epoch — the same time
/// axis span timestamps use, so journal events and spans line up.
pub(crate) fn now_us() -> u64 {
    us(Instant::now().saturating_duration_since(epoch()))
}

/// The calling thread's dense id (assigning and registering it on
/// first use), for the journal's per-thread shard selection.
pub(crate) fn current_thread_id() -> u64 {
    thread_id()
}

/// This thread's dense id, assigning (and registering the thread name)
/// on first use.
fn thread_id() -> u64 {
    THREAD_ID.with(|slot| {
        let id = slot.get();
        if id != 0 {
            return id;
        }
        let id = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
        slot.set(id);
        let name = std::thread::current()
            .name()
            .map_or_else(|| format!("thread-{id}"), str::to_string);
        sink()
            .lock()
            .expect("span sink lock")
            .threads
            .push(ThreadInfo { id, name });
        id
    })
}

/// State of a live, recording span (absent on the disabled path).
struct ActiveSpan {
    id: u64,
    parent: u64,
    name: Cow<'static, str>,
    thread: u64,
    start: Instant,
    args: Vec<(Cow<'static, str>, String)>,
}

/// Closes its span when dropped — on every exit path, including panics.
///
/// When profiling is disabled the guard is inert: it holds no state,
/// allocates nothing and its drop is a no-op.
#[must_use = "a span lasts as long as its guard; bind it to a named local"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.active {
            Some(a) => write!(f, "SpanGuard({})", a.name),
            None => f.write_str("SpanGuard(disabled)"),
        }
    }
}

impl SpanGuard {
    /// Attaches `key=value` to the span. A no-op (the value is never
    /// rendered) when profiling is disabled.
    pub fn add_arg(&mut self, key: impl Into<Cow<'static, str>>, value: impl fmt::Display) {
        if let Some(active) = &mut self.active {
            active.args.push((key.into(), value.to_string()));
        }
    }

    /// Builder-style [`SpanGuard::add_arg`].
    pub fn arg(mut self, key: impl Into<Cow<'static, str>>, value: impl fmt::Display) -> Self {
        self.add_arg(key, value);
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let end = Instant::now();
        CURRENT_PARENT.with(|p| p.set(active.parent));
        let start_us = us(active.start.saturating_duration_since(epoch()));
        let dur_us = us(end.saturating_duration_since(active.start));
        sink()
            .lock()
            .expect("span sink lock")
            .spans
            .push(SpanRecord {
                id: active.id,
                parent: active.parent,
                name: active.name,
                thread: active.thread,
                start_us,
                dur_us,
                args: active.args,
            });
    }
}

fn us(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Opens a span. Closes when the returned guard drops.
///
/// ```
/// let _span = dram_obs::span("model.build");
/// // ... timed work ...
/// ```
///
/// With profiling disabled (the default) this is one relaxed atomic
/// load and returns an inert guard.
pub fn span(name: impl Into<Cow<'static, str>>) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: None };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT_PARENT.with(|p| p.replace(id));
    SpanGuard {
        active: Some(ActiveSpan {
            id,
            parent,
            name: name.into(),
            thread: thread_id(),
            start: Instant::now(),
            args: Vec::new(),
        }),
    }
}

/// A span whose start and end were measured by the caller — for
/// intervals that cross threads, like time spent in a queue before any
/// worker touched the item. Build, annotate, then [`ManualSpan::commit`].
#[must_use = "a manual span records nothing until commit() is called"]
#[derive(Debug)]
pub struct ManualSpan {
    record: Option<SpanRecord>,
}

impl ManualSpan {
    /// A manual span from `start` to `end`, attributed to the calling
    /// thread and parented like [`span`] would be. Inert when profiling
    /// is disabled.
    pub fn new(name: impl Into<Cow<'static, str>>, start: Instant, end: Instant) -> Self {
        if !enabled() {
            return Self { record: None };
        }
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        Self {
            record: Some(SpanRecord {
                id,
                parent: CURRENT_PARENT.with(Cell::get),
                name: name.into(),
                thread: thread_id(),
                start_us: us(start.saturating_duration_since(epoch())),
                dur_us: us(end.saturating_duration_since(start)),
                args: Vec::new(),
            }),
        }
    }

    /// Attaches `key=value`; no-op when inert.
    pub fn arg(mut self, key: impl Into<Cow<'static, str>>, value: impl fmt::Display) -> Self {
        if let Some(record) = &mut self.record {
            record.args.push((key.into(), value.to_string()));
        }
        self
    }

    /// Records the span in the sink.
    pub fn commit(self) {
        if let Some(record) = self.record {
            sink().lock().expect("span sink lock").spans.push(record);
        }
    }
}

/// Takes every completed span collected so far, leaving the sink empty.
/// The thread table is cumulative (thread ids stay valid across drains)
/// and is returned as a copy.
#[must_use]
pub fn drain() -> Profile {
    let mut sink = sink().lock().expect("span sink lock");
    Profile {
        spans: std::mem::take(&mut sink.spans),
        threads: sink.threads.clone(),
    }
}

/// Copies every completed span collected so far **without** draining
/// the sink — for live introspection (the `/debug/requests` timeline
/// join) that must not steal spans from a concurrent profiling run.
#[must_use]
pub fn snapshot() -> Profile {
    let sink = sink().lock().expect("span sink lock");
    Profile {
        spans: sink.spans.clone(),
        threads: sink.threads.clone(),
    }
}

/// Discards every completed span collected so far.
pub fn clear() {
    sink().lock().expect("span sink lock").spans.clear();
}

/// Aggregate of every span sharing one name, for flat per-phase tables.
#[derive(Debug, Clone, PartialEq)]
pub struct Rollup {
    /// The shared span name.
    pub name: String,
    /// How many spans closed under this name.
    pub count: u64,
    /// Sum of their durations, microseconds.
    pub total_us: u64,
    /// Mean duration, microseconds.
    pub mean_us: f64,
    /// Largest single duration, microseconds.
    pub max_us: u64,
}

/// Aggregates a profile by span name, largest total first.
#[must_use]
pub fn rollup(profile: &Profile) -> Vec<Rollup> {
    let mut by_name: Vec<Rollup> = Vec::new();
    for span in &profile.spans {
        match by_name.iter_mut().find(|r| r.name == span.name) {
            Some(r) => {
                r.count += 1;
                r.total_us += span.dur_us;
                r.max_us = r.max_us.max(span.dur_us);
            }
            None => by_name.push(Rollup {
                name: span.name.to_string(),
                count: 1,
                total_us: span.dur_us,
                mean_us: 0.0,
                max_us: span.dur_us,
            }),
        }
    }
    for r in &mut by_name {
        #[allow(clippy::cast_precision_loss)]
        {
            r.mean_us = r.total_us as f64 / r.count as f64;
        }
    }
    by_name.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.name.cmp(&b.name)));
    by_name
}

/// [`rollup`] as a table: a header line, then one line per span name
/// with its count and its total, mean and largest duration in ms.
#[must_use]
pub fn rollup_table(profile: &Profile) -> String {
    use fmt::Write as _;
    let mut table = format!(
        "{:28} {:>8} {:>12} {:>12} {:>12}\n",
        "span", "count", "total ms", "mean ms", "max ms"
    );
    #[allow(clippy::cast_precision_loss)]
    for r in rollup(profile) {
        let _ = writeln!(
            table,
            "{:28} {:>8} {:>12.3} {:>12.3} {:>12.3}",
            r.name,
            r.count,
            r.total_us as f64 / 1e3,
            r.mean_us / 1e3,
            r.max_us as f64 / 1e3,
        );
    }
    table
}
