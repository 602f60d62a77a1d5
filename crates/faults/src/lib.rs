//! # dram-faults
//!
//! Deterministic fault injection at named sites of the dram-energy
//! stack. The serving layer claims it degrades gracefully under hostile
//! input, slow sockets and panicking handlers — this crate exists so
//! that claim is *tested*, not asserted: `chaos-bench` and the
//! resilience test suites arm a seeded fault plan, replay a workload,
//! and check the stack's invariants (no lost responses, unique request
//! ids, clean drain, every injected fault accounted for in metrics).
//!
//! ## Design
//!
//! * **Named sites.** Code that can fail in interesting ways calls
//!   [`trip`] with a site name from [`SITES`] (`"http.read"`,
//!   `"engine.build"`, …). With no plan armed this is one relaxed
//!   atomic load — the same zero-cost-when-off contract as
//!   `dram_obs::span`, so the hooks stay in production paths.
//! * **Seeded, per-site streams.** Each site draws from its own
//!   [`SplitMix64`] stream seeded from the
//!   plan seed and the site name, so the decision sequence at one site
//!   does not depend on how often other sites are visited. Equal seeds
//!   give equal per-site fire/skip sequences on every platform.
//! * **Accounted.** Every injected fault increments a per-site counter,
//!   visible in-process via [`injected`] and process-wide through the
//!   [`dram_obs::Registry`] (metric `dram_faults_injected_total_<site>`
//!   with dots mapped to underscores), which `dram-serve` already
//!   exports on `GET /metrics?format=prometheus`.
//!
//! ## Spec grammar
//!
//! A plan is a `;`-separated list of clauses (`--faults` on the
//! binaries, or the `DRAM_FAULTS` environment variable):
//!
//! ```text
//! spec    := clause (';' clause)*
//! clause  := 'seed' '=' u64            -- default 0
//!          | site '=' action
//! site    := 'http.read' | 'http.write' | 'engine.build'
//!          | 'engine.worker' | 'server.queue' | 'server.worker'
//!          | 'node.kill'
//! action  := kind (':' param)*
//! kind    := 'panic' | 'delay' | 'short' | 'reject' | 'kill'
//! param   := 'p=' float                -- fire probability, default 1
//!          | 'ms=' u64                 -- delay milliseconds, default 10
//!          | 'burst=' u32              -- consecutive fires once
//!                                         triggered, default 1
//!          | 'times=' u64              -- total fire budget, default
//!                                         unlimited
//! ```
//!
//! Example: `seed=42;engine.build=panic:p=0.05;http.read=delay:ms=25:p=0.2`.
//!
//! ```
//! let plan = dram_faults::Plan::parse("seed=7;engine.build=panic:times=1").unwrap();
//! dram_faults::arm(&plan);
//! assert!(dram_faults::armed());
//! // First visit fires (p defaults to 1), and the budget is then spent.
//! let caught = std::panic::catch_unwind(|| dram_faults::trip("engine.build"));
//! assert!(caught.is_err());
//! assert!(dram_faults::trip("engine.build").is_none());
//! dram_faults::disarm();
//! ```
#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Duration;

use dram_units::rng::SplitMix64;

/// Every site the workspace can inject at, with the failure modes each
/// supports. Central so the spec parser, the docs and `chaos-bench`
/// cannot drift apart.
pub const SITES: [(&str, &[Kind]); 7] = [
    // Socket reads in `dram_server::http` stall (delay) or arrive one
    // byte at a time (short).
    ("http.read", &[Kind::Delay, Kind::Short]),
    // Response writes stall or are split into tiny fragments.
    ("http.write", &[Kind::Delay, Kind::Short]),
    // Model construction inside `EvalEngine` builds slowly or panics.
    ("engine.build", &[Kind::Delay, Kind::Panic]),
    // A batch worker item panics or stalls inside `evaluate_many`.
    ("engine.worker", &[Kind::Delay, Kind::Panic]),
    // The reactor's dispatch behaves as if the connection queue were
    // full (503 + retry-after, connection closed).
    ("server.queue", &[Kind::Reject]),
    // A server worker thread dies between connections (respawn path).
    ("server.worker", &[Kind::Panic]),
    // A whole node process should die (SIGKILL). Tripped by the
    // *orchestrator* — `shard-bench`'s kill scheduler — not by the node
    // itself: the scheduler draws from this site's stream once per tick
    // and kills a child process when it fires, so whole-node crash
    // schedules are seeded and replayable like every other fault.
    ("node.kill", &[Kind::Kill]),
];

/// What an armed site does when its draw fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Panic with a message naming the site.
    Panic,
    /// Sleep for the configured duration, then continue normally.
    Delay,
    /// Truncate the I/O operation (read/write one byte at a time).
    Short,
    /// Report the guarded resource as unavailable (queue full).
    Reject,
    /// Kill a whole process (SIGKILL), fired by an orchestrator that
    /// owns the victim — the process never sees the trip.
    Kill,
}

impl Kind {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "panic" => Some(Kind::Panic),
            "delay" => Some(Kind::Delay),
            "short" => Some(Kind::Short),
            "reject" => Some(Kind::Reject),
            "kill" => Some(Kind::Kill),
            _ => None,
        }
    }

    /// The spec spelling of this kind.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Kind::Panic => "panic",
            Kind::Delay => "delay",
            Kind::Short => "short",
            Kind::Reject => "reject",
            Kind::Kill => "kill",
        }
    }
}

/// One parsed `site=action` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Site name from [`SITES`].
    pub site: &'static str,
    /// Failure mode to inject.
    pub kind: Kind,
    /// Fire probability per draw, in `(0, 1]`.
    pub probability: f64,
    /// Sleep length for [`Kind::Delay`].
    pub delay: Duration,
    /// Consecutive fires once a draw triggers (queue-full *bursts*).
    pub burst: u32,
    /// Total fire budget; `None` is unlimited.
    pub times: Option<u64>,
}

/// A parsed fault plan: seed plus one rule per site.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Plan {
    /// Seed for the per-site decision streams.
    pub seed: u64,
    /// The armed rules (at most one per site; later clauses win).
    pub rules: Vec<Rule>,
}

impl Plan {
    /// Parses the spec grammar described in the crate docs.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending clause: unknown sites,
    /// kinds a site does not support, and out-of-range parameters are
    /// all rejected rather than silently ignored.
    pub fn parse(spec: &str) -> Result<Plan, String> {
        let mut plan = Plan::default();
        for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault clause `{clause}` is not `key=value`"))?;
            let (key, value) = (key.trim(), value.trim());
            if key == "seed" {
                plan.seed = value
                    .parse()
                    .map_err(|_| format!("bad fault seed `{value}`"))?;
                continue;
            }
            let (site, allowed) = SITES
                .iter()
                .find(|(name, _)| *name == key)
                .copied()
                .ok_or_else(|| {
                    format!(
                        "unknown fault site `{key}`; sites: {}",
                        SITES.map(|(n, _)| n).join(", ")
                    )
                })?;
            let mut parts = value.split(':');
            let kind_text = parts.next().unwrap_or_default();
            let kind = Kind::parse(kind_text)
                .ok_or_else(|| format!("unknown fault kind `{kind_text}` at `{site}`"))?;
            if !allowed.contains(&kind) {
                return Err(format!(
                    "site `{site}` does not support `{}`; supported: {}",
                    kind.label(),
                    allowed
                        .iter()
                        .map(|k| k.label())
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
            let mut rule = Rule {
                site,
                kind,
                probability: 1.0,
                delay: Duration::from_millis(10),
                burst: 1,
                times: None,
            };
            for param in parts {
                let (name, raw) = param
                    .split_once('=')
                    .ok_or_else(|| format!("bad fault parameter `{param}` at `{site}`"))?;
                match name {
                    "p" => {
                        let p: f64 = raw
                            .parse()
                            .map_err(|_| format!("bad probability `{raw}` at `{site}`"))?;
                        if !(p > 0.0 && p <= 1.0) {
                            return Err(format!(
                                "probability `{raw}` at `{site}` must be in (0, 1]"
                            ));
                        }
                        rule.probability = p;
                    }
                    "ms" => {
                        let ms: u64 = raw
                            .parse()
                            .map_err(|_| format!("bad delay `{raw}` at `{site}`"))?;
                        rule.delay = Duration::from_millis(ms);
                    }
                    "burst" => {
                        let burst: u32 = raw
                            .parse()
                            .ok()
                            .filter(|&b| b >= 1)
                            .ok_or_else(|| format!("bad burst `{raw}` at `{site}`"))?;
                        rule.burst = burst;
                    }
                    "times" => {
                        let times: u64 = raw
                            .parse()
                            .ok()
                            .filter(|&t| t >= 1)
                            .ok_or_else(|| format!("bad times `{raw}` at `{site}`"))?;
                        rule.times = Some(times);
                    }
                    other => return Err(format!("unknown fault parameter `{other}` at `{site}`")),
                }
            }
            // Later clauses for the same site replace earlier ones, so a
            // base schedule can be overridden from the command line.
            plan.rules.retain(|r| r.site != site);
            plan.rules.push(rule);
        }
        Ok(plan)
    }

    /// Renders the plan back into spec syntax (for startup banners).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!("seed={}", self.seed);
        for r in &self.rules {
            out.push_str(&format!(";{}={}", r.site, r.kind.label()));
            if (r.probability - 1.0).abs() > f64::EPSILON {
                out.push_str(&format!(":p={}", r.probability));
            }
            if r.kind == Kind::Delay {
                out.push_str(&format!(":ms={}", r.delay.as_millis()));
            }
            if r.burst != 1 {
                out.push_str(&format!(":burst={}", r.burst));
            }
            if let Some(t) = r.times {
                out.push_str(&format!(":times={t}"));
            }
        }
        out
    }
}

/// What [`trip`] tells its caller to do. `Panic` never reaches the
/// caller (the trip itself panics) and `Delay` is served inside the
/// trip, so call sites only ever branch on `Short` and `Reject`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    /// The failure mode that fired.
    pub kind: Kind,
}

/// Runtime state of one armed site.
struct SiteState {
    rule: Rule,
    /// The site's private decision stream.
    rng: Mutex<SplitMix64>,
    /// Fires left in the current burst (a fired draw arms `burst - 1`
    /// follow-ups that skip the probability check).
    burst_left: AtomicU32,
    /// Total fires so far, for the `times` budget and accounting.
    fired: AtomicU64,
    /// Mirror of `fired` in the process-wide metrics registry.
    counter: Arc<dram_obs::Counter>,
}

/// The armed plan. Swapped wholesale by [`arm`]/[`disarm`]; the hot
/// path reads only [`ARMED`].
struct Runtime {
    sites: Vec<SiteState>,
}

static ARMED: AtomicBool = AtomicBool::new(false);

fn runtime_slot() -> &'static Mutex<Option<Arc<Runtime>>> {
    static SLOT: OnceLock<Mutex<Option<Arc<Runtime>>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// Whether a fault plan is currently armed. One relaxed atomic load —
/// this is the entire cost of every fault site when injection is off.
#[must_use]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// The registry metric name for a site: dots become underscores.
#[must_use]
pub fn metric_name(site: &str) -> String {
    format!("dram_faults_injected_total_{}", site.replace('.', "_"))
}

/// Arms `plan`: every subsequent [`trip`] draws from per-site streams
/// seeded by `plan.seed`. Re-arming replaces the previous plan and
/// resets burst state and fire counters (the registry mirrors are
/// cumulative across arms, like any Prometheus counter).
pub fn arm(plan: &Plan) {
    let sites = plan
        .rules
        .iter()
        .map(|rule| SiteState {
            rule: rule.clone(),
            // Mix the site name into the seed so each site gets an
            // independent stream: two sites armed with the same plan do
            // not mirror each other's decisions.
            rng: Mutex::new(SplitMix64::new(plan.seed ^ site_salt(rule.site))),
            burst_left: AtomicU32::new(0),
            fired: AtomicU64::new(0),
            counter: dram_obs::Registry::global().counter(
                &metric_name(rule.site),
                "Faults injected at this site by dram-faults.",
            ),
        })
        .collect();
    *runtime_slot()
        .lock()
        .unwrap_or_else(PoisonError::into_inner) = Some(Arc::new(Runtime { sites }));
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarms fault injection; every [`trip`] returns `None` again.
pub fn disarm() {
    ARMED.store(false, Ordering::Relaxed);
    *runtime_slot()
        .lock()
        .unwrap_or_else(PoisonError::into_inner) = None;
}

/// A stable per-site salt (FNV-1a over the name): keeps site streams
/// independent without any global draw ordering.
fn site_salt(site: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in site.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Visits a fault site. Returns `None` (after at most one relaxed
/// atomic load) when no plan is armed, the site has no rule, or the
/// draw does not fire. When a draw fires:
///
/// * [`Kind::Delay`] sleeps the configured duration and returns the
///   injection (callers need no delay handling of their own);
/// * [`Kind::Panic`] panics with a message naming the site;
/// * [`Kind::Short`] / [`Kind::Reject`] are returned for the call site
///   to act on.
///
/// # Panics
///
/// By design, when the armed rule is [`Kind::Panic`] and the draw
/// fires. The panic message is `injected fault at <site>`.
pub fn trip(site: &str) -> Option<Injection> {
    if !armed() {
        return None;
    }
    let runtime = runtime_slot()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()?;
    let state = runtime.sites.iter().find(|s| s.rule.site == site)?;

    // Budget check first: a spent site never draws again, so `times=1`
    // is exactly one fire whatever the probability.
    if let Some(budget) = state.rule.times {
        if state.fired.load(Ordering::Relaxed) >= budget {
            return None;
        }
    }

    // Burst continuation skips the probability draw.
    let fired = if state
        .burst_left
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |left| {
            left.checked_sub(1)
        })
        .is_ok()
    {
        true
    } else {
        let fires = state
            .rng
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .chance(state.rule.probability);
        if fires && state.rule.burst > 1 {
            state
                .burst_left
                .store(state.rule.burst - 1, Ordering::Relaxed);
        }
        fires
    };
    if !fired {
        return None;
    }

    state.fired.fetch_add(1, Ordering::Relaxed);
    state.counter.inc();
    // Flight-recorder breadcrumb: which site fired, attributed to the
    // request the calling thread is serving (if any).
    let site_index = SITES
        .iter()
        .position(|(name, _)| *name == site)
        .unwrap_or(0);
    dram_obs::journal::note(dram_obs::journal::EventKind::FaultFire, site_index as u64);
    match state.rule.kind {
        Kind::Delay => {
            std::thread::sleep(state.rule.delay);
            Some(Injection { kind: Kind::Delay })
        }
        Kind::Panic => panic!("injected fault at {site}"),
        kind => Some(Injection { kind }),
    }
}

/// Per-site injection counts of the currently armed plan (empty when
/// disarmed). Site order follows the plan's rules.
#[must_use]
pub fn injected() -> Vec<(&'static str, u64)> {
    let Some(runtime) = runtime_slot()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
    else {
        return Vec::new();
    };
    runtime
        .sites
        .iter()
        .map(|s| (s.rule.site, s.fired.load(Ordering::Relaxed)))
        .collect()
}

/// Sum of all injections under the currently armed plan.
#[must_use]
pub fn injected_total() -> u64 {
    injected().iter().map(|(_, n)| n).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// Arming is process-global; tests that arm must not interleave.
    fn exclusive() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        let guard = LOCK
            .get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        disarm();
        guard
    }

    #[test]
    fn disarmed_sites_cost_nothing_and_fire_nothing() {
        let _x = exclusive();
        assert!(!armed());
        assert!(trip("engine.build").is_none());
        assert!(trip("no.such.site").is_none());
        assert!(injected().is_empty());
    }

    #[test]
    fn spec_round_trips_and_rejects_garbage() {
        let plan = Plan::parse("seed=42; engine.build=panic:p=0.25:times=3 ;http.read=delay:ms=50")
            .expect("parses");
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.rules.len(), 2);
        let build = &plan.rules[0];
        assert_eq!(build.site, "engine.build");
        assert_eq!(build.kind, Kind::Panic);
        assert!((build.probability - 0.25).abs() < 1e-12);
        assert_eq!(build.times, Some(3));
        let read = &plan.rules[1];
        assert_eq!(read.delay, Duration::from_millis(50));
        // Round trip through render.
        assert_eq!(Plan::parse(&plan.render()).expect("re-parses"), plan);

        for (bad, want) in [
            ("nope", "not `key=value`"),
            ("seed=abc", "bad fault seed"),
            ("bogus.site=panic", "unknown fault site"),
            ("engine.build=frob", "unknown fault kind"),
            ("server.queue=panic", "does not support"),
            ("engine.build=panic:p=0", "must be in (0, 1]"),
            ("engine.build=panic:p=1.5", "must be in (0, 1]"),
            ("engine.build=panic:q=1", "unknown fault parameter"),
            ("http.read=delay:ms=x", "bad delay"),
            ("server.queue=reject:burst=0", "bad burst"),
            ("engine.build=panic:times=0", "bad times"),
        ] {
            let err = Plan::parse(bad).expect_err(bad);
            assert!(err.contains(want), "`{bad}` -> `{err}`");
        }
    }

    #[test]
    fn later_clauses_replace_earlier_ones_per_site() {
        let plan = Plan::parse("engine.build=panic;engine.build=delay:ms=5").expect("parses");
        assert_eq!(plan.rules.len(), 1);
        assert_eq!(plan.rules[0].kind, Kind::Delay);
    }

    #[test]
    fn times_budget_caps_total_fires() {
        let _x = exclusive();
        arm(&Plan::parse("seed=1;server.queue=reject:times=2").expect("parses"));
        let mut fires = 0;
        for _ in 0..100 {
            if trip("server.queue").is_some() {
                fires += 1;
            }
        }
        assert_eq!(fires, 2);
        assert_eq!(injected(), vec![("server.queue", 2)]);
        assert_eq!(injected_total(), 2);
        disarm();
        assert!(trip("server.queue").is_none());
    }

    #[test]
    fn equal_seeds_give_equal_decision_sequences() {
        let _x = exclusive();
        let plan = Plan::parse("seed=99;server.queue=reject:p=0.3").expect("parses");
        let run = || {
            arm(&plan);
            let fires: Vec<bool> = (0..64).map(|_| trip("server.queue").is_some()).collect();
            disarm();
            fires
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.iter().any(|f| *f));
        assert!(a.iter().any(|f| !*f));
    }

    #[test]
    fn bursts_fire_consecutively() {
        let _x = exclusive();
        // p small enough that two adjacent independent fires are
        // unlikely; a burst of 3 forces them.
        arm(&Plan::parse("seed=5;server.queue=reject:p=0.05:burst=3").expect("parses"));
        let fires: Vec<bool> = (0..400).map(|_| trip("server.queue").is_some()).collect();
        disarm();
        let first = fires.iter().position(|f| *f).expect("fires at least once");
        assert!(fires[first + 1] && fires[first + 2], "burst continues");
    }

    #[test]
    fn panic_kind_panics_with_the_site_name() {
        let _x = exclusive();
        arm(&Plan::parse("engine.worker=panic:times=1").expect("parses"));
        let caught = std::panic::catch_unwind(|| trip("engine.worker"));
        disarm();
        let payload = caught.expect_err("panics");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.contains("engine.worker"), "{message}");
    }

    #[test]
    fn delay_kind_sleeps_and_reports() {
        let _x = exclusive();
        arm(&Plan::parse("http.read=delay:ms=20:times=1").expect("parses"));
        let t0 = std::time::Instant::now();
        let hit = trip("http.read");
        disarm();
        assert_eq!(hit, Some(Injection { kind: Kind::Delay }));
        assert!(t0.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn node_kill_site_draws_like_any_other() {
        let _x = exclusive();
        // The orchestrator-owned site: `kill` parses, other kinds are
        // rejected, and the seeded stream replays — a kill schedule is
        // as deterministic as an in-process fault.
        assert!(Plan::parse("node.kill=panic")
            .expect_err("kill-only site")
            .contains("does not support"));
        let plan = Plan::parse("seed=11;node.kill=kill:p=0.4:times=3").expect("parses");
        let run = || {
            arm(&plan);
            let fires: Vec<bool> = (0..32).map(|_| trip("node.kill").is_some()).collect();
            disarm();
            fires
        };
        let a = run();
        assert_eq!(a, run(), "seeded kill schedule replays");
        assert_eq!(a.iter().filter(|f| **f).count(), 3, "times budget holds");
    }

    #[test]
    fn metric_names_are_prometheus_safe() {
        assert_eq!(
            metric_name("engine.build"),
            "dram_faults_injected_total_engine_build"
        );
    }
}
