//! Closed-loop load: each client connection sends its next request only
//! after the previous reply has arrived, so a slower server receives less
//! load rather than a growing queue.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use dram_server::RequestId;

use crate::client::Client;
use crate::stats;

/// Throughput is the median over slices of the window this long, so a
/// burst of interference from outside moves one slice, not the figure.
const SLICE: Duration = Duration::from_millis(250);

/// The tail percentile is the median over blocks of this many
/// consecutive replies of each block's p99 (ten replies beyond it).
const TAIL_BLOCK: usize = 1000;

/// Peak memory is read when this many replies have arrived, so the
/// figure does not depend on how many requests a run fits in its window
/// (each cold reply leaves a model in the cache).
const RSS_AFTER: usize = 2000;

/// Peak resident set size of this process (`VmHWM`), MB.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one load window sends and how it checks the replies.
#[derive(Debug)]
pub struct Plan<'a> {
    /// Requests in send order. Request `i` of a run is `requests[i %
    /// len]` when `cycle` is set; otherwise the window ends early once
    /// every request has been sent once.
    pub requests: &'a [Vec<u8>],
    /// Whether requests repeat.
    pub cycle: bool,
    /// The reply body each request must get, checked as replies arrive;
    /// `None` keeps every body for a check after the window.
    pub expected: Option<&'a [Vec<u8>]>,
    /// Index into the window's addresses each request goes to.
    pub route: &'a [usize],
    /// The next request to send, shared by the clients and carried
    /// across windows, so a plan that does not cycle never repeats one.
    pub cursor: &'a AtomicUsize,
}

/// One successful request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Reply completion, µs after the window opened.
    pub done_us: u32,
    /// Send-to-reply latency, ns.
    pub latency_ns: u32,
    /// Index of the request in the plan.
    pub slot: u32,
}

/// Everything one load window observed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests answered 200.
    pub succeeded: u64,
    /// Requests answered with another status or lost to an I/O error.
    pub failed: u64,
    /// Failed requests the server refused with 503.
    pub refused: u64,
    /// 200 replies whose body differs from the expected bytes.
    pub mismatched: u64,
    /// Replies without a well-formed `x-request-id`.
    pub missing_ids: u64,
    /// Every successful request, in completion order per client.
    pub samples: Vec<Sample>,
    /// `(request index, x-request-id sequence number)` of every reply.
    pub ids: Vec<(u32, u64)>,
    /// Bodies kept for a check after the window: `(request index, body)`.
    pub recorded: Vec<(usize, Vec<u8>)>,
    /// Connections opened, reconnects included.
    pub connects: u64,
    /// The plan ran out of requests before the window ended.
    pub exhausted: bool,
    /// Wall time from the first send to the last reply.
    pub elapsed: Duration,
    /// [`peak_rss_mb`] when reply number [`RSS_AFTER`] arrived, or at
    /// the end of a window with fewer replies.
    pub peak_rss_mb: f64,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
        self.refused += other.refused;
        self.mismatched += other.mismatched;
        self.missing_ids += other.missing_ids;
        self.samples.extend(other.samples);
        self.ids.extend(other.ids);
        self.recorded.extend(other.recorded);
        self.connects += other.connects;
        self.exhausted |= other.exhausted;
    }

    /// Latencies of the successful requests in µs, ascending.
    #[must_use]
    pub fn latencies_us(&self) -> Vec<f64> {
        let mut us: Vec<f64> = self
            .samples
            .iter()
            .map(|s| f64::from(s.latency_ns) / 1e3)
            .collect();
        us.sort_by(f64::total_cmp);
        us
    }

    /// The median over whole [`SLICE`]s of the window of `weight`
    /// completed per second; over the whole window when it is shorter
    /// than two slices.
    #[must_use]
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn rate(&self, weight: impl Fn(&Sample) -> f64) -> f64 {
        let slice_us = SLICE.as_secs_f64() * 1e6;
        let slices = (self.elapsed.as_secs_f64() * 1e6 / slice_us) as usize;
        if slices < 2 {
            let total: f64 = self.samples.iter().map(&weight).sum();
            return total / self.elapsed.as_secs_f64();
        }
        let mut per_slice = vec![0.0; slices];
        for s in &self.samples {
            let i = (f64::from(s.done_us) / slice_us) as usize;
            if let Some(slot) = per_slice.get_mut(i) {
                *slot += weight(s);
            }
        }
        stats::median(&per_slice) / SLICE.as_secs_f64()
    }

    /// The p99 latency in µs: the median over blocks of [`TAIL_BLOCK`]
    /// consecutive replies of each block's p99; the p99 of all replies
    /// when there are fewer. 0 without replies.
    #[must_use]
    pub fn tail_p99_us(&self) -> f64 {
        let mut by_time = self.samples.clone();
        by_time.sort_by_key(|s| s.done_us);
        let blocks: Vec<f64> = by_time
            .chunks_exact(TAIL_BLOCK)
            .map(|block| {
                let mut us: Vec<f64> = block
                    .iter()
                    .map(|s| f64::from(s.latency_ns) / 1e3)
                    .collect();
                us.sort_by(f64::total_cmp);
                stats::percentile(&us, 99.0)
            })
            .collect();
        if !blocks.is_empty() {
            return stats::median(&blocks);
        }
        let all = self.latencies_us();
        if all.is_empty() {
            0.0
        } else {
            stats::percentile(&all, 99.0)
        }
    }
}

/// Drives `clients` closed-loop client threads for `window`; each keeps
/// one connection per address in `addrs`.
///
/// # Panics
///
/// If a client thread panics.
#[must_use]
pub fn drive(plan: &Plan<'_>, addrs: &[SocketAddr], clients: usize, window: Duration) -> Tally {
    let started = Instant::now();
    let replies = AtomicUsize::new(0);
    let rss = OnceLock::new();
    let shared = Shared {
        plan,
        addrs,
        started,
        window,
        replies: &replies,
        rss: &rss,
    };
    let parts: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| s.spawn(|| client_loop(&shared)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut total = Tally::default();
    for part in parts {
        total.merge(part);
    }
    total.elapsed = started.elapsed();
    total.peak_rss_mb = rss.get().copied().unwrap_or_else(peak_rss_mb);
    total
}

/// What the client threads of one window share.
struct Shared<'a> {
    plan: &'a Plan<'a>,
    addrs: &'a [SocketAddr],
    started: Instant,
    window: Duration,
    /// Successful replies so far, over every client.
    replies: &'a AtomicUsize,
    /// Peak memory once [`RSS_AFTER`] replies have arrived.
    rss: &'a OnceLock<f64>,
}

fn client_loop(shared: &Shared<'_>) -> Tally {
    let Shared {
        plan,
        addrs,
        started,
        window,
        ..
    } = *shared;
    let mut conns: Vec<Client> = addrs.iter().map(|&a| Client::new(a)).collect();
    let mut t = Tally::default();
    while started.elapsed() < window {
        let index = plan.cursor.fetch_add(1, Ordering::Relaxed);
        if !plan.cycle && index >= plan.requests.len() {
            t.exhausted = true;
            break;
        }
        let slot = index % plan.requests.len();
        let slot32 = u32::try_from(slot).expect("plans hold fewer than 2^32 requests");
        t.attempted += 1;
        let sent = Instant::now();
        let reply = conns[plan.route[slot]].send(&plan.requests[slot]);
        let latency = sent.elapsed();
        let Ok(reply) = reply else {
            t.failed += 1;
            continue;
        };
        match reply.id.as_deref().and_then(RequestId::parse) {
            Some(id) => t.ids.push((slot32, id.seq)),
            None => t.missing_ids += 1,
        }
        if reply.status != 200 {
            t.failed += 1;
            t.refused += u64::from(reply.status == 503);
            continue;
        }
        t.succeeded += 1;
        if shared.replies.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AFTER {
            let _ = shared.rss.set(peak_rss_mb());
        }
        t.samples.push(Sample {
            done_us: u32::try_from(started.elapsed().as_micros()).unwrap_or(u32::MAX),
            latency_ns: u32::try_from(latency.as_nanos()).unwrap_or(u32::MAX),
            slot: slot32,
        });
        match plan.expected {
            Some(expected) => t.mismatched += u64::from(reply.body != expected[slot]),
            None => t.recorded.push((slot, reply.body)),
        }
    }
    t.connects = conns.iter().map(Client::connects).sum();
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tally(samples: Vec<Sample>, elapsed_ms: u64) -> Tally {
        Tally {
            samples,
            elapsed: Duration::from_millis(elapsed_ms),
            ..Tally::default()
        }
    }

    #[test]
    fn throughput_is_the_median_slice_rate() {
        // 100 replies in each of the first three slices, 400 in the
        // fourth: a burst moves the mean, not the median.
        let slice_us = u32::try_from(SLICE.as_micros()).expect("short slice");
        let samples = (0..700u32)
            .map(|i| Sample {
                done_us: (i / 100).min(3) * slice_us + i,
                latency_ns: 1_000,
                slot: 0,
            })
            .collect();
        let t = tally(samples, 4 * SLICE.as_millis() as u64);
        assert!((t.rate(|_| 1.0) - 100.0 / SLICE.as_secs_f64()).abs() < 1e-9);
    }

    #[test]
    fn the_tail_is_the_median_block_p99() {
        // Three blocks; one of them is slow throughout.
        let samples = (0..3000u32)
            .map(|i| Sample {
                done_us: i,
                latency_ns: if (1000..2000).contains(&i) {
                    50_000
                } else {
                    (i % 1000) * 10
                },
                slot: 0,
            })
            .collect();
        let t = tally(samples, 10);
        // Blocks 0 and 2 have p99 = the 990th of 0, 10, .., 9990 ns.
        assert!((t.tail_p99_us() - 9.89).abs() < 1e-9);
    }
}
