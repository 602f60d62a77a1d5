//! The workspace's one retry policy: exponential backoff with seeded
//! jitter, a `Retry-After` hint that wins over the computed schedule,
//! and a hard attempt cap.
//!
//! The policy was first proven in `examples/server_client.rs` against a
//! seeded fault plan; the shard router (`dram-route`) retries failed
//! upstream attempts with exactly the same rules, so the logic lives
//! here and both import it — client and router can never drift apart on
//! what "back off politely" means.
//!
//! ## Rules
//!
//! * Attempt `n` of [`RetryPolicy::max_attempts`]; after the last
//!   attempt the schedule reports exhaustion and the caller gives up.
//! * The base wait doubles per retry, from
//!   [`RetryPolicy::base_backoff`] up to [`RetryPolicy::max_backoff`].
//! * A server `Retry-After` hint replaces the computed wait for that
//!   retry (the server knows its own queue), but is still capped by
//!   `max_backoff` so a pessimistic hint cannot stall the caller.
//! * Full jitter over `[wait/2, wait]`, drawn from a seeded
//!   [`SplitMix64`]: a fleet of clients hammering the same recovering
//!   server desynchronizes, while equal seeds replay equal schedules in
//!   tests and benches.
//!
//! ```
//! use dram_server::retry::RetryPolicy;
//! use std::time::Duration;
//!
//! let mut schedule = RetryPolicy::default().schedule(42);
//! // First failure: wait some jittered slice of the base backoff …
//! let wait = schedule.next_delay(None).expect("budget left");
//! assert!(wait >= Duration::from_millis(25) && wait <= Duration::from_millis(50));
//! // … and a server hint wins over the computed schedule.
//! let hinted = schedule.next_delay(Some(Duration::from_millis(2))).unwrap();
//! assert!(hinted <= Duration::from_millis(2));
//! ```

use std::time::Duration;

use dram_units::rng::SplitMix64;

/// The retry envelope: how many attempts, and how long to wait between
/// them. A policy is cheap, copyable configuration; state lives in the
/// per-call [`RetrySchedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, the first one included. `1` means never retry.
    pub max_attempts: u32,
    /// Computed wait before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Ceiling on any single wait — computed or hinted — so one
    /// pessimistic `Retry-After` cannot stall the caller indefinitely.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    /// The values proven by `examples/server_client.rs`: 5 attempts,
    /// 50 ms doubling to a 500 ms cap.
    fn default() -> Self {
        Self {
            max_attempts: 5,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_millis(500),
        }
    }
}

impl RetryPolicy {
    /// Starts a schedule for one logical request. Equal seeds give
    /// equal jitter sequences.
    #[must_use]
    pub fn schedule(&self, seed: u64) -> RetrySchedule {
        RetrySchedule {
            policy: *self,
            backoff: self.base_backoff,
            attempted: 0,
            rng: SplitMix64::new(seed),
        }
    }
}

/// Mutable retry state for one logical request: which attempt is next
/// and what the current computed backoff is.
#[derive(Debug, Clone)]
pub struct RetrySchedule {
    policy: RetryPolicy,
    /// Computed wait for the *next* retry (doubles after each draw).
    backoff: Duration,
    /// Attempts already made (calls to [`RetrySchedule::next_delay`]).
    attempted: u32,
    rng: SplitMix64,
}

impl RetrySchedule {
    /// The 1-based number of the attempt the caller is about to make.
    #[must_use]
    pub fn attempt(&self) -> u32 {
        self.attempted + 1
    }

    /// The total attempt budget, for give-up messages.
    #[must_use]
    pub fn max_attempts(&self) -> u32 {
        self.policy.max_attempts
    }

    /// Records that the attempt just made failed retryably and returns
    /// how long to wait before the next one, or `None` when the budget
    /// is spent and the caller must give up.
    ///
    /// `hint` is the server's `Retry-After` (when it sent one): it
    /// replaces the computed backoff for this wait, capped by
    /// [`RetryPolicy::max_backoff`] like everything else. Either way the
    /// wait is jittered over `[wait/2, wait]`.
    pub fn next_delay(&mut self, hint: Option<Duration>) -> Option<Duration> {
        self.attempted += 1;
        if self.attempted >= self.policy.max_attempts {
            return None;
        }
        let wait = hint.unwrap_or(self.backoff);
        let capped = wait.min(self.policy.max_backoff);
        let jittered = capped.mul_f64(0.5 + self.rng.next_f64() * 0.5);
        // The computed schedule advances even when a hint was used:
        // repeated 503s from a struggling server still escalate.
        self.backoff = (self.backoff * 2).min(self.policy.max_backoff);
        Some(jittered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_millis(500),
        }
    }

    #[test]
    fn budget_is_exactly_max_attempts() {
        let mut s = policy().schedule(1);
        // 5 attempts = 4 waits between them, then exhaustion.
        for i in 1..=4 {
            assert_eq!(s.attempt(), i);
            assert!(s.next_delay(None).is_some(), "wait {i}");
        }
        assert_eq!(s.attempt(), 5);
        assert!(s.next_delay(None).is_none(), "budget spent");
        assert!(s.next_delay(None).is_none(), "stays spent");

        let mut never = RetryPolicy {
            max_attempts: 1,
            ..policy()
        }
        .schedule(1);
        assert!(
            never.next_delay(None).is_none(),
            "max_attempts=1 never retries"
        );
    }

    #[test]
    fn backoff_doubles_and_caps_with_jitter_in_range() {
        let mut s = policy().schedule(7);
        // Expected computed waits: 50, 100, 200, 400 (cap 500) — each
        // jittered into [wait/2, wait].
        for expect_ms in [50u64, 100, 200, 400] {
            let d = s.next_delay(None).expect("budget");
            let wait = Duration::from_millis(expect_ms);
            assert!(
                d >= wait / 2 && d <= wait,
                "{d:?} not in [{:?}, {wait:?}]",
                wait / 2
            );
        }
        // With a bigger budget the computed wait pins at the cap.
        let mut long = RetryPolicy {
            max_attempts: 10,
            ..policy()
        }
        .schedule(7);
        let mut last = Duration::ZERO;
        for _ in 0..8 {
            last = long.next_delay(None).expect("budget");
        }
        assert!(last <= Duration::from_millis(500), "cap holds: {last:?}");
        assert!(
            last >= Duration::from_millis(250),
            "cap jitter floor: {last:?}"
        );
    }

    #[test]
    fn jitter_is_deterministic_under_a_fixed_seed() {
        let run = |seed: u64| -> Vec<Duration> {
            let mut s = policy().schedule(seed);
            std::iter::from_fn(|| s.next_delay(None)).collect()
        };
        assert_eq!(run(42), run(42), "equal seeds replay equal schedules");
        assert_ne!(run(42), run(43), "different seeds jitter differently");
    }

    #[test]
    fn retry_after_hint_wins_over_computed_backoff() {
        // A tiny hint undercuts the computed 50 ms base: the server's
        // own estimate is authoritative.
        let mut s = policy().schedule(3);
        let hinted = s.next_delay(Some(Duration::from_millis(2))).unwrap();
        assert!(hinted <= Duration::from_millis(2), "hint wins: {hinted:?}");

        // A pessimistic hint is still capped by max_backoff.
        let mut s = policy().schedule(3);
        let capped = s.next_delay(Some(Duration::from_secs(3600))).unwrap();
        assert!(
            capped <= Duration::from_millis(500),
            "hint capped: {capped:?}"
        );

        // Using a hint does not stall the computed escalation: the next
        // un-hinted wait reflects one doubling.
        let mut s = policy().schedule(3);
        s.next_delay(Some(Duration::from_millis(1)));
        let second = s.next_delay(None).unwrap();
        assert!(
            second >= Duration::from_millis(50),
            "escalation continued: {second:?}"
        );
        assert!(
            second <= Duration::from_millis(100),
            "one doubling only: {second:?}"
        );
    }
}
