//! Per-tenant circuit breakers: closed → open → half-open → closed.
//!
//! The breaker replaces the old one-way `TenantGate` latch. The gate's
//! first-error-wins idea survives — the error that opened the breaker is
//! latched and every denied submission carries it as the root cause — but
//! the breaker adds a *recovery path*: after [`BreakerConfig::cooldown`]
//! an open breaker admits a limited number of probe jobs, and enough
//! probe successes close it again with no operator intervention.
//!
//! Transitions:
//!
//! * **Closed** — everything is admitted. Final job outcomes feed a
//!   sliding window of the last [`BreakerConfig::window`] results. A
//!   *permanent* failure (dead rank, malformed schedule, failed
//!   verification) opens the breaker immediately — retrying those only
//!   burns capacity. *Transient* failures (exhausted retransmits,
//!   watchdog timeouts) open it only when the window holds at least
//!   [`BreakerConfig::min_samples`] outcomes and the failure fraction
//!   reaches [`BreakerConfig::failure_ratio`] — a single flaky job never
//!   takes a tenant down.
//! * **Open** — submissions are denied with
//!   `JobError::TenantAborted { first }` carrying the latched root cause,
//!   until `cooldown` has elapsed.
//! * **Half-open** — after the cooldown, up to [`BreakerConfig::probes`]
//!   in-flight probe jobs are admitted while everything else is still
//!   denied. [`BreakerConfig::probes`] probe successes close the breaker
//!   (clearing the window and the latched error); any probe failure
//!   reopens it and restarts the cooldown.
//!
//! Outcomes recorded in the "wrong" state (a job admitted while closed
//! but finishing after the breaker opened, or an executor result racing
//! a deadline) are ignored rather than double-counted: only closed-state
//! outcomes move the window and only probe outcomes move a half-open
//! breaker.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use a2a_runtime::ErrorClass;

use crate::job::{JobError, TenantId};

/// Breaker tuning knobs (service-wide; each tenant gets its own breaker
/// instance driven by the same config).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Sliding window of recent final outcomes consulted while closed.
    pub window: usize,
    /// Failure fraction of the window that opens the breaker.
    pub failure_ratio: f64,
    /// Minimum outcomes in the window before the ratio is consulted.
    pub min_samples: usize,
    /// How long an open breaker denies everything before going half-open.
    pub cooldown: Duration,
    /// Concurrent probes admitted half-open, and successes needed to close.
    pub probes: usize,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 8,
            failure_ratio: 0.5,
            min_samples: 4,
            cooldown: Duration::from_millis(100),
            probes: 1,
        }
    }
}

/// Where a tenant's breaker currently sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    Closed,
    Open,
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BreakerState::Closed => write!(f, "closed"),
            BreakerState::Open => write!(f, "open"),
            BreakerState::HalfOpen => write!(f, "half-open"),
        }
    }
}

/// Point-in-time view of one tenant's breaker, for health reports.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerSnapshot {
    pub state: BreakerState,
    /// Failures among the closed-state window samples.
    pub window_failures: usize,
    /// Outcomes currently in the closed-state window.
    pub window_samples: usize,
    /// Lifetime open transitions (including half-open reopens).
    pub opens: u64,
    /// The latched root cause while open/half-open.
    pub first_error: Option<JobError>,
}

/// What the breaker says about one submission.
pub(crate) enum Admission {
    /// Admitted normally.
    Allowed,
    /// Admitted as a half-open probe: its final outcome (or explicit
    /// release) must be reported back to free the probe slot.
    Probe,
    /// Denied; the payload is the fast-fail error for the caller
    /// (`TenantAborted` carrying the latched root cause).
    Denied(JobError),
}

struct Inner {
    state: BreakerState,
    /// Recent final outcomes while closed (`true` = failure).
    window: VecDeque<bool>,
    /// When an open breaker's cooldown ends (`None`: closed, or never).
    cools_at: Option<Instant>,
    /// The error that opened the breaker; cleared when it closes.
    first_error: Option<JobError>,
    probes_inflight: usize,
    probe_successes: usize,
    opens: u64,
}

pub(crate) struct Breaker {
    cfg: BreakerConfig,
    tenant: TenantId,
    inner: Mutex<Inner>,
}

fn lock(m: &Mutex<Inner>) -> MutexGuard<'_, Inner> {
    m.lock().unwrap_or_else(|poison| poison.into_inner())
}

impl Breaker {
    pub fn new(tenant: TenantId, cfg: BreakerConfig) -> Self {
        Breaker {
            cfg,
            tenant,
            inner: Mutex::new(Inner {
                state: BreakerState::Closed,
                window: VecDeque::new(),
                cools_at: None,
                first_error: None,
                probes_inflight: 0,
                probe_successes: 0,
                opens: 0,
            }),
        }
    }

    /// Gate one submission. Open breakers flip to half-open once the
    /// cooldown elapses — the flip happens here, on the admission path,
    /// so recovery needs no background thread.
    pub fn admit(&self) -> Admission {
        let mut g = lock(&self.inner);
        match g.state {
            BreakerState::Closed => Admission::Allowed,
            BreakerState::Open => {
                let cooled = g.cools_at.is_some_and(|at| Instant::now() >= at);
                if cooled {
                    g.state = BreakerState::HalfOpen;
                    g.probes_inflight = 1;
                    g.probe_successes = 0;
                    Admission::Probe
                } else {
                    Admission::Denied(self.denial(&g))
                }
            }
            BreakerState::HalfOpen => {
                if g.probes_inflight < self.cfg.probes.max(1) {
                    g.probes_inflight += 1;
                    Admission::Probe
                } else {
                    Admission::Denied(self.denial(&g))
                }
            }
        }
    }

    fn denial(&self, g: &Inner) -> JobError {
        let first = g
            .first_error
            .clone()
            .unwrap_or_else(|| JobError::Rejected("circuit breaker open".into()));
        JobError::TenantAborted {
            tenant: self.tenant,
            first: Box::new(first),
        }
    }

    /// Record a successful final outcome (`probe` = the job was admitted
    /// as a half-open probe).
    pub fn record_success(&self, probe: bool) {
        let mut g = lock(&self.inner);
        match (g.state, probe) {
            (BreakerState::HalfOpen, true) => {
                g.probes_inflight = g.probes_inflight.saturating_sub(1);
                g.probe_successes += 1;
                if g.probe_successes >= self.cfg.probes.max(1) {
                    g.state = BreakerState::Closed;
                    g.window.clear();
                    g.cools_at = None;
                    g.first_error = None;
                    g.probes_inflight = 0;
                    g.probe_successes = 0;
                }
            }
            (BreakerState::Closed, _) => self.push_outcome(&mut g, false),
            // A stale success (job admitted before the breaker opened)
            // says nothing about the tenant's current health.
            _ => {}
        }
    }

    /// Record a failed final outcome.
    pub fn record_failure(&self, err: &JobError, probe: bool) {
        let mut g = lock(&self.inner);
        match (g.state, probe) {
            (BreakerState::HalfOpen, true) => {
                g.probes_inflight = g.probes_inflight.saturating_sub(1);
                self.open(&mut g, err);
            }
            (BreakerState::Closed, _) => {
                if err.class() == ErrorClass::Permanent {
                    self.open(&mut g, err);
                } else {
                    self.push_outcome(&mut g, true);
                    let fails = g.window.iter().filter(|&&f| f).count();
                    if g.window.len() >= self.cfg.min_samples.max(1)
                        && (fails as f64) >= self.cfg.failure_ratio * (g.window.len() as f64)
                    {
                        self.open(&mut g, err);
                    }
                }
            }
            _ => {}
        }
    }

    /// A probe admission evaporated without a final outcome (deadline
    /// expiry, shed, tenant reset): free its slot so the next submission
    /// can probe instead.
    pub fn release_probe(&self) {
        let mut g = lock(&self.inner);
        if g.state == BreakerState::HalfOpen {
            g.probes_inflight = g.probes_inflight.saturating_sub(1);
        }
    }

    fn push_outcome(&self, g: &mut Inner, failed: bool) {
        g.window.push_back(failed);
        while g.window.len() > self.cfg.window.max(1) {
            g.window.pop_front();
        }
    }

    fn open(&self, g: &mut Inner, err: &JobError) {
        g.state = BreakerState::Open;
        g.cools_at = Instant::now().checked_add(self.cfg.cooldown);
        g.opens += 1;
        g.window.clear();
        // First error wins across reopen cycles, mirroring the fabric's
        // abort latch: the original root cause stays in denials.
        if g.first_error.is_none() {
            g.first_error = Some(err.clone());
        }
    }

    /// Force-close (operator `reset_tenant`): forget the window, the
    /// latched error, and any half-open probe bookkeeping.
    pub fn reset(&self) {
        let mut g = lock(&self.inner);
        g.state = BreakerState::Closed;
        g.window.clear();
        g.cools_at = None;
        g.first_error = None;
        g.probes_inflight = 0;
        g.probe_successes = 0;
    }

    #[cfg(test)]
    pub fn state(&self) -> BreakerState {
        lock(&self.inner).state
    }

    /// End the cooldown now, so tests never race a cooldown's clock.
    #[cfg(test)]
    pub fn end_cooldown(&self) {
        lock(&self.inner).cools_at = Some(Instant::now());
    }

    pub fn snapshot(&self) -> BreakerSnapshot {
        let g = lock(&self.inner);
        BreakerSnapshot {
            state: g.state,
            window_failures: g.window.iter().filter(|&&f| f).count(),
            window_samples: g.window.len(),
            opens: g.opens,
            first_error: g.first_error.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(cooldown: Duration) -> BreakerConfig {
        BreakerConfig {
            window: 4,
            failure_ratio: 0.5,
            min_samples: 2,
            cooldown,
            probes: 1,
        }
    }

    fn transient() -> JobError {
        JobError::Runtime(a2a_runtime::RuntimeError::RetriesExhausted {
            from: 0,
            to: 1,
            tag: 0,
            seq: 0,
            attempts: 3,
        })
    }

    #[test]
    fn permanent_failure_opens_immediately_with_root_cause() {
        let b = Breaker::new(7, cfg(Duration::from_secs(60)));
        assert!(matches!(b.admit(), Admission::Allowed));
        b.record_failure(&JobError::DeadRank { rank: 2 }, false);
        assert_eq!(b.state(), BreakerState::Open);
        match b.admit() {
            Admission::Denied(JobError::TenantAborted { tenant: 7, first }) => {
                assert_eq!(*first, JobError::DeadRank { rank: 2 });
            }
            _ => panic!("expected denial with latched cause"),
        }
        assert_eq!(b.snapshot().opens, 1);
    }

    #[test]
    fn transient_failures_open_only_past_the_rate_window() {
        let b = Breaker::new(1, cfg(Duration::from_secs(60)));
        b.record_failure(&transient(), false);
        assert_eq!(b.state(), BreakerState::Closed, "one sample < min_samples");
        b.record_success(false);
        b.record_success(false);
        b.record_failure(&transient(), false);
        // Window [F, S, S, F]: ratio 0.5 >= 0.5 -> open.
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn interleaved_successes_keep_the_breaker_closed() {
        let b = Breaker::new(1, cfg(Duration::from_secs(60)));
        for _ in 0..20 {
            b.record_success(false);
            b.record_success(false);
            b.record_success(false);
            b.record_failure(&transient(), false);
        }
        assert_eq!(b.state(), BreakerState::Closed, "25% failures stay closed");
    }

    #[test]
    fn half_open_probe_success_closes_and_failure_reopens() {
        let b = Breaker::new(3, cfg(Duration::from_secs(60)));
        b.record_failure(&JobError::DeadRank { rank: 0 }, false);
        assert!(matches!(b.admit(), Admission::Denied(_)), "still cooling");
        b.end_cooldown();

        // First admission after the cooldown is the probe; a concurrent
        // second submission is still denied.
        assert!(matches!(b.admit(), Admission::Probe));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(matches!(b.admit(), Admission::Denied(_)));

        // Probe fails: reopen, cooldown restarts, root cause survives.
        b.record_failure(&transient(), true);
        assert_eq!(b.state(), BreakerState::Open);
        match b.admit() {
            Admission::Denied(JobError::TenantAborted { first, .. }) => {
                assert_eq!(*first, JobError::DeadRank { rank: 0 }, "first error wins");
            }
            _ => panic!("expected denial"),
        }

        b.end_cooldown();
        assert!(matches!(b.admit(), Admission::Probe));
        b.record_success(true);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(matches!(b.admit(), Admission::Allowed));
        assert_eq!(b.snapshot().first_error, None, "cause cleared on close");
        assert_eq!(b.snapshot().opens, 2);
    }

    #[test]
    fn released_probe_frees_the_slot() {
        let b = Breaker::new(1, cfg(Duration::from_secs(60)));
        b.record_failure(&JobError::DeadRank { rank: 0 }, false);
        b.end_cooldown();
        assert!(matches!(b.admit(), Admission::Probe));
        assert!(matches!(b.admit(), Admission::Denied(_)));
        b.release_probe();
        assert!(matches!(b.admit(), Admission::Probe), "slot freed");
    }

    #[test]
    fn stale_outcomes_do_not_move_an_open_breaker() {
        let b = Breaker::new(1, cfg(Duration::from_secs(60)));
        b.record_failure(&JobError::DeadRank { rank: 0 }, false);
        // Jobs admitted before the open finish afterwards: ignored.
        b.record_success(false);
        b.record_failure(&transient(), false);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.snapshot().opens, 1);
    }

    #[test]
    fn reset_force_closes() {
        let b = Breaker::new(1, cfg(Duration::from_secs(60)));
        b.record_failure(&JobError::DeadRank { rank: 0 }, false);
        assert_eq!(b.state(), BreakerState::Open);
        b.reset();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(matches!(b.admit(), Admission::Allowed));
        assert_eq!(b.snapshot().first_error, None);
    }
}
