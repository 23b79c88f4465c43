//! A long-running collective service over the all-to-all stack.
//!
//! Every prior layer assumes "one run owns the world": an algorithm is
//! compiled, validated, linted, and executed once, then everything is torn
//! down. This crate is the ROADMAP's "millions of users" front end — a
//! [`Service`] that stays up and admits a queue of collective jobs from
//! many tenants:
//!
//! * **Schedule cache** ([`ScheduleCache`]) — compile + validate + lint
//!   run once per distinct `(algorithm, topology, counts, window)` key on
//!   a cold miss; repeat traffic is served an `Arc`-shared owned
//!   [`a2a_sched::PreparedSchedule`] and skips all three entirely, with
//!   hit/miss/eviction accounting.
//! * **Persistent workers** ([`a2a_runtime::WorkerPool`]) — jobs execute
//!   on a fixed pool instead of per-job `std::thread::scope` spin-up.
//! * **Batching** — a worker draining the queue fuses up to
//!   [`ServiceConfig::max_batch`] compatible jobs (same cache key, both on
//!   the sequential engine) and runs them back-to-back on one pooled
//!   [`ExecScratch`]. Batched execution is byte-identical to per-job
//!   execution — only setup cost is shared.
//!
//! # Robustness layer
//!
//! On top of that steady-state fast path sits an overload-and-failure
//! regime (see `DESIGN.md` §12):
//!
//! * **Bounded admission** ([`BoundedQueue`](queue), [`OverloadPolicy`]) —
//!   the queue of unstarted jobs is capped; overflow blocks the submitter,
//!   rejects the newcomer, or sheds the oldest queued job, per policy.
//!   Per-tenant in-flight quotas ([`ServiceConfig::tenant_quota`]) stop a
//!   single tenant from monopolizing the queue.
//! * **Deadlines and retries** — each job may carry a
//!   [`JobSpec::deadline`], enforced by a service-level timer wheel that
//!   cancels overdue jobs through the runtime's abort-latch machinery
//!   ([`a2a_runtime::CancelToken`]). Transient failures (exhausted
//!   retransmits, watchdog timeouts, fault-injected executor errors) are
//!   retried under [`RetryPolicy`] — bounded attempts, exponential
//!   backoff with seeded decorrelated jitter, fault plans rerolled per
//!   attempt. Permanent failures (dead rank, validation, verification)
//!   fail immediately.
//! * **Circuit breakers** ([`BreakerConfig`]) — each tenant's failures
//!   feed a closed → open → half-open breaker that replaces the old
//!   one-way `TenantGate` latch: a poisoned tenant is isolated fast (its
//!   submissions fail with the latched root cause) and recovers
//!   automatically once a cooldown-gated probe succeeds.
//! * **Graceful degradation** — under queue pressure the service first
//!   sheds opportunistic batching, then demotes parallel-engine jobs to
//!   the sequential engine, before any work is refused; the
//!   [`Service::health`] snapshot reports queue depth, pressure, breaker
//!   states, and every robustness counter.
//!
//! The invariant all of this preserves: **no admitted job is silently
//! lost** — every [`JobHandle`] resolves, with a typed [`JobError`]
//! naming exactly why if not with output.

mod breaker;
mod cache;
mod health;
mod job;
mod queue;
mod retry;
mod wheel;

pub use breaker::{BreakerConfig, BreakerSnapshot, BreakerState};
pub use cache::{
    compile_alltoall, CacheKey, CacheStats, CachedSchedule, CompileError, ScheduleCache,
};
pub use health::{Health, RobustnessCounters, TenantHealth};
pub use job::{Engine, Fill, JobError, JobHandle, JobOutput, JobSpec, TenantId};
pub use queue::{OverloadPolicy, Pressure};
pub use retry::RetryPolicy;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use a2a_core::AlltoallAlgorithm;
use a2a_lint::LintConfig;
use a2a_runtime::{
    CancelToken, ParallelExecutor, PoolStats, RuntimeError, WorkerPool, WorldOptions,
};
use a2a_sched::{check_alltoall_rbuf, fill_alltoall_sbuf, DataExecutor, ExecScratch};
use a2a_topo::{ProcGrid, Rank};

use breaker::{Admission, Breaker};
use job::{digest_rbufs, seeded_fill, JobShared};
use queue::{Admitted, BoundedQueue};
use wheel::{TimerWheel, WheelHandle};

/// Service tuning knobs.
#[derive(Clone)]
pub struct ServiceConfig {
    /// Persistent pool workers (clamped to at least 1).
    pub workers: usize,
    /// Schedule-cache capacity; 0 disables caching *and* scratch pooling,
    /// so every job pays the full cold compile+validate+lint+scratch cost
    /// (the bench's per-job baseline).
    pub cache_capacity: usize,
    /// Admission lint configuration; its `send_window` is part of the
    /// cache key.
    pub lint: LintConfig,
    /// Maximum jobs fused into one executor batch.
    pub max_batch: usize,
    /// Idle scratches kept per cache key.
    pub scratch_cap: usize,
    /// Maximum queued-but-unstarted jobs (clamped to at least 1).
    pub queue_capacity: usize,
    /// What happens to submissions when the queue is full.
    pub overload: OverloadPolicy,
    /// Per-tenant cap on admitted-but-unresolved jobs; 0 = unlimited.
    pub tenant_quota: u64,
    /// Retry policy for transiently-failed jobs.
    pub retry: RetryPolicy,
    /// Per-tenant circuit-breaker tuning.
    pub breaker: BreakerConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            cache_capacity: 64,
            lint: LintConfig::default(),
            max_batch: 32,
            scratch_cap: 4,
            queue_capacity: 1024,
            overload: OverloadPolicy::Block,
            tenant_quota: 0,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
        }
    }
}

/// Point-in-time service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    pub cache: CacheStats,
    pub pool: PoolStats,
    pub jobs_ok: u64,
    pub jobs_failed: u64,
    /// Executor batches drained (each covers >= 1 job).
    pub batches: u64,
    /// Jobs that shared a batch with at least one other job.
    pub batched_jobs: u64,
    /// Fresh [`ExecScratch`] constructions (cache-key scratch pool
    /// misses); flat at steady state.
    pub scratch_builds: u64,
    /// Robustness-layer counters (also in [`Service::health`]).
    pub robustness: RobustnessCounters,
}

/// Per-tenant service state: the circuit breaker and the in-flight count
/// the quota consults.
struct TenantState {
    id: TenantId,
    breaker: Breaker,
    /// Admitted-but-unresolved jobs of this tenant.
    inflight: AtomicU64,
}

struct Queued {
    sched: Arc<CachedSchedule>,
    spec: JobSpec,
    tenant: Arc<TenantState>,
    shared: Arc<JobShared>,
    /// Fired by the deadline wheel; a running parallel world polls it
    /// through the fabric's abort latch.
    token: CancelToken,
    /// Execution attempt (0 = first); fault plans reroll per attempt.
    attempt: u32,
    /// Admitted as a half-open breaker probe.
    probe: bool,
    /// Service-wide admission sequence number (retry-jitter coordinate).
    seq: u64,
}

/// Monotonic robustness counters (atomic mirror of
/// [`RobustnessCounters`]).
#[derive(Default)]
struct Counters {
    rejected_overload: AtomicU64,
    shed: AtomicU64,
    quota_denied: AtomicU64,
    breaker_denied: AtomicU64,
    deadline_expired: AtomicU64,
    retries: AtomicU64,
    demoted: AtomicU64,
    batch_sheds: AtomicU64,
    tenant_reset_jobs: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> RobustnessCounters {
        RobustnessCounters {
            rejected_overload: self.rejected_overload.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            quota_denied: self.quota_denied.load(Ordering::Relaxed),
            breaker_denied: self.breaker_denied.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            demoted: self.demoted.load(Ordering::Relaxed),
            batch_sheds: self.batch_sheds.load(Ordering::Relaxed),
            tenant_reset_jobs: self.tenant_reset_jobs.load(Ordering::Relaxed),
        }
    }
}

/// How a job's resolution should feed the tenant's breaker.
#[derive(Clone, Copy, PartialEq)]
enum Resolution {
    /// A final executor outcome: recorded as breaker success/failure.
    Executed,
    /// A policy outcome (deadline, shed, reject, reset): says nothing
    /// about the tenant's health, so it only releases a pending probe.
    Administrative,
}

struct State {
    queue: BoundedQueue<Queued>,
    tenants: Mutex<HashMap<TenantId, Arc<TenantState>>>,
    scratches: Mutex<HashMap<CacheKey, Vec<ExecScratch>>>,
    scratch_builds: AtomicU64,
    jobs_ok: AtomicU64,
    jobs_failed: AtomicU64,
    batches: AtomicU64,
    batched_jobs: AtomicU64,
    counters: Counters,
    /// Admitted-but-unresolved jobs (queued + executing + parked for
    /// retry); [`Service::join`] waits for zero.
    inflight: Mutex<u64>,
    quiesced: Condvar,
    next_seq: AtomicU64,
    retry: RetryPolicy,
    breaker_cfg: BreakerConfig,
    tenant_quota: u64,
    max_batch: usize,
    scratch_cap: usize,
    wheel: WheelHandle,
    /// Shared with [`Service`] so wheel closures can respawn drainers.
    pool: Arc<WorkerPool>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// The long-running collective service. See the crate docs.
pub struct Service {
    lint: LintConfig,
    cache: ScheduleCache,
    state: Arc<State>,
    /// Owns the timer thread (held for RAII only; scheduling goes
    /// through `state.wheel`). Declared before `pool`: dropped first, so
    /// no wheel closure can observe a shut-down pool (and `Drop` for the
    /// service quiesces before either goes away).
    #[allow(dead_code)]
    wheel: TimerWheel,
    pool: Arc<WorkerPool>,
}

impl Service {
    pub fn new(cfg: ServiceConfig) -> Self {
        let scratch_cap = if cfg.cache_capacity == 0 {
            0
        } else {
            cfg.scratch_cap
        };
        let pool = Arc::new(WorkerPool::new(cfg.workers));
        let wheel = TimerWheel::new();
        Service {
            lint: cfg.lint,
            cache: ScheduleCache::new(cfg.cache_capacity),
            state: Arc::new(State {
                queue: BoundedQueue::new(cfg.queue_capacity, cfg.overload),
                tenants: Mutex::new(HashMap::new()),
                scratches: Mutex::new(HashMap::new()),
                scratch_builds: AtomicU64::new(0),
                jobs_ok: AtomicU64::new(0),
                jobs_failed: AtomicU64::new(0),
                batches: AtomicU64::new(0),
                batched_jobs: AtomicU64::new(0),
                counters: Counters::default(),
                inflight: Mutex::new(0),
                quiesced: Condvar::new(),
                next_seq: AtomicU64::new(0),
                retry: cfg.retry,
                breaker_cfg: cfg.breaker,
                tenant_quota: cfg.tenant_quota,
                max_batch: cfg.max_batch.max(1),
                scratch_cap,
                wheel: wheel.handle(),
                pool: Arc::clone(&pool),
            }),
            wheel,
            pool,
        }
    }

    /// Submit one collective job through the admission pipeline: spec
    /// check → breaker → quota → cache compile → bounded enqueue →
    /// deadline registration. Rejections resolve the returned handle
    /// immediately with a typed [`JobError`]; under
    /// [`OverloadPolicy::Block`] a full queue parks the caller instead.
    pub fn submit(
        &self,
        algo: &dyn AlltoallAlgorithm,
        grid: &ProcGrid,
        spec: JobSpec,
    ) -> JobHandle {
        if spec.verify && spec.fill != Fill::Transpose {
            self.state.jobs_failed.fetch_add(1, Ordering::Relaxed);
            return JobHandle::failed(JobError::Rejected("verify requires Fill::Transpose".into()));
        }
        let tenant = self.state.tenant(spec.tenant);
        let probe = match tenant.breaker.admit() {
            Admission::Allowed => false,
            Admission::Probe => true,
            Admission::Denied(err) => {
                self.state.jobs_failed.fetch_add(1, Ordering::Relaxed);
                self.state
                    .counters
                    .breaker_denied
                    .fetch_add(1, Ordering::Relaxed);
                return JobHandle::failed(err);
            }
        };
        if self.state.tenant_quota > 0 {
            let inflight = tenant.inflight.load(Ordering::Relaxed);
            if inflight >= self.state.tenant_quota {
                if probe {
                    tenant.breaker.release_probe();
                }
                self.state.jobs_failed.fetch_add(1, Ordering::Relaxed);
                self.state
                    .counters
                    .quota_denied
                    .fetch_add(1, Ordering::Relaxed);
                return JobHandle::failed(JobError::QuotaExceeded {
                    tenant: spec.tenant,
                    inflight,
                    quota: self.state.tenant_quota,
                });
            }
        }
        let key = CacheKey::alltoall(algo, grid, spec.block_bytes, self.lint.send_window);
        let sched = match self.cache.get_or_compile(&key, || {
            compile_alltoall(algo, grid, spec.block_bytes, &self.lint)
        }) {
            Ok(s) => s,
            Err(e) => {
                if probe {
                    tenant.breaker.release_probe();
                }
                self.state.jobs_failed.fetch_add(1, Ordering::Relaxed);
                return JobHandle::failed(JobError::Rejected(e.to_string()));
            }
        };
        // Graceful degradation, stage 2: under saturation a parallel job
        // is demoted to the (byte-identical) sequential engine rather
        // than spinning up a world per job.
        let mut spec = spec;
        if matches!(spec.engine, Engine::Parallel { .. })
            && self.state.queue.pressure() == Pressure::Saturated
        {
            spec.engine = Engine::Data;
            self.state.counters.demoted.fetch_add(1, Ordering::Relaxed);
        }

        let handle = JobHandle::new();
        let deadline = spec.deadline;
        let queued = Queued {
            sched,
            spec,
            tenant: Arc::clone(&tenant),
            shared: Arc::clone(&handle.shared),
            token: CancelToken::new(),
            attempt: 0,
            probe,
            seq: self.state.next_seq.fetch_add(1, Ordering::Relaxed),
        };
        let token = queued.token.clone();
        let shared = Arc::clone(&handle.shared);
        self.state.begin_job(&tenant);
        match self.state.queue.push(queued) {
            Admitted::Queued => {}
            Admitted::Rejected(q) => {
                let depth = self.state.queue.depth();
                let capacity = self.state.queue.capacity();
                if self.state.resolve(
                    &q.tenant,
                    &q.shared,
                    Err(JobError::ServiceOverloaded { depth, capacity }),
                    q.probe,
                    Resolution::Administrative,
                ) {
                    self.state
                        .counters
                        .rejected_overload
                        .fetch_add(1, Ordering::Relaxed);
                }
                return handle;
            }
            Admitted::Shed(old) => {
                let capacity = self.state.queue.capacity();
                for q in old {
                    q.token.cancel();
                    if self.state.resolve(
                        &q.tenant,
                        &q.shared,
                        Err(JobError::ServiceOverloaded {
                            depth: capacity,
                            capacity,
                        }),
                        q.probe,
                        Resolution::Administrative,
                    ) {
                        self.state.counters.shed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        if let Some(d) = deadline {
            let st = Arc::clone(&self.state);
            let tenant = Arc::clone(&tenant);
            let probe_flag = probe;
            self.state.wheel.schedule(d, move || {
                // Tear down a running world first, then race to resolve;
                // if the executor already won, both are no-ops.
                token.cancel();
                if st.resolve(
                    &tenant,
                    &shared,
                    Err(JobError::DeadlineExceeded { after: d }),
                    probe_flag,
                    Resolution::Administrative,
                ) {
                    st.counters.deadline_expired.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let st = Arc::clone(&self.state);
        self.pool.spawn(move || State::drain_one(&st));
        handle
    }

    /// Block until every job admitted so far has resolved (including jobs
    /// parked in the retry wheel) and the pool is idle.
    pub fn join(&self) {
        let mut g = lock(&self.state.inflight);
        while *g > 0 {
            g = self
                .state
                .quiesced
                .wait(g)
                .unwrap_or_else(|poison| poison.into_inner());
        }
        drop(g);
        self.pool.drain();
    }

    /// Force-close a tenant's breaker after draining its
    /// queued-but-unstarted jobs: each drained job resolves with
    /// [`JobError::TenantReset`] (never silently lost, never executed
    /// under the pre-reset regime), then the breaker closes.
    pub fn reset_tenant(&self, tenant: TenantId) {
        let t = self.state.tenant(tenant);
        let drained: Vec<Queued> = self.state.queue.with(|q| {
            let mut out = Vec::new();
            let mut i = 0;
            while i < q.len() {
                if q[i].spec.tenant == tenant {
                    out.push(q.remove(i).expect("index checked"));
                } else {
                    i += 1;
                }
            }
            out
        });
        for q in drained {
            q.token.cancel();
            if self.state.resolve(
                &q.tenant,
                &q.shared,
                Err(JobError::TenantReset { tenant }),
                q.probe,
                Resolution::Administrative,
            ) {
                self.state
                    .counters
                    .tenant_reset_jobs
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        t.breaker.reset();
    }

    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            cache: self.cache.stats(),
            pool: self.pool.stats(),
            jobs_ok: self.state.jobs_ok.load(Ordering::Relaxed),
            jobs_failed: self.state.jobs_failed.load(Ordering::Relaxed),
            batches: self.state.batches.load(Ordering::Relaxed),
            batched_jobs: self.state.batched_jobs.load(Ordering::Relaxed),
            scratch_builds: self.state.scratch_builds.load(Ordering::Relaxed),
            robustness: self.state.counters.snapshot(),
        }
    }

    /// Point-in-time health: queue depth and pressure, per-tenant breaker
    /// states, in-flight count, and every robustness counter.
    pub fn health(&self) -> Health {
        let tenants = {
            let map = lock(&self.state.tenants);
            let mut v: Vec<TenantHealth> = map
                .values()
                .map(|t| TenantHealth {
                    tenant: t.id,
                    breaker: t.breaker.snapshot(),
                    inflight: t.inflight.load(Ordering::Relaxed),
                })
                .collect();
            v.sort_by_key(|t| t.tenant);
            v
        };
        Health {
            queue_depth: self.state.queue.depth(),
            queue_capacity: self.state.queue.capacity(),
            pressure: self.state.queue.pressure(),
            inflight: *lock(&self.state.inflight),
            timers_pending: self.state.wheel.pending(),
            tenants,
            counters: self.state.counters.snapshot(),
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // Quiesce before the wheel and pool tear down: every admitted job
        // resolves (the no-lost-jobs invariant), and any wheel entry left
        // afterwards is a deadline watcher for an already-resolved job —
        // a no-op the wheel may safely discard.
        self.join();
    }
}

impl State {
    fn tenant(&self, id: TenantId) -> Arc<TenantState> {
        let mut map = lock(&self.tenants);
        Arc::clone(map.entry(id).or_insert_with(|| {
            Arc::new(TenantState {
                id,
                breaker: Breaker::new(id, self.breaker_cfg),
                inflight: AtomicU64::new(0),
            })
        }))
    }

    /// Count one admitted job (global + per-tenant).
    fn begin_job(&self, tenant: &TenantState) {
        *lock(&self.inflight) += 1;
        tenant.inflight.fetch_add(1, Ordering::Relaxed);
    }

    /// Resolve one admitted job, first-write-wins. On the winning path
    /// the outcome counters and the tenant's breaker are updated *before*
    /// any `wait()`er wakes, then the in-flight counts drop (waking
    /// [`Service::join`] at zero). Returns whether this caller won.
    fn resolve(
        &self,
        tenant: &TenantState,
        shared: &JobShared,
        res: Result<JobOutput, JobError>,
        probe: bool,
        how: Resolution,
    ) -> bool {
        let won = shared.try_complete_with(res, |res| match res {
            Ok(_) => {
                self.jobs_ok.fetch_add(1, Ordering::Relaxed);
                match how {
                    Resolution::Executed => tenant.breaker.record_success(probe),
                    Resolution::Administrative => {
                        if probe {
                            tenant.breaker.release_probe();
                        }
                    }
                }
            }
            Err(e) => {
                self.jobs_failed.fetch_add(1, Ordering::Relaxed);
                match how {
                    Resolution::Executed => tenant.breaker.record_failure(e, probe),
                    Resolution::Administrative => {
                        if probe {
                            tenant.breaker.release_probe();
                        }
                    }
                }
            }
        });
        if won {
            tenant.inflight.fetch_sub(1, Ordering::Relaxed);
            let mut g = lock(&self.inflight);
            *g -= 1;
            if *g == 0 {
                drop(g);
                self.quiesced.notify_all();
            }
        }
        won
    }

    /// Pop the queue head and fuse compatible followers: same cache key,
    /// both on the sequential engine. Tenant and fill may differ — each
    /// job still executes by itself on the shared scratch, so fusing only
    /// shares setup, never results.
    ///
    /// Entries already resolved while queued (deadline expiry, shed,
    /// tenant reset) are discarded here — their drainer tasks become
    /// cheap no-ops. Graceful degradation, stage 1: under queue pressure
    /// the opportunistic fusing is shed (batch of 1) so jobs start in
    /// strict admission order with minimal per-job latency.
    fn take_batch(&self) -> Option<Vec<Queued>> {
        let max_batch = self.max_batch;
        let capacity = self.queue.capacity();
        let (batch, fuse_shed) = self.queue.with(|q| {
            let head = loop {
                match q.pop_front() {
                    None => return (None, false),
                    Some(h) if h.shared.is_done() => continue,
                    Some(h) => break h,
                }
            };
            let want_fuse = matches!(head.spec.engine, Engine::Data) && max_batch > 1;
            let fuse = want_fuse && Pressure::from_depth(q.len(), capacity) == Pressure::Nominal;
            let key = head.sched.key.clone();
            let mut batch = vec![head];
            if fuse {
                let mut i = 0;
                while batch.len() < max_batch && i < q.len() {
                    if q[i].shared.is_done() {
                        q.remove(i).expect("index checked");
                    } else if matches!(q[i].spec.engine, Engine::Data) && q[i].sched.key == key {
                        batch.push(q.remove(i).expect("index checked"));
                    } else {
                        i += 1;
                    }
                }
            }
            (Some(batch), want_fuse && !fuse)
        });
        if fuse_shed {
            self.counters.batch_sheds.fetch_add(1, Ordering::Relaxed);
        }
        batch
    }

    fn take_scratch(&self, sched: &CachedSchedule) -> ExecScratch {
        if let Some(s) = lock(&self.scratches)
            .get_mut(&sched.key)
            .and_then(|v| v.pop())
        {
            return s;
        }
        self.scratch_builds.fetch_add(1, Ordering::Relaxed);
        ExecScratch::new(&sched.prep)
    }

    fn put_scratch(&self, key: &CacheKey, s: ExecScratch) {
        if self.scratch_cap == 0 {
            return;
        }
        let mut map = lock(&self.scratches);
        let v = map.entry(key.clone()).or_default();
        if v.len() < self.scratch_cap {
            v.push(s);
        }
    }

    /// One pool task: drain one batch off the queue (a task finding the
    /// queue already emptied by a sibling's batch is a cheap no-op).
    fn drain_one(state: &Arc<State>) {
        let Some(batch) = state.take_batch() else {
            return;
        };
        let nbatch = batch.len();
        state.batches.fetch_add(1, Ordering::Relaxed);
        if nbatch > 1 {
            state
                .batched_jobs
                .fetch_add(nbatch as u64, Ordering::Relaxed);
        }
        let mut scratch = match batch[0].spec.engine {
            Engine::Data => Some(state.take_scratch(&batch[0].sched)),
            Engine::Parallel { .. } => None,
        };
        let key = batch[0].sched.key.clone();
        for q in batch {
            if q.shared.is_done() {
                continue; // resolved (deadline) after take_batch popped it
            }
            match execute(&q, scratch.as_mut(), nbatch) {
                Ok(out) => {
                    state.resolve(&q.tenant, &q.shared, Ok(out), q.probe, Resolution::Executed);
                }
                Err(e) => {
                    let next = q.attempt + 1;
                    if e.is_transient()
                        && next < state.retry.max_attempts.max(1)
                        && !q.shared.is_done()
                    {
                        state.schedule_retry(state, q, next);
                    } else {
                        state.resolve(&q.tenant, &q.shared, Err(e), q.probe, Resolution::Executed);
                    }
                }
            }
        }
        if let Some(s) = scratch {
            state.put_scratch(&key, s);
        }
    }

    /// Park a transiently-failed job in the wheel for its jittered
    /// backoff, then re-queue it (bypassing admission — it already holds
    /// an admitted slot) and respawn a drainer.
    fn schedule_retry(&self, state: &Arc<State>, mut q: Queued, attempt: u32) {
        self.counters.retries.fetch_add(1, Ordering::Relaxed);
        q.attempt = attempt;
        let delay = self.retry.backoff(q.spec.tenant, q.seq, attempt);
        let st = Arc::clone(state);
        self.wheel.schedule(delay, move || {
            if q.shared.is_done() {
                return; // deadline fired while parked; already resolved
            }
            st.queue.with(|queue| queue.push_back(q));
            let pool = Arc::clone(&st.pool);
            let st2 = Arc::clone(&st);
            pool.spawn(move || State::drain_one(&st2));
        });
    }
}

/// Run one job. The job's own fill and (per-attempt rerolled) fault plan
/// apply — a batch changes nothing about this function.
fn execute(
    q: &Queued,
    scratch: Option<&mut ExecScratch>,
    batched: usize,
) -> Result<JobOutput, JobError> {
    let plan = q.spec.faults.as_ref().map(|p| {
        if q.attempt == 0 {
            Arc::clone(p)
        } else {
            Arc::new(p.reroll(q.attempt))
        }
    });
    if let Some(plan) = &plan {
        if let Some(&rank) = plan.dead_ranks().first() {
            return Err(JobError::DeadRank { rank });
        }
    }
    let prep = &q.sched.prep;
    let n = prep.nranks();
    let bytes = q.spec.block_bytes;
    let spec_fill = q.spec.fill;
    let fill = move |r: Rank, buf: &mut [u8]| match spec_fill {
        Fill::Transpose => fill_alltoall_sbuf(r, n, bytes, buf),
        Fill::Seeded(seed) => seeded_fill(seed, r, buf),
    };
    match q.spec.engine {
        Engine::Data => {
            let scratch = scratch.expect("data-engine batch carries a scratch");
            let stats = match &plan {
                Some(plan) => {
                    DataExecutor::run_prepared_with_faults(prep, scratch, fill, plan.as_ref())
                        .map(|(stats, _)| stats)
                }
                None => DataExecutor::run_prepared(prep, scratch, fill),
            }
            .map_err(JobError::Exec)?;
            if q.spec.verify {
                for r in 0..n as Rank {
                    check_alltoall_rbuf(r, n, bytes, scratch.rbuf(r))
                        .map_err(JobError::Verification)?;
                }
            }
            let digest = digest_rbufs((0..n as Rank).map(|r| scratch.rbuf(r)));
            let rbufs = q
                .spec
                .return_data
                .then(|| (0..n as Rank).map(|r| scratch.rbuf(r).to_vec()).collect());
            Ok(JobOutput {
                messages: stats.messages,
                message_bytes: stats.message_bytes,
                digest,
                batched,
                rbufs,
            })
        }
        Engine::Parallel { threads } => {
            let mut opts = WorldOptions::default().with_cancel(q.token.clone());
            if let Some(plan) = &plan {
                opts = opts.with_faults(Arc::clone(plan));
            }
            let out =
                ParallelExecutor::run_with(prep, opts, threads, fill).map_err(|e| match e {
                    RuntimeError::DeadRank { rank } => JobError::DeadRank { rank },
                    other => JobError::Runtime(other),
                })?;
            if q.spec.verify {
                for (r, rbuf) in out.rbufs.iter().enumerate() {
                    check_alltoall_rbuf(r as Rank, n, bytes, rbuf)
                        .map_err(JobError::Verification)?;
                }
            }
            let digest = digest_rbufs(out.rbufs.iter().map(|b| b.as_slice()));
            Ok(JobOutput {
                messages: out.messages,
                message_bytes: out.message_bytes,
                digest,
                batched,
                rbufs: q.spec.return_data.then_some(out.rbufs),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_core::{
        A2AContext, AlgoSchedule, BruckAlltoall, ExchangeKind, HierarchicalAlltoall,
        MpichShmAlltoall, MultileaderNodeAwareAlltoall, NodeAwareAlltoall, NonblockingAlltoall,
        PairwiseAlltoall,
    };
    use a2a_faults::{FaultPlan, FaultSpec};
    use a2a_topo::Machine;
    use std::time::Duration;

    fn grid() -> ProcGrid {
        ProcGrid::new(Machine::custom("bench", 2, 2, 1, 2))
    }

    /// A breaker that cannot cool down within a test, so denial
    /// assertions are timing-independent.
    fn slow_cooldown() -> BreakerConfig {
        BreakerConfig {
            cooldown: Duration::from_secs(600),
            ..BreakerConfig::default()
        }
    }

    /// The bench crate's 4-ppn roster, rebuilt locally (that crate depends
    /// on this one, so it cannot be imported here).
    fn roster() -> Vec<Box<dyn AlltoallAlgorithm>> {
        vec![
            Box::new(PairwiseAlltoall),
            Box::new(NonblockingAlltoall),
            Box::new(BruckAlltoall),
            Box::new(HierarchicalAlltoall::new(4, ExchangeKind::Nonblocking)),
            Box::new(NodeAwareAlltoall::node_aware(ExchangeKind::Pairwise)),
            Box::new(NodeAwareAlltoall::locality_aware(2, ExchangeKind::Pairwise)),
            Box::new(MultileaderNodeAwareAlltoall::new(2, ExchangeKind::Pairwise)),
            Box::new(MpichShmAlltoall::default()),
        ]
    }

    #[test]
    fn submit_executes_and_verifies() {
        let svc = Service::new(ServiceConfig::default());
        let out = svc
            .submit(&PairwiseAlltoall, &grid(), JobSpec::new(0, 64))
            .wait()
            .unwrap();
        assert!(out.messages > 0);
        assert_eq!(out.rbufs, None);
        let stats = svc.stats();
        assert_eq!(stats.jobs_ok, 1);
        assert_eq!(stats.cache.misses, 1);
    }

    #[test]
    fn warm_cache_steady_state_does_zero_compile_work() {
        // The satellite guarantee: once a key is warm, submissions do no
        // schedule-compile work at all — no compile, no validate, no lint
        // (all counted by `compiled`/`misses`), and at steady state not
        // even a scratch construction.
        let svc = Service::new(ServiceConfig {
            workers: 2,
            ..Default::default()
        });
        svc.submit(&PairwiseAlltoall, &grid(), JobSpec::new(0, 64))
            .wait()
            .unwrap();
        let warm = svc.stats();
        assert_eq!(warm.cache.misses, 1);
        assert_eq!(warm.cache.compiled, 1);

        let handles: Vec<_> = (0..200)
            .map(|i| svc.submit(&PairwiseAlltoall, &grid(), JobSpec::new(i % 4, 64)))
            .collect();
        for h in handles {
            h.wait().unwrap();
        }
        let steady = svc.stats();
        assert_eq!(steady.cache.misses, 1, "no new cache misses");
        assert_eq!(steady.cache.compiled, 1, "zero schedule-compile work");
        assert_eq!(steady.cache.hits, 200);
        assert_eq!(steady.jobs_ok, 201);
        assert!(
            steady.scratch_builds <= svc.workers() as u64,
            "scratch pool bounded by concurrency: built {}",
            steady.scratch_builds
        );
    }

    #[test]
    fn forced_batch_is_byte_identical_to_per_job_execution() {
        // The acceptance criterion, pinned deterministically: queue a
        // multi-tenant batch for every roster algorithm and drain it in
        // one call, then compare every job's receive buffers against a
        // fresh standalone execution.
        let g = grid();
        let n = g.world_size();
        for algo in roster() {
            let bytes = 64;
            let oracle = DataExecutor::run(
                &AlgoSchedule::new(algo.as_ref(), A2AContext::new(g.clone(), bytes)),
                |r, buf| fill_alltoall_sbuf(r, n, bytes, buf),
            )
            .unwrap();

            let svc = Service::new(ServiceConfig {
                workers: 1,
                ..Default::default()
            });
            let sched = svc
                .cache
                .get_or_compile(
                    &CacheKey::alltoall(algo.as_ref(), &g, bytes, svc.lint.send_window),
                    || compile_alltoall(algo.as_ref(), &g, bytes, &svc.lint),
                )
                .unwrap();
            // Enqueue 6 jobs across 3 tenants without spawning drainers,
            // then drain once: all 6 must ride one batch.
            let handles: Vec<JobHandle> = (0..6)
                .map(|i| {
                    let handle = JobHandle::new();
                    let tenant = svc.state.tenant(i % 3);
                    svc.state.begin_job(&tenant);
                    svc.state.queue.with(|q| {
                        q.push_back(Queued {
                            sched: Arc::clone(&sched),
                            spec: JobSpec::new(i % 3, bytes).with_return_data(true),
                            tenant,
                            shared: Arc::clone(&handle.shared),
                            token: CancelToken::new(),
                            attempt: 0,
                            probe: false,
                            seq: i as u64,
                        })
                    });
                    handle
                })
                .collect();
            State::drain_one(&svc.state);
            for h in &handles {
                let out = h.wait().unwrap_or_else(|e| panic!("{}: {e}", algo.name()));
                assert_eq!(out.batched, 6, "{}: jobs fused into one batch", algo.name());
                assert_eq!(
                    out.rbufs.as_ref().unwrap(),
                    &oracle.rbufs,
                    "{}: batched output differs from standalone run",
                    algo.name()
                );
            }
            let stats = svc.stats();
            assert_eq!(stats.batches, 1);
            assert_eq!(stats.batched_jobs, 6);
            assert_eq!(stats.scratch_builds, 1, "one scratch served the batch");
        }
    }

    #[test]
    fn permanent_failure_opens_breaker_and_probe_recovers_it() {
        let g = grid();
        let svc = Service::new(ServiceConfig {
            breaker: slow_cooldown(),
            ..ServiceConfig::default()
        });
        let dead = Arc::new(FaultPlan::new(
            1,
            g.world_size(),
            FaultSpec::none().with_dead(1.0, 1),
        ));
        let bad = svc.submit(&PairwiseAlltoall, &g, JobSpec::new(7, 64).with_faults(dead));
        assert!(matches!(bad.wait(), Err(JobError::DeadRank { .. })));
        // Tenant 7's breaker is open: submissions fail fast with the cause.
        let after = svc.submit(&PairwiseAlltoall, &g, JobSpec::new(7, 64));
        match after.wait() {
            Err(JobError::TenantAborted { tenant: 7, first }) => {
                assert!(matches!(*first, JobError::DeadRank { .. }));
            }
            other => panic!("expected TenantAborted, got {other:?}"),
        }
        // Other tenants are untouched.
        svc.submit(&PairwiseAlltoall, &g, JobSpec::new(8, 64))
            .wait()
            .unwrap();
        // After the cooldown a clean probe closes the breaker — recovery
        // without any reset call.
        svc.state.tenant(7).breaker.end_cooldown();
        svc.submit(&PairwiseAlltoall, &g, JobSpec::new(7, 64))
            .wait()
            .unwrap();
        let health = svc.health();
        let t7 = health.tenants.iter().find(|t| t.tenant == 7).unwrap();
        assert_eq!(t7.breaker.state, BreakerState::Closed);
        assert_eq!(t7.breaker.first_error, None);
        assert!(health.counters.breaker_denied >= 1);
    }

    #[test]
    fn reset_tenant_reopens_a_latched_tenant() {
        let g = grid();
        let svc = Service::new(ServiceConfig {
            breaker: slow_cooldown(),
            ..ServiceConfig::default()
        });
        let dead = Arc::new(FaultPlan::new(
            1,
            g.world_size(),
            FaultSpec::none().with_dead(1.0, 1),
        ));
        let bad = svc.submit(&PairwiseAlltoall, &g, JobSpec::new(7, 64).with_faults(dead));
        assert!(matches!(bad.wait(), Err(JobError::DeadRank { .. })));
        assert!(matches!(
            svc.submit(&PairwiseAlltoall, &g, JobSpec::new(7, 64))
                .wait(),
            Err(JobError::TenantAborted { .. })
        ));
        svc.reset_tenant(7);
        svc.submit(&PairwiseAlltoall, &g, JobSpec::new(7, 64))
            .wait()
            .unwrap();
    }

    #[test]
    fn transient_failures_are_retried_with_rerolled_faults() {
        // Against the sequential engine (no retransmit layer) a light
        // drop rate fails a given attempt with Exec(FaultInjected) —
        // transient — but a reroll usually comes back clean. Give the
        // service enough attempts and the job must eventually succeed,
        // with the retry counter showing the path taken.
        let g = grid();
        let svc = Service::new(ServiceConfig {
            retry: RetryPolicy {
                max_attempts: 12,
                base: Duration::from_micros(100),
                cap: Duration::from_millis(2),
                ..RetryPolicy::default()
            },
            ..ServiceConfig::default()
        });
        let mut retried = false;
        for i in 0..40 {
            // Per-job plan seeds: fault fates are deterministic per
            // (seed, attempt), so a shared plan would give every job the
            // same attempt-0 outcome.
            let flaky = Arc::new(FaultPlan::new(i, g.world_size(), FaultSpec::drops(0.01)));
            let out = svc
                .submit(
                    &PairwiseAlltoall,
                    &g,
                    JobSpec::new(0, 64).with_faults(flaky),
                )
                .wait();
            match out {
                Ok(_) => {}
                Err(e) => panic!("job {i} must succeed after retries, got {e}"),
            }
            if svc.stats().robustness.retries > 0 {
                retried = true;
            }
        }
        assert!(retried, "at least one attempt must have drawn a drop");
        let stats = svc.stats();
        assert_eq!(stats.jobs_ok, 40, "every job eventually succeeded");
        assert_eq!(stats.jobs_failed, 0);
    }

    #[test]
    fn deadline_cancels_a_queued_job() {
        // The only worker is held until the second job has resolved, so that
        // job, with a tiny deadline, must resolve DeadlineExceeded while it
        // is still queued and never run.
        let g = grid();
        let svc = Service::new(ServiceConfig {
            workers: 1,
            breaker: slow_cooldown(),
            ..ServiceConfig::default()
        });
        // Dropping `release` (a failed assertion unwinding) frees it too.
        let (release, held) = std::sync::mpsc::channel::<()>();
        svc.pool.spawn(move || {
            let _ = held.recv();
        });
        let doomed = svc.submit(
            &PairwiseAlltoall,
            &g,
            JobSpec::new(1, 64).with_deadline(Duration::from_millis(1)),
        );
        match doomed.wait() {
            Err(JobError::DeadlineExceeded { .. }) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        release.send(()).unwrap();
        svc.join();
        let stats = svc.stats();
        assert_eq!(stats.robustness.deadline_expired, 1);
        // The deadline is an administrative outcome: tenant 1's breaker
        // saw nothing and stays closed.
        let health = svc.health();
        let t1 = health.tenants.iter().find(|t| t.tenant == 1).unwrap();
        assert_eq!(t1.breaker.state, BreakerState::Closed);
    }

    #[test]
    fn quota_bounds_a_tenants_inflight_jobs() {
        let g = grid();
        let svc = Service::new(ServiceConfig {
            workers: 1,
            tenant_quota: 4,
            ..ServiceConfig::default()
        });
        // Saturate tenant 0 far past its quota in one burst.
        let handles: Vec<_> = (0..32)
            .map(|_| svc.submit(&PairwiseAlltoall, &g, JobSpec::new(0, 64)))
            .collect();
        // Another tenant is not affected by tenant 0's quota.
        svc.submit(&PairwiseAlltoall, &g, JobSpec::new(1, 64))
            .wait()
            .unwrap();
        let mut denied = 0;
        for h in handles {
            match h.wait() {
                Ok(_) => {}
                Err(JobError::QuotaExceeded { tenant: 0, .. }) => denied += 1,
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(denied > 0, "burst must overrun the quota");
        assert_eq!(svc.stats().robustness.quota_denied, denied);
    }

    #[test]
    fn reject_policy_fails_fast_when_the_queue_is_full() {
        let g = grid();
        let svc = Service::new(ServiceConfig {
            workers: 1,
            queue_capacity: 2,
            overload: OverloadPolicy::Reject,
            ..ServiceConfig::default()
        });
        let handles: Vec<_> = (0..64)
            .map(|i| svc.submit(&PairwiseAlltoall, &g, JobSpec::new(i % 3, 64)))
            .collect();
        let (mut ok, mut overloaded) = (0u64, 0u64);
        for h in handles {
            match h.wait() {
                Ok(_) => ok += 1,
                Err(JobError::ServiceOverloaded { capacity: 2, .. }) => overloaded += 1,
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert_eq!(ok + overloaded, 64, "every handle resolved");
        assert!(overloaded > 0, "burst must overflow capacity 2");
        let stats = svc.stats();
        assert_eq!(stats.robustness.rejected_overload, overloaded);
        assert_eq!(stats.jobs_ok, ok);
        assert_eq!(stats.jobs_failed, overloaded);
    }

    #[test]
    fn shed_policy_evicts_oldest_and_block_policy_loses_nothing() {
        let g = grid();
        for (policy, may_fail) in [
            (OverloadPolicy::ShedOldest, true),
            (OverloadPolicy::Block, false),
        ] {
            let svc = Service::new(ServiceConfig {
                workers: 2,
                queue_capacity: 4,
                overload: policy,
                ..ServiceConfig::default()
            });
            let handles: Vec<_> = (0..64)
                .map(|i| svc.submit(&PairwiseAlltoall, &g, JobSpec::new(i % 3, 64)))
                .collect();
            let (mut ok, mut shed) = (0u64, 0u64);
            for h in handles {
                match h.wait() {
                    Ok(_) => ok += 1,
                    Err(JobError::ServiceOverloaded { .. }) if may_fail => shed += 1,
                    Err(other) => panic!("{policy:?}: unexpected error: {other}"),
                }
            }
            assert_eq!(ok + shed, 64, "{policy:?}: every handle resolved");
            if policy == OverloadPolicy::Block {
                assert_eq!(ok, 64, "blocking backpressure loses nothing");
            }
            assert_eq!(svc.stats().robustness.shed, shed);
        }
    }

    #[test]
    fn saturation_sheds_batching_and_demotes_parallel_jobs() {
        let g = grid();
        let svc = Service::new(ServiceConfig {
            workers: 1,
            queue_capacity: 4,
            overload: OverloadPolicy::Block,
            ..ServiceConfig::default()
        });
        // Keep the single worker busy while the tiny queue saturates.
        let handles: Vec<_> = (0..32)
            .map(|i| {
                let spec = if i % 4 == 3 {
                    JobSpec::new(0, 64).with_engine(Engine::Parallel { threads: 2 })
                } else {
                    JobSpec::new(0, 64)
                };
                svc.submit(&PairwiseAlltoall, &g, spec)
            })
            .collect();
        for h in handles {
            h.wait().unwrap();
        }
        let r = svc.stats().robustness;
        assert!(
            r.batch_sheds > 0,
            "a saturated 4-deep queue must shed batching at least once"
        );
        assert!(
            r.demoted > 0,
            "parallel submissions under saturation must demote to sequential"
        );
    }

    #[test]
    fn parallel_engine_jobs_run_unbatched() {
        let svc = Service::new(ServiceConfig::default());
        let out = svc
            .submit(
                &NonblockingAlltoall,
                &grid(),
                JobSpec::new(0, 32).with_engine(Engine::Parallel { threads: 2 }),
            )
            .wait()
            .unwrap();
        assert_eq!(out.batched, 1);
        assert!(out.messages > 0);
    }

    #[test]
    fn data_and_parallel_engines_agree_on_digest() {
        let svc = Service::new(ServiceConfig::default());
        let g = grid();
        let a = svc
            .submit(&BruckAlltoall, &g, JobSpec::new(0, 64))
            .wait()
            .unwrap();
        let b = svc
            .submit(
                &BruckAlltoall,
                &g,
                JobSpec::new(1, 64).with_engine(Engine::Parallel { threads: 3 }),
            )
            .wait()
            .unwrap();
        assert_eq!(a.digest, b.digest);
    }

    #[test]
    fn verify_with_seeded_fill_is_rejected() {
        let svc = Service::new(ServiceConfig::default());
        let res = svc
            .submit(
                &PairwiseAlltoall,
                &grid(),
                JobSpec::new(0, 64).with_fill(Fill::Seeded(3)),
            )
            .wait();
        assert!(matches!(res, Err(JobError::Rejected(_))));
        // Turning verification off makes the same spec legal.
        svc.submit(
            &PairwiseAlltoall,
            &grid(),
            JobSpec::new(0, 64)
                .with_fill(Fill::Seeded(3))
                .with_verify(false),
        )
        .wait()
        .unwrap();
    }

    #[test]
    fn runtime_errors_arrive_typed() {
        // Satellite: the root cause reaches the JobHandle as a typed
        // RuntimeError, not a rendered string.
        let g = grid();
        let svc = Service::new(ServiceConfig {
            retry: RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            },
            breaker: slow_cooldown(),
            ..ServiceConfig::default()
        });
        let lossy = Arc::new(FaultPlan::new(11, g.world_size(), FaultSpec::drops(1.0)));
        let res = svc
            .submit(
                &PairwiseAlltoall,
                &g,
                JobSpec::new(0, 64)
                    .with_engine(Engine::Parallel { threads: 2 })
                    .with_faults(lossy),
            )
            .wait();
        match res {
            Err(JobError::Runtime(e)) => {
                assert!(e.is_transient(), "drop exhaustion is transient: {e}");
                assert!(
                    matches!(e, RuntimeError::RetriesExhausted { .. }),
                    "typed root cause, got {e:?}"
                );
            }
            other => panic!("expected typed Runtime error, got {other:?}"),
        }
    }
}
