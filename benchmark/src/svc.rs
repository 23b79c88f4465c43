//! Service workloads: `Service::submit` -> `JobHandle::wait` -> verified
//! bytes, driven as a closed loop from one generator thread.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use a2a_core::{A2AContext, AlgoSchedule, AlltoallAlgorithm};
use a2a_lint::{lint_schedule, prove_pass, LintConfig};
use a2a_runtime::WorkerPool;
use a2a_sched::analysis::provenance::SemanticsSpec;
use a2a_sched::{
    check_alltoall_rbuf, fill_alltoall_sbuf, validate, DataExecutor, ExecScratch, PreparedSchedule,
};
use a2a_service::{
    compile_alltoall, CacheKey, JobError, JobHandle, JobOutput, JobSpec, ScheduleCache, Service,
    ServiceConfig, ServiceStats,
};
use a2a_topo::{ProcGrid, Rank};
use serde::Value;

use crate::placement::Placement;
use crate::reference::{hex, KeyRef, Reference};
use crate::report::{peak_rss_mb, service_workers, RunResult};
use crate::stats::{highest_supported_percentile, mean, median, percentile, samples_beyond, Rng};
use crate::trace::Recorder;
use crate::workloads::{roster, Key, SvcSpec, Workload, TENANTS};

/// Everything set-up builds: the service under test plus the inputs the
/// generator feeds it.
pub struct World {
    spec: SvcSpec,
    grids: Vec<ProcGrid>,
    rosters: Vec<Vec<Box<dyn AlltoallAlgorithm>>>,
    keys: Vec<Key>,
    pub svc: Service,
    /// Whether the generator / service-thread placement took.
    pinned: bool,
}

impl World {
    fn algo(&self, k: Key) -> &dyn AlltoallAlgorithm {
        self.rosters[k.grid][k.algo].as_ref()
    }

    fn submit(&self, key: usize, tenant: u32) -> JobHandle {
        let k = self.keys[key];
        self.svc.submit(
            self.algo(k),
            &self.grids[k.grid],
            JobSpec::new(tenant, k.bytes),
        )
    }

    fn cache_key(&self, k: Key) -> CacheKey {
        let window = LintConfig::default().send_window;
        CacheKey::alltoall(self.algo(k), &self.grids[k.grid], k.bytes, window)
    }
}

/// The reference file, refused when it was written for another key table
/// (a renamed algorithm, a reshaped grid): its digests would pin nothing.
fn load_refs(w: &Workload, spec: SvcSpec) -> Result<Reference, String> {
    let refs = crate::reference::load(w.name)?;
    let grids: Vec<ProcGrid> = spec.grids.iter().map(|g| g.grid()).collect();
    let window = LintConfig::default().send_window;
    let keys = spec.keys();
    let stale = refs.keys.len() != keys.len()
        || keys.iter().zip(&refs.keys).any(|(k, r)| {
            let algo = &roster(grids[k.grid].machine().ppn())[k.algo];
            let ck = CacheKey::alltoall(algo.as_ref(), &grids[k.grid], k.bytes, window);
            (ck.topology, ck.algo, k.bytes) != (r.topology.clone(), r.algo.clone(), r.bytes)
        });
    if stale {
        return Err(format!(
            "{}: reference is stale, regenerate with run.sh --bless",
            w.name
        ));
    }
    Ok(refs)
}

/// Does `out` match the key's reference entry? In-service verification
/// (`JobSpec::verify`) already ran; a handle error is a failure too.
fn matches(out: &Result<JobOutput, JobError>, want: &KeyRef) -> bool {
    match out {
        Ok(o) => {
            hex(o.digest) == want.digest
                && o.messages as u64 == want.messages
                && o.message_bytes == want.message_bytes
        }
        Err(_) => false,
    }
}

/// The distinct keys of a round, in first-appearance order.
fn distinct(round: &[usize]) -> Vec<usize> {
    let mut seen = Vec::new();
    for &k in round {
        if !seen.contains(&k) {
            seen.push(k);
        }
    }
    seen
}

/// Set-up: rosters and grids, a fresh service with the default config (one
/// pool worker per spare core, its threads placed on the spare cores and
/// the generator on the first), then every distinct key submitted once and
/// checked - which warms the cache on the warm workloads and is the
/// warm-up cycle of the cold one. Returns the failures seen.
fn setup(spec: SvcSpec, round: &[usize], refs: Option<&Reference>) -> (World, u64) {
    let grids: Vec<ProcGrid> = spec.grids.iter().map(|g| g.grid()).collect();
    let rosters = grids.iter().map(|g| roster(g.machine().ppn())).collect();
    let (svc, pinned) = Placement::get().split(|| {
        Service::new(ServiceConfig {
            workers: service_workers(),
            ..Default::default()
        })
    });
    let world = World {
        spec,
        grids,
        rosters,
        keys: spec.keys(),
        svc,
        pinned,
    };
    let mut failed = 0;
    for key in distinct(round) {
        let out = world.submit(key, 0).wait();
        let ok = match refs {
            Some(r) => matches(&out, &r.keys[key]),
            None => out.is_ok(),
        };
        failed += !ok as u64;
    }
    (world, failed)
}

pub struct LoopOutcome {
    pub latencies_us: Vec<f64>,
    /// `(seconds since start, jobs completed)` at the start and after each
    /// round's last submission.
    marks: Vec<(f64, u64)>,
    pub attempted: u64,
    pub failed: u64,
    pub rounds: usize,
    pub elapsed_s: f64,
    /// `VmHWM` once `SvcSpec::rss_rounds` rounds were done (or at the end
    /// of a shorter run).
    pub peak_rss_mb: f64,
}

impl LoopOutcome {
    /// Completed jobs per second: the median over up to ten contiguous
    /// groups of rounds, so one stall moves one group, not the result.
    pub fn ops_per_s(&self) -> f64 {
        let rounds = self.marks.len() - 1;
        let groups = rounds.min(10);
        let rates: Vec<f64> = (0..groups)
            .map(|g| {
                let (t0, c0) = self.marks[g * rounds / groups];
                let (t1, c1) = self.marks[(g + 1) * rounds / groups];
                (c1 - c0) as f64 / (t1 - t0)
            })
            .collect();
        median(&rates)
    }
}

/// Room for sixty seconds of `svc_hot_8r` at its measured rate.
const MAX_SAMPLES: usize = 1 << 22;

struct InFlight {
    handle: JobHandle,
    key: usize,
    submitted: Instant,
    submit_returned: Instant,
    lane: u32,
}

/// The closed loop: keep `window` jobs in flight; when the window is full,
/// wait on the oldest handle, check its output, then submit the next job
/// of the round. Latency runs from the `submit` call to `wait` returning
/// verified output. With `rec`, each job leaves a `job` span with a
/// `service.submit` child, on the trace lane of its window slot. Whole
/// rounds are run while `another_round(elapsed, rounds done)` says so.
pub fn closed_loop(
    world: &World,
    round: &[usize],
    refs: &Reference,
    seed: u64,
    another_round: impl Fn(Duration, usize) -> bool,
    mut rec: Option<&mut Recorder>,
) -> LoopOutcome {
    let window = world.spec.window;
    let mut tenants = Rng::new(seed ^ 0x007e_4a47);
    let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(window);
    let mut free_lanes: Vec<u32> = (1..=window as u32).rev().collect();
    // The sample buffer is sized for the longest run and written once before
    // timing starts, so the loop takes no page faults for it and every
    // run's peak RSS holds the same 32 MiB of it, however many jobs fit.
    let mut latencies_us = vec![1.0; MAX_SAMPLES];
    latencies_us.clear();
    let mut out = LoopOutcome {
        latencies_us,
        marks: vec![(0.0, 0)],
        attempted: 0,
        failed: 0,
        rounds: 0,
        elapsed_s: 0.0,
        peak_rss_mb: 0.0,
    };
    let start = Instant::now();

    let mut complete = |job: InFlight, out: &mut LoopOutcome, free_lanes: &mut Vec<u32>| {
        let res = job.handle.wait();
        let done = Instant::now();
        out.latencies_us
            .push(done.duration_since(job.submitted).as_secs_f64() * 1e6);
        out.failed += !matches(&res, &refs.keys[job.key]) as u64;
        if let Some(rec) = rec.as_deref_mut() {
            let t0 = rec.ns_of(job.submitted);
            let id = rec.add("job", job.key as u32, job.lane, None, t0, rec.ns_of(done));
            let returned = rec.ns_of(job.submit_returned);
            rec.add(
                "service.submit",
                job.key as u32,
                job.lane,
                Some(id),
                t0,
                returned,
            );
        }
        free_lanes.push(job.lane);
    };

    loop {
        for &key in round {
            if inflight.len() == window {
                let oldest = inflight.pop_front().expect("window is full");
                complete(oldest, &mut out, &mut free_lanes);
            }
            let tenant = tenants.below(TENANTS as usize) as u32;
            let submitted = Instant::now();
            let handle = world.submit(key, tenant);
            let submit_returned = Instant::now();
            out.attempted += 1;
            let lane = free_lanes.pop().expect("a lane per window slot");
            inflight.push_back(InFlight {
                handle,
                key,
                submitted,
                submit_returned,
                lane,
            });
        }
        out.rounds += 1;
        if out.rounds == world.spec.rss_rounds {
            out.peak_rss_mb = peak_rss_mb();
        }
        let done = out.latencies_us.len() as u64;
        out.marks.push((start.elapsed().as_secs_f64(), done));
        if !another_round(start.elapsed(), out.rounds) {
            break;
        }
    }
    while let Some(job) = inflight.pop_front() {
        complete(job, &mut out, &mut free_lanes);
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    if out.rounds < world.spec.rss_rounds {
        out.peak_rss_mb = peak_rss_mb();
    }
    out
}

/// Exact-counter deltas over a timed window, and the invariants each
/// workload's design rests on.
pub struct CounterDelta {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub compiled: u64,
    pub prove_ns: u64,
    pub batched_jobs: u64,
    pub scratch_builds: u64,
    pub retries: u64,
    pub shed: u64,
    pub jobs_failed: u64,
}

impl CounterDelta {
    pub fn between(a: &ServiceStats, b: &ServiceStats) -> Self {
        CounterDelta {
            hits: b.cache.hits - a.cache.hits,
            misses: b.cache.misses - a.cache.misses,
            evictions: b.cache.evictions - a.cache.evictions,
            compiled: b.cache.compiled - a.cache.compiled,
            prove_ns: b.cache.prove_ns - a.cache.prove_ns,
            batched_jobs: b.batched_jobs - a.batched_jobs,
            scratch_builds: b.scratch_builds - a.scratch_builds,
            retries: b.robustness.retries - a.robustness.retries,
            shed: b.robustness.shed - a.robustness.shed,
            jobs_failed: b.jobs_failed - a.jobs_failed,
        }
    }

    pub fn hit_ratio(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }

    /// A warm workload that misses, or a cold one that hits, no longer
    /// measures what its name says.
    fn check(&self, cold: bool, problems: &mut Vec<String>) {
        if cold && (self.hits != 0 || self.evictions == 0) {
            problems.push(format!(
                "cold workload saw {} cache hits and {} evictions (want 0 hits, > 0 evictions)",
                self.hits, self.evictions
            ));
        }
        if !cold && self.misses != 0 {
            problems.push(format!("warm workload saw {} cache misses", self.misses));
        }
        if self.retries + self.shed + self.jobs_failed != 0 {
            problems.push(format!(
                "service counted {} retries, {} shed, {} failed jobs",
                self.retries, self.shed, self.jobs_failed
            ));
        }
    }
}

/// The untraced run: every end-to-end metric.
pub fn run(
    w: &'static Workload,
    spec: SvcSpec,
    seed: u64,
    seconds: f64,
) -> Result<RunResult, String> {
    let refs = load_refs(w, spec)?;
    let round = spec.round(seed);
    let mut res = RunResult::new(w.name, seed, seconds, false);

    // Set-up is repeated on fresh services; the last one is measured on.
    let mut setup_s = Vec::with_capacity(w.setup_reps);
    let mut world = None;
    for _ in 0..w.setup_reps {
        drop(world.take());
        let t0 = Instant::now();
        let (built, failed) = setup(spec, &round, Some(&refs));
        setup_s.push(t0.elapsed().as_secs_f64());
        res.failed += failed;
        world = Some(built);
    }
    let world = world.expect("setup_reps >= 1");

    let before = world.svc.stats();
    let run = closed_loop(
        &world,
        &round,
        &refs,
        seed,
        |elapsed, _| elapsed.as_secs_f64() < seconds,
        None,
    );
    world.svc.join();
    let delta = CounterDelta::between(&before, &world.svc.stats());
    delta.check(spec.cold, &mut res.problems);

    res.attempted = run.attempted;
    res.failed += run.failed;
    let ops_per_s = run.ops_per_s();
    let mut lat = run.latencies_us;
    lat.sort_by(f64::total_cmp);
    res.set("setup_s", median(&setup_s));
    res.set("ops_per_s", ops_per_s);
    res.set("latency_typical_us", percentile(&lat, 50.0));
    res.set("latency_tail_us", percentile(&lat, spec.tail_pct));
    res.set("peak_rss_mb", run.peak_rss_mb);
    res.note(Placement::get().describe(world.pinned));
    let beyond = samples_beyond(lat.len(), spec.tail_pct);
    let supported = highest_supported_percentile(lat.len()).unwrap_or(0.0);
    res.note(format!(
        "operation = one job; {} jobs in {} rounds over {:.3} s, window {}, {} set-ups; peak RSS read after round {}",
        lat.len(),
        run.rounds,
        run.elapsed_s,
        spec.window,
        w.setup_reps,
        spec.rss_rounds.min(run.rounds)
    ));
    res.note(format!(
        "latency_tail_us = p{} with {beyond} samples beyond it; {} samples support up to p{supported}{}",
        spec.tail_pct,
        lat.len(),
        if supported < spec.tail_pct { " - TOO FEW, treat the tail as indicative" } else { "" }
    ));
    res.note(format!(
        "cache hit ratio {} ({} hits, {} misses, {} evictions), batched jobs {}, scratch builds {}",
        delta.hit_ratio(),
        delta.hits,
        delta.misses,
        delta.evictions,
        delta.batched_jobs,
        delta.scratch_builds
    ));
    Ok(res)
}

/// Write the reference entries: one verified job per key, digests required
/// to agree across the eight algorithms of one topology x size.
pub fn bless(w: &'static Workload, spec: SvcSpec) -> Result<Reference, String> {
    let round = spec.round(0);
    let (world, failed) = setup(spec, &round, None);
    if failed != 0 {
        return Err(format!("{}: {failed} jobs failed while blessing", w.name));
    }
    let mut keys = Vec::new();
    for (i, &k) in world.keys.iter().enumerate() {
        let out = world
            .submit(i, 0)
            .wait()
            .map_err(|e| format!("{}: {e}", w.name))?;
        let ck = world.cache_key(k);
        keys.push(KeyRef {
            topology: ck.topology,
            algo: ck.algo,
            bytes: k.bytes,
            digest: hex(out.digest),
            messages: out.messages as u64,
            message_bytes: out.message_bytes,
        });
    }
    for a in &keys {
        for b in &keys {
            if a.topology == b.topology && a.bytes == b.bytes && a.digest != b.digest {
                return Err(format!(
                    "{}: {} and {} disagree on the {} x {} B transpose",
                    w.name, a.algo, b.algo, a.topology, a.bytes
                ));
            }
        }
    }
    Ok(Reference {
        workload: w.name.into(),
        keys,
        cells: Vec::new(),
    })
}

/// Replay one key's admission pipeline stage by stage, in the order
/// `compile_alltoall` runs it, then the real `compile_alltoall`.
fn replay_cold(
    rec: &mut Recorder,
    job: u32,
    algo: &dyn AlltoallAlgorithm,
    grid: &ProcGrid,
    bytes: u64,
) -> Result<(PreparedSchedule<'static>, u64, u64), String> {
    let lint = LintConfig::default();
    let label = format!("{} {}B", algo.name(), bytes);
    let parent = rec.open("compile.replay", job);
    let p = Some(parent);
    let sched = rec.time("core.build", job, p, || {
        AlgoSchedule::new(algo, A2AContext::new(grid.clone(), bytes))
    });
    rec.time("sched.validate", job, p, || validate(&sched, grid))
        .map_err(|e| format!("{label}: {e}"))?;
    let report = rec.time("lint.safety", job, p, || {
        lint_schedule(label.clone(), &sched, grid, &lint)
    });
    let spec = SemanticsSpec::alltoall(grid.world_size(), bytes);
    let proof = rec.time("lint.prove", job, p, || {
        prove_pass(label.clone(), &sched, &spec)
    });
    let prep = rec.time("core.build", job, p, || PreparedSchedule::new_owned(&sched));
    rec.close(parent);
    let findings = (report.diags.len() + proof.diags.len()) as u64;
    let ops = (0..prep.nranks() as Rank)
        .map(|r| prep.prog(r).ops.len() as u64)
        .sum();
    let compiled = rec.time("service.compile_cold", job, None, || {
        compile_alltoall(algo, grid, bytes, &lint)
    });
    compiled.map_err(|e| format!("{label}: {e}"))?;
    Ok((prep, ops, findings))
}

/// The traced run: every per-layer metric, from spans the benchmark takes
/// around public calls. Four phases share the time budget: the workload's
/// own closed loop with spans on, a window-1 loop (per-key latency with no
/// queueing), a stage-by-stage replay of the same keys, and two
/// micro-measurements (cache hit, pool dispatch).
pub fn run_traced(
    w: &'static Workload,
    spec: SvcSpec,
    seed: u64,
    seconds: f64,
) -> Result<RunResult, String> {
    let refs = load_refs(w, spec)?;
    let round = spec.round(seed);
    let keys = distinct(&round);
    let mut res = RunResult::new(w.name, seed, seconds, true);
    let mut rec = Recorder::new();
    let (world, failed) = setup(spec, &round, Some(&refs));
    res.failed += failed;

    // Phase A: the workload itself, traced.
    let before = world.svc.stats();
    let a = closed_loop(
        &world,
        &round,
        &refs,
        seed,
        |elapsed, _| elapsed.as_secs_f64() < seconds * 0.35,
        Some(&mut rec),
    );
    world.svc.join();
    let after_a = world.svc.stats();
    let delta = CounterDelta::between(&before, &after_a);
    delta.check(spec.cold, &mut res.problems);
    res.attempted = a.attempted;
    res.failed += a.failed;
    let jobs = a.attempted as f64;

    // Phase B: one job at a time, so latency holds no queue wait behind
    // other jobs of the generator.
    let mut w1_us: Vec<Vec<f64>> = vec![Vec::new(); world.keys.len()];
    let phase = Instant::now();
    loop {
        for &key in &keys {
            let t0 = rec.now_ns();
            let out = world.submit(key, 0).wait();
            let t1 = rec.now_ns();
            rec.add("job.w1", key as u32, 0, None, t0, t1);
            w1_us[key].push((t1 - t0) as f64 / 1e3);
            res.failed += !matches(&out, &refs.keys[key]) as u64;
        }
        if phase.elapsed().as_secs_f64() >= seconds * 0.15 {
            break;
        }
    }
    let w1_delta = CounterDelta::between(&after_a, &world.svc.stats());
    res.note(Placement::get().describe(world.pinned));
    // The service and its threads end here; its inputs serve the replay.
    let World {
        grids,
        rosters,
        keys: all_keys,
        svc,
        ..
    } = world;
    drop(svc);

    // Phase C: the stages, replayed. Cold stages once per key (they are
    // the same work every time); warm stages until the budget is spent.
    let (mut ops_built, mut findings, mut messages, mut message_bytes) = (0u64, 0u64, 0u64, 0u64);
    let mut preps = Vec::with_capacity(keys.len());
    for &key in &keys {
        let k = all_keys[key];
        let algo = rosters[k.grid][k.algo].as_ref();
        let (prep, ops, found) = replay_cold(&mut rec, key as u32, algo, &grids[k.grid], k.bytes)?;
        ops_built += ops;
        findings += found;
        preps.push(prep);
    }
    let phase = Instant::now();
    let mut warm_rounds = 0u64;
    loop {
        for (&key, prep) in keys.iter().zip(&preps) {
            let (job, bytes, n) = (key as u32, all_keys[key].bytes, prep.nranks());
            let mut scratch = rec.time("sched.scratch_build", job, None, || ExecScratch::new(prep));
            let fill = |r: Rank, buf: &mut [u8]| fill_alltoall_sbuf(r, n, bytes, buf);
            // Unrecorded first run: touches every page and leaves real
            // data in the send buffers for the timed no-op-fill run.
            DataExecutor::run_prepared(prep, &mut scratch, fill).map_err(|e| e.to_string())?;
            let stats = rec
                .time("sched.exec", job, None, || {
                    DataExecutor::run_prepared(prep, &mut scratch, |_, _| {})
                })
                .map_err(|e| e.to_string())?;
            if warm_rounds == 0 {
                messages += stats.messages as u64;
                message_bytes += stats.message_bytes;
            }
            let mut sbuf = vec![0u8; n * bytes as usize];
            rec.time("sched.fill", job, None, || {
                for r in 0..n as Rank {
                    fill(r, &mut sbuf);
                }
            });
            let checked = rec.time("sched.check", job, None, || {
                (0..n as Rank).try_for_each(|r| check_alltoall_rbuf(r, n, bytes, scratch.rbuf(r)))
            });
            if let Err(e) = checked {
                res.failed += 1;
                res.problems.push(format!("replayed job of key {key}: {e}"));
            }
        }
        warm_rounds += 1;
        if phase.elapsed().as_secs_f64() >= seconds * 0.35 {
            break;
        }
    }
    drop(preps);

    // Phase D: a hit on a resident key, and spawn -> closure start on an
    // idle one-worker pool.
    const BATCH: usize = 100;
    let k0 = all_keys[keys[0]];
    let algo0 = rosters[k0.grid][k0.algo].as_ref();
    let lint = LintConfig::default();
    let ck = CacheKey::alltoall(algo0, &grids[k0.grid], k0.bytes, lint.send_window);
    let cache = ScheduleCache::new(ServiceConfig::default().cache_capacity);
    let compile = || compile_alltoall(algo0, &grids[k0.grid], k0.bytes, &lint);
    cache
        .get_or_compile(&ck, compile)
        .map_err(|e| e.to_string())?;
    for _ in 0..20 {
        rec.time("service.cache_hit", keys[0] as u32, None, || {
            for _ in 0..BATCH {
                let hit = cache.get_or_compile(&ck, || unreachable!("resident key"));
                std::hint::black_box(hit.is_ok());
            }
        });
    }
    let (pool, _) = Placement::get().split(|| WorkerPool::new(1));
    let (tx, rx) = mpsc::channel();
    for _ in 0..2000 {
        let tx = tx.clone();
        let t0 = Instant::now();
        pool.spawn(move || {
            let _ = tx.send(Instant::now());
        });
        let started = rx.recv().map_err(|e| e.to_string())?;
        let (t0, t1) = (rec.ns_of(t0), rec.ns_of(started));
        rec.add("runtime.pool_dispatch", 0, 0, None, t0, t1);
    }
    drop(pool);

    // Roll the spans up. Stage times are means per job over the replayed
    // keys (each key weighs the same, as in the window-1 loop), so shares
    // of the mean latency add up.
    let totals = rec.totals_by_name();
    let nkeys = keys.len() as f64;
    let total_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e6);
    let per_key_ms = |name: &str| total_ms(name) / nkeys;
    let per_call_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_ms());
    let exec_ms = per_call_ms("sched.exec");
    let per_job_msgs = messages as f64 / nkeys;
    let per_job_bytes = message_bytes as f64 / nkeys;
    res.set("core.build_ms", per_key_ms("core.build"));
    res.set("core.ops_built", ops_built as f64);
    res.set("sched.validate_ms", per_key_ms("sched.validate"));
    res.set("lint.safety_ms", per_key_ms("lint.safety"));
    res.set("lint.prove_ms", per_key_ms("lint.prove"));
    res.set("lint.findings", findings as f64);
    res.set(
        "service.compile_cold_ms",
        per_key_ms("service.compile_cold"),
    );
    res.set("sched.scratch_build_ms", per_call_ms("sched.scratch_build"));
    res.set("sched.exec_ms", exec_ms);
    res.set("sched.exec_msgs_per_s", per_job_msgs / (exec_ms / 1e3));
    res.set("sched.exec_mb_per_s", per_job_bytes / 1e6 / (exec_ms / 1e3));
    res.set("sched.messages", messages as f64);
    res.set("sched.message_bytes", message_bytes as f64);
    res.set("sched.fill_ms", per_call_ms("sched.fill"));
    res.set("sched.check_ms", per_call_ms("sched.check"));
    let submit_us = totals.get("service.submit").map_or(0.0, |t| t.mean_us());
    let hit_us = totals.get("service.cache_hit").map_or(0.0, |t| t.mean_us()) / BATCH as f64;
    let dispatch_us = totals
        .get("runtime.pool_dispatch")
        .map_or(0.0, |t| t.mean_us());
    res.set("service.submit_call_us", submit_us);
    res.set("service.cache_hit_us", hit_us);
    res.set("runtime.pool_dispatch_us", dispatch_us);

    // Per-key pairing: window-1 latency against the replayed stages of the
    // same key. What is left is queue wait, dispatch wake-up, digest and
    // resolve - inside the service, not callable from outside.
    let w1_jobs = (w1_delta.hits + w1_delta.misses) as f64;
    let scratch_per_job = w1_delta.scratch_builds as f64 / w1_jobs;
    let mut by_key = vec![[0.0f64; 6]; all_keys.len()];
    let mut counts = vec![[0u64; 6]; all_keys.len()];
    let stage_names = [
        "service.compile_cold",
        "sched.exec",
        "sched.fill",
        "sched.check",
        "sched.scratch_build",
        "job.w1",
    ];
    for s in rec.spans() {
        if let Some(i) = stage_names.iter().position(|&n| n == s.name) {
            by_key[s.job as usize][i] += s.dur_ns() as f64 / 1e3;
            counts[s.job as usize][i] += 1;
        }
    }
    let mut table = Vec::new();
    let (mut lat_sum, mut stage_sum) = (0.0, 0.0);
    for &key in &keys {
        let m = |i: usize| by_key[key][i] / counts[key][i].max(1) as f64;
        let admission = if spec.cold { m(0) } else { hit_us };
        let stages = admission + dispatch_us + m(1) + m(2) + m(3) + scratch_per_job * m(4);
        let latency = mean(&w1_us[key]);
        lat_sum += latency;
        stage_sum += stages;
        let k = all_keys[key];
        table.push(Value::Object(vec![
            ("algo".into(), Value::Str(refs.keys[key].algo.clone())),
            (
                "topology".into(),
                Value::Str(refs.keys[key].topology.clone()),
            ),
            ("bytes".into(), Value::U64(k.bytes)),
            ("latency_w1_us".into(), Value::F64(latency)),
            ("admission_us".into(), Value::F64(admission)),
            ("exec_us".into(), Value::F64(m(1))),
            ("fill_us".into(), Value::F64(m(2))),
            ("check_us".into(), Value::F64(m(3))),
            ("residual_us".into(), Value::F64(latency - stages)),
        ]));
    }
    let latency_w1 = lat_sum / nkeys;
    let residual = (lat_sum - stage_sum) / nkeys;
    res.set("service.job_latency_w1_us", latency_w1);
    res.set("service.residual_us", residual);
    res.set("service.residual_share", residual / latency_w1);
    res.details.push(("per_key".into(), Value::Array(table)));

    // Exact counters of phase A, per round so they do not scale with time.
    let rounds = a.rounds as f64;
    res.set("service.cache_hit_ratio", delta.hit_ratio());
    res.set("service.cache_evictions", delta.evictions as f64 / rounds);
    res.set("service.compiled", delta.compiled as f64 / rounds);
    res.set("service.batch_fill", delta.batched_jobs as f64 / jobs);
    res.set(
        "service.scratch_builds",
        delta.scratch_builds as f64 / rounds,
    );
    res.set(
        "service.prove_ms_total",
        delta.prove_ns as f64 / 1e6 / rounds,
    );
    res.set("service.retries", delta.retries as f64);
    res.set("service.shed", delta.shed as f64);
    res.set("trace.ops_per_s", a.ops_per_s());
    res.set("trace.spans", rec.spans().len() as f64);
    res.set("trace.span_cost_ns", Recorder::span_cost_ns());

    res.note(format!(
        "phase A: {} jobs in {} rounds; phase B: {} window-1 jobs; phase C: {} keys, {} warm rounds",
        a.attempted, a.rounds, w1_jobs, keys.len(), warm_rounds
    ));
    res.note("counts per round (one pass over the key set): cache_evictions, compiled, scratch_builds, prove_ms_total".into());
    let cold_children = ["core.build", "sched.validate", "lint.safety", "lint.prove"]
        .iter()
        .map(|n| total_ms(n))
        .sum::<f64>();
    res.note(format!(
        "replayed admission stages sum to {:.3} of compile_alltoall's own time",
        cold_children / total_ms("service.compile_cold").max(f64::MIN_POSITIVE)
    ));
    let stage_share = |us: f64| us / latency_w1;
    res.note(format!(
        "share of window-1 latency: admission {:.3}, dispatch {:.3}, exec {:.3}, fill {:.3}, check {:.3}, residual {:.3}",
        stage_share(if spec.cold { per_key_ms("service.compile_cold") * 1e3 } else { hit_us }),
        stage_share(dispatch_us),
        stage_share(exec_ms * 1e3),
        stage_share(per_call_ms("sched.fill") * 1e3),
        stage_share(per_call_ms("sched.check") * 1e3),
        residual / latency_w1
    ));
    if spec.cold && residual / latency_w1 > 0.2 {
        res.note(format!(
            "WARNING: residual share {:.3} > 0.2 on the cold workload: the replayed stages do not explain the latency",
            residual / latency_w1
        ));
    }
    res.notes.extend(rec.table());
    rec.save(w.name)?;
    Ok(res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{by_name, svc_spec};

    fn counters(name: &str, rounds: usize) -> (CounterDelta, LoopOutcome) {
        let w = by_name(name).unwrap();
        let spec = svc_spec(name);
        let refs = load_refs(w, spec).unwrap();
        let round = spec.round(5);
        let (world, failed) = setup(spec, &round, Some(&refs));
        assert_eq!(failed, 0);
        let before = world.svc.stats();
        // Fixed rounds, not time: the counters must repeat exactly.
        let run = closed_loop(&world, &round, &refs, 5, |_, done| done < rounds, None);
        world.svc.join();
        (CounterDelta::between(&before, &world.svc.stats()), run)
    }

    #[test]
    fn the_96_key_cycle_never_hits_and_always_evicts() {
        let (d, run) = counters("svc_cold_churn_64r", 1);
        assert_eq!(run.failed, 0);
        assert_eq!((d.hits, d.misses, d.compiled), (0, 96, 96));
        assert_eq!(d.evictions, 96);
        let mut problems = Vec::new();
        d.check(true, &mut problems);
        assert_eq!(problems, Vec::<String>::new());
    }

    #[test]
    fn same_key_runs_are_batched_and_fixed_rounds_repeat_exact_counters() {
        let (a, run_a) = counters("svc_hot_8r", 200);
        let (b, run_b) = counters("svc_hot_8r", 200);
        assert!(
            a.batched_jobs > 0,
            "same-key runs of 4 at window 8 must fuse"
        );
        assert_eq!((run_a.failed, run_b.failed), (0, 0));
        assert_eq!(run_a.attempted, 200 * 32);
        // Everything but batching (which depends on what is queued when the
        // worker wakes) repeats exactly.
        assert_eq!(
            (a.hits, a.misses, a.compiled, a.evictions, a.retries, a.shed),
            (b.hits, b.misses, b.compiled, b.evictions, b.retries, b.shed)
        );
        assert_eq!((a.hits, a.misses), (200 * 32, 0));
    }
}
