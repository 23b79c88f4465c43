//! The prepared-schedule cache: prepare + match + lint + prove once per
//! distinct `(algorithm, topology, counts, window)` key, then serve every
//! repeat submission from an `Arc`-shared owned [`PreparedSchedule`].
//!
//! Keying relies on compilation being deterministic: every algorithm
//! builds its rank programs from nothing but its own parameters, the
//! machine shape, and the byte counts, so two submissions with equal keys
//! would compile bit-identical schedules — serving the cached one changes
//! nothing but the work done (a property the service test suite pins with
//! [`PreparedSchedule`]'s content equality).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use a2a_core::{A2AContext, AlgoSchedule, AlltoallAlgorithm};
use a2a_lint::{analyze_matched, prove_matched, LintConfig};
use a2a_sched::analysis::provenance::SemanticsSpec;
use a2a_sched::{Matched, PreparedSchedule, ScheduleStats};
use a2a_topo::ProcGrid;

/// What makes two collective submissions share a compiled schedule.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Algorithm display name (unique per roster entry, parameters
    /// included — e.g. `hierarchical(g=4,nonblocking)`).
    pub algo: String,
    /// Machine signature: name plus the full node/socket/NUMA/core shape.
    pub topology: String,
    /// Count signature. Uniform all-to-alls use `uniform:<block bytes>`;
    /// a v-variant front end would hash its count matrix here.
    pub counts: String,
    /// The lint send-window the schedule was admitted under (A2A005
    /// findings depend on it, so reports must not be shared across
    /// windows).
    pub window: usize,
}

impl CacheKey {
    /// The key for a uniform all-to-all of `block_bytes` per pair.
    pub fn alltoall(
        algo: &dyn AlltoallAlgorithm,
        grid: &ProcGrid,
        block_bytes: u64,
        window: usize,
    ) -> Self {
        let m = grid.machine();
        CacheKey {
            algo: algo.name(),
            topology: format!(
                "{}:{}x{}x{}x{}",
                m.name, m.nodes, m.sockets_per_node, m.numa_per_socket, m.cores_per_numa
            ),
            counts: format!("uniform:{block_bytes}"),
            window,
        }
    }
}

impl std::fmt::Display for CacheKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} @ {} [{}] w{}",
            self.algo, self.topology, self.counts, self.window
        )
    }
}

/// Why admission rejected a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// `a2a_sched::validate` failed: structurally broken schedule.
    Validation(String),
    /// The static analyzer found errors (warnings are recorded on the
    /// cached entry, not rejected).
    Lint { errors: usize, rendered: String },
    /// The semantics prover found errors (`A2A007`–`A2A009`): the schedule
    /// is safe to run but computes the wrong collective. Never cached.
    Prove { errors: usize, rendered: String },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Validation(e) => write!(f, "validation failed: {e}"),
            CompileError::Lint { errors, rendered } => {
                write!(f, "lint found {errors} error(s):\n{rendered}")
            }
            CompileError::Prove { errors, rendered } => {
                write!(f, "semantics prover found {errors} error(s):\n{rendered}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// One admitted schedule: the owned prepared form plus everything the
/// cold-miss admission pipeline learned about it.
pub struct CachedSchedule {
    pub key: CacheKey,
    pub prep: PreparedSchedule<'static>,
    pub stats: ScheduleStats,
    /// Lint warnings found at admission (errors reject the schedule).
    pub lint_warnings: usize,
    /// Semantics-prover warnings (`A2A010`) found at admission.
    pub prove_warnings: usize,
    /// Wall time the semantics prover spent on this schedule (ns).
    pub prove_ns: u64,
}

/// Prepare → match → safety lints → prove one uniform all-to-all — the
/// full cold-miss admission pipeline, run exactly once per cache key. Every
/// rank program is generated once, into the prepared schedule; validation
/// and both analyses then read one [`Matched`] table over borrows of it. A
/// schedule the prover rejects (wrong-source, missing, or clobbered bytes)
/// returns `Err` and is therefore never cached: a poisoned entry cannot be
/// served to later submissions.
pub fn compile_alltoall(
    algo: &dyn AlltoallAlgorithm,
    grid: &ProcGrid,
    block_bytes: u64,
    lint: &LintConfig,
) -> Result<CachedSchedule, CompileError> {
    let key = CacheKey::alltoall(algo, grid, block_bytes, lint.send_window);
    let sched = AlgoSchedule::new(algo, A2AContext::new(grid.clone(), block_bytes));
    // Programs are generator-built (owned Cows), so this moves them: the
    // prepare path performs no clone.
    let prep = PreparedSchedule::new_owned(&sched);
    let matched = Matched::build(&prep).map_err(|e| CompileError::Validation(e.to_string()))?;
    let stats = matched.stats(grid);
    let report = analyze_matched(key.to_string(), &matched, lint, None);
    if report.errors() > 0 {
        return Err(CompileError::Lint {
            errors: report.errors(),
            rendered: report.render_text(),
        });
    }
    let lint_warnings = report.warnings();
    let spec = SemanticsSpec::alltoall(grid.world_size(), block_bytes);
    let t0 = Instant::now();
    let proof = prove_matched(key.to_string(), &matched, &spec);
    let prove_ns = t0.elapsed().as_nanos() as u64;
    if proof.errors() > 0 {
        return Err(CompileError::Prove {
            errors: proof.errors(),
            rendered: proof.render_text(),
        });
    }
    let prove_warnings = proof.warnings();
    // `matched` ends here: the table is an admission-time value no executor
    // reads, so the cached entry does not carry it.
    Ok(CachedSchedule {
        key,
        prep,
        stats,
        lint_warnings,
        prove_warnings,
        prove_ns,
    })
}

/// Hit/miss/eviction accounting, all lifetime totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Cold-miss compiles actually performed (equals `misses` except when
    /// concurrent misses race on one key, or capacity is 0).
    pub compiled: u64,
    /// Total wall time the semantics prover spent across all compiles (ns).
    pub prove_ns: u64,
}

struct Entry {
    sched: Arc<CachedSchedule>,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<CacheKey, Entry>,
    tick: u64,
    stats: CacheStats,
}

/// An LRU cache of admitted schedules. `capacity == 0` disables storage
/// (every lookup misses and compiles) — the bench's cold path.
pub struct ScheduleCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl ScheduleCache {
    pub fn new(capacity: usize) -> Self {
        ScheduleCache {
            capacity,
            inner: Mutex::new(Inner::default()),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Serve `key` from the cache, or admit it through `compile`.
    ///
    /// Compilation runs outside the lock, so a large cold miss never
    /// stalls concurrent hits; if two submissions race the same cold key,
    /// both compile (deterministically identical schedules) and the first
    /// insertion wins.
    pub fn get_or_compile(
        &self,
        key: &CacheKey,
        compile: impl FnOnce() -> Result<CachedSchedule, CompileError>,
    ) -> Result<Arc<CachedSchedule>, CompileError> {
        {
            let mut inner = self.lock();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.map.get_mut(key) {
                entry.last_used = tick;
                let sched = Arc::clone(&entry.sched);
                inner.stats.hits += 1;
                return Ok(sched);
            }
            inner.stats.misses += 1;
        }
        let compiled = Arc::new(compile()?);
        let mut inner = self.lock();
        inner.stats.compiled += 1;
        inner.stats.prove_ns += compiled.prove_ns;
        if self.capacity == 0 {
            return Ok(compiled);
        }
        inner.tick += 1;
        let tick = inner.tick;
        let sched = match inner.map.get_mut(key) {
            // Lost a compile race: serve the incumbent so every consumer
            // of this key shares one allocation.
            Some(entry) => {
                entry.last_used = tick;
                Arc::clone(&entry.sched)
            }
            None => {
                inner.map.insert(
                    key.clone(),
                    Entry {
                        sched: Arc::clone(&compiled),
                        last_used: tick,
                    },
                );
                compiled
            }
        };
        while inner.map.len() > self.capacity {
            let lru = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("non-empty over-capacity map");
            inner.map.remove(&lru);
            inner.stats.evictions += 1;
        }
        Ok(sched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_core::PairwiseAlltoall;
    use a2a_topo::Machine;

    fn grid() -> ProcGrid {
        ProcGrid::new(Machine::custom("bench", 2, 2, 1, 2))
    }

    fn compile(bytes: u64) -> CachedSchedule {
        compile_alltoall(&PairwiseAlltoall, &grid(), bytes, &LintConfig::default()).unwrap()
    }

    #[test]
    fn cold_miss_then_hits() {
        let cache = ScheduleCache::new(4);
        let key = CacheKey::alltoall(&PairwiseAlltoall, &grid(), 64, 32);
        for _ in 0..5 {
            let s = cache.get_or_compile(&key, || Ok(compile(64))).unwrap();
            assert_eq!(s.key, key);
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.compiled, 1);
        assert_eq!(stats.hits, 4);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn cached_schedule_is_bit_identical_to_fresh_compile() {
        let cache = ScheduleCache::new(4);
        let key = CacheKey::alltoall(&PairwiseAlltoall, &grid(), 64, 32);
        cache.get_or_compile(&key, || Ok(compile(64))).unwrap();
        let cached = cache.get_or_compile(&key, || Ok(compile(64))).unwrap();
        assert_eq!(cache.stats().compiled, 1, "second call was a hit");
        let fresh = compile(64);
        assert_eq!(cached.prep, fresh.prep);
    }

    #[test]
    fn lru_eviction_counts() {
        let cache = ScheduleCache::new(2);
        for bytes in [4u64, 16, 64] {
            let key = CacheKey::alltoall(&PairwiseAlltoall, &grid(), bytes, 32);
            cache.get_or_compile(&key, || Ok(compile(bytes))).unwrap();
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // The oldest key (4 B) was evicted: re-asking for it misses...
        let key4 = CacheKey::alltoall(&PairwiseAlltoall, &grid(), 4, 32);
        cache.get_or_compile(&key4, || Ok(compile(4))).unwrap();
        // ...while the most recently used (64 B) still hits.
        let key64 = CacheKey::alltoall(&PairwiseAlltoall, &grid(), 64, 32);
        cache.get_or_compile(&key64, || Ok(compile(64))).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn eviction_racing_concurrent_compiles_stays_consistent() {
        // Robustness satellite: hammer a capacity-1 cache from many
        // threads over several keys, so insertions, LRU evictions, and
        // outside-the-lock compiles constantly race. Invariants:
        //
        // * every returned schedule matches the key asked for and stays
        //   usable after its entry is evicted (Arc keeps it alive);
        // * a miss compiles at most once per miss — `compiled <= misses`
        //   even when racing compilers both run (each raced compile
        //   counted its own miss first);
        // * the losing compiler of a same-key race is handed the
        //   incumbent, never a freed or mismatched entry.
        let cache = std::sync::Arc::new(ScheduleCache::new(1));
        let keys: Vec<(u64, CacheKey)> = [4u64, 16, 64]
            .into_iter()
            .map(|b| (b, CacheKey::alltoall(&PairwiseAlltoall, &grid(), b, 32)))
            .collect();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let cache = std::sync::Arc::clone(&cache);
                let keys = keys.clone();
                scope.spawn(move || {
                    for i in 0..30 {
                        let (bytes, key) = &keys[(t + i) % keys.len()];
                        let s = cache.get_or_compile(key, || Ok(compile(*bytes))).unwrap();
                        assert_eq!(&s.key, key, "served schedule matches its key");
                        // The entry may be evicted by a sibling thread
                        // right now; the Arc must still be fully usable.
                        assert_eq!(s.prep.nranks(), grid().world_size());
                        assert_eq!(s.prep, compile(*bytes).prep, "bit-identical to fresh");
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 8 * 30, "every call accounted");
        assert!(
            stats.compiled <= stats.misses,
            "never more than one compile per miss: compiled {} misses {}",
            stats.compiled,
            stats.misses
        );
        assert!(stats.evictions > 0, "capacity 1 over 3 keys must evict");
        assert_eq!(cache.len(), 1);
    }

    /// Pairwise's schedule with rank 0's send offsets zeroed: every peer
    /// receives rank 0's block 0 instead of its own block. Passes
    /// validation and every safety lint — only the prover can reject it.
    struct PoisonedPairwise;

    impl AlltoallAlgorithm for PoisonedPairwise {
        fn name(&self) -> String {
            "poisoned-pairwise".into()
        }
        fn phase_names(&self) -> Vec<&'static str> {
            PairwiseAlltoall.phase_names()
        }
        fn buffers(&self, ctx: &A2AContext, rank: u32) -> Vec<u64> {
            PairwiseAlltoall.buffers(ctx, rank)
        }
        fn build_rank(&self, ctx: &A2AContext, rank: u32) -> a2a_sched::RankProgram {
            let mut p = PairwiseAlltoall.build_rank(ctx, rank);
            if rank == 0 {
                for t in &mut p.ops {
                    if let a2a_sched::Op::Isend { block, .. } = &mut t.op {
                        block.off = 0;
                    }
                }
            }
            p
        }
    }

    /// Pairwise, counting every rank program it generates.
    #[derive(Default)]
    struct CountingPairwise(std::sync::atomic::AtomicUsize);

    impl AlltoallAlgorithm for CountingPairwise {
        fn name(&self) -> String {
            "counting-pairwise".into()
        }
        fn phase_names(&self) -> Vec<&'static str> {
            PairwiseAlltoall.phase_names()
        }
        fn buffers(&self, ctx: &A2AContext, rank: u32) -> Vec<u64> {
            PairwiseAlltoall.buffers(ctx, rank)
        }
        fn build_rank(&self, ctx: &A2AContext, rank: u32) -> a2a_sched::RankProgram {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            PairwiseAlltoall.build_rank(ctx, rank)
        }
    }

    #[test]
    fn admission_generates_every_rank_program_exactly_once() {
        // Every analysis reads the one matched table, so neither a cold
        // compile nor a full analysis of a generator source builds a rank
        // twice (validate, lint, prove and prepare each used to build all).
        let n = grid().world_size();
        let algo = CountingPairwise::default();
        let built = || algo.0.swap(0, std::sync::atomic::Ordering::Relaxed);

        compile_alltoall(&algo, &grid(), 64, &LintConfig::default()).unwrap();
        assert_eq!(built(), n, "compile_alltoall");

        let sched = AlgoSchedule::new(&algo, A2AContext::new(grid(), 64));
        let spec = SemanticsSpec::alltoall(n, 64);
        let report = a2a_lint::analyze_schedule(
            "counted",
            &sched,
            &grid(),
            &LintConfig::default(),
            Some(&spec),
        );
        assert!(report.is_clean(), "{}", report.render_text());
        assert_eq!(built(), n, "analyze_schedule");
    }

    #[test]
    fn poisoned_schedule_is_rejected_and_never_cached() {
        let cache = ScheduleCache::new(4);
        let key = CacheKey::alltoall(&PoisonedPairwise, &grid(), 64, 32);
        for _ in 0..2 {
            let res = cache.get_or_compile(&key, || {
                compile_alltoall(&PoisonedPairwise, &grid(), 64, &LintConfig::default())
            });
            match res {
                Err(CompileError::Prove { errors, rendered }) => {
                    assert!(errors > 0);
                    assert!(rendered.contains("A2A007"), "{rendered}");
                }
                Err(other) => panic!("expected prover rejection, got {other}"),
                Ok(_) => panic!("poisoned schedule was admitted"),
            }
        }
        assert!(cache.is_empty(), "poisoned entries are never cached");
        let stats = cache.stats();
        assert_eq!(stats.misses, 2, "every retry re-misses: nothing admitted");
        assert_eq!(stats.compiled, 0);
        assert_eq!(stats.prove_ns, 0);
    }

    #[test]
    fn prove_time_is_accounted_in_stats() {
        let cache = ScheduleCache::new(4);
        let key = CacheKey::alltoall(&PairwiseAlltoall, &grid(), 64, 32);
        let s = cache.get_or_compile(&key, || Ok(compile(64))).unwrap();
        assert!(s.prove_ns > 0, "prover wall time recorded on the entry");
        assert_eq!(s.prove_warnings, 0);
        assert_eq!(cache.stats().prove_ns, s.prove_ns);
        // A hit serves the cached proof: no new prove time accrues.
        cache.get_or_compile(&key, || Ok(compile(64))).unwrap();
        assert_eq!(cache.stats().prove_ns, s.prove_ns);
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let cache = ScheduleCache::new(0);
        let key = CacheKey::alltoall(&PairwiseAlltoall, &grid(), 64, 32);
        for _ in 0..3 {
            cache.get_or_compile(&key, || Ok(compile(64))).unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.compiled, 3);
        assert_eq!(stats.hits, 0);
        assert!(cache.is_empty());
    }
}
