//! `repro serve`: one long-lived [`a2a_service::Service`] under a mixed
//! multi-tenant workload. A demo and a smoke check (any failed job fails
//! the command), not a measurement: the service's throughput and latency
//! are the `svc_*` workloads of `benchmark/run.sh`.

use std::time::Instant;

use a2a_service::{JobSpec, Service, ServiceConfig, ServiceStats};

use crate::harness::{bench_grid, bench_roster};

/// Block sizes the demo cycles through: the small-message regime where
/// per-job setup, not memcpy, is what a job costs.
const SERVE_SIZES: [u64; 2] = [16, 64];

/// `repro serve`: run one long-lived service over a mixed multi-tenant
/// workload (every roster algorithm x [`SERVE_SIZES`], `jobs` jobs
/// round-robined across algorithms and tenants) and report what the
/// service did. Returns the rendered summary and the final stats.
pub fn serve_demo(nodes: usize, workers: usize, tenants: u32, jobs: u64) -> (String, ServiceStats) {
    use std::fmt::Write as _;
    let grid = bench_grid(nodes);
    let tenants = tenants.max(1);
    let roster = bench_roster();
    let svc = Service::new(ServiceConfig {
        workers,
        ..Default::default()
    });
    let t0 = Instant::now();
    let handles: Vec<_> = (0..jobs)
        .map(|i| {
            let algo = &roster[(i as usize) % roster.len()];
            let bytes = SERVE_SIZES[(i as usize / roster.len()) % SERVE_SIZES.len()];
            svc.submit(
                algo.as_ref(),
                &grid,
                JobSpec::new(i as u32 % tenants, bytes),
            )
        })
        .collect();
    let mut failed = 0u64;
    for h in &handles {
        if h.wait().is_err() {
            failed += 1;
        }
    }
    let elapsed = t0.elapsed();
    let stats = svc.stats();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# service: {} jobs ({} failed) across {} tenants on {} workers in {:.2?} = {:.0} jobs/s",
        jobs,
        failed,
        tenants,
        svc.workers(),
        elapsed,
        (jobs - failed) as f64 / elapsed.as_secs_f64()
    );
    let c = stats.cache;
    let _ = writeln!(
        out,
        "cache: {} hits / {} misses / {} compiled / {} evicted",
        c.hits, c.misses, c.compiled, c.evictions
    );
    let _ = writeln!(
        out,
        "exec:  {} batches ({} jobs shared one), {} scratch builds",
        stats.batches, stats.batched_jobs, stats.scratch_builds
    );
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_demo_runs_a_mixed_workload() {
        let (summary, stats) = serve_demo(1, 2, 3, 40);
        assert!(summary.contains("40 jobs (0 failed)"));
        assert_eq!(stats.jobs_ok, 40);
        assert_eq!(stats.jobs_failed, 0);
        // 8 algorithms x 2 sizes reached within 40 jobs: 16 distinct keys.
        assert_eq!(stats.cache.compiled, 16);
        assert_eq!(stats.cache.hits, 40 - 16);
    }
}
