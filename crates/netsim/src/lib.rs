//! Deterministic discrete-event network simulator for collective schedules.
//!
//! This crate substitutes for the paper's hardware testbeds (Dane, Amber,
//! Tuolumne): it executes a communication schedule (`a2a_sched`) over a
//! machine shape (`a2a_topo`) under a [`CostModel`] capturing the effects
//! the paper reasons about —
//!
//! * locality-tiered latency/bandwidth (NUMA / socket / cross-socket / network);
//! * **per-node NIC injection & ejection serialization**: all `ppn` ranks
//!   share one NIC, the many-core bottleneck motivating the paper;
//! * per-message NIC processing cost (message-rate limits);
//! * eager vs. rendezvous point-to-point protocols;
//! * matching/queue-search costs proportional to queue depth (the
//!   "non-blocking at scale" overhead);
//! * per-node memory-bus serialization of intra-node transfers;
//! * CPU posting overheads and repack (memcpy) costs.
//!
//! The engine is an event simulation: the runnable rank with the smallest
//! event key executes its next operation; ranks park at `WaitAll` and wake
//! when requests complete. [`simulate`] runs it on one thread over every
//! node. Everything is deterministic for a fixed seed; the optional jitter
//! models system noise so "minimum of 3 runs" (the paper's measurement
//! rule) is meaningful.
//!
//! # Example
//!
//! ```
//! use a2a_topo::{ProcGrid, presets};
//! use a2a_core::{AlgoSchedule, A2AContext, NodeAwareAlltoall, ExchangeKind};
//! use a2a_netsim::{simulate, models, SimOptions};
//!
//! let grid = ProcGrid::new(presets::scaled_many_core(2, 1)); // 2 nodes x 8 ppn
//! let algo = NodeAwareAlltoall::node_aware(ExchangeKind::Pairwise);
//! let sched = AlgoSchedule::new(&algo, A2AContext::new(grid.clone(), 64));
//! let report = simulate(&sched, &grid, &models::dane(), &SimOptions::default()).unwrap();
//! assert!(report.total_us > 0.0);
//! ```

pub mod analytic;
pub mod engine;
pub mod model;
pub mod models;
pub mod report;
mod shard;

pub use analytic::crit_params;
pub use engine::{
    simulate, simulate_perturbed, simulate_sharded_stats, Perturb, ShardOptions, ShardStats,
    SimError, SimOptions,
};
pub use model::{CostModel, LevelCost};
pub use report::SimReport;

/// Run `runs` jittered simulations and keep the minimum total time, as the
/// paper does ("All figures display the minimum of 3 runs"). Returns the
/// minimum-total report.
pub fn simulate_min_of(
    source: &dyn a2a_sched::ScheduleSource,
    grid: &a2a_topo::ProcGrid,
    model: &CostModel,
    runs: usize,
    base_seed: u64,
) -> Result<SimReport, SimError> {
    assert!(runs > 0);
    let mut best: Option<SimReport> = None;
    for i in 0..runs {
        let opts = SimOptions {
            jitter: if runs == 1 { 0.0 } else { 0.05 },
            seed: base_seed.wrapping_add(i as u64),
        };
        let rep = simulate(source, grid, model, &opts)?;
        best = match best {
            Some(b) if b.total_us <= rep.total_us => Some(b),
            _ => Some(rep),
        };
    }
    Ok(best.expect("runs > 0"))
}
