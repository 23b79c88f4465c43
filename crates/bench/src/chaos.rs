//! `repro chaos`: slowdown-under-faults sweep.
//!
//! Lowers a seeded [`FaultPlan`] onto the simulator's [`Perturb`] hooks
//! (straggler CPU slowdowns, degraded inter-node links) and reports each
//! algorithm's slowdown relative to its clean run. All simulations are
//! jitter-free, so for a fixed seed the whole sweep — including the emitted
//! CSV — is byte-deterministic.

use std::fmt::Write as _;

use a2a_core::{
    A2AContext, AlgoSchedule, AlltoallAlgorithm, BruckAlltoall, ExchangeKind,
    MultileaderNodeAwareAlltoall, NodeAwareAlltoall, PairwiseAlltoall,
};
use a2a_faults::{FaultPlan, FaultSpec};
use a2a_netsim::{simulate_perturbed, Perturb, SimOptions};
use a2a_topo::ProcGrid;
use serde::{Deserialize, Serialize};

use crate::harness::RunConfig;

/// One (scenario, algorithm, size) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosPoint {
    pub scenario: String,
    pub algo: String,
    pub bytes: u64,
    pub clean_us: f64,
    pub faulty_us: f64,
    /// `faulty_us / clean_us`.
    pub slowdown: f64,
}

/// The full sweep result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosResult {
    pub machine: String,
    pub nodes: usize,
    pub seed: u64,
    /// Straggler ranks the plan realized (after forcing at least one).
    pub stragglers: Vec<u32>,
    /// Degraded directed node links `(from, to, multiplier)`.
    pub degraded_links: Vec<(usize, usize, f64)>,
    pub points: Vec<ChaosPoint>,
}

impl ChaosResult {
    /// CSV rendering, one row per point.
    pub fn csv(&self) -> String {
        let mut out = String::from("scenario,algo,bytes,clean_us,faulty_us,slowdown\n");
        for p in &self.points {
            let _ = writeln!(
                out,
                "{},{},{},{:.3},{:.3},{:.4}",
                p.scenario, p.algo, p.bytes, p.clean_us, p.faulty_us, p.slowdown
            );
        }
        out
    }

    /// Aligned ASCII table for the console.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# chaos sweep: {} nodes of {}, seed {:#x}",
            self.nodes, self.machine, self.seed
        );
        let _ = writeln!(
            out,
            "  stragglers: {:?}  degraded links: {:?}",
            self.stragglers, self.degraded_links
        );
        let _ = writeln!(
            out,
            "{:>16} {:>28} {:>8} {:>12} {:>12} {:>9}",
            "scenario", "algo", "bytes", "clean us", "faulty us", "slowdown"
        );
        for p in &self.points {
            let _ = writeln!(
                out,
                "{:>16} {:>28} {:>8} {:>12.2} {:>12.2} {:>9.3}",
                p.scenario, p.algo, p.bytes, p.clean_us, p.faulty_us, p.slowdown
            );
        }
        out
    }
}

/// The fault environment of one chaos scenario, already lowered to
/// simulator perturbations.
struct Scenario {
    name: &'static str,
    perturb: Perturb,
}

/// Lower `plan` onto simulator perturbations for `grid`, forcing at least
/// one straggler / one degraded link (deterministically, from the seed) so
/// every scenario is non-trivial for any seed.
fn lower(plan: &FaultPlan, grid: &ProcGrid, want_straggler: bool, want_link: bool) -> Perturb {
    let n = grid.world_size();
    let nodes = grid.machine().nodes;
    let spec = *plan.spec();
    let mut rank_slowdown: Vec<f64> = (0..n as u32).map(|r| plan.slowdown(r)).collect();
    if want_straggler && rank_slowdown.iter().all(|&s| s == 1.0) {
        rank_slowdown[(plan.seed() % n as u64) as usize] = spec.straggler_slowdown;
    }
    if !want_straggler {
        rank_slowdown.clear();
    }
    let mut link_multiplier = plan.degraded_links(nodes);
    if want_link && link_multiplier.is_empty() && nodes > 1 {
        let to = 1 + (plan.seed() as usize % (nodes - 1));
        link_multiplier.push((0, to, spec.link_multiplier));
    }
    if !want_link {
        link_multiplier.clear();
    }
    Perturb {
        rank_slowdown,
        link_multiplier,
    }
}

/// Run the chaos sweep: three fault scenarios (stragglers only, degraded
/// links only, both) across representative all-to-all algorithms and two
/// block sizes, reporting slowdown-under-faults for each.
pub fn chaos(cfg: &RunConfig) -> ChaosResult {
    let grid = cfg.grid();
    let model = cfg.model();
    let spec = FaultSpec::none()
        .with_stragglers(0.08, 4.0)
        .with_degraded_links(0.05, 8.0);
    let plan = FaultPlan::new(cfg.seed, grid.world_size(), spec);

    let scenarios = [
        Scenario {
            name: "stragglers",
            perturb: lower(&plan, &grid, true, false),
        },
        Scenario {
            name: "degraded-links",
            perturb: lower(&plan, &grid, false, true),
        },
        Scenario {
            name: "combined",
            perturb: lower(&plan, &grid, true, true),
        },
    ];

    let ppn = grid.machine().ppn();
    let algos: Vec<Box<dyn AlltoallAlgorithm>> = vec![
        Box::new(PairwiseAlltoall),
        Box::new(BruckAlltoall),
        Box::new(NodeAwareAlltoall::node_aware(ExchangeKind::Pairwise)),
        Box::new(MultileaderNodeAwareAlltoall::new(
            (ppn / 4).max(1),
            ExchangeKind::Pairwise,
        )),
    ];

    // Jitter-free: the sweep must be byte-deterministic for a seed.
    let opts = SimOptions {
        jitter: 0.0,
        seed: cfg.seed,
    };
    let combined = &scenarios[2].perturb;
    let mut points = Vec::new();
    for sc in &scenarios {
        for algo in &algos {
            for &bytes in &[64u64, 1024] {
                let sched = AlgoSchedule::new(algo.as_ref(), A2AContext::new(grid.clone(), bytes));
                let clean = simulate_perturbed(&sched, &grid, &model, &opts, &Perturb::default())
                    .unwrap_or_else(|e| panic!("{} clean (s={bytes}): {e}", algo.name()));
                let faulty = simulate_perturbed(&sched, &grid, &model, &opts, &sc.perturb)
                    .unwrap_or_else(|e| panic!("{} {} (s={bytes}): {e}", algo.name(), sc.name));
                points.push(ChaosPoint {
                    scenario: sc.name.to_string(),
                    algo: algo.name().to_string(),
                    bytes,
                    clean_us: clean.total_us,
                    faulty_us: faulty.total_us,
                    slowdown: faulty.total_us / clean.total_us,
                });
            }
        }
    }

    ChaosResult {
        machine: cfg.machine.clone(),
        nodes: cfg.nodes,
        seed: cfg.seed,
        stragglers: combined
            .rank_slowdown
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s != 1.0)
            .map(|(r, _)| r as u32)
            .collect(),
        degraded_links: combined.link_multiplier.clone(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> RunConfig {
        RunConfig {
            nodes: 4,
            runs: 1,
            seed: 0xC0FFEE,
            ..Default::default()
        }
    }

    #[test]
    fn chaos_sweep_is_byte_deterministic() {
        let a = chaos(&small_cfg());
        let b = chaos(&small_cfg());
        assert_eq!(a.csv(), b.csv());
    }

    #[test]
    fn faults_slow_things_down() {
        let res = chaos(&small_cfg());
        assert!(!res.points.is_empty());
        // Every scenario is forced non-trivial, so the combined scenario
        // must cost something for at least one algorithm.
        let worst = res
            .points
            .iter()
            .filter(|p| p.scenario == "combined")
            .map(|p| p.slowdown)
            .fold(0.0f64, f64::max);
        assert!(worst > 1.0, "combined chaos had no effect: {worst}");
        // And nothing should get *faster* under faults.
        assert!(res.points.iter().all(|p| p.slowdown >= 0.999));
    }

    #[test]
    fn different_seeds_change_the_plan() {
        let a = chaos(&small_cfg());
        let b = chaos(&RunConfig {
            seed: 0xBEEF,
            ..small_cfg()
        });
        // Seeds differ => realized fault sets (almost surely) differ; at
        // minimum the CSVs must not be byte-identical.
        assert_ne!(a.csv(), b.csv());
    }

    #[test]
    fn csv_shape() {
        let res = chaos(&small_cfg());
        let csv = res.csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "scenario,algo,bytes,clean_us,faulty_us,slowdown"
        );
        assert_eq!(csv.lines().count(), 1 + res.points.len());
    }
}
