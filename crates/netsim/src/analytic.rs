//! Closed-form cost estimates (the paper's §5 "develop a model to evaluate
//! these impacts at capability-scale" future work).
//!
//! [`lower_bound_from_stats`] turns a schedule's static traffic statistics
//! into a machine-model lower bound: the collective can finish no earlier
//! than its most-loaded bottleneck resource — per-rank CPU posting, per-node
//! NIC injection, per-node memory bus, or per-rank copy work. The simulator
//! must always report at least this value (a property test enforces it),
//! and for bandwidth-bound direct exchanges it lands within a small factor.

use a2a_sched::analysis::critpath::CritParams;
use a2a_sched::ScheduleStats;
use a2a_topo::{Level, ProcGrid};

use crate::model::CostModel;

/// Critical-path cost parameters derived from a full cost model: exactly
/// the charges the simulator always pays (posting overheads, copy cost,
/// per-level wire time) and none of its additive extras (matching, queue
/// search, NIC/memory-bus serialization, rendezvous handshakes). At zero
/// jitter, `a2a_sched::analysis::critical_path` run with these parameters
/// is therefore a guaranteed lower bound on [`crate::simulate`]'s
/// makespan — the invariant `repro verify` cross-checks on every roster
/// cell.
pub fn crit_params(model: &CostModel) -> CritParams {
    CritParams {
        o_send: model.o_send,
        o_recv: model.o_recv,
        copy_base: model.copy_base,
        copy_per_byte: model.copy_per_byte,
        levels: [
            (model.levels[0].alpha, model.levels[0].beta),
            (model.levels[1].alpha, model.levels[1].beta),
            (model.levels[2].alpha, model.levels[2].beta),
            (model.levels[3].alpha, model.levels[3].beta),
        ],
    }
}

/// Machine-model lower bound on a schedule's completion time (µs).
pub fn lower_bound_from_stats(stats: &ScheduleStats, grid: &ProcGrid, model: &CostModel) -> f64 {
    let nodes = grid.machine().nodes as f64;
    let n = grid.world_size() as f64;

    // CPU: the busiest rank must post all its sends (and symmetric recvs).
    let cpu = stats.max_sends_per_rank as f64 * (model.o_send + model.o_recv + model.match_base);

    // NIC: a node's inter-node traffic is serialized through its NIC. Both
    // message and byte counts are symmetric for all-to-all patterns, so the
    // average per node is also the per-node load.
    let nic = (stats.inter_node_msgs() as f64 / nodes) * model.nic_per_msg
        + (stats.inter_node_bytes() as f64 / nodes) * model.nic_per_byte;

    // Intra-node shared paths: NUMA-local bytes spread across all NUMA
    // domains, socket-local across sockets, socket-crossing through one
    // UPI per node. The binding one lower-bounds the intra phase.
    let m = grid.machine();
    let numas = (nodes as usize * m.sockets_per_node * m.numa_per_socket) as f64;
    let sockets = (nodes as usize * m.sockets_per_node) as f64;
    let bus = (stats.bytes[0] as f64 / numas * model.mem_per_byte)
        .max(stats.bytes[1] as f64 / sockets * model.mem_per_byte)
        .max(stats.bytes[2] as f64 / nodes * model.upi_per_byte);

    // Copies: repack work per rank (average; packing is evenly spread in
    // the node/locality-aware algorithms, concentrated on leaders in the
    // hierarchical ones, where CPU/NIC dominate anyway).
    let copies = (stats.copy_bytes as f64 / n) * model.copy_per_byte;

    // One network traversal of latency is unavoidable if anything crosses.
    let alpha = if stats.inter_node_msgs() > 0 {
        model.level(Level::InterNode).alpha
    } else {
        0.0
    };

    cpu.max(nic).max(bus).max(copies) + alpha
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, SimOptions};
    use crate::models;
    use a2a_core::{A2AContext, AlgoSchedule, AlltoallAlgorithm};
    use a2a_sched::validate;
    use a2a_topo::{presets, ProcGrid};

    fn grid() -> ProcGrid {
        ProcGrid::new(presets::scaled_many_core(4, 1)) // 4 nodes x 8 ppn
    }

    fn check_bound(algo: &dyn AlltoallAlgorithm, s: u64) {
        let grid = grid();
        let ctx = A2AContext::new(grid.clone(), s);
        let sched = AlgoSchedule::new(algo, ctx);
        let stats = validate(&sched, &grid).unwrap();
        let model = models::dane();
        let bound = lower_bound_from_stats(&stats, &grid, &model);
        let rep = simulate(&sched, &grid, &model, &SimOptions::default()).unwrap();
        assert!(
            rep.total_us >= bound * 0.999,
            "{}: simulated {} below analytic bound {}",
            algo.name(),
            rep.total_us,
            bound
        );
    }

    #[test]
    fn simulation_respects_lower_bound_for_all_algorithms() {
        use a2a_core::*;
        let algos: Vec<Box<dyn AlltoallAlgorithm>> = vec![
            Box::new(PairwiseAlltoall),
            Box::new(NonblockingAlltoall),
            Box::new(BruckAlltoall),
            Box::new(HierarchicalAlltoall::new(8, ExchangeKind::Pairwise)),
            Box::new(HierarchicalAlltoall::new(4, ExchangeKind::Pairwise)),
            Box::new(NodeAwareAlltoall::node_aware(ExchangeKind::Pairwise)),
            Box::new(NodeAwareAlltoall::locality_aware(
                4,
                ExchangeKind::Nonblocking,
            )),
            Box::new(MultileaderNodeAwareAlltoall::new(4, ExchangeKind::Pairwise)),
            Box::new(MpichShmAlltoall::default()),
        ];
        for algo in &algos {
            for s in [16u64, 1024] {
                check_bound(algo.as_ref(), s);
            }
        }
    }

    #[test]
    fn static_critical_path_lower_bounds_the_simulator() {
        use a2a_sched::analysis::critical_path;
        let grid = grid();
        let model = models::dane();
        let params = crit_params(&model);
        for s in [16u64, 1024, 65536] {
            let algo = a2a_core::PairwiseAlltoall;
            let sched = AlgoSchedule::new(&algo, A2AContext::new(grid.clone(), s));
            let matched = a2a_sched::Matched::build(&sched).unwrap();
            let stat = critical_path(&matched, &grid, &params, 1);
            let sim = simulate(&sched, &grid, &model, &SimOptions::default())
                .unwrap()
                .total_us;
            assert!(
                stat.bound_us <= sim + 1e-9,
                "s={s}: static {} exceeds DES {sim}",
                stat.bound_us
            );
            assert!(stat.bound_us > 0.0);
            let attr = stat.attribution;
            assert!((attr.total_us() - stat.bound_us).abs() < 1e-6 * stat.bound_us.max(1.0));
        }
    }
}
