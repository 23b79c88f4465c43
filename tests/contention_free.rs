//! With every contention charge of the cost model at zero — matching,
//! queue search, NIC and memory-bus occupancy — and every message eager,
//! the simulator charges exactly what the static critical path counts:
//! posting overheads, copies and per-level wire time. The two must then
//! agree bit for bit, so the DES minus the static bound is exactly the
//! price of contention. A simulator that hands a message to the wrong
//! receive breaks the equality; the split-wait probe below is such a case.

use a2a_testutil::FixedSchedule;
use alltoall_suite::algos::*;
use alltoall_suite::netsim::{crit_params, models, simulate, CostModel, SimOptions};
use alltoall_suite::sched::analysis::critical_path;
use alltoall_suite::sched::{Block, Matched, Phase, ProgBuilder, ScheduleSource, RBUF, SBUF};
use alltoall_suite::topo::{presets, Machine, ProcGrid};

/// Dane with every contention charge removed and both eager thresholds
/// raised past any message.
fn contention_free() -> CostModel {
    let mut m = models::dane();
    m.match_base = 0.0;
    m.queue_search = 0.0;
    m.nic_per_msg = 0.0;
    m.nic_per_byte = 0.0;
    m.mem_per_byte = 0.0;
    m.upi_per_byte = 0.0;
    m.eager_threshold = u64::MAX;
    m.eager_threshold_intra = u64::MAX;
    m
}

fn assert_des_equals_bound(what: &str, sched: &dyn ScheduleSource, grid: &ProcGrid) {
    let model = contention_free();
    let des = simulate(sched, grid, &model, &SimOptions::default())
        .unwrap_or_else(|e| panic!("{what}: {e}"))
        .total_us;
    let matched = Matched::build(sched).unwrap_or_else(|e| panic!("{what}: {e}"));
    let bound = critical_path(&matched, grid, &crit_params(&model), 1).bound_us;
    assert_eq!(
        des.to_bits(),
        bound.to_bits(),
        "{what}: contention-free DES {des} vs static bound {bound}"
    );
}

/// The flat exchanges plus the paper's roster at `ppn`.
fn roster(ppn: usize) -> Vec<(String, Box<dyn AlltoallAlgorithm>)> {
    let flat: Vec<Box<dyn AlltoallAlgorithm>> = vec![
        Box::new(PairwiseAlltoall),
        Box::new(NonblockingAlltoall),
        Box::new(BruckAlltoall),
        Box::new(BatchedAlltoall::new(4)),
        Box::new(MpichShmAlltoall::default()),
    ];
    let mut all: Vec<_> = flat.into_iter().map(|a| (a.name(), a)).collect();
    all.extend(paper_roster(ppn));
    all
}

#[test]
fn contention_free_des_equals_the_static_bound_on_the_roster() {
    let grids = [
        ProcGrid::new(Machine::custom("custom", 4, 2, 4, 4)),
        ProcGrid::new(presets::dane(2)),
    ];
    for grid in grids {
        let m = grid.machine();
        for (name, algo) in roster(m.ppn()) {
            for s in [4, 4096] {
                let sched = AlgoSchedule::new(algo.as_ref(), A2AContext::new(grid.clone(), s));
                let what = format!("{name} on {} x {} ppn, {s} B", m.nodes, m.ppn());
                assert_des_equals_bound(&what, &sched, &grid);
            }
        }
    }
}

#[test]
fn contention_free_des_equals_the_static_bound_when_a_short_message_overtakes() {
    // Rank 0 sends 8000 B then 8 B on one channel to rank 1 on the other
    // node; the 8 B message lands first. Rank 1 waits for the first
    // receive alone, copies, then waits for the second: the copy starts
    // only once the 8000 B message is in.
    let mut sender = ProgBuilder::new(Phase(0));
    let first = sender.isend(1, Block::new(SBUF, 0, 8000), 0);
    sender.isend(1, Block::new(SBUF, 0, 8), 0);
    sender.waitall(first, 2);
    let mut receiver = ProgBuilder::new(Phase(0));
    let long = receiver.irecv(0, Block::new(RBUF, 0, 8000), 0);
    let short = receiver.irecv(0, Block::new(RBUF, 8000, 8), 0);
    receiver.waitall(long, 1);
    receiver.copy(Block::new(RBUF, 0, 8000), Block::new(SBUF, 0, 8000));
    receiver.waitall(short, 1);
    let probe = FixedSchedule {
        progs: vec![sender.finish(), receiver.finish()],
        buffers: vec![vec![8008, 8008]; 2],
        phase_names: vec!["probe"],
    };
    let grid = ProcGrid::new(Machine::custom("t", 2, 1, 1, 1));
    assert_des_equals_bound("split-wait probe", &probe, &grid);
}
