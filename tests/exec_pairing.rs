//! The data executor pairs each send with its receive at prepare time; the
//! legacy oracle matches FIFO at run time. They agree on thousands of tags
//! (clean and under faults) and on a request id posted twice. The ignored
//! test runs the executor at the paper's full scale.

use std::time::Instant;

use a2a_testutil::{FixedSchedule, LegacyDataExecutor};
use alltoall_suite::algos::{
    A2AContext, AlgoSchedule, AlltoallAlgorithm, ExchangeKind, NodeAwareAlltoall, PairwiseAlltoall,
};
use alltoall_suite::faults::{FaultPlan, FaultSpec};
use alltoall_suite::sched::{
    check_alltoall_rbuf, fill_alltoall_sbuf, run_and_verify, Block, DataExecutor, ExecError, Op,
    Phase, ProgBuilder, RBUF, SBUF,
};
use alltoall_suite::topo::{presets, ProcGrid, Rank};

/// A nonblocking all-to-all of `s` bytes per block in which every message
/// has a tag of its own: `from * n + to`.
fn unique_tags(n: usize, s: u64) -> FixedSchedule {
    let blk = |buf, peer: Rank| Block::new(buf, peer as u64 * s, s);
    let prog = |me: Rank| {
        let mut b = ProgBuilder::new(Phase(0));
        b.copy(blk(SBUF, me), blk(RBUF, me));
        let (n, first) = (n as Rank, b.req_mark());
        for peer in (0..n).filter(|&p| p != me) {
            b.irecv(peer, blk(RBUF, peer), peer * n + me);
            b.isend(peer, blk(SBUF, peer), me * n + peer);
        }
        b.waitall(first, 2 * (n - 1));
        b.finish()
    };
    FixedSchedule {
        progs: (0..n as Rank).map(prog).collect(),
        buffers: vec![vec![n as u64 * s; 2]; n],
        phase_names: vec!["all"],
    }
}

#[test]
fn thousands_of_distinct_tags_execute_like_the_legacy_oracle() {
    // 64 ranks x 4032 tags: 64^2 x 4032 ~ 16.5 M (rank, rank, tag) triples,
    // above the 2^22 a per-channel table indexed by them would hold.
    let (n, s) = (64, 4);
    let sched = unique_tags(n, s);
    let fill = |r: Rank, b: &mut [u8]| fill_alltoall_sbuf(r, n, s, b);

    let data = DataExecutor::run(&sched, fill).unwrap();
    assert_eq!(data, LegacyDataExecutor::run(&sched, fill).unwrap());
    for (r, rbuf) in data.rbufs.iter().enumerate() {
        check_alltoall_rbuf(r as Rank, n, s, rbuf).unwrap();
    }
    assert_eq!(data.messages, n * (n - 1));

    let specs = [
        FaultSpec::chaos_light(),
        FaultSpec::none().with_corrupt(0.01),
        FaultSpec::none().with_duplicate(0.002),
    ];
    let mut faulted = 0;
    for spec in specs {
        for seed in [7u64, 42, 0xC0FFEE] {
            let plan = FaultPlan::new(seed, n, spec);
            let data = DataExecutor::run_with_faults(&sched, fill, &plan);
            let legacy = LegacyDataExecutor::run_with_faults(&sched, fill, &plan);
            assert_eq!(data, legacy, "{spec:?} seed={seed}");
            faulted += match data {
                Ok((_, stats)) => stats.any() as usize,
                Err(ExecError::FaultInjected { .. }) => 1,
                Err(e) => panic!("seed={seed}: a fault-free failure: {e}"),
            };
        }
    }
    assert!(faulted >= 6, "only {faulted} of 9 runs saw a fault");
}

#[test]
fn a_request_id_posted_twice_executes_like_the_legacy_oracle() {
    // Rank 1 posts two receives under request 0 and waits on it once: the
    // second is never waited on but still drains. Keyed by receive, not by
    // request, each gets its own message.
    let mut b0 = ProgBuilder::new(Phase(0));
    let first = b0.isend(1, Block::new(SBUF, 0, 4), 0);
    b0.isend(1, Block::new(SBUF, 4, 4), 0);
    b0.waitall(first, 2);
    let mut b1 = ProgBuilder::new(Phase(0));
    let req = b1.irecv(0, Block::new(RBUF, 0, 4), 0);
    b1.irecv(0, Block::new(RBUF, 4, 4), 0);
    b1.wait(req);
    let mut progs = vec![b0.finish(), b1.finish()];
    let Op::Irecv { req: second, .. } = &mut progs[1].ops[1].op else {
        unreachable!("op 1 of rank 1 is its second receive")
    };
    *second = req;
    let sched = FixedSchedule {
        progs,
        buffers: vec![vec![8, 8]; 2],
        phase_names: vec!["all"],
    };
    let fill = |r: Rank, b: &mut [u8]| fill_alltoall_sbuf(r, 2, 4, b);
    let data = DataExecutor::run(&sched, fill).unwrap();
    assert_eq!(data, LegacyDataExecutor::run(&sched, fill).unwrap());
    let mut sent = vec![0; 8];
    fill(0, &mut sent);
    assert_eq!(data.rbufs[1], sent);
}

/// The data executor at the paper's scale: 32 Dane nodes x 112 ppn, 4 B.
/// Prints each cell's wall time and the process's peak RSS after it (a
/// high-water mark, so node-aware, the smaller cell, runs first). Release
/// build only: `cargo test --release --test exec_pairing -- --ignored`.
#[test]
#[ignore = "paper scale: several GB and seconds per cell; run in release"]
fn paper_scale_executor_cells() {
    let grid = ProcGrid::new(presets::dane(32));
    assert_eq!(grid.world_size(), 3584);
    let node_aware = NodeAwareAlltoall::node_aware(ExchangeKind::Pairwise);
    for algo in [&node_aware as &dyn AlltoallAlgorithm, &PairwiseAlltoall] {
        let name = algo.name();
        let sched = AlgoSchedule::new(algo, A2AContext::new(grid.clone(), 4));
        let t = Instant::now();
        let res = run_and_verify(&sched, 4).unwrap_or_else(|e| panic!("{name}: {e}"));
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let hwm: String = status.lines().filter(|l| l.starts_with("VmHWM")).collect();
        let (msgs, wall) = (res.messages, t.elapsed().as_secs_f64());
        println!("{name}: ranks=3584 s=4 msgs={msgs} wall_s={wall:.2} {hwm}");
    }
}
