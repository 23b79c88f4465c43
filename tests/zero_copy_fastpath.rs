//! The zero-copy fast path is an optimization, not a semantic change:
//! the prepared/arena executor, the legacy per-message-allocation
//! executor, and the parallel rank scheduler must all produce identical
//! bytes and identical message counts for every algorithm, and recycled
//! buffers (arena slots, pooled fabric buffers) must never leak stale
//! bytes between runs or messages.

use a2a_testutil::LegacyDataExecutor;
use alltoall_suite::algos::{
    A2AContext, AlgoSchedule, AlltoallAlgorithm, BruckAlltoall, ExchangeKind, HierarchicalAlltoall,
    MpichShmAlltoall, MultileaderNodeAwareAlltoall, NodeAwareAlltoall, NonblockingAlltoall,
    PairwiseAlltoall,
};
use alltoall_suite::runtime::{ParallelExecutor, ThreadWorld};
use alltoall_suite::sched::{
    check_alltoall_rbuf, fill_alltoall_sbuf, DataExecutor, ExecScratch, PreparedSchedule,
};
use alltoall_suite::topo::{Machine, ProcGrid};

/// 8 ranks over 2 nodes x 4 ppn: every algorithm's group size divides it.
fn grid8() -> ProcGrid {
    ProcGrid::new(Machine::custom("fastpath", 2, 2, 1, 2))
}

/// The full 8-algorithm roster of the paper's evaluation.
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

/// A seeded fill distinct from the transpose pattern, so stale bytes from
/// a differently-seeded run can never masquerade as correct output.
fn seeded_fill(seed: u64, rank: u32, buf: &mut [u8]) {
    for (i, b) in buf.iter_mut().enumerate() {
        let h = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((rank as u64) << 32)
            .wrapping_add(i as u64)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        *b = (h >> 56) as u8;
    }
}

#[test]
fn fast_legacy_and_parallel_agree_for_every_algorithm() {
    let grid = grid8();
    let n = grid.world_size();
    for algo in roster() {
        for s in [4u64, 64, 1024] {
            let sched = AlgoSchedule::new(algo.as_ref(), A2AContext::new(grid.clone(), s));
            let fill = |r: u32, b: &mut [u8]| fill_alltoall_sbuf(r, n, s, b);

            let fast = DataExecutor::run(&sched, fill)
                .unwrap_or_else(|e| panic!("{} s={s} fast: {e}", algo.name()));
            let legacy = LegacyDataExecutor::run(&sched, fill)
                .unwrap_or_else(|e| panic!("{} s={s} legacy: {e}", algo.name()));
            let parallel = ParallelExecutor::run(&sched, 3, fill)
                .unwrap_or_else(|e| panic!("{} s={s} parallel: {e}", algo.name()));

            assert_eq!(
                fast.rbufs,
                legacy.rbufs,
                "{} s={s}: fast vs legacy bytes",
                algo.name()
            );
            assert_eq!(
                fast.rbufs,
                parallel.rbufs,
                "{} s={s}: fast vs parallel bytes",
                algo.name()
            );
            assert_eq!(fast.messages, legacy.messages, "{} s={s}", algo.name());
            assert_eq!(fast.messages, parallel.messages, "{} s={s}", algo.name());
            assert_eq!(
                fast.message_bytes,
                parallel.message_bytes,
                "{} s={s}",
                algo.name()
            );
            for (r, rbuf) in fast.rbufs.iter().enumerate() {
                check_alltoall_rbuf(r as u32, n, s, rbuf)
                    .unwrap_or_else(|e| panic!("{} s={s} rank {r}: {e}", algo.name()));
            }
        }
    }
}

#[test]
fn parallel_worker_count_never_changes_the_bytes() {
    // Worker counts from 1 (fully sequential) past the rank count: the
    // partition changes, the bytes must not.
    let grid = grid8();
    let n = grid.world_size();
    let s = 32u64;
    let sched = AlgoSchedule::new(&BruckAlltoall, A2AContext::new(grid, s));
    let fill = |r: u32, b: &mut [u8]| fill_alltoall_sbuf(r, n, s, b);
    let reference = ParallelExecutor::run(&sched, 1, fill).expect("workers=1");
    for workers in [2usize, 3, 5, 8, 16] {
        let out = ParallelExecutor::run(&sched, workers, fill)
            .unwrap_or_else(|e| panic!("workers={workers}: {e}"));
        assert_eq!(out, reference, "workers={workers}");
    }
}

#[test]
fn reused_scratch_leaves_no_stale_bytes_between_runs() {
    // One PreparedSchedule + one ExecScratch across differently-seeded
    // runs: every arena slot, mailbox stream, and receive buffer is
    // recycled, so any stale byte from run `seed-1` corrupts run `seed`.
    let grid = grid8();
    let n = grid.world_size();
    let s = 48u64;
    let algo = HierarchicalAlltoall::new(4, ExchangeKind::Nonblocking);
    let sched = AlgoSchedule::new(&algo, A2AContext::new(grid, s));
    let prep = PreparedSchedule::new(&sched);
    let mut scratch = ExecScratch::new(&prep);
    for seed in 0..6u64 {
        DataExecutor::run_prepared(&prep, &mut scratch, |r, b| seeded_fill(seed, r, b))
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let expect = LegacyDataExecutor::run(&prep, |r, b| seeded_fill(seed, r, b))
            .unwrap_or_else(|e| panic!("seed {seed} legacy: {e}"));
        for r in 0..n as u32 {
            assert_eq!(
                scratch.rbuf(r),
                &expect.rbufs[r as usize][..],
                "seed {seed} rank {r}: stale bytes survived scratch reuse"
            );
        }
    }
}

#[test]
fn pooled_fabric_buffers_are_fully_overwritten_between_messages() {
    // Shrinking messages on one channel: every recycled pool buffer has
    // *more* capacity than the payload it carries, so a stale tail byte
    // from the previous (larger) message would surface immediately if the
    // pool ever handed out a partially-overwritten buffer.
    let rounds = 64usize;
    let outs = ThreadWorld::run(2, |comm| {
        if comm.rank() == 0 {
            for i in 0..rounds {
                let len = rounds - i;
                let msg = vec![i as u8; len];
                comm.send(1, 7, &msg).unwrap();
            }
            Vec::new()
        } else {
            let mut got = Vec::new();
            for i in 0..rounds {
                let len = rounds - i;
                let mut buf = vec![0xEEu8; len];
                comm.recv(0, 7, &mut buf).unwrap();
                got.push(buf);
            }
            got
        }
    });
    for (i, buf) in outs[1].iter().enumerate() {
        assert_eq!(
            buf,
            &vec![i as u8; rounds - i],
            "message {i}: stale bytes leaked from a recycled pool buffer"
        );
    }
}
