//! Variable-sized all-to-all: randomized count matrices must always yield
//! exact routing, and the node-aware variant must preserve its aggregation
//! guarantees under irregularity.

use std::sync::Arc;

use a2a_testutil::{run_cases, LegacyDataExecutor};
use alltoall_suite::algos::alltoallv::*;
use alltoall_suite::netsim::{models, simulate, SimOptions};
use alltoall_suite::runtime::ParallelExecutor;
use alltoall_suite::sched::{validate, DataExecutor, ExecScratch, PreparedSchedule};
use alltoall_suite::topo::{Machine, ProcGrid, Rank};

fn grid(nodes: usize, ppn_cores: usize) -> ProcGrid {
    ProcGrid::new(Machine::custom("v", nodes, 2, 1, ppn_cores))
}

#[test]
fn random_count_matrices_route_exactly() {
    // Ported from proptest (40 cases) to the seeded runner with 64 cases; a
    // failure prints the case seed and the generated (nodes, cores, seed,
    // zero_bias) tuple.
    run_cases(
        "random_count_matrices_route_exactly",
        64,
        |rng| {
            (
                rng.range_usize(1, 4),
                rng.range_usize(1, 3),
                rng.range_u64(0, 1000),
                rng.range_u64(0, 8),
            )
        },
        |&(nodes, cores, seed, zero_bias)| {
            let g = grid(nodes, cores);
            let n = g.world_size() as u64;
            let counts: CountsFn = Arc::new(move |s, d| {
                let mut x = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((s as u64 * n + d as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
                x ^= x >> 31;
                if x % 8 < zero_bias {
                    0
                } else {
                    x % 97
                }
            });
            let ctx = VContext::new(g, counts);
            run_and_verify_v(&PairwiseAlltoallv, &ctx)?;
            run_and_verify_v(&NonblockingAlltoallv, &ctx)?;
            run_and_verify_v(&NodeAwareAlltoallv, &ctx)?;
            Ok(())
        },
    );
}

#[test]
fn skewed_fft_like_counts_simulate_and_verify() {
    // A transpose-ish workload: rank i sends mostly to a diagonal band.
    let g = grid(3, 2); // 12 ranks
    let n = g.world_size() as i64;
    let counts: CountsFn = Arc::new(move |s, d| {
        let dist = ((s as i64 - d as i64).rem_euclid(n)).min((d as i64 - s as i64).rem_euclid(n));
        if dist <= 2 {
            256 >> dist
        } else {
            0
        }
    });
    let ctx = VContext::new(g.clone(), counts);
    run_and_verify_v(&NodeAwareAlltoallv, &ctx).unwrap();
    // And it must simulate without deadlock, faster than nothing.
    let sched = VSchedule::new(&NodeAwareAlltoallv, ctx);
    let rep = simulate(&sched, &g, &models::dane(), &SimOptions::default()).unwrap();
    assert!(rep.total_us > 0.0);
}

#[test]
fn every_executor_agrees_on_v_schedules_byte_for_byte() {
    // Cross-crate differential: the same non-uniform VSchedule must
    // produce identical receive buffers through the fast prepared data
    // executor, the legacy executor, and the parallel runtime at several
    // worker counts — the uniform-alltoall identity extended to
    // irregular counts.
    let algos: [&dyn AlltoallvAlgorithm; 3] = [
        &PairwiseAlltoallv,
        &NonblockingAlltoallv,
        &NodeAwareAlltoallv,
    ];
    for nodes in [1usize, 3] {
        let g = grid(nodes, 2);
        let n = g.world_size() as u64;
        let counts: CountsFn = Arc::new(move |s, d| {
            let x = (s as u64 * 31 + d as u64 * 17) % 13;
            if x < 4 {
                0
            } else {
                (x * (1 + (s as u64 + d as u64) % 5)) % (n + 7)
            }
        });
        let ctx = VContext::new(g, counts);
        for algo in algos {
            let sched = VSchedule::new(algo, ctx.clone());
            let fill = |r: Rank, buf: &mut [u8]| fill_alltoallv_sbuf(&ctx, r, buf);

            // Fast path: prepared schedule + reusable scratch, run twice
            // to cover scratch reuse.
            let prep = PreparedSchedule::new(&sched);
            let mut scratch = ExecScratch::new(&prep);
            for _ in 0..2 {
                DataExecutor::run_prepared(&prep, &mut scratch, fill)
                    .unwrap_or_else(|e| panic!("{} nodes={nodes}: {e}", algo.name()));
            }
            let fast: Vec<Vec<u8>> = (0..ctx.n() as Rank)
                .map(|r| scratch.rbuf(r).to_vec())
                .collect();
            for (r, rbuf) in fast.iter().enumerate() {
                check_alltoallv_rbuf(&ctx, r as Rank, rbuf)
                    .unwrap_or_else(|e| panic!("{} nodes={nodes}: {e}", algo.name()));
            }

            let legacy = LegacyDataExecutor::run(&sched, fill)
                .unwrap_or_else(|e| panic!("{} nodes={nodes}: {e}", algo.name()));
            assert_eq!(
                legacy.rbufs,
                fast,
                "{} nodes={nodes}: legacy executor diverged",
                algo.name()
            );

            for workers in [1usize, 2, 3] {
                let par = ParallelExecutor::run(&sched, workers, fill)
                    .unwrap_or_else(|e| panic!("{} nodes={nodes}: {e}", algo.name()));
                assert_eq!(
                    par.rbufs,
                    fast,
                    "{} nodes={nodes} workers={workers}: parallel runtime diverged",
                    algo.name()
                );
            }
        }
    }
}

#[test]
fn node_aware_v_internode_bytes_are_minimal() {
    // Even with irregular counts, aggregation sends each byte across the
    // network exactly once.
    let g = grid(3, 2);
    let counts: CountsFn = Arc::new(|s, d| ((s as u64 * 7 + d as u64 * 3) % 11) * 4);
    let ctx = VContext::new(g.clone(), counts.clone());
    let sched = VSchedule::new(&NodeAwareAlltoallv, ctx.clone());
    let st = validate(&sched, &g).unwrap();
    let mut min_bytes = 0u64;
    for s in 0..g.world_size() as u32 {
        for d in 0..g.world_size() as u32 {
            if g.node_of(s) != g.node_of(d) {
                min_bytes += counts(s, d);
            }
        }
    }
    assert_eq!(st.inter_node_bytes(), min_bytes);
    // Direct pairwise matches too (no aggregation, same bytes).
    let direct = VSchedule::new(&PairwiseAlltoallv, ctx);
    let sd = validate(&direct, &g).unwrap();
    assert_eq!(sd.inter_node_bytes(), min_bytes);
}
