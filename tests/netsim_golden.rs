//! Golden values for the discrete-event simulator.
//!
//! Every row below was recorded from the engine as it stood before its
//! data layout was rebuilt, and any later change to the event core must
//! reproduce each bit. Each cell also runs through the benchmark's
//! statistics entry point with both option values the benchmark passes,
//! which must agree with `simulate_perturbed` and report no cross-shard
//! traffic.
//!
//! On mismatch the failure prints the row the engine produced in the
//! table's own syntax, so an intended model change is re-recorded by
//! pasting — and an unintended one is visible as a diff of bit patterns.

use alltoall_suite::algos::*;
use alltoall_suite::netsim::{
    models, simulate_perturbed, simulate_sharded_stats, Perturb, ShardOptions, SimOptions,
};
use alltoall_suite::topo::{Machine, ProcGrid};

/// One pinned simulation outcome.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    case: &'static str,
    algo: usize,
    bytes: u64,
    total_us_bits: u64,
    /// Order-sensitive fold over `rank_finish` then `phase_max_us` bits.
    times_fold: u64,
    msgs_per_level: [usize; 4],
    bytes_per_level: [u64; 4],
    events: u64,
}

/// The paper's eight-algorithm roster, group sizes dividing 8 ppn;
/// `Golden::algo` indexes it.
fn roster() -> Vec<Box<dyn AlltoallAlgorithm>> {
    vec![
        Box::new(PairwiseAlltoall),
        Box::new(NonblockingAlltoall),
        Box::new(BruckAlltoall),
        Box::new(HierarchicalAlltoall::new(8, ExchangeKind::Nonblocking)),
        Box::new(NodeAwareAlltoall::node_aware(ExchangeKind::Pairwise)),
        Box::new(NodeAwareAlltoall::locality_aware(4, ExchangeKind::Pairwise)),
        Box::new(MultileaderNodeAwareAlltoall::new(4, ExchangeKind::Pairwise)),
        Box::new(MpichShmAlltoall::default()),
    ]
}

fn fold(bits: impl Iterator<Item = u64>) -> u64 {
    bits.fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h.rotate_left(7) ^ b).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The simulation conditions a row was recorded under.
fn conditions(case: &str) -> (SimOptions, Perturb) {
    match case {
        "exact" => (SimOptions::default(), Perturb::default()),
        "jitter" => (
            SimOptions {
                jitter: 0.05,
                seed: 0xA2A,
            },
            Perturb::default(),
        ),
        // Rank 5 computes six times slower, rank 17 twice; the 0->2 and
        // 3->1 links are degraded. 128 KiB blocks are rendezvous both
        // across the network and through shared memory.
        "perturb" => {
            let mut rank_slowdown = vec![1.0; 18];
            rank_slowdown[5] = 6.0;
            rank_slowdown[17] = 2.0;
            (
                SimOptions::default(),
                Perturb {
                    rank_slowdown,
                    link_multiplier: vec![(0, 2, 4.0), (3, 1, 2.5)],
                },
            )
        }
        other => panic!("unknown case {other}"),
    }
}

fn observe(case: &'static str, algo: usize, bytes: u64) -> Golden {
    let grid = ProcGrid::new(Machine::custom("golden", 4, 2, 2, 2));
    let model = models::dane();
    let (opts, perturb) = conditions(case);
    let algos = roster();
    let sched = AlgoSchedule::new(algos[algo].as_ref(), A2AContext::new(grid.clone(), bytes));
    let what = format!("{case}/{}/{bytes}", algos[algo].name());
    let rep = simulate_perturbed(&sched, &grid, &model, &opts, &perturb)
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    let [events, events_w2] = [1, 2].map(|workers| {
        let (counted, stats) = simulate_sharded_stats(
            &sched,
            &grid,
            &model,
            &opts,
            &perturb,
            &ShardOptions::with_workers(workers),
        )
        .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(rep, counted, "{what} x{workers}: the entry points disagree");
        assert_eq!((stats.cross_events, stats.causality_violations), (0, 0));
        stats.events
    });
    assert_eq!(events, events_w2, "{what}: event counts disagree");
    Golden {
        case,
        algo,
        bytes,
        total_us_bits: rep.total_us.to_bits(),
        times_fold: fold(
            rep.rank_finish
                .iter()
                .chain(&rep.phase_max_us)
                .map(|t| t.to_bits()),
        ),
        msgs_per_level: rep.msgs_per_level,
        bytes_per_level: rep.bytes_per_level,
        events,
    }
}

/// `g` in the syntax of [`GOLDEN`].
fn row(g: &Golden) -> String {
    format!(
        "    Golden {{ case: {:?}, algo: {}, bytes: {}, total_us_bits: {:#018x}, times_fold: {:#018x}, msgs_per_level: {:?}, bytes_per_level: {:?}, events: {} }},",
        g.case, g.algo, g.bytes, g.total_us_bits, g.times_fold, g.msgs_per_level, g.bytes_per_level, g.events
    )
}

#[test]
fn simulated_values_match_the_recorded_bits() {
    let algos = 0..roster().len();
    let mut cells = Vec::new();
    for algo in algos.clone() {
        cells.push(("exact", algo, 64));
        cells.push(("exact", algo, 4096));
    }
    cells.extend(algos.clone().map(|algo| ("jitter", algo, 16 * 1024)));
    cells.extend(algos.map(|algo| ("perturb", algo, 128 * 1024)));
    let seen: Vec<Golden> = cells
        .into_iter()
        .map(|(case, algo, bytes)| observe(case, algo, bytes))
        .collect();
    let bad: Vec<String> = seen
        .iter()
        .zip(GOLDEN.iter().map(Some).chain(std::iter::repeat(None)))
        .filter(|(got, want)| Some(*got) != *want)
        .map(|(got, _)| row(got))
        .collect();
    assert!(
        bad.is_empty() && seen.len() == GOLDEN.len(),
        "{} of {} cells differ from the {} recorded rows; the engine produced:\n{}",
        bad.len(),
        seen.len(),
        GOLDEN.len(),
        bad.join("\n")
    );
}

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    Golden { case: "exact", algo: 0, bytes: 64, total_us_bits: 0x405218c35b5b0ed2, times_fold: 0x15a826e11354aa16, msgs_per_level: [32, 64, 128, 768], bytes_per_level: [2048, 4096, 8192, 49152], events: 3776 },
    Golden { case: "exact", algo: 0, bytes: 4096, total_us_bits: 0x405fa84d275bdca2, times_fold: 0x00a65cf9bbef7560, msgs_per_level: [32, 64, 128, 768], bytes_per_level: [131072, 262144, 524288, 3145728], events: 3776 },
    Golden { case: "exact", algo: 1, bytes: 64, total_us_bits: 0x404e7a469d734305, times_fold: 0xb118bda5dba709aa, msgs_per_level: [32, 64, 128, 768], bytes_per_level: [2048, 4096, 8192, 49152], events: 2816 },
    Golden { case: "exact", algo: 1, bytes: 4096, total_us_bits: 0x405f024c8366515c, times_fold: 0x94b1979e4f72c23b, msgs_per_level: [32, 64, 128, 768], bytes_per_level: [131072, 262144, 524288, 3145728], events: 2816 },
    Golden { case: "exact", algo: 2, bytes: 64, total_us_bits: 0x402cbb0e8f3607b1, times_fold: 0x8dbc18052501a19b, msgs_per_level: [16, 24, 28, 92], bytes_per_level: [16384, 24576, 28672, 94208], events: 3643 },
    Golden { case: "exact", algo: 2, bytes: 4096, total_us_bits: 0x406da56b65a9a7f9, times_fold: 0xbbe3da1b84164384, msgs_per_level: [16, 24, 28, 92], bytes_per_level: [1048576, 1572864, 1835008, 6029312], events: 3827 },
    Golden { case: "exact", algo: 3, bytes: 64, total_us_bits: 0x402ca4234cd19139, times_fold: 0xe80f1695c36cfdc7, msgs_per_level: [8, 16, 32, 12], bytes_per_level: [16384, 32768, 65536, 49152], events: 1380 },
    Golden { case: "exact", algo: 3, bytes: 4096, total_us_bits: 0x407fac1251fe961a, times_fold: 0xf9f20f20b6a4fb86, msgs_per_level: [8, 16, 32, 12], bytes_per_level: [1048576, 2097152, 4194304, 3145728], events: 1404 },
    Golden { case: "exact", algo: 4, bytes: 64, total_us_bits: 0x4030ed6050c9bb5c, times_fold: 0xaa47cdb4af9a388b, msgs_per_level: [32, 64, 128, 96], bytes_per_level: [8192, 16384, 32768, 49152], events: 3168 },
    Golden { case: "exact", algo: 4, bytes: 4096, total_us_bits: 0x4061c80969d17bf9, times_fold: 0xc1d4fba0a0a2ad7c, msgs_per_level: [32, 64, 128, 96], bytes_per_level: [524288, 1048576, 2097152, 3145728], events: 3360 },
    Golden { case: "exact", algo: 5, bytes: 64, total_us_bits: 0x4036b5a31a4bdbab, times_fold: 0x9941937ecdf10783, msgs_per_level: [32, 64, 32, 192], bytes_per_level: [16384, 32768, 8192, 49152], events: 3264 },
    Golden { case: "exact", algo: 5, bytes: 4096, total_us_bits: 0x40612bbf727136a7, times_fold: 0x673155ea9413d3b5, msgs_per_level: [32, 64, 32, 192], bytes_per_level: [1048576, 2097152, 524288, 3145728], events: 3648 },
    Golden { case: "exact", algo: 6, bytes: 64, total_us_bits: 0x4031bc19783c78d8, times_fold: 0x7c6afaec314168e2, msgs_per_level: [16, 32, 8, 24], bytes_per_level: [32768, 65536, 32768, 49152], events: 1720 },
    Golden { case: "exact", algo: 6, bytes: 4096, total_us_bits: 0x407d59d242440dd1, times_fold: 0x75493bbb49cd63df, msgs_per_level: [16, 32, 8, 24], bytes_per_level: [2097152, 4194304, 2097152, 3145728], events: 1768 },
    Golden { case: "exact", algo: 7, bytes: 64, total_us_bits: 0x403081a6c44b932d, times_fold: 0x8a8c3b0b0c880371, msgs_per_level: [32, 64, 128, 96], bytes_per_level: [8192, 16384, 32768, 49152], events: 3168 },
    Golden { case: "exact", algo: 7, bytes: 4096, total_us_bits: 0x4061e86c502995e7, times_fold: 0xcd38da0e7277b59f, msgs_per_level: [32, 64, 128, 96], bytes_per_level: [524288, 1048576, 2097152, 3145728], events: 3360 },
    Golden { case: "jitter", algo: 0, bytes: 16384, total_us_bits: 0x4077f7aa5cfe6a79, times_fold: 0x878ddb4aeb3eecaf, msgs_per_level: [32, 64, 128, 768], bytes_per_level: [524288, 1048576, 2097152, 12582912], events: 5312 },
    Golden { case: "jitter", algo: 1, bytes: 16384, total_us_bits: 0x407430efd6b55f49, times_fold: 0xbd3f20929879c624, msgs_per_level: [32, 64, 128, 768], bytes_per_level: [524288, 1048576, 2097152, 12582912], events: 4352 },
    Golden { case: "jitter", algo: 2, bytes: 16384, total_us_bits: 0x408bfe717312b004, times_fold: 0x78307d073fedd982, msgs_per_level: [16, 24, 28, 92], bytes_per_level: [4194304, 6291456, 7340032, 24117248], events: 3827 },
    Golden { case: "jitter", algo: 3, bytes: 16384, total_us_bits: 0x40a0e50ebde3c50e, times_fold: 0x5617658817e3bfbb, msgs_per_level: [8, 16, 32, 12], bytes_per_level: [4194304, 8388608, 16777216, 12582912], events: 1404 },
    Golden { case: "jitter", algo: 4, bytes: 16384, total_us_bits: 0x4080b8cd8aa00bb6, times_fold: 0xd7e296f9f8111866, msgs_per_level: [32, 64, 128, 96], bytes_per_level: [2097152, 4194304, 8388608, 12582912], events: 3360 },
    Golden { case: "jitter", algo: 5, bytes: 16384, total_us_bits: 0x407ec1444939efd3, times_fold: 0x0b95d97bc7ceb2fb, msgs_per_level: [32, 64, 32, 192], bytes_per_level: [4194304, 8388608, 2097152, 12582912], events: 3648 },
    Golden { case: "jitter", algo: 6, bytes: 16384, total_us_bits: 0x409cf99a154ba67e, times_fold: 0x48fdd1eeefe12b18, msgs_per_level: [16, 32, 8, 24], bytes_per_level: [8388608, 16777216, 8388608, 12582912], events: 1768 },
    Golden { case: "jitter", algo: 7, bytes: 16384, total_us_bits: 0x4080c31567477968, times_fold: 0x93b50fcab3946037, msgs_per_level: [32, 64, 128, 96], bytes_per_level: [2097152, 4194304, 8388608, 12582912], events: 3360 },
    Golden { case: "perturb", algo: 0, bytes: 131072, total_us_bits: 0x40b139585f06f693, times_fold: 0x58caf627bcc10a45, msgs_per_level: [32, 64, 128, 768], bytes_per_level: [4194304, 8388608, 16777216, 100663296], events: 5312 },
    Golden { case: "perturb", algo: 1, bytes: 131072, total_us_bits: 0x40b2022f9db22d11, times_fold: 0x33587982364d136f, msgs_per_level: [32, 64, 128, 768], bytes_per_level: [4194304, 8388608, 16777216, 100663296], events: 4352 },
    Golden { case: "perturb", algo: 2, bytes: 131072, total_us_bits: 0x40d72d6828b12048, times_fold: 0x7def271ae506dfa7, msgs_per_level: [16, 24, 28, 92], bytes_per_level: [33554432, 50331648, 58720256, 192937984], events: 3827 },
    Golden { case: "perturb", algo: 3, bytes: 131072, total_us_bits: 0x40d5680a0a70ea23, times_fold: 0x2089e9c9a8f19c36, msgs_per_level: [8, 16, 32, 12], bytes_per_level: [33554432, 67108864, 134217728, 100663296], events: 1404 },
    Golden { case: "perturb", algo: 4, bytes: 131072, total_us_bits: 0x40c6c31022acac27, times_fold: 0x5db93ffa111f30b1, msgs_per_level: [32, 64, 128, 96], bytes_per_level: [16777216, 33554432, 67108864, 100663296], events: 3360 },
    Golden { case: "perturb", algo: 5, bytes: 131072, total_us_bits: 0x40c65e11f8268c0b, times_fold: 0xb4c47fddd5ee9e3d, msgs_per_level: [32, 64, 32, 192], bytes_per_level: [33554432, 67108864, 16777216, 100663296], events: 3648 },
    Golden { case: "perturb", algo: 6, bytes: 131072, total_us_bits: 0x40d1f129e31e9607, times_fold: 0x1d2a54705c62d139, msgs_per_level: [16, 32, 8, 24], bytes_per_level: [67108864, 134217728, 67108864, 100663296], events: 1768 },
    Golden { case: "perturb", algo: 7, bytes: 131072, total_us_bits: 0x40c341272230bff1, times_fold: 0x9a2f1a24264290ab, msgs_per_level: [32, 64, 128, 96], bytes_per_level: [16777216, 33554432, 67108864, 100663296], events: 3360 },
];
