//! Golden values for the byte-moving executors.
//!
//! The differential tests compare executors with each other, so a change
//! that moved every executor the same way would pass them all. This file
//! pins what they *produce*: traffic counters and an FNV-1a digest of every
//! receive buffer for the roster on two machines, the v-algorithms on two
//! count profiles, seeded fault runs, and the exact outcome (counters or
//! the rendered error, naming rank and op index) of every seeded mutant.
//!
//! On mismatch the failure prints the rows the executors produced in the
//! table's own syntax, so an intended change is re-recorded by pasting and
//! an unintended one shows up as a diff.

use std::sync::Arc;

use a2a_testutil::{FixedSchedule, LegacyDataExecutor, Mutation, Rng};
use alltoall_suite::algos::alltoallv::{
    fill_alltoallv_sbuf, AlltoallvAlgorithm, CountsFn, NodeAwareAlltoallv, NonblockingAlltoallv,
    PairwiseAlltoallv, VContext, VSchedule,
};
use alltoall_suite::algos::*;
use alltoall_suite::faults::{FaultPlan, FaultSpec};
use alltoall_suite::runtime::{ParallelExecutor, ThreadWorld};
use alltoall_suite::sched::exec::ExecResult;
use alltoall_suite::sched::{
    fill_alltoall_sbuf, DataExecutor, ExecError, FaultStats, ScheduleSource,
};
use alltoall_suite::topo::{Machine, ProcGrid, Rank};

/// FNV-1a over every receive buffer, in rank order.
fn fnv(rbufs: &[Vec<u8>]) -> u64 {
    rbufs.iter().flatten().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The two machines: 8 ranks as in `tests/zero_copy_fastpath.rs`, 32 as
/// in `tests/analysis_golden.rs`.
fn machines() -> [ProcGrid; 2] {
    [
        ProcGrid::new(Machine::custom("golden", 2, 2, 1, 2)),
        ProcGrid::new(Machine::custom("golden", 4, 2, 2, 2)),
    ]
}

/// The paper's eight-algorithm roster, group sizes dividing `ppn`.
fn roster(ppn: usize) -> Vec<Box<dyn AlltoallAlgorithm>> {
    vec![
        Box::new(PairwiseAlltoall),
        Box::new(NonblockingAlltoall),
        Box::new(BruckAlltoall),
        Box::new(HierarchicalAlltoall::new(ppn, ExchangeKind::Nonblocking)),
        Box::new(NodeAwareAlltoall::node_aware(ExchangeKind::Pairwise)),
        Box::new(NodeAwareAlltoall::locality_aware(
            ppn / 2,
            ExchangeKind::Pairwise,
        )),
        Box::new(MultileaderNodeAwareAlltoall::new(
            ppn / 2,
            ExchangeKind::Pairwise,
        )),
        Box::new(MpichShmAlltoall::default()),
    ]
}

/// The `repro verify` non-uniform count profiles.
fn profiles(n: usize) -> [(&'static str, CountsFn); 2] {
    let n = n as i64;
    [
        (
            "lumpy",
            Arc::new(|s: u32, d: u32| {
                let x = (s as u64 * 31 + d as u64 * 17) % 13;
                if x < 4 {
                    0
                } else {
                    x * (1 + (s as u64 + d as u64) % 5)
                }
            }),
        ),
        (
            "banded",
            Arc::new(move |s: u32, d: u32| {
                let dist =
                    ((s as i64 - d as i64).rem_euclid(n)).min((d as i64 - s as i64).rem_euclid(n));
                if dist <= 2 {
                    256u64 >> dist
                } else {
                    0
                }
            }),
        ),
    ]
}

fn counters(res: &ExecResult) -> String {
    format!(
        "msgs={} bytes={} copy={} fnv={:#018x}",
        res.messages,
        res.message_bytes,
        res.copy_bytes,
        fnv(&res.rbufs)
    )
}

/// Render an outcome as `Ok(...)` or `Err(<Display>)`.
fn outcome<T>(res: Result<T, ExecError>, ok: impl Fn(&T) -> String) -> String {
    match res {
        Ok(v) => format!("Ok({})", ok(&v)),
        Err(e) => format!("Err({e})"),
    }
}

/// A fill that works for any send-buffer length (mutants keep the sizes,
/// but nothing here should depend on it).
fn seeded_fill(rank: Rank, buf: &mut [u8]) {
    for (i, b) in buf.iter_mut().enumerate() {
        *b = ((rank as u64 * 0x9E37_79B9 + i as u64 * 0x85EB_CA6B) >> 7) as u8;
    }
}

/// Fail listing every row of `seen` that differs from `want`, in the
/// table's own syntax.
fn compare(what: &str, seen: &[String], want: &[&str]) {
    let bad: Vec<String> = seen
        .iter()
        .zip(want.iter().map(Some).chain(std::iter::repeat(None)))
        .filter(|(got, want)| Some(got.as_str()) != want.copied())
        .map(|(got, _)| format!("    {got:?},"))
        .collect();
    assert!(
        bad.is_empty() && seen.len() == want.len(),
        "{} of {} {what} differ from the {} recorded rows; the executors produced:\n{}",
        bad.len(),
        seen.len(),
        want.len(),
        bad.join("\n")
    );
}

#[test]
fn roster_outputs_match_the_recorded_rows() {
    let mut seen = Vec::new();
    for grid in machines() {
        let n = grid.world_size();
        for algo in roster(grid.machine().ppn()) {
            for s in [4u64, 1024] {
                let sched = AlgoSchedule::new(algo.as_ref(), A2AContext::new(grid.clone(), s));
                let fill = |r: Rank, b: &mut [u8]| fill_alltoall_sbuf(r, n, s, b);
                let what = format!("{} {n}r {s}B", algo.name());
                let data =
                    DataExecutor::run(&sched, fill).unwrap_or_else(|e| panic!("{what}: {e}"));
                let par: Vec<u64> = [1, 3]
                    .iter()
                    .map(|&w| {
                        let out = ParallelExecutor::run(&sched, w, fill)
                            .unwrap_or_else(|e| panic!("{what} workers={w}: {e}"));
                        fnv(&out.rbufs)
                    })
                    .collect();
                let total = n * s as usize;
                let (grid, algo) = (&grid, algo.as_ref());
                let comm = ThreadWorld::run(n, move |comm| {
                    let mut sbuf = vec![0u8; total];
                    let mut rbuf = vec![0u8; total];
                    fill_alltoall_sbuf(comm.rank(), n, s, &mut sbuf);
                    comm.alltoall(algo, grid, s, &sbuf, &mut rbuf).unwrap();
                    rbuf
                });
                seen.push(format!(
                    "{what}: {} par1={:#018x} par3={:#018x} comm={:#018x}",
                    counters(&data),
                    par[0],
                    par[1],
                    fnv(&comm)
                ));
            }
        }
    }
    compare("roster cells", &seen, ROSTER);
}

#[test]
fn v_outputs_match_the_recorded_rows() {
    let algos: [&dyn AlltoallvAlgorithm; 3] = [
        &PairwiseAlltoallv,
        &NonblockingAlltoallv,
        &NodeAwareAlltoallv,
    ];
    let mut seen = Vec::new();
    for grid in machines() {
        let n = grid.world_size();
        for (profile, counts) in profiles(n) {
            let ctx = VContext::new(grid.clone(), counts);
            for algo in algos {
                let sched = VSchedule::new(algo, ctx.clone());
                let res = DataExecutor::run(&sched, |r, b| fill_alltoallv_sbuf(&ctx, r, b));
                seen.push(format!(
                    "{} {n}r {profile}: {}",
                    algo.name(),
                    outcome(res, counters)
                ));
            }
        }
    }
    compare("v cells", &seen, V_CELLS);
}

#[test]
fn fault_runs_match_the_recorded_rows() {
    let grid = machines()[0].clone();
    let n = grid.world_size();
    let s = 64u64;
    let mut seen = Vec::new();
    for algo in roster(grid.machine().ppn()) {
        let sched = AlgoSchedule::new(algo.as_ref(), A2AContext::new(grid.clone(), s));
        let fill = |r: Rank, b: &mut [u8]| fill_alltoall_sbuf(r, n, s, b);
        for seed in [7u64, 42, 0xC0FFEE] {
            let plan = FaultPlan::new(seed, n, FaultSpec::chaos_light());
            let show = |(res, stats): &(ExecResult, FaultStats)| {
                format!("fnv={:#018x} {stats:?}", fnv(&res.rbufs))
            };
            let data = outcome(DataExecutor::run_with_faults(&sched, fill, &plan), show);
            let legacy = outcome(
                LegacyDataExecutor::run_with_faults(&sched, fill, &plan),
                show,
            );
            assert_eq!(data, legacy, "{} seed={seed}", algo.name());
            seen.push(format!("{} seed={seed:#x}: {data}", algo.name()));
        }
    }
    compare("fault cells", &seen, FAULTS);
}

#[test]
fn mutant_outcomes_match_the_recorded_rows() {
    let grid = ProcGrid::new(Machine::custom("mut", 2, 1, 1, 2));
    let algos: [&dyn AlltoallAlgorithm; 3] =
        [&PairwiseAlltoall, &NonblockingAlltoall, &BruckAlltoall];
    let mut seen = Vec::new();
    for m in Mutation::ALL {
        for algo in algos {
            let sched = AlgoSchedule::new(algo, A2AContext::new(grid.clone(), 8));
            let base = FixedSchedule::capture(&sched);
            let row = match m.apply(&base, &mut Rng::new(0xA2A0)) {
                None => "no site".to_string(),
                Some(mutant) => {
                    let data = outcome(DataExecutor::run(&mutant, seeded_fill), counters);
                    let legacy = outcome(LegacyDataExecutor::run(&mutant, seeded_fill), counters);
                    assert_eq!(data, legacy, "{m} on {}", algo.name());
                    assert_eq!(mutant.nranks(), base.nranks());
                    data
                }
            };
            seen.push(format!("{m} on {}: {row}", algo.name()));
        }
    }
    compare("mutants", &seen, MUTANTS);
}

const ROSTER: &[&str] = &[
    "pairwise 8r 4B: msgs=56 bytes=224 copy=32 fnv=0xfa1d467e4fa4259a par1=0xfa1d467e4fa4259a par3=0xfa1d467e4fa4259a comm=0xfa1d467e4fa4259a",
    "pairwise 8r 1024B: msgs=56 bytes=57344 copy=8192 fnv=0x891f0944bd68daf5 par1=0x891f0944bd68daf5 par3=0x891f0944bd68daf5 comm=0x891f0944bd68daf5",
    "nonblocking 8r 4B: msgs=56 bytes=224 copy=32 fnv=0xfa1d467e4fa4259a par1=0xfa1d467e4fa4259a par3=0xfa1d467e4fa4259a comm=0xfa1d467e4fa4259a",
    "nonblocking 8r 1024B: msgs=56 bytes=57344 copy=8192 fnv=0x891f0944bd68daf5 par1=0x891f0944bd68daf5 par3=0x891f0944bd68daf5 comm=0x891f0944bd68daf5",
    "bruck 8r 4B: msgs=24 bytes=384 copy=1280 fnv=0xfa1d467e4fa4259a par1=0xfa1d467e4fa4259a par3=0xfa1d467e4fa4259a comm=0xfa1d467e4fa4259a",
    "bruck 8r 1024B: msgs=24 bytes=98304 copy=327680 fnv=0x891f0944bd68daf5 par1=0x891f0944bd68daf5 par3=0x891f0944bd68daf5 comm=0x891f0944bd68daf5",
    "hier(ppl=4,nonblocking,linear) 8r 4B: msgs=14 bytes=512 copy=768 fnv=0xfa1d467e4fa4259a par1=0xfa1d467e4fa4259a par3=0xfa1d467e4fa4259a comm=0xfa1d467e4fa4259a",
    "hier(ppl=4,nonblocking,linear) 8r 1024B: msgs=14 bytes=131072 copy=196608 fnv=0x891f0944bd68daf5 par1=0x891f0944bd68daf5 par3=0x891f0944bd68daf5 comm=0x891f0944bd68daf5",
    "node-aware(pairwise) 8r 4B: msgs=32 bytes=320 copy=704 fnv=0xfa1d467e4fa4259a par1=0xfa1d467e4fa4259a par3=0xfa1d467e4fa4259a comm=0xfa1d467e4fa4259a",
    "node-aware(pairwise) 8r 1024B: msgs=32 bytes=81920 copy=180224 fnv=0x891f0944bd68daf5 par1=0x891f0944bd68daf5 par3=0x891f0944bd68daf5 comm=0x891f0944bd68daf5",
    "locality-aware(ppg=2,pairwise) 8r 4B: msgs=32 bytes=320 copy=704 fnv=0xfa1d467e4fa4259a par1=0xfa1d467e4fa4259a par3=0xfa1d467e4fa4259a comm=0xfa1d467e4fa4259a",
    "locality-aware(ppg=2,pairwise) 8r 1024B: msgs=32 bytes=81920 copy=180224 fnv=0x891f0944bd68daf5 par1=0x891f0944bd68daf5 par3=0x891f0944bd68daf5 comm=0x891f0944bd68daf5",
    "mlna(ppl=2,pairwise,linear) 8r 4B: msgs=16 bytes=512 copy=1280 fnv=0xfa1d467e4fa4259a par1=0xfa1d467e4fa4259a par3=0xfa1d467e4fa4259a comm=0xfa1d467e4fa4259a",
    "mlna(ppl=2,pairwise,linear) 8r 1024B: msgs=16 bytes=131072 copy=327680 fnv=0x891f0944bd68daf5 par1=0x891f0944bd68daf5 par3=0x891f0944bd68daf5 comm=0x891f0944bd68daf5",
    "mpich-shm(pairwise) 8r 4B: msgs=32 bytes=320 copy=704 fnv=0xfa1d467e4fa4259a par1=0xfa1d467e4fa4259a par3=0xfa1d467e4fa4259a comm=0xfa1d467e4fa4259a",
    "mpich-shm(pairwise) 8r 1024B: msgs=32 bytes=81920 copy=180224 fnv=0x891f0944bd68daf5 par1=0x891f0944bd68daf5 par3=0x891f0944bd68daf5 comm=0x891f0944bd68daf5",
    "pairwise 32r 4B: msgs=992 bytes=3968 copy=128 fnv=0x9e1ab47d3bc72198 par1=0x9e1ab47d3bc72198 par3=0x9e1ab47d3bc72198 comm=0x9e1ab47d3bc72198",
    "pairwise 32r 1024B: msgs=992 bytes=1015808 copy=32768 fnv=0x77916d347d536d95 par1=0x77916d347d536d95 par3=0x77916d347d536d95 comm=0x77916d347d536d95",
    "nonblocking 32r 4B: msgs=992 bytes=3968 copy=128 fnv=0x9e1ab47d3bc72198 par1=0x9e1ab47d3bc72198 par3=0x9e1ab47d3bc72198 comm=0x9e1ab47d3bc72198",
    "nonblocking 32r 1024B: msgs=992 bytes=1015808 copy=32768 fnv=0x77916d347d536d95 par1=0x77916d347d536d95 par3=0x77916d347d536d95 comm=0x77916d347d536d95",
    "bruck 32r 4B: msgs=160 bytes=10240 copy=28672 fnv=0x9e1ab47d3bc72198 par1=0x9e1ab47d3bc72198 par3=0x9e1ab47d3bc72198 comm=0x9e1ab47d3bc72198",
    "bruck 32r 1024B: msgs=160 bytes=2621440 copy=7340032 fnv=0x77916d347d536d95 par1=0x77916d347d536d95 par3=0x77916d347d536d95 comm=0x77916d347d536d95",
    "hier(ppl=8,nonblocking,linear) 32r 4B: msgs=68 bytes=10240 copy=10240 fnv=0x9e1ab47d3bc72198 par1=0x9e1ab47d3bc72198 par3=0x9e1ab47d3bc72198 comm=0x9e1ab47d3bc72198",
    "hier(ppl=8,nonblocking,linear) 32r 1024B: msgs=68 bytes=2621440 copy=2621440 fnv=0x77916d347d536d95 par1=0x77916d347d536d95 par3=0x77916d347d536d95 comm=0x77916d347d536d95",
    "node-aware(pairwise) 32r 4B: msgs=320 bytes=6656 copy=9728 fnv=0x9e1ab47d3bc72198 par1=0x9e1ab47d3bc72198 par3=0x9e1ab47d3bc72198 comm=0x9e1ab47d3bc72198",
    "node-aware(pairwise) 32r 1024B: msgs=320 bytes=1703936 copy=2490368 fnv=0x77916d347d536d95 par1=0x77916d347d536d95 par3=0x77916d347d536d95 comm=0x77916d347d536d95",
    "locality-aware(ppg=4,pairwise) 32r 4B: msgs=320 bytes=6656 copy=9728 fnv=0x9e1ab47d3bc72198 par1=0x9e1ab47d3bc72198 par3=0x9e1ab47d3bc72198 comm=0x9e1ab47d3bc72198",
    "locality-aware(ppg=4,pairwise) 32r 1024B: msgs=320 bytes=1703936 copy=2490368 fnv=0x77916d347d536d95 par1=0x77916d347d536d95 par3=0x77916d347d536d95 comm=0x77916d347d536d95",
    "mlna(ppl=4,pairwise,linear) 32r 4B: msgs=80 bytes=11264 copy=17408 fnv=0x9e1ab47d3bc72198 par1=0x9e1ab47d3bc72198 par3=0x9e1ab47d3bc72198 comm=0x9e1ab47d3bc72198",
    "mlna(ppl=4,pairwise,linear) 32r 1024B: msgs=80 bytes=2883584 copy=4456448 fnv=0x77916d347d536d95 par1=0x77916d347d536d95 par3=0x77916d347d536d95 comm=0x77916d347d536d95",
    "mpich-shm(pairwise) 32r 4B: msgs=320 bytes=6656 copy=9728 fnv=0x9e1ab47d3bc72198 par1=0x9e1ab47d3bc72198 par3=0x9e1ab47d3bc72198 comm=0x9e1ab47d3bc72198",
    "mpich-shm(pairwise) 32r 1024B: msgs=320 bytes=1703936 copy=2490368 fnv=0x77916d347d536d95 par1=0x77916d347d536d95 par3=0x77916d347d536d95 comm=0x77916d347d536d95",
];

const V_CELLS: &[&str] = &[
    "alltoallv-pairwise 8r lumpy: Ok(msgs=40 bytes=861 copy=153 fnv=0xe16a9c13175ed831)",
    "alltoallv-nonblocking 8r lumpy: Ok(msgs=40 bytes=861 copy=153 fnv=0xe16a9c13175ed831)",
    "alltoallv-node-aware 8r lumpy: Ok(msgs=32 bytes=1234 copy=2822 fnv=0xe16a9c13175ed831)",
    "alltoallv-pairwise 8r banded: Ok(msgs=32 bytes=3072 copy=2048 fnv=0x68f0f9333ce3feb4)",
    "alltoallv-nonblocking 8r banded: Ok(msgs=32 bytes=3072 copy=2048 fnv=0x68f0f9333ce3feb4)",
    "alltoallv-node-aware 8r banded: Ok(msgs=32 bytes=4096 copy=16384 fnv=0x68f0f9333ce3feb4)",
    "alltoallv-pairwise 32r lumpy: Ok(msgs=687 bytes=16532 copy=501 fnv=0xf18e895ce591c699)",
    "alltoallv-nonblocking 32r lumpy: Ok(msgs=687 bytes=16532 copy=501 fnv=0xf18e895ce591c699)",
    "alltoallv-node-aware 32r lumpy: Ok(msgs=302 bytes=27665 copy=40467 fnv=0xf18e895ce591c699)",
    "alltoallv-pairwise 32r banded: Ok(msgs=128 bytes=12288 copy=8192 fnv=0xd65fa660cc536a6e)",
    "alltoallv-nonblocking 32r banded: Ok(msgs=128 bytes=12288 copy=8192 fnv=0xd65fa660cc536a6e)",
    "alltoallv-node-aware 32r banded: Ok(msgs=144 bytes=14336 copy=67584 fnv=0xd65fa660cc536a6e)",
];

const FAULTS: &[&str] = &[
    "pairwise seed=0x7: Err(after injected faults (1 dropped, 1 duplicated, 0 corrupted): deadlock: 2 ranks blocked (rank 1 at op 21) (rank 2 at op 18))",
    "pairwise seed=0x2a: Err(after injected faults (2 dropped, 1 duplicated, 1 corrupted): deadlock: 8 ranks blocked (rank 0 at op 18) (rank 1 at op 9) (rank 2 at op 12) (rank 3 at op 15) (rank 4 at op 15) (rank 5 at op 12) (rank 6 at op 6) (rank 7 at op 12))",
    "pairwise seed=0xc0ffee: Err(after injected faults (2 dropped, 0 duplicated, 0 corrupted): deadlock: 8 ranks blocked (rank 0 at op 18) (rank 1 at op 9) (rank 2 at op 12) (rank 3 at op 15) (rank 4 at op 18) (rank 5 at op 12) (rank 6 at op 9) (rank 7 at op 15))",
    "nonblocking seed=0x7: Err(after injected faults (1 dropped, 1 duplicated, 0 corrupted): deadlock: 1 ranks blocked (rank 2 at op 15))",
    "nonblocking seed=0x2a: Err(after injected faults (5 dropped, 1 duplicated, 3 corrupted): deadlock: 4 ranks blocked (rank 1 at op 15) (rank 4 at op 15) (rank 6 at op 15) (rank 7 at op 15))",
    "nonblocking seed=0xc0ffee: Err(after injected faults (2 dropped, 0 duplicated, 0 corrupted): deadlock: 2 ranks blocked (rank 1 at op 15) (rank 6 at op 15))",
    "bruck seed=0x7: Err(after injected faults (1 dropped, 1 duplicated, 1 corrupted): deadlock: 2 ranks blocked (rank 3 at op 23) (rank 7 at op 17))",
    "bruck seed=0x2a: Err(after injected faults (1 dropped, 1 duplicated, 0 corrupted): deadlock: 2 ranks blocked (rank 1 at op 17) (rank 5 at op 23))",
    "bruck seed=0xc0ffee: Err(after injected faults (2 dropped, 1 duplicated, 0 corrupted): deadlock: 4 ranks blocked (rank 0 at op 22) (rank 1 at op 17) (rank 4 at op 17) (rank 5 at op 23))",
    "hier(ppl=4,nonblocking,linear) seed=0x7: Err(after injected faults (1 dropped, 0 duplicated, 0 corrupted): deadlock: 1 ranks blocked (rank 7 at op 3))",
    "hier(ppl=4,nonblocking,linear) seed=0x2a: Err(after injected faults (0 dropped, 3 duplicated, 0 corrupted): 3 messages sent but never received)",
    "hier(ppl=4,nonblocking,linear) seed=0xc0ffee: Err(after injected faults (2 dropped, 0 duplicated, 0 corrupted): deadlock: 8 ranks blocked (rank 0 at op 16) (rank 1 at op 3) (rank 2 at op 3) (rank 3 at op 3) (rank 4 at op 4) (rank 5 at op 3) (rank 6 at op 3) (rank 7 at op 3))",
    "node-aware(pairwise) seed=0x7: Err(after injected faults (2 dropped, 0 duplicated, 0 corrupted): deadlock: 6 ranks blocked (rank 0 at op 21) (rank 1 at op 18) (rank 4 at op 15) (rank 5 at op 21) (rank 6 at op 18) (rank 7 at op 21))",
    "node-aware(pairwise) seed=0x2a: Ok(fnv=0x46620d8f65ebdd40 FaultStats { dropped: 0, duplicated: 0, corrupted: 0 })",
    "node-aware(pairwise) seed=0xc0ffee: Err(after injected faults (2 dropped, 1 duplicated, 0 corrupted): deadlock: 5 ranks blocked (rank 0 at op 21) (rank 4 at op 15) (rank 5 at op 21) (rank 6 at op 18) (rank 7 at op 21))",
    "locality-aware(ppg=2,pairwise) seed=0x7: Err(after injected faults (0 dropped, 1 duplicated, 0 corrupted): 1 messages sent but never received)",
    "locality-aware(ppg=2,pairwise) seed=0x2a: Err(after injected faults (1 dropped, 0 duplicated, 0 corrupted): deadlock: 2 ranks blocked (rank 0 at op 21) (rank 1 at op 9))",
    "locality-aware(ppg=2,pairwise) seed=0xc0ffee: Err(after injected faults (1 dropped, 1 duplicated, 0 corrupted): deadlock: 1 ranks blocked (rank 0 at op 21))",
    "mlna(ppl=2,pairwise,linear) seed=0x7: Ok(fnv=0x46620d8f65ebdd40 FaultStats { dropped: 0, duplicated: 0, corrupted: 0 })",
    "mlna(ppl=2,pairwise,linear) seed=0x2a: Err(after injected faults (0 dropped, 2 duplicated, 0 corrupted): 2 messages sent but never received)",
    "mlna(ppl=2,pairwise,linear) seed=0xc0ffee: Err(after injected faults (1 dropped, 1 duplicated, 0 corrupted): deadlock: 8 ranks blocked (rank 0 at op 10) (rank 1 at op 3) (rank 2 at op 22) (rank 3 at op 3) (rank 4 at op 2) (rank 5 at op 3) (rank 6 at op 22) (rank 7 at op 3))",
    "mpich-shm(pairwise) seed=0x7: Err(after injected faults (2 dropped, 0 duplicated, 0 corrupted): deadlock: 8 ranks blocked (rank 0 at op 17) (rank 1 at op 14) (rank 2 at op 29) (rank 3 at op 29) (rank 4 at op 11) (rank 5 at op 17) (rank 6 at op 14) (rank 7 at op 17))",
    "mpich-shm(pairwise) seed=0x2a: Ok(fnv=0x46620d8f65ebdd40 FaultStats { dropped: 0, duplicated: 0, corrupted: 0 })",
    "mpich-shm(pairwise) seed=0xc0ffee: Err(after injected faults (2 dropped, 1 duplicated, 0 corrupted): deadlock: 8 ranks blocked (rank 0 at op 17) (rank 1 at op 29) (rank 2 at op 29) (rank 3 at op 29) (rank 4 at op 11) (rank 5 at op 17) (rank 6 at op 14) (rank 7 at op 17))",
];

const MUTANTS: &[&str] = &[
    "drop-recv on pairwise: Err(deadlock: 1 ranks blocked (rank 3 at op 8))",
    "drop-recv on nonblocking: Err(deadlock: 1 ranks blocked (rank 3 at op 6))",
    "drop-recv on bruck: Err(deadlock: 1 ranks blocked (rank 3 at op 11))",
    "retag-send on pairwise: Err(deadlock: 1 ranks blocked (rank 2 at op 9))",
    "retag-send on nonblocking: Err(deadlock: 1 ranks blocked (rank 2 at op 7))",
    "retag-send on bruck: Err(deadlock: 1 ranks blocked (rank 1 at op 12))",
    "shrink-waitall on pairwise: Ok(msgs=12 bytes=96 copy=32 fnv=0x6c0362ea8293169b)",
    "shrink-waitall on nonblocking: Ok(msgs=12 bytes=96 copy=32 fnv=0x6c0362ea8293169b)",
    "shrink-waitall on bruck: Ok(msgs=8 bytes=128 copy=512 fnv=0x6c0362ea8293169b)",
    "oversize-block on pairwise: Err(rank 2: access to byte 64 of buffer 0 (size 32))",
    "oversize-block on nonblocking: Err(rank 2: access to byte 64 of buffer 0 (size 32))",
    "oversize-block on bruck: Err(rank 1: access to byte 64 of buffer 2 (size 32))",
    "overlap-copy on pairwise: Ok(msgs=12 bytes=96 copy=32 fnv=0x08cf39375ead807c)",
    "overlap-copy on nonblocking: Ok(msgs=12 bytes=96 copy=32 fnv=0x08cf39375ead807c)",
    "overlap-copy on bruck: Ok(msgs=8 bytes=128 copy=512 fnv=0x203913b6025ad4e7)",
    "sequentialize-sendrecv on pairwise: Ok(msgs=12 bytes=96 copy=32 fnv=0x6c0362ea8293169b)",
    "sequentialize-sendrecv on nonblocking: no site",
    "sequentialize-sendrecv on bruck: Ok(msgs=8 bytes=128 copy=512 fnv=0x6c0362ea8293169b)",
    "alias-copy-into-pending-send on pairwise: Ok(msgs=12 bytes=96 copy=40 fnv=0x6c0362ea8293169b)",
    "alias-copy-into-pending-send on nonblocking: Ok(msgs=12 bytes=96 copy=40 fnv=0x6c0362ea8293169b)",
    "alias-copy-into-pending-send on bruck: Ok(msgs=8 bytes=128 copy=528 fnv=0x6c0362ea8293169b)",
    "overlap-pending-recvs on pairwise: no site",
    "overlap-pending-recvs on nonblocking: Ok(msgs=12 bytes=96 copy=32 fnv=0xa2dc2b6832cc0717)",
    "overlap-pending-recvs on bruck: no site",
    "split-message-same-tag on pairwise: Ok(msgs=13 bytes=96 copy=32 fnv=0x6c0362ea8293169b)",
    "split-message-same-tag on nonblocking: Ok(msgs=13 bytes=96 copy=32 fnv=0x6c0362ea8293169b)",
    "split-message-same-tag on bruck: Ok(msgs=9 bytes=128 copy=512 fnv=0x6c0362ea8293169b)",
    "read-pending-recv on pairwise: Ok(msgs=12 bytes=96 copy=40 fnv=0x6c0362ea8293169b)",
    "read-pending-recv on nonblocking: Ok(msgs=12 bytes=96 copy=40 fnv=0x6c0362ea8293169b)",
    "read-pending-recv on bruck: Ok(msgs=8 bytes=128 copy=528 fnv=0x6c0362ea8293169b)",
    "swap-send-source on pairwise: Ok(msgs=12 bytes=96 copy=32 fnv=0xe8a6263cee11526f)",
    "swap-send-source on nonblocking: Ok(msgs=12 bytes=96 copy=32 fnv=0xe8a6263cee11526f)",
    "swap-send-source on bruck: no site",
    "drop-block on pairwise: Ok(msgs=12 bytes=96 copy=24 fnv=0x08cf39375ead807c)",
    "drop-block on nonblocking: Ok(msgs=12 bytes=96 copy=24 fnv=0x08cf39375ead807c)",
    "drop-block on bruck: Ok(msgs=8 bytes=128 copy=504 fnv=0x63146863a921e287)",
    "double-delivery-clobber on pairwise: Ok(msgs=13 bytes=104 copy=32 fnv=0xb0d81aca22f20543)",
    "double-delivery-clobber on nonblocking: Ok(msgs=13 bytes=104 copy=32 fnv=0xb0d81aca22f20543)",
    "double-delivery-clobber on bruck: no site",
    "dead-code-transfer on pairwise: Ok(msgs=13 bytes=104 copy=32 fnv=0x6c0362ea8293169b)",
    "dead-code-transfer on nonblocking: Ok(msgs=13 bytes=104 copy=32 fnv=0x6c0362ea8293169b)",
    "dead-code-transfer on bruck: Ok(msgs=9 bytes=136 copy=512 fnv=0x6c0362ea8293169b)",
];
