//! The static analyzer, end to end: the algorithm roster must come back
//! completely clean — safety passes *and* semantics prover — on every
//! topology preset, every diagnostic code must be demonstrable on a
//! hand-built bad schedule, and seeded mutations of known-good schedules
//! must always be flagged with the expected code. The semantic mutations
//! additionally prove the separation claim: they are invisible to the
//! safety passes alone and only the dataflow prover catches them.

use a2a_testutil::{FixedSchedule, Mutation, Rng};
use alltoall_suite::algos::alltoallv::{
    AlltoallvAlgorithm, CountsFn, NodeAwareAlltoallv, NonblockingAlltoallv, PairwiseAlltoallv,
    VContext, VSchedule,
};
use alltoall_suite::algos::*;
use alltoall_suite::lint::{analyze_schedule, lint_schedule, Code, LintConfig, LintReport};
use alltoall_suite::sched::analysis::SemanticsSpec;
use alltoall_suite::sched::{
    validate, Block, Bytes, Op, Phase, ProgBuilder, RankProgram, ScheduleSource, TimedOp,
    ValidationError, RBUF, SBUF,
};
use alltoall_suite::topo::{Machine, ProcGrid};
use std::sync::Arc;

/// The paper's eight-algorithm roster (group sizes divide every preset's
/// ppn below).
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

/// Topology presets: flat bench grid, the scaled dane/amber shape, and the
/// scaled tuolumne shape (matching the `repro lint` sweep).
fn presets() -> Vec<ProcGrid> {
    vec![
        ProcGrid::new(Machine::custom("bench", 2, 2, 1, 2)),
        ProcGrid::new(Machine::custom("dane", 2, 2, 4, 4)),
        ProcGrid::new(Machine::custom("tuolumne", 2, 4, 1, 8)),
    ]
}

fn lint_fixed(f: &FixedSchedule, cfg: &LintConfig) -> LintReport {
    let grid = ProcGrid::new(Machine::custom("t", 1, 1, 1, f.nranks()));
    lint_schedule("fixed", f, &grid, cfg)
}

fn fixed(progs: Vec<RankProgram>, bufsize: Bytes) -> FixedSchedule {
    let n = progs.len();
    FixedSchedule {
        progs,
        buffers: vec![vec![bufsize, bufsize]; n],
        phase_names: vec!["all"],
    }
}

// ---------------------------------------------------------------- clean bill

#[test]
fn roster_is_clean_on_every_preset() {
    // Full analysis: safety passes plus the dataflow prover against the
    // declared alltoall semantics. Clean means every output byte proved
    // present, correctly sourced, unclobbered, and no transfer was dead.
    let cfg = LintConfig::default();
    for grid in presets() {
        for algo in roster() {
            for bytes in [4u64, 256, 4096] {
                let sched = AlgoSchedule::new(algo.as_ref(), A2AContext::new(grid.clone(), bytes));
                let spec = SemanticsSpec::alltoall(grid.world_size(), bytes);
                let report = analyze_schedule(
                    format!("{} block={bytes}", algo.name()),
                    &sched,
                    &grid,
                    &cfg,
                    Some(&spec),
                );
                assert!(
                    report.is_clean(),
                    "{} on {} ranks, block {bytes}:\n{}",
                    algo.name(),
                    grid.world_size(),
                    report.render_text()
                );
            }
        }
    }
}

#[test]
fn v_roster_proves_clean_on_lumpy_profiles() {
    // The prover against the MPI_Alltoallv contract: lumpy asymmetric
    // counts, a banded profile, and a profile with entire zero rows (rank
    // 0 sends nothing anywhere, rank 1 receives nothing from anyone).
    let grid = ProcGrid::new(Machine::custom("v", 2, 2, 1, 2)); // 8 ranks
    let n = grid.world_size();
    let profiles: Vec<(&str, CountsFn)> = vec![
        (
            "lumpy",
            Arc::new(|s: u32, d: u32| (s as u64 * 31 + d as u64 * 17) % 13),
        ),
        (
            "banded",
            Arc::new(move |s: u32, d: u32| {
                if (s as i64 - d as i64).abs() <= 1 {
                    64
                } else {
                    0
                }
            }),
        ),
        (
            "zero-rows",
            Arc::new(|s: u32, d: u32| {
                if s == 0 || d == 1 {
                    0
                } else {
                    8 * (1 + (s + d) as u64 % 3)
                }
            }),
        ),
    ];
    for (name, counts) in profiles {
        for algo in [
            Box::new(PairwiseAlltoallv) as Box<dyn AlltoallvAlgorithm>,
            Box::new(NonblockingAlltoallv),
            Box::new(NodeAwareAlltoallv),
        ] {
            let sched = VSchedule::new(algo.as_ref(), VContext::new(grid.clone(), counts.clone()));
            let spec = SemanticsSpec::alltoallv(n, &|s, d| counts(s, d));
            let report = analyze_schedule(
                format!("{}[{name}]", algo.name()),
                &sched,
                &grid,
                &LintConfig::default(),
                Some(&spec),
            );
            assert!(
                report.is_clean(),
                "{}[{name}]:\n{}",
                algo.name(),
                report.render_text()
            );
        }
    }
}

// ------------------------------------------------- one bad schedule per code

#[test]
fn a2a000_flags_malformed_schedule() {
    let mut b = ProgBuilder::new(Phase(0));
    b.send(1, Block::new(SBUF, 0, 8), 0); // no matching receive
    let r = lint_fixed(
        &fixed(vec![b.finish(), RankProgram::default()], 8),
        &LintConfig::default(),
    );
    assert!(r.has(Code::Malformed), "{}", r.render_text());
    assert_eq!(r.errors(), 1);
}

/// A 2-rank schedule whose rank 0 runs the single op `op` (rank 1 idles),
/// with 16-byte buffers: validated directly and through the linter.
fn validate_and_lint_one_op(op: Op) -> (Result<(), ValidationError>, LintReport) {
    let p0 = RankProgram {
        ops: vec![TimedOp {
            op,
            phase: Phase(0),
        }],
        n_reqs: 0,
    };
    let f = fixed(vec![p0, RankProgram::default()], 16);
    let grid = ProcGrid::new(Machine::custom("t", 1, 1, 1, 2));
    (
        validate(&f, &grid).map(|_| ()),
        lint_fixed(&f, &LintConfig::default()),
    )
}

#[test]
fn a2a000_flags_block_whose_end_overflows() {
    // `off + len` wraps to 4: unchecked, a release build accepts the block
    // as inside the 16-byte buffer and a debug build panics on the add.
    let src = Block::new(SBUF, u64::MAX - 3, 8);
    let (validated, r) = validate_and_lint_one_op(Op::Copy {
        src,
        dst: Block::new(RBUF, 0, 8),
    });
    assert_eq!(
        validated,
        Err(ValidationError::BadBlock {
            rank: 0,
            block: src,
            bufsize: Some(16)
        })
    );
    assert!(r.has(Code::Malformed), "{}", r.render_text());
    assert_eq!(r.errors(), 1);
}

#[test]
fn a2a000_flags_wait_range_that_overflows() {
    // `first_req + count` wraps to 1: unchecked, a release build sees the
    // empty range `MAX..1` and accepts a wait on requests that do not exist.
    let (validated, r) = validate_and_lint_one_op(Op::WaitAll {
        first_req: u32::MAX,
        count: 2,
    });
    assert_eq!(
        validated,
        Err(ValidationError::BadRequest {
            rank: 0,
            req: u32::MAX
        })
    );
    assert!(r.has(Code::Malformed), "{}", r.render_text());
    assert_eq!(r.errors(), 1);
}

#[test]
fn a2a001_flags_head_to_head_blocking_sends() {
    let progs = (0..2u32)
        .map(|me| {
            let peer = 1 - me;
            let mut b = ProgBuilder::new(Phase(0));
            b.send(peer, Block::new(SBUF, 0, 8), 0);
            b.recv(peer, Block::new(RBUF, 0, 8), 0);
            b.finish()
        })
        .collect();
    let r = lint_fixed(&fixed(progs, 8), &LintConfig::default());
    assert!(r.has(Code::Deadlock), "{}", r.render_text());
    let d = r.diags.iter().find(|d| d.code == Code::Deadlock).unwrap();
    assert!(!d.notes.is_empty(), "cycle chain is rendered");
}

#[test]
fn a2a002_flags_write_into_pending_send_source() {
    let mut b0 = ProgBuilder::new(Phase(0));
    let s = b0.isend(1, Block::new(SBUF, 0, 8), 0);
    b0.copy(Block::new(RBUF, 0, 8), Block::new(SBUF, 0, 8));
    b0.waitall(s, 1);
    let mut b1 = ProgBuilder::new(Phase(0));
    b1.recv(0, Block::new(RBUF, 0, 8), 0);
    let r = lint_fixed(
        &fixed(vec![b0.finish(), b1.finish()], 8),
        &LintConfig::default(),
    );
    assert!(r.has(Code::UnstableSend), "{}", r.render_text());
}

#[test]
fn a2a003_flags_overlapping_pending_receives() {
    let mut b0 = ProgBuilder::new(Phase(0));
    let first = b0.irecv(1, Block::new(RBUF, 0, 8), 0);
    b0.irecv(1, Block::new(RBUF, 4, 8), 1);
    b0.waitall(first, 2);
    let mut b1 = ProgBuilder::new(Phase(0));
    b1.send(0, Block::new(SBUF, 0, 8), 0);
    b1.send(0, Block::new(SBUF, 0, 8), 1);
    let r = lint_fixed(
        &fixed(vec![b0.finish(), b1.finish()], 16),
        &LintConfig::default(),
    );
    assert!(r.has(Code::RecvRace), "{}", r.render_text());
}

#[test]
fn a2a004_flags_concurrent_same_channel_messages() {
    let mut b0 = ProgBuilder::new(Phase(0));
    let s = b0.isend(1, Block::new(SBUF, 0, 4), 9);
    b0.isend(1, Block::new(SBUF, 4, 4), 9);
    b0.waitall(s, 2);
    let mut b1 = ProgBuilder::new(Phase(0));
    let rr = b1.irecv(0, Block::new(RBUF, 0, 4), 9);
    b1.irecv(0, Block::new(RBUF, 4, 4), 9);
    b1.waitall(rr, 2);
    let r = lint_fixed(
        &fixed(vec![b0.finish(), b1.finish()], 8),
        &LintConfig::default(),
    );
    assert!(r.has(Code::ChannelOrder), "{}", r.render_text());
    assert_eq!(r.errors(), 0, "FIFO reliance is a warning, not an error");
}

#[test]
fn a2a005_flags_send_window_pressure() {
    let n = 6u32;
    let mut b0 = ProgBuilder::new(Phase(0));
    let first = b0.req_mark();
    for k in 0..n {
        b0.isend(1, Block::new(SBUF, k as Bytes * 4, 4), k);
    }
    b0.waitall(first, n);
    let mut b1 = ProgBuilder::new(Phase(0));
    let firstr = b1.req_mark();
    for k in 0..n {
        b1.irecv(0, Block::new(RBUF, k as Bytes * 4, 4), k);
    }
    b1.waitall(firstr, n);
    let f = fixed(vec![b0.finish(), b1.finish()], 24);
    let cfg = LintConfig {
        send_window: 4,
        ..Default::default()
    };
    let r = lint_fixed(&f, &cfg);
    assert!(r.has(Code::SendWindow), "{}", r.render_text());
    // The same burst sits inside the default window.
    let r = lint_fixed(&f, &LintConfig::default());
    assert!(r.is_clean(), "{}", r.render_text());
}

#[test]
fn a2a006_flags_read_of_pending_receive_destination() {
    let mut b0 = ProgBuilder::new(Phase(0));
    let rr = b0.irecv(1, Block::new(RBUF, 0, 8), 0);
    b0.copy(Block::new(RBUF, 0, 8), Block::new(SBUF, 0, 8));
    b0.waitall(rr, 1);
    let mut b1 = ProgBuilder::new(Phase(0));
    b1.send(0, Block::new(SBUF, 0, 8), 0);
    let r = lint_fixed(
        &fixed(vec![b0.finish(), b1.finish()], 8),
        &LintConfig::default(),
    );
    assert!(r.has(Code::UnstableRead), "{}", r.render_text());
}

/// Run the full analysis of a 2-rank fixed schedule against the alltoall
/// semantics (block = 8, so each rank's receive buffer expects its own
/// block at 0 and the peer's at 8).
fn analyze_fixed(f: &FixedSchedule, block: Bytes) -> LintReport {
    let grid = ProcGrid::new(Machine::custom("t", 1, 1, 1, f.nranks()));
    let spec = SemanticsSpec::alltoall(f.nranks(), block);
    analyze_schedule("fixed", f, &grid, &LintConfig::default(), Some(&spec))
}

#[test]
fn a2a007_flags_wrong_source_byte() {
    // Both ranks send the block addressed to *themselves* instead of the
    // peer's block: every exchanged byte lands with wrong provenance.
    let progs = (0..2u32)
        .map(|me| {
            let peer = 1 - me;
            let mut b = ProgBuilder::new(Phase(0));
            b.copy(
                Block::new(SBUF, me as Bytes * 8, 8),
                Block::new(RBUF, me as Bytes * 8, 8),
            );
            b.sendrecv(
                peer,
                Block::new(SBUF, me as Bytes * 8, 8), // should be peer's block
                0,
                peer,
                Block::new(RBUF, peer as Bytes * 8, 8),
                0,
            );
            b.finish()
        })
        .collect();
    let r = analyze_fixed(&fixed(progs, 16), 8);
    assert!(r.has(Code::WrongSource), "{}", r.render_text());
    assert!(r.errors() > 0);
    // The correctly-routed version of the same shape proves clean.
    let r = analyze_fixed(&fixed(two_rank_exchange_correct(), 16), 8);
    assert!(r.is_clean(), "{}", r.render_text());
}

/// A correct 2-rank alltoall: self copy plus one exchanged message.
fn two_rank_exchange_correct() -> Vec<RankProgram> {
    (0..2u32)
        .map(|me| {
            let peer = 1 - me;
            let mut b = ProgBuilder::new(Phase(0));
            b.copy(
                Block::new(SBUF, me as Bytes * 8, 8),
                Block::new(RBUF, me as Bytes * 8, 8),
            );
            b.sendrecv(
                peer,
                Block::new(SBUF, peer as Bytes * 8, 8),
                0,
                peer,
                Block::new(RBUF, peer as Bytes * 8, 8),
                0,
            );
            b.finish()
        })
        .collect()
}

#[test]
fn a2a008_flags_missing_byte() {
    // The self block is never copied into the receive buffer: those bytes
    // end the schedule unwritten.
    let progs = (0..2u32)
        .map(|me| {
            let peer = 1 - me;
            let mut b = ProgBuilder::new(Phase(0));
            b.sendrecv(
                peer,
                Block::new(SBUF, peer as Bytes * 8, 8),
                0,
                peer,
                Block::new(RBUF, peer as Bytes * 8, 8),
                0,
            );
            b.finish()
        })
        .collect();
    let r = analyze_fixed(&fixed(progs, 16), 8);
    assert!(r.has(Code::MissingByte), "{}", r.render_text());
    assert!(r.errors() > 0);
}

#[test]
fn a2a009_flags_clobbered_byte() {
    // After the correct exchange, rank 0 overwrites the peer block in its
    // receive buffer with its own (differently-sourced) bytes.
    let mut progs = two_rank_exchange_correct();
    let mut b = ProgBuilder::new(Phase(0));
    b.copy(Block::new(SBUF, 0, 8), Block::new(RBUF, 8, 8));
    let extra = b.finish();
    progs[0].ops.extend(extra.ops);
    let r = analyze_fixed(&fixed(progs, 16), 8);
    assert!(r.has(Code::ClobberedByte), "{}", r.render_text());
    assert!(r.errors() > 0);
}

#[test]
fn a2a010_flags_redundant_transfer() {
    // A second, never-read message rides alongside the correct exchange:
    // delivered into scratch, contributing to no output byte.
    let progs = (0..2u32)
        .map(|me| {
            let peer = 1 - me;
            let mut b = ProgBuilder::new(Phase(0));
            b.copy(
                Block::new(SBUF, me as Bytes * 8, 8),
                Block::new(RBUF, me as Bytes * 8, 8),
            );
            b.sendrecv(
                peer,
                Block::new(SBUF, peer as Bytes * 8, 8),
                0,
                peer,
                Block::new(RBUF, peer as Bytes * 8, 8),
                0,
            );
            b.sendrecv(
                peer,
                Block::new(SBUF, 0, 8),
                1,
                peer,
                Block::new(alltoall_suite::sched::TMP0, 0, 8),
                1,
            );
            b.finish()
        })
        .collect();
    let n = 2;
    let f = FixedSchedule {
        progs,
        buffers: vec![vec![16, 16, 8]; n],
        phase_names: vec!["all"],
    };
    let r = analyze_fixed(&f, 8);
    assert!(r.has(Code::RedundantTransfer), "{}", r.render_text());
    assert_eq!(r.errors(), 0, "a dead transfer is a warning, not an error");
}

// ------------------------------------------------------------ mutation suite

/// Bases rich enough that every mutation finds a site in at least one:
/// pairwise (sendrecv triples + copies), nonblocking (all requests posted
/// upfront), Bruck (copies + sendrecv rings).
fn mutation_bases() -> Vec<(String, FixedSchedule, ProcGrid)> {
    let grid = ProcGrid::new(Machine::custom("mut", 2, 1, 1, 2)); // 4 ranks
    let algos: Vec<Box<dyn AlltoallAlgorithm>> = vec![
        Box::new(PairwiseAlltoall),
        Box::new(NonblockingAlltoall),
        Box::new(BruckAlltoall),
    ];
    algos
        .into_iter()
        .map(|a| {
            let sched = AlgoSchedule::new(a.as_ref(), A2AContext::new(grid.clone(), 8));
            (a.name(), FixedSchedule::capture(&sched), grid.clone())
        })
        .collect()
}

#[test]
fn every_mutation_is_caught_with_its_expected_code() {
    // The *full* analysis — safety passes plus prover — catches all 14
    // mutation classes with their expected code.
    let bases = mutation_bases();
    let cfg = LintConfig::default();
    for m in Mutation::ALL {
        let expected = m.expected_code();
        let mut applied = 0usize;
        for (name, base, grid) in &bases {
            let spec = SemanticsSpec::alltoall(grid.world_size(), 8);
            for seed in 0..5u64 {
                let mut rng = Rng::new(0xA2A0 + seed);
                let Some(mutant) = m.apply(base, &mut rng) else {
                    continue;
                };
                applied += 1;
                let report = analyze_schedule(
                    format!("{m} on {name} seed {seed}"),
                    &mutant,
                    grid,
                    &cfg,
                    Some(&spec),
                );
                assert!(
                    report.diags.iter().any(|d| d.code.as_str() == expected),
                    "{m} on {name} (seed {seed}) must be flagged {expected}, got:\n{}",
                    report.render_text()
                );
            }
        }
        assert!(
            applied > 0,
            "{m} never found an applicable site — silent pass"
        );
    }
}

#[test]
fn semantic_mutants_are_invisible_to_safety_passes_alone() {
    // The separation claim behind A2A007–A2A010: every semantic mutant is
    // a *valid, safety-clean* schedule — only the dataflow prover sees
    // that the bytes are wrong.
    let bases = mutation_bases();
    let cfg = LintConfig::default();
    for m in Mutation::SEMANTIC {
        let mut applied = 0usize;
        for (name, base, grid) in &bases {
            for seed in 0..5u64 {
                let mut rng = Rng::new(0xA2A0 + seed);
                let Some(mutant) = m.apply(base, &mut rng) else {
                    continue;
                };
                applied += 1;
                let report =
                    lint_schedule(format!("{m} on {name} seed {seed}"), &mutant, grid, &cfg);
                assert!(
                    report.is_clean(),
                    "{m} on {name} (seed {seed}) tripped a safety pass:\n{}",
                    report.render_text()
                );
            }
        }
        assert!(
            applied > 0,
            "{m} never found an applicable site — silent pass"
        );
    }
}

#[test]
fn merged_report_orders_deterministically() {
    // Build a mutant carrying both safety and semantic findings, analyze
    // twice, and require byte-identical, (code, rank, op)-sorted JSON.
    let bases = mutation_bases();
    let (name, base, grid) = &bases[0];
    let spec = SemanticsSpec::alltoall(grid.world_size(), 8);
    let cfg = LintConfig::default();
    let mut rng = Rng::new(3);
    let mutant = Mutation::SwapSendSource
        .apply(base, &mut rng)
        .expect("pairwise has swappable sends");
    let a = analyze_schedule(name.clone(), &mutant, grid, &cfg, Some(&spec));
    let b = analyze_schedule(name.clone(), &mutant, grid, &cfg, Some(&spec));
    assert_eq!(a.render_json(), b.render_json());
    let keys: Vec<_> = a.diags.iter().map(|d| (d.code, d.rank, d.op)).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "diagnostic stream is not canonically sorted");
}

#[test]
fn unmutated_bases_are_clean() {
    // The mutation suite proves nothing if the bases themselves are dirty.
    let cfg = LintConfig::default();
    for (name, base, grid) in &mutation_bases() {
        let report = lint_schedule(name.clone(), base, grid, &cfg);
        assert!(report.is_clean(), "{name}:\n{}", report.render_text());
    }
}

#[test]
fn mutants_fail_where_the_roster_passes_json_roundtrip() {
    // The JSON rendering carries the mutant's code (what CI archives).
    let bases = mutation_bases();
    let (_, base, grid) = &bases[0];
    let mut rng = Rng::new(1);
    let mutant = Mutation::SequentializeSendrecv
        .apply(base, &mut rng)
        .expect("pairwise has sendrecv triples");
    let report = lint_schedule("mutant", &mutant, grid, &LintConfig::default());
    let json = report.render_json();
    assert!(json.contains("\"code\":\"A2A001\""), "{json}");
    assert!(report.errors() > 0);
}
