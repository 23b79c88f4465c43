//! The matched-schedule table (`a2a_sched::Matched`) and its walk: the one
//! place the static rule "the k-th send on a channel pairs with the k-th
//! receive" is implemented, and the one order every analysis visits ops in.
//! Each test is written against the obvious wrong implementation.

use a2a_testutil::FixedSchedule;
use alltoall_suite::algos::*;
use alltoall_suite::lint::{analyze_schedule, LintConfig};
use alltoall_suite::netsim::{crit_params, models};
use alltoall_suite::sched::analysis::{critical_path, prove_schedule, ExpectSeg, SemanticsSpec};
use alltoall_suite::sched::{
    Block, Bytes, Matched, Op, Phase, ProgBuilder, RankProgram, TimedOp, RBUF, SBUF,
};
use alltoall_suite::topo::{Machine, ProcGrid, Rank};

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

fn presets() -> Vec<ProcGrid> {
    vec![
        ProcGrid::new(Machine::custom("bench", 2, 2, 1, 2)),
        ProcGrid::new(Machine::custom("dane", 2, 2, 4, 4)),
        ProcGrid::new(Machine::custom("tuolumne", 2, 4, 1, 8)),
    ]
}

/// Run `check` on the matched form of every roster algorithm on every
/// preset.
fn for_each_roster_cell(check: impl Fn(&str, &Matched<'_>)) {
    for grid in presets() {
        for algo in roster() {
            let sched = AlgoSchedule::new(algo.as_ref(), A2AContext::new(grid.clone(), 64));
            let what = format!("{} on {} ranks", algo.name(), grid.world_size());
            let matched = Matched::build(&sched).unwrap_or_else(|e| panic!("{what}: {e}"));
            check(&what, &matched);
        }
    }
}

fn fixed(progs: Vec<RankProgram>, bufsize: Bytes) -> FixedSchedule {
    let n = progs.len();
    FixedSchedule {
        progs,
        buffers: vec![vec![bufsize, bufsize]; n],
        phase_names: vec!["all"],
    }
}

/// Every `(rank, op)` the walk visits, in order, and whether it finished.
fn walk_order(m: &Matched<'_>) -> (Vec<(Rank, usize)>, bool) {
    let mut order = Vec::new();
    let finished = m.walk(|rank, op| order.push((rank, op)));
    (order, finished)
}

#[test]
fn partner_of_partner_is_the_op_itself() {
    for_each_roster_cell(|what, m| {
        let mut messages = 0;
        for rank in 0..m.nranks() as Rank {
            for (i, top) in m.prog(rank).ops.iter().enumerate() {
                let peer = m.partner(rank, i);
                match top.op {
                    Op::Isend { to, block, tag, .. } => {
                        let (r, j) = peer.unwrap_or_else(|| panic!("{what}: unmatched send"));
                        assert_eq!(r, to, "{what}: send matched on the wrong rank");
                        assert_eq!(m.partner(r, j), Some((rank, i)), "{what}: not mutual");
                        assert!(
                            matches!(m.prog(r).ops[j].op, Op::Irecv { from, block: rb, tag: t, .. }
                                if from == rank && t == tag && rb.len == block.len),
                            "{what}: rank {rank} op {i} matched with {:?}",
                            m.prog(r).ops[j].op
                        );
                        messages += 1;
                    }
                    Op::Irecv { .. } => {
                        let (r, j) = peer.unwrap_or_else(|| panic!("{what}: unmatched receive"));
                        assert_eq!(m.partner(r, j), Some((rank, i)), "{what}: not mutual");
                    }
                    Op::Copy { .. } | Op::WaitAll { .. } => {
                        assert_eq!(peer, None, "{what}: a local op has a peer")
                    }
                }
            }
        }
        assert!(messages > 0, "{what}: no messages");
    });
}

#[test]
fn walk_visits_every_op_once_in_a_runnable_order() {
    for_each_roster_cell(|what, m| {
        let (order, finished) = walk_order(m);
        assert!(finished, "{what}: roster schedule left ranks blocked");
        // Position of every op in the walk; every op exactly once.
        let mut at: Vec<Vec<Option<usize>>> = (0..m.nranks() as Rank)
            .map(|r| vec![None; m.prog(r).ops.len()])
            .collect();
        for (pos, &(rank, op)) in order.iter().enumerate() {
            assert!(
                at[rank as usize][op].replace(pos).is_none(),
                "{what}: rank {rank} op {op} visited twice"
            );
        }
        for rank in 0..m.nranks() as Rank {
            let positions: Vec<usize> = at[rank as usize]
                .iter()
                .map(|p| p.unwrap_or_else(|| panic!("{what}: rank {rank} has an unvisited op")))
                .collect();
            assert!(
                positions.windows(2).all(|w| w[0] < w[1]),
                "{what}: rank {rank} visited out of program order"
            );
            for (i, top) in m.prog(rank).ops.iter().enumerate() {
                let Op::WaitAll { first_req, count } = top.op else {
                    continue;
                };
                for req in first_req..first_req + count {
                    let post = m.post_op(rank, req);
                    assert!(m.first_wait(rank, req) <= i, "{what}: first cover is later");
                    if let Op::Irecv { .. } = m.prog(rank).ops[post].op {
                        let (sender, send) = m.partner(rank, post).unwrap();
                        assert!(
                            at[sender as usize][send] < at[rank as usize][i],
                            "{what}: rank {rank} wait {i} visited before its send"
                        );
                    }
                }
            }
        }
    });
}

#[test]
fn recv_first_head_to_head_leaves_the_blocked_waits_unvisited() {
    // Both ranks block on a receive before posting their send: a deadlock
    // even with eager sends. The walk must stop, not spin or run past it.
    let progs = (0..2u32)
        .map(|me| {
            let mut b = ProgBuilder::new(Phase(0));
            b.copy(Block::new(SBUF, 8, 8), Block::new(RBUF, 8, 8));
            b.recv(1 - me, Block::new(RBUF, 0, 8), 0); // ops 1, 2
            b.send(1 - me, Block::new(SBUF, 0, 8), 0); // ops 3, 4
            b.finish()
        })
        .collect();
    let f = fixed(progs, 16);
    let m = Matched::build(&f).expect("structurally valid");
    let (order, finished) = walk_order(&m);
    assert!(!finished);
    // Each rank ran up to its blocked wait (op 2) and not one op further.
    assert_eq!(order, [(0, 0), (0, 1), (1, 0), (1, 1)]);
    assert!(prove_schedule(&m, &SemanticsSpec::alltoall(2, 8)).stuck);
}

#[test]
fn kth_send_pairs_with_kth_receive_whatever_the_ids_and_wait_order() {
    // Two messages on one channel. The sender completes them in reverse
    // (waits the second send first); the receiver's request ids run against
    // its posting order and it, too, waits the later-posted receive first.
    // Matching is by posting order alone: first send <-> first receive.
    let op = |op| TimedOp {
        op,
        phase: Phase(0),
    };
    let wait = |req| {
        op(Op::WaitAll {
            first_req: req,
            count: 1,
        })
    };
    let send = |off, req| {
        op(Op::Isend {
            to: 1,
            block: Block::new(SBUF, off, 8),
            tag: 7,
            req,
        })
    };
    let recv = |off, req| {
        op(Op::Irecv {
            from: 0,
            block: Block::new(RBUF, off, 8),
            tag: 7,
            req,
        })
    };
    let p0 = RankProgram {
        ops: vec![send(8, 0), send(0, 1), wait(1), wait(0)],
        n_reqs: 2,
    };
    let p1 = RankProgram {
        ops: vec![recv(0, 1), recv(8, 0), wait(0), wait(1)],
        n_reqs: 2,
    };
    let f = fixed(vec![p0, p1], 16);
    let m = Matched::build(&f).expect("structurally valid");
    assert_eq!(m.partner(0, 0), Some((1, 0)));
    assert_eq!(m.partner(0, 1), Some((1, 1)));
    assert_eq!(m.partner(1, 0), Some((0, 0)));
    assert_eq!(m.partner(1, 1), Some((0, 1)));
    assert_eq!((m.post_op(1, 1), m.first_wait(1, 1)), (0, 3));
    assert_eq!((m.post_op(1, 0), m.first_wait(1, 0)), (1, 2));
    // Rank 1's wait at op 2 completes the receive posted at op 1, fed by
    // rank 0's second send — not the first receive, not the first send.
    assert_eq!(m.arrivals(1, 2).collect::<Vec<_>>(), [(1, (0, 1))]);
    assert_eq!(m.arrivals(1, 3).collect::<Vec<_>>(), [(0, (0, 0))]);
    // The bytes agree: rank 1's rbuf[0..8) is rank 0's sbuf[8..16) and
    // rbuf[8..16) its sbuf[0..8); pairing the other way swaps them.
    let spec = SemanticsSpec {
        name: "two-on-one-channel",
        expected: vec![
            Vec::new(),
            [(0, 8), (8, 0)]
                .into_iter()
                .map(|(dst_off, src_off)| ExpectSeg {
                    dst_off,
                    len: 8,
                    src: 0,
                    src_off,
                })
                .collect(),
        ],
    };
    let proof = prove_schedule(&m, &spec);
    assert!(proof.is_clean(), "{:?}", proof.findings);
    assert_eq!(proof.messages, 2);
}

/// A correct 2-rank all-to-all (self copy + one sendrecv), optionally
/// followed by a second `WaitAll` over the same two requests.
fn exchange(second_wait: bool) -> FixedSchedule {
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
            if second_wait {
                b.waitall(0, 2);
            }
            b.finish()
        })
        .collect();
    fixed(progs, 16)
}

#[test]
fn a_request_completes_at_its_first_covering_wait_only() {
    // A request covered by two `WaitAll`s is legal IR (the executors no-op
    // the second). Delivering at every covering wait reports the message
    // twice and flags both sends redundant.
    let grid = ProcGrid::new(Machine::custom("t", 1, 1, 1, 2));
    let spec = SemanticsSpec::alltoall(2, 8);
    let (once, twice) = (exchange(false), exchange(true));
    let (m1, m2) = (
        Matched::build(&once).expect("structurally valid"),
        Matched::build(&twice).expect("structurally valid"),
    );
    assert_eq!(m2.first_wait(0, 1), 3);
    assert_eq!(m2.arrivals(0, 3).count(), 1);
    assert_eq!(m2.arrivals(0, 4).count(), 0, "second cover delivers again");

    let proof = prove_schedule(&m2, &spec);
    assert_eq!(proof.messages, 2, "one delivery per message");
    assert!(proof.is_clean(), "{:?}", proof.findings);
    let report = analyze_schedule("twice", &twice, &grid, &LintConfig::default(), Some(&spec));
    assert!(report.is_clean(), "{}", report.render_text());

    let params = crit_params(&models::dane());
    let (c1, c2) = (
        critical_path(&m1, &grid, &params, 2),
        critical_path(&m2, &grid, &params, 2),
    );
    assert_eq!(c1.bound_us.to_bits(), c2.bound_us.to_bits());
    assert_eq!(c1.attribution, c2.attribution);
    assert_eq!(c1.rank_finish, c2.rank_finish);
    for (a, b) in c1.chains.iter().zip(&c2.chains) {
        assert_eq!((a.rank, a.total_hops), (b.rank, b.total_hops));
        assert_eq!(a.attribution, b.attribution);
    }
}

#[test]
fn a_rank_with_no_ops_is_matched_walked_and_analyzed() {
    // Ranks 0 and 2 exchange; rank 1 sends, receives and copies nothing.
    let exchange_with = |peer: Rank| {
        let mut b = ProgBuilder::new(Phase(0));
        b.sendrecv(
            peer,
            Block::new(SBUF, 0, 8),
            0,
            peer,
            Block::new(RBUF, 0, 8),
            0,
        );
        b.finish()
    };
    let f = fixed(
        vec![exchange_with(2), RankProgram::default(), exchange_with(0)],
        8,
    );
    let m = Matched::build(&f).expect("structurally valid");
    let (order, finished) = walk_order(&m);
    assert!(finished);
    assert_eq!(order.len(), 6);
    assert!(order.iter().all(|&(rank, _)| rank != 1));

    let counts = |s: Rank, d: Rank| if s != 1 && d != 1 && s != d { 8 } else { 0 };
    let spec = SemanticsSpec::alltoallv(3, &counts);
    let proof = prove_schedule(&m, &spec);
    assert!(proof.is_clean(), "{:?}", proof.findings);
    assert_eq!((proof.messages, proof.bytes_checked), (2, 16));

    let grid = ProcGrid::new(Machine::custom("t", 1, 1, 1, 3));
    let crit = critical_path(&m, &grid, &crit_params(&models::dane()), 3);
    assert_eq!(crit.rank_finish[1], 0.0);
    assert!(crit.bound_us > 0.0);
    assert_eq!(crit.chains.len(), 3);
    assert_eq!(
        crit.chains[2].total_hops, 0,
        "the idle rank's chain is empty"
    );
    let stats = m.stats(&grid);
    assert_eq!(stats.msgs.iter().sum::<usize>(), 2);
}
