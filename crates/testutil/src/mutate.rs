//! Seeded schedule mutations: known-bad variants of known-good schedules.
//!
//! Each [`Mutation`] takes a valid schedule and injects one specific class
//! of defect, chosen deterministically from a seed. The static analyzer
//! must flag the result with the mutation's [`expected_code`] — the lint
//! suite applies every mutation across the algorithm roster and fails if
//! any mutant slips through clean. `expected_code` returns the code as a
//! string (`"A2A001"`, ...) so this crate does not depend on `a2a-lint`;
//! the lint tests translate it.
//!
//! Mutations that target race/ordering lints (A2A002+) are careful to keep
//! the schedule *valid* — a malformed mutant would short-circuit at A2A000
//! and prove nothing about the deeper passes.
//!
//! [`expected_code`]: Mutation::expected_code

use a2a_sched::{Block, Bytes, Matched, Op, Phase, RankProgram, TimedOp, RBUF, SBUF};
use a2a_topo::Rank;

use crate::fixture::FixedSchedule;
use crate::Rng;

/// One defect class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Delete an `Irecv`: its request is never posted, its send unmatched.
    DropRecv,
    /// Rewrite one send's tag to a value no receive uses.
    RetagSend,
    /// Shrink a `WaitAll` range by one: the last request is never waited.
    ShrinkWaitAll,
    /// Grow a block past its declared buffer.
    OversizeBlock,
    /// Make a `Copy` fully self-overlapping (`dst = src`).
    OverlapCopy,
    /// Split every `sendrecv` triple into blocking send-then-recv: the
    /// classic head-to-head rendezvous deadlock wherever the original
    /// exchange was mutual.
    SequentializeSendrecv,
    /// Insert a `Copy` that writes into the source of a posted-but-unwaited
    /// send (zero-copy stable-send violation).
    AliasCopyIntoPendingSend,
    /// Re-aim a pending receive at a region another pending receive is
    /// already filling.
    OverlapPendingRecvs,
    /// Split one message into two concurrent same-tag halves on both ends:
    /// correct only because transport is FIFO.
    SplitMessageSameTag,
    /// Insert a `Copy` that reads from a pending receive's destination.
    ReadPendingRecv,
    /// Swap the source blocks of two same-length sends: every byte still
    /// arrives somewhere, but from the wrong offset. Invisible to every
    /// safety pass; only the semantics prover (A2A007) sees it.
    SwapSendSource,
    /// Delete a `Copy`: the destination interval it fed is never written
    /// (or forwards undefined bytes). Valid and safety-clean (A2A008).
    DropBlock,
    /// Append a second, misdirected delivery into an interval that already
    /// holds its correct final bytes, overwriting them (A2A009).
    DoubleDeliveryClobber,
    /// Append a matched send/receive pair into a fresh scratch buffer that
    /// nothing ever reads: pure wasted bandwidth (A2A010).
    DeadCodeTransfer,
}

impl Mutation {
    pub const ALL: [Mutation; 14] = [
        Mutation::DropRecv,
        Mutation::RetagSend,
        Mutation::ShrinkWaitAll,
        Mutation::OversizeBlock,
        Mutation::OverlapCopy,
        Mutation::SequentializeSendrecv,
        Mutation::AliasCopyIntoPendingSend,
        Mutation::OverlapPendingRecvs,
        Mutation::SplitMessageSameTag,
        Mutation::ReadPendingRecv,
        Mutation::SwapSendSource,
        Mutation::DropBlock,
        Mutation::DoubleDeliveryClobber,
        Mutation::DeadCodeTransfer,
    ];

    /// The structural/safety mutants (caught by A2A000–A2A006).
    pub const SAFETY: [Mutation; 10] = [
        Mutation::DropRecv,
        Mutation::RetagSend,
        Mutation::ShrinkWaitAll,
        Mutation::OversizeBlock,
        Mutation::OverlapCopy,
        Mutation::SequentializeSendrecv,
        Mutation::AliasCopyIntoPendingSend,
        Mutation::OverlapPendingRecvs,
        Mutation::SplitMessageSameTag,
        Mutation::ReadPendingRecv,
    ];

    /// The semantic mutants: valid, safety-clean schedules that compute
    /// the wrong collective — only the dataflow prover (A2A007–A2A010)
    /// can catch them.
    pub const SEMANTIC: [Mutation; 4] = [
        Mutation::SwapSendSource,
        Mutation::DropBlock,
        Mutation::DoubleDeliveryClobber,
        Mutation::DeadCodeTransfer,
    ];

    /// Lint code the analyzer must report for this mutation.
    pub fn expected_code(self) -> &'static str {
        match self {
            Mutation::DropRecv
            | Mutation::RetagSend
            | Mutation::ShrinkWaitAll
            | Mutation::OversizeBlock
            | Mutation::OverlapCopy => "A2A000",
            Mutation::SequentializeSendrecv => "A2A001",
            Mutation::AliasCopyIntoPendingSend => "A2A002",
            Mutation::OverlapPendingRecvs => "A2A003",
            Mutation::SplitMessageSameTag => "A2A004",
            Mutation::ReadPendingRecv => "A2A006",
            Mutation::SwapSendSource => "A2A007",
            Mutation::DropBlock => "A2A008",
            Mutation::DoubleDeliveryClobber => "A2A009",
            Mutation::DeadCodeTransfer => "A2A010",
        }
    }

    /// Apply to `base`, choosing the site with `rng`. `None` when the
    /// schedule offers no applicable site (e.g. no `sendrecv` triple to
    /// sequentialize) — never a silently unmutated clone.
    pub fn apply(self, base: &FixedSchedule, rng: &mut Rng) -> Option<FixedSchedule> {
        let mut s = base.clone();
        let applied = match self {
            Mutation::DropRecv => drop_recv(&mut s, rng),
            Mutation::RetagSend => retag_send(&mut s, rng),
            Mutation::ShrinkWaitAll => shrink_waitall(&mut s, rng),
            Mutation::OversizeBlock => oversize_block(&mut s, rng),
            Mutation::OverlapCopy => overlap_copy(&mut s, rng),
            Mutation::SequentializeSendrecv => sequentialize_sendrecv(&mut s),
            Mutation::AliasCopyIntoPendingSend => alias_copy_into_pending_send(&mut s, rng),
            Mutation::OverlapPendingRecvs => overlap_pending_recvs(&mut s, rng),
            Mutation::SplitMessageSameTag => split_message_same_tag(&mut s, rng),
            Mutation::ReadPendingRecv => read_pending_recv(&mut s, rng),
            Mutation::SwapSendSource => swap_send_source(&mut s, rng),
            Mutation::DropBlock => drop_block(&mut s, rng),
            Mutation::DoubleDeliveryClobber => double_delivery_clobber(&mut s, rng),
            Mutation::DeadCodeTransfer => dead_code_transfer(&mut s, rng),
        };
        applied.then_some(s)
    }
}

impl std::fmt::Display for Mutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Mutation::DropRecv => "drop-recv",
            Mutation::RetagSend => "retag-send",
            Mutation::ShrinkWaitAll => "shrink-waitall",
            Mutation::OversizeBlock => "oversize-block",
            Mutation::OverlapCopy => "overlap-copy",
            Mutation::SequentializeSendrecv => "sequentialize-sendrecv",
            Mutation::AliasCopyIntoPendingSend => "alias-copy-into-pending-send",
            Mutation::OverlapPendingRecvs => "overlap-pending-recvs",
            Mutation::SplitMessageSameTag => "split-message-same-tag",
            Mutation::ReadPendingRecv => "read-pending-recv",
            Mutation::SwapSendSource => "swap-send-source",
            Mutation::DropBlock => "drop-block",
            Mutation::DoubleDeliveryClobber => "double-delivery-clobber",
            Mutation::DeadCodeTransfer => "dead-code-transfer",
        };
        f.write_str(name)
    }
}

/// Tag value no algorithm uses (the `tags` module stays well below this).
const UNUSED_TAG: u32 = 0x00DE_AD00;

/// All `(rank, op index)` sites satisfying `pred`.
fn sites(s: &FixedSchedule, pred: impl Fn(&Op) -> bool) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (r, prog) in s.progs.iter().enumerate() {
        for (i, top) in prog.ops.iter().enumerate() {
            if pred(&top.op) {
                out.push((r, i));
            }
        }
    }
    out
}

fn drop_recv(s: &mut FixedSchedule, rng: &mut Rng) -> bool {
    let cand = sites(s, |op| matches!(op, Op::Irecv { .. }));
    if cand.is_empty() {
        return false;
    }
    let &(r, i) = rng.pick(&cand);
    s.progs[r].ops.remove(i);
    true
}

fn retag_send(s: &mut FixedSchedule, rng: &mut Rng) -> bool {
    let cand = sites(s, |op| matches!(op, Op::Isend { .. }));
    if cand.is_empty() {
        return false;
    }
    let &(r, i) = rng.pick(&cand);
    if let Op::Isend { tag, .. } = &mut s.progs[r].ops[i].op {
        *tag = UNUSED_TAG;
    }
    true
}

fn shrink_waitall(s: &mut FixedSchedule, rng: &mut Rng) -> bool {
    let cand = sites(
        s,
        |op| matches!(op, Op::WaitAll { count, .. } if *count >= 1),
    );
    if cand.is_empty() {
        return false;
    }
    let &(r, i) = rng.pick(&cand);
    if let Op::WaitAll { count, .. } = &mut s.progs[r].ops[i].op {
        *count -= 1;
    }
    true
}

fn oversize_block(s: &mut FixedSchedule, rng: &mut Rng) -> bool {
    let cand = sites(s, |op| {
        matches!(op, Op::Isend { .. } | Op::Irecv { .. } | Op::Copy { .. })
    });
    if cand.is_empty() {
        return false;
    }
    let &(r, i) = rng.pick(&cand);
    let grow = |b: &mut Block, sizes: &[Bytes]| {
        b.len = sizes[b.buf.0 as usize] + 8;
    };
    let sizes = s.buffers[r].clone();
    match &mut s.progs[r].ops[i].op {
        Op::Isend { block, .. } | Op::Irecv { block, .. } => grow(block, &sizes),
        Op::Copy { src, .. } => grow(src, &sizes),
        _ => unreachable!(),
    }
    true
}

fn overlap_copy(s: &mut FixedSchedule, rng: &mut Rng) -> bool {
    let cand = sites(s, |op| matches!(op, Op::Copy { .. }));
    if cand.is_empty() {
        return false;
    }
    let &(r, i) = rng.pick(&cand);
    if let Op::Copy { src, dst } = &mut s.progs[r].ops[i].op {
        *dst = *src;
    }
    true
}

/// Split every `[Isend req=s, Irecv req=s+1, WaitAll{s,2}]` triple into
/// `[Isend, WaitAll{s,1}, Irecv, WaitAll{s+1,1}]` on every rank. Where the
/// original exchange was mutual (pairwise, Bruck rings) the resulting
/// blocking sends deadlock under rendezvous.
fn sequentialize_sendrecv(s: &mut FixedSchedule) -> bool {
    let mut any = false;
    for prog in &mut s.progs {
        let mut i = 0;
        while i + 2 < prog.ops.len() {
            let triple = match (&prog.ops[i].op, &prog.ops[i + 1].op, &prog.ops[i + 2].op) {
                (
                    Op::Isend { req: sr, .. },
                    Op::Irecv { req: rr, .. },
                    Op::WaitAll { first_req, count },
                ) if *rr == sr + 1 && *first_req == *sr && *count == 2 => Some(*sr),
                _ => None,
            };
            if let Some(sr) = triple {
                let phase = prog.ops[i].phase;
                prog.ops[i + 2].op = Op::WaitAll {
                    first_req: sr + 1,
                    count: 1,
                };
                prog.ops.insert(
                    i + 1,
                    TimedOp {
                        op: Op::WaitAll {
                            first_req: sr,
                            count: 1,
                        },
                        phase,
                    },
                );
                any = true;
                i += 4;
            } else {
                i += 1;
            }
        }
    }
    any
}

/// A scratch block in a buffer other than `avoid`, sized `len`, if any
/// declared buffer has room.
fn other_buffer_block(sizes: &[Bytes], avoid: Block) -> Option<Block> {
    for cand in [SBUF, RBUF] {
        if cand != avoid.buf
            && sizes
                .get(cand.0 as usize)
                .is_some_and(|&sz| sz >= avoid.len)
        {
            return Some(Block::new(cand, 0, avoid.len));
        }
    }
    None
}

fn alias_copy_into_pending_send(s: &mut FixedSchedule, rng: &mut Rng) -> bool {
    // Any Isend works: its covering WaitAll is strictly later, so a copy
    // inserted right after it writes into an in-flight source.
    let mut cand = Vec::new();
    for (r, i) in sites(s, |op| matches!(op, Op::Isend { .. })) {
        if let Op::Isend { block, .. } = s.progs[r].ops[i].op {
            if other_buffer_block(&s.buffers[r], block).is_some() {
                cand.push((r, i));
            }
        }
    }
    if cand.is_empty() {
        return false;
    }
    let &(r, i) = rng.pick(&cand);
    let (block, phase) = match &s.progs[r].ops[i] {
        TimedOp {
            op: Op::Isend { block, .. },
            phase,
        } => (*block, *phase),
        _ => unreachable!(),
    };
    let src = other_buffer_block(&s.buffers[r], block).expect("checked");
    s.progs[r].ops.insert(
        i + 1,
        TimedOp {
            op: Op::Copy { src, dst: block },
            phase,
        },
    );
    true
}

fn overlap_pending_recvs(s: &mut FixedSchedule, rng: &mut Rng) -> bool {
    // Sites where an Irecv is posted while an earlier one is still pending,
    // and re-aiming the later at the earlier's region stays in bounds.
    let mut cand: Vec<(usize, usize, Block)> = Vec::new();
    for (r, prog) in s.progs.iter().enumerate() {
        let mut pending: Vec<(u32, Block)> = Vec::new();
        for (i, top) in prog.ops.iter().enumerate() {
            match top.op {
                Op::Irecv { block, req, .. } => {
                    for &(_, pb) in &pending {
                        let end = pb.off + block.len;
                        if s.buffers[r][pb.buf.0 as usize] >= end {
                            cand.push((r, i, Block::new(pb.buf, pb.off, block.len)));
                            break;
                        }
                    }
                    pending.push((req, block));
                }
                Op::WaitAll { first_req, count } => {
                    pending.retain(|(q, _)| *q < first_req || *q >= first_req + count);
                }
                _ => {}
            }
        }
    }
    if cand.is_empty() {
        return false;
    }
    let &(r, i, aim) = rng.pick(&cand);
    if let Op::Irecv { block, .. } = &mut s.progs[r].ops[i].op {
        *block = aim;
    }
    true
}

/// First `WaitAll` at or after `from` covering `req`.
fn covering_wait(prog: &RankProgram, from: usize, req: u32) -> Option<usize> {
    prog.ops[from..]
        .iter()
        .position(|t| {
            matches!(t.op, Op::WaitAll { first_req, count }
            if req >= first_req && req < first_req + count)
        })
        .map(|p| from + p)
}

/// Split one end of a message: op `i` of rank `r` (an `Isend` or `Irecv` of
/// length `len >= 2`) becomes two back-to-back halves; the second half gets
/// a fresh request id waited right after the original's covering wait.
fn split_op(prog: &mut RankProgram, i: usize, make: impl Fn(Block, u32) -> Op) -> bool {
    let (block, phase) = match &prog.ops[i] {
        TimedOp {
            op: Op::Isend { block, req, .. } | Op::Irecv { block, req, .. },
            phase,
        } => {
            let req = *req;
            let w = match covering_wait(prog, i + 1, req) {
                Some(w) => w,
                None => return false,
            };
            let _ = w;
            (*block, *phase)
        }
        _ => return false,
    };
    if block.len < 2 {
        return false;
    }
    let half = block.len / 2;
    let first = Block::new(block.buf, block.off, half);
    let second = Block::new(block.buf, block.off + half, block.len - half);
    let new_req = prog.n_reqs;
    prog.n_reqs += 1;
    // Shrink the original to the first half, insert the second half after.
    match &mut prog.ops[i].op {
        Op::Isend { block, .. } | Op::Irecv { block, .. } => *block = first,
        _ => unreachable!(),
    }
    let orig_req = match prog.ops[i].op {
        Op::Isend { req, .. } | Op::Irecv { req, .. } => req,
        _ => unreachable!(),
    };
    prog.ops.insert(
        i + 1,
        TimedOp {
            op: make(second, new_req),
            phase,
        },
    );
    let w = covering_wait(prog, i + 2, orig_req).expect("validated schedule");
    prog.ops.insert(
        w + 1,
        TimedOp {
            op: Op::WaitAll {
                first_req: new_req,
                count: 1,
            },
            phase,
        },
    );
    true
}

fn split_message_same_tag(s: &mut FixedSchedule, rng: &mut Rng) -> bool {
    // Sends of >= 2 bytes whose covering wait exists (always, if valid).
    let mut cand = Vec::new();
    for (r, i) in sites(
        s,
        |op| matches!(op, Op::Isend { block, .. } if block.len >= 2),
    ) {
        cand.push((r, i));
    }
    if cand.is_empty() {
        return false;
    }
    let &(r, i) = rng.pick(&cand);
    let (to, tag, from) = match s.progs[r].ops[i].op {
        Op::Isend { to, tag, .. } => (to, tag, r as Rank),
        _ => unreachable!(),
    };
    // The receive this send is matched with, on the peer.
    let Some((_, recv_i)) = Matched::build(s).ok().and_then(|m| m.partner(from, i)) else {
        return false;
    };
    if !split_op(&mut s.progs[r], i, |block, req| Op::Isend {
        to,
        block,
        tag,
        req,
    }) {
        return false;
    }
    split_op(&mut s.progs[to as usize], recv_i, |block, req| Op::Irecv {
        from,
        block,
        tag,
        req,
    })
}

fn read_pending_recv(s: &mut FixedSchedule, rng: &mut Rng) -> bool {
    let mut cand = Vec::new();
    for (r, i) in sites(s, |op| matches!(op, Op::Irecv { .. })) {
        if let Op::Irecv { block, .. } = s.progs[r].ops[i].op {
            if other_buffer_block(&s.buffers[r], block).is_some() {
                cand.push((r, i));
            }
        }
    }
    if cand.is_empty() {
        return false;
    }
    let &(r, i) = rng.pick(&cand);
    let (block, phase) = match &s.progs[r].ops[i] {
        TimedOp {
            op: Op::Irecv { block, .. },
            phase,
        } => (*block, *phase),
        _ => unreachable!(),
    };
    let dst = other_buffer_block(&s.buffers[r], block).expect("checked");
    s.progs[r].ops.insert(
        i + 1,
        TimedOp {
            op: Op::Copy { src: block, dst },
            phase,
        },
    );
    true
}

/// Swap the source blocks of two same-length, different-offset sends from
/// the user send buffer on one rank. Both destinations still receive
/// plausible bytes — just each other's — so the schedule stays valid and
/// safety-clean while computing the wrong collective (A2A007).
fn swap_send_source(s: &mut FixedSchedule, rng: &mut Rng) -> bool {
    let mut cand: Vec<(usize, usize, usize)> = Vec::new();
    for (r, prog) in s.progs.iter().enumerate() {
        let sends: Vec<(usize, Block)> = prog
            .ops
            .iter()
            .enumerate()
            .filter_map(|(i, t)| match t.op {
                Op::Isend { block, .. } if block.buf == SBUF => Some((i, block)),
                _ => None,
            })
            .collect();
        for a in 0..sends.len() {
            for b in a + 1..sends.len() {
                let (ba, bb) = (sends[a].1, sends[b].1);
                if ba.len == bb.len && ba.off != bb.off {
                    cand.push((r, sends[a].0, sends[b].0));
                }
            }
        }
    }
    if cand.is_empty() {
        return false;
    }
    let &(r, i, j) = rng.pick(&cand);
    let block_i = match s.progs[r].ops[i].op {
        Op::Isend { block, .. } => block,
        _ => unreachable!(),
    };
    let block_j = match s.progs[r].ops[j].op {
        Op::Isend { block, .. } => block,
        _ => unreachable!(),
    };
    if let Op::Isend { block, .. } = &mut s.progs[r].ops[i].op {
        *block = block_j;
    }
    if let Op::Isend { block, .. } = &mut s.progs[r].ops[j].op {
        *block = block_i;
    }
    true
}

/// Delete a `Copy`: no request accounting changes, so the mutant stays
/// valid and safety-clean, but the interval the copy fed ends the schedule
/// unwritten (A2A008). Only copies that are the *sole* writer of their
/// destination interval qualify — if another copy or receive also writes
/// into it, or the destination is the provenance-carrying send buffer,
/// dropping the copy leaves stale-but-defined bytes (A2A007 territory, a
/// different mutation's job).
fn drop_block(s: &mut FixedSchedule, rng: &mut Rng) -> bool {
    let overlaps = |a: &Block, b: &Block| a.buf == b.buf && a.off < b.end() && b.off < a.end();
    let mut cand = Vec::new();
    for (r, prog) in s.progs.iter().enumerate() {
        for (i, t) in prog.ops.iter().enumerate() {
            let Op::Copy { dst, .. } = &t.op else {
                continue;
            };
            if dst.buf == SBUF {
                continue;
            }
            let sole_writer = prog.ops.iter().enumerate().all(|(j, u)| {
                j == i
                    || match &u.op {
                        Op::Copy { dst: d, .. } => !overlaps(d, dst),
                        Op::Irecv { block, .. } => !overlaps(block, dst),
                        _ => true,
                    }
            });
            if sole_writer {
                cand.push((r, i));
            }
        }
    }
    if cand.is_empty() {
        return false;
    }
    let &(r, i) = rng.pick(&cand);
    s.progs[r].ops.remove(i);
    true
}

/// Append a second delivery into a receive destination in the user receive
/// buffer, after the whole schedule has run: the sender re-sends a
/// *different* send-buffer block over bytes that were already correct.
/// Valid and safety-clean — every request is posted, waited, and matched,
/// and nothing races — but the prover sees correct bytes overwritten with
/// wrong provenance (A2A009).
fn double_delivery_clobber(s: &mut FixedSchedule, rng: &mut Rng) -> bool {
    // Receives into RBUF whose matched send reads SBUF (so the clobber
    // payload's provenance is statically forced to differ).
    let Ok(matched) = Matched::build(s) else {
        return false;
    };
    let mut cand: Vec<(usize, usize, usize, Block, Bytes)> = Vec::new();
    for (r, i) in sites(s, |op| matches!(op, Op::Irecv { .. })) {
        let block = match s.progs[r].ops[i].op {
            Op::Irecv { block, .. } => block,
            _ => unreachable!(),
        };
        if block.buf != RBUF || block.len == 0 {
            continue;
        }
        let (sender, j) = matched
            .partner(r as Rank, i)
            .expect("a receive of a matched schedule has its send");
        let sender = sender as usize;
        let sblock = match s.progs[sender].ops[j].op {
            Op::Isend { block, .. } => block,
            _ => continue,
        };
        if sblock.buf != SBUF {
            continue;
        }
        // A different same-length SBUF offset on the sender.
        let sbuf = s.buffers[sender][SBUF.0 as usize];
        let alt = if sblock.off != 0 {
            0
        } else if sbuf >= 2 * block.len {
            block.len
        } else {
            continue;
        };
        cand.push((r, i, sender, block, alt));
    }
    if cand.is_empty() {
        return false;
    }
    let &(r, i, sender, block, alt) = rng.pick(&cand);
    let _ = i;
    let phase = s.progs[r].ops.last().map(|t| t.phase).unwrap_or(Phase(0));
    let sreq = s.progs[sender].n_reqs;
    s.progs[sender].n_reqs += 1;
    s.progs[sender].ops.push(TimedOp {
        op: Op::Isend {
            to: r as Rank,
            block: Block::new(SBUF, alt, block.len),
            tag: UNUSED_TAG,
            req: sreq,
        },
        phase,
    });
    s.progs[sender].ops.push(TimedOp {
        op: Op::WaitAll {
            first_req: sreq,
            count: 1,
        },
        phase,
    });
    let rreq = s.progs[r].n_reqs;
    s.progs[r].n_reqs += 1;
    s.progs[r].ops.push(TimedOp {
        op: Op::Irecv {
            from: sender as Rank,
            block,
            tag: UNUSED_TAG,
            req: rreq,
        },
        phase,
    });
    s.progs[r].ops.push(TimedOp {
        op: Op::WaitAll {
            first_req: rreq,
            count: 1,
        },
        phase,
    });
    true
}

/// Append a matched send/receive pair into a freshly declared scratch
/// buffer on the receiver. Everything is posted, waited, and matched —
/// valid and safety-clean — but the moved bytes feed no declared output
/// (A2A010).
fn dead_code_transfer(s: &mut FixedSchedule, rng: &mut Rng) -> bool {
    let n = s.progs.len();
    if n < 2 {
        return false;
    }
    let ranks: Vec<usize> = (0..n).collect();
    let &recv = rng.pick(&ranks);
    let sender = (recv + 1) % n;
    let len = s.buffers[sender][SBUF.0 as usize].min(8);
    if len == 0 {
        return false;
    }
    // Declare the scratch destination as a brand-new temporary buffer.
    let scratch = Block::new(a2a_sched::BufId(s.buffers[recv].len() as u8), 0, len);
    s.buffers[recv].push(len);
    let phase = s.progs[recv]
        .ops
        .last()
        .map(|t| t.phase)
        .unwrap_or(Phase(0));
    let sreq = s.progs[sender].n_reqs;
    s.progs[sender].n_reqs += 1;
    s.progs[sender].ops.push(TimedOp {
        op: Op::Isend {
            to: recv as Rank,
            block: Block::new(SBUF, 0, len),
            tag: UNUSED_TAG + 1,
            req: sreq,
        },
        phase,
    });
    s.progs[sender].ops.push(TimedOp {
        op: Op::WaitAll {
            first_req: sreq,
            count: 1,
        },
        phase,
    });
    let rreq = s.progs[recv].n_reqs;
    s.progs[recv].n_reqs += 1;
    s.progs[recv].ops.push(TimedOp {
        op: Op::Irecv {
            from: sender as Rank,
            block: scratch,
            tag: UNUSED_TAG + 1,
            req: rreq,
        },
        phase,
    });
    s.progs[recv].ops.push(TimedOp {
        op: Op::WaitAll {
            first_req: rreq,
            count: 1,
        },
        phase,
    });
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_sched::{Phase, ProgBuilder};

    /// Two ranks exchanging via sendrecv, with a local repack copy.
    fn base() -> FixedSchedule {
        let progs = (0..2u32)
            .map(|me| {
                let peer = 1 - me;
                let mut b = ProgBuilder::new(Phase(0));
                b.copy(Block::new(SBUF, 0, 8), Block::new(RBUF, 8, 8));
                b.sendrecv(
                    peer,
                    Block::new(SBUF, 8, 8),
                    1,
                    peer,
                    Block::new(RBUF, 0, 8),
                    1,
                );
                b.finish()
            })
            .collect();
        FixedSchedule {
            progs,
            buffers: vec![vec![16, 16]; 2],
            phase_names: vec!["all"],
        }
    }

    #[test]
    fn every_mutation_applies_to_a_rich_base_or_declines() {
        // The sendrecv base supports all mutations except the pending-recv
        // overlap (it never has two receives in flight) and the send-source
        // swap (each rank posts only one send, so there is no pair).
        let mut rng = Rng::new(7);
        for m in Mutation::ALL {
            let got = m.apply(&base(), &mut rng);
            match m {
                Mutation::OverlapPendingRecvs | Mutation::SwapSendSource => {
                    assert!(got.is_none(), "{m}")
                }
                _ => assert!(got.is_some(), "{m} should apply"),
            }
        }
    }

    #[test]
    fn partitions_cover_all_mutations() {
        let mut both: Vec<Mutation> = Mutation::SAFETY
            .into_iter()
            .chain(Mutation::SEMANTIC)
            .collect();
        assert_eq!(both.len(), Mutation::ALL.len());
        both.dedup();
        assert_eq!(both, Mutation::ALL.to_vec());
        for m in Mutation::SEMANTIC {
            assert!(
                m.expected_code() >= "A2A007",
                "{m} must map to a prover code"
            );
        }
    }

    #[test]
    fn semantic_mutants_keep_request_accounting_valid() {
        // The appended exchanges must leave a well-formed program: dense
        // request ids, every request waited exactly once.
        let mut rng = Rng::new(21);
        for m in [Mutation::DoubleDeliveryClobber, Mutation::DeadCodeTransfer] {
            let s = m.apply(&base(), &mut rng).expect("applies to base");
            for prog in &s.progs {
                let posted: Vec<u32> = prog
                    .ops
                    .iter()
                    .filter_map(|t| match t.op {
                        Op::Isend { req, .. } | Op::Irecv { req, .. } => Some(req),
                        _ => None,
                    })
                    .collect();
                assert_eq!(posted.len(), prog.n_reqs as usize, "{m}: dense ids");
                let waited: u32 = prog
                    .ops
                    .iter()
                    .map(|t| match t.op {
                        Op::WaitAll { count, .. } => count,
                        _ => 0,
                    })
                    .sum();
                assert_eq!(waited, prog.n_reqs, "{m}: every request waited");
            }
        }
    }

    #[test]
    fn mutations_change_the_schedule() {
        let b = base();
        let mut rng = Rng::new(3);
        for m in Mutation::ALL {
            if let Some(mutant) = m.apply(&b, &mut rng) {
                assert_ne!(
                    format!("{:?}", mutant.progs),
                    format!("{:?}", b.progs),
                    "{m} returned an unchanged schedule"
                );
            }
        }
    }

    #[test]
    fn sequentialize_rewrites_every_triple() {
        let mut s = base();
        assert!(sequentialize_sendrecv(&mut s));
        for prog in &s.progs {
            // copy, isend, wait, irecv, wait
            assert_eq!(prog.ops.len(), 5);
            assert!(matches!(prog.ops[2].op, Op::WaitAll { count: 1, .. }));
        }
    }

    #[test]
    fn split_message_keeps_fifo_alignment() {
        let mut s = base();
        let mut rng = Rng::new(11);
        assert!(split_message_same_tag(&mut s, &mut rng));
        // One rank gained a send half + wait, its peer a recv half + wait.
        let total: usize = s.progs.iter().map(|p| p.ops.len()).sum();
        assert_eq!(total, 2 * 4 + 4);
        assert_eq!(s.progs.iter().map(|p| p.n_reqs).max(), Some(3));
    }
}
