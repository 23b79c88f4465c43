//! Structural validation of schedules, independent of execution, and its
//! product: the matched schedule every static analysis reads.
//!
//! The validator proves, by inspection alone, that a schedule is
//! *well-formed*: every send has exactly one matching receive (same peer,
//! tag, and length, in FIFO order), every request is posted once and waited
//! on, every block stays inside its declared buffer, and no rank messages
//! itself (self-traffic must be a `Copy`). Proving that resolves the static
//! matching rule — the k-th send on `(from, to, tag)` pairs with the k-th
//! receive — so [`Matched::build`] keeps what it resolved: the rank
//! programs, the peer op of every message op, and the op that posts and the
//! `WaitAll` that first covers every request. The wait-for graph, the
//! dataflow prover and the critical-path analyzer (`crate::analysis`) are
//! folds over that table; none of them matches messages again.
//!
//! [`validate`] is the table's first fold: the per-locality statistics
//! (message and byte counts per level) that the paper's analysis sections
//! reason about, which the invariant tests assert on.

use std::borrow::Cow;

use a2a_topo::{Level, ProcGrid, Rank};

use crate::fifo::{FifoChannels, Post};
use crate::ir::{Block, Bytes, Op, RankProgram};
use crate::ScheduleSource;

/// Why a schedule is malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// Schedule rank count differs from the grid's world size.
    WorldSizeMismatch { schedule: usize, grid: usize },
    /// Block exceeds its declared buffer size (or names an undeclared one).
    BadBlock {
        rank: Rank,
        block: Block,
        bufsize: Option<Bytes>,
    },
    /// `Isend` addressed to the sending rank itself.
    SelfMessage { rank: Rank },
    /// A message peer outside `0..nranks`.
    BadPeer { rank: Rank, peer: Rank },
    /// Request posted more than once, or `WaitAll` range out of bounds.
    BadRequest { rank: Rank, req: u32 },
    /// A `WaitAll` covers a request that is only posted later in program
    /// order — the wait would block on a request that does not exist yet.
    WaitBeforePost { rank: Rank, req: u32 },
    /// A posted request is never waited on.
    UnwaitedRequest { rank: Rank, req: u32 },
    /// A `Copy` whose source and destination ranges intersect in the same
    /// buffer. All three executors happen to share memmove semantics, but
    /// no algorithm needs an overlapping repack, so the validator rejects
    /// it outright rather than blessing executor-dependent behaviour.
    CopyOverlap { rank: Rank, src: Block, dst: Block },
    /// Send/receive sequences between a rank pair + tag don't line up.
    MatchFailure {
        from: Rank,
        to: Rank,
        tag: u32,
        sends: usize,
        recvs: usize,
    },
    /// Matched send/receive lengths differ at some position.
    MatchLengthFailure {
        from: Rank,
        to: Rank,
        tag: u32,
        index: usize,
        send_len: Bytes,
        recv_len: Bytes,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::WorldSizeMismatch { schedule, grid } => write!(
                f,
                "schedule is built for {schedule} rank(s) but the grid has {grid}"
            ),
            ValidationError::BadBlock {
                rank,
                block,
                bufsize: Some(size),
            } => write!(
                f,
                "rank {rank}: block [{}..{}) leaves buffer {} ({size} bytes) or is empty",
                block.off,
                block.off.saturating_add(block.len),
                block.buf.0
            ),
            ValidationError::BadBlock {
                rank,
                block,
                bufsize: None,
            } => write!(
                f,
                "rank {rank}: block [{}..{}) names undeclared buffer {}",
                block.off,
                block.off.saturating_add(block.len),
                block.buf.0
            ),
            ValidationError::SelfMessage { rank } => write!(
                f,
                "rank {rank} sends a message to itself; self-traffic must be a Copy"
            ),
            ValidationError::BadPeer { rank, peer } => {
                write!(
                    f,
                    "rank {rank} addresses peer {peer}, which is not in the world"
                )
            }
            ValidationError::BadRequest { rank, req } => write!(
                f,
                "rank {rank}: request {req} is posted twice, never posted, or waited out of range"
            ),
            ValidationError::WaitBeforePost { rank, req } => write!(
                f,
                "rank {rank}: request {req} is waited on before it is posted"
            ),
            ValidationError::UnwaitedRequest { rank, req } => write!(
                f,
                "rank {rank}: request {req} is posted but never waited on"
            ),
            ValidationError::CopyOverlap { rank, src, dst } => write!(
                f,
                "rank {rank}: copy source [{}..{}) overlaps destination [{}..{}) in buffer {}",
                src.off,
                src.end(),
                dst.off,
                dst.end(),
                src.buf.0
            ),
            ValidationError::MatchFailure {
                from,
                to,
                tag,
                sends,
                recvs,
            } => write!(
                f,
                "channel {from}->{to} tag {tag}: {sends} send(s) but {recvs} receive(s)"
            ),
            ValidationError::MatchLengthFailure {
                from,
                to,
                tag,
                index,
                send_len,
                recv_len,
            } => write!(
                f,
                "channel {from}->{to} tag {tag}: message {index} sends {send_len} bytes \
                 but its receive expects {recv_len}"
            ),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Per-level traffic statistics for a validated schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScheduleStats {
    /// Message count per locality level, indexed by [`level_index`].
    pub msgs: [usize; 4],
    /// Payload bytes per locality level.
    pub bytes: [Bytes; 4],
    /// Locally copied (repack) bytes across all ranks.
    pub copy_bytes: Bytes,
    /// Maximum number of sends posted by any single rank.
    pub max_sends_per_rank: usize,
    /// Maximum inter-node sends posted by any single rank.
    pub max_internode_sends_per_rank: usize,
    /// Total temporary-buffer bytes declared across ranks (excludes s/r bufs).
    pub tmp_bytes: Bytes,
}

/// Dense index for the four inter-rank locality levels.
pub fn level_index(level: Level) -> usize {
    match level {
        Level::SelfRank => unreachable!("self messages are rejected"),
        Level::IntraNuma => 0,
        Level::IntraSocket => 1,
        Level::InterSocket => 2,
        Level::InterNode => 3,
    }
}

impl ScheduleStats {
    /// Messages that stay within a node.
    pub fn intra_node_msgs(&self) -> usize {
        self.msgs[0] + self.msgs[1] + self.msgs[2]
    }

    /// Messages that cross the network.
    pub fn inter_node_msgs(&self) -> usize {
        self.msgs[3]
    }

    /// Bytes that cross the network.
    pub fn inter_node_bytes(&self) -> Bytes {
        self.bytes[3]
    }

    /// Bytes that stay within a node.
    pub fn intra_node_bytes(&self) -> Bytes {
        self.bytes[0] + self.bytes[1] + self.bytes[2]
    }
}

/// A validated schedule with its static message matching resolved: the one
/// table the wait-for graph, the dataflow prover and the critical-path
/// analyzer read.
///
/// Matching is the static FIFO rule — the k-th `Isend` on a
/// `(from, to, tag)` channel pairs with the k-th `Irecv` on it, each in
/// program order — as [`FifoChannels`] resolves it for the simulator and
/// the data executor too. (The threaded runtime matches *dynamically*,
/// under faults and retransmits, and agrees with this rule on every
/// fault-free run.) A request completes at
/// the **first** `WaitAll` covering it; a later wait over the same request
/// is legal IR and finds it complete.
///
/// The programs are the `Cow`s [`ScheduleSource::rank_program`] hands out:
/// borrowed from a source that stores them (a [`crate::PreparedSchedule`],
/// a fixture), generated exactly once from an algorithm. The table is an
/// admission-time value; nothing that executes a schedule reads it.
pub struct Matched<'a> {
    progs: Vec<Cow<'a, RankProgram>>,
    buffers: Vec<Vec<Bytes>>,
    /// `[rank][op]` — the matched peer `(rank, op)` of a message op.
    partner: Vec<Vec<Option<(Rank, usize)>>>,
    /// `[rank][req]` — the op that posts the request and the first
    /// `WaitAll` covering it.
    reqs: Vec<Vec<(usize, usize)>>,
}

impl<'a> Matched<'a> {
    /// Validate `source` and resolve its matching. Takes no grid — matching
    /// is independent of topology — so the world-size check belongs to the
    /// entry points that receive one ([`validate`], the lint entry points).
    pub fn build(source: &'a dyn ScheduleSource) -> Result<Self, ValidationError> {
        const UNSET: usize = usize::MAX;
        let n = source.nranks();
        let mut m = Matched {
            progs: Vec::with_capacity(n),
            buffers: Vec::with_capacity(n),
            partner: Vec::with_capacity(n),
            reqs: Vec::with_capacity(n),
        };
        // Receives under their source, sends under their sender.
        let (mut channels, mut sends) = (FifoChannels::new(n), Vec::with_capacity(n));
        for rank in 0..n as Rank {
            let sizes = source.buffers(rank);
            let prog = source.rank_program(rank);
            let mut reqs = vec![(UNSET, UNSET); prog.n_reqs as usize];
            let mut mine = Vec::new();

            let check_block = |block: Block| match sizes.get(block.buf.0 as usize) {
                Some(&size)
                    if block.len > 0
                        && block
                            .off
                            .checked_add(block.len)
                            .is_some_and(|end| end <= size) =>
                {
                    Ok(())
                }
                bufsize => Err(ValidationError::BadBlock {
                    rank,
                    block,
                    bufsize: bufsize.copied(),
                }),
            };
            let check_peer = |peer: Rank| {
                if peer == rank {
                    Err(ValidationError::SelfMessage { rank })
                } else if peer as usize >= n {
                    Err(ValidationError::BadPeer { rank, peer })
                } else {
                    Ok(())
                }
            };
            let post = |reqs: &mut [(usize, usize)], req: u32, op: usize| match reqs
                .get_mut(req as usize)
            {
                Some(slot) if slot.0 == UNSET => {
                    slot.0 = op;
                    Ok(())
                }
                _ => Err(ValidationError::BadRequest { rank, req }),
            };

            for (i, top) in prog.ops.iter().enumerate() {
                match top.op {
                    Op::Isend {
                        to,
                        block,
                        tag,
                        req,
                    } => {
                        check_block(block)?;
                        post(&mut reqs, req, i)?;
                        check_peer(to)?;
                        let (id, len) = (i as u32, block.len);
                        mine.push(Post { to, tag, id, len });
                    }
                    Op::Irecv {
                        from,
                        block,
                        tag,
                        req,
                    } => {
                        check_block(block)?;
                        post(&mut reqs, req, i)?;
                        check_peer(from)?;
                        let (to, id, len) = (rank, i as u32, block.len);
                        channels.recv(from, Post { to, tag, id, len });
                    }
                    Op::WaitAll { first_req, count } => {
                        // An id that saturates is out of range like any
                        // other: ids stop below `n_reqs <= u32::MAX`.
                        for req in (0..count).map(|k| first_req.saturating_add(k)) {
                            match reqs.get_mut(req as usize) {
                                None => return Err(ValidationError::BadRequest { rank, req }),
                                Some((UNSET, _)) => {
                                    return Err(ValidationError::WaitBeforePost { rank, req })
                                }
                                Some((_, wait)) if *wait == UNSET => *wait = i,
                                Some(_) => {}
                            }
                        }
                    }
                    Op::Copy { src, dst } => {
                        check_block(src)?;
                        check_block(dst)?;
                        if src.buf == dst.buf && src.off < dst.end() && dst.off < src.end() {
                            return Err(ValidationError::CopyOverlap { rank, src, dst });
                        }
                    }
                }
            }
            for (req, &(post, wait)) in reqs.iter().enumerate() {
                let req = req as u32;
                if post == UNSET {
                    return Err(ValidationError::BadRequest { rank, req });
                }
                if wait == UNSET {
                    return Err(ValidationError::UnwaitedRequest { rank, req });
                }
            }
            sends.push(mine);
            m.partner.push(vec![None; prog.ops.len()]);
            m.reqs.push(reqs);
            m.buffers.push(sizes);
            m.progs.push(prog);
        }

        // Senders in rank order visit channels in ascending order, so a
        // broken schedule reports its smallest failing channel whatever
        // order the ranks were built in.
        for (from, mut mine) in sends.into_iter().enumerate() {
            let from = from as Rank;
            channels.pair(from, &mut mine, false, |to, send, recv| {
                let (send, recv) = (send.id as usize, recv.id as usize);
                m.partner[from as usize][send] = Some((to, recv));
                m.partner[to as usize][recv] = Some((from, send));
            })?;
        }
        Ok(m)
    }

    pub fn nranks(&self) -> usize {
        self.progs.len()
    }

    pub fn prog(&self, rank: Rank) -> &RankProgram {
        &self.progs[rank as usize]
    }

    /// Rank `rank`'s buffer sizes, indexed by [`crate::BufId`].
    pub fn buffers(&self, rank: Rank) -> &[Bytes] {
        &self.buffers[rank as usize]
    }

    /// The matched peer `(rank, op)` of the message op at `op` — the
    /// receive a send pairs with and vice versa; `None` for a `Copy` or a
    /// `WaitAll`.
    pub fn partner(&self, rank: Rank, op: usize) -> Option<(Rank, usize)> {
        self.partner[rank as usize][op]
    }

    /// The `Isend` / `Irecv` that posts request `req` of `rank`.
    pub fn post_op(&self, rank: Rank, req: u32) -> usize {
        self.reqs[rank as usize][req as usize].0
    }

    /// The first `WaitAll` of `rank` covering request `req`: where the
    /// request completes.
    pub fn first_wait(&self, rank: Rank, req: u32) -> usize {
        self.reqs[rank as usize][req as usize].1
    }

    /// The matched send of request `req`, if `req` is a receive.
    fn send_for(&self, rank: Rank, req: u32) -> Option<(Rank, usize)> {
        let post = self.post_op(rank, req);
        match self.prog(rank).ops[post].op {
            Op::Irecv { .. } => self.partner(rank, post),
            _ => None,
        }
    }

    /// The receives that complete at op `wait_op` of `rank` — those it is
    /// the first `WaitAll` to cover — in request order, each as
    /// `(receive op, (sender, send op))`. Empty for any other op.
    pub fn arrivals(
        &self,
        rank: Rank,
        wait_op: usize,
    ) -> impl Iterator<Item = (usize, (Rank, usize))> + '_ {
        let range = match self.prog(rank).ops[wait_op].op {
            Op::WaitAll { first_req, count } => first_req..first_req + count,
            _ => 0..0,
        };
        range
            .filter(move |&req| self.first_wait(rank, req) == wait_op)
            .filter_map(move |req| Some((self.post_op(rank, req), self.send_for(rank, req)?)))
    }

    /// Visit every op once, in an order a real run could take: ranks in
    /// turn, each running until it reaches a `WaitAll` covering a receive
    /// whose matched send has not been visited yet, round after round until
    /// a round visits nothing. `visit(rank, op)` therefore sees a rank's ops
    /// in program order and every send before the wait that delivers it.
    /// Returns `false` when ranks are left blocked — a deadlock even with
    /// eager sends — with exactly their remaining ops unvisited.
    ///
    /// Which legal order is taken does not matter to any analysis result: a
    /// rank's state depends only on its own earlier ops and on sends already
    /// visited, and results that keep event order (the prover's finding
    /// list) are sorted before they are reported.
    pub fn walk(&self, mut visit: impl FnMut(Rank, usize)) -> bool {
        let mut pc = vec![0usize; self.nranks()];
        let mut progressed = true;
        while progressed {
            progressed = false;
            for rank in 0..self.nranks() as Rank {
                let ops = &self.prog(rank).ops;
                while let Some(top) = ops.get(pc[rank as usize]) {
                    if let Op::WaitAll { first_req, count } = top.op {
                        let blocked = (first_req..first_req + count).any(|req| {
                            self.send_for(rank, req)
                                .is_some_and(|(sender, send)| pc[sender as usize] <= send)
                        });
                        if blocked {
                            break;
                        }
                    }
                    visit(rank, pc[rank as usize]);
                    pc[rank as usize] += 1;
                    progressed = true;
                }
            }
        }
        pc.iter()
            .zip(&self.progs)
            .all(|(&pc, prog)| pc == prog.ops.len())
    }

    /// Per-level traffic statistics on `grid` (whose world size must be
    /// [`Matched::nranks`]).
    pub fn stats(&self, grid: &ProcGrid) -> ScheduleStats {
        let mut stats = ScheduleStats::default();
        for (rank, prog) in self.progs.iter().enumerate() {
            stats.tmp_bytes += self.buffers[rank].iter().skip(2).sum::<Bytes>();
            let mut sends = 0usize;
            let mut internode_sends = 0usize;
            for top in &prog.ops {
                match top.op {
                    Op::Isend { to, block, .. } => {
                        let li = level_index(grid.level(rank as Rank, to));
                        stats.msgs[li] += 1;
                        stats.bytes[li] += block.len;
                        sends += 1;
                        if li == 3 {
                            internode_sends += 1;
                        }
                    }
                    Op::Copy { src, .. } => stats.copy_bytes += src.len,
                    Op::Irecv { .. } | Op::WaitAll { .. } => {}
                }
            }
            stats.max_sends_per_rank = stats.max_sends_per_rank.max(sends);
            stats.max_internode_sends_per_rank =
                stats.max_internode_sends_per_rank.max(internode_sends);
        }
        stats
    }
}

/// Validate `source` against `grid` and collect traffic statistics.
pub fn validate(
    source: &dyn ScheduleSource,
    grid: &ProcGrid,
) -> Result<ScheduleStats, ValidationError> {
    if source.nranks() != grid.world_size() {
        return Err(ValidationError::WorldSizeMismatch {
            schedule: source.nranks(),
            grid: grid.world_size(),
        });
    }
    Ok(Matched::build(source)?.stats(grid))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgBuilder;
    use crate::ir::{Phase, RankProgram, RBUF, SBUF};

    struct Fixed {
        progs: Vec<RankProgram>,
        bufsize: Bytes,
    }

    impl ScheduleSource for Fixed {
        fn nranks(&self) -> usize {
            self.progs.len()
        }
        fn buffers(&self, _r: Rank) -> Vec<Bytes> {
            vec![self.bufsize, self.bufsize]
        }
        fn rank_program(&self, r: Rank) -> std::borrow::Cow<'_, RankProgram> {
            std::borrow::Cow::Borrowed(&self.progs[r as usize])
        }
        fn phase_names(&self) -> Vec<&'static str> {
            vec!["all"]
        }
    }

    fn grid2() -> ProcGrid {
        // 2 ranks on one node, same NUMA.
        ProcGrid::new(a2a_topo::Machine::custom("t", 1, 1, 1, 2))
    }

    fn swap() -> Fixed {
        let mut progs = Vec::new();
        for me in 0..2u32 {
            let peer = 1 - me;
            let mut b = ProgBuilder::new(Phase(0));
            b.sendrecv(
                peer,
                Block::new(SBUF, 0, 8),
                0,
                peer,
                Block::new(RBUF, 0, 8),
                0,
            );
            progs.push(b.finish());
        }
        Fixed { progs, bufsize: 8 }
    }

    #[test]
    fn valid_swap_passes_with_stats() {
        let stats = validate(&swap(), &grid2()).unwrap();
        assert_eq!(stats.msgs[0], 2); // both intra-NUMA
        assert_eq!(stats.bytes[0], 16);
        assert_eq!(stats.inter_node_msgs(), 0);
        assert_eq!(stats.max_sends_per_rank, 1);
    }

    #[test]
    fn world_size_mismatch() {
        let g = ProcGrid::new(a2a_topo::Machine::custom("t", 1, 1, 1, 3));
        assert!(matches!(
            validate(&swap(), &g),
            Err(ValidationError::WorldSizeMismatch {
                schedule: 2,
                grid: 3
            })
        ));
    }

    #[test]
    fn unmatched_send_rejected() {
        let mut b0 = ProgBuilder::new(Phase(0));
        b0.send(1, Block::new(SBUF, 0, 8), 0);
        let f = Fixed {
            progs: vec![b0.finish(), RankProgram::default()],
            bufsize: 8,
        };
        assert!(matches!(
            validate(&f, &grid2()),
            Err(ValidationError::MatchFailure {
                sends: 1,
                recvs: 0,
                ..
            })
        ));
    }

    #[test]
    fn several_broken_channels_report_the_smallest_every_time() {
        let g = ProcGrid::new(a2a_topo::Machine::custom("t", 1, 1, 1, 4));
        let mut b0 = ProgBuilder::new(Phase(0));
        for to in [3, 1, 2] {
            b0.send(to, Block::new(SBUF, 0, 8), 0);
        }
        let mut progs = vec![RankProgram::default(); 4];
        progs[0] = b0.finish();
        let f = Fixed { progs, bufsize: 8 };
        let messages: std::collections::BTreeSet<String> = (0..64)
            .map(|_| validate(&f, &g).unwrap_err().to_string())
            .collect();
        assert_eq!(messages.len(), 1, "{messages:?}");
        assert!(matches!(
            validate(&f, &g),
            Err(ValidationError::MatchFailure { from: 0, to: 1, .. })
        ));
    }

    #[test]
    fn matched_length_mismatch_rejected() {
        let mut b0 = ProgBuilder::new(Phase(0));
        b0.send(1, Block::new(SBUF, 0, 8), 0);
        let mut b1 = ProgBuilder::new(Phase(0));
        b1.recv(0, Block::new(RBUF, 0, 4), 0);
        let f = Fixed {
            progs: vec![b0.finish(), b1.finish()],
            bufsize: 8,
        };
        assert!(matches!(
            validate(&f, &grid2()),
            Err(ValidationError::MatchLengthFailure {
                send_len: 8,
                recv_len: 4,
                ..
            })
        ));
    }

    #[test]
    fn self_message_rejected() {
        let mut b0 = ProgBuilder::new(Phase(0));
        let r = b0.irecv(0, Block::new(RBUF, 0, 8), 0);
        b0.isend(0, Block::new(SBUF, 0, 8), 0);
        b0.waitall(r, 2);
        let f = Fixed {
            progs: vec![b0.finish(), RankProgram::default()],
            bufsize: 8,
        };
        assert!(matches!(
            validate(&f, &grid2()),
            Err(ValidationError::SelfMessage { rank: 0 })
        ));
    }

    #[test]
    fn out_of_range_peer_rejected() {
        let mut b0 = ProgBuilder::new(Phase(0));
        b0.send(7, Block::new(SBUF, 0, 8), 0);
        let f = Fixed {
            progs: vec![b0.finish(), RankProgram::default()],
            bufsize: 8,
        };
        assert!(matches!(
            validate(&f, &grid2()),
            Err(ValidationError::BadPeer { peer: 7, .. })
        ));
    }

    #[test]
    fn oversize_block_rejected() {
        let mut b0 = ProgBuilder::new(Phase(0));
        b0.copy(Block::new(SBUF, 4, 8), Block::new(RBUF, 0, 8));
        let f = Fixed {
            progs: vec![b0.finish(), RankProgram::default()],
            bufsize: 8,
        };
        assert!(matches!(
            validate(&f, &grid2()),
            Err(ValidationError::BadBlock { .. })
        ));
    }

    #[test]
    fn unwaited_request_rejected() {
        let mut b0 = ProgBuilder::new(Phase(0));
        b0.isend(1, Block::new(SBUF, 0, 8), 0); // never waited
        let mut b1 = ProgBuilder::new(Phase(0));
        b1.recv(0, Block::new(RBUF, 0, 8), 0);
        let f = Fixed {
            progs: vec![b0.finish(), b1.finish()],
            bufsize: 8,
        };
        assert!(matches!(
            validate(&f, &grid2()),
            Err(ValidationError::UnwaitedRequest { rank: 0, req: 0 })
        ));
    }

    #[test]
    fn wait_before_post_rejected() {
        // Hand-built: wait on req 1 before the recv that posts it.
        use crate::ir::TimedOp;
        let p0 = RankProgram {
            ops: vec![
                TimedOp {
                    op: Op::Isend {
                        to: 1,
                        block: Block::new(SBUF, 0, 8),
                        tag: 0,
                        req: 0,
                    },
                    phase: Phase(0),
                },
                TimedOp {
                    op: Op::WaitAll {
                        first_req: 0,
                        count: 2,
                    },
                    phase: Phase(0),
                },
                TimedOp {
                    op: Op::Irecv {
                        from: 1,
                        block: Block::new(RBUF, 0, 8),
                        tag: 0,
                        req: 1,
                    },
                    phase: Phase(0),
                },
            ],
            n_reqs: 2,
        };
        let mut b1 = ProgBuilder::new(Phase(0));
        b1.sendrecv(0, Block::new(SBUF, 0, 8), 0, 0, Block::new(RBUF, 0, 8), 0);
        let f = Fixed {
            progs: vec![p0, b1.finish()],
            bufsize: 8,
        };
        assert!(matches!(
            validate(&f, &grid2()),
            Err(ValidationError::WaitBeforePost { rank: 0, req: 1 })
        ));
    }

    #[test]
    fn overlapping_copy_rejected() {
        // Hand-built (the builder refuses to construct this).
        use crate::ir::TimedOp;
        let p0 = RankProgram {
            ops: vec![TimedOp {
                op: Op::Copy {
                    src: Block::new(SBUF, 0, 6),
                    dst: Block::new(SBUF, 4, 6),
                },
                phase: Phase(0),
            }],
            n_reqs: 0,
        };
        let f = Fixed {
            progs: vec![p0, RankProgram::default()],
            bufsize: 16,
        };
        assert!(matches!(
            validate(&f, &grid2()),
            Err(ValidationError::CopyOverlap { rank: 0, .. })
        ));
    }

    #[test]
    fn display_messages_are_specific() {
        let e = ValidationError::MatchFailure {
            from: 3,
            to: 5,
            tag: 9,
            sends: 2,
            recvs: 1,
        };
        assert_eq!(
            e.to_string(),
            "channel 3->5 tag 9: 2 send(s) but 1 receive(s)"
        );
        let e = ValidationError::WaitBeforePost { rank: 4, req: 7 };
        assert_eq!(
            e.to_string(),
            "rank 4: request 7 is waited on before it is posted"
        );
        let e = ValidationError::CopyOverlap {
            rank: 1,
            src: Block::new(SBUF, 0, 8),
            dst: Block::new(SBUF, 4, 8),
        };
        assert_eq!(
            e.to_string(),
            "rank 1: copy source [0..8) overlaps destination [4..12) in buffer 0"
        );
    }

    #[test]
    fn internode_stats_counted() {
        let g = ProcGrid::new(a2a_topo::Machine::custom("t", 2, 1, 1, 1));
        let stats = validate(&swap(), &g).unwrap();
        assert_eq!(stats.inter_node_msgs(), 2);
        assert_eq!(stats.inter_node_bytes(), 16);
        assert_eq!(stats.intra_node_msgs(), 0);
        assert_eq!(stats.max_internode_sends_per_rank, 1);
    }
}
