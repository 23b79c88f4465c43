//! Structural validation of schedules, independent of execution.
//!
//! The validator proves, by inspection alone, that a schedule is
//! *well-formed*: every send has exactly one matching receive (same peer,
//! tag, and length, in FIFO order), every request is posted once and waited
//! on, every block stays inside its declared buffer, and no rank messages
//! itself (self-traffic must be a `Copy`). It also gathers the per-locality
//! statistics (message and byte counts per level) that the paper's analysis
//! sections reason about, which the invariant tests assert on.

use std::collections::HashMap;

use a2a_topo::{Level, ProcGrid, Rank};

use crate::ir::{Block, Bytes, Op};
use crate::ScheduleSource;

/// Message-matching ledger: `(from, to, tag)` -> (send lengths, recv
/// lengths), each in program order.
type MatchLedger = HashMap<(Rank, Rank, u32), (Vec<Bytes>, Vec<Bytes>)>;

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
                block.end(),
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
                block.end(),
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

/// Validate `source` against `grid` and collect traffic statistics.
pub fn validate(
    source: &dyn ScheduleSource,
    grid: &ProcGrid,
) -> Result<ScheduleStats, ValidationError> {
    let n = source.nranks();
    if n != grid.world_size() {
        return Err(ValidationError::WorldSizeMismatch {
            schedule: n,
            grid: grid.world_size(),
        });
    }

    let mut stats = ScheduleStats::default();
    let mut matching: MatchLedger = HashMap::new();

    for rank in 0..n as Rank {
        let sizes = source.buffers(rank);
        stats.tmp_bytes += sizes.iter().skip(2).sum::<Bytes>();
        let prog = source.build_rank(rank);
        let mut posted = vec![false; prog.n_reqs as usize];
        let mut waited = vec![false; prog.n_reqs as usize];
        let mut sends = 0usize;
        let mut internode_sends = 0usize;

        let check_block = |block: Block| -> Result<(), ValidationError> {
            match sizes.get(block.buf.0 as usize) {
                Some(&sz) if block.end() <= sz && block.len > 0 => Ok(()),
                Some(&sz) => Err(ValidationError::BadBlock {
                    rank,
                    block,
                    bufsize: Some(sz),
                }),
                None => Err(ValidationError::BadBlock {
                    rank,
                    block,
                    bufsize: None,
                }),
            }
        };
        let post = |req: u32, posted: &mut Vec<bool>| -> Result<(), ValidationError> {
            match posted.get_mut(req as usize) {
                Some(p) if !*p => {
                    *p = true;
                    Ok(())
                }
                _ => Err(ValidationError::BadRequest { rank, req }),
            }
        };

        for top in &prog.ops {
            match top.op {
                Op::Isend {
                    to,
                    block,
                    tag,
                    req,
                } => {
                    check_block(block)?;
                    post(req, &mut posted)?;
                    if to == rank {
                        return Err(ValidationError::SelfMessage { rank });
                    }
                    if to as usize >= n {
                        return Err(ValidationError::BadPeer { rank, peer: to });
                    }
                    matching
                        .entry((rank, to, tag))
                        .or_default()
                        .0
                        .push(block.len);
                    let li = level_index(grid.level(rank, to));
                    stats.msgs[li] += 1;
                    stats.bytes[li] += block.len;
                    sends += 1;
                    if li == 3 {
                        internode_sends += 1;
                    }
                }
                Op::Irecv {
                    from,
                    block,
                    tag,
                    req,
                } => {
                    check_block(block)?;
                    post(req, &mut posted)?;
                    if from == rank {
                        return Err(ValidationError::SelfMessage { rank });
                    }
                    if from as usize >= n {
                        return Err(ValidationError::BadPeer { rank, peer: from });
                    }
                    matching
                        .entry((from, rank, tag))
                        .or_default()
                        .1
                        .push(block.len);
                }
                Op::WaitAll { first_req, count } => {
                    for req in first_req..first_req + count {
                        match waited.get_mut(req as usize) {
                            Some(w) => {
                                if !posted[req as usize] {
                                    return Err(ValidationError::WaitBeforePost { rank, req });
                                }
                                *w = true
                            }
                            None => return Err(ValidationError::BadRequest { rank, req }),
                        }
                    }
                }
                Op::Copy { src, dst } => {
                    check_block(src)?;
                    check_block(dst)?;
                    if src.buf == dst.buf && src.off < dst.end() && dst.off < src.end() {
                        return Err(ValidationError::CopyOverlap { rank, src, dst });
                    }
                    stats.copy_bytes += src.len;
                }
            }
        }

        for req in 0..prog.n_reqs {
            if !posted[req as usize] {
                return Err(ValidationError::BadRequest { rank, req });
            }
            if !waited[req as usize] {
                return Err(ValidationError::UnwaitedRequest { rank, req });
            }
        }
        stats.max_sends_per_rank = stats.max_sends_per_rank.max(sends);
        stats.max_internode_sends_per_rank =
            stats.max_internode_sends_per_rank.max(internode_sends);
    }

    // Report the smallest failing channel, so the error is a function of
    // the schedule and not of `HashMap` iteration order.
    let failed = matching
        .iter()
        .filter(|(_, (sends, recvs))| sends != recvs)
        .min_by_key(|(key, _)| **key);
    if let Some((&(from, to, tag), (sends, recvs))) = failed {
        if sends.len() != recvs.len() {
            return Err(ValidationError::MatchFailure {
                from,
                to,
                tag,
                sends: sends.len(),
                recvs: recvs.len(),
            });
        }
        let index = (0..sends.len())
            .find(|&i| sends[i] != recvs[i])
            .expect("equal-length ledgers that differ have a differing entry");
        return Err(ValidationError::MatchLengthFailure {
            from,
            to,
            tag,
            index,
            send_len: sends[index],
            recv_len: recvs[index],
        });
    }

    Ok(stats)
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
