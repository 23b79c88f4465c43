//! The pre-fast-path data executor, preserved as the reference.
//!
//! [`LegacyDataExecutor`] is the original sequential oracle: it clones each
//! rank's program, allocates a fresh `Vec<u8>` per message, and keys
//! mailboxes by `HashMap<(from, to, tag)>`. The rewritten executor in
//! [`crate::exec`] replaces all three with borrowed programs, an arena +
//! message pool, and a dense mailbox table. This version stays compiled
//! because a differential test (`tests/zero_copy_fastpath.rs`) pins the
//! fast path byte-identical to it.
//!
//! Semantics are identical to the fast path by construction; do not "fix"
//! or optimise this file — it is the reference.

use std::collections::{HashMap, VecDeque};

use a2a_topo::Rank;

use crate::exec::{ExecError, ExecResult, FaultInjector, FaultStats};
use crate::ir::{Block, Bytes, Op, RankProgram};
use crate::ScheduleSource;

#[derive(Debug)]
struct PendingRecv {
    from: Rank,
    tag: u32,
    block: Block,
    req: u32,
}

struct RankState {
    prog: RankProgram,
    pc: usize,
    bufs: Vec<Vec<u8>>,
    req_done: Vec<bool>,
    /// Posted-but-unmatched receives, in posting order.
    pending: VecDeque<PendingRecv>,
}

impl RankState {
    fn done(&self) -> bool {
        self.pc >= self.prog.ops.len()
    }
}

/// Sequential round-robin executor, pre-PR allocation behaviour. See
/// module docs.
pub struct LegacyDataExecutor<'a> {
    ranks: Vec<RankState>,
    /// (from, to, tag) -> FIFO of message payloads.
    mail: HashMap<(Rank, Rank, u32), VecDeque<Vec<u8>>>,
    messages: usize,
    message_bytes: Bytes,
    copy_bytes: Bytes,
    /// Optional fault layer applied to every sent message.
    injector: Option<&'a dyn FaultInjector>,
    /// Per-(from, to, tag) send counters for fault sequencing.
    seqs: HashMap<(Rank, Rank, u32), u64>,
    faults: FaultStats,
}

impl<'a> LegacyDataExecutor<'a> {
    /// Execute `source`, filling each rank's send buffer with `fill`,
    /// and return the final receive buffers.
    pub fn run(
        source: &dyn ScheduleSource,
        fill: impl FnMut(Rank, &mut [u8]),
    ) -> Result<ExecResult, ExecError> {
        Self::run_inner(source, fill, None).map(|(res, _)| res)
    }

    /// Execute `source` with `injector` perturbing every message.
    pub fn run_with_faults(
        source: &dyn ScheduleSource,
        fill: impl FnMut(Rank, &mut [u8]),
        injector: &'a dyn FaultInjector,
    ) -> Result<(ExecResult, FaultStats), ExecError> {
        Self::run_inner(source, fill, Some(injector))
    }

    fn run_inner(
        source: &dyn ScheduleSource,
        mut fill: impl FnMut(Rank, &mut [u8]),
        injector: Option<&'a dyn FaultInjector>,
    ) -> Result<(ExecResult, FaultStats), ExecError> {
        let n = source.nranks();
        let mut ranks = Vec::with_capacity(n);
        for r in 0..n as Rank {
            let sizes = source.buffers(r);
            let mut bufs: Vec<Vec<u8>> = sizes.iter().map(|&s| vec![0u8; s as usize]).collect();
            if let Some(sbuf) = bufs.first_mut() {
                fill(r, sbuf);
            }
            let prog = source.build_rank(r);
            let n_reqs = prog.n_reqs as usize;
            ranks.push(RankState {
                prog,
                pc: 0,
                bufs,
                req_done: vec![false; n_reqs],
                pending: VecDeque::new(),
            });
        }
        let mut exec = LegacyDataExecutor {
            ranks,
            mail: HashMap::new(),
            messages: 0,
            message_bytes: 0,
            copy_bytes: 0,
            injector,
            seqs: HashMap::new(),
            faults: FaultStats::default(),
        };
        let driven = exec.drive();
        let faults = exec.faults;
        let res = driven.and_then(|()| exec.finish().map(|r| (r, faults)));
        match res {
            Err(cause) if faults.any() => Err(ExecError::FaultInjected {
                dropped: faults.dropped,
                duplicated: faults.duplicated,
                corrupted: faults.corrupted,
                cause: Box::new(cause),
            }),
            other => other,
        }
    }

    fn drive(&mut self) -> Result<(), ExecError> {
        loop {
            let mut progressed = false;
            let mut all_done = true;
            for r in 0..self.ranks.len() {
                progressed |= self.advance(r as Rank)?;
                all_done &= self.ranks[r].done();
            }
            if all_done {
                return Ok(());
            }
            if !progressed {
                let blocked = self
                    .ranks
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| !s.done())
                    .map(|(r, s)| (r as Rank, s.pc))
                    .collect();
                return Err(ExecError::Deadlock { blocked });
            }
        }
    }

    fn check_block(&self, rank: Rank, block: Block) -> Result<(), ExecError> {
        let bufs = &self.ranks[rank as usize].bufs;
        let idx = block.buf.0 as usize;
        let size = match bufs.get(idx) {
            Some(b) => b.len() as Bytes,
            None => {
                return Err(ExecError::UnknownBuffer {
                    rank,
                    buf: block.buf.0,
                })
            }
        };
        if block.end() > size {
            return Err(ExecError::OutOfBounds {
                rank,
                buf: block.buf.0,
                end: block.end(),
                size,
            });
        }
        Ok(())
    }

    fn read_block(&self, rank: Rank, block: Block) -> Vec<u8> {
        let buf = &self.ranks[rank as usize].bufs[block.buf.0 as usize];
        buf[block.off as usize..block.end() as usize].to_vec()
    }

    fn write_block(&mut self, rank: Rank, block: Block, data: &[u8]) {
        let buf = &mut self.ranks[rank as usize].bufs[block.buf.0 as usize];
        buf[block.off as usize..block.end() as usize].copy_from_slice(data);
    }

    /// Deliver a sent message into the mailbox, applying the fault layer.
    /// Note the per-message owned `data` and the duplicate `clone()`: this
    /// allocation pattern is exactly what the fast path removes.
    fn post_message(&mut self, from: Rank, to: Rank, tag: u32, mut data: Vec<u8>) {
        if let Some(inj) = self.injector {
            let seq = {
                let c = self.seqs.entry((from, to, tag)).or_insert(0);
                let s = *c;
                *c += 1;
                s
            };
            let fault = inj.on_message(from, to, tag, seq);
            if fault.drop {
                self.faults.dropped += 1;
                return;
            }
            if fault.apply_corrupt(&mut data) {
                self.faults.corrupted += 1;
            }
            let q = self.mail.entry((from, to, tag)).or_default();
            if fault.duplicate {
                self.faults.duplicated += 1;
                q.push_back(data.clone());
            }
            q.push_back(data);
        } else {
            self.mail
                .entry((from, to, tag))
                .or_default()
                .push_back(data);
        }
    }

    /// Try to satisfy rank's pending receives, in posting order.
    fn progress_recvs(&mut self, rank: Rank) -> Result<bool, ExecError> {
        let mut any = false;
        let mut i = 0;
        while i < self.ranks[rank as usize].pending.len() {
            let (from, tag, block, req) = {
                let p = &self.ranks[rank as usize].pending[i];
                (p.from, p.tag, p.block, p.req)
            };
            let key = (from, rank, tag);
            let msg = match self.mail.get_mut(&key) {
                Some(q) if !q.is_empty() => q.pop_front().unwrap(),
                _ => {
                    i += 1;
                    continue;
                }
            };
            if msg.len() as Bytes != block.len {
                return Err(ExecError::LengthMismatch {
                    rank,
                    from,
                    tag,
                    sent: msg.len() as Bytes,
                    posted: block.len,
                });
            }
            self.write_block(rank, block, &msg);
            self.messages += 1;
            self.message_bytes += msg.len() as Bytes;
            let st = &mut self.ranks[rank as usize];
            st.req_done[req as usize] = true;
            st.pending.remove(i);
            any = true;
        }
        Ok(any)
    }

    /// Advance one rank as far as possible; returns whether it progressed.
    fn advance(&mut self, rank: Rank) -> Result<bool, ExecError> {
        let mut progressed = self.progress_recvs(rank)?;
        loop {
            let st = &self.ranks[rank as usize];
            if st.done() {
                return Ok(progressed);
            }
            let top = st.prog.ops[st.pc];
            match top.op {
                Op::Isend {
                    to,
                    block,
                    tag,
                    req,
                    ..
                } => {
                    self.check_block(rank, block)?;
                    let data = self.read_block(rank, block);
                    self.post_message(rank, to, tag, data);
                    let st = &mut self.ranks[rank as usize];
                    st.req_done[req as usize] = true;
                    st.pc += 1;
                }
                Op::Irecv {
                    from,
                    block,
                    tag,
                    req,
                    ..
                } => {
                    self.check_block(rank, block)?;
                    let st = &mut self.ranks[rank as usize];
                    st.pending.push_back(PendingRecv {
                        from,
                        tag,
                        block,
                        req,
                    });
                    st.pc += 1;
                }
                Op::WaitAll { first_req, count } => {
                    self.progress_recvs(rank)?;
                    let st = &self.ranks[rank as usize];
                    let mut ready = true;
                    for req in first_req..first_req + count {
                        match st.req_done.get(req as usize) {
                            Some(true) => {}
                            Some(false) => {
                                ready = false;
                                break;
                            }
                            None => return Err(ExecError::UnknownRequest { rank, req }),
                        }
                    }
                    if !ready {
                        return Ok(progressed);
                    }
                    self.ranks[rank as usize].pc += 1;
                }
                Op::Copy { src, dst } => {
                    self.check_block(rank, src)?;
                    self.check_block(rank, dst)?;
                    let data = self.read_block(rank, src);
                    self.write_block(rank, dst, &data);
                    self.copy_bytes += data.len() as Bytes;
                    self.ranks[rank as usize].pc += 1;
                }
            }
            progressed = true;
        }
    }

    fn finish(mut self) -> Result<ExecResult, ExecError> {
        for (r, st) in self.ranks.iter().enumerate() {
            if !st.pending.is_empty() {
                return Err(ExecError::DanglingReceives {
                    rank: r as Rank,
                    count: st.pending.len(),
                });
            }
        }
        let leftover: usize = self.mail.values().map(|q| q.len()).sum();
        if leftover > 0 {
            return Err(ExecError::UnconsumedMessages { count: leftover });
        }
        let rbufs = self
            .ranks
            .iter_mut()
            .map(|st| {
                if st.bufs.len() > 1 {
                    std::mem::take(&mut st.bufs[1])
                } else {
                    Vec::new()
                }
            })
            .collect();
        Ok(ExecResult {
            rbufs,
            messages: self.messages,
            message_bytes: self.message_bytes,
            copy_bytes: self.copy_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgBuilder;
    use crate::ir::{Phase, RBUF, SBUF};
    use std::borrow::Cow;

    struct TwoRank {
        progs: Vec<RankProgram>,
        bufsize: Bytes,
    }

    impl ScheduleSource for TwoRank {
        fn nranks(&self) -> usize {
            2
        }
        fn buffers(&self, _r: Rank) -> Vec<Bytes> {
            vec![self.bufsize, self.bufsize]
        }
        fn rank_program(&self, r: Rank) -> Cow<'_, RankProgram> {
            Cow::Borrowed(&self.progs[r as usize])
        }
        fn phase_names(&self) -> Vec<&'static str> {
            vec!["all"]
        }
    }

    fn swap_schedule() -> TwoRank {
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
        TwoRank { progs, bufsize: 8 }
    }

    #[test]
    fn legacy_swap_moves_data() {
        let res = LegacyDataExecutor::run(&swap_schedule(), |r, buf| {
            buf.fill(r as u8 + 1);
        })
        .unwrap();
        assert_eq!(res.rbufs[0], vec![2u8; 8]);
        assert_eq!(res.rbufs[1], vec![1u8; 8]);
        assert_eq!(res.messages, 2);
        assert_eq!(res.message_bytes, 16);
    }

    #[test]
    fn legacy_detects_deadlock() {
        let mut progs = Vec::new();
        for me in 0..2u32 {
            let peer = 1 - me;
            let mut b = ProgBuilder::new(Phase(0));
            b.recv(peer, Block::new(RBUF, 0, 8), 0);
            b.send(peer, Block::new(SBUF, 0, 8), 0);
            progs.push(b.finish());
        }
        let err = LegacyDataExecutor::run(&TwoRank { progs, bufsize: 8 }, |_, _| {}).unwrap_err();
        assert!(matches!(err, ExecError::Deadlock { ref blocked } if blocked.len() == 2));
    }
}
