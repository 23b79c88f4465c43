//! The pre-fast-path transport, kept as the reference for the zero-copy one.
//!
//! [`LegacyDataExecutor`] drives the same [`RankStepper`]s as
//! `a2a_sched::DataExecutor`, over the transport the data executor had
//! before its zero-copy rewrite: it clones each rank's program, allocates
//! a fresh `Vec<u8>` per message, and keys mailboxes by
//! `HashMap<(from, to, tag)>` that matches at run time. The fast transport
//! replaced all three with borrowed programs, an arena, and receive slots
//! paired with their sends at prepare time;
//! differential tests (`tests/zero_copy_fastpath.rs`, `tests/exec_golden.rs`)
//! pin it byte-identical to this one. The stepper itself is pinned by the
//! recorded values of `tests/exec_golden.rs`.
//!
//! Do not "fix" or optimise this file — it is the reference.

use std::collections::{HashMap, VecDeque};

use a2a_sched::exec::ExecResult;
use a2a_sched::step::drive;
use a2a_sched::{
    Block, Bytes, ExecError, FaultInjector, FaultStats, RankProgram, RankStepper, ScheduleSource,
    Transport,
};
use a2a_topo::Rank;

/// Sequential round-robin executor over owned per-message payloads. See
/// module docs.
pub struct LegacyDataExecutor;

/// The owned-payload transport.
struct Legacy<'a> {
    bufs: Vec<Vec<Vec<u8>>>,
    /// (from, to, tag) -> FIFO of message payloads.
    mail: HashMap<(Rank, Rank, u32), VecDeque<Vec<u8>>>,
    /// Optional fault layer applied to every sent message.
    injector: Option<&'a dyn FaultInjector>,
    /// Per-(from, to, tag) send counters for fault sequencing.
    seqs: HashMap<(Rank, Rank, u32), u64>,
    faults: FaultStats,
}

impl LegacyDataExecutor {
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
        injector: &dyn FaultInjector,
    ) -> Result<(ExecResult, FaultStats), ExecError> {
        Self::run_inner(source, fill, Some(injector))
    }

    fn run_inner(
        source: &dyn ScheduleSource,
        mut fill: impl FnMut(Rank, &mut [u8]),
        injector: Option<&dyn FaultInjector>,
    ) -> Result<(ExecResult, FaultStats), ExecError> {
        let n = source.nranks();
        let progs: Vec<RankProgram> = (0..n as Rank).map(|r| source.build_rank(r)).collect();
        let mut steppers: Vec<RankStepper> = progs.iter().map(RankStepper::new).collect();
        let mut wire = Legacy {
            bufs: Vec::with_capacity(n),
            mail: HashMap::new(),
            injector,
            seqs: HashMap::new(),
            faults: FaultStats::default(),
        };
        for r in 0..n as Rank {
            let sizes = source.buffers(r);
            let mut bufs: Vec<Vec<u8>> = sizes.iter().map(|&s| vec![0u8; s as usize]).collect();
            if let Some(sbuf) = bufs.first_mut() {
                fill(r, sbuf);
            }
            wire.bufs.push(bufs);
        }
        let stats = drive(&mut steppers, &progs, &mut wire).map_err(|e| wire.faults.blame(e))?;
        let leftover: usize = wire.mail.values().map(|q| q.len()).sum();
        if leftover > 0 {
            return Err(wire
                .faults
                .blame(ExecError::UnconsumedMessages { count: leftover }));
        }
        let rbufs = wire
            .bufs
            .iter_mut()
            .map(|bufs| {
                if bufs.len() > 1 {
                    std::mem::take(&mut bufs[1])
                } else {
                    Vec::new()
                }
            })
            .collect();
        let res = ExecResult {
            rbufs,
            messages: stats.messages,
            message_bytes: stats.message_bytes,
            copy_bytes: stats.copy_bytes,
        };
        Ok((res, wire.faults))
    }
}

impl Legacy<'_> {
    fn read_block(&self, rank: Rank, block: Block) -> Vec<u8> {
        let buf = &self.bufs[rank as usize][block.buf.0 as usize];
        buf[block.off as usize..block.end() as usize].to_vec()
    }

    fn write_block(&mut self, rank: Rank, block: Block, data: &[u8]) {
        let buf = &mut self.bufs[rank as usize][block.buf.0 as usize];
        buf[block.off as usize..block.end() as usize].copy_from_slice(data);
    }
}

impl Transport for Legacy<'_> {
    type Error = ExecError;

    fn buffer_len(&self, rank: Rank, buf: u8) -> Option<Bytes> {
        self.bufs[rank as usize]
            .get(buf as usize)
            .map(|b| b.len() as Bytes)
    }

    /// Deliver a sent message into the mailbox, applying the fault layer.
    /// Note the per-message owned `data` and the duplicate `clone()`: this
    /// allocation pattern is exactly what the fast path removes.
    fn send(
        &mut self,
        from: Rank,
        _ord: u32,
        to: Rank,
        tag: u32,
        block: Block,
    ) -> Result<(), ExecError> {
        let mut data = self.read_block(from, block);
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
                return Ok(());
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
        Ok(())
    }

    fn recv(
        &mut self,
        rank: Rank,
        _ord: u32,
        from: Rank,
        tag: u32,
        block: Block,
    ) -> Result<bool, ExecError> {
        let msg = match self.mail.get_mut(&(from, rank, tag)) {
            Some(q) if !q.is_empty() => q.pop_front().unwrap(),
            _ => return Ok(false),
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
        Ok(true)
    }

    fn copy(&mut self, rank: Rank, src: Block, dst: Block) {
        let data = self.read_block(rank, src);
        self.write_block(rank, dst, &data);
    }

    fn reject(&mut self, err: ExecError) -> ExecError {
        err
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_sched::{Phase, ProgBuilder, RBUF, SBUF};
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
