//! The rank stepper: the one dynamic reading of the schedule IR.
//!
//! Every byte-moving executor applies the same MPI rule: a rank runs past
//! `Isend` / `Irecv` / `Copy`, blocks only at a `WaitAll`, and the k-th
//! send on a `(from, to, tag)` channel pairs with the k-th receive posted
//! on it. [`RankStepper`] holds one rank's interpreter state and runs the
//! ops; a [`Transport`] pairs messages and moves bytes. The transports are
//! the data executor's zero-copy receive slots ([`crate::ExecScratch`]), the
//! threaded runtime's fabric port, and the legacy oracle in
//! `a2a-testutil`; the two drivers are [`drive`] (sequential round-robin,
//! below) and the runtime's fabric worker.
//!
//! The policy, identical on every transport:
//!
//! * every step first tries the rank's posted receives in posting order,
//!   and a `WaitAll` retries them before it blocks — so a rank that has
//!   run off the end of its program still drains receives it never waited
//!   on;
//! * the block checks (`UnknownBuffer`, `OutOfBounds`) and `UnknownRequest`
//!   are made here, before the transport sees the op;
//! * each send and receive gets its ordinal among the rank's sends or
//!   receives: the data executor paired them at prepare time by it;
//! * per-channel FIFO is the fabric transport's concern alone: a message
//!   can reach it *during* a step, so it refuses, for the rest of that
//!   step, a channel that already came up empty in it, or a later receive
//!   could overtake an earlier one on the same channel.

use std::borrow::Borrow;
use std::collections::VecDeque;

use a2a_topo::Rank;

use crate::exec::{ExecError, ExecStats};
use crate::ir::{Block, Bytes, Op, RankProgram};

/// What one [`RankStepper::step`] achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Progress {
    /// A receive matched or an op ran.
    Advanced,
    /// Nothing moved: the rank waits at a `WaitAll` on an unmatched receive.
    Blocked,
    /// Nothing moved: the program has ended.
    Done,
}

/// Moves bytes for a [`RankStepper`]; owns every buffer it moves them
/// between.
pub trait Transport {
    type Error;
    /// Length of `rank`'s buffer `buf`; `None` if the rank has no such buffer.
    fn buffer_len(&self, rank: Rank, buf: u8) -> Option<Bytes>;
    /// Post `block` of `rank` to `to` on `tag` (eager: never blocks). `ord`
    /// counts the rank's earlier sends.
    fn send(
        &mut self,
        rank: Rank,
        ord: u32,
        to: Rank,
        tag: u32,
        block: Block,
    ) -> Result<(), Self::Error>;
    /// Deliver the next message on `(from, rank, tag)` into `block` if one
    /// is deliverable now; `Ok(false)` if not. `ord` counts the rank's
    /// receives posted before this one.
    fn recv(
        &mut self,
        rank: Rank,
        ord: u32,
        from: Rank,
        tag: u32,
        block: Block,
    ) -> Result<bool, Self::Error>;
    /// Copy `src` onto `dst` within `rank`'s buffers.
    fn copy(&mut self, rank: Rank, src: Block, dst: Block);
    /// The transport's form of a schedule error the stepper found.
    fn reject(&mut self, err: ExecError) -> Self::Error;
}

#[derive(Debug, Clone, Copy)]
struct PostedRecv {
    ord: u32,
    from: Rank,
    tag: u32,
    block: Block,
    req: u32,
}

/// One rank's interpreter state: program counter, send and receive
/// ordinals, posted-but-unmatched receives in posting order,
/// request-completion bits, and traffic counters. Reusable across runs via
/// [`RankStepper::reset`].
#[derive(Debug, Clone)]
pub struct RankStepper {
    pc: usize,
    sends: u32,
    recvs: u32,
    posted: VecDeque<PostedRecv>,
    complete: Vec<bool>,
    stats: ExecStats,
}

impl RankStepper {
    pub fn new(prog: &RankProgram) -> Self {
        RankStepper {
            pc: 0,
            sends: 0,
            recvs: 0,
            posted: VecDeque::new(),
            complete: vec![false; prog.n_reqs as usize],
            stats: ExecStats::default(),
        }
    }

    /// Back to the start of the program, keeping every allocation.
    pub fn reset(&mut self) {
        self.pc = 0;
        self.sends = 0;
        self.recvs = 0;
        self.posted.clear();
        self.complete.iter_mut().for_each(|c| *c = false);
        self.stats = ExecStats::default();
    }

    /// Index of the next op to run.
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Whether the program counter has run off the end of `prog`.
    pub fn finished(&self, prog: &RankProgram) -> bool {
        self.pc >= prog.ops.len()
    }

    /// Receives posted but not yet matched.
    pub fn posted(&self) -> usize {
        self.posted.len()
    }

    /// Messages, message bytes and copy bytes this rank has moved.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Run rank `rank` of `prog` as far as it can go without blocking.
    pub fn step<T: Transport>(
        &mut self,
        rank: Rank,
        prog: &RankProgram,
        t: &mut T,
    ) -> Result<Progress, T::Error> {
        let mut moved = self.match_posted(rank, t)?;
        while let Some(top) = prog.ops.get(self.pc) {
            match top.op {
                Op::Isend {
                    to,
                    block,
                    tag,
                    req,
                    ..
                } => {
                    check(rank, block, t)?;
                    t.send(rank, self.sends, to, tag, block)?;
                    self.sends += 1;
                    self.complete[req as usize] = true;
                }
                Op::Irecv {
                    from,
                    block,
                    tag,
                    req,
                } => {
                    check(rank, block, t)?;
                    self.posted.push_back(PostedRecv {
                        ord: self.recvs,
                        from,
                        tag,
                        block,
                        req,
                    });
                    self.recvs += 1;
                }
                Op::WaitAll { first_req, count } => {
                    moved |= self.match_posted(rank, t)?;
                    for req in first_req..first_req + count {
                        match self.complete.get(req as usize) {
                            Some(true) => {}
                            Some(false) if moved => return Ok(Progress::Advanced),
                            Some(false) => return Ok(Progress::Blocked),
                            None => return Err(t.reject(ExecError::UnknownRequest { rank, req })),
                        }
                    }
                }
                Op::Copy { src, dst } => {
                    check(rank, src, t)?;
                    check(rank, dst, t)?;
                    t.copy(rank, src, dst);
                    self.stats.copy_bytes += src.len;
                }
            }
            self.pc += 1;
            moved = true;
        }
        Ok(if moved {
            Progress::Advanced
        } else {
            Progress::Done
        })
    }

    /// Try every posted receive, in posting order; whether any matched.
    fn match_posted<T: Transport>(&mut self, rank: Rank, t: &mut T) -> Result<bool, T::Error> {
        let mut any = false;
        let mut i = 0;
        while i < self.posted.len() {
            let p = self.posted[i];
            if !t.recv(rank, p.ord, p.from, p.tag, p.block)? {
                i += 1;
                continue;
            }
            self.complete[p.req as usize] = true;
            self.stats.messages += 1;
            self.stats.message_bytes += p.block.len;
            self.posted.remove(i);
            any = true;
        }
        Ok(any)
    }

    /// What the rank is blocked on: `(from, tag)` of the first *unmatched*
    /// receive of the `WaitAll` at its program counter or, once the program
    /// has ended, of the first receive it never waited on.
    pub fn blocked_on(&self, prog: &RankProgram) -> Option<(Rank, u32)> {
        let first = match prog.ops.get(self.pc).map(|top| top.op) {
            None => self.posted.front(),
            Some(Op::WaitAll { first_req, count }) => (first_req..first_req + count)
                .find_map(|req| self.posted.iter().find(|p| p.req == req)),
            Some(_) => None,
        };
        first.map(|p| (p.from, p.tag))
    }

    /// A request the `WaitAll` at the program counter names that is neither
    /// complete nor posted: no op can complete it any more. The sequential
    /// driver reports such a rank as deadlocked; a concurrent driver, which
    /// cannot see a deadlock, rejects it.
    pub fn unposted(&self, prog: &RankProgram) -> Option<u32> {
        let Op::WaitAll { first_req, count } = prog.ops.get(self.pc)?.op else {
            return None;
        };
        (first_req..first_req + count).find(|&req| {
            self.complete.get(req as usize) == Some(&false)
                && !self.posted.iter().any(|p| p.req == req)
        })
    }
}

fn check<T: Transport>(rank: Rank, block: Block, t: &mut T) -> Result<(), T::Error> {
    let buf = block.buf.0;
    match t.buffer_len(rank, buf) {
        None => Err(t.reject(ExecError::UnknownBuffer { rank, buf })),
        Some(size) if block.end() > size => Err(t.reject(ExecError::OutOfBounds {
            rank,
            buf,
            end: block.end(),
            size,
        })),
        Some(_) => Ok(()),
    }
}

/// The sequential driver: step every rank round-robin until all programs
/// end, then require every posted receive matched. A full pass in which
/// nothing moved is a [`ExecError::Deadlock`] naming each unfinished rank
/// and its program counter. Returns the summed traffic counters; checking
/// for messages left in flight is the caller's (the transport's) job.
pub fn drive<T, P>(
    steppers: &mut [RankStepper],
    progs: &[P],
    t: &mut T,
) -> Result<ExecStats, ExecError>
where
    T: Transport<Error = ExecError>,
    P: Borrow<RankProgram>,
{
    loop {
        let mut progressed = false;
        let mut all_done = true;
        for (r, (st, prog)) in steppers.iter_mut().zip(progs).enumerate() {
            progressed |= st.step(r as Rank, prog.borrow(), t)? == Progress::Advanced;
            all_done &= st.finished(prog.borrow());
        }
        if all_done {
            break;
        }
        if !progressed {
            let blocked = steppers
                .iter()
                .zip(progs)
                .enumerate()
                .filter(|(_, (st, prog))| !st.finished((*prog).borrow()))
                .map(|(r, (st, _))| (r as Rank, st.pc))
                .collect();
            return Err(ExecError::Deadlock { blocked });
        }
    }
    let mut total = ExecStats::default();
    for (r, st) in steppers.iter().enumerate() {
        if !st.posted.is_empty() {
            return Err(ExecError::DanglingReceives {
                rank: r as Rank,
                count: st.posted.len(),
            });
        }
        total.messages += st.stats.messages;
        total.message_bytes += st.stats.message_bytes;
        total.copy_bytes += st.stats.copy_bytes;
    }
    Ok(total)
}

/// Copy `src` onto `dst` (`dst.len` bytes) within one rank's buffers;
/// memmove-safe when both lie in the same buffer.
pub fn copy_block(bufs: &mut [Vec<u8>], src: Block, dst: Block) {
    let (s, d, len) = (src.off as usize, dst.off as usize, dst.len as usize);
    if src.buf == dst.buf {
        bufs[dst.buf.0 as usize].copy_within(s..s + len, d);
    } else {
        let (sb, db) = split_two(bufs, src.buf.0 as usize, dst.buf.0 as usize);
        db[d..d + len].copy_from_slice(&sb[s..s + len]);
    }
}

/// Mutably borrow two distinct elements of a slice.
pub(crate) fn split_two<T>(v: &mut [T], a: usize, b: usize) -> (&mut T, &mut T) {
    debug_assert_ne!(a, b);
    if a < b {
        let (lo, hi) = v.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = v.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgBuilder;
    use crate::ir::{Phase, RBUF, SBUF};
    use std::collections::HashMap;

    /// A plain mailbox transport: owned payloads per `(from, to, tag)`.
    struct Mem {
        bufs: Vec<Vec<Vec<u8>>>,
        mail: HashMap<(Rank, Rank, u32), VecDeque<Vec<u8>>>,
    }

    impl Mem {
        fn new(nranks: usize) -> Self {
            Mem {
                bufs: (0..nranks)
                    .map(|r| vec![vec![r as u8; 8], vec![0; 8]])
                    .collect(),
                mail: HashMap::new(),
            }
        }
    }

    impl Transport for Mem {
        type Error = ExecError;
        fn buffer_len(&self, rank: Rank, buf: u8) -> Option<Bytes> {
            self.bufs[rank as usize]
                .get(buf as usize)
                .map(|b| b.len() as Bytes)
        }
        fn send(
            &mut self,
            rank: Rank,
            _: u32,
            to: Rank,
            tag: u32,
            b: Block,
        ) -> Result<(), ExecError> {
            let data = self.bufs[rank as usize][b.buf.0 as usize][b.off as usize..b.end() as usize]
                .to_vec();
            self.mail
                .entry((rank, to, tag))
                .or_default()
                .push_back(data);
            Ok(())
        }
        fn recv(
            &mut self,
            rank: Rank,
            _: u32,
            from: Rank,
            tag: u32,
            b: Block,
        ) -> Result<bool, ExecError> {
            let Some(data) = self
                .mail
                .get_mut(&(from, rank, tag))
                .and_then(|q| q.pop_front())
            else {
                return Ok(false);
            };
            self.bufs[rank as usize][b.buf.0 as usize][b.off as usize..b.end() as usize]
                .copy_from_slice(&data);
            Ok(true)
        }
        fn copy(&mut self, rank: Rank, src: Block, dst: Block) {
            copy_block(&mut self.bufs[rank as usize], src, dst);
        }
        fn reject(&mut self, err: ExecError) -> ExecError {
            err
        }
    }

    fn run(progs: &[RankProgram]) -> Result<ExecStats, ExecError> {
        let mut steppers: Vec<RankStepper> = progs.iter().map(RankStepper::new).collect();
        drive(&mut steppers, progs, &mut Mem::new(progs.len()))
    }

    fn blk(buf: crate::ir::BufId, off: Bytes) -> Block {
        Block::new(buf, off, 4)
    }

    #[test]
    fn a_request_covered_by_two_waits_completes_at_the_first() {
        let mut r0 = ProgBuilder::new(Phase(0));
        let req = r0.irecv(1, blk(RBUF, 0), 0);
        r0.wait(req);
        r0.wait(req);
        let mut r1 = ProgBuilder::new(Phase(0));
        r1.send(0, blk(SBUF, 0), 0);
        let stats = run(&[r0.finish(), r1.finish()]).unwrap();
        assert_eq!(stats.messages, 1);
    }

    #[test]
    fn deadlock_reports_each_blocked_ranks_wait_pc() {
        // Both ranks wait for a message the other never sends; rank 0's
        // wait sits behind a copy, so the two pcs differ.
        let mut r0 = ProgBuilder::new(Phase(0));
        r0.copy(blk(SBUF, 0), blk(RBUF, 4));
        r0.recv(1, blk(RBUF, 0), 0);
        let mut r1 = ProgBuilder::new(Phase(0));
        r1.recv(0, blk(RBUF, 0), 0);
        let err = run(&[r0.finish(), r1.finish()]).unwrap_err();
        assert_eq!(
            err,
            ExecError::Deadlock {
                blocked: vec![(0, 2), (1, 1)]
            }
        );
    }

    #[test]
    fn a_finished_rank_drains_a_receive_it_never_waited_on() {
        // Rank 1 posts a receive and runs off the end of its program; the
        // message arrives only after rank 0 is released by rank 2.
        let mut r0 = ProgBuilder::new(Phase(0));
        r0.recv(2, blk(RBUF, 0), 0);
        r0.isend(1, blk(SBUF, 0), 0);
        let mut r1 = ProgBuilder::new(Phase(0));
        r1.irecv(0, blk(RBUF, 0), 0);
        let mut r2 = ProgBuilder::new(Phase(0));
        r2.isend(0, blk(SBUF, 0), 0);
        let stats = run(&[r0.finish(), r1.finish(), r2.finish()]).unwrap();
        assert_eq!(stats.messages, 2);
    }

    #[test]
    fn blocked_on_names_the_first_unmatched_receive() {
        // Rank 0 posts a receive it does not wait on here, then waits on
        // two more, of which the first has already arrived.
        let mut b = ProgBuilder::new(Phase(0));
        b.irecv(3, blk(SBUF, 4), 7);
        let first = b.irecv(1, blk(RBUF, 0), 5);
        b.irecv(2, blk(RBUF, 4), 6);
        b.waitall(first, 2);
        let prog = b.finish();
        let mut mem = Mem::new(4);
        mem.mail.entry((1, 0, 5)).or_default().push_back(vec![9; 4]);
        let mut st = RankStepper::new(&prog);
        assert_eq!(st.step(0, &prog, &mut mem), Ok(Progress::Advanced));
        assert_eq!(st.pc(), 3);
        assert_eq!(st.blocked_on(&prog), Some((2, 6)));
        assert_eq!(st.unposted(&prog), None);
        assert_eq!(st.step(0, &prog, &mut mem), Ok(Progress::Blocked));
    }

    #[test]
    fn a_wait_before_its_receive_is_posted_names_the_request() {
        let mut b = ProgBuilder::new(Phase(0));
        let req = b.irecv(1, blk(RBUF, 0), 0);
        b.wait(req);
        let mut prog = b.finish();
        prog.ops.swap(0, 1);
        let mut st = RankStepper::new(&prog);
        assert_eq!(st.step(0, &prog, &mut Mem::new(2)), Ok(Progress::Blocked));
        assert_eq!(st.blocked_on(&prog), None);
        assert_eq!(st.unposted(&prog), Some(req));
    }
}
