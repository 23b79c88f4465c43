//! The data executor: runs a whole schedule on real byte buffers.
//!
//! This is the correctness oracle for every algorithm: it moves actual
//! bytes between paired sends and receives (the k-th send on a
//! `(from, to, tag)` channel with the k-th receive on it, like MPI) and
//! detects deadlocks, tag/peer mismatches, length mismatches, out-of-bounds
//! accesses, and leftover messages.
//!
//! Execution is sequential and deterministic: ranks are advanced round-robin
//! until all programs finish or no rank can make progress. Non-blocking
//! semantics are honored — a rank runs past `Isend`/`Irecv` and only blocks
//! at `WaitAll`, with sends completing eagerly (buffered), which matches the
//! standard-mode MPI behaviour the paper's algorithms assume.
//!
//! # Fast path
//!
//! Message transport is zero-copy wherever the schedule allows it
//! (see DESIGN.md §8):
//!
//! * programs are **borrowed** from the source ([`ScheduleSource::rank_program`]),
//!   never cloned per run;
//! * a [`PreparedSchedule`] pairs every send with its receive once, through
//!   [`FifoChannels`]: a sent message's descriptor is written straight into
//!   its receive's **slot** (one flat array, one slot per receive), and a
//!   posted receive reads its own slot — no mailbox, no queue, no lookup;
//! * it also precomputes, per send, whether its source bytes stay untouched
//!   until delivery (**stable sends**) — those are delivered with a single
//!   `memcpy` straight from the sender's live buffer into the receiver's
//!   block;
//! * unstable sends (and every fault-perturbed message) are snapshotted into
//!   a recycling **byte arena** — messages are `(offset, len)` slices, not
//!   owned `Vec`s, and slots are reused by exact size class;
//! * all run-to-run state lives in a reusable [`ExecScratch`], so a bench
//!   loop allocates nothing after the first iteration.
//!
//! An unpaired send stays in flight, an unpaired receive is never satisfied,
//! and a paired length mismatch is reported at delivery. An injected fault
//! acts on its own message: a drop leaves its receive unsatisfied, and a
//! duplicate is the one extra message left in flight.
//!
//! The interpreter is the shared [`RankStepper`] driven by [`step::drive`];
//! this module is its zero-copy transport. `a2a_testutil::LegacyDataExecutor`
//! runs the same stepper over an owned-payload `HashMap` mailbox that
//! matches at run time, and a differential test pins this transport
//! byte-identical to it.

use std::borrow::Cow;

use a2a_topo::Rank;

use crate::fifo::{FifoChannels, Post};
use crate::ir::{Block, BufId, Bytes, Op, RankProgram};
use crate::step::{self, copy_block, split_two, RankStepper, Transport};
use crate::ScheduleSource;

/// Execution failure, with enough context to debug the offending schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// No rank could make progress; lists `(rank, program counter)` of every
    /// unfinished rank.
    Deadlock { blocked: Vec<(Rank, usize)> },
    /// A block referenced a buffer id the rank did not declare.
    UnknownBuffer { rank: Rank, buf: u8 },
    /// A block ran past the end of its buffer.
    OutOfBounds {
        rank: Rank,
        buf: u8,
        end: Bytes,
        size: Bytes,
    },
    /// A received message's length differed from the posted receive block.
    LengthMismatch {
        rank: Rank,
        from: Rank,
        tag: u32,
        sent: Bytes,
        posted: Bytes,
    },
    /// Messages were sent but never received.
    UnconsumedMessages { count: usize },
    /// A receive was posted but never satisfied (and never waited on).
    DanglingReceives { rank: Rank, count: usize },
    /// A `WaitAll` named a request id never posted by a send or receive.
    UnknownRequest { rank: Rank, req: u32 },
    /// The schedule failed *after* a [`FaultInjector`] perturbed its
    /// messages: the underlying error plus what was injected, so a test can
    /// tell a detected injected fault from a genuine schedule bug.
    FaultInjected {
        dropped: usize,
        duplicated: usize,
        corrupted: usize,
        cause: Box<ExecError>,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Deadlock { blocked } => {
                write!(f, "deadlock: {} ranks blocked", blocked.len())?;
                for (r, pc) in blocked.iter().take(8) {
                    write!(f, " (rank {r} at op {pc})")?;
                }
                Ok(())
            }
            ExecError::UnknownBuffer { rank, buf } => {
                write!(f, "rank {rank}: unknown buffer id {buf}")
            }
            ExecError::OutOfBounds {
                rank,
                buf,
                end,
                size,
            } => write!(
                f,
                "rank {rank}: access to byte {end} of buffer {buf} (size {size})"
            ),
            ExecError::LengthMismatch {
                rank,
                from,
                tag,
                sent,
                posted,
            } => write!(
                f,
                "rank {rank}: message from {from} tag {tag} has {sent} bytes, receive posted {posted}"
            ),
            ExecError::UnconsumedMessages { count } => {
                write!(f, "{count} messages sent but never received")
            }
            ExecError::DanglingReceives { rank, count } => {
                write!(f, "rank {rank}: {count} receives never satisfied")
            }
            ExecError::UnknownRequest { rank, req } => {
                write!(f, "rank {rank}: wait on unknown request {req}")
            }
            ExecError::FaultInjected {
                dropped,
                duplicated,
                corrupted,
                cause,
            } => write!(
                f,
                "after injected faults ({dropped} dropped, {duplicated} duplicated, \
                 {corrupted} corrupted): {cause}"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// One message's injected fate, decided by a [`FaultInjector`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MessageFault {
    /// Silently discard the message.
    pub drop: bool,
    /// Deliver the message twice.
    pub duplicate: bool,
    /// Flip one payload byte at `hint % len` (no-op on empty payloads).
    pub corrupt: Option<u64>,
}

impl MessageFault {
    /// A fault that leaves the message untouched.
    pub fn clean() -> Self {
        MessageFault::default()
    }

    /// Whether this fault perturbs the message at all.
    pub fn is_clean(&self) -> bool {
        !self.drop && !self.duplicate && self.corrupt.is_none()
    }

    /// Apply the corruption component of this fault to a payload in place:
    /// flips one byte at `hint % len`. Returns whether a byte was actually
    /// flipped (empty payloads cannot be corrupted). Every executor shares
    /// this so corruption is byte-identical across them.
    pub fn apply_corrupt(&self, data: &mut [u8]) -> bool {
        match self.corrupt {
            Some(hint) if !data.is_empty() => {
                let idx = (hint % data.len() as u64) as usize;
                data[idx] ^= 0xA5;
                true
            }
            _ => false,
        }
    }
}

/// Decides each message's fate. `seq` is the send's index on its
/// `(from, to, tag)` channel, in the sender's program order (the data
/// executor computes it at prepare time), so a deterministic injector
/// (e.g. `a2a_faults::FaultPlan`) produces the same fate regardless of
/// executor interleaving.
pub trait FaultInjector: Sync {
    fn on_message(&self, from: Rank, to: Rank, tag: u32, seq: u64) -> MessageFault;
}

/// What a fault-injected execution actually perturbed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    pub dropped: usize,
    pub duplicated: usize,
    pub corrupted: usize,
}

impl FaultStats {
    pub fn any(&self) -> bool {
        self.dropped + self.duplicated + self.corrupted > 0
    }

    /// `cause`, wrapped in [`ExecError::FaultInjected`] once anything was
    /// injected: a failure after injection is the *expected* loud
    /// detection, and the counts let a test tell it from a schedule bug.
    pub fn blame(&self, cause: ExecError) -> ExecError {
        if !self.any() {
            return cause;
        }
        ExecError::FaultInjected {
            dropped: self.dropped,
            duplicated: self.duplicated,
            corrupted: self.corrupted,
            cause: Box::new(cause),
        }
    }
}

/// Summary of a successful execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecResult {
    /// Every rank's final receive buffer (`RBUF`).
    pub rbufs: Vec<Vec<u8>>,
    /// Messages delivered.
    pub messages: usize,
    /// Total message payload bytes.
    pub message_bytes: Bytes,
    /// Total locally copied (repack) bytes.
    pub copy_bytes: Bytes,
}

/// Traffic counters of a successful [`DataExecutor::run_prepared`] run
/// (the receive buffers stay in the [`ExecScratch`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Messages delivered.
    pub messages: usize,
    /// Total message payload bytes.
    pub message_bytes: Bytes,
    /// Total locally copied (repack) bytes.
    pub copy_bytes: Bytes,
}

/// [`SendLink::recv`] of a send no receive pairs with.
const UNPAIRED: u32 = u32::MAX;

/// How one `Isend` is delivered, resolved at prepare time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SendLink {
    /// The paired receive's ordinal among the receiver's receives, or
    /// [`UNPAIRED`].
    recv: u32,
    /// The send's index on its `(from, to, tag)` channel: the fault
    /// layer's `seq`.
    seq: u32,
    /// Whether the source bytes provably stay untouched until delivery
    /// ([`send_stability`]).
    stable: bool,
}

/// A schedule compiled for execution: borrowed (or built-once) programs,
/// buffer sizes, and every send's paired receive and stability.
///
/// Preparing once and calling [`DataExecutor::run_prepared`] in a loop is
/// the intended bench path: programs are never rebuilt or cloned, and the
/// paired [`ExecScratch`] recycles every byte of run-to-run state.
///
/// A prepared schedule is normally borrowed from its source for the
/// duration of one run loop. Long-running consumers (the `a2a-service`
/// schedule cache) instead sever the borrow with
/// [`PreparedSchedule::into_owned`] and share the resulting
/// `PreparedSchedule<'static>` behind an `Arc` across jobs and worker
/// threads: every field is plain `Send + Sync` data.
#[derive(Debug)]
pub struct PreparedSchedule<'s> {
    nranks: usize,
    progs: Vec<Cow<'s, RankProgram>>,
    bufsizes: Vec<Vec<Bytes>>,
    /// Per rank, per `Isend` in program order: how it is delivered.
    sends: Vec<Vec<SendLink>>,
    /// Rank `r`'s receives own slots `recv_base[r]..recv_base[r + 1]`, in
    /// posting order.
    recv_base: Vec<usize>,
    phase_names: Vec<&'static str>,
}

impl<'s> PreparedSchedule<'s> {
    pub fn new(source: &'s dyn ScheduleSource) -> Self {
        let n = source.nranks();
        let (mut progs, mut bufsizes) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let mut recv_base = vec![0];
        // Receives under their source, each named by its ordinal.
        let mut channels = FifoChannels::new(n);
        for r in 0..n as Rank {
            let prog = source.rank_program(r);
            let mut id = 0;
            for top in &prog.ops {
                if let Op::Irecv {
                    from, block, tag, ..
                } = top.op
                {
                    let (to, len) = (r, block.len);
                    channels.recv(from, Post { to, tag, id, len });
                    id += 1;
                }
            }
            recv_base.push(recv_base[r as usize] + id as usize);
            bufsizes.push(source.buffers(r));
            progs.push(prog);
        }
        // Then each rank's sends against them. Every channel's common
        // prefix pairs; leftovers on either side stay unpaired.
        let sends = (progs.iter().enumerate())
            .map(|(from, prog)| {
                let (stable, mut posts, mut links) = (send_stability(prog), vec![], vec![]);
                for top in &prog.ops {
                    if let Op::Isend { to, block, tag, .. } = top.op {
                        let (id, len) = (posts.len() as u32, block.len);
                        posts.push(Post { to, tag, id, len });
                        let (recv, seq, stable) = (UNPAIRED, 0, stable[id as usize]);
                        links.push(SendLink { recv, seq, stable });
                    }
                }
                let paired = channels.channels(from as Rank, &mut posts, |ch| {
                    for (seq, s) in ch.sends.iter().enumerate() {
                        links[s.id as usize].seq = seq as u32;
                    }
                    for (s, r) in ch.pairs() {
                        links[s.id as usize].recv = r.id;
                    }
                    Ok::<_, std::convert::Infallible>(())
                });
                let Ok(()) = paired;
                links
            })
            .collect();
        PreparedSchedule {
            nranks: n,
            progs,
            bufsizes,
            sends,
            recv_base,
            phase_names: source.phase_names(),
        }
    }

    /// Compile `source` straight into an owned (`'static`) prepared
    /// schedule. Shorthand for `PreparedSchedule::new(src).into_owned()`
    /// usable when the source is a temporary.
    pub fn new_owned(source: &dyn ScheduleSource) -> PreparedSchedule<'static> {
        PreparedSchedule::new(source).into_owned()
    }

    /// Sever the borrow of the compiled source, yielding a shareable
    /// `PreparedSchedule<'static>` (e.g. for an `Arc`-based cache).
    ///
    /// Programs that were built by the source (generator-style
    /// [`ScheduleSource::build_rank`] implementations, i.e. every
    /// algorithm) are already owned `Cow`s and are **moved**, not cloned —
    /// converting a freshly compiled algorithm schedule allocates nothing.
    /// Only programs borrowed from a storing source are cloned, once.
    pub fn into_owned(self) -> PreparedSchedule<'static> {
        PreparedSchedule {
            nranks: self.nranks,
            progs: self
                .progs
                .into_iter()
                .map(|p| Cow::Owned(p.into_owned()))
                .collect(),
            bufsizes: self.bufsizes,
            sends: self.sends,
            recv_base: self.recv_base,
            phase_names: self.phase_names,
        }
    }

    pub fn nranks(&self) -> usize {
        self.nranks
    }

    pub fn prog(&self, rank: Rank) -> &RankProgram {
        self.progs[rank as usize].as_ref()
    }

    /// Rank `rank`'s buffer sizes, borrowed — unlike
    /// [`ScheduleSource::buffers`], which must allocate a fresh `Vec` per
    /// call, this is free and is what the prepare path uses internally.
    pub fn buffer_sizes(&self, rank: Rank) -> &[Bytes] {
        &self.bufsizes[rank as usize]
    }
}

/// Compiled-content equality across borrow states: a cached owned schedule
/// compares equal to a freshly compiled borrowed one iff every program,
/// buffer size, send link, receive slot and phase name is bit-identical.
impl<'b> PartialEq<PreparedSchedule<'b>> for PreparedSchedule<'_> {
    fn eq(&self, other: &PreparedSchedule<'b>) -> bool {
        self.nranks == other.nranks
            && self.progs == other.progs
            && self.bufsizes == other.bufsizes
            && self.sends == other.sends
            && self.recv_base == other.recv_base
            && self.phase_names == other.phase_names
    }
}

impl Eq for PreparedSchedule<'_> {}

impl ScheduleSource for PreparedSchedule<'_> {
    fn nranks(&self) -> usize {
        self.nranks
    }
    fn buffers(&self, rank: Rank) -> Vec<Bytes> {
        self.bufsizes[rank as usize].clone()
    }
    fn rank_program(&self, rank: Rank) -> Cow<'_, RankProgram> {
        Cow::Borrowed(self.progs[rank as usize].as_ref())
    }
    fn phase_names(&self) -> Vec<&'static str> {
        self.phase_names.clone()
    }
}

/// Per-send stability for one program, in send order. An `Isend`'s source
/// region is stable iff no `Irecv` block in the program overlaps it (a
/// receive posted *before* the send can still be satisfied — and written —
/// *after* it) and no `Copy` at a later op index writes into it. Stable
/// payloads can be delivered from the sender's live buffer; everything else
/// is snapshotted.
fn send_stability(prog: &RankProgram) -> Vec<bool> {
    // Per buffer id: every receive block, then (walking backwards) every
    // copy destination after the op at hand.
    let (mut recvs, mut later_copies) = (Vec::new(), Vec::new());
    for top in &prog.ops {
        if let Op::Irecv { block, .. } = top.op {
            Ranges::of(&mut recvs, block.buf).add(block);
        }
    }
    let overlaps = |all: &[Ranges], b: Block| all.get(b.buf.0 as usize).is_some_and(|r| r.hit(b));
    let mut stable = Vec::new();
    for top in prog.ops.iter().rev() {
        match top.op {
            Op::Copy { dst, .. } => Ranges::of(&mut later_copies, dst.buf).add(dst),
            Op::Isend { block, .. } => {
                stable.push(!overlaps(&recvs, block) && !overlaps(&later_copies, block))
            }
            _ => {}
        }
    }
    stable.reverse();
    stable
}

/// Byte ranges of one buffer, with their hull so the common case (sends
/// from SBUF, receives into RBUF/temporaries) rejects without a scan.
#[derive(Default)]
struct Ranges {
    hull: Option<(Bytes, Bytes)>,
    all: Vec<(Bytes, Bytes)>,
}

impl Ranges {
    /// Buffer `buf`'s entry of a per-buffer table, created empty.
    fn of(table: &mut Vec<Ranges>, buf: BufId) -> &mut Ranges {
        let i = buf.0 as usize;
        if table.len() <= i {
            table.resize_with(i + 1, Ranges::default);
        }
        &mut table[i]
    }

    fn add(&mut self, b: Block) {
        let (lo, hi) = self.hull.unwrap_or((b.off, b.end()));
        self.hull = Some((lo.min(b.off), hi.max(b.end())));
        self.all.push((b.off, b.end()));
    }

    /// Whether `b` overlaps any of the ranges.
    fn hit(&self, b: Block) -> bool {
        let hits = |(lo, hi): (Bytes, Bytes)| b.off < hi && lo < b.end();
        self.hull.is_some_and(hits) && self.all.iter().any(|&r| hits(r))
    }
}

/// One in-flight message: a slice descriptor, never an owned buffer.
/// `src == SRC_ARENA` means the payload lives at `arena[off..off+len]`;
/// otherwise it is read from `bufs[src][buf][off..off+len]` at delivery
/// (stable sends). A receive's slot holds [`Msg::NONE`] until its paired
/// send runs.
#[derive(Clone, Copy)]
struct Msg {
    src: Rank,
    buf: u8,
    off: Bytes,
    len: Bytes,
}

/// `Msg::src` value marking an arena-backed payload.
const SRC_ARENA: Rank = Rank::MAX;

impl Msg {
    /// An empty slot.
    const NONE: Msg = Msg::new(Rank::MAX - 1, 0, 0, 0);

    const fn new(src: Rank, buf: u8, off: Bytes, len: Bytes) -> Self {
        Msg { src, buf, off, len }
    }
}

/// Byte arena with exact-size free lists. A schedule uses only a handful of
/// distinct message lengths, so a linear scan over size classes is cheaper
/// than any general allocator — and recycled slots are always fully
/// overwritten by the snapshot copy before they are re-enqueued.
#[derive(Default)]
struct Arena {
    bytes: Vec<u8>,
    free: Vec<(Bytes, Vec<Bytes>)>,
}

impl Arena {
    fn alloc(&mut self, len: Bytes) -> Bytes {
        if let Some((_, slots)) = self.free.iter_mut().find(|(l, _)| *l == len) {
            if let Some(off) = slots.pop() {
                return off;
            }
        }
        let off = self.bytes.len() as Bytes;
        self.bytes.resize(self.bytes.len() + len as usize, 0);
        off
    }

    fn release(&mut self, off: Bytes, len: Bytes) {
        if len == 0 {
            return;
        }
        match self.free.iter_mut().find(|(l, _)| *l == len) {
            Some((_, slots)) => slots.push(off),
            None => self.free.push((len, vec![off])),
        }
    }

    fn clear(&mut self) {
        self.bytes.clear();
        self.free.clear();
    }
}

/// The zero-copy transport's state: every rank's buffers, one message slot
/// per receive, and the arena.
struct Mail {
    bufs: Vec<Vec<Vec<u8>>>,
    /// Indexed by [`PreparedSchedule::recv_base`] plus receive ordinal.
    slots: Vec<Msg>,
    arena: Arena,
    /// Messages sent and not yet received, duplicates and unpaired sends
    /// included.
    in_flight: usize,
}

/// All mutable state of one execution, reusable across runs of the same
/// [`PreparedSchedule`]: buffers, the receive slots, the arena, and one
/// [`RankStepper`] per rank. After the first run a bench loop allocates
/// nothing.
///
/// Buffers are *not* re-zeroed between runs; `fill` rewrites the send
/// buffers and a schedule that verifies from zero-initialised buffers
/// overwrites every receive-buffer byte it produces, so reused runs yield
/// the same receive buffers as fresh ones.
pub struct ExecScratch {
    mail: Mail,
    steppers: Vec<RankStepper>,
}

impl ExecScratch {
    pub fn new(prep: &PreparedSchedule<'_>) -> Self {
        let bufs = prep
            .bufsizes
            .iter()
            .map(|sizes| sizes.iter().map(|&s| vec![0u8; s as usize]).collect())
            .collect();
        ExecScratch {
            mail: Mail {
                bufs,
                slots: vec![Msg::NONE; prep.recv_base[prep.nranks]],
                arena: Arena::default(),
                in_flight: 0,
            },
            steppers: prep.progs.iter().map(|p| RankStepper::new(p)).collect(),
        }
    }

    /// Rank `rank`'s receive buffer after a [`DataExecutor::run_prepared`].
    pub fn rbuf(&self, rank: Rank) -> &[u8] {
        self.mail.bufs[rank as usize]
            .get(1)
            .map_or(&[], |b| b.as_slice())
    }

    /// Return to the ready state, keeping every allocation.
    fn reset(&mut self) {
        let m = &mut self.mail;
        if m.in_flight != 0 {
            // An errored run left messages in slots (or nowhere); the slots
            // and arena are cheaper to rebuild than to unpick.
            m.slots.fill(Msg::NONE);
            m.arena.clear();
            m.in_flight = 0;
        }
        self.steppers.iter_mut().for_each(RankStepper::reset);
    }
}

/// The zero-copy [`Transport`]: one run's view of a prepared schedule and
/// its scratch slots.
struct Port<'e, 'p> {
    prep: &'e PreparedSchedule<'p>,
    m: &'e mut Mail,
    injector: Option<&'e dyn FaultInjector>,
    faults: FaultStats,
}

impl Transport for Port<'_, '_> {
    type Error = ExecError;

    fn buffer_len(&self, rank: Rank, buf: u8) -> Option<Bytes> {
        self.m.bufs[rank as usize]
            .get(buf as usize)
            .map(|b| b.len() as Bytes)
    }

    /// Post one sent message into its paired receive's slot. The common
    /// path allocates nothing and copies nothing: a stable send writes a
    /// slice descriptor pointing at the sender's live buffer. Unstable or
    /// corrupted payloads are snapshotted into the arena. An injected
    /// duplicate is the one extra message, counted in flight and never
    /// delivered.
    fn send(
        &mut self,
        from: Rank,
        ord: u32,
        to: Rank,
        tag: u32,
        block: Block,
    ) -> Result<(), ExecError> {
        let link = self.prep.sends[from as usize][ord as usize];
        let fault = match self.injector {
            Some(inj) => inj.on_message(from, to, tag, link.seq as u64),
            None => MessageFault::clean(),
        };
        if fault.drop {
            self.faults.dropped += 1;
            return Ok(());
        }
        let m = &mut *self.m;
        if fault.duplicate {
            self.faults.duplicated += 1;
            m.in_flight += 1;
        }
        m.in_flight += 1;
        let msg = if link.stable && fault.corrupt.is_none() {
            Msg::new(from, block.buf.0, block.off, block.len)
        } else {
            // Snapshot into the arena (recycled slots are fully overwritten).
            let off = m.arena.alloc(block.len);
            let src = &m.bufs[from as usize][block.buf.0 as usize]
                [block.off as usize..block.end() as usize];
            let dst = &mut m.arena.bytes[off as usize..(off + block.len) as usize];
            dst.copy_from_slice(src);
            if fault.apply_corrupt(dst) {
                self.faults.corrupted += 1;
            }
            Msg::new(SRC_ARENA, 0, off, block.len)
        };
        if link.recv != UNPAIRED {
            m.slots[self.prep.recv_base[to as usize] + link.recv as usize] = msg;
        }
        Ok(())
    }

    fn recv(
        &mut self,
        rank: Rank,
        ord: u32,
        from: Rank,
        tag: u32,
        block: Block,
    ) -> Result<bool, ExecError> {
        let m = &mut *self.m;
        let slot = &mut m.slots[self.prep.recv_base[rank as usize] + ord as usize];
        let msg = *slot;
        if msg.src == Msg::NONE.src {
            return Ok(false);
        }
        if msg.len != block.len {
            return Err(ExecError::LengthMismatch {
                rank,
                from,
                tag,
                sent: msg.len,
                posted: block.len,
            });
        }
        *slot = Msg::NONE;
        m.in_flight -= 1;

        let dst = block.off as usize..block.end() as usize;
        if msg.src == SRC_ARENA {
            let src = &m.arena.bytes[msg.off as usize..(msg.off + msg.len) as usize];
            m.bufs[rank as usize][block.buf.0 as usize][dst].copy_from_slice(src);
            m.arena.release(msg.off, msg.len);
        } else {
            // A stable send, read from the sender's live buffer.
            let src = Block::new(BufId(msg.buf), msg.off, msg.len);
            if msg.src == rank {
                copy_block(&mut m.bufs[rank as usize], src, block);
            } else {
                let (s, d) = split_two(&mut m.bufs, msg.src as usize, rank as usize);
                d[block.buf.0 as usize][dst].copy_from_slice(
                    &s[msg.buf as usize][msg.off as usize..(msg.off + msg.len) as usize],
                );
            }
        }
        Ok(true)
    }

    fn copy(&mut self, rank: Rank, src: Block, dst: Block) {
        copy_block(&mut self.m.bufs[rank as usize], src, dst);
    }

    fn reject(&mut self, err: ExecError) -> ExecError {
        err
    }
}

/// Sequential deterministic executor over the zero-copy fast path: the
/// sequential [`step::drive`] over the scratch slots. See module docs.
pub struct DataExecutor;

impl DataExecutor {
    /// Execute `source`, filling each rank's send buffer with `fill`,
    /// and return the final receive buffers.
    pub fn run(
        source: &dyn ScheduleSource,
        fill: impl FnMut(Rank, &mut [u8]),
    ) -> Result<ExecResult, ExecError> {
        let prep = PreparedSchedule::new(source);
        let mut scratch = ExecScratch::new(&prep);
        let stats = Self::run_prepared(&prep, &mut scratch, fill)?;
        Ok(take_result(&mut scratch, stats))
    }

    /// Execute `source` with `injector` perturbing every message. Returns
    /// the result plus what was injected; failures caused after any
    /// injection are wrapped in [`ExecError::FaultInjected`] so detection
    /// tests can name the fault.
    pub fn run_with_faults(
        source: &dyn ScheduleSource,
        fill: impl FnMut(Rank, &mut [u8]),
        injector: &dyn FaultInjector,
    ) -> Result<(ExecResult, FaultStats), ExecError> {
        let prep = PreparedSchedule::new(source);
        let mut scratch = ExecScratch::new(&prep);
        let (stats, faults) = Self::run_prepared_with_faults(&prep, &mut scratch, fill, injector)?;
        Ok((take_result(&mut scratch, stats), faults))
    }

    /// Execute a prepared schedule in a reusable scratch: the allocation-free
    /// bench path. Receive buffers are left in the scratch
    /// ([`ExecScratch::rbuf`]); only traffic counters are returned.
    pub fn run_prepared(
        prep: &PreparedSchedule<'_>,
        scratch: &mut ExecScratch,
        fill: impl FnMut(Rank, &mut [u8]),
    ) -> Result<ExecStats, ExecError> {
        Self::run_prepared_inner(prep, scratch, fill, None).map(|(s, _)| s)
    }

    /// [`DataExecutor::run_prepared`] with a fault layer.
    pub fn run_prepared_with_faults(
        prep: &PreparedSchedule<'_>,
        scratch: &mut ExecScratch,
        fill: impl FnMut(Rank, &mut [u8]),
        injector: &dyn FaultInjector,
    ) -> Result<(ExecStats, FaultStats), ExecError> {
        Self::run_prepared_inner(prep, scratch, fill, Some(injector))
    }

    fn run_prepared_inner(
        prep: &PreparedSchedule<'_>,
        scratch: &mut ExecScratch,
        mut fill: impl FnMut(Rank, &mut [u8]),
        injector: Option<&dyn FaultInjector>,
    ) -> Result<(ExecStats, FaultStats), ExecError> {
        assert_eq!(
            scratch.steppers.len(),
            prep.nranks,
            "scratch was built for a different schedule"
        );
        scratch.reset();
        for (r, bufs) in scratch.mail.bufs.iter_mut().enumerate() {
            if let Some(sbuf) = bufs.first_mut() {
                fill(r as Rank, sbuf);
            }
        }
        let mut port = Port {
            prep,
            m: &mut scratch.mail,
            injector,
            faults: FaultStats::default(),
        };
        let res = step::drive(&mut scratch.steppers, &prep.progs, &mut port);
        let faults = port.faults;
        let res = res.and_then(|stats| match scratch.mail.in_flight {
            0 => Ok((stats, faults)),
            count => Err(ExecError::UnconsumedMessages { count }),
        });
        res.map_err(|cause| faults.blame(cause))
    }
}

/// Move the receive buffers out of a one-shot scratch.
fn take_result(scratch: &mut ExecScratch, stats: ExecStats) -> ExecResult {
    let rbufs = (scratch.mail.bufs.iter_mut())
        .map(|bufs| bufs.get_mut(1).map(std::mem::take).unwrap_or_default())
        .collect();
    ExecResult {
        rbufs,
        messages: stats.messages,
        message_bytes: stats.message_bytes,
        copy_bytes: stats.copy_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgBuilder;
    use crate::ir::{Phase, RBUF, SBUF};

    /// A 2-rank ping-pong schedule for exercising the executor. Stores its
    /// programs and hands out borrows: execution never clones an op list.
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
    fn swap_moves_data() {
        let res = DataExecutor::run(&swap_schedule(), |r, buf| {
            buf.fill(r as u8 + 1);
        })
        .unwrap();
        assert_eq!(res.rbufs[0], vec![2u8; 8]);
        assert_eq!(res.rbufs[1], vec![1u8; 8]);
        assert_eq!(res.messages, 2);
        assert_eq!(res.message_bytes, 16);
    }

    #[test]
    fn blocking_recv_before_send_deadlocks() {
        // Both ranks do blocking recv first -> classic deadlock.
        let mut progs = Vec::new();
        for me in 0..2u32 {
            let peer = 1 - me;
            let mut b = ProgBuilder::new(Phase(0));
            b.recv(peer, Block::new(RBUF, 0, 8), 0);
            b.send(peer, Block::new(SBUF, 0, 8), 0);
            progs.push(b.finish());
        }
        let err = DataExecutor::run(&TwoRank { progs, bufsize: 8 }, |_, _| {}).unwrap_err();
        assert!(matches!(err, ExecError::Deadlock { ref blocked } if blocked.len() == 2));
    }

    #[test]
    fn nonblocking_recv_before_send_is_fine() {
        let mut progs = Vec::new();
        for me in 0..2u32 {
            let peer = 1 - me;
            let mut b = ProgBuilder::new(Phase(0));
            let r0 = b.irecv(peer, Block::new(RBUF, 0, 8), 0);
            b.isend(peer, Block::new(SBUF, 0, 8), 0);
            b.waitall(r0, 2);
            progs.push(b.finish());
        }
        DataExecutor::run(&TwoRank { progs, bufsize: 8 }, |r, buf| buf.fill(r as u8)).unwrap();
    }

    #[test]
    fn tag_mismatch_deadlocks() {
        let mut progs = Vec::new();
        for me in 0..2u32 {
            let peer = 1 - me;
            let mut b = ProgBuilder::new(Phase(0));
            let r0 = b.irecv(peer, Block::new(RBUF, 0, 8), 1); // wrong tag
            b.isend(peer, Block::new(SBUF, 0, 8), 0);
            b.waitall(r0, 2);
            progs.push(b.finish());
        }
        let err = DataExecutor::run(&TwoRank { progs, bufsize: 8 }, |_, _| {}).unwrap_err();
        assert!(matches!(err, ExecError::Deadlock { .. }));
    }

    #[test]
    fn length_mismatch_detected() {
        let mut progs = Vec::new();
        for me in 0..2u32 {
            let peer = 1 - me;
            let mut b = ProgBuilder::new(Phase(0));
            let rlen = if me == 0 { 4 } else { 8 };
            let r0 = b.irecv(peer, Block::new(RBUF, 0, rlen), 0);
            b.isend(peer, Block::new(SBUF, 0, 8), 0);
            b.waitall(r0, 2);
            progs.push(b.finish());
        }
        let err = DataExecutor::run(&TwoRank { progs, bufsize: 8 }, |_, _| {}).unwrap_err();
        assert!(matches!(
            err,
            ExecError::LengthMismatch {
                sent: 8,
                posted: 4,
                ..
            }
        ));
    }

    #[test]
    fn out_of_bounds_detected() {
        let mut b = ProgBuilder::new(Phase(0));
        b.copy(Block::new(SBUF, 4, 8), Block::new(RBUF, 0, 8));
        let progs = vec![b.finish(), RankProgram::default()];
        let err = DataExecutor::run(&TwoRank { progs, bufsize: 8 }, |_, _| {}).unwrap_err();
        assert!(matches!(
            err,
            ExecError::OutOfBounds {
                end: 12,
                size: 8,
                ..
            }
        ));
    }

    #[test]
    fn unconsumed_message_detected() {
        let mut b = ProgBuilder::new(Phase(0));
        b.isend(1, Block::new(SBUF, 0, 8), 0);
        let progs = vec![b.finish(), RankProgram::default()];
        let err = DataExecutor::run(&TwoRank { progs, bufsize: 8 }, |_, _| {}).unwrap_err();
        assert_eq!(err, ExecError::UnconsumedMessages { count: 1 });
    }

    #[test]
    fn fifo_ordering_per_source_and_tag() {
        // Rank 0 sends two messages with the same tag; rank 1 must receive
        // them in order.
        let mut b0 = ProgBuilder::new(Phase(0));
        b0.isend(1, Block::new(SBUF, 0, 4), 0);
        b0.isend(1, Block::new(SBUF, 4, 4), 0);
        let mut b1 = ProgBuilder::new(Phase(0));
        let r = b1.irecv(0, Block::new(RBUF, 0, 4), 0);
        b1.irecv(0, Block::new(RBUF, 4, 4), 0);
        b1.waitall(r, 2);
        let progs = vec![b0.finish(), b1.finish()];
        let res = DataExecutor::run(&TwoRank { progs, bufsize: 8 }, |r, buf| {
            if r == 0 {
                buf[..4].fill(0xAA);
                buf[4..].fill(0xBB);
            }
        })
        .unwrap();
        assert_eq!(&res.rbufs[1][..4], &[0xAA; 4]);
        assert_eq!(&res.rbufs[1][4..], &[0xBB; 4]);
    }

    /// Deterministic injector for tests: faults messages by (to, seq) rule.
    struct DropFirstTo1;
    impl FaultInjector for DropFirstTo1 {
        fn on_message(&self, _from: Rank, to: Rank, _tag: u32, seq: u64) -> MessageFault {
            MessageFault {
                drop: to == 1 && seq == 0,
                ..MessageFault::default()
            }
        }
    }

    struct DupAll;
    impl FaultInjector for DupAll {
        fn on_message(&self, _f: Rank, _t: Rank, _tag: u32, _s: u64) -> MessageFault {
            MessageFault {
                duplicate: true,
                ..MessageFault::default()
            }
        }
    }

    struct CorruptAll;
    impl FaultInjector for CorruptAll {
        fn on_message(&self, _f: Rank, _t: Rank, _tag: u32, _s: u64) -> MessageFault {
            MessageFault {
                corrupt: Some(3),
                ..MessageFault::default()
            }
        }
    }

    #[test]
    fn injected_drop_detected_as_fault_wrapped_deadlock() {
        let err =
            DataExecutor::run_with_faults(&swap_schedule(), |_, _| {}, &DropFirstTo1).unwrap_err();
        match err {
            ExecError::FaultInjected { dropped, cause, .. } => {
                assert_eq!(dropped, 1);
                assert!(matches!(*cause, ExecError::Deadlock { .. }), "{cause}");
            }
            other => panic!("expected FaultInjected, got {other}"),
        }
    }

    #[test]
    fn injected_duplicate_detected_as_unconsumed() {
        let err = DataExecutor::run_with_faults(&swap_schedule(), |_, _| {}, &DupAll).unwrap_err();
        match err {
            ExecError::FaultInjected {
                duplicated, cause, ..
            } => {
                assert_eq!(duplicated, 2);
                assert!(matches!(*cause, ExecError::UnconsumedMessages { count: 2 }));
            }
            other => panic!("expected FaultInjected, got {other}"),
        }
    }

    #[test]
    fn injected_corruption_flips_exactly_one_byte() {
        let (res, stats) = DataExecutor::run_with_faults(
            &swap_schedule(),
            |r, buf| buf.fill(r as u8 + 1),
            &CorruptAll,
        )
        .unwrap();
        assert_eq!(stats.corrupted, 2);
        // Payloads still delivered, but one byte per message differs.
        let diffs: usize = res.rbufs[0].iter().filter(|&&b| b != 2).count();
        assert_eq!(diffs, 1);
    }

    #[test]
    fn a_fault_acts_on_its_own_message_of_a_channel() {
        // Rank 0 sends a 4-byte and then an 8-byte message on one channel;
        // rank 1 receives each with a blocking receive of its length.
        let mut b0 = ProgBuilder::new(Phase(0));
        let first = b0.isend(1, Block::new(SBUF, 0, 4), 0);
        b0.isend(1, Block::new(SBUF, 4, 8), 0);
        b0.waitall(first, 2);
        let mut b1 = ProgBuilder::new(Phase(0));
        b1.recv(0, Block::new(RBUF, 0, 4), 0);
        b1.recv(0, Block::new(RBUF, 4, 8), 0);
        let progs = vec![b0.finish(), b1.finish()];
        let src = TwoRank { progs, bufsize: 16 };
        DataExecutor::run(&src, |_, _| {}).unwrap();
        // The dropped first message leaves the first receive unsatisfied:
        // the second message never shifts onto it, so rank 1 blocks at its
        // first wait (op 1), not with a length mismatch.
        let faults = |dropped, duplicated| FaultStats {
            dropped,
            duplicated,
            corrupted: 0,
        };
        let err = DataExecutor::run_with_faults(&src, |_, _| {}, &DropFirstTo1).unwrap_err();
        let blocked = vec![(1, 1)];
        assert_eq!(err, faults(1, 0).blame(ExecError::Deadlock { blocked }));
        // Each duplicate is one extra message: both receives get their own
        // (no length mismatch), and the two copies are left in flight.
        let err = DataExecutor::run_with_faults(&src, |_, _| {}, &DupAll).unwrap_err();
        let cause = ExecError::UnconsumedMessages { count: 2 };
        assert_eq!(err, faults(0, 2).blame(cause));
    }

    #[test]
    fn clean_injector_behaves_like_plain_run() {
        struct Clean;
        impl FaultInjector for Clean {
            fn on_message(&self, _f: Rank, _t: Rank, _tag: u32, _s: u64) -> MessageFault {
                MessageFault::clean()
            }
        }
        let (res, stats) =
            DataExecutor::run_with_faults(&swap_schedule(), |r, buf| buf.fill(r as u8 + 1), &Clean)
                .unwrap();
        assert!(!stats.any());
        assert_eq!(res.rbufs[0], vec![2u8; 8]);
    }

    #[test]
    fn self_copy_via_copy_op() {
        let mut b = ProgBuilder::new(Phase(0));
        b.copy(Block::new(SBUF, 0, 8), Block::new(RBUF, 0, 8));
        let progs = vec![b.finish(), RankProgram::default()];
        let res = DataExecutor::run(&TwoRank { progs, bufsize: 8 }, |r, buf| {
            buf.fill(r as u8 + 9)
        })
        .unwrap();
        assert_eq!(res.rbufs[0], vec![9u8; 8]);
        assert_eq!(res.copy_bytes, 8);
    }

    #[test]
    fn self_send_delivers_through_mailbox() {
        // A rank sending to itself matches its own receive; the delivery
        // copies within one rank's buffer set.
        let mut b = ProgBuilder::new(Phase(0));
        let r0 = b.irecv(0, Block::new(RBUF, 0, 8), 3);
        b.isend(0, Block::new(SBUF, 0, 8), 3);
        b.waitall(r0, 2);
        let progs = vec![b.finish(), RankProgram::default()];
        let res = DataExecutor::run(&TwoRank { progs, bufsize: 8 }, |r, buf| {
            buf.fill(r as u8 + 5)
        })
        .unwrap();
        assert_eq!(res.rbufs[0], vec![5u8; 8]);
        assert_eq!(res.messages, 1);
    }

    #[test]
    fn unstable_send_snapshots_payload_at_send_time() {
        // Rank 0 sends SBUF[0..8] and then overwrites it with a Copy before
        // rank 1's receive is matched: the receiver must see the bytes as
        // they were when the send was posted. This is the case the
        // stability analysis exists to catch.
        let mut b0 = ProgBuilder::new(Phase(0));
        b0.isend(1, Block::new(SBUF, 0, 8), 0);
        b0.copy(Block::new(SBUF, 8, 8), Block::new(SBUF, 0, 8));
        let mut b1 = ProgBuilder::new(Phase(0));
        let r = b1.irecv(0, Block::new(RBUF, 0, 8), 0);
        b1.waitall(r, 1);
        let progs = vec![b0.finish(), b1.finish()];
        // Ensure the prepared schedule actually classified it unstable.
        let src = TwoRank { progs, bufsize: 16 };
        let prep = PreparedSchedule::new(&src);
        assert!(
            !prep.sends[0][0].stable,
            "send source is overwritten by a later copy"
        );
        let res = DataExecutor::run(&src, |r, buf| {
            if r == 0 {
                buf[..8].fill(0x11);
                buf[8..].fill(0x22);
            }
        })
        .unwrap();
        assert_eq!(
            &res.rbufs[1][..8],
            &[0x11; 8],
            "snapshot taken at send time"
        );
    }

    #[test]
    fn sendrecv_sends_are_stable() {
        // The ubiquitous pattern — send from SBUF, receive into RBUF —
        // must take the zero-snapshot path.
        let src = swap_schedule();
        let prep = PreparedSchedule::new(&src);
        for r in 0..2 {
            let sends_stable = prep.sends[r as usize].iter().any(|l| l.stable);
            assert!(sends_stable, "rank {r}'s send should be stable");
        }
    }

    #[test]
    fn arena_slots_are_fully_overwritten_on_reuse() {
        // Two same-length unstable messages in sequence: the second reuses
        // the first's arena slot and must carry its own bytes, never stale
        // ones. Both sends are made unstable by a trailing self-copy over
        // the send region.
        let mut b0 = ProgBuilder::new(Phase(0));
        b0.isend(1, Block::new(SBUF, 0, 8), 0);
        let mut b1 = ProgBuilder::new(Phase(0));
        let r = b1.irecv(0, Block::new(RBUF, 0, 8), 0);
        b1.waitall(r, 1);
        b1.isend(0, Block::new(SBUF, 0, 8), 1);
        b1.copy(Block::new(SBUF, 8, 8), Block::new(SBUF, 0, 8)); // makes it unstable
                                                                 // Rank 0 also overwrites its sent region -> unstable too.
        b0.copy(Block::new(SBUF, 8, 8), Block::new(SBUF, 0, 8));
        let r2 = b0.irecv(1, Block::new(RBUF, 0, 8), 1);
        b0.waitall(r2, 1);
        let progs = vec![b0.finish(), b1.finish()];
        let src = TwoRank { progs, bufsize: 16 };
        let prep = PreparedSchedule::new(&src);
        assert!(
            !prep.sends[0][0].stable && !prep.sends[1][0].stable,
            "both sends unstable"
        );
        let res = DataExecutor::run(&src, |r, buf| {
            buf[..8].fill(if r == 0 { 0xAA } else { 0xBB });
            buf[8..].fill(0x00);
        })
        .unwrap();
        assert_eq!(&res.rbufs[1][..8], &[0xAA; 8]);
        assert_eq!(
            &res.rbufs[0][..8],
            &[0xBB; 8],
            "recycled slot fully overwritten"
        );
    }

    #[test]
    fn prepared_scratch_reuse_is_allocation_stable_and_correct() {
        // Run the same prepared schedule three times with different fills:
        // each run must produce that fill's answer (no stale bytes leak
        // across runs through the reused buffers, arena, or slots).
        let src = swap_schedule();
        let prep = PreparedSchedule::new(&src);
        let mut scratch = ExecScratch::new(&prep);
        for pass in 1..=3u8 {
            let stats =
                DataExecutor::run_prepared(&prep, &mut scratch, |r, buf| buf.fill(r as u8 + pass))
                    .unwrap();
            assert_eq!(stats.messages, 2);
            assert_eq!(scratch.rbuf(0), &[1 + pass; 8][..]);
            assert_eq!(scratch.rbuf(1), &[pass; 8][..]);
        }
    }

    #[test]
    fn owned_schedule_is_bit_identical_to_borrowed() {
        let src = swap_schedule();
        let borrowed = PreparedSchedule::new(&src);
        let owned = PreparedSchedule::new(&src).into_owned();
        assert_eq!(owned, borrowed);
        // And it executes identically through a fresh scratch.
        let mut s_b = ExecScratch::new(&borrowed);
        let mut s_o = ExecScratch::new(&owned);
        DataExecutor::run_prepared(&borrowed, &mut s_b, |r, buf| buf.fill(r as u8 + 1)).unwrap();
        DataExecutor::run_prepared(&owned, &mut s_o, |r, buf| buf.fill(r as u8 + 1)).unwrap();
        assert_eq!(s_b.rbuf(0), s_o.rbuf(0));
        assert_eq!(s_b.rbuf(1), s_o.rbuf(1));
    }

    #[test]
    fn into_owned_moves_generator_built_programs() {
        // A generator-style source (only `build_rank`) hands the prepare
        // path owned programs; `into_owned` must move them, not clone:
        // the op vector's heap allocation survives the conversion.
        struct Gen;
        impl ScheduleSource for Gen {
            fn nranks(&self) -> usize {
                2
            }
            fn buffers(&self, _r: Rank) -> Vec<Bytes> {
                vec![8, 8]
            }
            fn build_rank(&self, r: Rank) -> RankProgram {
                swap_schedule().progs[r as usize].clone()
            }
            fn phase_names(&self) -> Vec<&'static str> {
                vec!["all"]
            }
        }
        let prep = PreparedSchedule::new(&Gen);
        let ptr_before = prep.prog(0).ops.as_ptr();
        let owned = prep.into_owned();
        assert_eq!(owned.prog(0).ops.as_ptr(), ptr_before, "moved, not cloned");
    }

    #[test]
    fn owned_schedule_is_shareable_across_threads() {
        let src = swap_schedule();
        let prep = std::sync::Arc::new(PreparedSchedule::new(&src).into_owned());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let prep = std::sync::Arc::clone(&prep);
                std::thread::spawn(move || {
                    let mut scratch = ExecScratch::new(&prep);
                    DataExecutor::run_prepared(&prep, &mut scratch, |r, buf| buf.fill(r as u8 + 1))
                        .unwrap();
                    scratch.rbuf(0).to_vec()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), vec![2u8; 8]);
        }
    }

    #[test]
    fn buffer_sizes_borrow_matches_trait_buffers() {
        let src = swap_schedule();
        let prep = PreparedSchedule::new(&src);
        for r in 0..2 {
            assert_eq!(prep.buffer_sizes(r), &ScheduleSource::buffers(&prep, r)[..]);
        }
    }
}
