//! Parallel deterministic schedule execution: many ranks, few threads.
//!
//! [`ParallelExecutor`] runs every rank of a compiled schedule
//! concurrently on a small pool of worker threads (`std::thread::scope`),
//! multiplexing each worker over a static round-robin partition of the
//! ranks. Each rank is an `a2a_sched::RankStepper` over a *fabric port*, a
//! transport that sends eagerly and receives with
//! [`Fabric::poll_recv_into`], so one stuck rank never wedges its worker.
//! The worker loop, [`drive`], is the runtime's one driver: `ThreadComm`'s
//! collectives run it too, over a one-rank slice. A driver parks only
//! after a pass over its ranks in which nothing moved, and any send to one
//! of its ranks cuts the park short.
//!
//! # Determinism
//!
//! The output bytes are independent of thread interleaving, and equal to
//! the sequential `a2a_sched::DataExecutor`'s, because:
//!
//! * each `(from, to, tag)` channel is posted by exactly one sender in
//!   its program order, and sequence numbers are assigned under the
//!   destination mailbox lock, so per-channel payload order is fixed;
//! * the stepper tries receives strictly in posting order, and the port
//!   refuses, for the rest of a step, any channel that came up empty in
//!   it — so a message arriving mid-step cannot be taken by a later
//!   receive on the *same* channel, while other channels keep draining;
//! * injected fault fates are pure hashes of `(from, to, tag, seq,
//!   attempt)`, and the fabric's store-once payloads make every recovered
//!   message byte-identical to its original send;
//! * verified schedules write each receive into its own disjoint block.
//!
//! The full fault-injection machinery applies unchanged: drops and
//! corruption are healed by inline retransmission, a dead rank fails the
//! world before any thread spawns, and a genuinely hung schedule is
//! bounded by the progress watchdog, which names every blocked rank. A
//! schedule error the stepper finds (a block outside its buffer, a wait on
//! an unknown request) panics the rank with the `ExecError`'s message.

use std::borrow::Cow;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use a2a_sched::step::copy_block;
use a2a_sched::{
    Block, Bytes, ExecError, Progress, RankProgram, RankStepper, ScheduleSource, Transport,
};

use crate::error::{BlockedKind, BlockedOp, RuntimeError};
use crate::fabric::{Fabric, ProgressWatch, WorldOptions};

/// Result of a successful parallel execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelOutput {
    /// Every rank's final receive buffer (`RBUF`), rank-ordered.
    pub rbufs: Vec<Vec<u8>>,
    /// Messages delivered.
    pub messages: usize,
    /// Total message payload bytes.
    pub message_bytes: Bytes,
    /// Total locally copied (repack) bytes.
    pub copy_bytes: Bytes,
}

/// One rank's program, buffers and stepper, owned by the thread driving it.
pub(crate) struct RankCtx<'s> {
    rank: u32,
    prog: Cow<'s, RankProgram>,
    pub(crate) bufs: Vec<Vec<u8>>,
    stepper: RankStepper,
    finished: bool,
    /// Whether this rank currently has a `BlockedOp` entry registered
    /// for watchdog diagnostics.
    registered: bool,
}

impl<'s> RankCtx<'s> {
    /// Rank `rank` at the start of `prog`, with zeroed buffers of `sizes`.
    pub(crate) fn new(rank: u32, prog: Cow<'s, RankProgram>, sizes: &[Bytes]) -> Self {
        RankCtx {
            rank,
            stepper: RankStepper::new(&prog),
            prog,
            bufs: sizes.iter().map(|&s| vec![0u8; s as usize]).collect(),
            finished: false,
            registered: false,
        }
    }
}

/// The fabric [`Transport`] for one step of one rank.
struct FabricPort<'a> {
    fabric: &'a Fabric,
    bufs: &'a mut [Vec<u8>],
    /// Channels that came up empty this step. They stay refused until the
    /// step ends: a message that lands on one mid-step belongs to the
    /// earlier receive that already missed it, not to a later one.
    stalled: &'a mut Vec<(u32, u32)>,
}

impl Transport for FabricPort<'_> {
    type Error = RuntimeError;

    fn buffer_len(&self, _rank: u32, buf: u8) -> Option<Bytes> {
        self.bufs.get(buf as usize).map(|b| b.len() as Bytes)
    }

    fn send(
        &mut self,
        rank: u32,
        _ord: u32,
        to: u32,
        tag: u32,
        block: Block,
    ) -> Result<(), RuntimeError> {
        let data = &self.bufs[block.buf.0 as usize][block.off as usize..block.end() as usize];
        self.fabric.send(rank, to, tag, data)
    }

    fn recv(
        &mut self,
        rank: u32,
        _ord: u32,
        from: u32,
        tag: u32,
        block: Block,
    ) -> Result<bool, RuntimeError> {
        if self.stalled.contains(&(from, tag)) {
            return Ok(false);
        }
        let dst = &mut self.bufs[block.buf.0 as usize][block.off as usize..block.end() as usize];
        let got = self.fabric.poll_recv_into(rank, from, tag, dst)?;
        if !got {
            self.stalled.push((from, tag));
        }
        Ok(got)
    }

    fn copy(&mut self, _rank: u32, src: Block, dst: Block) {
        copy_block(self.bufs, src, dst);
    }

    fn reject(&mut self, err: ExecError) -> RuntimeError {
        reject(err)
    }
}

/// A schedule error on a fabric driver panics the rank with its message.
fn reject(err: ExecError) -> ! {
    panic!("{err}")
}

/// Drive `ctxs` until all have finished, the world aborts, or the
/// watchdog fires. The calling thread becomes each rank's driver, steps
/// the ranks round-robin, and parks for at most one wait slice only after
/// a pass in which nothing moved; a send to any of its ranks unparks it,
/// including one that lands during the pass (the park token keeps it).
/// Errors have already aborted the world when returned.
pub(crate) fn drive(fabric: &Fabric, ctxs: &mut [RankCtx<'_>]) -> Result<(), RuntimeError> {
    for ctx in ctxs.iter() {
        fabric.set_driver(ctx.rank);
    }
    let mut watch = ProgressWatch::new(fabric);
    let mut stalled = Vec::new();
    let result = 'run: loop {
        if let Some(e) = fabric.abort_error() {
            break Err(e);
        }
        let mut progressed = false;
        let mut unfinished = false;
        for ctx in ctxs.iter_mut().filter(|c| !c.finished) {
            stalled.clear();
            let mut port = FabricPort {
                fabric,
                bufs: &mut ctx.bufs,
                stalled: &mut stalled,
            };
            let moved = match ctx.stepper.step(ctx.rank, &ctx.prog, &mut port) {
                Ok(p) => p == Progress::Advanced,
                Err(e) => break 'run Err(e),
            };
            ctx.finished = ctx.stepper.finished(&ctx.prog) && ctx.stepper.posted() == 0;
            progressed |= moved;
            unfinished |= !ctx.finished;
            if (moved || ctx.finished) && ctx.registered {
                fabric.unregister_blocked(ctx.rank);
                ctx.registered = false;
            }
        }
        if !unfinished {
            break Ok(());
        }
        if progressed {
            continue;
        }
        // A full pass moved nothing: reject a wait no op can satisfy,
        // publish each blocked state for the watchdog, then park until a
        // send to one of these ranks.
        for ctx in ctxs.iter_mut().filter(|c| !c.finished && !c.registered) {
            if let Some(req) = ctx.stepper.unposted(&ctx.prog) {
                reject(ExecError::UnknownRequest {
                    rank: ctx.rank,
                    req,
                });
            }
            if let Some((peer, tag)) = ctx.stepper.blocked_on(&ctx.prog) {
                fabric.register_blocked(BlockedOp {
                    rank: ctx.rank,
                    op_index: Some(ctx.stepper.pc()),
                    kind: BlockedKind::Recv { peer, tag },
                });
                ctx.registered = true;
            }
        }
        std::thread::park_timeout(fabric.wait_slice());
        if let Some(stalled) = watch.stalled_for(fabric) {
            if stalled >= fabric.options().watchdog {
                break Err(fabric.fire_watchdog());
            }
        }
    };
    for ctx in ctxs.iter_mut().filter(|c| c.registered) {
        fabric.unregister_blocked(ctx.rank);
        ctx.registered = false;
    }
    result
}

/// Runs all ranks of a schedule on a bounded worker pool.
pub struct ParallelExecutor;

impl ParallelExecutor {
    /// Run `source` with default options; `workers = 0` means one worker
    /// per available CPU (capped at the rank count).
    pub fn run(
        source: &dyn ScheduleSource,
        workers: usize,
        fill: impl FnMut(u32, &mut [u8]),
    ) -> Result<ParallelOutput, RuntimeError> {
        Self::run_with(source, WorldOptions::default(), workers, fill)
    }

    /// Run `source` under `opts` (watchdog, retransmit budget, fault
    /// plan). `fill(rank, sbuf)` seeds each rank's send buffer before any
    /// thread spawns. Returns rank-ordered receive buffers and summed
    /// traffic counters; any rank's failure (or a fault-plan dead rank)
    /// fails the whole collective with the first error.
    pub fn run_with(
        source: &dyn ScheduleSource,
        opts: WorldOptions,
        workers: usize,
        mut fill: impl FnMut(u32, &mut [u8]),
    ) -> Result<ParallelOutput, RuntimeError> {
        let n = source.nranks();
        assert!(n > 0, "schedule must have at least one rank");
        let fabric = Fabric::with_options(n, opts);
        if let Some(plan) = fabric.fault_plan() {
            if let Some(rank) = (0..n as u32).find(|&r| plan.is_dead(r)) {
                return Err(fabric.abort(RuntimeError::DeadRank { rank }));
            }
        }

        let workers = if workers == 0 {
            std::thread::available_parallelism()
                .map(|v| v.get())
                .unwrap_or(1)
        } else {
            workers
        }
        .min(n)
        .max(1);

        // Build all interpreter state up front, on this thread: programs
        // stay borrowed from the source (no per-run clones), buffers are
        // zeroed and the send buffers seeded by `fill`.
        let mut chunks: Vec<Vec<RankCtx<'_>>> = (0..workers).map(|_| Vec::new()).collect();
        for r in 0..n as u32 {
            let mut ctx = RankCtx::new(r, source.rank_program(r), &source.buffers(r));
            fill(r, &mut ctx.bufs[0]);
            chunks[r as usize % workers].push(ctx);
        }

        std::thread::scope(|scope| {
            for chunk in chunks.iter_mut() {
                let fabric = &fabric;
                let first_rank = chunk[0].rank;
                scope.spawn(move || {
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| drive(fabric, chunk))) {
                        // Unblock peers before re-raising so the scope's
                        // implicit joins all complete.
                        fabric.abort(RuntimeError::RankPanicked { rank: first_rank });
                        resume_unwind(payload);
                    }
                });
            }
        });

        if let Some(e) = fabric.abort_error() {
            return Err(e);
        }
        let leftover = fabric.undelivered();
        if leftover > 0 {
            return Err(RuntimeError::UnconsumedMessages { count: leftover });
        }

        let mut ctxs: Vec<RankCtx<'_>> = chunks.into_iter().flatten().collect();
        ctxs.sort_by_key(|c| c.rank);
        let mut out = ParallelOutput {
            rbufs: Vec::with_capacity(n),
            messages: 0,
            message_bytes: 0,
            copy_bytes: 0,
        };
        for mut ctx in ctxs {
            let stats = ctx.stepper.stats();
            out.rbufs.push(ctx.bufs.swap_remove(1));
            out.messages += stats.messages;
            out.message_bytes += stats.message_bytes;
            out.copy_bytes += stats.copy_bytes;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_core::{A2AContext, AlgoSchedule, PairwiseAlltoall};
    use a2a_sched::{check_alltoall_rbuf, fill_alltoall_sbuf, DataExecutor};
    use a2a_topo::{Machine, ProcGrid, Rank};
    use std::time::Duration;

    fn pairwise_source(nodes: usize, s: u64) -> AlgoSchedule<'static> {
        let grid = ProcGrid::new(Machine::custom("p", nodes, 2, 1, 2));
        AlgoSchedule::new(&PairwiseAlltoall, A2AContext::new(grid, s))
    }

    #[test]
    fn parallel_matches_sequential_executor() {
        let src = pairwise_source(2, 16);
        let n = src.nranks();
        let seq = DataExecutor::run(&src, |r, buf| fill_alltoall_sbuf(r, n, 16, buf)).unwrap();
        for workers in [1, 2, 3] {
            let par =
                ParallelExecutor::run(&src, workers, |r, buf| fill_alltoall_sbuf(r, n, 16, buf))
                    .unwrap();
            assert_eq!(par.rbufs, seq.rbufs, "workers={workers}");
            assert_eq!(par.messages, seq.messages);
            assert_eq!(par.message_bytes, seq.message_bytes);
            for r in 0..n as u32 {
                check_alltoall_rbuf(r, n, 16, &par.rbufs[r as usize]).unwrap();
            }
        }
    }

    #[test]
    fn parallel_watchdog_names_blocked_ranks() {
        // A schedule that can never complete: rank 0 waits on a message
        // rank 1 never sends.
        use a2a_sched::{Block, Phase, ProgBuilder, RBUF};
        struct Hung;
        impl ScheduleSource for Hung {
            fn nranks(&self) -> usize {
                2
            }
            fn buffers(&self, _r: Rank) -> Vec<a2a_sched::Bytes> {
                vec![8, 8]
            }
            fn build_rank(&self, r: Rank) -> RankProgram {
                if r == 0 {
                    let mut b = ProgBuilder::new(Phase(0));
                    let req = b.irecv(1, Block::new(RBUF, 0, 8), 3);
                    b.waitall(req, 1);
                    b.finish()
                } else {
                    RankProgram::default()
                }
            }
            fn phase_names(&self) -> Vec<&'static str> {
                vec!["all"]
            }
        }
        let opts = WorldOptions::default().with_watchdog(Duration::from_millis(80));
        let err = ParallelExecutor::run_with(&Hung, opts, 2, |_, _| {}).unwrap_err();
        match err {
            RuntimeError::WatchdogTimeout { blocked, .. } => {
                assert_eq!(blocked.len(), 1);
                assert_eq!(blocked[0].rank, 0);
                assert_eq!(blocked[0].kind, BlockedKind::Recv { peer: 1, tag: 3 });
            }
            other => panic!("expected WatchdogTimeout, got {other}"),
        }
    }

    #[test]
    fn fired_cancel_token_aborts_a_stuck_world() {
        // The same never-completing schedule the watchdog test uses, but
        // with a generous watchdog and an externally fired token: the
        // world must come down with `Cancelled`, not `WatchdogTimeout`.
        use a2a_sched::{Block, Phase, ProgBuilder, RBUF};
        struct Hung;
        impl ScheduleSource for Hung {
            fn nranks(&self) -> usize {
                2
            }
            fn buffers(&self, _r: a2a_topo::Rank) -> Vec<a2a_sched::Bytes> {
                vec![8, 8]
            }
            fn build_rank(&self, r: a2a_topo::Rank) -> RankProgram {
                if r == 0 {
                    let mut b = ProgBuilder::new(Phase(0));
                    let req = b.irecv(1, Block::new(RBUF, 0, 8), 3);
                    b.waitall(req, 1);
                    b.finish()
                } else {
                    RankProgram::default()
                }
            }
            fn phase_names(&self) -> Vec<&'static str> {
                vec!["all"]
            }
        }
        let token = crate::CancelToken::new();
        let canceller = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                token.cancel();
            })
        };
        let opts = WorldOptions::default()
            .with_watchdog(Duration::from_secs(30))
            .with_cancel(token);
        let err = ParallelExecutor::run_with(&Hung, opts, 2, |_, _| {}).unwrap_err();
        assert_eq!(err, RuntimeError::Cancelled);
        assert!(err.class() == crate::ErrorClass::Permanent);
        canceller.join().unwrap();
    }

    /// A never-completing two-rank schedule: `rank0` is rank 0's program,
    /// rank 1 does nothing.
    struct OneSided(RankProgram);

    impl ScheduleSource for OneSided {
        fn nranks(&self) -> usize {
            2
        }
        fn buffers(&self, _r: Rank) -> Vec<Bytes> {
            vec![8, 8]
        }
        fn rank_program(&self, r: Rank) -> Cow<'_, RankProgram> {
            match r {
                0 => Cow::Borrowed(&self.0),
                _ => Cow::Owned(RankProgram::default()),
            }
        }
        fn phase_names(&self) -> Vec<&'static str> {
            vec!["all"]
        }
    }

    fn recv_from_1(wait: bool) -> RankProgram {
        use a2a_sched::{Phase, ProgBuilder, RBUF};
        let mut b = ProgBuilder::new(Phase(0));
        let req = b.irecv(1, Block::new(RBUF, 0, 8), 3);
        if wait {
            b.wait(req);
        }
        b.finish()
    }

    #[test]
    fn port_refuses_a_channel_that_came_up_empty_this_step() {
        let fabric = Fabric::new(2);
        let mut bufs = vec![vec![0u8; 4], vec![0u8; 4]];
        let mut stalled = Vec::new();
        let block = Block::new(a2a_sched::RBUF, 0, 4);
        let mut port = FabricPort {
            fabric: &fabric,
            bufs: &mut bufs,
            stalled: &mut stalled,
        };
        assert_eq!(port.recv(1, 0, 0, 7, block), Ok(false));
        fabric.send(0, 1, 7, &[1, 2, 3, 4]).unwrap();
        assert_eq!(
            port.recv(1, 0, 0, 7, block),
            Ok(false),
            "a mid-step arrival belongs to the receive that missed it"
        );
        stalled.clear();
        let mut port = FabricPort {
            fabric: &fabric,
            bufs: &mut bufs,
            stalled: &mut stalled,
        };
        assert_eq!(port.recv(1, 0, 0, 7, block), Ok(true));
        assert_eq!(bufs[1], [1, 2, 3, 4]);
    }

    #[test]
    fn a_wait_on_an_unposted_request_panics_at_once() {
        let mut prog = recv_from_1(true);
        prog.ops.swap(0, 1);
        let opts = WorldOptions::default().with_watchdog(Duration::from_secs(30));
        let fabric = Fabric::with_options(2, opts);
        let mut ctx = RankCtx::new(0, Cow::Owned(prog), &[8, 8]);
        let start = std::time::Instant::now();
        let payload = catch_unwind(AssertUnwindSafe(|| {
            drive(&fabric, std::slice::from_mut(&mut ctx))
        }))
        .unwrap_err();
        assert!(start.elapsed() < Duration::from_secs(1));
        let msg = payload.downcast_ref::<String>().unwrap();
        assert_eq!(msg, "rank 0: wait on unknown request 0");
    }

    #[test]
    fn watchdog_names_a_finished_rank_left_with_a_receive() {
        let opts = WorldOptions::default().with_watchdog(Duration::from_millis(80));
        let err = ParallelExecutor::run_with(&OneSided(recv_from_1(false)), opts, 2, |_, _| {})
            .unwrap_err();
        match err {
            RuntimeError::WatchdogTimeout { blocked, .. } => {
                assert_eq!(blocked.len(), 1);
                assert_eq!(blocked[0].rank, 0);
                assert_eq!(blocked[0].op_index, Some(1));
                assert_eq!(blocked[0].kind, BlockedKind::Recv { peer: 1, tag: 3 });
            }
            other => panic!("expected WatchdogTimeout, got {other}"),
        }
    }

    #[test]
    fn abort_wakes_a_parked_driver_within_the_slice() {
        // Watchdog 8 s, so one wait slice is 1 s: the driver must see a
        // peer's abort long before its park times out.
        let opts = WorldOptions::default().with_watchdog(Duration::from_secs(8));
        let fabric = Fabric::with_options(2, opts);
        let prog = recv_from_1(true);
        std::thread::scope(|s| {
            let parked = s.spawn(|| {
                let mut ctx = RankCtx::new(0, Cow::Borrowed(&prog), &[8, 8]);
                let res = drive(&fabric, std::slice::from_mut(&mut ctx));
                (res, std::time::Instant::now())
            });
            // The driver registers its blocked rank just before it parks.
            while !fabric.is_blocked(0) {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(20));
            let aborted = std::time::Instant::now();
            fabric.abort(RuntimeError::RankPanicked { rank: 1 });
            let (res, returned) = parked.join().unwrap();
            assert_eq!(res, Err(RuntimeError::RankPanicked { rank: 1 }));
            let took = returned.duration_since(aborted);
            assert!(took < Duration::from_millis(200), "took {took:?}");
        });
    }

    #[test]
    fn drivers_wake_on_every_arrival() {
        // Watchdog 8 s, so one wait slice is 1 s: a driver that sleeps
        // through an arrival shows up as a run of a second or more.
        use a2a_core::BruckAlltoall;
        let grid = ProcGrid::new(Machine::custom("stall", 2, 2, 1, 2));
        let n = grid.world_size();
        let opts = WorldOptions::default().with_watchdog(Duration::from_secs(8));
        for algo in [
            &PairwiseAlltoall as &dyn a2a_core::AlltoallAlgorithm,
            &BruckAlltoall,
        ] {
            let src = AlgoSchedule::new(algo, A2AContext::new(grid.clone(), 64));
            for workers in [2, 3, 8] {
                for run in 0..10 {
                    let start = std::time::Instant::now();
                    let out = ParallelExecutor::run_with(&src, opts.clone(), workers, |r, buf| {
                        fill_alltoall_sbuf(r, n, 64, buf)
                    })
                    .unwrap();
                    let took = start.elapsed();
                    assert!(
                        took < Duration::from_millis(200),
                        "{} workers={workers} run {run}: {took:?}",
                        algo.name()
                    );
                    for r in 0..n as u32 {
                        check_alltoall_rbuf(r, n, 64, &out.rbufs[r as usize]).unwrap();
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_dead_rank_is_typed() {
        use a2a_faults::{FaultPlan, FaultSpec};
        let spec = FaultSpec::none().with_dead(1.0, 1);
        let plan = std::sync::Arc::new(FaultPlan::new(42, 4, spec));
        let src = pairwise_source(1, 8);
        let opts = WorldOptions::default().with_faults(plan.clone());
        let err = ParallelExecutor::run_with(&src, opts, 2, |_, _| {}).unwrap_err();
        assert_eq!(
            err,
            RuntimeError::DeadRank {
                rank: plan.dead_ranks()[0]
            }
        );
    }
}
