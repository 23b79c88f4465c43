//! The per-rank communicator handle.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::{Duration, Instant};

use a2a_core::{A2AContext, AlltoallAlgorithm};
use a2a_sched::RankProgram;
use a2a_topo::ProcGrid;

use crate::error::RuntimeError;
use crate::fabric::Fabric;
use crate::parallel::{drive, RankCtx};

/// One rank's view of the world: MPI-shaped point-to-point plus
/// schedule-driven collectives. Every blocking primitive returns
/// `Result<_, RuntimeError>`; the first error any rank hits is broadcast
/// so the whole collective fails together instead of hanging.
pub struct ThreadComm {
    rank: u32,
    fabric: Arc<Fabric>,
}

/// Result of a timed all-to-all execution.
#[derive(Debug, Clone, Copy)]
pub struct AlltoallRun {
    /// Wall-clock time this rank spent inside the collective.
    pub elapsed: Duration,
}

impl ThreadComm {
    pub(crate) fn new(rank: u32, fabric: Arc<Fabric>) -> Self {
        ThreadComm { rank, fabric }
    }

    pub fn rank(&self) -> u32 {
        self.rank
    }

    pub fn size(&self) -> u32 {
        self.fabric.size() as u32
    }

    /// Latch `err` as the world's failure (first error wins, waking every
    /// blocked rank) and return the winning error. Use this to fail a
    /// collective from a rank-local check so peers do not hang.
    pub fn fail(&self, err: RuntimeError) -> RuntimeError {
        self.fabric.abort(err)
    }

    /// Buffered (eager) send: never blocks. The payload is copied once,
    /// into a pooled fabric buffer. Fails fast once the world has aborted.
    pub fn send(&self, to: u32, tag: u32, data: &[u8]) -> Result<(), RuntimeError> {
        assert!(to < self.size(), "send to rank {to} out of range");
        self.fabric.send(self.rank, to, tag, data)
    }

    /// Blocking matched receive into `buf` (length must match the
    /// message, else a typed [`RuntimeError::LengthMismatch`] fails the
    /// world). Recovers injected drops via retransmit; a hung match is
    /// bounded by the watchdog.
    pub fn recv(&self, from: u32, tag: u32, buf: &mut [u8]) -> Result<(), RuntimeError> {
        self.fabric.recv_into(self.rank, from, tag, None, buf)
    }

    /// `MPI_Sendrecv`: safe under buffered sends (send first, then recv).
    pub fn sendrecv(
        &self,
        to: u32,
        stag: u32,
        sdata: &[u8],
        from: u32,
        rtag: u32,
        rbuf: &mut [u8],
    ) -> Result<(), RuntimeError> {
        self.send(to, stag, sdata)?;
        self.recv(from, rtag, rbuf)
    }

    /// World barrier: abort-aware and watchdog-guarded.
    pub fn barrier(&self) -> Result<(), RuntimeError> {
        self.fabric.barrier(self.rank)
    }

    /// Execute an all-to-all using `algo`'s compiled schedule: `sbuf` holds
    /// `n` blocks of `block_bytes` ordered by destination; on return `rbuf`
    /// holds `n` blocks ordered by source.
    ///
    /// # Panics
    /// Panics if `grid` does not match the world size or the buffers are
    /// not `n * block_bytes` long (caller bugs, not runtime faults).
    pub fn alltoall(
        &self,
        algo: &dyn AlltoallAlgorithm,
        grid: &ProcGrid,
        block_bytes: u64,
        sbuf: &[u8],
        rbuf: &mut [u8],
    ) -> Result<(), RuntimeError> {
        let n = grid.world_size();
        assert_eq!(n as u32, self.size(), "grid/world size mismatch");
        let total = n as u64 * block_bytes;
        assert_eq!(sbuf.len() as u64, total, "send buffer size");
        assert_eq!(rbuf.len() as u64, total, "recv buffer size");

        let ctx = A2AContext::new(grid.clone(), block_bytes);
        let sizes = algo.buffers(&ctx, self.rank);
        let prog = algo.build_rank(&ctx, self.rank);
        self.drive_own_rank(&sizes, prog, sbuf, rbuf)
    }

    /// Execute an allgather: `contribution` is this rank's `block_bytes`
    /// payload; on return `rbuf` (`n * block_bytes`) holds every rank's
    /// contribution in rank order.
    pub fn allgather(
        &self,
        algo: &dyn a2a_core::collectives::AllgatherAlgorithm,
        grid: &ProcGrid,
        block_bytes: u64,
        contribution: &[u8],
        rbuf: &mut [u8],
    ) -> Result<(), RuntimeError> {
        let n = grid.world_size();
        assert_eq!(n as u32, self.size(), "grid/world size mismatch");
        assert_eq!(contribution.len() as u64, block_bytes, "contribution size");
        assert_eq!(
            rbuf.len() as u64,
            n as u64 * block_bytes,
            "recv buffer size"
        );
        let ctx = A2AContext::new(grid.clone(), block_bytes);
        let sizes = algo.buffers(&ctx, self.rank);
        let prog = algo.build_rank(&ctx, self.rank);
        self.drive_own_rank(&sizes, prog, contribution, rbuf)
    }

    /// Execute a broadcast: on the root, `payload` must be `Some(bytes)`
    /// (a missing payload is [`RuntimeError::MissingRootPayload`], failing
    /// the collective on every rank); on return `rbuf` holds the payload
    /// on every rank.
    pub fn bcast(
        &self,
        algo: &dyn a2a_core::collectives::BcastAlgorithm,
        grid: &ProcGrid,
        root: u32,
        payload: Option<&[u8]>,
        rbuf: &mut [u8],
    ) -> Result<(), RuntimeError> {
        assert_eq!(grid.world_size() as u32, self.size(), "grid/world size");
        let len = rbuf.len() as u64;
        let ctx = A2AContext::new(grid.clone(), len);
        let sizes = algo.buffers(&ctx, self.rank, root);
        let prog = algo.build_rank(&ctx, self.rank, root);
        let sbuf: &[u8] = if self.rank == root {
            match payload {
                Some(p) => p,
                None => return Err(self.fail(RuntimeError::MissingRootPayload { root })),
            }
        } else {
            &[]
        };
        self.drive_own_rank(&sizes, prog, sbuf, rbuf)
    }

    /// Run this rank's compiled program through the runtime's one
    /// schedule driver (the same loop `ParallelExecutor` workers run),
    /// over a one-rank slice: `sbuf_init` seeds buffer 0 and buffer 1
    /// (`RBUF`) ends up in `rbuf`.
    fn drive_own_rank(
        &self,
        sizes: &[u64],
        prog: RankProgram,
        sbuf_init: &[u8],
        rbuf: &mut [u8],
    ) -> Result<(), RuntimeError> {
        let mut ctx = RankCtx::new(self.rank, Cow::Owned(prog), sizes);
        assert!(
            ctx.bufs[0].len() >= sbuf_init.len(),
            "rank {}: send buffer smaller than init data",
            self.rank
        );
        ctx.bufs[0][..sbuf_init.len()].copy_from_slice(sbuf_init);
        drive(&self.fabric, std::slice::from_mut(&mut ctx))?;
        rbuf.copy_from_slice(&ctx.bufs[1]);
        Ok(())
    }

    /// Barrier-synchronized, timed all-to-all (for benchmarking).
    pub fn timed_alltoall(
        &self,
        algo: &dyn AlltoallAlgorithm,
        grid: &ProcGrid,
        block_bytes: u64,
        sbuf: &[u8],
        rbuf: &mut [u8],
    ) -> Result<AlltoallRun, RuntimeError> {
        self.barrier()?;
        let start = Instant::now();
        self.alltoall(algo, grid, block_bytes, sbuf, rbuf)?;
        let elapsed = start.elapsed();
        self.barrier()?;
        Ok(AlltoallRun { elapsed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ThreadWorld, WorldOptions};
    use a2a_core::{
        BruckAlltoall, ExchangeKind, HierarchicalAlltoall, MpichShmAlltoall,
        MultileaderNodeAwareAlltoall, NodeAwareAlltoall, NonblockingAlltoall, PairwiseAlltoall,
    };
    use a2a_sched::{check_alltoall_rbuf, fill_alltoall_sbuf};
    use a2a_topo::{Machine, ProcGrid};

    fn run_algo(algo: &dyn AlltoallAlgorithm, grid: ProcGrid, s: u64) {
        let n = grid.world_size();
        let total = (n as u64 * s) as usize;
        let grid = &grid;
        ThreadWorld::run_with(n, WorldOptions::default(), move |comm| {
            let mut sbuf = vec![0u8; total];
            let mut rbuf = vec![0u8; total];
            fill_alltoall_sbuf(comm.rank(), n, s, &mut sbuf);
            comm.alltoall(algo, grid, s, &sbuf, &mut rbuf)?;
            check_alltoall_rbuf(comm.rank(), n, s, &rbuf).map_err(|e| {
                comm.fail(RuntimeError::VerificationFailed {
                    rank: comm.rank(),
                    detail: e.to_string(),
                })
            })
        })
        .unwrap();
    }

    fn grid(nodes: usize) -> ProcGrid {
        ProcGrid::new(Machine::custom("t", nodes, 2, 1, 3)) // 6 ppn
    }

    #[test]
    fn point_to_point_roundtrip() {
        ThreadWorld::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, b"hello").unwrap();
                let mut buf = [0u8; 5];
                comm.recv(1, 2, &mut buf).unwrap();
                assert_eq!(&buf, b"world");
            } else {
                let mut buf = [0u8; 5];
                comm.recv(0, 1, &mut buf).unwrap();
                assert_eq!(&buf, b"hello");
                comm.send(0, 2, b"world").unwrap();
            }
        });
    }

    #[test]
    fn sendrecv_ring_rotation() {
        let vals = ThreadWorld::run(5, |comm| {
            let n = comm.size();
            let right = (comm.rank() + 1) % n;
            let left = (comm.rank() + n - 1) % n;
            let mut got = [0u8; 1];
            comm.sendrecv(right, 0, &[comm.rank() as u8], left, 0, &mut got)
                .unwrap();
            got[0]
        });
        assert_eq!(vals, vec![4, 0, 1, 2, 3]);
    }

    #[test]
    fn length_mismatch_is_typed_not_a_panic() {
        let res: Result<Vec<()>, RuntimeError> =
            ThreadWorld::run_with(2, WorldOptions::default(), |comm| {
                if comm.rank() == 0 {
                    comm.send(1, 0, &[1, 2, 3])?;
                    Ok(())
                } else {
                    let mut buf = [0u8; 5]; // wrong size
                    comm.recv(0, 0, &mut buf)?;
                    Ok(())
                }
            });
        assert_eq!(
            res.unwrap_err(),
            RuntimeError::LengthMismatch {
                rank: 1,
                from: 0,
                tag: 0,
                got: 3,
                want: 5
            }
        );
    }

    #[test]
    fn bcast_missing_root_payload_is_typed() {
        let res: Result<Vec<()>, RuntimeError> =
            ThreadWorld::run_with(4, WorldOptions::default(), |comm| {
                let g = ProcGrid::new(Machine::custom("t", 1, 2, 1, 2));
                let mut rbuf = vec![0u8; 8];
                // Nobody supplies the payload, including the root.
                comm.bcast(
                    &a2a_core::collectives::BinomialBcast,
                    &g,
                    1,
                    None,
                    &mut rbuf,
                )?;
                Ok(())
            });
        assert_eq!(
            res.unwrap_err(),
            RuntimeError::MissingRootPayload { root: 1 }
        );
    }

    #[test]
    fn threaded_pairwise_alltoall() {
        run_algo(&PairwiseAlltoall, grid(2), 8);
    }

    #[test]
    fn threaded_nonblocking_alltoall() {
        run_algo(&NonblockingAlltoall, grid(2), 8);
    }

    #[test]
    fn threaded_bruck_alltoall() {
        run_algo(&BruckAlltoall, grid(2), 8);
    }

    #[test]
    fn threaded_hierarchical_and_multileader() {
        run_algo(
            &HierarchicalAlltoall::new(6, ExchangeKind::Pairwise),
            grid(2),
            4,
        );
        run_algo(
            &HierarchicalAlltoall::new(3, ExchangeKind::Nonblocking),
            grid(2),
            4,
        );
    }

    #[test]
    fn threaded_node_and_locality_aware() {
        run_algo(
            &NodeAwareAlltoall::node_aware(ExchangeKind::Pairwise),
            grid(3),
            4,
        );
        run_algo(
            &NodeAwareAlltoall::locality_aware(3, ExchangeKind::Pairwise),
            grid(3),
            4,
        );
    }

    #[test]
    fn threaded_mlna_and_mpich_shm() {
        run_algo(
            &MultileaderNodeAwareAlltoall::new(2, ExchangeKind::Pairwise),
            grid(2),
            4,
        );
        run_algo(&MpichShmAlltoall::default(), grid(2), 4);
    }

    #[test]
    fn timed_alltoall_reports_duration() {
        let g = grid(1);
        let n = g.world_size();
        let s = 16u64;
        let total = (n as u64 * s) as usize;
        let gref = &g;
        let runs = ThreadWorld::run(n, move |comm| {
            let mut sbuf = vec![0u8; total];
            let mut rbuf = vec![0u8; total];
            fill_alltoall_sbuf(comm.rank(), n, s, &mut sbuf);
            let run = comm
                .timed_alltoall(&PairwiseAlltoall, gref, s, &sbuf, &mut rbuf)
                .unwrap();
            check_alltoall_rbuf(comm.rank(), n, s, &rbuf).unwrap();
            run.elapsed
        });
        assert!(runs.iter().all(|d| d.as_nanos() > 0));
    }
}
