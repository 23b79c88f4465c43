//! A threaded mini-MPI runtime: real data movement for the all-to-all
//! algorithms.
//!
//! [`ThreadWorld::run`] spawns one OS thread per rank; each thread receives
//! a [`ThreadComm`] exposing MPI-shaped point-to-point primitives (tagged,
//! source-matched, FIFO per `(source, tag)`), a barrier, and collectives —
//! including [`ThreadComm::alltoall`], which executes any
//! `a2a_core::AlltoallAlgorithm` by stepping its compiled schedule with
//! real buffers. [`ParallelExecutor`] runs a whole schedule on a few
//! threads instead; both use one driver, the `a2a_sched::RankStepper` over
//! a fabric port (see `parallel.rs`).
//!
//! Sends are buffered (eager): a send never blocks, so any schedule that
//! passes `a2a_sched::validate` executes without deadlock. This matches
//! the standard-mode MPI semantics the algorithms assume.
//!
//! # Resilience
//!
//! Every blocking primitive returns `Result<_, RuntimeError>` instead of
//! hanging or panicking. [`ThreadWorld::run_with`] takes [`WorldOptions`]
//! configuring a watchdog (a stalled world aborts with
//! [`RuntimeError::WatchdogTimeout`] naming each blocked rank), bounded
//! retransmit with exponential backoff (injected message drops are
//! recovered transparently), and an optional seeded
//! [`a2a_faults::FaultPlan`]. The first error any rank hits is broadcast
//! to all: one failed rank fails the collective everywhere.
//!
//! # Example
//!
//! ```
//! use a2a_runtime::ThreadWorld;
//!
//! let outputs = ThreadWorld::run(4, |comm| {
//!     // Ring: send my rank to the right, receive from the left.
//!     let right = (comm.rank() + 1) % comm.size();
//!     let left = (comm.rank() + comm.size() - 1) % comm.size();
//!     comm.send(right, 0, &[comm.rank() as u8]).unwrap();
//!     let mut got = [0u8; 1];
//!     comm.recv(left, 0, &mut got).unwrap();
//!     got[0]
//! });
//! assert_eq!(outputs, vec![3, 0, 1, 2]);
//! ```

mod cancel;
mod comm;
mod error;
mod fabric;
mod parallel;
mod pool;

pub use cancel::CancelToken;
pub use comm::{AlltoallRun, ThreadComm};
pub use error::{BlockedKind, BlockedOp, ErrorClass, RuntimeError};
pub use fabric::{Fabric, WorldOptions};
pub use parallel::{ParallelExecutor, ParallelOutput};
pub use pool::{PoolStats, WorkerPool};

use std::sync::Arc;

/// Spawns one thread per rank and runs `body` on each.
pub struct ThreadWorld;

impl ThreadWorld {
    /// Run an `n`-rank program; returns each rank's result, rank-ordered.
    ///
    /// Convenience wrapper over [`ThreadWorld::run_with`] with default
    /// options and an infallible body: any [`RuntimeError`] (including a
    /// watchdog timeout) panics with its diagnostics, and panics in any
    /// rank propagate (with the world torn down).
    pub fn run<T, F>(n: usize, body: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&ThreadComm) -> T + Send + Sync,
    {
        match Self::run_with(n, WorldOptions::default(), |comm| Ok(body(comm))) {
            Ok(outs) => outs,
            Err(e) => panic!("world failed: {e}"),
        }
    }

    /// Run an `n`-rank fallible program under `opts`.
    ///
    /// Each rank's body returns `Result<T, RuntimeError>`; the world
    /// returns rank-ordered results only if every rank succeeded.
    /// Otherwise the first error (in abort order, which every rank
    /// observes identically) is returned. If the options carry a
    /// [`a2a_faults::FaultPlan`] with dead ranks, a dead rank aborts the
    /// world with [`RuntimeError::DeadRank`] before running its body.
    ///
    /// After an all-success run the fabric is audited: payloads sent but
    /// never received fail the world with
    /// [`RuntimeError::UnconsumedMessages`], mirroring the sequential
    /// executor's leftover check.
    pub fn run_with<T, F>(n: usize, opts: WorldOptions, body: F) -> Result<Vec<T>, RuntimeError>
    where
        T: Send,
        F: Fn(&ThreadComm) -> Result<T, RuntimeError> + Send + Sync,
    {
        assert!(n > 0, "world must have at least one rank");
        let fabric = Arc::new(Fabric::with_options(n, opts));
        let body = &body;
        let results: Vec<std::thread::Result<Result<T, RuntimeError>>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..n)
                    .map(|rank| {
                        let fabric = Arc::clone(&fabric);
                        std::thread::Builder::new()
                            .name(format!("rank-{rank}"))
                            .stack_size(512 * 1024)
                            .spawn_scoped(scope, move || {
                                let rank = rank as u32;
                                if let Some(plan) = fabric.fault_plan() {
                                    if plan.is_dead(rank) {
                                        return Err(fabric.abort(RuntimeError::DeadRank { rank }));
                                    }
                                }
                                let comm = ThreadComm::new(rank, Arc::clone(&fabric));
                                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    body(&comm)
                                })) {
                                    Ok(res) => res,
                                    Err(payload) => {
                                        // Unblock peers before re-raising so
                                        // every join completes.
                                        fabric.abort(RuntimeError::RankPanicked { rank });
                                        std::panic::resume_unwind(payload);
                                    }
                                }
                            })
                            .expect("spawn rank thread")
                    })
                    .collect();
                handles.into_iter().map(|h| h.join()).collect()
            });

        let mut outs = Vec::with_capacity(n);
        let mut first_err = None;
        for res in results {
            match res {
                // A panicking rank stays a panic for the caller
                // (`#[should_panic]` tests and debuggers rely on it).
                Err(payload) => std::panic::resume_unwind(payload),
                Ok(Ok(v)) => outs.push(v),
                Ok(Err(e)) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        let leftover = fabric.undelivered();
        if leftover > 0 {
            return Err(RuntimeError::UnconsumedMessages { count: leftover });
        }
        Ok(outs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn single_rank_world() {
        let out = ThreadWorld::run(1, |comm| {
            assert_eq!(comm.rank(), 0);
            assert_eq!(comm.size(), 1);
            42
        });
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn results_are_rank_ordered() {
        let out = ThreadWorld::run(8, |comm| comm.rank() * 10);
        assert_eq!(out, (0..8).map(|r| r * 10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic]
    fn rank_panic_propagates() {
        // Non-panicking ranks must not block (no barrier here), so joins
        // complete and the panic surfaces.
        ThreadWorld::run(2, |comm| {
            if comm.rank() == 1 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn rank_panic_unblocks_peers_at_barrier() {
        // Rank 1 panics while rank 0 waits at the barrier: the abort
        // releases rank 0 with a typed error instead of hanging the join,
        // and the panic re-raises in the parent (caught here). A long
        // watchdog proves it is the abort, not the watchdog, unblocking.
        let result = std::panic::catch_unwind(|| {
            ThreadWorld::run_with(
                2,
                WorldOptions::default().with_watchdog(Duration::from_secs(30)),
                |comm| {
                    if comm.rank() == 1 {
                        panic!("boom");
                    }
                    comm.barrier()?;
                    Ok(())
                },
            )
        });
        assert!(result.is_err(), "panic must propagate");
    }

    #[test]
    fn error_in_one_rank_fails_the_world() {
        let res: Result<Vec<()>, RuntimeError> =
            ThreadWorld::run_with(2, WorldOptions::default(), |comm| {
                if comm.rank() == 0 {
                    return Err(comm.fail(RuntimeError::VerificationFailed {
                        rank: 0,
                        detail: "synthetic".into(),
                    }));
                }
                comm.barrier()?;
                Ok(())
            });
        match res.unwrap_err() {
            RuntimeError::VerificationFailed { rank: 0, .. } => {}
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn unconsumed_messages_detected() {
        let res: Result<Vec<()>, RuntimeError> =
            ThreadWorld::run_with(2, WorldOptions::default(), |comm| {
                if comm.rank() == 0 {
                    comm.send(1, 0, &[1, 2, 3])?;
                }
                Ok(())
            });
        assert_eq!(
            res.unwrap_err(),
            RuntimeError::UnconsumedMessages { count: 1 }
        );
    }
}
