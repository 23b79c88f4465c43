//! Communication-schedule IR for collective algorithms.
//!
//! An all-to-all algorithm in this suite is not executed directly: it
//! *compiles*, per rank, to a small program of MPI-shaped operations
//! ([`ir::Op`]) over named byte buffers. Three independent executors consume
//! the same programs:
//!
//! * the **data executor** in this crate ([`exec`]) moves real bytes between
//!   paired sends and receives and proves the schedule performs an exact
//!   all-to-all transpose;
//! * the **discrete-event simulator** in `a2a-netsim` assigns virtual time
//!   to every operation under a many-core cluster cost model;
//! * the **threaded runtime** in `a2a-runtime` runs the program on OS
//!   threads with real parallel data movement.
//!
//! Blocking MPI calls (`MPI_Send`, `MPI_Recv`, `MPI_Sendrecv`) are lowered
//! by the [`builder`] to `Isend`/`Irecv` + `WaitAll`, which preserves their
//! dependency structure (a `Sendrecv` blocks until both transfers complete)
//! while keeping the executors uniform.
//!
//! The data executor, the simulator and the validator ([`validate()`])
//! resolve "the k-th send on a channel pairs with the k-th receive" once,
//! statically ([`FifoChannels`]); the validator into a [`Matched`] schedule
//! that the wait-for graph, the dataflow prover and the critical-path
//! analyzer ([`analysis`]) fold over. Only the threaded runtime matches
//! messages *dynamically* (faults, retransmits).
//!
//! # Example
//!
//! ```
//! use a2a_sched::{Block, ProgBuilder, Phase, SBUF, RBUF};
//!
//! // Rank 0 of a 2-rank job: swap 8-byte blocks with rank 1.
//! let mut b = ProgBuilder::new(Phase(0));
//! b.copy(Block::new(SBUF, 0, 8), Block::new(RBUF, 0, 8)); // self block
//! b.sendrecv(1, Block::new(SBUF, 8, 8), 7, 1, Block::new(RBUF, 8, 8), 7);
//! let prog = b.finish();
//! assert_eq!(prog.ops.len(), 4); // copy, isend, irecv, waitall
//! ```

pub mod analysis;
pub mod builder;
pub mod exec;
pub mod fifo;
pub mod ir;
pub mod step;
pub mod validate;
pub mod verify;

pub use builder::ProgBuilder;
pub use exec::{
    DataExecutor, ExecError, ExecScratch, ExecStats, FaultInjector, FaultStats, MessageFault,
    PreparedSchedule,
};
pub use fifo::{FifoChannels, Post};
pub use ir::{Block, BufId, Bytes, Op, Phase, RankProgram, TimedOp, RBUF, SBUF, TMP0, TMP1, TMP2};
pub use step::{Progress, RankStepper, Transport};
pub use validate::{validate, Matched, ScheduleStats, ValidationError};
pub use verify::{
    check_allgather_rbuf, check_alltoall_rbuf, fill_allgather_sbuf, fill_alltoall_sbuf,
    pattern_byte, run_and_verify, run_and_verify_allgather, run_and_verify_bcast,
};

use a2a_topo::Rank;

/// A complete schedule: per-rank programs plus per-rank buffer sizes,
/// produced lazily so multi-thousand-rank schedules need not be resident
/// all at once.
///
/// `build_rank` and `rank_program` default to each other, so an
/// implementation must override at least one. Generator-style sources
/// (the algorithms) implement `build_rank`; sources that already hold
/// their programs (test fixtures, [`PreparedSchedule`]) override
/// `rank_program` to hand out borrows, which keeps the executors'
/// hot path free of per-run op-list clones.
pub trait ScheduleSource {
    /// Number of ranks participating.
    fn nranks(&self) -> usize;

    /// Sizes of each rank's buffers, indexed by [`BufId`]. Index 0 is the
    /// send buffer, index 1 the receive buffer; further entries are
    /// algorithm temporaries (may differ per rank, e.g. leaders vs members).
    fn buffers(&self, rank: Rank) -> Vec<Bytes>;

    /// Build rank `rank`'s program (owned).
    fn build_rank(&self, rank: Rank) -> RankProgram {
        self.rank_program(rank).into_owned()
    }

    /// Rank `rank`'s program, borrowed when the source already stores it.
    /// Executors call this, never `build_rank`, so a stored program is
    /// executed in place.
    fn rank_program(&self, rank: Rank) -> std::borrow::Cow<'_, RankProgram> {
        std::borrow::Cow::Owned(self.build_rank(rank))
    }

    /// Human-readable phase names; `Phase(i)` indexes this list.
    fn phase_names(&self) -> Vec<&'static str>;
}
