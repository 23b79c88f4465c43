//! Static schedule analyzer.
//!
//! A schedule that passes the validator is *well-formed*; this crate checks
//! that it is also *safe to run*, entirely by static inspection of the IR:
//!
//! | code | lint | default severity |
//! |--------|--------------------------------------------------|----------|
//! | A2A000 | fails structural validation                      | error    |
//! | A2A001 | cross-rank wait cycle (deadlock)                 | error    |
//! | A2A002 | write overlaps a pending send source             | error    |
//! | A2A003 | write overlaps a pending receive destination     | error    |
//! | A2A004 | concurrent same-channel messages (FIFO-order)    | warning  |
//! | A2A005 | per-destination send window exceeded             | warning  |
//! | A2A006 | read overlaps a pending receive destination      | error    |
//! | A2A007 | destination bytes come from the wrong source     | error    |
//! | A2A008 | required destination bytes are never written     | error    |
//! | A2A009 | correct destination bytes are overwritten        | error    |
//! | A2A010 | transfer moves bytes no output depends on        | warning  |
//!
//! A2A007–A2A010 come from the *semantics prover* ([`prove_pass`]): where
//! the safety passes prove a schedule cannot deadlock or race, the prover
//! symbolically executes it and checks that the bytes that arrive are the
//! bytes the collective's contract demands. [`analyze_schedule`] runs both
//! and merges the findings into one deterministically ordered stream.
//!
//! A2A002 is the invariant the zero-copy executor's deferred-delivery fast
//! path depends on: a posted send's source bytes must stay untouched until
//! its wait. A2A001 runs over the cross-rank wait-for graph of
//! `a2a_sched::analysis` under rendezvous semantics by default — the
//! simulator's large-message protocol — so a clean roster is deadlock-free
//! on every executor.
//!
//! # Example
//!
//! ```
//! use a2a_lint::{lint_schedule, LintConfig};
//! use a2a_sched::{Block, Phase, ProgBuilder, RankProgram, ScheduleSource, RBUF, SBUF};
//! use a2a_topo::{Machine, ProcGrid};
//!
//! struct Swap(Vec<RankProgram>);
//! impl ScheduleSource for Swap {
//!     fn nranks(&self) -> usize { 2 }
//!     fn buffers(&self, _r: u32) -> Vec<u64> { vec![8, 8] }
//!     fn build_rank(&self, r: u32) -> RankProgram { self.0[r as usize].clone() }
//!     fn phase_names(&self) -> Vec<&'static str> { vec!["all"] }
//! }
//!
//! let progs = (0..2u32).map(|me| {
//!     let mut b = ProgBuilder::new(Phase(0));
//!     b.sendrecv(1 - me, Block::new(SBUF, 0, 8), 0, 1 - me, Block::new(RBUF, 0, 8), 0);
//!     b.finish()
//! }).collect();
//! let grid = ProcGrid::new(Machine::custom("t", 1, 1, 1, 2));
//! let report = lint_schedule("swap", &Swap(progs), &grid, &LintConfig::default());
//! assert!(report.is_clean());
//! ```

pub mod diag;
pub mod passes;
pub mod prove;

pub use diag::{Code, Diagnostic, LintReport, Severity};
pub use passes::{lint_schedule, LintConfig};
pub use prove::{analyze_matched, analyze_schedule, issue_code, prove_matched, prove_pass};
