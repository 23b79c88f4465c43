//! Static-analysis support over compiled schedules.
//!
//! The validator ([`mod@crate::validate`]) proves a schedule is *well-formed*
//! and, doing so, resolves its static message matching into one
//! [`crate::Matched`] table. The machinery here supports proving the
//! schedule is *safe to execute* and *right*; everything cross-rank is a
//! fold over that table and matches nothing itself:
//!
//! * [`intervals`] — byte-interval reasoning over [`crate::Block`] regions
//!   and an in-flight tracker for posted-but-unwaited requests, the basis
//!   of the stable-send (zero-copy) and receive-race analyses (rank-local:
//!   it reads programs, not matching);
//! * [`waitgraph`] — the cross-rank wait-for graph over `WaitAll` ops,
//!   whose acyclicity proves deadlock-freedom under eager or rendezvous
//!   send semantics;
//! * [`provenance`] — the semantic dataflow prover: symbolic byte-interval
//!   provenance propagated through every op, in [`crate::Matched::walk`]
//!   order, and checked against a collective's declared semantics
//!   ([`provenance::SemanticsSpec`]);
//! * [`critpath`] — the static LogGP critical-path analyzer: a longest-path
//!   lower bound on makespan with intra-/inter-node/software attribution,
//!   timed over the same walk.
//!
//! The `a2a-lint` crate drives these into a diagnostics report with stable
//! lint codes; they live here so the IR crate owns every schedule-shaped
//! data structure.

pub mod critpath;
pub mod intervals;
pub mod provenance;
pub mod waitgraph;

pub use critpath::{
    critical_path, CritAttribution, CritChain, CritHop, CritParams, CritReport, CHAIN_DISPLAY_HOPS,
};
pub use intervals::{overlaps, InFlight, PendingOp};
pub use provenance::{
    prove_schedule, ExpectSeg, ProveFinding, ProveIssue, ProveReport, SemanticsSpec,
};
pub use waitgraph::{build_wait_graph, find_cycle, Blocker, SendMode, WaitForGraph, WaitNode};
