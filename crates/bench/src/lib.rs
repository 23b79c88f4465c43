//! Reproduction harness: regenerates every table and figure of the paper's
//! evaluation (Figures 7–18, Table 1) on the simulated machines and runs the
//! correctness sweeps (`lint`, `verify`, `chaos`, `storm`, `serve`).
//! Performance is measured elsewhere, by `benchmark/run.sh`.
//!
//! The `repro` binary (`src/bin/repro.rs`) is the entry point:
//!
//! ```text
//! repro all --out results            # every figure, scaled machines
//! repro fig10 --nodes 32 --runs 3    # one figure
//! repro fig12 --scale full           # paper-scale (112 ppn, 3584 ranks)
//! ```
//!
//! Scaled machines keep the paper's node *structure* (sockets x NUMA
//! hierarchy) with fewer cores per NUMA domain so the full sweep runs on a
//! laptop-class host; `--scale full` uses the real 112/96-core nodes.

pub mod chaos;
pub mod figures;
pub mod harness;
pub mod lint_sweep;
pub mod service_bench;
pub mod storm;
pub mod tune;
pub mod verify_sweep;

pub use chaos::{chaos, ChaosPoint, ChaosResult};
pub use figures::{figure_by_name, known_figures};
pub use harness::{
    machine_for, run_min, FigureData, RunConfig, Series, DEFAULT_SIZES, PAPER_GROUP_SIZES,
};
pub use lint_sweep::{lint_roster, LintCell, LintSweep};
pub use service_bench::serve_demo;
pub use storm::{storm, StormRecord, StormReport};
pub use tune::{tune, TuneResult};
pub use verify_sweep::{
    verify_roster, MutationCheck, VerifyCell, VerifyReport, STATIC_BOUND_FACTOR,
};
