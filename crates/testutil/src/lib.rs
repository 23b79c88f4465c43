//! Deterministic, dependency-free test support.
//!
//! The workspace's randomized suites originally used `proptest`; in a
//! hermetic (registry-less) build that dependency is unavailable, so this
//! crate supplies the two pieces those suites actually need:
//!
//! * [`Rng`] — a SplitMix64 generator with the small sampling surface the
//!   tests use (ranges, choices, divisors, shuffles);
//! * [`run_cases`] — a seeded case runner that generates and checks a fixed
//!   number of cases and, on failure, prints the exact seed and generated
//!   parameters needed to replay the single failing case.
//!
//! It also hosts the static analyzer's adversarial fixtures:
//!
//! * [`FixedSchedule`] — an owned, editable snapshot of any schedule source;
//! * [`Mutation`] — seeded defect injection (dropped receives, aliased
//!   copies, sequentialized exchanges, ...), each tied to the lint code the
//!   analyzer must report.
//!
//! And the data executor's reference transport, [`LegacyDataExecutor`]:
//! the shared rank stepper over owned per-message payloads.
//!
//! Reproduction knobs (environment variables):
//!
//! * `A2A_TEST_SEED`  — base seed for every suite (decimal or `0x…` hex);
//! * `A2A_TEST_CASES` — overrides each suite's case count (e.g. `1000` for a
//!   soak run, `10` for a smoke run).

mod rng;
mod runner;

pub mod exec_legacy;
pub mod fixture;
pub mod mutate;

pub use exec_legacy::LegacyDataExecutor;
pub use fixture::FixedSchedule;
pub use mutate::Mutation;
pub use rng::Rng;
pub use runner::{base_seed, case_count, run_cases};
