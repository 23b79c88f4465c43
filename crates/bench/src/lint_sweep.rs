//! `repro lint`: sweep the static analyzer across the algorithm roster.
//!
//! Every cell is one `(machine, algorithm, block size)` triple run through
//! every lint pass (`a2a-lint`). The sweep covers the `bench` grid (4 ppn)
//! plus the three scaled paper machines (dane, amber, tuolumne), so both
//! the flat and deeply hierarchical topologies are proven deadlock- and
//! race-free at every paper block size. The v-variant (`MPI_Alltoallv`)
//! algorithms are swept too, on two non-uniform count profiles (a lumpy
//! asymmetric matrix with zeros, and a banded transpose-like one), so
//! A2A000–A2A006 coverage extends to irregular schedules. CI denies
//! warnings: the roster must come back completely clean.

use std::sync::Arc;

use a2a_core::alltoallv::{
    AlltoallvAlgorithm, CountsFn, NodeAwareAlltoallv, NonblockingAlltoallv, PairwiseAlltoallv,
    VContext, VSchedule,
};
use a2a_core::{A2AContext, AlgoSchedule};
use a2a_lint::{lint_schedule, LintConfig, LintReport};
use a2a_topo::ProcGrid;
use serde::{Deserialize, Serialize};

use crate::harness::{bench_grid, bench_roster, machine_for, DEFAULT_SIZES};

/// One linted `(machine, algorithm, block size)` cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LintCell {
    pub machine: String,
    pub nodes: usize,
    pub ppn: usize,
    pub ranks: usize,
    pub algo: String,
    /// Per-process block bytes.
    pub bytes: u64,
    pub errors: usize,
    pub warnings: usize,
    /// Distinct lint codes reported, e.g. `["A2A004"]`.
    pub codes: Vec<String>,
}

/// The full sweep (`results/lint.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LintSweep {
    pub rendezvous: bool,
    pub send_window: usize,
    pub cells: Vec<LintCell>,
    /// Rendered text reports of every non-clean cell.
    pub findings: Vec<String>,
}

impl LintSweep {
    pub fn errors(&self) -> usize {
        self.cells.iter().map(|c| c.errors).sum()
    }

    pub fn warnings(&self) -> usize {
        self.cells.iter().map(|c| c.warnings).sum()
    }

    /// Aligned ASCII summary, one line per machine x algorithm (sizes
    /// collapse: a clean algorithm is clean at every size).
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# lint: {} cells, {} error(s), {} warning(s) (window {}, {} sends)",
            self.cells.len(),
            self.errors(),
            self.warnings(),
            self.send_window,
            if self.rendezvous {
                "rendezvous"
            } else {
                "eager"
            },
        );
        let _ = writeln!(
            out,
            "{:<10} {:<28} {:>6} {:>7} {:>9}  codes",
            "machine", "algorithm", "ranks", "errors", "warnings"
        );
        let mut i = 0;
        while i < self.cells.len() {
            let first = &self.cells[i];
            let mut errors = 0;
            let mut warnings = 0;
            let mut codes: Vec<String> = Vec::new();
            while i < self.cells.len()
                && self.cells[i].machine == first.machine
                && self.cells[i].algo == first.algo
            {
                errors += self.cells[i].errors;
                warnings += self.cells[i].warnings;
                for c in &self.cells[i].codes {
                    if !codes.contains(c) {
                        codes.push(c.clone());
                    }
                }
                i += 1;
            }
            let _ = writeln!(
                out,
                "{:<10} {:<28} {:>6} {:>7} {:>9}  {}",
                first.machine,
                first.algo,
                first.ranks,
                errors,
                warnings,
                if codes.is_empty() {
                    "clean".to_string()
                } else {
                    codes.join(",")
                },
            );
        }
        out
    }
}

/// The topology presets the roster is linted on.
fn lint_grids(nodes: usize) -> Vec<(String, ProcGrid)> {
    let mut grids = vec![("bench".to_string(), bench_grid(nodes))];
    for name in ["dane", "amber", "tuolumne"] {
        grids.push((
            name.to_string(),
            ProcGrid::new(machine_for(name, nodes, false)),
        ));
    }
    grids
}

/// The v-variant roster: every alltoallv algorithm (shared with the
/// `repro verify` sweep).
pub(crate) fn v_roster() -> Vec<Box<dyn AlltoallvAlgorithm>> {
    vec![
        Box::new(PairwiseAlltoallv),
        Box::new(NonblockingAlltoallv),
        Box::new(NodeAwareAlltoallv),
    ]
}

/// Non-uniform count profiles the v-variants are linted under. Both are
/// pure functions of `(src, dst)`, so every rank builds from the same
/// matrix (the MPI_Alltoallv contract).
fn v_profiles(n: usize) -> Vec<(&'static str, CountsFn)> {
    let banded_n = n as i64;
    vec![
        // Lumpy and asymmetric, with plenty of zero pairs.
        (
            "lumpy",
            Arc::new(move |s: u32, d: u32| {
                let x = (s as u64 * 31 + d as u64 * 17) % 13;
                if x < 4 {
                    0
                } else {
                    x * (1 + (s as u64 + d as u64) % 5)
                }
            }) as CountsFn,
        ),
        // Transpose-like: traffic concentrates on a diagonal band.
        (
            "banded",
            Arc::new(move |s: u32, d: u32| {
                let dist = ((s as i64 - d as i64).rem_euclid(banded_n))
                    .min((d as i64 - s as i64).rem_euclid(banded_n));
                if dist <= 2 {
                    256u64 >> dist
                } else {
                    0
                }
            }) as CountsFn,
        ),
    ]
}

/// Lint the eight-algorithm roster on every preset at every paper block
/// size, plus the v-variant roster on every non-uniform count profile.
/// Individual reports are folded into [`LintCell`]s; the rendered text of
/// any non-clean report lands in `findings`.
pub fn lint_roster(nodes: usize, cfg: &LintConfig) -> LintSweep {
    let mut sweep = LintSweep {
        rendezvous: cfg.rendezvous,
        send_window: cfg.send_window,
        cells: Vec::new(),
        findings: Vec::new(),
    };
    for (machine, grid) in lint_grids(nodes) {
        for algo in bench_roster() {
            for &bytes in &DEFAULT_SIZES {
                let label = format!(
                    "{} {} n={} block={}",
                    machine,
                    algo.name(),
                    grid.world_size(),
                    bytes
                );
                let sched = AlgoSchedule::new(algo.as_ref(), A2AContext::new(grid.clone(), bytes));
                let report = lint_schedule(label, &sched, &grid, cfg);
                sweep
                    .cells
                    .push(cell(&machine, &grid, &algo.name(), bytes, &report));
                if !report.is_clean() {
                    sweep.findings.push(report.render_text());
                }
            }
        }
        // Non-uniform schedules: one cell per v-algorithm per count
        // profile (a count matrix replaces the block-size axis, so the
        // `bytes` column is 0 and the profile rides in the label).
        for algo in v_roster() {
            for (profile, counts) in v_profiles(grid.world_size()) {
                let name = format!("{}[{}]", algo.name(), profile);
                let label = format!("{} {} n={}", machine, name, grid.world_size());
                let sched = VSchedule::new(algo.as_ref(), VContext::new(grid.clone(), counts));
                let report = lint_schedule(label, &sched, &grid, cfg);
                sweep.cells.push(cell(&machine, &grid, &name, 0, &report));
                if !report.is_clean() {
                    sweep.findings.push(report.render_text());
                }
            }
        }
    }
    sweep
}

fn cell(machine: &str, grid: &ProcGrid, algo: &str, bytes: u64, report: &LintReport) -> LintCell {
    let mut codes: Vec<String> = Vec::new();
    for d in &report.diags {
        let c = d.code.to_string();
        if !codes.contains(&c) {
            codes.push(c);
        }
    }
    LintCell {
        machine: machine.to_string(),
        nodes: grid.machine().nodes,
        ppn: grid.machine().ppn(),
        ranks: grid.world_size(),
        algo: algo.to_string(),
        bytes,
        errors: report.errors(),
        warnings: report.warnings(),
        codes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_is_clean() {
        let sweep = lint_roster(2, &LintConfig::default());
        // 4 machines x (8 algorithms x 6 sizes + 3 v-algorithms x 2
        // count profiles).
        assert_eq!(sweep.cells.len(), 4 * (8 * 6 + 3 * 2));
        assert_eq!(sweep.errors(), 0, "{:?}", sweep.findings);
        assert_eq!(sweep.warnings(), 0, "{:?}", sweep.findings);
        assert!(sweep.findings.is_empty());
    }

    #[test]
    fn sweep_covers_v_variants() {
        let sweep = lint_roster(2, &LintConfig::default());
        for name in [
            "alltoallv-pairwise[lumpy]",
            "alltoallv-nonblocking[banded]",
            "alltoallv-node-aware[lumpy]",
        ] {
            assert!(
                sweep.cells.iter().any(|c| c.algo == name),
                "missing v cell {name}"
            );
        }
    }

    #[test]
    fn table_collapses_sizes() {
        let sweep = lint_roster(2, &LintConfig::default());
        let t = sweep.table();
        // One line per machine x algorithm (v profiles are distinct
        // labels) plus the two headers.
        assert_eq!(t.lines().count(), 2 + 4 * (8 + 3 * 2));
        assert!(t.contains("clean"));
    }
}
