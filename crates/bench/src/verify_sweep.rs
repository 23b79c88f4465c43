//! `repro verify`: semantic verification sweep across the algorithm roster.
//!
//! Every cell is one `(machine, algorithm, size-or-profile)` triple run
//! through the *full* static analysis — every safety pass (`A2A000`–
//! `A2A006`) plus the dataflow prover (`A2A007`–`A2A010`) against the
//! declared collective semantics — and through the static LogGP
//! critical-path analyzer, whose lower bound is cross-checked against the
//! zero-jitter discrete-event simulator:
//!
//! * **soundness**: `static bound <= DES makespan` on every cell (the
//!   static model charges a subset of the simulator's costs);
//! * **tightness**: `DES makespan <= STATIC_BOUND_FACTOR x bound` on the
//!   uncongested roster (the bound is useful, not vacuous).
//!
//! A mutation section rounds the sweep out: the four semantic mutations
//! (`a2a-testutil`) are applied to known-good bases and every applied
//! mutant must (a) pass the safety passes *clean* — these bugs move wrong
//! bytes without breaking any safety property — and (b) be flagged by the
//! prover with exactly the expected code. The whole report is
//! byte-deterministic for a fixed `(nodes, seed)`, which CI exploits by
//! diffing two pinned-seed runs.

use std::sync::Arc;

use a2a_core::alltoallv::{CountsFn, VContext, VSchedule};
use a2a_core::{A2AContext, AlgoSchedule};
use a2a_lint::{analyze_matched, analyze_schedule, lint_schedule, LintConfig, LintReport};
use a2a_netsim::{crit_params, models, simulate, SimOptions};
use a2a_sched::analysis::{critical_path, SemanticsSpec};
use a2a_sched::{Matched, ScheduleSource};
use a2a_testutil::{FixedSchedule, Mutation, Rng};
use a2a_topo::{Machine, ProcGrid};
use serde::{Deserialize, Serialize};

use crate::harness::{bench_grid, bench_roster, machine_for, DEFAULT_SIZES};

/// Declared tightness factor: on every roster cell the zero-jitter DES
/// makespan must sit within this multiple of the static critical-path
/// bound. Measured max across the 2-node roster is ~33.6x, concentrated
/// entirely in the fully-nonblocking algorithm, where per-node NIC
/// serialization and queue-depth matching costs — exactly the many-core
/// effects the paper's hierarchical algorithms avoid, and which the
/// longest-path lower bound deliberately omits — dominate the makespan.
/// Locality-aware cells sit at 1.1–4x. 48x leaves headroom for cost-model
/// retuning while still tripping if the DES cost model regresses
/// wholesale.
pub const STATIC_BOUND_FACTOR: f64 = 48.0;

/// One verified `(machine, algorithm, size)` cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VerifyCell {
    pub machine: String,
    pub nodes: usize,
    pub ppn: usize,
    pub ranks: usize,
    pub algo: String,
    /// Per-process block bytes (0 for v-variant cells, whose count
    /// profile rides in the `algo` label).
    pub bytes: u64,
    /// Total payload bytes each rank must receive under the spec.
    pub spec_bytes: u64,
    pub errors: usize,
    pub warnings: usize,
    /// Distinct diagnostic codes reported, e.g. `["A2A010"]`.
    pub codes: Vec<String>,
    /// Static LogGP critical-path lower bound (µs).
    pub static_us: f64,
    /// Critical-path attribution: software (posts + copies), intra-node
    /// wire, inter-node wire. The three sum to `static_us`.
    pub software_us: f64,
    pub intra_us: f64,
    pub inter_us: f64,
    /// Zero-jitter DES makespan (µs).
    pub des_us: f64,
    /// `des_us / static_us` — must be in `[1, STATIC_BOUND_FACTOR]`.
    pub ratio: f64,
    /// Rank the top critical chain finishes on, and its hop count.
    pub chain_rank: u32,
    pub chain_hops: usize,
}

/// One semantic-mutation probe.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MutationCheck {
    pub mutation: String,
    pub expected: String,
    pub base: String,
    pub seed: u64,
    /// The safety passes alone (no prover) came back clean.
    pub safety_clean: bool,
    /// The merged analysis flagged the expected code.
    pub detected: bool,
    /// Every code the merged analysis reported.
    pub codes: Vec<String>,
}

/// The full sweep (`results/verify.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VerifyReport {
    pub nodes: usize,
    pub mutation_seed: u64,
    pub bound_factor: f64,
    pub cells: Vec<VerifyCell>,
    pub mutations: Vec<MutationCheck>,
    /// Rendered text reports of every non-clean cell.
    pub findings: Vec<String>,
}

impl VerifyReport {
    pub fn errors(&self) -> usize {
        self.cells.iter().map(|c| c.errors).sum()
    }

    pub fn warnings(&self) -> usize {
        self.cells.iter().map(|c| c.warnings).sum()
    }

    /// Cells where the "lower bound" exceeded the simulator — a model
    /// soundness bug. Must be empty.
    pub fn bound_violations(&self) -> Vec<&VerifyCell> {
        self.cells.iter().filter(|c| c.ratio < 1.0 - 1e-9).collect()
    }

    /// Cells where the bound is looser than the declared factor.
    pub fn loose_cells(&self) -> Vec<&VerifyCell> {
        self.cells
            .iter()
            .filter(|c| c.ratio > self.bound_factor)
            .collect()
    }

    /// Mutation probes that failed either leg: the prover missed the
    /// expected code, or a safety pass caught what only semantics should.
    pub fn mutation_failures(&self) -> Vec<&MutationCheck> {
        self.mutations
            .iter()
            .filter(|m| !m.detected || !m.safety_clean)
            .collect()
    }

    /// Worst (largest) DES/static ratio across the roster.
    pub fn max_ratio(&self) -> f64 {
        self.cells.iter().map(|c| c.ratio).fold(0.0, f64::max)
    }

    /// Aligned ASCII summary, one line per machine x algorithm (sizes
    /// collapse to the worst ratio; a clean algorithm is clean at every
    /// size).
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# verify: {} cells, {} error(s), {} warning(s); {} mutation probes, {} failure(s); max DES/static {:.2}x (factor {})",
            self.cells.len(),
            self.errors(),
            self.warnings(),
            self.mutations.len(),
            self.mutation_failures().len(),
            self.max_ratio(),
            self.bound_factor,
        );
        let _ = writeln!(
            out,
            "{:<10} {:<28} {:>6} {:>7} {:>9} {:>9}  sw/intra/inter%",
            "machine", "algorithm", "ranks", "errors", "warnings", "ratio"
        );
        let mut i = 0;
        while i < self.cells.len() {
            let first = &self.cells[i];
            let mut errors = 0;
            let mut warnings = 0;
            let mut worst: Option<&VerifyCell> = None;
            while i < self.cells.len()
                && self.cells[i].machine == first.machine
                && self.cells[i].algo == first.algo
            {
                let c = &self.cells[i];
                errors += c.errors;
                warnings += c.warnings;
                worst = match worst {
                    Some(w) if w.ratio >= c.ratio => Some(w),
                    _ => Some(c),
                };
                i += 1;
            }
            let w = worst.expect("group is non-empty");
            let total = w.static_us.max(1e-12);
            let _ = writeln!(
                out,
                "{:<10} {:<28} {:>6} {:>7} {:>9} {:>8.2}x  {:.0}/{:.0}/{:.0}",
                first.machine,
                first.algo,
                first.ranks,
                errors,
                warnings,
                w.ratio,
                100.0 * w.software_us / total,
                100.0 * w.intra_us / total,
                100.0 * w.inter_us / total,
            );
        }
        out
    }
}

/// The topology presets the roster is verified on (same set as `repro
/// lint`): the flat bench grid plus the three scaled paper machines. Each
/// is paired with its simulator cost model (the bench grid borrows
/// Dane's).
fn verify_grids(nodes: usize) -> Vec<(String, ProcGrid)> {
    let mut grids = vec![("bench".to_string(), bench_grid(nodes))];
    for name in ["dane", "amber", "tuolumne"] {
        grids.push((
            name.to_string(),
            ProcGrid::new(machine_for(name, nodes, false)),
        ));
    }
    grids
}

/// Non-uniform count profiles for the v-variant roster — identical to the
/// `repro lint` profiles so the two sweeps gate the same surface: a lumpy
/// asymmetric matrix with zero pairs, and a banded transpose-like one.
fn v_profiles(n: usize) -> Vec<(&'static str, CountsFn)> {
    let banded_n = n as i64;
    vec![
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

/// One machine's sweep context: topology, lint config, and the simulator
/// seed (inert at zero jitter, recorded for replay).
struct CellCtx<'a> {
    machine: &'a str,
    grid: &'a ProcGrid,
    cfg: &'a LintConfig,
    seed: u64,
}

impl CellCtx<'_> {
    /// Analyze, bound, and simulate one cell; non-clean reports are
    /// rendered into `findings`.
    fn run(
        &self,
        algo: &str,
        bytes: u64,
        source: &dyn ScheduleSource,
        spec: &SemanticsSpec,
        findings: &mut Vec<String>,
    ) -> VerifyCell {
        let label = format!("{} {algo} n={}", self.machine, self.grid.world_size());
        let model = models::for_machine(self.machine);
        // One table for the analyzer and the bound: the cell's programs are
        // generated and matched once, and freed before the simulator lowers
        // its own copy.
        let (report, crit) = {
            let matched = Matched::build(source)
                .unwrap_or_else(|e| panic!("{label}: malformed schedule: {e}"));
            (
                analyze_matched(&label, &matched, self.cfg, Some(spec)),
                critical_path(&matched, self.grid, &crit_params(&model), 1),
            )
        };
        if !report.is_clean() {
            findings.push(report.render_text());
        }
        let opts = SimOptions {
            jitter: 0.0,
            seed: self.seed,
        };
        let sim = simulate(source, self.grid, &model, &opts)
            .unwrap_or_else(|e| panic!("{label}: simulation failed: {e:?}"));
        let des_us = sim.total_us;
        let ratio = if crit.bound_us > 0.0 {
            des_us / crit.bound_us
        } else {
            1.0
        };
        let chain = crit.chains.first();

        VerifyCell {
            machine: self.machine.to_string(),
            nodes: self.grid.machine().nodes,
            ppn: self.grid.machine().ppn(),
            ranks: self.grid.world_size(),
            algo: algo.to_string(),
            bytes,
            spec_bytes: spec.output_bytes(),
            errors: report.errors(),
            warnings: report.warnings(),
            codes: distinct_codes(&report),
            static_us: crit.bound_us,
            software_us: crit.attribution.software_us,
            intra_us: crit.attribution.intra_us,
            inter_us: crit.attribution.inter_us,
            des_us,
            ratio,
            chain_rank: chain.map(|c| c.rank).unwrap_or(0),
            chain_hops: chain.map(|c| c.hops.len()).unwrap_or(0),
        }
    }
}

fn distinct_codes(report: &LintReport) -> Vec<String> {
    let mut codes: Vec<String> = Vec::new();
    for d in &report.diags {
        let c = d.code.to_string();
        if !codes.contains(&c) {
            codes.push(c);
        }
    }
    codes
}

/// Known-good bases the semantic mutations are applied to: pairwise
/// (sendrecv triples + copies), nonblocking (all requests upfront), Bruck
/// (staging through temporaries), on a two-node 4-rank grid with 8-byte
/// blocks.
fn mutation_bases() -> (ProcGrid, u64, Vec<(String, FixedSchedule)>) {
    let grid = ProcGrid::new(Machine::custom("mut", 2, 1, 1, 2));
    let block: u64 = 8;
    let algos = ["pairwise", "nonblocking", "bruck"];
    let roster = bench_roster();
    let bases = roster
        .iter()
        .filter(|a| algos.contains(&a.name().as_str()))
        .map(|a| {
            let sched = AlgoSchedule::new(a.as_ref(), A2AContext::new(grid.clone(), block));
            (a.name(), FixedSchedule::capture(&sched))
        })
        .collect();
    (grid, block, bases)
}

/// Apply every semantic mutation to every base at `probes` seeds derived
/// from `seed`, recording for each applied mutant whether the safety
/// passes stayed clean and whether the merged analysis reported the
/// expected code.
fn mutation_probes(seed: u64, probes: u64, cfg: &LintConfig) -> Vec<MutationCheck> {
    let (grid, block, bases) = mutation_bases();
    let spec = SemanticsSpec::alltoall(grid.world_size(), block);
    let mut out = Vec::new();
    for m in Mutation::SEMANTIC {
        for (name, base) in &bases {
            for k in 0..probes {
                let probe_seed = seed.wrapping_add(k);
                let mut rng = Rng::new(probe_seed);
                let Some(mutant) = m.apply(base, &mut rng) else {
                    continue;
                };
                let label = format!("{m} on {name} seed {probe_seed}");
                let safety = lint_schedule(&label, &mutant, &grid, cfg);
                let merged = analyze_schedule(&label, &mutant, &grid, cfg, Some(&spec));
                let expected = m.expected_code();
                out.push(MutationCheck {
                    mutation: m.to_string(),
                    expected: expected.to_string(),
                    base: name.clone(),
                    seed: probe_seed,
                    safety_clean: safety.is_clean(),
                    detected: merged.diags.iter().any(|d| d.code.as_str() == expected),
                    codes: distinct_codes(&merged),
                });
            }
        }
    }
    out
}

/// Verify the eight-algorithm roster on every preset at every paper block
/// size against `SemanticsSpec::alltoall`, plus the v-variant roster on
/// every non-uniform count profile against `SemanticsSpec::alltoallv`;
/// then run the semantic-mutation probes. `seed` feeds the simulator
/// (inert at zero jitter) and the mutation RNG; the report is
/// byte-deterministic for a fixed `(nodes, seed)`.
pub fn verify_roster(nodes: usize, seed: u64, cfg: &LintConfig) -> VerifyReport {
    let mut report = VerifyReport {
        nodes,
        mutation_seed: seed,
        bound_factor: STATIC_BOUND_FACTOR,
        cells: Vec::new(),
        mutations: Vec::new(),
        findings: Vec::new(),
    };
    for (machine, grid) in verify_grids(nodes) {
        let n = grid.world_size();
        let ctx = CellCtx {
            machine: &machine,
            grid: &grid,
            cfg,
            seed,
        };
        for algo in bench_roster() {
            for &bytes in &DEFAULT_SIZES {
                let sched = AlgoSchedule::new(algo.as_ref(), A2AContext::new(grid.clone(), bytes));
                let spec = SemanticsSpec::alltoall(n, bytes);
                report.cells.push(ctx.run(
                    &algo.name(),
                    bytes,
                    &sched,
                    &spec,
                    &mut report.findings,
                ));
            }
        }
        for algo in crate::lint_sweep::v_roster() {
            for (profile, counts) in v_profiles(n) {
                let name = format!("{}[{}]", algo.name(), profile);
                let sched =
                    VSchedule::new(algo.as_ref(), VContext::new(grid.clone(), counts.clone()));
                let spec = SemanticsSpec::alltoallv(n, &|s, d| counts(s, d));
                report
                    .cells
                    .push(ctx.run(&name, 0, &sched, &spec, &mut report.findings));
            }
        }
    }
    report.mutations = mutation_probes(seed, 5, cfg);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_proves_clean_and_bounded() {
        let report = verify_roster(2, 1, &LintConfig::default());
        // 4 machines x (8 algorithms x 6 sizes + 3 v-algorithms x 2
        // count profiles).
        assert_eq!(report.cells.len(), 4 * (8 * 6 + 3 * 2));
        assert_eq!(report.errors(), 0, "{:?}", report.findings);
        assert_eq!(report.warnings(), 0, "{:?}", report.findings);
        assert!(
            report.bound_violations().is_empty(),
            "static bound exceeded the DES makespan"
        );
        assert!(
            report.loose_cells().is_empty(),
            "worst ratio {:.2} exceeds the declared factor {}",
            report.max_ratio(),
            STATIC_BOUND_FACTOR
        );
        // The attribution decomposes every bound exactly.
        for c in &report.cells {
            let sum = c.software_us + c.intra_us + c.inter_us;
            assert!(
                (sum - c.static_us).abs() <= 1e-6 * c.static_us.max(1.0),
                "{} {}: {} + {} + {} != {}",
                c.machine,
                c.algo,
                c.software_us,
                c.intra_us,
                c.inter_us,
                c.static_us
            );
            assert!(
                c.chain_hops > 0,
                "{} {}: empty critical chain",
                c.machine,
                c.algo
            );
        }
    }

    #[test]
    fn every_semantic_mutation_probe_passes() {
        let probes = mutation_probes(0xA2A0, 5, &LintConfig::default());
        assert!(!probes.is_empty());
        for m in Mutation::SEMANTIC {
            assert!(
                probes.iter().any(|p| p.mutation == m.to_string()),
                "{m} never applied"
            );
        }
        for p in &probes {
            assert!(
                p.safety_clean,
                "{} on {} (seed {}): safety passes flagged a semantic mutant: {:?}",
                p.mutation, p.base, p.seed, p.codes
            );
            assert!(
                p.detected,
                "{} on {} (seed {}): prover missed {}, got {:?}",
                p.mutation, p.base, p.seed, p.expected, p.codes
            );
        }
    }

    #[test]
    fn report_is_byte_deterministic() {
        let a = verify_roster(2, 7, &LintConfig::default());
        let b = verify_roster(2, 7, &LintConfig::default());
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }
}
