//! The semantics pass: drive the `a2a-sched` dataflow prover and merge its
//! findings with the safety lints into one canonical diagnostic stream.
//!
//! The safety passes (`A2A000`–`A2A006`) prove a schedule cannot deadlock
//! or race; they say nothing about whether it implements the collective it
//! claims to. [`prove_pass`] closes that gap by symbolically executing the
//! schedule against a declared [`SemanticsSpec`] and mapping the prover's
//! findings onto stable codes:
//!
//! * `A2A007` — wrong-source byte (error)
//! * `A2A008` — missing byte (error)
//! * `A2A009` — clobbered byte (error)
//! * `A2A010` — redundant transfer (warning)
//!
//! [`analyze_schedule`] is the one-stop entry point: safety lints plus the
//! semantics pass, merged, deduplicated, and deterministically sorted by
//! `(code, rank, op)` so the report — and therefore `--deny warnings`
//! verdicts and JSON output — is byte-stable regardless of pass order.

use a2a_sched::analysis::provenance::{prove_schedule, ProveIssue, SemanticsSpec};
use a2a_sched::{Matched, ScheduleSource};
use a2a_topo::ProcGrid;

use crate::diag::{Code, Diagnostic, LintReport, MAX_DIAGS_PER_CODE};
use crate::passes::{malformed, match_schedule, safety_passes, LintConfig};

/// Map a prover issue class onto its stable lint code.
pub fn issue_code(issue: ProveIssue) -> Code {
    match issue {
        ProveIssue::WrongSource => Code::WrongSource,
        ProveIssue::MissingByte => Code::MissingByte,
        ProveIssue::ClobberedByte => Code::ClobberedByte,
        ProveIssue::RedundantTransfer => Code::RedundantTransfer,
    }
}

/// Run only the semantics prover and report its findings (`A2A007`–
/// `A2A010`). The stream is canonicalized but not capped; callers that
/// want the full merged report should use [`analyze_schedule`]. A source
/// that fails structural validation is not proved: symbolic execution of
/// a malformed schedule would be meaningless, so the report is its one
/// `A2A000` finding.
pub fn prove_pass(
    label: impl Into<String>,
    source: &dyn ScheduleSource,
    spec: &SemanticsSpec,
) -> LintReport {
    match Matched::build(source) {
        Ok(matched) => prove_matched(label, &matched, spec),
        Err(e) => malformed(label, &e),
    }
}

/// [`prove_pass`] over an already matched schedule.
pub fn prove_matched(
    label: impl Into<String>,
    m: &Matched<'_>,
    spec: &SemanticsSpec,
) -> LintReport {
    let mut report = LintReport::new(label);
    for f in prove_schedule(m, spec).findings {
        let mut d = Diagnostic::new(issue_code(f.issue), f.message);
        d.rank = Some(f.rank);
        d.op = f.op;
        if let Some(n) = f.note {
            d = d.note(n);
        }
        report.push(d);
    }
    report.sort_dedup();
    report
}

/// Full static analysis: every safety pass plus — when a semantics spec is
/// declared — the dataflow prover, merged into one deterministic report.
/// The schedule is built and matched once and every pass reads that table.
///
/// A schedule that fails structural validation (`A2A000`) is not analyzed
/// further: the report short-circuits exactly as [`lint_schedule`]'s does.
///
/// [`lint_schedule`]: crate::lint_schedule
pub fn analyze_schedule(
    label: impl Into<String>,
    source: &dyn ScheduleSource,
    grid: &ProcGrid,
    cfg: &LintConfig,
    spec: Option<&SemanticsSpec>,
) -> LintReport {
    match match_schedule(source, grid) {
        Ok(matched) => analyze_matched(label, &matched, cfg, spec),
        Err(e) => malformed(label, &e),
    }
}

/// [`analyze_schedule`] over an already matched schedule, for callers that
/// run further analyses over the same table or time the passes apart
/// (`spec: None` is the safety passes alone, canonically sorted).
pub fn analyze_matched(
    label: impl Into<String>,
    m: &Matched<'_>,
    cfg: &LintConfig,
    spec: Option<&SemanticsSpec>,
) -> LintReport {
    let mut report = safety_passes(label, m, cfg);
    if let Some(spec) = spec {
        let semantic = prove_matched(report.label.clone(), m, spec);
        report.diags.extend(semantic.diags);
    }
    report.sort_dedup();
    report.cap_per_code(MAX_DIAGS_PER_CODE);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_sched::{Block, Op, Phase, ProgBuilder, RankProgram, RBUF, SBUF};
    use a2a_topo::Machine;
    use std::borrow::Cow;

    struct Fixed {
        progs: Vec<RankProgram>,
        buffers: Vec<Vec<u64>>,
    }

    impl a2a_sched::ScheduleSource for Fixed {
        fn nranks(&self) -> usize {
            self.progs.len()
        }
        fn buffers(&self, r: u32) -> Vec<u64> {
            self.buffers[r as usize].clone()
        }
        fn rank_program(&self, r: u32) -> Cow<'_, RankProgram> {
            Cow::Borrowed(&self.progs[r as usize])
        }
        fn phase_names(&self) -> Vec<&'static str> {
            vec!["all"]
        }
    }

    fn swap_pair() -> Fixed {
        let progs = (0..2u32)
            .map(|me| {
                let peer = 1 - me;
                let mut b = ProgBuilder::new(Phase(0));
                b.copy(
                    Block::new(SBUF, me as u64 * 8, 8),
                    Block::new(RBUF, me as u64 * 8, 8),
                );
                b.sendrecv(
                    peer,
                    Block::new(SBUF, peer as u64 * 8, 8),
                    1,
                    peer,
                    Block::new(RBUF, peer as u64 * 8, 8),
                    1,
                );
                b.finish()
            })
            .collect();
        Fixed {
            progs,
            buffers: vec![vec![16, 16]; 2],
        }
    }

    fn grid() -> ProcGrid {
        ProcGrid::new(Machine::custom("t", 1, 1, 1, 2))
    }

    #[test]
    fn clean_schedule_analyzes_clean() {
        let spec = SemanticsSpec::alltoall(2, 8);
        let r = analyze_schedule(
            "swap",
            &swap_pair(),
            &grid(),
            &LintConfig::default(),
            Some(&spec),
        );
        assert!(r.is_clean(), "{}", r.render_text());
    }

    #[test]
    fn wrong_source_surfaces_as_a2a007() {
        let mut f = swap_pair();
        for top in &mut f.progs[0].ops {
            if let Op::Isend { block, .. } = &mut top.op {
                block.off = 0;
            }
        }
        let spec = SemanticsSpec::alltoall(2, 8);
        let r = analyze_schedule("bad", &f, &grid(), &LintConfig::default(), Some(&spec));
        assert!(r.has(Code::WrongSource), "{}", r.render_text());
        assert!(r.errors() > 0);
        assert!(r.render_text().contains("A2A007"));
    }

    #[test]
    fn malformed_schedule_short_circuits_the_prover() {
        let mut f = swap_pair();
        // Remove rank 1's program entirely: unmatched messages.
        f.progs[1] = RankProgram::default();
        let spec = SemanticsSpec::alltoall(2, 8);
        let r = analyze_schedule(
            "malformed",
            &f,
            &grid(),
            &LintConfig::default(),
            Some(&spec),
        );
        assert!(r.has(Code::Malformed));
        assert!(!r.has(Code::MissingByte), "prover must not run");
    }

    #[test]
    fn merged_stream_is_order_independent_and_deduped() {
        // A schedule with both a safety warning and a semantic error:
        // analyze twice and compare the rendered JSON byte-for-byte.
        let mut f = swap_pair();
        for top in &mut f.progs[0].ops {
            if let Op::Isend { block, .. } = &mut top.op {
                block.off = 0;
            }
        }
        let spec = SemanticsSpec::alltoall(2, 8);
        let a = analyze_schedule("x", &f, &grid(), &LintConfig::default(), Some(&spec));
        let b = analyze_schedule("x", &f, &grid(), &LintConfig::default(), Some(&spec));
        assert_eq!(a.render_json(), b.render_json());
        // Codes arrive sorted.
        let codes: Vec<_> = a.diags.iter().map(|d| d.code).collect();
        let mut sorted = codes.clone();
        sorted.sort();
        assert_eq!(codes, sorted);
    }

    #[test]
    fn no_spec_means_safety_only() {
        let mut f = swap_pair();
        f.progs[0].ops.remove(0); // semantic hole, safety-clean
        let r = analyze_schedule("hole", &f, &grid(), &LintConfig::default(), None);
        assert!(r.is_clean(), "{}", r.render_text());
        let spec = SemanticsSpec::alltoall(2, 8);
        let r = analyze_schedule("hole", &f, &grid(), &LintConfig::default(), Some(&spec));
        assert!(r.has(Code::MissingByte));
    }
}
