//! Selector tuning: derive a `SelectorTable` for a machine from simulator
//! sweeps — the paper's §5 plan to "explore how the optimal algorithm can
//! be dynamically selected for a given computer, system MPI, process
//! count, and data size", made executable.

use a2a_core::{
    AlltoallAlgorithm, ExchangeKind, MultileaderNodeAwareAlltoall, NodeAwareAlltoall, SelectorTable,
};
use serde::Serialize;

use crate::harness::{run_min, RunConfig, DEFAULT_SIZES};

/// One sweep row: the winning family at a block size.
#[derive(Debug, Clone, Serialize)]
pub struct TunePoint {
    pub bytes: u64,
    pub winner: String,
    pub winner_us: f64,
    /// Family key: "mlna" | "node-aware" | "locality-aware".
    pub family: &'static str,
}

/// Tuning outcome: the per-size winners and the derived table.
#[derive(Debug, Clone, Serialize)]
pub struct TuneResult {
    pub machine: String,
    pub nodes: usize,
    pub ppn: usize,
    pub points: Vec<TunePoint>,
    pub table: SelectorTable,
}

/// Candidate group sizes that divide `ppn`, preferring the paper's values.
fn candidate_groups(ppn: usize) -> Vec<usize> {
    let mut gs: Vec<usize> = [4usize, 8, 16]
        .into_iter()
        .filter(|g| ppn.is_multiple_of(*g))
        .collect();
    if gs.is_empty() {
        gs.push(
            (1..=ppn)
                .rev()
                .find(|g| ppn.is_multiple_of(*g))
                .unwrap_or(1),
        );
    }
    gs
}

/// Sweep the candidate families across sizes and derive thresholds: the
/// largest size where multi-leader + node-aware still wins becomes the
/// small threshold; the smallest size where locality-aware wins becomes
/// the large threshold.
pub fn tune(cfg: &RunConfig) -> TuneResult {
    let grid = cfg.grid();
    let model = cfg.model();
    let ppn = grid.machine().ppn();
    let groups = candidate_groups(ppn);

    let mut candidates: Vec<(&'static str, String, Box<dyn AlltoallAlgorithm>)> = Vec::new();
    for &g in &groups {
        candidates.push((
            "mlna",
            format!("ml-node-aware(ppl={g})"),
            Box::new(MultileaderNodeAwareAlltoall::new(g, ExchangeKind::Pairwise)),
        ));
        candidates.push((
            "locality-aware",
            format!("locality-aware(ppg={g})"),
            Box::new(NodeAwareAlltoall::locality_aware(g, ExchangeKind::Pairwise)),
        ));
    }
    candidates.push((
        "node-aware",
        "node-aware".into(),
        Box::new(NodeAwareAlltoall::node_aware(ExchangeKind::Pairwise)),
    ));

    let mut points = Vec::new();
    let mut best_ppl = groups[0];
    let mut best_ppg = groups[0];
    for &s in &DEFAULT_SIZES {
        let mut best: Option<(usize, f64)> = None;
        for (i, (_, _, algo)) in candidates.iter().enumerate() {
            let us = run_min(algo.as_ref(), &grid, &model, s, cfg.runs, cfg.seed).total_us;
            if best.is_none() || us < best.unwrap().1 {
                best = Some((i, us));
            }
        }
        let (i, us) = best.expect("candidates nonempty");
        let (family, label, _) = &candidates[i];
        points.push(TunePoint {
            bytes: s,
            winner: label.clone(),
            winner_us: us,
            family,
        });
    }

    // Thresholds from the winner sequence.
    let small_threshold = points
        .iter()
        .filter(|p| p.family == "mlna")
        .map(|p| p.bytes)
        .max()
        .unwrap_or(0);
    let large_threshold = points
        .iter()
        .filter(|p| p.family == "locality-aware")
        .map(|p| p.bytes)
        .min()
        .unwrap_or(u64::MAX);
    // Group sizes from the winning labels where present.
    for p in &points {
        if let Some(g) = p
            .winner
            .split(['=', ')'])
            .nth(1)
            .and_then(|v| v.parse::<usize>().ok())
        {
            match p.family {
                "mlna" => best_ppl = g,
                "locality-aware" => best_ppg = g,
                _ => {}
            }
        }
    }

    TuneResult {
        machine: cfg.machine.clone(),
        nodes: cfg.nodes,
        ppn,
        points,
        table: SelectorTable {
            small_threshold,
            large_threshold,
            ppl: best_ppl,
            ppg: best_ppg,
            inner: ExchangeKind::Pairwise,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tune_produces_consistent_table() {
        let cfg = RunConfig {
            nodes: 4,
            runs: 1,
            ..Default::default()
        };
        let res = tune(&cfg);
        assert_eq!(res.points.len(), DEFAULT_SIZES.len());
        assert!(res.table.small_threshold <= res.table.large_threshold);
        assert!(res.ppn.is_multiple_of(res.table.ppl));
        assert!(res.ppn.is_multiple_of(res.table.ppg));
        // Winners must actually be candidates we offered.
        for p in &res.points {
            assert!(
                p.winner.starts_with("ml-node-aware")
                    || p.winner.starts_with("locality-aware")
                    || p.winner == "node-aware"
            );
            assert!(p.winner_us > 0.0);
        }
    }

    #[test]
    fn candidate_groups_always_divide() {
        for ppn in [6usize, 8, 12, 32, 96, 112, 7] {
            for g in candidate_groups(ppn) {
                assert_eq!(ppn % g, 0, "ppn={ppn} g={g}");
            }
        }
    }
}
