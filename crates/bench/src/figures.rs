//! One generator per paper figure. Each returns a [`FigureData`] whose
//! series mirror the lines of the corresponding plot (solid = pairwise
//! inner exchange, dashed = non-blocking, exactly as the paper draws them).

use a2a_core::{
    AlltoallAlgorithm, ExchangeKind, HierarchicalAlltoall, MultileaderNodeAwareAlltoall,
    NodeAwareAlltoall, SystemMpiAlltoall,
};
use a2a_netsim::SimReport;

use crate::harness::{run_min, FigureData, RunConfig, Series, DEFAULT_SIZES, PAPER_GROUP_SIZES};

type Roster = Vec<(String, Box<dyn AlltoallAlgorithm>)>;

const INNERS: [(ExchangeKind, &str); 2] = [
    (ExchangeKind::Pairwise, "pairwise"),
    (ExchangeKind::Nonblocking, "nonblocking"),
];

/// Figures this harness can regenerate. The `ablation-*` entries go beyond
/// the paper: design-choice studies DESIGN.md calls out (gather flavor,
/// NUMA-aligned vs unaligned grouping, eager-threshold sensitivity).
pub fn known_figures() -> Vec<&'static str> {
    vec![
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "fig15",
        "fig16",
        "fig17",
        "fig18",
        "headline",
        "ablation-gather",
        "ablation-grouping",
        "ablation-eager",
    ]
}

/// Run one figure by name. The returned figure carries the run header
/// (machine shape, sweep settings, engine) for CSV/JSON provenance.
pub fn figure_by_name(name: &str, cfg: &RunConfig) -> FigureData {
    let mut fig = figure_by_name_inner(name, cfg);
    fig.run_header.get_or_insert_with(|| cfg.run_header());
    fig
}

fn figure_by_name_inner(name: &str, cfg: &RunConfig) -> FigureData {
    match name {
        "fig7" => fig7(cfg),
        "fig8" => fig8(cfg),
        "fig9" => fig9(cfg),
        "fig10" => fig10(cfg),
        "fig11" => fig_node_scaling("fig11", 4, cfg),
        "fig12" => fig_node_scaling("fig12", 4096, cfg),
        "fig13" => fig13(cfg),
        "fig14" => fig14(cfg),
        "fig15" => fig15(cfg),
        "fig16" => fig16(cfg),
        "fig17" => fig_machine("fig17", "amber", cfg),
        "fig18" => fig_machine("fig18", "tuolumne", cfg),
        "headline" => headline(cfg),
        "ablation-gather" => ablation_gather(cfg),
        "ablation-grouping" => ablation_grouping(cfg),
        "ablation-eager" => ablation_eager(cfg),
        other => panic!("unknown figure {other:?}; known: {:?}", known_figures()),
    }
}

/// Sweep block sizes for a roster on one machine.
fn sweep_sizes(name: &str, title: &str, cfg: &RunConfig, roster: Roster) -> FigureData {
    let grid = cfg.grid();
    let model = cfg.model();
    let series = roster
        .into_iter()
        .map(|(label, algo)| Series {
            label,
            points: DEFAULT_SIZES
                .iter()
                .map(|&s| {
                    let rep = run_min(algo.as_ref(), &grid, &model, s, cfg.runs, cfg.seed);
                    (s as f64, rep.total_us)
                })
                .collect(),
        })
        .collect();
    FigureData {
        name: name.into(),
        title: title.into(),
        x_label: "bytes".into(),
        // From the sweep's own cfg: figs 17/18 run on an override machine.
        run_header: Some(cfg.run_header()),
        series,
    }
}

fn with_system(mut roster: Roster) -> Roster {
    roster.push(("system-mpi".into(), Box::new(SystemMpiAlltoall::default())));
    roster
}

/// Figure 7: hierarchical vs multi-leader, size sweep at `cfg.nodes`.
fn fig7(cfg: &RunConfig) -> FigureData {
    let ppn = cfg.grid().machine().ppn();
    let mut roster: Roster = Vec::new();
    for (kind, kname) in INNERS {
        roster.push((
            format!("hierarchical-{kname}"),
            Box::new(HierarchicalAlltoall::new(ppn, kind)),
        ));
        for ppl in PAPER_GROUP_SIZES {
            roster.push((
                format!("multileader(ppl={ppl})-{kname}"),
                Box::new(HierarchicalAlltoall::new(ppl, kind)),
            ));
        }
    }
    sweep_sizes(
        "fig7",
        "Hierarchical vs Multileader (32 nodes)",
        cfg,
        with_system(roster),
    )
}

/// Figure 8: node-aware vs locality-aware.
fn fig8(cfg: &RunConfig) -> FigureData {
    let mut roster: Roster = Vec::new();
    for (kind, kname) in INNERS {
        roster.push((
            format!("node-aware-{kname}"),
            Box::new(NodeAwareAlltoall::node_aware(kind)),
        ));
        for ppg in PAPER_GROUP_SIZES {
            roster.push((
                format!("locality-aware(ppg={ppg})-{kname}"),
                Box::new(NodeAwareAlltoall::locality_aware(ppg, kind)),
            ));
        }
    }
    sweep_sizes(
        "fig8",
        "Node-Aware vs Locality-Aware (32 nodes)",
        cfg,
        with_system(roster),
    )
}

/// Figure 9: multi-leader + node-aware, leaders sweep.
fn fig9(cfg: &RunConfig) -> FigureData {
    let mut roster: Roster = Vec::new();
    for (kind, kname) in INNERS {
        for ppl in PAPER_GROUP_SIZES {
            roster.push((
                format!("ml-node-aware(ppl={ppl})-{kname}"),
                Box::new(MultileaderNodeAwareAlltoall::new(ppl, kind)),
            ));
        }
    }
    sweep_sizes(
        "fig9",
        "Multileader + Locality (32 nodes)",
        cfg,
        with_system(roster),
    )
}

/// The Figure 10/11/12 roster: every family at its best group size (4
/// processes per leader/group, i.e. 28 leaders on Dane), both inners.
fn all_algorithms_roster(ppn: usize) -> Roster {
    let mut roster: Roster = Vec::new();
    for (kind, kname) in INNERS {
        roster.push((
            format!("hierarchical-{kname}"),
            Box::new(HierarchicalAlltoall::new(ppn, kind)),
        ));
        roster.push((
            format!("multileader(ppl=4)-{kname}"),
            Box::new(HierarchicalAlltoall::new(4, kind)),
        ));
        roster.push((
            format!("node-aware-{kname}"),
            Box::new(NodeAwareAlltoall::node_aware(kind)),
        ));
        roster.push((
            format!("locality-aware(ppg=4)-{kname}"),
            Box::new(NodeAwareAlltoall::locality_aware(4, kind)),
        ));
        roster.push((
            format!("ml-node-aware(ppl=4)-{kname}"),
            Box::new(MultileaderNodeAwareAlltoall::new(4, kind)),
        ));
    }
    with_system(roster)
}

/// Figure 10: all algorithms, size sweep.
fn fig10(cfg: &RunConfig) -> FigureData {
    let ppn = cfg.grid().machine().ppn();
    sweep_sizes(
        "fig10",
        "All algorithms, various sizes (32 nodes)",
        cfg,
        all_algorithms_roster(ppn),
    )
}

/// Figures 11/12: node scaling at a fixed block size.
fn fig_node_scaling(name: &str, s: u64, cfg: &RunConfig) -> FigureData {
    let node_counts: Vec<usize> = [2usize, 4, 8, 16, 32]
        .into_iter()
        .filter(|&n| n <= cfg.nodes)
        .collect();
    let model = cfg.model();
    let ppn = cfg.grid().machine().ppn();
    let roster = all_algorithms_roster(ppn);
    let mut series: Vec<Series> = roster
        .iter()
        .map(|(label, _)| Series {
            label: label.clone(),
            points: Vec::new(),
        })
        .collect();
    for &nodes in &node_counts {
        let sub = RunConfig {
            nodes,
            ..cfg.clone()
        };
        let grid = sub.grid();
        for (i, (_, algo)) in roster.iter().enumerate() {
            let rep = run_min(algo.as_ref(), &grid, &model, s, cfg.runs, cfg.seed);
            series[i].points.push((nodes as f64, rep.total_us));
        }
    }
    FigureData {
        name: name.into(),
        title: format!("Message size {s} bytes, node scaling"),
        x_label: "nodes".into(),
        run_header: None,
        series,
    }
}

/// Phase-breakdown sweep: per (variant, phase) series over sizes.
fn breakdown_sizes(
    name: &str,
    title: &str,
    cfg: &RunConfig,
    variants: Vec<(String, Box<dyn AlltoallAlgorithm>)>,
    phases: &[&str],
) -> FigureData {
    let grid = cfg.grid();
    let model = cfg.model();
    let mut series: Vec<Series> = Vec::new();
    for (vname, algo) in &variants {
        let mut per_phase: Vec<Series> = phases
            .iter()
            .map(|p| Series {
                label: format!("{vname}:{p}"),
                points: Vec::new(),
            })
            .collect();
        let mut total = Series {
            label: format!("{vname}:total"),
            points: Vec::new(),
        };
        for &s in &DEFAULT_SIZES {
            let rep: SimReport = run_min(algo.as_ref(), &grid, &model, s, cfg.runs, cfg.seed);
            for (i, p) in phases.iter().enumerate() {
                per_phase[i]
                    .points
                    .push((s as f64, rep.phase_leader(p).unwrap_or(0.0)));
            }
            total.points.push((s as f64, rep.total_us));
        }
        series.extend(per_phase);
        series.push(total);
    }
    FigureData {
        name: name.into(),
        title: title.into(),
        x_label: "bytes".into(),
        run_header: None,
        series,
    }
}

/// Figure 13: hierarchical timing breakdown (gather / inter / scatter).
fn fig13(cfg: &RunConfig) -> FigureData {
    let ppn = cfg.grid().machine().ppn();
    let variants: Vec<(String, Box<dyn AlltoallAlgorithm>)> = INNERS
        .iter()
        .map(|&(kind, kname)| {
            (
                kname.to_string(),
                Box::new(HierarchicalAlltoall::new(ppn, kind)) as Box<dyn AlltoallAlgorithm>,
            )
        })
        .collect();
    breakdown_sizes(
        "fig13",
        "Hierarchical timing breakdown (32 nodes)",
        cfg,
        variants,
        &["gather", "pack", "inter-a2a", "scatter"],
    )
}

/// Figure 14: node-aware timing breakdown (inter vs intra).
fn fig14(cfg: &RunConfig) -> FigureData {
    let variants: Vec<(String, Box<dyn AlltoallAlgorithm>)> = INNERS
        .iter()
        .map(|&(kind, kname)| {
            (
                kname.to_string(),
                Box::new(NodeAwareAlltoall::node_aware(kind)) as Box<dyn AlltoallAlgorithm>,
            )
        })
        .collect();
    breakdown_sizes(
        "fig14",
        "Node-aware timing breakdown (32 nodes)",
        cfg,
        variants,
        &["inter-a2a", "pack", "intra-a2a"],
    )
}

/// Figure 15: node-aware breakdown across node counts at 4096 B.
fn fig15(cfg: &RunConfig) -> FigureData {
    let model = cfg.model();
    let phases = ["inter-a2a", "pack", "intra-a2a"];
    let algo = NodeAwareAlltoall::node_aware(ExchangeKind::Pairwise);
    let mut series: Vec<Series> = phases
        .iter()
        .map(|p| Series {
            label: format!("pairwise:{p}"),
            points: Vec::new(),
        })
        .collect();
    let mut total = Series {
        label: "pairwise:total".into(),
        points: Vec::new(),
    };
    for nodes in [2usize, 4, 8, 16, 32]
        .into_iter()
        .filter(|&n| n <= cfg.nodes)
    {
        let sub = RunConfig {
            nodes,
            ..cfg.clone()
        };
        let grid = sub.grid();
        let rep = run_min(&algo, &grid, &model, 4096, cfg.runs, cfg.seed);
        for (i, p) in phases.iter().enumerate() {
            series[i]
                .points
                .push((nodes as f64, rep.phase_leader(p).unwrap_or(0.0)));
        }
        total.points.push((nodes as f64, rep.total_us));
    }
    series.push(total);
    FigureData {
        name: "fig15".into(),
        title: "Node-aware breakdown, 4096 B, 2-32 nodes".into(),
        x_label: "nodes".into(),
        run_header: None,
        series,
    }
}

/// Figure 16: locality-aware breakdown across group sizes at 4096 B.
fn fig16(cfg: &RunConfig) -> FigureData {
    let grid = cfg.grid();
    let model = cfg.model();
    let ppn = grid.machine().ppn();
    let phases = ["inter-a2a", "pack", "intra-a2a"];
    let mut series: Vec<Series> = phases
        .iter()
        .map(|p| Series {
            label: format!("pairwise:{p}"),
            points: Vec::new(),
        })
        .collect();
    let mut total = Series {
        label: "pairwise:total".into(),
        points: Vec::new(),
    };
    let mut group_sizes: Vec<usize> = PAPER_GROUP_SIZES.to_vec();
    group_sizes.push(ppn); // node-aware endpoint
    group_sizes.retain(|&g| ppn.is_multiple_of(g));
    group_sizes.sort_unstable();
    for g in group_sizes {
        let algo = NodeAwareAlltoall::locality_aware(g, ExchangeKind::Pairwise);
        let rep = run_min(&algo, &grid, &model, 4096, cfg.runs, cfg.seed);
        for (i, p) in phases.iter().enumerate() {
            series[i]
                .points
                .push((g as f64, rep.phase_leader(p).unwrap_or(0.0)));
        }
        total.points.push((g as f64, rep.total_us));
    }
    series.push(total);
    FigureData {
        name: "fig16".into(),
        title: "Locality-aware breakdown vs processes per group (4096 B, 32 nodes)".into(),
        x_label: "ppg".into(),
        run_header: None,
        series,
    }
}

/// Figures 17/18: the best algorithms vs system MPI on another machine.
fn fig_machine(name: &str, machine: &str, cfg: &RunConfig) -> FigureData {
    let sub = RunConfig {
        machine: machine.into(),
        ..cfg.clone()
    };
    let mut roster: Roster = Vec::new();
    for (kind, kname) in INNERS {
        roster.push((
            format!("node-aware-{kname}"),
            Box::new(NodeAwareAlltoall::node_aware(kind)),
        ));
        roster.push((
            format!("locality-aware(ppg=4)-{kname}"),
            Box::new(NodeAwareAlltoall::locality_aware(4, kind)),
        ));
        roster.push((
            format!("ml-node-aware(ppl=4)-{kname}"),
            Box::new(MultileaderNodeAwareAlltoall::new(4, kind)),
        ));
    }
    sweep_sizes(
        name,
        &format!("Best algorithms vs system MPI ({machine}, 32 nodes)"),
        &sub,
        with_system(roster),
    )
}

/// Headline claim: speedup of the best novel algorithm over system MPI per
/// size ("up to 3x speedup over system MPI at 32 nodes").
fn headline(cfg: &RunConfig) -> FigureData {
    let fig = fig10(cfg);
    let mut best = Series {
        label: "best-novel / system-mpi speedup".into(),
        points: Vec::new(),
    };
    for &s in &DEFAULT_SIZES {
        let x = s as f64;
        let sys = fig
            .value("system-mpi", x)
            .expect("system-mpi series present");
        let novel = fig
            .series
            .iter()
            .filter(|ser| {
                ser.label.starts_with("ml-node-aware")
                    || ser.label.starts_with("locality-aware")
                    || ser.label.starts_with("node-aware")
            })
            .filter_map(|ser| ser.points.iter().find(|p| p.0 == x).map(|p| p.1))
            .fold(f64::INFINITY, f64::min);
        best.points.push((x, sys / novel));
    }
    FigureData {
        name: "headline".into(),
        title: "Speedup of best novel algorithm over system MPI".into(),
        x_label: "bytes".into(),
        run_header: None,
        series: vec![best],
    }
}

/// Ablation: linear vs binomial gather/scatter trees inside the
/// leader-based algorithms.
fn ablation_gather(cfg: &RunConfig) -> FigureData {
    use a2a_core::GatherKind;
    let ppn = cfg.grid().machine().ppn();
    let mut roster: Roster = Vec::new();
    for kind in [GatherKind::Linear, GatherKind::Binomial] {
        roster.push((
            format!("hierarchical-{kind}"),
            Box::new(HierarchicalAlltoall::new(ppn, ExchangeKind::Pairwise).with_gather(kind)),
        ));
        roster.push((
            format!("ml-node-aware(ppl=4)-{kind}"),
            Box::new(
                MultileaderNodeAwareAlltoall::new(4, ExchangeKind::Pairwise).with_gather(kind),
            ),
        ));
    }
    sweep_sizes(
        "ablation-gather",
        "Gather/scatter flavor inside leader-based algorithms",
        cfg,
        roster,
    )
}

/// Ablation: NUMA-aligned (core-major mapping) vs unaligned (NUMA-cyclic
/// mapping) aggregation groups — testing the paper's §4 conjecture that
/// mapping groups to regions of locality improves locality-aware results.
fn ablation_grouping(cfg: &RunConfig) -> FigureData {
    use a2a_topo::{MapOrder, ProcGrid};
    let model = cfg.model();
    let machine = cfg.grid().machine().clone();
    let mut series = Vec::new();
    for (mapping, label) in [
        (MapOrder::CoreMajor, "aligned"),
        (MapOrder::NumaCyclic, "unaligned"),
    ] {
        let grid = ProcGrid::with_mapping(machine.clone(), mapping);
        for (algo, aname) in [
            (
                NodeAwareAlltoall::locality_aware(4, ExchangeKind::Pairwise),
                "locality-aware(ppg=4)",
            ),
            (
                NodeAwareAlltoall::node_aware(ExchangeKind::Pairwise),
                "node-aware",
            ),
        ] {
            let points = DEFAULT_SIZES
                .iter()
                .map(|&s| {
                    let rep = run_min(&algo, &grid, &model, s, cfg.runs, cfg.seed);
                    (s as f64, rep.total_us)
                })
                .collect();
            series.push(Series {
                label: format!("{aname}-{label}"),
                points,
            });
        }
    }
    FigureData {
        name: "ablation-grouping".into(),
        title: "NUMA-aligned vs unaligned aggregation groups".into(),
        x_label: "bytes".into(),
        run_header: None,
        series,
    }
}

/// Ablation: sensitivity of the node-aware algorithm to the inter-node
/// eager/rendezvous threshold.
fn ablation_eager(cfg: &RunConfig) -> FigureData {
    let grid = cfg.grid();
    let mut series = Vec::new();
    for threshold in [1u64 << 10, 1 << 12, 1 << 13, 1 << 14, 1 << 16] {
        let mut model = cfg.model();
        model.eager_threshold = threshold;
        let algo = NodeAwareAlltoall::node_aware(ExchangeKind::Pairwise);
        let points = DEFAULT_SIZES
            .iter()
            .map(|&s| {
                let rep = run_min(&algo, &grid, &model, s, cfg.runs, cfg.seed);
                (s as f64, rep.total_us)
            })
            .collect();
        series.push(Series {
            label: format!("eager<={threshold}"),
            points,
        });
    }
    FigureData {
        name: "ablation-eager".into(),
        title: "Node-aware sensitivity to the network eager threshold".into(),
        x_label: "bytes".into(),
        run_header: None,
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunConfig {
        RunConfig {
            nodes: 2,
            runs: 1,
            ..Default::default()
        }
    }

    #[test]
    fn every_known_figure_runs_at_tiny_scale() {
        for name in known_figures() {
            let fig = figure_by_name(name, &tiny());
            assert!(!fig.series.is_empty(), "{name} produced no series");
            for s in &fig.series {
                assert!(!s.points.is_empty(), "{name}/{} empty", s.label);
                assert!(
                    s.points.iter().all(|p| p.1.is_finite() && p.1 >= 0.0),
                    "{name}/{} has bad values",
                    s.label
                );
            }
        }
    }

    #[test]
    fn breakdown_phases_bounded_by_total() {
        let fig = figure_by_name("fig14", &tiny());
        // Each phase's max-across-ranks time can exceed no rank's total,
        // so it is bounded by the collective total.
        let total = |x: f64| fig.value("pairwise:total", x).unwrap();
        for s in fig.series.iter().filter(|s| !s.label.ends_with("total")) {
            for &(x, us) in &s.points {
                if s.label.starts_with("pairwise") {
                    assert!(
                        us <= total(x) + 1e-6,
                        "{} at {x}: {us} > total {}",
                        s.label,
                        total(x)
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "unknown figure")]
    fn unknown_figure_panics() {
        figure_by_name("fig99", &tiny());
    }
}
