//! DES workloads: the `repro figN` cell - one `a2a_netsim::simulate` call
//! per (algorithm, block size) on one machine - on the sequential engine.
//!
//! Host time is what is measured. Simulated microseconds are compared bit
//! for bit against the reference as a correctness check only.

use std::time::Instant;

use a2a_core::{A2AContext, AlgoSchedule, AlltoallAlgorithm};
use a2a_netsim::engine::{simulate_sharded_stats, Perturb, ShardStats};
use a2a_netsim::{models, simulate, CostModel, ShardOptions, SimOptions, SimReport};
use a2a_sched::PreparedSchedule;
use a2a_topo::{ProcGrid, Rank};
use serde::Value;

use crate::reference::{hex, CellRef, Reference};
use crate::report::{peak_rss_mb, RunResult};
use crate::stats::median;
use crate::trace::Recorder;
use crate::workloads::{roster, DesSpec, Workload};

struct World {
    grid: ProcGrid,
    model: CostModel,
    algos: Vec<Box<dyn AlltoallAlgorithm>>,
    cells: Vec<(usize, u64)>,
}

impl World {
    fn schedule(&self, cell: usize) -> AlgoSchedule<'_> {
        let (algo, bytes) = self.cells[cell];
        AlgoSchedule::new(
            self.algos[algo].as_ref(),
            A2AContext::new(self.grid.clone(), bytes),
        )
    }

    /// The sequential engine through its statistics entry point (one
    /// worker takes the same single-shard path as `simulate`).
    fn simulate_counted(
        &self,
        cell: usize,
        workers: usize,
    ) -> Result<(SimReport, ShardStats), String> {
        simulate_sharded_stats(
            &self.schedule(cell),
            &self.grid,
            &self.model,
            &SimOptions::default(),
            &Perturb::default(),
            &ShardOptions::with_workers(workers),
        )
        .map_err(|e| e.to_string())
    }
}

fn report_matches(rep: &SimReport, want: &CellRef) -> bool {
    hex(rep.total_us.to_bits()) == want.total_us_bits
        && rep.msgs_per_level.map(|m| m as u64) == want.msgs_per_level
        && rep.bytes_per_level == want.bytes_per_level
}

/// Set-up: grid, cost model, roster, and one pre-timing check - the cell
/// with the fewest events is simulated and compared against the reference,
/// event count included, so no pass is timed on a broken engine. Returns
/// the failures seen.
fn setup(spec: DesSpec, refs: Option<&Reference>) -> Result<(World, u64), String> {
    let grid = spec.grid.grid();
    let world = World {
        model: models::for_machine(spec.grid.machine),
        algos: roster(grid.machine().ppn()),
        cells: spec.cells(),
        grid,
    };
    let mut failed = 0;
    if let Some(refs) = refs {
        let (cell, want) = refs
            .cells
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.events)
            .ok_or("reference has no cells")?;
        let (rep, stats) = world.simulate_counted(cell, 1)?;
        failed += !(report_matches(&rep, want) && stats.events == want.events) as u64;
    }
    Ok((world, failed))
}

fn load_refs(w: &Workload, spec: DesSpec) -> Result<Reference, String> {
    let refs = crate::reference::load(w.name)?;
    if refs.cells.len() != spec.cells().len() {
        return Err(format!(
            "{}: reference is stale, regenerate with run.sh --bless",
            w.name
        ));
    }
    Ok(refs)
}

/// The untraced run: every end-to-end metric. The first pass takes the cells
/// in table order, the later ones in one seeded order; after the first pass
/// the run stops at the first cell boundary past the time budget. An
/// operation is one cell; each cell's time is its median over the passes, so
/// `ops_per_s` is cells divided by the sum of those medians (the typical
/// wall time of one sweep).
pub fn run(
    w: &'static Workload,
    spec: DesSpec,
    seed: u64,
    seconds: f64,
) -> Result<RunResult, String> {
    let refs = load_refs(w, spec)?;
    let mut res = RunResult::new(w.name, seed, seconds, false);

    let mut setup_s = Vec::with_capacity(w.setup_reps);
    let mut world = None;
    for _ in 0..w.setup_reps {
        let t0 = Instant::now();
        let (built, failed) = setup(spec, Some(&refs))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        res.failed += failed;
        world = Some(built);
    }
    let world = world.expect("setup_reps >= 1");

    // What the allocator keeps between cells depends on their order (twelve
    // MiB of difference on `des_fig12_512r`), so the first pass, after which
    // peak RSS is read, runs in an order no seed changes.
    let mut order: Vec<usize> = (0..spec.cells().len()).collect();
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); order.len()];
    let mut peak_rss = None;
    let start = Instant::now();
    'timed: loop {
        for &cell in &order {
            let sched = world.schedule(cell);
            let t0 = Instant::now();
            let rep = simulate(&sched, &world.grid, &world.model, &SimOptions::default());
            walls[cell].push(t0.elapsed().as_secs_f64());
            res.attempted += 1;
            res.failed += !rep.is_ok_and(|r| report_matches(&r, &refs.cells[cell])) as u64;
            if peak_rss.is_some() && start.elapsed().as_secs_f64() >= seconds {
                break 'timed;
            }
        }
        if peak_rss.is_none() {
            peak_rss = Some(peak_rss_mb());
            order = spec.pass(seed);
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    let cell_s: Vec<f64> = walls.iter().map(|w| median(w)).collect();
    let sweep_wall_s: f64 = cell_s.iter().sum();
    // Cells differ fifty-fold in cost, and a median over sixteen of them is
    // whichever of two unlike neighbours a run happens to rank eighth. The
    // geometric mean weighs every cell's ratio equally and moves smoothly.
    let geomean_s = (cell_s.iter().map(|s| s.ln()).sum::<f64>() / cell_s.len() as f64).exp();
    let slowest_s = cell_s.iter().copied().fold(0.0, f64::max);
    res.set("setup_s", median(&setup_s));
    res.set("ops_per_s", cell_s.len() as f64 / sweep_wall_s);
    res.set("latency_typical_us", geomean_s * 1e6);
    res.set("latency_tail_us", slowest_s * 1e6);
    res.set(
        "peak_rss_mb",
        peak_rss.expect("the first pass always completes"),
    );
    let samples = walls.iter().map(Vec::len);
    res.note(format!(
        "operation = one cell; {} cells, {}-{} timed samples each over {:.3} s, {} set-ups",
        walls.len(),
        samples.clone().min().unwrap_or(0),
        samples.max().unwrap_or(0),
        start.elapsed().as_secs_f64(),
        w.setup_reps
    ));
    res.note(format!(
        "sweep_wall_s {sweep_wall_s} (sum of per-cell median host seconds)"
    ));
    res.note("latency_typical_us = geometric mean of the per-cell medians; latency_tail_us = the slowest cell's median; peak RSS read after the first (table-order) pass".into());
    Ok(res)
}

/// Write the reference entries from the sequential engine.
pub fn bless(w: &'static Workload, spec: DesSpec) -> Result<Reference, String> {
    let (world, _) = setup(spec, None)?;
    let mut cells = Vec::new();
    for (i, &(algo, bytes)) in world.cells.iter().enumerate() {
        let (rep, stats) = world.simulate_counted(i, 1)?;
        cells.push(CellRef {
            algo: world.algos[algo].name(),
            bytes,
            total_us_bits: hex(rep.total_us.to_bits()),
            total_us: rep.total_us,
            msgs_per_level: rep.msgs_per_level.map(|m| m as u64),
            bytes_per_level: rep.bytes_per_level,
            events: stats.events,
        });
    }
    Ok(Reference {
        workload: w.name.into(),
        keys: Vec::new(),
        cells,
    })
}

/// The traced run: every per-layer metric the DES enters. One pass on the
/// sequential engine with a span per cell, the schedule build of each cell
/// timed on its own, then one pass on two shards (ROADMAP item 2's
/// keep-or-delete number). Fixed work: exact counters repeat.
pub fn run_traced(
    w: &'static Workload,
    spec: DesSpec,
    seed: u64,
    seconds: f64,
) -> Result<RunResult, String> {
    let refs = load_refs(w, spec)?;
    let pass = spec.pass(seed);
    let mut res = RunResult::new(w.name, seed, seconds, true);
    let mut rec = Recorder::new();
    let (world, failed) = setup(spec, Some(&refs))?;
    res.failed += failed;

    let n = pass.len();
    let (mut wall1, mut wall2, mut build) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let (mut events, mut cross, mut violations, mut ops_built) = (0u64, 0u64, 0u64, 0u64);
    let mut sim_total_us = 0.0;
    let mut table = Vec::new();
    for &cell in &pass {
        let job = cell as u32;
        let want = &refs.cells[cell];
        let t0 = rec.now_ns();
        let (rep, stats) = world.simulate_counted(cell, 1)?;
        let t1 = rec.now_ns();
        rec.add("netsim.simulate", job, 0, None, t0, t1);
        wall1[cell] = (t1 - t0) as f64 / 1e9;
        res.attempted += 1;
        res.failed += !(report_matches(&rep, want) && stats.events == want.events) as u64;
        events += stats.events;
        sim_total_us += rep.total_us;

        let sched = world.schedule(cell);
        let t0 = rec.now_ns();
        let prep = PreparedSchedule::new_owned(&sched);
        let t1 = rec.now_ns();
        rec.add("core.build", job, 0, None, t0, t1);
        build[cell] = (t1 - t0) as f64 / 1e9;
        ops_built += (0..prep.nranks() as Rank)
            .map(|r| prep.prog(r).ops.len() as u64)
            .sum::<u64>();
        drop(prep);

        table.push(Value::Object(vec![
            ("algo".into(), Value::Str(want.algo.clone())),
            ("bytes".into(), Value::U64(want.bytes)),
            ("sim_ms".into(), Value::F64(wall1[cell] * 1e3)),
            ("events".into(), Value::U64(stats.events)),
            (
                "ns_per_event".into(),
                Value::F64(wall1[cell] * 1e9 / stats.events as f64),
            ),
            ("build_ms".into(), Value::F64(build[cell] * 1e3)),
            ("sim_total_us".into(), Value::F64(rep.total_us)),
        ]));
        res.note(format!(
            "cell {} {} B: sim_ms {:.3}, events {}, ns_per_event {:.1}, build_ms {:.3}, simulated total_us {}",
            want.algo,
            want.bytes,
            wall1[cell] * 1e3,
            stats.events,
            wall1[cell] * 1e9 / stats.events as f64,
            build[cell] * 1e3,
            rep.total_us
        ));
    }
    for &cell in &pass {
        let t0 = rec.now_ns();
        let (rep, stats) = world.simulate_counted(cell, 2)?;
        let t1 = rec.now_ns();
        rec.add("netsim.simulate_w2", cell as u32, 1, None, t0, t1);
        wall2[cell] = (t1 - t0) as f64 / 1e9;
        res.attempted += 1;
        res.failed += !report_matches(&rep, &refs.cells[cell]) as u64;
        cross += stats.cross_events;
        violations += stats.causality_violations;
    }
    if violations != 0 {
        res.problems
            .push(format!("{violations} causality violations on two shards"));
    }

    let (sum1, sum2, sum_build): (f64, f64, f64) =
        (wall1.iter().sum(), wall2.iter().sum(), build.iter().sum());
    res.set("core.build_ms", sum_build * 1e3 / n as f64);
    res.set("core.ops_built", ops_built as f64);
    res.set("netsim.events", events as f64);
    res.set("netsim.sim_ms", sum1 * 1e3);
    res.set("netsim.ns_per_event", sum1 * 1e9 / events as f64);
    res.set("netsim.sim_total_us", sim_total_us);
    res.set("netsim.build_share", sum_build / sum1);
    res.set("netsim.sharded_w2_speedup", sum1 / sum2);
    res.set("netsim.cross_events", cross as f64);
    res.set("netsim.causality_violations", violations as f64);
    res.set("trace.ops_per_s", n as f64 / sum1);
    res.set("trace.spans", rec.spans().len() as f64);
    res.set("trace.span_cost_ns", Recorder::span_cost_ns());
    res.details.push(("per_cell".into(), Value::Array(table)));
    res.note(format!(
        "one pass of {n} cells per engine: sequential {sum1:.3} s, two shards {sum2:.3} s (fixed work, --seconds does not scale it)"
    ));
    res.notes.extend(rec.table());
    rec.save(w.name)?;
    Ok(res)
}
