//! The workload table: what each run feeds the system and why it exists.
//!
//! Every number that shapes load lives here. The seed only permutes key or
//! cell order and assigns tenants; the work per round is fixed, so exact
//! counters (messages, events, compiles per round) repeat across runs.

use a2a_core::{
    AlltoallAlgorithm, BruckAlltoall, ExchangeKind, HierarchicalAlltoall, MpichShmAlltoall,
    MultileaderNodeAwareAlltoall, NodeAwareAlltoall, NonblockingAlltoall, PairwiseAlltoall,
};
use a2a_topo::{Machine, ProcGrid};

use crate::stats::Rng;

/// Tenants every service workload spreads its jobs over.
pub const TENANTS: u32 = 4;

#[derive(Debug, Clone, Copy)]
pub struct GridSpec {
    /// Machine name: part of the service cache key and selects the DES
    /// cost model.
    pub machine: &'static str,
    pub nodes: usize,
    pub sockets: usize,
    pub numa: usize,
    pub cores: usize,
}

impl GridSpec {
    pub fn grid(&self) -> ProcGrid {
        ProcGrid::new(Machine::custom(
            self.machine,
            self.nodes,
            self.sockets,
            self.numa,
            self.cores,
        ))
    }
}

/// `bench4`'s 8-rank grid: 2 nodes x 2 sockets x 1 NUMA x 2 cores.
const BENCH_8R: GridSpec = GridSpec {
    machine: "bench",
    nodes: 2,
    sockets: 2,
    numa: 1,
    cores: 2,
};

/// The figure harness's scaled Sapphire Rapids node: 2 sockets x 4 NUMA x
/// 4 cores = 32 ppn.
const fn scaled_spr(machine: &'static str, nodes: usize) -> GridSpec {
    GridSpec {
        machine,
        nodes,
        sockets: 2,
        numa: 4,
        cores: 4,
    }
}

/// The scaled MI300A node: 4 APUs x 1 NUMA x 8 cores = 32 ppn.
const TUOLUMNE_64R: GridSpec = GridSpec {
    machine: "tuolumne",
    nodes: 2,
    sockets: 4,
    numa: 1,
    cores: 8,
};

/// Dane at full scale: 2 sockets x 4 NUMA x 14 cores = 112 ppn.
const DANE_FULL_16N: GridSpec = GridSpec {
    machine: "dane",
    nodes: 16,
    sockets: 2,
    numa: 4,
    cores: 14,
};

/// The eight algorithms every workload draws from, built from `a2a-core`
/// constructors with the paper's group sizes (4 per leader/group); the
/// 4-ppn bench grid uses `bench4`'s sizes instead.
pub fn roster(ppn: usize) -> Vec<Box<dyn AlltoallAlgorithm>> {
    let (hier_ppl, ppg, mlna_ppl) = if ppn == 4 { (4, 2, 2) } else { (ppn, 4, 4) };
    vec![
        Box::new(PairwiseAlltoall),
        Box::new(NonblockingAlltoall),
        Box::new(BruckAlltoall),
        Box::new(HierarchicalAlltoall::new(
            hier_ppl,
            ExchangeKind::Nonblocking,
        )),
        Box::new(NodeAwareAlltoall::node_aware(ExchangeKind::Pairwise)),
        Box::new(NodeAwareAlltoall::locality_aware(
            ppg,
            ExchangeKind::Pairwise,
        )),
        Box::new(MultileaderNodeAwareAlltoall::new(
            mlna_ppl,
            ExchangeKind::Pairwise,
        )),
        Box::new(MpichShmAlltoall::default()),
    ]
}

pub const ROSTER_LEN: usize = 8;

/// A closed-loop service workload: one generator thread keeps `window`
/// jobs in flight and waits on the oldest handle before submitting more.
#[derive(Debug, Clone, Copy)]
pub struct SvcSpec {
    pub grids: &'static [GridSpec],
    pub sizes: &'static [u64],
    /// Consecutive submissions of each key within a round (> 1 lets the
    /// service's same-key batching fire).
    pub same_key_run: usize,
    pub window: usize,
    /// The key set outgrows the default 64-entry cache, so the fixed cyclic
    /// order makes every submission a miss.
    pub cold: bool,
    /// The tail percentile `latency_tail_us` reports, fixed per workload so
    /// the metric's meaning does not move with the sample count; chosen by
    /// the ten-samples-beyond rule at this host's rate.
    pub tail_pct: f64,
    /// `peak_rss_mb` is read once this many rounds are done - fixed work
    /// (about two seconds of it here), so a faster system is not charged
    /// for the extra jobs it fits into the run.
    pub rss_rounds: usize,
}

/// A sequential-engine DES sweep: every cell is one `simulate` call.
#[derive(Debug, Clone, Copy)]
pub struct DesSpec {
    pub grid: GridSpec,
    /// Indices into [`roster`].
    pub algos: &'static [usize],
    pub sizes: &'static [u64],
}

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    Service(SvcSpec),
    Des(DesSpec),
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// Set-up repetitions per run; `setup_s` is their median.
    pub setup_reps: usize,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "svc_hot_8r",
        why: "8 ranks x 16 B, same-key runs of 4, window 8, warm cache: exec is a few us, so \
              service/runtime overhead (submit, hit, queue, dispatch, batching, resolve) is the work",
        kind: Kind::Service(SvcSpec {
            grids: &[BENCH_8R],
            sizes: &[16],
            same_key_run: 4,
            window: 8,
            cold: false,
            tail_pct: 99.0,
            rss_rounds: 4096,
        }),
        setup_reps: 9,
    },
    Workload {
        name: "svc_msgrate_128r",
        why: "4 x 32 ppn, 64 B, window 4, warm: 16 256 tiny messages per flat job, the executor's \
              message-rate end (measured: exec 0.20 of a job, fill + check + digest the rest); \
              admission is bypassed",
        kind: Kind::Service(SvcSpec {
            grids: &[scaled_spr("dane", 4)],
            sizes: &[64],
            same_key_run: 1,
            window: 4,
            cold: false,
            tail_pct: 99.0,
            rss_rounds: 32,
        }),
        setup_reps: 3,
    },
    Workload {
        name: "svc_bandwidth_64r",
        why: "2 x 32 ppn, 4096 B (16 MiB per job), window 2, warm: per-byte fill, memcpy, check \
              and digest dominate, matching is negligible - the other regime of the same executor",
        kind: Kind::Service(SvcSpec {
            grids: &[scaled_spr("dane", 2)],
            sizes: &[4096],
            same_key_run: 1,
            window: 2,
            cold: false,
            tail_pct: 90.0,
            rss_rounds: 4,
        }),
        setup_reps: 3,
    },
    Workload {
        name: "svc_cold_churn_64r",
        why: "96 distinct keys (3 machine shapes x roster x 4 sizes) cycled against the 64-entry \
              cache, window 1: every job misses, so build, validate, lint, prove, prepare dominate",
        kind: Kind::Service(SvcSpec {
            grids: &[scaled_spr("dane", 2), scaled_spr("amber", 2), TUOLUMNE_64R],
            sizes: &[4, 16, 64, 256],
            same_key_run: 1,
            window: 1,
            cold: true,
            tail_pct: 90.0,
            rss_rounds: 1,
        }),
        setup_reps: 3,
    },
    Workload {
        name: "des_fig12_512r",
        why: "Dane model, 16 x 32 ppn, roster x {64, 4096} B, sequential engine: the fig12 cell; \
              flat exchanges make netsim match-queue search and heap traffic dominate",
        kind: Kind::Des(DesSpec {
            grid: scaled_spr("dane", 16),
            algos: &[0, 1, 2, 3, 4, 5, 6, 7],
            sizes: &[64, 4096],
        }),
        setup_reps: 5,
    },
    Workload {
        name: "des_paper_1792r",
        why: "Dane at full 112 ppn x 16 nodes, hier / node-aware / mlna at 4096 B: working set \
              beyond cache; schedule build is 0.23 of a cell (measured), per-rank state and event \
              handling the rest",
        kind: Kind::Des(DesSpec {
            grid: DANE_FULL_16N,
            algos: &[3, 4, 6],
            sizes: &[4096],
        }),
        setup_reps: 5,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One service cache key: which grid, which roster entry, which block size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Key {
    pub grid: usize,
    pub algo: usize,
    pub bytes: u64,
}

impl SvcSpec {
    /// Every distinct key, in table order (grid-major, then algorithm,
    /// then size) - the order reference files are written in.
    pub fn keys(&self) -> Vec<Key> {
        let mut keys = Vec::new();
        for grid in 0..self.grids.len() {
            for algo in 0..ROSTER_LEN {
                for &bytes in self.sizes {
                    keys.push(Key { grid, algo, bytes });
                }
            }
        }
        keys
    }

    /// One round of submissions as indices into [`SvcSpec::keys`]: the
    /// keys in one seeded order, each repeated `same_key_run` times. Every
    /// round of a run repeats this same order (a cyclic order is what makes
    /// the LRU miss every time on the cold workload).
    pub fn round(&self, seed: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.keys().len()).collect();
        Rng::new(seed).shuffle(&mut order);
        order
            .into_iter()
            .flat_map(|k| std::iter::repeat_n(k, self.same_key_run))
            .collect()
    }
}

impl DesSpec {
    /// Every cell as `(roster index, block bytes)`, in table order.
    pub fn cells(&self) -> Vec<(usize, u64)> {
        self.algos
            .iter()
            .flat_map(|&a| self.sizes.iter().map(move |&s| (a, s)))
            .collect()
    }

    /// One pass over all cells (indices into [`DesSpec::cells`]) in one
    /// seeded order.
    pub fn pass(&self, seed: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.cells().len()).collect();
        Rng::new(seed).shuffle(&mut order);
        order
    }
}

#[cfg(test)]
pub fn svc_spec(name: &str) -> SvcSpec {
    match by_name(name).unwrap().kind {
        Kind::Service(s) => s,
        Kind::Des(_) => panic!("{name} is not a service workload"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_key_order_is_reproducible() {
        let cold = svc_spec("svc_cold_churn_64r");
        assert_eq!(cold.keys().len(), 96);
        assert_eq!(cold.round(3), cold.round(3));
        assert_ne!(cold.round(3), cold.round(4));
        let mut seen = cold.round(3);
        seen.sort_unstable();
        assert_eq!(seen, (0..96).collect::<Vec<_>>());
    }

    #[test]
    fn hot_round_repeats_each_key_four_times_in_a_row() {
        let round = svc_spec("svc_hot_8r").round(1);
        assert_eq!(round.len(), 32);
        for run in round.chunks(4) {
            assert!(run.iter().all(|&k| k == run[0]));
        }
    }

    #[test]
    fn roster_names_are_distinct_on_every_grid() {
        for w in &WORKLOADS {
            let grids: Vec<GridSpec> = match w.kind {
                Kind::Service(s) => s.grids.to_vec(),
                Kind::Des(d) => vec![d.grid],
            };
            for g in grids {
                let ppn = g.grid().machine().ppn();
                let mut names: Vec<String> = roster(ppn).iter().map(|a| a.name()).collect();
                assert_eq!(names.len(), ROSTER_LEN);
                names.sort();
                names.dedup();
                assert_eq!(names.len(), ROSTER_LEN, "{}: duplicate cache keys", w.name);
            }
        }
    }

    #[test]
    fn des_passes_cover_every_cell_once() {
        for w in &WORKLOADS {
            if let Kind::Des(d) = w.kind {
                let mut pass = d.pass(9);
                assert_eq!(pass, d.pass(9));
                pass.sort_unstable();
                assert_eq!(pass, (0..d.cells().len()).collect::<Vec<_>>());
            }
        }
    }
}
