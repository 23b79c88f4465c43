//! Static LogGP critical-path analysis.
//!
//! Weights the cross-rank wait-for structure of a schedule with LogGP-style
//! costs — per-op software overheads (`o_send`, `o_recv`, copy cost) plus
//! per-level wire time `α + bytes·β` from the topology's locality level —
//! and computes the schedule's critical-path lower bound by a longest-path
//! forward pass over the resulting DAG.
//!
//! The model is deliberately a *lower bound* on the discrete-event
//! simulator: it uses the same base parameters but charges none of the
//! DES's additive extras (matching cost, queue search, NIC and memory-bus
//! serialization, rendezvous handshakes) and assumes every send completes
//! eagerly at post time. At zero jitter every DES event therefore happens
//! no earlier than its static counterpart, so `bound_us <=` the measured
//! makespan on any uncongested schedule — the cross-check `repro verify`
//! asserts cell by cell.
//!
//! The forward pass records, for every `WaitAll` that ends on a message
//! arrival, which send it waited for. Backtracing those edges from the
//! last-finishing rank decomposes the makespan *exactly* into software
//! time (posts and copies) and wire time split intra-/inter-node — the
//! same three-way attribution as the paper's phase breakdowns — and yields
//! the top-k critical chains for diagnosis.

use a2a_topo::{Level, ProcGrid, Rank};

use crate::ir::{Bytes, Op};
use crate::validate::Matched;

/// Cost parameters for the static model. Mirrors the subset of the
/// simulator's cost model that forms a guaranteed lower bound; build one
/// from a full `CostModel` with `a2a-netsim`'s `crit_params`.
#[derive(Debug, Clone, PartialEq)]
pub struct CritParams {
    /// CPU time to post a send (µs).
    pub o_send: f64,
    /// CPU time to post a receive (µs).
    pub o_recv: f64,
    /// Fixed cost of a local copy (µs).
    pub copy_base: f64,
    /// Reciprocal memcpy bandwidth (µs/byte).
    pub copy_per_byte: f64,
    /// Per-level `(alpha, beta)` wire cost, indexed IntraNuma,
    /// IntraSocket, InterSocket, InterNode.
    pub levels: [(f64, f64); 4],
}

impl CritParams {
    /// Wire time for `bytes` at locality `level`.
    pub fn wire(&self, level: Level, bytes: Bytes) -> f64 {
        let (alpha, beta) = match level {
            Level::SelfRank => (0.0, 0.0),
            Level::IntraNuma => self.levels[0],
            Level::IntraSocket => self.levels[1],
            Level::InterSocket => self.levels[2],
            Level::InterNode => self.levels[3],
        };
        alpha + bytes as f64 * beta
    }

    fn copy(&self, bytes: Bytes) -> f64 {
        self.copy_base + bytes as f64 * self.copy_per_byte
    }
}

/// Exact decomposition of the critical path: the three components sum to
/// the bound (up to float rounding).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CritAttribution {
    /// Send/receive posting and local copies on the path (µs).
    pub software_us: f64,
    /// Intra-node wire segments on the path (µs).
    pub intra_us: f64,
    /// Inter-node wire segments on the path (µs).
    pub inter_us: f64,
}

impl CritAttribution {
    pub fn total_us(&self) -> f64 {
        self.software_us + self.intra_us + self.inter_us
    }
}

/// One step of a critical chain, latest first.
#[derive(Debug, Clone)]
pub struct CritHop {
    pub rank: Rank,
    pub op: usize,
    /// `"send"`, `"recv"`, `"copy"`, `"wire-intra"`, or `"wire-inter"`.
    pub kind: &'static str,
    pub us: f64,
}

/// A critical chain ending at one rank's finish.
#[derive(Debug, Clone)]
pub struct CritChain {
    pub rank: Rank,
    pub finish_us: f64,
    /// Exact makespan decomposition along this chain.
    pub attribution: CritAttribution,
    /// Steps, latest first, truncated to the requested display cap.
    pub hops: Vec<CritHop>,
    /// Untruncated chain length.
    pub total_hops: usize,
}

/// Result of one static analysis.
#[derive(Debug, Clone)]
pub struct CritReport {
    /// Critical-path lower bound on the makespan (µs).
    pub bound_us: f64,
    /// Decomposition of the global critical path.
    pub attribution: CritAttribution,
    /// Per-rank finish times (µs).
    pub rank_finish: Vec<f64>,
    /// Chains for the `top_k` latest-finishing ranks, worst first.
    pub chains: Vec<CritChain>,
}

/// How many hops a reported chain keeps for display; attribution always
/// covers the full chain.
pub const CHAIN_DISPLAY_HOPS: usize = 16;

struct Span {
    start: f64,
    end: f64,
}

/// Critical arrival that ended a wait: the send op it traces to plus the
/// wire segment's level and duration.
#[derive(Clone, Copy)]
struct CritDep {
    sender: Rank,
    send_op: usize,
    level: Level,
    wire_us: f64,
}

/// Compute the static critical-path bound, its attribution, and the top-k
/// critical chains for `m` mapped onto `grid`. Which send a wait ends on,
/// and an order in which every send is timed before the wait it feeds,
/// both come from the [`Matched`] table. A schedule that deadlocks even
/// with eager sends is the deadlock lint's finding; its bound covers the
/// ops that can run.
pub fn critical_path(
    m: &Matched<'_>,
    grid: &ProcGrid,
    params: &CritParams,
    top_k: usize,
) -> CritReport {
    let n = m.nranks();
    assert_eq!(
        grid.world_size(),
        n,
        "grid has {} ranks, schedule has {n}",
        grid.world_size()
    );

    let mut clock = vec![0.0f64; n];
    let mut spans: Vec<Vec<Span>> = (0..n as Rank)
        .map(|r| {
            m.prog(r)
                .ops
                .iter()
                .map(|_| Span {
                    start: 0.0,
                    end: 0.0,
                })
                .collect()
        })
        .collect();
    // crit[r][op] — for WaitAll ops, the arrival that set its end time.
    let mut crit: Vec<Vec<Option<CritDep>>> = (0..n as Rank)
        .map(|r| vec![None; m.prog(r).ops.len()])
        .collect();

    m.walk(|rank, i| {
        let r = rank as usize;
        let start = clock[r];
        let op = m.prog(rank).ops[i].op;
        clock[r] = match op {
            Op::Isend { .. } => start + params.o_send,
            Op::Irecv { .. } => start + params.o_recv,
            Op::Copy { src, .. } => start + params.copy(src.len),
            Op::WaitAll { .. } => {
                let mut end = start;
                for (recv_op, (sender, send_op)) in m.arrivals(rank, i) {
                    let level = grid.level(sender, rank);
                    let wire_us = params.wire(level, m.prog(rank).ops[recv_op].op.bytes());
                    let arrival = spans[sender as usize][send_op].end + wire_us;
                    if arrival > end {
                        end = arrival;
                        crit[r][i] = Some(CritDep {
                            sender,
                            send_op,
                            level,
                            wire_us,
                        });
                    }
                }
                end
            }
        };
        spans[r][i] = Span {
            start,
            end: clock[r],
        };
    });

    let rank_finish = clock.clone();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| clock[b].partial_cmp(&clock[a]).unwrap().then(a.cmp(&b)));
    let bound_us = order.first().map(|&r| clock[r]).unwrap_or(0.0);

    let total_ops: usize = spans.iter().map(Vec::len).sum();
    let mut chains = Vec::new();
    for &r in order.iter().take(top_k.max(1).min(n)) {
        chains.push(backtrace(
            r as Rank,
            m,
            &spans,
            &crit,
            clock[r],
            total_ops + 1,
        ));
    }
    let attribution = chains.first().map(|c| c.attribution).unwrap_or_default();

    CritReport {
        bound_us,
        attribution,
        rank_finish,
        chains,
    }
}

/// Walk the critical chain backwards from `rank`'s last op, attributing
/// every op duration and wire segment.
fn backtrace(
    rank: Rank,
    m: &Matched<'_>,
    spans: &[Vec<Span>],
    crit: &[Vec<Option<CritDep>>],
    finish_us: f64,
    max_hops: usize,
) -> CritChain {
    let mut attribution = CritAttribution::default();
    let mut hops: Vec<CritHop> = Vec::new();
    let mut total_hops = 0usize;
    let push = |hops: &mut Vec<CritHop>, total: &mut usize, hop: CritHop| {
        if hop.us > 0.0 {
            *total += 1;
            if hops.len() < CHAIN_DISPLAY_HOPS {
                hops.push(hop);
            }
        }
    };

    let mut r = rank as usize;
    let mut idx = match m.prog(rank).ops.len().checked_sub(1) {
        Some(i) => i,
        None => {
            return CritChain {
                rank,
                finish_us,
                attribution,
                hops,
                total_hops,
            }
        }
    };
    for _ in 0..max_hops {
        let op = m.prog(r as Rank).ops[idx].op;
        let span = &spans[r][idx];
        let dur = span.end - span.start;
        match op {
            Op::WaitAll { .. } => {
                if let Some(dep) = crit[r][idx] {
                    // The wait ended on this arrival: attribute the wire
                    // segment and jump to the send that produced it.
                    let kind = if dep.level.is_intra_node() {
                        attribution.intra_us += dep.wire_us;
                        "wire-intra"
                    } else {
                        attribution.inter_us += dep.wire_us;
                        "wire-inter"
                    };
                    push(
                        &mut hops,
                        &mut total_hops,
                        CritHop {
                            rank: r as Rank,
                            op: idx,
                            kind,
                            us: dep.wire_us,
                        },
                    );
                    r = dep.sender as usize;
                    idx = dep.send_op;
                    continue;
                }
                // Ended on the local clock: zero duration, fall through.
            }
            Op::Isend { .. } => {
                attribution.software_us += dur;
                push(
                    &mut hops,
                    &mut total_hops,
                    CritHop {
                        rank: r as Rank,
                        op: idx,
                        kind: "send",
                        us: dur,
                    },
                );
            }
            Op::Irecv { .. } => {
                attribution.software_us += dur;
                push(
                    &mut hops,
                    &mut total_hops,
                    CritHop {
                        rank: r as Rank,
                        op: idx,
                        kind: "recv",
                        us: dur,
                    },
                );
            }
            Op::Copy { .. } => {
                attribution.software_us += dur;
                push(
                    &mut hops,
                    &mut total_hops,
                    CritHop {
                        rank: r as Rank,
                        op: idx,
                        kind: "copy",
                        us: dur,
                    },
                );
            }
        }
        if idx == 0 {
            break;
        }
        idx -= 1;
    }

    CritChain {
        rank,
        finish_us,
        attribution,
        hops,
        total_hops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgBuilder;
    use crate::ir::{Block, Phase, RankProgram, RBUF, SBUF};
    use crate::ScheduleSource;
    use a2a_topo::Machine;
    use std::borrow::Cow;

    fn params() -> CritParams {
        CritParams {
            o_send: 1.0,
            o_recv: 0.5,
            copy_base: 0.25,
            copy_per_byte: 0.001,
            levels: [(0.2, 0.01), (0.4, 0.02), (0.8, 0.03), (2.0, 0.05)],
        }
    }

    struct Fixed {
        progs: Vec<RankProgram>,
    }

    impl ScheduleSource for Fixed {
        fn nranks(&self) -> usize {
            self.progs.len()
        }
        fn buffers(&self, _r: Rank) -> Vec<Bytes> {
            vec![1024, 1024]
        }
        fn rank_program(&self, r: Rank) -> Cow<'_, RankProgram> {
            Cow::Borrowed(&self.progs[r as usize])
        }
        fn phase_names(&self) -> Vec<&'static str> {
            vec!["all"]
        }
    }

    fn crit(f: &Fixed, grid: &ProcGrid, top_k: usize) -> CritReport {
        let matched = Matched::build(f).expect("structurally valid");
        critical_path(&matched, grid, &params(), top_k)
    }

    /// Rank 0 sends 100 bytes to rank 1 (same NUMA domain): the bound is
    /// o_send + wire, with o_recv hidden under the wire.
    #[test]
    fn single_message_bound_is_exact() {
        let mut b0 = ProgBuilder::new(Phase(0));
        b0.send(1, Block::new(SBUF, 0, 100), 0);
        let mut b1 = ProgBuilder::new(Phase(0));
        b1.recv(0, Block::new(RBUF, 0, 100), 0);
        let f = Fixed {
            progs: vec![b0.finish(), b1.finish()],
        };
        let grid = ProcGrid::new(Machine::custom("t", 1, 1, 1, 2));
        let rep = crit(&f, &grid, 2);
        let wire = 0.2 + 100.0 * 0.01; // IntraNuma
        let want = 1.0 + wire; // o_send + wire > o_recv
        assert!((rep.bound_us - want).abs() < 1e-9, "{}", rep.bound_us);
        assert!((rep.attribution.software_us - 1.0).abs() < 1e-9);
        assert!((rep.attribution.intra_us - wire).abs() < 1e-9);
        assert_eq!(rep.attribution.inter_us, 0.0);
        // Attribution decomposes the bound exactly.
        assert!((rep.attribution.total_us() - rep.bound_us).abs() < 1e-9);
        assert_eq!(rep.chains.len(), 2);
        assert_eq!(rep.chains[0].rank, 1);
        assert_eq!(rep.chains[0].hops[0].kind, "wire-intra");
    }

    /// A two-hop relay across nodes: 0 -> 1 (inter-node) -> copy -> done.
    #[test]
    fn relay_attributes_all_three_buckets() {
        let mut b0 = ProgBuilder::new(Phase(0));
        b0.send(1, Block::new(SBUF, 0, 1000), 0);
        let mut b1 = ProgBuilder::new(Phase(0));
        b1.recv(0, Block::new(RBUF, 0, 1000), 0);
        b1.copy(Block::new(RBUF, 0, 1000), Block::new(SBUF, 0, 1000));
        let f = Fixed {
            progs: vec![b0.finish(), b1.finish()],
        };
        // Two nodes, one rank each: the pair is inter-node.
        let grid = ProcGrid::new(Machine::custom("t", 2, 1, 1, 1));
        let rep = crit(&f, &grid, 1);
        let wire = 2.0 + 1000.0 * 0.05;
        let copy = 0.25 + 1000.0 * 0.001;
        let want = 1.0 + wire + copy;
        assert!((rep.bound_us - want).abs() < 1e-9, "{}", rep.bound_us);
        assert!((rep.attribution.inter_us - wire).abs() < 1e-9);
        assert!((rep.attribution.software_us - (1.0 + copy)).abs() < 1e-9);
        assert!((rep.attribution.total_us() - rep.bound_us).abs() < 1e-9);
    }

    /// When the receiver is the bottleneck (many receives posted), the
    /// bound follows its software time, not the wire.
    #[test]
    fn software_bound_dominates_when_wire_is_cheap() {
        let mut b0 = ProgBuilder::new(Phase(0));
        b0.send(1, Block::new(SBUF, 0, 1), 0);
        let mut b1 = ProgBuilder::new(Phase(0));
        for _ in 0..100 {
            b1.copy(Block::new(SBUF, 0, 1), Block::new(RBUF, 0, 1));
        }
        b1.recv(0, Block::new(RBUF, 0, 1), 0);
        let f = Fixed {
            progs: vec![b0.finish(), b1.finish()],
        };
        let grid = ProcGrid::new(Machine::custom("t", 1, 1, 1, 2));
        let rep = crit(&f, &grid, 1);
        // 100 copies of 1 byte then the recv post dominate the arrival.
        let copies = 100.0 * (0.25 + 0.001);
        let want = copies + 0.5; // wait ends on local clock (arrival earlier)
        assert!((rep.bound_us - want).abs() < 1e-9, "{}", rep.bound_us);
        assert_eq!(rep.attribution.intra_us, 0.0);
        assert!((rep.attribution.total_us() - rep.bound_us).abs() < 1e-9);
    }

    /// Chains are truncated for display but attribution covers everything.
    #[test]
    fn long_chains_truncate_but_attribute_fully() {
        let mut b1 = ProgBuilder::new(Phase(0));
        for _ in 0..CHAIN_DISPLAY_HOPS + 10 {
            b1.copy(Block::new(SBUF, 0, 8), Block::new(RBUF, 0, 8));
        }
        let f = Fixed {
            progs: vec![b1.finish()],
        };
        let grid = ProcGrid::new(Machine::custom("t", 1, 1, 1, 1));
        let rep = crit(&f, &grid, 1);
        let c = &rep.chains[0];
        assert_eq!(c.hops.len(), CHAIN_DISPLAY_HOPS);
        assert_eq!(c.total_hops, CHAIN_DISPLAY_HOPS + 10);
        assert!((c.attribution.total_us() - rep.bound_us).abs() < 1e-9);
    }
}
