//! The discrete-event engine: public API.
//!
//! Execution model: every rank owns a virtual clock and a program cursor;
//! the event core in `shard.rs` advances the runnable rank with the
//! smallest event key by one operation, with all inter-node message legs
//! as explicit timestamped events. Ranks park at an unsatisfied `WaitAll`
//! and wake when the last awaited request completes. Per-node shared
//! resources (NIC injection/ejection, memory buses) are reserved in event
//! order, which keeps the simulation deterministic for a fixed seed.
//! [`simulate`] / [`simulate_perturbed`] run that core on one thread over
//! every node.
//!
//! Protocol semantics:
//! * **Pairing**: the k-th send on a `(from, to, tag)` channel fills the
//!   k-th receive however messages overtake on the wire, as
//!   [`a2a_sched::FifoChannels`] resolves it for `Matched` too.
//! * **Eager** (`bytes <= eager_threshold`): the send request completes as
//!   soon as it is posted (the library buffers the payload); the payload
//!   travels immediately and waits at its receive, as unexpected, if that
//!   receive is not posted yet.
//! * **Rendezvous**: inter-node payloads pay a full RTS/CTS handshake (one
//!   wire latency each way) and may not travel until the matching receive
//!   is posted; the send request completes only when the payload has left
//!   the sender (NIC injection end). Intra-node rendezvous matches through
//!   shared memory without the wire handshake.
//! * Receives pay a queue-search cost proportional to the unexpected-queue
//!   depth when posted, and arrivals pay one proportional to the
//!   posted-queue depth — the costs that penalize huge non-blocking
//!   windows at scale.

use a2a_sched::{ScheduleSource, ValidationError};
use a2a_topo::{ProcGrid, Rank};

use crate::model::CostModel;
use crate::report::SimReport;
use crate::shard::{Ctx, Shard};

/// Simulation options.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimOptions {
    /// Multiplicative noise amplitude on CPU-side costs (0.0 = exact).
    pub jitter: f64,
    /// Noise seed.
    pub seed: u64,
}

/// Deterministic perturbations applied on top of the cost model: straggler
/// CPU slowdowns and degraded inter-node links. Plain data so any fault
/// layer (e.g. `a2a_faults::FaultPlan`) can be lowered onto the simulator
/// without the engine depending on it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Perturb {
    /// Per-rank CPU slowdown multipliers (index = rank; missing ranks and
    /// an empty vec mean 1.0). Scales copy costs and send/recv overheads —
    /// the straggler model.
    pub rank_slowdown: Vec<f64>,
    /// Directed degraded links: `(from_node, to_node, multiplier)` scales
    /// NIC occupancy and wire time for traffic on that link.
    pub link_multiplier: Vec<(usize, usize, f64)>,
}

impl Perturb {
    pub fn is_empty(&self) -> bool {
        self.rank_slowdown.iter().all(|&s| s == 1.0)
            && self.link_multiplier.iter().all(|&(_, _, m)| m == 1.0)
    }

    /// CPU slowdown for `rank` (1.0 if unspecified).
    pub fn slowdown(&self, rank: Rank) -> f64 {
        self.rank_slowdown
            .get(rank as usize)
            .copied()
            .unwrap_or(1.0)
    }

    /// Cost multiplier for the directed link `from_node -> to_node`.
    pub fn link(&self, from_node: usize, to_node: usize) -> f64 {
        self.link_multiplier
            .iter()
            .find(|&&(f, t, _)| f == from_node && t == to_node)
            .map(|&(_, _, m)| m)
            .unwrap_or(1.0)
    }
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Ranks remained blocked with no pending events (schedule bug).
    Deadlock { unfinished: usize },
    /// A send that no receive matches, or a pair of differing lengths.
    Unpaired(ValidationError),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { unfinished } => {
                write!(f, "simulation deadlock: {unfinished} ranks unfinished")
            }
            SimError::Unpaired(e) => write!(f, "simulation cannot pair a message: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Simulate `source` on `grid` under `model`. Returns per-rank completion
/// times and per-phase breakdowns in a [`SimReport`].
pub fn simulate(
    source: &dyn ScheduleSource,
    grid: &ProcGrid,
    model: &CostModel,
    opts: &SimOptions,
) -> Result<SimReport, SimError> {
    simulate_perturbed(source, grid, model, opts, &Perturb::default())
}

/// [`simulate`] with straggler/degraded-link perturbations applied — the
/// substrate for chaos sweeps measuring slowdown-under-faults.
pub fn simulate_perturbed(
    source: &dyn ScheduleSource,
    grid: &ProcGrid,
    model: &CostModel,
    opts: &SimOptions,
    perturb: &Perturb,
) -> Result<SimReport, SimError> {
    run(source, grid, model, opts, perturb).map(|(rep, _)| rep)
}

/// Run the event core to completion; the report and the events processed.
fn run(
    source: &dyn ScheduleSource,
    grid: &ProcGrid,
    model: &CostModel,
    opts: &SimOptions,
    perturb: &Perturb,
) -> Result<(SimReport, u64), SimError> {
    let n = source.nranks();
    assert_eq!(n, grid.world_size(), "schedule/grid world size mismatch");
    let phase_names: Vec<String> = source.phase_names().iter().map(|s| s.to_string()).collect();
    let nphases = phase_names.len().max(1);
    let ctx = Ctx::new(grid, model, perturb, opts.jitter, nphases);
    let mut shard = Shard::build(&ctx, source, opts.seed)?;
    shard.run_until();
    assemble(&shard, phase_names, nphases).map(|rep| (rep, shard.events))
}

/// Fold the ranks' clocks and phase times into one report, in rank order.
fn assemble(
    shard: &Shard,
    phase_names: Vec<String>,
    nphases: usize,
) -> Result<SimReport, SimError> {
    let world = shard.ranks.len();
    let mut unfinished = 0;
    let mut rank_finish = Vec::with_capacity(world);
    let mut phase_max = vec![0.0f64; nphases];
    let mut phase_sum = vec![0.0f64; nphases];
    let mut phase_rank0 = vec![0.0f64; nphases];
    for st in &shard.ranks {
        if !st.done() {
            unfinished += 1;
        }
        rank_finish.push(st.clock);
        for (p, &t) in st.phase_time.iter().enumerate() {
            phase_max[p] = phase_max[p].max(t);
            phase_sum[p] += t;
        }
    }
    if unfinished > 0 {
        return Err(SimError::Deadlock { unfinished });
    }
    if let Some(r0) = shard.ranks.first() {
        phase_rank0.copy_from_slice(&r0.phase_time);
    }
    let total_us = rank_finish.iter().cloned().fold(0.0, f64::max);
    let phase_mean: Vec<f64> = phase_sum.iter().map(|s| s / world as f64).collect();
    Ok(SimReport {
        total_us,
        rank_finish,
        phase_names,
        phase_max_us: phase_max,
        phase_mean_us: phase_mean,
        phase_rank0_us: phase_rank0,
        msgs_per_level: shard.msgs_per_level,
        bytes_per_level: shard.bytes_per_level,
    })
}

/// [`simulate_perturbed`] plus its event count. Only `benchmark/` calls
/// it; ROADMAP item 1(a)'s benchmark-only change deletes it, as it does
/// [`ShardStats`] and [`ShardOptions`].
pub fn simulate_sharded_stats(
    source: &dyn ScheduleSource,
    grid: &ProcGrid,
    model: &CostModel,
    opts: &SimOptions,
    perturb: &Perturb,
    _sopts: &ShardOptions,
) -> Result<(SimReport, ShardStats), SimError> {
    let (rep, events) = run(source, grid, model, opts, perturb)?;
    let stats = ShardStats {
        events,
        cross_events: 0,
        causality_violations: 0,
    };
    Ok((rep, stats))
}

/// [`simulate_sharded_stats`]'s result; the last two fields are always 0.
/// Only `benchmark/` reads it; ROADMAP item 1(a) deletes it.
#[derive(Debug, Clone, Copy)]
pub struct ShardStats {
    pub events: u64,
    pub cross_events: u64,
    pub causality_violations: u64,
}

/// [`simulate_sharded_stats`]'s options, none read. Only `benchmark/`
/// builds one; ROADMAP item 1(a) deletes it.
#[derive(Debug, Clone, Copy)]
pub struct ShardOptions;

impl ShardOptions {
    pub fn with_workers(_workers: usize) -> Self {
        ShardOptions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_sched::{Block, Bytes, Phase, ProgBuilder, RankProgram, RBUF, SBUF};
    use a2a_topo::{Level, Machine};

    /// Two ranks exchanging one message each; configurable size and shape.
    struct Swap {
        s: Bytes,
        grid: ProcGrid,
    }

    impl Swap {
        fn internode(s: Bytes) -> Self {
            Swap {
                s,
                grid: ProcGrid::new(Machine::custom("t", 2, 1, 1, 1)),
            }
        }
        fn intranode(s: Bytes) -> Self {
            Swap {
                s,
                grid: ProcGrid::new(Machine::custom("t", 1, 1, 1, 2)),
            }
        }
    }

    impl ScheduleSource for Swap {
        fn nranks(&self) -> usize {
            2
        }
        fn buffers(&self, _r: Rank) -> Vec<Bytes> {
            vec![self.s, self.s]
        }
        fn build_rank(&self, r: Rank) -> RankProgram {
            let peer = 1 - r;
            let mut b = ProgBuilder::new(Phase(0));
            b.sendrecv(
                peer,
                Block::new(SBUF, 0, self.s),
                0,
                peer,
                Block::new(RBUF, 0, self.s),
                0,
            );
            b.finish()
        }
        fn phase_names(&self) -> Vec<&'static str> {
            vec!["exchange"]
        }
    }

    fn sim(src: &Swap) -> SimReport {
        simulate(
            src,
            &src.grid.clone(),
            &crate::models::dane(),
            &SimOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn internode_swap_has_sane_time() {
        let src = Swap::internode(1024);
        let rep = sim(&src);
        let m = crate::models::dane();
        // Must at least pay posting + NIC + wire + match.
        let lower = m.o_send + m.nic_occupancy(1024) + m.level(Level::InterNode).wire(1024);
        assert!(rep.total_us > lower, "{} <= {lower}", rep.total_us);
        assert!(rep.total_us < 100.0, "unreasonably slow: {}", rep.total_us);
    }

    #[test]
    fn intranode_cheaper_than_internode() {
        let a = sim(&Swap::intranode(4096)).total_us;
        let b = sim(&Swap::internode(4096)).total_us;
        assert!(a < b, "intra {a} >= inter {b}");
    }

    #[test]
    fn bigger_messages_take_longer() {
        let a = sim(&Swap::internode(64)).total_us;
        let b = sim(&Swap::internode(65536)).total_us;
        assert!(a < b);
    }

    #[test]
    fn rendezvous_kicks_in_above_threshold() {
        let m = crate::models::dane();
        let small = sim(&Swap::internode(m.eager_threshold)).total_us;
        let big = sim(&Swap::internode(m.eager_threshold + 1)).total_us;
        assert!(big > small);
    }

    #[test]
    fn rendezvous_pays_the_handshake_round_trip() {
        // The RTS/CTS handshake costs at least two extra one-way latencies
        // over a hypothetical eager transfer of the same size.
        let m = crate::models::dane();
        let mut eager_model = m.clone();
        eager_model.eager_threshold = u64::MAX; // force eager at any size
        let s = m.eager_threshold * 2;
        let src = Swap::internode(s);
        let rdv = simulate(&src, &src.grid, &m, &SimOptions::default())
            .unwrap()
            .total_us;
        let eager = simulate(&src, &src.grid, &eager_model, &SimOptions::default())
            .unwrap()
            .total_us;
        let alpha = m.level(Level::InterNode).alpha;
        assert!(
            rdv >= eager + 2.0 * alpha - 1e-9,
            "rdv {rdv} vs eager {eager} + 2*alpha {alpha}"
        );
    }

    #[test]
    fn deterministic_without_jitter() {
        let src = Swap::internode(512);
        let a = sim(&src);
        let b = sim(&src);
        assert_eq!(a.total_us, b.total_us);
        assert_eq!(a.rank_finish, b.rank_finish);
    }

    #[test]
    fn jitter_changes_times_but_same_seed_reproduces() {
        let src = Swap::internode(512);
        let opts1 = SimOptions {
            jitter: 0.05,
            seed: 7,
        };
        let opts2 = SimOptions {
            jitter: 0.05,
            seed: 8,
        };
        let m = crate::models::dane();
        let a = simulate(&src, &src.grid, &m, &opts1).unwrap().total_us;
        let a2 = simulate(&src, &src.grid, &m, &opts1).unwrap().total_us;
        let b = simulate(&src, &src.grid, &m, &opts2).unwrap().total_us;
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }

    #[test]
    fn phase_times_cover_rank_finish() {
        let src = Swap::internode(512);
        let rep = sim(&src);
        let finish = rep.rank_finish.iter().cloned().fold(0.0, f64::max);
        assert!((rep.phase_max_us[0] - finish).abs() < 1e-9);
    }

    /// A deadlocking schedule must be reported, not hang.
    struct DeadSwap;

    impl ScheduleSource for DeadSwap {
        fn nranks(&self) -> usize {
            2
        }
        fn buffers(&self, _r: Rank) -> Vec<Bytes> {
            vec![8, 8]
        }
        fn build_rank(&self, r: Rank) -> RankProgram {
            let mut b = ProgBuilder::new(Phase(0));
            // Recv that nobody sends.
            b.recv(1 - r, Block::new(RBUF, 0, 8), 9);
            b.finish()
        }
        fn phase_names(&self) -> Vec<&'static str> {
            vec!["x"]
        }
    }

    #[test]
    fn deadlock_detected() {
        let grid = ProcGrid::new(Machine::custom("t", 1, 1, 1, 2));
        let err = simulate(
            &DeadSwap,
            &grid,
            &crate::models::dane(),
            &SimOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err, SimError::Deadlock { unfinished: 2 });
    }

    /// Rank 0 sends one message per entry of `sends` to rank 1 on tag 3;
    /// rank 1 posts one receive per entry of `recvs`. Entries are lengths.
    struct OneChannel {
        sends: &'static [Bytes],
        recvs: &'static [Bytes],
    }

    impl ScheduleSource for OneChannel {
        fn nranks(&self) -> usize {
            2
        }
        fn buffers(&self, _r: Rank) -> Vec<Bytes> {
            vec![64, 64]
        }
        fn build_rank(&self, r: Rank) -> RankProgram {
            let mut b = ProgBuilder::new(Phase(0));
            if r == 0 {
                for &len in self.sends {
                    b.send(1, Block::new(SBUF, 0, len), 3);
                }
            } else {
                for &len in self.recvs {
                    b.recv(0, Block::new(RBUF, 0, len), 3);
                }
            }
            b.finish()
        }
        fn phase_names(&self) -> Vec<&'static str> {
            vec!["x"]
        }
    }

    fn sim_channel(
        sends: &'static [Bytes],
        recvs: &'static [Bytes],
    ) -> Result<SimReport, SimError> {
        let grid = ProcGrid::new(Machine::custom("t", 1, 1, 1, 2));
        let src = OneChannel { sends, recvs };
        simulate(&src, &grid, &crate::models::dane(), &SimOptions::default())
    }

    #[test]
    fn a_send_no_receive_matches_is_an_error_naming_its_channel() {
        assert!(sim_channel(&[8], &[8]).is_ok());
        let err = sim_channel(&[8, 8], &[8]).unwrap_err();
        let unmatched = ValidationError::MatchFailure {
            from: 0,
            to: 1,
            tag: 3,
            sends: 2,
            recvs: 1,
        };
        assert_eq!(err, SimError::Unpaired(unmatched));
        assert_eq!(
            err.to_string(),
            "simulation cannot pair a message: channel 0->1 tag 3: 2 send(s) but 1 receive(s)"
        );
    }

    #[test]
    fn a_pair_of_different_lengths_is_an_error_naming_its_channel() {
        assert!(sim_channel(&[8, 16], &[8, 16]).is_ok());
        let err = sim_channel(&[8, 16], &[8, 32]).unwrap_err();
        let mismatch = ValidationError::MatchLengthFailure {
            from: 0,
            to: 1,
            tag: 3,
            index: 1,
            send_len: 16,
            recv_len: 32,
        };
        assert_eq!(err, SimError::Unpaired(mismatch));
    }

    #[test]
    fn a_receive_no_send_matches_leaves_its_rank_deadlocked() {
        let err = sim_channel(&[8], &[8, 8]).unwrap_err();
        assert_eq!(err, SimError::Deadlock { unfinished: 1 });
    }

    #[test]
    fn nic_serializes_node_traffic() {
        // 2 ranks on node 0 each sending to their counterpart on node 1:
        // with a shared NIC the second message arrives later than a single
        // message would.
        struct TwoSenders;
        impl ScheduleSource for TwoSenders {
            fn nranks(&self) -> usize {
                4
            }
            fn buffers(&self, _r: Rank) -> Vec<Bytes> {
                vec![4096, 4096]
            }
            fn build_rank(&self, r: Rank) -> RankProgram {
                let mut b = ProgBuilder::new(Phase(0));
                match r {
                    0 | 1 => b.send(r + 2, Block::new(SBUF, 0, 4096), 0),
                    _ => b.recv(r - 2, Block::new(RBUF, 0, 4096), 0),
                }
                b.finish()
            }
            fn phase_names(&self) -> Vec<&'static str> {
                vec!["x"]
            }
        }
        let grid = ProcGrid::new(Machine::custom("t", 2, 1, 1, 2));
        let m = crate::models::dane();
        let rep = simulate(&TwoSenders, &grid, &m, &SimOptions::default()).unwrap();
        let d = (rep.rank_finish[2] - rep.rank_finish[3]).abs();
        assert!(
            d >= m.nic_occupancy(4096) * 0.9,
            "NIC serialization not visible: delta {d}"
        );
    }

    #[test]
    fn rendezvous_sender_blocks_until_receiver_posts() {
        // Sender posts a big send immediately; receiver dawdles with local
        // copies first. The sender's finish time must track the receiver.
        struct LateRecv {
            s: Bytes,
            delay_copies: usize,
        }
        impl ScheduleSource for LateRecv {
            fn nranks(&self) -> usize {
                2
            }
            fn buffers(&self, _r: Rank) -> Vec<Bytes> {
                vec![self.s, self.s]
            }
            fn build_rank(&self, r: Rank) -> RankProgram {
                let mut b = ProgBuilder::new(Phase(0));
                if r == 0 {
                    b.send(1, Block::new(SBUF, 0, self.s), 0);
                } else {
                    for _ in 0..self.delay_copies {
                        b.copy(Block::new(SBUF, 0, self.s), Block::new(RBUF, 0, self.s));
                    }
                    b.recv(0, Block::new(RBUF, 0, self.s), 0);
                }
                b.finish()
            }
            fn phase_names(&self) -> Vec<&'static str> {
                vec!["x"]
            }
        }
        let grid = ProcGrid::new(Machine::custom("t", 2, 1, 1, 1));
        let m = crate::models::dane();
        let big = m.eager_threshold * 4;
        let fast = simulate(
            &LateRecv {
                s: big,
                delay_copies: 0,
            },
            &grid,
            &m,
            &SimOptions::default(),
        )
        .unwrap();
        let slow = simulate(
            &LateRecv {
                s: big,
                delay_copies: 50,
            },
            &grid,
            &m,
            &SimOptions::default(),
        )
        .unwrap();
        assert!(
            slow.rank_finish[0] > fast.rank_finish[0] + 1.0,
            "sender did not block on rendezvous: {} vs {}",
            slow.rank_finish[0],
            fast.rank_finish[0]
        );
    }

    #[test]
    fn numa_domains_are_parallel_but_upi_serializes() {
        // Two big transfer pairs: staying in their own NUMA domains they
        // proceed in parallel; both crossing sockets they share the node's
        // UPI and serialize.
        struct Pairs {
            cross_socket: bool,
        }
        impl ScheduleSource for Pairs {
            fn nranks(&self) -> usize {
                8 // 2 sockets x 2 NUMA x 2 cores
            }
            fn buffers(&self, _r: Rank) -> Vec<Bytes> {
                vec![1 << 20, 1 << 20]
            }
            fn build_rank(&self, r: Rank) -> RankProgram {
                // Aligned: 0->1 (NUMA 0), 2->3 (NUMA 1).
                // Crossing: 0->4, 2->6 (both socket 0 -> socket 1).
                let mut b = ProgBuilder::new(Phase(0));
                let big = 1u64 << 20;
                let peer_off: Rank = if self.cross_socket { 4 } else { 1 };
                if r == 0 || r == 2 {
                    b.send(r + peer_off, Block::new(SBUF, 0, big), 0);
                } else if r >= peer_off && (r - peer_off == 0 || r - peer_off == 2) {
                    b.recv(r - peer_off, Block::new(RBUF, 0, big), 0);
                }
                b.finish()
            }
            fn phase_names(&self) -> Vec<&'static str> {
                vec!["x"]
            }
        }
        let grid = ProcGrid::new(Machine::custom("t", 1, 2, 2, 2));
        let mut m = crate::models::dane();
        m.eager_threshold_intra = 4 << 20; // keep the transfers eager
        let par = simulate(
            &Pairs {
                cross_socket: false,
            },
            &grid,
            &m,
            &SimOptions::default(),
        )
        .unwrap()
        .total_us;
        let ser = simulate(
            &Pairs { cross_socket: true },
            &grid,
            &m,
            &SimOptions::default(),
        )
        .unwrap()
        .total_us;
        let occupancy = (1u64 << 20) as f64 * m.upi_per_byte;
        assert!(
            ser > par + 0.5 * occupancy,
            "UPI serialization invisible: parallel {par}, crossing {ser}"
        );
    }

    #[test]
    fn empty_perturb_matches_plain_simulate() {
        let src = Swap::internode(1024);
        let m = crate::models::dane();
        let a = simulate(&src, &src.grid, &m, &SimOptions::default()).unwrap();
        let b = simulate_perturbed(
            &src,
            &src.grid,
            &m,
            &SimOptions::default(),
            &Perturb::default(),
        )
        .unwrap();
        assert_eq!(a.total_us, b.total_us);
        assert_eq!(a.rank_finish, b.rank_finish);
    }

    #[test]
    fn straggler_slowdown_stretches_completion() {
        let src = Swap::intranode(4096);
        let m = crate::models::dane();
        let clean = simulate(&src, &src.grid, &m, &SimOptions::default()).unwrap();
        let p = Perturb {
            rank_slowdown: vec![8.0, 1.0],
            link_multiplier: vec![],
        };
        let slow = simulate_perturbed(&src, &src.grid, &m, &SimOptions::default(), &p).unwrap();
        assert!(
            slow.total_us > clean.total_us,
            "straggler invisible: {} vs {}",
            slow.total_us,
            clean.total_us
        );
    }

    #[test]
    fn degraded_link_stretches_internode_traffic_only() {
        let m = crate::models::dane();
        let inter = Swap::internode(65536);
        let clean = simulate(&inter, &inter.grid, &m, &SimOptions::default()).unwrap();
        let p = Perturb {
            rank_slowdown: vec![],
            link_multiplier: vec![(0, 1, 10.0), (1, 0, 10.0)],
        };
        let degraded =
            simulate_perturbed(&inter, &inter.grid, &m, &SimOptions::default(), &p).unwrap();
        assert!(degraded.total_us > clean.total_us * 2.0);

        // Intra-node traffic never touches the degraded link.
        let intra = Swap::intranode(65536);
        let a = simulate(&intra, &intra.grid, &m, &SimOptions::default()).unwrap();
        let b = simulate_perturbed(&intra, &intra.grid, &m, &SimOptions::default(), &p).unwrap();
        assert_eq!(a.total_us, b.total_us);
    }

    #[test]
    fn perturbed_sim_is_deterministic() {
        let src = Swap::internode(2048);
        let m = crate::models::dane();
        let p = Perturb {
            rank_slowdown: vec![3.0, 1.0],
            link_multiplier: vec![(0, 1, 5.0)],
        };
        let a = simulate_perturbed(&src, &src.grid, &m, &SimOptions::default(), &p).unwrap();
        let b = simulate_perturbed(&src, &src.grid, &m, &SimOptions::default(), &p).unwrap();
        assert_eq!(a.total_us, b.total_us);
        assert_eq!(a.rank_finish, b.rank_finish);
    }

    #[test]
    fn traffic_counters_track_levels() {
        let src = Swap::internode(512);
        let rep = sim(&src);
        assert_eq!(rep.msgs_per_level, [0, 0, 0, 2]);
        assert_eq!(rep.bytes_per_level, [0, 0, 0, 1024]);
        let src = Swap::intranode(512);
        let rep = sim(&src);
        assert_eq!(rep.msgs_per_level, [2, 0, 0, 0]);
    }

    #[test]
    fn leader_phase_view_excludes_member_wait() {
        // Rank 0 works; rank 1 waits for it. Rank 1's wait inflates the
        // max view of the handoff phase but not rank 0's leader view.
        struct Lopsided;
        impl ScheduleSource for Lopsided {
            fn nranks(&self) -> usize {
                2
            }
            fn buffers(&self, _r: Rank) -> Vec<Bytes> {
                vec![4096, 4096]
            }
            fn build_rank(&self, r: Rank) -> RankProgram {
                let mut b = ProgBuilder::new(Phase(0));
                if r == 0 {
                    for _ in 0..50 {
                        b.copy(Block::new(SBUF, 0, 4096), Block::new(RBUF, 0, 4096));
                    }
                    b.set_phase(Phase(1));
                    b.send(1, Block::new(SBUF, 0, 64), 0);
                } else {
                    b.set_phase(Phase(1));
                    b.recv(0, Block::new(RBUF, 0, 64), 0);
                }
                b.finish()
            }
            fn phase_names(&self) -> Vec<&'static str> {
                vec!["work", "handoff"]
            }
        }
        let grid = ProcGrid::new(Machine::custom("t", 1, 1, 1, 2));
        let rep = simulate(
            &Lopsided,
            &grid,
            &crate::models::dane(),
            &SimOptions::default(),
        )
        .unwrap();
        assert!(rep.phase("handoff").unwrap() > rep.phase_leader("handoff").unwrap() * 5.0);
        assert!(rep.phase_rank0_us[0] > rep.phase_rank0_us[1] * 10.0);
    }

    #[test]
    fn queue_search_penalizes_deep_queues() {
        // One receiver; many senders with eager messages arriving before
        // any receive posts. The receiver's posting cost grows with the
        // unexpected-queue depth; total must exceed the single-sender case
        // by more than the extra wire time alone.
        struct Fan {
            k: usize,
        }
        impl ScheduleSource for Fan {
            fn nranks(&self) -> usize {
                self.k + 1
            }
            fn buffers(&self, _r: Rank) -> Vec<Bytes> {
                vec![64 * self.k as Bytes, 64 * self.k as Bytes]
            }
            fn build_rank(&self, r: Rank) -> RankProgram {
                let mut b = ProgBuilder::new(Phase(0));
                if r == 0 {
                    // Delay, then post all receives.
                    for _ in 0..20 {
                        b.copy(Block::new(SBUF, 0, 64), Block::new(RBUF, 0, 64));
                    }
                    let first = b.req_mark();
                    for i in 0..self.k {
                        b.irecv(i as Rank + 1, Block::new(RBUF, i as Bytes * 64, 64), 0);
                    }
                    b.waitall(first, self.k as u32);
                } else {
                    b.send(0, Block::new(SBUF, 0, 64), 0);
                }
                b.finish()
            }
            fn phase_names(&self) -> Vec<&'static str> {
                vec!["x"]
            }
        }
        let m = crate::models::dane();
        let g1 = ProcGrid::new(Machine::custom("t", 1, 1, 1, 33));
        let rep = simulate(&Fan { k: 32 }, &g1, &m, &SimOptions::default()).unwrap();
        // Receiver posting cost alone: sum over posts of qs * depth where
        // depth starts at 32.
        let min_queue_cost: f64 = (0..32).map(|i| m.queue_search * (32 - i) as f64).sum();
        assert!(
            rep.rank_finish[0] > min_queue_cost,
            "queue search not charged"
        );
    }
}
