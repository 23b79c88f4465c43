//! The event-driven simulation core.
//!
//! A [`Shard`] holds the whole simulated machine: every rank's state,
//! every node's NIC injection/ejection timelines, and every intra-node
//! bus. Intra-node interactions are executed directly; every
//! **inter-node** interaction is an explicit timestamped link event
//! addressed to the destination node.
//!
//! # Determinism discipline
//!
//! Events are processed in the total order `(time, class, actor, seq)`.
//! Link events (class 0) sort before rank steps (class 1) at equal time;
//! `actor` is the emitting node for link events and the rank for steps;
//! `seq` is a per-node monotonic emission counter. The order is a pure
//! function of the schedule, the model and the seed, so every run of one
//! configuration is byte-identical; `tests/netsim_golden.rs` pins the
//! values themselves.
//!
//! # Data layout
//!
//! The order above is a property of the simulation; how it is stored is
//! chosen for the host. Nothing below changes which event comes next.
//!
//! * **Two queues, one order.** The two classes live in two binary heaps:
//!   [`StepEntry`] `(time, rank)`, 16 bytes, and [`MsgEntry`]
//!   `(time, node, seq, slot)`, 24 bytes, whose payload waits in a slab.
//!   `time` is the `f64`'s bit pattern mapped so that unsigned comparison
//!   equals `f64::total_cmp` ([`time_key`]). The next event is the smaller
//!   of the two tops, the link event on a tie — exactly `(time, class,
//!   actor, seq)`. A rank has at most one step pending, so the step heap
//!   never exceeds the rank count and stays in cache however many messages
//!   are in flight; a sift of the message heap moves 24 bytes per level.
//!   `events` counts one per step executed and one per link event
//!   handled, whichever heap it came from.
//! * **Lowered ops.** A rank's program is lowered once, at build, into
//!   24-byte [`SimOp`]s holding only what the engine reads.
//! * **Placement and perturbation tables.** [`Ctx`] resolves every rank's
//!   node / socket / NUMA domain and every `Perturb` lookup once per
//!   simulation, so the event handlers do no integer division and no list
//!   search.
//! * **Match state.** Each rank keeps one open-addressing table
//!   ([`MatchTable`]) with a 32-byte slot per *queued entry* — posted
//!   receive, unexpected eager message, or waiting rendezvous send — keyed
//!   by `(peer, tag)`. Entries of one channel sit in arrival order along
//!   its probe sequence, so the oldest is the first hit: one probe per
//!   message, no allocation per channel. `posted_len` / `unexpected_len`
//!   remain plain counters; the simulated queue-search cost is charged
//!   from them, never from the table's shape.
//! * **WaitAll.** A parked rank remembers how many requests of its range
//!   are still pending; a completion inside the range decrements that, and
//!   only the last one folds `f64::max` over the range.
//!
//! # Inter-node protocol
//!
//! * **Eager**: the sender reserves its NIC injection slot immediately and
//!   completes locally (the library buffers the payload); an [`Payload::Eager`]
//!   event arrives at the destination after the wire time, reserves the
//!   destination NIC in *arrival order*, and matches or queues as
//!   unexpected.
//! * **Rendezvous**: a full request-to-send / clear-to-send handshake.
//!   [`Payload::Rts`] carries one wire latency to the receiver; the grant
//!   ([`Payload::Cts`]) carries one latency back once the receive is
//!   posted; only then does the payload ([`Payload::Data`]) occupy the
//!   NICs and the wire. Every leg pays at least the inter-node LogGP
//!   `alpha`, scaled by any per-link degradation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use a2a_sched::{Op, RankProgram, TimedOp};
use a2a_topo::{Level, ProcGrid, Rank};

use crate::engine::Perturb;
use crate::model::CostModel;

/// Map a time to a `u64` whose unsigned order is `f64::total_cmp`'s.
#[inline]
fn time_key(t: f64) -> u64 {
    let b = t.to_bits();
    b ^ ((((b as i64) >> 63) as u64) | (1 << 63))
}

/// Inverse of [`time_key`].
#[inline]
fn key_time(k: u64) -> f64 {
    f64::from_bits(if k >> 63 == 1 { k ^ (1 << 63) } else { !k })
}

/// "Rank `rank` is runnable at `time`: execute its next op."
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct StepEntry {
    time: u64,
    rank: Rank,
}

/// A link event waiting in the message heap; its payload is
/// `payloads[slot]`. `(node, seq)` is unique, so `slot` never decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct MsgEntry {
    time: u64,
    /// Emitting node.
    node: u32,
    /// Emitting node's monotonic emission counter.
    seq: u64,
    slot: u32,
}

const _: () = assert!(std::mem::size_of::<StepEntry>() == 16);
const _: () = assert!(std::mem::size_of::<MsgEntry>() == 24);

/// What a link event carries.
#[derive(Debug, Clone, Copy)]
enum Payload {
    /// Eager payload has finished its wire flight; eject at `to`'s NIC.
    Eager {
        from: Rank,
        to: Rank,
        tag: u32,
        len: u64,
    },
    /// Rendezvous request-to-send control message reaching the receiver.
    Rts {
        from: Rank,
        to: Rank,
        tag: u32,
        len: u64,
        send_req: u32,
    },
    /// Clear-to-send grant reaching the sender (`to` is the sender).
    Cts {
        from: Rank,
        to: Rank,
        len: u64,
        send_req: u32,
        recv_req: u32,
    },
    /// Rendezvous payload has finished its wire flight; eject at `to`.
    Data {
        from: Rank,
        to: Rank,
        len: u64,
        recv_req: u32,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Copy,
    Isend,
    Irecv,
    WaitAll,
}

/// One op of a rank's program, reduced to what the engine reads.
#[derive(Debug, Clone, Copy)]
struct SimOp {
    /// Message or copy length; the request count of a `WaitAll`.
    len: u64,
    /// Destination of an `Isend`, source of an `Irecv`.
    peer: Rank,
    tag: u32,
    /// The op's request; the first request of a `WaitAll`.
    req: u32,
    kind: OpKind,
    phase: u8,
}

const _: () = assert!(std::mem::size_of::<SimOp>() == 24);

impl SimOp {
    fn lower(t: &TimedOp) -> SimOp {
        let (kind, peer, tag, req, len) = match t.op {
            Op::Copy { src, .. } => (OpKind::Copy, 0, 0, 0, src.len),
            Op::Isend {
                to,
                block,
                tag,
                req,
            } => (OpKind::Isend, to, tag, req, block.len),
            Op::Irecv {
                from,
                block,
                tag,
                req,
            } => (OpKind::Irecv, from, tag, req, block.len),
            Op::WaitAll { first_req, count } => (OpKind::WaitAll, 0, 0, first_req, count as u64),
        };
        SimOp {
            len,
            peer,
            tag,
            req,
            kind,
            phase: t.phase.0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Queued {
    Empty,
    /// A posted receive: `time` is its post time, `req` its request.
    Posted,
    /// An eager message that arrived before its receive: `time` is the
    /// arrival.
    Unexpected,
    /// A rendezvous send waiting for its receive. Intra-node: `time` is
    /// the sender's readiness time. Inter-node: the RTS arrival time
    /// (always at or before the receive posts — the RTS event sorted
    /// before the receiver's step). `req` is the send request.
    Rdv,
}

/// One queued entry of a rank's match state.
#[derive(Debug, Clone, Copy)]
struct Slot {
    peer: Rank,
    tag: u32,
    len: u64,
    time: f64,
    req: u32,
    kind: Queued,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 32);

const EMPTY_SLOT: Slot = Slot {
    peer: 0,
    tag: 0,
    len: 0,
    time: 0.0,
    req: 0,
    kind: Queued::Empty,
};

/// A rank's posted / unexpected / rendezvous queues in one linear-probing
/// table with a slot per queued entry. Entries on one `(peer, tag)`
/// channel share a home slot and are inserted at the first free slot after
/// it, so they lie along the probe sequence oldest first; removal closes
/// the gap by shifting later entries back one at a time, which keeps that
/// order. At most half the slots are occupied.
#[derive(Default)]
struct MatchTable {
    /// Power-of-two length, or empty until the first entry is queued.
    slots: Vec<Slot>,
    live: usize,
}

impl MatchTable {
    #[inline]
    fn home(&self, peer: Rank, tag: u32) -> usize {
        // Fibonacci hashing: the top bits of the product are the index.
        let k = ((tag as u64) << 32 | peer as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (k >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// Remove and return the oldest entry on `(peer, tag)` of kind `first`;
    /// if there is none, the oldest of kind `second`.
    fn take(&mut self, peer: Rank, tag: u32, first: Queued, second: Queued) -> Option<Slot> {
        if self.live == 0 {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(peer, tag);
        let mut fallback = None;
        loop {
            let s = self.slots[i];
            if s.kind == Queued::Empty {
                return fallback.map(|at| self.remove(at));
            }
            if s.peer == peer && s.tag == tag {
                if s.kind == first {
                    return Some(self.remove(i));
                }
                if s.kind == second && fallback.is_none() {
                    fallback = Some(i);
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Queue `slot` behind every entry already on its channel.
    fn push(&mut self, slot: Slot) {
        if (self.live + 1) * 2 > self.slots.len() {
            self.grow();
        }
        self.insert(slot);
        self.live += 1;
    }

    fn insert(&mut self, slot: Slot) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(slot.peer, slot.tag);
        while self.slots[i].kind != Queued::Empty {
            i = (i + 1) & mask;
        }
        self.slots[i] = slot;
    }

    /// Take the entry at `hole` out and close the gap: each later entry of
    /// the cluster moves back into the hole unless that would put it
    /// before its home slot.
    fn remove(&mut self, mut hole: usize) -> Slot {
        let taken = self.slots[hole];
        let mask = self.slots.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let s = self.slots[j];
            if s.kind == Queued::Empty {
                break;
            }
            let home = self.home(s.peer, s.tag);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = s;
                hole = j;
            }
        }
        self.slots[hole].kind = Queued::Empty;
        self.live -= 1;
        taken
    }

    /// Double the table. Re-insertion walks the old table cyclically from
    /// a free slot, so every cluster — including one that wraps past the
    /// end — is visited in probe order and channels keep their order.
    fn grow(&mut self) {
        let new_len = (self.slots.len() * 2).max(8);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY_SLOT; new_len]);
        let Some(start) = old.iter().position(|s| s.kind == Queued::Empty) else {
            return;
        };
        for k in 1..old.len() {
            let s = old[(start + k) & (old.len() - 1)];
            if s.kind != Queued::Empty {
                self.insert(s);
            }
        }
    }
}

const PENDING: f64 = f64::NAN;

pub(crate) struct RankSim {
    ops: Vec<SimOp>,
    pc: usize,
    pub clock: f64,
    req_time: Vec<f64>,
    /// Parked `WaitAll`: its request range, and how many of those requests
    /// are still pending. Zero pending means the rank is not parked.
    park_first: u32,
    park_count: u32,
    park_pending: u32,
    matching: MatchTable,
    posted_len: usize,
    unexpected_len: usize,
    pub phase_time: Vec<f64>,
    rng: u64,
}

impl RankSim {
    fn new(prog: &RankProgram, nphases: usize, rank: Rank, seed: u64) -> Self {
        RankSim {
            ops: prog.ops.iter().map(SimOp::lower).collect(),
            pc: 0,
            clock: 0.0,
            req_time: vec![PENDING; prog.n_reqs as usize],
            park_first: 0,
            park_count: 0,
            park_pending: 0,
            matching: MatchTable::default(),
            posted_len: 0,
            unexpected_len: 0,
            phase_time: vec![0.0; nphases],
            rng: seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((rank as u64 + 1).wrapping_mul(0xD134_2543_DE82_EF95))
                | 1,
        }
    }

    pub fn done(&self) -> bool {
        self.pc >= self.ops.len() && self.park_pending == 0
    }

    /// Queue `slot` in the match state, counting it in the depth the
    /// simulated queue search is charged from.
    fn enqueue(&mut self, slot: Slot) {
        match slot.kind {
            Queued::Posted => self.posted_len += 1,
            Queued::Unexpected => self.unexpected_len += 1,
            Queued::Rdv | Queued::Empty => {}
        }
        self.matching.push(slot);
    }

    /// The oldest receive posted on `(peer, tag)`, if any.
    fn take_posted(&mut self, peer: Rank, tag: u32) -> Option<Slot> {
        let posted = self
            .matching
            .take(peer, tag, Queued::Posted, Queued::Posted)?;
        self.posted_len -= 1;
        Some(posted)
    }

    /// What a receive on `(peer, tag)` matches: the oldest unexpected
    /// eager message, else the oldest waiting rendezvous send.
    fn take_message(&mut self, peer: Rank, tag: u32) -> Option<Slot> {
        let msg = self
            .matching
            .take(peer, tag, Queued::Unexpected, Queued::Rdv)?;
        if msg.kind == Queued::Unexpected {
            self.unexpected_len -= 1;
        }
        Some(msg)
    }

    /// `f64::max` folded over the request range from the rank's clock, and
    /// the number of requests in it that are still pending (`max` skips
    /// their NaN).
    fn wait_range(&self, first: u32, count: u32) -> (f64, u32) {
        let range = &self.req_time[first as usize..(first + count) as usize];
        range.iter().fold((self.clock, 0), |(latest, pending), &t| {
            (latest.max(t), pending + t.is_nan() as u32)
        })
    }
}

/// Per-node shared resources. The node's NUMA and socket buses live in the
/// flat `numa_bus` / `socket_bus`.
struct NodeRes {
    nic_tx: f64,
    nic_rx: f64,
    /// Busy-until for this node's cross-socket (UPI) link.
    upi_bus: f64,
    /// Monotonic counter stamped on every link event this node emits.
    emit_seq: u64,
}

/// Where a rank sits, as indices that are unique machine-wide: comparing
/// two ranks' fields gives their locality level, and `socket` / `domain`
/// index the bus arrays.
#[derive(Debug, Clone, Copy)]
struct Place {
    node: u32,
    socket: u32,
    domain: u32,
}

/// Read-only simulation context: the cost model plus the machine shape and
/// perturbations resolved into tables.
pub(crate) struct Ctx<'a> {
    pub model: &'a CostModel,
    pub jitter: f64,
    pub nphases: usize,
    nodes: usize,
    sockets_per_node: usize,
    domains_per_node: usize,
    place: Vec<Place>,
    /// CPU slowdown per rank (1.0 where `Perturb` names none).
    slowdown: Vec<f64>,
    /// `nodes x nodes` link multipliers, row = source node; empty when no
    /// link is perturbed.
    link: Vec<f64>,
}

impl<'a> Ctx<'a> {
    pub fn new(
        grid: &ProcGrid,
        model: &'a CostModel,
        perturb: &Perturb,
        jitter: f64,
        nphases: usize,
    ) -> Self {
        let m = grid.machine();
        let world = grid.world_size();
        // Ranks, nodes, sockets and domains are all at most `world`.
        assert!(
            u32::try_from(world).is_ok(),
            "world size {world} exceeds the rank type"
        );
        let sockets_per_node = m.sockets_per_node;
        let domains_per_node = m.sockets_per_node * m.numa_per_socket;
        let place = (0..world)
            .map(|r| {
                let loc = grid.location(r as Rank);
                let socket = loc.node * sockets_per_node + loc.socket;
                Place {
                    node: loc.node as u32,
                    socket: socket as u32,
                    domain: (socket * m.numa_per_socket + loc.numa) as u32,
                }
            })
            .collect();
        let slowdown = (0..world).map(|r| perturb.slowdown(r as Rank)).collect();
        let mut link = Vec::new();
        if !perturb.link_multiplier.is_empty() {
            link = vec![1.0; m.nodes * m.nodes];
            // `Perturb::link` answers with the first entry naming a link.
            for &(from, to, mult) in perturb.link_multiplier.iter().rev() {
                if from < m.nodes && to < m.nodes {
                    link[from * m.nodes + to] = mult;
                }
            }
        }
        Ctx {
            model,
            jitter,
            nphases,
            nodes: m.nodes,
            sockets_per_node,
            domains_per_node,
            place,
            slowdown,
            link,
        }
    }

    #[inline]
    fn node_of(&self, rank: Rank) -> usize {
        self.place[rank as usize].node as usize
    }

    /// Locality level between two ranks (`ProcGrid::level`, from the table).
    #[inline]
    fn level(&self, a: Rank, b: Rank) -> Level {
        let (pa, pb) = (self.place[a as usize], self.place[b as usize]);
        if pa.node != pb.node {
            Level::InterNode
        } else if pa.socket != pb.socket {
            Level::InterSocket
        } else if pa.domain != pb.domain {
            Level::IntraSocket
        } else if a != b {
            Level::IntraNuma
        } else {
            Level::SelfRank
        }
    }

    /// Cost multiplier of the directed link `from -> to` (`Perturb::link`).
    #[inline]
    fn link(&self, from: usize, to: usize) -> f64 {
        if self.link.is_empty() {
            1.0
        } else {
            self.link[from * self.nodes + to]
        }
    }
}

/// The simulated machine: every rank, every node, and the event queues.
pub(crate) struct Shard<'a> {
    ctx: &'a Ctx<'a>,
    pub ranks: Vec<RankSim>,
    nodes: Vec<NodeRes>,
    /// Busy-until per NUMA domain / per socket.
    numa_bus: Vec<f64>,
    socket_bus: Vec<f64>,
    steps: BinaryHeap<Reverse<StepEntry>>,
    msgs: BinaryHeap<Reverse<MsgEntry>>,
    /// Payloads of the link events in `msgs`, and the free slots among them.
    payloads: Vec<Payload>,
    free_payloads: Vec<u32>,
    pub msgs_per_level: [usize; 4],
    pub bytes_per_level: [u64; 4],
    /// Events processed.
    pub events: u64,
}

impl<'a> Shard<'a> {
    /// Build the machine, lowering every rank's program and seeding its
    /// step event at t=0.
    pub fn build(ctx: &'a Ctx<'a>, source: &dyn a2a_sched::ScheduleSource, seed: u64) -> Self {
        // One rank at a time: the 64-byte source ops of a rank are gone
        // before the next rank's are built.
        let ranks: Vec<RankSim> = (0..ctx.place.len())
            .map(|r| {
                let prog = source.rank_program(r as Rank);
                RankSim::new(&prog, ctx.nphases, r as Rank, seed)
            })
            .collect();
        let mut shard = Shard {
            ctx,
            nodes: (0..ctx.nodes)
                .map(|_| NodeRes {
                    nic_tx: 0.0,
                    nic_rx: 0.0,
                    upi_bus: 0.0,
                    emit_seq: 0,
                })
                .collect(),
            numa_bus: vec![0.0; ctx.nodes * ctx.domains_per_node],
            socket_bus: vec![0.0; ctx.nodes * ctx.sockets_per_node],
            steps: BinaryHeap::with_capacity(ranks.len()),
            msgs: BinaryHeap::new(),
            payloads: Vec::new(),
            free_payloads: Vec::new(),
            ranks,
            msgs_per_level: [0; 4],
            bytes_per_level: [0; 4],
            events: 0,
        };
        for i in 0..shard.ranks.len() {
            if !shard.ranks[i].ops.is_empty() {
                shard.push_step(i as Rank, 0.0);
            }
        }
        shard
    }

    fn push_step(&mut self, rank: Rank, time: f64) {
        self.steps.push(Reverse(StepEntry {
            time: time_key(time),
            rank,
        }));
    }

    /// Emit a link event from `from_node` at `time`.
    fn emit_msg(&mut self, from_node: usize, time: f64, payload: Payload) {
        let nr = &mut self.nodes[from_node];
        let seq = nr.emit_seq;
        nr.emit_seq += 1;
        let slot = match self.free_payloads.pop() {
            Some(slot) => {
                self.payloads[slot as usize] = payload;
                slot
            }
            None => {
                self.payloads.push(payload);
                (self.payloads.len() - 1) as u32
            }
        };
        self.msgs.push(Reverse(MsgEntry {
            time: time_key(time),
            node: from_node as u32,
            seq,
            slot,
        }));
    }

    /// Process every queued event in key order until the queues drain.
    /// Returns the number of events processed.
    pub fn run_until(&mut self) -> u64 {
        let before = self.events;
        loop {
            let msg = self.msgs.peek().map(|r| r.0);
            let step = self.steps.peek().map(|r| r.0);
            match (msg, step) {
                // Equal times: the link event's class sorts first.
                (Some(m), s) if s.is_none_or(|s| m.time <= s.time) => {
                    self.msgs.pop();
                    let payload = self.payloads[m.slot as usize];
                    self.free_payloads.push(m.slot);
                    self.events += 1;
                    self.handle_msg(key_time(m.time), payload);
                }
                (_, Some(s)) => {
                    self.steps.pop();
                    self.events += 1;
                    self.step(s.rank);
                }
                (_, None) => break,
            }
        }
        self.events - before
    }

    /// Deterministic per-rank noise factor in `[1-j, 1+j]` (xorshift64*),
    /// scaled by the rank's perturbation slowdown (straggler model).
    fn noise(&mut self, rank: Rank) -> f64 {
        let slow = self.ctx.slowdown[rank as usize];
        if self.ctx.jitter == 0.0 {
            return slow;
        }
        let st = &mut self.ranks[rank as usize];
        let mut x = st.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        st.rng = x;
        let u = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
        (1.0 + self.ctx.jitter * (2.0 * u - 1.0)) * slow
    }

    /// Reserve the intra-node path `from -> to` (at locality `level`) for a
    /// transfer and return its arrival time. Charges the tightest shared
    /// resource the transfer crosses — its NUMA domain, its socket, or the
    /// node's cross-socket link.
    fn transport_intra(&mut self, from: Rank, level: Level, bytes: u64, t0: f64) -> f64 {
        let li = match level {
            Level::IntraNuma => 0,
            Level::IntraSocket => 1,
            Level::InterSocket => 2,
            _ => 3,
        };
        self.msgs_per_level[li] += 1;
        self.bytes_per_level[li] += bytes;
        let ctx = self.ctx;
        let lc = ctx.model.level(level);
        let at = ctx.place[from as usize];
        let (bus, rate) = match level {
            Level::IntraNuma => (
                &mut self.numa_bus[at.domain as usize],
                ctx.model.mem_per_byte,
            ),
            Level::IntraSocket => (
                &mut self.socket_bus[at.socket as usize],
                ctx.model.mem_per_byte,
            ),
            _ => (
                &mut self.nodes[at.node as usize].upi_bus,
                ctx.model.upi_per_byte,
            ),
        };
        let bus_start = t0.max(*bus);
        *bus = bus_start + bytes as f64 * rate;
        bus_start + lc.wire(bytes)
    }

    /// Record request `req` of `rank` completing at `time`; wake the rank
    /// if that was the last pending request of its parked wait.
    fn complete_req(&mut self, rank: Rank, req: u32, time: f64) {
        let st = &mut self.ranks[rank as usize];
        debug_assert!(
            st.req_time[req as usize].is_nan(),
            "request completed twice"
        );
        st.req_time[req as usize] = time;
        // Not parked, or a request the parked wait does not cover.
        if st.park_pending == 0 || req.wrapping_sub(st.park_first) >= st.park_count {
            return;
        }
        st.park_pending -= 1;
        if st.park_pending > 0 {
            return;
        }
        // Consume the WaitAll; idle time accrues to its phase.
        let (latest, _) = st.wait_range(st.park_first, st.park_count);
        let phase = st.ops[st.pc].phase as usize;
        st.phase_time[phase] += latest - st.clock;
        st.clock = latest;
        st.pc += 1;
        if st.pc < st.ops.len() {
            self.push_step(rank, latest);
        }
    }

    /// Deliver an (eager) message arriving at `to`: match a posted receive
    /// or enqueue as unexpected.
    fn deliver(&mut self, from: Rank, to: Rank, tag: u32, len: u64, arrival: f64) {
        let st = &mut self.ranks[to as usize];
        match st.take_posted(from, tag) {
            Some(pr) => {
                debug_assert_eq!(pr.len, len, "message/receive length mismatch");
                let cost =
                    self.ctx.model.match_base + self.ctx.model.queue_search * st.posted_len as f64;
                self.complete_req(to, pr.req, arrival.max(pr.time) + cost);
            }
            None => st.enqueue(Slot {
                peer: from,
                tag,
                len,
                time: arrival,
                req: 0,
                kind: Queued::Unexpected,
            }),
        }
    }

    /// Eject a payload of `len` bytes from `from`'s node at `to`'s NIC, in
    /// arrival order; returns when the NIC is done with it.
    fn eject(&mut self, from: Rank, to: Rank, len: u64, arrival: f64) -> f64 {
        let sn = self.ctx.node_of(from);
        let dn = self.ctx.node_of(to);
        let occ = self.ctx.model.nic_occupancy(len) * self.ctx.link(sn, dn);
        let nr = &mut self.nodes[dn];
        let rx_end = arrival.max(nr.nic_rx) + occ;
        nr.nic_rx = rx_end;
        rx_end
    }

    /// Inject a payload of `len` bytes into the link `sn -> dn` once the
    /// sender's NIC is free at or after `ready`; returns when it has left
    /// the NIC and when it reaches the far end of the wire.
    fn inject(&mut self, sn: usize, dn: usize, len: u64, ready: f64) -> (f64, f64) {
        let lm = self.ctx.link(sn, dn);
        let occ = self.ctx.model.nic_occupancy(len) * lm;
        let nr = &mut self.nodes[sn];
        let tx_end = ready.max(nr.nic_tx) + occ;
        nr.nic_tx = tx_end;
        self.msgs_per_level[3] += 1;
        self.bytes_per_level[3] += len;
        let wire = self.ctx.model.level(Level::InterNode).wire(len);
        (tx_end, tx_end + wire * lm)
    }

    /// Process one link event arriving at `time`.
    fn handle_msg(&mut self, time: f64, payload: Payload) {
        match payload {
            Payload::Eager { from, to, tag, len } => {
                // Payload reached the destination NIC: eject in arrival
                // order, then match.
                let rx_end = self.eject(from, to, len, time);
                self.deliver(from, to, tag, len, rx_end);
            }
            Payload::Rts {
                from,
                to,
                tag,
                len,
                send_req,
            } => {
                // Request-to-send at the receiver: grant immediately if the
                // receive is already posted, otherwise wait for it.
                let st = &mut self.ranks[to as usize];
                match st.take_posted(from, tag) {
                    Some(pr) => self.send_cts(to, from, len, send_req, pr.req, time),
                    None => st.enqueue(Slot {
                        peer: from,
                        tag,
                        len,
                        time,
                        req: send_req,
                        kind: Queued::Rdv,
                    }),
                }
            }
            Payload::Cts {
                from,
                to,
                len,
                send_req,
                recv_req,
            } => {
                // Grant back at the sender: inject the payload. The send
                // request completes when the payload has left the NIC.
                let sn = self.ctx.node_of(to);
                let dn = self.ctx.node_of(from);
                let (tx_end, wire_arrive) = self.inject(sn, dn, len, time);
                self.complete_req(to, send_req, tx_end);
                self.emit_msg(
                    sn,
                    wire_arrive,
                    Payload::Data {
                        from: to,
                        to: from,
                        len,
                        recv_req,
                    },
                );
            }
            Payload::Data {
                from,
                to,
                len,
                recv_req,
            } => {
                let rx_end = self.eject(from, to, len, time);
                self.complete_req(to, recv_req, rx_end + self.ctx.model.match_base);
            }
        }
    }

    /// Emit the clear-to-send grant from receiver `recv` back to sender
    /// `send`, one reverse-link latency after `t`.
    fn send_cts(&mut self, recv: Rank, send: Rank, len: u64, send_req: u32, recv_req: u32, t: f64) {
        let dn = self.ctx.node_of(recv);
        let sn = self.ctx.node_of(send);
        let alpha = self.ctx.model.level(Level::InterNode).alpha;
        let arrive = t + alpha * self.ctx.link(dn, sn);
        self.emit_msg(
            dn,
            arrive,
            Payload::Cts {
                from: recv,
                to: send,
                len,
                send_req,
                recv_req,
            },
        );
    }

    /// Inter-node send: eager injects now; rendezvous opens the handshake.
    fn isend_internode(&mut self, rank: Rank, to: Rank, tag: u32, len: u64, req: u32, ready: f64) {
        let sn = self.ctx.node_of(rank);
        let dn = self.ctx.node_of(to);
        if self.ctx.model.is_rendezvous(len, Level::InterNode) {
            let alpha = self.ctx.model.level(Level::InterNode).alpha;
            let arrive = ready + alpha * self.ctx.link(sn, dn);
            self.emit_msg(
                sn,
                arrive,
                Payload::Rts {
                    from: rank,
                    to,
                    tag,
                    len,
                    send_req: req,
                },
            );
        } else {
            // Eager: the library buffers the payload, so the send request
            // completes at posting time; injection still serializes on the
            // sender's NIC.
            let (_, wire_arrive) = self.inject(sn, dn, len, ready);
            self.complete_req(rank, req, ready);
            self.emit_msg(
                sn,
                wire_arrive,
                Payload::Eager {
                    from: rank,
                    to,
                    tag,
                    len,
                },
            );
        }
    }

    /// Advance `rank` by one op, then reschedule it if still runnable.
    fn step(&mut self, rank: Rank) {
        let ridx = rank as usize;
        let (op, old_clock) = {
            let st = &self.ranks[ridx];
            (st.ops[st.pc], st.clock)
        };
        let model = self.ctx.model;
        match op.kind {
            OpKind::Copy => {
                let jf = self.noise(rank);
                let st = &mut self.ranks[ridx];
                st.clock += model.copy_cost(op.len) * jf;
                st.pc += 1;
            }
            OpKind::Isend => {
                let (to, tag, len, req) = (op.peer, op.tag, op.len, op.req);
                let jf = self.noise(rank);
                let st = &mut self.ranks[ridx];
                st.clock += model.o_send * jf;
                st.pc += 1;
                let ready = st.clock;
                let level = self.ctx.level(rank, to);
                if level == Level::InterNode {
                    self.isend_internode(rank, to, tag, len, req, ready);
                } else if model.is_rendezvous(len, level) {
                    // Intra-node rendezvous: the receiver lives on the same
                    // node, so peek its posted queue directly.
                    let peer = &mut self.ranks[to as usize];
                    match peer.take_posted(rank, tag) {
                        Some(pr) => {
                            let t0 = ready.max(pr.time + model.level(level).alpha);
                            let arrival = self.transport_intra(rank, level, len, t0);
                            self.complete_req(rank, req, arrival);
                            self.complete_req(to, pr.req, arrival + model.match_base);
                        }
                        None => peer.enqueue(Slot {
                            peer: rank,
                            tag,
                            len,
                            time: ready,
                            req,
                            kind: Queued::Rdv,
                        }),
                    }
                } else {
                    // Intra-node eager: payload crosses the bus now.
                    let arrival = self.transport_intra(rank, level, len, ready);
                    self.complete_req(rank, req, ready);
                    self.deliver(rank, to, tag, len, arrival);
                }
            }
            OpKind::Irecv => {
                let (from, tag, len, req) = (op.peer, op.tag, op.len, op.req);
                let jf = self.noise(rank);
                let st = &mut self.ranks[ridx];
                st.clock += (model.o_recv + model.queue_search * st.unexpected_len as f64) * jf;
                st.pc += 1;
                let post_time = st.clock;
                // An unexpected eager message first, then a waiting
                // rendezvous send; otherwise the receive is posted.
                match st.take_message(from, tag) {
                    Some(msg) if msg.kind == Queued::Unexpected => {
                        debug_assert_eq!(msg.len, len);
                        let done = post_time.max(msg.time) + model.match_base;
                        self.complete_req(rank, req, done);
                    }
                    Some(rs) => {
                        debug_assert_eq!(rs.len, len);
                        let level = self.ctx.level(from, rank);
                        if level == Level::InterNode {
                            // The RTS is waiting: grant it now.
                            self.send_cts(rank, from, len, rs.req, req, post_time);
                        } else {
                            let t0 = rs.time.max(post_time + model.level(level).alpha);
                            let arrival = self.transport_intra(from, level, len, t0);
                            self.complete_req(from, rs.req, arrival);
                            self.complete_req(rank, req, arrival + model.match_base);
                        }
                    }
                    None => st.enqueue(Slot {
                        peer: from,
                        tag,
                        len,
                        time: post_time,
                        req,
                        kind: Queued::Posted,
                    }),
                }
            }
            OpKind::WaitAll => {
                let (first, count) = (op.req, op.len as u32);
                let st = &mut self.ranks[ridx];
                let (latest, pending) = st.wait_range(first, count);
                if pending == 0 {
                    st.clock = latest;
                    st.pc += 1;
                } else {
                    st.park_first = first;
                    st.park_count = count;
                    st.park_pending = pending;
                }
            }
        }
        // Attribute elapsed time to the op's phase and reschedule.
        let st = &mut self.ranks[ridx];
        st.phase_time[op.phase as usize] += st.clock - old_clock;
        if st.park_pending == 0 && st.pc < st.ops.len() {
            let clock = st.clock;
            self.push_step(rank, clock);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_sched::{Block, Bytes, Phase, ProgBuilder, ScheduleSource, RBUF, SBUF};
    use a2a_topo::Machine;

    /// Hand-written rank programs.
    struct Progs(Vec<RankProgram>);

    impl ScheduleSource for Progs {
        fn nranks(&self) -> usize {
            self.0.len()
        }
        fn buffers(&self, _r: Rank) -> Vec<Bytes> {
            vec![1 << 20, 1 << 20]
        }
        fn build_rank(&self, r: Rank) -> RankProgram {
            self.0[r as usize].clone()
        }
        fn phase_names(&self) -> Vec<&'static str> {
            vec!["x"]
        }
    }

    impl Shard<'_> {
        /// Events waiting in the queues.
        fn queued(&self) -> usize {
            self.steps.len() + self.msgs.len()
        }

        /// Time of the earliest queued event (infinite when there is none).
        fn next_time(&self) -> f64 {
            let step = self.steps.peek().map(|Reverse(s)| s.time);
            let msg = self.msgs.peek().map(|Reverse(m)| m.time);
            step.into_iter()
                .chain(msg)
                .min()
                .map_or(f64::INFINITY, key_time)
        }
    }

    fn program(build: impl FnOnce(&mut ProgBuilder)) -> RankProgram {
        let mut b = ProgBuilder::new(Phase(0));
        build(&mut b);
        b.finish()
    }

    /// Run `check` on a simulation of `progs`, one rank per core of `nodes`
    /// single-NUMA nodes, after draining its event queues.
    fn drained(nodes: usize, progs: Vec<RankProgram>, check: impl FnOnce(&mut Shard)) {
        let grid = ProcGrid::new(Machine::custom("t", nodes, 1, 1, progs.len() / nodes));
        let model = crate::models::dane();
        let ctx = Ctx::new(&grid, &model, &Perturb::default(), 0.0, 1);
        let mut shard = Shard::build(&ctx, &Progs(progs), 0);
        shard.run_until();
        check(&mut shard);
    }

    fn rbuf(len: Bytes) -> Block {
        Block::new(RBUF, 0, len)
    }

    fn sbuf(len: Bytes) -> Block {
        Block::new(SBUF, 0, len)
    }

    /// `n` receives from rank 1 on tags `0..n` that nothing ever sends, so
    /// the test completes them by hand.
    fn post_recvs(b: &mut ProgBuilder, n: u32) {
        for tag in 0..n {
            b.irecv(1, rbuf(8), tag);
        }
    }

    #[test]
    fn a_request_outside_the_parked_range_neither_wakes_nor_counts() {
        let waiter = program(|b| {
            post_recvs(b, 3);
            b.waitall(1, 2);
        });
        drained(1, vec![waiter, RankProgram::default()], |shard| {
            assert_eq!(shard.ranks[0].park_pending, 2);
            shard.complete_req(0, 0, 5.0);
            assert_eq!(shard.ranks[0].park_pending, 2, "request 0 is not waited on");
            shard.complete_req(0, 2, 9.0);
            // Two completions so far, but only one of them inside 1..3.
            assert_eq!(shard.ranks[0].park_pending, 1);
            assert!(!shard.ranks[0].done());
            shard.complete_req(0, 1, 7.0);
            assert!(shard.ranks[0].done());
            assert_eq!(shard.ranks[0].clock, 9.0);
            assert_eq!(shard.ranks[0].phase_time[0], 9.0);
        });
    }

    #[test]
    fn a_wait_counts_only_the_requests_still_pending_when_it_parks() {
        let waiter = program(|b| {
            // Intra-node eager: the send request completes as it is posted.
            let first = b.isend(1, sbuf(8), 0);
            b.irecv(1, rbuf(8), 0);
            b.waitall(first, 2);
        });
        drained(1, vec![waiter, RankProgram::default()], |shard| {
            assert_eq!(shard.ranks[0].park_pending, 1);
            shard.complete_req(0, 1, 42.0);
            assert!(shard.ranks[0].done());
            assert_eq!(shard.ranks[0].clock, 42.0);
        });
    }

    #[test]
    fn completions_in_reverse_order_wake_once_at_the_latest_time() {
        let waiter = program(|b| {
            post_recvs(b, 4);
            b.waitall(0, 4);
            b.copy(sbuf(8), rbuf(8));
        });
        drained(1, vec![waiter, RankProgram::default()], |shard| {
            for (req, time) in [(3, 4.0), (2, 8.0), (1, 6.0)] {
                shard.complete_req(0, req, time);
                assert_eq!(shard.queued(), 0, "woke with request 0 still pending");
            }
            shard.complete_req(0, 0, 2.0);
            assert_eq!(shard.queued(), 1);
            // The latest completion, not the last one to arrive.
            assert_eq!(shard.ranks[0].clock, 8.0);
            assert_eq!(shard.run_until(), 1);
            assert!(shard.ranks[0].done());
        });
    }

    #[test]
    fn a_rank_without_ops_is_done_and_schedules_nothing() {
        drained(1, vec![RankProgram::default(); 2], |shard| {
            assert_eq!(shard.events, 0);
            assert_eq!(shard.queued(), 0);
            assert_eq!(shard.next_time(), f64::INFINITY);
            assert!(shard.ranks.iter().all(|r| r.done() && r.clock == 0.0));
        });
    }

    /// Rank 0 sends two messages on one `(peer, tag)` channel; rank 1
    /// spends `delay` copies before posting the two receives.
    fn two_on_one_channel(lens: [Bytes; 2], delay: usize) -> Vec<RankProgram> {
        let sender = program(|b| {
            let first = b.isend(1, sbuf(lens[0]), 7);
            b.isend(1, sbuf(lens[1]), 7);
            b.waitall(first, 2);
        });
        let receiver = program(|b| {
            for _ in 0..delay {
                b.copy(sbuf(4096), rbuf(4096));
            }
            let first = b.irecv(0, rbuf(lens[0]), 7);
            b.irecv(0, rbuf(lens[1]), 7);
            b.waitall(first, 2);
        });
        vec![sender, receiver]
    }

    #[test]
    fn posted_receives_on_one_channel_match_arrivals_oldest_first() {
        drained(2, two_on_one_channel([64, 64], 0), |shard| {
            let recv = &shard.ranks[1].req_time;
            assert!(recv[0] < recv[1], "second receive matched first: {recv:?}");
        });
    }

    #[test]
    fn unexpected_messages_on_one_channel_match_receives_oldest_first() {
        // Both messages wait unexpected; taking the newer one first would
        // hand 128 bytes to the 64-byte receive (a debug assertion).
        drained(2, two_on_one_channel([64, 128], 100), |shard| {
            assert_eq!(shard.ranks[1].unexpected_len, 0);
            assert!(shard.ranks.iter().all(RankSim::done));
        });
    }

    #[test]
    fn waiting_rendezvous_sends_on_one_channel_are_granted_oldest_first() {
        let big = crate::models::dane().eager_threshold * 2;
        drained(2, two_on_one_channel([big, big], 100), |shard| {
            let (send, recv) = (&shard.ranks[0].req_time, &shard.ranks[1].req_time);
            assert!(send[0] < send[1], "second send granted first: {send:?}");
            assert!(recv[0] < recv[1], "second receive filled first: {recv:?}");
        });
    }

    fn entry(peer: Rank, tag: u32, kind: Queued, req: u32) -> Slot {
        Slot {
            peer,
            tag,
            len: 8,
            time: req as f64,
            req,
            kind,
        }
    }

    #[test]
    fn a_channel_stays_in_order_through_growth_and_removals_around_it() {
        let mut t = MatchTable::default();
        // Channel (3, 9) interleaved with 40 one-entry channels: the table
        // doubles four times while the channel is queued.
        for i in 0..20 {
            t.push(entry(3, 9, Queued::Posted, i));
            t.push(entry(100 + i, 9, Queued::Posted, 0));
            t.push(entry(3, 100 + i, Queued::Posted, 0));
        }
        assert_eq!(t.live, 60);
        assert!(t.slots.len() >= 120);
        for i in 0..20 {
            let got = t.take(3, 9, Queued::Posted, Queued::Posted);
            assert_eq!(got.map(|s| s.req), Some(i));
            // Removing neighbours shifts the remaining entries about.
            assert!(t.take(100 + i, 9, Queued::Posted, Queued::Posted).is_some());
            assert!(t.take(3, 100 + i, Queued::Posted, Queued::Posted).is_some());
        }
        assert_eq!(t.live, 0);
        assert!(t.take(3, 9, Queued::Posted, Queued::Posted).is_none());
        assert!(t.slots.iter().all(|s| s.kind == Queued::Empty));
    }

    #[test]
    fn a_channel_wrapped_past_the_table_end_keeps_its_order_when_the_table_grows() {
        let mut t = MatchTable {
            slots: vec![EMPTY_SLOT; 8],
            live: 0,
        };
        let peer = (0..).find(|&p| t.home(p, 0) == 7).unwrap();
        for req in 0..3 {
            t.push(entry(peer, 0, Queued::Unexpected, req));
        }
        // The cluster occupies slots 7, 0, 1.
        assert_eq!(t.slots[7].req, 0);
        assert_eq!(t.slots[1].req, 2);
        for other in 0..2 {
            t.push(entry(peer, 1 + other, Queued::Unexpected, 0));
        }
        assert_eq!(t.slots.len(), 16, "the fifth entry doubles the table");
        for req in 0..3 {
            let got = t.take(peer, 0, Queued::Unexpected, Queued::Rdv);
            assert_eq!(got.map(|s| s.req), Some(req));
        }
    }

    #[test]
    fn a_receive_takes_an_unexpected_message_before_an_older_rendezvous_send() {
        let mut t = MatchTable::default();
        t.push(entry(2, 5, Queued::Rdv, 10));
        t.push(entry(2, 5, Queued::Rdv, 11));
        t.push(entry(2, 5, Queued::Unexpected, 12));
        // Only messages are queued: an arrival finds no posted receive.
        assert!(t.take(2, 5, Queued::Posted, Queued::Posted).is_none());
        let order: Vec<u32> = (0..3)
            .map(|_| t.take(2, 5, Queued::Unexpected, Queued::Rdv).unwrap().req)
            .collect();
        assert_eq!(order, [12, 10, 11]);
        assert!(t.take(2, 5, Queued::Unexpected, Queued::Rdv).is_none());
    }

    #[test]
    fn time_keys_order_like_total_cmp_and_round_trip() {
        let times = [
            f64::NEG_INFINITY,
            -2.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1.0 + f64::EPSILON,
            4689.015439999823,
            f64::INFINITY,
        ];
        for (i, &a) in times.iter().enumerate() {
            assert_eq!(key_time(time_key(a)).to_bits(), a.to_bits());
            for &b in &times[i + 1..] {
                assert!(time_key(a) < time_key(b), "{a} !< {b}");
            }
        }
    }
}
