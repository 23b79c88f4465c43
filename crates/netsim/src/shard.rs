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
//! * **Pairing by the schedule.** `Shard::build` pairs every message once
//!   with [`a2a_sched::FifoChannels`], the k-th send on a channel with the
//!   k-th receive, and each `Isend` then names its receive's request. An
//!   arrival completes that receive if it is posted, or waits on its
//!   request until it is; posting reads its own request. `posted_len` /
//!   `unexpected_len` still count what waits, and the simulated queue
//!   search is charged from them alone.
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
use std::collections::{BinaryHeap, HashMap};

use a2a_sched::{FifoChannels, Op, Post, RankProgram, TimedOp};
use a2a_topo::{Level, ProcGrid, Rank};

use crate::engine::{Perturb, SimError};
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
        len: u64,
        recv_req: u32,
    },
    /// Rendezvous request-to-send control message reaching the receiver.
    Rts {
        from: Rank,
        to: Rank,
        len: u64,
        send_req: u32,
        recv_req: u32,
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
    /// A message op's tag, as lowered. [`pair_messages`] replaces an
    /// `Isend`'s with the request of the receive it pairs with at `peer`.
    link: u32,
    /// The op's request; the first request of a `WaitAll`.
    req: u32,
    kind: OpKind,
    phase: u8,
}

const _: () = assert!(std::mem::size_of::<SimOp>() == 24);

impl SimOp {
    fn lower(t: &TimedOp) -> SimOp {
        let (kind, peer, link, req, len) = match t.op {
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
            link,
            req,
            kind,
            phase: t.phase.0,
        }
    }
}

/// Where a request stands: what waits on it, since `req_time`, or `Done`
/// at `req_time`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Req {
    Open,
    /// Its receive, posted before the message.
    Posted,
    /// An eager message that arrived before its receive.
    Unexpected,
    /// A rendezvous send (request in `Shard::rdv_sends`), ready or with its
    /// RTS arrived — always before the receive posts.
    Rdv,
    Done,
}

pub(crate) struct RankSim {
    ops: Vec<SimOp>,
    pc: usize,
    pub clock: f64,
    req: Vec<Req>,
    req_time: Vec<f64>,
    /// Parked `WaitAll`: its request range, and how many of those requests
    /// are still pending. Zero pending means the rank is not parked.
    park_first: u32,
    park_count: u32,
    park_pending: u32,
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
            req: vec![Req::Open; prog.n_reqs as usize],
            req_time: vec![0.0; prog.n_reqs as usize],
            park_first: 0,
            park_count: 0,
            park_pending: 0,
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

    /// Leave `what` waiting on `req` from `time`, counted in its queue.
    fn hold(&mut self, req: u32, what: Req, time: f64) {
        match what {
            Req::Posted => self.posted_len += 1,
            Req::Unexpected => self.unexpected_len += 1,
            _ => {}
        }
        self.req[req as usize] = what;
        self.req_time[req as usize] = time;
    }

    /// Take what waits on `req` ([`Req::Open`] if nothing), and since when.
    fn take(&mut self, req: u32) -> (Req, f64) {
        let what = std::mem::replace(&mut self.req[req as usize], Req::Open);
        debug_assert_ne!(what, Req::Done, "message for a completed request");
        match what {
            Req::Posted => self.posted_len -= 1,
            Req::Unexpected => self.unexpected_len -= 1,
            _ => {}
        }
        (what, self.req_time[req as usize])
    }

    /// `f64::max` folded over the request range's completion times from
    /// the rank's clock, and the number of requests in it not yet done.
    fn wait_range(&self, first: u32, count: u32) -> (f64, u32) {
        let range = first as usize..(first + count) as usize;
        let reqs = self.req[range.clone()].iter().zip(&self.req_time[range]);
        reqs.fold(
            (self.clock, 0),
            |(latest, pending), (&what, &t)| match what {
                Req::Done => (latest.max(t), pending),
                _ => (latest, pending + 1),
            },
        )
    }
}

/// Pair every message by the schedule ([`FifoChannels`]): each `Isend`
/// gets its receive's request in place of the tag. A receive that no send
/// matches stays unpaired, and its rank deadlocks.
fn pair_messages(ranks: &mut [RankSim]) -> Result<(), SimError> {
    // One pass gathers every receive under its source and where each
    // rank's sends are. It runs after lowering, not inside it: the
    // pairing scratch then lies above the lowered programs in the heap,
    // and its frees leave no hole below them for the report to take
    // (a report placed low lets glibc return the freed heap to the OS,
    // and the next simulation faults it back in).
    let mut channels = FifoChannels::new(ranks.len());
    let mut isends = vec![Vec::new(); ranks.len()];
    for (r, st) in ranks.iter().enumerate() {
        for (i, op) in st.ops.iter().enumerate() {
            match op.kind {
                OpKind::Isend => isends[r].push(i as u32),
                OpKind::Irecv => {
                    let (to, tag, id, len) = (r as Rank, op.link, op.req, op.len);
                    channels.recv(op.peer, Post { to, tag, id, len });
                }
                OpKind::Copy | OpKind::WaitAll => {}
            }
        }
    }
    for (from, isends) in isends.into_iter().enumerate() {
        let ops = &mut ranks[from].ops;
        let post = |id: u32| {
            let op = ops[id as usize];
            let (to, tag, len) = (op.peer, op.link, op.len);
            Post { to, tag, id, len }
        };
        let mut sends: Vec<Post> = isends.into_iter().map(post).collect();
        let link = |_, send: &Post, recv: &Post| ops[send.id as usize].link = recv.id;
        let paired = channels.pair(from as Rank, &mut sends, true, link);
        paired.map_err(SimError::Unpaired)?;
    }
    Ok(())
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
    /// `(receiver, receive request)` → the request of the rendezvous send
    /// waiting on it ([`Req::Rdv`]).
    rdv_sends: HashMap<(Rank, u32), u32>,
    pub msgs_per_level: [usize; 4],
    pub bytes_per_level: [u64; 4],
    /// Events processed.
    pub events: u64,
}

impl<'a> Shard<'a> {
    /// Build the machine, lowering every rank's program, pairing its
    /// messages and seeding its step event at t=0.
    pub fn build(
        ctx: &'a Ctx<'a>,
        source: &dyn a2a_sched::ScheduleSource,
        seed: u64,
    ) -> Result<Self, SimError> {
        // One rank at a time: the 64-byte source ops of a rank are gone
        // before the next rank's are built.
        let mut ranks: Vec<RankSim> = (0..ctx.place.len())
            .map(|r| {
                let prog = source.rank_program(r as Rank);
                RankSim::new(&prog, ctx.nphases, r as Rank, seed)
            })
            .collect();
        pair_messages(&mut ranks)?;
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
            rdv_sends: HashMap::new(),
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
        Ok(shard)
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
        debug_assert_ne!(st.req[req as usize], Req::Done, "request completed twice");
        st.req[req as usize] = Req::Done;
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

    /// An eager message reaches receive `req` of `to` at `arrival`: it
    /// completes the receive if that is posted, or waits as unexpected.
    fn deliver(&mut self, to: Rank, req: u32, arrival: f64) {
        let st = &mut self.ranks[to as usize];
        match st.take(req) {
            (Req::Posted, posted) => {
                let cost =
                    self.ctx.model.match_base + self.ctx.model.queue_search * st.posted_len as f64;
                self.complete_req(to, req, arrival.max(posted) + cost);
            }
            _ => st.hold(req, Req::Unexpected, arrival),
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
            Payload::Eager {
                from,
                to,
                len,
                recv_req,
            } => {
                // Payload reached the destination NIC: eject in arrival
                // order, then deliver.
                let rx_end = self.eject(from, to, len, time);
                self.deliver(to, recv_req, rx_end);
            }
            Payload::Rts {
                from,
                to,
                len,
                send_req,
                recv_req,
            } => {
                // Request-to-send at the receiver: grant immediately if the
                // receive is already posted, otherwise wait for it.
                let st = &mut self.ranks[to as usize];
                match st.take(recv_req) {
                    (Req::Posted, _) => self.send_cts(to, from, len, send_req, recv_req, time),
                    _ => {
                        st.hold(recv_req, Req::Rdv, time);
                        self.rdv_sends.insert((to, recv_req), send_req);
                    }
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

    /// Inter-node send `req` of `rank` to receive `recv` of `to`: eager
    /// injects now; rendezvous opens the handshake.
    fn isend_internode(&mut self, rank: Rank, to: Rank, recv: u32, len: u64, req: u32, ready: f64) {
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
                    len,
                    send_req: req,
                    recv_req: recv,
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
                    len,
                    recv_req: recv,
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
                let (to, recv_req, len, req) = (op.peer, op.link, op.len, op.req);
                let jf = self.noise(rank);
                let st = &mut self.ranks[ridx];
                st.clock += model.o_send * jf;
                st.pc += 1;
                let ready = st.clock;
                let level = self.ctx.level(rank, to);
                if level == Level::InterNode {
                    self.isend_internode(rank, to, recv_req, len, req, ready);
                } else if model.is_rendezvous(len, level) {
                    // Intra-node rendezvous: the receiver lives on the same
                    // node, so read its receive's request directly.
                    let peer = &mut self.ranks[to as usize];
                    match peer.take(recv_req) {
                        (Req::Posted, posted) => {
                            let t0 = ready.max(posted + model.level(level).alpha);
                            let arrival = self.transport_intra(rank, level, len, t0);
                            self.complete_req(rank, req, arrival);
                            self.complete_req(to, recv_req, arrival + model.match_base);
                        }
                        _ => {
                            peer.hold(recv_req, Req::Rdv, ready);
                            self.rdv_sends.insert((to, recv_req), req);
                        }
                    }
                } else {
                    // Intra-node eager: payload crosses the bus now.
                    let arrival = self.transport_intra(rank, level, len, ready);
                    self.complete_req(rank, req, ready);
                    self.deliver(to, recv_req, arrival);
                }
            }
            OpKind::Irecv => {
                let (from, len, req) = (op.peer, op.len, op.req);
                let jf = self.noise(rank);
                let st = &mut self.ranks[ridx];
                st.clock += (model.o_recv + model.queue_search * st.unexpected_len as f64) * jf;
                st.pc += 1;
                let post_time = st.clock;
                // Its message may be here first: an unexpected eager
                // payload, or a rendezvous send waiting for the grant.
                // Otherwise the receive is posted.
                match st.take(req) {
                    (Req::Unexpected, arrived) => {
                        let done = post_time.max(arrived) + model.match_base;
                        self.complete_req(rank, req, done);
                    }
                    (Req::Rdv, ready) => {
                        let send_req = self.rdv_sends.remove(&(rank, req)).unwrap();
                        let level = self.ctx.level(from, rank);
                        if level == Level::InterNode {
                            // The RTS is waiting: grant it now.
                            self.send_cts(rank, from, len, send_req, req, post_time);
                        } else {
                            let t0 = ready.max(post_time + model.level(level).alpha);
                            let arrival = self.transport_intra(from, level, len, t0);
                            self.complete_req(from, send_req, arrival);
                            self.complete_req(rank, req, arrival + model.match_base);
                        }
                    }
                    _ => st.hold(req, Req::Posted, post_time),
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
        let mut shard = Shard::build(&ctx, &Progs(progs), 0).unwrap();
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
        let receiver = program(|b| b.recv(0, rbuf(8), 0));
        drained(1, vec![waiter, receiver], |shard| {
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

    #[test]
    fn a_short_message_overtaking_a_long_one_fills_the_second_receive() {
        // Both eager on Dane: the 8 B message leaves second but lands
        // first. Arrival order would hand it to the 8000 B receive.
        drained(2, two_on_one_channel([8000, 8], 0), |shard| {
            assert!(shard.ranks.iter().all(RankSim::done));
            let recv = &shard.ranks[1].req_time;
            assert!(recv[1] < recv[0], "8 B filled the first receive: {recv:?}");
        });
    }

    #[test]
    fn a_rendezvous_send_keeps_its_place_ahead_of_a_later_eager_message() {
        // 16 KiB goes by rendezvous on Dane, 8 B eagerly; both wait for
        // the late receiver, the eager payload as unexpected. The first
        // receive is the rendezvous send's, so it is granted at once and
        // lands after the second receive takes the unexpected message.
        let big = 2 * crate::models::dane().eager_threshold;
        drained(2, two_on_one_channel([big, 8], 100), |shard| {
            assert!(shard.ranks.iter().all(RankSim::done));
            assert_eq!(shard.ranks[1].unexpected_len, 0);
            let recv = &shard.ranks[1].req_time;
            assert!(
                recv[1] < recv[0],
                "eager message filled the first receive: {recv:?}"
            );
        });
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
