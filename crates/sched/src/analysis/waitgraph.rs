//! Cross-rank wait-for graph: static deadlock detection.
//!
//! A schedule can only block at a `WaitAll`, so deadlock-freedom reduces to
//! acyclicity of a graph whose nodes are the `WaitAll` ops of every rank
//! and whose edges say "this wait cannot complete until that wait does":
//!
//! * a waited `Irecv` completes only once the matching `Isend` has been
//!   *posted* by its peer, and the peer reaches the posting op only after
//!   every `WaitAll` preceding it completes — so the edge targets the
//!   peer's latest `WaitAll` before the posting op;
//! * under **rendezvous** semantics ([`SendMode::Rendezvous`]) a waited
//!   `Isend` additionally completes only once the matching `Irecv` is
//!   posted, giving the symmetric edge (under [`SendMode::Eager`] sends
//!   are buffered and complete on posting — no edge);
//! * a `WaitAll` is only *reached* after the same rank's previous
//!   `WaitAll` completes, giving an intra-rank [`Blocker::Sequential`]
//!   edge. Without it, a wait with no message dependencies of its own
//!   would look always-completable even when it sits behind a blocked one.
//!
//! Which send a receive waits for is read from the [`Matched`] table; the
//! graph itself is one pass over its `WaitAll` ops.

use a2a_topo::Rank;

use crate::ir::Op;
use crate::validate::Matched;

/// Send-completion semantics assumed by the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendMode {
    /// Sends are buffered: posting completes them (the data executor and
    /// threaded runtime behave this way).
    Eager,
    /// A send's completion requires the matching receive to be posted (the
    /// simulator's large-message protocol; the strongest static guarantee).
    Rendezvous,
}

/// One `WaitAll` op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitNode {
    pub rank: Rank,
    /// Index of the `WaitAll` in its rank's program.
    pub op_idx: usize,
    pub first_req: u32,
    pub count: u32,
}

/// Why one wait depends on another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Blocker {
    /// The source wait covers an `Irecv` (posted at `post_op`) whose
    /// matching `Isend` sits at `peer_op` on `peer`, behind the target wait.
    RecvNeedsSend {
        req: u32,
        post_op: usize,
        peer: Rank,
        peer_op: usize,
        tag: u32,
    },
    /// Rendezvous only: the source wait covers an `Isend` (posted at
    /// `post_op`) whose matching `Irecv` sits at `peer_op` on `peer`,
    /// behind the target wait.
    SendNeedsRecv {
        req: u32,
        post_op: usize,
        peer: Rank,
        peer_op: usize,
        tag: u32,
    },
    /// The source wait is not even reached until the same rank's previous
    /// wait completes.
    Sequential,
}

/// The wait-for graph of one schedule.
#[derive(Debug, Default)]
pub struct WaitForGraph {
    pub nodes: Vec<WaitNode>,
    /// `edges[i]` — waits node `i` depends on, in deterministic order.
    pub edges: Vec<Vec<(usize, Blocker)>>,
}

/// Build the wait-for graph of `m` under `mode`.
pub fn build_wait_graph(m: &Matched<'_>, mode: SendMode) -> WaitForGraph {
    let mut nodes = Vec::new();
    for rank in 0..m.nranks() as Rank {
        for (op_idx, top) in m.prog(rank).ops.iter().enumerate() {
            if let Op::WaitAll { first_req, count } = top.op {
                nodes.push(WaitNode {
                    rank,
                    op_idx,
                    first_req,
                    count,
                });
            }
        }
    }
    // Nodes are in `(rank, op)` order, so the latest `WaitAll` of `rank`
    // strictly before `op` is one binary search away.
    let wait_before = |rank: Rank, op: usize| {
        let later = nodes.partition_point(|w| (w.rank, w.op_idx) < (rank, op));
        later.checked_sub(1).filter(|&id| nodes[id].rank == rank)
    };

    let edges = nodes
        .iter()
        .map(|node| {
            let mut edges = Vec::new();
            // Reaching this wait requires the rank's previous wait to complete.
            if let Some(prev) = wait_before(node.rank, node.op_idx) {
                edges.push((prev, Blocker::Sequential));
            }
            for req in node.first_req..node.first_req + node.count {
                let post_op = m.post_op(node.rank, req);
                let (peer, peer_op) = m
                    .partner(node.rank, post_op)
                    .expect("a request is posted by a message op, and those are matched");
                let Some(blocking_wait) = wait_before(peer, peer_op) else {
                    continue; // partner is posted before the peer can block
                };
                match m.prog(node.rank).ops[post_op].op {
                    Op::Irecv { tag, .. } => edges.push((
                        blocking_wait,
                        Blocker::RecvNeedsSend {
                            req,
                            post_op,
                            peer,
                            peer_op,
                            tag,
                        },
                    )),
                    Op::Isend { tag, .. } if mode == SendMode::Rendezvous => edges.push((
                        blocking_wait,
                        Blocker::SendNeedsRecv {
                            req,
                            post_op,
                            peer,
                            peer_op,
                            tag,
                        },
                    )),
                    _ => {}
                }
            }
            edges
        })
        .collect();
    WaitForGraph { nodes, edges }
}

/// Find one dependency cycle, if any: the returned chain lists
/// `(node, blocker)` pairs where each blocker explains the edge to the
/// *next* node in the chain (the last entry points back to the first).
pub fn find_cycle(g: &WaitForGraph) -> Option<Vec<(usize, Blocker)>> {
    const NEW: u8 = 0;
    const OPEN: u8 = 1;
    const DONE: u8 = 2;
    let n = g.nodes.len();
    let mut state = vec![NEW; n];

    for start in 0..n {
        if state[start] != NEW {
            continue;
        }
        // Iterative DFS: (node, next edge index to explore).
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        state[start] = OPEN;
        while let Some(&(v, ei)) = stack.last() {
            if ei >= g.edges[v].len() {
                state[v] = DONE;
                stack.pop();
                continue;
            }
            stack.last_mut().unwrap().1 += 1;
            let (to, blocker) = g.edges[v][ei];
            match state[to] {
                NEW => {
                    state[to] = OPEN;
                    stack.push((to, 0));
                }
                OPEN => {
                    // Back edge: the cycle is the stack from `to` to `v`,
                    // closed by this edge. Each stack entry's blocker is the
                    // edge it last followed (index `ei - 1`).
                    let from = stack.iter().position(|&(s, _)| s == to).expect("on stack");
                    let mut chain: Vec<(usize, Blocker)> = stack[from..stack.len() - 1]
                        .iter()
                        .map(|&(s, sei)| (s, g.edges[s][sei - 1].1))
                        .collect();
                    chain.push((v, blocker));
                    return Some(chain);
                }
                _ => {}
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgBuilder;
    use crate::ir::{Block, Bytes, Phase, RankProgram, RBUF, SBUF};
    use crate::ScheduleSource;

    /// `progs` with 32-byte send and receive buffers on every rank.
    struct Fixed(Vec<RankProgram>);

    impl ScheduleSource for Fixed {
        fn nranks(&self) -> usize {
            self.0.len()
        }
        fn buffers(&self, _r: Rank) -> Vec<Bytes> {
            vec![32, 32]
        }
        fn rank_program(&self, r: Rank) -> std::borrow::Cow<'_, RankProgram> {
            std::borrow::Cow::Borrowed(&self.0[r as usize])
        }
        fn phase_names(&self) -> Vec<&'static str> {
            vec!["all"]
        }
    }

    fn graph(progs: Vec<RankProgram>, mode: SendMode) -> WaitForGraph {
        let fixed = Fixed(progs);
        let matched = Matched::build(&fixed).expect("structurally valid");
        build_wait_graph(&matched, mode)
    }

    fn blk(off: u64) -> Block {
        Block::new(SBUF, off, 8)
    }

    fn rblk(off: u64) -> Block {
        Block::new(RBUF, off, 8)
    }

    /// Two ranks exchanging via sendrecv: deadlock-free in both modes.
    fn sendrecv_pair() -> Vec<RankProgram> {
        (0..2u32)
            .map(|me| {
                let peer = 1 - me;
                let mut b = ProgBuilder::new(Phase(0));
                b.sendrecv(peer, blk(0), 0, peer, rblk(0), 0);
                b.finish()
            })
            .collect()
    }

    /// Two ranks both doing blocking send *then* recv: the classic
    /// rendezvous deadlock.
    fn head_to_head() -> Vec<RankProgram> {
        (0..2u32)
            .map(|me| {
                let peer = 1 - me;
                let mut b = ProgBuilder::new(Phase(0));
                b.send(peer, blk(0), 0);
                b.recv(peer, rblk(0), 0);
                b.finish()
            })
            .collect()
    }

    #[test]
    fn sendrecv_is_acyclic_under_rendezvous() {
        let g = graph(sendrecv_pair(), SendMode::Rendezvous);
        assert_eq!(g.nodes.len(), 2);
        assert!(find_cycle(&g).is_none());
    }

    #[test]
    fn head_to_head_deadlocks_under_rendezvous_only() {
        let progs = head_to_head();
        let g = graph(progs.clone(), SendMode::Rendezvous);
        let cycle = find_cycle(&g).expect("rendezvous deadlock");
        assert_eq!(cycle.len(), 2);
        assert!(cycle
            .iter()
            .all(|(_, b)| matches!(b, Blocker::SendNeedsRecv { .. })));
        // Eager sends buffer: the same schedule completes.
        let g = graph(progs, SendMode::Eager);
        assert!(find_cycle(&g).is_none());
    }

    #[test]
    fn recv_first_deadlocks_in_every_mode() {
        // Both ranks block on a receive before posting their send.
        let progs: Vec<RankProgram> = (0..2u32)
            .map(|me| {
                let peer = 1 - me;
                let mut b = ProgBuilder::new(Phase(0));
                b.recv(peer, rblk(0), 0);
                b.send(peer, blk(0), 0);
                b.finish()
            })
            .collect();
        for mode in [SendMode::Eager, SendMode::Rendezvous] {
            let g = graph(progs.clone(), mode);
            let cycle = find_cycle(&g).expect("recv-first deadlock");
            assert!(cycle
                .iter()
                .all(|(_, b)| matches!(b, Blocker::RecvNeedsSend { .. })));
        }
    }

    #[test]
    fn three_rank_ring_of_blocking_recvs_is_cyclic() {
        let progs: Vec<RankProgram> = (0..3u32)
            .map(|me| {
                let mut b = ProgBuilder::new(Phase(0));
                b.recv((me + 1) % 3, rblk(0), 0);
                b.send((me + 2) % 3, blk(0), 0);
                b.finish()
            })
            .collect();
        let g = graph(progs, SendMode::Eager);
        let cycle = find_cycle(&g).expect("ring deadlock");
        assert_eq!(cycle.len(), 3);
    }

    #[test]
    fn sequential_edges_propagate_blockage() {
        // Message edges target the peer's *latest* wait before the posting
        // op. That is only sound if a wait transitively depends on earlier
        // waits of its rank. Here rank 0's send to rank 1 sits behind wait
        // B, which covers only an innocent eager send — B is completable in
        // isolation, but unreachable because wait A blocks on rank 2.
        // Without the Sequential edge B -> A the cycle is invisible.
        let mut b0 = ProgBuilder::new(Phase(0));
        b0.recv(2, rblk(0), 0); // wait A: blocked on rank 2's send
        b0.send(2, blk(16), 9); // wait B: eager, no message edge
        b0.send(1, blk(0), 0); // posted behind wait B
        let mut b1 = ProgBuilder::new(Phase(0));
        b1.recv(0, rblk(0), 0); // blocked: rank 0's send is behind B
        b1.send(2, blk(0), 0);
        let mut b2 = ProgBuilder::new(Phase(0));
        let r = b2.irecv(0, rblk(16), 9); // tag-9 recv posted upfront
        b2.recv(1, rblk(0), 0); // blocked: rank 1's send is behind its recv
        b2.send(0, blk(0), 0);
        b2.wait(r);
        let progs = vec![b0.finish(), b1.finish(), b2.finish()];
        let g = graph(progs, SendMode::Eager);
        let cycle = find_cycle(&g).expect("deadlock through sequential edge");
        assert!(cycle.iter().any(|(_, b)| matches!(b, Blocker::Sequential)));
        assert!(cycle
            .iter()
            .any(|(_, b)| matches!(b, Blocker::RecvNeedsSend { .. })));
    }

    #[test]
    fn fifo_matching_pairs_kth_send_with_kth_recv() {
        // Rank 0 sends twice on one channel; rank 1's first recv is posted
        // before it can block, the second behind a wait. Only the second
        // send picks up an edge under rendezvous.
        let mut b0 = ProgBuilder::new(Phase(0));
        b0.send(1, blk(0), 7);
        b0.send(1, blk(8), 7);
        let mut b1 = ProgBuilder::new(Phase(0));
        b1.irecv(0, rblk(0), 7);
        b1.wait(0);
        b1.recv(0, rblk(8), 7);
        let progs = vec![b0.finish(), b1.finish()];
        let g = graph(progs, SendMode::Rendezvous);
        let rendezvous_edges: Vec<_> = g
            .edges
            .iter()
            .flatten()
            .filter(|(_, b)| matches!(b, Blocker::SendNeedsRecv { .. }))
            .collect();
        assert_eq!(rendezvous_edges.len(), 1);
        assert!(find_cycle(&g).is_none());
    }
}
