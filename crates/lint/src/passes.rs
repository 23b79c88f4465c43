//! The lint passes: validation, deadlock, buffer races, determinism,
//! and resource pressure.
//!
//! One call to [`lint_schedule`] runs every pass over a schedule and
//! returns a [`LintReport`]. The passes are purely static — they inspect
//! the compiled rank programs, never execute them — so a clean report is a
//! proof over the IR, not an observation of one lucky run.

use std::collections::HashSet;

use a2a_sched::analysis::{build_wait_graph, find_cycle, Blocker, InFlight, PendingOp, SendMode};
use a2a_sched::{Matched, Op, RankProgram, ScheduleSource, ValidationError};
use a2a_topo::ProcGrid;

use crate::diag::{Code, Diagnostic, LintReport, MAX_DIAGS_PER_CODE};

/// Knobs for [`lint_schedule`].
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Assume rendezvous send completion for the deadlock pass (the
    /// strongest guarantee: a rendezvous-safe schedule is also eager-safe).
    pub rendezvous: bool,
    /// Maximum simultaneously pending sends to one destination before
    /// `A2A005` fires.
    pub send_window: usize,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            rendezvous: true,
            send_window: 32,
        }
    }
}

/// Pass 0 of the entry points that map a source onto a grid: the world-size
/// check, then structural validation, whose product is the matched schedule
/// all other passes read.
pub(crate) fn match_schedule<'a>(
    source: &'a dyn ScheduleSource,
    grid: &ProcGrid,
) -> Result<Matched<'a>, ValidationError> {
    if source.nranks() != grid.world_size() {
        return Err(ValidationError::WorldSizeMismatch {
            schedule: source.nranks(),
            grid: grid.world_size(),
        });
    }
    Matched::build(source)
}

/// The report of a schedule that failed pass 0. A malformed schedule makes
/// the other passes meaningless (unmatched messages, double-posted
/// requests), so its one `A2A000` finding is the whole report.
pub(crate) fn malformed(label: impl Into<String>, e: &ValidationError) -> LintReport {
    let mut report = LintReport::new(label);
    report.push(Diagnostic::new(Code::Malformed, e.to_string()));
    report
}

/// Run every safety pass over `source` and collect findings.
pub fn lint_schedule(
    label: impl Into<String>,
    source: &dyn ScheduleSource,
    grid: &ProcGrid,
    cfg: &LintConfig,
) -> LintReport {
    match match_schedule(source, grid) {
        Ok(matched) => safety_passes(label, &matched, cfg),
        Err(e) => malformed(label, &e),
    }
}

/// The safety passes (`A2A001`–`A2A006`) over a matched schedule, findings
/// in pass order.
pub(crate) fn safety_passes(
    label: impl Into<String>,
    m: &Matched<'_>,
    cfg: &LintConfig,
) -> LintReport {
    let mut report = LintReport::new(label);
    deadlock_pass(m, cfg, &mut report);
    for rank in 0..m.nranks() as u32 {
        rank_local_pass(rank, m.prog(rank), cfg, &mut report);
    }
    report.cap_per_code(MAX_DIAGS_PER_CODE);
    report
}

/// Pass 1: cycle in the cross-rank wait-for graph (`A2A001`).
fn deadlock_pass(m: &Matched<'_>, cfg: &LintConfig, report: &mut LintReport) {
    let mode = if cfg.rendezvous {
        SendMode::Rendezvous
    } else {
        SendMode::Eager
    };
    let g = build_wait_graph(m, mode);
    let Some(cycle) = find_cycle(&g) else {
        return;
    };

    let head = g.nodes[cycle[0].0];
    let mut d = Diagnostic::new(
        Code::Deadlock,
        format!(
            "wait-for cycle through {} wait(s) under {} sends",
            cycle.len(),
            match mode {
                SendMode::Rendezvous => "rendezvous",
                SendMode::Eager => "eager",
            }
        ),
    )
    .at(head.rank, head.op_idx);
    for (node, blocker) in &cycle {
        let w = g.nodes[*node];
        d = d.note(match blocker {
            Blocker::RecvNeedsSend {
                req,
                post_op,
                peer,
                peer_op,
                tag,
            } => format!(
                "rank {} op {}: waits recv req {req} (posted at op {post_op}, tag {tag}) \
                 whose send sits at rank {peer} op {peer_op}, behind the next wait",
                w.rank, w.op_idx
            ),
            Blocker::SendNeedsRecv {
                req,
                post_op,
                peer,
                peer_op,
                tag,
            } => format!(
                "rank {} op {}: waits rendezvous send req {req} (posted at op {post_op}, \
                 tag {tag}) whose recv sits at rank {peer} op {peer_op}, behind the next wait",
                w.rank, w.op_idx
            ),
            Blocker::Sequential => format!(
                "rank {} op {}: not reached until this rank's previous wait (next in chain) \
                 completes",
                w.rank, w.op_idx
            ),
        });
    }
    report.push(d);
}

/// Passes 2-4, one in-order scan per rank with an [`InFlight`] window:
/// stable-send violations (`A2A002`), receive races (`A2A003`), unstable
/// reads (`A2A006`), channel-order dependence (`A2A004`), and send-window
/// pressure (`A2A005`).
fn rank_local_pass(rank: u32, prog: &RankProgram, cfg: &LintConfig, report: &mut LintReport) {
    let mut win = InFlight::default();
    // A2A005 fires once per destination per rank, at the op that first
    // exceeds the window.
    let mut window_flagged: HashSet<u32> = HashSet::new();

    for (i, top) in prog.ops.iter().enumerate() {
        match top.op {
            Op::Isend {
                to,
                block,
                tag,
                req,
            } => {
                // Reading in-flight receive bytes: payload depends on
                // whether the message has landed yet.
                if let Some(p) = win.recvs_overlapping(&block).next() {
                    report.push(unstable_read(rank, i, "send source", block, p));
                }
                if let Some(p) = win.sends_on_channel(to, tag) {
                    report.push(
                        Diagnostic::new(
                            Code::ChannelOrder,
                            format!(
                                "second send in flight on channel {rank}->{to} tag {tag}; \
                                 delivery order rests on FIFO transport"
                            ),
                        )
                        .at(rank, i)
                        .note(format!(
                            "first send posted at op {} (req {})",
                            p.op_idx, p.req
                        )),
                    );
                }
                win.post_send(PendingOp {
                    req,
                    op_idx: i,
                    block,
                    peer: to,
                    tag,
                });
                let pending = win.sends_to(to);
                if pending > cfg.send_window && window_flagged.insert(to) {
                    report.push(
                        Diagnostic::new(
                            Code::SendWindow,
                            format!(
                                "{pending} sends simultaneously pending to rank {to} \
                                 (window {})",
                                cfg.send_window
                            ),
                        )
                        .at(rank, i),
                    );
                }
            }
            Op::Irecv {
                from,
                block,
                tag,
                req,
            } => {
                // Writing into a pending send's source breaks the
                // zero-copy stable-send invariant.
                if let Some(p) = win.sends_overlapping(&block).next() {
                    report.push(unstable_send(rank, i, "receive destination", block, p));
                }
                if let Some(p) = win.recvs_overlapping(&block).next() {
                    report.push(
                        Diagnostic::new(
                            Code::RecvRace,
                            format!(
                                "receive destination {} overlaps pending receive into {}",
                                fmt_block(block),
                                fmt_block(p.block)
                            ),
                        )
                        .at(rank, i)
                        .note(posted_at("receive", p)),
                    );
                }
                if let Some(p) = win.recvs_on_channel(from, tag) {
                    report.push(
                        Diagnostic::new(
                            Code::ChannelOrder,
                            format!(
                                "second receive in flight on channel {from}->{rank} tag {tag}; \
                                 matching rests on FIFO transport"
                            ),
                        )
                        .at(rank, i)
                        .note(format!(
                            "first receive posted at op {} (req {})",
                            p.op_idx, p.req
                        )),
                    );
                }
                win.post_recv(PendingOp {
                    req,
                    op_idx: i,
                    block,
                    peer: from,
                    tag,
                });
            }
            Op::WaitAll { first_req, count } => {
                win.retire(first_req, count);
            }
            Op::Copy { src, dst } => {
                if let Some(p) = win.recvs_overlapping(&src).next() {
                    report.push(unstable_read(rank, i, "copy source", src, p));
                }
                if let Some(p) = win.sends_overlapping(&dst).next() {
                    report.push(unstable_send(rank, i, "copy destination", dst, p));
                }
                if let Some(p) = win.recvs_overlapping(&dst).next() {
                    report.push(
                        Diagnostic::new(
                            Code::RecvRace,
                            format!(
                                "copy destination {} overlaps pending receive into {}",
                                fmt_block(dst),
                                fmt_block(p.block)
                            ),
                        )
                        .at(rank, i)
                        .note(posted_at("receive", p)),
                    );
                }
            }
        }
    }
}

fn unstable_send(
    rank: u32,
    op: usize,
    what: &str,
    block: a2a_sched::Block,
    pending: &PendingOp,
) -> Diagnostic {
    Diagnostic::new(
        Code::UnstableSend,
        format!(
            "{what} {} overlaps the source {} of a pending send",
            fmt_block(block),
            fmt_block(pending.block)
        ),
    )
    .at(rank, op)
    .note(posted_at("send", pending))
}

fn unstable_read(
    rank: u32,
    op: usize,
    what: &str,
    block: a2a_sched::Block,
    pending: &PendingOp,
) -> Diagnostic {
    Diagnostic::new(
        Code::UnstableRead,
        format!(
            "{what} {} overlaps the destination {} of a pending receive",
            fmt_block(block),
            fmt_block(pending.block)
        ),
    )
    .at(rank, op)
    .note(posted_at("receive", pending))
}

fn posted_at(kind: &str, p: &PendingOp) -> String {
    format!(
        "{kind} posted at op {} (req {}, peer {}, tag {})",
        p.op_idx, p.req, p.peer, p.tag
    )
}

fn fmt_block(b: a2a_sched::Block) -> String {
    format!("buf{}[{}..{})", b.buf.0, b.off, b.end())
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_sched::{Block, Bytes, Phase, ProgBuilder, RBUF, SBUF};
    use a2a_topo::{Machine, Rank};

    struct Fixed {
        progs: Vec<RankProgram>,
        bufsize: Bytes,
    }

    impl ScheduleSource for Fixed {
        fn nranks(&self) -> usize {
            self.progs.len()
        }
        fn buffers(&self, _r: Rank) -> Vec<Bytes> {
            vec![self.bufsize, self.bufsize]
        }
        fn rank_program(&self, r: Rank) -> std::borrow::Cow<'_, RankProgram> {
            std::borrow::Cow::Borrowed(&self.progs[r as usize])
        }
        fn phase_names(&self) -> Vec<&'static str> {
            vec!["all"]
        }
    }

    fn grid(n: usize) -> ProcGrid {
        ProcGrid::new(Machine::custom("t", 1, 1, 1, n))
    }

    fn lint(f: &Fixed) -> LintReport {
        lint_schedule("test", f, &grid(f.progs.len()), &LintConfig::default())
    }

    #[test]
    fn clean_sendrecv_pair_is_clean() {
        let progs = (0..2u32)
            .map(|me| {
                let peer = 1 - me;
                let mut b = ProgBuilder::new(Phase(0));
                b.sendrecv(
                    peer,
                    Block::new(SBUF, 0, 8),
                    0,
                    peer,
                    Block::new(RBUF, 0, 8),
                    0,
                );
                b.finish()
            })
            .collect();
        let r = lint(&Fixed { progs, bufsize: 8 });
        assert!(r.is_clean(), "{}", r.render_text());
    }

    #[test]
    fn malformed_schedule_short_circuits() {
        let mut b = ProgBuilder::new(Phase(0));
        b.send(1, Block::new(SBUF, 0, 8), 0); // no matching recv
        let f = Fixed {
            progs: vec![b.finish(), RankProgram::default()],
            bufsize: 8,
        };
        let r = lint(&f);
        assert_eq!(r.diags.len(), 1);
        assert!(r.has(Code::Malformed));
        assert_eq!(r.errors(), 1);
    }

    #[test]
    fn head_to_head_sends_flag_deadlock() {
        let progs = (0..2u32)
            .map(|me| {
                let peer = 1 - me;
                let mut b = ProgBuilder::new(Phase(0));
                b.send(peer, Block::new(SBUF, 0, 8), 0);
                b.recv(peer, Block::new(RBUF, 0, 8), 0);
                b.finish()
            })
            .collect();
        let f = Fixed { progs, bufsize: 8 };
        let r = lint(&f);
        assert!(r.has(Code::Deadlock), "{}", r.render_text());
        let d = r.diags.iter().find(|d| d.code == Code::Deadlock).unwrap();
        assert_eq!(d.notes.len(), 2, "chain covers both waits");
        // Under eager semantics the same schedule is safe.
        let cfg = LintConfig {
            rendezvous: false,
            ..Default::default()
        };
        let r = lint_schedule("eager", &f, &grid(2), &cfg);
        assert!(!r.has(Code::Deadlock));
    }

    #[test]
    fn copy_into_pending_send_source_flags_unstable_send() {
        let mut b0 = ProgBuilder::new(Phase(0));
        let s = b0.isend(1, Block::new(SBUF, 0, 8), 0);
        b0.copy(Block::new(RBUF, 0, 4), Block::new(SBUF, 2, 4));
        b0.waitall(s, 1);
        let mut b1 = ProgBuilder::new(Phase(0));
        b1.recv(0, Block::new(RBUF, 0, 8), 0);
        let f = Fixed {
            progs: vec![b0.finish(), b1.finish()],
            bufsize: 8,
        };
        let r = lint(&f);
        assert!(r.has(Code::UnstableSend), "{}", r.render_text());
    }

    #[test]
    fn overlapping_pending_recvs_flag_recv_race() {
        let mut b0 = ProgBuilder::new(Phase(0));
        let first = b0.irecv(1, Block::new(RBUF, 0, 8), 0);
        b0.irecv(1, Block::new(RBUF, 4, 8), 1);
        b0.waitall(first, 2);
        let mut b1 = ProgBuilder::new(Phase(0));
        b1.send(0, Block::new(SBUF, 0, 8), 0);
        b1.send(0, Block::new(SBUF, 0, 8), 1);
        let f = Fixed {
            progs: vec![b0.finish(), b1.finish()],
            bufsize: 16,
        };
        let r = lint(&f);
        assert!(r.has(Code::RecvRace), "{}", r.render_text());
    }

    #[test]
    fn same_channel_concurrency_flags_order_warning() {
        let mut b0 = ProgBuilder::new(Phase(0));
        let s = b0.isend(1, Block::new(SBUF, 0, 4), 3);
        b0.isend(1, Block::new(SBUF, 4, 4), 3);
        b0.waitall(s, 2);
        let mut b1 = ProgBuilder::new(Phase(0));
        let rr = b1.irecv(0, Block::new(RBUF, 0, 4), 3);
        b1.irecv(0, Block::new(RBUF, 4, 4), 3);
        b1.waitall(rr, 2);
        let f = Fixed {
            progs: vec![b0.finish(), b1.finish()],
            bufsize: 8,
        };
        let r = lint(&f);
        // Sender- and receiver-side findings, both warnings.
        assert_eq!(
            r.diags
                .iter()
                .filter(|d| d.code == Code::ChannelOrder)
                .count(),
            2,
            "{}",
            r.render_text()
        );
        assert_eq!(r.errors(), 0);
    }

    #[test]
    fn send_window_pressure_flags_once_per_destination() {
        let n = 6u32;
        let mut b0 = ProgBuilder::new(Phase(0));
        let first = b0.req_mark();
        for k in 0..n {
            b0.isend(1, Block::new(SBUF, k as Bytes * 4, 4), k);
        }
        b0.waitall(first, n);
        let mut b1 = ProgBuilder::new(Phase(0));
        let firstr = b1.req_mark();
        for k in 0..n {
            b1.irecv(0, Block::new(RBUF, k as Bytes * 4, 4), k);
        }
        b1.waitall(firstr, n);
        let f = Fixed {
            progs: vec![b0.finish(), b1.finish()],
            bufsize: 24,
        };
        let cfg = LintConfig {
            send_window: 4,
            ..Default::default()
        };
        let r = lint_schedule("burst", &f, &grid(2), &cfg);
        assert_eq!(
            r.diags
                .iter()
                .filter(|d| d.code == Code::SendWindow)
                .count(),
            1,
            "{}",
            r.render_text()
        );
        // Default window (32) keeps the same schedule clean.
        let r = lint(&f);
        assert!(!r.has(Code::SendWindow));
    }

    #[test]
    fn read_of_pending_recv_destination_flags_unstable_read() {
        let mut b0 = ProgBuilder::new(Phase(0));
        let rr = b0.irecv(1, Block::new(RBUF, 0, 8), 0);
        b0.copy(Block::new(RBUF, 4, 4), Block::new(SBUF, 0, 4));
        b0.waitall(rr, 1);
        let mut b1 = ProgBuilder::new(Phase(0));
        b1.send(0, Block::new(SBUF, 0, 8), 0);
        let f = Fixed {
            progs: vec![b0.finish(), b1.finish()],
            bufsize: 8,
        };
        let r = lint(&f);
        assert!(r.has(Code::UnstableRead), "{}", r.render_text());
    }
}
