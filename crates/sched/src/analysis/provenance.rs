//! Semantic dataflow prover: symbolic byte-interval provenance.
//!
//! The validator proves a schedule is well-formed and the lint passes prove
//! it is safe to execute; neither proves it computes the *right thing*. The
//! prover closes that gap statically: it executes the schedule symbolically,
//! propagating for every byte of every buffer *where that byte originally
//! came from* — a `(source rank, source send-buffer offset)` pair — through
//! every copy, send, receive, and wait. The final symbolic state is then
//! checked against the collective's declared semantics ([`SemanticsSpec`]).
//!
//! Provenance is stored as maximal linear segments: a [`Seg`] says "bytes
//! `[start, start+len)` of this buffer hold bytes `[off, off+len)` of rank
//! `src`'s send buffer". Copies and transfers act linearly on segments, so
//! an n-rank schedule stays O(segments) regardless of byte counts — block
//! sizes of 4 B and 4 MiB prove in identical time.
//!
//! Every per-op lookup is a binary search over a sorted structure: a copy,
//! send or delivery touching `k` of a buffer's `s` segments costs
//! O(log s + k) plus one splice, and the same holds for the spec rows the
//! clobber check consults and the liveness sets of the backward pass
//! (vectors indexed by `[rank][buf]` and `[rank][op]`). `SegMap` is the one
//! provenance representation; there is no block-granular fast path.
//!
//! Four defect classes come out of one symbolic run:
//!
//! * **wrong-source byte** — a destination interval is written, but with
//!   bytes from the wrong rank or the wrong offset (lint code `A2A007`);
//! * **missing byte** — a destination interval is never written, or ends
//!   up holding symbolically undefined bytes (`A2A008`);
//! * **clobbered byte** — an expected-destination byte that already held
//!   its correct final value is overwritten with different provenance
//!   before the schedule ends (`A2A009`), caught at the clobbering op;
//! * **redundant transfer** — a message or copy moves bytes that no
//!   declared output transitively depends on (`A2A010`), found by a
//!   backward liveness pass over the recorded event sequence.
//!
//! The symbolic run models the same semantics as the data executor and the
//! simulator: eager sends snapshot their source at post time, and a
//! delivery becomes visible at the first `WaitAll` covering its receive.
//! Which send feeds which receive, and an order to visit the ops in, both
//! come from the [`Matched`] table — the prover keeps no matching or
//! scheduling state of its own. A deadlocking schedule is the deadlock
//! lint's department: the walk stops early ([`ProveReport::stuck`]) and
//! whatever bytes never arrived are reported missing.

use std::ops::Range;

use a2a_topo::Rank;

use crate::ir::{Block, Bytes, Op};
use crate::validate::Matched;

// ------------------------------------------------------------ the contract

/// One expected destination interval: bytes `[dst_off, dst_off+len)` of the
/// destination rank's receive buffer must equal bytes
/// `[src_off, src_off+len)` of rank `src`'s send buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpectSeg {
    pub dst_off: Bytes,
    pub len: Bytes,
    pub src: Rank,
    pub src_off: Bytes,
}

/// The declared semantics of a collective: for every rank, which send-buffer
/// bytes of which peers must land where in its receive buffer.
#[derive(Debug, Clone)]
pub struct SemanticsSpec {
    /// Collective name, for report labels (`"alltoall"`, ...).
    pub name: &'static str,
    /// `expected[rank]` — that rank's output contract, sorted by `dst_off`,
    /// non-overlapping, zero-length entries omitted.
    pub expected: Vec<Vec<ExpectSeg>>,
}

impl SemanticsSpec {
    /// Uniform all-to-all: rank `r`'s receive block `i` (at `i*block`) is
    /// rank `i`'s send block `r` (at `r*block`).
    pub fn alltoall(n: usize, block: Bytes) -> Self {
        let expected = (0..n as Rank)
            .map(|r| {
                (0..n as Rank)
                    .filter(|_| block > 0)
                    .map(|i| ExpectSeg {
                        dst_off: i as Bytes * block,
                        len: block,
                        src: i,
                        src_off: r as Bytes * block,
                    })
                    .collect()
            })
            .collect();
        SemanticsSpec {
            name: "alltoall",
            expected,
        }
    }

    /// Variable all-to-all: `counts(src, dst)` bytes from each source, laid
    /// out by destination in send buffers and by source in receive buffers
    /// (the `MPI_Alltoallv` contract). Zero-count pairs expect nothing.
    pub fn alltoallv(n: usize, counts: &dyn Fn(Rank, Rank) -> Bytes) -> Self {
        // `src_off[i]`: where source `i`'s block for the current
        // destination starts, a running prefix over destinations.
        let mut src_off: Vec<Bytes> = vec![0; n];
        let expected = (0..n as Rank)
            .map(|r| {
                let mut dst_off = 0;
                let mut segs = Vec::new();
                for (i, src_off) in (0..n as Rank).zip(&mut src_off) {
                    let len = counts(i, r);
                    if len > 0 {
                        segs.push(ExpectSeg {
                            dst_off,
                            len,
                            src: i,
                            src_off: *src_off,
                        });
                    }
                    dst_off += len;
                    *src_off += len;
                }
                segs
            })
            .collect();
        SemanticsSpec {
            name: "alltoallv",
            expected,
        }
    }

    /// Allgather: every rank's receive block `j` (at `j*block`) is rank
    /// `j`'s contribution, i.e. its send buffer `[0, block)`.
    pub fn allgather(n: usize, block: Bytes) -> Self {
        let expected = (0..n as Rank)
            .map(|_| {
                (0..n as Rank)
                    .filter(|_| block > 0)
                    .map(|j| ExpectSeg {
                        dst_off: j as Bytes * block,
                        len: block,
                        src: j,
                        src_off: 0,
                    })
                    .collect()
            })
            .collect();
        SemanticsSpec {
            name: "allgather",
            expected,
        }
    }

    /// Broadcast: every rank's receive buffer `[0, len)` is the root's send
    /// buffer `[0, len)`.
    pub fn bcast(n: usize, root: Rank, len: Bytes) -> Self {
        let expected = (0..n as Rank)
            .map(|_| {
                if len > 0 {
                    vec![ExpectSeg {
                        dst_off: 0,
                        len,
                        src: root,
                        src_off: 0,
                    }]
                } else {
                    Vec::new()
                }
            })
            .collect();
        SemanticsSpec {
            name: "bcast",
            expected,
        }
    }

    /// Total declared output bytes across all ranks.
    pub fn output_bytes(&self) -> Bytes {
        self.expected.iter().flatten().map(|e| e.len).sum()
    }
}

// ---------------------------------------------------------- provenance map

/// Linear provenance: byte `k` of a run holds byte `off + k` of rank
/// `src`'s send buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Prov {
    src: Rank,
    off: Bytes,
}

impl Prov {
    /// The alignment invariant: content at absolute position `at` matches
    /// expectation `(src, src_off)` anchored at `anchor` iff sources agree
    /// and both runs are shifted identically.
    fn aligned(self, at: Bytes, want_src: Rank, want_off: Bytes, anchor: Bytes) -> bool {
        self.src == want_src && self.off as i128 - at as i128 == want_off as i128 - anchor as i128
    }
}

/// Writer of a segment: the rank-local op index that produced it, or
/// [`INITIAL`] for pristine send-buffer content.
const INITIAL: usize = usize::MAX;

#[derive(Debug, Clone, Copy)]
struct Seg {
    start: Bytes,
    len: Bytes,
    /// `None` — symbolically undefined bytes.
    prov: Option<Prov>,
    writer: usize,
}

impl Seg {
    fn end(&self) -> Bytes {
        self.start + self.len
    }

    /// Provenance of the sub-run starting at absolute `at` (within self).
    fn prov_at(&self, at: Bytes) -> Option<Prov> {
        self.prov.map(|p| Prov {
            src: p.src,
            off: p.off + (at - self.start),
        })
    }
}

/// One buffer's provenance: sorted, non-overlapping segments; gaps are
/// undefined bytes.
#[derive(Debug, Clone, Default)]
struct SegMap {
    segs: Vec<Seg>,
}

/// A run of content relative to some block: bytes `[rel, rel+len)` carry
/// `prov` (or are undefined).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RelSeg {
    rel: Bytes,
    len: Bytes,
    prov: Option<Prov>,
}

impl SegMap {
    /// Index range of the segments overlapping `[start, end)`: sorted
    /// disjoint segments have sorted ends, so both bounds are binary searches.
    fn span(&self, start: Bytes, end: Bytes) -> Range<usize> {
        let lo = self.segs.partition_point(|s| s.end() <= start);
        lo..lo + self.segs[lo..].partition_point(|s| s.start < end)
    }

    /// Overwrite `[block.off, block.end())` with `content` (sorted nonempty
    /// relative runs covering exactly `[0, block.len)`, as [`SegMap::read`]
    /// returns them), attributed to `writer`: the overlapped span becomes
    /// its clipped boundary pieces around the new runs, in one splice.
    fn write(&mut self, block: Block, content: &[RelSeg], writer: usize) {
        if block.len == 0 {
            return;
        }
        let (start, end) = (block.off, block.end());
        let span = self.span(start, end);
        let (mut head, mut tail) = (None, None);
        if !span.is_empty() {
            let (first, last) = (self.segs[span.start], self.segs[span.end - 1]);
            head = (first.start < start).then(|| Seg {
                len: start - first.start,
                ..first
            });
            tail = (last.end() > end).then(|| Seg {
                start: end,
                len: last.end() - end,
                prov: last.prov_at(end),
                ..last
            });
        }
        let runs = content.iter().map(|c| Seg {
            start: start + c.rel,
            len: c.len,
            prov: c.prov,
            writer,
        });
        self.segs
            .splice(span, head.into_iter().chain(runs).chain(tail));
    }

    /// Append a snapshot of `[block.off, block.end())` to `out` as relative
    /// runs; gaps come back as undefined runs, so the appended runs always
    /// cover `[0, block.len)`.
    fn read(&self, block: Block, out: &mut Vec<RelSeg>) {
        let (start, end) = (block.off, block.end());
        let mut cursor = start;
        for s in &self.segs[self.span(start, end)] {
            let a = s.start.max(cursor);
            let b = s.end().min(end);
            if a > cursor {
                out.push(RelSeg {
                    rel: cursor - start,
                    len: a - cursor,
                    prov: None,
                });
            }
            if b > a {
                out.push(RelSeg {
                    rel: a - start,
                    len: b - a,
                    prov: s.prov_at(a),
                });
                cursor = b;
            }
        }
        if cursor < end {
            out.push(RelSeg {
                rel: cursor - start,
                len: end - cursor,
                prov: None,
            });
        }
    }

    /// Segments overlapping `[start, end)`, clipped, with their writers.
    fn overlapping(&self, start: Bytes, end: Bytes) -> impl Iterator<Item = Seg> + '_ {
        self.segs[self.span(start, end)].iter().map(move |s| {
            let a = s.start.max(start);
            let b = s.end().min(end);
            Seg {
                start: a,
                len: b - a,
                prov: s.prov_at(a),
                writer: s.writer,
            }
        })
    }
}

// ----------------------------------------------------------------- findings

/// Defect class found by the prover, mapped to stable lint codes by
/// `a2a-lint`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ProveIssue {
    /// `A2A007`: destination bytes written from the wrong rank/offset.
    WrongSource,
    /// `A2A008`: destination bytes never written (or written undefined).
    MissingByte,
    /// `A2A009`: correct destination bytes overwritten before the end.
    ClobberedByte,
    /// `A2A010`: bytes moved that no declared output depends on.
    RedundantTransfer,
}

/// One prover finding, anchored on the destination (or sending) rank and,
/// when known, the responsible op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProveFinding {
    pub issue: ProveIssue,
    pub rank: Rank,
    pub op: Option<usize>,
    pub message: String,
    pub note: Option<String>,
}

/// Outcome of one symbolic run.
#[derive(Debug, Clone, Default)]
pub struct ProveReport {
    pub findings: Vec<ProveFinding>,
    /// Declared output bytes checked against the final state.
    pub bytes_checked: Bytes,
    /// Messages symbolically transported.
    pub messages: usize,
    /// The walk stopped before every rank finished (a deadlock — the
    /// deadlock lint's finding); the final-state check still ran on the
    /// partial state.
    pub stuck: bool,
}

impl ProveReport {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings of one issue class.
    pub fn count(&self, issue: ProveIssue) -> usize {
        self.findings.iter().filter(|f| f.issue == issue).count()
    }
}

// ----------------------------------------------------------- the executor

/// Recorded dataflow event, in symbolic-execution order. Positions are
/// absolute within the named rank's buffer.
#[derive(Debug, Clone, Copy)]
enum Event {
    Copy {
        rank: Rank,
        op: usize,
        src: Block,
        dst: Block,
    },
    /// Message payload snapshot: read of `block` on the sender.
    Post {
        rank: Rank,
        op: usize,
        block: Block,
        to: Rank,
        tag: u32,
    },
    /// Message payload landing: write of `block` on the receiver, of the
    /// message posted at `send`.
    Deliver {
        rank: Rank,
        block: Block,
        send: (Rank, usize),
    },
}

/// Sorted, disjoint byte intervals (the backward-liveness working set).
#[derive(Debug, Clone, Default)]
struct IntervalSet {
    iv: Vec<(Bytes, Bytes)>,
}

impl IntervalSet {
    /// Add `[start, end)`, merging the run of intervals it overlaps or touches
    /// (sorted disjoint intervals have sorted ends: two binary searches).
    fn add(&mut self, start: Bytes, end: Bytes) {
        if start >= end {
            return;
        }
        let lo = self.iv.partition_point(|&(_, b)| b < start);
        let span = lo..lo + self.iv[lo..].partition_point(|&(a, _)| a <= end);
        let merged = if span.is_empty() {
            (start, end)
        } else {
            (
                self.iv[span.start].0.min(start),
                self.iv[span.end - 1].1.max(end),
            )
        };
        self.iv.splice(span, [merged]);
    }

    /// Intersect with `[start, end)` and *remove* the intersection,
    /// appending it to `out`.
    fn take(&mut self, start: Bytes, end: Bytes, out: &mut Vec<(Bytes, Bytes)>) {
        let lo = self.iv.partition_point(|&(_, b)| b <= start);
        let span = lo..lo + self.iv[lo..].partition_point(|&(a, _)| a < end);
        let (mut head, mut tail) = (None, None);
        if !span.is_empty() {
            let (first, last) = (self.iv[span.start], self.iv[span.end - 1]);
            head = (first.0 < start).then_some((first.0, start));
            tail = (last.1 > end).then_some((end, last.1));
        }
        out.extend(
            self.iv
                .splice(span, head.into_iter().chain(tail))
                .map(|(a, b)| (a.max(start), b.min(end))),
        );
    }
}

/// Symbolically execute `m` and check the final state against `spec`.
pub fn prove_schedule(m: &Matched<'_>, spec: &SemanticsSpec) -> ProveReport {
    let n = m.nranks();
    assert_eq!(
        spec.expected.len(),
        n,
        "spec covers {} ranks, schedule has {n}",
        spec.expected.len()
    );

    let mut report = ProveReport::default();

    // Per-(rank, buf) provenance. SBUF (buf 0) starts as identity; every
    // other buffer starts undefined.
    let mut maps: Vec<Vec<SegMap>> = (0..n as Rank)
        .map(|r| {
            m.buffers(r)
                .iter()
                .enumerate()
                .map(|(b, &size)| {
                    let mut map = SegMap::default();
                    if b == 0 && size > 0 {
                        map.segs.push(Seg {
                            start: 0,
                            len: size,
                            prov: Some(Prov { src: r, off: 0 }),
                            writer: INITIAL,
                        });
                    }
                    map
                })
                .collect()
        })
        .collect();
    // A send's payload, snapshotted when the walk visits it, is the runs
    // `arena[payloads[rank][op]]`. `runs` is scratch: one copy's content,
    // later one expected interval's final state.
    let mut arena: Vec<RelSeg> = Vec::new();
    let mut payloads: Vec<Vec<Range<usize>>> = (0..n as Rank)
        .map(|r| vec![0..0; m.prog(r).ops.len()])
        .collect();
    let mut runs: Vec<RelSeg> = Vec::new();
    // At most one event per op.
    let mut events: Vec<Event> =
        Vec::with_capacity((0..n as Rank).map(|r| m.prog(r).ops.len()).sum());

    let finished = m.walk(|rank, op| {
        let r = rank as usize;
        match m.prog(rank).ops[op].op {
            Op::Isend { to, block, tag, .. } => {
                let at = arena.len();
                maps[r][block.buf.0 as usize].read(block, &mut arena);
                payloads[r][op] = at..arena.len();
                events.push(Event::Post {
                    rank,
                    op,
                    block,
                    to,
                    tag,
                });
            }
            Op::Irecv { .. } => {}
            Op::Copy { src, dst } => {
                runs.clear();
                maps[r][src.buf.0 as usize].read(src, &mut runs);
                clobber_check(
                    &maps[r][dst.buf.0 as usize],
                    dst,
                    &runs,
                    rank,
                    op,
                    "copy",
                    &spec.expected[r],
                    &mut report.findings,
                );
                maps[r][dst.buf.0 as usize].write(dst, &runs, op);
                events.push(Event::Copy { rank, op, src, dst });
            }
            Op::WaitAll { .. } => {
                for (recv_op, send) in m.arrivals(rank, op) {
                    let Op::Irecv { block, .. } = m.prog(rank).ops[recv_op].op else {
                        unreachable!("arrivals are receives");
                    };
                    report.messages += 1;
                    let payload = &arena[payloads[send.0 as usize][send.1].clone()];
                    clobber_check(
                        &maps[r][block.buf.0 as usize],
                        block,
                        payload,
                        rank,
                        recv_op,
                        "delivery",
                        &spec.expected[r],
                        &mut report.findings,
                    );
                    maps[r][block.buf.0 as usize].write(block, payload, recv_op);
                    events.push(Event::Deliver { rank, block, send });
                }
            }
        }
    });
    report.stuck = !finished;

    // Final-state check: A2A007 (wrong source) and A2A008 (missing).
    // A rank without an RBUF reads it as all undefined.
    let no_rbuf = SegMap::default();
    for (r, map) in maps.iter().enumerate() {
        let rank = r as Rank;
        let rbuf = map.get(1).unwrap_or(&no_rbuf);
        for e in &spec.expected[r] {
            report.bytes_checked += e.len;
            runs.clear();
            rbuf.read(Block::new(crate::ir::RBUF, e.dst_off, e.len), &mut runs);
            for &run in &runs {
                let at = e.dst_off + run.rel;
                match run.prov {
                    None => report.findings.push(ProveFinding {
                        issue: ProveIssue::MissingByte,
                        rank,
                        op: None,
                        message: format!(
                            "rbuf[{}..{}) expects {} byte(s) from rank {} sbuf[{}..), \
                             but they were never written",
                            at,
                            at + run.len,
                            run.len,
                            e.src,
                            e.src_off + run.rel,
                        ),
                        note: None,
                    }),
                    Some(p) if p.aligned(at, e.src, e.src_off, e.dst_off) => {}
                    Some(p) => {
                        let writer = rbuf.overlapping(at, at + run.len).next().map(|s| s.writer);
                        report.findings.push(ProveFinding {
                            issue: ProveIssue::WrongSource,
                            rank,
                            op: writer.filter(|&w| w != INITIAL),
                            message: format!(
                                "rbuf[{}..{}) holds rank {} sbuf[{}..{}), \
                                 expected rank {} sbuf[{}..{})",
                                at,
                                at + run.len,
                                p.src,
                                p.off,
                                p.off + run.len,
                                e.src,
                                e.src_off + run.rel,
                                e.src_off + run.rel + run.len,
                            ),
                            note: writer
                                .filter(|&w| w != INITIAL)
                                .map(|w| format!("last written by op {w}")),
                        });
                    }
                }
            }
        }
    }

    // Payloads are dead past the walk; free them before the liveness tables.
    drop((arena, payloads));

    // Backward liveness: A2A010 (redundant transfers). Seed the needed set
    // with the declared outputs and walk the event list in reverse; a
    // message or copy none of whose bytes are needed moved dead data.
    // `needed[rank][buf]`; RBUF's row exists even on a rank without one.
    let mut needed: Vec<Vec<IntervalSet>> = (0..n as Rank)
        .map(|r| vec![IntervalSet::default(); m.buffers(r).len().max(2)])
        .collect();
    for (set, segs) in needed.iter_mut().zip(&spec.expected) {
        for e in segs {
            set[1].add(e.dst_off, e.dst_off + e.len);
        }
    }
    // `live[msg_need[rank][op]]`: the payload-relative bytes of a send that
    // a later-visited delivery needs. A copy's useful bytes are appended to
    // `live` and dropped again.
    let mut live: Vec<(Bytes, Bytes)> = Vec::new();
    let mut msg_need: Vec<Vec<Range<usize>>> = (0..n as Rank)
        .map(|r| vec![0..0; m.prog(r).ops.len()])
        .collect();
    for ev in events.iter().rev() {
        let at = live.len();
        match *ev {
            Event::Deliver { rank, block, send } => {
                needed[rank as usize][block.buf.0 as usize].take(block.off, block.end(), &mut live);
                // Translate to payload-relative intervals for the post.
                for (a, b) in &mut live[at..] {
                    (*a, *b) = (*a - block.off, *b - block.off);
                }
                msg_need[send.0 as usize][send.1] = at..live.len();
            }
            Event::Post {
                rank,
                op,
                block,
                to,
                tag,
            } => {
                let rel = &live[msg_need[rank as usize][op].clone()];
                if rel.is_empty() {
                    report.findings.push(ProveFinding {
                        issue: ProveIssue::RedundantTransfer,
                        rank,
                        op: Some(op),
                        message: format!(
                            "message of {} byte(s) to rank {to} (tag {tag}) moves bytes \
                             no declared output depends on",
                            block.len,
                        ),
                        note: None,
                    });
                } else {
                    let set = &mut needed[rank as usize][block.buf.0 as usize];
                    for &(a, b) in rel {
                        set.add(block.off + a, block.off + b);
                    }
                }
            }
            Event::Copy { rank, op, src, dst } => {
                needed[rank as usize][dst.buf.0 as usize].take(dst.off, dst.end(), &mut live);
                if live.len() == at {
                    report.findings.push(ProveFinding {
                        issue: ProveIssue::RedundantTransfer,
                        rank,
                        op: Some(op),
                        message: format!(
                            "copy of {} byte(s) buf{}[{}..{}) -> buf{}[{}..{}) moves \
                             bytes no declared output depends on",
                            dst.len,
                            src.buf.0,
                            src.off,
                            src.end(),
                            dst.buf.0,
                            dst.off,
                            dst.end(),
                        ),
                        note: None,
                    });
                } else {
                    let set = &mut needed[rank as usize][src.buf.0 as usize];
                    for (a, b) in live.drain(at..) {
                        set.add(src.off + (a - dst.off), src.off + (b - dst.off));
                    }
                }
            }
        }
    }

    report
}

/// Forward clobber check (`A2A009`): fire when a write into the expected
/// output buffer overwrites bytes that already hold their correct final
/// provenance with something different. Only RBUF (buf 1) carries declared
/// outputs, so other buffers are exempt.
#[allow(clippy::too_many_arguments)]
fn clobber_check(
    map: &SegMap,
    dst: Block,
    content: &[RelSeg],
    rank: Rank,
    op: usize,
    what: &str,
    expected: &[ExpectSeg],
    findings: &mut Vec<ProveFinding>,
) {
    if dst.buf.0 != 1 || dst.len == 0 {
        return;
    }
    // `expected` is sorted and disjoint: only the run overlapping `dst`.
    let lo = expected.partition_point(|e| e.dst_off + e.len <= dst.off);
    for e in expected[lo..].iter().take_while(|e| e.dst_off < dst.end()) {
        let (a, b) = (e.dst_off.max(dst.off), (e.dst_off + e.len).min(dst.end()));
        if a >= b {
            continue;
        }
        for old in map.overlapping(a, b) {
            let Some(op_old) = old.prov else { continue };
            if !op_old.aligned(old.start, e.src, e.src_off, e.dst_off) {
                continue; // old bytes were not correct: plain overwrite
            }
            // Old bytes correct: is any covering new content different?
            // `content` runs are sorted and disjoint too.
            let mut clobbered: Option<(Bytes, Bytes)> = None;
            let first = content.partition_point(|c| dst.off + c.rel + c.len <= old.start);
            for c in content[first..]
                .iter()
                .take_while(|c| dst.off + c.rel < old.end())
            {
                let (ca, cb) = (dst.off + c.rel, dst.off + c.rel + c.len);
                let (ia, ib) = (ca.max(old.start), cb.min(old.end()));
                let same = c
                    .prov
                    .map(|p| {
                        Prov {
                            src: p.src,
                            off: p.off + (ia - ca),
                        }
                        .aligned(ia, e.src, e.src_off, e.dst_off)
                    })
                    .unwrap_or(false);
                if !same {
                    clobbered = Some(match clobbered {
                        Some((x, y)) => (x.min(ia), y.max(ib)),
                        None => (ia, ib),
                    });
                }
            }
            if let Some((x, y)) = clobbered {
                findings.push(ProveFinding {
                    issue: ProveIssue::ClobberedByte,
                    rank,
                    op: Some(op),
                    message: format!(
                        "{what} overwrites {} correct byte(s) of rbuf[{x}..{y}) \
                         (rank {} sbuf data) with different provenance before \
                         the schedule ends",
                        y - x,
                        e.src,
                    ),
                    note: old
                        .writer
                        .ne(&INITIAL)
                        .then(|| format!("correct bytes were written by op {}", old.writer)),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgBuilder;
    use crate::ir::{Phase, RankProgram, RBUF, SBUF};
    use crate::ScheduleSource;
    use a2a_testutil::{run_cases, Rng};
    use std::borrow::Cow;

    struct Fixed {
        progs: Vec<RankProgram>,
        buffers: Vec<Vec<Bytes>>,
    }

    impl ScheduleSource for Fixed {
        fn nranks(&self) -> usize {
            self.progs.len()
        }
        fn buffers(&self, r: Rank) -> Vec<Bytes> {
            self.buffers[r as usize].clone()
        }
        fn rank_program(&self, r: Rank) -> Cow<'_, RankProgram> {
            Cow::Borrowed(&self.progs[r as usize])
        }
        fn phase_names(&self) -> Vec<&'static str> {
            vec!["all"]
        }
    }

    fn prove(f: &Fixed, spec: &SemanticsSpec) -> ProveReport {
        prove_schedule(&Matched::build(f).expect("structurally valid"), spec)
    }

    /// Two ranks, 8-byte blocks: a correct direct all-to-all.
    fn swap_pair() -> Fixed {
        let progs = (0..2u32)
            .map(|me| {
                let peer = 1 - me;
                let mut b = ProgBuilder::new(Phase(0));
                b.copy(
                    Block::new(SBUF, me as Bytes * 8, 8),
                    Block::new(RBUF, me as Bytes * 8, 8),
                );
                b.sendrecv(
                    peer,
                    Block::new(SBUF, peer as Bytes * 8, 8),
                    1,
                    peer,
                    Block::new(RBUF, peer as Bytes * 8, 8),
                    1,
                );
                b.finish()
            })
            .collect();
        Fixed {
            progs,
            buffers: vec![vec![16, 16]; 2],
        }
    }

    #[test]
    fn correct_pair_proves_clean() {
        let spec = SemanticsSpec::alltoall(2, 8);
        let rep = prove(&swap_pair(), &spec);
        assert!(rep.is_clean(), "{:?}", rep.findings);
        assert_eq!(rep.bytes_checked, 32);
        assert_eq!(rep.messages, 2);
        assert!(!rep.stuck);
    }

    #[test]
    fn wrong_send_offset_is_wrong_source() {
        let mut f = swap_pair();
        // Rank 0 sends its *own* block instead of the peer's.
        for top in &mut f.progs[0].ops {
            if let Op::Isend { block, .. } = &mut top.op {
                block.off = 0;
            }
        }
        let rep = prove(&f, &SemanticsSpec::alltoall(2, 8));
        assert_eq!(rep.count(ProveIssue::WrongSource), 1, "{:?}", rep.findings);
        let w = &rep.findings[0];
        assert_eq!(w.rank, 1);
        assert!(w.message.contains("rank 0 sbuf[0..8)"), "{}", w.message);
    }

    #[test]
    fn dropped_copy_is_missing_byte() {
        let mut f = swap_pair();
        f.progs[0].ops.remove(0); // rank 0 never fills its self block
        let rep = prove(&f, &SemanticsSpec::alltoall(2, 8));
        assert_eq!(rep.count(ProveIssue::MissingByte), 1, "{:?}", rep.findings);
        assert_eq!(rep.findings[0].rank, 0);
    }

    #[test]
    fn late_overwrite_is_clobbered_byte() {
        let mut f = swap_pair();
        // After the exchange, rank 1 copies garbage over its correct block.
        let phase = f.progs[1].ops[0].phase;
        f.progs[1].ops.push(crate::ir::TimedOp {
            op: Op::Copy {
                src: Block::new(SBUF, 8, 8),
                dst: Block::new(RBUF, 0, 8),
            },
            phase,
        });
        let rep = prove(&f, &SemanticsSpec::alltoall(2, 8));
        assert!(
            rep.count(ProveIssue::ClobberedByte) >= 1,
            "{:?}",
            rep.findings
        );
        assert!(
            rep.count(ProveIssue::WrongSource) >= 1,
            "final state wrong too"
        );
    }

    #[test]
    fn dead_message_is_redundant_transfer() {
        let mut f = swap_pair();
        // Extra exchange into a scratch buffer nothing reads.
        f.buffers[1].push(8); // buf 2 on rank 1
        let p0 = &mut f.progs[0];
        let req = p0.n_reqs;
        p0.n_reqs += 1;
        let phase = p0.ops[0].phase;
        p0.ops.push(crate::ir::TimedOp {
            op: Op::Isend {
                to: 1,
                block: Block::new(SBUF, 0, 8),
                tag: 99,
                req,
            },
            phase,
        });
        p0.ops.push(crate::ir::TimedOp {
            op: Op::WaitAll {
                first_req: req,
                count: 1,
            },
            phase,
        });
        let p1 = &mut f.progs[1];
        let req = p1.n_reqs;
        p1.n_reqs += 1;
        p1.ops.push(crate::ir::TimedOp {
            op: Op::Irecv {
                from: 0,
                block: Block::new(crate::ir::TMP0, 0, 8),
                tag: 99,
                req,
            },
            phase,
        });
        p1.ops.push(crate::ir::TimedOp {
            op: Op::WaitAll {
                first_req: req,
                count: 1,
            },
            phase,
        });
        let rep = prove(&f, &SemanticsSpec::alltoall(2, 8));
        assert_eq!(
            rep.count(ProveIssue::RedundantTransfer),
            1,
            "{:?}",
            rep.findings
        );
        assert_eq!(rep.count(ProveIssue::WrongSource), 0);
        assert_eq!(rep.count(ProveIssue::MissingByte), 0);
    }

    #[test]
    fn forwarding_through_temporaries_preserves_provenance() {
        // Rank 0 -> rank 1 (tmp) -> copy -> rank 1 rbuf: a gather-style hop.
        let mut b0 = ProgBuilder::new(Phase(0));
        b0.copy(Block::new(SBUF, 0, 4), Block::new(RBUF, 0, 4));
        b0.send(1, Block::new(SBUF, 4, 4), 0);
        let mut b1 = ProgBuilder::new(Phase(0));
        b1.recv(0, Block::new(crate::ir::TMP0, 0, 4), 0);
        b1.copy(Block::new(crate::ir::TMP0, 0, 4), Block::new(RBUF, 0, 4));
        b1.copy(Block::new(SBUF, 4, 4), Block::new(RBUF, 4, 4));
        // Rank 0's rbuf block 1 comes from rank 1.
        let mut b0ops = b0.finish();
        let mut b1ops = b1.finish();
        {
            // rank 1 sends its block 0 to rank 0
            let req = b1ops.n_reqs;
            b1ops.n_reqs += 1;
            let phase = Phase(0);
            b1ops.ops.push(crate::ir::TimedOp {
                op: Op::Isend {
                    to: 0,
                    block: Block::new(SBUF, 0, 4),
                    tag: 1,
                    req,
                },
                phase,
            });
            b1ops.ops.push(crate::ir::TimedOp {
                op: Op::WaitAll {
                    first_req: req,
                    count: 1,
                },
                phase,
            });
            let req = b0ops.n_reqs;
            b0ops.n_reqs += 1;
            b0ops.ops.push(crate::ir::TimedOp {
                op: Op::Irecv {
                    from: 1,
                    block: Block::new(RBUF, 4, 4),
                    tag: 1,
                    req,
                },
                phase,
            });
            b0ops.ops.push(crate::ir::TimedOp {
                op: Op::WaitAll {
                    first_req: req,
                    count: 1,
                },
                phase,
            });
        }
        let f = Fixed {
            progs: vec![b0ops, b1ops],
            buffers: vec![vec![8, 8, 4], vec![8, 8, 4]],
        };
        let rep = prove(&f, &SemanticsSpec::alltoall(2, 4));
        assert!(rep.is_clean(), "{:?}", rep.findings);
    }

    #[test]
    fn empty_spec_rows_are_fine() {
        // A 2-rank alltoallv where rank 1 receives nothing.
        let counts = |s: Rank, d: Rank| -> Bytes {
            if d == 0 {
                4 + s as Bytes * 4
            } else {
                0
            }
        };
        let spec = SemanticsSpec::alltoallv(2, &counts);
        assert!(spec.expected[1].is_empty());
        assert_eq!(spec.expected[0].len(), 2);
        // rank 0: recv_off of src 1 is counts(0,0)=4
        assert_eq!(spec.expected[0][1].dst_off, 4);
        assert_eq!(spec.expected[0][1].len, 8);

        // A lumpy 7-rank matrix with zero rows, columns and cells: the
        // running prefix gives the spec the per-pair sum over `0..dst` does.
        let lumpy = |s: Rank, d: Rank| -> Bytes {
            let c = (s as Bytes * 7 + d as Bytes * 3) % 11;
            if s == 2 || d == 4 || c.is_multiple_of(3) {
                0
            } else {
                c * 4
            }
        };
        let n = 7;
        let by_sum: Vec<Vec<ExpectSeg>> = (0..n as Rank)
            .map(|r| {
                let mut dst_off = 0;
                let mut segs = Vec::new();
                for i in 0..n as Rank {
                    let len = lumpy(i, r);
                    if len > 0 {
                        let src_off = (0..r).map(|j| lumpy(i, j)).sum();
                        segs.push(ExpectSeg {
                            dst_off,
                            len,
                            src: i,
                            src_off,
                        });
                    }
                    dst_off += len;
                }
                segs
            })
            .collect();
        let spec = SemanticsSpec::alltoallv(n, &lumpy);
        assert!(spec.expected[4].is_empty());
        assert!(spec.expected.iter().flatten().all(|e| e.src != 2));
        assert_eq!(spec.expected, by_sum);
    }

    #[test]
    fn allgather_and_bcast_specs() {
        let g = SemanticsSpec::allgather(3, 8);
        assert_eq!(g.expected[2][1].src, 1);
        assert_eq!(g.expected[2][1].src_off, 0);
        assert_eq!(g.expected[2][1].dst_off, 8);
        let b = SemanticsSpec::bcast(3, 1, 16);
        assert_eq!(b.expected[0][0].src, 1);
        assert_eq!(b.output_bytes(), 48);
    }

    #[test]
    fn segmap_carve_and_read_roundtrip() {
        let mut m = SegMap::default();
        m.write(
            Block::new(RBUF, 0, 16),
            &[RelSeg {
                rel: 0,
                len: 16,
                prov: Some(Prov { src: 3, off: 100 }),
            }],
            7,
        );
        // Overwrite the middle with undefined.
        m.write(
            Block::new(RBUF, 4, 8),
            &[RelSeg {
                rel: 0,
                len: 8,
                prov: None,
            }],
            9,
        );
        let mut runs = Vec::new();
        m.read(Block::new(RBUF, 0, 16), &mut runs);
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[0].prov, Some(Prov { src: 3, off: 100 }));
        assert_eq!(runs[1].prov, None);
        assert_eq!(runs[2].prov, Some(Prov { src: 3, off: 112 }));
        assert_eq!(runs[2].rel, 12);
    }

    // ------------------------------------------ search code vs per-byte model

    /// Model byte: `None` is a gap; `Some((prov, writer))` a covered byte
    /// whose provenance is `(src, off)` or undefined.
    type ModelByte = Option<(Option<(Rank, Bytes)>, usize)>;

    const MODEL_LEN: Bytes = 48;

    /// One random map operation: a write of `block` with `content`, or a
    /// probe (`read` and `overlapping`) of `[start, end)`.
    #[derive(Debug, Clone)]
    enum MapOp {
        Write { block: Block, content: Vec<RelSeg> },
        Probe { start: Bytes, end: Bytes },
    }

    /// A block inside the model buffer; `inside` is `Some((s, e))` to draw
    /// it strictly inside `[s, e)` when that has room.
    fn model_block(rng: &mut Rng, inside: Option<(Bytes, Bytes)>) -> Block {
        let (lo, hi) = match inside {
            Some((s, e)) if e - s >= 3 => (s + 1, e - 1),
            _ => (0, MODEL_LEN),
        };
        let off = rng.range_u64(lo, hi);
        Block::new(RBUF, off, rng.range_u64(1, hi - off + 1))
    }

    /// Sorted nonempty runs covering `[0, len)`, each defined or not.
    fn model_content(rng: &mut Rng, len: Bytes) -> Vec<RelSeg> {
        let mut runs = Vec::new();
        let mut rel = 0;
        while rel < len {
            let run = rng.range_u64(1, len - rel + 1);
            let prov = (!rng.chance(1, 4)).then(|| Prov {
                src: rng.range_u64(0, 3) as Rank,
                off: rng.range_u64(0, 100),
            });
            runs.push(RelSeg {
                rel,
                len: run,
                prov,
            });
            rel += run;
        }
        runs
    }

    fn byte_prov(prov: Option<Prov>, k: Bytes) -> Option<(Rank, Bytes)> {
        prov.map(|p| (p.src, p.off + k))
    }

    /// Apply `ops` to a `SegMap` and to the per-byte model, checking every
    /// probe and the map's invariant after every op. Returns how many writes
    /// landed strictly inside one existing segment.
    fn check_segmap(ops: &[MapOp]) -> Result<usize, String> {
        let mut map = SegMap::default();
        let mut model: Vec<ModelByte> = vec![None; MODEL_LEN as usize];
        let mut splits = 0;
        for (w, op) in ops.iter().enumerate() {
            match op {
                MapOp::Write { block, content } => {
                    let (s, e) = (block.off, block.end());
                    splits += map.segs.iter().any(|g| g.start < s && g.end() > e) as usize;
                    map.write(*block, content, w);
                    for c in content {
                        for k in 0..c.len {
                            model[(s + c.rel + k) as usize] = Some((byte_prov(c.prov, k), w));
                        }
                    }
                }
                MapOp::Probe { start, end } => {
                    let mut runs = Vec::new();
                    map.read(Block::new(RBUF, *start, end - start), &mut runs);
                    let mut at = *start;
                    for run in &runs {
                        if run.len == 0 || *start + run.rel != at {
                            return Err(format!("read [{start}, {end}): bad runs {runs:?}"));
                        }
                        for k in 0..run.len {
                            let want = model[(at + k) as usize].and_then(|(p, _)| p);
                            if byte_prov(run.prov, k) != want {
                                return Err(format!(
                                    "read byte {}: {run:?}, model {want:?}",
                                    at + k
                                ));
                            }
                        }
                        at += run.len;
                    }
                    if at != *end {
                        return Err(format!("read [{start}, {end}) stops at {at}"));
                    }
                    let mut seen: Vec<ModelByte> = vec![None; MODEL_LEN as usize];
                    for g in map.overlapping(*start, *end) {
                        for k in 0..g.len {
                            seen[(g.start + k) as usize] = Some((byte_prov(g.prov, k), g.writer));
                        }
                    }
                    if seen[*start as usize..*end as usize] != model[*start as usize..*end as usize]
                    {
                        return Err(format!(
                            "overlapping [{start}, {end}) disagrees with the model"
                        ));
                    }
                }
            }
            let sorted = map.segs.windows(2).all(|p| p[0].end() <= p[1].start);
            if !sorted || map.segs.iter().any(|g| g.len == 0) {
                return Err(format!(
                    "after op {w}: segments unsorted or empty: {:?}",
                    map.segs
                ));
            }
        }
        Ok(splits)
    }

    #[test]
    fn segmap_search_agrees_with_per_byte_model() {
        let mut splits = 0;
        run_cases(
            "segmap_search_agrees_with_per_byte_model",
            200,
            |rng| {
                let mut segs: Vec<(Bytes, Bytes)> = Vec::new();
                (0..rng.range_usize(1, 24))
                    .map(|_| {
                        if rng.chance(1, 3) {
                            let b = model_block(rng, None);
                            return MapOp::Probe {
                                start: b.off,
                                end: b.end(),
                            };
                        }
                        // Half the writes aim strictly inside an earlier one.
                        let inside =
                            (!segs.is_empty() && rng.chance(1, 2)).then(|| *rng.pick(&segs));
                        let block = model_block(rng, inside);
                        segs.push((block.off, block.end()));
                        let content = model_content(rng, block.len);
                        MapOp::Write { block, content }
                    })
                    .collect::<Vec<_>>()
            },
            |ops| check_segmap(ops).map(|n| splits += n),
        );
        assert!(splits > 0, "no write split a segment in two");
    }

    #[test]
    fn one_write_inside_one_segment_splits_it() {
        let whole = [RelSeg {
            rel: 0,
            len: 40,
            prov: Some(Prov { src: 1, off: 0 }),
        }];
        let ops = [
            MapOp::Write {
                block: Block::new(RBUF, 4, 40),
                content: whole.to_vec(),
            },
            MapOp::Write {
                block: Block::new(RBUF, 10, 6),
                content: vec![RelSeg {
                    rel: 0,
                    len: 6,
                    prov: None,
                }],
            },
            MapOp::Probe {
                start: 0,
                end: MODEL_LEN,
            },
        ];
        assert_eq!(check_segmap(&ops), Ok(1));
    }

    #[test]
    fn interval_set_agrees_with_per_byte_model() {
        run_cases(
            "interval_set_agrees_with_per_byte_model",
            200,
            |rng| {
                (0..rng.range_usize(1, 32))
                    .map(|_| {
                        let b = model_block(rng, None);
                        (rng.chance(1, 2), b.off, b.end())
                    })
                    .collect::<Vec<_>>()
            },
            |ops| {
                let mut set = IntervalSet::default();
                let mut model = vec![false; MODEL_LEN as usize];
                for &(add, a, b) in ops {
                    let want: Vec<bool> = model[a as usize..b as usize].to_vec();
                    if add {
                        set.add(a, b);
                        model[a as usize..b as usize].fill(true);
                    } else {
                        let mut got = vec![false; (b - a) as usize];
                        // `take` appends: the marker in front must survive.
                        let mut taken = vec![(0, 0)];
                        set.take(a, b, &mut taken);
                        let sorted = taken[1..].iter().all(|&(x, y)| x < y)
                            && taken[1..].windows(2).all(|p| p[0].1 < p[1].0);
                        if taken[0] != (0, 0) || !sorted {
                            return Err(format!("take({a}, {b}) returned {taken:?}"));
                        }
                        for &(x, y) in &taken[1..] {
                            got[(x - a) as usize..(y - a) as usize].fill(true);
                        }
                        if got != want {
                            return Err(format!("take({a}, {b}) returned {taken:?}"));
                        }
                        model[a as usize..b as usize].fill(false);
                    }
                    // Sorted, nonempty and never touching: one interval per run.
                    let canonical = set.iv.iter().all(|&(x, y)| x < y)
                        && set.iv.windows(2).all(|p| p[0].1 < p[1].0);
                    let mut bytes = vec![false; MODEL_LEN as usize];
                    for &(x, y) in &set.iv {
                        bytes[x as usize..y as usize].fill(true);
                    }
                    if !canonical || bytes != model {
                        return Err(format!("set {:?} after {add}({a}, {b})", set.iv));
                    }
                }
                Ok(())
            },
        );
    }
}
