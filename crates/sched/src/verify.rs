//! All-to-all transpose verification helpers.
//!
//! The all-to-all contract: with `n` ranks and `s` bytes per block, rank
//! `r`'s send buffer holds block `j` (bytes `j*s .. (j+1)*s`) destined for
//! rank `j`, and after the exchange rank `r`'s receive buffer holds at block
//! `i` the data rank `i` sent to `r`. We fill send buffers with a
//! position-dependent pseudo-random pattern so any misrouted, duplicated,
//! or shifted byte is detected.

use a2a_topo::Rank;

use crate::exec::{DataExecutor, ExecResult};
use crate::ir::Bytes;
use crate::ScheduleSource;

/// Deterministic pattern byte for (source rank, destination rank, byte
/// index). A small integer mix so neighbouring positions differ.
pub fn pattern_byte(src: Rank, dst: Rank, idx: u64) -> u8 {
    let mut x = (src as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((dst as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
        .wrapping_add(idx.wrapping_mul(0x1656_67B1_9E37_79F9));
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 29;
    x as u8
}

/// Fill `rank`'s send buffer for an `n`-rank, `s`-bytes-per-block all-to-all.
///
/// # Panics
/// Panics if the buffer is smaller than `n * s`.
pub fn fill_alltoall_sbuf(rank: Rank, n: usize, s: Bytes, buf: &mut [u8]) {
    assert!(
        buf.len() as Bytes >= n as Bytes * s,
        "send buffer too small"
    );
    for dst in 0..n {
        for k in 0..s {
            buf[(dst as Bytes * s + k) as usize] = pattern_byte(rank, dst as Rank, k);
        }
    }
}

/// Check `rank`'s receive buffer against the expected transpose. Returns a
/// description of the first mismatch, if any.
pub fn check_alltoall_rbuf(rank: Rank, n: usize, s: Bytes, buf: &[u8]) -> Result<(), String> {
    if (buf.len() as Bytes) < n as Bytes * s {
        return Err(format!(
            "rank {rank}: receive buffer has {} bytes, expected at least {}",
            buf.len(),
            n as Bytes * s
        ));
    }
    // One slice compare per block: a per-byte compare-and-branch loop runs
    // up to a fifth slower or faster depending on where it is linked.
    let mut want = vec![0u8; s as usize];
    for src in 0..n {
        let got = &buf[src * s as usize..][..s as usize];
        for (k, w) in want.iter_mut().enumerate() {
            *w = pattern_byte(src as Rank, rank, k as Bytes);
        }
        if got != want {
            let k = got.iter().zip(&want).position(|(g, w)| g != w);
            let k = k.expect("unequal blocks of one length differ at some byte");
            return Err(format!(
                "rank {rank}: block from {src} byte {k}: got {:#04x}, want {:#04x}",
                got[k], want[k]
            ));
        }
    }
    Ok(())
}

/// Execute `source` with the standard all-to-all fill and verify every
/// rank's receive buffer is the exact transpose.
pub fn run_and_verify(source: &dyn ScheduleSource, s: Bytes) -> Result<ExecResult, String> {
    let n = source.nranks();
    let res = DataExecutor::run(source, |r, buf| fill_alltoall_sbuf(r, n, s, buf))
        .map_err(|e| e.to_string())?;
    for (r, rbuf) in res.rbufs.iter().enumerate() {
        check_alltoall_rbuf(r as Rank, n, s, rbuf)?;
    }
    Ok(res)
}

/// Fill `rank`'s allgather contribution (`s` bytes).
pub fn fill_allgather_sbuf(rank: Rank, s: Bytes, buf: &mut [u8]) {
    assert!(buf.len() as Bytes >= s, "contribution buffer too small");
    for k in 0..s {
        buf[k as usize] = pattern_byte(rank, rank, k);
    }
}

/// Check an allgather result: block `j` must be rank `j`'s contribution.
pub fn check_allgather_rbuf(rank: Rank, n: usize, s: Bytes, buf: &[u8]) -> Result<(), String> {
    if (buf.len() as Bytes) < n as Bytes * s {
        return Err(format!(
            "rank {rank}: allgather buffer has {} bytes, expected {}",
            buf.len(),
            n as Bytes * s
        ));
    }
    for src in 0..n as Rank {
        for k in 0..s {
            let got = buf[(src as Bytes * s + k) as usize];
            let want = pattern_byte(src, src, k);
            if got != want {
                return Err(format!(
                    "rank {rank}: allgather block {src} byte {k}: got {got:#04x}, want {want:#04x}"
                ));
            }
        }
    }
    Ok(())
}

/// Execute an allgather schedule (each rank contributes `s` bytes) and
/// verify every rank assembled all contributions in rank order.
pub fn run_and_verify_allgather(
    source: &dyn ScheduleSource,
    s: Bytes,
) -> Result<ExecResult, String> {
    let n = source.nranks();
    let res = DataExecutor::run(source, |r, buf| fill_allgather_sbuf(r, s, buf))
        .map_err(|e| e.to_string())?;
    for (r, rbuf) in res.rbufs.iter().enumerate() {
        check_allgather_rbuf(r as Rank, n, s, rbuf)?;
    }
    Ok(res)
}

/// Execute a broadcast schedule (root `root` contributes `len` bytes in its
/// send buffer) and verify every rank's receive buffer holds the payload.
pub fn run_and_verify_bcast(
    source: &dyn ScheduleSource,
    root: Rank,
    len: Bytes,
) -> Result<ExecResult, String> {
    let res = DataExecutor::run(source, |r, buf| {
        if r == root {
            for k in 0..len {
                buf[k as usize] = pattern_byte(root, root, k);
            }
        }
    })
    .map_err(|e| e.to_string())?;
    for (r, rbuf) in res.rbufs.iter().enumerate() {
        if (rbuf.len() as Bytes) < len {
            return Err(format!("rank {r}: bcast buffer too small"));
        }
        for k in 0..len {
            let got = rbuf[k as usize];
            let want = pattern_byte(root, root, k);
            if got != want {
                return Err(format!(
                    "rank {r}: bcast byte {k}: got {got:#04x}, want {want:#04x}"
                ));
            }
        }
    }
    Ok(res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgBuilder;
    use crate::ir::{Block, Phase, RankProgram, RBUF, SBUF};

    #[test]
    fn pattern_distinguishes_positions() {
        // Not a strong hash test; just ensure the pattern is not constant
        // along each axis.
        assert_ne!(pattern_byte(0, 1, 0), pattern_byte(1, 0, 0));
        let k_differs = (1..64).any(|k| pattern_byte(2, 3, k) != pattern_byte(2, 3, 0));
        assert!(k_differs);
        let dst_differs = (1..64).any(|d| pattern_byte(2, d, 5) != pattern_byte(2, 0, 5));
        assert!(dst_differs);
    }

    #[test]
    fn fill_then_check_roundtrip() {
        // A buffer filled as rank r's *send* view, reinterpreted as every
        // destination's receive block, must check out.
        let (n, s) = (4usize, 8u64);
        let mut bufs: Vec<Vec<u8>> = (0..n)
            .map(|r| {
                let mut b = vec![0u8; (n as u64 * s) as usize];
                fill_alltoall_sbuf(r as Rank, n, s, &mut b);
                b
            })
            .collect();
        // Manually transpose.
        let mut rbufs = vec![vec![0u8; (n as u64 * s) as usize]; n];
        for src in 0..n {
            for dst in 0..n {
                let blk = &bufs[src][(dst as u64 * s) as usize..((dst as u64 + 1) * s) as usize];
                rbufs[dst][(src as u64 * s) as usize..((src as u64 + 1) * s) as usize]
                    .copy_from_slice(blk);
            }
        }
        for (r, rb) in rbufs.iter().enumerate() {
            check_alltoall_rbuf(r as Rank, n, s, rb).unwrap();
        }
        // Corrupt one byte and expect detection.
        bufs[0][0] ^= 1;
        rbufs[0][0] ^= 1;
        assert!(check_alltoall_rbuf(0, n, s, &rbufs[0]).is_err());
    }

    /// Hand-written 2-rank direct exchange to smoke-test run_and_verify.
    struct Direct2 {
        s: Bytes,
    }

    impl ScheduleSource for Direct2 {
        fn nranks(&self) -> usize {
            2
        }
        fn buffers(&self, _r: Rank) -> Vec<Bytes> {
            vec![2 * self.s, 2 * self.s]
        }
        fn build_rank(&self, r: Rank) -> RankProgram {
            let peer = 1 - r;
            let s = self.s;
            let mut b = ProgBuilder::new(Phase(0));
            b.copy(
                Block::new(SBUF, r as u64 * s, s),
                Block::new(RBUF, r as u64 * s, s),
            );
            b.sendrecv(
                peer,
                Block::new(SBUF, peer as u64 * s, s),
                0,
                peer,
                Block::new(RBUF, peer as u64 * s, s),
                0,
            );
            b.finish()
        }
        fn phase_names(&self) -> Vec<&'static str> {
            vec!["exchange"]
        }
    }

    #[test]
    fn run_and_verify_accepts_correct_schedule() {
        let res = run_and_verify(&Direct2 { s: 16 }, 16).unwrap();
        assert_eq!(res.messages, 2);
    }

    /// Broken variant: swaps its own send blocks (wrong routing).
    struct Broken2;

    impl ScheduleSource for Broken2 {
        fn nranks(&self) -> usize {
            2
        }
        fn buffers(&self, _r: Rank) -> Vec<Bytes> {
            vec![32, 32]
        }
        fn build_rank(&self, r: Rank) -> RankProgram {
            let peer = 1 - r;
            let mut b = ProgBuilder::new(Phase(0));
            // Bug: sends the block meant for *itself* to the peer.
            b.copy(
                Block::new(SBUF, peer as u64 * 16, 16),
                Block::new(RBUF, r as u64 * 16, 16),
            );
            b.sendrecv(
                peer,
                Block::new(SBUF, r as u64 * 16, 16),
                0,
                peer,
                Block::new(RBUF, peer as u64 * 16, 16),
                0,
            );
            b.finish()
        }
        fn phase_names(&self) -> Vec<&'static str> {
            vec!["exchange"]
        }
    }

    #[test]
    fn run_and_verify_rejects_misrouted_schedule() {
        assert!(run_and_verify(&Broken2, 16).is_err());
    }
}
