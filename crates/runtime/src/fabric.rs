//! The shared message fabric: per-rank mailboxes with `(source, tag)`
//! matching and FIFO delivery within a key, hardened for fault injection.
//!
//! # Store-once payloads and the buffer pool
//!
//! Every payload is written exactly once at send time, into a buffer drawn
//! from a fabric-wide free list (the **pool**). A pooled buffer is cleared
//! and fully rewritten on acquire, so no stale bytes from an earlier
//! message can leak into a later one. The payload lives in the channel's
//! `store` until it is delivered, at which point it is moved out, copied
//! into the receiver's posted block, and released back to the pool.
//!
//! What travels through the visible queue are **views**: `(seq, fault)`
//! descriptors that reference the stored payload. Faults perturb only the
//! views — a drop enqueues nothing, a duplicate enqueues the view twice,
//! corruption marks the view damaged — while the stored payload stays
//! pristine. Retransmission therefore re-enqueues a fresh view (re-rolling
//! the fault dice with an incremented attempt counter) without ever
//! copying payload bytes, and a recovered message is byte-identical to the
//! original send no matter how many faults it survived.
//!
//! Every packet carries a per-`(source, tag)` sequence number assigned
//! under the destination mailbox lock, so delivery order and fault fate
//! are deterministic regardless of thread interleaving.
//!
//! # Blocking, polling, and the watchdog
//!
//! All blocking waits are bounded slices feeding a watchdog: if the
//! world-wide progress counter stalls for longer than
//! [`WorldOptions::watchdog`], the waiter snapshots every rank's blocked
//! state and aborts the world with [`RuntimeError::WatchdogTimeout`].
//!
//! [`Fabric::recv`] / [`Fabric::recv_into`] block on one channel (a
//! `Condvar` slice per idle interval). Schedules are run instead by a
//! driver thread that polls its ranks with [`Fabric::poll_recv_into`]: a
//! driver registers as each of its ranks' driver, every send to such a
//! rank unparks it, and it parks with `park_timeout` only after a pass in
//! which nothing moved — the park token turns an arrival during that pass
//! into an immediate wake-up instead of a lost one.
//!
//! Mutex poisoning is recovered via [`PoisonError::into_inner`] — a
//! panicking peer must not cascade into a second panic here.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::Thread;
use std::time::{Duration, Instant};

use a2a_faults::FaultPlan;
use a2a_sched::MessageFault;

use crate::cancel::CancelToken;
use crate::error::{BlockedKind, BlockedOp, RuntimeError};

/// Resilience knobs for a [`Fabric`] / `ThreadWorld`.
#[derive(Clone)]
pub struct WorldOptions {
    /// Abort the world if no rank makes progress for this long.
    pub watchdog: Duration,
    /// Retransmit budget per lost packet (0 disables recovery: a lost
    /// packet becomes an immediate [`RuntimeError::MessageDropped`]).
    pub max_retransmits: u32,
    /// Base delay before the first retransmit; doubles per attempt
    /// (capped) so a flapping link is not hammered.
    pub backoff: Duration,
    /// Optional seeded fault plan perturbing every transfer.
    pub faults: Option<Arc<FaultPlan>>,
    /// Optional cooperative cancellation: when the token fires, the world
    /// aborts with [`RuntimeError::Cancelled`] through the same latch a
    /// failing rank uses, so every blocked rank unblocks promptly.
    pub cancel: Option<CancelToken>,
}

impl Default for WorldOptions {
    fn default() -> Self {
        WorldOptions {
            watchdog: Duration::from_secs(2),
            max_retransmits: 16,
            backoff: Duration::from_micros(50),
            faults: None,
            cancel: None,
        }
    }
}

impl WorldOptions {
    /// Shrink the watchdog deadline (tests probing hangs want it short).
    pub fn with_watchdog(mut self, deadline: Duration) -> Self {
        self.watchdog = deadline;
        self
    }

    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    pub fn with_max_retransmits(mut self, n: u32) -> Self {
        self.max_retransmits = n;
        self
    }

    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

type Key = (u32, u32); // (source rank, tag)

/// A queue entry: references the stored payload by `seq`; carries its
/// in-flight damage (the corruption hint) instead of damaged bytes.
struct View {
    seq: u64,
    corrupt: Option<u64>,
}

/// One `(source, tag)` stream into a mailbox.
#[derive(Default)]
struct Channel {
    /// Next sequence number the sender will assign.
    next_seq: u64,
    /// Receiver watermark: all seqs below this were consumed.
    delivered: u64,
    /// Retransmit attempts spent on the current head-of-line seq.
    head_attempts: u32,
    /// Visible, possibly fault-perturbed in-flight views.
    queue: VecDeque<View>,
    /// The single pristine copy of each sent-but-undelivered payload,
    /// in seq order. Moved out (and pooled) at delivery.
    store: VecDeque<(u64, Vec<u8>)>,
}

#[derive(Default)]
struct MailState {
    chans: HashMap<Key, Channel>,
}

struct Mailbox {
    state: Mutex<MailState>,
    arrived: Condvar,
    /// The thread driving this rank's schedule, unparked by every send and
    /// by an abort. A lock of its own, so an abort raised while a mailbox
    /// is held (a cancellation seen inside [`Fabric::recv`]) can take it.
    driver: Mutex<Option<Thread>>,
}

struct BarrierState {
    count: usize,
    generation: u64,
}

/// Recover a possibly poisoned lock: a peer that panicked while holding a
/// mailbox must not turn every other rank's error into a panic cascade.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Watches the fabric-wide progress counter from one blocked waiter.
pub(crate) struct ProgressWatch {
    last: u64,
    since: Instant,
}

impl ProgressWatch {
    pub(crate) fn new(f: &Fabric) -> Self {
        ProgressWatch {
            last: f.progress.load(Ordering::SeqCst),
            since: Instant::now(),
        }
    }

    /// `None` if the world progressed since the last check (timer resets);
    /// otherwise how long it has been stalled.
    pub(crate) fn stalled_for(&mut self, f: &Fabric) -> Option<Duration> {
        let now = f.progress.load(Ordering::SeqCst);
        if now != self.last {
            self.last = now;
            self.since = Instant::now();
            None
        } else {
            Some(self.since.elapsed())
        }
    }
}

/// Keep at most this many recycled buffers; beyond it, freed buffers are
/// simply dropped (the pool is a fast path, not an obligation).
const POOL_CAP: usize = 4096;

/// The world's communication state: one mailbox per rank, the payload
/// buffer pool, a barrier, the abort latch, and watchdog bookkeeping.
pub struct Fabric {
    boxes: Vec<Mailbox>,
    n: usize,
    opts: WorldOptions,
    /// Recycled payload buffers. Acquire = pop + clear + overwrite, so a
    /// reused buffer never exposes bytes from a previous message.
    pool: Mutex<Vec<Vec<u8>>>,
    /// Bumped on every send, delivery, retransmit, and barrier release;
    /// the watchdog fires when this stalls.
    progress: AtomicU64,
    aborted: AtomicBool,
    /// First error wins; rebroadcast verbatim to every rank.
    abort: Mutex<Option<RuntimeError>>,
    /// rank -> what it is currently blocked on (watchdog diagnostics).
    blocked: Mutex<HashMap<u32, BlockedOp>>,
    barrier: Mutex<BarrierState>,
    barrier_cv: Condvar,
}

impl Fabric {
    pub fn new(n: usize) -> Self {
        Self::with_options(n, WorldOptions::default())
    }

    pub fn with_options(n: usize, opts: WorldOptions) -> Self {
        Fabric {
            boxes: (0..n)
                .map(|_| Mailbox {
                    state: Mutex::new(MailState::default()),
                    arrived: Condvar::new(),
                    driver: Mutex::new(None),
                })
                .collect(),
            n,
            opts,
            pool: Mutex::new(Vec::new()),
            progress: AtomicU64::new(0),
            aborted: AtomicBool::new(false),
            abort: Mutex::new(None),
            blocked: Mutex::new(HashMap::new()),
            barrier: Mutex::new(BarrierState {
                count: 0,
                generation: 0,
            }),
            barrier_cv: Condvar::new(),
        }
    }

    pub fn size(&self) -> usize {
        self.n
    }

    pub fn options(&self) -> &WorldOptions {
        &self.opts
    }

    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.opts.faults.as_ref()
    }

    /// Latch `err` as the world's failure (first error wins), wake every
    /// blocked rank, and return the winning error.
    pub fn abort(&self, err: RuntimeError) -> RuntimeError {
        let winner = {
            let mut slot = lock_recover(&self.abort);
            if slot.is_none() {
                *slot = Some(err);
            }
            slot.clone().unwrap()
        };
        self.aborted.store(true, Ordering::SeqCst);
        // Waiters use bounded wait slices, so a lockless notify cannot
        // strand anyone: a missed wakeup is re-checked within one slice.
        // A parked driver keeps the unpark token if it is not parked yet.
        for b in &self.boxes {
            b.arrived.notify_all();
            if let Some(driver) = &*lock_recover(&b.driver) {
                driver.unpark();
            }
        }
        self.barrier_cv.notify_all();
        winner
    }

    /// The world's failure, if any rank has aborted. Also the single
    /// cancellation checkpoint: every blocking loop polls this, so a
    /// fired [`CancelToken`] latches [`RuntimeError::Cancelled`] here and
    /// tears the world down exactly like a failing rank would.
    pub fn abort_error(&self) -> Option<RuntimeError> {
        if self.aborted.load(Ordering::SeqCst) {
            return lock_recover(&self.abort).clone();
        }
        if let Some(token) = &self.opts.cancel {
            if token.is_cancelled() {
                return Some(self.abort(RuntimeError::Cancelled));
            }
        }
        None
    }

    fn bump_progress(&self) {
        self.progress.fetch_add(1, Ordering::SeqCst);
    }

    pub(crate) fn register_blocked(&self, op: BlockedOp) {
        lock_recover(&self.blocked).insert(op.rank, op);
    }

    pub(crate) fn unregister_blocked(&self, rank: u32) {
        lock_recover(&self.blocked).remove(&rank);
    }

    #[cfg(test)]
    pub(crate) fn is_blocked(&self, rank: u32) -> bool {
        lock_recover(&self.blocked).contains_key(&rank)
    }

    /// Snapshot every blocked rank and abort with `WatchdogTimeout`.
    pub(crate) fn fire_watchdog(&self) -> RuntimeError {
        let mut blocked: Vec<BlockedOp> = lock_recover(&self.blocked).values().copied().collect();
        blocked.sort_by_key(|b| b.rank);
        self.abort(RuntimeError::WatchdogTimeout {
            deadline: self.opts.watchdog,
            blocked,
        })
    }

    /// The wait slice between watchdog checks: fine-grained enough to
    /// notice aborts promptly, coarse enough not to spin.
    pub(crate) fn wait_slice(&self) -> Duration {
        (self.opts.watchdog / 8).max(Duration::from_millis(1))
    }

    /// Make the calling thread `rank`'s driver: every later send to `rank`
    /// unparks it.
    pub(crate) fn set_driver(&self, rank: u32) {
        *lock_recover(&self.boxes[rank as usize].driver) = Some(std::thread::current());
    }

    /// Pull a recycled buffer (or allocate) and fill it with `data`. The
    /// buffer is cleared first and then fully rewritten, so its previous
    /// contents are unobservable.
    fn acquire_buf(&self, data: &[u8]) -> Vec<u8> {
        let recycled = lock_recover(&self.pool).pop();
        let mut buf = recycled.unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(data);
        buf
    }

    /// Return a delivered payload's buffer to the pool.
    fn release_buf(&self, buf: Vec<u8>) {
        if buf.capacity() == 0 {
            return;
        }
        let mut pool = lock_recover(&self.pool);
        if pool.len() < POOL_CAP {
            pool.push(buf);
        }
    }

    /// Enqueue the views `fault` leaves visible (none for a drop, two for
    /// a duplicate). The stored payload is untouched.
    fn enqueue_views(chan: &mut Channel, seq: u64, fault: MessageFault) {
        if fault.drop {
            return;
        }
        if fault.duplicate {
            chan.queue.push_back(View {
                seq,
                corrupt: fault.corrupt,
            });
        }
        chan.queue.push_back(View {
            seq,
            corrupt: fault.corrupt,
        });
    }

    /// Buffered send: never blocks. Fails fast if the world has aborted.
    /// The payload is copied once, into a pooled buffer.
    pub fn send(&self, from: u32, to: u32, tag: u32, data: &[u8]) -> Result<(), RuntimeError> {
        if let Some(e) = self.abort_error() {
            return Err(e);
        }
        let payload = self.acquire_buf(data);
        let mbox = &self.boxes[to as usize];
        {
            let mut st = lock_recover(&mbox.state);
            let chan = st.chans.entry((from, tag)).or_default();
            let seq = chan.next_seq;
            chan.next_seq += 1;
            chan.store.push_back((seq, payload));
            let fault = match &self.opts.faults {
                Some(plan) => plan.message_fault_attempt(from, to, tag, seq, 0),
                None => MessageFault::clean(),
            };
            Self::enqueue_views(chan, seq, fault);
        }
        self.bump_progress();
        mbox.arrived.notify_all();
        if let Some(driver) = &*lock_recover(&mbox.driver) {
            driver.unpark();
        }
        Ok(())
    }

    /// Pop the head-of-line payload for `(from, tag)` if it is deliverable:
    /// stale duplicate views are discarded, and a corrupt-marked view is
    /// detectably damaged (discarded in favour of a clean duplicate or a
    /// retransmit) unless the payload is empty — there is nothing to flip
    /// in a zero-byte message. Returns `Ok(Some(payload))` on delivery
    /// (moved out of the store), `Ok(None)` if nothing deliverable yet,
    /// `Err` on a detected-corrupt view with retransmit disabled.
    fn take_deliverable(
        &self,
        chan: &mut Channel,
        from: u32,
        me: u32,
        tag: u32,
    ) -> Result<Option<Vec<u8>>, RuntimeError> {
        // Drop duplicates of already-delivered packets wherever they sit.
        chan.queue.retain(|v| v.seq >= chan.delivered);
        while let Some(idx) = chan.queue.iter().position(|v| v.seq == chan.delivered) {
            let view = chan.queue.remove(idx).expect("index just found");
            if view.corrupt.is_some() {
                let len = chan
                    .store
                    .iter()
                    .find(|(s, _)| *s == view.seq)
                    .map(|(_, d)| d.len())
                    .unwrap_or(0);
                if len > 0 {
                    if self.opts.max_retransmits == 0 {
                        return Err(RuntimeError::CorruptPayload {
                            from,
                            to: me,
                            tag,
                            seq: view.seq,
                        });
                    }
                    continue;
                }
            }
            let pos = chan
                .store
                .iter()
                .position(|(s, _)| *s == view.seq)
                .expect("undelivered view implies a stored payload");
            let (_, payload) = chan.store.remove(pos).expect("index just found");
            chan.delivered = view.seq + 1;
            chan.head_attempts = 0;
            return Ok(Some(payload));
        }
        Ok(None)
    }

    /// Whether the head-of-line seq was sent but has no surviving view:
    /// lost in flight, recoverable only by retransmitting from the store.
    fn head_lost(&self, chan: &Channel) -> bool {
        self.opts.faults.is_some() && chan.store.iter().any(|(s, _)| *s == chan.delivered)
    }

    /// Spend one retransmit on `chan`'s lost head: its seq, or the typed
    /// error once the budget is spent (or there is none).
    fn charge_retransmit(
        &self,
        chan: &mut Channel,
        from: u32,
        me: u32,
        tag: u32,
    ) -> Result<u64, RuntimeError> {
        let seq = chan.delivered;
        if self.opts.max_retransmits == 0 {
            return Err(RuntimeError::MessageDropped {
                from,
                to: me,
                tag,
                seq,
            });
        }
        if chan.head_attempts >= self.opts.max_retransmits {
            return Err(RuntimeError::RetriesExhausted {
                from,
                to: me,
                tag,
                seq,
                attempts: chan.head_attempts,
            });
        }
        chan.head_attempts += 1;
        Ok(seq)
    }

    /// Re-enqueue `chan`'s head-of-line view, re-rolling its fault for the
    /// current attempt.
    fn retransmit(&self, chan: &mut Channel, from: u32, me: u32, tag: u32) {
        let plan = self.opts.faults.as_ref().expect("lost implies faults");
        let seq = chan.delivered;
        let fault = plan.message_fault_attempt(from, me, tag, seq, chan.head_attempts);
        Self::enqueue_views(chan, seq, fault);
        self.bump_progress();
    }

    /// Copy a delivered `payload` into `out` and pool it. The lengths must
    /// agree; a disagreement is a typed [`RuntimeError::LengthMismatch`].
    fn deliver_into(
        &self,
        payload: Vec<u8>,
        me: u32,
        from: u32,
        tag: u32,
        out: &mut [u8],
    ) -> Result<(), RuntimeError> {
        if payload.len() != out.len() {
            return Err(RuntimeError::LengthMismatch {
                rank: me,
                from,
                tag,
                got: payload.len(),
                want: out.len(),
            });
        }
        out.copy_from_slice(&payload);
        self.release_buf(payload);
        Ok(())
    }

    /// Blocking matched receive with retransmit recovery and watchdog.
    /// `op_index` labels the schedule op for watchdog diagnostics.
    ///
    /// Lost or corrupted heads are retransmitted with exponential backoff,
    /// re-rolling the fault dice per attempt; a message not yet sent is
    /// awaited one wait slice at a time under the watchdog. Any failure
    /// aborts the world.
    pub fn recv(
        &self,
        me: u32,
        from: u32,
        tag: u32,
        op_index: Option<usize>,
    ) -> Result<Vec<u8>, RuntimeError> {
        let mbox = &self.boxes[me as usize];
        let mut st = lock_recover(&mbox.state);
        let mut watch = ProgressWatch::new(self);
        let mut registered = false;
        let result = loop {
            if let Some(e) = self.abort_error() {
                break Err(e);
            }
            let chan = st.chans.entry((from, tag)).or_default();
            match self.take_deliverable(chan, from, me, tag) {
                Err(e) => break Err(e),
                Ok(Some(payload)) => {
                    self.bump_progress();
                    break Ok(payload);
                }
                Ok(None) => {}
            }
            if self.head_lost(chan) {
                let seq = match self.charge_retransmit(chan, from, me, tag) {
                    Ok(seq) => seq,
                    Err(e) => break Err(e),
                };
                let delay = backoff_delay(self.opts.backoff, chan.head_attempts);
                st = mbox
                    .arrived
                    .wait_timeout(st, delay)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
                if let Some(e) = self.abort_error() {
                    break Err(e);
                }
                let chan = st.chans.entry((from, tag)).or_default();
                if chan.delivered == seq {
                    self.retransmit(chan, from, me, tag);
                }
                continue;
            }
            // Genuinely not sent yet: park with the watchdog running.
            if !registered {
                self.register_blocked(BlockedOp {
                    rank: me,
                    op_index,
                    kind: BlockedKind::Recv { peer: from, tag },
                });
                registered = true;
            }
            st = mbox
                .arrived
                .wait_timeout(st, self.wait_slice())
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            if let Some(stalled) = watch.stalled_for(self) {
                if stalled >= self.opts.watchdog {
                    drop(st);
                    let err = self.fire_watchdog();
                    self.unregister_blocked(me);
                    return Err(err);
                }
            }
        };
        drop(st);
        if registered {
            self.unregister_blocked(me);
        }
        // Local delivery failures are world failures: latch and
        // rebroadcast so peers do not hang waiting for this rank.
        result.map_err(|e| self.abort(e))
    }

    /// Blocking matched receive straight into `out`. The payload length
    /// must equal `out.len()`; a disagreement is a typed
    /// [`RuntimeError::LengthMismatch`] that aborts the world.
    pub fn recv_into(
        &self,
        me: u32,
        from: u32,
        tag: u32,
        op_index: Option<usize>,
        out: &mut [u8],
    ) -> Result<(), RuntimeError> {
        let payload = self.recv(me, from, tag, op_index)?;
        self.deliver_into(payload, me, from, tag, out)
            .map_err(|e| self.abort(e))
    }

    /// Non-blocking matched receive into `out`: `Ok(true)` on delivery,
    /// `Ok(false)` if nothing is deliverable yet. A lost or corrupted head
    /// is retransmitted immediately (no backoff — the caller's polling
    /// loop provides the pacing), bounded by the retransmit budget. Errors
    /// abort the world, exactly like [`Fabric::recv`].
    pub fn poll_recv_into(
        &self,
        me: u32,
        from: u32,
        tag: u32,
        out: &mut [u8],
    ) -> Result<bool, RuntimeError> {
        if let Some(e) = self.abort_error() {
            return Err(e);
        }
        let mbox = &self.boxes[me as usize];
        let mut st = lock_recover(&mbox.state);
        let chan = st.chans.entry((from, tag)).or_default();
        let res = self.poll_chan(chan, from, me, tag, out);
        drop(st);
        match res {
            Ok(delivered) => {
                if delivered {
                    self.bump_progress();
                    mbox.arrived.notify_all();
                }
                Ok(delivered)
            }
            Err(e) => Err(self.abort(e)),
        }
    }

    fn poll_chan(
        &self,
        chan: &mut Channel,
        from: u32,
        me: u32,
        tag: u32,
        out: &mut [u8],
    ) -> Result<bool, RuntimeError> {
        loop {
            if let Some(payload) = self.take_deliverable(chan, from, me, tag)? {
                return self
                    .deliver_into(payload, me, from, tag, out)
                    .map(|()| true);
            }
            if !self.head_lost(chan) {
                return Ok(false);
            }
            self.charge_retransmit(chan, from, me, tag)?;
            // Loop: the retransmitted view may be deliverable right away.
            self.retransmit(chan, from, me, tag);
        }
    }

    /// Non-blocking probe-and-receive. Never retransmits; a lost head
    /// simply reads as "nothing available yet".
    pub fn try_recv(&self, me: u32, from: u32, tag: u32) -> Option<Vec<u8>> {
        let mbox = &self.boxes[me as usize];
        let mut st = lock_recover(&mbox.state);
        let chan = st.chans.entry((from, tag)).or_default();
        self.take_deliverable(chan, from, me, tag)
            .unwrap_or_default()
    }

    /// World barrier: abort-aware (a dead or failed rank releases everyone
    /// with the world's error) and watchdog-guarded.
    pub fn barrier(&self, me: u32) -> Result<(), RuntimeError> {
        if let Some(e) = self.abort_error() {
            return Err(e);
        }
        let mut st = lock_recover(&self.barrier);
        let gen = st.generation;
        st.count += 1;
        if st.count == self.n {
            st.count = 0;
            st.generation += 1;
            drop(st);
            self.bump_progress();
            self.barrier_cv.notify_all();
            return Ok(());
        }
        let mut watch = ProgressWatch::new(self);
        self.register_blocked(BlockedOp {
            rank: me,
            op_index: None,
            kind: BlockedKind::Barrier,
        });
        let result = loop {
            let slice = self.wait_slice();
            let (g, _) = self
                .barrier_cv
                .wait_timeout(st, slice)
                .unwrap_or_else(PoisonError::into_inner);
            st = g;
            if st.generation != gen {
                break Ok(());
            }
            if let Some(e) = self.abort_error() {
                break Err(e);
            }
            if let Some(stalled) = watch.stalled_for(self) {
                if stalled >= self.opts.watchdog {
                    drop(st);
                    let err = self.fire_watchdog();
                    self.unregister_blocked(me);
                    return Err(err);
                }
            }
        };
        drop(st);
        self.unregister_blocked(me);
        result
    }

    /// Packets sent but never received (stale duplicates excluded): the
    /// world-teardown analogue of `ExecError::UnconsumedMessages`.
    pub fn undelivered(&self) -> usize {
        self.boxes
            .iter()
            .map(|b| {
                let st = lock_recover(&b.state);
                st.chans
                    .values()
                    .map(|c| c.queue.iter().filter(|v| v.seq >= c.delivered).count())
                    .sum::<usize>()
            })
            .sum()
    }
}

/// `backoff * 2^(attempt-1)`, capped so a long retry train cannot outlast
/// the watchdog.
fn backoff_delay(base: Duration, attempt: u32) -> Duration {
    let shift = (attempt.saturating_sub(1)).min(8);
    (base.saturating_mul(1u32 << shift)).min(Duration::from_millis(20))
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_faults::{FaultPlan, FaultSpec};

    fn recv_ok(f: &Fabric, me: u32, from: u32, tag: u32) -> Vec<u8> {
        f.recv(me, from, tag, None).unwrap()
    }

    #[test]
    fn fifo_per_key() {
        let f = Fabric::new(2);
        f.send(0, 1, 5, &[1]).unwrap();
        f.send(0, 1, 5, &[2]).unwrap();
        assert_eq!(recv_ok(&f, 1, 0, 5), vec![1]);
        assert_eq!(recv_ok(&f, 1, 0, 5), vec![2]);
    }

    #[test]
    fn tags_do_not_cross_match() {
        let f = Fabric::new(2);
        f.send(0, 1, 7, &[7]).unwrap();
        f.send(0, 1, 8, &[8]).unwrap();
        assert_eq!(recv_ok(&f, 1, 0, 8), vec![8]);
        assert_eq!(recv_ok(&f, 1, 0, 7), vec![7]);
    }

    #[test]
    fn try_recv_nonblocking() {
        let f = Fabric::new(2);
        assert!(f.try_recv(1, 0, 0).is_none());
        f.send(0, 1, 0, &[9]).unwrap();
        assert_eq!(f.try_recv(1, 0, 0), Some(vec![9]));
    }

    #[test]
    fn recv_wakes_on_late_send() {
        let f = Arc::new(Fabric::new(2));
        let f2 = Arc::clone(&f);
        let h = std::thread::spawn(move || f2.recv(1, 0, 3, None));
        std::thread::sleep(Duration::from_millis(20));
        f.send(0, 1, 3, &[42]).unwrap();
        assert_eq!(h.join().unwrap().unwrap(), vec![42]);
    }

    #[test]
    fn watchdog_fires_on_never_sent_message() {
        let opts = WorldOptions::default().with_watchdog(Duration::from_millis(60));
        let f = Fabric::with_options(2, opts);
        let err = f.recv(1, 0, 9, Some(4)).unwrap_err();
        match err {
            RuntimeError::WatchdogTimeout { blocked, .. } => {
                assert_eq!(blocked.len(), 1);
                assert_eq!(blocked[0].rank, 1);
                assert_eq!(blocked[0].op_index, Some(4));
                assert_eq!(blocked[0].kind, BlockedKind::Recv { peer: 0, tag: 9 });
            }
            other => panic!("expected WatchdogTimeout, got {other}"),
        }
        // The failure latched: subsequent sends fail fast.
        assert!(f.send(0, 1, 0, &[1]).is_err());
    }

    #[test]
    fn retransmit_recovers_heavy_drops() {
        let plan = Arc::new(FaultPlan::new(0xD20B, 2, FaultSpec::drops(0.5)));
        let f = Fabric::with_options(2, WorldOptions::default().with_faults(plan));
        for i in 0..100u8 {
            f.send(0, 1, 3, &[i, i.wrapping_mul(7)]).unwrap();
        }
        for i in 0..100u8 {
            assert_eq!(recv_ok(&f, 1, 0, 3), vec![i, i.wrapping_mul(7)]);
        }
        assert_eq!(f.undelivered(), 0);
    }

    #[test]
    fn drop_without_retransmit_is_a_typed_error() {
        let plan = Arc::new(FaultPlan::new(1, 2, FaultSpec::drops(1.0)));
        let f = Fabric::with_options(
            2,
            WorldOptions::default()
                .with_faults(plan)
                .with_max_retransmits(0),
        );
        f.send(0, 1, 0, &[1, 2, 3]).unwrap();
        let err = f.recv(1, 0, 0, None).unwrap_err();
        assert_eq!(
            err,
            RuntimeError::MessageDropped {
                from: 0,
                to: 1,
                tag: 0,
                seq: 0
            }
        );
    }

    #[test]
    fn corruption_recovered_by_retransmit() {
        let spec = FaultSpec::none().with_corrupt(0.5);
        let plan = Arc::new(FaultPlan::new(0xC0DE, 2, spec));
        let f = Fabric::with_options(2, WorldOptions::default().with_faults(plan));
        for i in 0..50u8 {
            f.send(0, 1, 1, &[i; 16]).unwrap();
        }
        for i in 0..50u8 {
            assert_eq!(recv_ok(&f, 1, 0, 1), vec![i; 16]);
        }
    }

    #[test]
    fn duplicates_are_discarded() {
        let spec = FaultSpec::none().with_duplicate(1.0);
        let plan = Arc::new(FaultPlan::new(7, 2, spec));
        let f = Fabric::with_options(2, WorldOptions::default().with_faults(plan));
        f.send(0, 1, 0, &[1]).unwrap();
        f.send(0, 1, 0, &[2]).unwrap();
        assert_eq!(recv_ok(&f, 1, 0, 0), vec![1]);
        assert_eq!(recv_ok(&f, 1, 0, 0), vec![2]);
        // The duplicate views are stale, not undelivered traffic.
        assert_eq!(f.undelivered(), 0);
    }

    #[test]
    fn abort_releases_blocked_barrier() {
        let f = Arc::new(Fabric::new(2));
        let f2 = Arc::clone(&f);
        let h = std::thread::spawn(move || f2.barrier(1));
        std::thread::sleep(Duration::from_millis(20));
        f.abort(RuntimeError::RankPanicked { rank: 0 });
        assert_eq!(
            h.join().unwrap().unwrap_err(),
            RuntimeError::RankPanicked { rank: 0 }
        );
    }

    #[test]
    fn first_abort_wins() {
        let f = Fabric::new(2);
        let a = f.abort(RuntimeError::RankPanicked { rank: 0 });
        let b = f.abort(RuntimeError::DeadRank { rank: 1 });
        assert_eq!(a, RuntimeError::RankPanicked { rank: 0 });
        assert_eq!(b, RuntimeError::RankPanicked { rank: 0 });
    }

    #[test]
    fn poisoned_mailbox_recovers_instead_of_cascading() {
        let f = Arc::new(Fabric::new(2));
        // Poison mailbox 1's mutex by panicking while holding it.
        let f2 = Arc::clone(&f);
        let _ = std::thread::spawn(move || {
            let _guard = f2.boxes[1].state.lock().unwrap();
            panic!("poison");
        })
        .join();
        // Sends and receives still work via PoisonError::into_inner.
        f.send(0, 1, 0, &[5]).unwrap();
        assert_eq!(recv_ok(&f, 1, 0, 0), vec![5]);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let base = Duration::from_micros(50);
        assert_eq!(backoff_delay(base, 1), base);
        assert_eq!(backoff_delay(base, 3), base * 4);
        assert!(backoff_delay(base, 30) <= Duration::from_millis(20));
    }

    #[test]
    fn pooled_buffer_is_reused_and_fully_overwritten() {
        let f = Fabric::new(2);
        // First message fills a fresh buffer with 16 bytes of 0xAA...
        f.send(0, 1, 0, &[0xAA; 16]).unwrap();
        let mut out = [0u8; 16];
        f.recv_into(1, 0, 0, None, &mut out).unwrap();
        assert_eq!(out, [0xAA; 16]);
        assert_eq!(lock_recover(&f.pool).len(), 1, "delivery pools the buffer");
        // ...and the second, shorter message recycles that exact buffer.
        // Its stale 0xAA suffix must be unobservable: the stored payload
        // is 4 bytes of 0xBB, nothing more.
        f.send(0, 1, 0, &[0xBB; 4]).unwrap();
        assert_eq!(lock_recover(&f.pool).len(), 0, "send drains the pool");
        {
            let st = lock_recover(&f.boxes[1].state);
            let chan = &st.chans[&(0, 0)];
            assert_eq!(chan.store.len(), 1);
            assert_eq!(chan.store[0].1, vec![0xBB; 4]);
            assert!(chan.store[0].1.capacity() >= 16, "recycled, not realloc'd");
        }
        let mut out = [0u8; 4];
        f.recv_into(1, 0, 0, None, &mut out).unwrap();
        assert_eq!(out, [0xBB; 4]);
    }

    #[test]
    fn recv_into_length_mismatch_is_typed() {
        let f = Fabric::new(2);
        f.send(0, 1, 2, &[1, 2, 3]).unwrap();
        let mut out = [0u8; 5];
        let err = f.recv_into(1, 0, 2, None, &mut out).unwrap_err();
        assert_eq!(
            err,
            RuntimeError::LengthMismatch {
                rank: 1,
                from: 0,
                tag: 2,
                got: 3,
                want: 5
            }
        );
    }

    #[test]
    fn recv_into_recovers_drops_across_channels() {
        let plan = Arc::new(FaultPlan::new(0xFEED, 4, FaultSpec::drops(0.4)));
        let f = Fabric::with_options(4, WorldOptions::default().with_faults(plan));
        for from in 0..3u32 {
            for i in 0..20u8 {
                f.send(from, 3, 0, &[from as u8, i]).unwrap();
            }
        }
        for from in 0..3u32 {
            for i in 0..20u8 {
                let mut out = [0u8; 2];
                f.recv_into(3, from, 0, None, &mut out).unwrap();
                assert_eq!(out, [from as u8, i]);
            }
        }
        assert_eq!(f.undelivered(), 0);
    }

    #[test]
    fn poll_recv_into_delivers_and_retransmits() {
        // No faults: poll sees nothing, then the payload.
        let f = Fabric::new(2);
        let mut out = [0u8; 2];
        assert!(!f.poll_recv_into(1, 0, 0, &mut out).unwrap());
        f.send(0, 1, 0, &[6, 7]).unwrap();
        assert!(f.poll_recv_into(1, 0, 0, &mut out).unwrap());
        assert_eq!(out, [6, 7]);

        // Heavy drops: a single poll must recover each payload by
        // retransmitting inline (no backoff), within the retry budget.
        let plan = Arc::new(FaultPlan::new(3, 2, FaultSpec::drops(0.5)));
        let f = Fabric::with_options(
            2,
            WorldOptions::default()
                .with_faults(plan)
                .with_max_retransmits(64),
        );
        for i in 0..30u8 {
            f.send(0, 1, 0, &[i]).unwrap();
            let mut out = [0u8; 1];
            assert!(
                f.poll_recv_into(1, 0, 0, &mut out).unwrap(),
                "poll retransmits a lost head inline"
            );
            assert_eq!(out, [i]);
        }
    }
}
