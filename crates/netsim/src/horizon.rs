//! Conservative lookahead and cross-shard synchronization.
//!
//! Every inter-node event leg in `shard.rs` pays at least one inter-node
//! LogGP `alpha`, scaled by any per-link degradation multiplier. That is
//! the **lookahead floor** `L(a→b) = alpha · lm(a,b)` of the directed link
//! `a→b`: a shard processing events at simulated time `t` can never emit
//! an event onto that link with a timestamp below `t + L(a→b)`. The
//! classic conservative-PDES (null-message) consequence: a shard may
//! safely process every event strictly below
//!
//! ```text
//! H(s) = min over shards u != s of  bound(u) + L(u→s)
//! ```
//!
//! where `bound(u)` is shard `u`'s published guarantee that it will never
//! again process (and hence emit from) anything earlier.
//!
//! Bounds are published as `f64` bit patterns in an `AtomicU64` with
//! `fetch_max` — non-negative IEEE-754 doubles order identically to their
//! bit patterns, so the published bound is monotone even under races, and
//! a stale read is merely smaller, i.e. conservative. A worker reads peer
//! bounds **before** draining its inbox: every event emitted under an
//! older bound was flushed to the inbox before that bound was published,
//! so processing strictly below `H(s)` can never miss an in-flight event.
//!
//! Termination uses a single global counter of live events. Each worker
//! applies one atomic delta per batch — emissions and consumptions
//! together — so the counter can only read zero when no events exist
//! anywhere and none are in flight.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use a2a_topo::{LinkTable, ProcGrid};

use crate::engine::Perturb;
use crate::model::CostModel;
use crate::shard::Event;

/// Per-directed-node-link latency floors: inter-node `alpha` stretched by
/// the link's perturbation multiplier.
pub(crate) fn link_floors(grid: &ProcGrid, model: &CostModel, perturb: &Perturb) -> LinkTable<f64> {
    let alpha = model.level(a2a_topo::Level::InterNode).alpha;
    LinkTable::from_fn(grid.machine().nodes, |a, b| alpha * perturb.link(a, b))
}

/// Statistics from a sharded run, surfaced through
/// [`crate::simulate_sharded_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShardStats {
    /// Shards the node range was partitioned into (= worker threads used).
    pub shards: usize,
    /// Worker threads that ran the shards.
    pub workers: usize,
    /// Total events processed across all shards.
    pub events: u64,
    /// Events that crossed a shard boundary.
    pub cross_events: u64,
    /// Cross-shard arrivals that sorted before an already-processed event.
    /// Nonzero means the lookahead horizon was unsound; enforced zero by
    /// the lookahead-safety tests.
    pub causality_violations: u64,
}

/// Shared state for one sharded run.
pub(crate) struct ShardSync {
    inboxes: Vec<Mutex<Vec<Event>>>,
    /// Published per-shard bounds as f64 bit patterns (monotone max).
    bounds: Vec<AtomicU64>,
    /// Live events across all shards (heaps + inboxes + in-processing).
    pub pending: AtomicI64,
    pub cross_events: AtomicU64,
    /// Shards that have seeded their initial events into `pending`. Until
    /// every shard has, a zero pending count means "not started", not
    /// "finished".
    ready: AtomicUsize,
    /// `la[u * nshards + s]` = safe lookahead from shard `u` into shard `s`.
    la: Vec<f64>,
    nshards: usize,
    /// Owning shard per node, for routing cross-shard events.
    shard_of_node: Vec<usize>,
}

impl ShardSync {
    /// Build the sync state for contiguous node ranges. Returns `None` if
    /// any shard-pair lookahead is not strictly positive and finite — the
    /// caller must then fall back to a single shard.
    pub fn new(
        ranges: &[(usize, usize)],
        floors: &LinkTable<f64>,
        lookahead_scale: f64,
    ) -> Option<Self> {
        let nshards = ranges.len();
        let mut la = vec![f64::INFINITY; nshards * nshards];
        for (u, &(ulo, uhi)) in ranges.iter().enumerate() {
            for (s, &(slo, shi)) in ranges.iter().enumerate() {
                if u == s {
                    continue;
                }
                let l = floors.min_between(ulo..uhi, slo..shi)? * lookahead_scale;
                if !(l > 0.0 && l.is_finite()) {
                    return None;
                }
                la[u * nshards + s] = l;
            }
        }
        let nodes = floors.nodes();
        let mut shard_of_node = vec![0usize; nodes];
        for (s, &(lo, hi)) in ranges.iter().enumerate() {
            shard_of_node[lo..hi].fill(s);
        }
        Some(ShardSync {
            inboxes: (0..nshards).map(|_| Mutex::new(Vec::new())).collect(),
            bounds: (0..nshards).map(|_| AtomicU64::new(0)).collect(),
            pending: AtomicI64::new(0),
            cross_events: AtomicU64::new(0),
            ready: AtomicUsize::new(0),
            la,
            nshards,
            shard_of_node,
        })
    }

    pub fn nshards(&self) -> usize {
        self.nshards
    }

    /// Mark shard `s`'s initial events as counted in `pending`.
    pub fn ready(&self, _s: usize) {
        self.ready.fetch_add(1, Ordering::SeqCst);
    }

    /// Whether every shard has seeded its initial events.
    pub fn all_ready(&self) -> bool {
        self.ready.load(Ordering::SeqCst) == self.nshards
    }

    #[inline]
    pub fn lookahead(&self, from: usize, to: usize) -> f64 {
        self.la[from * self.nshards + to]
    }

    /// Shard `s`'s published bound (Acquire: pairs with the Release in
    /// [`publish`] so inbox pushes flushed before publication are visible).
    #[inline]
    pub fn bound(&self, s: usize) -> f64 {
        f64::from_bits(self.bounds[s].load(Ordering::Acquire))
    }

    /// Raise shard `s`'s bound to `v` (never lowers it).
    pub fn publish(&self, s: usize, v: f64) {
        debug_assert!(v >= 0.0 || v.is_infinite());
        self.bounds[s].fetch_max(v.to_bits(), Ordering::AcqRel);
    }

    /// Route a cross-shard event to its destination shard's inbox.
    pub fn push_cross(&self, dest_node: usize, ev: Event) {
        let d = self.shard_of_node[dest_node];
        self.inboxes[d].lock().unwrap().push(ev);
    }

    /// Take everything currently in shard `s`'s inbox.
    pub fn take_inbox(&self, s: usize) -> Vec<Event> {
        let mut g = self.inboxes[s].lock().unwrap();
        if g.is_empty() {
            Vec::new()
        } else {
            std::mem::take(&mut *g)
        }
    }
}

/// Split `nodes` into `nshards` contiguous, balanced ranges.
pub(crate) fn node_ranges(nodes: usize, nshards: usize) -> Vec<(usize, usize)> {
    let base = nodes / nshards;
    let rem = nodes % nshards;
    let mut ranges = Vec::with_capacity(nshards);
    let mut lo = 0;
    for s in 0..nshards {
        let len = base + usize::from(s < rem);
        ranges.push((lo, lo + len));
        lo += len;
    }
    debug_assert_eq!(lo, nodes);
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_ranges_cover_and_balance() {
        let r = node_ranges(10, 4);
        assert_eq!(r, vec![(0, 3), (3, 6), (6, 8), (8, 10)]);
        assert_eq!(node_ranges(4, 4), vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(node_ranges(3, 1), vec![(0, 3)]);
    }

    #[test]
    fn sync_rejects_zero_lookahead() {
        let floors = LinkTable::from_fn(2, |a, b| if a != b { 0.0 } else { f64::INFINITY });
        assert!(ShardSync::new(&[(0, 1), (1, 2)], &floors, 1.0).is_none());
    }

    #[test]
    fn sync_builds_pairwise_lookahead() {
        let floors = LinkTable::from_fn(4, |a, b| if a == b { 0.0 } else { 2.0 + (a + b) as f64 });
        let sync = ShardSync::new(&[(0, 2), (2, 4)], &floors, 0.5).unwrap();
        // min over links {0,1}x{2,3} = 2 + 0 + 2 = 4.0, scaled by 0.5.
        assert_eq!(sync.lookahead(0, 1), 2.0);
        assert_eq!(sync.nshards(), 2);
    }

    #[test]
    fn bounds_are_monotone() {
        let floors = LinkTable::from_fn(2, |a, b| if a == b { 0.0 } else { 1.0 });
        let sync = ShardSync::new(&[(0, 1), (1, 2)], &floors, 1.0).unwrap();
        sync.publish(0, 5.0);
        sync.publish(0, 3.0); // lower: ignored
        assert_eq!(sync.bound(0), 5.0);
        sync.publish(0, f64::INFINITY);
        assert_eq!(sync.bound(0), f64::INFINITY);
    }
}
