//! Epoch-rotated rank snapshots — the read side of the serving engine.
//!
//! A long-running rank service has one writer (the ingest thread folding
//! [`crate::incremental::IncrementalRanker`] deltas) and many readers
//! (query handler threads). Readers must never block on the writer and must
//! see *internally consistent* state: a PageRank vector, the SR-SourceRank
//! and spam-proximity vectors it was published with, and the exact graph
//! those vectors were solved on — never a mix of two epochs.
//!
//! [`RankSnapshot`] is that consistent unit: immutable once published,
//! shared by `Arc`. [`SnapshotRing`] is the rotation mechanism: a small ring
//! of `RwLock<Arc<RankSnapshot>>` slots plus an atomic `active` index. The
//! writer installs the next epoch into the *inactive* slot (whose lock is
//! uncontended — readers only ever lock the active one) and then flips the
//! index with a release store. A reader loads the index, `try_read`s the
//! slot and clones the `Arc` — a wait-free fast path. The only way a reader
//! can find the lock held is the pathological interleaving where it stalls
//! between loading the index and locking the slot for as long as it takes
//! the writer to lap the entire ring; the ring counts those occurrences
//! (they should be zero, and the rotation race suite pins that) and falls
//! back to a blocking read, which is still correct — the slot always holds
//! *some* complete epoch.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

use sr_graph::walks::WalkStore;
use sr_graph::CsrGraph;

use crate::rankvec::RankVector;

/// One immutable epoch of serving state. Everything a query needs is pinned
/// together: vectors, the page graph they were solved on, and the walk
/// cache handle for the approximate-PPR fast path (built on `cache_pages`,
/// which lags `pages` until the cache is rebuilt — the documented staleness
/// of the fast path).
#[derive(Debug)]
pub struct RankSnapshot {
    /// Monotone epoch number; 0 is the seed solve before any delta.
    pub epoch: u64,
    /// Ingest sequence number of the last delta folded into this epoch
    /// (0 when no delta has been applied yet).
    pub applied_seq: u64,
    /// PageRank over `pages`.
    pub pagerank: RankVector,
    /// Baseline SourceRank over the maintained source graph.
    pub sourcerank: RankVector,
    /// Spam-Resilient SourceRank (Eq. 3, throttled) over the source graph.
    pub resilient: RankVector,
    /// Spam-proximity scores (Eq. 6) over the source graph.
    pub proximity: RankVector,
    /// The page graph this epoch's vectors were solved on — the exact
    /// personalized-query slow path solves against this.
    pub pages: Arc<CsrGraph>,
    /// The page graph the walk cache was built on (epoch of the last cache
    /// build; node count may lag `pages`).
    pub cache_pages: Arc<CsrGraph>,
    /// Monte-Carlo walk cache for the approximate-PPR fast path.
    pub walks: Arc<WalkStore>,
    /// Overlay compactions folded so far (monotone).
    pub compactions: u64,
}

impl RankSnapshot {
    /// Pages ranked by this epoch.
    pub fn num_pages(&self) -> usize {
        self.pagerank.scores().len()
    }

    /// Sources ranked by this epoch.
    pub fn num_sources(&self) -> usize {
        self.resilient.scores().len()
    }
}

/// The epoch-rotation slot ring. One writer, any number of readers; see the
/// module docs for the protocol. `slots >= 2`; a few more make the reader
/// fallback path unreachable in practice (default 4).
#[derive(Debug)]
pub struct SnapshotRing {
    slots: Vec<RwLock<Arc<RankSnapshot>>>,
    active: AtomicUsize,
    published: AtomicU64,
    stalls: AtomicU64,
}

impl SnapshotRing {
    /// A ring seeded with `initial` in every slot (so `load` is total from
    /// the first instant). `slots` is clamped to at least 2.
    pub fn new(initial: RankSnapshot, slots: usize) -> Self {
        let initial = Arc::new(initial);
        let slots = slots.max(2);
        SnapshotRing {
            slots: (0..slots)
                .map(|_| RwLock::new(Arc::clone(&initial)))
                .collect(),
            active: AtomicUsize::new(0),
            published: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
        }
    }

    /// The current snapshot. Wait-free in the expected case: one atomic
    /// load plus an uncontended `try_read` and an `Arc` clone. The returned
    /// `Arc` pins its epoch for as long as the caller holds it — the writer
    /// publishing further epochs never mutates it.
    pub fn load(&self) -> Arc<RankSnapshot> {
        let i = self.active.load(Ordering::Acquire) % self.slots.len();
        match self.slots[i].try_read() {
            Ok(guard) => Arc::clone(&guard),
            Err(_) => {
                // Writer lapped the ring under this reader (or the lock was
                // poisoned by a panicking writer — unreachable in practice
                // since publish only swaps an Arc). Count the stall and take
                // the blocking path; the slot still holds a complete epoch.
                // lint-ok(atomic-ordering): stall counter is telemetry only
                self.stalls.fetch_add(1, Ordering::Relaxed);
                let guard = match self.slots[i].read() {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
                Arc::clone(&guard)
            }
        }
    }

    /// Publishes `snapshot` as the new active epoch. Single-writer: callers
    /// must serialize publishes (the serving engine has exactly one ingest
    /// thread). Readers loading concurrently see either the previous epoch
    /// or this one, never a mix.
    pub fn publish(&self, snapshot: RankSnapshot) {
        // lint-ok(atomic-ordering): single-writer ring — publish reads its own
        // prior store; the Release below is what readers synchronize with
        let next = (self.active.load(Ordering::Relaxed) + 1) % self.slots.len();
        {
            let mut slot = match self.slots[next].write() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            *slot = Arc::new(snapshot);
        }
        self.active.store(next, Ordering::Release);
        self.published.fetch_add(1, Ordering::Relaxed); // lint-ok(atomic-ordering): epoch counter is telemetry only
    }

    /// Epochs published through this ring (excluding the seed snapshot).
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Relaxed) // lint-ok(atomic-ordering): telemetry read, no data gated on it
    }

    /// Times a reader found the active slot locked and had to block. The
    /// serving acceptance gate pins this at zero.
    pub fn reader_stalls(&self) -> u64 {
        self.stalls.load(Ordering::Relaxed) // lint-ok(atomic-ordering): telemetry read, no data gated on it
    }

    /// Number of slots in the ring.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rankvec::RankVector;
    use sr_graph::walks::{WalkFileWriter, WalkMeta};
    use sr_graph::GraphBuilder;

    fn tiny_walks() -> WalkStore {
        // One file per test thread: tests run concurrently, and a shared
        // path lets one test's writer move the file out from under another.
        let path = std::env::temp_dir().join(format!(
            "sr_snapshot_walks_{}_{:?}.bin",
            std::process::id(),
            std::thread::current().id()
        ));
        let meta = WalkMeta {
            num_nodes: 3,
            walks: 0,
            beta_bits: 0.85f64.to_bits(),
            rng_seed: 1,
            max_hops: 8,
        };
        let mut w = WalkFileWriter::create(&path, meta).unwrap();
        for _ in 0..3 {
            w.write_segment(&[], &[]).unwrap();
        }
        w.finish().unwrap()
    }

    fn rv(scores: Vec<f64>) -> RankVector {
        let stats = crate::convergence::IterationStats {
            iterations: 1,
            final_residual: 0.0,
            converged: true,
            residual_history: Vec::new(),
        };
        RankVector::new(scores, stats)
    }

    fn snap(epoch: u64) -> RankSnapshot {
        let g = Arc::new(GraphBuilder::from_edges_exact(3, vec![(0, 1), (1, 2)]).unwrap());
        let fill = epoch as f64;
        RankSnapshot {
            epoch,
            applied_seq: epoch,
            pagerank: rv(vec![fill; 3]),
            sourcerank: rv(vec![fill; 2]),
            resilient: rv(vec![fill; 2]),
            proximity: rv(vec![fill; 2]),
            pages: Arc::clone(&g),
            cache_pages: Arc::clone(&g),
            walks: Arc::new(tiny_walks()),
            compactions: 0,
        }
    }

    #[test]
    fn load_sees_latest_publish() {
        let ring = SnapshotRing::new(snap(0), 4);
        assert_eq!(ring.load().epoch, 0);
        ring.publish(snap(1));
        ring.publish(snap(2));
        assert_eq!(ring.load().epoch, 2);
        assert_eq!(ring.published(), 2);
        assert_eq!(ring.reader_stalls(), 0);
    }

    #[test]
    fn pinned_reader_keeps_its_epoch_across_publishes() {
        let ring = SnapshotRing::new(snap(0), 2);
        let pinned = ring.load();
        for e in 1..=10 {
            ring.publish(snap(e));
        }
        // The pinned Arc still holds epoch 0 with its original bits even
        // though the 2-slot ring has been lapped five times.
        assert_eq!(pinned.epoch, 0);
        assert_eq!(pinned.pagerank.scores(), &[0.0, 0.0, 0.0]);
        assert_eq!(ring.load().epoch, 10);
    }

    #[test]
    fn slot_floor_is_two() {
        let ring = SnapshotRing::new(snap(0), 0);
        assert_eq!(ring.num_slots(), 2);
    }
}
