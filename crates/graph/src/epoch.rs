//! Epoch-pinned, copy-on-write graph snapshots.
//!
//! The serving path needs two guarantees from the rating graph:
//!
//! 1. a reader that pinned a snapshot keeps an immutable view forever —
//!    a concurrent `insert_rating` never blocks it and never mutates what
//!    it sees;
//! 2. a memoized result computed against epoch E must not be cached if the
//!    graph moved past E while the computation ran (the PR-4 guard).
//!
//! [`EpochedGraph`] provides both: the current snapshot is an
//! `Arc<BipartiteGraph>` behind a short-critical-section `RwLock`, writers
//! build the successor snapshot *outside* that lock and install it with a
//! brief write-locked pointer swap plus an epoch bump. The successor is
//! copy-on-write at chunk grain ([`BipartiteGraph::with_extra_edges`]): it
//! rebuilds the row chunks a new edge touches and shares the rest with its
//! predecessor, so a commit costs what the batch touches, not the graph.
//! Readers [`pin`](EpochedGraph::pin) a [`PinnedGraph`] — the `Arc` and the
//! epoch it was installed under, read atomically — and a displaced snapshot,
//! then each chunk only it still held, is reclaimed by plain `Arc` reference
//! counting once its last pin drops (no deferred reclamation machinery
//! needed).
//!
//! The [`EpochSource`] trait abstracts "what epoch is the graph at now" so
//! the single-engine serve path and the sharded per-shard snapshots share
//! one guard implementation instead of copy-pasting the
//! sample-then-recheck-epoch logic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::bipartite::{BipartiteGraph, Rating};

/// Source of a monotonically increasing graph epoch: bumped exactly once
/// per committed mutation. Implementors must guarantee that any edge
/// visible through a snapshot pinned at epoch E was committed at some
/// epoch ≤ E.
pub trait EpochSource: Send + Sync {
    /// The current epoch.
    fn epoch(&self) -> u64;
}

impl<E: EpochSource + ?Sized> EpochSource for Arc<E> {
    fn epoch(&self) -> u64 {
        (**self).epoch()
    }
}

impl<E: EpochSource + ?Sized> EpochSource for &E {
    fn epoch(&self) -> u64 {
        (**self).epoch()
    }
}

/// An immutable graph snapshot plus the epoch it was installed under.
/// Dereferences to [`BipartiteGraph`]; holding one never blocks writers.
#[derive(Debug, Clone)]
pub struct PinnedGraph {
    graph: Arc<BipartiteGraph>,
    epoch: u64,
}

impl PinnedGraph {
    /// The pinned snapshot.
    pub fn graph(&self) -> &Arc<BipartiteGraph> {
        &self.graph
    }

    /// The epoch this snapshot was installed under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether `source` has not moved past this snapshot's epoch — the
    /// condition under which results computed against it may be memoized.
    pub fn is_current(&self, source: &dyn EpochSource) -> bool {
        source.epoch() == self.epoch
    }
}

impl std::ops::Deref for PinnedGraph {
    type Target = BipartiteGraph;

    fn deref(&self) -> &BipartiteGraph {
        &self.graph
    }
}

/// Copy-on-write, epoch-pinned graph: see the module docs.
#[derive(Debug)]
pub struct EpochedGraph {
    slot: RwLock<Arc<BipartiteGraph>>,
    epoch: AtomicU64,
    /// Serializes writers so concurrent commits can't build successors from
    /// the same base and lose edges. Readers never touch this lock.
    writer: Mutex<()>,
}

impl EpochedGraph {
    /// Wraps a graph at epoch 0.
    pub fn new(graph: BipartiteGraph) -> Self {
        Self::from_arc(Arc::new(graph))
    }

    /// Wraps an already-shared snapshot at epoch 0. Shards built over the
    /// same base graph share one set of adjacency chunks this way.
    pub fn from_arc(graph: Arc<BipartiteGraph>) -> Self {
        EpochedGraph {
            slot: RwLock::new(graph),
            epoch: AtomicU64::new(0),
            writer: Mutex::new(()),
        }
    }

    /// Pins the current snapshot together with its epoch (read atomically
    /// with respect to [`Self::commit_edges`]).
    pub fn pin(&self) -> PinnedGraph {
        let slot = self.slot.read().unwrap_or_else(|p| p.into_inner());
        let graph = Arc::clone(&slot);
        let epoch = self.epoch.load(Ordering::Acquire);
        PinnedGraph { graph, epoch }
    }

    /// The current snapshot without the epoch (cheap `Arc` clone).
    pub fn latest(&self) -> Arc<BipartiteGraph> {
        Arc::clone(&self.slot.read().unwrap_or_else(|p| p.into_inner()))
    }

    /// Commits `extra` edges: builds the successor snapshot copy-on-write
    /// *outside* the reader lock, installs it with a brief write-locked
    /// pointer swap, and bumps the epoch. Returns the new epoch. Readers
    /// pinned to older epochs keep their snapshots untouched; duplicate
    /// edges follow [`BipartiteGraph::with_extra_edges`] semantics (the
    /// existing rating wins) and still take an epoch, so a replayed log
    /// walks the epochs the live run did.
    pub fn commit_edges(&self, extra: &[Rating]) -> u64 {
        let _writers = self.writer.lock().unwrap_or_else(|p| p.into_inner());
        let base = self.latest();
        let next = Arc::new(base.with_extra_edges(extra));
        let mut slot = self.slot.write().unwrap_or_else(|p| p.into_inner());
        let displaced = std::mem::replace(&mut *slot, next);
        // Under the guard, so that `pin` reads snapshot and epoch as a pair.
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        drop(slot);
        // Possibly the predecessor's last reference: freed with no `pin`
        // waiting on the lock.
        drop(displaced);
        epoch
    }
}

impl EpochSource for EpochedGraph {
    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> BipartiteGraph {
        BipartiteGraph::from_ratings(3, 3, &[Rating::new(0, 0, 5.0), Rating::new(1, 1, 3.0)])
    }

    #[test]
    fn pin_epoch_and_commit() {
        let g = EpochedGraph::new(toy());
        let pin0 = g.pin();
        assert_eq!(pin0.epoch(), 0);
        assert!(pin0.is_current(&g));
        let e = g.commit_edges(&[Rating::new(2, 2, 4.0)]);
        assert_eq!(e, 1);
        assert_eq!(g.epoch(), 1);
        assert!(!pin0.is_current(&g));
        // The old pin never sees the post-E edge; the new pin does.
        assert_eq!(pin0.rating(2, 2), None);
        assert_eq!(g.pin().rating(2, 2), Some(4.0));
    }

    #[test]
    fn existing_edge_wins_on_commit() {
        let g = EpochedGraph::new(toy());
        let before = g.pin();
        g.commit_edges(&[Rating::new(0, 0, 1.0)]);
        let after = g.pin();
        assert_eq!(after.rating(0, 0), Some(5.0));
        assert_eq!(g.epoch(), 1);
        // The epoch moved, no chunk was copied.
        assert!(!Arc::ptr_eq(before.graph(), after.graph()));
        let sharing = after.chunk_sharing(&before);
        assert_eq!(sharing.shared_chunks, sharing.chunks);
    }

    #[test]
    fn shared_base_diverges_independently() {
        let base = Arc::new(toy());
        let a = EpochedGraph::from_arc(Arc::clone(&base));
        let b = EpochedGraph::from_arc(Arc::clone(&base));
        a.commit_edges(&[Rating::new(2, 0, 2.0)]);
        assert_eq!(a.pin().rating(2, 0), Some(2.0));
        assert_eq!(b.pin().rating(2, 0), None);
        assert_eq!(b.epoch(), 0);
        // b still shares the original allocation.
        assert!(Arc::ptr_eq(b.pin().graph(), &base));
    }
}
