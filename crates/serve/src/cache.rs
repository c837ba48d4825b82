//! LRU cache of sampled prediction contexts.
//!
//! Context sampling (BFS over the rating graph plus mask bookkeeping) is a
//! large share of per-query serving cost; repeated queries for the same
//! `(user, item)` under the same sampling settings can reuse the sampled
//! block. Entries are invalidated explicitly when a new rating edge
//! touches any user or item inside the cached block — the block's input
//! mask would otherwise go stale.
//!
//! A cache belongs to one engine and holds only contexts sampled from that
//! engine's graph, so the insert that changes the graph is the one place
//! that invalidates it: a sharded write reaches the owner shard's cache
//! alone, and no other shard's entries can be stale for it.

use hire_data::PredictionContext;
use hire_graph::{EpochSource, PinnedGraph};
use std::collections::HashMap;
use std::sync::Arc;

/// What a cached context was sampled for.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Query user.
    pub user: usize,
    /// Query item.
    pub item: usize,
    /// Sampling strategy tag (e.g. `"neighborhood"`).
    pub strategy: &'static str,
    /// Context row budget.
    pub n: usize,
    /// Context column budget.
    pub m: usize,
}

/// Monotonic hit/miss/eviction counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted by the capacity bound.
    pub evictions: u64,
    /// Entries removed by rating-edge invalidation.
    pub invalidations: u64,
}

impl CacheStats {
    /// Hits / lookups, or 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    ctx: Arc<PredictionContext>,
    /// Memoized model output for this key, stamped with the
    /// [`crate::ModelVersion`] it was computed under. Valid exactly as
    /// long as the context is *and* only for that model version: the
    /// prediction is a pure function of `(model, key, graph)`, so a hot
    /// model swap invalidates every memo lazily — a lookup under a
    /// different version misses and recomputes, mirroring the graph-epoch
    /// guard that protects the context itself.
    prediction: Option<(u64, f32)>,
    last_used: u64,
}

/// A cache hit: the sampled context, plus the memoized prediction if one
/// was stored since the entry was (re)created — and was computed under the
/// model version the lookup asked for.
#[derive(Debug, Clone)]
pub struct CachedContext {
    /// The sampled prediction context.
    pub ctx: Arc<PredictionContext>,
    /// The memoized model output, if already computed under the queried
    /// model version.
    pub prediction: Option<f32>,
}

/// Capacity-bounded LRU map from [`CacheKey`] to sampled contexts.
///
/// Recency is tracked with a monotonic tick instead of a linked list: at
/// the cache's size (thousands of entries) an `O(len)` scan on eviction is
/// cheaper and simpler than pointer surgery, and eviction only happens on
/// inserts past capacity.
pub struct ContextCache {
    capacity: usize,
    tick: u64,
    map: HashMap<CacheKey, Entry>,
    stats: CacheStats,
}

impl ContextCache {
    /// Creates a cache holding at most `capacity` contexts. Capacity 0
    /// disables caching (every lookup misses, inserts are dropped).
    pub fn new(capacity: usize) -> Self {
        ContextCache {
            capacity,
            tick: 0,
            map: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Looks up a context, marking it most-recently-used on hit. The memo
    /// is only surfaced if it was stored under `version` — a memo from a
    /// swapped-out model is stale for the current model but the *context*
    /// stays valid (sampling does not depend on the model), so only the
    /// prediction half of the entry is withheld.
    pub fn get(&mut self, key: &CacheKey, version: u64) -> Option<CachedContext> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.stats.hits += 1;
                Some(CachedContext {
                    ctx: entry.ctx.clone(),
                    prediction: entry
                        .prediction
                        .and_then(|(v, p)| (v == version).then_some(p)),
                })
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts a context, evicting the least-recently-used entry if full.
    pub fn insert(&mut self, key: CacheKey, ctx: Arc<PredictionContext>) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
                self.stats.evictions += 1;
            }
        }
        self.map.insert(
            key,
            Entry {
                ctx,
                prediction: None,
                last_used: self.tick,
            },
        );
    }

    /// The epoch-guarded insert the engine's miss path uses: caches `ctx`
    /// only if `source` (the graph the context was sampled from) has not
    /// moved past the epoch of the pinned snapshot the sample was taken
    /// against. A sample that raced a rating insert is still good enough
    /// to *answer* the query that raced the write, but must never be
    /// memoized — its block mask may already be stale. Returns whether the
    /// context was cached.
    pub fn insert_if_current(
        &mut self,
        key: CacheKey,
        ctx: Arc<PredictionContext>,
        pinned: &PinnedGraph,
        source: &dyn EpochSource,
    ) -> bool {
        if !pinned.is_current(source) {
            return false;
        }
        self.insert(key, ctx);
        true
    }

    /// Memoizes the model output for a live entry. No-op if the entry was
    /// evicted or invalidated in the meantime — and, crucially, if the key
    /// was *resampled*: `ctx` must be the exact context the prediction was
    /// computed from (`Arc` identity), otherwise a forward that raced an
    /// `invalidate_edge` + fresh `insert` would attach a stale value to
    /// the new context and the cache would serve it forever after.
    /// The memo is stamped with the model `version` that computed it; a
    /// lookup under any other version ignores it.
    pub fn store_prediction(
        &mut self,
        key: &CacheKey,
        ctx: &Arc<PredictionContext>,
        version: u64,
        prediction: f32,
    ) {
        if let Some(entry) = self.map.get_mut(key) {
            if Arc::ptr_eq(&entry.ctx, ctx) {
                entry.prediction = Some((version, prediction));
            }
        }
    }

    /// Drops every cached context whose block contains `user` or `item` —
    /// called when the rating edge `(user, item)` is inserted into the
    /// graph. Returns the number of entries removed.
    pub fn invalidate_edge(&mut self, user: usize, item: usize) -> usize {
        let before = self.map.len();
        self.map
            .retain(|_, e| !e.ctx.users.contains(&user) && !e.ctx.items.contains(&item));
        let removed = before - self.map.len();
        self.stats.invalidations += removed as u64;
        removed
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hire_tensor::NdArray;

    fn key(user: usize, item: usize) -> CacheKey {
        CacheKey {
            user,
            item,
            strategy: "test",
            n: 4,
            m: 4,
        }
    }

    fn ctx(users: Vec<usize>, items: Vec<usize>) -> Arc<PredictionContext> {
        let (n, m) = (users.len(), items.len());
        Arc::new(PredictionContext {
            users,
            items,
            ratings: NdArray::zeros([n, m]),
            input_mask: NdArray::zeros([n, m]),
            target_mask: NdArray::zeros([n, m]),
        })
    }

    /// Version stamp used by tests that don't exercise versioning.
    const V1: u64 = 1;

    #[test]
    fn hit_miss_counters() {
        let mut cache = ContextCache::new(4);
        assert!(cache.get(&key(0, 0), V1).is_none());
        cache.insert(key(0, 0), ctx(vec![0], vec![0]));
        assert!(cache.get(&key(0, 0), V1).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut cache = ContextCache::new(2);
        cache.insert(key(0, 0), ctx(vec![0], vec![0]));
        cache.insert(key(1, 1), ctx(vec![1], vec![1]));
        let _ = cache.get(&key(0, 0), V1); // 0 is now more recent than 1
        cache.insert(key(2, 2), ctx(vec![2], vec![2]));
        assert_eq!(cache.len(), 2);
        assert!(
            cache.get(&key(1, 1), V1).is_none(),
            "LRU entry must be evicted"
        );
        assert!(cache.get(&key(0, 0), V1).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn invalidation_removes_touching_blocks_only() {
        let mut cache = ContextCache::new(8);
        cache.insert(key(0, 0), ctx(vec![0, 1], vec![0, 1]));
        cache.insert(key(2, 2), ctx(vec![2, 3], vec![2, 3]));
        cache.insert(key(4, 4), ctx(vec![4, 1], vec![4, 5])); // shares user 1
        let removed = cache.invalidate_edge(1, 9);
        assert_eq!(removed, 2);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key(2, 2), V1).is_some());
        assert_eq!(cache.stats().invalidations, 2);
    }

    #[test]
    fn memoized_prediction_lives_and_dies_with_its_entry() {
        let mut cache = ContextCache::new(4);
        let first = ctx(vec![0], vec![0]);
        cache.insert(key(0, 0), first.clone());
        assert_eq!(cache.get(&key(0, 0), V1).unwrap().prediction, None);
        cache.store_prediction(&key(0, 0), &first, V1, 3.5);
        assert_eq!(cache.get(&key(0, 0), V1).unwrap().prediction, Some(3.5));
        // Re-inserting (fresh sample) clears the memo.
        let second = ctx(vec![0], vec![0]);
        cache.insert(key(0, 0), second.clone());
        assert_eq!(cache.get(&key(0, 0), V1).unwrap().prediction, None);
        // Invalidation drops the memo together with the context.
        cache.store_prediction(&key(0, 0), &second, V1, 4.0);
        cache.invalidate_edge(0, 9);
        assert!(cache.get(&key(0, 0), V1).is_none());
        // Storing against a dead key is a no-op, not a resurrection.
        cache.store_prediction(&key(0, 0), &second, V1, 1.0);
        assert!(cache.get(&key(0, 0), V1).is_none());
    }

    #[test]
    fn store_prediction_rejects_mismatched_context() {
        let mut cache = ContextCache::new(4);
        let stale = ctx(vec![0], vec![0]);
        let fresh = ctx(vec![0], vec![0]);
        cache.insert(key(0, 0), fresh.clone());
        // A forward computed against `stale` raced an invalidate + fresh
        // insert: its value must not attach to the fresh context.
        cache.store_prediction(&key(0, 0), &stale, V1, 2.5);
        assert_eq!(cache.get(&key(0, 0), V1).unwrap().prediction, None);
        cache.store_prediction(&key(0, 0), &fresh, V1, 2.5);
        assert_eq!(cache.get(&key(0, 0), V1).unwrap().prediction, Some(2.5));
    }

    #[test]
    fn memo_is_scoped_to_its_model_version() {
        let mut cache = ContextCache::new(4);
        let c = ctx(vec![0], vec![0]);
        cache.insert(key(0, 0), c.clone());
        cache.store_prediction(&key(0, 0), &c, 1, 3.5);
        // The context survives a model swap; the memo does not.
        let hit = cache.get(&key(0, 0), 2).expect("context still cached");
        assert_eq!(hit.prediction, None, "v1 memo is stale for v2");
        assert!(Arc::ptr_eq(&hit.ctx, &c), "context is model-independent");
        // Still valid for a batch that pinned v1 before the swap.
        assert_eq!(cache.get(&key(0, 0), 1).unwrap().prediction, Some(3.5));
        // The v2 forward overwrites the stamp.
        cache.store_prediction(&key(0, 0), &c, 2, 4.25);
        assert_eq!(cache.get(&key(0, 0), 2).unwrap().prediction, Some(4.25));
        assert_eq!(cache.get(&key(0, 0), 1).unwrap().prediction, None);
    }

    #[test]
    fn epoch_guarded_insert_refuses_stale_samples() {
        use hire_graph::{BipartiteGraph, EpochedGraph, Rating};
        let g = EpochedGraph::new(BipartiteGraph::empty(4, 4));
        let mut cache = ContextCache::new(4);
        // Sampled against the pinned snapshot, graph unchanged: cached.
        let pin = g.pin();
        assert!(cache.insert_if_current(key(0, 0), ctx(vec![0], vec![0]), &pin, &g));
        assert_eq!(cache.len(), 1);
        // A commit lands between pin and insert: the sample is refused.
        let pin = g.pin();
        g.commit_edges(&[Rating::new(1, 1, 3.0)]);
        assert!(!cache.insert_if_current(key(1, 1), ctx(vec![1], vec![1]), &pin, &g));
        assert!(cache.get(&key(1, 1), V1).is_none());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = ContextCache::new(0);
        cache.insert(key(0, 0), ctx(vec![0], vec![0]));
        assert!(cache.is_empty());
        assert!(cache.get(&key(0, 0), V1).is_none());
    }
}
