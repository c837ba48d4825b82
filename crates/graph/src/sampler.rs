//! Prediction-context construction strategies (§ IV-B and § VI-E of the
//! paper): neighborhood-based BFS sampling (the default), uniform random
//! sampling, and feature-similarity sampling.
//!
//! Membership ("already selected", "already seen this hop") is tracked in a
//! private per-thread `Scratch` of dense generation stamps rather than in
//! hash sets, so a membership test is one load.
//!
//! **Cost bound.** A BFS hop's work is bounded by the context budget, never
//! by a degree. Per side, with `room` what the budget still lacks and `F`
//! the frontier it expands (the other side's previous picks, so `|F|` is
//! within that side's budget): a spent side reads nothing; the walk stops
//! at `room + 1` fresh candidates, so it reads at most `room + 1 + |F| ·
//! budget` adjacency entries (a row repeats at most `budget − room`
//! selected entities and `room` already-seen ones); an overflowing hop then
//! draws `room` picks by rejection, each try a binary search in at most
//! `|F|` rows, at most `|F| · (budget + 1) / 2` expected tries a pick (a
//! row of length `D` leaves at least `max(D − budget + 1, 2)` candidates).
//! The random fill (reached when the frontier empties first) scans its
//! side once for the pool and takes `min(room, pool)` draws from it.
//!
//! Each subset is uniform without replacement, in draw order: the law of
//! the first `room` entries of a shuffle of every candidate, which is what
//! § IV-B asks of an overflowing hop. A hop that fits its budget is taken
//! whole in first-seen order. `tests/sampler_regression.rs` pins the
//! sampler bit for bit to a plain reference of this rule, and its law to
//! the legacy shuffling samplers in `tests/oracle/`.

use crate::bipartite::BipartiteGraph;
use std::cell::RefCell;

/// The users and items selected for one prediction context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContextSelection {
    /// Selected user indices (seeds first, in seed order).
    pub users: Vec<usize>,
    /// Selected item indices (seeds first, in seed order).
    pub items: Vec<usize>,
}

/// A strategy for selecting `n` users and `m` items around seed entities.
///
/// Implementations must include all seeds, return no duplicates, and return
/// exactly `n` users / `m` items whenever the graph has that many (assuming
/// `n`/`m` are at least the seed counts).
pub trait ContextSampler {
    /// Samples a context around the given seed users/items.
    fn sample(
        &self,
        graph: &BipartiteGraph,
        seed_users: &[usize],
        seed_items: &[usize],
        n: usize,
        m: usize,
        rng: &mut dyn rand::RngCore,
    ) -> ContextSelection;

    /// Human-readable strategy name (used in benchmark output).
    fn name(&self) -> &'static str;
}

// ----------------------------------------------------------------------
// Per-thread scratch: dense generation stamps instead of hash sets
// ----------------------------------------------------------------------

/// Membership marks and hop buffers shared by every sample call on a thread.
///
/// A stamp equal to a live generation means "marked". Each call takes one
/// generation for "selected" and one more per BFS hop for "seen this hop",
/// so starting a call or a hop bumps a counter instead of clearing a set,
/// and whatever earlier calls (on any graph) left behind is older than every
/// live generation and reads as unmarked. The arrays only grow — 4 bytes per
/// user and per item of the largest graph the thread has sampled — and are
/// zeroed only when the counter is about to wrap. The hop buffers keep the
/// capacity of the widest hop (or random-fill pool) they have held.
struct Scratch {
    /// Last generation handed out; 0 is "never marked".
    generation: u32,
    users: Side,
    items: Side,
}

/// One vertex class (users or items) of the scratch.
struct Side {
    stamps: Vec<u32>,
    /// Entities selected by the previous hop.
    frontier: Vec<usize>,
    /// This hop's picks; the fill pool afterwards.
    next: Vec<usize>,
    /// Running ends of the frontier's rows in an overflowing hop.
    row_ends: Vec<usize>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            generation: 0,
            users: Side::new(),
            items: Side::new(),
        })
    };
}

impl Scratch {
    /// Starts a call over `num_users` × `num_items` entities that will open
    /// at most `hops` hop generations, and returns its "selected" generation.
    fn begin(&mut self, num_users: usize, num_items: usize, hops: usize) -> u32 {
        self.users.cover(num_users);
        self.items.cover(num_items);
        let needed = u32::try_from(hops)
            .ok()
            .and_then(|hops| hops.checked_add(1))
            .expect("context budget fits the stamp generation space");
        if u32::MAX - self.generation < needed {
            self.users.stamps.fill(0);
            self.items.stamps.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
        self.generation
    }
}

impl Side {
    const fn new() -> Self {
        Side {
            stamps: Vec::new(),
            frontier: Vec::new(),
            next: Vec::new(),
            row_ends: Vec::new(),
        }
    }

    fn cover(&mut self, len: usize) {
        if self.stamps.len() < len {
            self.stamps.resize(len, 0);
        }
    }

    /// The distinct `seeds` in first-seen order, each marked `selected`.
    fn dedup_seeds(&mut self, seeds: &[usize], budget: usize, selected: u32) -> Vec<usize> {
        let mut out = Vec::new();
        for &s in seeds {
            let fresh = match self.stamps.get_mut(s) {
                Some(stamp) => std::mem::replace(stamp, selected) != selected,
                // Not an entity of this graph; the samplers that never look
                // a seed up have always passed such a seed through.
                None => !out.contains(&s),
            };
            if fresh {
                out.push(s);
            }
        }
        assert!(
            out.len() <= budget,
            "seed count {} exceeds budget {budget}",
            out.len()
        );
        out
    }

    /// One side of one BFS hop: picks what `picked` still lacks of `budget`
    /// from the neighbours of `from` that are not marked `selected`, marks
    /// them, and leaves them in `next` for the caller to make the frontier.
    ///
    /// Early-exit walk: the rows of `from` are walked in order, with `hop`
    /// marking "seen this hop", until `room + 1` candidates are found. If
    /// the walk ends with at most `room`, all are taken in first-seen order,
    /// without a draw. Otherwise `room` picks are drawn by rejection from
    /// the concatenated rows ([`Side::draw`]). A spent side reads nothing.
    #[allow(clippy::too_many_arguments)]
    fn hop<'g>(
        &mut self,
        from: &[usize],
        neighbors: impl Fn(usize) -> &'g [(u32, f32)],
        picked: &mut Vec<usize>,
        budget: usize,
        selected: u32,
        hop: u32,
        rng: &mut dyn rand::RngCore,
    ) {
        self.next.clear();
        let room = budget - picked.len();
        if room == 0 {
            return;
        }
        'walk: for &v in from {
            for &(x, _) in neighbors(v) {
                let stamp = &mut self.stamps[x as usize];
                if *stamp != selected && *stamp != hop {
                    *stamp = hop;
                    self.next.push(x as usize);
                    if self.next.len() > room {
                        break 'walk;
                    }
                }
            }
        }
        if self.next.len() > room {
            self.draw(from, neighbors, room, selected, rng);
        } else {
            for &x in &self.next {
                self.stamps[x] = selected;
            }
        }
        picked.extend_from_slice(&self.next);
    }

    /// Replaces `next` with `room` entities drawn uniformly without
    /// replacement from the unselected neighbours of `from`, in draw order,
    /// each marked `selected` as it is drawn. There must be more than
    /// `room` of them.
    ///
    /// A try draws a position in the concatenation of the rows of `from`
    /// and accepts its entity only if it is unselected and in no earlier
    /// row (rows are sorted, so a binary search each): every candidate has
    /// exactly one accepting position, so each accepted pick is uniform over
    /// the candidates not yet picked — the law of the first `room` entries
    /// of a shuffle of all of them.
    fn draw<'g>(
        &mut self,
        from: &[usize],
        neighbors: impl Fn(usize) -> &'g [(u32, f32)],
        room: usize,
        selected: u32,
        rng: &mut dyn rand::RngCore,
    ) {
        self.next.clear();
        self.row_ends.clear();
        let mut total = 0;
        for &v in from {
            total += neighbors(v).len();
            self.row_ends.push(total);
        }
        while self.next.len() < room {
            let at = below(rng, total);
            let row = self.row_ends.partition_point(|&end| end <= at);
            let start = if row == 0 { 0 } else { self.row_ends[row - 1] };
            let x = neighbors(from[row])[at - start].0;
            if self.stamps[x as usize] == selected
                || from[..row]
                    .iter()
                    .any(|&v| neighbors(v).binary_search_by_key(&x, |&(y, _)| y).is_ok())
            {
                continue;
            }
            self.stamps[x as usize] = selected;
            self.next.push(x as usize);
        }
    }

    /// Fills `picked` up to `budget` with uniformly random indices from
    /// `0..total` not marked `selected` (every pick so far is): the first
    /// `min(room, pool)` steps of a Fisher–Yates shuffle of the pool.
    fn fill_random(
        &mut self,
        picked: &mut Vec<usize>,
        budget: usize,
        total: usize,
        selected: u32,
        rng: &mut dyn rand::RngCore,
    ) {
        if picked.len() >= budget || total == 0 {
            return;
        }
        let stamps = &self.stamps[..total];
        self.next.clear();
        self.next
            .extend((0..total).filter(|&x| stamps[x] != selected));
        let take = (budget - picked.len()).min(self.next.len());
        for k in 0..take {
            let j = k + below(rng, self.next.len() - k);
            self.next.swap(k, j);
        }
        picked.extend_from_slice(&self.next[..take]);
    }
}

/// A uniform index in `0..len` (`len > 0`), from one `u64` draw.
fn below(rng: &mut dyn rand::RngCore, len: usize) -> usize {
    (rng.next_u64() % len as u64) as usize
}

// ----------------------------------------------------------------------
// Neighborhood sampling (paper default)
// ----------------------------------------------------------------------

/// BFS from the seed set over the bipartite graph, hop by hop, taking whole
/// neighborhoods when they fit the remaining budget and uniform subsets
/// otherwise. Falls back to uniform sampling when the frontier empties
/// before the budget is exhausted (disconnected cold entities).
///
/// A hop's cost is bounded by the budgets `n`, `m` and the frontier, not by
/// the degrees of the entities in it (module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct NeighborhoodSampler;

impl ContextSampler for NeighborhoodSampler {
    fn sample(
        &self,
        graph: &BipartiteGraph,
        seed_users: &[usize],
        seed_items: &[usize],
        n: usize,
        m: usize,
        rng: &mut dyn rand::RngCore,
    ) -> ContextSelection {
        SCRATCH.with_borrow_mut(|scratch| {
            // Every hop but the last selects at least one entity.
            let hops = n.min(graph.num_users()) + m.min(graph.num_items()) + 1;
            let selected = scratch.begin(graph.num_users(), graph.num_items(), hops);
            let Scratch {
                generation,
                users: user_side,
                items: item_side,
            } = scratch;
            let mut users = user_side.dedup_seeds(seed_users, n, selected);
            let mut items = item_side.dedup_seeds(seed_items, m, selected);
            user_side.frontier.clone_from(&users);
            item_side.frontier.clone_from(&items);

            while (users.len() < n || items.len() < m)
                && (!user_side.frontier.is_empty() || !item_side.frontier.is_empty())
            {
                // One hop: neighbors of frontier users are items, and vice
                // versa, both from the frontiers before the hop; items pick
                // (and draw) before users.
                *generation += 1;
                let hop = *generation;
                item_side.hop(
                    &user_side.frontier,
                    |u| graph.user_neighbors(u),
                    &mut items,
                    m,
                    selected,
                    hop,
                    rng,
                );
                user_side.hop(
                    &item_side.frontier,
                    |i| graph.item_neighbors(i),
                    &mut users,
                    n,
                    selected,
                    hop,
                    rng,
                );
                for side in [&mut *user_side, &mut *item_side] {
                    std::mem::swap(&mut side.frontier, &mut side.next);
                }
            }

            // Disconnected remainder: fill uniformly so the context is full.
            user_side.fill_random(&mut users, n, graph.num_users(), selected, rng);
            item_side.fill_random(&mut items, m, graph.num_items(), selected, rng);
            ContextSelection { users, items }
        })
    }

    fn name(&self) -> &'static str {
        "neighborhood"
    }
}

// ----------------------------------------------------------------------
// Random sampling (ablation)
// ----------------------------------------------------------------------

/// Uniformly random users/items (plus the seeds).
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomSampler;

impl ContextSampler for RandomSampler {
    fn sample(
        &self,
        graph: &BipartiteGraph,
        seed_users: &[usize],
        seed_items: &[usize],
        n: usize,
        m: usize,
        rng: &mut dyn rand::RngCore,
    ) -> ContextSelection {
        SCRATCH.with_borrow_mut(|scratch| {
            let (num_users, num_items) = (graph.num_users(), graph.num_items());
            let selected = scratch.begin(num_users, num_items, 0);
            let Scratch {
                users: user_side,
                items: item_side,
                ..
            } = scratch;
            let mut users = user_side.dedup_seeds(seed_users, n, selected);
            let mut items = item_side.dedup_seeds(seed_items, m, selected);
            user_side.fill_random(&mut users, n, num_users, selected, rng);
            item_side.fill_random(&mut items, m, num_items, selected, rng);
            ContextSelection { users, items }
        })
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

// ----------------------------------------------------------------------
// Feature-similarity sampling (ablation)
// ----------------------------------------------------------------------

/// Selects the users/items with the highest cosine similarity of attribute
/// features to the seed entities (§ VI-E).
pub struct FeatureSimilaritySampler {
    user_features: Vec<Vec<f32>>,
    item_features: Vec<Vec<f32>>,
}

impl FeatureSimilaritySampler {
    /// Creates the sampler from per-entity feature vectors.
    pub fn new(user_features: Vec<Vec<f32>>, item_features: Vec<Vec<f32>>) -> Self {
        FeatureSimilaritySampler {
            user_features,
            item_features,
        }
    }

    /// Extends the seeds in `picked` up to `budget` with the entities most
    /// similar to any of them, marking each `selected` in `stamps`.
    fn top_similar(
        features: &[Vec<f32>],
        picked: &mut Vec<usize>,
        budget: usize,
        stamps: &mut [u32],
        selected: u32,
    ) {
        if picked.len() >= budget || picked.is_empty() {
            return;
        }
        let mut scored: Vec<(f32, usize)> = (0..features.len())
            .filter(|&x| stamps[x] != selected)
            .map(|x| {
                // `f32::max` drops a NaN operand, so an entity whose cosine
                // to every seed is NaN scores -inf.
                let best = picked
                    .iter()
                    .map(|&s| cosine(&features[s], &features[x]))
                    .fold(f32::NEG_INFINITY, f32::max);
                (best, x)
            })
            .collect();
        scored.sort_by(|a, b| descending_nan_last(a.0, b.0));
        let room = budget - picked.len();
        for (_, x) in scored.into_iter().take(room) {
            stamps[x] = selected;
            picked.push(x);
        }
    }
}

/// Total order for a stable sort by descending score: finite and infinite
/// scores by `partial_cmp` (so `-0.0` and `0.0` tie and keep index order),
/// NaN after all of them.
fn descending_nan_last(a: f32, b: f32) -> std::cmp::Ordering {
    b.partial_cmp(&a)
        .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let dot: f32 = a.iter().zip(b).map(|(&x, &y)| x * y).sum();
    let na: f32 = a.iter().map(|&x| x * x).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|&x| x * x).sum::<f32>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

impl ContextSampler for FeatureSimilaritySampler {
    fn sample(
        &self,
        graph: &BipartiteGraph,
        seed_users: &[usize],
        seed_items: &[usize],
        n: usize,
        m: usize,
        rng: &mut dyn rand::RngCore,
    ) -> ContextSelection {
        SCRATCH.with_borrow_mut(|scratch| {
            let (num_users, num_items) = (graph.num_users(), graph.num_items());
            let selected = scratch.begin(
                num_users.max(self.user_features.len()),
                num_items.max(self.item_features.len()),
                0,
            );
            let Scratch {
                users: user_side,
                items: item_side,
                ..
            } = scratch;
            let mut users = user_side.dedup_seeds(seed_users, n, selected);
            let mut items = item_side.dedup_seeds(seed_items, m, selected);
            let (user_stamps, item_stamps) = (&mut user_side.stamps, &mut item_side.stamps);
            Self::top_similar(&self.user_features, &mut users, n, user_stamps, selected);
            Self::top_similar(&self.item_features, &mut items, m, item_stamps, selected);
            // No seeds on one side, or not enough entities: random fallback.
            user_side.fill_random(&mut users, n, num_users, selected, rng);
            item_side.fill_random(&mut items, m, num_items, selected, rng);
            ContextSelection { users, items }
        })
    }

    fn name(&self) -> &'static str {
        "feature-similarity"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bipartite::Rating;
    use crate::oracle;
    use rand::{Rng, SeedableRng};

    /// The paper's Example 1 graph: users {u0,u1,u2}, items {i0,i1},
    /// edges u1-i1, u2-i1, u1-i0. Seed = (u0, i1), n = m = 2.
    fn example1() -> BipartiteGraph {
        BipartiteGraph::from_ratings(
            3,
            2,
            &[
                Rating::new(1, 1, 4.0),
                Rating::new(2, 1, 3.0),
                Rating::new(1, 0, 5.0),
            ],
        )
    }

    #[test]
    fn neighborhood_follows_paper_example() {
        let g = example1();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let sel = NeighborhoodSampler.sample(&g, &[0], &[1], 2, 2, &mut rng);
        assert_eq!(sel.users.len(), 2);
        assert_eq!(sel.items.len(), 2);
        assert_eq!(sel.users[0], 0, "seed user first");
        assert_eq!(sel.items[0], 1, "seed item first");
        // the extra user must be a neighbor of i1 (u1 or u2)
        assert!(sel.users[1] == 1 || sel.users[1] == 2);
        // the extra item is i0 (only remaining item)
        assert_eq!(sel.items[1], 0);
    }

    #[test]
    fn budgets_are_exact_when_graph_is_large_enough() {
        let g = example1();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for sampler in [&NeighborhoodSampler as &dyn ContextSampler, &RandomSampler] {
            let sel = sampler.sample(&g, &[0], &[0], 3, 2, &mut rng);
            assert_eq!(sel.users.len(), 3, "{}", sampler.name());
            assert_eq!(sel.items.len(), 2, "{}", sampler.name());
            // uniqueness
            for mut picked in [sel.users, sel.items] {
                let len = picked.len();
                picked.sort_unstable();
                picked.dedup();
                assert_eq!(picked.len(), len, "{}", sampler.name());
            }
        }
    }

    #[test]
    fn disconnected_seed_falls_back_to_random() {
        // u0 has no edges at all; context must still fill.
        let g = BipartiteGraph::from_ratings(4, 4, &[Rating::new(1, 1, 3.0)]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let sel = NeighborhoodSampler.sample(&g, &[0], &[], 3, 3, &mut rng);
        assert_eq!(sel.users.len(), 3);
        assert_eq!(sel.items.len(), 3);
    }

    #[test]
    fn duplicate_seeds_are_deduped() {
        let g = example1();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let sel = RandomSampler.sample(&g, &[0, 0, 0], &[1, 1], 2, 2, &mut rng);
        assert_eq!(sel.users.len(), 2);
        assert_eq!(sel.items.len(), 2);
    }

    #[test]
    #[should_panic(expected = "exceeds budget")]
    fn too_many_seeds_panics() {
        let g = example1();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        NeighborhoodSampler.sample(&g, &[0, 1, 2], &[], 2, 2, &mut rng);
    }

    #[test]
    fn feature_similarity_prefers_similar_entities() {
        let g = BipartiteGraph::empty(4, 4);
        let uf = vec![
            vec![1.0, 0.0], // seed
            vec![0.9, 0.1], // most similar
            vec![0.0, 1.0],
            vec![-1.0, 0.0],
        ];
        let features = FeatureSimilaritySampler::new(uf, vec![vec![1.0]; 4]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let sel = features.sample(&g, &[0], &[0], 2, 1, &mut rng);
        assert_eq!(sel.users, vec![0, 1]);
    }

    #[test]
    fn nan_scores_sort_last_and_signed_zeros_tie() {
        use std::cmp::Ordering::{Equal, Greater, Less};
        assert_eq!(descending_nan_last(1.0, 0.5), Less);
        assert_eq!(descending_nan_last(f32::NEG_INFINITY, 0.5), Greater);
        assert_eq!(descending_nan_last(-0.0, 0.0), Equal);
        assert_eq!(descending_nan_last(f32::NAN, f32::NEG_INFINITY), Greater);
        assert_eq!(descending_nan_last(f32::INFINITY, f32::NAN), Less);
        assert_eq!(descending_nan_last(f32::NAN, f32::NAN), Equal);

        let mut scores = [f32::NAN, 0.0, 1.0, f32::NAN, -0.0, f32::NEG_INFINITY, 2.0];
        scores.sort_by(|a, b| descending_nan_last(*a, *b));
        assert_eq!(scores[..5], [2.0, 1.0, 0.0, -0.0, f32::NEG_INFINITY]);
        assert!(scores[2].is_sign_positive() && scores[3].is_sign_negative());
        assert!(scores[5].is_nan() && scores[6].is_nan());
    }

    #[test]
    fn feature_similarity_survives_nan_and_zero_rows() {
        let g = BipartiteGraph::empty(6, 1);
        let uf = vec![
            vec![1.0, 0.0],      // seed
            vec![f32::NAN, 1.0], // cosine NaN: scores -inf, after every real score
            vec![0.0, 0.0],      // zero norm: cosine 0 by definition
            vec![-1.0, 0.0],     // cosine -1
            vec![0.0, 1.0],      // cosine 0, ties with the zero row
            vec![2.0, 0.1],      // most similar
        ];
        let features = FeatureSimilaritySampler::new(uf, vec![vec![1.0]]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let sel = features.sample(&g, &[0], &[0], 6, 1, &mut rng);
        assert_eq!(sel.users, vec![0, 5, 2, 4, 3, 1]);

        // A NaN seed row: the zero row still scores 0, every other score is
        // -inf and keeps index order.
        let sel = features.sample(&g, &[1], &[0], 4, 1, &mut rng);
        assert_eq!(sel.users, vec![1, 2, 0, 3]);
    }

    #[test]
    fn generation_wrap_keeps_every_sampler_on_its_oracle() {
        let cases: Vec<_> = [oracle::hub_graph(), oracle::random_graph(30, 30, 0.1, 5)]
            .into_iter()
            .map(|graph| {
                let pairs = oracle::sampler_pairs(&graph);
                (graph, pairs)
            })
            .collect();
        let generation = || SCRATCH.with_borrow(|scratch| scratch.generation);
        // Every sampler on both graphs, each call checked against its oracle
        // (selection and next draw); true when the generation wrapped.
        let round = |k: usize| {
            let mut wrapped = false;
            for (graph, pairs) in &cases {
                let (nu, ni) = (graph.num_users(), graph.num_items());
                let users = [(k * 37 + 1) % nu, (k * 5) % nu];
                let items = [(k * 11) % ni];
                for (new, old) in pairs {
                    let before = generation();
                    let mut rng_new = rand::rngs::StdRng::seed_from_u64(k as u64);
                    let mut rng_old = rng_new.clone();
                    let got = new.sample(graph, &users, &items, 16, 16, &mut rng_new);
                    let want = old.sample(graph, &users, &items, 16, 16, &mut rng_old);
                    let what = format!("{} round {k} from generation {before}", new.name());
                    assert_eq!(got, want, "{what}");
                    assert_eq!(rng_new.gen::<u64>(), rng_old.gen::<u64>(), "{what}");
                    wrapped |= generation() < before;
                }
            }
            wrapped
        };

        // Low generations first, so that a wrap which failed to clear would
        // meet its own restarted generations in the stamps; then a start at
        // every distance from the wrap a call can straddle, each followed by
        // calls that refill the low stamps for the next one.
        assert!(!round(0) && !round(1));
        for distance in 0..=40u32 {
            SCRATCH.with_borrow_mut(|scratch| scratch.generation = u32::MAX - distance);
            let k = 2 + 2 * distance as usize;
            let wrapped = round(k) | round(k + 1);
            assert!(wrapped, "no wrap from {distance} below the maximum");
        }
    }

    /// An RNG that must not be drawn from.
    struct NoDraws;

    impl rand::RngCore for NoDraws {
        fn next_u32(&mut self) -> u32 {
            panic!("drew from a spent side")
        }

        fn next_u64(&mut self) -> u64 {
            panic!("drew from a spent side")
        }
    }

    #[test]
    fn a_spent_side_reads_no_row_and_draws_nothing() {
        let hub: Vec<(u32, f32)> = (0..1_000).map(|x| (x, 1.0)).collect();
        let rows_read = std::cell::Cell::new(0);
        let neighbors = |_| {
            rows_read.set(rows_read.get() + 1);
            &hub[..]
        };
        let mut side = Side::new();
        side.cover(hub.len());
        let mut picked = vec![3, 5];
        for &x in &picked {
            side.stamps[x] = 1;
        }
        side.hop(&[0, 1], neighbors, &mut picked, 2, 1, 2, &mut NoDraws);
        assert_eq!((rows_read.get(), picked.len()), (0, 2));
        assert!(side.next.is_empty());

        // With room, the same frontier is read (and drawn from).
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        side.hop(&[0, 1], neighbors, &mut picked, 4, 1, 3, &mut rng);
        assert!(rows_read.get() > 0);
        assert_eq!(picked.len(), 4);
        assert!(!picked[2..].contains(&3) && !picked[2..].contains(&5));
    }

    #[test]
    fn samplers_report_names() {
        assert_eq!(NeighborhoodSampler.name(), "neighborhood");
        assert_eq!(RandomSampler.name(), "random");
        assert_eq!(
            FeatureSimilaritySampler::new(vec![], vec![]).name(),
            "feature-similarity"
        );
    }
}
