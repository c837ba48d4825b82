//! The regression oracle: verbatim copies of the three samplers as they
//! were before any membership optimisation (hash sets built per call, the
//! BFS hop dedup a linear `Vec::contains` scan), plus the graphs the
//! regression cases run on.
//!
//! Compiled twice: by `tests/sampler_regression.rs` (`mod oracle;`) and by
//! the crate's own unit tests (`src/lib.rs`, `#[path]`), which need it next
//! to the sampler's private scratch to start the stamp generation near the
//! wrap.
#![allow(dead_code)]

use hire_graph::{
    BipartiteGraph, ContextSampler, ContextSelection, FeatureSimilaritySampler,
    NeighborhoodSampler, RandomSampler, Rating,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

// ---------------------------------------------------------------------
// Verbatim legacy samplers
// ---------------------------------------------------------------------

fn legacy_dedup_seeds(seeds: &[usize], budget: usize) -> Vec<usize> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for &s in seeds {
        if seen.insert(s) {
            out.push(s);
        }
    }
    assert!(out.len() <= budget);
    out
}

fn legacy_fill_random(
    selected: &mut Vec<usize>,
    budget: usize,
    total: usize,
    rng: &mut dyn rand::RngCore,
) {
    if selected.len() >= budget || total == 0 {
        return;
    }
    let chosen: HashSet<usize> = selected.iter().copied().collect();
    let mut pool: Vec<usize> = (0..total).filter(|x| !chosen.contains(x)).collect();
    pool.shuffle(rng);
    for x in pool {
        if selected.len() >= budget {
            break;
        }
        selected.push(x);
    }
}

pub fn legacy_sample(
    graph: &BipartiteGraph,
    seed_users: &[usize],
    seed_items: &[usize],
    n: usize,
    m: usize,
    rng: &mut dyn rand::RngCore,
) -> ContextSelection {
    let mut users = legacy_dedup_seeds(seed_users, n);
    let mut items = legacy_dedup_seeds(seed_items, m);
    let user_set: HashSet<usize> = users.iter().copied().collect();
    let item_set: HashSet<usize> = items.iter().copied().collect();
    let mut user_set = user_set;
    let mut item_set = item_set;

    let mut frontier_users: Vec<usize> = users.clone();
    let mut frontier_items: Vec<usize> = items.clone();

    while (users.len() < n || items.len() < m)
        && (!frontier_users.is_empty() || !frontier_items.is_empty())
    {
        let mut next_items: Vec<usize> = Vec::new();
        for &u in &frontier_users {
            for &(i, _) in graph.user_neighbors(u) {
                let i = i as usize;
                if !item_set.contains(&i) && !next_items.contains(&i) {
                    next_items.push(i);
                }
            }
        }
        let mut next_users: Vec<usize> = Vec::new();
        for &i in &frontier_items {
            for &(u, _) in graph.item_neighbors(i) {
                let u = u as usize;
                if !user_set.contains(&u) && !next_users.contains(&u) {
                    next_users.push(u);
                }
            }
        }

        let item_budget = m - items.len();
        if next_items.len() > item_budget {
            next_items.shuffle(rng);
            next_items.truncate(item_budget);
        }
        let user_budget = n - users.len();
        if next_users.len() > user_budget {
            next_users.shuffle(rng);
            next_users.truncate(user_budget);
        }

        for &i in &next_items {
            item_set.insert(i);
            items.push(i);
        }
        for &u in &next_users {
            user_set.insert(u);
            users.push(u);
        }
        frontier_users = next_users;
        frontier_items = next_items;
    }

    legacy_fill_random(&mut users, n, graph.num_users(), rng);
    legacy_fill_random(&mut items, m, graph.num_items(), rng);
    ContextSelection { users, items }
}

/// `legacy_sample` behind the trait, so one loop can pair each sampler with
/// its oracle.
pub struct LegacyNeighborhood;

impl ContextSampler for LegacyNeighborhood {
    fn sample(
        &self,
        graph: &BipartiteGraph,
        seed_users: &[usize],
        seed_items: &[usize],
        n: usize,
        m: usize,
        rng: &mut dyn rand::RngCore,
    ) -> ContextSelection {
        legacy_sample(graph, seed_users, seed_items, n, m, rng)
    }

    fn name(&self) -> &'static str {
        "legacy-neighborhood"
    }
}

pub struct LegacyRandom;

impl ContextSampler for LegacyRandom {
    fn sample(
        &self,
        graph: &BipartiteGraph,
        seed_users: &[usize],
        seed_items: &[usize],
        n: usize,
        m: usize,
        rng: &mut dyn rand::RngCore,
    ) -> ContextSelection {
        let mut users = legacy_dedup_seeds(seed_users, n);
        let mut items = legacy_dedup_seeds(seed_items, m);
        legacy_fill_random(&mut users, n, graph.num_users(), rng);
        legacy_fill_random(&mut items, m, graph.num_items(), rng);
        ContextSelection { users, items }
    }

    fn name(&self) -> &'static str {
        "legacy-random"
    }
}

pub struct LegacyFeatureSimilarity {
    user_features: Vec<Vec<f32>>,
    item_features: Vec<Vec<f32>>,
}

impl LegacyFeatureSimilarity {
    pub fn new(user_features: Vec<Vec<f32>>, item_features: Vec<Vec<f32>>) -> Self {
        LegacyFeatureSimilarity {
            user_features,
            item_features,
        }
    }

    fn top_similar(
        features: &[Vec<f32>],
        seeds: &[usize],
        selected: &mut Vec<usize>,
        budget: usize,
    ) {
        if selected.len() >= budget || seeds.is_empty() {
            return;
        }
        let chosen: HashSet<usize> = selected.iter().copied().collect();
        let mut scored: Vec<(f32, usize)> = (0..features.len())
            .filter(|x| !chosen.contains(x))
            .map(|x| {
                let best = seeds
                    .iter()
                    .map(|&s| legacy_cosine(&features[s], &features[x]))
                    .fold(f32::NEG_INFINITY, f32::max);
                (best, x)
            })
            .collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        for (_, x) in scored {
            if selected.len() >= budget {
                break;
            }
            selected.push(x);
        }
    }
}

fn legacy_cosine(a: &[f32], b: &[f32]) -> f32 {
    let dot: f32 = a.iter().zip(b).map(|(&x, &y)| x * y).sum();
    let na: f32 = a.iter().map(|&x| x * x).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|&x| x * x).sum::<f32>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

impl ContextSampler for LegacyFeatureSimilarity {
    fn sample(
        &self,
        graph: &BipartiteGraph,
        seed_users: &[usize],
        seed_items: &[usize],
        n: usize,
        m: usize,
        rng: &mut dyn rand::RngCore,
    ) -> ContextSelection {
        let mut users = legacy_dedup_seeds(seed_users, n);
        let mut items = legacy_dedup_seeds(seed_items, m);
        let seed_u = users.clone();
        let seed_i = items.clone();
        Self::top_similar(&self.user_features, &seed_u, &mut users, n);
        Self::top_similar(&self.item_features, &seed_i, &mut items, m);
        legacy_fill_random(&mut users, n, graph.num_users(), rng);
        legacy_fill_random(&mut items, m, graph.num_items(), rng);
        ContextSelection { users, items }
    }

    fn name(&self) -> &'static str {
        "legacy-feature-similarity"
    }
}

/// Each sampler next to its oracle; the feature samplers share `graph`-sized
/// [`features`] with their NaN, zero and tied rows.
pub fn sampler_pairs(
    graph: &BipartiteGraph,
) -> Vec<(Box<dyn ContextSampler>, Box<dyn ContextSampler>)> {
    let uf = features(graph.num_users(), 11);
    let itf = features(graph.num_items(), 12);
    vec![
        (Box::new(NeighborhoodSampler), Box::new(LegacyNeighborhood)),
        (Box::new(RandomSampler), Box::new(LegacyRandom)),
        (
            Box::new(FeatureSimilaritySampler::new(uf.clone(), itf.clone())),
            Box::new(LegacyFeatureSimilarity::new(uf, itf)),
        ),
    ]
}

// ---------------------------------------------------------------------
// Graphs and features
// ---------------------------------------------------------------------

/// Random bipartite graph with `density` edge probability and ratings in
/// 1..=5.
pub fn random_graph(num_users: usize, num_items: usize, density: f64, seed: u64) -> BipartiteGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for u in 0..num_users {
        for i in 0..num_items {
            if rng.gen_bool(density) {
                edges.push(Rating::new(u, i, rng.gen_range(1..=5) as f32));
            }
        }
    }
    BipartiteGraph::from_ratings(num_users, num_items, &edges)
}

pub const HUB_USERS: usize = 2_000;
pub const HUB_ITEMS: usize = 40;

/// Whether `user` rated the hub item (item 0) of [`hub_graph`].
pub fn rates_hub(user: usize) -> bool {
    !user.is_multiple_of(20)
}

/// 2 000 users × 40 items; item 0 is rated by 95 % of the users and every
/// user also rates three of the other 39 items (≈ 150 raters each). With
/// `n = m = 16`, seeding at a hub rater and a small item fills the user
/// budget in hop 1 and walks the hub with a budget of 0 in hop 2; seeding at
/// the hub itself shuffles its 1 900 raters down to 15.
pub fn hub_graph() -> BipartiteGraph {
    let mut edges = Vec::new();
    for u in 0..HUB_USERS {
        if rates_hub(u) {
            edges.push(Rating::new(u, 0, 1.0 + (u % 5) as f32));
        }
        for k in 0..3 {
            let item = 1 + (u * 7 + k * 13) % (HUB_ITEMS - 1);
            edges.push(Rating::new(u, item, 1.0 + ((u + k) % 5) as f32));
        }
    }
    BipartiteGraph::from_ratings(HUB_USERS, HUB_ITEMS, &edges)
}

/// `rows` feature vectors of width 4 with a NaN row (index 1), an all-zero
/// row (index 2) and a duplicated row (3 ≡ 4, so finite scores tie).
pub fn features(rows: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<Vec<f32>> = (0..rows)
        .map(|_| (0..4).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect();
    if rows > 4 {
        out[1][2] = f32::NAN;
        out[2] = vec![0.0; 4];
        out[4] = out[3].clone();
    }
    out
}
