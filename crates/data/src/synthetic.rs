//! Synthetic dataset generators standing in for MovieLens-1M, Douban and
//! Bookcrossing (see DESIGN.md §2 for the substitution rationale).
//!
//! The generator plants a latent-factor structure in which categorical
//! attributes partially determine entity latent vectors, so models that
//! exploit attribute interactions (HIRE, and the stronger baselines) can
//! generalize to cold entities — the causal mechanism the paper's
//! evaluation measures. Popularity follows a Zipf-like skew so that
//! neighborhood sampling is meaningfully different from random sampling.

use crate::dataset::Dataset;
use crate::schema::{Attribute, EntitySchema};
use hire_graph::{BipartiteGraph, Rating, SocialGraph};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};
use std::collections::HashSet;

/// SplitMix64 finalizer mixing the dataset seed with a per-entity stream id.
/// Each user's draws on the streaming path depend only on `(seed, user)`, so
/// the edge stream replays bit-identically across the two CSR build passes
/// of [`BipartiteGraph::from_edge_stream`].
fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stream id for the shared (non-per-user) generation tables.
const TABLES_STREAM: u64 = u64::MAX;

/// Shared tables for the streaming generator, built once and read by every
/// per-user stream: schemas, attribute-level latents, fully materialized
/// item-side state (codes, flat latents, biases), and the zipf popularity
/// CDF. Item state is `O(num_items · latent_dim)` — small even at 100k
/// items — while the `O(num_users)` side stays derived, never stored.
struct StreamTables {
    user_schema: EntitySchema,
    item_schema: EntitySchema,
    user_attr_latents: Vec<Vec<Vec<f32>>>,
    item_attrs: Vec<Vec<usize>>,
    /// Flat `num_items x latent_dim` row-major item latent matrix.
    item_latent: Vec<f32>,
    item_bias: Vec<f32>,
    cumulative: Vec<f64>,
    total_weight: f64,
}

/// Social-graph generation settings.
#[derive(Debug, Clone, Copy)]
pub struct SocialConfig {
    /// Average friends per user.
    pub friends_per_user: usize,
    /// Probability that a friendship follows latent-space homophily rather
    /// than being uniformly random.
    pub homophily: f32,
}

/// Configuration of the synthetic generator.
#[derive(Debug, Clone)]
pub struct SyntheticConfig {
    /// Dataset name.
    pub name: String,
    /// Number of users.
    pub num_users: usize,
    /// Number of items.
    pub num_items: usize,
    /// User attributes as `(name, cardinality)`; empty = ID-only.
    pub user_attributes: Vec<(String, usize)>,
    /// Item attributes as `(name, cardinality)`; empty = ID-only.
    pub item_attributes: Vec<(String, usize)>,
    /// Number of discrete rating levels.
    pub rating_levels: usize,
    /// Latent factor dimensionality.
    pub latent_dim: usize,
    /// Per-user degree range `[min, max]`.
    pub ratings_per_user: (usize, usize),
    /// Std of the additive rating noise (in rating units).
    pub noise: f32,
    /// Fraction of an entity's latent vector explained by its attributes
    /// (0 = pure ID effects, 1 = fully attribute-determined).
    pub attr_strength: f32,
    /// Zipf exponent for item popularity.
    pub popularity_skew: f32,
    /// Std of the per-item quality bias (rating units). Learnable from warm
    /// data; lets every model rank globally-good items.
    pub item_bias_std: f32,
    /// Std of the per-user leniency bias (rating units). Only inferable
    /// from a user's own (support) ratings.
    pub user_bias_std: f32,
    /// Optional social graph.
    pub social: Option<SocialConfig>,
}

impl SyntheticConfig {
    /// MovieLens-1M stand-in: rich attributes on both sides, 1-5 scale.
    pub fn movielens_like() -> Self {
        SyntheticConfig {
            name: "MovieLens-1M (synthetic)".into(),
            num_users: 600,
            num_items: 400,
            user_attributes: vec![
                ("Age".into(), 7),
                ("Occupation".into(), 21),
                ("Gender".into(), 2),
                ("Zip code".into(), 10),
            ],
            item_attributes: vec![
                ("Rate".into(), 5),
                ("Genre".into(), 18),
                ("Director".into(), 30),
                ("Actor".into(), 40),
            ],
            rating_levels: 5,
            latent_dim: 8,
            ratings_per_user: (40, 120),
            noise: 0.5,
            attr_strength: 0.25,
            popularity_skew: 0.8,
            item_bias_std: 0.4,
            user_bias_std: 0.3,
            social: None,
        }
    }

    /// Douban stand-in: no attributes (ID-only), social relations, 1-5 scale.
    pub fn douban_like() -> Self {
        SyntheticConfig {
            name: "Douban (synthetic)".into(),
            num_users: 500,
            num_items: 600,
            user_attributes: Vec::new(),
            item_attributes: Vec::new(),
            rating_levels: 5,
            latent_dim: 8,
            ratings_per_user: (30, 80),
            noise: 0.5,
            attr_strength: 0.0,
            popularity_skew: 1.0,
            item_bias_std: 0.4,
            user_bias_std: 0.3,
            social: Some(SocialConfig {
                friends_per_user: 12,
                homophily: 0.8,
            }),
        }
    }

    /// Bookcrossing stand-in: one attribute per side, 1-10 scale.
    pub fn bookcrossing_like() -> Self {
        SyntheticConfig {
            name: "Bookcrossing (synthetic)".into(),
            num_users: 600,
            num_items: 500,
            user_attributes: vec![("Age".into(), 10)],
            item_attributes: vec![("Publication year".into(), 12)],
            rating_levels: 10,
            latent_dim: 8,
            ratings_per_user: (30, 90),
            noise: 1.0,
            attr_strength: 0.35,
            popularity_skew: 0.9,
            item_bias_std: 1.2,
            user_bias_std: 0.6,
            social: None,
        }
    }

    /// Million-user regime for the sharded serving benchmarks: MovieLens-like
    /// attribute schemas (so model size stays attribute-bound, independent of
    /// the user count) at ~1M users / 100k items with a long-tail degree
    /// distribution. Only practical through [`Self::generate_streaming`] —
    /// the materializing [`Self::generate`] path would buffer every edge
    /// three times over.
    pub fn million_scale() -> Self {
        let mut cfg = SyntheticConfig::movielens_like().scaled(1_000_000, 100_000, (4, 16));
        cfg.name = "Million-user (synthetic)".into();
        cfg.popularity_skew = 1.1;
        cfg
    }

    /// Shrinks the dataset for fast tests and smoke runs.
    pub fn scaled(mut self, users: usize, items: usize, degree: (usize, usize)) -> Self {
        self.num_users = users;
        self.num_items = items;
        self.ratings_per_user = degree;
        self
    }

    /// Generates the dataset deterministically from a seed.
    pub fn generate(&self, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = self.latent_dim;
        // Entry std d^(-1/4) gives the u·v dot product unit variance.
        let unit = Normal::new(0.0f32, 1.0 / (d as f32).powf(0.25)).unwrap();

        // Attribute-level latent vectors.
        let user_schema = EntitySchema::new(
            self.user_attributes
                .iter()
                .map(|(n, c)| Attribute::new(n.clone(), *c))
                .collect(),
        );
        let item_schema = EntitySchema::new(
            self.item_attributes
                .iter()
                .map(|(n, c)| Attribute::new(n.clone(), *c))
                .collect(),
        );
        let attr_latents = |schema: &EntitySchema, rng: &mut StdRng| -> Vec<Vec<Vec<f32>>> {
            schema
                .attributes()
                .iter()
                .map(|a| {
                    (0..a.cardinality)
                        .map(|_| (0..d).map(|_| unit.sample(rng)).collect())
                        .collect()
                })
                .collect()
        };
        let user_attr_latents = attr_latents(&user_schema, &mut rng);
        let item_attr_latents = attr_latents(&item_schema, &mut rng);

        // Entity codes and latent vectors.
        let gen_entities = |count: usize,
                            schema: &EntitySchema,
                            latents: &[Vec<Vec<f32>>],
                            rng: &mut StdRng|
         -> (Vec<Vec<usize>>, Vec<Vec<f32>>) {
            let mut codes = Vec::with_capacity(count);
            let mut vecs = Vec::with_capacity(count);
            for _ in 0..count {
                let code: Vec<usize> = schema
                    .attributes()
                    .iter()
                    .map(|a| rng.gen_range(0..a.cardinality))
                    .collect();
                let mut v = vec![0.0f32; d];
                if !code.is_empty() && self.attr_strength > 0.0 {
                    for (k, &c) in code.iter().enumerate() {
                        for (vi, &ai) in v.iter_mut().zip(&latents[k][c]) {
                            *vi += ai / code.len() as f32;
                        }
                    }
                    // Attribute means shrink by 1/num_attrs; renormalize so
                    // the attribute part keeps unit-scale variance.
                    let scale = (code.len() as f32).sqrt();
                    for vi in v.iter_mut() {
                        *vi *= self.attr_strength * scale;
                    }
                }
                let personal = 1.0 - self.attr_strength;
                for vi in v.iter_mut() {
                    *vi += personal * unit.sample(rng);
                }
                codes.push(code);
                vecs.push(v);
            }
            (codes, vecs)
        };
        let (user_attrs, user_latent) =
            gen_entities(self.num_users, &user_schema, &user_attr_latents, &mut rng);
        let (item_attrs, item_latent) =
            gen_entities(self.num_items, &item_schema, &item_attr_latents, &mut rng);

        // Zipf-like item popularity over a random permutation.
        let mut item_order: Vec<usize> = (0..self.num_items).collect();
        item_order.shuffle(&mut rng);
        let mut weights = vec![0.0f64; self.num_items];
        for (rank, &item) in item_order.iter().enumerate() {
            weights[item] = 1.0 / ((rank + 1) as f64).powf(self.popularity_skew as f64);
        }
        let cumulative: Vec<f64> = weights
            .iter()
            .scan(0.0, |acc, &w| {
                *acc += w;
                Some(*acc)
            })
            .collect();
        let total_weight = *cumulative.last().unwrap_or(&1.0);

        // Per-entity rating biases.
        let item_bias_dist = Normal::new(0.0f32, self.item_bias_std.max(0.0)).unwrap();
        let user_bias_dist = Normal::new(0.0f32, self.user_bias_std.max(0.0)).unwrap();
        let item_bias: Vec<f32> = (0..self.num_items)
            .map(|_| {
                if self.item_bias_std > 0.0 {
                    item_bias_dist.sample(&mut rng)
                } else {
                    0.0
                }
            })
            .collect();
        let user_bias: Vec<f32> = (0..self.num_users)
            .map(|_| {
                if self.user_bias_std > 0.0 {
                    user_bias_dist.sample(&mut rng)
                } else {
                    0.0
                }
            })
            .collect();

        // Ratings.
        let min_rating = 1.0f32;
        let max_rating = self.rating_levels as f32;
        // Real rating datasets skew positive (MovieLens mean ~3.6/5,
        // Bookcrossing ~7.6/10); center the latent score accordingly.
        let mid = min_rating + 0.58 * (max_rating - min_rating);
        let spread = (self.rating_levels as f32 - 1.0) / 2.8;
        let noise_dist = Normal::new(0.0f32, self.noise).unwrap();
        let mut ratings = Vec::new();
        for u in 0..self.num_users {
            let degree = rng
                .gen_range(self.ratings_per_user.0..=self.ratings_per_user.1)
                .min(self.num_items);
            let mut chosen: HashSet<usize> = HashSet::with_capacity(degree);
            let mut guard = 0;
            while chosen.len() < degree && guard < degree * 50 {
                guard += 1;
                let x = rng.gen::<f64>() * total_weight;
                let item = cumulative
                    .partition_point(|&c| c < x)
                    .min(self.num_items - 1);
                chosen.insert(item);
            }
            // HashSet iteration order is randomized; sort for determinism.
            let mut chosen: Vec<usize> = chosen.into_iter().collect();
            chosen.sort_unstable();
            for item in chosen {
                let dot: f32 = user_latent[u]
                    .iter()
                    .zip(&item_latent[item])
                    .map(|(&a, &b)| a * b)
                    .sum();
                let raw = mid
                    + user_bias[u]
                    + item_bias[item]
                    + spread * dot
                    + noise_dist.sample(&mut rng);
                let value = raw.round().clamp(min_rating, max_rating);
                ratings.push(Rating::new(u, item, value));
            }
        }

        // Social graph with latent homophily.
        let social = self.social.map(|sc| {
            let mut edges = Vec::new();
            for u in 0..self.num_users {
                for _ in 0..sc.friends_per_user / 2 {
                    let v = if rng.gen::<f32>() < sc.homophily {
                        // best of a small random candidate pool by latent similarity
                        let mut best = usize::MAX;
                        let mut best_sim = f32::NEG_INFINITY;
                        for _ in 0..8 {
                            let cand = rng.gen_range(0..self.num_users);
                            if cand == u {
                                continue;
                            }
                            let sim: f32 = user_latent[u]
                                .iter()
                                .zip(&user_latent[cand])
                                .map(|(&a, &b)| a * b)
                                .sum();
                            if sim > best_sim {
                                best_sim = sim;
                                best = cand;
                            }
                        }
                        best
                    } else {
                        rng.gen_range(0..self.num_users)
                    };
                    if v != usize::MAX && v != u {
                        edges.push((u, v));
                    }
                }
            }
            SocialGraph::from_edges(self.num_users, &edges)
        });

        let dataset = Dataset {
            name: self.name.clone(),
            num_users: self.num_users,
            num_items: self.num_items,
            user_schema,
            item_schema,
            user_attrs,
            item_attrs,
            ratings,
            min_rating,
            rating_levels: self.rating_levels,
            social,
        };
        debug_assert!(dataset.validate().is_ok());
        dataset
    }

    /// Streaming, allocation-conscious generation for the million-user
    /// regime: ratings flow straight into [`BipartiteGraph::from_edge_stream`]
    /// without an intermediate `Vec<Rating>`, and user-side state (latents,
    /// biases, degrees) is derived on the fly from a per-user RNG seeded by
    /// `mix(seed, user)` — replayed, never stored. Peak transient memory is
    /// the CSR itself plus the `O(num_items)` tables.
    ///
    /// The returned [`Dataset`] is a serving shell: schemas and attribute
    /// codes are populated, but `ratings` is empty (the graph carries the
    /// edges) and `social` is never generated on this path. Use
    /// [`Self::generate`] when a materialized edge list or social graph is
    /// needed (training, splits).
    ///
    /// The edge sequence differs from [`Self::generate`]'s (that path draws
    /// from one sequential RNG; this one from per-user streams), but the
    /// planted structure — attribute-determined latents, zipf popularity,
    /// per-entity biases — is identical. Duplicate item draws within a user
    /// collapse in CSR compaction (first occurrence wins), so realized
    /// degrees can dip slightly below `ratings_per_user.0` for heads of the
    /// popularity distribution.
    pub fn generate_streaming(&self, seed: u64) -> (Dataset, BipartiteGraph) {
        let tables = self.stream_tables(seed);
        let mut codes = Vec::new();
        let mut latent = Vec::new();
        let mut user_attrs = Vec::with_capacity(self.num_users);
        for u in 0..self.num_users {
            self.fill_user(u, seed, &tables, &mut codes, &mut latent);
            user_attrs.push(codes.clone());
        }
        let graph = BipartiteGraph::from_edge_stream(self.num_users, self.num_items, |emit| {
            self.stream_with_tables(seed, &tables, emit);
        });
        let dataset = Dataset {
            name: self.name.clone(),
            num_users: self.num_users,
            num_items: self.num_items,
            user_schema: tables.user_schema,
            item_schema: tables.item_schema,
            user_attrs,
            item_attrs: tables.item_attrs,
            ratings: Vec::new(),
            min_rating: 1.0,
            rating_levels: self.rating_levels,
            social: None,
        };
        debug_assert!(dataset.validate().is_ok());
        (dataset, graph)
    }

    /// Replays the streaming path's rating sequence into `emit` — the same
    /// sequence `generate_streaming` feeds the CSR builder. Exposed for
    /// benchmarks and tests that need the edges without building a graph.
    pub fn stream_ratings(&self, seed: u64, emit: &mut dyn FnMut(Rating)) {
        let tables = self.stream_tables(seed);
        self.stream_with_tables(seed, &tables, emit);
    }

    /// Builds the shared generation tables for the streaming path.
    fn stream_tables(&self, seed: u64) -> StreamTables {
        let mut rng = StdRng::seed_from_u64(mix_seed(seed, TABLES_STREAM));
        let d = self.latent_dim;
        let unit = Normal::new(0.0f32, 1.0 / (d as f32).powf(0.25)).unwrap();
        let user_schema = EntitySchema::new(
            self.user_attributes
                .iter()
                .map(|(n, c)| Attribute::new(n.clone(), *c))
                .collect(),
        );
        let item_schema = EntitySchema::new(
            self.item_attributes
                .iter()
                .map(|(n, c)| Attribute::new(n.clone(), *c))
                .collect(),
        );
        let attr_latents = |schema: &EntitySchema, rng: &mut StdRng| -> Vec<Vec<Vec<f32>>> {
            schema
                .attributes()
                .iter()
                .map(|a| {
                    (0..a.cardinality)
                        .map(|_| (0..d).map(|_| unit.sample(rng)).collect())
                        .collect()
                })
                .collect()
        };
        let user_attr_latents = attr_latents(&user_schema, &mut rng);
        let item_attr_latents = attr_latents(&item_schema, &mut rng);

        // Item-side entities, materialized once: codes plus a flat row-major
        // latent matrix (no per-item Vec).
        let mut item_attrs = Vec::with_capacity(self.num_items);
        let mut item_latent = vec![0.0f32; self.num_items * d];
        let personal = 1.0 - self.attr_strength;
        for i in 0..self.num_items {
            let code: Vec<usize> = item_schema
                .attributes()
                .iter()
                .map(|a| rng.gen_range(0..a.cardinality))
                .collect();
            let row = &mut item_latent[i * d..(i + 1) * d];
            if !code.is_empty() && self.attr_strength > 0.0 {
                for (k, &c) in code.iter().enumerate() {
                    for (vi, &ai) in row.iter_mut().zip(&item_attr_latents[k][c]) {
                        *vi += ai / code.len() as f32;
                    }
                }
                let scale = self.attr_strength * (code.len() as f32).sqrt();
                for vi in row.iter_mut() {
                    *vi *= scale;
                }
            }
            for vi in row.iter_mut() {
                *vi += personal * unit.sample(&mut rng);
            }
            item_attrs.push(code);
        }

        // Zipf-like popularity over a random permutation (same construction
        // as the materializing path).
        let mut item_order: Vec<usize> = (0..self.num_items).collect();
        item_order.shuffle(&mut rng);
        let mut weights = vec![0.0f64; self.num_items];
        for (rank, &item) in item_order.iter().enumerate() {
            weights[item] = 1.0 / ((rank + 1) as f64).powf(self.popularity_skew as f64);
        }
        let cumulative: Vec<f64> = weights
            .iter()
            .scan(0.0, |acc, &w| {
                *acc += w;
                Some(*acc)
            })
            .collect();
        let total_weight = *cumulative.last().unwrap_or(&1.0);

        let item_bias_dist = Normal::new(0.0f32, self.item_bias_std.max(0.0)).unwrap();
        let item_bias: Vec<f32> = (0..self.num_items)
            .map(|_| {
                if self.item_bias_std > 0.0 {
                    item_bias_dist.sample(&mut rng)
                } else {
                    0.0
                }
            })
            .collect();

        StreamTables {
            user_schema,
            item_schema,
            user_attr_latents,
            item_attrs,
            item_latent,
            item_bias,
            cumulative,
            total_weight,
        }
    }

    /// Derives user `u`'s stream state into the scratch buffers and returns
    /// `(bias, degree, rng)` with the RNG positioned at the edge draws. The
    /// draw order (codes, personal latent, bias, degree, edges) is part of
    /// the replay contract — both CSR passes and the attribute pass consume
    /// the same prefix.
    fn fill_user(
        &self,
        user: usize,
        seed: u64,
        tables: &StreamTables,
        codes: &mut Vec<usize>,
        latent: &mut Vec<f32>,
    ) -> (f32, usize, StdRng) {
        let d = self.latent_dim;
        let unit = Normal::new(0.0f32, 1.0 / (d as f32).powf(0.25)).unwrap();
        let mut rng = StdRng::seed_from_u64(mix_seed(seed, user as u64));
        codes.clear();
        for a in tables.user_schema.attributes() {
            codes.push(rng.gen_range(0..a.cardinality));
        }
        latent.clear();
        latent.resize(d, 0.0);
        if !codes.is_empty() && self.attr_strength > 0.0 {
            for (k, &c) in codes.iter().enumerate() {
                for (vi, &ai) in latent.iter_mut().zip(&tables.user_attr_latents[k][c]) {
                    *vi += ai / codes.len() as f32;
                }
            }
            let scale = self.attr_strength * (codes.len() as f32).sqrt();
            for vi in latent.iter_mut() {
                *vi *= scale;
            }
        }
        let personal = 1.0 - self.attr_strength;
        for vi in latent.iter_mut() {
            *vi += personal * unit.sample(&mut rng);
        }
        let bias = if self.user_bias_std > 0.0 {
            Normal::new(0.0f32, self.user_bias_std)
                .unwrap()
                .sample(&mut rng)
        } else {
            0.0
        };
        let degree = rng
            .gen_range(self.ratings_per_user.0..=self.ratings_per_user.1)
            .min(self.num_items);
        (bias, degree, rng)
    }

    /// Emits every rating of the streaming sequence, in user order.
    fn stream_with_tables(&self, seed: u64, tables: &StreamTables, emit: &mut dyn FnMut(Rating)) {
        let d = self.latent_dim;
        let min_rating = 1.0f32;
        let max_rating = self.rating_levels as f32;
        let mid = min_rating + 0.58 * (max_rating - min_rating);
        let spread = (self.rating_levels as f32 - 1.0) / 2.8;
        let noise_dist = Normal::new(0.0f32, self.noise).unwrap();
        let mut codes = Vec::new();
        let mut latent = Vec::new();
        for u in 0..self.num_users {
            let (bias, degree, mut rng) = self.fill_user(u, seed, tables, &mut codes, &mut latent);
            for _ in 0..degree {
                let x = rng.gen::<f64>() * tables.total_weight;
                let item = tables
                    .cumulative
                    .partition_point(|&c| c < x)
                    .min(self.num_items - 1);
                let dot: f32 = latent
                    .iter()
                    .zip(&tables.item_latent[item * d..(item + 1) * d])
                    .map(|(&a, &b)| a * b)
                    .sum();
                let raw = mid
                    + bias
                    + tables.item_bias[item]
                    + spread * dot
                    + noise_dist.sample(&mut rng);
                emit(Rating::new(
                    u,
                    item,
                    raw.round().clamp(min_rating, max_rating),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn movielens_like_is_valid_and_sized() {
        let cfg = SyntheticConfig::movielens_like().scaled(50, 40, (5, 15));
        let d = cfg.generate(1);
        d.validate().expect("valid dataset");
        assert_eq!(d.num_users, 50);
        assert_eq!(d.num_items, 40);
        assert!(!d.ratings.is_empty());
        assert_eq!(d.user_schema.num_attributes(), 4);
        assert_eq!(d.item_schema.num_attributes(), 4);
        assert_eq!(d.rating_levels, 5);
    }

    #[test]
    fn douban_like_has_social_and_no_attrs() {
        let cfg = SyntheticConfig::douban_like().scaled(40, 50, (5, 10));
        let d = cfg.generate(2);
        d.validate().expect("valid dataset");
        assert!(d.user_schema.is_id_only());
        assert!(d.item_schema.is_id_only());
        let social = d.social.as_ref().expect("social graph");
        assert!(social.num_edges() > 0);
    }

    #[test]
    fn bookcrossing_like_uses_ten_levels() {
        let cfg = SyntheticConfig::bookcrossing_like().scaled(30, 30, (5, 10));
        let d = cfg.generate(3);
        assert_eq!(d.rating_levels, 10);
        assert_eq!(d.max_rating(), 10.0);
        let max = d.ratings.iter().map(|r| r.value).fold(0.0f32, f32::max);
        assert!(max > 5.0, "10-level scale should produce ratings above 5");
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = SyntheticConfig::movielens_like().scaled(20, 20, (3, 6));
        let a = cfg.generate(7);
        let b = cfg.generate(7);
        assert_eq!(a.ratings.len(), b.ratings.len());
        assert_eq!(a.user_attrs, b.user_attrs);
        assert_eq!(
            a.ratings
                .iter()
                .map(|r| (r.user, r.item))
                .collect::<Vec<_>>(),
            b.ratings
                .iter()
                .map(|r| (r.user, r.item))
                .collect::<Vec<_>>()
        );
        let c = cfg.generate(8);
        assert_ne!(
            a.ratings
                .iter()
                .map(|r| (r.user, r.item))
                .collect::<Vec<_>>(),
            c.ratings
                .iter()
                .map(|r| (r.user, r.item))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn ratings_use_full_scale() {
        let cfg = SyntheticConfig::movielens_like().scaled(100, 80, (20, 40));
        let d = cfg.generate(4);
        let mut histogram = vec![0usize; 5];
        for r in &d.ratings {
            histogram[d.rating_code(r.value)] += 1;
        }
        // every level should appear, and the distribution should skew
        // positive like real rating data
        assert!(histogram.iter().all(|&c| c > 0), "histogram {histogram:?}");
        let mean: f32 = d.ratings.iter().map(|r| r.value).sum::<f32>() / d.ratings.len() as f32;
        assert!(mean > 3.0, "mean rating {mean} should skew positive");
    }

    #[test]
    fn popularity_is_skewed() {
        let cfg = SyntheticConfig::movielens_like().scaled(100, 80, (20, 40));
        let d = cfg.generate(5);
        let g = d.graph();
        let mut degrees: Vec<usize> = (0..d.num_items).map(|i| g.item_degree(i)).collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        // top decile carries several times the bottom decile
        let top: usize = degrees[..8].iter().sum();
        let bottom: usize = degrees[72..].iter().sum();
        assert!(top > bottom * 3, "top={top} bottom={bottom}");
    }

    #[test]
    fn streaming_graph_matches_collected_edges() {
        // The CSR built by the two-pass streaming path must be bit-identical
        // to from_ratings over the same emitted sequence.
        let cfg = SyntheticConfig::movielens_like().scaled(80, 60, (4, 12));
        let (dataset, graph) = cfg.generate_streaming(11);
        let mut edges = Vec::new();
        cfg.stream_ratings(11, &mut |r| edges.push(r));
        let reference = hire_graph::BipartiteGraph::from_ratings(80, 60, &edges);
        assert_eq!(graph.num_ratings(), reference.num_ratings());
        for u in 0..80 {
            assert_eq!(graph.user_neighbors(u), reference.user_neighbors(u));
        }
        for i in 0..60 {
            assert_eq!(graph.item_neighbors(i), reference.item_neighbors(i));
        }
        dataset.validate().expect("valid serving shell");
        assert!(
            dataset.ratings.is_empty(),
            "streaming shell carries no edge list"
        );
        assert_eq!(dataset.user_attrs.len(), 80);
        assert_eq!(dataset.item_attrs.len(), 60);
    }

    #[test]
    fn streaming_is_deterministic_and_seed_sensitive() {
        let cfg = SyntheticConfig::movielens_like().scaled(50, 40, (3, 9));
        let (da, ga) = cfg.generate_streaming(5);
        let (db, gb) = cfg.generate_streaming(5);
        assert_eq!(da.user_attrs, db.user_attrs);
        assert_eq!(ga.num_ratings(), gb.num_ratings());
        for u in 0..50 {
            assert_eq!(ga.user_neighbors(u), gb.user_neighbors(u));
        }
        let (_, gc) = cfg.generate_streaming(6);
        let differs = (0..50).any(|u| ga.user_neighbors(u) != gc.user_neighbors(u));
        assert!(differs, "different seeds must produce different graphs");
    }

    #[test]
    fn streaming_plants_popularity_skew_and_degree_bounds() {
        let cfg = SyntheticConfig::movielens_like().scaled(200, 80, (10, 25));
        let (_, g) = cfg.generate_streaming(13);
        for u in 0..200 {
            // Duplicate draws collapse in CSR compaction, so degrees can dip
            // below the configured minimum but never exceed the maximum.
            assert!(g.user_degree(u) >= 1 && g.user_degree(u) <= 25);
        }
        let mut degrees: Vec<usize> = (0..80).map(|i| g.item_degree(i)).collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        let top: usize = degrees[..8].iter().sum();
        let bottom: usize = degrees[72..].iter().sum();
        assert!(top > bottom * 3, "top={top} bottom={bottom}");
    }

    #[test]
    fn streaming_handles_the_hundred_thousand_user_regime() {
        // Scaled-down million preset: proves the streaming path holds up at
        // five-digit entity counts inside the default test budget. The full
        // 1M x 100k build is exercised by the ignored test below.
        let cfg = SyntheticConfig::million_scale().scaled(100_000, 10_000, (2, 6));
        let (dataset, g) = cfg.generate_streaming(3);
        assert_eq!(g.num_users(), 100_000);
        assert_eq!(g.num_items(), 10_000);
        assert!(g.num_ratings() >= 150_000, "got {}", g.num_ratings());
        assert_eq!(dataset.user_attrs.len(), 100_000);
    }

    #[test]
    #[ignore = "million-scale build takes tens of seconds; run with --ignored"]
    fn streaming_reaches_the_million_user_regime() {
        let cfg = SyntheticConfig::million_scale();
        let (dataset, g) = cfg.generate_streaming(1);
        assert_eq!(g.num_users(), 1_000_000);
        assert_eq!(g.num_items(), 100_000);
        assert!(g.num_ratings() >= 3_000_000, "got {}", g.num_ratings());
        dataset.validate().expect("valid at scale");
    }

    #[test]
    fn attributes_carry_signal() {
        // Users sharing all attribute codes should rate a popular item more
        // similarly than random user pairs (attribute-determined latents).
        let cfg = SyntheticConfig {
            attr_strength: 1.0,
            noise: 0.1,
            ..SyntheticConfig::movielens_like().scaled(200, 50, (20, 40))
        };
        let d = cfg.generate(6);
        let g = d.graph();
        // mean absolute rating difference across co-rating pairs, split by
        // attribute similarity
        let mut same = Vec::new();
        let mut diff = Vec::new();
        for i in 0..d.num_items {
            let raters = g.item_neighbors(i);
            for a in 0..raters.len().min(12) {
                for b in (a + 1)..raters.len().min(12) {
                    let (ua, ra) = raters[a];
                    let (ub, rb) = raters[b];
                    let shared = d.user_attrs[ua as usize]
                        .iter()
                        .zip(&d.user_attrs[ub as usize])
                        .filter(|(x, y)| x == y)
                        .count();
                    let delta = (ra - rb).abs();
                    if shared >= 3 {
                        same.push(delta);
                    } else if shared == 0 {
                        diff.push(delta);
                    }
                }
            }
        }
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len().max(1) as f32;
        assert!(
            !same.is_empty() && !diff.is_empty(),
            "need both pair kinds (same={}, diff={})",
            same.len(),
            diff.len()
        );
        assert!(
            mean(&same) < mean(&diff),
            "attribute-similar users should agree more: same={} diff={}",
            mean(&same),
            mean(&diff)
        );
    }
}
