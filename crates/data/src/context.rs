//! Prediction contexts: the `n x m` rating blocks consumed by HIRE
//! (§ IV-B) and the mask bookkeeping for training and testing.

use hire_error::{HireError, HireResult};
use hire_graph::{BipartiteGraph, ContextSampler, Rating};
use hire_tensor::NdArray;
use rand::seq::SliceRandom;
use std::collections::HashMap;

/// One prediction context: `n` users, `m` items, the observed ratings
/// within the block, and masks saying which ratings are model input and
/// which are prediction targets.
#[derive(Debug, Clone)]
pub struct PredictionContext {
    /// User indices in the context (row order).
    pub users: Vec<usize>,
    /// Item indices in the context (column order).
    pub items: Vec<usize>,
    /// `[n, m]` observed rating values; 0 where no rating exists.
    pub ratings: NdArray,
    /// `[n, m]` mask, 1 where the rating is given to the model as input.
    pub input_mask: NdArray,
    /// `[n, m]` mask, 1 where the model must predict (ground truth exists).
    pub target_mask: NdArray,
}

impl PredictionContext {
    /// Number of users (rows).
    pub fn n(&self) -> usize {
        self.users.len()
    }

    /// Number of items (columns).
    pub fn m(&self) -> usize {
        self.items.len()
    }

    /// Number of target cells.
    pub fn num_targets(&self) -> usize {
        self.target_mask
            .as_slice()
            .iter()
            .filter(|&&x| x == 1.0)
            .count()
    }

    /// Iterates over target cells as `(row, col, true_rating)`.
    pub fn targets(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        let m = self.m();
        self.target_mask
            .as_slice()
            .iter()
            .enumerate()
            .filter(|(_, &v)| v == 1.0)
            .map(move |(flat, _)| (flat / m, flat % m, self.ratings.as_slice()[flat]))
    }

    /// Row of a user id within the context, if present.
    pub fn user_row(&self, user: usize) -> Option<usize> {
        self.users.iter().position(|&u| u == user)
    }

    /// Column of an item id within the context, if present.
    pub fn item_col(&self, item: usize) -> Option<usize> {
        self.items.iter().position(|&i| i == item)
    }

    /// Sanity-checks mask disjointness and value consistency.
    pub fn validate(&self) -> HireResult<()> {
        let n = self.n();
        let m = self.m();
        for a in [&self.ratings, &self.input_mask, &self.target_mask] {
            if a.dims() != [n, m] {
                return Err(HireError::invalid_data(
                    "PredictionContext",
                    format!("array dims {:?} != [{n}, {m}]", a.dims()),
                ));
            }
        }
        for ((&inp, &tgt), &r) in self
            .input_mask
            .as_slice()
            .iter()
            .zip(self.target_mask.as_slice())
            .zip(self.ratings.as_slice())
        {
            if inp == 1.0 && tgt == 1.0 {
                return Err(HireError::invalid_data(
                    "PredictionContext",
                    "cell is both input and target",
                ));
            }
            if (inp == 1.0 || tgt == 1.0) && r == 0.0 {
                return Err(HireError::invalid_data(
                    "PredictionContext",
                    "masked-in cell has no rating value",
                ));
            }
        }
        Ok(())
    }
}

/// Collects the observed ratings of `graph` within a `users x items` block
/// as `(row, col, value)` triples.
fn block_ratings(
    graph: &BipartiteGraph,
    users: &[usize],
    items: &[usize],
) -> Vec<(usize, usize, f32)> {
    let col_of: HashMap<usize, usize> = items.iter().enumerate().map(|(j, &i)| (i, j)).collect();
    let mut out = Vec::new();
    for (row, &u) in users.iter().enumerate() {
        for &(item, value) in graph.user_neighbors(u) {
            if let Some(&col) = col_of.get(&(item as usize)) {
                out.push((row, col, value));
            }
        }
    }
    out
}

/// Builds a **training** context around a seed edge: samples the block with
/// `sampler`, then reveals `input_ratio` of the block's observed ratings as
/// input and marks the rest as targets (the paper's 10 % / 90 % protocol).
/// The seed edge itself is always a target.
///
/// Returns [`HireError::InvalidData`] when `input_ratio` is outside `[0, 1)`
/// or the block budget is degenerate — previously these were panics, which
/// aborted whole benchmark runs on one bad configuration.
pub fn training_context(
    graph: &BipartiteGraph,
    sampler: &dyn ContextSampler,
    seed: Rating,
    n: usize,
    m: usize,
    input_ratio: f32,
    rng: &mut dyn rand::RngCore,
) -> HireResult<PredictionContext> {
    if !(0.0..1.0).contains(&input_ratio) {
        return Err(HireError::invalid_data(
            "training_context",
            format!("input_ratio {input_ratio} outside [0, 1)"),
        ));
    }
    if n == 0 || m == 0 {
        return Err(HireError::invalid_data(
            "training_context",
            format!("context budget {n}x{m} must be at least 1x1"),
        ));
    }
    let sel = sampler.sample(graph, &[seed.user], &[seed.item], n, m, rng);
    let mut cells = block_ratings(graph, &sel.users, &sel.items);
    cells.shuffle(rng);

    let n_actual = sel.users.len();
    let m_actual = sel.items.len();
    let mut ratings = NdArray::zeros([n_actual, m_actual]);
    let mut input_mask = NdArray::zeros([n_actual, m_actual]);
    let mut target_mask = NdArray::zeros([n_actual, m_actual]);

    let num_input = (cells.len() as f32 * input_ratio).round() as usize;
    let seed_cell = (0usize, 0usize); // seeds are placed first by samplers
    let mut taken_input = 0;
    for (row, col, value) in cells {
        let flat = row * m_actual + col;
        ratings.as_mut_slice()[flat] = value;
        let is_seed = (row, col) == seed_cell;
        if !is_seed && taken_input < num_input {
            input_mask.as_mut_slice()[flat] = 1.0;
            taken_input += 1;
        } else {
            target_mask.as_mut_slice()[flat] = 1.0;
        }
    }
    Ok(PredictionContext {
        users: sel.users,
        items: sel.items,
        ratings,
        input_mask,
        target_mask,
    })
}

/// Builds a **test** context for one cold entity.
///
/// `queries` are the cold entity's query edges (all sharing a user for
/// user cold-start, or an item for item cold-start; arbitrary cold-cold
/// edges for U&IC). Seeds are the involved users/items (clipped to the
/// budget); remaining slots are filled by `sampler` over the `visible`
/// graph. Input cells are the visible-graph edges inside the block; target
/// cells are the query edges that landed inside the block.
pub fn test_context(
    visible: &BipartiteGraph,
    sampler: &dyn ContextSampler,
    queries: &[Rating],
    n: usize,
    m: usize,
    rng: &mut dyn rand::RngCore,
) -> HireResult<PredictionContext> {
    test_context_with_ratio(visible, sampler, queries, n, m, 1.0, rng)
}

/// [`test_context`] with control over the fraction of visible block edges
/// revealed as input.
///
/// The paper's protocol masks 90 % of observed ratings **in test contexts
/// too** (§ VI-A), so models are evaluated at the same input density they
/// were trained at; pass `keep_ratio = 0.1` for that behaviour. Edges
/// incident to the query seeds (the cold entity's support ratings) are
/// always kept — they are the cold entity's defining few interactions.
pub fn test_context_with_ratio(
    visible: &BipartiteGraph,
    sampler: &dyn ContextSampler,
    queries: &[Rating],
    n: usize,
    m: usize,
    keep_ratio: f32,
    rng: &mut dyn rand::RngCore,
) -> HireResult<PredictionContext> {
    if !(0.0..=1.0).contains(&keep_ratio) {
        return Err(HireError::invalid_data(
            "test_context",
            format!("keep_ratio {keep_ratio} outside [0, 1]"),
        ));
    }
    if queries.is_empty() {
        return Err(HireError::invalid_data(
            "test_context",
            "test context needs at least one query",
        ));
    }
    let mut seed_users: Vec<usize> = Vec::new();
    let mut seed_items: Vec<usize> = Vec::new();
    for q in queries {
        if !seed_users.contains(&q.user) && seed_users.len() < n {
            seed_users.push(q.user);
        }
        if !seed_items.contains(&q.item) && seed_items.len() < m {
            seed_items.push(q.item);
        }
    }
    let sel = sampler.sample(visible, &seed_users, &seed_items, n, m, rng);
    let n_actual = sel.users.len();
    let m_actual = sel.items.len();

    let mut ratings = NdArray::zeros([n_actual, m_actual]);
    let mut input_mask = NdArray::zeros([n_actual, m_actual]);
    let mut target_mask = NdArray::zeros([n_actual, m_actual]);

    // Visible edges become input, downsampled to `keep_ratio` so the input
    // density matches training. Edges incident to the *cold entity* — the
    // user (item) shared by every query pair — are always kept: they are
    // the support ratings that define the cold entity.
    let common_user = queries
        .iter()
        .map(|q| q.user)
        .reduce(|a, b| if a == b { a } else { usize::MAX })
        .filter(|&u| u != usize::MAX);
    let common_item = queries
        .iter()
        .map(|q| q.item)
        .reduce(|a, b| if a == b { a } else { usize::MAX })
        .filter(|&i| i != usize::MAX);
    let mut cells = block_ratings(visible, &sel.users, &sel.items);
    if keep_ratio < 1.0 {
        let is_support = |row: usize, col: usize| {
            common_user == Some(sel.users[row]) || common_item == Some(sel.items[col])
        };
        let (support, mut rest): (Vec<_>, Vec<_>) = cells
            .into_iter()
            .partition(|&(row, col, _)| is_support(row, col));
        rest.shuffle(rng);
        let keep = (rest.len() as f32 * keep_ratio).round() as usize;
        rest.truncate(keep);
        cells = support;
        cells.extend(rest);
    }
    for (row, col, value) in cells {
        let flat = row * m_actual + col;
        ratings.as_mut_slice()[flat] = value;
        input_mask.as_mut_slice()[flat] = 1.0;
    }
    // Query edges become targets (and are never inputs).
    let row_of: HashMap<usize, usize> =
        sel.users.iter().enumerate().map(|(r, &u)| (u, r)).collect();
    let col_of: HashMap<usize, usize> =
        sel.items.iter().enumerate().map(|(c, &i)| (i, c)).collect();
    for q in queries {
        let (Some(&row), Some(&col)) = (row_of.get(&q.user), col_of.get(&q.item)) else {
            continue; // query did not fit in the block budget
        };
        let flat = row * m_actual + col;
        ratings.as_mut_slice()[flat] = q.value;
        input_mask.as_mut_slice()[flat] = 0.0;
        target_mask.as_mut_slice()[flat] = 1.0;
    }
    Ok(PredictionContext {
        users: sel.users,
        items: sel.items,
        ratings,
        input_mask,
        target_mask,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hire_graph::NeighborhoodSampler;
    use rand::SeedableRng;

    fn graph() -> BipartiteGraph {
        // 6 users x 6 items, dense-ish block
        let mut edges = Vec::new();
        for u in 0..6 {
            for i in 0..6 {
                if (u + i) % 2 == 0 {
                    edges.push(Rating::new(u, i, ((u + i) % 5 + 1) as f32));
                }
            }
        }
        BipartiteGraph::from_ratings(6, 6, &edges)
    }

    #[test]
    fn training_context_masks_partition_observed() {
        let g = graph();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let ctx = training_context(
            &g,
            &NeighborhoodSampler,
            Rating::new(0, 0, 1.0),
            4,
            4,
            0.1,
            &mut rng,
        )
        .expect("training context");
        ctx.validate().expect("valid context");
        assert_eq!(ctx.n(), 4);
        assert_eq!(ctx.m(), 4);
        // seed edge must be a target
        assert_eq!(ctx.users[0], 0);
        assert_eq!(ctx.items[0], 0);
        assert_eq!(ctx.target_mask.at(&[0, 0]), 1.0);
        // every observed cell is input xor target
        let observed = block_ratings(&g, &ctx.users, &ctx.items).len();
        let marked = ctx.input_mask.sum_all() + ctx.target_mask.sum_all();
        assert_eq!(marked as usize, observed);
        // ~10% input
        let frac = ctx.input_mask.sum_all() / marked;
        assert!(frac <= 0.25, "input fraction {frac}");
    }

    #[test]
    fn test_context_marks_queries_as_targets() {
        let g = graph();
        // hide edge (0,0) from the visible graph; it is the query
        let visible = {
            let edges: Vec<Rating> = g
                .edges()
                .filter(|r| !(r.user == 0 && r.item == 0))
                .collect();
            BipartiteGraph::from_ratings(6, 6, &edges)
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let queries = [Rating::new(0, 0, 5.0)];
        let ctx = test_context(&visible, &NeighborhoodSampler, &queries, 4, 4, &mut rng)
            .expect("test context");
        ctx.validate().expect("valid context");
        assert_eq!(ctx.target_mask.at(&[0, 0]), 1.0);
        assert_eq!(ctx.input_mask.at(&[0, 0]), 0.0);
        assert_eq!(ctx.ratings.at(&[0, 0]), 5.0);
        assert_eq!(ctx.num_targets(), 1);
        // visible edges in the block are inputs
        assert!(ctx.input_mask.sum_all() > 0.0);
    }

    #[test]
    fn targets_iterator_yields_ground_truth() {
        let visible = BipartiteGraph::empty(6, 6);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let queries = [Rating::new(1, 1, 3.0), Rating::new(1, 3, 4.0)];
        let ctx = test_context(&visible, &NeighborhoodSampler, &queries, 3, 3, &mut rng)
            .expect("test context");
        let targets: Vec<_> = ctx.targets().collect();
        assert_eq!(targets.len(), 2);
        let values: Vec<f32> = targets.iter().map(|&(_, _, v)| v).collect();
        assert!(values.contains(&3.0) && values.contains(&4.0));
    }

    #[test]
    fn query_overflow_is_clipped_to_budget() {
        let g = graph();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        // 6 query items but m = 3
        let queries: Vec<Rating> = (0..6).map(|i| Rating::new(0, i, 2.0)).collect();
        let ctx =
            test_context(&g, &NeighborhoodSampler, &queries, 3, 3, &mut rng).expect("test context");
        assert_eq!(ctx.m(), 3);
        assert!(ctx.num_targets() <= 3);
        assert!(ctx.num_targets() > 0);
    }

    #[test]
    fn bad_configurations_yield_typed_errors_not_panics() {
        let g = graph();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let seed = Rating::new(0, 0, 1.0);
        let err = training_context(&g, &NeighborhoodSampler, seed, 4, 4, 1.5, &mut rng)
            .expect_err("input_ratio out of range must error");
        assert!(err.to_string().contains("input_ratio"));
        let err = training_context(&g, &NeighborhoodSampler, seed, 0, 4, 0.1, &mut rng)
            .expect_err("zero budget must error");
        assert!(err.to_string().contains("budget"));
        let err = test_context(&g, &NeighborhoodSampler, &[], 3, 3, &mut rng)
            .expect_err("empty query set must error");
        assert!(err.to_string().contains("query"));
        let err = test_context_with_ratio(&g, &NeighborhoodSampler, &[seed], 3, 3, -0.5, &mut rng)
            .expect_err("negative keep_ratio must error");
        assert!(err.to_string().contains("keep_ratio"));
    }
}
