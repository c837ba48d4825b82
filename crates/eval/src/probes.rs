//! Metamorphic probes of what a model does with the ratings a cold entity
//! reveals (its *support*), beside the ranking tables.
//!
//! - [`support_level`] — *level*: every support rating moved from the
//!   scale's bottom to its top; the mean change of the query answers over
//!   the scale's range. `EntityMean` (the user's visible mean) reads 1 on
//!   user cold-start, a model that never reads the visible graph 0.
//! - [`support_transfer`] — *transfer*: each cold entity's support is
//!   replaced by a warm twin's ratings, and it is asked about the twin's
//!   other rated items (users, for a cold item). The rank correlation of
//!   its answers with the twin's own ratings there, against the same with a
//!   random warm entity's ratings as the support: only a model that carries
//!   the support's preferences over reads higher with the twin.
//! - [`attention_evidence`] — Fig. 9 measured: for each cold query cell
//!   `(u, i)`, MBU's attention mass from `u` onto the context rows that
//!   revealed a rating of `i`, over those rows' share of the context, and
//!   MBI's mass from `i` onto the items `u` revealed, likewise — each also
//!   with the revealed values permuted among the revealed cells (the mask
//!   kept). A share near 1, or equal to its permuted control, means the
//!   layer does not follow the evidence.

use hire_baselines::RatingModel;
use hire_core::{HimAttention, HireConfig, HireModel};
use hire_data::{
    pair_context, ColdStartScenario, ColdStartSplit, Dataset, PredictionContext, PAIR_CONTEXT_SEED,
};
use hire_graph::{BipartiteGraph, NeighborhoodSampler, Rating};
use hire_tensor::NdArray;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};

/// Support ratings a twin lends a cold entity in [`support_transfer`].
const TWIN_SUPPORT: usize = 5;
/// Most of a twin's other ratings a cold entity is asked about.
const TWIN_QUERIES: usize = 10;

/// Whether the scenario's cold entities are users (UC, U&I C) or items.
fn cold_users(split: &ColdStartSplit) -> bool {
    split.scenario != ColdStartScenario::ItemCold
}

/// The edge between cold-side entity `entity` and `other`, as a rating.
fn edge(by_user: bool, entity: usize, other: usize, value: f32) -> Rating {
    if by_user {
        Rating::new(entity, other, value)
    } else {
        Rating::new(other, entity, value)
    }
}

fn graph_of(dataset: &Dataset, train: &[Rating], extra: &[Rating]) -> BipartiteGraph {
    let mut edges = train.to_vec();
    edges.extend_from_slice(extra);
    BipartiteGraph::from_ratings(dataset.num_users, dataset.num_items, &edges)
}

/// d prediction / d support (module docs): the answers to the query pairs
/// of the first `max_entities` cold entities that reveal at least one
/// rating, with every support rating of the split at the scale's bottom and
/// then at its top. `None` when no such entity has a query. `model` must
/// have been fit on the split's training graph.
pub fn support_level(
    model: &dyn RatingModel,
    dataset: &Dataset,
    split: &ColdStartSplit,
    max_entities: usize,
) -> Option<f32> {
    let by_user = cold_users(split);
    let supported: BTreeSet<usize> = split
        .support_ratings
        .iter()
        .map(|r| if by_user { r.user } else { r.item })
        .collect();
    let pairs: Vec<(usize, usize)> = split
        .queries_by_entity()
        .into_iter()
        .filter(|(entity, _)| supported.contains(entity))
        .take(max_entities)
        .flat_map(|(_, queries)| queries.into_iter().map(|r| (r.user, r.item)))
        .collect();
    if pairs.is_empty() {
        return None;
    }
    let answers_at = |value: f32| {
        let moved: Vec<Rating> = split
            .support_ratings
            .iter()
            .map(|r| Rating::new(r.user, r.item, value))
            .collect();
        model.predict(
            dataset,
            &graph_of(dataset, &split.train_ratings, &moved),
            &pairs,
        )
    };
    let (low, high) = (
        answers_at(dataset.min_rating),
        answers_at(dataset.max_rating()),
    );
    let range = (dataset.max_rating() - dataset.min_rating) as f64;
    let moved: f64 = low
        .iter()
        .zip(&high)
        .map(|(lo, hi)| (hi - lo) as f64 / range)
        .sum();
    Some((moved / pairs.len() as f64) as f32)
}

/// What [`support_transfer`] measured.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Transfer {
    /// Mean rank correlation of the answers with the twin's ratings, the
    /// twin's ratings as support.
    pub twin: f32,
    /// The same with a random warm entity's ratings as support.
    pub random: f32,
    /// Cold entities scored.
    pub entities: usize,
}

/// One cold entity's transfer question: the support the twin and the
/// random warm entity lend it, and the twin's other ratings it is asked.
struct Lent {
    twin: Vec<Rating>,
    random: Vec<Rating>,
    queries: Vec<(usize, usize)>,
    truth: Vec<f32>,
}

/// The transfer probe (module docs) over the first `max_entities` cold
/// entities, twins drawn from an RNG seeded by `seed`. Every cold entity's
/// own support is replaced; the warm graph is the split's training graph.
/// `model` must have been fit on it.
pub fn support_transfer(
    model: &dyn RatingModel,
    dataset: &Dataset,
    split: &ColdStartSplit,
    max_entities: usize,
    seed: u64,
) -> Transfer {
    let by_user = cold_users(split);
    let train = split.train_graph(dataset);
    let rated = |warm: usize| -> Vec<(usize, f32)> {
        let edges = if by_user {
            train.user_neighbors(warm)
        } else {
            train.item_neighbors(warm)
        };
        edges.iter().map(|&(o, v)| (o as usize, v)).collect()
    };
    let warm = if by_user {
        &split.train_users
    } else {
        &split.train_items
    };
    let pool: Vec<usize> = warm
        .iter()
        .copied()
        .filter(|&w| rated(w).len() >= TWIN_SUPPORT + 3)
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lent = Vec::new();
    for (entity, _) in split.queries_by_entity().into_iter().take(max_entities) {
        if pool.len() < 2 {
            break;
        }
        let twin = pool[rng.gen_range(0..pool.len())];
        let random = loop {
            let pick = pool[rng.gen_range(0..pool.len())];
            if pick != twin {
                break pick;
            }
        };
        let mut twin_rated = rated(twin);
        twin_rated.shuffle(&mut rng);
        let (support, asked) = twin_rated.split_at(TWIN_SUPPORT);
        let asked = &asked[..asked.len().min(TWIN_QUERIES)];
        let asked_ids: BTreeSet<usize> = asked.iter().map(|&(o, _)| o).collect();
        let mut random_rated = rated(random);
        random_rated.shuffle(&mut rng);
        let lend = |rated: &[(usize, f32)]| -> Vec<Rating> {
            rated
                .iter()
                .map(|&(other, value)| edge(by_user, entity, other, value))
                .collect()
        };
        let random_support: Vec<(usize, f32)> = random_rated
            .into_iter()
            .filter(|(other, _)| !asked_ids.contains(other))
            .take(TWIN_SUPPORT)
            .collect();
        lent.push(Lent {
            twin: lend(support),
            random: lend(&random_support),
            queries: asked
                .iter()
                .map(|&(other, _)| {
                    let r = edge(by_user, entity, other, 0.0);
                    (r.user, r.item)
                })
                .collect(),
            truth: asked.iter().map(|&(_, value)| value).collect(),
        });
    }
    // A twin whose asked ratings are all equal has no order to transfer.
    lent.retain(|l| l.truth.iter().any(|&v| v != l.truth[0]));
    let queries: Vec<(usize, usize)> = lent.iter().flat_map(|l| l.queries.clone()).collect();
    let mean_correlation = |support: Vec<Rating>| -> f32 {
        let answers = model.predict(
            dataset,
            &graph_of(dataset, &split.train_ratings, &support),
            &queries,
        );
        let mut at = 0;
        let mut sum = 0.0f64;
        for l in &lent {
            let n = l.queries.len();
            sum += spearman(&answers[at..at + n], &l.truth) as f64;
            at += n;
        }
        (sum / lent.len().max(1) as f64) as f32
    };
    Transfer {
        twin: mean_correlation(lent.iter().flat_map(|l| l.twin.clone()).collect()),
        random: mean_correlation(lent.iter().flat_map(|l| l.random.clone()).collect()),
        entities: lent.len(),
    }
}

/// Ranks with ties given their mean rank.
fn ranks(values: &[f32]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let mut ranks = vec![0.0; values.len()];
    let mut start = 0;
    while start < order.len() {
        let mut end = start + 1;
        while end < order.len() && values[order[end]] == values[order[start]] {
            end += 1;
        }
        let mean = (start + end - 1) as f64 / 2.0;
        for &i in &order[start..end] {
            ranks[i] = mean;
        }
        start = end;
    }
    ranks
}

/// Spearman's rank correlation; 0 when either side is constant (a constant
/// orders nothing).
fn spearman(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "paired samples");
    let (ra, rb) = (ranks(a), ranks(b));
    let n = ra.len() as f64;
    let mean = (n - 1.0) / 2.0;
    let (mut cov, mut va, mut vb) = (0.0, 0.0, 0.0);
    for (x, y) in ra.iter().zip(&rb) {
        cov += (x - mean) * (y - mean);
        va += (x - mean) * (x - mean);
        vb += (y - mean) * (y - mean);
    }
    if va == 0.0 || vb == 0.0 {
        return 0.0;
    }
    (cov / (va * vb).sqrt()) as f32
}

/// Which of HIM's two interaction layers a share reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Layer {
    /// Users attend over users, per item column: mass from the query's
    /// user onto the rows that revealed a rating of the query's item.
    Mbu,
    /// Items attend over items, per user row: mass from the query's item
    /// onto the items the query's user revealed.
    Mbi,
}

/// One (block, layer, head)'s evidence share at one query cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CellShare {
    /// 0-based HIM block.
    pub block: usize,
    /// The layer.
    pub layer: Layer,
    /// Attention head.
    pub head: usize,
    /// Attention mass on the evidence, over the evidence's share of the
    /// keys: 1 is no preference.
    pub share: f32,
}

/// The evidence shares of query cell `(row, col)` in every block, layer
/// and head (module docs), from `attns` ([`HireModel::forward_with_attention`]:
/// MBU `[m, heads, n, n]`, MBI `[n, heads, m, m]`, query then key) and the
/// context's `[n, m]` input mask. A layer whose evidence is empty, or
/// every key, says nothing and is left out, as is a disabled layer.
pub fn cell_shares(
    attns: &[HimAttention],
    input_mask: &NdArray,
    row: usize,
    col: usize,
) -> Vec<CellShare> {
    let (n, m) = (input_mask.dims()[0], input_mask.dims()[1]);
    let revealed = |r: usize, c: usize| input_mask.at(&[r, c]) == 1.0;
    let rows: Vec<usize> = (0..n).filter(|&r| revealed(r, col)).collect();
    let cols: Vec<usize> = (0..m).filter(|&c| revealed(row, c)).collect();
    let mut out = Vec::new();
    for (block, attn) in attns.iter().enumerate() {
        for (layer, weights, view, query, keys, total) in [
            (Layer::Mbu, &attn.mbu, col, row, &rows, n),
            (Layer::Mbi, &attn.mbi, row, col, &cols, m),
        ] {
            if weights.as_slice().is_empty() || keys.is_empty() || keys.len() == total {
                continue;
            }
            for head in 0..weights.dims()[1] {
                let mass: f32 = keys
                    .iter()
                    .map(|&key| weights.at(&[view, head, query, key]))
                    .sum();
                out.push(CellShare {
                    block,
                    layer,
                    head,
                    share: mass / (keys.len() as f32 / total as f32),
                });
            }
        }
    }
    out
}

/// The revealed values of `ctx` shuffled among its revealed cells; the
/// masks, and so which cells are evidence, unchanged.
fn permute_revealed(ctx: &PredictionContext, rng: &mut StdRng) -> PredictionContext {
    let mut permuted = ctx.clone();
    let cells: Vec<usize> = (0..ctx.input_mask.as_slice().len())
        .filter(|&k| ctx.input_mask.as_slice()[k] == 1.0)
        .collect();
    let mut values: Vec<f32> = cells.iter().map(|&k| ctx.ratings.as_slice()[k]).collect();
    values.shuffle(rng);
    for (&k, v) in cells.iter().zip(values) {
        permuted.ratings.as_mut_slice()[k] = v;
    }
    permuted
}

/// One (block, layer, head)'s mean evidence share over a scenario's cold
/// query cells, and the same with the revealed values permuted.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct AttentionEvidence {
    /// 0-based HIM block.
    pub block: usize,
    /// The layer.
    pub layer: Layer,
    /// Attention head.
    pub head: usize,
    /// Mean share over the cells.
    pub share: f32,
    /// Mean share with the revealed values permuted (mask kept).
    pub permuted: f32,
    /// Cells averaged.
    pub cells: usize,
}

/// Fig. 9 measured (module docs): the first `per_entity` query cells of
/// the first `max_entities` cold entities, each answered from its pair's
/// own context over the split's visible graph, as the tables and the
/// server answer it. `model` was built with `config`; the permutations
/// draw from an RNG seeded by `seed`.
pub fn attention_evidence(
    model: &HireModel,
    config: &HireConfig,
    dataset: &Dataset,
    split: &ColdStartSplit,
    max_entities: usize,
    per_entity: usize,
    seed: u64,
) -> Vec<AttentionEvidence> {
    let visible = split.visible_graph(dataset);
    let mut rng = StdRng::seed_from_u64(seed);
    // (block, layer, head) → (share sum, permuted sum, cells)
    let mut sums: BTreeMap<(usize, Layer, usize), (f64, f64, usize)> = BTreeMap::new();
    for (_, queries) in split.queries_by_entity().into_iter().take(max_entities) {
        for query in queries.iter().take(per_entity) {
            let Ok(ctx) = pair_context(
                &visible,
                &NeighborhoodSampler,
                Rating::new(query.user, query.item, dataset.min_rating),
                config.context_users,
                config.context_items,
                config.input_ratio,
                PAIR_CONTEXT_SEED,
            ) else {
                continue;
            };
            let (Some(row), Some(col)) = (ctx.user_row(query.user), ctx.item_col(query.item))
            else {
                continue;
            };
            let (_, attns) = model.forward_with_attention(&ctx, dataset);
            let permuted = permute_revealed(&ctx, &mut rng);
            let (_, permuted_attns) = model.forward_with_attention(&permuted, dataset);
            let shares = cell_shares(&attns, &ctx.input_mask, row, col);
            let controls = cell_shares(&permuted_attns, &ctx.input_mask, row, col);
            for (s, c) in shares.iter().zip(&controls) {
                let sum = sums.entry((s.block, s.layer, s.head)).or_default();
                sum.0 += s.share as f64;
                sum.1 += c.share as f64;
                sum.2 += 1;
            }
        }
    }
    sums.into_iter()
        .map(
            |((block, layer, head), (share, permuted, cells))| AttentionEvidence {
                block,
                layer,
                head,
                share: (share / cells as f64) as f32,
                permuted: (permuted / cells as f64) as f32,
                cells,
            },
        )
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spearman_reads_order_and_ties() {
        assert_eq!(spearman(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]), 1.0);
        assert_eq!(spearman(&[3.0, 2.0, 1.0], &[10.0, 20.0, 30.0]), -1.0);
        assert_eq!(spearman(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]), 0.0);
        assert_eq!(ranks(&[5.0, 1.0, 5.0, 3.0]), vec![2.5, 0.0, 2.5, 1.0]);
    }
}
